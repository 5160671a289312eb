"""Statistics over experiment repetitions.

Every point of a paper figure is an average over 30 (or 100) random
repetitions.  This module provides a small, dependency-light statistics
layer: per-point summaries (mean, standard deviation, confidence
interval) and series containers keyed by the sweep variable.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

__all__ = ["PointSummary", "Series", "summarize", "paired_ratio"]


@dataclass(frozen=True, slots=True)
class PointSummary:
    """Summary statistics of one experimental point (one x value).

    Attributes
    ----------
    count:
        Number of valid (finite) samples.
    mean, std, minimum, maximum:
        Usual summary statistics over the valid samples.
    ci_low, ci_high:
        95% Student confidence interval on the mean (equal to the mean when
        fewer than two samples are available).
    """

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    ci_low: float
    ci_high: float

    def as_dict(self) -> dict:
        """Plain-dict representation."""
        return {
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "min": self.minimum,
            "max": self.maximum,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
        }


def summarize(samples: Iterable[float], *, confidence: float = 0.95) -> PointSummary:
    """Summarise a collection of samples, ignoring NaN / infinite values."""
    values = np.asarray([float(v) for v in samples], dtype=np.float64)
    values = values[np.isfinite(values)]
    if values.size == 0:
        nan = float("nan")
        return PointSummary(0, nan, nan, nan, nan, nan, nan)
    mean = float(values.mean())
    std = float(values.std(ddof=1)) if values.size > 1 else 0.0
    if values.size > 1 and std > 0.0:
        # Imported here: scipy.stats alone costs about a second of every
        # CLI start and pool-worker spawn.
        from scipy import stats as _scipy_stats

        sem = std / math.sqrt(values.size)
        t_crit = float(_scipy_stats.t.ppf(0.5 + confidence / 2.0, df=values.size - 1))
        half_width = t_crit * sem
    else:
        half_width = 0.0
    return PointSummary(
        count=int(values.size),
        mean=mean,
        std=std,
        minimum=float(values.min()),
        maximum=float(values.max()),
        ci_low=mean - half_width,
        ci_high=mean + half_width,
    )


def paired_ratio(numerators: Sequence[float], denominators: Sequence[float]) -> PointSummary:
    """Summary of the per-repetition ratio ``numerator / denominator``.

    Used to normalise a heuristic against the exact optimum computed on the
    *same* instance (Figure 11): the mean of paired ratios, not the ratio
    of means.
    """
    if len(numerators) != len(denominators):
        raise ValueError("numerators and denominators must have the same length")
    ratios = []
    for num, den in zip(numerators, denominators):
        if not (math.isfinite(num) and math.isfinite(den)) or den <= 0:
            continue
        ratios.append(num / den)
    return summarize(ratios)


@dataclass(slots=True)
class Series:
    """A named series of per-x sample collections (one curve of a figure).

    Attributes
    ----------
    label:
        Curve label ("H4w", "MIP", ...).
    x_values:
        Sweep values, in plotting order.
    samples:
        ``samples[x]`` is the list of per-repetition measurements at ``x``.
    """

    label: str
    x_values: list[int] = field(default_factory=list)
    samples: dict[int, list[float]] = field(default_factory=dict)

    def add(self, x: int, value: float) -> None:
        """Record one measurement at sweep value ``x``."""
        if x not in self.samples:
            self.samples[x] = []
            self.x_values.append(x)
        self.samples[x].append(float(value))

    def extend(self, x: int, values: Iterable[float]) -> None:
        """Record several measurements at sweep value ``x``."""
        for value in values:
            self.add(x, value)

    def point(self, x: int) -> PointSummary:
        """Summary of the measurements at ``x``."""
        return summarize(self.samples.get(x, ()))

    def means(self) -> list[float]:
        """Mean value at every sweep point, in order."""
        return [self.point(x).mean for x in self.x_values]

    def as_rows(self) -> list[dict]:
        """One dict per sweep point: ``{"x", "label", ...summary...}``."""
        rows = []
        for x in self.x_values:
            row = {"x": x, "label": self.label}
            row.update(self.point(x).as_dict())
            rows.append(row)
        return rows
