"""Campaign manifests and the deterministic shard planner.

A :class:`CampaignManifest` describes one Monte-Carlo campaign: which
figures to reproduce, over which root seeds, at which scale.  The
planner expands it into the campaign's **work units** — one per
``(figure, seed, curve, sweep value)`` block, the exact granularity of
the campaign DAG's solve stages and of the result store's cell records
— and partitions them into ``N`` disjoint :class:`ShardPlan` s:

>>> manifest = CampaignManifest(figures=("fig5",), seeds=(0, 1), repetitions=4)
>>> shards = plan(manifest, shards=2)
>>> sum(len(s.units) for s in shards) == len(expand_units(manifest))
True

Units are not equally expensive: a MIP block runs ~100x a heuristic
block (see :mod:`repro.dag.cost`).  The planner therefore assigns units
longest-processing-time-first, each to the currently least-loaded
shard by estimated cost, so shard *durations* stay level.  Planning is
a pure function of ``(manifest, shards)``: re-planning on any host
reproduces the same partition, so a worker given only the campaign
manifest and its ``k/N`` coordinates computes exactly the same units as
one given a serialized per-shard manifest.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields
from pathlib import Path

from ..exceptions import ExperimentError
from ..experiments.figures import FIGURES, FigureSpec
from ..experiments.providers import resolve_curves
from ..generators.scenarios import ScenarioConfig

__all__ = [
    "CampaignManifest",
    "WorkUnit",
    "ShardPlan",
    "parse_seed_spec",
    "expand_units",
    "plan",
    "write_plans",
    "load_plan",
]

#: File name of the campaign-level manifest written next to shard plans.
CAMPAIGN_FILE = "campaign.json"


def parse_seed_spec(spec: str | int) -> tuple[int, ...]:
    """Expand a seed specification into an explicit tuple.

    Accepts a plain integer, an inclusive range ``"0..9"``, or a
    comma-separated mix of both (``"0..3,7,9"``).
    """
    if isinstance(spec, int):
        return (spec,)
    seeds: list[int] = []
    for part in str(spec).split(","):
        part = part.strip()
        if not part:
            continue
        if ".." in part:
            low_text, _, high_text = part.partition("..")
            try:
                low, high = int(low_text), int(high_text)
            except ValueError as exc:
                raise ExperimentError(f"bad seed range {part!r}; expected LO..HI") from exc
            if high < low:
                raise ExperimentError(f"bad seed range {part!r}: {high} < {low}")
            seeds.extend(range(low, high + 1))
        else:
            try:
                seeds.append(int(part))
            except ValueError as exc:
                raise ExperimentError(
                    f"bad seed {part!r}; expected an integer or LO..HI"
                ) from exc
    if not seeds:
        raise ExperimentError(f"seed spec {spec!r} expands to no seeds")
    if len(set(seeds)) != len(seeds):
        raise ExperimentError(f"seed spec {spec!r} repeats a seed")
    return tuple(seeds)


@dataclass(frozen=True, slots=True)
class CampaignManifest:
    """Everything that defines a campaign's results (plus worker knobs).

    The first block of fields determines *what* is computed — they are
    part of the plan's identity and must match between planner and
    workers.  ``workers`` and ``memoize_instances`` only affect how fast
    a host computes its shard and may differ per host.
    """

    figures: tuple[str, ...]
    seeds: tuple[int, ...] = (0,)
    repetitions: int | None = None
    max_points: int | None = None
    no_milp: bool = False
    milp_time_limit: float = 30.0
    optional_curves: bool = False
    workers: int | None = None
    memoize_instances: bool = False

    def __post_init__(self) -> None:
        if not self.figures:
            raise ExperimentError("a campaign needs at least one figure")
        for figure_id in self.figures:
            if figure_id not in FIGURES:
                raise ExperimentError(
                    f"unknown figure {figure_id!r}; known figures: {sorted(FIGURES)}"
                )
        if not self.seeds:
            raise ExperimentError("a campaign needs at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ExperimentError("campaign seeds must be distinct")

    def spec_for(self, figure_id: str) -> FigureSpec:
        """The figure's spec (validated at construction)."""
        return FIGURES[figure_id]

    def scenario_for(self, figure_id: str) -> ScenarioConfig:
        """The (possibly scaled-down) scenario a figure actually runs."""
        return self.spec_for(figure_id).scenario.scaled(
            repetitions=self.repetitions, max_points=self.max_points
        )

    def use_milp_for(self, figure_id: str) -> bool:
        """Whether the MIP curve runs for a figure under this manifest."""
        return False if self.no_milp else self.scenario_for(figure_id).include_milp

    def curves_for(self, figure_id: str) -> tuple[str, ...]:
        """The figure's curve labels, in the engine's series order."""
        spec = self.spec_for(figure_id)
        scenario = self.scenario_for(figure_id)
        providers = resolve_curves(
            scenario,
            use_milp=self.use_milp_for(figure_id),
            use_oto=scenario.include_one_to_one,
            milp_time_limit=self.milp_time_limit,
            extra_curves=spec.optional_curves if self.optional_curves else (),
        )
        return tuple(provider.label for provider in providers)

    # -- serialisation ----------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready plain-dict representation."""
        data = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            data[spec.name] = list(value) if isinstance(value, tuple) else value
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignManifest":
        """Rebuild a manifest from :meth:`to_dict` output.

        Accepts pre-distributed campaign manifests too: a scalar
        ``"seed"`` field is promoted to a one-element ``seeds`` axis.
        """
        kwargs = dict(data)
        if "seed" in kwargs and "seeds" not in kwargs:
            kwargs["seeds"] = [kwargs.pop("seed")]
        kwargs.pop("seed", None)
        known = {spec.name for spec in fields(cls)}
        unknown = set(kwargs) - known
        if unknown:
            raise ExperimentError(
                f"unknown campaign manifest fields {sorted(unknown)}; "
                f"expected {sorted(known)}"
            )
        for name in ("figures", "seeds"):
            if name in kwargs and kwargs[name] is not None:
                kwargs[name] = tuple(kwargs[name])
        return cls(**kwargs)


@dataclass(frozen=True, slots=True)
class WorkUnit:
    """One block of work: a (figure, seed, curve, sweep value) cell.

    The unit of distribution is the unit of storage — computing a unit
    produces exactly one :class:`~repro.experiments.store.CellRecord`,
    which is what makes shard stores mergeable without coordination.
    """

    figure_id: str
    seed: int
    curve: str
    sweep_value: int

    def as_list(self) -> list:
        """JSON-ready ``[figure, seed, curve, sweep value]`` quadruple."""
        return [self.figure_id, self.seed, self.curve, self.sweep_value]

    @classmethod
    def from_list(cls, data: list) -> "WorkUnit":
        figure_id, seed, curve, sweep_value = data
        return cls(str(figure_id), int(seed), str(curve), int(sweep_value))


def expand_units(manifest: CampaignManifest) -> list[WorkUnit]:
    """Every work unit of a campaign, in canonical order.

    Canonical order — figures (manifest order), then seeds, then curves
    (series order), then sweep values — is what makes planning
    deterministic and shard manifests reproducible from ``(manifest, N)``
    alone.
    """
    units: list[WorkUnit] = []
    for figure_id in manifest.figures:
        scenario = manifest.scenario_for(figure_id)
        curves = manifest.curves_for(figure_id)
        for seed in manifest.seeds:
            for curve in curves:
                for sweep_value in scenario.sweep_values:
                    units.append(WorkUnit(figure_id, seed, curve, int(sweep_value)))
    return units


@dataclass(frozen=True, slots=True)
class ShardPlan:
    """One worker's slice of a campaign: the manifest plus its units."""

    manifest: CampaignManifest
    index: int
    shards: int
    units: tuple[WorkUnit, ...] = field(default_factory=tuple)

    @property
    def name(self) -> str:
        """Display name (``shard 2/4``)."""
        return f"shard {self.index}/{self.shards}"

    def to_dict(self) -> dict:
        return {
            "manifest": self.manifest.to_dict(),
            "shard": self.index,
            "shards": self.shards,
            "units": [unit.as_list() for unit in self.units],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ShardPlan":
        # Files written by older planners also record "by"/"balance"; the
        # unit list is authoritative, so those fields are ignored.
        return cls(
            manifest=CampaignManifest.from_dict(data["manifest"]),
            index=int(data["shard"]),
            shards=int(data["shards"]),
            units=tuple(WorkUnit.from_list(unit) for unit in data["units"]),
        )


def plan(manifest: CampaignManifest, *, shards: int) -> list[ShardPlan]:
    """Partition a campaign into ``shards`` disjoint, covering shard plans.

    Units are priced with :func:`repro.dag.cost.unit_cost`, sorted
    longest first (ties in canonical order) and each assigned to the
    least-loaded shard (ties to the lowest index).  Two calls with the
    same arguments produce identical plans on any host, every unit lands
    on exactly one shard, and units keep their canonical order within
    each shard (some shards may be empty when there are fewer units than
    shards).
    """
    # Imported here: repro.dag's package import compiles pipelines from
    # this module's manifests, so a module-level import would be circular.
    from ..dag.cost import unit_cost

    if shards < 1:
        raise ExperimentError(f"shards must be >= 1, got {shards}")
    units = expand_units(manifest)
    costs = [unit_cost(manifest, unit) for unit in units]
    loads = [0.0] * shards
    owner = [0] * len(units)
    for position in sorted(range(len(units)), key=lambda i: (-costs[i], i)):
        shard = min(range(shards), key=lambda index: (loads[index], index))
        owner[position] = shard
        loads[shard] += costs[position]
    return [
        ShardPlan(
            manifest=manifest,
            index=index,
            shards=shards,
            units=tuple(unit for unit, k in zip(units, owner) if k == index),
        )
        for index in range(shards)
    ]


def write_plans(
    manifest: CampaignManifest, out_dir: str | os.PathLike, *, shards: int
) -> list[tuple[Path, ShardPlan]]:
    """Write ``campaign.json`` plus one ``shard_<k>.json`` per shard.

    Returns ``(path, plan)`` pairs (ship each path to its worker host;
    the campaign manifest alone also suffices together with ``--shard
    k/N``).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    shard_plans = plan(manifest, shards=shards)
    campaign_doc = dict(manifest.to_dict(), shards=shards)
    (out / CAMPAIGN_FILE).write_text(
        json.dumps(campaign_doc, indent=2) + "\n", encoding="utf-8"
    )
    written = []
    for shard_plan in shard_plans:
        path = out / f"shard_{shard_plan.index}.json"
        path.write_text(json.dumps(shard_plan.to_dict(), indent=2) + "\n", encoding="utf-8")
        written.append((path, shard_plan))
    return written


def _read_plan_file(path: str | os.PathLike) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ExperimentError(f"cannot read plan file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ExperimentError(f"{path} is not a valid plan file: {exc}") from exc


def _campaign_from_doc(
    path: str | os.PathLike, raw: dict
) -> tuple[CampaignManifest, int | None]:
    """The manifest and recorded shard count of a campaign document.

    Older planners also recorded a partition axis (``by``) and policy
    (``balance``).  Only ``block``/``cost`` re-plans into the partition
    those files' other workers ran; anything else is refused — the same
    hazard as a mismatched shard count.
    """
    raw = dict(raw)
    count = raw.pop("shards", None)
    by, balance = raw.pop("by", None), raw.pop("balance", None)
    if (by, balance) not in ((None, None), ("block", "cost")):
        raise ExperimentError(
            f"{path} was planned by {by or 'seed'!r} with "
            f"{balance or 'round_robin'!r} balancing, which this planner no "
            "longer reproduces; re-run 'shard plan' and restart its shards"
        )
    return CampaignManifest.from_dict(raw), count


def load_plan(
    path: str | os.PathLike, *, shard: tuple[int, int] | None = None
) -> ShardPlan:
    """Load a shard plan from a planner file.

    ``path`` may be a per-shard manifest (``shard_k.json``, self-
    contained) or a campaign manifest — the latter needs ``shard=(k,
    N)`` and re-plans deterministically, which is how a worker can run
    from nothing but the campaign file and its coordinates.
    """
    raw = _read_plan_file(path)
    if "units" in raw:
        if shard is not None and shard != (int(raw["shard"]), int(raw["shards"])):
            raise ExperimentError(
                f"{path} is shard {raw['shard']}/{raw['shards']}, not "
                f"{shard[0]}/{shard[1]}"
            )
        return ShardPlan.from_dict(raw)
    manifest, count = _campaign_from_doc(path, raw)
    if shard is None:
        if count in (None, 1):
            shard = (0, 1)
        else:
            raise ExperimentError(
                f"{path} is a campaign manifest planned for {count} shards; "
                "pass --shard k/N to pick one"
            )
    elif count is not None and shard[1] != count:
        # A planner-written campaign file pins the shard count: accepting a
        # different N would silently re-partition the campaign and leave
        # units uncovered across the fleet.
        raise ExperimentError(
            f"{path} was planned for {count} shard(s), not {shard[1]}; "
            "re-run 'shard plan' to change the partition"
        )
    index, total = shard
    if not 0 <= index < total:
        raise ExperimentError(f"shard index {index} outside 0..{total - 1}")
    return plan(manifest, shards=total)[index]
