"""The per-cell reference engine: the scalar oracle of the block engine.

Every (sweep point, repetition) cell of a scenario is drawn and solved
on its own through the scalar heuristics, the optimal one-to-one mapping
and the exact MIP — the paper-faithful path the production block engine
(:func:`repro.experiments.runner.run_scenario`) must reproduce bit for
bit.  Importable from any test module or benchmark::

    from tests.cells_oracle import run_cells, run_figure_cells
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from repro.analysis.stats import Series
from repro.exact.milp import solve_specialized_milp
from repro.exact.one_to_one import optimal_one_to_one
from repro.exceptions import SolverError
from repro.experiments.figures import FIGURES
from repro.experiments.providers import MIP_LABEL, OTO_LABEL
from repro.experiments.runner import ExperimentResult
from repro.generators.scenarios import ScenarioConfig, sample_instance
from repro.heuristics import get_heuristic
from repro.simulation.rng import RandomStreamFactory

__all__ = ["run_cells", "run_figure_cells"]


def _evaluate_cell(
    scenario: ScenarioConfig,
    sweep_value: int,
    repetition: int,
    entropy,
    use_milp: bool,
    use_oto: bool,
) -> tuple[dict[str, float], int]:
    """Run every curve of one cell; ``({curve label: period}, milp_failures)``.

    All randomness is re-derived from ``entropy`` through the stream
    factory, so the result is a pure function of its arguments (the MIP's
    wall-clock time limit aside).
    """
    streams = RandomStreamFactory(np.random.SeedSequence(entropy))
    instance = sample_instance(
        scenario, sweep_value, repetition, streams, memoize=False
    )
    periods: dict[str, float] = {}
    for name in scenario.heuristics:
        rng = streams.stream(f"heuristic/{name}/{sweep_value}", repetition)
        periods[name] = get_heuristic(name).solve(instance, rng).period
    if use_oto:
        try:
            periods[OTO_LABEL] = optimal_one_to_one(instance).period
        except SolverError:
            periods[OTO_LABEL] = float("nan")
    milp_failures = 0
    if use_milp:
        milp = solve_specialized_milp(instance, time_limit=30.0)
        if milp.is_optimal:
            periods[MIP_LABEL] = milp.period
        else:
            milp_failures = 1
            periods[MIP_LABEL] = float("nan")
    return periods, milp_failures


def _evaluate_cell_args(args) -> tuple[dict[str, float], int]:
    """Tuple-unpacking adapter for ``ProcessPoolExecutor.map``."""
    return _evaluate_cell(*args)


def run_cells(
    scenario: ScenarioConfig,
    *,
    seed: int | None = 0,
    include_milp: bool | None = None,
    include_one_to_one: bool | None = None,
    workers: int | None = None,
    figure_id: str = "custom",
) -> ExperimentResult:
    """Run ``scenario`` cell by cell (serially, or on a process pool)."""
    start = time.perf_counter()
    entropy = RandomStreamFactory(seed).entropy
    use_milp = scenario.include_milp if include_milp is None else include_milp
    use_oto = (
        scenario.include_one_to_one if include_one_to_one is None else include_one_to_one
    )
    series: dict[str, Series] = {
        name: Series(label=name) for name in scenario.heuristics
    }
    if use_milp:
        series[MIP_LABEL] = Series(label=MIP_LABEL)
    if use_oto:
        series[OTO_LABEL] = Series(label=OTO_LABEL)

    cells = [
        (sweep_value, repetition)
        for sweep_value in scenario.sweep_values
        for repetition in range(scenario.repetitions)
    ]
    job_args = [
        (scenario, sweep_value, repetition, entropy, use_milp, use_oto)
        for sweep_value, repetition in cells
    ]
    if workers is not None and workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunksize = max(1, len(job_args) // (workers * 4))
            outcomes = list(pool.map(_evaluate_cell_args, job_args, chunksize=chunksize))
    else:
        outcomes = [_evaluate_cell(*args) for args in job_args]

    # Fold in the serial iteration order, whatever the worker scheduling.
    milp_failures = 0
    for (sweep_value, _repetition), (periods, cell_failures) in zip(cells, outcomes):
        milp_failures += cell_failures
        for label, value in periods.items():
            series[label].add(sweep_value, value)
    return ExperimentResult(
        figure_id=figure_id,
        scenario=scenario,
        series=series,
        normalized=None,
        seed=seed,
        elapsed_seconds=time.perf_counter() - start,
        milp_failures=milp_failures,
    )


def run_figure_cells(
    figure_id: str,
    *,
    seed: int | None = 0,
    repetitions: int | None = None,
    max_points: int | None = None,
    include_milp: bool | None = None,
) -> ExperimentResult:
    """:func:`run_cells` on a figure's (scaled-down) scenario."""
    scenario = FIGURES[figure_id].scenario.scaled(
        repetitions=repetitions, max_points=max_points
    )
    return run_cells(
        scenario, seed=seed, include_milp=include_milp, figure_id=figure_id
    )
