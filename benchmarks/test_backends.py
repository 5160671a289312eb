"""Benchmarks of the pluggable kernel backends (PR 7).

The numba backend replaces the numpy kernels' ``np.add.at`` scatters and
the ``(R, m, m)`` probe tensor with fused JIT loops; on the refinement
workload (the hottest loop of the reproduction) it must be at least
**1.5x** faster than the numpy backend at the hard m=50, R=50 shape.
Both backends are bit-for-bit identical, so the gate is purely about
speed.

Everything here skips cleanly when numba is not installed — the default
environment stays numpy-only (``pip install -e .[numba]`` opts in), and
``compare_to_baseline.py`` treats the numba bench as optional.

Run with ``python -m pytest -m bench benchmarks/test_backends.py -s``.
"""

from __future__ import annotations

import time

import pytest

from repro.backend import numba_status, use_backend
from repro.experiments import CellBlock
from repro.generators import ScenarioConfig
from repro.heuristics import get_heuristic
from repro.heuristics.base import solve_stack
from repro.heuristics.local_search import refine_specialized_batch
from repro.simulation.rng import RandomStreamFactory

R = 50

requires_numba = pytest.mark.skipif(
    not numba_status()[0], reason="numba backend not installed (.[numba] extra)"
)


@pytest.fixture(scope="module")
def block() -> CellBlock:
    """The fig5-shaped m=50, R=50 sweep point the refine gate runs on."""
    scenario = ScenarioConfig(
        name="bench-backends",
        num_machines=50,
        num_types=5,
        sweep="tasks",
        sweep_values=(100,),
        repetitions=R,
        heuristics=("H4w",),
    )
    return CellBlock.sample(scenario, 100, RandomStreamFactory(17))


def _time(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@requires_numba
def test_numba_refine_speedup(block):
    """Acceptance: numba >= 1.5x numpy on the batched H4ls descent."""
    with use_backend("numpy"):
        seeds = solve_stack(get_heuristic("H4w"), block.instances, batch=True)

        def numpy_refine():
            return refine_specialized_batch(block.instances, seeds)

        numpy_refined, numpy_moves = numpy_refine()
        numpy_time = _time(numpy_refine)
    with use_backend("numba"):
        def numba_refine():
            return refine_specialized_batch(block.instances, seeds)

        numba_refine()  # JIT warm-up outside the timed region
        numba_refined, numba_moves = numba_refine()
        numba_time = _time(numba_refine)
    assert (numba_refined == numpy_refined).all()  # bit-for-bit
    assert (numba_moves == numpy_moves).all()
    speedup = numpy_time / numba_time
    print(
        f"\nH4ls refine at R={R}, m=50: numpy {numpy_time * 1e3:.0f} ms, "
        f"numba {numba_time * 1e3:.0f} ms, speedup {speedup:.1f}x"
    )
    assert speedup >= 1.5


@requires_numba
def test_bench_batch_refine_numba(benchmark, block):
    """The refine gate benchmark on the numba backend (baseline-optional)."""
    with use_backend("numba"):
        seeds = solve_stack(get_heuristic("H4w"), block.instances, batch=True)
        refine_specialized_batch(block.instances, seeds)  # JIT warm-up
        refined, moves = benchmark(
            refine_specialized_batch, block.instances, seeds
        )
    assert refined.shape == (R, block.stack.num_tasks)
    assert int(moves.sum()) > 0
