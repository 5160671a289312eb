"""Kernel-set selection and the bit-for-bit kernel contract.

Three batteries:

* selection — :func:`get_backend` picks the numba kernel set when numba
  loads and the numpy set otherwise, silently; :class:`activate_backend`
  swaps it temporarily;
* kernel-level equivalence — every loadable kernel set's six kernels
  against the numpy reference on randomized inputs, exact equality;
* solver-level equivalence — every loadable kernel set x every
  batch-capable heuristic on scaled fig5/fig9/fig10 sweep points,
  bit-for-bit against the per-instance scalar path run on the numpy
  reference kernels.

The numba batteries run wherever ``pip install -e .[numba]`` happened
(the CI ``backend-numba`` job); on numpy-only installs
:data:`KERNEL_SETS` simply holds fewer parameters.
"""

from __future__ import annotations

import sys
import warnings

import numpy as np
import pytest

import repro.backend as backend_mod
from repro.backend import (
    BackendUnavailableError,
    KernelBackend,
    activate_backend,
    backend_info,
    get_backend,
    numba_status,
)
from repro.backend import numba_backend, numpy_backend
from repro.experiments.figures import FIGURES
from repro.experiments.providers import CellBlock
from repro.heuristics import get_heuristic
from repro.heuristics.base import solve_stack
from repro.simulation.rng import RandomStreamFactory

#: Every batch-capable heuristic of the paper set (H1 is randomized and
#: has no lock-step kernel; the scalar fallback path covers it).
BATCH_HEURISTICS = ("H2", "H3", "H4", "H4w", "H4f", "H4ls")

#: Figures whose shapes the solver-level battery samples (task sweep at
#: m=50, types sweep at n=m=100, the small-platform tasks sweep).
EQUIVALENCE_FIGURES = ("fig5", "fig9", "fig10")

NUMPY_KERNELS = numpy_backend.make_backend()


def _loadable_kernel_sets() -> list[KernelBackend]:
    """The numpy set always; the numba set when it builds here."""
    kernel_sets = [NUMPY_KERNELS]
    try:
        kernel_sets.append(numba_backend.make_backend())
    except BackendUnavailableError:
        pass
    return kernel_sets


#: The kernel sets the equivalence batteries are parametrized over.
KERNEL_SETS = _loadable_kernel_sets()

over_kernel_sets = pytest.mark.parametrize(
    "kernels", KERNEL_SETS, ids=lambda kernels: kernels.name
)


@pytest.fixture
def unresolved(monkeypatch):
    """Forget this process's kernel set so the next lookup re-detects it."""
    monkeypatch.setattr(backend_mod, "_ACTIVE", None)


class TestSelection:
    def test_auto_detection_matches_numba_presence(self, unresolved):
        expected = "numba" if numba_status()[0] else "numpy"
        assert get_backend().name == expected

    def test_auto_detection_is_silent_without_numba(self, unresolved, monkeypatch):
        # A poisoned sys.modules entry makes `from numba import njit`
        # raise whether or not numba is actually installed.
        monkeypatch.setitem(sys.modules, "numba", None)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert get_backend().name == "numpy"
        assert caught == []

    def test_selection_is_cached(self, unresolved):
        assert get_backend() is get_backend()

    def test_activate_backend_restores_previous(self):
        before = get_backend()
        pinned = numpy_backend.make_backend()
        with activate_backend(pinned) as active:
            assert active is pinned
            assert get_backend() is pinned
        assert get_backend() is before

    def test_backend_info_shape(self):
        info = backend_info()
        assert set(info) == {"name", "numba"}
        assert info["name"] == get_backend().name
        assert set(info["numba"]) == {"available", "version"}


def _random_kernel_inputs(seed: int, R: int = 7, n: int = 11, m: int = 6):
    rng = np.random.default_rng(seed)
    order = np.arange(n - 1, -1, -1, dtype=np.int64)  # reverse of a chain
    succ = np.array([t + 1 for t in range(n - 1)] + [-1], dtype=np.int64)
    f_used = rng.uniform(0.01, 0.3, size=(R, n))
    assignments = rng.integers(0, m, size=(R, n), dtype=np.int64)
    contributions = rng.uniform(0.1, 5.0, size=(R, n))
    base = rng.uniform(0.0, 10.0, size=(R, m))
    rest = rng.uniform(0.0, 10.0, size=(R, m))
    ratios = rng.uniform(0.5, 2.0, size=(R, m))
    x_task = rng.uniform(1.0, 3.0, size=R)
    w_task = rng.uniform(0.1, 5.0, size=(R, m))
    pref = np.stack([rng.permutation(m) for _ in range(R)]).astype(np.int64)
    feasible = rng.random(size=(R, m)) < 0.4
    feasible[0, :] = False  # exercise the argmax-of-all-False convention
    return {
        "order": order,
        "succ": succ,
        "f_used": f_used,
        "assignments": assignments,
        "contributions": contributions,
        "m": m,
        "base": base,
        "rest": rest,
        "ratios": ratios,
        "x_task": x_task,
        "w_task": w_task,
        "pref": pref,
        "feasible": feasible,
    }


@over_kernel_sets
@pytest.mark.parametrize("seed", (0, 1, 2))
class TestKernelEquivalence:
    """Each kernel set's kernels vs the numpy reference, exact equality."""

    def test_propagate_x(self, kernels, seed):
        inputs = _random_kernel_inputs(seed)
        expected = numpy_backend.propagate_x(
            inputs["order"], inputs["succ"], inputs["f_used"]
        )
        actual = kernels.propagate_x(
            inputs["order"], inputs["succ"], inputs["f_used"]
        )
        assert np.array_equal(actual, expected)

    def test_scatter_periods(self, kernels, seed):
        inputs = _random_kernel_inputs(seed)
        expected = numpy_backend.scatter_periods(
            inputs["assignments"], inputs["contributions"], inputs["m"]
        )
        actual = kernels.scatter_periods(
            inputs["assignments"], inputs["contributions"], inputs["m"]
        )
        assert np.array_equal(actual, expected)

    def test_scatter_add_rows(self, kernels, seed):
        inputs = _random_kernel_inputs(seed)
        expected = inputs["base"].copy()
        cols = inputs["assignments"][:, : inputs["m"]] % inputs["m"]
        vals = inputs["contributions"][:, : inputs["m"]]
        numpy_backend.scatter_add_rows(expected, cols, vals)
        actual = inputs["base"].copy()
        kernels.scatter_add_rows(actual, cols, vals)
        assert np.array_equal(actual, expected)

    def test_critical_mask(self, kernels, seed):
        inputs = _random_kernel_inputs(seed)
        periods = numpy_backend.scatter_periods(
            inputs["assignments"], inputs["contributions"], inputs["m"]
        )
        expected = numpy_backend.critical_mask(periods, 1e-9)
        actual = kernels.critical_mask(periods, 1e-9)
        assert np.array_equal(actual, expected)

    def test_probe_candidates(self, kernels, seed):
        inputs = _random_kernel_inputs(seed)
        args = (
            inputs["base"],
            inputs["rest"],
            inputs["ratios"],
            inputs["x_task"],
            inputs["w_task"],
        )
        assert np.array_equal(
            kernels.probe_candidates(*args),
            numpy_backend.probe_candidates(*args),
        )

    def test_first_feasible(self, kernels, seed):
        inputs = _random_kernel_inputs(seed)
        assert np.array_equal(
            kernels.first_feasible(inputs["pref"], inputs["feasible"]),
            numpy_backend.first_feasible(inputs["pref"], inputs["feasible"]),
        )


def _figure_block(figure_id: str) -> CellBlock:
    """The first sweep point of a figure, at a tier-1-friendly depth."""
    scenario = FIGURES[figure_id].scenario.scaled(repetitions=4, max_points=1)
    return CellBlock.sample(
        scenario, scenario.sweep_values[0], RandomStreamFactory(23)
    )


@pytest.fixture(scope="module")
def figure_blocks() -> dict[str, CellBlock]:
    return {figure_id: _figure_block(figure_id) for figure_id in EQUIVALENCE_FIGURES}


@pytest.fixture(scope="module")
def scalar_references(figure_blocks) -> dict[tuple[str, str], np.ndarray]:
    """Per-instance scalar solves on the numpy reference kernels."""
    references = {}
    with activate_backend(NUMPY_KERNELS):
        for figure_id, block in figure_blocks.items():
            for name in BATCH_HEURISTICS:
                references[(figure_id, name)] = solve_stack(
                    get_heuristic(name), block.instances, batch=False
                )
    return references


@over_kernel_sets
@pytest.mark.parametrize("heuristic", BATCH_HEURISTICS)
@pytest.mark.parametrize("figure_id", EQUIVALENCE_FIGURES)
class TestSolverEquivalence:
    """Kernel set x heuristic x figure: bit-for-bit vs the scalar path."""

    def test_batch_solve_matches_scalar_reference(
        self, kernels, heuristic, figure_id, figure_blocks, scalar_references
    ):
        block = figure_blocks[figure_id]
        with activate_backend(kernels):
            batched = solve_stack(
                get_heuristic(heuristic), block.instances, batch=True
            )
        assert (batched == scalar_references[(figure_id, heuristic)]).all()

    def test_periods_match_across_backends(
        self, kernels, heuristic, figure_id, figure_blocks, scalar_references
    ):
        block = figure_blocks[figure_id]
        assignments = scalar_references[(figure_id, heuristic)]
        with activate_backend(NUMPY_KERNELS):
            expected = block.stack.periods(assignments)
        with activate_backend(kernels):
            actual = block.stack.periods(assignments)
        assert np.array_equal(actual, expected)
