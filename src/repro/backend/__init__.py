"""The kernel set for the hot batch loops, chosen from what is installed.

The batch modules (:mod:`repro.batch.evaluation`,
:mod:`repro.batch.incremental`) and the batched bisection driver
(:mod:`repro.heuristics.binary_search`) spend essentially all of their
time in a handful of inner kernels: the backward ``x`` propagation, the
row-wise scatter-add of task contributions into machine periods, the
single-move candidate probe, and the first-feasible machine selection of
the greedy placement.  This package provides two sets of them:

* ``numpy`` — extracted behavior-identically from the previously
  inlined code; always available.
* ``numba`` — optional JIT-compiled kernels (``pip install -e
  .[numba]``) with ``cache=True``.

:func:`get_backend` resolves the set once per process: numba when
:func:`repro.backend.numba_backend.make_backend` loads, numpy otherwise.
:class:`activate_backend` is the one way to swap kernels (span-timed
wrappers, tests and benchmarks that pin a set).

Every kernel set is held to the same bit-for-bit contract as the original
inlined kernels: identical operation order, identical accumulation
order, so batch results stay bit-for-bit equal to the scalar reference
path whichever set is in use (enforced by the parametrized equivalence
suite in ``tests/unit/test_backend.py``).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from ..exceptions import ReproError

__all__ = [
    "KernelBackend",
    "BackendUnavailableError",
    "get_backend",
    "activate_backend",
    "backend_info",
]


class BackendUnavailableError(ReproError):
    """The numba kernel set cannot be built here."""


@dataclass(frozen=True, slots=True)
class KernelBackend:
    """The kernel set one backend provides.

    Every function must be a drop-in for the numpy reference in
    :mod:`repro.backend.numpy_backend` — same signatures, same dtypes,
    same operation and accumulation order (the bit-for-bit contract).

    Attributes
    ----------
    name:
        Kernel set name ("numpy" or "numba").
    propagate_x:
        ``(order, succ, f_used) -> x`` — backward expected-product
        recursion over an ``(R, n)`` stack; ``order`` is the reverse
        topological task order, ``succ[t]`` the successor of ``t`` or -1.
    scatter_periods:
        ``(assignments, contributions, num_machines) -> periods`` —
        row-wise segment sum of ``(R, n)`` task contributions into
        ``(R, m)`` machine periods, tasks visited in ascending order.
    scatter_add_rows:
        ``(out, cols, vals) -> None`` — in-place row-wise scatter-add of
        ``(R, k)`` values into an ``(R, m)`` accumulator (the
        ``np.add.at`` pattern of the incremental probes).
    critical_mask:
        ``(machine_periods, rel_tol) -> mask`` — boolean ``(R, m)`` mask
        of machines attaining each row's maximum period.
    probe_candidates:
        ``(base, rest, ratios, x_task, w_task) -> (R, m)`` — the fused
        single-move candidate probe: per row ``r`` and destination ``v``,
        the max over machines ``u`` of ``base[r, u] + rest[r, u] *
        ratios[r, v]`` with ``(x_task[r] * ratios[r, v]) * w_task[r, v]``
        added at ``u == v``.  Compiled backends fuse the max instead of
        materialising the ``(R, m, m)`` candidate tensor.
    first_feasible:
        ``(order, feasible) -> chosen`` — per row, the first machine of
        the ``(R, m)`` preference permutation whose ``feasible`` entry is
        true (``order[r, 0]`` when no machine is feasible, matching the
        numpy argmax-of-all-False convention).
    """

    name: str
    propagate_x: Callable
    scatter_periods: Callable
    scatter_add_rows: Callable
    critical_mask: Callable
    probe_candidates: Callable
    first_feasible: Callable


_ACTIVE: KernelBackend | None = None


def get_backend() -> KernelBackend:
    """The active kernel set.

    Resolved once per process and cached: the numba set when it loads
    (numba importable and its kernels compile), the numpy set otherwise,
    silently.  :class:`activate_backend` swaps it temporarily.
    """
    global _ACTIVE
    if _ACTIVE is None:
        from . import numba_backend, numpy_backend

        try:
            _ACTIVE = numba_backend.make_backend()
        except BackendUnavailableError:
            _ACTIVE = numpy_backend.make_backend()
    return _ACTIVE


class activate_backend:
    """Temporarily install a :class:`KernelBackend` *instance* as active.

    The seam the tracing instrumentation uses to swap in a span-timed
    wrapper of the current backend for the duration of one solve
    (:mod:`repro.obs.instrument`), and the way tests and benchmarks pin
    one kernel set (``activate_backend(numpy_backend.make_backend())``).
    Concurrent activations on different threads may briefly see each
    other's instance; that is harmless because every installed set keeps
    the bit-for-bit kernel contract.
    """

    __slots__ = ("_backend", "_previous")

    def __init__(self, backend: KernelBackend):
        self._backend = backend
        self._previous: KernelBackend | None = None

    def __enter__(self) -> KernelBackend:
        global _ACTIVE
        self._previous = _ACTIVE
        _ACTIVE = self._backend
        return self._backend

    def __exit__(self, *exc_info) -> None:
        global _ACTIVE
        _ACTIVE = self._previous


def numba_status() -> tuple[bool, str | None]:
    """``(available, version)`` of the optional numba dependency."""
    try:
        import numba
    except Exception:  # pragma: no cover - exercised via sys.modules patching
        return False, None
    return True, getattr(numba, "__version__", None)


def backend_info() -> dict:
    """Active backend description for ``/stats`` and run metadata."""
    available, version = numba_status()
    return {
        "name": get_backend().name,
        "numba": {"available": available, "version": version},
    }
