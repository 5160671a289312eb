"""Optional numba kernel backend (``pip install -e .[numba]``).

JIT-compiled loop kernels mirroring :mod:`repro.backend.numpy_backend`
operation for operation — same elementwise arithmetic, same accumulation
order — so results stay bit-for-bit identical to the numpy reference
(and therefore to the scalar path).  The wins come from fusing the
probe's ``(R, m, m)`` candidate tensor into a running max and from
replacing ``np.add.at`` (notoriously slow in numpy) with plain loops.

All kernels compile with ``cache=True`` so the JIT cost is paid once per
machine (CI caches the numba cache directory between runs).  Without a
working numba, :func:`make_backend` raises
:class:`~repro.backend.BackendUnavailableError` and
:func:`~repro.backend.get_backend` uses the numpy kernels instead.
"""

from __future__ import annotations

import numpy as np

from . import BackendUnavailableError

__all__ = ["make_backend"]


def _compile_kernels():
    """Import numba and build the jitted kernel set; raises if unavailable."""
    try:
        from numba import njit
    except Exception as exc:  # pragma: no cover - requires a broken install
        raise BackendUnavailableError(f"cannot import numba: {exc}") from exc

    @njit(cache=True)
    def propagate_x(order, succ, f_used):
        R, n = f_used.shape
        x = np.ones((R, n), dtype=np.float64)
        for idx in range(order.shape[0]):
            task = order[idx]
            s = succ[task]
            if s < 0:
                for r in range(R):
                    x[r, task] = 1.0 / (1.0 - f_used[r, task])
            else:
                for r in range(R):
                    x[r, task] = x[r, s] / (1.0 - f_used[r, task])
        return x

    @njit(cache=True)
    def scatter_periods(assignments, contributions, num_machines):
        R, n = assignments.shape
        periods = np.zeros((R, num_machines), dtype=np.float64)
        for r in range(R):
            for i in range(n):
                periods[r, assignments[r, i]] += contributions[r, i]
        return periods

    @njit(cache=True)
    def scatter_add_rows(out, cols, vals):
        R, k = cols.shape
        for r in range(R):
            for j in range(k):
                out[r, cols[r, j]] += vals[r, j]

    @njit(cache=True)
    def critical_mask(machine_periods, rel_tol):
        R, m = machine_periods.shape
        mask = np.empty((R, m), dtype=np.bool_)
        for r in range(R):
            top = machine_periods[r, 0]
            for u in range(1, m):
                if machine_periods[r, u] > top:
                    top = machine_periods[r, u]
            cutoff = top * (1.0 - rel_tol)
            positive = top > 0.0
            for u in range(m):
                mask[r, u] = (machine_periods[r, u] >= cutoff) and positive
        return mask

    @njit(cache=True)
    def probe_candidates(base, rest, ratios, x_task, w_task):
        R, m = base.shape
        out = np.empty((R, m), dtype=np.float64)
        for r in range(R):
            for v in range(m):
                ratio = ratios[r, v]
                # Same op order as the numpy reference: the diagonal term
                # is (x * ratio) * w added onto base + rest * ratio.
                diag_add = (x_task[r] * ratio) * w_task[r, v]
                best = base[r, 0] + rest[r, 0] * ratio
                if v == 0:
                    best += diag_add
                for u in range(1, m):
                    c = base[r, u] + rest[r, u] * ratio
                    if u == v:
                        c += diag_add
                    if c > best:
                        best = c
                out[r, v] = best
        return out

    @njit(cache=True)
    def first_feasible(order, feasible):
        R, m = order.shape
        chosen = np.empty(R, dtype=np.int64)
        for r in range(R):
            # Default to the most preferred machine, matching numpy's
            # argmax-of-all-False convention for infeasible rows.
            chosen[r] = order[r, 0]
            for j in range(m):
                u = order[r, j]
                if feasible[r, u]:
                    chosen[r] = u
                    break
        return chosen

    return (
        propagate_x,
        scatter_periods,
        scatter_add_rows,
        critical_mask,
        probe_candidates,
        first_feasible,
    )


def _smoke(kernels) -> None:
    """One tiny end-to-end compile/run so a broken toolchain fails at load."""
    propagate_x, scatter_periods, scatter_add_rows, critical_mask, probe, first = kernels
    order = np.array([1, 0], dtype=np.int64)
    succ = np.array([1, -1], dtype=np.int64)
    f_used = np.array([[0.1, 0.2]], dtype=np.float64)
    x = propagate_x(order, succ, f_used)
    assignments = np.array([[0, 1]], dtype=np.int64)
    periods = scatter_periods(assignments, x, 2)
    scatter_add_rows(periods, assignments, x)
    critical_mask(periods, 1e-9)
    probe(
        periods,
        periods,
        np.ones((1, 2), dtype=np.float64),
        np.ones(1, dtype=np.float64),
        np.ones((1, 2), dtype=np.float64),
    )
    first(np.array([[1, 0]], dtype=np.int64), np.array([[True, False]]))


def make_backend():
    """The numba :class:`~repro.backend.KernelBackend`, or raise."""
    from . import KernelBackend

    kernels = _compile_kernels()
    try:
        _smoke(kernels)
    except Exception as exc:  # pragma: no cover - requires a broken toolchain
        raise BackendUnavailableError(f"numba kernels fail to compile: {exc}") from exc
    propagate_x, scatter_periods, scatter_add_rows, critical_mask, probe, first = kernels
    return KernelBackend(
        name="numba",
        propagate_x=propagate_x,
        scatter_periods=scatter_periods,
        scatter_add_rows=scatter_add_rows,
        critical_mask=critical_mask,
        probe_candidates=probe,
        first_feasible=first,
    )
