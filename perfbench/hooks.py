"""Timing wrappers around the program's public functions.

Each wrapper is installed on the name its caller looks up at call time
(a module global or a class attribute), records into a
:class:`harness.Tracer`, and is removed again by ``Patch.undo``.  No
wrapper replaces a function that a process pool pickles by reference:
inside the pool worker the functions the pickled one calls are wrapped.
"""

from __future__ import annotations

import functools
import json
import os
import time
from multiprocessing.util import Finalize, register_after_fork
from pathlib import Path

from harness import Patch, Tracer

#: Curve providers the campaign runs; each gets its own solve metric.
CURVES = ("H1", "H2", "H3", "H4", "H4w", "H4f", "H4ls")


def _spanned(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


class _SolveStackHook:
    """Marks ``solve_stack`` calls as the heuristic's own work; counts their rows.

    ``InstanceStack.periods`` inside ``solve_stack`` (H4ls scores its own
    candidate moves) is heuristic work, not scoring, so the scoring
    wrapper passes through while ``depth`` is non-zero.  Rows are counted
    at the branch ``solve_stack`` takes: ``solve_one`` runs once per loop
    row and ``validate_assignments`` once per batched stack, both looked
    up as globals of ``repro.heuristics.base``.
    """

    def __init__(self, tracer: Tracer, solve_stack, span_prefix: str | None):
        self.tracer = tracer
        self.depth = 0
        self._solve_stack = solve_stack
        self._span_prefix = span_prefix

    def install_row_counters(self, patch: Patch) -> None:
        from repro.heuristics import base

        solve_one = base.solve_one
        validate_assignments = base.validate_assignments

        @functools.wraps(solve_one)
        def loop_row(*args, **kwargs):
            if self.depth:
                self.tracer.count("heuristics.loop_rows")
            return solve_one(*args, **kwargs)

        @functools.wraps(validate_assignments)
        def batched_rows(instances, *args, **kwargs):
            if self.depth:
                self.tracer.count("heuristics.batched_rows", len(instances))
            return validate_assignments(instances, *args, **kwargs)

        patch.set(base, "solve_one", loop_row)
        patch.set(base, "validate_assignments", batched_rows)

    def __call__(self, heuristic, instances, rng_for=None, *, batch=None):
        self.depth += 1
        try:
            if self._span_prefix is None:
                return self._solve_stack(heuristic, instances, rng_for, batch=batch)
            self.tracer.count(f"{self._span_prefix}groups.{heuristic.name}")
            with self.tracer.span(f"{self._span_prefix}{heuristic.name}"):
                return self._solve_stack(heuristic, instances, rng_for, batch=batch)
        finally:
            self.depth -= 1


def _score_wrapper(tracer: Tracer, hook: _SolveStackHook, periods, name_of):
    @functools.wraps(periods)
    def wrapper(self, *args, **kwargs):
        if hook.depth:
            return periods(self, *args, **kwargs)
        with tracer.span(name_of()):
            return periods(self, *args, **kwargs)

    return wrapper


def install_campaign(tracer: Tracer) -> Patch:
    """Wrap the layers one ``run_pipeline`` call goes through (in process)."""
    from repro.batch import InstanceStack
    from repro.dag.artifacts import ArtifactStore
    from repro.dag.stage import AggregateStage, RenderStage
    from repro.experiments import providers
    from repro.experiments.store import JsonlStore, ResultStore

    patch = Patch()
    hook = _SolveStackHook(tracer, providers.solve_stack, None)
    patch.set(providers, "solve_stack", hook)
    hook.install_row_counters(patch)
    patch.set(
        InstanceStack,
        "periods",
        _score_wrapper(tracer, hook, InstanceStack.periods, lambda: "batch.score_s"),
    )

    sample = providers.CellBlock.__dict__["sample"].__func__

    def sample_wrapper(cls, *args, **kwargs):
        with tracer.span("generators.sample_s"):
            return sample(cls, *args, **kwargs)

    patch.set(providers.CellBlock, "sample", classmethod(sample_wrapper))

    for provider in (providers.HeuristicProvider, providers.LocalSearchProvider):
        evaluate = provider.__dict__["evaluate_blocks"]

        def evaluate_wrapper(self, blocks, _evaluate=evaluate):
            with tracer.span(f"heuristics.solve_s.{self.label}"):
                return _evaluate(self, blocks)

        patch.set(provider, "evaluate_blocks", evaluate_wrapper)

    for owner, name in (
        (ResultStore, "put_cell"),
        (ResultStore, "put_meta"),
        (ArtifactStore, "put"),
        (JsonlStore, "flush"),
    ):
        patch.set(
            owner,
            name,
            _spanned(tracer, "experiments.store_write_s", owner.__dict__[name]),
        )
    for stage in (AggregateStage, RenderStage):
        patch.set(
            stage, "run", _spanned(tracer, "dag.aggregate_render_s", stage.__dict__["run"])
        )
    return patch


def _dump(tracer: Tracer, path: Path) -> None:
    """Write the tracer's totals atomically (readers never see half a file)."""
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(tracer.snapshot()), encoding="utf-8")
    os.replace(tmp, path)


def install_server(tracer: Tracer, dump_dir: Path) -> Patch:
    """Wrap the service layers in the server and, after fork, its pool worker.

    Server side: request normalisation, the batcher's ``submit`` and the
    cache tiers.  Worker side (the pool forks after this runs, so the
    worker inherits the wrappers): sampling, ``solve_stack`` and scoring
    of each group, named after the group's heuristic.  Pool workers exit
    without running ``atexit`` hooks, so the worker writes its totals
    from a multiprocessing finalizer, which the exiting process runs.
    """
    from repro.batch import InstanceStack
    from repro.service import batcher, pool, requests, server
    from repro.service.cache import SolveCache

    patch = Patch()
    patch.set(
        server,
        "normalize_request",
        _spanned(tracer, "service.normalize", server.normalize_request),
    )
    for name in ("get", "put"):
        patch.set(
            SolveCache,
            name,
            _spanned(
                tracer,
                "service.cache_lookup" if name == "get" else "service.cache_write",
                SolveCache.__dict__[name],
            ),
        )

    submit = batcher.MicroBatcher.__dict__["submit"]

    async def submit_wrapper(self, request):
        start = time.perf_counter()
        response = await submit(self, request)
        kind = "hit" if response.get("cached") else "solved"
        tracer.add(f"service.submit.{kind}", time.perf_counter() - start)
        return response

    patch.set(batcher.MicroBatcher, "submit", submit_wrapper)

    # -- pool worker ----------------------------------------------------------
    current = {"heuristic": "unknown"}
    prefix = "service.worker_solve."
    hook = _SolveStackHook(tracer, pool.solve_stack, prefix)
    patch.set(pool, "solve_stack", hook)
    hook.install_row_counters(patch)

    sample = requests.SolveRequest.__dict__["sample"]

    def sample_wrapper(self):
        current["heuristic"] = self.heuristic
        with tracer.span(prefix + self.heuristic):
            return sample(self)

    patch.set(requests.SolveRequest, "sample", sample_wrapper)

    patch.set(
        InstanceStack,
        "periods",
        _score_wrapper(
            tracer, hook, InstanceStack.periods, lambda: prefix + current["heuristic"]
        ),
    )

    def after_fork_in_worker(tracer: Tracer) -> None:
        # Runs after multiprocessing cleared the finalizers inherited from
        # the server; the worker's totals are written once, as it exits.
        tracer.reset()
        Finalize(
            None,
            _dump,
            args=(tracer, dump_dir / f"worker-{os.getpid()}.json"),
            exitpriority=0,
        )

    register_after_fork(tracer, after_fork_in_worker)
    return patch


def dump_server(tracer: Tracer, dump_dir: Path) -> None:
    _dump(tracer, dump_dir / f"server-{os.getpid()}.json")


def load_dumps(dump_dir: Path) -> tuple[dict | None, list[dict]]:
    """``(server totals, [worker totals...])`` written by a traced server."""
    server = None
    workers = []
    for path in sorted(dump_dir.glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        if path.name.startswith("server-"):
            server = data
        else:
            workers.append(data)
    return server, workers
