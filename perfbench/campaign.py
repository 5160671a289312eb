"""``campaign`` workload: the figure campaign's DAG, serially, in process.

Runs ``build_pipeline`` + ``run_pipeline`` — the calls ``microrepro dag
run`` makes — on fig5 (H1–H4f) and fig6 (with its optional H4ls curve),
MIP off, one campaign seed, each pass into a fresh store.  Repetitions
stay at or above every batch crossover, so every batch-capable curve
takes the batched solve path.
"""

from __future__ import annotations

import math
import shutil
import time
from pathlib import Path

import harness

def manifests(config: dict, seed: int) -> list:
    from repro.campaign.plan import CampaignManifest

    return [
        CampaignManifest(
            figures=(fig["figure"],),
            seeds=(seed,),
            repetitions=fig["repetitions"],
            max_points=fig["max_points"],
            no_milp=True,
            optional_curves=fig["optional_curves"],
        )
        for fig in config["figures"]
    ]


class _Pass:
    """One pass over every manifest: timings, block outputs and renders."""

    def __init__(self):
        self.run_s = 0.0
        self.solves = 0
        #: ``(figure, curve, sweep value) -> seconds`` since the previous
        #: block completed (the first block: since the run started).
        self.block_s: dict[tuple, float] = {}
        #: ``(figure, curve, sweep value) -> values`` of every block.
        self.blocks: dict[tuple, list[float]] = {}
        self.renders: dict[str, str] = {}


def run_pass(built: list, workdir: Path, seed: int) -> _Pass:
    from repro.dag import build_pipeline
    from repro.dag.scheduler import run_pipeline
    from repro.experiments.store import ResultStore

    out = _Pass()
    clock = {"last": 0.0}

    class StampedStore(ResultStore):
        """Notes when each block's cell lands: one block has completed."""

        def put_cell(self, record):
            now = time.perf_counter()
            key = (record.figure_id, record.curve, record.sweep_value)
            out.block_s[key] = now - clock["last"]
            clock["last"] = now
            out.blocks[key] = list(record.values)
            out.solves += len(record.values)
            return super().put_cell(record)

    for manifest in built:
        (figure,) = manifest.figures
        pipeline = build_pipeline(manifest)
        path = workdir / f"store-{figure}"
        store = StampedStore(path)
        start = clock["last"] = time.perf_counter()
        try:
            run = run_pipeline(pipeline, store)
        finally:
            store.close()
        out.run_s += time.perf_counter() - start
        shutil.rmtree(path)
        out.renders[figure] = run.renders[figure]["per_seed"][str(seed)]
    return out


def _same(left: list[float], right: list[float]) -> bool:
    return len(left) == len(right) and all(
        a == b or (math.isnan(a) and math.isnan(b)) for a, b in zip(left, right)
    )


def check(passes: list[_Pass], config: dict, seed: int) -> tuple[int, int, list[str]]:
    """Compare every block and render with ``run_figure`` on the same manifest.

    Returns ``(attempted blocks, failed blocks, defects)``.  A figure whose
    render differs fails all its blocks in that pass.
    """
    from repro.experiments.runner import run_figure

    references = {}
    for fig in config["figures"]:
        references[fig["figure"]] = run_figure(
            fig["figure"],
            seed=seed,
            repetitions=fig["repetitions"],
            max_points=fig["max_points"],
            include_milp=False,
            include_optional=fig["optional_curves"],
        )
    attempted = failed = 0
    defects: list[str] = []
    for number, run in enumerate(passes):
        for (figure, curve, x), values in sorted(run.blocks.items()):
            attempted += 1
            reference = references[figure]
            expected = reference.series[curve].samples.get(x)
            render_ok = run.renders.get(figure) == reference.to_csv()
            if expected is None or not _same(values, list(expected)) or not render_ok:
                failed += 1
                defects.append(
                    f"pass {number} {figure}/{curve}/x{x}: "
                    + ("render differs" if not render_ok else f"{values} != {expected}")
                )
    return attempted, failed, defects


def run(config: dict, seed: int, seconds: float, trace: bool, workdir: Path) -> tuple[dict, dict]:
    probes = harness.setup_probes(config, seed, config["setup_repeats"])
    built = manifests(config, seed)
    run_pass(built, workdir, seed)  # warm-up: imports, kernel caches
    if not trace:
        passes = []
        start = time.perf_counter()
        while len(passes) < config["min_passes"] or time.perf_counter() - start < seconds:
            passes.append(run_pass(built, workdir, seed))
        peak = harness.self_peak_rss_mb()
        attempted, failed, defects = check(passes, config, seed)
        block_s = [interval for run in passes for interval in run.block_s.values()]
        run_s = sum(run.run_s for run in passes)
        values = {
            "setup_s": harness.median(p["wall_s"] for p in probes),
            "peak_rss_mb": peak,
            "throughput_per_s": sum(run.solves for run in passes) / run_s,
            # Not the median block interval: 44 block kinds whose durations
            # differ up to 400x leave gaps where the middle one falls.
            "latency_p50_ms": harness.median(run.run_s for run in passes) * 1000.0,
            "latency_tail_ms": harness.tail_percentile(block_s, config["tail_percentile"])
            * 1000.0,
        }
        report = {
            "passes": len(passes),
            "blocks": len(block_s),
            "solves_per_pass": passes[0].solves,
            "run_pipeline_s": run_s,
            "pass_s": [run.run_s for run in passes],
            "tail_percentile": config["tail_percentile"],
            "defects": defects[:20],
        }
        return values | {"_attempted": attempted, "_failed": failed}, report

    from hooks import CURVES, install_campaign

    plain = run_pass(built, workdir, seed)
    tracer = harness.Tracer()
    patch = install_campaign(tracer)
    try:
        traced = run_pass(built, workdir, seed)
    finally:
        patch.undo()
    attempted, failed, defects = check([plain, traced], config, seed)
    snap = tracer.snapshot()
    self_s = snap["self_s"]
    values = {
        "cli.import_s": harness.median(p["import_s"] for p in probes),
        "dag.build_pipeline_s": harness.median(p["build_pipeline_s"] for p in probes),
        "dag.aggregate_render_s": self_s.get("dag.aggregate_render_s", 0.0),
        "generators.sample_s": self_s.get("generators.sample_s", 0.0),
        "batch.score_s": self_s.get("batch.score_s", 0.0),
        "experiments.store_write_s": self_s.get("experiments.store_write_s", 0.0),
        "heuristics.batched_rows": snap["counts"].get("heuristics.batched_rows", 0),
        "heuristics.loop_rows": snap["counts"].get("heuristics.loop_rows", 0),
        "campaign.unattributed_share": 1.0 - snap["covered"] / traced.run_s,
        "campaign.trace_overhead_share": traced.run_s / plain.run_s - 1.0,
    }
    for curve in CURVES:
        values[f"heuristics.solve_s.{curve}"] = self_s.get(f"heuristics.solve_s.{curve}", 0.0)
    report = {
        "run_pipeline_s": {"untraced": plain.run_s, "traced": traced.run_s},
        "spans": snap,
        "defects": defects[:20],
    }
    return values | {"_attempted": attempted, "_failed": failed}, report
