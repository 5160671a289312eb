"""``service`` workload: the solve service over HTTP, open loop then closed loop.

A real ``repro serve --workers 1`` subprocess, driven by one asyncio
generator over 2 keep-alive connections.  The traffic mixes four request
signatures with fresh seeds, and every ``repeat_every``-th request
repeats an earlier key so the cache-hit path runs too.  With at most 2
requests in flight, every group stays below the batch crossover: this is
the per-request (scalar) solve path plus HTTP, normalisation, the
batcher window, the pool round trip and the cache.
"""

from __future__ import annotations

import asyncio
import random
from pathlib import Path
from urllib.parse import urlsplit

import harness
import loadgen

PATH = "/v1/solve"


def traffic(config: dict, rng: random.Random, count: int, *, repeats: bool = True) -> list[dict]:
    """``count`` request payloads: round-robin signatures, some repeated keys."""
    payloads: list[dict] = []
    fresh = 0
    every = config["repeat_every"]
    for index in range(count):
        if repeats and payloads and index % every == every - 1:
            payloads.append(payloads[rng.randrange(len(payloads))])
            continue
        sig = config["signatures"][fresh % len(config["signatures"])]
        fresh += 1
        payloads.append(
            {
                "heuristic": sig["heuristic"],
                "application": {"tasks": sig["tasks"], "types": sig["types"]},
                "platform": {"machines": sig["machines"]},
                "options": {"seed": rng.randrange(2**31), "repetition": 0},
            }
        )
    return payloads


def arrivals(rng: random.Random, rate: float, count: int) -> list[float]:
    """Offsets of ``count`` Poisson arrivals at ``rate`` per second."""
    offsets, clock = [], 0.0
    for _ in range(count):
        clock += rng.expovariate(rate)
        offsets.append(clock)
    return offsets


def scrape(text: str) -> dict[str, float]:
    """``{series{labels}: value}`` from a Prometheus text page."""
    values = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            values[name] = float(value)
    return values


async def _drive(url: str, config: dict, warmup_payloads, rounds: list[dict],
                 closed_seconds: float | None):
    """The warm-up, then each round's open loop followed by its closed loop."""
    parts = urlsplit(url)
    conns = [loadgen.Connection(parts.hostname, parts.port)
             for _ in range(config["connections"])]
    try:
        warmup, _ = await loadgen.closed_loop(
            conns, PATH, warmup_payloads, seconds=config["warmup_seconds"]
        )
        for one in rounds:
            one["open"] = await loadgen.open_loop(
                conns, PATH, one["open_payloads"], one["offsets"]
            )
            one["closed"], one["closed_wall"] = await loadgen.closed_loop(
                conns, PATH, one["closed_payloads"], seconds=closed_seconds
            )
    finally:
        for conn in conns:
            await conn.close()
    return warmup


def check(payloads: list[dict], samples: list[loadgen.Sample]) -> tuple[int, list[str]]:
    """Failures among ``samples`` (sent ``payloads[sample.index]``) and their details.

    A response fails when it is not 2xx, timed out, or differs from
    ``direct_response`` in ``assignment``, ``period`` or ``key``.
    """
    from repro.service.requests import direct_response, normalize_request

    reference: dict[str, dict] = {}
    failed, defects = 0, []
    for sample in samples:
        payload = payloads[sample.index]
        if sample.failed:
            failed += 1
            defects.append(f"request {sample.index}: status {sample.status} {sample.error or sample.body}")
            continue
        request = normalize_request(payload)
        expected = reference.get(request.key)
        if expected is None:
            expected = reference[request.key] = direct_response(request)
        diff = [k for k in ("assignment", "period", "key") if sample.body.get(k) != expected[k]]
        if diff:
            failed += 1
            defects.append(f"request {sample.index}: {diff} differ from direct_response")
    return failed, defects


def _phase(url: str, config: dict, seed: int, seconds: float, closed_count: int | None):
    """Warm-up, then rounds of open loop + closed loop; a metrics scrape; the output checks.

    The warm-up, a closed loop of ``warmup_seconds`` that starts with
    each signature once, is not timed: the first solves of a fresh server
    and pool worker fall outside the timed rounds.
    Each of the ``rounds`` rounds sends ``open_requests_per_round``
    open-loop requests, then runs a closed loop of ``closed_count``
    requests or, when that is ``None``, for the rest of the round's
    share of ``seconds``.
    """
    from repro.service.client import ServiceClient

    rng = random.Random(seed)
    count, rate = config["open_requests_per_round"], config["open_rate_per_s"]
    closed_seconds = None
    if closed_count is None:
        closed_seconds = seconds / config["rounds"] - count / rate
        if closed_seconds < config["min_closed_seconds"]:
            raise harness.BenchmarkError(
                f"--seconds {seconds:g} leaves {closed_seconds:.2f} s per closed loop; lengthen it"
            )
        # More than the closed loop can send in its time; it stops on the clock.
        closed_count = int(closed_seconds * 1000) + 100
    warmup_payloads = (traffic(config, rng, len(config["signatures"]), repeats=False)
                       + traffic(config, rng, int(config["warmup_seconds"] * 1000)))
    rounds = []
    for _ in range(config["rounds"]):
        offsets = arrivals(rng, rate, count)
        payloads = traffic(config, rng, count + closed_count)
        rounds.append({"offsets": offsets, "open_payloads": payloads[:count],
                       "closed_payloads": payloads[count:]})
    warmup = asyncio.run(_drive(url, config, warmup_payloads, rounds, closed_seconds))
    with ServiceClient(url, retries=0) as client:
        metrics = scrape(client.metrics())
    sent = [(warmup_payloads, warmup)]
    for one in rounds:
        sent += [(one["open_payloads"], one["open"].samples),
                 (one["closed_payloads"], one["closed"])]
    failed, defects = 0, []
    for payloads, samples in sent:
        phase_failed, phase_defects = check(payloads, samples)
        failed += phase_failed
        defects += phase_defects
    return {
        "warmup": warmup,
        "rounds": rounds,
        "metrics": metrics,
        "attempted": sum(len(samples) for _, samples in sent),
        "failed": failed,
        "defects": defects,
    }


def class_medians_ms(samples: list[loadgen.Sample], payloads: list[dict]) -> dict[str, float]:
    """Median latency (ms, from due time) of each request class.

    A class is one heuristic's fresh solves, or all cache hits.  The mix
    is bimodal (cache hits, H4f and H4w take about 2-12 ms, H2 and H3
    15-30 ms) and the fast share sits near one half, so the median of all
    requests jumps between the two modes from run to run; each class's
    median lies inside one mode.
    """
    classes: dict[str, list[float]] = {}
    for sample in samples:
        cached = bool(sample.body and sample.body.get("cached"))
        name = "cached" if cached else payloads[sample.index]["heuristic"]
        classes.setdefault(name, []).append(sample.latency * 1000.0)
    return {name: harness.median(values) for name, values in sorted(classes.items())}


def _validity(rounds: list[dict]) -> dict:
    late_ms = [late * 1000.0 for one in rounds for late in one["open"].late]
    grew = [one["open"].backlog_grew for one in rounds]
    return {
        "generator_late_ms_p50": harness.median(late_ms),
        "generator_late_ms_max": max(late_ms),
        "backlog_max": max(max(one["open"].backlog) for one in rounds),
        "backlog_grew_by_round": grew,
        "valid": not any(grew),
    }


def round_values(config: dict, one: dict) -> dict:
    """One round's throughput, class-median latency and tail latency."""
    samples = one["open"].samples
    class_p50 = class_medians_ms(samples, one["open_payloads"])
    return {
        "throughput_per_s": sum(not s.failed for s in one["closed"]) / one["closed_wall"],
        "latency_p50_ms": harness.geomean(class_p50.values()),
        "latency_tail_ms": harness.tail_percentile(
            [s.latency * 1000.0 for s in samples], config["tail_percentile"]
        ),
        "latency_p50_ms_by_class": class_p50,
    }


def run(config: dict, seed: int, seconds: float, trace: bool, workdir: Path) -> tuple[dict, dict]:
    if not trace:
        ready, server = harness.spawn_servers(config["setup_repeats"], workdir)
        with server:
            phase = _phase(server.url, config, seed, seconds, None)
            peak = server.peak_rss_mb()
        by_round = [round_values(config, one) for one in phase["rounds"]]
        values = {"setup_s": harness.median(ready), "peak_rss_mb": peak}
        for name in ("throughput_per_s", "latency_p50_ms", "latency_tail_ms"):
            values[name] = harness.median(r[name] for r in by_round)
        report = {
            "rounds": by_round,
            "open_requests": sum(len(one["open"].samples) for one in phase["rounds"]),
            "closed_requests": sum(len(one["closed"]) for one in phase["rounds"]),
            "open_loop": _validity(phase["rounds"]),
            "tail_percentile": config["tail_percentile"],
            "setup_ready_s": ready,
            "defects": phase["defects"][:20],
        }
        return values | {"_attempted": phase["attempted"], "_failed": phase["failed"]}, report

    probes = harness.setup_probes(None, seed, config["setup_repeats"])
    count = config["traced_closed_requests_per_round"]
    with harness.Server(harness.serve_command(workdir / "cache-plain"), cwd=harness.ROOT,
                        log_path=workdir / "plain.log") as server:
        plain = _phase(server.url, config, seed, seconds, count)
    dumps = workdir / "dumps"
    with harness.Server(harness.serve_command(workdir / "cache-traced", traced_dump=dumps),
                        cwd=harness.ROOT, log_path=workdir / "traced.log") as server:
        traced = _phase(server.url, config, seed, seconds, count)
    from hooks import load_dumps

    server_totals, worker_totals = load_dumps(dumps)
    if server_totals is None or not worker_totals:
        raise harness.BenchmarkError("the traced server left no span totals")
    values = layers(config, traced, server_totals, harness.merge_snapshots(worker_totals))
    values["cli.import_s"] = harness.median(p["import_s"] for p in probes)
    plain_wall, traced_wall = (sum(one["closed_wall"] for one in phase["rounds"])
                               for phase in (plain, traced))
    values["service.trace_overhead_share"] = traced_wall / plain_wall - 1.0
    report = {
        "closed_wall_s": {"untraced": plain_wall, "traced": traced_wall},
        "open_loop": _validity(traced["rounds"]),
        "server_spans": server_totals,
        "defects": (plain["defects"] + traced["defects"])[:20],
    }
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    return values | {"_attempted": attempted, "_failed": failed}, report


def layers(config: dict, phase: dict, server: dict, worker: dict) -> dict:
    """Per-layer metrics of one traced phase (means per request or per group)."""
    # The server's counters and spans cover the warm-up requests too.
    opened = [s for one in phase["rounds"] for s in one["open"].samples]
    unpaced = phase["warmup"] + [s for one in phase["rounds"] for s in one["closed"]]
    samples = opened + unpaced
    metrics = phase["metrics"]
    s_self, s_calls = server["self_s"], server["calls"]
    requests = len(samples)
    flushes = metrics["repro_batcher_flushes_total"]
    solved = (metrics['repro_batcher_solved_requests_total{path="batched"}']
              + metrics['repro_batcher_solved_requests_total{path="fallback"}'])
    group_solve_s = metrics["repro_batcher_solve_seconds_total"] / flushes
    submit_s = s_self.get("service.submit.hit", 0.0) + s_self.get("service.submit.solved", 0.0)
    lookup_s = s_self.get("service.cache_lookup", 0.0) / max(1, s_calls.get("service.cache_lookup", 0))
    write_total = s_self.get("service.cache_write", 0.0)
    rtt_total = sum(s.rtt for s in samples)
    latency_total = sum(s.latency for s in opened) + sum(s.rtt for s in unpaced)
    solved_submits = max(1, s_calls.get("service.submit.solved", 0))
    worker_s = {}
    for sig in config["signatures"]:
        name = sig["heuristic"]
        groups = worker["counts"].get(f"service.worker_solve.groups.{name}", 0)
        worker_s[name] = worker["self_s"].get(f"service.worker_solve.{name}", 0.0) / max(1, groups)
    worker_groups = sum(v for k, v in worker["counts"].items()
                        if k.startswith("service.worker_solve.groups."))
    worker_total = sum(v for k, v in worker["self_s"].items()
                       if k.startswith("service.worker_solve."))
    cached = sum(1 for s in samples if s.body and s.body.get("cached"))
    values = {
        "service.http_ms": (rtt_total - submit_s - s_self.get("service.normalize", 0.0))
        / requests * 1000.0,
        "service.normalize_ms": s_self.get("service.normalize", 0.0) / requests * 1000.0,
        "service.batcher_wait_ms": (
            s_self.get("service.submit.solved", 0.0) / solved_submits
            - lookup_s - group_solve_s - write_total / flushes
        ) * 1000.0,
        "service.cache_lookup_ms": lookup_s * 1000.0,
        "service.cache_write_ms": write_total / max(1, s_calls.get("service.cache_write", 0)) * 1000.0,
        "service.cache_hit_ratio": cached / requests,
        "service.coalesced": metrics["repro_batcher_coalesced_total"],
        "service.group_size_mean": solved / flushes,
        "service.batched_ratio": metrics['repro_batcher_solved_requests_total{path="batched"}'] / solved,
        "service.group_solve_ms": group_solve_s * 1000.0,
        "service.pool_overhead_ms": (group_solve_s - worker_total / max(1, worker_groups)) * 1000.0,
        "service.generator_late_ms": harness.mean(
            late for one in phase["rounds"] for late in one["open"].late
        ) * 1000.0,
        "heuristics.batched_rows": worker["counts"].get("heuristics.batched_rows", 0),
        "heuristics.loop_rows": worker["counts"].get("heuristics.loop_rows", 0),
        "service.unattributed_share": 1.0 - rtt_total / latency_total,
    }
    for name, seconds in worker_s.items():
        values[f"service.worker_solve_ms.{name}"] = seconds * 1000.0
    return values
