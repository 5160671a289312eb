"""``live`` workload: live replanning sessions, closed loop, one client.

``run_timeline_remote`` replays seeded ``LiveConfig`` timelines back to
back through one service session each, on a ``repro serve --workers 1``
server over one keep-alive connection.  Fail and recover events trigger
warm descents, cold re-solves or cache hits; request probes measure the
HTTP and session overhead alone.
"""

from __future__ import annotations

import itertools
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import harness

_clock = time.perf_counter


class _TimedSession:
    """A ``ServiceSession`` that times each event's round trip."""

    def __init__(self, session, events: list):
        self._session = session
        self._events = events
        self.created = session.created

    def event(self, kind: str, time: float, machine: int | None = None) -> dict:
        start = _clock()
        response = self._session.event(kind=kind, time=time, machine=machine)
        self._events.append((kind, _clock() - start, response))
        return response

    def close(self) -> dict:
        return self._session.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._session.__exit__(*exc_info)


class TimedClient:
    """The client ``run_timeline_remote`` takes, recording every event it sends.

    ``events`` collects ``(kind, round-trip seconds, response)``.
    """

    def __init__(self, client):
        self._client = client
        self.events: list = []

    def session(self, request: dict):
        return _TimedSession(self._client.session(request), self.events)


def configs(config: dict, seed: int):
    """The workload's timelines, endlessly: one seed each, derived from ``seed``.

    The first ``warmup_timelines`` warm a fresh server up and are not timed.
    """
    from repro.live.timeline import LiveConfig

    for index in itertools.count():
        yield LiveConfig(seed=seed * 10_000 + index, **config["timeline"])


def _replay(url: str, timelines, timed: bool, *, seconds: float = 0.0, minimum: int = 0):
    """Replay timelines back to back over one connection.

    Stops when ``timelines`` run out, or once ``seconds`` have passed and
    at least ``minimum`` timelines were replayed.  Returns the timelines
    played, their reports (or the error that broke one off), the timed
    events of each timeline and the wall seconds of each.
    """
    from repro.exceptions import ReproError
    from repro.live.runner import run_timeline_remote
    from repro.service.client import ServiceClient

    played, outcomes, events, walls = [], [], [], []
    with ServiceClient(url, retries=0) as client:
        start = _clock()
        for timeline in timelines:
            if seconds and len(played) >= minimum and _clock() - start >= seconds:
                break
            via = TimedClient(client) if timed else client
            began = _clock()
            try:
                outcomes.append(run_timeline_remote(timeline, via))
            except ReproError as exc:
                outcomes.append(exc)
            walls.append(_clock() - began)
            events.append(via.events if timed else [])
            played.append(timeline)
    return played, outcomes, events, walls


def _reference(timeline):
    from repro.live.runner import run_timeline

    return run_timeline(timeline, warm=False)


def check(timelines, outcomes) -> tuple[int, int, list[str]]:
    """Compare each remote event with ``run_timeline(config, warm=False)``.

    Returns ``(attempted events, failed events, defects)``; a timeline the
    service broke off fails every event it did not answer.  The references
    are computed on every CPU the benchmark may use, after the timed part.
    """
    from repro.exceptions import ExperimentError
    from repro.live.runner import LiveReport, compare_reports

    with ProcessPoolExecutor(max_workers=2, initializer=harness.unpin) as pool:
        references = list(pool.map(_reference, timelines))
    attempted = failed = 0
    defects: list[str] = []
    for timeline, outcome, reference in zip(timelines, outcomes, references):
        attempted += len(reference.records)
        if not isinstance(outcome, LiveReport):
            failed += len(reference.records)
            defects.append(f"timeline seed {timeline.seed}: {outcome}")
            continue
        for index, expected in enumerate(reference.records):
            if index >= len(outcome.records):
                failed += 1
                continue
            one = [LiveReport(timeline, mode, [record], 0.0, {}, {})
                   for mode, record in (("cold", expected), ("remote", outcome.records[index]))]
            try:
                compare_reports(*one)
            except ExperimentError as exc:
                failed += 1
                defects.append(f"timeline seed {timeline.seed}: {exc}")
        if outcome.availability != reference.availability:
            failed += 1
            defects.append(f"timeline seed {timeline.seed}: availability "
                           f"{outcome.availability!r} != {reference.availability!r}")
    return attempted, failed, defects


#: The replanning tiers whose median round trips make ``latency_p50_ms``;
#: ``infeasible`` is too rare to have a steady median.
TIERS = ("cache", "warm", "cold")


def tier_medians_ms(events: list) -> dict[str, float]:
    """Median round trip (ms) of the fail/recover events of each tier in ``TIERS``.

    The tiers' round trips differ tenfold (cache about 1.5 ms, warm 4 ms,
    cold 35 ms) and each timeline seed mixes them differently, so the
    median of all events moves with the mix; each tier's median does not.
    """
    by_tier: dict[str, list[float]] = {tier: [] for tier in TIERS}
    for kind, rtt, response in events:
        if kind != "request" and response["via"] in by_tier:
            by_tier[response["via"]].append(rtt * 1000.0)
    empty = [tier for tier, rtts in by_tier.items() if not rtts]
    if empty:
        raise harness.BenchmarkError(f"no {empty} replans in the run; lengthen it")
    return {tier: harness.median(rtts) for tier, rtts in by_tier.items()}


def chunks(items: list, count: int) -> list[list]:
    """``items`` in ``count`` consecutive runs whose lengths differ by at most one."""
    size, extra = divmod(len(items), count)
    bounds = [0]
    for index in range(count):
        bounds.append(bounds[-1] + size + (index < extra))
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


def chunk_values(config: dict, per_timeline: list[tuple[list, float]]) -> dict:
    """Throughput, tier-median latency and tail latency of consecutive timelines."""
    events = [event for timeline_events, _ in per_timeline for event in timeline_events]
    changes_ms = [rtt * 1000.0 for kind, rtt, _ in events if kind != "request"]
    tier_p50 = tier_medians_ms(events)
    return {
        "throughput_per_s": len(events) / sum(wall for _, wall in per_timeline),
        "latency_p50_ms": harness.geomean(tier_p50.values()),
        "latency_tail_ms": harness.tail_percentile(changes_ms, config["tail_percentile"]),
        "latency_p50_ms_by_tier": tier_p50,
        "timelines": len(per_timeline),
        "fail_recover_events": len(changes_ms),
    }


def run(config: dict, seed: int, seconds: float, trace: bool, workdir: Path) -> tuple[dict, dict]:
    if not trace:
        ready, server = harness.spawn_servers(config["setup_repeats"], workdir)
        timelines = configs(config, seed)
        with server:
            warmup, warm_outcomes, _, _ = _replay(
                server.url, itertools.islice(timelines, config["warmup_timelines"]), False
            )
            played, outcomes, events, walls = _replay(
                server.url, timelines, True,
                seconds=seconds, minimum=config["min_timelines"],
            )
            peak = server.peak_rss_mb()
        attempted, failed, defects = check(warmup + played, warm_outcomes + outcomes)
        by_chunk = [chunk_values(config, part)
                    for part in chunks(list(zip(events, walls)), config["chunks"])]
        values = {"setup_s": harness.median(ready), "peak_rss_mb": peak}
        for name in ("throughput_per_s", "latency_p50_ms", "latency_tail_ms"):
            values[name] = harness.median(c[name] for c in by_chunk)
        report = {
            "timelines": len(played),
            "events": sum(len(e) for e in events),
            "chunks": by_chunk,
            "tail_percentile": config["tail_percentile"],
            "setup_ready_s": ready,
            "defects": defects[:20],
        }
        return values | {"_attempted": attempted, "_failed": failed}, report

    probes = harness.setup_probes(None, seed, config["setup_repeats"])
    warmup, *timelines = itertools.islice(configs(config, seed), 1 + config["traced_timelines"])
    with harness.Server(harness.serve_command(workdir / "cache"), cwd=harness.ROOT,
                        log_path=workdir / "server.log") as server:
        _, warm, _, _ = _replay(server.url, [warmup], False)
        _, plain, _, plain_walls = _replay(server.url, timelines, False)
        _, traced, per_timeline, traced_walls = _replay(server.url, timelines, True)
    plain_wall, traced_wall = sum(plain_walls), sum(traced_walls)
    events = [event for timeline_events in per_timeline for event in timeline_events]
    attempted, failed, defects = check([warmup] + timelines * 2, warm + plain + traced)
    values = {"cli.import_s": harness.median(p["import_s"] for p in probes)}
    changes = [(rtt, resp) for kind, rtt, resp in events if kind != "request"]
    for tier in ("warm", "cold", "cache"):
        replans = [resp["replan_ms"] for _, resp in changes if resp["via"] == tier]
        values[f"live.replan_ms.{tier}"] = harness.median(replans) if replans else 0.0
    for tier in ("warm", "cold", "cache", "infeasible"):
        values[f"live.tier.{tier}"] = sum(1 for _, resp in changes if resp["via"] == tier)
    values["live.session_ms"] = harness.median(
        rtt * 1000.0 - resp["replan_ms"] for rtt, resp in changes
    )
    values["live.probe_rtt_ms"] = harness.median(
        rtt * 1000.0 for kind, rtt, _ in events if kind == "request"
    )
    values["live.unattributed_share"] = 1.0 - sum(rtt for _, rtt, _ in events) / traced_wall
    values["live.trace_overhead_share"] = traced_wall / plain_wall - 1.0
    report = {
        "wall_s": {"untraced": plain_wall, "traced": traced_wall},
        "events": len(events),
        "defects": defects[:20],
    }
    return values | {"_attempted": attempted, "_failed": failed}, report
