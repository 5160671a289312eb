"""Self-tests of the benchmark harness (no program under test needed).

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import asyncio
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import harness  # noqa: E402
import loadgen  # noqa: E402


# -- tail percentile rule -------------------------------------------------------


def test_tail_percentile_needs_ten_samples_beyond():
    samples = list(range(1, 101))
    assert harness.samples_beyond(100, 0.9) == 10
    assert harness.tail_percentile(samples, 0.9) == 90
    with pytest.raises(harness.BenchmarkError):
        harness.tail_percentile(samples[:99], 0.9)
    with pytest.raises(harness.BenchmarkError):
        harness.tail_percentile(samples, 0.95)


def test_percentile_is_nearest_rank():
    assert harness.percentile([5, 1, 3], 0.5) == 3
    assert harness.median([4, 1, 3, 2]) == 2
    with pytest.raises(harness.BenchmarkError):
        harness.percentile([], 0.5)


# -- self time ------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    tracer = harness.Tracer(clock=clock)
    with tracer.span("outer"):
        clock.now += 1.0
        with tracer.span("child"):
            clock.now += 2.0
            with tracer.span("grandchild"):
                clock.now += 4.0
        clock.now += 8.0
        with tracer.span("child"):
            clock.now += 16.0
    clock.now += 32.0  # outside every span
    with tracer.span("other"):
        clock.now += 64.0
    snap = tracer.snapshot()
    assert snap["self_s"] == {"outer": 9.0, "child": 18.0, "grandchild": 4.0, "other": 64.0}
    assert snap["calls"]["child"] == 2
    assert snap["covered"] == 95.0
    assert sum(snap["self_s"].values()) == snap["covered"]


def test_patch_undo_restores_originals():
    class Owner:
        def method(self):
            return "original"

    patch = harness.Patch()
    patch.set(Owner, "method", lambda self: "wrapped")
    assert Owner().method() == "wrapped"
    patch.undo()
    assert Owner().method() == "original"


# -- metric names ---------------------------------------------------------------


@pytest.mark.parametrize(
    "name", ["setup_s", "service.worker_solve_ms.H4w", "live.tier.cold", "a-b_c.9"]
)
def test_metric_name_accepted(name):
    assert harness.check_metric_name(name) == name


@pytest.mark.parametrize("name", ["", "has space", "per/second", "x" * 65, "ünits"])
def test_metric_name_rejected(name):
    with pytest.raises(harness.BenchmarkError):
        harness.check_metric_name(name)


def test_declared_metrics_have_valid_names():
    for trace in (False, True):
        for name in harness.declared_metrics(trace):
            harness.check_metric_name(name)


def test_result_requires_every_declared_metric():
    names = harness.declared_metrics(False)
    values = {name: 1.5 for name in names}
    out = harness.result(values, trace=False, attempted=3, failed=1)
    assert out["correct"] is False and set(out["metrics"]) == set(names)
    with pytest.raises(harness.BenchmarkError):
        harness.result(dict(list(values.items())[1:]), trace=False, attempted=3, failed=0)
    with pytest.raises(harness.BenchmarkError):
        harness.result(values | {"extra": 1.0}, trace=False, attempted=3, failed=0)


# -- HTTP load generation against fake servers -----------------------------------


async def _fake_server(respond):
    """A keep-alive JSON server; ``respond(n)`` -> ``(status, delay seconds)``."""
    counter = {"n": 0}

    async def handle(reader, writer):
        try:
            while True:
                head = await reader.readuntil(b"\r\n\r\n")
                length = 0
                for line in head.decode("latin-1").split("\r\n"):
                    name, _, value = line.partition(":")
                    if name.lower() == "content-length":
                        length = int(value)
                await reader.readexactly(length)
                status, delay = respond(counter["n"])
                counter["n"] += 1
                if delay:
                    await asyncio.sleep(delay)
                body = json.dumps({"ok": status < 300}).encode()
                writer.write(
                    f"HTTP/1.1 {status} X\r\nContent-Length: {len(body)}\r\n\r\n".encode()
                    + body
                )
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


def test_refused_and_late_responses_count_as_failures():
    statuses = [200, 429, 504, 200]

    async def scenario():
        server, port = await _fake_server(lambda n: (statuses[n], 0.0))
        async with server:
            conn = loadgen.Connection("127.0.0.1", port)
            samples, _ = await loadgen.closed_loop([conn], "/v1/solve", [{}] * 4)
            await conn.close()
        return samples

    samples = asyncio.run(scenario())
    assert [s.status for s in samples] == statuses
    assert [s.failed for s in samples] == [False, True, True, False]

    import service

    failed, defects = service.check([{}] * 4, [s for s in samples if s.failed])
    assert failed == 2 and len(defects) == 2


def test_open_loop_latency_counts_a_stall_on_later_requests():
    stall = 0.2

    async def scenario():
        server, port = await _fake_server(lambda n: (200, stall if n == 2 else 0.0))
        async with server:
            conn = loadgen.Connection("127.0.0.1", port)
            offsets = [0.02 * i for i in range(20)]
            report = await loadgen.open_loop([conn], "/v1/solve", [{}] * 20, offsets)
            await conn.close()
        return report

    report = asyncio.run(scenario())
    samples = report.samples
    assert not any(s.failed for s in samples)
    assert samples[2].rtt >= stall
    # The next request was due 20 ms after the stalled one but could only
    # be sent once it finished: its round trip is short, its latency is not.
    assert samples[3].rtt < stall / 2
    assert samples[3].latency >= stall - 0.02 - 0.01
    assert max(report.backlog) >= 1
    # Requests due after the stall cleared see ordinary latency again.
    assert samples[-1].latency < stall / 2


# -- service latency by request class -------------------------------------------


def test_class_medians_split_cache_hits_from_each_heuristic():
    import service

    payloads = [{"heuristic": h} for h in ("H2", "H2", "H2", "H4f", "H4f")]
    latencies = [0.020, 0.030, 0.002, 0.010, 0.008]
    bodies = [{}, {}, {"cached": True}, {"cached": False}, None]
    samples = [
        loadgen.Sample(index=i, due=0.0, done=latency, status=200, body=body)
        for i, (latency, body) in enumerate(zip(latencies, bodies))
    ]
    medians = service.class_medians_ms(samples, payloads)
    assert medians == pytest.approx({"H2": 20.0, "H4f": 8.0, "cached": 2.0})


# -- per-class medians, slices and arrivals ---------------------------------------


def test_geomean_weighs_each_class_by_its_relative_change():
    assert harness.geomean([2.0, 8.0]) == pytest.approx(4.0)
    # Doubling the fast class moves the result as much as doubling the slow one.
    assert harness.geomean([4.0, 8.0]) == pytest.approx(harness.geomean([2.0, 16.0]))
    with pytest.raises(harness.BenchmarkError):
        harness.geomean([])
    with pytest.raises(harness.BenchmarkError):
        harness.geomean([1.0, 0.0])


def test_live_chunks_are_consecutive_and_near_equal():
    import live

    assert live.chunks(list(range(8)), 3) == [[0, 1, 2], [3, 4, 5], [6, 7]]
    assert live.chunks([1, 2], 3) == [[1], [2], []]


def test_live_tier_medians_need_every_tier():
    import live

    def event(via, rtt):
        return ("fail", rtt, {"via": via})

    events = [event("cache", 0.001), event("warm", 0.004), event("warm", 0.006),
              event("cold", 0.040), ("request", 0.5, {"via": "cache"}),
              event("infeasible", 0.9)]
    assert live.tier_medians_ms(events) == pytest.approx(
        {"cache": 1.0, "warm": 4.0, "cold": 40.0}
    )
    with pytest.raises(harness.BenchmarkError):
        live.tier_medians_ms(events[:3])


def test_open_loop_arrivals_are_seeded_and_counted():
    import random

    import service

    first = service.arrivals(random.Random(4), 25.0, 100)
    assert first == service.arrivals(random.Random(4), 25.0, 100)
    assert len(first) == 100 and first == sorted(first)
    assert 2.0 < first[-1] < 6.0  # about 100 / 25 s


def test_idle_spinner_is_stopped_and_waited_for():
    with harness.idle_spinner() as proc:
        assert proc.poll() is None
    assert proc.returncode is not None
