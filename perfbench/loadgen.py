"""Asyncio load generator: keep-alive HTTP/1.1 connections, open and closed loops.

An open loop sends each request at its due time whether or not earlier
ones have finished; requests that are due while every connection is busy
wait in a queue, and their latency is timed from the due time, so a stall
shows on every request queued behind it.  A closed loop sends a
connection's next request only when its previous one has completed.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field

#: A request not answered within this many seconds is a failure.
REQUEST_TIMEOUT = 30.0


@dataclass(slots=True)
class Sample:
    """One request's outcome."""

    index: int
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    body: dict | None = None
    error: str | None = None

    @property
    def latency(self) -> float:
        """Seconds from due time to completion (open loop)."""
        return self.done - self.due

    @property
    def rtt(self) -> float:
        """Seconds from send to completion."""
        return self.done - self.sent

    @property
    def failed(self) -> bool:
        """Not answered, or answered with anything but 2xx (429 and 504 included)."""
        return self.error is not None or not 200 <= self.status < 300


class Connection:
    """One keep-alive HTTP/1.1 connection that sends JSON and reads JSON."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def _open(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(self.host, self.port)

    async def request(self, method: str, path: str, payload: dict | None) -> tuple[int, dict]:
        if self._writer is None:
            await self._open()
        body = b"" if payload is None else json.dumps(payload).encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        )
        self._writer.write(head.encode("ascii") + body)
        await self._writer.drain()
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        raw = await self._reader.readexactly(length) if length else b""
        return status, json.loads(raw) if raw else {}

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except ConnectionError:
                pass
            self._writer = self._reader = None


async def _exchange(conn: Connection, path: str, payload: dict, sample: Sample) -> None:
    sample.sent = time.perf_counter()
    try:
        sample.status, sample.body = await asyncio.wait_for(
            conn.request("POST", path, payload), REQUEST_TIMEOUT
        )
    except (OSError, asyncio.TimeoutError, ValueError, asyncio.IncompleteReadError) as exc:
        sample.error = f"{type(exc).__name__}: {exc}"
        # The connection's state is unknown after a failure; start afresh.
        await conn.close()
    sample.done = time.perf_counter()


@dataclass(slots=True)
class OpenLoopReport:
    samples: list[Sample]
    #: Seconds the generator woke up after each request's due time.
    late: list[float] = field(default_factory=list)
    #: Due-but-unsent requests, sampled at each arrival.
    backlog: list[int] = field(default_factory=list)

    @property
    def backlog_grew(self) -> bool:
        """Whether the due-but-unsent queue grew from the first third to the last."""
        third = len(self.backlog) // 3
        if third == 0:
            return False
        first = sum(self.backlog[:third]) / third
        last = sum(self.backlog[-third:]) / third
        return last > first + 1.0


async def open_loop(
    conns: list[Connection], path: str, payloads: list[dict], offsets: list[float]
) -> OpenLoopReport:
    """Send ``payloads[i]`` at ``offsets[i]`` seconds from now over ``conns``."""
    queue: asyncio.Queue = asyncio.Queue()
    report = OpenLoopReport(samples=[])

    async def sender(conn: Connection) -> None:
        while True:
            item = await queue.get()
            if item is None:
                return
            sample, payload = item
            await _exchange(conn, path, payload, sample)

    senders = [asyncio.ensure_future(sender(conn)) for conn in conns]
    start = time.perf_counter()
    for index, (payload, offset) in enumerate(zip(payloads, offsets)):
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        report.late.append(max(0.0, time.perf_counter() - due))
        report.backlog.append(queue.qsize())
        sample = Sample(index=index, due=due)
        report.samples.append(sample)
        queue.put_nowait((sample, payload))
    for _ in senders:
        queue.put_nowait(None)
    await asyncio.gather(*senders)
    return report


async def closed_loop(
    conns: list[Connection], path: str, payloads: list[dict], *, seconds: float | None = None
) -> tuple[list[Sample], float]:
    """Each connection sends the next payload when its last reply arrived.

    Stops when ``payloads`` run out or, with ``seconds``, when that much
    time has passed (requests in flight complete).  Returns the samples
    and the phase's wall time.
    """
    samples: list[Sample] = []
    cursor = iter(enumerate(payloads))
    start = time.perf_counter()
    stop_at = None if seconds is None else start + seconds

    async def worker(conn: Connection) -> None:
        for index, payload in cursor:
            now = time.perf_counter()
            if stop_at is not None and now >= stop_at:
                return
            sample = Sample(index=index, due=now)
            samples.append(sample)
            await _exchange(conn, path, payload, sample)

    await asyncio.gather(*(worker(conn) for conn in conns))
    wall = time.perf_counter() - start
    samples.sort(key=lambda s: s.index)
    return samples, wall
