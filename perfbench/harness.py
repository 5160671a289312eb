"""Shared pieces of the benchmark: statistics, spans, processes, results.

Everything here is program-agnostic; the workload modules
(``campaign.py``, ``service.py``, ``live.py``) supply what each workload
runs and measures.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import platform
import re
import signal
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: A tail percentile is reported only when at least this many samples
#: lie beyond it; fewer would make the tail a handful of outliers.
MIN_BEYOND = 10

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


class BenchmarkError(RuntimeError):
    """The run cannot produce a valid measurement."""


# -- statistics -----------------------------------------------------------------


def percentile(samples, q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q <= 1``) of ``samples``."""
    ordered = sorted(samples)
    if not ordered:
        raise BenchmarkError("percentile of an empty sample")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(samples) -> float:
    return percentile(samples, 0.5)


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``q`` one."""
    return count - max(1, math.ceil(q * count))


def tail_percentile(samples, q: float) -> float:
    """The ``q`` percentile, refused unless ``MIN_BEYOND`` samples lie beyond it."""
    beyond = samples_beyond(len(samples), q)
    if beyond < MIN_BEYOND:
        raise BenchmarkError(
            f"p{q * 100:g} of {len(samples)} samples has only {beyond} beyond it "
            f"(need {MIN_BEYOND}); lengthen the run"
        )
    return percentile(samples, q)


def mean(samples) -> float:
    samples = list(samples)
    return sum(samples) / len(samples) if samples else 0.0


def geomean(samples) -> float:
    """Geometric mean of positive ``samples``: each one's relative change counts alike."""
    samples = list(samples)
    if not samples or min(samples) <= 0:
        raise BenchmarkError(f"geometric mean of {samples}")
    return math.exp(sum(math.log(s) for s in samples) / len(samples))


# -- spans ----------------------------------------------------------------------


class Tracer:
    """In-memory spans around wrapped calls, aggregated per name.

    ``span(name)`` nests per thread: a span's *self* time is its duration
    minus the time its child spans cover, so the self times of all spans
    in one thread add up to the time any span covers (``covered``).
    ``add`` records a flat duration that nests in nothing, for calls that
    interleave on one thread (coroutines).  ``count`` keeps exact counts.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.covered = 0.0
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        frame = [self.clock(), 0.0]
        stack.append(frame)
        try:
            yield
        finally:
            duration = self.clock() - frame[0]
            stack.pop()
            with self._lock:
                self.self_s[name] += duration - frame[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += duration
                else:
                    self.covered += duration

    def add(self, name: str, duration: float) -> None:
        with self._lock:
            self.self_s[name] += duration
            self.calls[name] += 1

    def count(self, name: str, value: int = 1) -> None:
        with self._lock:
            self.counts[name] += value

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
                "covered": self.covered,
            }

    def reset(self) -> None:
        with self._lock:
            self.self_s.clear()
            self.calls.clear()
            self.counts.clear()
            self.covered = 0.0
            self._local = threading.local()


def merge_snapshots(snapshots) -> dict:
    """Sum several :meth:`Tracer.snapshot` dicts (one per process)."""
    merged = {"self_s": Counter(), "calls": Counter(), "counts": Counter(), "covered": 0.0}
    for snap in snapshots:
        for key in ("self_s", "calls", "counts"):
            merged[key].update(snap[key])
        merged["covered"] += snap["covered"]
    return merged


class Patch:
    """Replace attributes and put the originals back on ``undo``."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def undo(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


# -- results --------------------------------------------------------------------


def check_metric_name(name: str) -> str:
    if not METRIC_NAME.fullmatch(name) or len(name) > 64:
        raise BenchmarkError(f"bad metric name {name!r}")
    return name


def declared_metrics(trace: bool) -> dict[str, str]:
    """``{name: unit}`` of the metrics a run must print (from BENCHMARK.json)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    group = spec["per_layer" if trace else "end_to_end"]
    return {entry["name"]: entry["unit"] for entry in group}


def fill_unreached(values: dict[str, float]) -> dict[str, float]:
    """Every declared per-layer metric; a layer the workload never calls reads 0."""
    return {name: 0.0 for name in declared_metrics(True)} | values


def result(values: dict[str, float], *, trace: bool, attempted: int, failed: int) -> dict:
    """The final result object; every declared metric, nothing else."""
    units = declared_metrics(trace)
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if missing or extra:
        raise BenchmarkError(f"metrics missing {missing}, undeclared {extra}")
    metrics = {}
    for name in units:
        value = float(values[name])
        if not math.isfinite(value):
            raise BenchmarkError(f"metric {name} is not finite: {value}")
        metrics[check_metric_name(name)] = {"value": value, "unit": units[name]}
    if attempted < 1:
        raise BenchmarkError("no operation was attempted")
    return {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }


def _version(module: str) -> str:
    try:
        return __import__(module).__version__
    except ImportError:
        return "missing"


def env_stamp(seed: int, cpu: int) -> dict:
    """Where and on what the numbers were measured."""
    from repro.backend import backend_info

    try:
        lines = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        lines = []
    # A checkout that is not itself a git work tree has no commit of its own.
    commit = lines[1] if len(lines) == 2 and Path(lines[0]) == ROOT else "unknown"
    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "backend": backend_info(),
        "commit": commit,
        "seed": seed,
    }


# -- processes ------------------------------------------------------------------


#: The CPUs this process could use before :func:`pin_to_one_cpu`.
ALL_CPUS = frozenset(os.sched_getaffinity(0))


def pin_to_one_cpu() -> int:
    """Confine this process, and every process it starts, to one CPU.

    The client, the server and its pool worker then hand a request over
    by a context switch on that CPU, instead of waking an idle virtual
    CPU, whose wake-up delay on a shared host depends on other tenants.
    Returns the CPU, the highest one this process may use.
    """
    cpu = max(ALL_CPUS)
    os.sched_setaffinity(0, {cpu})
    return cpu


def unpin() -> None:
    """Let this process use every CPU again (for work outside the timed part)."""
    os.sched_setaffinity(0, ALL_CPUS)


@contextlib.contextmanager
def idle_spinner():
    """Run ``idle_spin.py`` on this process's CPUs for the duration of the block.

    On a shared virtual machine a halted virtual CPU wakes after a delay
    set by the host's other tenants; open-loop latencies, with their idle
    gaps between arrivals, doubled from one minute to the next.  The
    spinner keeps the CPU from halting and yields to every other task.
    """
    proc = subprocess.Popen([sys.executable, str(HERE / "idle_spin.py")],
                            stdin=subprocess.DEVNULL)
    try:
        yield proc
    finally:
        proc.kill()
        proc.wait()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # The program's own span tracing stays off in every run.
    env.pop("REPRO_TRACE", None)
    return env


def proc_tree(pid: int) -> list[int]:
    """``pid`` and its descendants (Linux ``/proc``)."""
    pids, queue = [], [pid]
    while queue:
        current = queue.pop()
        pids.append(current)
        for task in Path(f"/proc/{current}/task").glob("*"):
            try:
                queue.extend(int(c) for c in (task / "children").read_text().split())
            except OSError:
                continue
    return pids


def peak_rss_mb(pids) -> float:
    """Sum of each process's peak resident set (``VmHWM``), in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def self_peak_rss_mb() -> float:
    return peak_rss_mb([os.getpid()])


class Server:
    """One ``repro serve`` subprocess, from spawn to readiness to exit.

    ``command`` is the argument list after the interpreter; the server
    binds a free port and announces its URL on stdout.
    """

    READY_TIMEOUT = 60.0

    def __init__(self, command: list[str], cwd: Path, log_path: Path):
        self.started = time.perf_counter()
        self._log = open(log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, *command],
            cwd=cwd,
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
        )
        self.url = self._await_ready()
        self.ready_s = time.perf_counter() - self.started
        # Keep reading stdout so a chatty server never blocks on a full pipe.
        self._drain = threading.Thread(target=self.proc.stdout.read, daemon=True)
        self._drain.start()

    def _await_ready(self) -> str:
        lines: list[str] = []
        timer = threading.Timer(self.READY_TIMEOUT, self.proc.kill)
        timer.start()
        try:
            for line in self.proc.stdout:
                lines.append(line)
                if "listening on " in line:
                    return line.split("listening on ", 1)[1].split()[0]
        finally:
            timer.cancel()
        self.proc.wait()
        self._log.close()
        log = Path(self._log.name).read_text(encoding="utf-8")
        raise BenchmarkError(f"server exited before readiness: {''.join(lines)}{log}")

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(proc_tree(self.proc.pid))

    def stop(self) -> None:
        """Interrupt, wait for a clean exit, kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._drain.join(timeout=10)
        self.proc.stdout.close()
        self._log.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_command(cache_dir: Path, *, traced_dump: Path | None = None) -> list[str]:
    """``python -m repro serve`` (or its traced launcher) on a free port."""
    args = ["serve", "--workers", "1", "--port", "0", "--cache-dir", str(cache_dir)]
    if traced_dump is None:
        return ["-m", "repro", *args]
    return [str(HERE / "traced_serve.py"), str(traced_dump), *args]


def spawn_servers(count: int, workdir: Path, **kwargs) -> tuple[list[float], Server]:
    """Spawn ``count`` servers in turn; readiness times and the last one, live."""
    times = []
    server = None
    for index in range(count):
        if server is not None:
            server.stop()
        server = Server(
            serve_command(workdir / f"cache-{index}", **kwargs),
            cwd=ROOT,
            log_path=workdir / f"server-{index}.log",
        )
        times.append(server.ready_s)
    return times, server


def setup_probes(campaign: dict | None, seed: int, count: int) -> list[dict]:
    """Time ``count`` fresh interpreters that import the CLI (and build the DAGs).

    Each probe reports its own import and ``build_pipeline`` seconds;
    ``wall_s`` is spawn to exit, as the parent sees it.  ``campaign`` is
    the campaign workload's config, or ``None`` to build nothing.
    """
    probes = []
    for _ in range(count):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), json.dumps(campaign), str(seed)],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        wall = time.perf_counter() - start
        if done.returncode != 0:
            raise BenchmarkError(f"set-up probe failed: {done.stderr}")
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        probe["wall_s"] = wall
        probes.append(probe)
    return probes
