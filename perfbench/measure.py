"""Timing, statistics, process and output-check helpers shared by the workloads."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import pickle
import signal
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

clock = time.perf_counter
# The reference loop's time on an unloaded 2-core x86 host (numpy 2.4,
# CPython 3.11): the host speed that the gated times are scaled to.
NOMINAL_MS = 10.0


def timed(call, *args, **kwargs):
    """(value, milliseconds) of one call."""
    start = clock()
    value = call(*args, **kwargs)
    return value, (clock() - start) * 1e3


def digest(result) -> str:
    """A fingerprint of a whole result, so replays can be compared exactly
    without keeping every large result in memory."""
    return hashlib.sha256(pickle.dumps((result.request, result.backend, result.outcomes))).hexdigest()


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile (linear interpolation between order statistics)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    return float(statistics.quantiles(ordered, n=100, method="inclusive")[q - 1])


def reference_ms() -> float:
    """A fixed loop that uses no repository code: vector arithmetic, a sort
    and random draws like the kernels', and object building, JSON and
    hashing like the cache and wire layers'.

    The garbage collector is off while it runs: a collection would walk
    the whole heap of the process, so the loop's time would depend on
    how much the program holds, not only on the host.
    """
    rng = np.random.default_rng(7)
    gc.disable()
    try:
        start = clock()
        for _ in range(10):
            values = rng.random(40_000)
            np.cumsum(values)
            np.sort(values[:4000])
            int((values < 0.5).sum())
            rng.integers(0, 4, size=20_000)
        rows = [{"i": i, "v": i * 0.5, "s": str(i)} for i in range(2000)]
        hashlib.sha256(json.dumps(rows).encode() + pickle.dumps(rows)).hexdigest()
        return (clock() - start) * 1e3
    finally:
        gc.enable()


class Host:
    """The host's speed through a run: the reference loop, timed while the
    program is idle.

    On a shared host the machine's speed drifts by tens of percent over
    minutes, and the loop, sampled through the same minutes, slows down in
    step with the program.  It is never run beside the program: the two
    cores of a small host slow each other down, so a concurrent sample
    would measure the program's own load.
    """

    PERIOD_S = 0.5

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []  # (clock at the end, ms)
        reference_ms()  # the first run pays NumPy's lazy set-up

    def sample(self) -> None:
        self.samples.append((clock(), reference_ms()))

    def due(self) -> None:
        """Sample if ``PERIOD_S`` has passed since the last sample."""
        if not self.samples or clock() - self.samples[-1][0] >= self.PERIOD_S:
            self.sample()

    def mean_ms(self) -> float:
        """Mean time of the loop over the run's samples."""
        return statistics.mean(ms for _, ms in self.samples)

    def wait(self, proc: subprocess.Popen, timeout: float) -> Tuple[float, float]:
        """Wait for ``proc`` to exit, stopping it every ``PERIOD_S`` to
        sample: (seconds it spent stopped, its peak RSS in MB, read while it
        ran).  A child still running at ``timeout`` is left running."""
        paused = peak = 0.0
        deadline = clock() + timeout
        while clock() < deadline:
            wake = clock() + self.PERIOD_S
            while clock() < wake:
                peak = peak_rss_mb(proc.pid) or peak
                if proc.poll() is not None:
                    return paused, peak
                time.sleep(0.005)
            start = clock()
            os.kill(proc.pid, signal.SIGSTOP)
            state = os.waitid(os.P_PID, proc.pid, os.WSTOPPED | os.WEXITED | os.WNOWAIT)
            if state.si_code != os.CLD_STOPPED:
                continue  # it exited first; the next poll reaps it
            self.sample()
            os.kill(proc.pid, signal.SIGCONT)
            paused += clock() - start
        return paused, peak


def peak_rss_mb(pid="self") -> Optional[float]:
    """Peak resident set of a running process so far, in MB (None once it
    has exited).

    Read from ``VmHWM``, the high-water mark of the process's own memory.
    ``getrusage``'s ``ru_maxrss`` is no use here: at ``exec`` Linux folds
    the parent's high-water mark into the child's, so it would report the
    parent whenever the parent is the larger.
    """
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def reap(proc: subprocess.Popen, timeout: float = 30.0) -> None:
    """Wait for ``proc`` to exit, killing it if it is still running at ``timeout``."""
    try:
        proc.wait(timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def stop(proc: subprocess.Popen) -> float:
    """Terminate a long-running child and return its peak RSS in MB."""
    peak = peak_rss_mb(proc.pid)
    if proc.poll() is None:
        proc.terminate()
    reap(proc, timeout=10.0)
    for stream in (proc.stdout, proc.stderr):
        if stream is not None:
            stream.close()
    return peak or 0.0


def dir_bytes(path) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(root, name))
            except OSError:
                pass
    return total


@dataclass
class Tally:
    """Operations attempted and the subset that failed (raise or bad output)."""

    attempted: int = 0
    failures: Dict[str, str] = field(default_factory=dict)

    def op(self) -> str:
        self.attempted += 1
        return f"op{self.attempted}"

    def fail(self, op_id: str, reason: str) -> None:
        self.failures.setdefault(op_id, reason)

    @property
    def failed(self) -> int:
        return len(self.failures)


class Answers:
    """The timed answers of one workload: checked as each arrives, untimed.

    Keeps every operation's latency, and a digest of each large result so
    that its replay can be compared exactly.
    """

    def __init__(self, tally: Tally, ops) -> None:
        self.tally = tally
        self.ops = ops
        self.ids = [tally.op() for _ in ops]
        self.op_ms: Dict[int, float] = {}
        self._digests: Dict[int, str] = {}

    def record(self, index: int, result, ms: float) -> None:
        op = self.ops[index]
        self.op_ms[index] = ms
        if op.kind == "replay":
            if digest(result) != self._digests.get(op.original):
                self.fail(index, "replay differs from the first response")
            return
        error = outcome_errors(result, op.request)
        if error:
            self.fail(index, error)
        if op.kind == "large":
            self._digests[index] = digest(result)

    def fail(self, index: int, reason: str) -> None:
        self.tally.fail(self.ids[index], reason)

    def metrics(self) -> Dict[str, float]:
        """``wall_s`` (the caller's total wait) and the class percentiles."""
        return {"wall_s": sum(self.op_ms.values()) / 1e3, **class_stats(self.ops, self.op_ms)}


def outcome_errors(result, request) -> Optional[str]:
    """Why ``result`` is not a valid answer to ``request`` (None when it is)."""
    if result.request != request:
        return "result carries another request"
    if len(result.outcomes) != request.n_trials:
        return f"{len(result.outcomes)} outcomes for {request.n_trials} trials"
    for index, outcome in enumerate(result.outcomes):
        if outcome.found != (outcome.m_moves is not None):
            return f"trial {index}: found={outcome.found} but m_moves={outcome.m_moves}"
        if outcome.found:
            if not 0 <= outcome.m_moves <= request.move_budget:
                return f"trial {index}: m_moves {outcome.m_moves} outside budget"
            if outcome.finder is None or not 0 <= outcome.finder < request.n_agents:
                return f"trial {index}: finder {outcome.finder} of {request.n_agents}"
    return None


def class_stats(ops, op_ms: Dict[int, float]) -> Dict[str, float]:
    """Per-class latency percentiles; each needs ten samples beyond it."""
    stats = {}
    for name, q, needed in (("small", 50, 20), ("small", 90, 100),
                            ("large", 50, 20), ("replay", 50, 20)):
        values = [ms for index, ms in op_ms.items() if ops[index].kind == name]
        if len(values) < needed:
            raise RuntimeError(
                f"{name}: {len(values)} samples, p{q} needs {needed}"
            )
        stats[f"{name}_p{q}_ms"] = percentile(values, q)
    return stats
