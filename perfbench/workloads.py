"""The three workloads' timed phases (the untraced run).

Every loop is closed: one caller waits for each reply before sending the
next request.  Each function returns a :class:`Phase` with the measured
end-to-end metrics and every operation's latency.  Results are kept and
checked after the timed phase, so the checks cost it nothing.
"""

from __future__ import annotations

import os
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set

import numpy as np

import ops as opgen
from measure import Answers, Host, Tally, clock, outcome_errors, peak_rss_mb, reap, stop, timed

# Rounds are sized from --seconds with these per-round costs (measured on a
# 2-core x86 host); the minimum keeps 100 small samples for small_p90_ms.
LOCAL_ROUND_S = 1.1
REMOTE_ROUND_S = 1.7
MIN_ROUNDS = 8
REPORT_S = 19.0
SETUP_SPAWNS = {"local": 7, "remote": 5, "report": 7}


@dataclass
class Context:
    root: Path
    work: Path
    seed: int
    seconds: float
    host: Host
    inject: Optional[str] = None

    @property
    def perfbench(self) -> Path:
        return self.root / "perfbench"

    def repro_cmd(self, *args: str) -> List[str]:
        """``python -m repro ARGS``, through the injection launcher if asked."""
        if self.inject:
            return [sys.executable, str(self.perfbench / "inject.py"), self.inject,
                    "-m", "repro", *args]
        return [sys.executable, "-m", "repro", *args]


def local_rounds(ctx: Context) -> int:
    return opgen.rounds_for(ctx.seconds, LOCAL_ROUND_S, MIN_ROUNDS)


def remote_rounds(ctx: Context) -> int:
    return opgen.rounds_for(ctx.seconds, REMOTE_ROUND_S, MIN_ROUNDS)


@dataclass
class Phase:
    metrics: Dict[str, float]
    op_ms: Dict[int, float] = field(default_factory=dict)  # latency by op index
    extra: Dict[str, float] = field(default_factory=dict)


def _wait_for_line(path: Path, pattern: str, proc: subprocess.Popen, timeout: float = 120.0) -> Optional[re.Match]:
    """Poll a child's log file until a line matches (None if it exits first).

    The log is read once more after the child exits, in case the line was
    written just before the exit.
    """
    deadline = time.monotonic() + timeout
    regex = re.compile(pattern)
    while time.monotonic() < deadline:
        exited = proc.poll() is not None
        match = regex.search(path.read_text(errors="replace"))
        if match or exited:
            return match
        time.sleep(0.002)
    return None


def _spawn(ctx: Context, cmd: List[str], log: Path, cache: Optional[Path] = None) -> subprocess.Popen:
    env = None if cache is None else dict(os.environ, REPRO_ANTS_CACHE_DIR=str(cache))
    with open(log, "w") as handle:
        return subprocess.Popen(cmd, cwd=ctx.work, env=env, stdout=handle, stderr=subprocess.STDOUT)


def _probe_setup(ctx: Context, tally: Tally, args: List[str], index: int) -> Optional[float]:
    """Seconds from spawning a set-up probe until it is ready (None if it failed)."""
    op = tally.op()
    log = ctx.work / f"probe{index}.log"
    start = clock()
    proc = _spawn(ctx, [sys.executable, str(ctx.perfbench / "probe.py"), *args], log)
    line = _wait_for_line(log, r"(?m)^(ready|error: .*)$", proc)
    elapsed = clock() - start
    reap(proc)
    ctx.host.sample()
    if line is None or line.group(0) != "ready" or proc.returncode != 0:
        tally.fail(op, f"set-up probe exited {proc.returncode}: {log.read_text(errors='replace')[-300:]}")
        return None
    return elapsed


# -- local ------------------------------------------------------------------


def run_local(ctx: Context, tally: Tally) -> Phase:
    from repro.sim import backend_run_count, simulate

    seeds = np.random.default_rng([ctx.seed, 0]).integers(2**31, size=SETUP_SPAWNS["local"])
    ctx.host.sample()
    setup = [_probe_setup(ctx, tally, ["local", str(seed)], index) for index, seed in enumerate(seeds)]
    cold, replays = opgen.local_ops(ctx.seed, local_rounds(ctx))

    # Warm-up: the first request pays lazy imports; set-up time covers it.
    warm = opgen.first_request(np.random.default_rng([ctx.seed, 3]))
    _check(tally, tally.op(), simulate(warm), warm)

    ops = cold + replays
    answers = Answers(tally, ops)
    for index, op in enumerate(ops):
        ctx.host.due()
        if index == len(cold):
            drop_memory_cache()
        before = backend_run_count()
        try:
            result, ms = timed(simulate, op.request)
        except Exception as error:  # noqa: BLE001 - a failed op is counted, the run goes on
            answers.fail(index, f"{type(error).__name__}: {error}")
            continue
        if op.kind == "replay" and backend_run_count() != before:
            answers.fail(index, "replay ran the backend")
        answers.record(index, result, ms)
    metrics = {"setup_s": _median_of_ok(setup), **answers.metrics(), "peak_rss_mb": peak_rss_mb()}
    return Phase(metrics, answers.op_ms)


def drop_memory_cache() -> None:
    """A new cache object on the same directory: the memory LRU is gone, so
    every replay reads the disk layer, as a script re-run in a new process does."""
    from repro.sim import configure_cache

    configure_cache(directory=configure_cache().directory)


def _median_of_ok(values: List[Optional[float]]) -> float:
    ok = [value for value in values if value is not None]
    if not ok:
        raise RuntimeError("every set-up attempt failed")
    return statistics.median(ok)


def _check(tally: Tally, op_id: str, result, request) -> None:
    error = outcome_errors(result, request)
    if error:
        tally.fail(op_id, error)


# -- remote -----------------------------------------------------------------


class Server:
    """``python -m repro serve`` on an ephemeral port, in a subprocess."""

    def __init__(self, ctx: Context, name: str) -> None:
        self.log = ctx.work / f"{name}.log"
        self.started = clock()
        self.proc = _spawn(ctx, ctx.repro_cmd("serve", "--port", "0"),
                           self.log, cache=ctx.work / f"{name}-cache")
        match = _wait_for_line(self.log, r"serving on (http://\S+)", self.proc)
        if match is None:
            stop(self.proc)
            raise RuntimeError(f"server did not start: {self.log.read_text(errors='replace')[-300:]}")
        self.url = match.group(1)

    def close(self) -> float:
        """Stop the server; its peak RSS in MB."""
        return stop(self.proc)


def start_server(ctx: Context, tally: Tally, name: str, index: int):
    """Start a server and answer its first request: (server, set-up seconds)."""
    from repro.server import RemoteClient

    op = tally.op()
    server = Server(ctx, name)
    request = opgen.first_request(np.random.default_rng([ctx.seed, 4, index]))
    try:
        result = RemoteClient(server.url).simulate(request)
    except Exception:
        server.close()
        raise
    elapsed = clock() - server.started
    _check(tally, op, result, request)
    return server, elapsed


def run_remote(ctx: Context, tally: Tally) -> Phase:
    from repro.server import RemoteClient
    from repro.sim import simulate

    setup = []
    server = None
    ctx.host.sample()
    for index in range(SETUP_SPAWNS["remote"]):
        if server is not None:
            server.close()
        server, elapsed = start_server(ctx, tally, f"server{index}", index)
        setup.append(elapsed)
        ctx.host.sample()
    try:
        ops = opgen.remote_ops(ctx.seed, remote_rounds(ctx))
        client = RemoteClient(server.url)
        answers = Answers(tally, ops)
        sample = _sample(ops)
        kept = {}
        for index, op in enumerate(ops):
            ctx.host.due()
            try:
                result, ms = timed(client.simulate, op.request)
            except Exception as error:  # noqa: BLE001
                answers.fail(index, f"{type(error).__name__}: {error}")
                continue
            answers.record(index, result, ms)
            if index in sample:
                kept[index] = result
        stats = client.stats()
        retries = client.retries_429 + client.retries_connect + client.retries_stream
    finally:
        peak = server.close()

    # After the timed phase: a sample of remote answers must equal the
    # in-process answer to the same request, bit for bit.
    for index, result in kept.items():
        if simulate(ops[index].request, cache=False) != result:
            answers.fail(index, "remote result differs from in-process simulate()")
    metrics = {"setup_s": _median_of_ok(setup), **answers.metrics(), "peak_rss_mb": peak}
    extra = {
        "client.retries": float(retries),
        "server.rejected_429": float(stats["rejected_429"]),
        "server.cache_hit_ratio": float(stats["cache"].get("hit_ratio") or 0.0),
    }
    return Phase(metrics, answers.op_ms, extra)


def _sample(ops: List[opgen.Op]) -> Set[int]:
    """The index of the first cold request of every (family, n_trials) shape."""
    picked: Dict[tuple, int] = {}
    for index, op in enumerate(ops):
        if op.kind != "replay":
            picked.setdefault((op.request.algorithm.name, op.request.n_trials), index)
    return set(picked.values())


# -- report -----------------------------------------------------------------


def run_report(ctx: Context, tally: Tally) -> Phase:
    ctx.host.sample()
    setup = [_probe_setup(ctx, tally, ["report"], index) for index in range(SETUP_SPAWNS["report"])]
    committed = (ctx.root / "EXPERIMENTS.md").read_bytes()
    walls, peaks = [], []
    # One regeneration is ~REPORT_S long, so --seconds buys whole ones only.
    for index in range(max(1, int(ctx.seconds // REPORT_S))):
        op = tally.op()
        output = ctx.work / f"EXPERIMENTS{index}.md"
        log = ctx.work / f"report{index}.log"
        start = clock()
        proc = _spawn(ctx, ctx.repro_cmd("report", "--output", str(output)), log,
                      cache=ctx.work / f"report{index}-cache")
        paused, peak = ctx.host.wait(proc, timeout=120.0)
        walls.append(clock() - start - paused)
        peaks.append(peak)
        reap(proc, timeout=10.0)
        if proc.returncode != 0:
            tally.fail(op, f"report exited {proc.returncode}: {log.read_text(errors='replace')[-300:]}")
        elif output.read_bytes() != committed:
            tally.fail(op, "report differs from the committed EXPERIMENTS.md")
    metrics = {
        "setup_s": _median_of_ok(setup),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": max(peaks),
    }
    return Phase(metrics)
