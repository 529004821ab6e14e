"""Sensitivity self-test: slow one layer down and watch the predicted metric move.

    python3 perfbench/selftest.py

A ``DELAY_MS`` sleep is injected before every call of one function
(``run.py --inject``, which also reaches the server process).  Each
workload runs ``REPS`` times on each of three variants: baseline and the
two injections of ``CASES``, in an order that rotates from one
repetition to the next, on the repetition's own seed.  A metric's *rise*
is the median over repetitions of (injected - baseline), so that the
host's slow drift cancels within each repetition.

A case passes when

* its predicted metric rises by ``BAND`` times the delay per call (one
  call per operation), and by more than the spread between the first
  and third quartile of the baseline runs; and
* every bypassed metric moves by less than ``BYPASS_MAX`` times the delay
  it would gain per operation if the function were on its path (for
  ``wall_s``, per attempted operation of the run).

Every run is printed.  Exit status 0 when every case behaves as
predicted.  Takes about 15 minutes on a 2-core host.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DELAY_MS = 20.0
REPS = 10
SECONDS = 8
BAND = (0.7, 1.5)
BYPASS_MAX = 0.3
LATENCIES = ("small_p50_ms", "small_p90_ms", "large_p50_ms", "replay_p50_ms")
# (injected function, (workload, metric) that must rise, bypassed (workload, metric) pairs)
CASES = (
    ("repro.server.wire.result_to_wire", ("remote", "replay_p50_ms"),
     [("local", name) for name in LATENCIES + ("wall_s",)]),
    ("repro.sim.kernels.core.run_family", ("local", "large_p50_ms"),
     [("local", "replay_p50_ms"), ("remote", "replay_p50_ms")]),
)
VARIANTS = ("",) + tuple(f"{target}:{DELAY_MS:g}" for target, _, _ in CASES)


def bench(workload: str, seed: int, inject: str) -> dict:
    """One untraced run: its detail metrics plus ``attempted``."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    if inject:
        cmd += ["--inject", inject]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = out.stdout.splitlines()
    detail = [line for line in lines if line.startswith("perfbench-detail ")]
    if out.returncode != 0 or not detail:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{out.stdout[-2000:]}\n{out.stderr[-2000:]}")
    metrics = json.loads(detail[0].split(" ", 1)[1])["metrics"]
    metrics["attempted"] = json.loads(lines[-1])["attempted"]
    return metrics


def rise_ms(runs, workload: str, variant: str, metric: str) -> float:
    """Median over repetitions of injected minus baseline, in ms per operation."""
    rises = []
    for base, slow in zip(runs[workload, ""], runs[workload, variant]):
        if metric == "wall_s":
            rises.append((slow[metric] - base[metric]) * 1e3 / base["attempted"])
        else:
            rises.append(slow[metric] - base[metric])
    return statistics.median(rises)


def main() -> int:
    workloads = sorted({pair[0] for _, predicted, bypass in CASES for pair in [predicted] + bypass})
    runs = {(workload, variant): [] for workload in workloads for variant in VARIANTS}
    for rep in range(REPS):
        seed = 100 + rep
        order = VARIANTS[rep % len(VARIANTS):] + VARIANTS[:rep % len(VARIANTS)]
        for workload in workloads:
            for variant in order:
                metrics = bench(workload, seed, variant)
                runs[workload, variant].append(metrics)
                print(f"run rep={rep} seed={seed} {workload:<6} {variant or 'baseline':<42} "
                      + " ".join(f"{name}={metrics[name]:.3f}" for name in LATENCIES + ("wall_s",)),
                      flush=True)

    ok = True
    for variant, (_, (workload, metric), bypass) in zip(VARIANTS[1:], CASES):
        print(f"inject {variant}")
        base = [run[metric] for run in runs[workload, ""]]
        quartiles = statistics.quantiles(base, n=4)
        spread = quartiles[2] - quartiles[0]
        rise = rise_ms(runs, workload, variant, metric)
        low, high = BAND[0] * DELAY_MS, BAND[1] * DELAY_MS
        passed = low <= rise <= high and rise > spread
        ok &= passed
        print(f"  {workload:<7} {metric:<14} baseline median {statistics.median(base):9.3f}  "
              f"rise {rise:+7.2f} ms (needs {low:.0f}..{high:.0f}, and > baseline IQR "
              f"{spread:.2f})  {'ok' if passed else 'FAIL'}")
        for name, key in bypass:
            rise = rise_ms(runs, name, variant, key)
            passed = abs(rise) < BYPASS_MAX * DELAY_MS
            ok &= passed
            per = "per op" if key == "wall_s" else ""
            print(f"  {name:<7} {key:<14} rise {rise:+7.2f} ms {per:<6} (bypass, needs |rise| < "
                  f"{BYPASS_MAX * DELAY_MS:.0f})  {'ok' if passed else 'FAIL'}")
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
