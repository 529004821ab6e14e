"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {local,remote,report} --seed N \\
        --seconds S --trace {0,1}

Run it from the repository root.  ``--trace 0`` times the workload as a
user sees it and reports the end-to-end metrics; ``--trace 1`` runs the
same workload again under a layer walk (``walk.py``) and reports the
per-layer metrics.  Every output is checked; a failed check or a raised
request counts as a failed operation.  The program runs in its shipped
default configuration (result cache on, tracing on with its JSONL sink),
against a fresh cache directory under ``.perfbench_work/`` that is
deleted on exit, so no run touches ``~/.cache/repro-ants``.  The gated
times are scaled by the host's speed over the run, measured with a
reference loop timed between operations (README.md: host scaling).

Output: a table of every metric by name and unit, a ``perfbench-detail``
line with the same numbers as JSON, and as the last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Exit status 0 when
every check passed, 1 when any failed, 2 when the repository is missing.
See README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import shutil
import sys
from pathlib import Path

def unit(name: str, declared: dict) -> str:
    """A metric's unit: as BENCHMARK.json declares it, else (for metrics
    printed in the table only) from its name's suffix."""
    if name in declared:
        return declared[name]
    if name.endswith("_per_s"):
        return "1/s"
    for suffix, suffix_unit in (("_ms", "ms"), ("_s", "s"), ("_mb", "MB"), ("_kb", "KB")):
        if name.endswith(suffix):
            return suffix_unit
    if name.endswith(("ratio", "_rate")):
        return "ratio"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("local", "remote", "report"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", metavar="MODULE.FUNCTION:MS",
                        help="sleep MS before every call of FUNCTION (sensitivity self-test)")
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    missing = [path for path in ("src/repro/__init__.py", "EXPERIMENTS.md", "BENCHMARK.json")
               if not (root / path).is_file()]
    if missing:
        print(f"perfbench: not a checkout of the repository ({', '.join(missing)} missing)",
              file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    # Registered before repro is imported, so that it runs after repro's
    # own exit handler, which flushes job records into the cache directory.
    atexit.register(_remove, work)
    # Set before repro is imported, and inherited by every child process.
    os.environ["REPRO_ANTS_CACHE_DIR"] = str(work / "cache")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    sys.path.insert(0, str(root / "src"))
    return run(args, root, work)


def _remove(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    try:
        work.parent.rmdir()
    except OSError:
        pass  # another run is still using it


def run(args, root: Path, work: Path) -> int:
    import workloads
    from measure import NOMINAL_MS, Host, Tally

    if args.inject:
        import inject

        inject.apply(args.inject)
    host = Host()
    ctx = workloads.Context(root, work, args.seed, args.seconds, host, args.inject)
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    tally = Tally()
    host.sample()
    if args.trace:
        import walk

        metrics, table = walk.TRACED[args.workload](ctx, tally)
        reported = spec["per_layer"]
    else:
        phase = {"local": workloads.run_local, "remote": workloads.run_remote,
                 "report": workloads.run_report}[args.workload](ctx, tally)
        metrics, table = dict(phase.metrics), {}
        metrics.update(phase.extra)
        reported = spec["end_to_end"]
    host.sample()
    metrics["host.probe_ms"] = host.mean_ms()
    if not args.trace:
        # The gated times, scaled to a host on which the reference loop
        # takes NOMINAL_MS (README: host scaling).
        for name in ("setup_s", "wall_s"):
            metrics[f"measured.{name}"] = measured = metrics[name]
            metrics[name] = measured * NOMINAL_MS / metrics["host.probe_ms"]
            table[name] = f"measured {measured:.4f} s x {NOMINAL_MS:g} ms / host.probe_ms"
    metrics["error_rate"] = tally.failed / max(tally.attempted, 1)

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for name, value in metrics.items():
        note = table.get(name, "")
        print(f"  {name:<24} {value:>14.4f} {unit(name, declared):<6} {note}")
    print(f"  host reference loop: mean {metrics['host.probe_ms']:.3f} ms over the run "
          f"(nominal {NOMINAL_MS:g} ms)")
    print(f"  {tally.failed} failed of {tally.attempted} operations attempted")
    for op_id, reason in list(tally.failures.items())[:10]:
        print(f"perfbench: {op_id} failed: {reason}", file=sys.stderr)
    print("perfbench-detail " + json.dumps(
        {"workload": args.workload, "seed": args.seed, "trace": args.trace, "metrics": metrics}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in reported},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
