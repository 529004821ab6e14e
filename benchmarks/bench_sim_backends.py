"""Backend throughput benchmark — updates ``BENCH_sim_backends.json``.

Runs the same workload (Algorithm 1 colonies hunting the corner target)
through every registered backend, measures colonies/sec, and records
the numbers next to this file so the performance trajectory is tracked
from PR to PR.  The acceptance floor — the ``batched`` backend at least
10x the ``reference`` engine — is asserted, with the measured margin in
the JSON (typically two to three orders of magnitude).

Timing runs bypass the result cache (``cache=False``): a cached replay
would measure the cache, not the backend.  Other benchmarks write
their own sections of the shared JSON record through
:func:`update_record`.
"""

from __future__ import annotations

import datetime
import json
import os
import pathlib
import platform
import time

import numpy as np

from repro.sim import AlgorithmSpec, SimulationCache, SimulationRequest, simulate

RECORD_PATH = pathlib.Path(__file__).resolve().parent / "BENCH_sim_backends.json"
HISTORY_PATH = pathlib.Path(__file__).resolve().parent / "BENCH_history.jsonl"

WORKLOAD = {
    "algorithm": "algorithm1",
    "distance": 32,
    "n_agents": 8,
    "target": (32, 32),
    "move_budget": 100_000,
}

# The size gates' request: perfbench's large algorithm1 shape (n=4000).
# Its cache entry and wire body sizes are exact byte counts, so the
# gates carry no noise allowance.
SIZE_REQUEST = {
    "distance": 32,
    "n_agents": 8,
    "target": (24, 17),
    "move_budget": 100_000,
    "n_trials": 4000,
    "seed": 20140507,
}
MAX_ENTRY_KB = 130.0
MAX_WIRE_BODY_KB = 200.0

# Colonies per timing run, scaled to each backend's expected throughput
# so every measurement covers a comparable wall-clock slice.
_TRIALS = {"reference": 5, "batched": 400}


def machine_fingerprint() -> dict:
    """Identity of this host, stamped into every history snapshot.

    Captures exactly the axes along which recorded performance numbers
    stop being comparable: CPU model, core count, numpy version, and
    the platform triple, so cross-machine floor drift is diagnosable.
    """
    cpu_model = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": cpu_model,
        "cpu_count": os.cpu_count() or 1,
        "numpy": np.__version__,
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def update_record(section: str, payload: dict) -> dict:
    """Merge one benchmark's section into the shared JSON record.

    Every call also appends a dated snapshot line to
    ``BENCH_history.jsonl`` — the in-place JSON holds only the latest
    numbers, the JSONL holds the whole perf trajectory across PRs in a
    machine-readable form (one ``{"recorded_at", "section", "payload",
    "machine"}`` object per line).  The ``machine`` fingerprint (CPU
    model, core count, numpy version) makes cross-machine floor drift
    diagnosable: when a committed record was measured on different
    hardware, the history says so.
    """
    record = {}
    if RECORD_PATH.exists():
        try:
            record = json.loads(RECORD_PATH.read_text())
        except json.JSONDecodeError:
            record = {}
    if not isinstance(record, dict) or not all(
        isinstance(value, dict) for value in record.values()
    ):
        # Upgrade pre-section layouts (flat keys like
        # "colonies_per_second" at top level) by starting over; a
        # section-shaped record is preserved regardless of which
        # benchmark runs first.
        record = {}
    record[section] = payload
    RECORD_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    snapshot = {
        "recorded_at": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "section": section,
        "payload": payload,
        "machine": machine_fingerprint(),
    }
    with HISTORY_PATH.open("a") as history:
        history.write(json.dumps(snapshot, sort_keys=True) + "\n")
    return record


def _colonies_per_second(backend: str) -> float:
    n_trials = _TRIALS[backend]
    request = SimulationRequest(
        algorithm=AlgorithmSpec.algorithm1(WORKLOAD["distance"]),
        n_agents=WORKLOAD["n_agents"],
        target=WORKLOAD["target"],
        move_budget=WORKLOAD["move_budget"],
        n_trials=n_trials,
        seed=20140507,
    )
    start = time.perf_counter()
    result = simulate(request, backend=backend, cache=False)
    elapsed = time.perf_counter() - start
    assert len(result.outcomes) == n_trials
    return n_trials / elapsed


def test_backend_throughput_record():
    rates = {name: _colonies_per_second(name) for name in sorted(_TRIALS)}
    speedup = rates["batched"] / rates["reference"]
    payload = {
        "workload": WORKLOAD,
        "colonies_per_second": {name: round(rate, 2) for name, rate in rates.items()},
        "speedup_batched_vs_reference": round(speedup, 1),
        "trials_timed": _TRIALS,
    }
    record = update_record("backends", payload)
    print()
    print(json.dumps(record, indent=2, sort_keys=True))
    assert speedup >= 10.0, (
        f"batched backend must beat reference by >= 10x colonies/sec, "
        f"got {speedup:.1f}x"
    )


def test_outcome_size_gates(tmp_path):
    """The n=4000 cache entry and wire body stay columnar-sized.

    One int64 column per outcome field is 4 x 32,000 bytes of payload;
    a cache frame stores it raw and the wire base64-encodes it.  A
    per-trial record encoding (pickled tuples, JSON objects) is several
    times larger and fails both gates.
    """
    from repro.server.wire import result_to_wire

    spec = dict(SIZE_REQUEST)
    request = SimulationRequest(
        algorithm=AlgorithmSpec.algorithm1(spec.pop("distance")), **spec
    )
    result = simulate(request, backend="batched", cache=False)
    SimulationCache(directory=tmp_path).store(request, "batched", result.outcomes)
    entry_kb = sum(path.stat().st_size for path in tmp_path.glob("*.pkl")) / 1024
    body_kb = len(json.dumps(result_to_wire(result))) / 1024
    update_record(
        "outcome_sizes",
        {
            "request": SIZE_REQUEST,
            "cache_entry_kb": round(entry_kb, 2),
            "wire_body_kb": round(body_kb, 2),
            "max_cache_entry_kb": MAX_ENTRY_KB,
            "max_wire_body_kb": MAX_WIRE_BODY_KB,
        },
    )
    print(f"\ncache entry {entry_kb:.1f} KB, wire body {body_kb:.1f} KB")
    assert entry_kb <= MAX_ENTRY_KB, f"cache entry {entry_kb:.1f} KB > {MAX_ENTRY_KB} KB"
    assert body_kb <= MAX_WIRE_BODY_KB, f"wire body {body_kb:.1f} KB > {MAX_WIRE_BODY_KB} KB"
