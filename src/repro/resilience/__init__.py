"""Resilience layer: deterministic fault injection and chaos tooling.

The paper's algorithms are judged by how little state they need to keep
searching; this package is the same discipline applied to the
*infrastructure* that runs them.  :mod:`repro.resilience.faults` is a
seeded, deterministic fault-injection harness wired into the existing
execution seams — pool shard tasks, cache disk I/O, backend execution,
server socket handling, client HTTP calls — and gated behind the
``REPRO_ANTS_FAULTS`` environment variable so production paths reduce
to a single ``is None`` check.

The machinery the harness exercises lives where the work happens:
shard-level retry with backoff in :mod:`repro.sim.jobs`, checksummed
cache entries with quarantine in :mod:`repro.sim.cache`, idempotent
POST retries and SSE resume in :mod:`repro.server`.  The chaos suite
(``tests/integration/test_chaos.py``) and
``benchmarks/bench_resilience.py`` prove the combination: a sweep with
a worker killed mid-run completes bit-identical to the unfaulted run
with zero re-simulation of already-written shards.
"""

from repro.resilience.faults import (
    FaultPlan,
    FaultSpec,
    activate,
    active_plan,
    deactivate,
    faults_enabled,
    maybe_inject,
)

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "activate",
    "active_plan",
    "deactivate",
    "faults_enabled",
    "maybe_inject",
]
