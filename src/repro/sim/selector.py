"""Static execution planner: backend choice plus shard layout.

:func:`plan_request` maps a :class:`SimulationRequest` to a
:class:`SimulationPlan` — which backend runs it and how its trials are
sharded.  The backend is the static ``auto`` resolution
(:func:`repro.sim.backends.registry.resolve_backend`: hand-assigned
priorities, "batch kernels beat per-trial loops on trial batches"), or
the named backend when one is given.  The shard count is the job
layer's ``min(workers, n_trials)`` rule.  The function is pure: same
request, same worker cap, same plan.

``repro-ants backends --json`` and
``GET /v1/backends`` surface one plan per family through
:func:`selector_payload`; ``benchmarks/bench_selector.py`` scores the
static rule against oracle / single-best / random policies on a
workload matrix.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.errors import InvalidParameterError
from repro.obs.metrics import get_registry
from repro.obs.trace import child_span
from repro.sim.backends.base import SimulationRequest, probe_request
from repro.sim.backends.registry import AUTO, resolve_backend

_PLANS_TOTAL = get_registry().counter(
    "repro_selector_plans_total",
    "Execution plans issued, by backend.",
    ["backend"],
)

#: Families with batch kernels, shown in the ``selector`` introspection
#: section (spiral/levy are reference-only: there is nothing to plan).
SELECTOR_FAMILIES = (
    "algorithm1",
    "nonuniform",
    "uniform",
    "doubly-uniform",
    "random-walk",
    "feinerman",
)


@dataclass(frozen=True)
class SimulationPlan:
    """One request's execution plan: backend choice + shard layout."""

    backend: str
    n_shards: int
    workers: int

    def to_payload(self) -> Dict[str, Any]:
        """JSON-ready encoding (CLI ``--json`` and ``/v1/backends``)."""
        return {
            "backend": self.backend,
            "n_shards": self.n_shards,
            "workers": self.workers,
        }


def usable_cores() -> int:
    """The cores this process may run on: its CPU affinity where the
    platform reports one, else the machine's core count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_cap(workers: Optional[int]) -> int:
    if workers is not None:
        if workers < 1:
            raise InvalidParameterError(f"workers must be >= 1, got {workers}")
        return workers
    return usable_cores()


def plan_request(
    request: SimulationRequest,
    backend: str = AUTO,
    workers: Optional[int] = None,
) -> SimulationPlan:
    """Map a request to its execution plan.

    ``backend`` is ``"auto"`` (static resolution) or a registered name
    that pins the choice.  ``workers`` caps the shard count (``None``:
    :func:`usable_cores`); a multi-trial request gets
    ``min(workers, n_trials)`` shards, the layout ``simulate(...,
    workers=...)`` uses.
    """
    with child_span("selector.plan", family=request.algorithm.name) as sp:
        cap = _worker_cap(workers)
        chosen = resolve_backend(request, backend)
        n_shards = (
            min(cap, request.n_trials) if request.n_trials > 1 else 1
        )
        plan = SimulationPlan(
            backend=chosen.name,
            n_shards=n_shards,
            workers=n_shards,
        )
        _PLANS_TOTAL.inc(backend=plan.backend)
        if sp is not None:
            sp.set_attribute("backend", plan.backend)
        return plan


#: Trial count of the representative batch :func:`selector_payload` plans.
PAYLOAD_BATCH_TRIALS = 100


def selector_payload() -> Dict[str, Any]:
    """The ``selector`` introspection section (CLI ``--json``, server).

    The plan for a representative trial batch of every selector family:
    what a planned submission of that size, capped at this machine's
    core count, would run.
    """
    plans = {
        family: plan_request(
            probe_request(family, n_trials=PAYLOAD_BATCH_TRIALS)
        ).to_payload()
        for family in SELECTOR_FAMILIES
    }
    return {"batch_trials": PAYLOAD_BATCH_TRIALS, "plans": plans}
