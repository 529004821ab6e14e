"""Deterministic, seeded fault injection for the execution seams.

A :class:`FaultPlan` is a small declarative registry of
:class:`FaultSpec` rules.  Instrumented seams call
:func:`maybe_inject` with their site name and a context dict; when the
active plan has a matching rule whose schedule says "fire now", the
harness acts — kills the worker process, stalls, raises a transient
error, resets the connection, or (for the corruption kinds) returns
the fired spec so the seam applies the damage itself.

Everything is deterministic by construction:

* matching is exact field equality against the call's context (so a
  rule can target ``shard_index=2, attempt=0`` and fire only on the
  first attempt of one specific shard);
* scheduling is by per-``(site, rule)`` match counters (``at`` — fire
  on these 0-based match indices — or ``every`` — fire on every Nth
  match), with an optional ``probability`` mode derived from the
  plan's seed and the counter, never from global RNG state;
* activation travels through the ``REPRO_ANTS_FAULTS`` environment
  variable (the JSON encoding of the plan), which is exactly how the
  plan reaches spawned pool workers — the processes whose deaths the
  chaos suite engineers.

When ``REPRO_ANTS_FAULTS`` is unset the whole module reduces to one
``is None`` check per seam call: production paths pay nothing.  A value
that does not parse as a plan raises
:class:`~repro.errors.InvalidParameterError` at every seam instead of
silently running unarmed.

Instrumented sites (context fields in parentheses)::

    worker.shard    (shard_index, attempt, backend)   pool shard tasks
    backend.run     (backend, shard_index, attempt)   inline + pooled runs
    cache.disk_read (level)                           disk entry reads
    cache.disk_write(level)                           disk entry writes
    client.http     (method, path, attempt)           RemoteClient calls
    server.sse      (event_index, kind)               SSE event writes
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.errors import InvalidParameterError, TransientFaultError
from repro.obs.metrics import get_registry
from repro.obs.trace import current_span

#: Environment variable carrying the active plan (its JSON encoding).
#: Unset/empty/"0" means no faults — the production default.
ENV_VAR = "REPRO_ANTS_FAULTS"

#: The fault kinds and what firing does.
KINDS = (
    "kill",         # os._exit the current process (pool-worker death)
    "stall",        # sleep `seconds` (slow shard)
    "error",        # raise TransientFaultError (retryable blip)
    "reset",        # raise ConnectionResetError (flaky socket)
    "corrupt",      # returned to the seam: flip bytes in what it wrote
    "truncate",     # returned to the seam: cut what it wrote short
)

#: Kinds the seam must apply itself (maybe_inject returns the spec).
ACTION_KINDS = frozenset({"corrupt", "truncate"})

_REGISTRY = get_registry()
_FAULTS_INJECTED = _REGISTRY.counter(
    "repro_faults_injected_total",
    "Faults fired by the injection harness, by site and kind.",
    ["site", "kind"],
)


@dataclass(frozen=True)
class FaultSpec:
    """One fault rule: where, what, and when.

    ``match`` narrows which calls at ``site`` the rule applies to:
    every key present must equal the call's context value.  The
    schedule then decides which *matching* calls fire: ``at`` (0-based
    match indices), ``every`` (every Nth match), or ``probability``
    (seeded per-match coin); exactly one may be set, and ``None`` for
    all three means every match fires.  ``max_fires`` bounds total
    firings per process (counters are process-local, so a killed
    worker's replacement starts fresh — rules targeting worker kills
    should therefore match on ``attempt`` to avoid kill loops).
    """

    site: str
    kind: str
    match: Mapping[str, Any] = field(default_factory=dict)
    at: Optional[Tuple[int, ...]] = None
    every: Optional[int] = None
    probability: Optional[float] = None
    seconds: float = 0.0
    max_fires: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise InvalidParameterError(
                f"unknown fault kind {self.kind!r}; known: {', '.join(KINDS)}"
            )
        modes = sum(
            value is not None
            for value in (self.at, self.every, self.probability)
        )
        if modes > 1:
            raise InvalidParameterError(
                "at / every / probability are mutually exclusive"
            )
        if self.every is not None and self.every < 1:
            raise InvalidParameterError(
                f"every must be >= 1, got {self.every}"
            )
        if self.probability is not None and not (
            0.0 < self.probability <= 1.0
        ):
            raise InvalidParameterError(
                f"probability must be in (0, 1], got {self.probability}"
            )
        if self.seconds < 0:
            raise InvalidParameterError(
                f"seconds must be >= 0, got {self.seconds}"
            )

    def matches(self, context: Mapping[str, Any]) -> bool:
        """Whether this rule applies to one seam call's context."""
        return all(
            context.get(key) == value for key, value in self.match.items()
        )

    def to_payload(self) -> Dict[str, Any]:
        return {
            "site": self.site,
            "kind": self.kind,
            "match": dict(self.match),
            "at": None if self.at is None else list(self.at),
            "every": self.every,
            "probability": self.probability,
            "seconds": self.seconds,
            "max_fires": self.max_fires,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "FaultSpec":
        at = payload.get("at")
        return cls(
            site=str(payload["site"]),
            kind=str(payload["kind"]),
            match=dict(payload.get("match") or {}),
            at=None if at is None else tuple(int(i) for i in at),
            every=payload.get("every"),
            probability=payload.get("probability"),
            seconds=float(payload.get("seconds", 0.0)),
            max_fires=payload.get("max_fires"),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of fault rules — the unit of activation.

    The seed feeds the ``probability`` schedule (a per-match hash coin)
    so probabilistic chaos runs are exactly reproducible; rules using
    ``at``/``every`` are deterministic without it.
    """

    specs: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "specs": [spec.to_payload() for spec in self.specs],
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, encoded: str) -> "FaultPlan":
        payload = json.loads(encoded)
        return cls(
            specs=tuple(
                FaultSpec.from_payload(spec)
                for spec in payload.get("specs", [])
            ),
            seed=int(payload.get("seed", 0)),
        )


class _State:
    """Process-local harness state: the resolved plan and counters."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.resolved = False
        self.plan: Optional[FaultPlan] = None
        self.env_value: Optional[str] = None
        # (rule index) -> matches seen / fires performed.
        self.matches: Dict[int, int] = {}
        self.fires: Dict[int, int] = {}


_STATE = _State()


def _resolve_locked() -> Optional[FaultPlan]:
    """The active plan, re-parsed whenever the env var changes."""
    value = os.environ.get(ENV_VAR) or None
    if value in ("0", "1"):
        # "1" turns the *gate* on without rules (the CI chaos step sets
        # it so the suite's programmatic plans are honored); "0" is an
        # explicit off.
        value = None if value == "0" else value
    if value != _STATE.env_value or not _STATE.resolved:
        plan = None
        if value is not None and value != "1":
            try:
                plan = FaultPlan.from_json(value)
            except (ValueError, KeyError, TypeError) as error:
                # Left unresolved, so every seam raises until the
                # variable is fixed: a typo must not disarm the harness.
                raise InvalidParameterError(
                    f"{ENV_VAR} holds an invalid fault plan: {error}"
                ) from None
        _STATE.env_value = value
        _STATE.resolved = True
        _STATE.matches.clear()
        _STATE.fires.clear()
        _STATE.plan = plan
    return _STATE.plan


def active_plan() -> Optional[FaultPlan]:
    """The plan currently in force in this process, if any."""
    with _STATE.lock:
        return _resolve_locked()


def faults_enabled() -> bool:
    """Whether any fault plan is active."""
    return active_plan() is not None


def activate(plan: FaultPlan) -> None:
    """Install ``plan`` process-wide and export it to child processes.

    Writes the plan's JSON into ``REPRO_ANTS_FAULTS`` so pool workers
    spawned after activation resolve the identical plan — which is how
    worker-side kills and stalls are scheduled.
    """
    os.environ[ENV_VAR] = plan.to_json()
    with _STATE.lock:
        _STATE.resolved = False
        _resolve_locked()


def deactivate() -> None:
    """Remove any active plan and clear the environment gate."""
    os.environ.pop(ENV_VAR, None)
    with _STATE.lock:
        _STATE.resolved = False
        _resolve_locked()


def fault_counters() -> Dict[int, Tuple[int, int]]:
    """Per-rule ``(matches, fires)`` counters (tests and diagnostics)."""
    with _STATE.lock:
        _resolve_locked()
        keys = set(_STATE.matches) | set(_STATE.fires)
        return {
            index: (_STATE.matches.get(index, 0), _STATE.fires.get(index, 0))
            for index in keys
        }


def _coin(seed: int, rule_index: int, counter: int, p: float) -> bool:
    """A deterministic per-match Bernoulli draw from the plan seed."""
    digest = hashlib.sha256(
        f"{seed}:{rule_index}:{counter}".encode()
    ).digest()
    draw = int.from_bytes(digest[:8], "big") / float(1 << 64)
    return draw < p


def _should_fire(
    plan: FaultPlan, index: int, spec: FaultSpec, counter: int
) -> bool:
    if spec.max_fires is not None and _STATE.fires.get(index, 0) >= spec.max_fires:
        return False
    if spec.at is not None:
        return counter in spec.at
    if spec.every is not None:
        return (counter + 1) % spec.every == 0
    if spec.probability is not None:
        return _coin(plan.seed, index, counter, spec.probability)
    return True


def maybe_inject(site: str, **context: Any) -> Optional[FaultSpec]:
    """The seam hook: act on any matching, scheduled fault rule.

    Raising kinds (``error``, ``reset``) raise their exception;
    ``kill`` exits the process; ``stall`` sleeps and returns the spec;
    the :data:`ACTION_KINDS` are returned to the caller to apply (byte
    corruption and truncation happen where the bytes are).
    Returns ``None`` when nothing fired — the only outcome when no plan
    is active, at the cost of one environment lookup.
    """
    with _STATE.lock:
        plan = _resolve_locked()
        if plan is None:
            return None
        fired: Optional[Tuple[int, FaultSpec]] = None
        for index, spec in enumerate(plan.specs):
            if spec.site != site or not spec.matches(context):
                continue
            counter = _STATE.matches.get(index, 0)
            _STATE.matches[index] = counter + 1
            if fired is None and _should_fire(plan, index, spec, counter):
                _STATE.fires[index] = _STATE.fires.get(index, 0) + 1
                fired = (index, spec)
        if fired is None:
            return None
        _, spec = fired
    _FAULTS_INJECTED.inc(site=site, kind=spec.kind)
    sp = current_span()
    if sp is not None:
        sp.set_attribute("fault_injected", f"{site}:{spec.kind}")
    if spec.kind == "kill":
        # A pool-worker death: exit hard enough that the executor sees
        # a broken pool, exactly like a kill -9 from outside.
        os._exit(66)
    if spec.kind == "stall":
        time.sleep(spec.seconds)
        return spec
    if spec.kind == "error":
        raise TransientFaultError(f"injected transient fault at {site}")
    if spec.kind == "reset":
        raise ConnectionResetError(f"injected connection reset at {site}")
    return spec  # corrupt / truncate: the seam applies the damage
