"""The JSON wire schema of the serving layer.

Every value that crosses the HTTP boundary — requests submitted by a
remote client, results returned by the server, shard events streamed
over SSE — is encoded by the functions in this module and decoded by
their ``*_from_wire`` counterparts.  The schema is versioned
(:data:`WIRE_VERSION`, embedded in every envelope) and **round-trip
exact**: a :class:`~repro.sim.backends.base.SimulationRequest` decoded
from its own encoding compares equal to the original, including the
seed stream (``seed``/``seed_keys``), which is what makes remote
execution reproduce local execution bit for bit on the per-trial
backends.

All request fields that feed the seed stream or the cache fingerprint
are integers (or ``None``), so JSON represents them exactly — there is
no float rounding anywhere that could perturb reproducibility.  The one
float in the schema, ``deadline_seconds``, is an execution detail
excluded from the fingerprint.  Outcomes travel as the columns of their
:class:`~repro.sim.metrics.OutcomeBatch`: each column's raw
little-endian int64 bytes, base64-encoded, so they are exact too.

Decoding is strict: a payload with the wrong wire version, a missing
field, a malformed outcome column, or a value outside the request's
validated domain raises :class:`WireError` (the server maps it to HTTP
400; out-of-domain request values raise the request's own
:class:`~repro.errors.InvalidParameterError`, also a 400).
"""

from __future__ import annotations

import base64
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from repro.errors import InvalidParameterError, ReproError
from repro.sim.backends.base import (
    AlgorithmSpec,
    SimulationRequest,
    SimulationResult,
)
from repro.sim.jobs import JobProgress, JobState, ShardResult
from repro.sim.metrics import (
    COLUMN_DTYPE,
    OutcomeBatch,
    column_bytes,
    column_from_bytes,
)
from repro.sim.selector import SimulationPlan

#: Version of the JSON schema; bumped on any incompatible change.  The
#: server rejects payloads carrying a different version, so a stale
#: client fails loudly instead of silently misinterpreting fields.
#: v2 carries outcomes as base64 int64 columns (v1: one object per trial).
WIRE_VERSION = 2


class WireError(ReproError):
    """A wire payload could not be decoded (malformed or wrong version)."""


def opt_int(value: Any, field: str) -> Optional[int]:
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise WireError(f"{field} must be an integer or null, got {value!r}")
    return int(value)


def req_int(value: Any, field: str) -> int:
    result = opt_int(value, field)
    if result is None:
        raise WireError(f"{field} is required")
    return result


def opt_float(value: Any, field: str) -> Optional[float]:
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise WireError(f"{field} must be a number or null, got {value!r}")
    return float(value)


def point(value: Any, field: str) -> Tuple[int, int]:
    if not isinstance(value, Sequence) or len(value) != 2:
        raise WireError(f"{field} must be a two-element [x, y] pair")
    return (req_int(value[0], f"{field}[0]"), req_int(value[1], f"{field}[1]"))


def check_version(payload: Mapping[str, Any]) -> None:
    """Reject payloads from a different schema version."""
    version = payload.get("wire")
    if version != WIRE_VERSION:
        raise WireError(
            f"unsupported wire version {version!r} (this build speaks "
            f"{WIRE_VERSION})"
        )


# -- algorithm spec ------------------------------------------------------


def algorithm_to_wire(spec: AlgorithmSpec) -> Dict[str, Any]:
    """Encode an :class:`AlgorithmSpec` field for field."""
    return {
        "name": spec.name,
        "distance": spec.distance,
        "ell": spec.ell,
        "K": spec.K,
        "max_phase": spec.max_phase,
    }


def algorithm_from_wire(payload: Any) -> AlgorithmSpec:
    """Decode an algorithm spec, preserving the exact field values.

    Construction is direct (not through the classmethod constructors)
    so a calibrated ``K`` chosen by the submitter round-trips verbatim;
    domain validation still happens when the request is built.
    """
    if not isinstance(payload, Mapping):
        raise WireError("algorithm must be an object")
    name = payload.get("name")
    if not isinstance(name, str) or not name:
        raise WireError("algorithm.name must be a non-empty string")
    return AlgorithmSpec(
        name=name,
        distance=opt_int(payload.get("distance"), "algorithm.distance"),
        ell=opt_int(payload.get("ell"), "algorithm.ell"),
        K=opt_int(payload.get("K"), "algorithm.K"),
        max_phase=opt_int(payload.get("max_phase"), "algorithm.max_phase"),
    )


# -- simulation request --------------------------------------------------


def request_to_wire(request: SimulationRequest) -> Dict[str, Any]:
    """Encode a :class:`SimulationRequest`, seeds included."""
    return {
        "wire": WIRE_VERSION,
        "algorithm": algorithm_to_wire(request.algorithm),
        "n_agents": int(request.n_agents),
        "target": [int(request.target[0]), int(request.target[1])],
        "move_budget": int(request.move_budget),
        "step_budget": (
            None if request.step_budget is None else int(request.step_budget)
        ),
        "n_trials": int(request.n_trials),
        "seed": int(request.seed),
        "seed_keys": [int(key) for key in request.seed_keys],
        "distance_bound": (
            None
            if request.distance_bound is None
            else int(request.distance_bound)
        ),
        "deadline_seconds": (
            None
            if request.deadline_seconds is None
            else float(request.deadline_seconds)
        ),
    }


def request_from_wire(payload: Any) -> SimulationRequest:
    """Decode a request; raises :class:`WireError` on malformed input.

    The request's own ``__post_init__`` validation runs afterwards, so
    out-of-domain values (``n_agents < 1``, unknown algorithm name) are
    rejected at the boundary rather than deep inside a backend.
    """
    if not isinstance(payload, Mapping):
        raise WireError("request must be an object")
    check_version(payload)
    seed_keys = payload.get("seed_keys", [])
    if not isinstance(seed_keys, Sequence) or isinstance(seed_keys, str):
        raise WireError("seed_keys must be an array of integers")
    try:
        return SimulationRequest(
            algorithm=algorithm_from_wire(payload.get("algorithm")),
            n_agents=req_int(payload.get("n_agents"), "n_agents"),
            target=point(payload.get("target"), "target"),
            move_budget=req_int(payload.get("move_budget"), "move_budget"),
            step_budget=opt_int(payload.get("step_budget"), "step_budget"),
            n_trials=req_int(payload.get("n_trials", 1), "n_trials"),
            seed=req_int(payload.get("seed", 0), "seed"),
            seed_keys=tuple(
                req_int(key, "seed_keys[]") for key in seed_keys
            ),
            distance_bound=opt_int(
                payload.get("distance_bound"), "distance_bound"
            ),
            deadline_seconds=opt_float(
                payload.get("deadline_seconds"), "deadline_seconds"
            ),
        )
    except ReproError:
        raise
    except (TypeError, ValueError) as error:
        raise WireError(f"malformed request: {error}") from error


# -- outcomes ------------------------------------------------------------


def outcomes_to_wire(outcomes: OutcomeBatch) -> Dict[str, Any]:
    """Encode an :class:`OutcomeBatch` as base64 columns.

    Each column travels as its raw little-endian int64 bytes
    (``{"dtype": "<i8", "data": <base64>}``), the same bytes a cache
    frame stores; the batch's shape rides alongside.
    """
    return {
        "n_trials": outcomes.n_trials,
        "n_agents": outcomes.n_agents,
        "move_budget": outcomes.move_budget,
        "columns": {
            name: {
                "dtype": COLUMN_DTYPE,
                "data": base64.b64encode(column_bytes(values)).decode("ascii"),
            }
            for name, values in outcomes.columns().items()
        },
    }


def outcomes_from_wire(payload: Any) -> OutcomeBatch:
    """Decode an outcome batch; every malformation is a :class:`WireError`
    (bad base64, an unknown dtype tag, a missing or unknown column, or a
    column whose length does not fit ``n_trials``)."""
    if not isinstance(payload, Mapping):
        raise WireError("outcomes must be an object")
    columns = payload.get("columns")
    if not isinstance(columns, Mapping):
        raise WireError("outcomes.columns must be an object")
    decoded = {}
    for name, column in columns.items():
        if not isinstance(column, Mapping):
            raise WireError(f"outcomes.columns.{name} must be an object")
        data = column.get("data")
        if not isinstance(data, str):
            raise WireError(f"outcomes.columns.{name}.data must be a base64 string")
        try:
            raw = base64.b64decode(data, validate=True)
        except ValueError as error:
            raise WireError(f"outcomes.columns.{name}: bad base64 ({error})") from None
        try:
            decoded[name] = column_from_bytes(raw, column.get("dtype"))
        except InvalidParameterError as error:
            raise WireError(f"outcomes.columns.{name}: {error}") from None
    try:
        return OutcomeBatch.from_columns(
            req_int(payload.get("n_trials"), "outcomes.n_trials"),
            req_int(payload.get("n_agents"), "outcomes.n_agents"),
            opt_int(payload.get("move_budget"), "outcomes.move_budget"),
            decoded,
        )
    except InvalidParameterError as error:
        raise WireError(f"malformed outcomes: {error}") from None


# -- results, shards, progress -------------------------------------------


def result_to_wire(result: SimulationResult) -> Dict[str, Any]:
    """Encode a full :class:`SimulationResult` (request + outcomes)."""
    return {
        "wire": WIRE_VERSION,
        "request": request_to_wire(result.request),
        "backend": result.backend,
        "outcomes": outcomes_to_wire(result.outcomes),
    }


def result_from_wire(payload: Any) -> SimulationResult:
    """Decode a full result."""
    if not isinstance(payload, Mapping):
        raise WireError("result must be an object")
    check_version(payload)
    backend = payload.get("backend")
    if not isinstance(backend, str):
        raise WireError("result.backend must be a string")
    return SimulationResult(
        request=request_from_wire(payload.get("request")),
        backend=backend,
        outcomes=outcomes_from_wire(payload.get("outcomes")),
    )


def shard_to_wire(shard: ShardResult) -> Dict[str, Any]:
    """Encode one streamed shard completion (an SSE ``shard`` event)."""
    return {
        "wire": WIRE_VERSION,
        "shard_index": int(shard.shard_index),
        "trial_start": int(shard.trial_start),
        "trial_count": int(shard.trial_count),
        "from_cache": bool(shard.from_cache),
        "outcomes": outcomes_to_wire(shard.outcomes),
    }


def shard_from_wire(payload: Any) -> ShardResult:
    """Decode one shard event back into a :class:`ShardResult`."""
    if not isinstance(payload, Mapping):
        raise WireError("shard must be an object")
    check_version(payload)
    return ShardResult(
        shard_index=req_int(payload.get("shard_index"), "shard_index"),
        trial_start=req_int(payload.get("trial_start"), "trial_start"),
        trial_count=req_int(payload.get("trial_count"), "trial_count"),
        outcomes=outcomes_from_wire(payload.get("outcomes")),
        from_cache=bool(payload.get("from_cache")),
    )


def progress_to_wire(progress: JobProgress) -> Dict[str, Any]:
    """Encode a progress snapshot (embedded in status and SSE events)."""
    return {
        "state": progress.state.value,
        "total_shards": progress.total_shards,
        "done_shards": progress.done_shards,
        "total_trials": progress.total_trials,
        "done_trials": progress.done_trials,
        "cached_shards": progress.cached_shards,
        "fraction": progress.fraction,
    }


def plan_to_wire(plan: SimulationPlan) -> Dict[str, Any]:
    """Encode a selector plan (echoed on planned job submissions).

    Same shape as the plans inside the ``/v1/backends`` selector
    section: backend and shard layout.
    """
    return plan.to_payload()


def state_from_wire(value: Any) -> JobState:
    """Decode a job state string."""
    try:
        return JobState(value)
    except ValueError:
        raise WireError(f"unknown job state {value!r}") from None


# -- traces --------------------------------------------------------------


def trace_to_wire(
    job_id: str, trace_id: str, spans: Sequence[Mapping[str, Any]]
) -> Dict[str, Any]:
    """Encode one job's recorded trace (``GET /v1/jobs/{id}/trace``).

    ``spans`` are the raw :meth:`repro.obs.trace.Span.to_payload`
    dicts; they pass through verbatim so the client can rebuild
    :class:`~repro.obs.trace.Span` objects and merge them with locally
    recorded spans of the same trace.
    """
    return {
        "wire": WIRE_VERSION,
        "job_id": job_id,
        "trace_id": trace_id,
        "spans": [dict(span) for span in spans],
    }


def trace_from_wire(payload: Any) -> Tuple[str, list]:
    """Decode a trace payload to ``(trace_id, span payload dicts)``."""
    if not isinstance(payload, Mapping):
        raise WireError("trace must be an object")
    check_version(payload)
    trace_id = payload.get("trace_id")
    if not isinstance(trace_id, str) or not trace_id:
        raise WireError("trace.trace_id must be a non-empty string")
    spans = payload.get("spans")
    if not isinstance(spans, Sequence):
        raise WireError("trace.spans must be an array")
    for span in spans:
        if not isinstance(span, Mapping):
            raise WireError("trace.spans entries must be objects")
    return trace_id, [dict(span) for span in spans]
