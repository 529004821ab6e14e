"""Backend registry and ``auto`` resolution.

Backends register under a short name (``reference``, ``batched``).
Callers address them by name or pass ``"auto"`` and let
:func:`resolve_backend` pick the best supporting backend: each backend
reports an
:meth:`~repro.sim.backends.base.SimulationBackend.auto_priority`
for the concrete request, so ``auto`` is ``reference`` when a step
budget is set (p100; only the engine tracks ``M_steps``) and
``batched`` otherwise (p30), with the engine as the fallback for the
families without a batch kernel (p0).  ``repro-ants backends`` prints
these numbers per probed request, along with each backend's decline
reasons.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.errors import InvalidParameterError
from repro.sim.backends.base import BackendError, SimulationBackend, SimulationRequest

_REGISTRY: Dict[str, SimulationBackend] = {}
_DEFAULTS_LOADED = False

AUTO = "auto"


def register_backend(backend: SimulationBackend, replace: bool = False) -> None:
    """Add a backend instance to the registry.

    Registering a custom backend never displaces the built-ins: the
    defaults load lazily but unconditionally on first use.
    """
    if backend.name == AUTO:
        raise InvalidParameterError('"auto" is reserved and not a backend name')
    _ensure_default_backends()
    if backend.name in _REGISTRY and not replace:
        raise InvalidParameterError(f"backend {backend.name!r} already registered")
    _REGISTRY[backend.name] = backend


def get_backend(name: str) -> SimulationBackend:
    """Look a backend up by name."""
    _ensure_default_backends()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise BackendError(f"unknown backend {name!r}; registered: {known}") from None


def registered_backends() -> Dict[str, SimulationBackend]:
    """A snapshot of the registry (name -> backend)."""
    _ensure_default_backends()
    return dict(_REGISTRY)


def backend_names() -> List[str]:
    """Sorted registered backend names."""
    return sorted(registered_backends())


def resolve_backend(request: SimulationRequest, name: str = AUTO) -> SimulationBackend:
    """Pick the backend that will serve ``request``.

    An explicit name must support the request (``BackendError``
    otherwise — silent fallback would undermine equivalence testing).
    ``"auto"`` picks the supporting backend with the highest
    ``auto_priority``, ties broken by name for determinism.
    """
    _ensure_default_backends()
    if name != AUTO:
        backend = get_backend(name)
        if not backend.supports(request):
            reason = backend.support_reason(request)
            detail = f": {reason}" if reason else ""
            raise BackendError(
                f"backend {name!r} does not support algorithm "
                f"{request.algorithm.name!r}{detail} (try backend='auto')"
            )
        return backend
    candidates = [
        backend for backend in _REGISTRY.values() if backend.supports(request)
    ]
    if not candidates:
        raise BackendError(
            f"no registered backend supports algorithm {request.algorithm.name!r}"
        )
    return max(candidates, key=lambda b: (b.auto_priority(request), b.name))


def backends_introspection() -> Dict[str, Any]:
    """The shared backends payload for CLI ``--json`` and ``/v1/backends``.

    One builder so both surfaces ship the identical shape: per backend
    the family coverage map and the decline reason for **every**
    declined family, plus the ``auto`` resolution per family.  Callers
    wrap it with their own envelope (the server adds ``wire``; both add
    the selector section).
    """
    from repro.errors import ReproError
    from repro.sim.backends.base import KNOWN_ALGORITHMS, probe_request

    backends: Dict[str, Any] = {}
    for name, backend in sorted(registered_backends().items()):
        coverage, declines = backend.coverage_and_reasons()
        backends[name] = {
            "algorithms": coverage,
            # Why each declined family is declined — "step_budget set",
            # "no batch kernel", ... — instead of a bare dash.
            "declines": declines,
        }
    auto: Dict[str, Optional[str]] = {}
    for algorithm in KNOWN_ALGORITHMS:
        probe = probe_request(algorithm)
        try:
            auto[algorithm] = resolve_backend(probe).name
        except ReproError:
            auto[algorithm] = None
    return {"backends": backends, "auto_resolution": auto}


def _ensure_default_backends() -> None:
    """Idempotently register the two built-in backends.

    Import-cycle-safe lazy registration: the backend modules import the
    simulators, which import ``repro.sim.metrics``, so registration
    happens on first use rather than at package import.  Guarded by a
    dedicated flag (not registry emptiness) so a custom backend
    registered first cannot suppress the built-ins.
    """
    global _DEFAULTS_LOADED
    if _DEFAULTS_LOADED:
        return
    _DEFAULTS_LOADED = True
    from repro.sim.backends.batched import BatchedBackend
    from repro.sim.backends.reference import ReferenceBackend

    register_backend(ReferenceBackend())
    register_backend(BatchedBackend())
