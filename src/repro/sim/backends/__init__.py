"""Pluggable simulation backends behind one request interface.

Two backends register by default:

* ``reference`` — the faithful step-level :class:`~repro.sim.engine.SearchEngine`;
  supports every algorithm, tracks ``M_steps`` and per-agent outcomes.
* ``batched`` — many colonies x many trials in one pass of the shared
  NumPy kernel core (:mod:`repro.sim.kernels`); the high-throughput
  path for trial batches.

See :mod:`repro.sim.service` for the ``simulate()`` facade and
:mod:`repro.sim.backends.registry` for ``auto`` resolution.
"""

from repro.sim.backends.base import (
    AlgorithmSpec,
    BackendError,
    KNOWN_ALGORITHMS,
    SimulationBackend,
    SimulationRequest,
    SimulationResult,
    probe_request,
)
from repro.sim.backends.registry import (
    backend_names,
    get_backend,
    register_backend,
    registered_backends,
    resolve_backend,
)

__all__ = [
    "AlgorithmSpec",
    "BackendError",
    "KNOWN_ALGORITHMS",
    "SimulationBackend",
    "SimulationRequest",
    "SimulationResult",
    "backend_names",
    "get_backend",
    "probe_request",
    "register_backend",
    "registered_backends",
    "resolve_backend",
]
