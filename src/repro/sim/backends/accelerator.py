"""The ``accelerator`` backend: the batch kernels on a GPU array library.

Same kernels, different namespace: this backend runs the exact code of
the ``batched`` backend (:func:`repro.sim.kernels.run_family`) bound to
whatever device-backed :class:`~repro.sim.kernels.xp.ArrayNamespace`
the host offers — CuPy or torch-CUDA, probed once by
:func:`~repro.sim.kernels.xp.resolve_accelerator`.

Gating is the whole story:

* ``supports()`` declines every request when no device namespace is
  bound, so ``auto`` resolution falls back to ``batched`` cleanly on a
  CPU-only host — no ImportError, no half-configured backend;
  :meth:`support_reason` says *why* ("no device ...") for the CLI's
  ``backends`` table and the server's ``/v1/backends`` payload.
* ``auto_priority()`` outranks ``batched`` (40 vs 30) **only when the
  bound namespace is actually device-backed**.  Binding torch-CPU via
  ``REPRO_ANTS_ACCELERATOR=torch-cpu`` (how CI runs the parity suite
  without a GPU) keeps the priority below every CPU backend — the
  tuned NumPy path stays the auto pick, but explicit
  ``backend="accelerator"`` requests still execute end-to-end.

Like ``batched``, outcomes are equal in distribution to the reference
engine and deterministic per request *per namespace*; the device stream
differs from the NumPy stream, so cache keys include the backend name.

The static planner (:mod:`repro.sim.selector`) treats this backend
specially when planning shard layouts: device state is process-local,
so plans that choose the accelerator always pin a single shard on the
driver process (``device`` carries :meth:`device_description`) instead
of splitting trials across pool workers.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.resilience.faults import maybe_inject
from repro.sim.backends.base import SimulationBackend, SimulationRequest
from repro.sim.backends.batched import KernelBackendMixin
from repro.sim.kernels.xp import (
    ArrayNamespace,
    accelerator_unavailable_reason,
    resolve_accelerator,
)
from repro.sim.metrics import OutcomeBatch


class AcceleratorBackend(KernelBackendMixin, SimulationBackend):
    """Whole-batch vectorized simulation on a device array namespace."""

    name = "accelerator"

    def namespace(self) -> Optional[ArrayNamespace]:
        return resolve_accelerator()

    def run(
        self,
        request: SimulationRequest,
        trial_indices: Optional[Sequence[int]] = None,
    ) -> OutcomeBatch:
        # The device is probed on every execution — the seam where the
        # chaos harness simulates a device disappearing mid-job (a real
        # loss would surface from the array library at the same point).
        # A DeviceLostError here triggers the job layer's degradation
        # ladder onto the next supporting backend.
        maybe_inject("accelerator.probe")
        return super().run(request, trial_indices=trial_indices)

    def support_reason(self, request: SimulationRequest) -> Optional[str]:
        if self.namespace() is None:
            return accelerator_unavailable_reason() or "no device"
        return self._kernel_support_reason(request)

    def auto_priority(self, request: SimulationRequest) -> int:
        namespace = self.namespace()
        if namespace is None or not namespace.is_device_backed():
            # Host-only binding (torch-cpu override): stay selectable
            # explicitly, never shadow the tuned NumPy batch path.
            return 1
        return 40 if request.n_trials > 1 else 4

    def cache_name(self) -> str:
        # The outcome stream depends on the bound namespace/device
        # (numpy, torch-cpu, torch-cuda and cupy all draw differently),
        # so the cache identity carries the binding: flipping
        # REPRO_ANTS_ACCELERATOR or gaining a GPU can never replay a
        # previous binding's cached stream.
        namespace = self.namespace()
        if namespace is None:  # unservable anyway; keep the key stable
            return f"{self.name}:unbound"
        return f"{self.name}:{namespace.name}:{namespace.device}"

    def device_description(self) -> str:
        """Human-readable binding summary for CLI/server introspection."""
        namespace = self.namespace()
        if namespace is None:
            return accelerator_unavailable_reason() or "unbound"
        return f"{namespace.name}:{namespace.device}"
