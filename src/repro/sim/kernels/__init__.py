"""Kernel core for the ``batched`` simulation backend.

The package splits the whole-batch simulation into two halves:

* :mod:`repro.sim.kernels.xp` — the *array-namespace shim*: a minimal,
  closed op surface (:class:`~repro.sim.kernels.xp.ArrayNamespace`)
  bound to NumPy;
* :mod:`repro.sim.kernels.core` — the six per-family kernels
  (lshape, uniform, doubly-uniform, random-walk, feinerman, and the
  sortie hit test they share), written once against the shim.

The ``batched`` backend binds :func:`~repro.sim.kernels.xp.numpy_namespace`
and funnels every request through
:func:`~repro.sim.kernels.core.run_family`.
"""

from repro.sim.kernels.core import (
    SENTINEL,
    batch_doubly_uniform,
    batch_feinerman,
    batch_lshape,
    batch_random_walk,
    batch_uniform,
    run_family,
    stop_probability_for,
)
from repro.sim.kernels.xp import (
    ArrayNamespace,
    KernelRNG,
    numpy_namespace,
)

__all__ = [
    "SENTINEL",
    "ArrayNamespace",
    "KernelRNG",
    "batch_doubly_uniform",
    "batch_feinerman",
    "batch_lshape",
    "batch_random_walk",
    "batch_uniform",
    "numpy_namespace",
    "run_family",
    "stop_probability_for",
]
