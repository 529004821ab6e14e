"""Device-portable kernel core for the batched simulation backends.

The package splits the whole-batch simulation into two orthogonal
halves:

* :mod:`repro.sim.kernels.xp` — the *array-namespace shim*: a minimal,
  closed op surface (:class:`~repro.sim.kernels.xp.ArrayNamespace`)
  with NumPy (default), torch (CPU/CUDA) and CuPy bindings, plus the
  device-resolution logic the ``accelerator`` backend gates on;
* :mod:`repro.sim.kernels.core` — the six per-family kernels
  (lshape, uniform, doubly-uniform, random-walk, feinerman, and the
  sortie hit test they share), written once against the shim.

The ``batched`` backend binds the NumPy namespace; the ``accelerator``
backend binds whatever :func:`~repro.sim.kernels.xp.resolve_accelerator`
finds.  Both funnel through :func:`~repro.sim.kernels.core.run_family`.
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
    accelerator_unavailable_reason,
    available_namespace_names,
    cupy_namespace,
    numpy_namespace,
    resolve_accelerator,
    torch_namespace,
)

__all__ = [
    "SENTINEL",
    "ArrayNamespace",
    "KernelRNG",
    "accelerator_unavailable_reason",
    "available_namespace_names",
    "batch_doubly_uniform",
    "batch_feinerman",
    "batch_lshape",
    "batch_random_walk",
    "batch_uniform",
    "cupy_namespace",
    "numpy_namespace",
    "resolve_accelerator",
    "run_family",
    "stop_probability_for",
    "torch_namespace",
]
