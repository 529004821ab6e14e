"""Kernel core for the ``batched`` simulation backend.

:mod:`repro.sim.kernels.core` holds the six per-family kernels (lshape,
uniform, doubly-uniform, random-walk, feinerman, and the sortie hit
test they share), written directly against NumPy and an
``np.random.Generator``.

The ``batched`` backend takes the
:func:`~repro.sim.kernels.core.numpy_namespace` handle (its
``rng(seed_sequence)`` builds the batch's generator) and funnels every
request through :func:`~repro.sim.kernels.core.run_family`.
"""

from repro.sim.kernels.core import (
    SENTINEL,
    batch_doubly_uniform,
    batch_feinerman,
    batch_lshape,
    batch_random_walk,
    batch_uniform,
    numpy_namespace,
    run_family,
    stop_probability_for,
)

__all__ = [
    "SENTINEL",
    "batch_doubly_uniform",
    "batch_feinerman",
    "batch_lshape",
    "batch_random_walk",
    "batch_uniform",
    "numpy_namespace",
    "run_family",
    "stop_probability_for",
]
