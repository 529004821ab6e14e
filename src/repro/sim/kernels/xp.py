"""Array-namespace shim: the closed op surface the batch kernels use.

The batched kernels (:mod:`repro.sim.kernels.core`) are pure
gather/scatter/geometric-sampling code written against ~two dozen
named array operations.  This module pins that spelling down as
:class:`ArrayNamespace`: a minimal, explicit surface (creation,
elementwise math, reductions, fancy indexing, scatter reductions, RNG)
bound to **NumPy**.  Every call forwards to the exact NumPy function or
``np.random.Generator`` method the pre-extraction kernels used, so
request-level determinism is preserved bit-for-bit.

Scalar-distribution contracts:

* ``integers(low, high)`` — uniform on ``[low, high)``; ``low``/``high``
  may be arrays (the Feinerman kernel draws per-pair center boxes);
* ``geometric(p)`` — support ``{1, 2, ...}`` with pmf
  ``(1-p)^(k-1) p``, matching ``np.random.Generator.geometric``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ArrayNamespace",
    "KernelRNG",
    "numpy_namespace",
]


class KernelRNG:
    """Transparent wrapper: byte-identical streams to the raw Generator."""

    def __init__(self, generator: np.random.Generator) -> None:
        self.generator = generator

    def integers(self, low, high, size=None, dtype=None):
        """Uniform integers on ``[low, high)``; bounds may be arrays.

        ``dtype`` narrows the output width — the random-walk kernel
        draws its 2-bit step choices as uint8, quartering the draw
        bandwidth.  ``None`` keeps the historical int64 output.
        """
        if dtype is None:
            return self.generator.integers(low, high, size=size)
        return self.generator.integers(low, high, size=size, dtype=dtype)

    def geometric(self, p, size=None):
        """Geometric on ``{1, 2, ...}``; ``p`` may be an array."""
        return self.generator.geometric(p, size=size)

    def random(self, size=None, dtype=None, out=None):
        """Uniform draws on ``[0, 1)``; float64 unless ``dtype`` narrows.

        The raw material for inverse-CDF sampling in kernel code: one
        bulk uniform fill plus vectorized transforms beats a
        per-element distribution sampler when ``p`` varies per row
        (NumPy's array-``p`` ``Generator.geometric`` walks elements in
        a C loop; the blocked kernels draw millions per call).  A
        float32 ``dtype`` halves the fill-and-transform bandwidth at
        24-bit granularity — plenty for distribution gates.  ``out`` (a
        contiguous array of that dtype, ``size`` left None) is filled in
        place and returned: the blocked kernels reuse one workspace
        across draws, with the same stream as a ``size=out.shape`` draw.
        """
        if dtype is None:
            return self.generator.random(size=size, out=out)
        return self.generator.random(size=size, dtype=dtype, out=out)


class ArrayNamespace:
    """The minimal array surface the kernels are written against.

    Every method is a thin forwarding wrapper over NumPy — the point is
    a *named, closed* op set the kernels cannot step outside of.
    """

    #: Library name, recorded on kernel spans.
    name = "numpy"

    # Dtype handles.
    int8 = np.int8
    int16 = np.int16
    int64 = np.int64
    uint8 = np.uint8
    float32 = np.float32
    float64 = np.float64
    bool_ = np.bool_

    # -- creation ----------------------------------------------------
    def asarray(self, obj, dtype=None):
        return np.asarray(obj, dtype=dtype)

    def zeros(self, shape, dtype=None):
        return np.zeros(shape, dtype=dtype)

    def full(self, shape, fill, dtype=None):
        return np.full(shape, fill, dtype=dtype)

    def arange(self, n, dtype=None):
        return np.arange(n, dtype=dtype)

    # -- elementwise -------------------------------------------------
    def where(self, cond, a, b):
        return np.where(cond, a, b)

    def minimum(self, a, b):
        return np.minimum(a, b)

    def maximum(self, a, b):
        return np.maximum(a, b)

    def abs(self, a):
        return np.abs(a)

    def exp2(self, a):
        return np.exp2(a)

    def ceil(self, a):
        return np.ceil(a)

    def floor(self, a, out=None):
        """Elementwise floor; ``out`` receives it in place."""
        return np.floor(a, out=out)

    def log1p(self, a, out=None):
        """Elementwise ``log(1 + a)``; ``out`` receives it in place."""
        return np.log1p(a, out=out)

    def astype(self, a, dtype):
        return np.asarray(a).astype(dtype)

    # -- reductions / scans ------------------------------------------
    def any(self, a) -> bool:
        return bool(np.any(a))

    def sum(self, a, axis=None):
        return np.sum(a, axis=axis)

    def max(self, a):
        """Largest element of a (nonempty) array, as a 0-d scalar."""
        return np.max(a)

    def cumsum(self, a, axis, dtype=None):
        """Prefix sum along ``axis``; ``dtype`` widens (or narrows) the
        accumulator — the walk kernel sums int8 steps into int16."""
        return np.cumsum(a, axis=axis, dtype=dtype)

    def row_sums(self, a):
        """Per-row sums of a 2-D float array, in the array's dtype.

        Callers must only rely on sums that no summation order can
        round differently (the sortie kernels' nonnegative integer legs
        below the dtype's exact ceiling).
        """
        # np.sum(axis=1) pays a per-row reduction setup, which dominates
        # on the sortie kernels' short rows (2-40 rounds per block);
        # einsum's contiguous sum kernel does not.
        return np.einsum("ij->i", a)

    def first_true(self, mask, axis):
        """Index of the first ``True`` along ``axis`` (0 where none)."""
        return np.argmax(mask, axis=axis)

    def flatnonzero(self, mask):
        """Ascending flat (row-major) indices of the ``True`` entries."""
        return np.flatnonzero(mask)

    def size(self, a) -> int:
        return int(a.size)

    # -- gather / scatter --------------------------------------------
    def take(self, a, idx):
        return a[idx]

    def take_along(self, a, idx):
        """Per-row gather: ``a[i, idx[i]]`` for 2-D ``a``, 1-D ``idx``."""
        return np.take_along_axis(a, idx[:, None], axis=1)[:, 0]

    def scatter_min(self, target, idx, values) -> None:
        """In-place ``target[idx] = min(target[idx], values)`` with duplicates."""
        np.minimum.at(target, idx, values)

    def scatter_max(self, target, idx, values) -> None:
        np.maximum.at(target, idx, values)

    def scatter_add(self, target, idx, values) -> None:
        np.add.at(target, idx, values)

    def bincount(self, idx, minlength):
        return np.bincount(idx, minlength=minlength)

    # -- boundary ----------------------------------------------------
    def to_numpy(self, a) -> np.ndarray:
        return np.asarray(a)

    def rng(self, seed_sequence: np.random.SeedSequence) -> KernelRNG:
        # Exactly the generator the pre-extraction backend built, so
        # the namespace keeps its historical streams.
        return KernelRNG(np.random.default_rng(seed_sequence))


_NAMESPACE = ArrayNamespace()


def numpy_namespace() -> ArrayNamespace:
    """The kernels' (shared, stateless) namespace instance."""
    return _NAMESPACE
