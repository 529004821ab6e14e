"""Array-namespace shim: one kernel source, NumPy / torch / CuPy bindings.

The batched kernels (:mod:`repro.sim.kernels.core`) are pure
gather/scatter/geometric-sampling code — nothing in them is NumPy-
specific except the spelling of ~two dozen array operations.  This
module pins that spelling down as :class:`ArrayNamespace`: a minimal,
explicit surface (creation, elementwise math, reductions, fancy
indexing, scatter reductions, RNG) that binds to

* **NumPy** — always available, the default and the determinism
  anchor: the NumPy binding forwards every call to the exact
  ``np.random.Generator`` methods the pre-extraction kernels used, so
  request-level determinism is preserved bit-for-bit on this namespace;
* **torch** — CPU or CUDA, when importable (``torch_namespace()``);
* **CuPy** — CUDA, when importable (``cupy_namespace()``).

Device resolution for the ``accelerator`` backend lives here too:
:func:`resolve_accelerator` probes CuPy, then torch-CUDA, and returns
``None`` (with a human-readable reason from
:func:`accelerator_unavailable_reason`) when no device-backed namespace
exists.  The ``REPRO_ANTS_ACCELERATOR`` environment variable overrides
the probe — ``torch-cpu`` binds torch without a GPU (how the CI parity
leg exercises the accelerator path end-to-end), ``off`` disables the
backend entirely, ``auto``/unset probes.

Scalar-distribution contracts the bindings must honor:

* ``integers(low, high)`` — uniform on ``[low, high)``; ``low``/``high``
  may be arrays (the Feinerman kernel draws per-pair center boxes);
* ``geometric(p)`` — support ``{1, 2, ...}`` with pmf
  ``(1-p)^(k-1) p``, matching ``np.random.Generator.geometric``; the
  torch binding inverts the CDF from float64 uniforms.
"""

from __future__ import annotations

import os
from typing import Any, Optional, Tuple

import numpy as np

__all__ = [
    "ArrayNamespace",
    "KernelRNG",
    "accelerator_unavailable_reason",
    "available_namespace_names",
    "numpy_namespace",
    "resolve_accelerator",
    "torch_namespace",
    "cupy_namespace",
]

#: Environment override for accelerator binding; see module docstring.
ACCELERATOR_ENV = "REPRO_ANTS_ACCELERATOR"


class KernelRNG:
    """Deterministic draw source bound to one namespace's device."""

    def integers(self, low, high, size=None, dtype=None):
        """Uniform integers on ``[low, high)``; bounds may be arrays.

        ``dtype`` (a namespace dtype handle) narrows the output width —
        the random-walk kernel draws its 2-bit step choices as uint8,
        quartering the draw bandwidth.  ``None`` keeps the binding's
        historical int64 output.
        """
        raise NotImplementedError

    def geometric(self, p, size=None):
        """Geometric on ``{1, 2, ...}``; ``p`` may be an array."""
        raise NotImplementedError

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
        raise NotImplementedError


class ArrayNamespace:
    """The minimal array surface the kernels are written against.

    Subclasses bind one array library (and device).  Every method is a
    thin forwarding wrapper — the point is a *named, closed* op set, so
    porting to a new library is a page of glue, not a kernel rewrite.
    """

    #: Library name: ``numpy``, ``torch``, ``cupy``.
    name: str = "abstract"
    #: Device the arrays live on: ``cpu``, ``cuda``, ``cuda:0``...
    device: str = "cpu"

    # Dtype handles (bound per library).
    int8: Any = None
    int16: Any = None
    int64: Any = None
    uint8: Any = None
    float32: Any = None
    float64: Any = None
    bool_: Any = None

    def is_device_backed(self) -> bool:
        """Whether arrays live on an accelerator device (not host RAM)."""
        return not self.device.startswith("cpu")

    # -- creation ----------------------------------------------------
    def asarray(self, obj, dtype=None):
        raise NotImplementedError

    def zeros(self, shape, dtype=None):
        raise NotImplementedError

    def full(self, shape, fill, dtype=None):
        raise NotImplementedError

    def arange(self, n, dtype=None):
        raise NotImplementedError

    # -- elementwise -------------------------------------------------
    def where(self, cond, a, b):
        raise NotImplementedError

    def minimum(self, a, b):
        raise NotImplementedError

    def maximum(self, a, b):
        raise NotImplementedError

    def abs(self, a):
        raise NotImplementedError

    def exp2(self, a):
        raise NotImplementedError

    def ceil(self, a):
        raise NotImplementedError

    def floor(self, a, out=None):
        """Elementwise floor; ``out`` receives it in place."""
        raise NotImplementedError

    def log1p(self, a, out=None):
        """Elementwise ``log(1 + a)``; ``out`` receives it in place."""
        raise NotImplementedError

    def astype(self, a, dtype):
        raise NotImplementedError

    # -- reductions / scans ------------------------------------------
    def any(self, a) -> bool:
        raise NotImplementedError

    def sum(self, a, axis=None):
        raise NotImplementedError

    def max(self, a):
        """Largest element of a (nonempty) array, as a 0-d scalar."""
        raise NotImplementedError

    def cumsum(self, a, axis, dtype=None):
        """Prefix sum along ``axis``; ``dtype`` widens (or narrows) the
        accumulator — the walk kernel sums int8 steps into int16."""
        raise NotImplementedError

    def row_sums(self, a):
        """Per-row sums of a 2-D float array, in the array's dtype.

        The summation order is the binding's choice: callers must only
        rely on sums that no order can round differently (the sortie
        kernels' nonnegative integer legs below the dtype's exact
        ceiling).
        """
        raise NotImplementedError

    def first_true(self, mask, axis):
        """Index of the first ``True`` along ``axis`` (0 where none)."""
        raise NotImplementedError

    def flatnonzero(self, mask):
        """Ascending flat (row-major) indices of the ``True`` entries."""
        raise NotImplementedError

    def size(self, a) -> int:
        raise NotImplementedError

    # -- gather / scatter --------------------------------------------
    def take(self, a, idx):
        """``a[idx]`` with the index cast the library requires."""
        raise NotImplementedError

    def take_along(self, a, idx):
        """Per-row gather: ``a[i, idx[i]]`` for 2-D ``a``, 1-D ``idx``."""
        raise NotImplementedError

    def scatter_min(self, target, idx, values) -> None:
        """In-place ``target[idx] = min(target[idx], values)`` with duplicates."""
        raise NotImplementedError

    def scatter_max(self, target, idx, values) -> None:
        raise NotImplementedError

    def scatter_add(self, target, idx, values) -> None:
        raise NotImplementedError

    def bincount(self, idx, minlength):
        raise NotImplementedError

    # -- boundary ----------------------------------------------------
    def to_numpy(self, a) -> np.ndarray:
        raise NotImplementedError

    def rng(self, seed_sequence: np.random.SeedSequence) -> KernelRNG:
        """A deterministic generator for this namespace/device."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# NumPy binding — the default, and the request-determinism anchor.
# ---------------------------------------------------------------------------


class _NumpyRNG(KernelRNG):
    """Transparent wrapper: byte-identical streams to the raw Generator."""

    def __init__(self, generator: np.random.Generator) -> None:
        self.generator = generator

    def integers(self, low, high, size=None, dtype=None):
        if dtype is None:
            return self.generator.integers(low, high, size=size)
        return self.generator.integers(low, high, size=size, dtype=dtype)

    def geometric(self, p, size=None):
        return self.generator.geometric(p, size=size)

    def random(self, size=None, dtype=None, out=None):
        if dtype is None:
            return self.generator.random(size=size, out=out)
        return self.generator.random(size=size, dtype=dtype, out=out)


class NumpyNamespace(ArrayNamespace):
    name = "numpy"
    device = "cpu"

    int8 = np.int8
    int16 = np.int16
    int64 = np.int64
    uint8 = np.uint8
    float32 = np.float32
    float64 = np.float64
    bool_ = np.bool_

    def asarray(self, obj, dtype=None):
        return np.asarray(obj, dtype=dtype)

    def zeros(self, shape, dtype=None):
        return np.zeros(shape, dtype=dtype)

    def full(self, shape, fill, dtype=None):
        return np.full(shape, fill, dtype=dtype)

    def arange(self, n, dtype=None):
        return np.arange(n, dtype=dtype)

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
        return np.floor(a, out=out)

    def log1p(self, a, out=None):
        return np.log1p(a, out=out)

    def astype(self, a, dtype):
        return np.asarray(a).astype(dtype)

    def any(self, a) -> bool:
        return bool(np.any(a))

    def sum(self, a, axis=None):
        return np.sum(a, axis=axis)

    def max(self, a):
        return np.max(a)

    def cumsum(self, a, axis, dtype=None):
        return np.cumsum(a, axis=axis, dtype=dtype)

    def row_sums(self, a):
        # np.sum(axis=1) pays a per-row reduction setup, which dominates
        # on the sortie kernels' short rows (2-40 rounds per block);
        # einsum's contiguous sum kernel does not.
        return np.einsum("ij->i", a)

    def first_true(self, mask, axis):
        return np.argmax(mask, axis=axis)

    def flatnonzero(self, mask):
        return np.flatnonzero(mask)

    def size(self, a) -> int:
        return int(a.size)

    def take(self, a, idx):
        return a[idx]

    def take_along(self, a, idx):
        return np.take_along_axis(a, idx[:, None], axis=1)[:, 0]

    def scatter_min(self, target, idx, values) -> None:
        np.minimum.at(target, idx, values)

    def scatter_max(self, target, idx, values) -> None:
        np.maximum.at(target, idx, values)

    def scatter_add(self, target, idx, values) -> None:
        np.add.at(target, idx, values)

    def bincount(self, idx, minlength):
        return np.bincount(idx, minlength=minlength)

    def to_numpy(self, a) -> np.ndarray:
        return np.asarray(a)

    def rng(self, seed_sequence: np.random.SeedSequence) -> KernelRNG:
        # Exactly the generator the pre-extraction backend built, so
        # the default namespace keeps its historical streams.
        return _NumpyRNG(np.random.default_rng(seed_sequence))


# ---------------------------------------------------------------------------
# torch binding — CPU or CUDA.
# ---------------------------------------------------------------------------


class _TorchRNG(KernelRNG):
    def __init__(self, torch_mod, device: str, seed: int) -> None:
        self._torch = torch_mod
        self._device = device
        self._generator = torch_mod.Generator(device=device)
        self._generator.manual_seed(seed)

    def _shape(self, size) -> Tuple[int, ...]:
        if size is None:
            return ()
        return (size,) if isinstance(size, int) else tuple(size)

    def integers(self, low, high, size=None, dtype=None):
        torch = self._torch
        if isinstance(low, int) and isinstance(high, int):
            return torch.randint(
                low, high, self._shape(size) or (1,),
                generator=self._generator, device=self._device,
                dtype=dtype if dtype is not None else torch.int64,
            ).reshape(self._shape(size))
        # Array bounds: scale float64 uniforms into each [low, high)
        # box.  float64 keeps ranges up to ~2^52 exactly representable,
        # far beyond any kernel's center boxes.
        low_t = torch.as_tensor(low, device=self._device, dtype=torch.float64)
        high_t = torch.as_tensor(high, device=self._device, dtype=torch.float64)
        shape = self._shape(size) or tuple(
            torch.broadcast_shapes(low_t.shape, high_t.shape)
        )
        u = torch.rand(
            shape, generator=self._generator, device=self._device,
            dtype=torch.float64,
        )
        out = (low_t + torch.floor(u * (high_t - low_t))).to(torch.int64)
        return out if dtype is None else out.to(dtype)

    def geometric(self, p, size=None):
        torch = self._torch
        p_t = torch.as_tensor(p, device=self._device, dtype=torch.float64)
        shape = self._shape(size) or tuple(p_t.shape)
        u = torch.rand(
            shape, generator=self._generator, device=self._device,
            dtype=torch.float64,
        )
        # Inverse CDF on {1, 2, ...}: floor(log(1-U)/log(1-p)) + 1;
        # U = 0 maps to 1.  The clamp guards the p -> 0 corner, where
        # log1p(-p) underflows to -0.0 and the division would NaN.
        draws = torch.floor(
            torch.log1p(-u) / torch.log1p(-p_t).clamp(max=-1e-300)
        ) + 1.0
        return draws.to(torch.int64)

    def random(self, size=None, dtype=None, out=None):
        if out is not None:
            return out.uniform_(generator=self._generator)
        return self._torch.rand(
            self._shape(size), generator=self._generator,
            device=self._device,
            dtype=self._torch.float64 if dtype is None else dtype,
        )


class TorchNamespace(ArrayNamespace):
    name = "torch"

    def __init__(self, torch_mod, device: str) -> None:
        self._torch = torch_mod
        self.device = device
        self.int8 = torch_mod.int8
        self.int16 = torch_mod.int16
        self.int64 = torch_mod.int64
        self.uint8 = torch_mod.uint8
        self.float32 = torch_mod.float32
        self.float64 = torch_mod.float64
        self.bool_ = torch_mod.bool

    def asarray(self, obj, dtype=None):
        return self._torch.as_tensor(obj, dtype=dtype, device=self.device)

    def zeros(self, shape, dtype=None):
        return self._torch.zeros(shape, dtype=dtype, device=self.device)

    def full(self, shape, fill, dtype=None):
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        return self._torch.full(shape, fill, dtype=dtype, device=self.device)

    def arange(self, n, dtype=None):
        return self._torch.arange(n, dtype=dtype, device=self.device)

    def where(self, cond, a, b):
        torch = self._torch
        if not torch.is_tensor(a):
            a = torch.as_tensor(a, device=self.device)
        if not torch.is_tensor(b):
            b = torch.as_tensor(b, device=self.device)
        a, b = self._promote(a, b)
        return torch.where(cond, a, b)

    def _promote(self, a, b):
        dtype = self._torch.promote_types(a.dtype, b.dtype)
        return a.to(dtype), b.to(dtype)

    def minimum(self, a, b):
        torch = self._torch
        if not torch.is_tensor(b):
            b = torch.as_tensor(b, device=self.device)
        if not torch.is_tensor(a):
            a = torch.as_tensor(a, device=self.device)
        a, b = self._promote(a, b)
        return torch.minimum(a, b)

    def maximum(self, a, b):
        torch = self._torch
        if not torch.is_tensor(b):
            b = torch.as_tensor(b, device=self.device)
        if not torch.is_tensor(a):
            a = torch.as_tensor(a, device=self.device)
        a, b = self._promote(a, b)
        return torch.maximum(a, b)

    def abs(self, a):
        return self._torch.abs(a)

    def exp2(self, a):
        return self._torch.exp2(a)

    def ceil(self, a):
        return self._torch.ceil(a)

    def floor(self, a, out=None):
        return self._torch.floor(a, out=out)

    def log1p(self, a, out=None):
        return self._torch.log1p(a, out=out)

    def astype(self, a, dtype):
        return a.to(dtype)

    def any(self, a) -> bool:
        return bool(self._torch.any(a).item())

    def sum(self, a, axis=None):
        if axis is None:
            return self._torch.sum(a)
        return self._torch.sum(a, dim=axis)

    def max(self, a):
        return self._torch.max(a)

    def cumsum(self, a, axis, dtype=None):
        return self._torch.cumsum(a, dim=axis, dtype=dtype)

    def row_sums(self, a):
        return self._torch.sum(a, dim=1)

    def first_true(self, mask, axis):
        # torch.argmax does not promise the *first* maximum, so weight
        # positions in descending order: the first True gets the
        # largest weight.  Rows without a True return 0, which callers
        # mask with an any() check.
        length = mask.shape[axis]
        weights = self._torch.arange(
            length, 0, -1, device=self.device, dtype=self._torch.int64
        )
        return self._torch.argmax(mask.to(self._torch.int64) * weights, dim=axis)

    def flatnonzero(self, mask):
        return self._torch.nonzero(mask.reshape(-1), as_tuple=True)[0]

    def size(self, a) -> int:
        return int(a.numel())

    def take(self, a, idx):
        return a[idx.to(self._torch.int64)]

    def take_along(self, a, idx):
        return self._torch.gather(
            a, 1, idx.to(self._torch.int64)[:, None]
        )[:, 0]

    def scatter_min(self, target, idx, values) -> None:
        target.scatter_reduce_(
            0, idx.to(self._torch.int64), values.to(target.dtype),
            reduce="amin", include_self=True,
        )

    def scatter_max(self, target, idx, values) -> None:
        target.scatter_reduce_(
            0, idx.to(self._torch.int64), values.to(target.dtype),
            reduce="amax", include_self=True,
        )

    def scatter_add(self, target, idx, values) -> None:
        target.index_add_(
            0, idx.to(self._torch.int64), values.to(target.dtype)
        )

    def bincount(self, idx, minlength):
        return self._torch.bincount(
            idx.to(self._torch.int64), minlength=minlength
        )

    def to_numpy(self, a) -> np.ndarray:
        return a.detach().cpu().numpy()

    def rng(self, seed_sequence: np.random.SeedSequence) -> KernelRNG:
        # Squash the SeedSequence into torch's int64 seed domain; the
        # derivation is deterministic per request, so request-level
        # determinism holds on this namespace too (with its own stream).
        seed = int(seed_sequence.generate_state(1, np.uint64)[0] >> 1)
        return _TorchRNG(self._torch, self.device, seed)


# ---------------------------------------------------------------------------
# CuPy binding — CUDA only, NumPy-compatible API plus cupyx scatters.
# ---------------------------------------------------------------------------


class _CupyRNG(KernelRNG):
    def __init__(self, cupy_mod, seed: int) -> None:
        self._cupy = cupy_mod
        self.generator = cupy_mod.random.default_rng(seed)

    def integers(self, low, high, size=None, dtype=None):
        if isinstance(low, int) and isinstance(high, int):
            if dtype is None:
                return self.generator.integers(low, high, size=size)
            return self.generator.integers(low, high, size=size, dtype=dtype)
        # CuPy's Generator.integers only takes scalar bounds; scale
        # float64 uniforms into the per-element [low, high) boxes (the
        # Feinerman kernel's center draws), as the torch binding does.
        cupy = self._cupy
        low_a = cupy.asarray(low, dtype=cupy.float64)
        high_a = cupy.asarray(high, dtype=cupy.float64)
        shape = (
            cupy.broadcast(low_a, high_a).shape if size is None else size
        )
        u = self.generator.random(size=shape, dtype=cupy.float64)
        out = (low_a + cupy.floor(u * (high_a - low_a))).astype(cupy.int64)
        return out if dtype is None else out.astype(dtype)

    def geometric(self, p, size=None):
        # CuPy's Generator lacks geometric(); invert the CDF from
        # float64 uniforms (same scheme as the torch binding).
        import cupy

        p_arr = cupy.asarray(p, dtype=cupy.float64)
        shape = p_arr.shape if size is None else size
        u = self.generator.random(size=shape, dtype=cupy.float64)
        return (
            cupy.floor(cupy.log1p(-u) / cupy.log1p(-p_arr)) + 1.0
        ).astype(cupy.int64)

    def random(self, size=None, dtype=None, out=None):
        return self.generator.random(
            size=size,
            dtype=self._cupy.float64 if dtype is None else dtype,
            out=out,
        )


class CupyNamespace(NumpyNamespace):
    """CuPy rides the NumPy surface; only the deviations are overridden."""

    name = "cupy"

    def __init__(self, cupy_mod, device: str = "cuda") -> None:
        self._cupy = cupy_mod
        self.device = device
        self.int8 = cupy_mod.int8
        self.int16 = cupy_mod.int16
        self.int64 = cupy_mod.int64
        self.uint8 = cupy_mod.uint8
        self.float32 = cupy_mod.float32
        self.float64 = cupy_mod.float64
        self.bool_ = cupy_mod.bool_

    def asarray(self, obj, dtype=None):
        return self._cupy.asarray(obj, dtype=dtype)

    def zeros(self, shape, dtype=None):
        return self._cupy.zeros(shape, dtype=dtype)

    def full(self, shape, fill, dtype=None):
        return self._cupy.full(shape, fill, dtype=dtype)

    def arange(self, n, dtype=None):
        return self._cupy.arange(n, dtype=dtype)

    def where(self, cond, a, b):
        return self._cupy.where(cond, a, b)

    def minimum(self, a, b):
        return self._cupy.minimum(a, b)

    def maximum(self, a, b):
        return self._cupy.maximum(a, b)

    def abs(self, a):
        return self._cupy.abs(a)

    def exp2(self, a):
        return self._cupy.exp2(a)

    def ceil(self, a):
        return self._cupy.ceil(a)

    def floor(self, a, out=None):
        return self._cupy.floor(a, out=out)

    def log1p(self, a, out=None):
        return self._cupy.log1p(a, out=out)

    def astype(self, a, dtype):
        return a.astype(dtype)

    def any(self, a) -> bool:
        return bool(self._cupy.any(a))

    def sum(self, a, axis=None):
        return self._cupy.sum(a, axis=axis)

    def max(self, a):
        return self._cupy.max(a)

    def cumsum(self, a, axis, dtype=None):
        return self._cupy.cumsum(a, axis=axis, dtype=dtype)

    def row_sums(self, a):
        return self._cupy.sum(a, axis=1)

    def first_true(self, mask, axis):
        return self._cupy.argmax(mask, axis=axis)

    def flatnonzero(self, mask):
        return self._cupy.flatnonzero(mask)

    def scatter_min(self, target, idx, values) -> None:
        import cupyx

        cupyx.scatter_min(target, idx, values)

    def scatter_max(self, target, idx, values) -> None:
        import cupyx

        cupyx.scatter_max(target, idx, values)

    def scatter_add(self, target, idx, values) -> None:
        import cupyx

        cupyx.scatter_add(target, idx, values)

    def bincount(self, idx, minlength):
        return self._cupy.bincount(idx, minlength=minlength)

    def take_along(self, a, idx):
        return self._cupy.take_along_axis(a, idx[:, None], axis=1)[:, 0]

    def to_numpy(self, a) -> np.ndarray:
        return self._cupy.asnumpy(a)

    def rng(self, seed_sequence: np.random.SeedSequence) -> KernelRNG:
        seed = int(seed_sequence.generate_state(1, np.uint64)[0] >> 1)
        return _CupyRNG(self._cupy, seed)


# ---------------------------------------------------------------------------
# Binding / resolution.
# ---------------------------------------------------------------------------

_NUMPY_NAMESPACE: Optional[NumpyNamespace] = None
#: ``(resolved?, namespace-or-None, reason-or-None)`` memo for the probe.
_ACCELERATOR_CACHE: Optional[Tuple[Optional[ArrayNamespace], Optional[str]]] = None


def numpy_namespace() -> NumpyNamespace:
    """The default (and always-available) binding."""
    global _NUMPY_NAMESPACE
    if _NUMPY_NAMESPACE is None:
        _NUMPY_NAMESPACE = NumpyNamespace()
    return _NUMPY_NAMESPACE


def torch_namespace(device: str = "cpu") -> Optional[TorchNamespace]:
    """Bind torch on ``device``, or None when torch is unimportable
    (or the device is absent)."""
    try:
        import torch
    except ImportError:
        return None
    if device.startswith("cuda") and not torch.cuda.is_available():
        return None
    return TorchNamespace(torch, device)


def cupy_namespace() -> Optional[CupyNamespace]:
    """Bind CuPy (CUDA), or None when unimportable or device-less."""
    try:
        import cupy

        if cupy.cuda.runtime.getDeviceCount() < 1:
            return None
    except Exception:
        # ImportError, or a CUDA runtime error from a GPU-less host.
        return None
    return CupyNamespace(cupy)


def available_namespace_names() -> Tuple[str, ...]:
    """Importable bindings (not necessarily device-backed), for reports."""
    names = ["numpy"]
    try:
        import torch  # noqa: F401

        names.append("torch")
    except ImportError:
        pass
    try:
        import cupy  # noqa: F401

        names.append("cupy")
    except ImportError:
        pass
    return tuple(names)


def _probe_accelerator() -> Tuple[Optional[ArrayNamespace], Optional[str]]:
    override = os.environ.get(ACCELERATOR_ENV, "").strip().lower()
    if override in ("off", "none", "0", "disabled"):
        return None, f"disabled via {ACCELERATOR_ENV}={override}"
    if override == "torch-cpu":
        ns = torch_namespace("cpu")
        if ns is None:
            return None, (
                f"{ACCELERATOR_ENV}=torch-cpu set but torch is not importable"
            )
        return ns, None
    if override in ("torch", "torch-cuda"):
        ns = torch_namespace("cuda")
        if ns is None:
            return None, (
                f"{ACCELERATOR_ENV}={override} set but no CUDA-capable "
                "torch installation is available"
            )
        return ns, None
    if override == "cupy":
        ns = cupy_namespace()
        if ns is None:
            return None, (
                f"{ACCELERATOR_ENV}=cupy set but no CUDA-capable CuPy "
                "installation is available"
            )
        return ns, None
    if override not in ("", "auto"):
        return None, f"unrecognized {ACCELERATOR_ENV}={override!r}"
    # Auto-probe: CuPy first (purpose-built for CUDA arrays), then
    # torch-CUDA.  A CPU-only torch install is deliberately NOT a
    # device: the accelerator backend must not shadow the tuned NumPy
    # path without actual hardware behind it.
    ns = cupy_namespace()
    if ns is not None:
        return ns, None
    ns = torch_namespace("cuda")
    if ns is not None:
        return ns, None
    missing = [
        name for name in ("cupy", "torch") if name not in
        available_namespace_names()
    ]
    if missing == ["cupy", "torch"]:
        return None, "no device (neither cupy nor torch is installed)"
    return None, "no device (no CUDA-capable namespace binding found)"


def resolve_accelerator(refresh: bool = False) -> Optional[ArrayNamespace]:
    """The device-backed namespace, or None when the host has none.

    The probe is memoized (importing torch is not free); ``refresh``
    re-probes — tests flip ``REPRO_ANTS_ACCELERATOR`` and re-resolve.
    """
    global _ACCELERATOR_CACHE
    if _ACCELERATOR_CACHE is None or refresh:
        _ACCELERATOR_CACHE = _probe_accelerator()
    return _ACCELERATOR_CACHE[0]


def accelerator_unavailable_reason(refresh: bool = False) -> Optional[str]:
    """Why :func:`resolve_accelerator` returned None (None when bound)."""
    global _ACCELERATOR_CACHE
    if _ACCELERATOR_CACHE is None or refresh:
        _ACCELERATOR_CACHE = _probe_accelerator()
    return _ACCELERATOR_CACHE[1]


def _reset_accelerator_cache() -> None:
    """Test hook: forget the memoized probe result."""
    global _ACCELERATOR_CACHE
    _ACCELERATOR_CACHE = None
