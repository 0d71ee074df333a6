"""Deterministic dense kernels for clip-shaped tensors.

Feature maps are channel-last (T, H, W, C), row-major with time outermost, so a
reshape to (T*H*W, C) enumerates tokens in T-major order.

Precision rule: a kernel computes in the dtype of its input. Weights are cast
to that dtype (a no-op when the model config is consistent), so an f32 model
runs f32 end to end and an f64 model is the oracle mode that the f32 results
are checked against. `sigmoid` and `softplus` are the exception: they compute
in f64 and round on the way out. They only see head-sized arrays, and an f32
sigmoid would round large logits to exactly 1.0, outside the open interval a
detection score must lie in.

Kernels do not check their outputs. A non-finite value carries through every
later kernel (matmul, conv, the layer-norm mean, the softmax row max,
GELU(-inf) = NaN), so callers run `check_finite` once per boundary instead: the
backbone input, each block output, and each pyramid level's head outputs.

scipy is imported lazily, inside the three functions that call it (f64
`gelu`'s `erf`, and `ndtr`/`ndtri` for the normal inverse CDF in `Rng`), so a
command that calls none of them, such as `stpt eval`, never loads it.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import os
import stat
import struct
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from .errors import ConfigError, InputError, NumericError

DTYPES = {"f32": np.float32, "f64": np.float64}
DTYPE_NAMES = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}

# Output bytes per depth-wise conv3d slab (see conv3d).
DW_SLAB_BYTES = 256 * 1024
# Fewest rows in a block from row_blocks.
ROW_BLOCK_MIN = 64

# Elements per chunk of the f32 GELU (see gelu).
_GELU_CHUNK = 1 << 15
# erf(u) ~ u * P(u**2) / Q(u**2) on [-4, 4] in f32, highest power first; the
# coefficients of Eigen's generic_fast_erf_float.
_ERF_P = tuple(np.float32(c) for c in (
    -2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
    -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
    -1.60960333262415e-02))
_ERF_Q = tuple(np.float32(c) for c in (
    -1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
    -7.37332916720468e-03, -1.42647390514189e-02))


def check_finite(label: str, arr: np.ndarray) -> None:
    """Raise NumericError naming label and the first non-finite index of arr."""
    if not np.isfinite(arr).all():
        bad = np.argwhere(~np.isfinite(arr))[0]
        raise NumericError(f"{label}: non-finite value at index {tuple(int(i) for i in bad)}")


def _as_f64(arr: np.ndarray) -> np.ndarray:
    return arr.astype(np.float64, copy=False)


@dataclasses.dataclass(frozen=True)
class ClipTensor:
    """Dense (T, H, W, C) feature map in f32 or f64.

    Only rank and dtype are checked; finiteness is checked by the caller at
    block and head boundaries (see `check_finite`).
    """

    data: np.ndarray

    def __post_init__(self):
        if self.data.ndim != 4:
            raise ConfigError(f"ClipTensor expects rank 4, got shape {self.data.shape}")
        if self.data.dtype not in (np.float32, np.float64):
            raise ConfigError(f"ClipTensor dtype must be f32 or f64, got {self.data.dtype}")

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape[:3]

    @property
    def channels(self) -> int:
        return self.data.shape[3]

    def tokens(self) -> np.ndarray:
        """(T*H*W, C) token matrix, T-major."""
        return self.data.reshape(-1, self.data.shape[3])


@dataclasses.dataclass(frozen=True)
class LinearWeights:
    """y = x @ weight.T + bias, weight is (out_channels, in_channels)."""

    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[0],):
            raise ConfigError(
                f"LinearWeights shape mismatch: weight {self.weight.shape}, bias {self.bias.shape}"
            )

    @property
    def in_channels(self) -> int:
        return self.weight.shape[1]

    @property
    def out_channels(self) -> int:
        return self.weight.shape[0]


@dataclasses.dataclass(frozen=True)
class Conv3DWeights:
    """Cross-correlation weights, (out_channels, in_channels // groups, kt, kh, kw)."""

    weight: np.ndarray
    bias: np.ndarray
    stride: tuple[int, int, int]
    padding: tuple[int, int, int]
    groups: int = 1

    def __post_init__(self):
        if self.weight.ndim != 5:
            raise ConfigError(f"Conv3DWeights expects rank-5 weight, got {self.weight.shape}")
        if self.bias.shape != (self.weight.shape[0],):
            raise ConfigError("Conv3DWeights bias must match out_channels")
        if self.groups != 1 and not self.depthwise:
            raise ConfigError(
                f"conv groups must be 1 (dense) or in_channels == out_channels (depth-wise), "
                f"got groups {self.groups} for weight {self.weight.shape}"
            )
        if any(s < 1 for s in self.stride) or any(p < 0 for p in self.padding):
            raise ConfigError(f"bad stride {self.stride} or padding {self.padding}")

    @property
    def out_channels(self) -> int:
        return self.weight.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weight.shape[1] * self.groups

    @property
    def kernel(self) -> tuple[int, int, int]:
        return self.weight.shape[2:5]

    @property
    def depthwise(self) -> bool:
        """One input channel per group and one output channel per input channel."""
        return self.weight.shape[1] == 1 and self.groups == self.weight.shape[0]


def conv_output_extent(n: int, k: int, s: int, p: int) -> int:
    out = (n + 2 * p - k) // s + 1
    if out < 1:
        raise ConfigError(f"conv extent {n} with kernel {k}, stride {s}, padding {p} collapses to {out}")
    return out


def linear(x: np.ndarray, w: LinearWeights) -> np.ndarray:
    if x.shape[-1] != w.in_channels:
        raise ConfigError(f"linear: input has {x.shape[-1]} channels, weights expect {w.in_channels}")
    y = x @ w.weight.astype(x.dtype, copy=False).T
    y += w.bias.astype(x.dtype, copy=False)
    return y


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Normalize the channel (last) axis per token."""
    mean = x.mean(axis=-1, keepdims=True)
    # An f32 token of about 2e19 overflows the square inside var; an infinite
    # variance would normalise it to exactly 0, so make it NaN for check_finite,
    # which reports it. numpy's overflow warning would only repeat that report.
    with np.errstate(over="ignore"):
        var = x.var(axis=-1, keepdims=True)
    var[np.isinf(var)] = np.nan
    y = x - mean
    y /= np.sqrt(var + eps)
    y *= gamma.astype(x.dtype, copy=False)
    y += beta.astype(x.dtype, copy=False)
    return y


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact erf form: x * (0.5 * (1 + erf(x / sqrt(2)))), on one output buffer.

    The factor is halved before x multiplies it, which is exact, so a finite x
    never overflows on the way to GELU(x), whose magnitude is at most |x|.

    f64 input takes erf from scipy: f64 is the oracle mode. scipy's f32 erf
    computes in f64 and is no faster, so f32 input evaluates erf in f32 as
    u * P(u**2) / Q(u**2) with u = x / sqrt(2) clamped to [-4, 4], each
    polynomial by Horner's rule (coefficients of Eigen's
    `generic_fast_erf_float`). The GELU error against the f64 formula is at
    most 2.9e-7 * max(1, |x|) on a dense grid over [-12, 12] (the tests allow
    5e-7); x <= -4 * sqrt(2) gives exactly -0.0, and NaN and +-inf behave as
    with scipy's erf. Only clamp, multiply, add and divide on
    f32 arrays are used, each correctly rounded, so the bytes are the same on
    every platform. The work runs over _GELU_CHUNK-element chunks of the
    flattened input with three reused scratch buffers, written straight into
    one C-contiguous output.
    """
    if x.dtype != np.float32:
        from scipy import special

        y = np.divide(x, math.sqrt(2.0), out=np.empty_like(x))
        special.erf(y, out=y)
        y += 1.0
        y *= 0.5
        y *= x
        return y

    out = np.empty(x.shape, dtype=np.float32)
    dst = out.reshape(-1)
    if x.flags.c_contiguous:
        src = x.reshape(-1)
    else:
        np.copyto(out, x)  # each chunk reads its inputs before writing its outputs
        src = dst
    n = dst.size
    m = min(n, _GELU_CHUNK)
    u, t, p = np.empty(m, np.float32), np.empty(m, np.float32), np.empty(m, np.float32)
    for s in range(0, n, _GELU_CHUNK):
        k = min(_GELU_CHUNK, n - s)
        xk, uk, tk, pk = src[s:s + k], u[:k], t[:k], p[:k]
        np.divide(xk, math.sqrt(2.0), out=uk)
        np.clip(uk, -4.0, 4.0, out=uk)
        np.multiply(uk, uk, out=tk)
        _horner(tk, _ERF_P, out=pk)
        pk *= uk
        pk /= _horner(tk, _ERF_Q, out=uk)  # u is spent; Q(u**2) takes its buffer
        pk += 1.0
        pk *= 0.5
        np.multiply(pk, xk, out=dst[s:s + k])
    return out


def _horner(t: np.ndarray, coeffs: tuple, out: np.ndarray) -> np.ndarray:
    """coeffs[0] * t**d + ... + coeffs[-1] into out, highest power first."""
    np.multiply(t, coeffs[0], out=out)
    for c in coeffs[1:-1]:
        out += c
        out *= t
    out += coeffs[-1]
    return out


def softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + exp(x)) as max(x, 0) + log1p(exp(-|x|)), stable for large |x|."""
    xf = _as_f64(x)
    y = np.maximum(xf, 0.0) + np.log1p(np.exp(-np.abs(xf)))
    return y.astype(x.dtype)


def sigmoid(x: np.ndarray) -> np.ndarray:
    xf = _as_f64(x)
    z = np.exp(-np.abs(xf))  # single exponential, never overflows
    y = np.where(xf >= 0, 1.0 / (1.0 + z), z / (1.0 + z))
    return y.astype(x.dtype)


def softmax(scores: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """Softmax over the last axis with max subtraction.

    mask, if given, is broadcastable to scores with True marking valid entries;
    invalid entries get zero weight (exp(-inf) is exactly 0). A row with no
    valid entry is an error.
    """
    s = scores
    if mask is not None:
        if not np.broadcast_shapes(mask.shape, s.shape) == s.shape:
            raise ConfigError(f"softmax mask shape {mask.shape} does not broadcast to {s.shape}")
        valid = np.broadcast_to(mask, s.shape)
        if not valid.any(axis=-1).all():
            raise ConfigError("softmax: a row has no valid entries")
        s = np.where(valid, s, -np.inf)
    e = s - s.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def row_blocks(n: int, row_bytes: int, budget: int) -> Iterator[tuple[int, int]]:
    """(start, stop) pairs that split n rows of row_bytes each into blocks of about budget bytes.

    Every block has at least ROW_BLOCK_MIN rows, even past the budget, and a
    tail shorter than that joins the block before it; rows that fit the budget
    give exactly one block. Callers run a row-local computation block by block
    into one output, and rely on BLAS giving every row of a GEMM the same bits
    whatever the row count. On OpenBLAS 0.3.31 that holds only from 16 rows up:
    a 1-row product goes to gemv, and products of fewer than 16 rows differ at
    K=384, N=96. The floor keeps every block well above that.
    """
    rows = max(ROW_BLOCK_MIN, budget // row_bytes)
    start = 0
    while n - start - rows >= ROW_BLOCK_MIN:
        yield start, start + rows
        start += rows
    yield start, n


def conv3d(x: ClipTensor, w: Conv3DWeights) -> ClipTensor:
    """Strided 3D cross-correlation with zero padding, dense or depth-wise.

    Implemented as a sum over kernel taps of strided slices of the padded map,
    so no im2col buffer is materialized. A dense tap is one matmul over the
    whole map. Depth-wise taps run over output-time slabs of at most
    DW_SLAB_BYTES of output (one frame at least): per slab, each tap is
    multiplied into one reused product buffer and accumulated in place, so a
    slab's output and products stay in cache across all taps. Every output
    element is still the bias plus the taps' products added in tap order, so
    the slab size does not change a single bit.
    """
    t, h, wd = x.dims
    c = x.channels
    if c != w.in_channels:
        raise ConfigError(f"conv3d: input has {c} channels, weights expect {w.in_channels}")
    kt, kh, kw = w.kernel
    st, sh, sw = w.stride
    pt, ph, pw = w.padding
    to = conv_output_extent(t, kt, st, pt)
    ho = conv_output_extent(h, kh, sh, ph)
    wo = conv_output_extent(wd, kw, sw, pw)

    dtype = x.data.dtype
    xp = x.data
    if pt or ph or pw:
        xp = np.zeros((t + 2 * pt, h + 2 * ph, wd + 2 * pw, c), dtype=dtype)
        xp[pt:pt + t, ph:ph + h, pw:pw + wd, :] = x.data
    cout = w.out_channels
    out = np.zeros((to, ho, wo, cout), dtype=dtype)
    bias = w.bias.astype(dtype, copy=False)
    wf = w.weight.astype(dtype, copy=False)
    if w.groups == 1:
        out += bias
        for it in range(kt):
            for ih in range(kh):
                for iw in range(kw):
                    sl = xp[it:it + st * to:st, ih:ih + sh * ho:sh, iw:iw + sw * wo:sw, :]
                    out += (sl.reshape(-1, c) @ wf[:, :, it, ih, iw].T).reshape(to, ho, wo, cout)
        return ClipTensor(out)

    taps = np.ascontiguousarray(np.moveaxis(wf[:, 0], 0, -1))  # (kt, kh, kw, c)
    frames = max(1, DW_SLAB_BYTES // (ho * wo * cout * out.itemsize))
    prod = np.empty((min(frames, to), ho, wo, cout), dtype=dtype)
    for a in range(0, to, frames):
        b = min(a + frames, to)
        o, p = out[a:b], prod[:b - a]
        o += bias
        for it in range(kt):
            t0 = it + st * a
            for ih in range(kh):
                for iw in range(kw):
                    sl = xp[t0:t0 + st * (b - a):st, ih:ih + sh * ho:sh, iw:iw + sw * wo:sw, :]
                    np.multiply(sl, taps[it, ih, iw], out=p)
                    o += p
    return ClipTensor(out)


def finite_diff_grad(f: Callable[[np.ndarray], float], x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central differences, one coordinate at a time, in f64."""
    x = _as_f64(x).copy()
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        fp = float(f(x))
        x[idx] = orig - h
        fm = float(f(x))
        x[idx] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericError(f"finite_diff_grad: non-finite objective at index {idx}")
        grad[idx] = (fp - fm) / (2.0 * h)
        it.iternext()
    return grad


def gradcheck(
    f: Callable[[np.ndarray], float],
    grad_f: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    h: float = 1e-5,
) -> float:
    """Max-norm relative error between analytic and central-difference gradients."""
    ga = _as_f64(grad_f(x))
    gn = finite_diff_grad(f, x, h=h)
    denom = max(np.abs(ga).max(), np.abs(gn).max(), 1e-8)
    return float(np.abs(ga - gn).max() / denom)


# Tabulated inverse CDF of the standard normal truncated to [-2, 2] (see Rng).
_TN_STEPS = 1 << 16
_TN_CHUNK = 1 << 14


@functools.cache
def _truncated_normal_table() -> tuple[np.ndarray, np.ndarray]:
    """(grid[:-1], diff(grid)), grid = ndtri at 2**16 + 1 even steps over [ndtr(-2), ndtr(2)]."""
    from scipy import special

    lo, hi = special.ndtr(-2.0), special.ndtr(2.0)
    grid = special.ndtri(lo + (hi - lo) * (np.arange(_TN_STEPS + 1) / _TN_STEPS))
    grid[0], grid[-1] = -2.0, 2.0  # ndtri(ndtr(+-2)) misses +-2 by an ulp
    table = grid[:-1].copy(), np.diff(grid)
    for arr in table:
        arr.flags.writeable = False  # shared by every Rng in the process
    return table


class Rng:
    """Seed-deterministic splittable randomness.

    Built on the Philox counter-based bit generator; identical seeds produce
    identical sequences on every platform. Child streams are derived by hashing
    a string label into SeedSequence spawn keys, so the tree of streams depends
    only on (seed, labels). Normal variates use the inverse CDF on raw uniform
    doubles, avoiding any dependence on numpy's distribution-method internals.

    `truncated_normal` reads its inverse CDF from a table instead of calling
    `ndtri` per draw: `ndtri` is evaluated once per process on 2**16 + 1 evenly
    spaced probabilities between ndtr(-2) and ndtr(2), and each draw
    interpolates linearly between two neighbours. The interpolation error is at
    most 1.82e-8 in standard-normal units, below f32 resolution at +-2. The
    bytes stay platform-independent: `ndtri` only ever sees the fixed grid,
    and every per-draw step (scale by a power of two, split into integer and
    fraction, one multiply, one add, scale by std, one rounding to the storage
    dtype) is a correctly rounded IEEE basic operation.
    """

    def __init__(self, seed: int, _key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self._key = _key
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=_key)
        self._gen = np.random.Generator(np.random.Philox(seq))

    def child(self, label: str) -> "Rng":
        digest = hashlib.sha256(label.encode("utf-8")).digest()
        words = struct.unpack("<4I", digest[:16])
        return Rng(self.seed, self._key + words)

    def uniform(self, shape=(), low: float = 0.0, high: float = 1.0) -> np.ndarray:
        return low + (high - low) * self._gen.random(shape)

    def normal(self, shape=(), mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        from scipy import special

        u = self._gen.random(shape)
        # Clip away exact 0/1 so ndtri stays finite; probability ~2^-53 anyway.
        u = np.clip(u, 1e-12, 1.0 - 1e-12)
        return mean + std * special.ndtri(u)

    def truncated_normal(self, shape=(), std: float = 0.02, dtype=np.float64) -> np.ndarray:
        """Normal(0, std) truncated to +-2 standard deviations, stored in dtype.

        One uniform per value, drawn and transformed in cache-sized chunks, so
        the values do not depend on how a request is split. An f32 result is
        the f64 one rounded once.
        """
        grid, slope = _truncated_normal_table()
        out = np.empty(shape, dtype=dtype)
        flat = out.reshape(-1)
        n = flat.size
        m = min(n, _TN_CHUNK)
        u, v, w = np.empty(m), np.empty(m), np.empty(m)
        idx = np.empty(m, dtype=np.intp)
        for s in range(0, n, _TN_CHUNK):
            k = min(_TN_CHUNK, n - s)
            uk, vk, wk, ik = u[:k], v[:k], w[:k], idx[:k]
            self._gen.random(out=uk)
            uk *= _TN_STEPS
            np.floor(uk, out=wk)
            uk -= wk
            # The uniforms lie in [0, 1), so every index lies in
            # [0, _TN_STEPS - 1] and clipping never fires.
            np.copyto(ik, wk, casting="unsafe")
            np.take(slope, ik, out=vk, mode="clip")
            vk *= uk
            np.take(grid, ik, out=wk, mode="clip")
            vk += wk
            vk *= std
            flat[s:s + k] = vk
        return out

    def integers(self, low: int, high: int, shape=()) -> np.ndarray:
        return self._gen.integers(low, high, size=shape)


# Binary tensor file format: magic, version u16, dtype u8 (0=f32, 1=f64),
# rank u8, then rank little-endian u64 dims, then raw little-endian scalars
# in row-major order.
MAGIC = b"STPT"
FORMAT_VERSION = 1
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


def write_tensor(path: str | Path, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr)
    if arr.dtype not in _DTYPE_CODES:
        raise ConfigError(f"write_tensor: unsupported dtype {arr.dtype}")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<H", FORMAT_VERSION))
        fh.write(struct.pack("<B", _DTYPE_CODES[arr.dtype]))
        fh.write(struct.pack("<B", arr.ndim))
        for d in arr.shape:
            fh.write(struct.pack("<Q", d))
        fh.write(arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes())


def read_tensor(path: str | Path) -> np.ndarray:
    """Read a tensor file straight into its array, so the payload is held once.

    The header is parsed and bounded first. For a regular file the payload
    size is checked against the file's size before the array is allocated; a
    pipe or other stream is read into the array and must end right after it.
    """
    try:
        with open(path, "rb") as fh:
            return _read_tensor_from(fh, path)
    except OSError as exc:
        raise InputError(f"read_tensor: cannot read {path}: {exc}") from exc


def _read_tensor_from(fh, path) -> np.ndarray:
    head = fh.read(8)
    if len(head) < 8 or head[:4] != MAGIC:
        raise InputError(f"read_tensor: {path} is not a tensor file (bad magic)")
    version = struct.unpack("<H", head[4:6])[0]
    if version != FORMAT_VERSION:
        raise InputError(f"read_tensor: unsupported format version {version} in {path}")
    code, rank = head[6], head[7]
    if code not in _CODE_DTYPES:
        raise InputError(f"read_tensor: unknown dtype code {code} in {path}")
    raw_dims = fh.read(8 * rank)
    if len(raw_dims) < 8 * rank:
        raise InputError(f"read_tensor: truncated header in {path}")
    dims = struct.unpack(f"<{rank}Q", raw_dims)
    dtype = _CODE_DTYPES[code]
    # Python ints cannot overflow; numpy refuses any shape whose non-zero
    # extents span more bytes than intp can index, even for an empty array.
    if math.prod(max(d, 1) for d in dims) * dtype.itemsize > np.iinfo(np.intp).max:
        raise InputError(f"read_tensor: dims {dims} too large in {path}")
    # Check the size before allocating, so a short file cannot claim a huge array.
    nbytes = math.prod(dims) * dtype.itemsize
    st = os.fstat(fh.fileno())
    if stat.S_ISREG(st.st_mode) and st.st_size != 8 + 8 * rank + nbytes:
        raise InputError(f"read_tensor: payload size mismatch in {path}")
    try:
        arr = np.empty(dims, dtype=dtype)
    except MemoryError:
        raise InputError(f"read_tensor: dims {dims} too large in {path}") from None
    if fh.readinto(arr.reshape(-1).view(np.uint8)) != nbytes or fh.read(1):
        raise InputError(f"read_tensor: payload size mismatch in {path}")
    return arr.astype(dtype.newbyteorder("="), copy=False)


def write_bundle(dirpath: str | Path, tensors: dict[str, np.ndarray]) -> None:
    """Write named tensors plus a manifest listing names, shapes, and files."""
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    manifest = {}
    for name in sorted(tensors):
        arr = tensors[name]
        fname = name.replace("/", "_").replace(".", "_") + ".stpt"
        write_tensor(dirpath / fname, arr)
        manifest[name] = {
            "file": fname,
            "dtype": DTYPE_NAMES[np.dtype(arr.dtype)],
            "dims": list(arr.shape),
        }
    with open(dirpath / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def read_bundle(dirpath: str | Path) -> dict[str, np.ndarray]:
    """Read the tensors of a write_bundle directory, by name.

    manifest.json must be a JSON object of entry objects, each with a `file`
    that is a plain name inside the directory and `dims` that are a list of
    integers >= 0 matching the tensor file; anything else is an InputError
    naming the manifest.
    """
    dirpath = Path(dirpath)
    where = dirpath / "manifest.json"
    try:
        manifest = json.loads(where.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: bad UTF-8 or bad JSON
        raise InputError(f"read_bundle: cannot read {where}: {exc}") from exc
    if type(manifest) is not dict:
        raise InputError(f"read_bundle: {where} is not a JSON object")
    out = {}
    for name, entry in manifest.items():
        if type(entry) is not dict:
            raise InputError(f"read_bundle: entry {name!r} in {where} is not a JSON object")
        fname, dims = entry.get("file"), entry.get("dims")
        if type(fname) is not str or fname in ("", "..") or "\0" in fname or Path(fname).name != fname:
            raise InputError(f"read_bundle: entry {name!r} in {where}: file {fname!r} is not a "
                             "plain name inside the bundle")
        if type(dims) is not list or not all(type(d) is int and d >= 0 for d in dims):
            raise InputError(f"read_bundle: entry {name!r} in {where}: dims {dims!r} are not a "
                             "list of integers >= 0")
        arr = read_tensor(dirpath / fname)
        if list(arr.shape) != dims:
            raise InputError(f"read_bundle: dims mismatch for {name!r} in {where}")
        out[name] = arr
    return out
