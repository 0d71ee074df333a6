"""Deterministic dense kernels for clip-shaped tensors.

Feature maps are channel-last (T, H, W, C), row-major with time outermost, so a
reshape to (T*H*W, C) enumerates tokens in T-major order.

Precision rule: a kernel computes in the dtype of its input. Weights are cast
to that dtype (a no-op when the model config is consistent), so an f32 model
runs f32 end to end and an f64 model is the oracle mode that the f32 results
are checked against. `sigmoid` and `softplus` are the exception: they compute
in f64 and round on the way out. They only see head-sized arrays, and an f32
sigmoid would round large logits to exactly 1.0, outside the open interval a
detection score must lie in. Kernels validate that their outputs are finite and
raise NumericError naming the kernel and the first offending index otherwise.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import struct
from pathlib import Path
from typing import Callable

import numpy as np
from scipy import special

from .errors import ConfigError, InputError, NumericError

DTYPES = {"f32": np.float32, "f64": np.float64}
DTYPE_NAMES = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}


def _check_finite(name: str, arr: np.ndarray) -> np.ndarray:
    if not np.isfinite(arr).all():
        bad = np.argwhere(~np.isfinite(arr))[0]
        raise NumericError(f"{name}: non-finite value at index {tuple(int(i) for i in bad)}")
    return arr


def _as_f64(arr: np.ndarray) -> np.ndarray:
    return arr.astype(np.float64, copy=False)


@dataclasses.dataclass(frozen=True)
class ClipTensor:
    """Dense (T, H, W, C) feature map in f32 or f64."""

    data: np.ndarray

    def __post_init__(self):
        if self.data.ndim != 4:
            raise ConfigError(f"ClipTensor expects rank 4, got shape {self.data.shape}")
        if self.data.dtype not in (np.float32, np.float64):
            raise ConfigError(f"ClipTensor dtype must be f32 or f64, got {self.data.dtype}")
        _check_finite("ClipTensor", self.data)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape[:3]

    @property
    def channels(self) -> int:
        return self.data.shape[3]

    @property
    def dtype_name(self) -> str:
        return DTYPE_NAMES[self.data.dtype]

    def tokens(self) -> np.ndarray:
        """(T*H*W, C) token matrix, T-major."""
        return self.data.reshape(-1, self.data.shape[3])

    @staticmethod
    def from_tokens(tokens: np.ndarray, dims: tuple[int, int, int]) -> "ClipTensor":
        t, h, w = dims
        return ClipTensor(tokens.reshape(t, h, w, tokens.shape[1]))


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
    return _check_finite("linear", y)


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Normalize the channel (last) axis per token."""
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    y = x - mean
    y /= np.sqrt(var + eps)
    y *= gamma.astype(x.dtype, copy=False)
    y += beta.astype(x.dtype, copy=False)
    return _check_finite("layer_norm", y)


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact erf form: 0.5 * x * (1 + erf(x / sqrt(2))), on one output buffer."""
    y = np.divide(x, math.sqrt(2.0), out=np.empty_like(x))
    special.erf(y, out=y)
    y += 1.0
    y *= x
    y *= 0.5
    return _check_finite("gelu", y)


def softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + exp(x)) as max(x, 0) + log1p(exp(-|x|)), stable for large |x|."""
    xf = _as_f64(x)
    y = np.maximum(xf, 0.0) + np.log1p(np.exp(-np.abs(xf)))
    return _check_finite("softplus", y.astype(x.dtype))


def sigmoid(x: np.ndarray) -> np.ndarray:
    xf = _as_f64(x)
    z = np.exp(-np.abs(xf))  # single exponential, never overflows
    y = np.where(xf >= 0, 1.0 / (1.0 + z), z / (1.0 + z))
    return _check_finite("sigmoid", y.astype(x.dtype))


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
    return _check_finite("softmax", e)


def conv3d(x: ClipTensor, w: Conv3DWeights) -> ClipTensor:
    """Strided 3D cross-correlation with zero padding, dense or depth-wise.

    Implemented as a sum over kernel taps of strided slices of the padded map,
    so no im2col buffer is materialized. A dense tap is a matmul; depth-wise
    taps are multiplied into one reused product buffer and accumulated in place.
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
    out += w.bias.astype(dtype, copy=False)

    wf = w.weight.astype(dtype, copy=False)
    dense = w.groups == 1
    if not dense:
        taps = np.ascontiguousarray(np.moveaxis(wf[:, 0], 0, -1))  # (kt, kh, kw, c)
        prod = np.empty_like(out)
    for it in range(kt):
        for ih in range(kh):
            for iw in range(kw):
                sl = xp[it:it + st * to:st, ih:ih + sh * ho:sh, iw:iw + sw * wo:sw, :]
                if dense:
                    out += (sl.reshape(-1, c) @ wf[:, :, it, ih, iw].T).reshape(to, ho, wo, cout)
                else:
                    np.multiply(sl, taps[it, ih, iw], out=prod)
                    out += prod
    return ClipTensor(_check_finite("conv3d", out))


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


class Rng:
    """Seed-deterministic splittable randomness.

    Built on the Philox counter-based bit generator; identical seeds produce
    identical sequences on every platform. Child streams are derived by hashing
    a string label into SeedSequence spawn keys, so the tree of streams depends
    only on (seed, labels). Normal variates use the inverse CDF on raw uniform
    doubles, avoiding any dependence on numpy's distribution-method internals.
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
        u = self._gen.random(shape)
        # Clip away exact 0/1 so ndtri stays finite; probability ~2^-53 anyway.
        u = np.clip(u, 1e-12, 1.0 - 1e-12)
        return mean + std * special.ndtri(u)

    def truncated_normal(self, shape=(), std: float = 0.02, bound: float = 2.0) -> np.ndarray:
        """Normal(0, std) truncated to +-bound standard deviations, via inverse CDF."""
        lo = special.ndtr(-bound)
        hi = special.ndtr(bound)
        u = lo + (hi - lo) * self._gen.random(shape)
        return std * special.ndtri(u)

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
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"read_tensor: cannot read {path}: {exc}") from exc
    if len(raw) < 8 or raw[:4] != MAGIC:
        raise InputError(f"read_tensor: {path} is not a tensor file (bad magic)")
    version = struct.unpack("<H", raw[4:6])[0]
    if version != FORMAT_VERSION:
        raise InputError(f"read_tensor: unsupported format version {version}")
    code, rank = raw[6], raw[7]
    if code not in _CODE_DTYPES:
        raise InputError(f"read_tensor: unknown dtype code {code}")
    header = 8 + 8 * rank
    if len(raw) < header:
        raise InputError(f"read_tensor: truncated header in {path}")
    dims = struct.unpack(f"<{rank}Q", raw[8:header])
    dtype = _CODE_DTYPES[code]
    # Python ints cannot overflow; numpy refuses any shape whose non-zero
    # extents span more bytes than intp can index, even for an empty array.
    if math.prod(max(d, 1) for d in dims) * dtype.itemsize > np.iinfo(np.intp).max:
        raise InputError(f"read_tensor: dims {dims} too large in {path}")
    count = math.prod(dims)
    if len(raw) != header + count * dtype.itemsize:
        raise InputError(f"read_tensor: payload size mismatch in {path}")
    arr = np.frombuffer(raw, dtype=dtype, count=count, offset=header).reshape(dims)
    return arr.astype(dtype.newbyteorder("="))


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
    dirpath = Path(dirpath)
    try:
        manifest = json.loads((dirpath / "manifest.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"read_bundle: cannot read manifest in {dirpath}: {exc}") from exc
    out = {}
    for name, entry in manifest.items():
        arr = read_tensor(dirpath / entry["file"])
        if list(arr.shape) != entry["dims"]:
            raise InputError(f"read_bundle: dims mismatch for {name}")
        out[name] = arr
    return out
