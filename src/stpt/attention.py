"""Local windowed and global spatio-temporal attention, through one body.

Tokens are projected to Q/K/V with per-map linear layers, the K/V maps are
reduced with strided depth-wise convolutions, and scaled dot-product attention
runs per head inside (t, h, w) windows, each window attending to the matching
window of the reduced map. The local path (LSTA) tiles the map with
non-overlapping windows; the global path (GSTA) is the same computation with
one window covering the whole map. A local window set to the full map extents
therefore gives global attention exactly, which the tests exploit as an oracle.

`PartitionRecord` is the one place the window geometry is worked out (window
counts, padded map, reduced windows); the cost model reads it too. Padding
rules keep the partition exact: the map is zero-padded up to the window grid
before reduction, local window extents must be divisible by the reduction
ratios (so the full-resolution and reduced window grids align), and reduced
positions whose stride cell starts beyond the original extent are masked out
of the softmax. Reduced extents are ceil(extent / ratio), as the reduction
convolution gives, so a full-map window keeps a last, partial stride cell. For
in-range positions, reducing the padded map is identical to reducing the
original one because the conv's implicit zero padding and the explicit grid
padding coincide.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import ConfigError
from .tensor import (ClipTensor, Conv3DWeights, LinearWeights, conv3d, linear, row_blocks,
                     softmax)

Extents = tuple[int, int, int]

# Bytes of attention scores computed at once (see _attend).
SCORE_BLOCK_BYTES = 16 * 1024 * 1024


def check_window(extents: Extents, ratios: Extents, where: str = "") -> None:
    """Require every local window extent (tokens along T, H, W) to be positive
    and a multiple of its reduction ratio.

    where prefixes the message, e.g. "stage1 block0: " from the config loader.
    """
    if any(e < 1 for e in extents):
        raise ConfigError(f"{where}window extents must be positive, got {extents}")
    for e, r in zip(extents, ratios):
        if e % r != 0:
            raise ConfigError(f"{where}window extent {e} must be a multiple of reduction ratio {r}")


@dataclasses.dataclass(frozen=True)
class ReductionSpec:
    """Depth-wise strided reduction of the K and V maps.

    Two independent kernels (one for K, one for V), kernel 3 per axis,
    padding 1 and one common stride. That stride is the reduction ratios
    (`ratios`), so the reduced extent is ceil(extent / ratio).
    """

    conv_k: Conv3DWeights
    conv_v: Conv3DWeights

    def __post_init__(self):
        if self.conv_v.stride != self.conv_k.stride:
            raise ConfigError(f"conv_v stride {self.conv_v.stride} must equal "
                              f"conv_k stride {self.conv_k.stride}")
        for name, conv in (("conv_k", self.conv_k), ("conv_v", self.conv_v)):
            if conv.kernel != (3, 3, 3) or conv.padding != (1, 1, 1):
                raise ConfigError(f"{name} must have kernel 3 and padding 1 per axis")
            if not conv.depthwise:
                raise ConfigError(f"{name} must be depth-wise with equal in/out channels")

    @property
    def ratios(self) -> Extents:
        return self.conv_k.stride


@dataclasses.dataclass(frozen=True)
class AttentionParams:
    """One attention's weights; `window` holds local window extents, None means global."""

    heads: int
    wq: LinearWeights
    wk: LinearWeights
    wv: LinearWeights
    wo: LinearWeights
    reduction: ReductionSpec
    window: Extents | None = None

    @property
    def kind(self) -> str:
        return "global" if self.window is None else "local"

    @property
    def channels(self) -> int:
        return self.wq.in_channels

    def __post_init__(self):
        if self.channels % self.heads != 0:
            raise ConfigError(f"channels {self.channels} not divisible by heads {self.heads}")
        if self.window is not None:
            check_window(self.window, self.reduction.ratios)
        for name, w in (("wq", self.wq), ("wk", self.wk), ("wv", self.wv), ("wo", self.wo)):
            if w.in_channels != self.channels or w.out_channels != self.channels:
                raise ConfigError(f"{name} must map {self.channels} -> {self.channels} channels")


@dataclasses.dataclass(frozen=True)
class PartitionRecord:
    """Geometry of a window partition, enough to invert it."""

    orig: Extents
    padded: Extents
    counts: Extents
    extents: Extents

    @classmethod
    def of(cls, dims: Extents, extents: Extents) -> PartitionRecord:
        """Windows of the given extents tiling a map, padded at the high end of each axis."""
        counts = tuple(-(-d // e) for d, e in zip(dims, extents))
        padded = tuple(n * e for n, e in zip(counts, extents))
        return cls(orig=tuple(dims), padded=padded, counts=counts, extents=tuple(extents))

    def reduced(self, ratios: Extents) -> PartitionRecord:
        """The partition of the padded map after K/V reduction by the given ratios.

        Reduced extents are ceil(extent / ratio), the stride arithmetic of the
        reduction convolutions; `orig` of the result is the reduced padded map.
        """
        return PartitionRecord.of(
            tuple(-(-n // r) for n, r in zip(self.padded, ratios)),
            tuple(-(-e // r) for e, r in zip(self.extents, ratios)),
        )

    @property
    def num_windows(self) -> int:
        nt, nh, nw = self.counts
        return nt * nh * nw

    @property
    def window_tokens(self) -> int:
        t, h, w = self.extents
        return t * h * w


def _pad_to(x: np.ndarray, dims: Extents) -> np.ndarray:
    """Zero-pad a (T, H, W, ...) map at the high end of each axis up to dims."""
    if x.shape[:3] == dims:
        return x
    padded = np.zeros(dims + x.shape[3:], dtype=x.dtype)
    t, h, w = x.shape[:3]
    padded[:t, :h, :w] = x
    return padded


def partition_windows(x: np.ndarray, extents: Extents) -> tuple[np.ndarray, PartitionRecord]:
    """Split a (T, H, W, C) map into (num_windows, window_tokens, C).

    Windows tile the map in T-major order and tokens within a window are
    likewise T-major. Extents that do not divide the map are handled by zero
    padding at the high end of each axis; the record keeps both geometries so
    merge_windows can strip the padding again.
    """
    rec = PartitionRecord.of(x.shape[:3], extents)
    nt, nh, nw = rec.counts
    et, eh, ew = rec.extents
    c = x.shape[-1]
    win = _pad_to(x, rec.padded).reshape(nt, et, nh, eh, nw, ew, c)
    win = win.transpose(0, 2, 4, 1, 3, 5, 6).reshape(rec.num_windows, rec.window_tokens, c)
    return win, rec


def merge_windows(windows: np.ndarray, rec: PartitionRecord) -> np.ndarray:
    """Inverse of partition_windows; drops the zero padding."""
    nt, nh, nw = rec.counts
    et, eh, ew = rec.extents
    c = windows.shape[-1]
    x = windows.reshape(nt, nh, nw, et, eh, ew, c)
    x = x.transpose(0, 3, 1, 4, 2, 5, 6).reshape(rec.padded + (c,))
    t, h, w = rec.orig
    return x[:t, :h, :w, :]


def reduce_kv(kmap: ClipTensor, vmap: ClipTensor, spec: ReductionSpec) -> tuple[ClipTensor, ClipTensor]:
    """Reduce the K and V maps; output extents are ceil(extent / ratio)."""
    return conv3d(kmap, spec.conv_k), conv3d(vmap, spec.conv_v)


def _project_qkv(x: ClipTensor, p: AttentionParams):
    tokens = x.tokens()
    q = linear(tokens, p.wq)
    k = linear(tokens, p.wk)
    v = linear(tokens, p.wv)
    dims = x.dims
    shape = dims + (p.channels,)
    return q.reshape(shape), k.reshape(shape), v.reshape(shape)


def _reduced_valid_mask(orig: Extents, reduced: Extents, ratios: Extents) -> np.ndarray:
    """Bool map over the reduced padded grid; True where the stride cell starts in range."""
    jt, jh, jw = (np.arange(n) * r < o for n, r, o in zip(reduced, ratios, orig))
    return jt[:, None, None] & jh[None, :, None] & jw[None, None, :]


def _attend(x: ClipTensor, p: AttentionParams, extents: Extents) -> ClipTensor:
    """Each window of the map attends to the matching window of the reduced K/V maps.

    Q, K and V are dropped as soon as they are partitioned or reduced, and
    `attn @ V` is written straight into a (windows, tokens, heads, dh) buffer,
    so merging the heads is a view. When one call's scores would exceed
    SCORE_BLOCK_BYTES, scores -> softmax -> @ V runs one window at a time, and
    inside a window too large by itself in blocks of query rows (see
    `row_blocks`). The batched GEMMs treat every window on its own, softmax is
    row-local, and every row block is a large GEMM, so the output bytes do not
    change. Below the budget nothing is split: score GEMMs with few keys (4
    keys and 1 head, as on the toy stage 1) change bits on OpenBLAS 0.3.31
    even in 256-row blocks.
    """
    ratios = p.reduction.ratios
    q, k, v = _project_qkv(x, p)

    qw, rec = partition_windows(q, extents)
    del q
    red = rec.reduced(ratios)
    # Local extents are multiples of the ratios (check_window) and a global window is the
    # whole map, so the reduced padded maps (red.orig) tile into red.counts == rec.counts.
    kred, vred = reduce_kv(ClipTensor(_pad_to(k, rec.padded)), ClipTensor(_pad_to(v, rec.padded)),
                           p.reduction)
    del k, v
    kw, _ = partition_windows(kred.data, red.extents)
    vw, _ = partition_windows(vred.data, red.extents)
    valid = _reduced_valid_mask(rec.orig, red.orig, ratios)
    mask = None
    if not valid.all():
        maskw, _ = partition_windows(valid[..., None], red.extents)
        mask = maskw[:, None, None, :, 0]  # (num_windows, 1, 1, reduced_window_tokens)

    heads, dh = p.heads, p.channels // p.heads
    nwin, nq, nk = rec.num_windows, rec.window_tokens, red.window_tokens
    qw *= dh ** -0.5
    qh = qw.reshape(nwin, nq, heads, dh).transpose(0, 2, 1, 3)
    kt = kw.reshape(nwin, nk, heads, dh).transpose(0, 2, 3, 1)
    vh = vw.reshape(nwin, nk, heads, dh).transpose(0, 2, 1, 3)
    out = np.empty((nwin, nq, heads, dh), dtype=qw.dtype)
    outh = out.transpose(0, 2, 1, 3)  # (nwin, heads, window_tokens, dh)
    for w0, w1, r0, r1 in _score_blocks(nwin, nq, heads * nk * qw.itemsize):
        scores = qh[w0:w1, :, r0:r1] @ kt[w0:w1]
        attn = softmax(scores, mask=None if mask is None else mask[w0:w1])
        del scores
        np.matmul(attn, vh[w0:w1], out=outh[w0:w1, :, r0:r1])
        del attn
    del qw, qh
    merged = merge_windows(out.reshape(nwin, nq, p.channels), rec)
    y = linear(merged.reshape(-1, p.channels), p.wo)
    return ClipTensor(y.reshape(x.dims + (p.channels,)))


def _score_blocks(nwin: int, nq: int, row_bytes: int):
    """(w0, w1, r0, r1) blocks of windows w0:w1 and query rows r0:r1 under SCORE_BLOCK_BYTES."""
    if nwin * nq * row_bytes <= SCORE_BLOCK_BYTES:
        yield 0, nwin, 0, nq
        return
    for wi in range(nwin):
        for r0, r1 in row_blocks(nq, row_bytes, SCORE_BLOCK_BYTES):
            yield wi, wi + 1, r0, r1


def lsta_forward(x: ClipTensor, p: AttentionParams) -> ClipTensor:
    """Windowed attention against the matching windows of the reduced K/V maps."""
    if p.kind != "local":
        raise ConfigError("lsta_forward requires local attention params")
    return _attend(x, p, p.window)


def gsta_forward(x: ClipTensor, p: AttentionParams) -> ClipTensor:
    """Every token attends to the whole reduced K/V maps: one window over the full map."""
    if p.kind != "global":
        raise ConfigError("gsta_forward requires global attention params")
    return _attend(x, p, x.dims)
