"""Four-stage hierarchical backbone over clip tensors.

Each stage is a strided patch embedding followed by a run of identical blocks.
A block is: depth-wise conv positional encoding (CPE) added residually when the
block has CPE weights, then pre-norm attention (local windowed in early stages,
global in late stages), then a pre-norm MLP, all with residual connections.
Patch embeddings carry the channel changes between stages; a block keeps its
channel count. `backbone_forward` checks its input and every block output for
non-finite values, naming the block as `stpt flops` labels it (`stage2 block1`).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .attention import AttentionParams, ReductionSpec, gsta_forward, lsta_forward
from .errors import ConfigError
from .tensor import (
    DTYPES,
    ClipTensor,
    Conv3DWeights,
    LinearWeights,
    Rng,
    check_finite,
    conv3d,
    conv_output_extent,
    gelu,
    layer_norm,
    linear,
    row_blocks,
)

Extents = tuple[int, int, int]

# Fixed by the architecture, not by the config.
HEAD_CHANNELS = 96  # channels per attention head; heads per stage = C_s / 96
IN_CHANNELS = 3  # RGB clips
MLP_RATIO = 4  # MLP hidden channels per block channel
# Bytes of MLP hidden map per row block (see stpt_block).
MLP_BLOCK_BYTES = 3 * 1024 * 1024


@dataclasses.dataclass(frozen=True)
class StageSpec:
    """One stage. Its windows say how it attends: one window per block makes it
    local, None makes it global (see `kind`). Heads follow from the width;
    windows need positive extents here, and `check_window`'s ratio rule is left
    to the config loader and attention."""

    channels: int
    depth: int
    patch_kernel: Extents
    patch_stride: Extents
    reduction: Extents
    windows: tuple[Extents, ...] | None = None  # one per block; None means global

    def __post_init__(self):
        if self.depth < 1:
            raise ConfigError("stage depth must be at least 1")
        if self.windows is not None:
            if len(self.windows) != self.depth:
                raise ConfigError("local stage needs one window per block")
            if any(e < 1 for w in self.windows for e in w):
                raise ConfigError(f"window extents must be positive, got {self.windows}")
        if self.channels % self.resolved_heads != 0:
            raise ConfigError(
                f"stage channels {self.channels} incompatible with heads {self.resolved_heads}"
            )

    @property
    def kind(self) -> str:
        return "global" if self.windows is None else "local"

    @property
    def resolved_heads(self) -> int:
        return max(1, self.channels // HEAD_CHANNELS)


@dataclasses.dataclass(frozen=True)
class ModelConfig:
    stages: tuple[StageSpec, ...]
    input_dims: Extents = (256, 96, 96)
    cpe_enabled: bool = True
    dtype: str = "f32"

    def __post_init__(self):
        if self.dtype not in ("f32", "f64"):
            raise ConfigError(f"dtype must be f32 or f64, got {self.dtype!r}")
        if not self.stages:
            raise ConfigError("model needs at least one stage")
        # Force the derived-extent arithmetic now so bad configs fail early.
        self.stage_dims()

    def stage_dims(self) -> list[Extents]:
        """Feature-map extents after each stage's patch embedding (padding kernel // 2)."""
        dims = self.input_dims
        out = []
        for s in self.stages:
            dims = tuple(conv_output_extent(n, k, st, k // 2)
                         for n, k, st in zip(dims, s.patch_kernel, s.patch_stride))
            out.append(dims)
        return out

    def stage_in_channels(self) -> list[int]:
        return [IN_CHANNELS] + [s.channels for s in self.stages[:-1]]


def default_config(
    input_dims: Extents = (256, 96, 96),
    variant: str = "LLGG",
    cpe_enabled: bool = True,
    dtype: str = "f32",
    lsta_temporal: tuple[int, int, int] | None = None,
) -> ModelConfig:
    """The standard four-stage layout.

    variant is one letter per stage, L for local windowed attention, G for
    global; a stage is local exactly when it is given windows. Stages 1 and 2
    have set windows, and lsta_temporal optionally overrides their temporal
    extents (the stage-1 block and both stage-2 blocks), which is the knob
    the cost sweep exercises. A late stage switched to local gets a
    temporal-8 window over its full (small) spatial extent.
    """
    if len(variant) != 4 or any(ch not in "LG" for ch in variant):
        raise ConfigError(f"variant must be four letters from {{L, G}}, got {variant!r}")
    base = ModelConfig(
        stages=(
            StageSpec(channels=96, depth=1, patch_kernel=(3, 7, 7), patch_stride=(2, 4, 4),
                      reduction=(2, 8, 8)),
            StageSpec(channels=192, depth=2, patch_kernel=(3, 3, 3), patch_stride=(1, 2, 2),
                      reduction=(2, 2, 2)),
            StageSpec(channels=384, depth=11, patch_kernel=(3, 3, 3), patch_stride=(2, 2, 2),
                      reduction=(2, 2, 2)),
            StageSpec(channels=768, depth=2, patch_kernel=(3, 3, 3), patch_stride=(2, 2, 2),
                      reduction=(1, 1, 1)),
        ),
        input_dims=input_dims, cpe_enabled=cpe_enabled, dtype=dtype,
    )
    t1, t2a, t2b = lsta_temporal if lsta_temporal is not None else (8, 8, 16)
    windows = [((t1, 8, 8),), ((t2a, 6, 6), (t2b, 4, 4))] + [
        ((min(8, t), h, w),) * s.depth
        for s, (t, h, w) in zip(base.stages[2:], base.stage_dims()[2:])
    ]
    return dataclasses.replace(base, stages=tuple(
        dataclasses.replace(s, windows=w) if letter == "L" else s
        for s, w, letter in zip(base.stages, windows, variant)
    ))


def toy_config(variant: str = "LLGG", cpe_enabled: bool = True, dtype: str = "f32") -> ModelConfig:
    """Small config for fast end-to-end runs: 32-frame 24x24 clips, shallow stages."""
    full = default_config(input_dims=(32, 24, 24), variant=variant,
                          cpe_enabled=cpe_enabled, dtype=dtype)
    stages = []
    for spec, depth in zip(full.stages, (1, 1, 2, 1)):
        windows = spec.windows[:depth] if spec.windows is not None else None
        stages.append(dataclasses.replace(spec, depth=depth, windows=windows))
    return dataclasses.replace(full, stages=tuple(stages))


@dataclasses.dataclass(frozen=True)
class LayerNormWeights:
    gamma: np.ndarray
    beta: np.ndarray


@dataclasses.dataclass(frozen=True)
class PatchEmbedWeights:
    """Optional depth-wise conv followed by the projection conv."""

    depthwise: Conv3DWeights | None
    proj: Conv3DWeights


@dataclasses.dataclass(frozen=True)
class BlockWeights:
    """One block's weights; `cpe` is None in a block that runs no CPE."""

    cpe: Conv3DWeights | None
    ln1: LayerNormWeights
    attn: AttentionParams
    ln2: LayerNormWeights
    mlp_in: LinearWeights
    mlp_out: LinearWeights


@dataclasses.dataclass(frozen=True)
class StageWeights:
    embed: PatchEmbedWeights
    blocks: tuple[BlockWeights, ...]


@dataclasses.dataclass(frozen=True)
class ModelWeights:
    stages: tuple[StageWeights, ...]


def _init_linear(rng: Rng, cin: int, cout: int, dtype) -> LinearWeights:
    w = rng.truncated_normal((cout, cin), dtype=dtype)
    return LinearWeights(weight=w, bias=np.zeros(cout, dtype=dtype))


def _init_conv(rng: Rng, cin: int, cout: int, kernel: Extents, stride: Extents,
               padding: Extents, groups: int, dtype) -> Conv3DWeights:
    w = rng.truncated_normal((cout, cin // groups) + kernel, dtype=dtype)
    return Conv3DWeights(weight=w, bias=np.zeros(cout, dtype=dtype),
                         stride=stride, padding=padding, groups=groups)


def _init_ln(c: int, dtype) -> LayerNormWeights:
    return LayerNormWeights(gamma=np.ones(c, dtype=dtype), beta=np.zeros(c, dtype=dtype))


def _init_reduction(rng: Rng, channels: int, ratios: Extents, dtype) -> ReductionSpec:
    conv_k = _init_conv(rng.child("rk"), channels, channels, (3, 3, 3), ratios,
                        (1, 1, 1), channels, dtype)
    conv_v = _init_conv(rng.child("rv"), channels, channels, (3, 3, 3), ratios,
                        (1, 1, 1), channels, dtype)
    return ReductionSpec(conv_k=conv_k, conv_v=conv_v)


def init_attention(rng: Rng, spec: StageSpec, window: Extents | None, dtype) -> AttentionParams:
    c = spec.channels
    return AttentionParams(
        heads=spec.resolved_heads,
        wq=_init_linear(rng.child("wq"), c, c, dtype),
        wk=_init_linear(rng.child("wk"), c, c, dtype),
        wv=_init_linear(rng.child("wv"), c, c, dtype),
        wo=_init_linear(rng.child("wo"), c, c, dtype),
        reduction=_init_reduction(rng.child("reduce"), c, spec.reduction, dtype),
        window=window,
    )


def init_model_weights(cfg: ModelConfig, rng: Rng) -> ModelWeights:
    dtype = DTYPES[cfg.dtype]
    stages = []
    for si, (spec, cin) in enumerate(zip(cfg.stages, cfg.stage_in_channels())):
        srng = rng.child(f"stage{si}")
        pk, ps = spec.patch_kernel, spec.patch_stride
        pad = tuple(k // 2 for k in pk)
        if si == 0:
            dw = _init_conv(srng.child("embed.dw"), cin, cin, pk, ps, pad, cin, dtype)
            proj = _init_conv(srng.child("embed.proj"), cin, spec.channels, (1, 1, 1),
                              (1, 1, 1), (0, 0, 0), 1, dtype)
            embed = PatchEmbedWeights(depthwise=dw, proj=proj)
        else:
            proj = _init_conv(srng.child("embed.proj"), cin, spec.channels, pk, ps, pad, 1, dtype)
            embed = PatchEmbedWeights(depthwise=None, proj=proj)
        blocks = []
        for bi in range(spec.depth):
            brng = srng.child(f"block{bi}")
            c = spec.channels
            window = spec.windows[bi] if spec.windows else None
            blocks.append(
                BlockWeights(
                    cpe=_init_conv(brng.child("cpe"), c, c, (3, 3, 3), (1, 1, 1),
                                   (1, 1, 1), c, dtype) if cfg.cpe_enabled else None,
                    ln1=_init_ln(c, dtype),
                    attn=init_attention(brng.child("attn"), spec, window, dtype),
                    ln2=_init_ln(c, dtype),
                    mlp_in=_init_linear(brng.child("mlp_in"), c, MLP_RATIO * c, dtype),
                    mlp_out=_init_linear(brng.child("mlp_out"), MLP_RATIO * c, c, dtype),
                )
            )
        stages.append(StageWeights(embed=embed, blocks=tuple(blocks)))
    return ModelWeights(stages=tuple(stages))


def patch_embed(x: ClipTensor, w: PatchEmbedWeights) -> ClipTensor:
    if w.depthwise is not None:
        x = conv3d(x, w.depthwise)
    return conv3d(x, w.proj)


def _mlp_residual(x: np.ndarray, w: BlockWeights) -> np.ndarray:
    """x + mlp_out(gelu(mlp_in(ln2(x)))) over row blocks of the (tokens, C) map x.

    Private, so that the kernels it calls stay direct children of stpt_block
    for a tracer that wraps public functions.
    """
    out = np.empty_like(x)
    hidden_row_bytes = w.mlp_in.out_channels * x.itemsize
    for a, b in row_blocks(len(x), hidden_row_bytes, MLP_BLOCK_BYTES):
        normed = layer_norm(x[a:b], w.ln2.gamma, w.ln2.beta)
        hidden = gelu(linear(normed, w.mlp_in))
        np.add(x[a:b], linear(hidden, w.mlp_out), out=out[a:b])
    return out


def stpt_block(x: ClipTensor, w: BlockWeights) -> ClipTensor:
    """CPE when the block has CPE weights, pre-norm attention and pre-norm MLP, all residual.

    The MLP runs over token-row blocks whose hidden map is at most about
    MLP_BLOCK_BYTES (2048 rows on the default stage 1, in f32), written into
    one output, so the hidden map and its GELU buffer are never held whole.
    Layer norm, GELU and the residual add are row-local, and each row of a
    blocked GEMM gets the same bits as in the whole-map GEMM as long as every
    block has enough rows (see `row_blocks`), so blocking leaves the output
    bytes unchanged.
    """
    dims = x.dims
    c = x.channels
    if w.cpe is not None:
        x = ClipTensor(x.data + conv3d(x, w.cpe).data)
    normed = layer_norm(x.tokens(), w.ln1.gamma, w.ln1.beta)
    nmap = ClipTensor(normed.reshape(dims + (c,)))
    attn = lsta_forward(nmap, w.attn) if w.attn.kind == "local" else gsta_forward(nmap, w.attn)
    del normed, nmap
    x = ClipTensor(x.data + attn.data)
    del attn
    out = _mlp_residual(x.tokens(), w)
    return ClipTensor(out.reshape(dims + (c,)))


def backbone_forward(x: ClipTensor, weights: ModelWeights,
                     cfg: ModelConfig) -> tuple[ClipTensor, ...]:
    """Every stage's output map; cfg gives the clip shape, which the weights cannot check."""
    want = cfg.input_dims + (IN_CHANNELS,)
    if x.data.shape != want:
        raise ConfigError(f"clip {x.data.shape} is not the model's {want} (T, H, W, channels)")
    check_finite("input", x.data)
    outputs = []
    for si, sw in enumerate(weights.stages):
        x = patch_embed(x, sw.embed)
        for bi, bw in enumerate(sw.blocks):
            x = stpt_block(x, bw)
            check_finite(f"stage{si + 1} block{bi}", x.data)
        outputs.append(x)
    return tuple(outputs)
