"""Stage geometry, block wiring, and deterministic initialization."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from stpt import backbone, tensor
from stpt.attention import AttentionParams, ReductionSpec
from stpt.backbone import (BlockWeights, LayerNormWeights, ModelConfig, StageSpec,
                           backbone_forward, default_config, init_model_weights,
                           patch_embed, stpt_block, toy_config)
from stpt.errors import ConfigError, NumericError
from stpt.heads import DetectionConfig, init_head_weights
from stpt.tensor import (DTYPES, ROW_BLOCK_MIN, ClipTensor, Conv3DWeights, LinearWeights, Rng,
                         conv_output_extent, gelu)


def test_default_stage_geometry():
    cfg = default_config()
    assert cfg.stage_dims() == [(128, 24, 24), (128, 12, 12), (64, 6, 6), (32, 3, 3)]
    assert [s.channels for s in cfg.stages] == [96, 192, 384, 768]
    assert [s.depth for s in cfg.stages] == [1, 2, 11, 2]
    assert [s.resolved_heads for s in cfg.stages] == [1, 2, 4, 8]
    assert [s.reduction for s in cfg.stages] == [(2, 8, 8), (2, 2, 2), (2, 2, 2), (1, 1, 1)]
    assert cfg.stages[0].windows == ((8, 8, 8),)
    assert cfg.stages[1].windows == ((8, 6, 6), (16, 4, 4))


def test_stage_dims_match_conv_arithmetic():
    cfg = default_config(input_dims=(64, 48, 48))
    dims = (64, 48, 48)
    for spec, got in zip(cfg.stages, cfg.stage_dims()):
        dims = tuple(conv_output_extent(n, k, s, k // 2)
                     for n, k, s in zip(dims, spec.patch_kernel, spec.patch_stride))
        assert got == dims


@pytest.mark.parametrize("variant,kinds", [
    ("LLGG", ["local", "local", "global", "global"]),
    ("GGGG", ["global"] * 4),
    ("LLLL", ["local"] * 4),
    ("LGGG", ["local", "global", "global", "global"]),
])
def test_variant_selects_attention_kinds(variant, kinds):
    cfg = default_config(variant=variant)
    assert [s.kind for s in cfg.stages] == kinds


def test_variant_validation():
    with pytest.raises(ConfigError):
        default_config(variant="LLG")
    with pytest.raises(ConfigError):
        default_config(variant="LLGX")


def test_late_local_stages_get_full_spatial_windows():
    cfg = default_config(variant="LLLL")
    # Stage 3 runs at (64, 6, 6): temporal window capped at 8, full spatial.
    assert cfg.stages[2].windows == ((8, 6, 6),) * 11
    assert cfg.stages[3].windows == ((8, 3, 3),) * 2


def test_lsta_temporal_override():
    cfg = default_config(lsta_temporal=(4, 4, 8))
    assert cfg.stages[0].windows == ((4, 8, 8),)
    assert cfg.stages[1].windows == ((4, 6, 6), (8, 4, 4))


def test_toy_config_is_shallow():
    cfg = toy_config()
    assert cfg.input_dims == (32, 24, 24)
    assert [s.depth for s in cfg.stages] == [1, 1, 2, 1]
    assert [s.channels for s in cfg.stages] == [96, 192, 384, 768]


def test_stage_spec_validation():
    with pytest.raises(ConfigError, match="depth"):
        StageSpec(channels=96, depth=0, patch_kernel=(3, 3, 3),
                  patch_stride=(1, 1, 1), reduction=(1, 1, 1))
    with pytest.raises(ConfigError, match="window"):
        StageSpec(channels=96, depth=2, patch_kernel=(3, 3, 3),
                  patch_stride=(1, 1, 1), reduction=(1, 1, 1), windows=((8, 8, 8),))
    with pytest.raises(ConfigError, match="heads"):  # 290 channels give 3 heads
        StageSpec(channels=290, depth=1, patch_kernel=(3, 3, 3),
                  patch_stride=(1, 1, 1), reduction=(1, 1, 1))


def test_stage_kind_follows_windows():
    geometry = dict(channels=96, patch_kernel=(3, 3, 3), patch_stride=(1, 1, 1),
                    reduction=(1, 1, 1))
    assert StageSpec(depth=2, **geometry).kind == "global"
    assert StageSpec(depth=2, windows=((8, 8, 8), (4, 4, 4)), **geometry).kind == "local"


def test_model_config_validation():
    with pytest.raises(ConfigError, match="dtype"):
        default_config(dtype="f16")
    with pytest.raises(ConfigError, match="stage"):
        ModelConfig(stages=())


def _zero_linear(cin, cout):
    return LinearWeights(weight=np.zeros((cout, cin)), bias=np.zeros(cout))


def _zero_conv(c, kernel=(3, 3, 3), stride=(1, 1, 1), padding=(1, 1, 1), groups=None):
    groups = groups if groups is not None else c
    return Conv3DWeights(weight=np.zeros((c, c // groups) + kernel), bias=np.zeros(c),
                         stride=stride, padding=padding, groups=groups)


def _zero_block(c, heads=1):
    attn = AttentionParams(
        heads=heads,
        wq=_zero_linear(c, c), wk=_zero_linear(c, c),
        wv=_zero_linear(c, c), wo=_zero_linear(c, c),
        reduction=ReductionSpec(conv_k=_zero_conv(c), conv_v=_zero_conv(c)),
    )
    return BlockWeights(
        cpe=_zero_conv(c),
        ln1=LayerNormWeights(gamma=np.ones(c), beta=np.zeros(c)),
        attn=attn,
        ln2=LayerNormWeights(gamma=np.ones(c), beta=np.zeros(c)),
        mlp_in=_zero_linear(c, 2 * c),
        mlp_out=_zero_linear(2 * c, c),
    )


def test_zero_block_is_identity():
    # Zero attention and MLP weights leave only the residual path.
    c = 4
    x = ClipTensor(Rng(0).normal((3, 2, 2, c)))
    out = stpt_block(x, dataclasses.replace(_zero_block(c), cpe=None))
    np.testing.assert_array_equal(out.data, x.data)
    # Zero conv positional encoding adds nothing either.
    out2 = stpt_block(x, _zero_block(c))
    np.testing.assert_array_equal(out2.data, x.data)


def test_cpe_toggle_changes_output():
    rng = Rng(1)
    c = 4
    block = dataclasses.replace(
        _zero_block(c),
        cpe=Conv3DWeights(weight=rng.normal((c, 1, 3, 3, 3)), bias=np.zeros(c),
                          stride=(1, 1, 1), padding=(1, 1, 1), groups=c),
    )
    x = ClipTensor(rng.child("x").normal((3, 2, 2, c)))
    with_cpe = stpt_block(x, block)
    without = stpt_block(x, dataclasses.replace(block, cpe=None))
    assert not np.allclose(with_cpe.data, without.data)
    np.testing.assert_array_equal(without.data, x.data)


def test_init_is_deterministic():
    cfg = toy_config()
    w1 = init_model_weights(cfg, Rng(7))
    w2 = init_model_weights(cfg, Rng(7))
    w3 = init_model_weights(cfg, Rng(8))
    a = w1.stages[0].blocks[0].attn.wq.weight
    np.testing.assert_array_equal(a, w2.stages[0].blocks[0].attn.wq.weight)
    assert not np.array_equal(a, w3.stages[0].blocks[0].attn.wq.weight)


def test_init_shapes_and_embed_structure():
    cfg = toy_config()
    w = init_model_weights(cfg, Rng(3))
    # Stage one embeds with a depth-wise conv then a pointwise projection.
    e0 = w.stages[0].embed
    assert e0.depthwise is not None and e0.depthwise.groups == 3
    assert e0.proj.weight.shape == (96, 3, 1, 1, 1)
    # Later stages embed with a single dense strided conv.
    for sw, spec, cin in zip(w.stages[1:], cfg.stages[1:], (96, 192, 384)):
        assert sw.embed.depthwise is None
        assert sw.embed.proj.weight.shape == (spec.channels, cin) + spec.patch_kernel
    assert w.stages[0].blocks[0].mlp_in.weight.shape == (4 * 96, 96)


def test_init_biases_are_zero_so_zero_input_stays_zero():
    cfg = toy_config(variant="LLGG")
    w = init_model_weights(cfg, Rng(4))
    x = ClipTensor(np.zeros((32, 24, 24, 3), dtype=np.float32))
    out = backbone_forward(x, w, cfg)
    for stage_out in out:
        assert np.all(stage_out.data == 0.0)


def test_backbone_forward_shapes_match_config():
    cfg = toy_config(variant="LLGG")
    w = init_model_weights(cfg, Rng(5))
    x = ClipTensor(Rng(6).normal((32, 24, 24, 3)).astype(np.float32))
    out = backbone_forward(x, w, cfg)
    assert [s.dims for s in out] == cfg.stage_dims()
    assert [s.channels for s in out] == [96, 192, 384, 768]
    assert all(s.data.dtype == np.float32 for s in out)
    assert all(np.isfinite(s.data).all() for s in out)


def test_backbone_rejects_channel_mismatch():
    cfg = toy_config()
    w = init_model_weights(cfg, Rng(9))
    with pytest.raises(ConfigError, match="channels"):
        backbone_forward(ClipTensor(np.zeros((32, 24, 24, 4), dtype=np.float32)), w, cfg)


@pytest.mark.parametrize("dims", [(16, 24, 24), (64, 24, 24), (32, 24, 16)])
def test_backbone_rejects_clip_of_another_shape(dims):
    # The weights fit any clip length and size; only the config knows the one
    # that pyramid_lengths and the cost model assume.
    cfg = toy_config()
    w = init_model_weights(cfg, Rng(9))
    with pytest.raises(ConfigError, match=r"is not the model's \(32, 24, 24, 3\)"):
        backbone_forward(ClipTensor(np.zeros(dims + (3,), dtype=np.float32)), w, cfg)


@pytest.mark.parametrize("variant", ["LLLL", "LLGG", "GGGG"])
def test_cpe_off_draws_no_cpe_and_keeps_every_other_weight(variant):
    # Each weight's stream follows from the seed and its labels alone, so
    # skipping the CPE draws leaves every other weight's bytes as they are.
    on = init_model_weights(toy_config(variant), Rng(3).child("model"))
    off = init_model_weights(toy_config(variant, cpe_enabled=False), Rng(3).child("model"))
    assert all(bw.cpe is not None for sw in on.stages for bw in sw.blocks)
    assert all(bw.cpe is None for sw in off.stages for bw in sw.blocks)
    stripped = dataclasses.replace(on, stages=tuple(
        dataclasses.replace(sw, blocks=tuple(dataclasses.replace(bw, cpe=None)
                                             for bw in sw.blocks))
        for sw in on.stages))
    pairs = list(zip(_arrays(stripped), _arrays(off), strict=True))
    assert len(pairs) > 40
    for a, b in pairs:
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_patch_embed_downsamples():
    cfg = toy_config()
    w = init_model_weights(cfg, Rng(10))
    x = ClipTensor(Rng(11).normal((32, 24, 24, 3)).astype(np.float32))
    out = patch_embed(x, w.stages[0].embed)
    assert out.dims == (16, 6, 6)
    assert out.channels == 96


@pytest.mark.parametrize("variant", ["LLLL", "LLLG", "LLGG", "LGGG", "GGGG"])
def test_f32_stages_track_the_f64_oracle(variant):
    # Kernels compute in the storage dtype; the f64 model is the oracle the
    # f32 one must track to within f32 rounding.
    stages = {}
    for dtype, np_dtype in (("f32", np.float32), ("f64", np.float64)):
        cfg = toy_config(variant, dtype=dtype)
        weights = init_model_weights(cfg, Rng(3).child("model"))
        clip = Rng(3).child("input").normal(cfg.input_dims + (3,))
        out = backbone_forward(ClipTensor(clip.astype(np_dtype)), weights, cfg)
        stages[dtype] = [s.data for s in out]
    for a32, a64 in zip(stages["f32"], stages["f64"]):
        assert a32.dtype == np.float32 and a64.dtype == np.float64
        gap = np.abs(a32 - a64).max() / np.abs(a64).max()
        assert gap <= 1e-5, gap


def _arrays(tree):
    """Every ndarray in a tree of weight dataclasses and tuples, in field order."""
    if isinstance(tree, np.ndarray):
        yield tree
    elif dataclasses.is_dataclass(tree):
        for field in dataclasses.fields(tree):
            yield from _arrays(getattr(tree, field.name))
    elif isinstance(tree, tuple):
        for item in tree:
            yield from _arrays(item)


@pytest.mark.parametrize("variant", ["LLLL", "LLLG", "LLGG", "LGGG", "GGGG"])
def test_f32_init_is_the_f64_init_rounded_once(variant):
    # The f32-vs-f64 oracle compares the same model: f32 weights must be the
    # f64 draw rounded once, bit for bit, in the backbone and in the heads.
    det = DetectionConfig()
    trees = {}
    for dtype in ("f32", "f64"):
        cfg = toy_config(variant, dtype=dtype)
        trees[dtype] = (init_model_weights(cfg, Rng(3).child("model")),
                        init_head_weights(cfg, det, Rng(3).child("head")))
    pairs = list(zip(_arrays(trees["f32"]), _arrays(trees["f64"]), strict=True))
    assert len(pairs) > 40
    for a32, a64 in pairs:
        assert a32.dtype == np.float32 and a64.dtype == np.float64
        np.testing.assert_array_equal(a32, a64.astype(np.float32))


# One weight per block, chosen in turn, so every variant's blocks between them
# cover the positional conv, the attention projections and reductions, and the MLP.
_BLOCK_WEIGHTS = (
    lambda bw: bw.cpe.weight,
    lambda bw: bw.attn.wq.weight,
    lambda bw: bw.mlp_in.weight,
    lambda bw: bw.attn.reduction.conv_k.weight,
    lambda bw: bw.attn.wo.weight,
    lambda bw: bw.mlp_out.weight,
)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("variant", ["LLLL", "LLGG", "GGGG"])
def test_non_finite_weight_names_its_block(variant):
    cfg = toy_config(variant)
    weights = init_model_weights(cfg, Rng(2).child("model"))
    clip = ClipTensor(Rng(2).child("input").normal(cfg.input_dims + (3,)).astype(np.float32))
    n = 0
    for si, sw in enumerate(weights.stages):
        for bi, bw in enumerate(sw.blocks):
            arr = _BLOCK_WEIGHTS[n % len(_BLOCK_WEIGHTS)](bw)
            n += 1
            saved = arr.flat[0]
            arr.flat[0] = np.inf
            try:
                with pytest.raises(NumericError, match=rf"^stage{si + 1} block{bi}: "):
                    backbone_forward(clip, weights, cfg)
            finally:
                arr.flat[0] = saved


@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("variant", ["LLLL", "LLLG", "LLGG", "LGGG", "GGGG"])
def test_blocked_mlp_and_depthwise_conv_are_bit_identical(monkeypatch, variant, dtype):
    # Budgets of one byte give one-frame depth-wise slabs and 64-row MLP blocks
    # (the floor) on every toy map; a huge budget gives one block each.
    cfg = toy_config(variant, dtype=dtype)
    weights = init_model_weights(cfg, Rng(3).child("model"))
    clip = Rng(3).child("input").normal(cfg.input_dims + (3,))
    x = ClipTensor(clip.astype(DTYPES[dtype]))
    rows = []
    monkeypatch.setattr(backbone, "gelu", lambda h: rows.append(len(h)) or gelu(h))
    runs = {}
    for budget in (1 << 40, 1):
        monkeypatch.setattr(tensor, "DW_SLAB_BYTES", budget)
        monkeypatch.setattr(backbone, "MLP_BLOCK_BYTES", budget)
        rows.clear()
        runs[budget] = [s.data.tobytes() for s in backbone_forward(x, weights, cfg)]
    # rows now holds the MLP blocks of the one-byte run.
    assert len(rows) > sum(spec.depth for spec in cfg.stages)  # stage 1 and 2 MLPs split
    whole_maps = {math.prod(d) for d in cfg.stage_dims()}
    assert all(n >= ROW_BLOCK_MIN or n in whole_maps for n in rows)
    assert runs[1] == runs[1 << 40]


def test_blocked_mlp_never_holds_the_hidden_map(monkeypatch):
    # With the default MLP ratio of 4 the attention part alone holds more than
    # four maps at once (the CPE sum, its norm, Q, K and V), so a ratio of 16
    # makes the hidden map the largest thing a whole-map MLP would hold:
    # 4096 tokens x 1536 channels, 24 MiB in f32, eight times MLP_BLOCK_BYTES.
    dims, c = (16, 16, 16), 96
    spec = StageSpec(channels=c, depth=1, patch_kernel=(1, 1, 1),
                     patch_stride=(1, 1, 1), reduction=(2, 8, 8), windows=((8, 8, 8),))
    monkeypatch.setattr(backbone, "MLP_RATIO", 16)
    cfg = ModelConfig(stages=(spec,), input_dims=dims)
    bw = init_model_weights(cfg, Rng(7)).stages[0].blocks[0]
    x = ClipTensor(Rng(8).normal(dims + (c,)).astype(np.float32))
    hidden_bytes = math.prod(dims) * bw.mlp_in.out_channels * 4
    assert hidden_bytes >= 8 * backbone.MLP_BLOCK_BYTES
    tracemalloc.start()
    try:
        stpt_block(x, bw)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < hidden_bytes, (peak, hidden_bytes)
