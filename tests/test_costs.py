"""Analytic cost model: hand counts, scaling laws, and report consistency."""

import dataclasses
import math
from collections import defaultdict

import numpy as np
import pytest

from stpt import attention, backbone, tensor
from stpt.backbone import backbone_forward, default_config, init_model_weights, toy_config
from stpt.costs import AUX_FLOPS_PER_ELEMENT, attention_cost, model_cost
from stpt.errors import ConfigError
from stpt.heads import DetectionConfig
from stpt.tensor import ClipTensor, Rng


def test_attention_cost_validation():
    with pytest.raises(ConfigError, match="kind"):
        attention_cost((4, 4, 4), 8, 2, "windowed")
    with pytest.raises(ConfigError, match="window"):
        attention_cost((4, 4, 4), 8, 2, "local")


def test_global_attention_cost_hand_count():
    ac = attention_cost((4, 4, 4), 8, 2, "global", ratios=(2, 2, 2))
    n, c = 64, 8
    assert ac.qkv_macs == 3 * n * c * c
    assert ac.proj_macs == n * c * c
    assert ac.reduction_macs == 2 * 8 * c * 27  # 8 reduced positions, kernel 27
    assert ac.score_macs == 2 * n * 8 * c
    assert ac.softmax_elements == 2 * n * 8
    assert ac.params == 4 * (c * c + c) + 2 * (27 * c + c)
    assert ac.flops == 2 * ac.total_macs + AUX_FLOPS_PER_ELEMENT * ac.softmax_elements


def test_local_attention_cost_hand_count():
    ac = attention_cost((5, 4, 4), 8, 1, "local", window=(4, 4, 4), ratios=(2, 2, 2))
    c = 8
    n = 5 * 4 * 4
    nw = 2  # ceil(5/4) windows along time
    padded_positions = 8 * 4 * 4
    red_positions = padded_positions // 8
    red_win = 2 * 2 * 2
    rows = nw * 64
    assert ac.qkv_macs == 3 * n * c * c  # projections run on the true map
    assert ac.reduction_macs == 2 * red_positions * c * 27
    assert ac.score_macs == 2 * rows * red_win * c
    assert ac.softmax_elements == rows * red_win


def test_local_attention_pays_for_padding():
    # A (5, 4, 4) map pads to (8, 4, 4): all window work matches the padded map.
    small = attention_cost((5, 4, 4), 8, 2, "local", window=(4, 4, 4), ratios=(2, 2, 2))
    full = attention_cost((8, 4, 4), 8, 2, "local", window=(4, 4, 4), ratios=(2, 2, 2))
    assert small.score_macs == full.score_macs
    assert small.reduction_macs == full.reduction_macs
    assert small.softmax_elements == full.softmax_elements
    # Only the dense projections see the true token count.
    assert small.qkv_macs * 128 == full.qkv_macs * 80


def test_doubling_divisible_extent_doubles_local_cost():
    a = attention_cost((8, 4, 4), 16, 2, "local", window=(4, 4, 4), ratios=(2, 2, 2))
    b = attention_cost((16, 4, 4), 16, 2, "local", window=(4, 4, 4), ratios=(2, 2, 2))
    assert b.total_macs == 2 * a.total_macs
    assert b.softmax_elements == 2 * a.softmax_elements
    assert b.flops == 2 * a.flops


def test_full_window_local_cost_equals_global():
    dims = (8, 4, 4)
    loc = attention_cost(dims, 8, 2, "local", window=dims, ratios=(2, 2, 2))
    glo = attention_cost(dims, 8, 2, "global", ratios=(2, 2, 2))
    assert loc == glo


def test_report_lines_are_consistent():
    report = model_cost(default_config(), DetectionConfig())
    assert report.total_flops == (2 * report.total_macs
                                  + AUX_FLOPS_PER_ELEMENT * report.total_aux_elements)
    stage_sum: dict[str, dict[str, int]] = {}
    for ln in report.lines:
        acc = stage_sum.setdefault(ln.stage, {"flops": 0, "params": 0})
        acc["flops"] += ln.flops
        acc["params"] += ln.params
    assert sum(v["flops"] for v in stage_sum.values()) == report.total_flops
    assert sum(v["params"] for v in stage_sum.values()) == report.total_params
    for ln in report.lines:
        assert ln.flops == 2 * ln.macs + AUX_FLOPS_PER_ELEMENT * ln.aux_elements


def test_render_csv_totals_agree():
    report = model_cost(default_config(variant="LLGG"), DetectionConfig())
    rows = report.render_csv().splitlines()
    assert rows[0].split(",") == ["stage", "unit", "part", "macs", "aux_elements",
                                  "flops", "params"]
    body = [r.split(",") for r in rows[1:-1]]
    total = rows[-1].split(",")
    assert sum(int(r[5]) for r in body) == int(total[5]) == report.total_flops
    assert sum(int(r[3]) for r in body) == int(total[3]) == report.total_macs
    text = report.render_text()
    assert text.splitlines()[-1].startswith("total")


def test_dropping_a_block_removes_exactly_its_lines():
    cfg = default_config()
    shallower = dataclasses.replace(cfg.stages[2], depth=10)
    cfg2 = dataclasses.replace(cfg, stages=cfg.stages[:2] + (shallower, cfg.stages[3]))
    full = model_cost(cfg, DetectionConfig())
    less = model_cost(cfg2, DetectionConfig())
    dropped = [ln for ln in full.lines if ln.stage == "stage3" and ln.unit == "block10"]
    assert dropped
    assert full.total_flops - less.total_flops == sum(ln.flops for ln in dropped)
    assert full.total_params - less.total_params == sum(ln.params for ln in dropped)


def test_cpe_delta_is_exactly_the_depthwise_convs():
    det = DetectionConfig()
    on = model_cost(default_config(cpe_enabled=True), det)
    off = model_cost(default_config(cpe_enabled=False), det)
    cfg = default_config()
    want_macs = sum(spec.depth * math.prod(dims) * spec.channels * 27
                    for spec, dims in zip(cfg.stages, cfg.stage_dims()))
    assert on.total_macs - off.total_macs == want_macs
    assert on.total_aux_elements == off.total_aux_elements


def test_variant_cost_ordering():
    det = DetectionConfig()
    totals = {v: model_cost(default_config(variant=v), det).total_flops
              for v in ("LLLL", "LLLG", "LLGG", "LGGG", "GGGG")}
    assert totals["LLLL"] < totals["LLLG"] < totals["LLGG"] < totals["LGGG"] < totals["GGGG"]
    ratio = totals["GGGG"] / totals["LLGG"]
    assert 1.504 * 0.9 <= ratio <= 1.504 * 1.1


def test_temporal_window_sweep_is_flat():
    det = DetectionConfig()
    sweep = [(1, 1, 1), (4, 4, 4), (8, 8, 8), (8, 8, 16), (16, 16, 16)]
    totals = [model_cost(default_config(cpe_enabled=False, lsta_temporal=s), det).total_flops
              for s in sweep]
    assert totals == sorted(totals)
    spread = (max(totals) - min(totals)) / min(totals)
    assert spread < 0.01


def test_parameter_count_scale():
    report = model_cost(default_config(), DetectionConfig())
    assert 50e6 < report.total_params < 56e6


def test_head_cost_optional():
    with_head = model_cost(default_config(), DetectionConfig())
    without = model_cost(default_config())
    assert with_head.total_flops > without.total_flops
    assert not any(ln.stage in ("pyramid", "head") for ln in without.lines)
    assert any(ln.stage == "head" for ln in with_head.lines)


@pytest.mark.parametrize("variant", ["LLLL", "LLLG", "LLGG", "LGGG", "GGGG"])
def test_runtime_work_matches_model_cost(monkeypatch, variant):
    """Every backbone line of model_cost equals the work one forward really does.

    MACs come from the shapes passed to linear and conv3d, plus the attention
    score and value products, which run as plain matmuls: each softmax entry
    costs one MAC per head channel in Q.K and one more in the product with V.
    Aux elements come from layer_norm, gelu and softmax. Calls are keyed by the
    (stage, unit, part) of the patch embedding or block that makes them.
    """
    cfg = toy_config(variant=variant)
    weights = init_model_weights(cfg, Rng(0))
    labels = {}
    for si, sw in enumerate(weights.stages):
        labels[id(sw.embed)] = (f"stage{si + 1}", "embed")
        for bi, bw in enumerate(sw.blocks):
            labels[id(bw)] = (f"stage{si + 1}", f"block{bi}")
    scope = []  # (stage, unit) of the running embed or block, then the attention params
    counted = defaultdict(lambda: [0, 0])

    def enter(fn, note):
        def wrapper(*args, **kwargs):
            scope.append(note(args))
            try:
                return fn(*args, **kwargs)
            finally:
                scope.pop()
        return wrapper

    def count(fn, block_part, work):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            (stage, unit), attn = scope[0], scope[1] if len(scope) > 1 else None
            part = "conv" if unit == "embed" else "attention" if attn else block_part
            macs, aux = work(args, out, attn)
            counted[(stage, unit, part)][0] += macs
            counted[(stage, unit, part)][1] += aux
            return out
        return wrapper

    kernels = {
        "linear": ("mlp", lambda a, out, p: (math.prod(a[0].shape[:-1]) * a[1].weight.size, 0)),
        "conv3d": ("cpe", lambda a, out, p: (math.prod(out.dims) * a[1].weight.size, 0)),
        "layer_norm": ("norm", lambda a, out, p: (0, a[0].size)),
        "gelu": ("mlp", lambda a, out, p: (0, a[0].size)),
        "softmax": (None, lambda a, out, p: (2 * a[0].size * (p.channels // p.heads),
                                             a[0].size)),
    }
    for name, (part, work) in kernels.items():
        wrapped = count(getattr(tensor, name), part, work)
        for mod in (tensor, backbone, attention):
            if name in vars(mod):
                monkeypatch.setattr(mod, name, wrapped)
    for name in ("patch_embed", "stpt_block"):
        monkeypatch.setattr(backbone, name,
                            enter(getattr(backbone, name), lambda a: labels[id(a[1])]))
    for name in ("lsta_forward", "gsta_forward"):
        monkeypatch.setattr(backbone, name, enter(getattr(backbone, name), lambda a: a[1]))

    dtype = np.float32 if cfg.dtype == "f32" else np.float64
    clip = ClipTensor(Rng(1).normal(cfg.input_dims + (cfg.in_channels,)).astype(dtype))
    backbone_forward(clip, weights, cfg)

    expected = {(ln.stage, ln.unit, ln.part): [ln.macs, ln.aux_elements]
                for ln in model_cost(cfg).lines}
    assert dict(counted) == expected
