"""Feature pyramid geometry, head predictions, and candidate decode."""

import re

import numpy as np
import pytest

from stpt.backbone import backbone_forward, default_config, init_model_weights, toy_config
from stpt.errors import ConfigError, InputError, NumericError
from stpt.heads import (PYRAMID_CHANNELS, CoarsePrediction, DetectionCandidate,
                        DetectionConfig, FeaturePyramid, RefinedPrediction, _sample_level,
                        build_pyramid, coarse_segments, combine_scores, decode,
                        init_head_weights, predict_coarse, pyramid_lengths,
                        read_candidates, refine, refine_segment, write_candidates)
from stpt.tensor import ClipTensor, Rng, sigmoid, softplus


def test_default_pyramid_lengths_and_anchor_count():
    lengths = pyramid_lengths(default_config())
    assert lengths == [64, 32, 16, 8, 4, 2]
    assert sum(lengths) == 126


def test_toy_pyramid_lengths():
    assert pyramid_lengths(toy_config()) == [8, 4, 2, 1, 1, 1]


def test_detection_config_validation():
    with pytest.raises(ConfigError):
        DetectionConfig(num_classes=0)


def _toy_pipeline(seed=0, variant="LLGG"):
    cfg = toy_config(variant=variant)
    det = DetectionConfig(num_classes=5)
    w = init_model_weights(cfg, Rng(seed).child("model"))
    hw = init_head_weights(cfg, det, Rng(seed).child("head"))
    x = ClipTensor(Rng(seed).child("input").normal(cfg.input_dims + (3,)).astype(np.float32))
    out = backbone_forward(x, w, cfg)
    pyr = build_pyramid(out[-2:], hw, clip_frames=cfg.input_dims[0], fps=det.clip_fps)
    return cfg, det, hw, pyr


def test_build_pyramid_matches_predicted_lengths():
    cfg, det, hw, pyr = _toy_pipeline()
    assert [lv.shape[0] for lv in pyr.levels] == pyramid_lengths(cfg)
    assert all(lv.shape[1] == PYRAMID_CHANNELS for lv in pyr.levels)
    # Strides are frames per anchor and double (in ratio) down the pyramid.
    assert pyr.strides[0] == cfg.input_dims[0] / pyr.levels[0].shape[0]


def test_anchor_times_are_cell_centers():
    pyr = FeaturePyramid(levels=(np.zeros((4, 8)),), strides=(4.0,), fps=10.0)
    np.testing.assert_allclose(pyr.anchor_times(0), [0.2, 0.6, 1.0, 1.4])


def test_build_pyramid_rejects_wrong_stage_count():
    cfg, det, hw, pyr = _toy_pipeline()
    x = ClipTensor(np.zeros((8, 2, 2, 384), dtype=np.float32))
    with pytest.raises(ConfigError, match="stage maps"):
        build_pyramid((x,), hw, clip_frames=32, fps=10.0)


def test_build_pyramid_rejects_uncollapsed_spatial():
    cfg, det, hw, _ = _toy_pipeline()
    bad3 = ClipTensor(np.zeros((8, 3, 3, 384), dtype=np.float32))
    bad4 = ClipTensor(np.zeros((4, 2, 2, 768), dtype=np.float32))
    with pytest.raises(ConfigError, match="collapse"):
        build_pyramid((bad3, bad4), hw, clip_frames=32, fps=10.0)


def test_coarse_distances_are_positive():
    cfg, det, hw, pyr = _toy_pipeline()
    coarse = predict_coarse(pyr, hw)
    for m, d in enumerate(coarse.distances):
        assert d.shape == (pyr.levels[m].shape[0], 2)
        assert np.all(d > 0.0)
    for m, z in enumerate(coarse.cls_logits):
        assert z.shape == (pyr.levels[m].shape[0], det.num_classes)


def test_zero_features_give_softplus_floor_distances():
    # Zero-bias weights on zero features: raw localization logits are zero,
    # so every distance is softplus(0) scaled by the level's anchor spacing.
    cfg, det, hw, _ = _toy_pipeline()
    lengths = pyramid_lengths(cfg)
    levels = tuple(np.zeros((t, PYRAMID_CHANNELS), dtype=np.float32) for t in lengths)
    strides = tuple(cfg.input_dims[0] / t for t in lengths)
    pyr = FeaturePyramid(levels=levels, strides=strides, fps=det.clip_fps)
    coarse = predict_coarse(pyr, hw)
    for m, d in enumerate(coarse.distances):
        want = float(softplus(np.zeros(1))[0]) * strides[m] / det.clip_fps
        np.testing.assert_allclose(d, want, rtol=1e-6)
    for z in coarse.cls_logits:
        np.testing.assert_array_equal(z, 0.0)


def test_sample_level_matches_interp_oracle():
    rng = Rng(5)
    feat = rng.normal((7, 3))
    pos = np.array([-0.5, 0.0, 0.4, 2.7, 6.0, 8.2])
    got = _sample_level(feat, pos)
    grid = np.arange(7, dtype=float)
    for c in range(3):
        want = np.interp(np.clip(pos, 0, 6), grid, feat[:, c])
        np.testing.assert_allclose(got[:, c], want, rtol=1e-12)


def test_refine_segment_values():
    ts, te = refine_segment(np.array(10.0), np.array(20.0), np.array(0.2), np.array(0.0))
    assert float(ts) == 11.0
    assert float(te) == 20.0
    # Zero offsets reproduce the input boundaries bit for bit.
    bs, be = np.array([1.25, 3.5]), np.array([2.5, 9.0])
    rs, re = refine_segment(bs, be, np.zeros(2), np.zeros(2))
    np.testing.assert_array_equal(rs, bs)
    np.testing.assert_array_equal(re, be)


def test_combine_scores_value():
    got = combine_scores(np.array(0.8), np.array(0.6), np.array(0.5))
    assert float(got) == 0.5 * (0.8 + 0.6) * 0.5
    assert abs(float(got) - 0.35) < 1e-12


def _fake_single_level(t=2, k=3, stride=10.0, fps=10.0):
    return FeaturePyramid(levels=(np.zeros((t, 8)),), strides=(stride,), fps=fps)


def test_decode_zero_offsets_keep_coarse_segments():
    pyr = _fake_single_level()
    dist = np.array([[0.3, 0.5], [0.2, 0.2]])
    coarse = CoarsePrediction(cls_logits=(np.array([[2.0, -1.0], [0.0, 1.0]]),),
                              distances=(dist,))
    refined = RefinedPrediction(offsets=(np.zeros((2, 2)),),
                                cls_logits=(np.zeros((2, 2)),),
                                quality_logits=(np.zeros(2),))
    cands = decode(pyr, coarse, refined, video_id="v")
    segs = coarse_segments(pyr, coarse, 0)
    assert len(cands) == 2
    for i, c in enumerate(cands):
        assert c.t_start == segs[i, 0] and c.t_end == segs[i, 1]
        assert c.video_id == "v" and c.level == 0 and c.position == i
    # Class and score follow the combined per-class probabilities.
    assert cands[0].class_id == 0 and cands[1].class_id == 1
    want = combine_scores(sigmoid(np.array(2.0)), sigmoid(np.array(0.0)),
                          sigmoid(np.array(0.0)))
    assert cands[0].score == pytest.approx(float(want), rel=1e-12)


def test_decode_drops_degenerate_segments():
    pyr = _fake_single_level()
    coarse = CoarsePrediction(cls_logits=(np.zeros((2, 2)),),
                              distances=(np.array([[0.3, 0.5], [0.2, 0.2]]),))
    # First anchor's start is pushed past its end; second is untouched.
    refined = RefinedPrediction(offsets=(np.array([[2.5, 0.0], [0.0, 0.0]]),),
                                cls_logits=(np.zeros((2, 2)),),
                                quality_logits=(np.zeros(2),))
    cands = decode(pyr, coarse, refined)
    assert [c.position for c in cands] == [1]


def test_full_pipeline_decode():
    cfg, det, hw, pyr = _toy_pipeline(seed=3)
    coarse = predict_coarse(pyr, hw)
    refined = refine(pyr, coarse, hw)
    for m, off in enumerate(refined.offsets):
        assert off.shape == (pyr.levels[m].shape[0], 2)
        assert refined.cls_logits[m].shape[1] == det.num_classes
    cands = decode(pyr, coarse, refined, video_id="clip0")
    assert 0 < len(cands) <= sum(pyramid_lengths(cfg))
    for c in cands:
        assert c.t_start < c.t_end
        assert 0 <= c.class_id < det.num_classes
        assert 0.0 < c.score < 1.0
        assert c.video_id == "clip0"


def test_candidate_jsonl_roundtrip(tmp_path):
    cands = [DetectionCandidate(t_start=0.5, t_end=2.25, class_id=3, score=0.75,
                                level=1, position=4, video_id="a"),
             DetectionCandidate(t_start=1.0, t_end=1.5, class_id=0, score=0.25,
                                level=0, position=0, video_id="b")]
    path = tmp_path / "cands.jsonl"
    write_candidates(path, cands)
    assert read_candidates(path, 4) == cands


def test_read_candidates_error_reporting(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"t_start": 0.0, "t_end": 1.0, "class_id": 0, "score": 0.5}\nnot json\n')
    with pytest.raises(InputError, match=":2"):
        read_candidates(path, 20)
    path.write_text('{"t_start": 0.0}\n')
    with pytest.raises(InputError, match=":1"):
        read_candidates(path, 20)
    with pytest.raises(InputError, match="cannot read"):
        read_candidates(tmp_path / "missing.jsonl", 20)
    good = '{"t_start": 0.0, "t_end": 1.0, "class_id": 0, "score": 0.5}\n'
    for bad in ('{"t_start": NaN, "t_end": 1.0, "class_id": 0, "score": 0.5}',
                '{"t_start": 0.0, "t_end": Infinity, "class_id": 0, "score": 0.5}',
                '{"t_start": 0.0, "t_end": 1.0, "class_id": 0, "score": Infinity}',
                '{"t_start": 0.0, "t_end": 1.0, "class_id": 0, "score": NaN}',
                '{"t_start": 5.0, "t_end": 2.0, "class_id": 0, "score": 0.5}',
                '{"t_start": 2.0, "t_end": 2.0, "class_id": 0, "score": 0.5}',
                '[1, 2]',
                '"record"',
                'null',
                '{"t_start": null, "t_end": 1.0, "class_id": 0, "score": 0.5}',
                '{"t_start": 0.0, "t_end": 1.0, "class_id": 0, "score": 0.5, "level": null}',
                '{"t_start": 0.0, "t_end": 1.0, "class_id": 0, "score": 0.5, "level": Infinity}',
                '{"t_start": 0.0, "t_end": 1.0, "class_id": null, "score": 0.5}',
                '{"t_start": 0.0, "t_end": 1.0, "class_id": 20, "score": 0.5}',
                '{"t_start": 0.0, "t_end": 1.0, "class_id": -1, "score": 0.5}',
                '{"t_start": 0.0, "t_end": 1.0, "class_id": 1.5, "score": 0.5}',
                '{"t_start": 0.0, "t_end": 1.0, "class_id": 1.0, "score": 0.5}',
                '{"t_start": 0.0, "t_end": 1.0, "class_id": "1", "score": 0.5}',
                '{"t_start": 0.0, "t_end": 1.0, "class_id": true, "score": 0.5}',
                '{"t_start": "0.0", "t_end": 1.0, "class_id": 0, "score": 0.5}',
                '{"t_start": 0.0, "t_end": true, "class_id": 0, "score": 0.5}',
                '{"t_start": false, "t_end": 1.0, "class_id": 0, "score": 0.5}',
                '{"t_start": 0.0, "t_end": [1.0], "class_id": 0, "score": 0.5}',
                '{"t_start": 0.0, "t_end": 1.0, "class_id": 0, "score": "0.5"}',
                '{"t_start": 0.0, "t_end": 1.0, "class_id": 0, "score": true}',
                '{"t_start": 0.0, "t_end": 1.0, "class_id": 0, "score": 0.5, "level": 1.7}',
                '{"t_start": 0.0, "t_end": 1.0, "class_id": 0, "score": 0.5, "level": 1.0}',
                '{"t_start": 0.0, "t_end": 1.0, "class_id": 0, "score": 0.5, "level": -1}',
                '{"t_start": 0.0, "t_end": 1.0, "class_id": 0, "score": 0.5, "level": "2"}',
                '{"t_start": 0.0, "t_end": 1.0, "class_id": 0, "score": 0.5, "position": false}',
                '{"t_start": 0.0, "t_end": 1.0, "class_id": 0, "score": 0.5, "position": 2.5}',
                '{"t_start": 0.0, "t_end": 1.0, "class_id": 0, "score": 0.5, "position": -3}',
                '{"t_start": 0.0, "t_end": 1.0, "class_id": 0, "score": 0.5, "video_id": null}',
                '{"t_start": 0.0, "t_end": 1.0, "class_id": 0, "score": 0.5, "video_id": 7}',
                '{"t_start": 0.0, "t_end": 1.0, "class_id": 0, "score": 0.5, "video_id": ["v"]}'):
        path.write_text(good + bad + "\n")
        with pytest.raises(InputError, match=re.escape(f"{path}:2")):
            read_candidates(path, 20)
    path.write_text(good.replace('"class_id": 0', '"class_id": 19'))
    assert read_candidates(path, 20)[0].class_id == 19
    # JSON integers are numbers too; omitted level, position and video_id default.
    path.write_text('{"t_start": 0, "t_end": 2, "class_id": 1, "score": 1, "level": 3, '
                    '"position": 0, "video_id": "v"}\n' + good)
    a, b = read_candidates(path, 20)
    assert (a.t_start, a.t_end, a.score) == (0.0, 2.0, 1.0)
    assert (a.level, a.position, a.video_id) == (3, 0, "v")
    assert type(a.t_start) is float and type(a.t_end) is float and type(a.score) is float
    assert (b.level, b.position, b.video_id) == (0, 0, "clip")


@pytest.fixture(scope="module")
def toy_heads():
    cfg = toy_config()
    det = DetectionConfig(num_classes=5)
    w = init_model_weights(cfg, Rng(0).child("model"))
    hw = init_head_weights(cfg, det, Rng(0).child("head"))
    x = ClipTensor(Rng(0).child("input").normal(cfg.input_dims + (3,)).astype(np.float32))
    stages = backbone_forward(x, w, cfg)[-2:]
    return cfg, det, hw, stages


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("weight,label", [
    (lambda hw: hw.tower_cls[1].weight, "level0 coarse"),
    (lambda hw: hw.tower_loc[0].weight, "level0 coarse"),
    (lambda hw: hw.cls_head.weight, "level0 coarse"),
    (lambda hw: hw.loc_head.weight, "level0 coarse"),
    (lambda hw: hw.downs[1].weight, "level3 coarse"),
    (lambda hw: hw.refine_in.weight, "level0 refine"),
    (lambda hw: hw.refine_out.weight, "level0 refine"),
], ids=["tower_cls", "tower_loc", "cls_head", "loc_head", "downs1", "refine_in", "refine_out"])
def test_non_finite_head_weight_names_its_level(toy_heads, weight, label):
    cfg, det, hw, stages = toy_heads
    arr = weight(hw)
    saved = arr.flat[0]
    arr.flat[0] = np.inf
    try:
        with pytest.raises(NumericError, match=rf"^{label}: "):
            pyr = build_pyramid(stages, hw, clip_frames=cfg.input_dims[0], fps=det.clip_fps)
            refine(pyr, predict_coarse(pyr, hw), hw)
    finally:
        arr.flat[0] = saved
