"""Soft suppression, AP, and the synthetic closure loop."""

import math
import re

import numpy as np
import pytest

from stpt.errors import ConfigError, InputError
from stpt.evaluation import (EvalConfig, GroundTruthInstance, average_precision,
                             eval_profile, evaluate, oracle_predictions,
                             read_ground_truth, render_map_table, soft_nms,
                             synth_dataset, tiou, write_ground_truth)
from stpt.heads import DetectionCandidate
from stpt.tensor import Rng


def _cand(ts, te, score, cls=0, vid="v", pos=0):
    return DetectionCandidate(t_start=ts, t_end=te, class_id=cls, score=score,
                              level=0, position=pos, video_id=vid)


def test_tiou_basic():
    assert tiou((0.0, 2.0), (0.0, 2.0)) == 1.0
    assert tiou((0.0, 1.0), (2.0, 3.0)) == 0.0
    assert tiou((0.0, 2.0), (1.0, 3.0)) == pytest.approx(1.0 / 3.0)
    assert tiou((1.0, 3.0), (0.0, 2.0)) == pytest.approx(1.0 / 3.0)
    assert tiou((1.0, 1.0), (1.0, 1.0)) == 0.0  # degenerate, empty union


def _naive_soft_nms(cands, mode, threshold, sigma):
    # Same process with plain Python floats and explicit comparisons.
    scores = [float(c.score) for c in cands]
    alive = list(range(len(cands)))
    picked = []
    while alive:
        best = alive[0]
        for i in alive[1:]:
            better = (scores[i] > scores[best]
                      or (scores[i] == scores[best]
                          and (cands[i].t_start < cands[best].t_start
                               or (cands[i].t_start == cands[best].t_start and i < best))))
            if better:
                best = i
        alive.remove(best)
        picked.append((best, scores[best]))
        for i in alive:
            ov = tiou((cands[i].t_start, cands[i].t_end),
                      (cands[best].t_start, cands[best].t_end))
            if mode == "linear":
                if ov > threshold:
                    scores[i] = scores[i] * (1.0 - ov)
            else:
                scores[i] = scores[i] * math.exp(-(ov * ov) / sigma)
    return picked


@pytest.mark.parametrize("mode", ["linear", "gaussian"])
@pytest.mark.parametrize("seed", range(6))
def test_soft_nms_matches_naive(mode, seed):
    rng = Rng(seed)
    n = 2 + int(rng.child("n").integers(0, 9))
    cands = []
    for i in range(n):
        t0 = float(rng.child(f"t{i}").uniform((), 0.0, 8.0))
        ln = float(rng.child(f"l{i}").uniform((), 0.5, 4.0))
        sc = round(float(rng.child(f"s{i}").uniform((), 0.05, 1.0)), 2)
        cands.append(_cand(t0, t0 + ln, sc, pos=i))
    got = soft_nms(cands, mode=mode, threshold=0.4, sigma=0.6)
    want = _naive_soft_nms(cands, mode, 0.4, 0.6)
    assert [c.position for c in got] == [i for i, _ in want]
    np.testing.assert_allclose([c.score for c in got], [s for _, s in want],
                               rtol=0, atol=1e-12)


def test_soft_nms_linear_threshold_gate():
    a = _cand(0.0, 2.0, 0.9, pos=0)
    b = _cand(1.0, 3.0, 0.8, pos=1)  # overlap 1/3
    kept = soft_nms([a, b], mode="linear", threshold=0.5)
    assert [c.score for c in kept] == [0.9, 0.8]
    kept = soft_nms([a, b], mode="linear", threshold=0.2)
    assert kept[1].score == pytest.approx(0.8 * (1.0 - 1.0 / 3.0), rel=1e-12)


def test_soft_nms_gaussian_always_decays():
    a = _cand(0.0, 2.0, 0.9, pos=0)
    b = _cand(1.0, 3.0, 0.8, pos=1)
    c = _cand(10.0, 12.0, 0.5, pos=2)  # disjoint: no decay
    kept = soft_nms([a, b, c], mode="gaussian", sigma=0.5)
    assert kept[0].score == 0.9
    decayed = 0.8 * math.exp(-((1.0 / 3.0) ** 2) / 0.5)
    assert kept[1].score == pytest.approx(decayed, rel=1e-12)
    assert kept[2].score == 0.5


def test_soft_nms_output_scores_monotone():
    rng = Rng(42)
    cands = [_cand(float(rng.child(f"t{i}").uniform((), 0, 5)),
                   float(rng.child(f"t{i}").uniform((), 0, 5)) + 2.0,
                   float(rng.child(f"s{i}").uniform((), 0.1, 1.0)), pos=i)
             for i in range(8)]
    for mode in ("linear", "gaussian"):
        kept = soft_nms(cands, mode=mode)
        scores = [c.score for c in kept]
        assert scores == sorted(scores, reverse=True)
        assert sorted(c.position for c in kept) == list(range(8))


def test_soft_nms_tie_breaks():
    a = _cand(2.0, 3.0, 0.7, pos=0)
    b = _cand(1.0, 2.0, 0.7, pos=1)  # same score, earlier start wins
    kept = soft_nms([a, b], mode="linear")
    assert [c.position for c in kept] == [1, 0]
    c1 = _cand(1.0, 2.0, 0.7, pos=0)
    c2 = _cand(1.0, 2.0, 0.7, pos=1)  # full tie: input order
    kept = soft_nms([c1, c2], mode="gaussian")
    assert [c.position for c in kept] == [0, 1]


def test_soft_nms_mode_validation():
    with pytest.raises(ConfigError):
        soft_nms([], mode="hard")


def test_average_precision_hand_cases():
    gt = [("v", 2.0, 3.0)]
    assert average_precision([("v", 2.0, 3.0, 0.9)], gt, 0.5) == 1.0
    # High-scoring false positive before the hit halves the envelope.
    preds = [("v", 0.0, 1.0, 0.9), ("v", 2.0, 3.0, 0.8)]
    assert average_precision(preds, gt, 0.5) == pytest.approx(0.5)
    # False positive after the hit costs nothing.
    preds = [("v", 2.0, 3.0, 0.9), ("v", 0.0, 1.0, 0.8)]
    assert average_precision(preds, gt, 0.5) == 1.0
    # A duplicate of an already-matched instance is a false positive.
    preds = [("v", 2.0, 3.0, 0.9), ("v", 2.0, 3.0, 0.8)]
    assert average_precision(preds, gt, 0.5) == 1.0
    assert average_precision([], gt, 0.5) == 0.0
    with pytest.raises(ConfigError):
        average_precision(preds, [], 0.5)


def test_average_precision_threshold_and_video_scoping():
    gt = [("a", 0.0, 2.0)]
    # Overlap 1/3 fails a 0.5 threshold but passes 0.3.
    pred = [("a", 1.0, 3.0, 0.9)]
    assert average_precision(pred, gt, 0.5) == 0.0
    assert average_precision(pred, gt, 0.3) == 1.0
    # Identical segment in another video never matches.
    assert average_precision([("b", 0.0, 2.0, 0.9)], gt, 0.5) == 0.0


def test_average_precision_matches_best_overlap():
    gts = [("v", 0.0, 4.0), ("v", 3.0, 5.0)]
    # The prediction overlaps both; it must consume the higher-tIoU instance.
    preds = [("v", 2.9, 5.1, 0.9), ("v", 0.0, 4.0, 0.8)]
    assert average_precision(preds, gts, 0.5) == 1.0


def test_eval_profiles():
    th = eval_profile("thumos")
    assert th.thresholds == (0.3, 0.4, 0.5, 0.6, 0.7)
    assert th.nms_threshold == 0.5
    an = eval_profile("anet")
    assert len(an.thresholds) == 10
    assert an.thresholds[0] == 0.5 and an.thresholds[-1] == 0.95
    assert an.display_thresholds == (0.5, 0.75, 0.95)
    assert an.nms_threshold == 0.85
    with pytest.raises(ConfigError):
        eval_profile("charades")
    with pytest.raises(ConfigError):
        EvalConfig(thresholds=(0.5,), display_thresholds=(0.5,), nms_mode="hard")


@pytest.mark.parametrize("profile", ["thumos", "anet"])
def test_closure_zero_jitter_is_perfect(profile):
    gts = synth_dataset(Rng(0), n_videos=3, n_classes=4, instances_per_video=4)
    preds = oracle_predictions(gts, Rng(1), jitter=0.0)
    result = evaluate(preds, gts, eval_profile(profile))
    assert result.average_map == 1.0
    assert all(v == 1.0 for v in result.map_per_threshold.values())
    assert result.excluded_classes == ()


def test_closure_jitter_strictly_decreases():
    gts = synth_dataset(Rng(10), n_videos=3, n_classes=4, instances_per_video=4)
    cfg = eval_profile("anet")
    for seed in range(5):
        noisy = oracle_predictions(gts, Rng(100 + seed), jitter=0.1)
        result = evaluate(noisy, gts, cfg)
        assert result.average_map < 1.0


def test_evaluate_excludes_unlabeled_classes():
    gts = [GroundTruthInstance(video_id="v", t_start=1.0, t_end=2.0, class_id=0)]
    preds = [_cand(1.0, 2.0, 0.9, cls=0), _cand(3.0, 4.0, 0.8, cls=9)]
    result = evaluate(preds, gts, eval_profile("thumos"))
    assert result.excluded_classes == (9,)
    assert result.average_map == 1.0


def test_evaluate_top_k_limits_recall():
    gts = [GroundTruthInstance(video_id="v", t_start=1.0, t_end=2.0, class_id=0),
           GroundTruthInstance(video_id="v", t_start=5.0, t_end=6.0, class_id=0)]
    preds = [_cand(1.0, 2.0, 0.9, cls=0, pos=0), _cand(5.0, 6.0, 0.8, cls=0, pos=1)]
    cfg = EvalConfig(thresholds=(0.5,), display_thresholds=(0.5,), top_k=1)
    result = evaluate(preds, gts, cfg)
    assert result.average_map == 0.5
    full = evaluate(preds, gts, EvalConfig(thresholds=(0.5,), display_thresholds=(0.5,)))
    assert full.average_map == 1.0


def test_evaluate_nms_can_be_skipped():
    gts = synth_dataset(Rng(6), n_videos=2, n_classes=3, instances_per_video=3)
    preds = oracle_predictions(gts, Rng(7), jitter=0.0)
    raw = evaluate(preds, gts, eval_profile("anet"), apply_nms=False)
    assert raw.average_map == 1.0


def test_render_map_table():
    gts = synth_dataset(Rng(8), n_videos=2, n_classes=2, instances_per_video=3)
    preds = oracle_predictions(gts, Rng(9), jitter=0.0)
    result = evaluate(preds, gts, eval_profile("anet"))
    text = render_map_table(result)
    lines = text.splitlines()
    assert lines[0].split() == ["tIoU", "mAP"]
    assert len(lines) == 1 + 3 + 1  # header, display rows, average
    assert lines[-1].split() == ["Avg", "100.00"]


def test_synth_dataset_layout():
    gts = synth_dataset(Rng(5), n_videos=3, n_classes=4, instances_per_video=5)
    assert len(gts) == 15
    by_video = {}
    for g in gts:
        by_video.setdefault(g.video_id, []).append(g)
        assert 0 <= g.class_id < 4
        assert g.t_end > g.t_start
    assert len(by_video) == 3
    for segs in by_video.values():
        for a, b in zip(segs, segs[1:]):
            assert b.t_start > a.t_end  # strictly separated, in order
    # Same seed reproduces the dataset exactly.
    again = synth_dataset(Rng(5), n_videos=3, n_classes=4, instances_per_video=5)
    assert gts == again


def test_oracle_predictions_jitter_behavior():
    gts = synth_dataset(Rng(11), n_videos=2, n_classes=3, instances_per_video=4)
    exact = oracle_predictions(gts, Rng(12), jitter=0.0)
    for p, g in zip(exact, gts):
        assert (p.t_start, p.t_end, p.class_id, p.video_id) == \
            (g.t_start, g.t_end, g.class_id, g.video_id)
        assert 0.5 <= p.score <= 1.0
    noisy = oracle_predictions(gts, Rng(12), jitter=0.1)
    assert any(p.t_start != g.t_start for p, g in zip(noisy, gts))
    assert all(p.t_end > p.t_start for p in noisy)


def test_ground_truth_jsonl_roundtrip(tmp_path):
    gts = synth_dataset(Rng(13), n_videos=2, n_classes=3, instances_per_video=2)
    path = tmp_path / "gt.jsonl"
    write_ground_truth(path, gts)
    assert read_ground_truth(path, 3) == gts
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"video_id": "v", "t_start": 0.0, "t_end": 1.0}\n')
    with pytest.raises(InputError, match=":1"):
        read_ground_truth(bad, 3)
    with pytest.raises(InputError, match="cannot read"):
        read_ground_truth(tmp_path / "nope.jsonl", 3)


@pytest.mark.parametrize("t_start,t_end", [("NaN", "1.0"), ("0.0", "Infinity"),
                                           ("-Infinity", "1.0"), ("5.0", "2.0"),
                                           ("2.0", "2.0")])
def test_read_ground_truth_rejects_bad_segments(tmp_path, t_start, t_end):
    path = tmp_path / "gt.jsonl"
    path.write_text('{"video_id": "v", "t_start": 0.0, "t_end": 1.0, "class_id": 0}\n'
                    f'{{"video_id": "v", "t_start": {t_start}, "t_end": {t_end}, "class_id": 0}}\n')
    with pytest.raises(InputError, match=re.escape(f"{path}:2")):
        read_ground_truth(path, 20)


@pytest.mark.parametrize("record", [
    '[1, 2]', '"v"', '7', 'null',
    '{"video_id": "v", "t_start": null, "t_end": 1.0, "class_id": 0}',
    '{"video_id": "v", "t_start": 0.0, "t_end": 1.0, "class_id": null}',
    '{"video_id": "v", "t_start": 0.0, "t_end": 1.0, "class_id": -4}',
    '{"video_id": "v", "t_start": 0.0, "t_end": 1.0, "class_id": 20}',
    '{"video_id": "v", "t_start": 0.0, "t_end": 1.0, "class_id": 1.5}',
    '{"video_id": "v", "t_start": 0.0, "t_end": 1.0, "class_id": false}',
    '{"video_id": "v", "t_start": "0.0", "t_end": 1.0, "class_id": 0}',
    '{"video_id": "v", "t_start": 0.0, "t_end": true, "class_id": 0}',
    '{"video_id": "v", "t_start": false, "t_end": 1.0, "class_id": 0}',
    '{"video_id": "v", "t_start": 0.0, "t_end": {"s": 1}, "class_id": 0}',
    '{"video_id": null, "t_start": 0.0, "t_end": 1.0, "class_id": 0}',
    '{"video_id": 3, "t_start": 0.0, "t_end": 1.0, "class_id": 0}',
    '{"video_id": true, "t_start": 0.0, "t_end": 1.0, "class_id": 0}',
    '{"t_start": 0.0, "t_end": 1.0, "class_id": 0}',
])
def test_read_ground_truth_rejects_bad_records(tmp_path, record):
    path = tmp_path / "gt.jsonl"
    path.write_text('{"video_id": "v", "t_start": 0.0, "t_end": 1.0, "class_id": 19}\n'
                    + record + "\n")
    with pytest.raises(InputError, match=re.escape(f"{path}:2")):
        read_ground_truth(path, 20)


def test_read_ground_truth_takes_integer_times_as_floats(tmp_path):
    path = tmp_path / "gt.jsonl"
    path.write_text('{"video_id": "v", "t_start": 0, "t_end": 3, "class_id": 2}\n')
    (gt,) = read_ground_truth(path, 20)
    assert (gt.video_id, gt.t_start, gt.t_end, gt.class_id) == ("v", 0.0, 3.0, 2)
    assert type(gt.t_start) is float and type(gt.t_end) is float
