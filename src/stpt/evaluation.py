"""tIoU (the package's only one), soft-NMS, average precision, synthetic closure.

Matching and interpolation follow the usual temporal detection conventions:
greedy score-ordered matching with each ground-truth instance usable once, and
all-point interpolated AP (precision envelope from the right, summed over
recall steps).
"""

from __future__ import annotations

import dataclasses
import json
from collections import defaultdict
from itertools import chain, groupby
from pathlib import Path

import numpy as np

from .errors import ConfigError, InputError
from .heads import (_RECORD_ERRORS, DetectionCandidate, _check_segment, _class_id,
                    _json_records, _number, _text)
from .tensor import Rng

# Rows of soft-NMS's tIoU table per `tiou` call: one call for the whole table
# would hold several n x n temporaries at once.
_NMS_TABLE_ROWS = 8


def _overlap(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Intersection and union lengths of [start, end) segments in the last axis."""
    inter = np.maximum(0.0, np.minimum(a[..., 1], b[..., 1]) - np.maximum(a[..., 0], b[..., 0]))
    return inter, (a[..., 1] - a[..., 0]) + (b[..., 1] - b[..., 0]) - inter


def tiou(a, b) -> np.ndarray:
    """Temporal IoU of broadcast (..., 2) segment arrays: inter / union, 0 if union <= 0."""
    inter, union = _overlap(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64))
    return np.divide(inter, union, out=np.zeros(np.shape(inter)), where=union > 0)


@dataclasses.dataclass(frozen=True)
class GroundTruthInstance:
    video_id: str
    t_start: float
    t_end: float
    class_id: int


@dataclasses.dataclass(frozen=True)
class EvalConfig:
    thresholds: tuple[float, ...]
    display_thresholds: tuple[float, ...]
    nms_mode: str = "linear"  # "linear" | "gaussian"
    nms_threshold: float = 0.5
    nms_sigma: float = 0.5
    top_k: int = 200

    def __post_init__(self):
        if self.nms_mode not in ("linear", "gaussian"):
            raise ConfigError(f"nms_mode must be linear or gaussian, got {self.nms_mode!r}")
        if not self.thresholds:
            raise ConfigError("at least one tIoU threshold is required")
        if not (self.top_k >= 1):
            raise ConfigError(f"top_k must be at least 1, got {self.top_k}")
        if not (0.0 <= self.nms_threshold <= 1.0):
            raise ConfigError(f"nms_threshold must lie in [0, 1], got {self.nms_threshold}")
        if not (0.0 < self.nms_sigma < np.inf):
            raise ConfigError(f"nms_sigma must be finite and positive, got {self.nms_sigma}")


def eval_profile(name: str) -> EvalConfig:
    if name == "thumos":
        ts = (0.3, 0.4, 0.5, 0.6, 0.7)
        return EvalConfig(thresholds=ts, display_thresholds=ts, nms_threshold=0.5)
    if name == "anet":
        ts = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))
        return EvalConfig(thresholds=ts, display_thresholds=(0.5, 0.75, 0.95),
                          nms_threshold=0.85)
    raise ConfigError(f"unknown eval profile {name!r}")


def soft_nms(cands: list[DetectionCandidate], mode: str = "linear",
             threshold: float = 0.5, sigma: float = 0.5) -> list[DetectionCandidate]:
    """Soft-NMS (Bodla et al., 2017): select the top candidate, decay the overlapping rest.

    Linear mode decays s <- s * (1 - tIoU) when tIoU exceeds the threshold;
    gaussian mode decays every remaining candidate by exp(-tIoU^2 / sigma).
    All candidates are returned, rescored, in selection (descending) order; a
    group of one is returned as it is. Ties on score break toward the earlier
    t_start, then input order: rows are kept in (t_start, input) order, so the
    first maximum score is the pick. Scores must be finite, as `read_candidates`
    and `decode` guarantee: a picked row is marked with -inf.

    The group's n x n tIoU table (n^2 * 8 bytes) is built once, `_NMS_TABLE_ROWS`
    rows per `tiou` call. Row k holds tIoU(row i, row k) from the same operands
    as a `tiou` against the pick k alone, and each decay is the same elementwise
    expression, so every score keeps the bits of a one-pick-at-a-time loop.
    Zeroing a picked column keeps later decays off its -inf score.
    """
    if mode not in ("linear", "gaussian"):
        raise ConfigError(f"soft_nms mode must be linear or gaussian, got {mode!r}")
    if len(cands) <= 1:
        return list(cands)
    cands = sorted(cands, key=lambda c: c.t_start)
    n = len(cands)
    seg = np.array([(c.t_start, c.t_end) for c in cands], dtype=np.float64)
    s = np.array([c.score for c in cands], dtype=np.float64)
    ov = np.empty((n, n))
    for i in range(0, n, _NMS_TABLE_ROWS):
        ov[i:i + _NMS_TABLE_ROWS] = tiou(seg[None, :, :], seg[i:i + _NMS_TABLE_ROWS, None, :])
    picked = []
    while True:
        k = int(s.argmax())
        picked.append((cands[k], float(s[k])))
        if len(picked) == n:
            break
        s[k] = -np.inf
        ov[:, k] = 0.0
        o = ov[k]
        if mode == "linear":
            s = np.where(o > threshold, s * (1.0 - o), s)
        else:
            # A tiny sigma overflows the quotient to inf; exp(-inf) = 0 is its limit.
            with np.errstate(over="ignore"):
                s *= np.exp(-(o ** 2) / sigma)
    # Positional construction takes half the time of `dataclasses.replace`.
    return [DetectionCandidate(c.t_start, c.t_end, c.class_id, sc, c.level, c.position, c.video_id)
            for c, sc in picked]


def average_precision(preds: list[tuple[str, float, float, float]],
                      gts: list[tuple[str, float, float]],
                      threshold: float) -> float:
    """AP for one class. preds are (video_id, t_start, t_end, score).

    Predictions are visited by descending score (earlier start, then input
    order on ties); each matches the highest-tIoU unmatched instance in its
    video (the earliest on ties) and counts as a true positive when that tIoU
    reaches the threshold, so only the pairs that reach it take part.
    """
    if not gts:
        raise ConfigError("average_precision needs at least one ground-truth instance")
    if not preds:
        return 0.0
    order = sorted(range(len(preds)), key=lambda i: (-preds[i][3], preds[i][1], i))
    vids, starts, ends, _ = zip(*preds)
    _, gt_starts, gt_ends = zip(*gts)
    gt_by_video: dict[str, list[int]] = defaultdict(list)
    for j, g in enumerate(gts):
        gt_by_video[g[0]].append(j)
    # One row per (rank, instance of the prediction's video), instances in input order.
    runs = [gt_by_video.get(vids[i], ()) for i in order]
    rank = np.repeat(np.arange(len(preds)), [len(run) for run in runs])
    gt = np.fromiter(chain.from_iterable(runs), np.intp, len(rank))
    ov = tiou(np.array((starts, ends)).T[np.array(order)[rank]],
              np.array((gt_starts, gt_ends)).T[gt])
    # Greedy over (rank, -tIoU, instance); a match also needs a positive overlap.
    hit = np.flatnonzero(ov >= threshold)
    tp = [0.0] * len(preds)
    used: set[int] = set()
    for r, _, j in sorted((r, -o, j) for r, o, j in zip(rank[hit].tolist(), ov[hit].tolist(),
                                                        gt[hit].tolist()) if o > 0):
        if not tp[r] and j not in used:
            used.add(j)
            tp[r] = 1.0
    tp_cum = np.cumsum(tp)
    prec = tp_cum / np.arange(1.0, len(preds) + 1)
    mrec = np.hstack([[0.0], tp_cum / len(gts), [1.0]])
    mprec = np.maximum.accumulate(np.hstack([[0.0], prec, [0.0]])[::-1])[::-1]
    idx = np.flatnonzero(mrec[1:] != mrec[:-1]) + 1
    return float(np.sum((mrec[idx] - mrec[idx - 1]) * mprec[idx]))


@dataclasses.dataclass(frozen=True)
class EvalResult:
    ap: dict[int, dict[float, float]]        # class -> threshold -> AP
    map_per_threshold: dict[float, float]
    average_map: float
    excluded_classes: tuple[int, ...]
    config: EvalConfig


def evaluate(preds: list[DetectionCandidate], gts: list[GroundTruthInstance],
             cfg: EvalConfig, apply_nms: bool = True) -> EvalResult:
    """Soft-NMS per video and class, per-video top-k, then per-class AP.

    Classes that appear only in predictions are excluded from the mean and
    reported. Results do not depend on the input ordering of predictions:
    groups are merged in sorted key order.
    """
    surviving: list[DetectionCandidate] = []
    # Groups in sorted (video, class) order, input order within a group (the sort is
    # stable). Top-k runs as soon as a video is rescored, so the candidates it drops
    # are freed before the next video's soft-NMS allocates.
    for _, video in groupby(sorted(preds, key=lambda c: (c.video_id, c.class_id)),
                            key=lambda c: c.video_id):
        cs: list[DetectionCandidate] = []
        for _, group in groupby(video, key=lambda c: c.class_id):
            cs.extend(soft_nms(list(group), mode=cfg.nms_mode, threshold=cfg.nms_threshold,
                               sigma=cfg.nms_sigma) if apply_nms else group)
        cs.sort(key=lambda c: (-c.score, c.t_start, c.class_id))
        surviving.extend(cs[:cfg.top_k])

    gt_classes = sorted({g.class_id for g in gts})
    pred_classes = {c.class_id for c in surviving}
    excluded = tuple(sorted(pred_classes - set(gt_classes)))

    ap: dict[int, dict[float, float]] = {}
    for cls in gt_classes:
        cls_preds = [(c.video_id, c.t_start, c.t_end, c.score)
                     for c in surviving if c.class_id == cls]
        cls_gts = [(g.video_id, g.t_start, g.t_end) for g in gts if g.class_id == cls]
        ap[cls] = {thr: average_precision(cls_preds, cls_gts, thr) for thr in cfg.thresholds}
    map_per_threshold = {
        thr: float(np.mean([ap[cls][thr] for cls in gt_classes])) if gt_classes else 0.0
        for thr in cfg.thresholds
    }
    average_map = float(np.mean(list(map_per_threshold.values())))
    return EvalResult(ap=ap, map_per_threshold=map_per_threshold,
                      average_map=average_map, excluded_classes=excluded, config=cfg)


def render_map_table(result: EvalResult) -> str:
    """Aligned text table: one row per display threshold plus the average."""
    lines = [f"{'tIoU':>8} {'mAP':>8}"]
    for thr in result.config.display_thresholds:
        lines.append(f"{thr:>8.2f} {100 * result.map_per_threshold[thr]:>8.2f}")
    lines.append(f"{'Avg':>8} {100 * result.average_map:>8.2f}")
    if result.excluded_classes:
        lines.append(f"excluded classes without ground truth: {list(result.excluded_classes)}")
    return "\n".join(lines)


def synth_dataset(rng: Rng, n_videos: int = 4, n_classes: int = 5,
                  instances_per_video: int = 5) -> list[GroundTruthInstance]:
    """Non-overlapping labeled segments laid out left to right per video."""
    gts = []
    for v in range(n_videos):
        vrng = rng.child(f"video{v}")
        t = float(vrng.uniform((), 1.0, 3.0))
        for i in range(instances_per_video):
            length = float(vrng.uniform((), 2.0, 6.0))
            gap = float(vrng.uniform((), 1.0, 3.0))
            cls = int(vrng.integers(0, n_classes))
            gts.append(GroundTruthInstance(video_id=f"v{v:03d}", t_start=round(t, 4),
                                           t_end=round(t + length, 4), class_id=cls))
            t += length + gap
    return gts


def oracle_predictions(gts: list[GroundTruthInstance], rng: Rng,
                       jitter: float = 0.0) -> list[DetectionCandidate]:
    """One candidate per instance with Gaussian boundary jitter.

    jitter is the standard deviation of the boundary noise as a fraction of
    the instance length; zero reproduces the ground truth exactly.
    """
    out = []
    for i, g in enumerate(gts):
        length = g.t_end - g.t_start
        ts, te = g.t_start, g.t_end
        if jitter > 0:
            ts += float(rng.child(f"s{i}").normal((), 0.0, jitter * length))
            te += float(rng.child(f"e{i}").normal((), 0.0, jitter * length))
            if te <= ts:
                ts, te = g.t_start, g.t_start + 0.05 * length
        score = float(rng.child(f"score{i}").uniform((), 0.5, 1.0))
        out.append(DetectionCandidate(t_start=ts, t_end=te, class_id=g.class_id,
                                      score=score, level=0, position=i,
                                      video_id=g.video_id))
    return out


def write_ground_truth(path: str | Path, gts: list[GroundTruthInstance]) -> None:
    with open(path, "w") as fh:
        for g in gts:
            fh.write(json.dumps(dataclasses.asdict(g), sort_keys=True) + "\n")


def read_ground_truth(path: str | Path, num_classes: int) -> list[GroundTruthInstance]:
    """Read write_ground_truth output; class ids must lie in [0, num_classes)."""
    out = []
    for ln, d in _json_records(path, "read_ground_truth"):
        try:
            gt = GroundTruthInstance(video_id=_text(d["video_id"], "video_id"),
                                     t_start=_number(d["t_start"], "t_start"),
                                     t_end=_number(d["t_end"], "t_end"),
                                     class_id=_class_id(d["class_id"], num_classes))
            _check_segment(gt.t_start, gt.t_end)
            out.append(gt)
        except _RECORD_ERRORS as exc:
            raise InputError(f"read_ground_truth: bad record at {path}:{ln}: {exc}") from exc
    return out
