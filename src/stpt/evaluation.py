"""Soft-NMS, average precision, and the synthetic closure harness.

Matching and interpolation follow the usual temporal detection conventions:
greedy score-ordered matching with each ground-truth instance usable once, and
all-point interpolated AP (precision envelope from the right, summed over
recall steps).
"""

from __future__ import annotations

import dataclasses
import json
from collections import defaultdict
from pathlib import Path

import numpy as np

from .errors import ConfigError, InputError
from .heads import (_RECORD_ERRORS, DetectionCandidate, _check_segment, _class_id, _number,
                    _text)
from .tensor import Rng


def tiou(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Temporal intersection over union of two [start, end) segments."""
    inter = max(0.0, min(a[1], b[1]) - max(a[0], b[0]))
    union = (a[1] - a[0]) + (b[1] - b[0]) - inter
    return inter / union if union > 0 else 0.0


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
        if not (self.nms_sigma > 0.0):
            raise ConfigError(f"nms_sigma must be positive, got {self.nms_sigma}")


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
    """Iteratively select the top candidate and decay the overlapping rest.

    Linear mode decays s <- s * (1 - tIoU) when tIoU exceeds the threshold;
    gaussian mode decays every remaining candidate by exp(-tIoU^2 / sigma).
    All candidates are returned, rescored, in selection (descending) order.
    Ties on score break toward the earlier t_start, then input order.
    """
    if mode not in ("linear", "gaussian"):
        raise ConfigError(f"soft_nms mode must be linear or gaussian, got {mode!r}")
    scores = np.array([c.score for c in cands], dtype=np.float64)
    alive = list(range(len(cands)))
    out = []
    while alive:
        best = min(alive, key=lambda i: (-scores[i], cands[i].t_start, i))
        alive.remove(best)
        out.append(dataclasses.replace(cands[best], score=float(scores[best])))
        seg_b = (cands[best].t_start, cands[best].t_end)
        for i in alive:
            ov = tiou((cands[i].t_start, cands[i].t_end), seg_b)
            if mode == "linear":
                if ov > threshold:
                    scores[i] *= 1.0 - ov
            else:
                scores[i] *= np.exp(-(ov ** 2) / sigma)
    return out


def average_precision(preds: list[tuple[str, float, float, float]],
                      gts: list[tuple[str, float, float]],
                      threshold: float) -> float:
    """AP for one class. preds are (video_id, t_start, t_end, score).

    Predictions are visited by descending score (earlier start, then input
    order on ties); each matches the highest-tIoU unmatched instance in its
    video and counts as a true positive when that tIoU reaches the threshold.
    """
    if not gts:
        raise ConfigError("average_precision needs at least one ground-truth instance")
    if not preds:
        return 0.0
    order = sorted(range(len(preds)), key=lambda i: (-preds[i][3], preds[i][1], i))
    gt_by_video: dict[str, list[int]] = defaultdict(list)
    for j, g in enumerate(gts):
        gt_by_video[g[0]].append(j)
    used = np.zeros(len(gts), dtype=bool)
    tp = np.zeros(len(preds))
    fp = np.zeros(len(preds))
    for rank, i in enumerate(order):
        vid, ps, pe, _ = preds[i]
        best_j, best_ov = -1, 0.0
        for j in gt_by_video.get(vid, ()):
            if used[j]:
                continue
            ov = tiou((ps, pe), (gts[j][1], gts[j][2]))
            if ov > best_ov:
                best_ov, best_j = ov, j
        if best_j >= 0 and best_ov >= threshold:
            used[best_j] = True
            tp[rank] = 1
        else:
            fp[rank] = 1
    tp_cum = np.cumsum(tp)
    fp_cum = np.cumsum(fp)
    rec = tp_cum / len(gts)
    prec = tp_cum / np.maximum(tp_cum + fp_cum, 1e-12)
    mrec = np.hstack([[0.0], rec, [1.0]])
    mprec = np.hstack([[0.0], prec, [0.0]])
    for i in range(len(mprec) - 2, -1, -1):
        mprec[i] = max(mprec[i], mprec[i + 1])
    idx = np.where(mrec[1:] != mrec[:-1])[0] + 1
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
    groups: dict[tuple[str, int], list[DetectionCandidate]] = defaultdict(list)
    for c in preds:
        groups[(c.video_id, c.class_id)].append(c)
    by_video: dict[str, list[DetectionCandidate]] = defaultdict(list)
    for (vid, _), cs in sorted(groups.items()):
        if apply_nms:
            cs = soft_nms(cs, mode=cfg.nms_mode, threshold=cfg.nms_threshold,
                          sigma=cfg.nms_sigma)
        by_video[vid].extend(cs)
    surviving: list[DetectionCandidate] = []
    for vid in sorted(by_video):
        cs = sorted(by_video[vid], key=lambda c: (-c.score, c.t_start, c.class_id))
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
    try:
        lines = Path(path).read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"read_ground_truth: cannot read {path}: {exc}") from exc
    for ln, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            d = json.loads(line)
            gt = GroundTruthInstance(video_id=_text(d["video_id"], "video_id"),
                                     t_start=_number(d["t_start"], "t_start"),
                                     t_end=_number(d["t_end"], "t_end"),
                                     class_id=_class_id(d["class_id"], num_classes))
            _check_segment(gt.t_start, gt.t_end)
            out.append(gt)
        except _RECORD_ERRORS as exc:
            raise InputError(f"read_ground_truth: bad record at {path}:{ln}: {exc}") from exc
    return out
