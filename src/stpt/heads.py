"""Temporal feature pyramid and anchor-free detection heads.

The last two backbone stages are collapsed to 1x1 spatial extent by full-extent
3D convolutions, giving pyramid levels 1-2; four stride-2 temporal convolutions
extend the hierarchy to six levels. A tower shared across levels predicts, per
temporal position (anchor), class logits and positive start/end distances in
seconds. A refinement head samples pyramid features around the coarse
boundaries and predicts boundary offsets, a second set of class logits, and a
quality score; decode folds the two rounds into final candidates. Each level's
coarse and refined outputs are checked for non-finite values, naming the level
(`level0` is the first, as in a candidate's `level` field).
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import Callable

import numpy as np

from .backbone import ModelConfig, _init_conv, _init_linear
from .errors import ConfigError, InputError
from .tensor import (DTYPES, ClipTensor, Conv3DWeights, LinearWeights, Rng, check_finite, conv3d,
                     gelu, linear, sigmoid, softplus)


# Fixed by the architecture, not by the config.
PYRAMID_CHANNELS = 256  # channels of every pyramid level, tower and refinement layer
NUM_LEVELS = 6  # the two stage-fed levels, then four stride-2 temporal levels
TOWER_DEPTH = 2  # convolutions in each of the class and boundary towers


@dataclasses.dataclass(frozen=True)
class DetectionConfig:
    """The head settings a config file sets: class count and clip frame rate."""

    num_classes: int = 20
    clip_fps: float = 10.0

    def __post_init__(self):
        if self.num_classes < 1:
            raise ConfigError(f"num_classes must be positive, got {self.num_classes}")
        if not (0.0 < self.clip_fps < math.inf):
            raise ConfigError(f"fps must be finite and positive, got {self.clip_fps}")


def pyramid_lengths(model_cfg: ModelConfig) -> list[int]:
    """Level lengths implied by the config alone: the fed stages' temporal
    extents, then ceil halving."""
    t3, t4 = (d[0] for d in model_cfg.stage_dims()[-2:])
    lengths = [t3, t4]
    t = t4
    for _ in range(NUM_LEVELS - 2):
        t = math.ceil(t / 2)
        lengths.append(t)
    return lengths


@dataclasses.dataclass(frozen=True)
class FeaturePyramid:
    """Per-level (T_m, C') feature matrices with frame strides and the clip fps."""

    levels: tuple[np.ndarray, ...]
    strides: tuple[float, ...]
    fps: float

    def anchor_times(self, m: int) -> np.ndarray:
        """Anchor timestamps in seconds: centers of the level's stride cells."""
        t = self.levels[m].shape[0]
        return (np.arange(t) + 0.5) * self.strides[m] / self.fps


@dataclasses.dataclass(frozen=True)
class CoarsePrediction:
    cls_logits: tuple[np.ndarray, ...]   # (T_m, K) per level
    distances: tuple[np.ndarray, ...]    # (T_m, 2) seconds, positive


@dataclasses.dataclass(frozen=True)
class RefinedPrediction:
    offsets: tuple[np.ndarray, ...]        # (T_m, 2) dimensionless boundary offsets
    cls_logits: tuple[np.ndarray, ...]     # (T_m, K)
    quality_logits: tuple[np.ndarray, ...]  # (T_m,)


@dataclasses.dataclass(frozen=True)
class DetectionCandidate:
    t_start: float
    t_end: float
    class_id: int
    score: float
    level: int
    position: int
    video_id: str = "clip"


@dataclasses.dataclass(frozen=True)
class HeadWeights:
    collapse: tuple[Conv3DWeights, ...]   # one per stage-fed level
    downs: tuple[Conv3DWeights, ...]      # stride-2 temporal convs for the rest
    tower_cls: tuple[Conv3DWeights, ...]
    tower_loc: tuple[Conv3DWeights, ...]
    cls_head: Conv3DWeights
    loc_head: Conv3DWeights
    refine_in: LinearWeights
    refine_out: LinearWeights


def init_head_weights(model_cfg: ModelConfig, det_cfg: DetectionConfig, rng: Rng) -> HeadWeights:
    dtype = DTYPES[model_cfg.dtype]
    cp = PYRAMID_CHANNELS
    dims = model_cfg.stage_dims()[-2:]
    chans = [s.channels for s in model_cfg.stages[-2:]]
    collapse = tuple(
        _init_conv(rng.child(f"collapse{i}"), c, cp, (1, d[1], d[2]), (1, 1, 1),
                   (0, 0, 0), 1, dtype)
        for i, (d, c) in enumerate(zip(dims, chans))
    )
    downs = tuple(
        _init_conv(rng.child(f"down{i}"), cp, cp, (3, 1, 1), (2, 1, 1), (1, 0, 0), 1, dtype)
        for i in range(NUM_LEVELS - 2)
    )
    tower_cls = tuple(
        _init_conv(rng.child(f"tower_cls{i}"), cp, cp, (3, 1, 1), (1, 1, 1), (1, 0, 0), 1, dtype)
        for i in range(TOWER_DEPTH)
    )
    tower_loc = tuple(
        _init_conv(rng.child(f"tower_loc{i}"), cp, cp, (3, 1, 1), (1, 1, 1), (1, 0, 0), 1, dtype)
        for i in range(TOWER_DEPTH)
    )
    cls_head = _init_conv(rng.child("cls_head"), cp, det_cfg.num_classes, (3, 1, 1),
                          (1, 1, 1), (1, 0, 0), 1, dtype)
    loc_head = _init_conv(rng.child("loc_head"), cp, 2, (3, 1, 1), (1, 1, 1), (1, 0, 0), 1, dtype)
    refine_in = _init_linear(rng.child("refine_in"), 6 * cp, cp, dtype)
    refine_out = _init_linear(rng.child("refine_out"), cp, 2 + det_cfg.num_classes + 1, dtype)
    return HeadWeights(collapse=collapse, downs=downs, tower_cls=tower_cls,
                       tower_loc=tower_loc, cls_head=cls_head, loc_head=loc_head,
                       refine_in=refine_in, refine_out=refine_out)


def _as_temporal(x: np.ndarray) -> ClipTensor:
    return ClipTensor(x[:, None, None, :])


def build_pyramid(stage_maps: tuple[ClipTensor, ...], w: HeadWeights,
                  clip_frames: int, fps: float) -> FeaturePyramid:
    """Collapse the fed stage maps spatially, then extend temporally."""
    if len(stage_maps) != len(w.collapse):
        raise ConfigError(f"expected {len(w.collapse)} stage maps, got {len(stage_maps)}")
    levels = []
    for x, conv in zip(stage_maps, w.collapse):
        y = conv3d(x, conv)
        if y.dims[1] != 1 or y.dims[2] != 1:
            raise ConfigError(
                f"spatial extent {x.dims[1:]} not collapsed to 1 by kernel {conv.kernel}"
            )
        levels.append(gelu(y.data[:, 0, 0, :]))
    x = levels[-1]
    for conv in w.downs:
        prev_t = x.shape[0]
        x = gelu(conv3d(_as_temporal(x), conv).data[:, 0, 0, :])
        if x.shape[0] != math.ceil(prev_t / 2):
            raise ConfigError("temporal downsampling must halve (ceil) the level length")
        levels.append(x)
    strides = tuple(clip_frames / lv.shape[0] for lv in levels)
    return FeaturePyramid(levels=tuple(levels), strides=strides, fps=fps)


def _run_tower(x: np.ndarray, tower: tuple[Conv3DWeights, ...]) -> np.ndarray:
    for conv in tower:
        x = gelu(conv3d(_as_temporal(x), conv).data[:, 0, 0, :])
    return x


def predict_coarse(pyr: FeaturePyramid, w: HeadWeights) -> CoarsePrediction:
    """Shared-tower per-anchor class logits and positive boundary distances."""
    cls_logits = []
    distances = []
    for m, feat in enumerate(pyr.levels):
        ct = _run_tower(feat, w.tower_cls)
        cls_logits.append(conv3d(_as_temporal(ct), w.cls_head).data[:, 0, 0, :])
        lt = _run_tower(feat, w.tower_loc)
        raw = conv3d(_as_temporal(lt), w.loc_head).data[:, 0, 0, :]
        distances.append(softplus(raw) * (pyr.strides[m] / pyr.fps))
        # Before refine: a NaN distance would become an integer sample index.
        check_finite(f"level{m} coarse", np.hstack([cls_logits[-1], distances[-1]]))
    return CoarsePrediction(cls_logits=tuple(cls_logits), distances=tuple(distances))


def coarse_segments(pyr: FeaturePyramid, coarse: CoarsePrediction, m: int) -> np.ndarray:
    """(T_m, 2) provisional [start, end] in seconds for one level."""
    anchors = pyr.anchor_times(m)
    d = coarse.distances[m]
    return np.stack([anchors - d[:, 0], anchors + d[:, 1]], axis=1)


def _sample_level(feat: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Linear interpolation along the temporal axis at fractional positions,
    clamped to [0, T-1]."""
    t = feat.shape[0]
    pc = np.clip(pos, 0.0, float(t - 1))
    lo = np.floor(pc).astype(int)
    hi = np.minimum(lo + 1, t - 1)
    frac = (pc - lo)[:, None]
    return (1.0 - frac) * feat[lo] + frac * feat[hi]


def refine(pyr: FeaturePyramid, coarse: CoarsePrediction, w: HeadWeights) -> RefinedPrediction:
    """Sample three interpolated feature vectors around each coarse boundary.

    Offsets are in level positions {-1, 0, +1}; the six C'-vectors are
    concatenated and passed through the refinement MLP.
    """
    offsets, cls_logits, quality = [], [], []
    for m, feat in enumerate(pyr.levels):
        segs = coarse_segments(pyr, coarse, m)
        scale = pyr.fps / pyr.strides[m]
        samples = []
        for b in range(2):
            center = segs[:, b] * scale - 0.5  # boundary time -> level position
            for off in (-1.0, 0.0, 1.0):
                samples.append(_sample_level(feat, center + off))
        stacked = np.concatenate(samples, axis=1).astype(feat.dtype)
        hidden = gelu(linear(stacked, w.refine_in))
        out = linear(hidden, w.refine_out)
        check_finite(f"level{m} refine", out)
        offsets.append(out[:, :2])
        cls_logits.append(out[:, 2:-1])
        quality.append(out[:, -1])
    return RefinedPrediction(offsets=tuple(offsets), cls_logits=tuple(cls_logits),
                             quality_logits=tuple(quality))


def refine_segment(bs: np.ndarray, be: np.ndarray, ds: np.ndarray, de: np.ndarray):
    """Offset the coarse boundaries by half the segment length per offset unit."""
    half = 0.5 * (be - bs)
    return bs + half * ds, be + half * de


def combine_scores(p_coarse: np.ndarray, p_refined: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Final score: quality-weighted mean of the two classification rounds."""
    return 0.5 * (p_coarse + p_refined) * eta


def decode(pyr: FeaturePyramid, coarse: CoarsePrediction, refined: RefinedPrediction,
           video_id: str = "clip") -> list[DetectionCandidate]:
    """One candidate per anchor; degenerate segments (start >= end) are dropped."""
    out = []
    for m in range(len(pyr.levels)):
        segs = coarse_segments(pyr, coarse, m)
        ts, te = refine_segment(segs[:, 0], segs[:, 1],
                                refined.offsets[m][:, 0], refined.offsets[m][:, 1])
        probs = combine_scores(
            sigmoid(coarse.cls_logits[m]),
            sigmoid(refined.cls_logits[m]),
            sigmoid(refined.quality_logits[m])[:, None],
        )
        cid = probs.argmax(axis=1)
        score = probs[np.arange(len(cid)), cid]
        for i in range(len(cid)):
            if ts[i] >= te[i]:
                continue
            out.append(DetectionCandidate(
                t_start=float(ts[i]), t_end=float(te[i]), class_id=int(cid[i]),
                score=float(score[i]), level=m, position=i, video_id=video_id,
            ))
    return out


def write_candidates(path: str | Path, cands: list[DetectionCandidate]) -> None:
    with open(path, "w") as fh:
        for c in cands:
            fh.write(json.dumps({
                "video_id": c.video_id, "t_start": c.t_start, "t_end": c.t_end,
                "class_id": c.class_id, "score": c.score,
                "level": c.level, "position": c.position,
            }, sort_keys=True) + "\n")


def _check_segment(t_start: float, t_end: float) -> None:
    """Raise ValueError unless both times are finite and t_start < t_end."""
    if not (math.isfinite(t_start) and math.isfinite(t_end)):
        raise ValueError(f"non-finite segment [{t_start}, {t_end}]")
    if not t_start < t_end:
        raise ValueError(f"segment start {t_start} is not before its end {t_end}")


def _number(value: object, key: str) -> float:
    """A JSON number (int or float, not bool or string) as a float, or ValueError."""
    if type(value) is float:
        return value
    if type(value) is int:
        return float(value)
    raise ValueError(f"{key} {value!r} is not a number")


def _index(value: object, key: str) -> int:
    """A JSON integer >= 0 (not bool or float), or ValueError."""
    if type(value) is not int or value < 0:
        raise ValueError(f"{key} {value!r} is not an integer >= 0")
    return value


def _text(value: object, key: str) -> str:
    """A JSON string, or ValueError."""
    if type(value) is not str:
        raise ValueError(f"{key} {value!r} is not a string")
    return value


def _class_id(value: object, num_classes: int) -> int:
    """A JSON integer in [0, num_classes), or ValueError."""
    if type(value) is not int:  # also rejects bool, a subclass of int
        raise ValueError(f"class_id {value!r} is not an integer")
    if not 0 <= value < num_classes:
        raise ValueError(f"class_id {value} outside [0, {num_classes})")
    return value


def _json_records(path: str | Path, reader: str, parse: Callable[[dict], object]) -> list:
    """`parse` of each JSON object on the non-blank lines of a UTF-8 file.

    Lines end only at \\n, \\r\\n or \\r (not at every str.splitlines boundary),
    so a raw U+2028, U+2029 or U+0085 inside a JSON string stays in its record.
    An unreadable file is an InputError from `reader` naming the file, and a
    line that is not one JSON object, or that `parse` rejects with a KeyError,
    ValueError or OverflowError (an integer too large for a float), one naming
    the file and line.
    """
    out = []
    try:
        with open(path, encoding="utf-8") as fh:
            for ln, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                    if type(record) is not dict:
                        raise ValueError(f"{type(record).__name__} is not a JSON object")
                    out.append(parse(record))
                except (KeyError, ValueError, OverflowError) as exc:
                    raise InputError(f"{reader}: bad record at {path}:{ln}: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"{reader}: cannot read {path}: {exc}") from exc
    return out


def read_candidates(path: str | Path, num_classes: int) -> list[DetectionCandidate]:
    """Read write_candidates output; class ids must lie in [0, num_classes)."""
    def parse(d: dict) -> DetectionCandidate:
        cand = DetectionCandidate(
            t_start=_number(d["t_start"], "t_start"), t_end=_number(d["t_end"], "t_end"),
            class_id=_class_id(d["class_id"], num_classes),
            score=_number(d["score"], "score"),
            level=_index(d.get("level", 0), "level"),
            position=_index(d.get("position", 0), "position"),
            video_id=_text(d.get("video_id", "clip"), "video_id"),
        )
        _check_segment(cand.t_start, cand.t_end)
        if not math.isfinite(cand.score):
            raise ValueError(f"non-finite score {cand.score}")
        return cand

    return _json_records(path, "read_candidates", parse)
