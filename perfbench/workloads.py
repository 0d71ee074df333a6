"""Workload inputs, generated from a seed, and the checks on the program's outputs.

Every check is made against arithmetic done here, apart from the program
(conv-extent shapes, anchor counts, expected mAP from scores and tIoUs, a
brute-force soft-NMS), or against properties the method must have (finite
outputs, byte-identical reruns, f32 close to f64). None compares against a
stored copy of an earlier output.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

VARIANTS = ("LLLL", "LLLG", "LLGG", "LGGG", "GGGG")

# The documented architecture: per stage (channels, patch kernel, patch stride).
ARCH = ((96, (3, 7, 7), (2, 4, 4)),
        (192, (3, 3, 3), (1, 2, 2)),
        (384, (3, 3, 3), (2, 2, 2)),
        (768, (3, 3, 3), (2, 2, 2)))
DEFAULT_CLIP = (256, 96, 96)
TOY_CLIP = (32, 24, 24)
NUM_CLASSES = 20
PYRAMID_LEVELS = 6

# f32 stage outputs against an f64 run of the same seed, as max|a - b| / max|b|
# per stage. Both runs accumulate in f64 and round each kernel's output to the
# stored dtype; the measured gap is about 2e-7, so 1e-5 leaves room for f32
# rounding yet fails on any real divergence.
F64_RTOL = 1e-5

# anet thresholds are 0.50, 0.55, ..., 0.95. Matched predictions take a tIoU
# half-way between two of them (or below all), so float rounding in the
# program's tIoU can never move a prediction across a threshold.
WIDE_TIOUS = (0.3,) + tuple(round(0.525 + 0.05 * i, 3) for i in range(10))

# Sizes are fixed; the seed moves positions, lengths, classes, tIoUs and scores.
WIDE_VIDEOS = 3000          # instances per video cycle 1, 2, 3; every second video has a decoy
DENSE_VIDEOS = 4
DENSE_CLASSES_PER_VIDEO = 5
DENSE_GROUP = 200           # candidates per (video, class) group
NMS_SAMPLE_GROUPS = 3       # groups per run checked against brute-force soft-NMS


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


def _write_ini(path: Path, sections: dict[str, dict[str, object]]) -> str:
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{k} = {v}" for k, v in keys.items())
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _write_jsonl(path: Path, records: list[dict]) -> str:
    with open(path, "w") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")
    return str(path)


def _tiou(a0: float, a1: float, b0: float, b1: float) -> float:
    inter = max(0.0, min(a1, b1) - max(a0, b0))
    union = (a1 - a0) + (b1 - b0) - inter
    return inter / union if union > 0 else 0.0


# ---------------------------------------------------------------- forward


def stage_shapes(clip: tuple[int, int, int]) -> list[tuple[int, ...]]:
    """(T, H, W, C) of every stage from the conv-extent arithmetic."""
    dims, out = clip, []
    for channels, kernel, stride in ARCH:
        dims = tuple((n + 2 * (k // 2) - k) // s + 1 for n, k, s in zip(dims, kernel, stride))
        out.append(dims + (channels,))
    return out


def anchor_count(clip: tuple[int, int, int]) -> int:
    """Pyramid levels: the temporal extents of stages 3 and 4, then ceil halving."""
    t3, t4 = (shape[0] for shape in stage_shapes(clip)[2:])
    lengths, t = [t3, t4], t4
    while len(lengths) < PYRAMID_LEVELS:
        t = math.ceil(t / 2)
        lengths.append(t)
    return sum(lengths)


def read_stage_file(path: Path) -> np.ndarray:
    """Parse the documented tensor format: b'STPT', u16 version, u8 dtype, u8 rank, u64 dims."""
    raw = path.read_bytes()
    if raw[:4] != b"STPT":
        raise CheckFailed(f"{path.name}: bad magic")
    code, rank = raw[6], raw[7]
    dims = tuple(int.from_bytes(raw[8 + 8 * i:16 + 8 * i], "little") for i in range(rank))
    dtype = {0: "<f4", 1: "<f8"}.get(code)
    if dtype is None:
        raise CheckFailed(f"{path.name}: unknown dtype code {code}")
    return np.frombuffer(raw, dtype=dtype, offset=8 + 8 * rank).reshape(dims)


class ForwardWorkload:
    """`stpt forward` on a generated config; a round is one call per variant."""

    def __init__(self, workdir: Path, seed: int, toy: bool):
        self.workdir = workdir
        self.seed = seed
        self.toy = toy
        self.clip = TOY_CLIP if toy else DEFAULT_CLIP
        self.outdir = workdir / "out"
        model = {"preset": "toy"} if toy else {"preset": "default", "variant": "LLGG"}
        self.config = _write_ini(workdir / "forward.ini", {
            "model": model, "io": {"output_dir": self.outdir},
            "run": {"seed": seed, "precision": "f32"}})
        self.variants = VARIANTS if toy else ("LLGG",)
        self.round = [["forward", "--config", self.config, "--variant", v]
                      for v in self.variants]
        self.items_per_op = 1      # clips
        # Repeats are checked for byte-identical outputs. A toy run always has
        # one; a default operation takes over 20 s, so its untraced runs do one
        # round and its traced runs compare the untraced and traced operation.
        self.min_rounds = 2 if toy else 1
        self._digests: dict[str, dict[str, str]] = {}
        self._first_stages: dict[str, list[np.ndarray]] = {}

    def check(self, argv: list[str], stdout: str) -> None:
        variant = argv[-1]
        stages_dir = self.outdir / "stages"
        bundle = json.loads((stages_dir / "manifest.json").read_text())
        want = stage_shapes(self.clip)
        digests, stages = {}, []
        for i, shape in enumerate(want):
            path = stages_dir / bundle[f"stage{i + 1}"]["file"]
            arr = read_stage_file(path)
            if arr.shape != shape:
                raise CheckFailed(f"{variant} stage{i + 1}: shape {arr.shape}, expected {shape}")
            if arr.dtype != np.float32:
                raise CheckFailed(f"{variant} stage{i + 1}: dtype {arr.dtype}, expected f32")
            if not np.isfinite(arr).all():
                raise CheckFailed(f"{variant} stage{i + 1}: non-finite values")
            digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
            stages.append(arr.copy())
        det_path = self.outdir / "detections.jsonl"
        digests[det_path.name] = hashlib.sha256(det_path.read_bytes()).hexdigest()
        records = [json.loads(line) for line in det_path.read_text().splitlines() if line]
        anchors = anchor_count(self.clip)
        if len(records) > anchors:
            raise CheckFailed(f"{variant}: {len(records)} detections exceed {anchors} anchors")
        for r in records:
            ts, te, score, cid = r["t_start"], r["t_end"], r["score"], r["class_id"]
            if not (math.isfinite(ts) and math.isfinite(te) and ts < te):
                raise CheckFailed(f"{variant}: bad segment [{ts}, {te}]")
            if not 0.0 < score < 1.0:
                raise CheckFailed(f"{variant}: score {score} outside (0, 1)")
            if not (isinstance(cid, int) and 0 <= cid < NUM_CLASSES):
                raise CheckFailed(f"{variant}: class id {cid} out of range")
        first = self._digests.setdefault(variant, digests)
        if first != digests:
            changed = sorted(k for k in digests if first.get(k) != digests[k])
            raise CheckFailed(f"{variant}: rerun with the same seed changed {changed}")
        self._first_stages.setdefault(variant, stages)

    def final_check(self, main) -> list[str]:
        """On the toy config, compare one variant's f32 stages with an f64 run.

        The variant rotates with the seed so that every variant is covered
        across seeds while a run pays for one extra forward. Returns the
        failure messages.
        """
        if not self.toy:
            return []
        variant = VARIANTS[self.seed % len(VARIANTS)]
        if variant not in self._first_stages:
            return [f"{variant}: no f32 output to compare with f64"]
        out64 = self.workdir / "out64"
        cfg64 = _write_ini(self.workdir / "forward64.ini", {
            "model": {"preset": "toy"}, "io": {"output_dir": out64},
            "run": {"seed": self.seed, "precision": "f64"}})
        if main(["forward", "--config", cfg64, "--variant", variant]) != 0:
            return [f"{variant}: f64 forward failed"]
        bundle = json.loads((out64 / "stages" / "manifest.json").read_text())
        errors = []
        for i, a32 in enumerate(self._first_stages[variant]):
            a64 = read_stage_file(out64 / "stages" / bundle[f"stage{i + 1}"]["file"])
            gap = float(np.abs(a32 - a64).max() / np.abs(a64).max())
            if not gap <= F64_RTOL:
                errors.append(f"{variant} stage{i + 1}: f32 vs f64 gap {gap:.2e} > {F64_RTOL:.0e}")
        return errors


# ---------------------------------------------------------------- evaluation


def expected_map(preds: list[dict], is_tp, gt_per_class: dict[int, int]) -> float:
    """Mean over classes of all-point interpolated AP, from scores and TP flags.

    AP = (1 / n_gt) * sum over true positives of the best precision at any
    rank at or below theirs. Scores are distinct, so the order is unique.
    """
    aps = []
    for cls, n_gt in sorted(gt_per_class.items()):
        ranked = sorted((p for p in preds if p["class_id"] == cls), key=lambda p: -p["score"])
        tp = np.array([is_tp(p) for p in ranked], dtype=float)
        if tp.size == 0:
            aps.append(0.0)
            continue
        precision = np.cumsum(tp) / np.arange(1, tp.size + 1)
        envelope = np.maximum.accumulate(precision[::-1])[::-1]
        aps.append(float(envelope[tp == 1].sum() / n_gt))
    return float(np.mean(aps))


def parse_map_table(stdout: str) -> dict[str, float]:
    """Rows of `stpt eval`'s table: tIoU label (or 'Avg') -> mAP in percent."""
    rows = {}
    for line in stdout.splitlines()[1:]:
        parts = line.split()
        if len(parts) == 2:
            rows[parts[0]] = float(parts[1])
    return rows


def brute_soft_nms(cands: list[dict], threshold: float) -> list[tuple[int, float]]:
    """Linear soft-NMS by its documented rule, one selection at a time.

    Select the highest score (ties: earlier start, then input order), then
    multiply every remaining score by (1 - tIoU) where tIoU > threshold.
    Returns (input index, score at selection) in selection order.
    """
    scores = [c["score"] for c in cands]
    remaining = set(range(len(cands)))
    picked = []
    while remaining:
        best = min(remaining, key=lambda i: (-scores[i], cands[i]["t_start"], i))
        remaining.discard(best)
        picked.append((best, scores[best]))
        b = cands[best]
        for i in remaining:
            ov = _tiou(cands[i]["t_start"], cands[i]["t_end"], b["t_start"], b["t_end"])
            if ov > threshold:
                scores[i] *= 1.0 - ov
    return picked


class EvalWorkload:
    """`stpt eval` over generated prediction and ground-truth files; a round is one call."""

    min_rounds = 3

    def __init__(self, workdir: Path, seed: int, dense: bool):
        self.seed = seed
        self.dense = dense
        profile = "thumos" if dense else "anet"
        self.thresholds = ((0.3, 0.4, 0.5, 0.6, 0.7) if dense
                           else tuple(round(0.5 + 0.05 * i, 2) for i in range(10)))
        self.display = self.thresholds if dense else (0.5, 0.75, 0.95)
        self.nms_threshold = 0.5 if dense else 0.85
        config = _write_ini(workdir / "eval.ini", {
            "detection": {"profile": profile}, "io": {"output_dir": workdir / "out"},
            "run": {"seed": seed}})
        preds, gts, self.expected = (self._dense(_rng(seed, 2)) if dense
                                     else self._wide(_rng(seed, 1)))
        scores = [p["score"] for p in preds]
        if len(set(scores)) != len(scores):
            raise RuntimeError("generated scores must be distinct")
        self.preds = preds
        self.round = [["eval", "--config", config,
                       "--preds", _write_jsonl(workdir / "preds.jsonl", preds),
                       "--gts", _write_jsonl(workdir / "gts.jsonl", gts)]]
        self.items_per_op = len(preds)  # predictions

    def _wide(self, rng):
        """Thousands of videos; every instance has exactly one overlapping prediction.

        Items of a video are laid out left to right with gaps, so nothing
        overlaps except an instance and its own prediction, whose tIoU is
        chosen from WIDE_TIOUS. Decoys share a class with an instance of their
        video (groups of two) and overlap nothing.
        """
        preds, gts = [], []
        for v in range(WIDE_VIDEOS):
            vid = f"w{v:05d}"
            k = 1 + v % 3
            others = [c for c in range(NUM_CLASSES) if c != v % NUM_CLASSES]
            classes = [v % NUM_CLASSES] + [int(c) for c in rng.choice(others, k - 1, replace=False)]
            items = [("gt", c) for c in classes]
            if v % 2 == 0:
                items.append(("decoy", classes[int(rng.integers(k))]))
            t = float(rng.uniform(0.0, 5.0))
            for idx in rng.permutation(len(items)):
                role, cls = items[idx]
                length = float(rng.uniform(2.0, 10.0))
                score = float(rng.uniform(0.01, 0.99))
                if role == "gt":
                    u = float(WIDE_TIOUS[int(rng.integers(len(WIDE_TIOUS)))])
                    gts.append({"video_id": vid, "t_start": t, "t_end": t + length,
                                "class_id": cls})
                    preds.append({"video_id": vid, "t_start": t, "t_end": t + u * length,
                                  "class_id": cls, "score": score, "tiou": u})
                else:
                    preds.append({"video_id": vid, "t_start": t, "t_end": t + length,
                                  "class_id": cls, "score": score, "tiou": 0.0})
                t += length + float(rng.uniform(1.0, 5.0))
        gt_per_class = {c: sum(g["class_id"] == c for g in gts) for c in range(NUM_CLASSES)}
        expected = {thr: expected_map(preds, lambda p, thr=thr: p["tiou"] >= thr, gt_per_class)
                    for thr in self.thresholds}
        for p in preds:
            del p["tiou"]
        return preds, gts, expected

    def _dense(self, rng):
        """A few videos whose (video, class) groups hold hundreds of overlapping candidates.

        Each group has one instance, one exact-match candidate scored in
        [0.9, 0.99) and decoys scored in [0.05, 0.85) scattered around the
        instance. Soft-NMS only lowers scores, so every exact match outranks
        every decoy of its class and mAP is 100 at every threshold.
        """
        preds, gts = [], []
        classes = rng.permutation(NUM_CLASSES)
        for v in range(DENSE_VIDEOS):
            vid = f"d{v:02d}"
            for cls in classes[v * DENSE_CLASSES_PER_VIDEO:(v + 1) * DENSE_CLASSES_PER_VIDEO]:
                cls = int(cls)
                start = float(rng.uniform(0.0, 150.0))
                length = float(rng.uniform(5.0, 30.0))
                gts.append({"video_id": vid, "t_start": start, "t_end": start + length,
                            "class_id": cls})
                group = [{"video_id": vid, "t_start": start, "t_end": start + length,
                          "class_id": cls, "score": float(rng.uniform(0.9, 0.99))}]
                for _ in range(DENSE_GROUP - 1):
                    centre = start + length * float(rng.uniform(-0.1, 1.1))
                    half = 0.5 * length * float(rng.uniform(0.4, 1.6))
                    group.append({"video_id": vid, "t_start": centre - half,
                                  "t_end": centre + half, "class_id": cls,
                                  "score": float(rng.uniform(0.05, 0.85))})
                preds.extend(group[i] for i in rng.permutation(len(group)))
        return preds, gts, {thr: 1.0 for thr in self.thresholds}

    def check(self, argv: list[str], stdout: str) -> None:
        rows = parse_map_table(stdout)
        want = {f"{thr:.2f}": 100 * self.expected[thr] for thr in self.display}
        want["Avg"] = 100 * float(np.mean([self.expected[thr] for thr in self.thresholds]))
        for label, value in want.items():
            got = rows.get(label)
            # The table prints two decimals.
            if got is None or abs(got - value) > 0.0051:
                raise CheckFailed(f"mAP at {label}: printed {got}, expected {value:.4f}")

    def final_check(self, main) -> list[str]:
        """Compare the program's soft_nms on sampled groups with brute_soft_nms."""
        from stpt.evaluation import soft_nms
        from stpt.heads import DetectionCandidate

        groups: dict[tuple[str, int], list[dict]] = {}
        for p in self.preds:
            groups.setdefault((p["video_id"], p["class_id"]), []).append(p)
        keys = sorted(groups)
        rng = _rng(self.seed, 3)
        errors = []
        for gi in rng.choice(len(keys), NMS_SAMPLE_GROUPS, replace=False):
            group = groups[keys[int(gi)]]
            cands = [DetectionCandidate(t_start=p["t_start"], t_end=p["t_end"],
                                        class_id=p["class_id"], score=p["score"],
                                        level=0, position=i, video_id=p["video_id"])
                     for i, p in enumerate(group)]
            got = soft_nms(cands, mode="linear", threshold=self.nms_threshold)
            want = brute_soft_nms(group, self.nms_threshold)
            if [c.position for c in got] != [i for i, _ in want]:
                errors.append(f"soft_nms order differs from brute force on group {keys[int(gi)]}")
                continue
            gap = max(abs(c.score - s) for c, (_, s) in zip(got, want))
            if gap > 1e-12:
                errors.append(f"soft_nms scores differ by {gap:.2e} on group {keys[int(gi)]}")
        return errors


WORKLOADS = {
    "forward-default": lambda workdir, seed: ForwardWorkload(workdir, seed, toy=False),
    "forward-toy-sweep": lambda workdir, seed: ForwardWorkload(workdir, seed, toy=True),
    "eval-dense": lambda workdir, seed: EvalWorkload(workdir, seed, dense=True),
    "eval-wide": lambda workdir, seed: EvalWorkload(workdir, seed, dense=False),
}
