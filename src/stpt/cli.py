"""Command-line entry point.

Subcommands: describe, flops, forward, gradcheck, eval, synth. Every command is
deterministic given the config file, the seed, and the inputs; forward writes a
manifest recording the seed, the config hash, and the produced shapes. Exit
codes: 0 success, 2 configuration error (an output path that cannot be
written included), 3 input-data error, 4 numeric failure, 5 out of memory.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
from pathlib import Path

from .backbone import IN_CHANNELS, backbone_forward, init_model_weights
from .config import RunConfig, load_run_config, write_default_config
from .costs import model_cost
from .errors import ConfigError, InputError, StptError
from .evaluation import (evaluate, oracle_predictions, read_ground_truth,
                         render_map_table, synth_dataset, write_ground_truth)
from .heads import (build_pyramid, decode, init_head_weights, predict_coarse,
                    pyramid_lengths, read_candidates, refine, write_candidates)
from .losses import gradient_check_report
from .tensor import DTYPES, ClipTensor, Rng, read_tensor, write_bundle

VARIANTS = ("LLLL", "LLLG", "LLGG", "LGGG", "GGGG")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="PATH", help="run configuration file")
    p.add_argument("--variant", choices=VARIANTS,
                   help="override the per-stage attention kinds")


def _load(args: argparse.Namespace) -> RunConfig:
    return load_run_config(args.config, variant=args.variant)


def cmd_describe(args: argparse.Namespace) -> int:
    cfg = _load(args)
    dims = cfg.model.stage_dims()
    print(f"input: {cfg.model.input_dims} x {IN_CHANNELS} channels, "
          f"dtype {cfg.model.dtype}")
    for i, (spec, d) in enumerate(zip(cfg.model.stages, dims)):
        print(f"stage{i + 1}: kind={spec.kind:<6} out=({d[0]},{d[1]},{d[2]},{spec.channels})"
              f" depth={spec.depth} heads={spec.resolved_heads}"
              f" reduction={spec.reduction}")
    lengths = pyramid_lengths(cfg.model)
    print(f"pyramid levels: {lengths}")
    print(f"anchors: {sum(lengths)}")
    return 0


def cmd_flops(args: argparse.Namespace) -> int:
    cfg = _load(args)
    report = model_cost(cfg.model, cfg.det)
    text = report.render_csv() if args.format == "csv" else report.render_text()
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _load_clip(cfg: RunConfig, rng: Rng) -> tuple[ClipTensor, str]:
    dtype = DTYPES[cfg.model.dtype]
    want = cfg.model.input_dims + (IN_CHANNELS,)
    if cfg.input_path:
        arr = read_tensor(cfg.input_path)
        if arr.shape != want:
            raise InputError(f"input tensor {cfg.input_path}: shape {arr.shape} does not "
                             f"match configured {want}")
        if arr.dtype != dtype:
            raise InputError(f"input tensor {cfg.input_path}: dtype {arr.dtype} does not "
                             f"match configured precision {cfg.model.dtype}")
        return ClipTensor(arr), cfg.input_path
    data = rng.child("input").normal(want, 0.0, 1.0).astype(dtype)
    return ClipTensor(data), "synth"


def _check_output_dir(outdir: Path) -> None:
    """Raise, creating nothing, the OSError that making outdir would raise on a file in its path."""
    for p in (outdir, *outdir.parents):
        if p.exists() and not p.is_dir():
            code = errno.EEXIST if p == outdir else errno.ENOTDIR
            raise OSError(code, os.strerror(code), str(outdir))


def cmd_forward(args: argparse.Namespace) -> int:
    cfg = _load(args)
    outdir = Path(cfg.output_dir)
    _check_output_dir(outdir)  # before the run, which takes seconds on the default model
    rng = Rng(cfg.seed)
    weights = init_model_weights(cfg.model, rng.child("model"))
    head_w = init_head_weights(cfg.model, cfg.det, rng.child("head"))
    clip, source = _load_clip(cfg, rng)
    stages = backbone_forward(clip, weights, cfg.model)
    pyr = build_pyramid(stages[-2:], head_w,
                        clip_frames=cfg.model.input_dims[0], fps=cfg.det.clip_fps)
    coarse = predict_coarse(pyr, head_w)
    refined = refine(pyr, coarse, head_w)
    cands = decode(pyr, coarse, refined)

    outdir.mkdir(parents=True, exist_ok=True)
    write_bundle(outdir / "stages", {f"stage{i + 1}": t.data
                                     for i, t in enumerate(stages)})
    write_candidates(outdir / "detections.jsonl", cands)
    manifest = {
        "command": "forward",
        "seed": cfg.seed,
        "config_hash": cfg.config_hash(),
        "input": source,
        "stage_shapes": [list(t.data.shape) for t in stages],
        "pyramid_lengths": [lv.shape[0] for lv in pyr.levels],
        "num_candidates": len(cands),
    }
    (outdir / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    for i, t in enumerate(stages):
        print(f"stage{i + 1}: {t.data.shape}")
    print(f"candidates: {len(cands)}")
    print(f"outputs written to {outdir}")
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    if args.points < 1:
        raise ConfigError(f"--points must be at least 1, got {args.points}")
    cfg = _load(args)
    report = gradient_check_report(seed=cfg.seed, points=args.points)
    failed = False
    print(f"{'term':<12} {'max rel err':>12}  result")
    for term, err in report.items():
        ok = err < 1e-4
        failed = failed or not ok
        print(f"{term:<12} {err:>12.3e}  {'PASS' if ok else 'FAIL'}")
    return 1 if failed else 0


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = _load(args)
    preds = read_candidates(args.preds, cfg.det.num_classes)
    gts = read_ground_truth(args.gts, cfg.det.num_classes)
    if not gts:
        raise InputError(f"eval: no ground-truth instance in {args.gts}")
    result = evaluate(preds, gts, cfg.eval_cfg, apply_nms=not args.skip_nms)
    print(render_map_table(result))
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    for flag, value in (("--videos", args.videos), ("--instances", args.instances)):
        if value < 1:
            raise ConfigError(f"{flag} must be at least 1, got {value}")
    if not 0 <= args.jitter < math.inf:  # also false for nan
        raise ConfigError(f"--jitter must be finite and at least 0, got {args.jitter}")
    cfg = _load(args)
    rng = Rng(cfg.seed)
    gts = synth_dataset(rng.child("gts"), n_videos=args.videos,
                        n_classes=cfg.det.num_classes,
                        instances_per_video=args.instances)
    preds = oracle_predictions(gts, rng.child("preds"), jitter=args.jitter)
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_ground_truth(outdir / "gts.jsonl", gts)
    write_candidates(outdir / "preds.jsonl", preds)
    print(f"wrote {len(gts)} instances and {len(preds)} predictions to {outdir}")
    return 0


def cmd_init_config(args: argparse.Namespace) -> int:
    write_default_config(args.path)
    print(f"wrote {args.path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stpt",
        description="Spatio-temporal action detection pipeline: hierarchical "
                    "attention backbone, temporal feature pyramid, anchor-free "
                    "heads, evaluation, and an analytic cost model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", help="print stage shapes, pyramid levels, anchor count")
    _add_common(p)
    p.set_defaults(fn=cmd_describe)

    p = sub.add_parser("flops", help="print the analytic cost table")
    _add_common(p)
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.add_argument("--out", metavar="PATH", help="write the table to a file")
    p.set_defaults(fn=cmd_flops)

    p = sub.add_parser("forward", help="run the pipeline and write stage tensors, "
                                       "detections, and a run manifest")
    _add_common(p)
    p.set_defaults(fn=cmd_forward)

    p = sub.add_parser("gradcheck", help="finite-difference check of every loss gradient")
    _add_common(p)
    p.add_argument("--points", type=int, default=100, metavar="N",
                   help="sample points per loss term")
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    _add_common(p)
    p.add_argument("--preds", required=True, metavar="PATH", help="predictions (JSON lines)")
    p.add_argument("--gts", required=True, metavar="PATH", help="ground truth (JSON lines)")
    p.add_argument("--skip-nms", action="store_true", help="evaluate without soft-NMS")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("synth", help="write a synthetic dataset with oracle predictions")
    _add_common(p)
    p.add_argument("--videos", type=int, default=4)
    p.add_argument("--instances", type=int, default=5)
    p.add_argument("--jitter", type=float, default=0.0,
                   help="boundary noise as a fraction of instance length")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("init-config", help="write a config file of defaults; the "
                       "NMS and top-k keys are left to the profile")
    p.add_argument("path", help="file to create")
    p.set_defaults(fn=cmd_init_config)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except StptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError as exc:
        # numpy names the shape it could not allocate; the traceback adds nothing.
        print(f"error: {args.command}: out of memory: {exc}", file=sys.stderr)
        return 5
    except OSError as exc:
        # Reads already turn an OSError into an input or config error, so this
        # is a path that cannot be written, such as an output_dir under a file;
        # the OS message names it.
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
