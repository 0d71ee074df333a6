"""Run configuration from sectioned key=value files.

The schema is strict: unknown sections or keys are rejected with the offending
name, values are typed, and the defaults reproduce the standard architecture
and the thumos evaluation profile. The environment variable STPT_SEED, when
set, overrides the configured seed.

Grammar (INI style, all keys optional):

    [model]
    preset = default | toy      # toy fixes a small 32x24x24 clip
    frames = 256
    height = 96
    width = 96
    variant = LLGG              # one letter per stage, L local / G global
    cpe = true
    lsta_temporal = 8,8,16      # temporal window of the three early local blocks

    [detection]
    profile = thumos | anet
    num_classes = 20
    fps = 10.0
    top_k = 200
    nms_mode = linear | gaussian
    nms_threshold = 0.5
    nms_sigma = 0.5

    [io]
    input =                     # tensor file; empty means a seeded synthetic clip
    output_dir = stpt_out

    [run]
    seed = 0
    precision = f32 | f64

Out-of-range values are rejected: [detection] fps must be finite and positive,
top_k at least 1, nms_threshold in [0, 1] and nms_sigma finite and positive;
the seed must be non-negative; every extent of a local block's window,
including the late-stage windows that the default layout derives, must be a
multiple of its stage's reduction ratio.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import json
import os
from pathlib import Path

from .attention import check_window
from .backbone import IN_CHANNELS, MLP_RATIO, ModelConfig, default_config, toy_config
from .errors import ConfigError
from .evaluation import EvalConfig, eval_profile
from .heads import NUM_LEVELS, PYRAMID_CHANNELS, TOWER_DEPTH, DetectionConfig


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_triple(s: str) -> tuple[int, int, int]:
    parts = [p.strip() for p in s.split(",")]
    if len(parts) != 3:
        raise ValueError("expected three comma-separated integers")
    return tuple(int(p) for p in parts)  # type: ignore[return-value]


_SCHEMA = {
    "model": {
        "preset": str, "frames": int, "height": int, "width": int,
        "variant": str, "cpe": _parse_bool, "lsta_temporal": _parse_triple,
    },
    "detection": {
        "profile": str, "num_classes": int, "fps": float, "top_k": int,
        "nms_mode": str, "nms_threshold": float, "nms_sigma": float,
    },
    "io": {"input": str, "output_dir": str},
    "run": {"seed": int, "precision": str},
}

_DEFAULTS = {
    "model": {"preset": "default", "frames": 256, "height": 96, "width": 96,
              "variant": "LLGG", "cpe": True, "lsta_temporal": (8, 8, 16)},
    "detection": {"profile": "thumos", "num_classes": 20, "fps": 10.0},
    "io": {"input": "", "output_dir": "stpt_out"},
    "run": {"seed": 0, "precision": "f32"},
}


@dataclasses.dataclass(frozen=True)
class RunConfig:
    model: ModelConfig
    det: DetectionConfig
    eval_cfg: EvalConfig
    profile: str
    input_path: str | None
    output_dir: str
    seed: int

    def effective(self) -> dict:
        """Every setting that influences a run, fixed ones included, as JSON-safe values."""
        stages = [{**dataclasses.asdict(s), "kind": s.kind, "heads": s.resolved_heads}
                  for s in self.model.stages]
        return {
            "model": {"input_dims": list(self.model.input_dims),
                      "in_channels": IN_CHANNELS,
                      "cpe": self.model.cpe_enabled, "dtype": self.model.dtype,
                      "mlp_ratio": MLP_RATIO, "stages": stages},
            "detection": {"profile": self.profile, "num_classes": self.det.num_classes,
                          "pyramid_channels": PYRAMID_CHANNELS,
                          "num_levels": NUM_LEVELS,
                          "tower_depth": TOWER_DEPTH, "fps": self.det.clip_fps,
                          **dataclasses.asdict(self.eval_cfg)},
            # output_dir is a pure sink: it never affects computed values, so
            # it stays out of the hash. The input path does affect them.
            "io": {"input": self.input_path or ""},
            "run": {"seed": self.seed},
        }

    def config_hash(self) -> str:
        blob = json.dumps(self.effective(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


def _read_ini(path: str) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    out: dict[str, dict[str, str]] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        out[section] = {}
        for key, value in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown config key [{section}] {key}")
            out[section][key] = value
    return out


def _typed(raw: dict[str, dict[str, str]]) -> dict[str, dict]:
    values: dict[str, dict] = {s: dict(d) for s, d in _DEFAULTS.items()}
    for section, keys in raw.items():
        for key, text in keys.items():
            conv = _SCHEMA[section][key]
            try:
                values[section][key] = conv(text)
            except ValueError as exc:
                raise ConfigError(f"bad value for [{section}] {key}: {exc}") from exc
    return values


def load_run_config(path: str | None = None, variant: str | None = None) -> RunConfig:
    """Build the effective configuration from a file plus CLI overrides.

    variant overrides [model] variant; STPT_SEED overrides [run] seed.
    """
    raw = _read_ini(path) if path is not None else {}
    values = _typed(raw)
    mv, dv, iov, rv = values["model"], values["detection"], values["io"], values["run"]

    if variant is not None:
        mv["variant"] = variant
    env_seed = os.environ.get("STPT_SEED")
    if env_seed is not None:
        try:
            rv["seed"] = int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"STPT_SEED must be an integer, got {env_seed!r}") from exc
    if rv["seed"] < 0:
        source = "STPT_SEED" if env_seed is not None else "[run] seed"
        raise ConfigError(f"{source} must be non-negative, got {rv['seed']}")

    if rv["precision"] not in ("f32", "f64"):
        raise ConfigError(f"[run] precision must be f32 or f64, got {rv['precision']!r}")

    if mv["preset"] == "toy":
        for key in ("frames", "height", "width", "lsta_temporal"):
            if "model" in raw and key in raw["model"]:
                raise ConfigError(f"[model] {key} cannot be set with preset = toy")
        model = toy_config(variant=mv["variant"], cpe_enabled=mv["cpe"],
                           dtype=rv["precision"])
    elif mv["preset"] == "default":
        model = default_config(input_dims=(mv["frames"], mv["height"], mv["width"]),
                               variant=mv["variant"], cpe_enabled=mv["cpe"],
                               dtype=rv["precision"], lsta_temporal=mv["lsta_temporal"])
    else:
        raise ConfigError(f"[model] preset must be default or toy, got {mv['preset']!r}")
    # Attention rejects a local window that its stage's reduction ratios do
    # not divide; checking here makes flops and describe reject it as forward does.
    for si, spec in enumerate(model.stages):
        for bi, window in enumerate(spec.windows or ()):
            check_window(window, spec.reduction, f"stage{si + 1} block{bi}: ")

    profile = dv["profile"]
    eval_cfg = dataclasses.replace(eval_profile(profile), **{
        key: dv[key] for key in ("top_k", "nms_mode", "nms_threshold", "nms_sigma") if key in dv})
    det = DetectionConfig(num_classes=dv["num_classes"], clip_fps=dv["fps"])

    input_path = iov["input"] or None
    return RunConfig(model=model, det=det, eval_cfg=eval_cfg, profile=profile,
                     input_path=input_path, output_dir=iov["output_dir"], seed=rv["seed"])


def write_default_config(path: str | Path) -> None:
    """Emit a config file listing every key at its default value but four.

    [detection] top_k, nms_mode, nms_threshold and nms_sigma are left out:
    their defaults come from profile, so a written thumos value would
    override profile = anet.
    """
    lines = []
    for section, keys in _DEFAULTS.items():
        lines.append(f"[{section}]")
        for key, val in keys.items():
            if isinstance(val, tuple):
                text = ",".join(str(v) for v in val)
            elif isinstance(val, bool):
                text = "true" if val else "false"
            else:
                text = str(val)
            lines.append(f"{key} = {text}")
        lines.append("")
    Path(path).write_text("\n".join(lines))
