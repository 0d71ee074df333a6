"""Spans around the public functions of stpt, installed from outside the package.

While installed, every public function of the traced modules is replaced, in
every stpt module namespace that binds it, by a wrapper that records a span:
name, start, end and the span that called it. Arguments are not kept; a few
wrappers note what the metrics need (MACs from argument shapes, group sizes,
stage labels). `op_metrics` turns the spans of one operation into additive
per-layer quantities; `finish` turns their per-operation mean into metrics.
"""

from __future__ import annotations

import importlib
import inspect
import math
import sys
import time
from collections import defaultdict

TRACED_MODULES = ("cli", "config", "tensor", "attention", "backbone", "heads", "evaluation")
# Called once per element or pair: a wrapper would cost more than the call.
UNTRACED = {"tiou", "conv_output_extent"}
# The input phase of `forward` (clip synthesis or read_tensor) has no public name.
PRIVATE_TRACED = {"cli": ("_load_clip",)}

STAGES = ("stage1", "stage2", "stage3", "stage4")
BLOCK_PARTS = ("embed", "cpe", "norm", "attention", "mlp")
ATTN_PARTS = ("qkv", "reduce", "core", "proj")
KERNELS = ("conv3d", "linear", "gelu", "layer_norm", "softmax")
ATTENTION_FNS = ("attention.lsta_forward", "attention.gsta_forward")
# The other direct calls of stpt_block, by block part.
BLOCK_CALLS = {"tensor.conv3d": "cpe", "tensor.layer_norm": "norm",
               "tensor.linear": "mlp", "tensor.gelu": "mlp"}

# Spans whose whole duration is one metric: span name -> metric.
PHASES = {
    "config.load_run_config": "config.load_s",
    "cli._load_clip": "cli.input_s",
    "backbone.init_model_weights": "backbone.init_s",
    "heads.init_head_weights": "heads.init_s",
    "heads.build_pyramid": "heads.pyramid_s",
    "heads.predict_coarse": "heads.coarse_s",
    "heads.refine": "heads.refine_s",
    "heads.decode": "heads.decode_s",
    "tensor.write_bundle": "io.write_bundle_s",
    "heads.write_candidates": "io.write_candidates_s",
    "heads.read_candidates": "heads.read_candidates_s",
    "evaluation.read_ground_truth": "evaluation.read_ground_truth_s",
    "evaluation.soft_nms": "evaluation.soft_nms_s",
    "evaluation.average_precision": "evaluation.average_precision_s",
}

# (name, unit, better) of every per-layer metric, in print order.
PER_LAYER = (
    [(n, "s", "lower") for n in ("config.load_s", "cli.input_s", "backbone.init_s",
                                 "heads.init_s")]
    + [(f"backbone.{s}.{p}_s", "s", "lower") for s in STAGES for p in BLOCK_PARTS]
    + [(f"backbone.{s}.{p}_gflops", "GFLOP/s", "higher") for s in STAGES for p in BLOCK_PARTS]
    + [(f"attention.{s}.{p}_s", "s", "lower") for s in STAGES for p in ATTN_PARTS]
    + [(f"tensor.{k}_s", "s", "lower") for k in KERNELS]
    + [(f"tensor.{k}_calls", "count", "lower") for k in KERNELS]
    + [(n, "s", "lower") for n in ("heads.pyramid_s", "heads.coarse_s", "heads.refine_s",
                                   "heads.decode_s")]
    + [("heads.candidates", "count", "lower"),
       ("io.write_bundle_s", "s", "lower"), ("io.write_candidates_s", "s", "lower"),
       ("heads.read_candidates_s", "s", "lower"),
       ("evaluation.read_ground_truth_s", "s", "lower"), ("eval.records", "count", "lower"),
       ("evaluation.soft_nms_s", "s", "lower"), ("evaluation.soft_nms_calls", "count", "lower"),
       ("evaluation.soft_nms_pairs", "count", "lower"),
       ("evaluation.average_precision_s", "s", "lower"),
       ("evaluation.average_precision_calls", "count", "lower"),
       ("evaluation.evaluate_self_s", "s", "lower"), ("evaluation.surviving", "count", "lower"),
       ("costcheck.compared", "count", "higher"), ("costcheck.mismatches", "count", "lower"),
       ("trace.overhead_s", "s", "lower")]
)


class Span:
    __slots__ = ("name", "parent", "start", "end", "attrs")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.attrs: dict = {}


def _linear_macs(span, args, result):
    x, w = args[0], args[1]
    span.attrs["macs"] = math.prod(x.shape[:-1]) * w.weight.shape[0] * w.weight.shape[1]
    parent = span.parent
    if parent is not None and parent.name in ATTENTION_FNS:
        span.attrs["role"] = "proj" if w is parent.attrs["params"].wo else "qkv"


def _conv_macs(span, args, result):
    w = args[1]
    span.attrs["macs"] = (math.prod(result.data.shape[:3]) * w.weight.shape[0]
                          * math.prod(w.weight.shape[1:]))


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._labels: dict[int, tuple[str, str]] = {}
        self._saved: list[tuple[object, str, object]] = []
        self.model_cfg = None
        self._before = {
            "backbone.backbone_forward": self._label_weights,
            "backbone.patch_embed": self._label_unit,
            "backbone.stpt_block": self._label_unit,
            "attention.lsta_forward": self._note_params,
            "attention.gsta_forward": self._note_params,
        }
        self._after = {
            "tensor.linear": _linear_macs,
            "tensor.conv3d": _conv_macs,
            "evaluation.soft_nms": lambda s, a, r: s.attrs.update(n=len(a[0])),
            "evaluation.average_precision": lambda s, a, r: s.attrs.update(n=len(a[0]),
                                                                           thr=a[2]),
            "heads.decode": lambda s, a, r: s.attrs.update(n=len(r)),
            "heads.read_candidates": lambda s, a, r: s.attrs.update(n=len(r)),
            "evaluation.read_ground_truth": lambda s, a, r: s.attrs.update(n=len(r)),
        }

    def _label_weights(self, span, args):
        weights, self.model_cfg = args[1], args[2]
        for si, sw in enumerate(weights.stages):
            self._labels[id(sw.embed)] = (STAGES[si], "embed")
            for bi, bw in enumerate(sw.blocks):
                self._labels[id(bw)] = (STAGES[si], f"block{bi}")

    def _label_unit(self, span, args):
        span.attrs["label"] = self._labels.get(id(args[1]))

    def _note_params(self, span, args):
        span.attrs["params"] = args[1]

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        before, after = self._before.get(name), self._after.get(name)

        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None)
            if before is not None:
                before(span, args)
            spans.append(span)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if after is not None:
                after(span, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for modname in TRACED_MODULES:
            mod = importlib.import_module(f"stpt.{modname}")
            for name, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or not obj.__module__.startswith("stpt."):
                    continue
                home = obj.__module__.rsplit(".", 1)[1]
                public = not obj.__name__.startswith("_")
                if (home not in TRACED_MODULES or obj.__name__ in UNTRACED
                        or not (public or obj.__name__ in PRIVATE_TRACED.get(home, ()))):
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(f"{home}.{obj.__name__}", obj)
                setattr(mod, name, wrappers[id(obj)])
                self._saved.append((mod, name, obj))
        for home, names in PRIVATE_TRACED.items():
            mod = sys.modules[f"stpt.{home}"]
            for name in names:
                if name not in vars(mod):
                    print(f"trace: stpt.{home}.{name} not found; its metric reads 0",
                          file=sys.stderr)

    def uninstall(self) -> None:
        while self._saved:
            mod, name, obj = self._saved.pop()
            setattr(mod, name, obj)

    def take(self):
        """The spans recorded since the last call, and the model config they ran."""
        spans, model_cfg = list(self.spans), self.model_cfg
        self.spans.clear()
        self._labels.clear()
        self.model_cfg = None
        return spans, model_cfg


def _unit_of(span):
    """(stage, unit) of the nearest enclosing patch_embed or stpt_block."""
    while span is not None:
        label = span.attrs.get("label")
        if label is not None:
            return label
        span = span.parent
    return None


def op_metrics(spans: list[Span], model_cfg, variant: str, report) -> dict[str, float]:
    """Additive per-layer quantities of one operation: seconds, counts, FLOPs."""
    m: dict[str, float] = defaultdict(float)
    counted: dict[tuple[str, str, str], int] = defaultdict(int)
    child_time: dict[int, float] = defaultdict(float)
    ap_thresholds = set()
    for s in spans:
        d = s.end - s.start
        if s.parent is not None:
            child_time[id(s.parent)] += d
        name, parent = s.name, s.parent
        pname = parent.name if parent is not None else ""
        if name in PHASES:
            m[PHASES[name]] += d
        kernel = name.split(".", 1)[1]
        if name.startswith("tensor.") and kernel in KERNELS:
            m[f"tensor.{kernel}_s"] += d
            m[f"tensor.{kernel}_calls"] += 1
        if name == "heads.decode":
            m["heads.candidates"] += s.attrs["n"]
        elif name in ("heads.read_candidates", "evaluation.read_ground_truth"):
            m["eval.records"] += s.attrs["n"]
        elif name == "evaluation.soft_nms":
            n = s.attrs["n"]
            m["evaluation.soft_nms_calls"] += 1
            m["evaluation.soft_nms_pairs"] += n * (n - 1) // 2
        elif name == "evaluation.average_precision":
            m["evaluation.average_precision_calls"] += 1
            m["_ap_preds"] += s.attrs["n"]
            ap_thresholds.add(s.attrs["thr"])

        unit = _unit_of(s)
        if unit is None:
            continue
        stage = unit[0]
        # Backbone parts: a patch_embed span, or a direct child of stpt_block.
        if name == "backbone.patch_embed":
            m[f"backbone.{stage}.embed_s"] += d
        elif pname == "backbone.stpt_block":
            part = "attention" if name in ATTENTION_FNS else BLOCK_CALLS.get(name)
            if part:
                m[f"backbone.{stage}.{part}_s"] += d
        # Attention: the whole call, and the sub-parts among its direct children.
        if name in ATTENTION_FNS:
            m[f"_attn_total.{stage}"] += d
        elif pname in ATTENTION_FNS:
            sub = "reduce" if name == "attention.reduce_kv" else s.attrs.get("role")
            if sub:
                m[f"attention.{stage}.{sub}_s"] += d

        # MACs counted from argument shapes, keyed like the cost model's lines.
        macs = s.attrs.get("macs")
        if macs is not None:
            if pname == "backbone.patch_embed":
                counted[(stage, "embed", "conv")] += macs
            elif pname == "backbone.stpt_block":
                counted[(stage, unit[1], BLOCK_CALLS[name])] += macs
            elif pname in ATTENTION_FNS:
                counted[(stage, unit[1], f"attention.{s.attrs['role']}")] += macs
            elif pname == "attention.reduce_kv":
                counted[(stage, unit[1], "attention.reduction")] += macs

    for s in spans:
        if s.name == "evaluation.evaluate":
            m["evaluation.evaluate_self_s"] += (s.end - s.start) - child_time[id(s)]
    if ap_thresholds:
        m["evaluation.surviving"] += m.pop("_ap_preds") / len(ap_thresholds)
    m.pop("_ap_preds", None)
    for stage in STAGES:
        total = m.pop(f"_attn_total.{stage}", 0.0)
        if total:
            m[f"attention.{stage}.core_s"] += total - sum(
                m.get(f"attention.{stage}.{p}_s", 0.0) for p in ("qkv", "reduce", "proj"))
    if model_cfg is not None:
        _flops_and_costcheck(m, counted, model_cfg, variant, report)
    return m


def _flops_and_costcheck(m, counted, model_cfg, variant, report) -> None:
    """Model FLOPs per (stage, part), and counted MACs set beside the cost model."""
    from stpt.costs import attention_cost, model_cost

    reference: dict[tuple[str, str, str], int] = {}
    for line in model_cost(model_cfg).lines:
        part = "embed" if line.unit == "embed" else line.part
        m[f"_flops.backbone.{line.stage}.{part}"] += line.flops
        if line.part in ("conv", "cpe", "mlp"):
            reference[(line.stage, line.unit, line.part)] = line.macs
        elif line.part == "attention":
            si = STAGES.index(line.stage)
            spec = model_cfg.stages[si]
            bi = int(line.unit.removeprefix("block"))
            window = spec.windows[bi] if spec.kind == "local" else None
            ac = attention_cost(model_cfg.stage_dims()[si], spec.channels,
                                spec.resolved_heads, spec.kind, window, spec.reduction)
            if ac.total_macs != line.macs:
                report(f"costcheck {variant} {line.stage} {line.unit} attention: "
                       f"model_cost line {line.macs} != attention_cost total {ac.total_macs}")
                m["costcheck.mismatches"] += 1
            for sub, macs in (("qkv", ac.qkv_macs), ("reduction", ac.reduction_macs),
                              ("proj", ac.proj_macs)):
                reference[(line.stage, line.unit, f"attention.{sub}")] = macs
    for key in sorted(set(reference) | set(counted)):
        m["costcheck.compared"] += 1
        if reference.get(key) != counted.get(key):
            report(f"costcheck {variant} {' '.join(key)}: counted {counted.get(key)} "
                   f"vs cost model {reference.get(key)}")
            m["costcheck.mismatches"] += 1


def finish(per_op: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric, with GFLOP/s from model FLOPs over measured time."""
    out = {}
    for name, _unit, _better in PER_LAYER:
        if name.endswith("_gflops"):
            stem = name[:-len("_gflops")]
            seconds = per_op.get(f"{stem}_s", 0.0)
            flops = per_op.get(f"_flops.{stem}", 0.0)
            out[name] = flops / seconds / 1e9 if seconds > 0 else 0.0
        else:
            out[name] = per_op.get(name, 0.0)
    return out
