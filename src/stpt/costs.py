"""Analytic multiply-accumulate and FLOP counts for a model configuration.

Counting convention: matrix multiplies and convolutions contribute their
multiply-accumulate count (one MAC = 2 FLOPs); softmax, normalization, and
activation evaluations contribute 5 FLOPs per processed element. Elementwise
residual additions and the attention query scaling are not counted. The tallies
mirror the runtime exactly, including the cost of attending over the zero
padding that squares off the window grid, so doubling a divisible extent
exactly doubles a local stage's attention cost.
"""

from __future__ import annotations

import dataclasses
import math

from .attention import PartitionRecord
from .backbone import MLP_RATIO, Extents, ModelConfig
from .errors import ConfigError
from .heads import NUM_LEVELS, PYRAMID_CHANNELS, TOWER_DEPTH, DetectionConfig, pyramid_lengths

AUX_FLOPS_PER_ELEMENT = 5


@dataclasses.dataclass(frozen=True)
class AttentionCost:
    qkv_macs: int
    reduction_macs: int
    score_macs: int
    proj_macs: int
    softmax_elements: int
    params: int

    @property
    def total_macs(self) -> int:
        return self.qkv_macs + self.reduction_macs + self.score_macs + self.proj_macs

    @property
    def flops(self) -> int:
        return 2 * self.total_macs + AUX_FLOPS_PER_ELEMENT * self.softmax_elements


def attention_cost(dims: Extents, channels: int, heads: int, kind: str,
                   window: Extents | None = None,
                   ratios: Extents = (1, 1, 1)) -> AttentionCost:
    """Cost of one attention application on a map of the given extents.

    Attention pays for every window in the padded grid and for the key/value
    reduction convolutions run on the padded map. Global attention is one
    window over the whole map. The geometry is the runtime's own
    `PartitionRecord`, so reduced extents follow the stride arithmetic of the
    reduction convolutions (ceil division).
    """
    if kind not in ("local", "global"):
        raise ConfigError(f"attention kind must be local or global, got {kind!r}")
    if kind == "global":
        window = dims
    elif window is None:
        raise ConfigError("local attention cost needs a window")
    rec = PartitionRecord.of(dims, window)
    red = rec.reduced(ratios)
    n = math.prod(dims)
    c = channels
    qkv = 3 * n * c * c
    proj = n * c * c
    rows = rec.num_windows * rec.window_tokens
    cols = red.window_tokens
    reduction = 2 * math.prod(red.orig) * c * 27
    score = 2 * rows * cols * c
    softmax = heads * rows * cols
    params = 4 * (c * c + c) + 2 * (27 * c + c)
    return AttentionCost(qkv_macs=qkv, reduction_macs=reduction, score_macs=score,
                         proj_macs=proj, softmax_elements=softmax, params=params)


@dataclasses.dataclass(frozen=True)
class CostLine:
    stage: str
    unit: str
    part: str
    macs: int
    aux_elements: int
    params: int

    @property
    def flops(self) -> int:
        return 2 * self.macs + AUX_FLOPS_PER_ELEMENT * self.aux_elements


@dataclasses.dataclass(frozen=True)
class CostReport:
    lines: tuple[CostLine, ...]

    @property
    def total_macs(self) -> int:
        return sum(ln.macs for ln in self.lines)

    @property
    def total_aux_elements(self) -> int:
        return sum(ln.aux_elements for ln in self.lines)

    @property
    def total_flops(self) -> int:
        return sum(ln.flops for ln in self.lines)

    @property
    def total_params(self) -> int:
        return sum(ln.params for ln in self.lines)

    def render_text(self) -> str:
        header = f"{'stage':<8} {'unit':<10} {'part':<10} {'MACs(G)':>10} {'FLOPs(G)':>10} {'params(M)':>10}"
        rows = [header, "-" * len(header)]
        for ln in self.lines:
            rows.append(
                f"{ln.stage:<8} {ln.unit:<10} {ln.part:<10} "
                f"{ln.macs / 1e9:>10.4f} {ln.flops / 1e9:>10.4f} {ln.params / 1e6:>10.4f}"
            )
        rows.append("-" * len(header))
        rows.append(
            f"{'total':<8} {'':<10} {'':<10} "
            f"{self.total_macs / 1e9:>10.4f} {self.total_flops / 1e9:>10.4f} "
            f"{self.total_params / 1e6:>10.4f}"
        )
        return "\n".join(rows)

    def render_csv(self) -> str:
        rows = ["stage,unit,part,macs,aux_elements,flops,params"]
        for ln in self.lines:
            rows.append(f"{ln.stage},{ln.unit},{ln.part},{ln.macs},{ln.aux_elements},"
                        f"{ln.flops},{ln.params}")
        rows.append(f"total,,,{self.total_macs},{self.total_aux_elements},"
                    f"{self.total_flops},{self.total_params}")
        return "\n".join(rows)


def _head_lines(cfg: ModelConfig, det: DetectionConfig,
                stage_dims: list[Extents]) -> list[CostLine]:
    cp = PYRAMID_CHANNELS
    k = det.num_classes
    lines = []
    for i, (dims, spec) in enumerate(zip(stage_dims[-2:], cfg.stages[-2:])):
        t, h, w = dims
        macs = t * cp * (h * w * spec.channels)
        params = cp * spec.channels * h * w + cp
        lines.append(CostLine("pyramid", f"collapse{i}", "conv", macs, t * cp, params))
    lengths = pyramid_lengths(cfg)
    down_macs = sum(t * cp * 3 * cp for t in lengths[2:])
    down_aux = sum(t * cp for t in lengths[2:])
    down_params = (NUM_LEVELS - 2) * (cp * cp * 3 + cp)
    lines.append(CostLine("pyramid", "downs", "conv", down_macs, down_aux, down_params))

    anchors = sum(lengths)
    tower_macs = 2 * TOWER_DEPTH * anchors * cp * 3 * cp
    tower_aux = 2 * TOWER_DEPTH * anchors * cp
    tower_params = 2 * TOWER_DEPTH * (cp * cp * 3 + cp)
    lines.append(CostLine("head", "towers", "conv", tower_macs, tower_aux, tower_params))

    predict_macs = anchors * k * 3 * cp + anchors * 2 * 3 * cp
    predict_aux = anchors * 2  # softplus on the two boundary distances
    predict_params = k * cp * 3 + k + 2 * cp * 3 + 2
    lines.append(CostLine("head", "predict", "conv", predict_macs, predict_aux, predict_params))

    sample_macs = anchors * 6 * 2 * cp  # linear interpolation of six feature samples
    refine_macs = sample_macs + anchors * 6 * cp * cp + anchors * cp * (2 + k + 1)
    refine_aux = anchors * cp
    refine_params = 6 * cp * cp + cp + (2 + k + 1) * cp + (2 + k + 1)
    lines.append(CostLine("head", "refine", "mlp", refine_macs, refine_aux, refine_params))
    return lines


def model_cost(cfg: ModelConfig, det_cfg: DetectionConfig | None = None) -> CostReport:
    """Per-component cost lines for the backbone and, optionally, the head.

    Every block contributes independent lines, so dropping a block lowers the
    total by exactly that block's entries.
    """
    lines: list[CostLine] = []
    dims_list = cfg.stage_dims()
    for si, (spec, cin, dims) in enumerate(zip(cfg.stages, cfg.stage_in_channels(), dims_list)):
        stage = f"stage{si + 1}"
        pos = math.prod(dims)
        c = spec.channels
        kvol = math.prod(spec.patch_kernel)
        if si == 0:
            embed_macs = pos * cin * kvol + pos * c * cin
            embed_params = cin * kvol + cin + c * cin + c
        else:
            embed_macs = pos * c * cin * kvol
            embed_params = c * cin * kvol + c
        lines.append(CostLine(stage, "embed", "conv", embed_macs, 0, embed_params))
        for bi in range(spec.depth):
            unit = f"block{bi}"
            if cfg.cpe_enabled:
                lines.append(CostLine(stage, unit, "cpe", pos * c * 27, 0, 27 * c + c))
            lines.append(CostLine(stage, unit, "norm", 0, 2 * pos * c, 4 * c))
            window = spec.windows[bi] if spec.windows else None
            ac = attention_cost(dims, c, spec.resolved_heads, spec.kind, window, spec.reduction)
            lines.append(CostLine(stage, unit, "attention", ac.total_macs,
                                  ac.softmax_elements, ac.params))
            hidden = MLP_RATIO * c
            mlp_macs = pos * c * hidden + pos * hidden * c
            mlp_params = hidden * c + hidden + c * hidden + c
            lines.append(CostLine(stage, unit, "mlp", mlp_macs, pos * hidden, mlp_params))
    if det_cfg is not None:
        lines.extend(_head_lines(cfg, det_cfg, dims_list))
    return CostReport(lines=tuple(lines))
