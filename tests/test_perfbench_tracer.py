"""The benchmark's tracer still finds every name it wraps and reads.

`perfbench/tracer.py` wraps public stpt functions by name and reads config and
weight fields (`resolved_heads`, `weights.stages[*].embed`, `AttentionParams.wo`,
`attention_cost`'s arguments). A rename inside stpt would not fail the
benchmark's run; it would zero a per-layer metric or a cost cross-check line.
This test runs a traced toy forward per variant, as the benchmark does, and
requires every layer to be timed and every cost line to agree.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from stpt.cli import VARIANTS, main

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
# Cost lines a toy forward compares: per block cpe, mlp, attention qkv,
# reduction and proj, plus one embed per stage, over 5 blocks and 4 stages.
TOY_COSTCHECK_LINES = 29


@pytest.fixture(scope="module")
def tracer():
    """perfbench/tracer.py as a module, loaded without writing bytecode next to it."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


@pytest.mark.parametrize("variant", VARIANTS)
def test_traced_toy_forward_times_every_layer_and_matches_the_cost_model(
        tracer, tmp_path, monkeypatch, variant):
    monkeypatch.delenv("STPT_SEED", raising=False)
    ini = tmp_path / "run.ini"
    ini.write_text(f"[model]\npreset = toy\n[io]\noutput_dir = {tmp_path / 'out'}\n")
    trace = tracer.Tracer()
    trace.install()
    try:
        code = main(["forward", "--config", str(ini), "--variant", variant])
    finally:
        trace.uninstall()
    assert code == 0
    spans, model_cfg = trace.take()
    mismatches = []
    m = tracer.op_metrics(spans, model_cfg, variant, mismatches.append)
    assert mismatches == []
    assert m["costcheck.compared"] == TOY_COSTCHECK_LINES
    assert m["costcheck.mismatches"] == 0
    for stage in tracer.STAGES:
        for part in tracer.BLOCK_PARTS:
            assert m[f"backbone.{stage}.{part}_s"] > 0, (stage, part)
        for part in tracer.ATTN_PARTS:
            assert m[f"attention.{stage}.{part}_s"] > 0, (stage, part)
