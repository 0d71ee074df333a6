"""Acceptance gate: one test per shipped criterion, each at its stated tolerance.

Every test records a PASS/FAIL line through the `criterion` fixture (see
conftest.py), so the terminal summary lists all ten outcomes. Criterion 5's
absolute-cost clause is expected to fail: the GGGG variant's counted cost
lands 17.5% below the published total, outside the 15% band, because the
published uniform-global baseline uses a costlier key/value path than the
shared reduction architecture the other criteria pin down. The ordering and
ratio clauses of that criterion hold.
"""

import json
import math
import subprocess
import sys
import textwrap
import time

import numpy as np
from conftest import src_env

from stpt.attention import AttentionParams, ReductionSpec, gsta_forward, lsta_forward
from stpt.backbone import default_config
from stpt.cli import main
from stpt.costs import model_cost
from stpt.evaluation import eval_profile, evaluate, oracle_predictions, soft_nms, synth_dataset
from stpt.heads import DetectionCandidate, DetectionConfig, combine_scores, refine_segment
from stpt.losses import gradient_check_report
from stpt.tensor import ClipTensor, Conv3DWeights, LinearWeights, Rng


def test_criterion_01_full_scale_stage_shapes(criterion):
    # Run in a subprocess with the BLAS pools pinned to one thread so the
    # five-minute budget is honest single-core time.
    code = textwrap.dedent("""
        import json, time
        import numpy as np
        from stpt.backbone import backbone_forward, default_config, init_model_weights
        from stpt.tensor import ClipTensor, Rng
        cfg = default_config()
        w = init_model_weights(cfg, Rng(0).child("model"))
        x = ClipTensor(Rng(0).child("input").normal((256, 96, 96, 3)).astype(np.float32))
        t0 = time.time()
        out = backbone_forward(x, w, cfg)
        elapsed = time.time() - t0
        print(json.dumps({
            "shapes": [list(s.data.shape) for s in out.stages],
            "elapsed": elapsed,
            "dtype": str(out.stages[0].data.dtype),
            "finite": bool(all(np.isfinite(s.data).all() for s in out.stages)),
        }))
    """)
    env = dict(src_env(), OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", NUMEXPR_NUM_THREADS="1",
               VECLIB_MAXIMUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=360)
    assert proc.returncode == 0, proc.stderr
    info = json.loads(proc.stdout.strip().splitlines()[-1])
    want = [[128, 24, 24, 96], [128, 12, 12, 192], [64, 6, 6, 384], [32, 3, 3, 768]]
    ok = (info["shapes"] == want and info["elapsed"] < 300.0
          and info["dtype"] == "float32" and info["finite"])
    criterion(1, ok, f"stage shapes exact, {info['elapsed']:.1f}s single-core f32")


def _linear(rng, c, dtype):
    return LinearWeights(weight=rng.child("w").normal((c, c), 0.0, 0.2).astype(dtype),
                         bias=rng.child("b").normal((c,), 0.0, 0.02).astype(dtype))


def _reduction(rng, c, ratios, dtype):
    def conv(r):
        return Conv3DWeights(weight=r.child("w").normal((c, 1, 3, 3, 3), 0.0, 0.2).astype(dtype),
                             bias=r.child("b").normal((c,), 0.0, 0.02).astype(dtype),
                             stride=ratios, padding=(1, 1, 1), groups=c)
    return ReductionSpec(conv_k=conv(rng.child("k")), conv_v=conv(rng.child("v")))


def _attn_params(rng, c, heads, window, ratios, dtype):
    return AttentionParams(
        heads=heads,
        wq=_linear(rng.child("q"), c, dtype), wk=_linear(rng.child("k"), c, dtype),
        wv=_linear(rng.child("v"), c, dtype), wo=_linear(rng.child("o"), c, dtype),
        reduction=_reduction(rng.child("red"), c, ratios, dtype), window=window,
    )


def test_criterion_02_full_window_equivalence(criterion):
    worst = 0.0
    for seed in range(20):
        rng = Rng(2000 + seed)
        if seed == 0:
            dims, c, heads, ratios = (16, 12, 12), 96, 4, (2, 2, 2)
        elif seed % 2 == 0:
            ratios = (2, 2, 2)
            dims = (2 * int(rng.child("t").integers(1, 9)),
                    2 * int(rng.child("h").integers(1, 7)),
                    2 * int(rng.child("w").integers(1, 7)))
            c = int(rng.child("c").integers(1, 4)) * 32
            heads = (2, 4)[int(rng.child("hd").integers(0, 2))]
        else:
            ratios = (1, 1, 1)
            dims = (int(rng.child("t").integers(2, 17)),
                    int(rng.child("h").integers(2, 13)),
                    int(rng.child("w").integers(2, 13)))
            c = int(rng.child("c").integers(1, 4)) * 32
            heads = (2, 4)[int(rng.child("hd").integers(0, 2))]
        local = _attn_params(rng.child("p"), c, heads, dims, ratios, np.float32)
        # The global twin shares every weight, including the reductions.
        glob = AttentionParams(heads=heads, wq=local.wq, wk=local.wk, wv=local.wv,
                               wo=local.wo, reduction=local.reduction, window=None)
        x = ClipTensor(rng.child("x").normal(dims + (c,)).astype(np.float32))
        a = lsta_forward(x, local).data
        b = gsta_forward(x, glob).data
        worst = max(worst, float(np.abs(a - b).max()))
    ok = worst <= 1e-5
    criterion(2, ok, f"20 seeds, max |LSTA - GSTA| = {worst:.2e} (tol 1e-5, f32)")


def test_criterion_03_locality_isolation(criterion):
    # Geometry: (8, 8, 4) map under (4, 4, 4) windows and ratios (2, 2, 2).
    # The first window's reduced keys tap tokens with t <= 3 and h <= 3 only,
    # so perturbations at t >= 4 or h >= 4 sit outside both the window and the
    # reduction receptive field of every first-window query.
    rng = Rng(30)
    c, heads = 8, 2
    dims = (8, 8, 4)
    p = _attn_params(rng.child("p"), c, heads, (4, 4, 4), (2, 2, 2), np.float64)
    x = rng.child("x").normal(dims + (c,))
    base = lsta_forward(ClipTensor(x), p).data
    exact = True
    moved = True
    for trial in range(50):
        t = rng.child(f"trial{trial}")
        if trial % 2 == 0:
            pos = (int(t.child("t").integers(4, 8)), int(t.child("h").integers(0, 8)),
                   int(t.child("w").integers(0, 4)))
        else:
            pos = (int(t.child("t").integers(0, 8)), int(t.child("h").integers(4, 8)),
                   int(t.child("w").integers(0, 4)))
        x2 = x.copy()
        x2[pos] += t.child("delta").normal((c,), 0.0, 3.0)
        out = lsta_forward(ClipTensor(x2), p).data
        exact = exact and np.array_equal(out[:4, :4], base[:4, :4])
        moved = moved and not np.array_equal(out, base)
    ok = exact and moved
    criterion(3, ok, "50 trials, first-window outputs bit-identical under"
                     " out-of-field perturbations")


def test_criterion_04_loss_gradients(criterion):
    t0 = time.time()
    report = gradient_check_report(seed=0, points=100, h=1e-5)
    elapsed = time.time() - t0
    worst = max(report.values())
    ok = worst < 1e-4 and elapsed < 60.0
    criterion(4, ok, f"100 points, max rel err {worst:.2e} (tol 1e-4), {elapsed:.1f}s")


PUBLISHED_GMACS = {"LLLL": 101.8, "LLLG": 102.7, "LLGG": 111.4,
                   "LGGG": 151.4, "GGGG": 167.6}


def test_criterion_05_cost_reproduction(criterion):
    det = DetectionConfig()
    gmacs = {v: model_cost(default_config(variant=v), det).total_flops / 2 / 1e9
             for v in PUBLISHED_GMACS}
    order = list(PUBLISHED_GMACS)
    ordered = all(gmacs[a] < gmacs[b] for a, b in zip(order, order[1:]))
    ratio = gmacs["GGGG"] / gmacs["LLGG"]
    ratio_ok = abs(ratio / 1.504 - 1.0) <= 0.10
    rel = {v: gmacs[v] / PUBLISHED_GMACS[v] - 1.0 for v in order}
    over = [f"{v} {100 * rel[v]:+.1f}%" for v in order if abs(rel[v]) > 0.15]
    ok = ordered and ratio_ok and not over
    detail = (f"ordering {'ok' if ordered else 'BROKEN'}; "
              f"GGGG/LLGG {ratio:.3f} vs 1.504 ({100 * (ratio / 1.504 - 1):+.1f}%, tol 10%); "
              + (f"absolutes outside 15%: {', '.join(over)}" if over
                 else "all absolutes within 15%"))
    criterion(5, ok, detail)


def test_criterion_06_window_sweep_stability(criterion):
    det = DetectionConfig()
    sweep = [(1, 1, 1), (4, 4, 4), (8, 8, 8), (8, 8, 16), (16, 16, 16)]
    totals = [model_cost(default_config(lsta_temporal=s), det).total_flops / 2 / 1e9
              for s in sweep]
    spread = (max(totals) - min(totals)) / min(totals)
    ok = spread < 0.01
    criterion(6, ok, f"temporal-window sweep spread {100 * spread:.2f}% (tol 1%)")


def test_criterion_07_pipeline_closure(criterion):
    # The dataset is sized so the strict-decrease clause is a property, not
    # seed luck: under 10% boundary jitter one instance keeps tIoU >= 0.7 with
    # probability about 0.97, so 400 instances leave roughly 3e-6 odds that a
    # seed degrades nowhere under the loosest threshold set.
    gts = synth_dataset(Rng(70), n_videos=10, n_classes=5, instances_per_video=40)
    perfect = True
    for profile in ("thumos", "anet"):
        preds = oracle_predictions(gts, Rng(71), jitter=0.0)
        res = evaluate(preds, gts, eval_profile(profile))
        perfect = perfect and res.average_map == 1.0 \
            and all(v == 1.0 for v in res.map_per_threshold.values())
    degraded = True
    for seed in range(30):
        noisy = oracle_predictions(gts, Rng(7000 + seed), jitter=0.1)
        for profile in ("thumos", "anet"):
            res = evaluate(noisy, gts, eval_profile(profile))
            degraded = degraded and res.average_map < 1.0
    ok = perfect and degraded
    criterion(7, ok, "zero jitter -> mAP 1.0 at every threshold, both profiles;"
                     " 10% jitter strictly below 1.0 on 30 seeds")


def _pair_tiou(a, b):
    inter = max(0.0, min(a[1], b[1]) - max(a[0], b[0]))
    union = (a[1] - a[0]) + (b[1] - b[0]) - inter
    return inter / union if union > 0 else 0.0


def _brute_force_soft_nms(cands, mode, threshold, sigma):
    scores = [float(c.score) for c in cands]
    alive = list(range(len(cands)))
    picked = []
    while alive:
        best = alive[0]
        for i in alive[1:]:
            if (scores[i] > scores[best]
                    or (scores[i] == scores[best]
                        and (cands[i].t_start < cands[best].t_start
                             or (cands[i].t_start == cands[best].t_start and i < best)))):
                best = i
        alive.remove(best)
        picked.append((best, scores[best]))
        for i in alive:
            ov = _pair_tiou((cands[i].t_start, cands[i].t_end),
                            (cands[best].t_start, cands[best].t_end))
            if mode == "linear":
                if ov > threshold:
                    scores[i] = scores[i] * (1.0 - ov)
            else:
                scores[i] = scores[i] * math.exp(-(ov * ov) / sigma)
    return picked


def test_criterion_08_soft_nms_equivalence(criterion):
    worst = 0.0
    orders = True
    for n in range(1, 11):
        for rep in range(4):
            rng = Rng(800 + 10 * n + rep)
            cands = []
            for i in range(n):
                t0 = float(rng.child(f"t{i}").uniform((), 0.0, 8.0))
                ln = float(rng.child(f"l{i}").uniform((), 0.5, 4.0))
                sc = float(rng.child(f"s{i}").uniform((), 0.05, 1.0))
                if rep == 3:
                    sc = round(sc, 1)  # provoke score ties
                cands.append(DetectionCandidate(t_start=t0, t_end=t0 + ln, class_id=0,
                                                score=sc, level=0, position=i,
                                                video_id="v"))
            for mode in ("linear", "gaussian"):
                got = soft_nms(cands, mode=mode, threshold=0.4, sigma=0.6)
                want = _brute_force_soft_nms(cands, mode, 0.4, 0.6)
                orders = orders and [c.position for c in got] == [i for i, _ in want]
                worst = max(worst, max(abs(c.score - s)
                                       for c, (_, s) in zip(got, want)))
    ok = orders and worst <= 1e-12
    criterion(8, ok, f"sizes 1-10, both modes, max score diff {worst:.1e} (tol 1e-12)")


def test_criterion_09_decode_equations(criterion):
    rng = Rng(90)
    bs = rng.child("bs").normal((16,))
    be = bs + rng.child("len").uniform((16,), 0.5, 4.0)
    rs, re = refine_segment(bs, be, np.zeros(16), np.zeros(16))
    identity_ok = np.array_equal(rs, bs) and np.array_equal(re, be)
    ts, te = refine_segment(np.float64(10.0), np.float64(20.0),
                            np.float64(0.2), np.float64(0.0))
    substitution_ok = float(ts) == 11.0 and float(te) == 20.0
    score = combine_scores(np.float64(0.8), np.float64(0.6), np.float64(0.5))
    score_ok = float(score) == 0.35
    ok = identity_ok and substitution_ok and score_ok
    criterion(9, ok, "zero-offset identity exact; start 10->11 under offset 0.2;"
                     " score(0.8, 0.6, 0.5) == 0.35, all f64")


def test_criterion_10_forward_determinism(criterion, tmp_path, monkeypatch):
    monkeypatch.delenv("STPT_SEED", raising=False)

    def run(tag, seed):
        ini = tmp_path / f"{tag}.ini"
        ini.write_text(f"[model]\npreset = toy\n[io]\noutput_dir = {tmp_path / tag}\n"
                       f"[run]\nseed = {seed}\n")
        assert main(["forward", "--config", str(ini)]) == 0
        outdir = tmp_path / tag
        files = sorted(p for p in outdir.rglob("*") if p.is_file())
        return {str(p.relative_to(outdir)): p.read_bytes() for p in files}

    a = run("a", 0)
    b = run("b", 0)
    c = run("c", 1)
    identical = a == b
    changed = a["detections.jsonl"] != c["detections.jsonl"]
    ok = identical and changed
    criterion(10, ok, f"{len(a)} output files byte-identical across reruns;"
                      " new seed changes detections")
