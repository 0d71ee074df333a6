"""Window partitioning and local/global attention against naive references."""

import math

import numpy as np
import pytest

from stpt import attention
from stpt.attention import (AttentionParams, PartitionRecord, ReductionSpec,
                            WindowSpec, gsta_forward, lsta_forward, merge_windows,
                            partition_windows, reduce_kv)
from stpt.errors import ConfigError
from stpt.tensor import ClipTensor, Conv3DWeights, LinearWeights, Rng, conv3d, softmax


def _linear(rng, c, dtype):
    return LinearWeights(weight=rng.child("w").normal((c, c), 0.0, 0.2).astype(dtype),
                         bias=rng.child("b").normal((c,), 0.0, 0.02).astype(dtype))


def _reduction(rng, c, ratios, dtype):
    def conv(r):
        return Conv3DWeights(weight=r.child("w").normal((c, 1, 3, 3, 3), 0.0, 0.2).astype(dtype),
                             bias=r.child("b").normal((c,), 0.0, 0.02).astype(dtype),
                             stride=ratios, padding=(1, 1, 1), groups=c)
    return ReductionSpec(ratios=ratios, conv_k=conv(rng.child("k")), conv_v=conv(rng.child("v")))


def _params(rng, c, heads, kind, window=None, ratios=(1, 1, 1), dtype=np.float64):
    return AttentionParams(
        channels=c, heads=heads,
        wq=_linear(rng.child("q"), c, dtype), wk=_linear(rng.child("k"), c, dtype),
        wv=_linear(rng.child("v"), c, dtype), wo=_linear(rng.child("o"), c, dtype),
        kind=kind, reduction=_reduction(rng.child("red"), c, ratios, dtype),
        window=WindowSpec(window) if window else None,
    )


def _project(tokens, w):
    return tokens @ w.weight.astype(np.float64).T + w.bias.astype(np.float64)


def _head_attend(qvec, keys, vals, heads):
    # Per-head softmax attention for a single query, contiguous channel blocks.
    c = qvec.shape[0]
    dh = c // heads
    outc = []
    for hd in range(heads):
        sl = slice(hd * dh, (hd + 1) * dh)
        s = keys[:, sl] @ (qvec[sl] * dh ** -0.5)
        a = np.exp(s - s.max())
        a = a / a.sum()
        outc.append(a @ vals[:, sl])
    return np.concatenate(outc)


def _naive_lsta(x: ClipTensor, p: AttentionParams) -> np.ndarray:
    """Per-token loops: window membership and key validity by arithmetic."""
    t, h, w = x.dims
    c, heads = p.channels, p.heads
    ext, ratios = p.window.extents, p.reduction.ratios
    tokens = x.tokens().astype(np.float64)
    q = _project(tokens, p.wq).reshape(t, h, w, c)
    k = _project(tokens, p.wk).reshape(t, h, w, c)
    v = _project(tokens, p.wv).reshape(t, h, w, c)

    counts = [math.ceil(d / e) for d, e in zip((t, h, w), ext)]
    pdims = tuple(n * e for n, e in zip(counts, ext))
    kp = np.zeros(pdims + (c,))
    kp[:t, :h, :w] = k
    vp = np.zeros(pdims + (c,))
    vp[:t, :h, :w] = v
    kred = conv3d(ClipTensor(kp), p.reduction.conv_k).data
    vred = conv3d(ClipTensor(vp), p.reduction.conv_v).data

    red_ext = [e // r for e, r in zip(ext, ratios)]
    y = np.zeros((t, h, w, c))
    for qt in range(t):
        for qh in range(h):
            for qw in range(w):
                widx = (qt // ext[0], qh // ext[1], qw // ext[2])
                keys, vals = [], []
                for jt in range(widx[0] * red_ext[0], (widx[0] + 1) * red_ext[0]):
                    if jt * ratios[0] >= t:
                        continue
                    for jh in range(widx[1] * red_ext[1], (widx[1] + 1) * red_ext[1]):
                        if jh * ratios[1] >= h:
                            continue
                        for jw in range(widx[2] * red_ext[2], (widx[2] + 1) * red_ext[2]):
                            if jw * ratios[2] >= w:
                                continue
                            keys.append(kred[jt, jh, jw])
                            vals.append(vred[jt, jh, jw])
                y[qt, qh, qw] = _head_attend(q[qt, qh, qw], np.array(keys),
                                             np.array(vals), heads)
    return _project(y.reshape(-1, c), p.wo).reshape(t, h, w, c)


def _naive_gsta(x: ClipTensor, p: AttentionParams) -> np.ndarray:
    t, h, w = x.dims
    c, heads = p.channels, p.heads
    tokens = x.tokens().astype(np.float64)
    q = _project(tokens, p.wq)
    k = _project(tokens, p.wk).reshape(t, h, w, c)
    v = _project(tokens, p.wv).reshape(t, h, w, c)
    kred = conv3d(ClipTensor(k), p.reduction.conv_k).data.reshape(-1, c)
    vred = conv3d(ClipTensor(v), p.reduction.conv_v).data.reshape(-1, c)
    y = np.array([_head_attend(qvec, kred, vred, heads) for qvec in q])
    return _project(y, p.wo).reshape(t, h, w, c)


def test_partition_counts_standard_map():
    # A (128, 24, 24) map under (8, 8, 8) windows: 16*3*3 windows of 512 tokens.
    x = np.zeros((128, 24, 24, 1), dtype=np.float32)
    win, rec = partition_windows(x, (8, 8, 8))
    assert win.shape == (144, 512, 1)
    assert rec.counts == (16, 3, 3) and rec.padded == (128, 24, 24)


def test_partition_single_window_degenerate():
    x = Rng(0).normal((4, 3, 2, 5)).astype(np.float32)
    win, rec = partition_windows(x, (4, 3, 2))
    assert rec.num_windows == 1
    np.testing.assert_array_equal(win[0], x.reshape(-1, 5))


def test_partition_is_t_major_and_exact():
    t, h, w = 4, 4, 2
    coords = np.arange(t * h * w).reshape(t, h, w, 1).astype(np.float64)
    win, rec = partition_windows(coords, (2, 2, 2))
    # First window holds the T-major block {t<2, h<2, w<2} in T-major order.
    want = [coords[a, b, c_, 0] for a in range(2) for b in range(2) for c_ in range(2)]
    np.testing.assert_array_equal(win[0, :, 0], want)
    # Window order is itself T-major over the window grid.
    assert win[1, 0, 0] == coords[0, 0, 0, 0] + 0 or True
    second = [coords[a, b, c_, 0] for a in range(2) for b in range(2, 4) for c_ in range(2)]
    np.testing.assert_array_equal(win[1, :, 0], second)


@pytest.mark.parametrize("dims,ext", [((6, 4, 4), (2, 2, 2)), ((5, 3, 7), (2, 2, 2)),
                                      ((4, 4, 4), (8, 8, 8))])
def test_partition_merge_roundtrip(dims, ext):
    x = Rng(1).normal(dims + (3,))
    win, rec = partition_windows(x, ext)
    np.testing.assert_array_equal(merge_windows(win, rec), x)


def test_partition_pads_with_zeros():
    x = np.ones((3, 2, 2, 1))
    win, rec = partition_windows(x, (2, 2, 2))
    assert rec.padded == (4, 2, 2)
    merged_padded = win.reshape(2, 1, 1, 2, 2, 2, 1)
    assert merged_padded[1, ..., 1, :, :, :].sum() == 0.0  # second window's pad row


def test_reduction_identity_kernel_is_noop():
    c = 4
    ident = np.zeros((c, 1, 3, 3, 3))
    ident[:, 0, 1, 1, 1] = 1.0
    conv = Conv3DWeights(weight=ident, bias=np.zeros(c), stride=(1, 1, 1),
                         padding=(1, 1, 1), groups=c)
    spec = ReductionSpec(ratios=(1, 1, 1), conv_k=conv, conv_v=conv)
    x = ClipTensor(Rng(2).normal((3, 4, 5, c)))
    kr, vr = reduce_kv(x, x, spec)
    np.testing.assert_allclose(kr.data, x.data, atol=1e-12)
    np.testing.assert_allclose(vr.data, x.data, atol=1e-12)


def test_params_validation():
    rng = Rng(3)
    with pytest.raises(ConfigError, match="divisible"):
        _params(rng, 6, 4, "global")
    with pytest.raises(ConfigError, match="window"):
        _params(rng, 8, 2, "local")  # local without window
    with pytest.raises(ConfigError, match="multiple"):
        _params(rng, 8, 2, "local", window=(3, 2, 2), ratios=(2, 2, 2))
    p = _params(rng, 8, 2, "local", window=(2, 2, 2), ratios=(2, 2, 2))
    with pytest.raises(ConfigError):
        gsta_forward(ClipTensor(np.zeros((2, 2, 2, 8))), p)
    g = _params(rng, 8, 2, "global", ratios=(2, 2, 2))
    with pytest.raises(ConfigError):
        lsta_forward(ClipTensor(np.zeros((2, 2, 2, 8))), g)


@pytest.mark.parametrize("dims,window,ratios,heads", [
    ((6, 4, 4), (2, 2, 2), (2, 2, 2), 2),   # divisible everywhere
    ((5, 3, 4), (2, 2, 2), (2, 2, 2), 1),   # padding plus masked keys
    ((4, 4, 4), (2, 4, 4), (1, 2, 2), 4),   # mixed ratios
    ((7, 5, 3), (4, 2, 3), (2, 1, 3), 2),   # padding along every axis
])
def test_lsta_matches_naive(dims, window, ratios, heads):
    rng = Rng(sum(dims))
    c = 8
    p = _params(rng, c, heads, "local", window=window, ratios=ratios)
    x = ClipTensor(rng.child("x").normal(dims + (c,)))
    got = lsta_forward(x, p).data
    np.testing.assert_allclose(got, _naive_lsta(x, p), rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("dims,ratios,heads", [
    ((4, 4, 4), (2, 2, 2), 2),
    ((5, 3, 4), (2, 2, 2), 4),
    ((6, 4, 4), (1, 1, 1), 1),
])
def test_gsta_matches_naive(dims, ratios, heads):
    rng = Rng(11 + sum(dims))
    c = 8
    p = _params(rng, c, heads, "global", ratios=ratios)
    x = ClipTensor(rng.child("x").normal(dims + (c,)))
    got = gsta_forward(x, p).data
    np.testing.assert_allclose(got, _naive_gsta(x, p), rtol=1e-10, atol=1e-12)


def test_full_window_lsta_equals_gsta():
    # Shared projection and reduction weights, window = full extents.
    for seed in range(5):
        rng = Rng(100 + seed)
        c, heads = 16, 4
        dims = (6, 4, 4)
        local = _params(rng, c, heads, "local", window=dims, ratios=(2, 2, 2),
                        dtype=np.float32)
        glob = dataclasses_replace_kind(local)
        x = ClipTensor(rng.child("x").normal(dims + (c,)).astype(np.float32))
        a = lsta_forward(x, local).data
        b = gsta_forward(x, glob).data
        np.testing.assert_allclose(a, b, atol=1e-5)


def dataclasses_replace_kind(p: AttentionParams) -> AttentionParams:
    return AttentionParams(channels=p.channels, heads=p.heads, wq=p.wq, wk=p.wk,
                           wv=p.wv, wo=p.wo, kind="global", reduction=p.reduction,
                           window=None)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_locality_perturbation_is_exactly_zero(dtype):
    # Tokens two or more positions outside a window cannot reach it: the
    # reduction conv's halo is one token wide, windows do not overlap. Batched
    # BLAS in either storage dtype must not couple one window to another.
    rng = Rng(7)
    c, heads = 8, 2
    dims = (8, 4, 4)
    p = _params(rng, c, heads, "local", window=(4, 4, 4), ratios=(2, 2, 2), dtype=dtype)
    x = rng.child("x").normal(dims + (c,)).astype(dtype)
    base = lsta_forward(ClipTensor(x), p).data
    for trial in range(10):
        trng = rng.child(f"trial{trial}")
        pos = (int(trng.child("t").integers(6, 8)),
               int(trng.child("h").integers(0, 4)),
               int(trng.child("w").integers(0, 4)))
        x2 = x.copy()
        x2[pos] += trng.child("delta").normal((c,), 0.0, 3.0).astype(dtype)
        out = lsta_forward(ClipTensor(x2), p).data
        assert out.dtype == dtype
        # Queries in the first temporal window (t < 4) are bit-identical.
        np.testing.assert_array_equal(out[:4], base[:4])
        assert not np.array_equal(out[6:], base[6:])


def test_interior_window_translation_equivariance():
    rng = Rng(8)
    c, heads = 8, 2
    dims = (16, 4, 4)
    ext = (4, 4, 4)
    p = _params(rng, c, heads, "local", window=ext, ratios=(2, 2, 2))
    x = rng.child("x").normal(dims + (c,))
    y1 = lsta_forward(ClipTensor(x), p).data
    y2 = lsta_forward(ClipTensor(np.roll(x, ext[0], axis=0)), p).data
    # Window 1 of the original equals window 2 of the rolled copy: both are
    # interior, so their reduction halos carry the same content.
    np.testing.assert_array_equal(y1[4:8], y2[8:12])


def test_heads_change_the_result():
    rng = Rng(9)
    c = 8
    dims = (4, 4, 4)
    p1 = _params(rng, c, 1, "global", ratios=(2, 2, 2))
    p2 = AttentionParams(channels=c, heads=4, wq=p1.wq, wk=p1.wk, wv=p1.wv,
                         wo=p1.wo, kind="global", reduction=p1.reduction)
    x = ClipTensor(rng.child("x").normal(dims + (c,)))
    a = gsta_forward(x, p1).data
    b = gsta_forward(x, p2).data
    assert not np.allclose(a, b)


def test_lsta_determinism():
    rng = Rng(10)
    p = _params(rng, 8, 2, "local", window=(2, 2, 2), ratios=(2, 2, 2),
                dtype=np.float32)
    x = ClipTensor(rng.child("x").normal((5, 4, 3, 8)).astype(np.float32))
    a = lsta_forward(x, p).data
    b = lsta_forward(x, p).data
    np.testing.assert_array_equal(a, b)


def _count_softmax(monkeypatch):
    calls = []

    def counted(scores, mask=None):
        calls.append(scores.shape)
        return softmax(scores, mask=mask)
    monkeypatch.setattr(attention, "softmax", counted)
    return calls


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_global_attention_in_query_row_blocks_is_bit_identical(monkeypatch, dtype):
    # The default stage-3 global map: 2304 queries, 288 reduced keys, 4 heads.
    # A budget of 300 query rows splits the one window into 8 row blocks.
    c, heads = 384, 4
    p = _params(Rng(40), c, heads, "global", ratios=(2, 2, 2), dtype=dtype)
    x = ClipTensor(Rng(41).normal((64, 6, 6, c)).astype(dtype))
    calls = _count_softmax(monkeypatch)
    monkeypatch.setattr(attention, "SCORE_BLOCK_BYTES", 1 << 40)
    whole = gsta_forward(x, p).data
    assert calls == [(1, heads, 2304, 288)]
    row_bytes = heads * 288 * np.dtype(dtype).itemsize
    monkeypatch.setattr(attention, "SCORE_BLOCK_BYTES", 300 * row_bytes)
    blocked = gsta_forward(x, p).data
    assert calls[1:] == [(1, heads, 300, 288)] * 7 + [(1, heads, 204, 288)]
    assert blocked.tobytes() == whole.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_local_attention_window_by_window_is_bit_identical(monkeypatch, dtype):
    # 8 windows of 8x6x6 queries and 36 reduced keys; T = 13 masks the last
    # reduced frame of the second temporal window row. A budget of three
    # windows' scores runs them one at a time.
    c, heads = 192, 2
    p = _params(Rng(42), c, heads, "local", window=(8, 6, 6), ratios=(2, 2, 2), dtype=dtype)
    x = ClipTensor(Rng(43).normal((13, 12, 12, c)).astype(dtype))
    calls = _count_softmax(monkeypatch)
    monkeypatch.setattr(attention, "SCORE_BLOCK_BYTES", 1 << 40)
    whole = lsta_forward(x, p).data
    assert calls == [(8, heads, 288, 36)]
    window_bytes = heads * 288 * 36 * np.dtype(dtype).itemsize
    monkeypatch.setattr(attention, "SCORE_BLOCK_BYTES", 3 * window_bytes)
    blocked = lsta_forward(x, p).data
    assert calls[1:] == [(1, heads, 288, 36)] * 8
    assert blocked.tobytes() == whole.tobytes()
