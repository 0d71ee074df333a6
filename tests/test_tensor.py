"""Kernel-layer tests: oracles for linear/conv/norm, rng, and the file format."""

import os
import struct
import threading
import warnings

import numpy as np
import pytest
from scipy import special

from stpt import tensor
from stpt.errors import ConfigError, InputError, NumericError
from stpt.tensor import (ROW_BLOCK_MIN, ClipTensor, Conv3DWeights, LinearWeights, Rng, conv3d,
                         conv_output_extent, finite_diff_grad, gelu, gradcheck,
                         layer_norm, linear, read_bundle, read_tensor, row_blocks, sigmoid,
                         softmax, softplus, write_bundle, write_tensor)


def test_clip_tensor_invariants():
    t = ClipTensor(np.zeros((2, 3, 4, 5), dtype=np.float32))
    assert t.dims == (2, 3, 4) and t.channels == 5
    with pytest.raises(ConfigError):
        ClipTensor(np.zeros((2, 3, 4), dtype=np.float32))
    with pytest.raises(ConfigError):
        ClipTensor(np.zeros((2, 3, 4, 5), dtype=np.int32))


def test_tokens_roundtrip():
    rng = Rng(0)
    x = rng.normal((2, 3, 4, 5)).astype(np.float32)
    t = ClipTensor(x)
    tokens = t.tokens()
    assert tokens.shape == (24, 5)
    np.testing.assert_array_equal(tokens[(1 * 3 + 2) * 4 + 3], x[1, 2, 3])  # T-major
    np.testing.assert_array_equal(tokens.reshape(t.dims + (t.channels,)), x)


def test_linear_identity_and_bias():
    w = LinearWeights(weight=np.eye(3, dtype=np.float32), bias=np.zeros(3, np.float32))
    x = Rng(1).normal((4, 3)).astype(np.float32)
    np.testing.assert_allclose(linear(x, w), x, rtol=1e-6)
    wb = LinearWeights(weight=np.zeros((2, 3), np.float32),
                       bias=np.array([1.5, -2.0], np.float32))
    out = linear(np.zeros((5, 3), np.float32), wb)
    np.testing.assert_array_equal(out, np.tile([1.5, -2.0], (5, 1)).astype(np.float32))


def test_linear_matches_matmul_oracle():
    rng = Rng(2)
    x = rng.normal((4, 3))
    w = LinearWeights(weight=rng.child("w").normal((2, 3)), bias=rng.child("b").normal((2,)))
    want = x.astype(np.float64) @ w.weight.T.astype(np.float64) + w.bias
    np.testing.assert_allclose(linear(x, w), want, rtol=1e-6)


def test_linear_shape_mismatch():
    w = LinearWeights(weight=np.zeros((2, 3), np.float32), bias=np.zeros(2, np.float32))
    with pytest.raises(ConfigError):
        linear(np.zeros((4, 4), np.float32), w)


def test_layer_norm_constant_row_is_zero():
    x = np.full((2, 6), 3.25, dtype=np.float32)
    out = layer_norm(x, np.ones(6, np.float32), np.zeros(6, np.float32))
    np.testing.assert_allclose(out, 0.0, atol=1e-5)


def test_layer_norm_already_normalized():
    x = np.array([[1.0, -1.0]], dtype=np.float64)
    out = layer_norm(x, np.ones(2), np.zeros(2), eps=1e-12)
    np.testing.assert_allclose(out, x, atol=1e-5)


def test_layer_norm_matches_direct_formula():
    rng = Rng(3)
    x = rng.normal((5, 7))
    g = rng.child("g").normal((7,))
    b = rng.child("b").normal((7,))
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    want = (x - mu) / np.sqrt(var + 1e-5) * g + b
    np.testing.assert_allclose(layer_norm(x, g, b), want, rtol=1e-10)


def test_layer_norm_shift_invariance():
    rng = Rng(4)
    x = rng.normal((3, 8)).astype(np.float32)
    shift = rng.child("c").normal((3, 1)).astype(np.float32)
    a = layer_norm(x, np.ones(8, np.float32), np.zeros(8, np.float32))
    b = layer_norm(x + shift, np.ones(8, np.float32), np.zeros(8, np.float32))
    np.testing.assert_allclose(a, b, atol=1e-5)


def test_layer_norm_variance_overflow_is_nan():
    # The f32 square inside var overflows for this token; an infinite variance
    # would normalise it to exactly 0, so it must come out NaN instead.
    x = np.array([[3e19, -3e19, 1.0, 0.0], [1.0, 2.0, 3.0, 4.0]], dtype=np.float32)
    g, b = np.array([1.0, 2.0, 0.5, 1.0]), np.array([0.0, 0.1, 0.0, -0.2])
    with np.errstate(over="ignore"):
        out = layer_norm(x, g.astype(np.float32), b.astype(np.float32))
    assert np.isnan(out[0]).all()
    assert np.isfinite(out[1]).all()
    x64 = x.astype(np.float64)
    mu = x64.mean(axis=-1, keepdims=True)
    want = (x64 - mu) / np.sqrt(x64.var(axis=-1, keepdims=True) + 1e-5) * g + b
    out64 = layer_norm(x64, g, b)
    assert np.isfinite(out64).all()
    np.testing.assert_array_equal(out64, want)


def test_gelu_values():
    assert gelu(np.array(0.0)) == 0.0
    x = Rng(5).normal((100,))
    # x*phi(x) + x*phi(-x) = x, and x*phi(-x) = -gelu(-x).
    np.testing.assert_allclose(gelu(x) - gelu(-x), x, atol=1e-12)
    from scipy.special import erf
    want = 0.5 * (1 + erf(1 / np.sqrt(2)))
    np.testing.assert_allclose(gelu(np.array(1.0)), want, atol=1e-7)


def test_softplus_sigmoid_stability():
    x = np.array([-1e4, -10.0, 0.0, 10.0, 1e4])
    sp = softplus(x)
    assert np.isfinite(sp).all() and sp[0] >= 0 and np.isclose(sp[2], np.log(2))
    np.testing.assert_allclose(sp[4], 1e4, rtol=1e-12)
    sg = sigmoid(x)
    assert np.isfinite(sg).all() and np.isclose(sg[2], 0.5)


def test_softmax_uniform_and_forced():
    np.testing.assert_allclose(softmax(np.zeros((1, 5))), 0.2)
    out = softmax(np.array([[0.0, np.log(2.0)]]))
    np.testing.assert_allclose(out, [[1 / 3, 2 / 3]], rtol=1e-12)


def test_softmax_shift_invariance_and_sums():
    rng = Rng(6)
    x = rng.normal((4, 9), 0.0, 1e4)
    out = softmax(x)
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)
    np.testing.assert_allclose(softmax(x + 123.0), out, atol=1e-12)
    x32 = x.astype(np.float32)
    np.testing.assert_allclose(softmax(x32).sum(axis=-1), 1.0, atol=1e-6)


def test_softmax_mask():
    x = np.array([[1.0, 2.0, 3.0]])
    mask = np.array([True, False, True])
    out = softmax(x, mask)
    assert out[0, 1] == 0.0
    np.testing.assert_allclose(out.sum(), 1.0, atol=1e-12)
    with pytest.raises(ConfigError):
        softmax(x, np.array([False, False, False]))


def _naive_conv(x, w):
    # Seven explicit loops, the slow but unarguable reference.
    t, h, wd, cin = x.shape
    cout, cin_g, kt, kh, kw = w.weight.shape
    st, sh, sw = w.stride
    pt, ph, pw = w.padding
    to = (t + 2 * pt - kt) // st + 1
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (wd + 2 * pw - kw) // sw + 1
    xp = np.zeros((t + 2 * pt, h + 2 * ph, wd + 2 * pw, cin), dtype=np.float64)
    xp[pt:pt + t, ph:ph + h, pw:pw + wd] = x
    out = np.zeros((to, ho, wo, cout), dtype=np.float64)
    for ot in range(to):
        for oh in range(ho):
            for ow in range(wo):
                for oc in range(cout):
                    g = oc // (cout // w.groups)
                    acc = float(w.bias[oc])
                    for it in range(kt):
                        for ih in range(kh):
                            for iw in range(kw):
                                for ic in range(cin_g):
                                    acc += (xp[ot * st + it, oh * sh + ih, ow * sw + iw,
                                               g * cin_g + ic]
                                            * w.weight[oc, ic, it, ih, iw])
                    out[ot, oh, ow, oc] = acc
    return out


@pytest.mark.parametrize("groups,cout", [(1, 3), (2, 2)])
def test_conv3d_matches_naive(groups, cout):
    rng = Rng(7)
    x = rng.normal((5, 4, 6, 2))
    w = Conv3DWeights(
        weight=rng.child("w").normal((cout, 2 // groups, 3, 2, 3)),
        bias=rng.child("b").normal((cout,)),
        stride=(2, 1, 2), padding=(1, 0, 1), groups=groups,
    )
    got = conv3d(ClipTensor(x), w).data
    np.testing.assert_allclose(got, _naive_conv(x, w), rtol=1e-6, atol=1e-9)


def test_conv3d_rejects_grouped_weights():
    # Only dense (groups 1) and depth-wise (groups == in == out channels)
    # convolutions exist; a channel multiplier or partial grouping is refused.
    rng = Rng(7)
    with pytest.raises(ConfigError, match="groups"):
        Conv3DWeights(weight=rng.child("w").normal((4, 1, 3, 2, 3)),
                      bias=rng.child("b").normal((4,)),
                      stride=(2, 1, 2), padding=(1, 0, 1), groups=2)
    with pytest.raises(ConfigError, match="groups"):
        Conv3DWeights(weight=np.zeros((4, 2, 1, 1, 1)), bias=np.zeros(4),
                      stride=(1, 1, 1), padding=(0, 0, 0), groups=2)


def test_conv3d_depthwise_matches_naive():
    rng = Rng(8)
    x = rng.normal((6, 6, 6, 2))
    w = Conv3DWeights(weight=rng.child("w").normal((2, 1, 3, 3, 3)),
                      bias=rng.child("b").normal((2,)),
                      stride=(1, 1, 1), padding=(1, 1, 1), groups=2)
    got = conv3d(ClipTensor(x), w).data
    np.testing.assert_allclose(got, _naive_conv(x, w), rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("stride,padding", [((1, 1, 1), (1, 1, 1)), ((2, 2, 2), (1, 1, 1)),
                                            ((2, 8, 8), (1, 1, 1)), ((3, 1, 2), (0, 1, 0))])
def test_conv3d_depthwise_slabs_are_bit_identical(monkeypatch, dtype, stride, padding):
    rng = Rng(18)
    x = ClipTensor(rng.normal((14, 9, 17, 6)).astype(dtype))
    w = Conv3DWeights(weight=rng.child("w").normal((6, 1, 3, 3, 3)).astype(dtype),
                      bias=rng.child("b").normal((6,)).astype(dtype),
                      stride=stride, padding=padding, groups=6)
    monkeypatch.setattr(tensor, "DW_SLAB_BYTES", 1 << 40)
    whole = conv3d(x, w).data
    frame_bytes = whole[0].nbytes
    assert len(whole) > 3
    for frames in (1, 2, 3, len(whole) - 1):
        monkeypatch.setattr(tensor, "DW_SLAB_BYTES", frames * frame_bytes + frame_bytes // 2)
        assert conv3d(x, w).data.tobytes() == whole.tobytes(), frames
    monkeypatch.setattr(tensor, "DW_SLAB_BYTES", 1)  # below one frame: one-frame slabs
    assert conv3d(x, w).data.tobytes() == whole.tobytes()


def test_row_blocks_cover_the_rows_with_the_floor_and_a_merged_tail():
    assert list(row_blocks(5000, 4, 1 << 20)) == [(0, 5000)]  # fits: exactly one block
    assert list(row_blocks(5000, 4, 4 * 5000)) == [(0, 5000)]
    assert list(row_blocks(10, 4, 1)) == [(0, 10)]  # fewer rows than the floor
    assert list(row_blocks(300, 1, 100)) == [(0, 100), (100, 200), (200, 300)]
    assert list(row_blocks(330, 1, 100)) == [(0, 100), (100, 200), (200, 330)]  # tail of 30
    assert list(row_blocks(364, 1, 100)) == [(0, 100), (100, 200), (200, 300), (300, 364)]
    assert list(row_blocks(200, 8, 8)) == [(0, 64), (64, 128), (128, 200)]  # floor over budget
    for n in (1, 63, 64, 65, 127, 128, 129, 1000, 4097):
        for row_bytes, budget in ((1, 1), (4, 300), (3, 1000), (1536, 3 << 20), (7, 7 * 200)):
            blocks = list(row_blocks(n, row_bytes, budget))
            rows = max(ROW_BLOCK_MIN, budget // row_bytes)
            assert blocks[0][0] == 0 and blocks[-1][1] == n
            assert all(b0[1] == b1[0] for b0, b1 in zip(blocks, blocks[1:]))
            assert all(min(n, ROW_BLOCK_MIN) <= b - a < rows + ROW_BLOCK_MIN for a, b in blocks)
            assert len(blocks) == 1 or all(b - a == rows for a, b in blocks[:-1])


def test_conv3d_impulse_response():
    x = np.zeros((5, 5, 5, 1))
    x[2, 2, 2, 0] = 1.0
    k = Rng(9).normal((1, 1, 3, 3, 3))
    w = Conv3DWeights(weight=k, bias=np.zeros(1), stride=(1, 1, 1),
                      padding=(1, 1, 1), groups=1)
    out = conv3d(ClipTensor(x), w).data
    # Cross-correlation of an impulse reproduces the kernel flipped about the
    # impulse: out[p] = k[center + impulse - p].
    np.testing.assert_allclose(out[1:4, 1:4, 1:4, 0], k[0, 0][::-1, ::-1, ::-1], atol=1e-12)
    assert out[0].sum() == 0.0 and out[4].sum() == 0.0


def test_conv3d_zero_input_propagates_bias():
    w = Conv3DWeights(weight=np.zeros((3, 2, 1, 1, 1)), bias=np.array([1.0, 2.0, 3.0]),
                      stride=(1, 1, 1), padding=(0, 0, 0), groups=1)
    out = conv3d(ClipTensor(np.zeros((2, 2, 2, 2))), w).data
    np.testing.assert_array_equal(out[..., 0], 1.0)
    np.testing.assert_array_equal(out[..., 2], 3.0)


def test_conv3d_1x1x1_equals_linear():
    rng = Rng(10)
    x = rng.normal((3, 4, 5, 6))
    wmat = rng.child("w").normal((2, 6))
    b = rng.child("b").normal((2,))
    w = Conv3DWeights(weight=wmat.reshape(2, 6, 1, 1, 1), bias=b,
                      stride=(1, 1, 1), padding=(0, 0, 0), groups=1)
    got = conv3d(ClipTensor(x), w).data.reshape(-1, 2)
    want = linear(x.reshape(-1, 6), LinearWeights(weight=wmat, bias=b))
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_kernels_compute_in_input_dtype():
    rng = Rng(14)
    x = rng.normal((3, 4, 5, 6)).astype(np.float32)
    tokens = x.reshape(-1, 6)
    # Weights stay f64: the kernel computes in the dtype of its input.
    lw = LinearWeights(weight=rng.child("lw").normal((4, 6)), bias=rng.child("lb").normal((4,)))
    dense = Conv3DWeights(weight=rng.child("cw").normal((4, 6, 3, 3, 3)), bias=np.zeros(4),
                          stride=(1, 2, 2), padding=(1, 1, 1), groups=1)
    depthwise = Conv3DWeights(weight=rng.child("dw").normal((6, 1, 3, 3, 3)), bias=np.zeros(6),
                              stride=(1, 1, 1), padding=(1, 1, 1), groups=6)
    outs = {
        "linear": linear(tokens, lw),
        "layer_norm": layer_norm(tokens, np.ones(6), np.zeros(6)),
        "gelu": gelu(tokens),
        "softmax": softmax(tokens, np.arange(6) < 4),
        "conv3d dense": conv3d(ClipTensor(x), dense).data,
        "conv3d depth-wise": conv3d(ClipTensor(x), depthwise).data,
    }
    assert {k: v.dtype for k, v in outs.items()} == {k: np.float32 for k in outs}


def test_gelu_leaves_its_input_alone():
    x = Rng(15).normal((4, 5))
    before = x.copy()
    gelu(x)
    np.testing.assert_array_equal(x, before)


def test_conv_output_extent_and_bad_geometry():
    assert conv_output_extent(96, 7, 4, 3) == 24
    assert conv_output_extent(96, 3, 2, 1) == 48
    with pytest.raises(ConfigError):
        conv_output_extent(2, 7, 2, 0)


def test_finite_diff_quadratic_and_constant():
    g = finite_diff_grad(lambda p: float(p @ p), np.array([1.0, 2.0]))
    np.testing.assert_allclose(g, [2.0, 4.0], atol=1e-8)
    g0 = finite_diff_grad(lambda p: 7.0, np.array([1.0, 2.0, 3.0]))
    np.testing.assert_array_equal(g0, 0.0)


def test_finite_diff_nonfinite_names_coordinate():
    def f(p):
        return float("nan") if p[1] > 1.0 else float(p.sum())
    with pytest.raises(NumericError, match=r"\(1,\)"):
        finite_diff_grad(f, np.array([0.0, 1.0]), h=0.5)


def test_gradcheck_detects_wrong_gradient():
    f = lambda p: float((p ** 2).sum())
    good = lambda p: 2 * p
    bad = lambda p: -2 * p
    x = np.array([0.5, -1.5])
    assert gradcheck(f, good, x) < 1e-8
    assert gradcheck(f, bad, x) > 1e-1


def test_rng_determinism_and_streams():
    a = Rng(42).normal((8,))
    b = Rng(42).normal((8,))
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(Rng(43).normal((8,)), a)
    c1 = Rng(42).child("x").uniform((4,))
    c2 = Rng(42).child("x").uniform((4,))
    c3 = Rng(42).child("y").uniform((4,))
    np.testing.assert_array_equal(c1, c2)
    assert not np.array_equal(c1, c3)
    # Nested labels commute with nothing: the stream tree is label-addressed.
    d1 = Rng(42).child("x").child("y").normal((4,))
    d2 = Rng(42).child("x").child("y").normal((4,))
    np.testing.assert_array_equal(d1, d2)


def test_rng_distributions_sane():
    r = Rng(0)
    u = r.uniform((10000,), 2.0, 5.0)
    assert u.min() >= 2.0 and u.max() <= 5.0 and abs(u.mean() - 3.5) < 0.1
    n = Rng(1).normal((20000,), -1.0, 2.0)
    assert abs(n.mean() + 1.0) < 0.05 and abs(n.std() - 2.0) < 0.05
    t = Rng(2).truncated_normal((20000,), std=0.02)
    assert np.abs(t).max() <= 0.04 + 1e-12
    ints = Rng(3).integers(0, 5, (1000,))
    assert set(np.unique(ints)) == {0, 1, 2, 3, 4}


def _exact_truncated_normal(seed: int, n: int, std: float) -> np.ndarray:
    """std * ndtri on the same uniforms the Rng draws, without the table."""
    u = Rng(seed)._gen.random(n)
    lo, hi = special.ndtr(-2.0), special.ndtr(2.0)
    return std * special.ndtri(lo + (hi - lo) * u)


@pytest.mark.parametrize("std", [0.02, 1.0])
def test_truncated_normal_tracks_the_exact_inverse_cdf(std):
    n = 1_100_000
    got = Rng(5).truncated_normal((n,), std=std)
    assert got.dtype == np.float64 and got.shape == (n,)
    assert np.abs(got - _exact_truncated_normal(5, n, std)).max() <= 1e-7 * std
    assert np.abs(got).max() <= 2 * std
    assert abs(got.mean()) < 0.01 * std and abs(got.std() / std - 0.8796) < 0.01


@pytest.mark.parametrize("a,b", [(0, 7), (1, 16383), (16383, 2), (16384, 16384),
                                 (20000, 33000), ((), 40000)])
def test_truncated_normal_consumes_one_uniform_per_value(a, b):
    na = 1 if a == () else a
    whole = Rng(9).truncated_normal((na + b,))
    r = Rng(9)
    first = r.truncated_normal(a if a == () else (a,))
    assert first.shape == (() if a == () else (a,))
    second = r.truncated_normal((b,))
    np.testing.assert_array_equal(np.concatenate([first.reshape(-1), second]), whole)
    # The next uniform is the one after the na + b the draws consumed.
    assert r.uniform() == Rng(9)._gen.random(na + b + 1)[-1]


def test_truncated_normal_returns_the_requested_dtype():
    for dtype in (np.float32, np.float64):
        w = Rng(4).truncated_normal((3, 5, 7), std=0.02, dtype=dtype)
        assert w.dtype == dtype and w.shape == (3, 5, 7)
    # f32 is the f64 draw rounded once.
    w32 = Rng(4).truncated_normal((50000,), dtype=np.float32)
    np.testing.assert_array_equal(w32, Rng(4).truncated_normal((50000,)).astype(np.float32))


def test_tensor_file_roundtrip(tmp_path):
    for dtype in (np.float32, np.float64):
        arr = Rng(11).normal((3, 4, 5)).astype(dtype)
        p = tmp_path / f"t_{arr.dtype}.stpt"
        write_tensor(p, arr)
        back = read_tensor(p)
        assert back.dtype == arr.dtype and back.shape == arr.shape
        np.testing.assert_array_equal(back, arr)


def test_tensor_file_scalar_and_corruption(tmp_path):
    p = tmp_path / "s.stpt"
    write_tensor(p, np.array(3.5, dtype=np.float64))
    assert read_tensor(p) == 3.5

    raw = bytearray(p.read_bytes())
    raw[0] = ord("X")
    bad = tmp_path / "bad_magic.stpt"
    bad.write_bytes(bytes(raw))
    with pytest.raises(InputError, match="magic"):
        read_tensor(bad)

    raw = bytearray(p.read_bytes())
    raw[4] = 9  # version
    bad2 = tmp_path / "bad_version.stpt"
    bad2.write_bytes(bytes(raw))
    with pytest.raises(InputError):
        read_tensor(bad2)

    truncated = tmp_path / "trunc.stpt"
    truncated.write_bytes(p.read_bytes()[:-4])
    with pytest.raises(InputError):
        read_tensor(truncated)

    with pytest.raises(InputError):
        read_tensor(tmp_path / "missing.stpt")


@pytest.mark.parametrize("cut", [-1, -5, 4, 0])
def test_tensor_file_payload_size_must_match_the_header(tmp_path, cut):
    # A truncated payload (cut < 0, or a header alone) and trailing bytes (cut > 0)
    # are both rejected, naming the file; an exact payload reads back.
    p = tmp_path / "t.stpt"
    arr = Rng(14).normal((3, 4, 5)).astype(np.float32)
    write_tensor(p, arr)
    raw = p.read_bytes()
    header = 8 + 8 * 3
    bad = tmp_path / "payload.stpt"
    bad.write_bytes(raw[:header] if cut == 0 else raw[:cut] if cut < 0 else raw + bytes(cut))
    with pytest.raises(InputError, match=r"payload size mismatch in .*payload\.stpt"):
        read_tensor(bad)
    np.testing.assert_array_equal(read_tensor(p), arr)


@pytest.mark.parametrize("cut", [None, -1, 0, 4, "huge"])
def test_tensor_file_reads_from_a_pipe(tmp_path, cut):
    # A FIFO reports no size, so its payload is checked while it is read.
    src = tmp_path / "t.stpt"
    arr = Rng(15).normal((3, 4, 5)).astype(np.float64)
    write_tensor(src, arr)
    raw = src.read_bytes()
    if cut == "huge":  # a claim of 4 TiB, followed by no payload
        raw = b"STPT" + struct.pack("<HBBQ", 1, 0, 1, 2 ** 40)
    elif cut is not None:
        raw = raw[:8 + 8 * 3] if cut == 0 else raw[:cut] if cut < 0 else raw + bytes(cut)
    fifo = tmp_path / "pipe.stpt"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as fh:
            fh.write(raw)
    writer = threading.Thread(target=feed)
    writer.start()
    try:
        if cut is None:
            back = read_tensor(fifo)
            assert back.dtype == arr.dtype
            np.testing.assert_array_equal(back, arr)
        else:
            with pytest.raises(InputError, match=r"pipe\.stpt"):
                read_tensor(fifo)
    finally:
        writer.join()


@pytest.mark.parametrize("offset,value,match", [(0, ord("X"), "bad magic"),
                                                (4, 9, "version 9"),
                                                (6, 7, "dtype code 7")])
def test_tensor_file_header_errors_name_the_file(tmp_path, offset, value, match):
    p = tmp_path / "header.stpt"
    write_tensor(p, np.zeros((2, 3), dtype=np.float64))
    raw = bytearray(p.read_bytes())
    raw[offset] = value
    p.write_bytes(bytes(raw))
    with pytest.raises(InputError, match=match) as exc:
        read_tensor(p)
    assert "header.stpt" in str(exc.value)


def test_tensor_file_truncated_header_names_the_file(tmp_path):
    p = tmp_path / "header.stpt"
    write_tensor(p, np.zeros((2, 3), dtype=np.float64))
    p.write_bytes(p.read_bytes()[:8 + 12])  # one and a half dims
    with pytest.raises(InputError, match="truncated header in .*header.stpt"):
        read_tensor(p)


@pytest.mark.parametrize("dims", [(2 ** 63, 2), (0, 2 ** 63), (0, 2 ** 62, 2 ** 62),
                                  (2 ** 62, 4), (2 ** 64 - 1,)])
def test_tensor_file_huge_dims_are_input_errors(tmp_path, dims):
    p = tmp_path / "huge.stpt"
    header = b"STPT" + struct.pack("<HBB", 1, 0, len(dims)) + struct.pack(f"<{len(dims)}Q", *dims)
    p.write_bytes(header)  # no payload: an int64 element count of 2^63 * 2 wraps to 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="huge.stpt"):
            read_tensor(p)


def test_bundle_roundtrip(tmp_path):
    tensors = {"alpha": Rng(12).normal((2, 3)).astype(np.float32),
               "beta": Rng(13).normal((4,)).astype(np.float64)}
    write_bundle(tmp_path / "b", tensors)
    back = read_bundle(tmp_path / "b")
    assert set(back) == {"alpha", "beta"}
    for k in tensors:
        np.testing.assert_array_equal(back[k], tensors[k])
        assert back[k].dtype == tensors[k].dtype
