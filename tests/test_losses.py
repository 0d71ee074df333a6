"""Loss values against hand-computed cases and finite-difference gradients."""

import math

import numpy as np
import pytest

from stpt.errors import ConfigError
from stpt.losses import (focal_loss, gradient_check_report, l1_offset_loss, quality_loss,
                         tiou_loss)
from stpt.tensor import Rng, finite_diff_grad


def test_focal_loss_unit_values():
    # Logit 0 gives p = 1/2: positive term 0.25 * 0.25 * ln 2, negative term
    # 0.75 * 0.25 * ln 2.
    lp, _ = focal_loss(np.array([0.0]), np.array([1.0]))
    assert lp == pytest.approx(0.25 * 0.25 * math.log(2.0), rel=1e-12)
    ln, _ = focal_loss(np.array([0.0]), np.array([0.0]))
    assert ln == pytest.approx(0.75 * 0.25 * math.log(2.0), rel=1e-12)


def test_focal_loss_means_over_all_entries():
    z = np.zeros((2, 3))
    t = np.zeros((2, 3))
    t[0, 0] = 1.0
    loss, grad = focal_loss(z, t)
    pos = 0.25 * 0.25 * math.log(2.0)
    neg = 0.75 * 0.25 * math.log(2.0)
    assert loss == pytest.approx((pos + 5 * neg) / 6, rel=1e-12)
    assert grad.shape == z.shape


def test_focal_at_gamma_zero_is_half_weighted_bce():
    rng = Rng(0)
    z = rng.normal((4, 3), 0.0, 2.0)
    t = (rng.child("t").uniform((4, 3)) < 0.5).astype(np.float64)
    f, _ = focal_loss(z, t, gamma=0.0, alpha=0.5)
    bce, _ = quality_loss(z, t)
    assert f == pytest.approx(0.5 * bce, rel=1e-12)


def test_focal_loss_shape_mismatch():
    with pytest.raises(ConfigError, match="shape"):
        focal_loss(np.zeros((2, 2)), np.zeros((2, 3)))


def test_tiou_loss_values():
    loss, grad = tiou_loss(np.array([[1.0, 3.0]]), np.array([[1.0, 3.0]]))
    assert loss == 0.0
    loss, _ = tiou_loss(np.array([[0.0, 2.0]]), np.array([[1.0, 3.0]]))
    assert loss == pytest.approx(2.0 / 3.0, rel=1e-12)
    # Disjoint segments: maximal loss, locally flat.
    loss, grad = tiou_loss(np.array([[0.0, 1.0]]), np.array([[2.0, 3.0]]))
    assert loss == 1.0
    np.testing.assert_array_equal(grad, 0.0)


def test_tiou_loss_validation():
    with pytest.raises(ConfigError, match="start < end"):
        tiou_loss(np.array([[2.0, 1.0]]), np.array([[0.0, 1.0]]))
    with pytest.raises(ConfigError, match="segments"):
        tiou_loss(np.zeros((2, 3)), np.zeros((2, 3)))
    loss, grad = tiou_loss(np.zeros((0, 2)), np.zeros((0, 2)))
    assert loss == 0.0 and grad.shape == (0, 2)


def test_l1_offset_loss_values():
    pred = np.array([[1.0, -2.0], [0.5, 0.0]])
    target = np.array([[0.0, 0.0], [0.5, 1.0]])
    loss, grad = l1_offset_loss(pred, target)
    assert loss == pytest.approx((1.0 + 2.0 + 0.0 + 1.0) / 4.0, rel=1e-12)
    np.testing.assert_array_equal(grad, np.array([[1, -1], [0, -1]]) / 4.0)


def test_quality_loss_values():
    loss, grad = quality_loss(np.array([0.0]), np.array([1.0]))
    assert loss == pytest.approx(math.log(2.0), rel=1e-12)
    assert grad[0] == pytest.approx(-0.5, rel=1e-12)
    loss, _ = quality_loss(np.array([0.0]), np.array([0.5]))
    assert loss == pytest.approx(math.log(2.0), rel=1e-12)
    with pytest.raises(ConfigError, match="0, 1"):
        quality_loss(np.array([0.0]), np.array([1.5]))


def test_gradients_match_finite_differences():
    report = gradient_check_report(seed=0, points=10, h=1e-5)
    assert set(report) == {"focal", "tiou", "offset_l1", "quality"}
    for term, err in report.items():
        assert err < 1e-4, f"{term} gradient error {err}"


def test_finite_diff_catches_broken_gradient():
    # Scaling an analytic gradient must blow past the acceptance tolerance.
    z = np.array([0.5, -1.0, 2.0])
    t = np.array([1.0, 0.0, 0.0])
    fd = finite_diff_grad(lambda v: focal_loss(v, t)[0], z, 1e-5)
    good = focal_loss(z, t)[1]
    assert np.abs(fd - good).max() < 1e-8
    bad = 1.1 * good
    rel = np.abs(fd - bad).max() / np.abs(fd).max()
    assert rel > 1e-2
