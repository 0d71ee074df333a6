"""Detection losses with closed-form gradients.

Every loss returns (value, gradient) where the gradient is with respect to the
first argument (logits or segment coordinates), so central finite differences
can check each term directly. Values and gradients are computed in f64, and
every segment overlap comes from the package's one tIoU, `evaluation.tiou`.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, NumericError
from .evaluation import _overlap, tiou
from .tensor import Rng, gradcheck, sigmoid


def focal_loss(logits: np.ndarray, targets: np.ndarray, gamma: float = 2.0,
               alpha: float = 0.25, eps: float = 1e-7) -> tuple[float, np.ndarray]:
    """Mean focal binary cross-entropy over all entries.

    Positives contribute -alpha * (1-p)^gamma * log(p), negatives
    -(1-alpha) * p^gamma * log(1-p), with p the sigmoid of the logit clamped
    to [eps, 1-eps].
    """
    z = np.asarray(logits, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if z.shape != t.shape:
        raise ConfigError(f"focal_loss: shape mismatch {z.shape} vs {t.shape}")
    p = np.clip(sigmoid(z), eps, 1.0 - eps)
    pos = -alpha * (1.0 - p) ** gamma * np.log(p)
    neg = -(1.0 - alpha) * p ** gamma * np.log(1.0 - p)
    loss = np.where(t > 0.5, pos, neg).mean()
    # d/dz of the positive term: alpha * (1-p)^gamma * (gamma*p*log(p) - (1-p));
    # the negative term is its mirror under p -> 1-p, z -> -z.
    gpos = alpha * (1.0 - p) ** gamma * (gamma * p * np.log(p) - (1.0 - p))
    gneg = (1.0 - alpha) * p ** gamma * (p - gamma * (1.0 - p) * np.log(1.0 - p))
    grad = np.where(t > 0.5, gpos, gneg) / z.size
    return float(loss), grad


def tiou_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """1 - temporal IoU, averaged over segments; one-sided derivatives at kinks."""
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    if p.ndim != 2 or p.shape[1] != 2 or p.shape != t.shape:
        raise ConfigError(f"tiou_loss expects (n, 2) segments, got {p.shape} vs {t.shape}")
    if p.size == 0:
        return 0.0, np.zeros_like(p)
    s, e = p[:, 0], p[:, 1]
    st, et = t[:, 0], t[:, 1]
    if (e <= s).any() or (et <= st).any():
        raise ConfigError("tiou_loss requires start < end on both sides")
    inter, union = _overlap(p, t)
    n = p.shape[0]
    loss = float((1.0 - tiou(p, t)).mean())
    # dI/ds is -1 where the prediction's start is the binding one, dI/de is +1
    # where its end is; outside any overlap the loss is locally flat.
    overlap = inter > 0
    di_ds = np.where(overlap & (s > st), -1.0, 0.0)
    di_de = np.where(overlap & (e < et), 1.0, 0.0)
    du_ds = -1.0 - di_ds
    du_de = 1.0 - di_de
    diou_ds = np.where(overlap, (di_ds * union - inter * du_ds) / union ** 2, 0.0)
    diou_de = np.where(overlap, (di_de * union - inter * du_de) / union ** 2, 0.0)
    grad = np.stack([-diou_ds, -diou_de], axis=1) / n
    return loss, grad


def l1_offset_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean absolute error over all offset components."""
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    if p.shape != t.shape:
        raise ConfigError(f"l1_offset_loss: shape mismatch {p.shape} vs {t.shape}")
    if p.size == 0:
        return 0.0, np.zeros_like(p)
    d = p - t
    return float(np.abs(d).mean()), np.sign(d) / d.size


def quality_loss(logits: np.ndarray, target: np.ndarray, eps: float = 1e-7) -> tuple[float, np.ndarray]:
    """Binary cross-entropy between the quality probability and a tIoU target."""
    z = np.asarray(logits, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    if z.shape != t.shape:
        raise ConfigError(f"quality_loss: shape mismatch {z.shape} vs {t.shape}")
    if (t < 0).any() or (t > 1).any():
        raise ConfigError("quality_loss targets must lie in [0, 1]")
    if z.size == 0:
        return 0.0, np.zeros_like(z)
    p = np.clip(sigmoid(z), eps, 1.0 - eps)
    loss = float((-t * np.log(p) - (1.0 - t) * np.log(1.0 - p)).mean())
    grad = (sigmoid(z) - t) / z.size
    return loss, grad


def _sample_smooth_segments(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Overlapping (pred, target) segment pairs with margin from every kink.

    The tIoU loss has one-sided derivatives where a predicted boundary meets a
    target boundary and where the overlap vanishes; rejection sampling keeps a
    0.1 margin from those sets so central differences are trustworthy.
    """
    pred = np.zeros((n, 2))
    target = np.zeros((n, 2))
    row = 0
    draw = 0
    while row < n:
        r = rng.child(f"draw{draw}")
        draw += 1
        if draw > 1000 * n:
            raise ConfigError("segment sampler failed to find smooth configurations")
        st = float(r.child("st").uniform((), 0.0, 10.0))
        et = st + float(r.child("len").uniform((), 2.0, 5.0))
        s = st + float(r.child("ds").uniform((), -1.5, 1.5))
        e = et + float(r.child("de").uniform((), -1.5, 1.5))
        margins = (abs(s - st) > 0.1 and abs(e - et) > 0.1
                   and s < et - 0.1 and e > st + 0.1 and e - s > 0.2)
        if margins:
            pred[row] = (s, e)
            target[row] = (st, et)
            row += 1
    return pred, target


def gradient_check_report(seed: int = 0, points: int = 100, h: float = 1e-5) -> dict[str, float]:
    """Max relative error of each analytic gradient against central differences.

    Sample points stay away from the non-smooth sets: logits within [-8, 8]
    (far from the probability clamp), quality targets strictly inside (0, 1),
    offset residuals bounded away from zero, and segment pairs from
    _sample_smooth_segments.
    """
    rng = Rng(seed)
    worst = {"focal": 0.0, "tiou": 0.0, "offset_l1": 0.0, "quality": 0.0}
    for i in range(points):
        prng = rng.child(f"point{i}")

        z = np.clip(prng.child("fz").normal((6, 4), 0.0, 2.0), -8.0, 8.0)
        y = (prng.child("fy").uniform((6, 4)) < 0.3).astype(np.float64)
        err = gradcheck(lambda v: focal_loss(v, y)[0], lambda v: focal_loss(v, y)[1], z, h)
        worst["focal"] = max(worst["focal"], err)

        pred, target = _sample_smooth_segments(prng.child("seg"), 4)
        err = gradcheck(lambda v: tiou_loss(v, target)[0],
                        lambda v: tiou_loss(v, target)[1], pred, h)
        worst["tiou"] = max(worst["tiou"], err)

        ot = prng.child("ot").normal((5, 2), 0.0, 1.0)
        off = ot + np.where(prng.child("osign").uniform((5, 2)) < 0.5, -1.0, 1.0) \
            * prng.child("omag").uniform((5, 2), 0.05, 1.0)
        err = gradcheck(lambda v: l1_offset_loss(v, ot)[0],
                        lambda v: l1_offset_loss(v, ot)[1], off, h)
        worst["offset_l1"] = max(worst["offset_l1"], err)

        qz = np.clip(prng.child("qz").normal((6,), 0.0, 2.0), -8.0, 8.0)
        qt = prng.child("qt").uniform((6,), 0.05, 0.95)
        err = gradcheck(lambda v: quality_loss(v, qt)[0],
                        lambda v: quality_loss(v, qt)[1], qz, h)
        worst["quality"] = max(worst["quality"], err)
    for term, err in worst.items():
        if not np.isfinite(err):
            raise NumericError(f"gradient check for {term} produced non-finite values")
    return worst
