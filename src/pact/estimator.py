"""Offline change-point estimation from a leaf trajectory.

The detection statistic compares the average leaf proportion over the
windows (n*eps, n*t] and (n*t, n] of steps:

    D_n(t) = (1 - t) * | mean_before(t) - mean_after(t) |,   t in [eps, 1].

Window averages are empirical means over the integer steps they contain, so a
constant trajectory gives exactly (c, c) at every t and D_n == 0, and adding
a constant to every proportion leaves D_n unchanged.  The estimate is the
right edge of the near-max set {t : D_n(t) >= D_n* - threshold} with the
prescribed threshold log(n)/sqrt(n) (``near_max_threshold``); a detection
floor of twice that converts the degenerate flat curve (no change, or signal
below the resolvable scale) into "no change detected" instead of a
meaningless estimate near 1: D_n is detected only when its maximum D_n*
exceeds the floor.

The population curve D (``limit_D``) is flat on [eps, gamma_1] and joins
that plateau with zero slope at the first change point gamma_1:
D(gamma_1 + h) = D* - kappa h^2 + O(h^3), kappa = (1-eps)|p'(gamma_1+)| /
(2(gamma_1-eps)).  The near-max right edge therefore converges like
gamma_1 + sqrt(threshold/kappa), far more slowly than the threshold itself;
with log(n)/sqrt(n) the estimate is consistent, but at any fixed n it sits
above gamma_1 by about that amount.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .leaf_process import LeafTrajectory, leaf_proportion_integral, p_inf
from .model_core import ChangePointSchedule, write_csv


# most rows of the regular grid that dn_curve_*.csv holds for one curve
DN_CSV_ROWS = 2001


def near_max_threshold(n: int) -> float:
    """Threshold log(n)/sqrt(n) of the near-max set; the detection floor is twice it."""
    return math.log(n) / math.sqrt(n)


@dataclass
class DnCurve:
    ts: np.ndarray
    values: np.ndarray
    n: int
    epsilon: float


@dataclass
class EstimateReport:
    """Estimator output: estimate, curve maximum, flag, near-max set summary.

    Fields are in the key order of report_*.json."""

    gamma_hat: float | None
    dn_star: float
    detected: bool
    epsilon: float
    threshold: float
    detection_floor: float
    near_max_min: float
    near_max_max: float
    n: int


def _prefix_sums(trajectory: LeafTrajectory) -> np.ndarray:
    """P with P[k] = sum of leaf proportions over steps 2..k (P[0] = P[1] = 0)."""
    out = np.zeros(trajectory.n + 1, dtype=np.float64)
    np.cumsum(trajectory.proportions(), out=out[2:])
    return out


def _window_bounds(n: int, epsilon: float) -> int:
    """Left window edge: steps strictly above n*epsilon are averaged."""
    return max(int(math.floor(n * epsilon)), 1)


def dn_curve(trajectory: LeafTrajectory, epsilon: float) -> DnCurve:
    """Evaluate D_n at t = m/n for every step m with n*epsilon < m < n, then at t = 1.

    The t=1 endpoint is assigned 0 by continuity of the (1-t) factor, so the
    curve is never empty.  Every step is computed in place in a few buffers of
    the curve's length; the window sizes m - m_lo and n - m are exact in
    float64, so each value has the bits of the direct array expression.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    n = trajectory.n
    m_lo = _window_bounds(n, epsilon)
    prefix = _prefix_sums(trajectory)
    k = n - 1 - m_lo  # steps m_lo+1 .. n-1
    ts = np.empty(k + 1)
    values = np.empty(k + 1)
    ts[k], values[k] = 1.0, 0.0
    sizes = np.arange(1.0, k + 1.0)  # m - m_lo; reversed, n - m
    np.add(sizes, m_lo, out=ts[:k])
    ts[:k] /= n
    head = prefix[m_lo + 1 : n]  # prefix[m] for every step m
    dn = values[:k]
    np.subtract(head, prefix[m_lo], out=dn)
    dn /= sizes  # mean before
    after = prefix[n] - head
    after /= sizes[::-1]
    dn -= after
    np.abs(dn, out=dn)
    np.subtract(1.0, ts[:k], out=sizes)
    dn *= sizes
    return DnCurve(ts=ts, values=values, n=n, epsilon=epsilon)


def gamma_hat(curve: DnCurve) -> EstimateReport:
    """Right edge of the near-max set of D_n, with a no-change detection floor."""
    threshold = near_max_threshold(curve.n)
    floor = 2.0 * threshold
    dn_star = float(curve.values.max())
    near = curve.values >= dn_star - threshold  # holds the maximum, so never empty
    # ts ascends: the set's edges are its first and last members, found without a gather
    near_min = float(curve.ts[np.argmax(near)])
    near_max = float(curve.ts[near.size - 1 - np.argmax(near[::-1])])
    detected = dn_star > floor
    return EstimateReport(
        gamma_hat=near_max if detected else None,
        dn_star=dn_star,
        detected=detected,
        epsilon=curve.epsilon,
        threshold=threshold,
        detection_floor=floor,
        near_max_min=near_min,
        near_max_max=near_max,
        n=curve.n,
    )


def limit_H(s: float, t, schedule: ChangePointSchedule):
    """Mean limiting leaf proportion over a uniformly sampled time in [s, t]; vectorized in t."""
    ts = np.asarray(t, dtype=np.float64)
    if not np.all((0.0 < s) & (s < ts) & (ts <= 1.0)):
        raise ValueError(f"need 0 < s < t <= 1, got s={s}, t={t}")
    out = (
        leaf_proportion_integral(ts, schedule) - leaf_proportion_integral(s, schedule)
    ) / (ts - s)
    return out if out.ndim else float(out)


def limit_D(t, schedule: ChangePointSchedule, epsilon: float):
    """Population counterpart of D_n, (1-t)|H[eps,t] - H[t,1]|, for k >= 1 change points.

    p_inf is constant before the first change point gamma_1, so D is the
    constant (1-gamma_1)|p(gamma_1) - H[gamma_1,1]| on [eps, gamma_1]; above
    gamma_1 it equals (1-eps)|H[eps,t] - H[eps,1]|, which reaches 0 at t=1.
    The join at gamma_1 has zero slope, since d/dt H[eps,t] = (p_inf(t) -
    H[eps,t])/(t-eps) vanishes where H[eps,gamma_1] = p(gamma_1); near it,
    D = plateau - kappa (t-gamma_1)^2 with kappa = (1-eps)|p'(gamma_1+)| /
    (2(gamma_1-eps)), so the right edge of {t : D(t) >= plateau - threshold}
    is gamma_1 + sqrt(threshold/kappa) to leading order.
    """
    if not schedule.segments:
        raise ValueError("limit_D needs a change point")
    gamma = schedule.segments[0].gamma
    if not 0.0 < epsilon < gamma:
        raise ValueError(f"need 0 < epsilon < gamma_1={gamma}, got {epsilon}")
    t_arr = np.asarray(t, dtype=np.float64)
    if np.any(t_arr < epsilon) or np.any(t_arr > 1.0):
        raise ValueError(f"t must lie in [{epsilon}, 1], got {t}")
    p_gamma = float(p_inf(gamma, schedule))
    plateau = (1.0 - gamma) * abs(p_gamma - limit_H(gamma, 1.0, schedule))
    h_eps_t = limit_H(epsilon, np.maximum(t_arr, gamma), schedule)
    decay = (1.0 - epsilon) * np.abs(h_eps_t - limit_H(epsilon, 1.0, schedule))
    out = np.where(t_arr <= gamma, plateau, decay)
    return out if out.ndim else float(out)


def thin_dn_curve(curve: DnCurve, report: EstimateReport) -> DnCurve:
    """The rows of `curve` that dn_curve_*.csv holds.

    An L-row curve keeps the rows at round(linspace(0, L-1, DN_CSV_ROWS)),
    which include the first step and t = 1 (and every row when L <= DN_CSV_ROWS),
    plus the maximum and both edges of the near-max set, in order and each
    once.  Each kept row is the curve's own (t, dn) pair.
    """
    grid = np.rint(np.linspace(0, len(curve.ts) - 1, DN_CSV_ROWS)).astype(np.intp)
    edges = np.searchsorted(curve.ts, [report.near_max_min, report.near_max_max])
    keep = np.unique(np.concatenate([grid, edges, [np.argmax(curve.values)]]))
    return DnCurve(ts=curve.ts[keep], values=curve.values[keep], n=curve.n,
                   epsilon=curve.epsilon)


def write_dn_csv(curve: DnCurve, path, d_limit: np.ndarray | None = None) -> None:
    """One row per point of `curve`: columns t, dn, d_limit.

    The CLI passes the curve that thin_dn_curve keeps; d_limit is left empty
    when no limit curve is given.
    """
    third = [""] * len(curve.ts) if d_limit is None else d_limit
    write_csv(path, ["t", "dn", "d_limit"], [curve.ts, curve.values, third])


def write_report_json(report: EstimateReport, path) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(asdict(report), fh, indent=2)
        fh.write("\n")
