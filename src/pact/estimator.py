"""Offline change-point estimation from a leaf trajectory.

The detection statistic compares the average leaf proportion over the
windows (n*eps, n*t] and (n*t, n] of steps:

    D_n(t) = (1 - t) * | mean_before(t) - mean_after(t) |,   t in [eps, 1].

Window averages are empirical means over the integer steps they contain, so a
constant trajectory gives exactly (c, c) at every t and D_n == 0, and adding
a constant to every proportion leaves D_n unchanged.  The estimate is the
right edge of the near-max set {t : D_n(t) >= D_n* - threshold} with
threshold log(n)/sqrt(n); a detection floor converts the degenerate flat
curve (no change, or signal below the resolvable scale) into "no change
detected" instead of a meaningless estimate near 1.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .leaf_process import LeafTrajectory, leaf_proportion_integral, p_inf
from .model_core import ChangePointSchedule, validate_schedule, write_csv


class TOutOfRange(ValueError):
    """Split point t outside (epsilon, 1)."""


class EmptyWindow(ValueError):
    """A split window contains no steps."""


class EmptyCurve(ValueError):
    """No curve points to maximize over."""


class BadInterval(ValueError):
    """Interval endpoints out of order or outside (0, 1]."""


@dataclass
class EstimatorConfig:
    """Tuning of the offline estimator.

    grid=None evaluates at every integer step m with m/n > epsilon (plus the
    t=1 endpoint).  Thresholds default to log(n)/sqrt(n) for the near-max set
    and twice that for the detection floor.
    """

    epsilon: float = 0.1
    near_max_threshold: float | None = None
    detection_floor: float | None = None
    grid: Sequence[float] | None = None

    def resolve_threshold(self, n: int) -> float:
        if self.near_max_threshold is not None:
            return float(self.near_max_threshold)
        return math.log(n) / math.sqrt(n)

    def resolve_floor(self, n: int) -> float:
        if self.detection_floor is not None:
            return float(self.detection_floor)
        return 2.0 * math.log(n) / math.sqrt(n)

    def validate(self) -> "EstimatorConfig":
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if self.near_max_threshold is not None and self.near_max_threshold <= 0:
            raise ValueError("near_max_threshold must be > 0")
        return self


@dataclass
class DnCurve:
    ts: np.ndarray
    values: np.ndarray
    n: int
    epsilon: float


@dataclass
class EstimateReport:
    """Estimator output: curve maximum, near-max set summary, estimate, flag."""

    dn_star: float
    gamma_hat: float | None
    detected: bool
    epsilon: float
    threshold: float
    detection_floor: float
    near_max_min: float
    near_max_max: float
    n: int

    def to_json(self) -> dict:
        return {
            "gamma_hat": self.gamma_hat,
            "dn_star": self.dn_star,
            "detected": self.detected,
            "epsilon": self.epsilon,
            "threshold": self.threshold,
        }


def _prefix_sums(trajectory: LeafTrajectory) -> np.ndarray:
    """P with P[k] = sum of leaf proportions over steps 2..k (P[0] = P[1] = 0)."""
    n = trajectory.n
    out = np.zeros(n + 1, dtype=np.float64)
    out[2:] = np.cumsum(trajectory.proportions())
    return out


def _window_bounds(n: int, epsilon: float) -> int:
    """Left window edge: steps strictly above n*epsilon are averaged."""
    return max(int(math.floor(n * epsilon)), 1)


def split_means(trajectory: LeafTrajectory, t: float, epsilon: float) -> tuple[float, float]:
    """Average leaf proportions over the steps in (n*eps, n*t] and (n*t, n]."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not epsilon < t < 1.0:
        raise TOutOfRange(f"t must lie in ({epsilon}, 1), got {t}")
    n = trajectory.n
    m_lo = _window_bounds(n, epsilon)
    m_t = int(math.floor(n * t))
    if m_t >= n:
        raise EmptyWindow(f"no steps in (n*t, n] for t={t}")
    if m_t <= m_lo:
        raise EmptyWindow(f"no steps in (n*eps, n*t] for t={t}, eps={epsilon}")
    prefix = _prefix_sums(trajectory)
    before = (prefix[m_t] - prefix[m_lo]) / (m_t - m_lo)
    after = (prefix[n] - prefix[m_t]) / (n - m_t)
    return float(before), float(after)


def dn_curve(trajectory: LeafTrajectory, config: EstimatorConfig) -> DnCurve:
    """Evaluate D_n over the configured grid (default: every step above epsilon).

    The t=1 endpoint is assigned 0 by continuity of the (1-t) factor.
    """
    config.validate()
    n = trajectory.n
    eps = config.epsilon
    m_lo = _window_bounds(n, eps)
    prefix = _prefix_sums(trajectory)
    if config.grid is None:
        ms = np.arange(m_lo + 1, n)
        ts = ms / n
    else:
        ts = np.asarray(sorted(config.grid), dtype=np.float64)
        if ts.size == 0:
            raise EmptyCurve("empty evaluation grid")
        if np.any(ts <= eps) or np.any(ts > 1.0):
            raise TOutOfRange(f"grid points must lie in ({eps}, 1]")
        ms = np.floor(n * ts).astype(np.int64)
        if np.any((ms <= m_lo) & (ms < n)):
            bad = ts[(ms <= m_lo) & (ms < n)][0]
            raise EmptyWindow(f"no steps in (n*eps, n*t] for t={bad}")
    inner = (ms > m_lo) & (ms < n)
    dn = np.zeros(ts.size, dtype=np.float64)
    msi = ms[inner]
    before = (prefix[msi] - prefix[m_lo]) / (msi - m_lo)
    after = (prefix[n] - prefix[msi]) / (n - msi)
    dn[inner] = (1.0 - ts[inner]) * np.abs(before - after)
    if config.grid is None:
        ts = np.concatenate([ts, [1.0]])
        dn = np.concatenate([dn, [0.0]])
    if ts.size == 0:
        raise EmptyCurve("empty evaluation grid")
    return DnCurve(ts=ts, values=dn, n=n, epsilon=eps)


def gamma_hat(curve: DnCurve, config: EstimatorConfig) -> EstimateReport:
    """Right edge of the near-max set of D_n, with a no-change detection floor."""
    if curve.ts.size == 0:
        raise EmptyCurve("empty D_n curve")
    threshold = config.resolve_threshold(curve.n)
    floor = config.resolve_floor(curve.n)
    dn_star = float(curve.values.max())
    near = curve.values >= dn_star - threshold
    near_ts = curve.ts[near]
    detected = dn_star > floor
    return EstimateReport(
        dn_star=dn_star,
        gamma_hat=float(near_ts.max()) if detected else None,
        detected=detected,
        epsilon=curve.epsilon,
        threshold=threshold,
        detection_floor=floor,
        near_max_min=float(near_ts.min()),
        near_max_max=float(near_ts.max()),
        n=curve.n,
    )


def estimate(trajectory: LeafTrajectory, config: EstimatorConfig | None = None) -> EstimateReport:
    config = config or EstimatorConfig()
    return gamma_hat(dn_curve(trajectory, config), config)


def limit_H(s: float, t: float, schedule: ChangePointSchedule) -> float:
    """Mean limiting leaf proportion over a uniformly sampled time in [s, t]."""
    if not 0.0 < s < t <= 1.0:
        raise BadInterval(f"need 0 < s < t <= 1, got s={s}, t={t}")
    validate_schedule(schedule)
    return float(
        (leaf_proportion_integral(t, schedule) - leaf_proportion_integral(s, schedule)) / (t - s)
    )


def limit_D(t, schedule: ChangePointSchedule, epsilon: float):
    """Population counterpart of D_n; vectorized in t.

    Constant (1-gamma)|p_gamma - H[gamma,1]| on [eps, gamma]; equals
    (1-eps)|H[eps,t] - H[eps,1]| above gamma, decreasing to 0 at t=1.
    """
    validate_schedule(schedule)
    if schedule.num_change_points != 1:
        raise BadInterval("limit curve needs exactly one change point")
    gamma = schedule.gamma
    if not 0.0 < epsilon < gamma:
        raise BadInterval(f"need 0 < epsilon < gamma={gamma}, got {epsilon}")
    t_arr = np.asarray(t, dtype=np.float64)
    if np.any(t_arr < epsilon) or np.any(t_arr > 1.0):
        raise BadInterval(f"t must lie in [{epsilon}, 1], got {t}")
    p_gamma = float(p_inf(gamma, schedule))
    plateau = (1.0 - gamma) * abs(p_gamma - limit_H(gamma, 1.0, schedule))
    h_eps_1 = limit_H(epsilon, 1.0, schedule)
    tc = np.maximum(t_arr, gamma)
    h_eps_t = (
        leaf_proportion_integral(tc, schedule) - leaf_proportion_integral(epsilon, schedule)
    ) / (tc - epsilon)
    decay = (1.0 - epsilon) * np.abs(h_eps_t - h_eps_1)
    out = np.where(t_arr <= gamma, plateau, decay)
    return out if out.ndim else float(out)


def write_dn_csv(curve: DnCurve, path, d_limit: np.ndarray | None = None) -> None:
    """Columns t, dn, d_limit; d_limit is left empty when no limit curve is given."""
    third = [""] * len(curve.ts) if d_limit is None else d_limit
    write_csv(path, ["t", "dn", "d_limit"], [curve.ts, curve.values, third])


def write_report_json(report: EstimateReport, path) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(report.to_json(), fh, indent=2)
        fh.write("\n")
