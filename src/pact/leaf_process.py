"""Leaf-count statistics: limit curve, exact expectation recursion, FCLT scaling.

A leaf is a vertex of total degree 1, where the root's total degree is its
out-degree.  The limiting leaf fraction at rescaled time t is constant before
the change point and then relaxes toward the post-change equilibrium:

    p_inf(t) = (2+a)/(3+2a)                                   for t <= gamma
    p_inf(t) = (2+b)/(3+2b) + (gamma/t)^chi * (p_pre - p_post) for t >  gamma

with chi = (3+2b)/(2+b); the second line equals the expanded form
(2+b)/(3+2b) * (1 - (gamma/t)^chi) + (gamma/t)^((3+2b)/(2+b)) * (2+a)/(3+2a).
"""
from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import Sequence

import numpy as np
from scipy.integrate import quad

from .model_core import (
    ChangePointSchedule,
    HorizonOutOfRange,
    SizeTooSmall,
    segment_of,
    validate_schedule,
    write_csv,
)


class IndexOutOfRange(ValueError):
    """Recursion weight index m outside 2..n-1."""


class MissingTrajectory(ValueError):
    """Operation requires a recorded leaf trajectory."""


@dataclass
class LeafTrajectory:
    """Per-step leaf counts N(m) for m = 2..n.

    ``counts[i]`` is the number of degree-1 vertices in the tree of size i+2,
    counting the root while its out-degree equals 1.  ``root_second_child``
    is the step at which the root acquired its second child (n+1 if never);
    it converts between the root-inclusive and non-root counting conventions.
    """

    n: int
    counts: np.ndarray
    root_second_child: int | None = None

    def steps(self) -> np.ndarray:
        return np.arange(2, self.n + 1)

    def count_at(self, m: int) -> int:
        if not 2 <= m <= self.n:
            raise IndexError(f"step {m} outside 2..{self.n}")
        return int(self.counts[m - 2])

    def proportions(self) -> np.ndarray:
        return self.counts / self.steps()

    def nonroot_counts(self) -> np.ndarray:
        """Leaf counts excluding the root (the expectation recursion's convention)."""
        if self.root_second_child is None:
            raise MissingTrajectory("root_second_child unknown; trajectory was loaded without it")
        ms = self.steps()
        root_is_leaf = ms < self.root_second_child
        return self.counts - root_is_leaf.astype(self.counts.dtype)

    def check_invariants(self) -> None:
        ms = self.steps()
        if self.counts.shape != ms.shape:
            raise AssertionError("trajectory length mismatch")
        if np.any(self.counts < 0) or np.any(self.counts > ms):
            raise AssertionError("leaf count outside [0, m]")
        if np.any(np.abs(np.diff(self.counts)) > 1):
            raise AssertionError("leaf count changed by more than 1 in a step")


def write_trajectory_csv(trajectory: LeafTrajectory, path) -> None:
    write_csv(path, ["m", "leaf_count"], [trajectory.steps(), trajectory.counts])


def read_trajectory_csv(path) -> LeafTrajectory:
    """Load a trajectory CSV; ValueError unless it is a valid trajectory for steps 2..n."""
    with open(path, newline="") as fh:
        header = fh.readline().rstrip("\r\n")
    if header != "m,leaf_count":
        raise ValueError(f"trajectory file {path}: header must be 'm,leaf_count', got {header!r}")
    rows = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
    if rows.shape[1] != 2 or not np.array_equal(rows[:, 0], np.arange(2, len(rows) + 2)):
        raise ValueError(f"trajectory file {path} must cover every step m = 2..n")
    trajectory = LeafTrajectory(n=len(rows) + 1, counts=np.ascontiguousarray(rows[:, 1]))
    try:
        trajectory.check_invariants()
    except AssertionError as exc:
        raise ValueError(f"trajectory file {path}: {exc}") from None
    return trajectory


def delta_exponent(u: float) -> float:
    """Scaling exponent (1+u)/(2+u); strictly increasing with range [1/2, 1)."""
    return (1.0 + u) / (2.0 + u)


def _single_params(schedule: ChangePointSchedule) -> tuple[float, float, float]:
    """(alpha, beta, gamma) with the empty schedule read as beta=alpha, gamma=1."""
    validate_schedule(schedule)
    if schedule.num_change_points == 0:
        return schedule.alpha, schedule.alpha, 1.0
    if schedule.num_change_points == 1:
        return schedule.alpha, schedule.beta, schedule.gamma
    raise ValueError("limit curves are defined for at most one change point")


def _pre_fraction(offset: float) -> float:
    return (2.0 + offset) / (3.0 + 2.0 * offset)


def p_inf(t, schedule: ChangePointSchedule):
    """Limiting leaf proportion at rescaled time t in (0, 1]; vectorized in t."""
    alpha, beta, gamma = _single_params(schedule)
    t_arr = np.asarray(t, dtype=np.float64)
    if np.any(t_arr <= 0.0) or np.any(t_arr > 1.0):
        raise HorizonOutOfRange(f"t must lie in (0, 1], got {t}")
    p_pre = _pre_fraction(alpha)
    p_post = _pre_fraction(beta)
    chi = (3.0 + 2.0 * beta) / (2.0 + beta)
    ratio = np.where(t_arr > gamma, gamma / np.maximum(t_arr, gamma), 1.0)
    out = p_post + ratio**chi * (p_pre - p_post)
    return out if out.ndim else float(out)


def leaf_proportion_integral(x, schedule: ChangePointSchedule):
    """Exact antiderivative I(x) = integral_0^x p_inf(u) du; vectorized in x."""
    alpha, beta, gamma = _single_params(schedule)
    x_arr = np.asarray(x, dtype=np.float64)
    if np.any(x_arr < 0.0) or np.any(x_arr > 1.0):
        raise HorizonOutOfRange(f"x must lie in [0, 1], got {x}")
    p_pre = _pre_fraction(alpha)
    p_post = _pre_fraction(beta)
    chi = (3.0 + 2.0 * beta) / (2.0 + beta)
    xc = np.maximum(x_arr, gamma)
    # integral of (gamma/u)^chi from gamma to xc (chi > 1, so the exponent 1-chi < 0)
    tail = gamma**chi * (xc ** (1.0 - chi) - gamma ** (1.0 - chi)) / (1.0 - chi)
    post_part = p_post * (xc - gamma) + (p_pre - p_post) * tail
    out = p_pre * np.minimum(x_arr, gamma) + post_part
    return out if out.ndim else float(out)


def w_m(m: int, n: int, schedule: ChangePointSchedule) -> float:
    """Weight 1 - (1+c)/((2+c)m - 1) in the leaf expectation recursion.

    c is the offset governing the attachment of vertex m+1.
    """
    if not 2 <= m <= n - 1:
        raise IndexOutOfRange(f"m={m} outside 2..{n - 1}")
    _, c = segment_of(schedule, m + 1, n)
    return 1.0 - (1.0 + c) / ((2.0 + c) * m - 1.0)


def expected_leaves(n: int, schedule: ChangePointSchedule) -> np.ndarray:
    """Exact expected non-root leaf counts for m = 2..n.

    Runs the recursion E(m+1) = 1 + w_m * E(m) with E(2) = 1.  All weights
    lie in (0, 1), so plain accumulation is stable.
    """
    validate_schedule(schedule)
    if n < 2:
        raise SizeTooSmall(f"n must be >= 2, got {n}")
    from .model_core import step_offsets

    out = np.empty(n - 1, dtype=np.float64)
    out[0] = 1.0
    if n > 2:
        offs = step_offsets(schedule, n)  # offsets for entering vertices 2..n
        ms = np.arange(2, n, dtype=np.float64)
        w = 1.0 - (1.0 + offs[1:]) / ((2.0 + offs[1:]) * ms - 1.0)
        acc = 1.0
        for i in range(n - 2):
            acc = 1.0 + w[i] * acc
            out[i + 1] = acc
    return out


def sigma_m2(t, schedule: ChangePointSchedule):
    """Variance density of the scaled leaf-count martingale; vectorized in t."""
    alpha, beta, gamma = _single_params(schedule)
    t_arr = np.asarray(t, dtype=np.float64)
    if np.any(t_arr < 0.0) or np.any(t_arr > 1.0):
        raise HorizonOutOfRange(f"t must lie in [0, 1], got {t}")
    da = delta_exponent(alpha)
    db = delta_exponent(beta)
    p_gamma = _pre_fraction(alpha)
    pre = t_arr ** (2 * da) * (da * p_gamma * (1 - da * p_gamma))
    pt = p_inf(np.maximum(t_arr, min(gamma, 1.0)), schedule) if gamma < 1.0 else p_gamma
    post = gamma ** (2 * da) * (np.maximum(t_arr, gamma) / gamma) ** (2 * db) * (
        db * np.asarray(pt) * (1 - db * np.asarray(pt))
    )
    out = np.where(t_arr <= gamma, pre, post)
    return out if out.ndim else float(out)


def sigma2(t, schedule: ChangePointSchedule):
    """Instantaneous variance (no time-scaling factor); jumps at gamma when alpha != beta."""
    alpha, beta, gamma = _single_params(schedule)
    t_arr = np.asarray(t, dtype=np.float64)
    if np.any(t_arr < 0.0) or np.any(t_arr > 1.0):
        raise HorizonOutOfRange(f"t must lie in [0, 1], got {t}")
    da = delta_exponent(alpha)
    db = delta_exponent(beta)
    p_gamma = _pre_fraction(alpha)
    pre = np.full_like(t_arr, da * p_gamma * (1 - da * p_gamma))
    pt = np.asarray(p_inf(np.maximum(t_arr, min(gamma, 1.0)), schedule)) if gamma < 1.0 else p_gamma
    post = db * pt * (1 - db * pt)
    out = np.where(t_arr <= gamma, pre, post)
    return out if out.ndim else float(out)


def mu_drift(t, schedule: ChangePointSchedule):
    """Drift coefficient of the rescaled leaf process; jumps at gamma when alpha != beta."""
    alpha, beta, gamma = _single_params(schedule)
    t_arr = np.asarray(t, dtype=np.float64)
    if np.any(t_arr <= 0.0) or np.any(t_arr > 1.0):
        raise HorizonOutOfRange(f"t must lie in (0, 1], got {t}")
    da = delta_exponent(alpha)
    db = delta_exponent(beta)
    pre = -da / t_arr ** (da + 1.0)
    post = -db * gamma ** (db - da) / t_arr ** (db + 1.0)
    out = np.where(t_arr <= gamma, pre, post)
    return out if out.ndim else float(out)


def g_scale(t, schedule: ChangePointSchedule):
    """De-scaling factor g(t); continuous across the change point."""
    alpha, beta, gamma = _single_params(schedule)
    t_arr = np.asarray(t, dtype=np.float64)
    if np.any(t_arr <= 0.0) or np.any(t_arr > 1.0):
        raise HorizonOutOfRange(f"t must lie in (0, 1], got {t}")
    da = delta_exponent(alpha)
    db = delta_exponent(beta)
    pre = t_arr ** (-da)
    post = gamma ** (db - da) * t_arr ** (-db)
    out = np.where(t_arr <= gamma, pre, post)
    return out if out.ndim else float(out)


def phi(t: float, schedule: ChangePointSchedule) -> float:
    """Variance clock phi(t) = integral_0^t sigma_m2(s) ds.

    Closed form on [0, gamma] (power-law integrand); adaptive quadrature with
    absolute tolerance 1e-10 on the smooth piece above gamma.
    """
    alpha, beta, gamma = _single_params(schedule)
    if not 0.0 <= t <= 1.0:
        raise HorizonOutOfRange(f"t must lie in [0, 1], got {t}")
    da = delta_exponent(alpha)
    p_gamma = _pre_fraction(alpha)
    c_pre = da * p_gamma * (1 - da * p_gamma)
    lo = min(t, gamma)
    total = c_pre * lo ** (2 * da + 1) / (2 * da + 1)
    if t > gamma:
        piece, _ = quad(lambda s: sigma_m2(s, schedule), gamma, t, epsabs=1e-10, limit=200)
        total += piece
    return float(total)


@dataclass(frozen=True)
class VarianceSuite:
    sigma_m2: float
    sigma2: float
    mu: float
    g: float
    phi: float


def variance_suite(t: float, schedule: ChangePointSchedule) -> VarianceSuite:
    """All closed-form fluctuation coefficients at a single time t in (0, 1]."""
    return VarianceSuite(
        sigma_m2=float(sigma_m2(t, schedule)),
        sigma2=float(sigma2(t, schedule)),
        mu=float(mu_drift(t, schedule)),
        g=float(g_scale(t, schedule)),
        phi=phi(t, schedule),
    )


def variance_gn(t: float, schedule: ChangePointSchedule) -> float:
    """Limiting variance of the centred, sqrt(n)-scaled leaf count at time t."""
    g = g_scale(t, schedule)
    return float(g * g * phi(t, schedule))


@dataclass(frozen=True)
class LeafLimitCurve:
    """Bundle of the limit-curve evaluators for one schedule."""

    schedule: ChangePointSchedule

    def p_inf(self, t):
        return p_inf(t, self.schedule)

    def sigma_m2(self, t):
        return sigma_m2(t, self.schedule)

    def sigma2(self, t):
        return sigma2(t, self.schedule)

    def mu(self, t):
        return mu_drift(t, self.schedule)

    def g(self, t):
        return g_scale(t, self.schedule)

    def phi(self, t):
        return phi(t, self.schedule)


def gn_path(trajectory: LeafTrajectory | None, schedule: ChangePointSchedule, grid) -> np.ndarray:
    """Centred, sqrt(n)-scaled leaf-count path (N(nt) - nt p_inf(t)) / sqrt(n).

    Leaf counts are linearly interpolated between recorded integer steps.
    """
    if trajectory is None:
        raise MissingTrajectory("gn_path needs a recorded leaf trajectory")
    grid_arr = np.asarray(grid, dtype=np.float64)
    if np.any(grid_arr <= 0.0) or np.any(grid_arr > 1.0):
        raise HorizonOutOfRange(f"grid must lie in (0, 1], got {grid}")
    n = trajectory.n
    counts_at = np.interp(n * grid_arr, trajectory.steps(), trajectory.counts)
    centred = counts_at - n * grid_arr * np.asarray(p_inf(grid_arr, schedule))
    return centred / np.sqrt(n)


def write_curve_csv(schedule: ChangePointSchedule, ts: Sequence[float], path) -> None:
    rows = [
        (float(t), float(p_inf(float(t), schedule)), *astuple(variance_suite(float(t), schedule)))
        for t in ts
    ]
    write_csv(path, ["t", "p_inf", "sigmaM2", "sigma2", "mu", "g", "phi"], list(zip(*rows)))
