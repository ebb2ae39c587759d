"""Leaf-count statistics: limit curve and FCLT scaling.

A leaf is a vertex of total degree 1, where the root's total degree is its
out-degree.  The limiting leaf fraction at rescaled time t is constant before
the change point and then relaxes toward the post-change equilibrium:

    p_inf(t) = (2+a)/(3+2a)                                   for t <= gamma
    p_inf(t) = (2+b)/(3+2b) + (gamma/t)^chi * (p_pre - p_post) for t >  gamma

with chi = (3+2b)/(2+b); the second line equals the expanded form
(2+b)/(3+2b) * (1 - (gamma/t)^chi) + (gamma/t)^((3+2b)/(2+b)) * (2+a)/(3+2a).
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .model_core import ChangePointSchedule, HorizonOutOfRange, validate_schedule, write_csv

if TYPE_CHECKING:
    from .generator import GrowingTree


@dataclass
class LeafTrajectory:
    """Per-step leaf counts N(m) for m = 2..n.

    ``counts[i]`` is the number of degree-1 vertices in the tree of size i+2,
    counting the root while its out-degree equals 1.
    """

    n: int
    counts: np.ndarray

    def steps(self) -> np.ndarray:
        return np.arange(2, self.n + 1)

    def proportions(self) -> np.ndarray:
        return self.counts / self.steps()

    def leaf_counts(self, steps) -> np.ndarray:
        """Leaf counts N(m) at steps m in 2..n."""
        return self.counts[np.asarray(steps, dtype=np.int64) - 2]

    def check_invariants(self) -> None:
        ms = self.steps()
        if self.counts.shape != ms.shape:
            raise AssertionError("trajectory length mismatch")
        if np.any(self.counts < 0) or np.any(self.counts > ms):
            raise AssertionError("leaf count outside [0, m]")
        if np.any(self.counts[:1] != 2):
            raise AssertionError("the 2-vertex tree must have 2 leaves")
        steps = np.diff(self.counts)
        if np.any((steps != 0) & (steps != 1)):
            raise AssertionError("leaf count must stay or rise by 1 in each step")


def write_trajectory_csv(trajectory: LeafTrajectory, path) -> None:
    write_csv(path, ["m", "leaf_count"], [trajectory.steps(), trajectory.counts])


def read_trajectory_csv(path) -> LeafTrajectory:
    """Load a trajectory CSV; ValueError unless it is a valid trajectory for steps 2..n."""
    with open(path, newline="") as fh:
        header = fh.readline().rstrip("\r\n")
    if header != "m,leaf_count":
        raise ValueError(f"trajectory file {path}: header must be 'm,leaf_count', got {header!r}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # an empty body warns; the shape check rejects it
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


def _parse(t, schedule: ChangePointSchedule, open_at_zero: bool):
    """The closed forms' shared first step: (ts, alpha, beta, gamma), ts = t as a 1-d array.

    t must lie in (0, 1] when open_at_zero and in [0, 1] otherwise; NaN lies
    in neither.  A scalar t becomes a one-element array, so it runs through
    the same array kernels as a grid and gives the same bits.
    """
    alpha, beta, gamma = _single_params(schedule)
    ts = np.asarray(t, dtype=np.float64)
    low = ts > 0.0 if open_at_zero else ts >= 0.0
    if not np.all(low & (ts <= 1.0)):
        raise HorizonOutOfRange(f"t must lie in {'(' if open_at_zero else '['}0, 1], got {t}")
    return ts.reshape(-1), alpha, beta, gamma


def _shaped(out: np.ndarray, t):
    """The closed forms' shared last step: a float for a scalar t, else an array shaped like t."""
    shape = np.shape(t)
    return out.reshape(shape) if shape else float(out[0])


def _pre_fraction(offset: float) -> float:
    return (2.0 + offset) / (3.0 + 2.0 * offset)


def _leaf_fraction(ts: np.ndarray, alpha: float, beta: float, gamma: float) -> np.ndarray:
    p_pre = _pre_fraction(alpha)
    p_post = _pre_fraction(beta)
    chi = (3.0 + 2.0 * beta) / (2.0 + beta)
    ratio = np.where(ts > gamma, gamma / np.maximum(ts, gamma), 1.0)
    return p_post + ratio**chi * (p_pre - p_post)


def p_inf(t, schedule: ChangePointSchedule):
    """Limiting leaf proportion at rescaled time t in (0, 1]; vectorized in t."""
    ts, alpha, beta, gamma = _parse(t, schedule, open_at_zero=True)
    return _shaped(_leaf_fraction(ts, alpha, beta, gamma), t)


def leaf_proportion_integral(x, schedule: ChangePointSchedule):
    """Exact antiderivative I(x) = integral_0^x p_inf(u) du for x in [0, 1]; vectorized in x."""
    xs, alpha, beta, gamma = _parse(x, schedule, open_at_zero=False)
    p_pre = _pre_fraction(alpha)
    p_post = _pre_fraction(beta)
    chi = (3.0 + 2.0 * beta) / (2.0 + beta)
    xc = np.maximum(xs, gamma)
    # integral of (gamma/u)^chi from gamma to xc (chi > 1, so the exponent 1-chi < 0)
    tail = gamma**chi * (xc ** (1.0 - chi) - gamma ** (1.0 - chi)) / (1.0 - chi)
    post_part = p_post * (xc - gamma) + (p_pre - p_post) * tail
    return _shaped(p_pre * np.minimum(xs, gamma) + post_part, x)


def sigma_m2(t, schedule: ChangePointSchedule):
    """Variance density of the scaled leaf-count martingale for t in [0, 1]; vectorized in t."""
    ts, alpha, beta, gamma = _parse(t, schedule, open_at_zero=False)
    da = delta_exponent(alpha)
    db = delta_exponent(beta)
    p_gamma = _pre_fraction(alpha)
    pre = ts ** (2 * da) * (da * p_gamma * (1 - da * p_gamma))
    pt = _leaf_fraction(ts, alpha, beta, gamma)  # used only above gamma
    post = gamma ** (2 * da) * (np.maximum(ts, gamma) / gamma) ** (2 * db) * (
        db * pt * (1 - db * pt)
    )
    return _shaped(np.where(ts <= gamma, pre, post), t)


def sigma2(t, schedule: ChangePointSchedule):
    """Instantaneous variance (unscaled) for t in [0, 1]; jumps at gamma when alpha != beta."""
    ts, alpha, beta, gamma = _parse(t, schedule, open_at_zero=False)
    da = delta_exponent(alpha)
    db = delta_exponent(beta)
    p_gamma = _pre_fraction(alpha)
    pre = np.full_like(ts, da * p_gamma * (1 - da * p_gamma))
    pt = _leaf_fraction(ts, alpha, beta, gamma)  # used only above gamma
    post = db * pt * (1 - db * pt)
    return _shaped(np.where(ts <= gamma, pre, post), t)


def mu_drift(t, schedule: ChangePointSchedule):
    """Drift of the rescaled leaf process for t in (0, 1]; jumps at gamma when alpha != beta."""
    ts, alpha, beta, gamma = _parse(t, schedule, open_at_zero=True)
    da = delta_exponent(alpha)
    db = delta_exponent(beta)
    pre = -da / ts ** (da + 1.0)
    post = -db * gamma ** (db - da) / ts ** (db + 1.0)
    return _shaped(np.where(ts <= gamma, pre, post), t)


def g_scale(t, schedule: ChangePointSchedule):
    """De-scaling factor g(t) for t in (0, 1]; continuous across the change point."""
    ts, alpha, beta, gamma = _parse(t, schedule, open_at_zero=True)
    da = delta_exponent(alpha)
    db = delta_exponent(beta)
    pre = ts ** (-da)
    post = gamma ** (db - da) * ts ** (-db)
    return _shaped(np.where(ts <= gamma, pre, post), t)


def phi(t, schedule: ChangePointSchedule):
    """Variance clock phi(t) = integral_0^t sigma_m2(s) ds in closed form; vectorized in t.

    Below gamma the integrand is c s^(2 da) with c = da p_pre (1 - da p_pre).
    Above gamma it is gamma^(2 da) (s/gamma)^(2 db) db p(s) (1 - db p(s)) with
    p(s) = p_post + (gamma/s)^chi (p_pre - p_post): a sum of three power laws
    in s with exponents 2 db, 2 db - chi = -1/(2+b) and 2 db - 2 chi = -2.
    Offsets are non-negative, so 2 db lies in [1, 2) and -1/(2+b) in
    [-1/2, 0); none of the exponents is -1, so each term integrates to a
    power and no logarithm appears.  With u = log(t/gamma) and
    J = p_pre - p_post, the piece above gamma is gamma^(2 da + 1) times

        db p_post (1 - db p_post) expm1((2 db + 1) u) / (2 db + 1)
        + J (1 - 2 db p_post) expm1(db u) + db^2 J^2 expm1(-u),

    which keeps its relative accuracy for t just above gamma.
    """
    ts, alpha, beta, gamma = _parse(t, schedule, open_at_zero=False)
    da = delta_exponent(alpha)
    db = delta_exponent(beta)
    p_pre = _pre_fraction(alpha)
    p_post = _pre_fraction(beta)
    jump = p_pre - p_post
    lo = np.minimum(ts, gamma)
    total = da * p_pre * (1 - da * p_pre) * lo ** (2 * da + 1) / (2 * da + 1)
    u = np.log(np.maximum(ts, gamma) / gamma)  # 0 up to gamma
    post = (
        db * p_post * (1 - db * p_post) * np.expm1((2 * db + 1) * u) / (2 * db + 1)
        + jump * (1 - 2 * db * p_post) * np.expm1(db * u)
        + db * db * jump * jump * np.expm1(-u)
    )
    return _shaped(total + gamma ** (2 * da + 1) * post, t)


def variance_gn(t: float, schedule: ChangePointSchedule) -> float:
    """Limiting variance of the centred, sqrt(n)-scaled leaf count at time t."""
    g = g_scale(t, schedule)
    return float(g * g * phi(t, schedule))


def gn_path(source: LeafTrajectory | GrowingTree, schedule: ChangePointSchedule,
            grid) -> np.ndarray:
    """Centred, sqrt(n)-scaled leaf-count path (N(nt) - nt p_inf(t)) / sqrt(n).

    Leaf counts are linearly interpolated between integer steps.  Only the
    steps that bracket some n*t are read, through source.leaf_counts, so a
    tree need not record its whole trajectory: each n*t still falls between
    the same two steps, and the values are those of interpolating over every
    step, bit for bit.
    """
    grid_arr = np.asarray(grid, dtype=np.float64)
    if not np.all((grid_arr > 0.0) & (grid_arr <= 1.0)):
        raise HorizonOutOfRange(f"grid must lie in (0, 1], got {grid}")
    n = source.n
    x = n * grid_arr
    below = np.clip(np.floor(x).astype(np.int64).ravel(), 2, n)
    steps = np.unique(np.concatenate([below, np.minimum(below + 1, n)]))
    counts_at = np.interp(x, steps, source.leaf_counts(steps))
    centred = counts_at - x * np.asarray(p_inf(grid_arr, schedule))
    return centred / np.sqrt(n)


def write_curve_csv(schedule: ChangePointSchedule, ts: Sequence[float], path) -> None:
    t = np.asarray(ts, dtype=np.float64)
    columns = [t, p_inf(t, schedule), sigma_m2(t, schedule), sigma2(t, schedule),
               mu_drift(t, schedule), g_scale(t, schedule), phi(t, schedule)]
    write_csv(path, ["t", "p_inf", "sigmaM2", "sigma2", "mu", "g", "phi"], columns)
