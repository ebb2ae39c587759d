"""Leaf-count statistics: limit curve and FCLT scaling, for any number of change points.

A leaf is a vertex of total degree 1, where the root's total degree is its
out-degree.  Segment j of the schedule is (gamma_j, gamma_{j+1}], with
gamma_0 = 0, gamma_{k+1} = 1 and offset c_j (alpha on segment 0, beta_j
after).  Inside it the limiting leaf fraction solves t p' = 1 - p/p*_j, so it
relaxes from its value at gamma_j toward the equilibrium p*_j:

    p_inf(t) = p*_0                                            on segment 0
    p_inf(t) = p*_j + (gamma_j/t)^chi_j (p(gamma_j) - p*_j)     on segment j

with p*_c = (2+c)/(3+2c) and chi_j = (3+2c_j)/(2+c_j) = 1/p*_j.  Every closed
form below follows this recursion through one table of the values carried
into each segment: p, sigma2, sigma_m2, mu and g take segment 0's
expression and, above each gamma_j, segment j's; the integrals I and phi
are sums of one term per segment.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .model_core import ChangePointSchedule, write_csv


def checked_steps(steps, n: int) -> np.ndarray:
    """steps as an int64 array, or ValueError unless they are sorted and lie in 2..n."""
    steps = np.asarray(steps, dtype=np.int64)
    if steps.size and (steps[0] < 2 or steps[-1] > n or np.any(np.diff(steps) < 0)):
        raise ValueError(f"steps must be sorted and lie in 2..{n}")
    return steps


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
        """Leaf counts N(m) at sorted steps m in 2..n."""
        return self.counts[checked_steps(steps, self.n) - 2]

    def check_invariants(self) -> None:
        ms = self.steps()
        if self.counts.shape != ms.shape:
            raise AssertionError("trajectory length mismatch")
        if np.any(self.counts < 0) or np.any(self.counts > ms):
            raise AssertionError("leaf count outside [0, m]")
        if np.any(self.counts[:2] != 2):  # so N(m) <= m - 1 from m = 3 on
            raise AssertionError("the 2- and 3-vertex trees must have 2 leaves")
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
        rows = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2,
                          comments=None)
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


class _Segment(NamedTuple):
    """Segment j of the limit curves, (gamma, end], with the values carried into it at gamma.

    Row 0 is the segment before the first change point, with gamma = 0; its
    scale factors are normalised at t = 1, where g = 1.
    """

    gamma: float
    end: float  # gamma_{j+1}, or 1 for the last segment
    d: float  # delta_exponent of the segment's offset
    chi: float
    p_star: float  # the equilibrium leaf fraction the segment relaxes toward
    p_gamma: float  # p(gamma)
    g_coef: float  # g(t) = g_coef t^(-d) on the segment
    inv_g2: float  # 1 / g(gamma)^2
    phi_pre: float  # gamma / g(gamma)^2, the factor of the segment's term of phi


def _segments(schedule: ChangePointSchedule) -> list[_Segment]:
    """One row per segment.

    The constants are Python float powers in a fixed association, which the
    pinned bytes of the k <= 1 artifacts depend on: numpy's array power and
    a regrouped product, such as gamma**(2d) * gamma for gamma**(2d + 1),
    can differ by an ulp.
    """
    gammas = [0.0] + [s.gamma for s in schedule.segments]
    rows: list[_Segment] = []
    for gamma, end, offset in zip(gammas, gammas[1:] + [1.0], schedule.offsets()):
        d, p_star = delta_exponent(offset), (2.0 + offset) / (3.0 + 2.0 * offset)
        chi = (3.0 + 2.0 * offset) / (2.0 + offset)
        if not rows:
            rows.append(_Segment(gamma, end, d, chi, p_star, p_star, 1.0, 1.0, 1.0))
            continue
        prev = rows[-1]
        p_gamma = prev.p_star + (prev.gamma / gamma) ** prev.chi * (prev.p_gamma - prev.p_star)
        scale = gamma / (prev.gamma or 1.0)  # row 0's factors are normalised at t = 1
        rows.append(_Segment(gamma, end, d, chi, p_star, p_gamma,
                             prev.g_coef * gamma ** (d - prev.d),
                             prev.inv_g2 * scale ** (2 * prev.d),
                             prev.phi_pre * scale ** (2 * prev.d + 1)))
    return rows


def _parse(t, schedule: ChangePointSchedule, open_at_zero: bool):
    """The closed forms' shared first step: (ts, segments), ts = t as a 1-d array.

    t must lie in (0, 1] when open_at_zero and in [0, 1] otherwise; NaN lies
    in neither.  A scalar t becomes a one-element array, so it runs through
    the same array kernels as a grid and gives the same bits.
    """
    rows = _segments(schedule)
    ts = np.asarray(t, dtype=np.float64)
    low = ts > 0.0 if open_at_zero else ts >= 0.0
    if not np.all(low & (ts <= 1.0)):
        raise ValueError(f"t must lie in {'(' if open_at_zero else '['}0, 1], got {t}")
    return ts.reshape(-1), rows


def _shaped(out: np.ndarray, t):
    """The closed forms' shared last step: a float for a scalar t, else an array shaped like t."""
    shape = np.shape(t)
    return out.reshape(shape) if shape else float(out[0])


def _piecewise(ts: np.ndarray, rows, each, first=None) -> np.ndarray:
    """each(row 0, t), or first, on segment 0; above each gamma_j, each(row j, max(t, gamma_j))."""
    out = each(rows[0], ts) if first is None else first
    for r in rows[1:]:
        out = np.where(ts > r.gamma, each(r, np.maximum(ts, r.gamma)), out)
    return out


def _summed(ts: np.ndarray, rows, first: np.ndarray, each) -> np.ndarray:
    """first plus, for each segment j >= 1, each(row j, t clipped to [gamma_j, gamma_{j+1}])."""
    out = first
    for r in rows[1:]:
        out = out + each(r, np.clip(ts, r.gamma, r.end))
    return out


def _leaf_fraction(ts: np.ndarray, rows) -> np.ndarray:
    return _piecewise(ts, rows, lambda r, tc: (
        r.p_star + (r.gamma / tc) ** r.chi * (r.p_gamma - r.p_star)),
        np.full_like(ts, rows[0].p_star))


def _sigma2(ts: np.ndarray, rows) -> np.ndarray:
    pt = _leaf_fraction(ts, rows)
    return _piecewise(ts, rows, lambda r, _: r.d * pt * (1 - r.d * pt))


def p_inf(t, schedule: ChangePointSchedule):
    """Limiting leaf proportion at rescaled time t in (0, 1]; vectorized in t."""
    ts, rows = _parse(t, schedule, open_at_zero=True)
    return _shaped(_leaf_fraction(ts, rows), t)


def leaf_proportion_integral(x, schedule: ChangePointSchedule):
    """Exact antiderivative I(x) = integral_0^x p_inf(u) du for x in [0, 1]; vectorized in x."""
    xs, rows = _parse(x, schedule, open_at_zero=False)

    def each(r, xc):
        # integral of (gamma/u)^chi from gamma to xc (chi > 1, so the exponent 1-chi < 0)
        tail = r.gamma**r.chi * (xc ** (1.0 - r.chi) - r.gamma ** (1.0 - r.chi)) / (1.0 - r.chi)
        return r.p_star * (xc - r.gamma) + (r.p_gamma - r.p_star) * tail

    return _shaped(_summed(xs, rows, rows[0].p_star * np.minimum(xs, rows[0].end), each), x)


def sigma_m2(t, schedule: ChangePointSchedule):
    """Variance density of the scaled leaf-count martingale for t in [0, 1]; vectorized in t."""
    ts, rows = _parse(t, schedule, open_at_zero=False)
    s2 = _sigma2(ts, rows)
    return _shaped(_piecewise(ts, rows, lambda r, tc: (
        r.inv_g2 * (tc / r.gamma) ** (2 * r.d) * s2), ts ** (2 * rows[0].d) * s2), t)


def sigma2(t, schedule: ChangePointSchedule):
    """Instantaneous variance (unscaled) for t in [0, 1]; jumps wherever the offset changes."""
    ts, rows = _parse(t, schedule, open_at_zero=False)
    return _shaped(_sigma2(ts, rows), t)


def mu_drift(t, schedule: ChangePointSchedule):
    """Drift g'(t) of the rescaled leaf process for t in (0, 1]; jumps at each gamma_j."""
    ts, rows = _parse(t, schedule, open_at_zero=True)
    return _shaped(_piecewise(ts, rows, lambda r, tc: -r.d * r.g_coef / tc ** (r.d + 1.0)), t)


def g_scale(t, schedule: ChangePointSchedule):
    """De-scaling factor g(t) for t in (0, 1]; continuous across every change point."""
    ts, rows = _parse(t, schedule, open_at_zero=True)
    return _shaped(_piecewise(ts, rows, lambda r, tc: r.g_coef * tc ** (-r.d)), t)


def phi(t, schedule: ChangePointSchedule):
    """Variance clock phi(t) = integral_0^t sigma_m2(s) ds in closed form; vectorized in t.

    On segment 0 the integrand is c s^(2 d) with c = d p*_0 (1 - d p*_0).  On
    segment j it is (s/gamma)^(2 d) d p(s) (1 - d p(s)) / g(gamma)^2 with
    p(s) = p* + (gamma/s)^chi J and J = p(gamma) - p*: a sum of three power
    laws in s with exponents 2 d, 2 d - chi = -1/(2+c) and 2 d - 2 chi = -2.
    Offsets are non-negative, so 2 d lies in [1, 2) and -1/(2+c) in
    [-1/2, 0); none of the exponents is -1, so each term integrates to a
    power and no logarithm appears.  With u = log(t/gamma), t clipped to the
    segment, the segment's term is phi_pre = gamma / g(gamma)^2 times

        d p* (1 - d p*) expm1((2 d + 1) u) / (2 d + 1)
        + J (1 - 2 d p*) expm1(d u) + d^2 J^2 expm1(-u),

    which keeps its relative accuracy for t just above gamma.
    """
    ts, rows = _parse(t, schedule, open_at_zero=False)
    d, p = rows[0].d, rows[0].p_star
    first = d * p * (1 - d * p) * np.minimum(ts, rows[0].end) ** (2 * d + 1) / (2 * d + 1)

    def each(r, tc):
        u = np.log(tc / r.gamma)
        jump = r.p_gamma - r.p_star
        return r.phi_pre * (
            r.d * r.p_star * (1 - r.d * r.p_star) * np.expm1((2 * r.d + 1) * u) / (2 * r.d + 1)
            + jump * (1 - 2 * r.d * r.p_star) * np.expm1(r.d * u)
            + r.d * r.d * jump * jump * np.expm1(-u)
        )

    return _shaped(_summed(ts, rows, first, each), t)


def variance_gn(t: float, schedule: ChangePointSchedule) -> float:
    """Limiting variance of the centred, sqrt(n)-scaled leaf count at time t."""
    g = g_scale(t, schedule)
    return float(g * g * phi(t, schedule))


def gn_path(n: int, counts_at: Callable[[np.ndarray], np.ndarray],
            schedule: ChangePointSchedule, grid) -> np.ndarray:
    """Centred, sqrt(n)-scaled leaf-count path (N(nt) - nt p_inf(t)) / sqrt(n).

    Leaf counts are linearly interpolated between integer steps.  Only the
    steps that bracket some n*t are read, through counts_at(sorted steps in
    2..n), so neither a trajectory nor a tree need be recorded whole: each
    n*t still falls between the same two steps, and the values are those of
    interpolating over every step, bit for bit.
    """
    grid_arr = np.asarray(grid, dtype=np.float64)
    if not np.all((grid_arr > 0.0) & (grid_arr <= 1.0)):
        raise ValueError(f"grid must lie in (0, 1], got {grid}")
    x = n * grid_arr
    below = np.clip(np.floor(x).astype(np.int64).ravel(), 2, n)
    steps = np.unique(np.concatenate([below, np.minimum(below + 1, n)]))
    counts = np.interp(x, steps, counts_at(steps))
    centred = counts - x * np.asarray(p_inf(grid_arr, schedule))
    return centred / np.sqrt(n)


def write_curve_csv(schedule: ChangePointSchedule, ts: Sequence[float], path) -> None:
    t = np.asarray(ts, dtype=np.float64)
    columns = [t, p_inf(t, schedule), sigma_m2(t, schedule), sigma2(t, schedule),
               mu_drift(t, schedule), g_scale(t, schedule), phi(t, schedule)]
    write_csv(path, ["t", "p_inf", "sigmaM2", "sigma2", "mu", "g", "phi"], columns)
