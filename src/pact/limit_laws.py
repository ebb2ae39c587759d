"""Limiting degree distributions: exact pmf, mixture samplers, tail diagnostics.

Without a change point the limiting degree law is

    p_a(k) = (2+a) * prod_{j=1}^{k-1}(j+a) / prod_{j=3}^{k+2}(j+2a),

with the empty product equal to 1 at k=1.  Under a change point the limit is
a two-branch mixture over birth epoch: a vertex born after the change has
lived a truncated-exponential Age and collects points of a pure birth process
with rates (1+b), (2+b), ...; a vertex born before carries a p_a-distributed
degree and keeps collecting points, at rates starting from its degree + b,
for the fixed residual duration a = log(1/gamma)/(2+b).

A pure birth process started at rank j with offset b, run for time t, has a
negative-binomial count: size j+b, success probability exp(-t).  That closed
form is not taken on faith: the test suite chi-square-checks it against the
direct exponential-wait simulator before the samplers below rely on it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model_core import (
    ChangePointSchedule,
    HorizonOutOfRange,
    RngLike,
    as_generator,
    validate_schedule,
    write_csv,
)


class InvalidK(ValueError):
    """Degree argument below 1."""


class NonPositiveA(ValueError):
    """Age-distribution truncation level must be positive."""


class NoSegments(ValueError):
    """Schedule has no change point."""


class InsufficientSupport(ValueError):
    """Too few distinct mass points for a tail fit."""


_TAIL_TOL = 1e-12
_lgamma = np.frompyfunc(math.lgamma, 1, 1)


def _log_gamma(x: np.ndarray) -> np.ndarray:
    """math.lgamma elementwise; numpy has no log-gamma ufunc."""
    return np.asarray(_lgamma(x), dtype=np.float64)


def p_alpha_pmf(alpha: float, k):
    """Exact limiting pmf without change point, via stable log-gamma evaluation."""
    k_arr = np.asarray(k)
    if np.any(k_arr < 1):
        raise InvalidK(f"k must be >= 1, got {k}")
    kf = k_arr.astype(np.float64)
    log_num = _log_gamma(kf + alpha) - math.lgamma(1.0 + alpha)
    log_den = _log_gamma(kf + 3.0 + 2.0 * alpha) - math.lgamma(3.0 + 2.0 * alpha)
    out = (2.0 + alpha) * np.exp(log_num - log_den)
    return out if out.ndim else float(out)


def p_alpha_table(alpha: float, kmax: int) -> np.ndarray:
    """pmf values indexed by degree: table[k] = p_alpha(k) for k = 1..kmax (table[0] = 0)."""
    if kmax < 1:
        raise InvalidK(f"kmax must be >= 1, got {kmax}")
    table = np.zeros(kmax + 1, dtype=np.float64)
    ks = np.arange(1, kmax, dtype=np.float64)
    ratios = (ks + alpha) / (ks + 3.0 + 2.0 * alpha)
    table[1] = (2.0 + alpha) / (3.0 + 2.0 * alpha)
    if kmax > 1:
        table[2:] = table[1] * np.cumprod(ratios)
    return table


@lru_cache(maxsize=4)  # a table near alpha = 0 takes tens of MB
def _alpha_cdf(alpha: float) -> np.ndarray:
    """Prefix sums of p_alpha, extended until the analytic tail is below ~1e-12.

    The tail completion uses the power-law envelope: sum_{j>k} p(j) is about
    p(k) * k / (2 + alpha).
    """
    kmax = 4096
    while True:
        table = p_alpha_table(alpha, kmax)
        tail = table[-1] * kmax / (2.0 + alpha)
        if tail < _TAIL_TOL or kmax >= (1 << 24):
            break
        kmax *= 4
    return np.cumsum(table[1:])


def sample_d_alpha(alpha: float, size: int, rng: RngLike) -> np.ndarray:
    """Inverse-CDF draws from p_alpha over the cached prefix table."""
    gen = as_generator(rng)
    cdf = _alpha_cdf(alpha)
    u = gen.random(size)
    idx = np.searchsorted(cdf, u)
    # u beyond the table (probability < 1e-12 per draw) clamps to the last entry
    return np.minimum(idx, cdf.size - 1).astype(np.int64) + 1


def sample_point_count(start_rank: int, beta: float, t: float, rng: RngLike) -> int:
    """Count points in [0, t] of the pure birth process by direct exponential waits.

    The m-th wait is exponential with rate (start_rank + m - 1 + beta).
    """
    if start_rank < 1:
        raise ValueError(f"start_rank must be >= 1, got {start_rank}")
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    gen = as_generator(rng)
    elapsed = 0.0
    count = 0
    rate = start_rank + beta
    while True:
        elapsed += gen.exponential(1.0 / rate)
        if elapsed > t:
            return count
        count += 1
        rate += 1.0


def point_counts_direct(
    start_rank: int, beta: float, t: float, size: int, rng: RngLike
) -> np.ndarray:
    """Vectorized direct simulator (independent oracle for the closed form)."""
    gen = as_generator(rng)
    elapsed = gen.standard_exponential(size) / (start_rank + beta)
    counts = np.zeros(size, dtype=np.int64)
    active = elapsed <= t
    k = 0
    while np.any(active):
        k += 1
        idx = np.nonzero(active)[0]
        counts[idx] += 1
        elapsed[idx] += gen.standard_exponential(idx.size) / (start_rank + k + beta)
        active[idx] = elapsed[idx] <= t
    return counts


def point_counts_nb(start_ranks, beta: float, durations, rng: RngLike) -> np.ndarray:
    """Closed-form counts: negative binomial with size rank+beta, success prob e^{-t}."""
    gen = as_generator(rng)
    ranks = np.asarray(start_ranks, dtype=np.float64)
    durs = np.asarray(durations, dtype=np.float64)
    if ranks.ndim == 0 and durs.ndim == 0:
        return gen.negative_binomial(float(ranks) + beta, float(np.exp(-durs)))
    return gen.negative_binomial(ranks + beta, np.exp(-durs))


def expected_point_count(start_rank: float, beta: float, t: float) -> float:
    """Mean count (start_rank + beta) * (e^t - 1)."""
    return (start_rank + beta) * np.expm1(t)


def sample_age(a: float, rate: float, rng: RngLike, size: int | None = None):
    """Inverse-CDF draws from the truncated exponential on [0, a].

    CDF: (1 - exp(-rate*s)) / (1 - exp(-rate*a)).  The rate accompanying the
    truncation level a is supplied explicitly (2+beta in the mixture laws).
    """
    if a <= 0:
        raise NonPositiveA(f"truncation level must be > 0, got {a}")
    if rate <= 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    gen = as_generator(rng)
    u = gen.random() if size is None else gen.random(size)
    return -np.log1p(-u * -np.expm1(-rate * a)) / rate


def age_cdf(s, a: float, rate: float):
    """CDF of the truncated exponential (vectorized)."""
    if a <= 0:
        raise NonPositiveA(f"truncation level must be > 0, got {a}")
    s_arr = np.asarray(s, dtype=np.float64)
    out = np.expm1(-rate * s_arr) / np.expm1(-rate * a)
    return np.clip(out, 0.0, 1.0)


@dataclass
class DegreeSampleBatch:
    """Bulk draws from a limiting degree law.

    ``epoch`` is 0 for the before-change branch and the 1-based segment index
    for births after a change point.  ``seed_value`` is the inherited degree
    at the (final) change point for epoch 0 and 1 otherwise.
    """

    values: np.ndarray
    epoch: np.ndarray
    seed_value: np.ndarray

    @property
    def after_change(self) -> np.ndarray:
        return self.epoch > 0

    def pmf(self, kmax: int) -> np.ndarray:
        """Empirical pmf over degrees 1..kmax, indexed 0..kmax with [0] = 0."""
        out = np.zeros(kmax + 1, dtype=np.float64)
        binc = np.bincount(np.minimum(self.values, kmax + 1), minlength=kmax + 2)
        out[1:] = binc[1 : kmax + 1] / self.values.size
        return out


@dataclass(frozen=True)
class LimitDegreeSample:
    value: int
    branch: str  # "before-change" | "after-change"
    epoch: int | None = None


def sample_d_theta(
    schedule: ChangePointSchedule, rng: RngLike, size: int, horizon: float = 1.0
) -> DegreeSampleBatch:
    """Draws from the limiting degree law of a single-change-point model.

    At horizon t in (gamma, 1] the residual duration is a(t) =
    log(t/gamma)/(2+beta), and a fraction gamma/t of the mass sits in the
    before-change branch.  horizon=1 is the law of the full-size tree.
    """
    validate_schedule(schedule)
    if schedule.num_change_points != 1:
        raise NoSegments("sample_d_theta needs exactly one change point")
    gamma, beta = schedule.gamma, schedule.beta
    if not gamma < horizon <= 1.0:
        raise HorizonOutOfRange(f"horizon must lie in ({gamma}, 1], got {horizon}")
    gen = as_generator(rng)
    a_t = np.log(horizon / gamma) / (2.0 + beta)
    after = gen.random(size) >= gamma / horizon
    n_after = int(after.sum())
    n_before = size - n_after

    values = np.empty(size, dtype=np.int64)
    seed = np.ones(size, dtype=np.int64)
    if n_after:
        ages = sample_age(a_t, 2.0 + beta, gen, n_after)
        values[after] = 1 + point_counts_nb(1.0, beta, ages, gen)
    if n_before:
        d0 = sample_d_alpha(schedule.alpha, n_before, gen)
        values[~after] = d0 + point_counts_nb(d0, beta, a_t, gen)
        seed[~after] = d0
    return DegreeSampleBatch(values=values, epoch=after.astype(np.int64), seed_value=seed)


def sample_d_theta_one(
    schedule: ChangePointSchedule, rng: RngLike, horizon: float = 1.0
) -> LimitDegreeSample:
    batch = sample_d_theta(schedule, rng, 1, horizon)
    after = bool(batch.after_change[0])
    return LimitDegreeSample(
        value=int(batch.values[0]),
        branch="after-change" if after else "before-change",
        epoch=int(batch.epoch[0]),
    )


def epoch_probabilities(schedule: ChangePointSchedule) -> np.ndarray:
    """Mass of each birth epoch: consecutive gaps of (0, gamma_1, ..., gamma_k, 1)."""
    if schedule.num_change_points < 1:
        raise NoSegments("epoch probabilities need at least one change point")
    gs = np.array([0.0] + [s.gamma for s in schedule.segments] + [1.0])
    return np.diff(gs)


def segment_durations(schedule: ChangePointSchedule) -> np.ndarray:
    """Residual durations a_j = log(gamma_{j+1}/gamma_j) / (2+beta_j), j = 1..k."""
    if schedule.num_change_points < 1:
        raise NoSegments("segment durations need at least one change point")
    gs = [s.gamma for s in schedule.segments] + [1.0]
    return np.array(
        [np.log(gs[j + 1] / gs[j]) / (2.0 + schedule.segments[j].beta) for j in range(len(gs) - 1)]
    )


def sample_d_theta_multi(
    schedule: ChangePointSchedule, rng: RngLike, size: int
) -> DegreeSampleBatch:
    """Draws from the limiting degree law with k >= 1 change points.

    Draw a birth epoch from the gap masses.  Epoch i >= 1 starts at rank 1,
    collects points over a truncated-exponential Age_i inside segment i, then
    over the full residual durations a_{i+1}..a_k; epoch 0 seeds the rank with
    a p_alpha degree and runs all segments in full.  The rank carries across
    segment boundaries, increasing by one per collected point.
    """
    validate_schedule(schedule)
    k = schedule.num_change_points
    if k < 1:
        raise NoSegments("sample_d_theta_multi needs at least one change point")
    gen = as_generator(rng)
    pis = epoch_probabilities(schedule)
    durations = segment_durations(schedule)
    betas = [s.beta for s in schedule.segments]
    epochs = np.searchsorted(np.cumsum(pis), gen.random(size)).astype(np.int64)
    epochs = np.minimum(epochs, k)

    values = np.empty(size, dtype=np.int64)
    seed = np.ones(size, dtype=np.int64)
    for i in range(k + 1):
        sel = np.nonzero(epochs == i)[0]
        if sel.size == 0:
            continue
        if i == 0:
            ranks = sample_d_alpha(schedule.alpha, sel.size, gen).astype(np.float64)
            seed[sel] = ranks.astype(np.int64)
            first_seg = 1
        else:
            ranks = np.ones(sel.size, dtype=np.float64)
            first_seg = i
        for j in range(first_seg, k + 1):
            if i >= 1 and j == i:
                durs = sample_age(durations[j - 1], 2.0 + betas[j - 1], gen, sel.size)
            else:
                durs = np.full(sel.size, durations[j - 1])
            ranks = ranks + point_counts_nb(ranks, betas[j - 1], durs, gen)
        # rank = seed degree + collected points = final degree, for either epoch kind
        values[sel] = ranks.astype(np.int64)
    return DegreeSampleBatch(values=values, epoch=epochs, seed_value=seed)


def ccdf_from_samples(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Empirical map k -> P(D >= k) on the observed support 1..max."""
    values = np.asarray(values)
    counts = np.bincount(values)
    ccdf = counts[::-1].cumsum()[::-1] / values.size
    ks = np.arange(1, counts.size)
    return ks, ccdf[1:]


def ccdf_from_pmf(pmf_by_degree: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CCDF from a pmf table indexed by degree (entry 0 ignored)."""
    tail = pmf_by_degree[::-1].cumsum()[::-1]
    ks = np.arange(1, pmf_by_degree.size)
    return ks, tail[1:]


def ccdf_from_histogram(hist) -> tuple[np.ndarray, np.ndarray]:
    """CCDF from a degree histogram (counts indexed by degree, total mass n)."""
    return ccdf_from_pmf(np.asarray(hist.counts, dtype=np.float64) / hist.n)


def tail_exponent(ks: np.ndarray, ccdf: np.ndarray, k_lo: int, k_hi: int) -> float:
    """Least-squares slope of log CCDF against log k over k in [k_lo, k_hi].

    For the limiting degree laws here the CCDF decays like k^-(alpha+2).
    Requires at least 30 distinct positive-mass points in the window.
    """
    if not k_lo < k_hi:
        raise ValueError(f"need k_lo < k_hi, got [{k_lo}, {k_hi}]")
    ks = np.asarray(ks)
    ccdf = np.asarray(ccdf, dtype=np.float64)
    sel = (ks >= k_lo) & (ks <= k_hi) & (ccdf > 0.0)
    if int(sel.sum()) < 30:
        raise InsufficientSupport(
            f"only {int(sel.sum())} support points in [{k_lo}, {k_hi}]; need >= 30"
        )
    slope, _ = np.polyfit(np.log(ks[sel]), np.log(ccdf[sel]), 1)
    return float(slope)


def tv_distance_upto(p: np.ndarray, q: np.ndarray, kmax: int) -> float:
    """Total-variation distance restricted to degrees 1..kmax.

    Inputs are pmf tables indexed by degree (entry 0 ignored; short tables
    are zero-padded).
    """
    a = np.zeros(kmax + 1)
    b = np.zeros(kmax + 1)
    a[: min(kmax + 1, len(p))] = p[: kmax + 1]
    b[: min(kmax + 1, len(q))] = q[: kmax + 1]
    return float(0.5 * np.abs(a[1:] - b[1:]).sum())


def write_pmf_csv(ks, ps, path) -> None:
    write_csv(path, ["k", "p"], [ks, ps])
