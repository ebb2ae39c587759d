"""Limit laws: exact degree pmf, mixture sampler, tail diagnostics, duration CLT.

Without a change point the limiting degree law is

    p_a(k) = (2+a) * prod_{j=1}^{k-1}(j+a) / prod_{j=3}^{k+2}(j+2a),

with the empty product equal to 1 at k=1; p_alpha_table(a, kmax)[k] gives it
exactly.  Under a change point the limit is a two-branch mixture over birth
epoch: a vertex born after the change has lived a truncated-exponential Age
and collects points of a pure birth process with rates (1+b), (2+b), ...; a
vertex born before carries a p_a-distributed degree and keeps collecting
points, at rates starting from its degree + b, for the residual duration
a = log(t/gamma)/(2+b) up to the observation horizon t (t = 1 is the
full-size tree), which segment_durations gives.  With several change points
the same mixture runs over the birth epochs between them, segment by
segment; sample_d_theta_multi draws from it at any k >= 1.

A pure birth process started at rank j with offset b, run for time t, has a
negative-binomial count: size j+b, success probability exp(-t).  That closed
form is not taken on faith: the test suite chi-square-checks it against the
direct exponential-wait simulator before the samplers below rely on it.

In continuous time the tree of size s grows at total rate (2+c)s - 1 (the
sum of out_degree + 1 + c), with independent exponential holding times, and
the jump chain is the discrete model.  After one change point the duration
from size m = max(floor(gamma n), 1) to n is Y = sum_{s=m}^{n-1} E_s /
((2+beta)s - 1), and with d = 1/(2+beta), (2+beta)Y has the law of -log B,
B ~ Beta(m - d, n - m): both have Laplace transform prod_{s=m}^{n-1}
(s-d)/(s-d+lambda) (Renyi's representation of exponential order
statistics).  Y tends to segment_durations(schedule)[0], and
upsilon_clt_sample draws it with one Beta variate per replicate; the test
suite builds the full clock (tests/oracles.py) to check this identity.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model_core import ChangePointSchedule, write_csv


_TAIL_TOL = 1e-12


def p_alpha_table(alpha: float, kmax: int) -> np.ndarray:
    """pmf values indexed by degree: table[k] = p_alpha(k) for k = 1..kmax (table[0] = 0).

    The running product keeps about 1e-13 relative accuracy up to k = 1e6,
    where a difference of log-gamma values would lose half the digits.
    """
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
    table = np.zeros(kmax + 1, dtype=np.float64)
    ks = np.arange(1, kmax, dtype=np.float64)
    ratios = (ks + alpha) / (ks + 3.0 + 2.0 * alpha)
    table[1] = (2.0 + alpha) / (3.0 + 2.0 * alpha)
    if kmax > 1:
        table[2:] = table[1] * np.cumprod(ratios)
    return table


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


def sample_d_alpha(alpha: float, size: int, gen: np.random.Generator) -> np.ndarray:
    """Inverse-CDF draws from p_alpha over its prefix table."""
    cdf = _alpha_cdf(alpha)
    u = gen.random(size)
    idx = np.searchsorted(cdf, u)
    # u beyond the table (probability < 1e-12 per draw) clamps to the last entry
    return np.minimum(idx, cdf.size - 1).astype(np.int64) + 1


def point_counts_nb(start_ranks, beta: float, durations, gen: np.random.Generator) -> np.ndarray:
    """Closed-form counts: negative binomial with size rank+beta, success prob e^{-t}.

    The ranks or the durations are an array; the other may be a scalar.
    """
    ranks = np.asarray(start_ranks, dtype=np.float64)
    durs = np.asarray(durations, dtype=np.float64)
    return gen.negative_binomial(ranks + beta, np.exp(-durs))


def sample_age(a: float, rate: float, gen: np.random.Generator, size: int) -> np.ndarray:
    """Inverse-CDF draws from the truncated exponential on [0, a].

    CDF: (1 - exp(-rate*s)) / (1 - exp(-rate*a)).  The rate accompanying the
    truncation level a is supplied explicitly (2+beta in the mixture laws).
    """
    if a <= 0:
        raise ValueError(f"truncation level must be > 0, got {a}")
    if rate <= 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    u = gen.random(size)
    return -np.log1p(-u * -np.expm1(-rate * a)) / rate


@dataclass
class DegreeSampleBatch:
    """Bulk draws from a limiting degree law."""

    values: np.ndarray

    def pmf(self, kmax: int) -> np.ndarray:
        """Empirical pmf over degrees 1..kmax, indexed 0..kmax with [0] = 0."""
        out = np.zeros(kmax + 1, dtype=np.float64)
        binc = np.bincount(np.minimum(self.values, kmax + 1), minlength=kmax + 2)
        out[1:] = binc[1 : kmax + 1] / self.values.size
        return out


def segment_durations(schedule: ChangePointSchedule, horizon: float = 1.0) -> np.ndarray:
    """Durations a_j = log(gamma_{j+1}/gamma_j) / (2+beta_j), j = 1..k; gamma_{k+1} = horizon."""
    gs = [s.gamma for s in schedule.segments] + [horizon]
    return np.array(
        [np.log(gs[j + 1] / gs[j]) / (2.0 + schedule.segments[j].beta) for j in range(len(gs) - 1)]
    )


def upsilon_clt_sample(
    schedule: ChangePointSchedule, n: int, reps: int, gen: np.random.Generator
) -> np.ndarray:
    """Standardized after-change durations sqrt(n)(Y - a)(2+beta)sqrt(gamma/(1-gamma)).

    a = log(1/gamma)/(2+beta) = segment_durations(schedule)[0] is the limit of Y.
    The empirical law approaches standard normal as n grows.  Each replicate
    draws Y exactly as -log(B)/(2+beta), B ~ Beta(m - d, n - m), with
    m = max(floor(gamma n), 1) and d = 1/(2+beta): the law of the sum of the
    after-change holding times, at one variate per replicate (module docstring).
    """
    if schedule.num_change_points != 1:
        raise ValueError("standardization defined for exactly one change point")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    gamma, beta = schedule.segments[0]
    m = max(int(np.floor(gamma * n)), 1)
    y = -np.log(gen.beta(m - 1.0 / (2.0 + beta), n - m, size=reps)) / (2.0 + beta)
    scale = (2.0 + beta) * np.sqrt(gamma / (1.0 - gamma)) * np.sqrt(n)
    return (y - segment_durations(schedule)[0]) * scale


def write_zsample_csv(z: np.ndarray, path) -> None:
    write_csv(path, ["rep", "z"], [range(len(z)), z])


def sample_d_theta_multi(
    schedule: ChangePointSchedule, gen: np.random.Generator, size: int, horizon: float = 1.0
) -> DegreeSampleBatch:
    """Draws from the limiting degree law with k >= 1 change points at horizon t.

    The birth epoch takes the gaps of (0, gamma_1, ..., gamma_k, t) divided
    by t as its masses.  Epoch i >= 1 starts at rank 1, collects points over
    a truncated-exponential Age_i inside segment i, then over the full
    durations a_{i+1}..a_k; epoch 0 seeds the rank with a p_alpha degree and
    runs all segments in full.  The last duration is log(t/gamma_k)/(2+beta_k).
    The rank carries across segment boundaries, increasing by one per
    collected point.  The generator's first `size` uniforms pick the epochs,
    epoch = #{j : u >= gamma_j/t}, so the same seed replays them; the epochs
    are then filled from the last one down to epoch 0.
    """
    k = schedule.num_change_points
    if k < 1:
        raise ValueError("sample_d_theta_multi needs at least one change point")
    last = schedule.segments[-1].gamma
    if not last < horizon <= 1.0:
        raise ValueError(f"horizon must lie in ({last}, 1], got {horizon}")
    durations = segment_durations(schedule, horizon)
    betas = [s.beta for s in schedule.segments]
    u = gen.random(size)
    epochs = np.zeros(size, dtype=np.min_scalar_type(k))  # one byte per draw up to k = 255
    for seg in schedule.segments:
        epochs += u >= seg.gamma / horizon
    del u

    values = np.empty(size, dtype=np.int64)
    for i in range(k, -1, -1):
        sel = epochs == i
        count = int(np.count_nonzero(sel))
        if count == 0:
            continue
        if i == 0:
            ranks = sample_d_alpha(schedule.alpha, count, gen)
        else:
            beta = betas[i - 1]
            ages = sample_age(durations[i - 1], 2.0 + beta, gen, count)
            ranks = 1 + point_counts_nb(1.0, beta, ages, gen)
            del ages
        for j in range(i + 1, k + 1):
            ranks = ranks + point_counts_nb(ranks, betas[j - 1], durations[j - 1], gen)
        # rank = seed degree + collected points = final degree
        values[sel] = ranks
        del ranks  # 8 bytes per draw of this epoch: free them before the next epoch is drawn
    return DegreeSampleBatch(values=values)


def ccdf_from_samples(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Empirical map k -> P(D >= k) on the observed support 1..max."""
    values = np.asarray(values)
    counts = np.bincount(values)
    ccdf = counts[::-1].cumsum()[::-1] / values.size
    ks = np.arange(1, counts.size)
    return ks, ccdf[1:]


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
        raise ValueError(
            f"only {int(sel.sum())} support points in [{k_lo}, {k_hi}]; need >= 30"
        )
    slope, _ = np.polyfit(np.log(ks[sel]), np.log(ccdf[sel]), 1)
    return float(slope)


def tv_distance_upto(p: np.ndarray, q: np.ndarray, kmax: int) -> float:
    """Total-variation distance restricted to degrees 1..kmax.

    Inputs are pmf tables indexed by degree, each with at least kmax + 1
    entries (entry 0 ignored); a shorter table is a ValueError.
    """
    if min(len(p), len(q)) < kmax + 1:
        raise ValueError(f"tables need kmax + 1 = {kmax + 1} entries, got {len(p)} and {len(q)}")
    a = np.asarray(p[1 : kmax + 1], dtype=np.float64)
    b = np.asarray(q[1 : kmax + 1], dtype=np.float64)
    return float(0.5 * np.abs(a - b).sum())


def write_pmf_csv(ks, ps, path) -> None:
    write_csv(path, ["k", "p"], [ks, ps])
