"""Limit laws: exact degree pmf, mixture sampler, tail diagnostics, duration CLT.

Without a change point the limiting degree law is

    p_a(k) = (2+a) * prod_{j=1}^{k-1}(j+a) / prod_{j=3}^{k+2}(j+2a),

with the empty product equal to 1 at k=1; p_alpha_table(a, kmax)[k] gives it
exactly.  It is beta-negative-binomial, D - 1 ~ NB(1+a, B) with B ~ Beta(2+a, 1)
(the law of e^{-T}, T ~ Exp(2+a) a vertex's age), and its tail telescopes:
P(D > k) = p_a(k)(k+a)/(2+a) = prod_{j=1}^{k}(j+a)/(j+2+2a) ~ Gamma(3+2a)/Gamma(1+a)
k^{-(2+a)}, which sample_d_alpha inverts past its table.  Under a change point the
limit is a two-branch mixture over birth epoch: a vertex born after the change has
lived a truncated-exponential Age and collects points of a pure birth process with
rates (1+b), (2+b), ...; a vertex born before carries a p_a-distributed degree and
keeps collecting points, at rates starting from its degree + b, for the residual
duration a = log(1/gamma)/(2+b), which segment_durations gives.  With several
change points the same mixture runs over the birth epochs between them, segment
by segment, and d_theta_blocks draws from it at any k (p_a itself at k = 0), one
block at a time.  Time enters only as gamma_{j+1}/gamma_j, so the law in the tree
of size tn, t in (gamma_k, 1], is that of the schedule with change points gamma_j/t.

A pure birth process started at rank j with offset b, run for time t, has a
negative-binomial count: size j+b, success probability exp(-t).  That closed
form is not taken on faith: the test suite chi-square-checks it against the
direct exponential-wait simulator before the samplers below rely on it.

In continuous time the tree of size s grows at total rate (2+c)s - 1 (the
sum of out_degree + 1 + c), with independent exponential holding times, and
the jump chain is the discrete model.  Segment j, offset beta_j, runs from
size m_j = max(floor(gamma_j n), 1) to m_{j+1} (m_{k+1} = n) in time Y_j =
sum_{s=m_j}^{m_{j+1}-1} E_s / ((2+beta_j)s - 1), and with d = 1/(2+beta_j),
(2+beta_j)Y_j has the law of -log B_j, B_j ~ Beta(m_j - d, m_{j+1} - m_j):
both have Laplace transform prod_s (s-d)/(s-d+lambda) (Renyi's representation
of exponential order statistics).  Disjoint holding times make Y_1..Y_k
independent.  Y_j tends to segment_durations(schedule)[j-1], and
upsilon_clt_sample draws each with one Beta variate per replicate; the test
suite builds the full clock (tests/oracles.py) to check this identity.
"""
from __future__ import annotations

import bisect
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .generator import DegreeHistogram
from .model_core import ChangePointSchedule, write_csv


_BLOCK = 1 << 16  # draws per block that d_theta_blocks yields
_TABLE = 4096  # p_alpha entries sample_d_alpha searches; past them it inverts the tail


def p_alpha_table(alpha: float, kmax: int) -> np.ndarray:
    """pmf values indexed by degree: table[k] = p_alpha(k) for k = 1..kmax (table[0] = 0).

    The running product keeps about 1e-13 relative accuracy up to k = 1e6,
    where a difference of log-gamma values would lose half the digits.  D - 1 ~
    NB(1+a, Beta(2+a, 1)), and P(D > kmax) = table[kmax](kmax+a)/(2+a) exactly.
    """
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
    table = np.zeros(kmax + 1, dtype=np.float64)
    ks = np.arange(1, kmax, dtype=np.float64)
    table[1] = (2.0 + alpha) / (3.0 + 2.0 * alpha)
    table[2:] = table[1] * np.cumprod((ks + alpha) / (ks + 3.0 + 2.0 * alpha))
    return table


def sample_d_alpha(cdf: np.ndarray, tail: float, alpha: float, size: int,
                   gen: np.random.Generator) -> np.ndarray:
    """Inverse-CDF draws from p_alpha, given the prefix sums cdf of p_alpha_table(alpha, K)[1:]
    and tail = P(D > K).  A u past cdf takes the smallest k >= K with log P(D > k) =
    log(tail) + g(k) - g(K) <= log(1 - u), K when tail is 0, where g(x) = lgamma(x+1+a) -
    lgamma(x+3+2a) by Stirling's series (math.lgamma is 2.4e9 at 1e8: 6 digits lost)."""
    def g(k: int) -> float:
        z1, z2, d = k + 1.0 + alpha, k + 3.0 + 2.0 * alpha, 2.0 + alpha
        return ((z1 - 0.5) * math.log1p(-d / z2) - d * math.log(z2)
                + (1.0 / z1 - 1.0 / z2) / 12.0 - (z1**-3 - z2**-3) / 360.0)

    u = gen.random(size)
    ks = np.searchsorted(cdf, u) + 1
    for i in np.flatnonzero(ks > cdf.size):  # P(D > 2^53) < 2^-53 <= 1 - u
        target = math.log1p(-u[i]) - (math.log(tail) if tail else -math.inf) + g(cdf.size)
        ks[i] = cdf.size + bisect.bisect_left(range(cdf.size, 1 << 53), True,
                                              key=lambda k: g(k) <= target)
    return ks


def point_counts_nb(start_ranks, beta: float, durations, gen: np.random.Generator) -> np.ndarray:
    """Closed-form counts: negative binomial with size rank+beta, success prob e^{-t}.

    The ranks or the durations are an array; the other may be a scalar.
    """
    return gen.negative_binomial(start_ranks + beta, np.exp(-durations))


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
        """Empirical pmf over degrees 1..kmax, indexed 0..kmax with [0] = 0.  Its bincount
        spans the largest draw, unclamped: P(D > 1e7) is about 2e-14 per draw at alpha = 0."""
        return DegreeHistogram(np.bincount(self.values), self.values.size).proportions(kmax)


def segment_durations(schedule: ChangePointSchedule) -> np.ndarray:
    """Durations a_j = log(gamma_{j+1}/gamma_j) / (2+beta_j), j = 1..k, with gamma_{k+1} = 1;
    each is positive, since the schedule keeps gamma_k < 1."""
    ends = [s.gamma for s in schedule.segments[1:]] + [1.0]
    return np.array([np.log(end / seg.gamma) / (2.0 + seg.beta)
                     for seg, end in zip(schedule.segments, ends)])


def upsilon_clt_sample(
    schedule: ChangePointSchedule, n: int, reps: int, gen: np.random.Generator
) -> np.ndarray:
    """(reps, k) standardized durations z_j = sqrt(n)(Y_j - a_j)(2+beta_j)sqrt(gamma_j
    gamma_{j+1}/(gamma_{j+1} - gamma_j)), gamma_{k+1} = 1, around a_j = segment_durations(
    schedule)[j-1], the limit of Y_j; each column tends to standard normal as n grows.
    One Beta array draws every row's Y_1..Y_k (module docstring), with m_j =
    max(boundaries(n)[j], 1); a segment with no size, m_{j+1} = m_j, is a ValueError.
    write_zsample_csv writes the array as rep,z_1,...,z_k (rep alone at k = 0).
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    sizes = np.maximum(schedule.boundaries(n)[1:], 1)
    rate = 2.0 + np.array(schedule.offsets()[1:])
    gammas = np.array([s.gamma for s in schedule.segments] + [1.0])
    y = -np.log(gen.beta(sizes[:-1] - 1.0 / rate, np.diff(sizes), size=(reps, rate.size))) / rate
    scale = rate * np.sqrt(gammas[:-1] * gammas[1:] / np.diff(gammas)) * np.sqrt(n)
    return (y - segment_durations(schedule)) * scale


def write_zsample_csv(z: np.ndarray, path) -> None:
    write_csv(path, ["rep"] + [f"z_{j + 1}" for j in range(z.shape[1])], [range(len(z)), *z.T])


def d_theta_blocks(schedule: ChangePointSchedule, gen: np.random.Generator,
                   size: int) -> Iterator[np.ndarray]:
    """Yields the degree law's draws (k >= 0 change points) as new int64 blocks.

    The birth epoch takes the gaps of (0, gamma_1, ..., gamma_k, 1) as its
    masses.  Epoch i >= 1 starts at rank 1, collects points over a
    truncated-exponential Age_i inside segment i, then over the full durations
    a_{i+1}..a_k; epoch 0 seeds the rank with a p_alpha degree and runs all
    segments in full.  The rank carries across segment boundaries, increasing
    by one per collected point.  The draws are iid, so each block of _BLOCK
    draws, the last one shorter, is an independent sample, drawn in turn: its
    epoch uniforms, epoch = #{j : u >= gamma_j}, then each epoch, from the last
    down to epoch 0, takes one seed uniform per member (Age, or p_alpha
    degree), then one negative-binomial pass per later segment, each in member
    order.  Its tables are built once, on first next().
    """
    k = len(schedule.segments)
    durations = segment_durations(schedule)
    betas = [s.beta for s in schedule.segments]
    table = p_alpha_table(schedule.alpha, _TABLE)
    tail = table[-1] * (_TABLE + schedule.alpha) / (2.0 + schedule.alpha)  # P(D > _TABLE)
    cdf = np.cumsum(table[1:], out=table[1:])
    for start in range(0, size, _BLOCK):
        block = np.empty(min(_BLOCK, size - start), dtype=np.int64)
        u = gen.random(block.size)
        epochs = np.zeros(block.size, dtype=np.min_scalar_type(k))
        for seg in schedule.segments:
            epochs += u >= seg.gamma
        for i in range(k, -1, -1):
            idx = np.flatnonzero(epochs == i)
            if i == 0:
                ranks = sample_d_alpha(cdf, tail, schedule.alpha, idx.size, gen)
            else:
                ages = sample_age(durations[i - 1], 2.0 + betas[i - 1], gen, idx.size)
                ranks = 1 + point_counts_nb(1.0, betas[i - 1], ages, gen)
            for j in range(i + 1, k + 1):  # rank = seed degree + collected points
                ranks += point_counts_nb(ranks, betas[j - 1], durations[j - 1], gen)
            block[idx] = ranks
        yield block


def sample_d_theta_multi(schedule: ChangePointSchedule, gen: np.random.Generator,
                         size: int) -> DegreeSampleBatch:
    """d_theta_blocks' draws in `values`, allocated first so that a huge size fails at once."""
    values = np.empty(size, dtype=np.int64)
    for n, block in enumerate(d_theta_blocks(schedule, gen, size)):
        values[n * _BLOCK:n * _BLOCK + block.size] = block
    return DegreeSampleBatch(values=values)


def ccdf_from_samples(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Empirical map k -> P(D >= k) on the observed support 1..max, the largest draw unclamped."""
    values = np.asarray(values)
    return DegreeHistogram(np.bincount(values), values.size).ccdf()


def tail_exponent(ks: np.ndarray, ccdf: np.ndarray, k_lo: int, k_hi: int) -> float:
    """Least-squares slope of log CCDF against log k over k in [k_lo, k_hi].

    For the limiting degree laws here the CCDF decays like k^-(alpha+2).
    Requires at least 30 distinct positive-mass points in the window.
    """
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
