"""Reference implementations the tests compare the library against.

Each one is the slow, direct form of something `pact` computes faster or in
closed form: a step-by-step attachment sampler, the sequential growth loop
that grow_tree vectorizes, point counts from explicit
exponential waits, the full holding-time clock of the continuous-time
embedding, the exact leaf expectation recursion with its scalar weights,
the exact mean degree of a fixed vertex, non-root leaf counts, window means,
the D_n curve as one array expression and the limit-law mixture sampler in
one shot, with every temporary at full sample size.  The exact mean and
variance of a linear functional of the leaf path come from the leaf-count
chain's moments, by scalar loops, and, for small n, from an enumeration of
the chain's states.  None of them is used by `pact` itself.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from pact import limit_laws
from pact.limit_laws import point_counts_nb, sample_age, sample_d_alpha, segment_durations
from pact.model_core import ChangePointSchedule, step_offsets


class AttachmentSampler:
    """Incremental single-step sampler over the current tree state.

    Holds the parent pointers (one entry per edge, indexed by child) and the
    active offset; the total attachment weight is (2 + offset) * m - 1.
    """

    def __init__(self, offset: float):
        self.offset = float(offset)
        self._parent = [0, 0]  # slots for unused index 0 and the root

    @property
    def m(self) -> int:
        return len(self._parent) - 1

    def attach(self, parent_vertex: int) -> int:
        """Record the next vertex's edge; returns the new vertex id."""
        if not 1 <= parent_vertex <= self.m:
            raise ValueError(f"parent {parent_vertex} not in 1..{self.m}")
        self._parent.append(parent_vertex)
        return self.m

    def sample(self, gen) -> int:
        """One draw from the attachment law (proportional to out-degree + 1 + offset)."""
        s = self.m
        copy_p = (s - 1) / ((2.0 + self.offset) * s - 1.0)
        if gen.random() < copy_p:
            return self._parent[int(gen.integers(2, s + 1))]
        return int(gen.integers(1, s + 1))

    def sample_many(self, gen, size: int) -> np.ndarray:
        """Draw `size` independent parents from the frozen current state."""
        s = self.m
        if s == 1:
            return np.ones(size, dtype=np.int64)
        copy_p = (s - 1) / ((2.0 + self.offset) * s - 1.0)
        coin = gen.random(size)
        pick = gen.random(size)
        parents = np.asarray(self._parent, dtype=np.int64)
        copy_idx = 2 + (pick * (s - 1)).astype(np.int64)
        direct_idx = 1 + (pick * s).astype(np.int64)
        return np.where(coin < copy_p, parents[copy_idx], direct_idx)

    def exact_probabilities(self) -> np.ndarray:
        """Exact attachment law over vertices 1..m (brute-force weight oracle)."""
        out_deg = np.bincount(self._parent[2:], minlength=self.m + 1)[1:]
        weights = out_deg + 1.0 + self.offset
        return weights / weights.sum()


def sample_point_count(start_rank: int, beta: float, t: float, gen) -> int:
    """Count points in [0, t] of the pure birth process by direct exponential waits.

    The m-th wait is exponential with rate (start_rank + m - 1 + beta).
    """
    elapsed, count, rate = 0.0, 0, start_rank + beta
    while True:
        elapsed += gen.exponential(1.0 / rate)
        if elapsed > t:
            return count
        count += 1
        rate += 1.0


def point_counts_direct(start_rank: int, beta: float, t: float, size: int, gen) -> np.ndarray:
    """Vectorized direct simulator (independent oracle for the negative-binomial closed form)."""
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


def expected_point_count(start_rank: float, beta: float, t: float) -> float:
    """Mean count (start_rank + beta) * (e^t - 1)."""
    return (start_rank + beta) * np.expm1(t)


def age_cdf(s, a: float, rate: float):
    """CDF of the truncated exponential on [0, a] (vectorized)."""
    return np.clip(np.expm1(-rate * np.asarray(s, dtype=np.float64)) / np.expm1(-rate * a), 0, 1)


def ccdf_from_pmf(pmf_by_degree: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CCDF k -> P(D >= k) from a pmf table indexed by degree (entry 0 ignored)."""
    tail = pmf_by_degree[::-1].cumsum()[::-1]
    return np.arange(1, pmf_by_degree.size), tail[1:]


def alpha_sampler_table(alpha: float) -> tuple[np.ndarray, float]:
    """sample_d_alpha's cdf and tail at the library's _TABLE, read at call time: the prefix
    sums of p_alpha up to K = _TABLE and P(D > K) = p(K) (K + alpha)/(2 + alpha)."""
    kmax = limit_laws._TABLE
    table = limit_laws.p_alpha_table(alpha, kmax)
    return np.cumsum(table[1:]), table[-1] * (kmax + alpha) / (2.0 + alpha)


def sample_d_theta_oneshot(
    schedule: ChangePointSchedule, gen, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """The limit-law mixture drawn in one shot, each phase one call over its whole epoch.

    `size` epoch uniforms, then per epoch from the last down to 0: its seed
    uniforms, then its negative-binomial passes.  Returns the draws and
    their birth epochs; d_theta_blocks draws this on each block.
    """
    k = len(schedule.segments)
    durations = segment_durations(schedule)
    betas = [s.beta for s in schedule.segments]
    u = gen.random(size)
    epochs = np.zeros(size, dtype=np.min_scalar_type(k))
    for seg in schedule.segments:
        epochs += u >= seg.gamma
    values = np.empty(size, dtype=np.int64)
    for i in range(k, -1, -1):
        sel = epochs == i
        count = int(np.count_nonzero(sel))
        if count == 0:
            continue
        if i == 0:
            ranks = sample_d_alpha(*alpha_sampler_table(schedule.alpha), schedule.alpha, count, gen)
        else:
            ages = sample_age(durations[i - 1], 2.0 + betas[i - 1], gen, count)
            ranks = 1 + point_counts_nb(1.0, betas[i - 1], ages, gen)
        for j in range(i + 1, k + 1):
            ranks = ranks + point_counts_nb(ranks, betas[j - 1], durations[j - 1], gen)
        values[sel] = ranks
    return values, epochs


def segment_of(schedule: ChangePointSchedule, m: int, n: int) -> tuple[int, float]:
    """Segment index j and active offset for the vertex entering at step m.

    boundaries[j] < m <= boundaries[j+1]; segment 0 reports alpha.
    """
    if not 1 <= m <= n:
        raise ValueError(f"step index m={m} outside 1..{n}")
    bounds = schedule.boundaries(n)
    for j, offset in enumerate(schedule.offsets()):
        if bounds[j] < m <= bounds[j + 1]:
            return j, offset
    raise AssertionError("unreachable: boundaries partition (0, n]")


def grow_tree_sequential(schedule: ChangePointSchedule, n: int, gen) -> tuple[np.ndarray, np.ndarray]:
    """The parent array and leaf counts N(2..n) of grow_tree, one step at a time.

    Reads the same draws as grow_tree: n - 1 mixture coins, then n - 1 uniform
    picks.  At step m the tree has s = m - 1 vertices; a copy step takes the
    parent of the uniform vertex u in 2..s, which is already resolved, and a
    direct step takes the uniform vertex in 1..s.
    """
    coin = gen.random(n - 1).tolist()
    pick = gen.random(n - 1).tolist()
    parent = [0] * (n + 1)
    out_degree = [0] * (n + 1)
    counts = []
    leaves = 0
    for m in range(2, n + 1):
        s = m - 1
        _, c = segment_of(schedule, m, n)
        i = m - 2
        if coin[i] < (s - 1.0) / ((2.0 + c) * s - 1.0):
            p = parent[2 + int(pick[i] * (s - 1.0))]
        else:
            p = 1 + int(pick[i] * s)
        parent[m] = p
        # vertex m arrives as a leaf; the root is a leaf while its out-degree is 1,
        # any other vertex until its first child
        leaves += 1
        if p == 1:
            leaves += {0: 1, 1: -1}.get(out_degree[1], 0)
        elif out_degree[p] == 0:
            leaves -= 1
        out_degree[p] += 1
        counts.append(leaves)
    return np.array(parent, dtype=np.int64), np.array(counts, dtype=np.int64)


def w_m(m: int, n: int, schedule: ChangePointSchedule) -> float:
    """Weight 1 - (1+c)/((2+c)m - 1) of the leaf expectation recursion; c attaches vertex m+1."""
    _, c = segment_of(schedule, m + 1, n)
    return 1.0 - (1.0 + c) / ((2.0 + c) * m - 1.0)


def expected_leaves(n: int, schedule: ChangePointSchedule) -> np.ndarray:
    """Exact expected non-root leaf counts for m = 2..n.

    Runs the recursion E(m+1) = 1 + w_m * E(m) with E(2) = 1, where
    w_m = 1 - (1+c)/((2+c)m - 1) and c is the offset under which vertex m+1
    attaches.  All weights lie in (0, 1), so plain accumulation is stable.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
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


def _chain_moves(n_leaves: int, r: int, c: float, w: float) -> list[tuple[int, int, float]]:
    """The leaf-count chain's moves from (N, r) in the tree of size s, W = (2+c)s - 1.

    N counts the leaves, the root among them while r = 1, that is while it has
    one child.  The next vertex joins the root with probability (2+c)r/W (to
    (N, 0)), a non-root leaf with probability (1+c)(N - r)/W (to (N, r)), and
    any other vertex otherwise (to (N + 1, r)).
    """
    stay = ((1.0 + c) * n_leaves + r) / w
    return [(n_leaves, 0, (2.0 + c) * r / w), (n_leaves, r, (1.0 + c) * (n_leaves - r) / w),
            (n_leaves + 1, r, 1.0 - stay)]


def leaf_chain_moments(schedule: ChangePointSchedule, n: int) -> np.ndarray:
    """Exact E N, E r, E N^2 and E N r of the leaf-count chain at steps m = 2..n, as rows.

    Every move probability is linear in (N, r) and r^2 = r, so the four
    moments carry forward exactly from N(2) = 2, r = 1, with p = E[N' - N]:
    E N' = E N + p, E r' = E r (1 - (2+c)/W),
    E N'^2 = E N^2 + 2(E N - ((1+c) E N^2 + E N r)/W) + p and
    E N'r' = E N r (1 - (3+2c)/W) + E r (1 - 1/W).
    """
    offsets = step_offsets(schedule, n).tolist()
    out = np.empty((4, n - 1))
    en, er, en2, enr = 2.0, 1.0, 4.0, 2.0
    out[:, 0] = en, er, en2, enr
    for s in range(2, n):
        c = offsets[s - 1]  # the offset of vertex s + 1
        w = (2.0 + c) * s - 1.0
        p = 1.0 - ((1.0 + c) * en + er) / w
        en2 += 2.0 * (en - ((1.0 + c) * en2 + enr) / w) + p
        enr = enr * (1.0 - (3.0 + 2.0 * c) / w) + er * (1.0 - 1.0 / w)
        en += p
        er *= 1.0 - (2.0 + c) / w
        out[:, s - 1] = en, er, en2, enr
    return out


def leaf_functional_moments(schedule: ChangePointSchedule, n: int, weights) -> tuple[float, float]:
    """Exact mean and variance of L = sum_m weights[m - 2] N(m) over the steps m = 2..n.

    E[L | state at s] = const + a_s N + b_s r, with a_n = weights[n - 2], b_n = 0,
    a_s = weights[s - 2] + a_{s+1}(1 - (1+c)/W) and b_s = b_{s+1}(1 - (2+c)/W) - a_{s+1}/W
    backwards.  Var L sums E[Var(a_{s+1} dN + b_{s+1} dr | state at s)] over the steps:
    the increment is a with probability q = 1 - ((1+c)N + r)/W, -b with probability
    (2+c)r/W and 0 otherwise, and its conditional variance is quadratic in (N, r), so
    leaf_chain_moments gives its mean.
    """
    offsets = step_offsets(schedule, n).tolist()
    w = [float(x) for x in weights]
    en, er, en2, enr = (row.tolist() for row in leaf_chain_moments(schedule, n))
    a, b = [0.0] * (n + 1), [0.0] * (n + 1)
    a[n] = w[n - 2]
    for s in range(n - 1, 1, -1):
        c = offsets[s - 1]
        big_w = (2.0 + c) * s - 1.0
        a[s] = w[s - 2] + a[s + 1] * (1.0 - (1.0 + c) / big_w)
        b[s] = b[s + 1] * (1.0 - (2.0 + c) / big_w) - a[s + 1] / big_w
    var = 0.0
    for s in range(2, n):
        c, i = offsets[s - 1], s - 2
        big_w = (2.0 + c) * s - 1.0
        up, down = a[s + 1], b[s + 1]
        # E[increment | state] = y0 + y1 N + y2 r
        y0, y1, y2 = up, -up * (1.0 + c) / big_w, -(up + down * (2.0 + c)) / big_w
        mean_sq = (y0 * y0 + y1 * y1 * en2[i] + y2 * y2 * er[i] + 2.0 * y0 * y1 * en[i]
                   + 2.0 * y0 * y2 * er[i] + 2.0 * y1 * y2 * enr[i])
        q = 1.0 - ((1.0 + c) * en[i] + er[i]) / big_w
        var += up * up * q + down * down * (2.0 + c) * er[i] / big_w - mean_sq
    return float(np.dot(w, en)), var


def leaf_functional_moments_enumerated(schedule: ChangePointSchedule, n: int,
                                       weights) -> tuple[float, float]:
    """leaf_functional_moments from the exact law of the chain's states (N, r), step by step.

    Each state carries its probability and the first two moments of the partial sum
    sum_{m <= s} weights[m - 2] N(m) on it.  O(n^2) states in all: for small n only.
    """
    offsets = step_offsets(schedule, n).tolist()
    x = 2.0 * float(weights[0])
    states = {(2, 1): (1.0, x, x * x)}  # (N, r) -> (P, E[S; state], E[S^2; state])
    for s in range(2, n):
        c, wt = offsets[s - 1], float(weights[s - 1])
        later: dict = {}
        for (n_leaves, r), (p, m1, m2) in states.items():
            for n2, r2, q in _chain_moves(n_leaves, r, c, (2.0 + c) * s - 1.0):
                if q == 0.0:
                    continue
                x = wt * n2
                acc = later.get((n2, r2), (0.0, 0.0, 0.0))
                later[n2, r2] = (acc[0] + q * p, acc[1] + q * (m1 + x * p),
                                 acc[2] + q * (m2 + 2.0 * x * m1 + x * x * p))
        states = later
    mean = sum(m1 for _, m1, _ in states.values())
    return mean, sum(m2 for _, _, m2 in states.values()) - mean * mean


def vertex_degree_mean(schedule: ChangePointSchedule, n: int, i: int) -> float:
    """Exact E D_i(n), the mean out-degree of vertex i in the tree of size n.

    In a tree of size s the next vertex joins i with probability (D + 1 + c)/W,
    W = (2+c)s - 1 and c its offset, so E D' = E D (1 + 1/W) + (1 + c)/W from
    D_i(i) = 0 over s = i..n-1; unrolled, E D_i(n) = sum_s (1 + c_s)/W_s *
    prod_{r > s} (1 + 1/W_r), the products one reversed cumprod.
    """
    if not 1 <= i <= n:
        raise ValueError(f"need 1 <= i <= n, got i={i}, n={n}")
    c = step_offsets(schedule, n)[i - 1:]  # c_s of the vertex joining the tree of size s = i..n-1
    w = (2.0 + c) * np.arange(i, n, dtype=np.float64) - 1.0
    later = np.append(np.cumprod(1.0 + 1.0 / w[:0:-1])[::-1], 1.0)  # prod_{r > s}(1 + 1/W_r)
    return float(np.sum((1.0 + c) / w * later))


def nonroot_leaf_counts(tree) -> np.ndarray:
    """Leaf counts of a grown tree's steps 2..n without the root (expected_leaves' convention).

    The root counts as a leaf until its second child arrives, read off the parent array.
    """
    root_children = np.flatnonzero(tree.parent[2 : tree.n + 1] == 1) + 2
    second = root_children[1] if root_children.size >= 2 else tree.n + 1
    return tree.leaf_trajectory().counts - (np.arange(2, tree.n + 1) < second)


def split_means(trajectory, t: float, epsilon: float) -> tuple[float, float]:
    """Average leaf proportions over the steps in (n*eps, n*t] and (n*t, n]."""
    if not epsilon < t < 1.0:
        raise ValueError(f"t must lie in ({epsilon}, 1), got {t}")
    n = trajectory.n
    m_lo = max(math.floor(n * epsilon), 1)
    m_t = math.floor(n * t)
    if not m_lo < m_t < n:
        raise ValueError(f"a window of t={t}, eps={epsilon} holds no step")
    props = trajectory.proportions()  # step m at index m - 2
    return float(props[m_lo - 1 : m_t - 1].mean()), float(props[m_t - 1 :].mean())


def dn_curve_direct(trajectory, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """(ts, D_n) at t = m/n for n*eps < m < n, then (1, 0), from gathered prefix sums."""
    n = trajectory.n
    m_lo = max(math.floor(n * epsilon), 1)
    prefix = np.zeros(n + 1)
    prefix[2:] = np.cumsum(trajectory.proportions())
    ms = np.arange(m_lo + 1, n)
    ts = ms / n
    before = (prefix[ms] - prefix[m_lo]) / (ms - m_lo)
    after = (prefix[n] - prefix[ms]) / (n - ms)
    dn = (1.0 - ts) * np.abs(before - after)
    return np.append(ts, 1.0), np.append(dn, 0.0)


@dataclass
class EmbeddingClock:
    """Stopping times tau[m] = first time the embedded process reaches size m.

    tau has length n+1 with tau[0] unused and tau[1] = 0.
    """

    n: int
    tau: np.ndarray
    schedule: ChangePointSchedule

    def check_invariants(self) -> None:
        if self.tau[1] != 0.0:
            raise AssertionError("tau[1] must be 0")
        if np.any(np.diff(self.tau[1:]) <= 0.0):
            raise AssertionError("tau must be strictly increasing")


def holding_times(schedule: ChangePointSchedule, n: int, gen) -> EmbeddingClock:
    """The full embedding clock: tau[m+1] - tau[m] = E_m / ((2+c)m - 1).

    E_m are iid unit exponentials and c is the offset under which vertex m+1
    attaches.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    rates = (2.0 + step_offsets(schedule, n)) * np.arange(1, n, dtype=np.float64) - 1.0
    tau = np.zeros(n + 1, dtype=np.float64)
    tau[2:] = np.cumsum(gen.standard_exponential(n - 1) / rates)
    return EmbeddingClock(n=n, tau=tau, schedule=schedule)


def upsilon(clock: EmbeddingClock, j: int = 1) -> float:
    """Segment j's duration tau[m_{j+1}] - tau[m_j], j = 1..k.

    m_j = max(floor(gamma_j n), 1) and m_{k+1} = n, so segment j spans the
    holding times at sizes m_j..m_{j+1}-1; one that holds no size gives 0.0.
    """
    segments = clock.schedule.segments
    if not 1 <= j <= len(segments):
        raise ValueError(f"segment j must lie in 1..{len(segments)}, got {j}")
    sizes = [max(int(np.floor(s.gamma * clock.n)), 1) for s in segments] + [clock.n]
    return float(clock.tau[sizes[j]] - clock.tau[sizes[j - 1]])


def malthusian_track(schedule: ChangePointSchedule, n: int, gen) -> tuple[np.ndarray, np.ndarray]:
    """Pre-change stabilization track (tau[m], m * exp(-(2+alpha) tau[m])).

    The product settles to a positive random level as m grows, which is what
    makes the total elapsed time to any fixed fraction of n logarithmic in n.
    Covers m = 1..floor(gamma_1*n) (all of 1..n without a change point).
    """
    clock = holding_times(schedule, n, gen)
    m_hi = max(int(np.floor(schedule.segments[0].gamma * n)) if schedule.segments else n, 1)
    tau = clock.tau[1 : m_hi + 1]
    return tau.copy(), np.arange(1, m_hi + 1) * np.exp(-(2.0 + schedule.alpha) * tau)
