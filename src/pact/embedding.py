"""Continuous-time embedding of the attachment chain.

At size m the total birth rate is (2+c)m - 1 (sum of out_degree + 1 + c over
all vertices), so the waiting time to size m+1 is an independent exponential
with that rate, and the jump chain is exactly the discrete model.  Holding
times are therefore sufficient: no per-vertex event queue is needed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .generator import GrowingTree, grow_tree
from .model_core import (
    ChangePointSchedule,
    RngLike,
    SizeTooSmall,
    as_generator,
    step_offsets,
    validate_schedule,
    write_csv,
)


class NoChangePoint(ValueError):
    """Operation needs a schedule with a change point."""


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


def holding_times(schedule: ChangePointSchedule, n: int, rng: RngLike) -> EmbeddingClock:
    """Realize the embedding clock: tau[m+1] - tau[m] = E_m / ((2+c)m - 1).

    E_m are iid unit exponentials and c is the offset under which vertex m+1
    attaches.
    """
    validate_schedule(schedule)
    if n < 2:
        raise SizeTooSmall(f"n must be >= 2, got {n}")
    gen = as_generator(rng)
    offs = step_offsets(schedule, n)
    sizes = np.arange(1, n, dtype=np.float64)
    rates = (2.0 + offs) * sizes - 1.0
    waits = gen.standard_exponential(n - 1) / rates
    tau = np.empty(n + 1, dtype=np.float64)
    tau[0] = 0.0
    tau[1] = 0.0
    tau[2:] = np.cumsum(waits)
    return EmbeddingClock(n=n, tau=tau, schedule=schedule)


def upsilon(clock: EmbeddingClock, gamma: float | None = None) -> float:
    """Duration between reaching size floor(gamma*n) and size n."""
    if gamma is None:
        if clock.schedule.num_change_points != 1:
            raise NoChangePoint("upsilon needs exactly one change point (or an explicit gamma)")
        gamma = clock.schedule.gamma
    m = int(np.floor(gamma * clock.n))
    if not 1 <= m <= clock.n:
        raise ValueError(f"floor(gamma*n)={m} outside 1..{clock.n}")
    return float(clock.tau[clock.n] - clock.tau[m])


def upsilon_limit(schedule: ChangePointSchedule) -> float:
    """Limit of the after-change duration: log(1/gamma) / (2+beta)."""
    if schedule.num_change_points != 1:
        raise NoChangePoint("limit defined for exactly one change point")
    return float(np.log(1.0 / schedule.gamma) / (2.0 + schedule.beta))


def upsilon_clt_sample(
    schedule: ChangePointSchedule, n: int, reps: int, rng: RngLike
) -> np.ndarray:
    """Standardized after-change durations sqrt(n)(Y - a)(2+beta)sqrt(gamma/(1-gamma)).

    The empirical law approaches standard normal as n grows.  Only the
    after-change holding times are simulated; they determine Y exactly.
    """
    if schedule.num_change_points != 1:
        raise NoChangePoint("standardization defined for exactly one change point")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    validate_schedule(schedule)
    if n < 2:
        raise SizeTooSmall(f"n must be >= 2, got {n}")
    gen = as_generator(rng)
    beta, gamma = schedule.beta, schedule.gamma
    m0 = int(np.floor(gamma * n))
    sizes = np.arange(max(m0, 1), n, dtype=np.float64)
    rates = (2.0 + beta) * sizes - 1.0
    a = upsilon_limit(schedule)
    scale = (2.0 + beta) * np.sqrt(gamma / (1.0 - gamma)) * np.sqrt(n)
    out = np.empty(reps, dtype=np.float64)
    for r in range(reps):
        y = float((gen.standard_exponential(rates.size) / rates).sum())
        out[r] = (y - a) * scale
    return out


def malthusian_track(
    schedule: ChangePointSchedule, n: int, rng: RngLike
) -> tuple[np.ndarray, np.ndarray]:
    """Pre-change stabilization track (tau[m], m * exp(-(2+alpha) tau[m])).

    The product settles to a positive random level as m grows, which is what
    makes the total elapsed time to any fixed fraction of n logarithmic in n.
    Covers m = 1..floor(gamma_1*n) (all of 1..n without a change point).
    """
    clock = holding_times(schedule, n, rng)
    m_hi = int(np.floor(schedule.segments[0].gamma * n)) if schedule.segments else n
    m_hi = max(m_hi, 1)
    ms = np.arange(1, m_hi + 1)
    track = ms * np.exp(-(2.0 + schedule.alpha) * clock.tau[1 : m_hi + 1])
    return clock.tau[1 : m_hi + 1].copy(), track


def embed(
    schedule: ChangePointSchedule, n: int, tree_rng: RngLike, clock_rng: RngLike
) -> tuple[GrowingTree, EmbeddingClock]:
    """Jump chain plus holding times from two independent streams.

    The jump chain is the discrete tree itself, so the embedded tree is
    identical (per stream) to grow_tree's output.
    """
    tree = grow_tree(schedule, n, tree_rng)
    clock = holding_times(schedule, n, clock_rng)
    return tree, clock


def write_clock_csv(clock: EmbeddingClock, path) -> None:
    write_csv(path, ["m", "tau"], [range(1, clock.n + 1), clock.tau[1 : clock.n + 1]])


def write_zsample_csv(z: np.ndarray, path) -> None:
    write_csv(path, ["rep", "z"], [range(len(z)), z])
