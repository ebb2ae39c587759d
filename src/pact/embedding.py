"""Continuous-time embedding of the attachment chain.

At size m the total birth rate is (2+c)m - 1 (sum of out_degree + 1 + c over
all vertices), so the waiting time to size m+1 is an independent exponential
with that rate, and the jump chain is exactly the discrete model.  Holding
times are therefore sufficient: no per-vertex event queue is needed.  The
duration after the change point is a sum of the holding times above
floor(gamma n), so only those are simulated here; the test suite builds the
full clock (tests/oracles.py) to check its timing statistics.
"""
from __future__ import annotations

import numpy as np

from .model_core import ChangePointSchedule, write_csv


def upsilon_limit(schedule: ChangePointSchedule) -> float:
    """Limit of the after-change duration: log(1/gamma) / (2+beta)."""
    if schedule.num_change_points != 1:
        raise ValueError("limit defined for exactly one change point")
    gamma, beta = schedule.segments[0]
    return float(np.log(1.0 / gamma) / (2.0 + beta))


def upsilon_clt_sample(
    schedule: ChangePointSchedule, n: int, reps: int, gen: np.random.Generator
) -> np.ndarray:
    """Standardized after-change durations sqrt(n)(Y - a)(2+beta)sqrt(gamma/(1-gamma)).

    The empirical law approaches standard normal as n grows.  Only the
    after-change holding times are simulated; they determine Y exactly.
    """
    if schedule.num_change_points != 1:
        raise ValueError("standardization defined for exactly one change point")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    gamma, beta = schedule.segments[0]
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


def write_zsample_csv(z: np.ndarray, path) -> None:
    write_csv(path, ["rep", "z"], [range(len(z)), z])
