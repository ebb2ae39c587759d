"""Continuous-time embedding of the attachment chain.

At size m the total birth rate is (2+c)m - 1 (sum of out_degree + 1 + c over
all vertices), so the waiting time to size m+1 is an independent exponential
with that rate, and the jump chain is exactly the discrete model.  Holding
times are therefore sufficient: no per-vertex event queue is needed.  The
duration after the change point, Y = sum_{s=m}^{n-1} E_s / ((2+beta)s - 1)
with m = max(floor(gamma n), 1), is the passage time of a Yule process with
immigration, and its law has a closed form: with d = 1/(2+beta),
(2+beta)Y has the law of -log B, B ~ Beta(m - d, n - m), since both have
Laplace transform prod_{s=m}^{n-1} (s-d)/(s-d+lambda) (Renyi's
representation of exponential order statistics).  So one Beta draw per
replicate gives Y exactly; the test suite builds the full clock
(tests/oracles.py) to check its timing statistics and this identity.
"""
from __future__ import annotations

import numpy as np

from .limit_laws import segment_durations
from .model_core import ChangePointSchedule, write_csv


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
