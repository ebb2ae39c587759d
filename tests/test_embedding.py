import numpy as np
import pytest
from scipy import stats

from oracles import holding_times, malthusian_track, upsilon
from pact.limit_laws import segment_durations, upsilon_clt_sample
from pact.model_core import ChangePointSchedule, seeded_generator

SINGLE = ChangePointSchedule.single(6.0, 1.0, 0.5)
PLAIN = ChangePointSchedule(alpha=0.0)


def test_first_holding_time_mean():
    # at size 1 with alpha=0 the total rate is (2+0)*1 - 1 = 1
    gen = seeded_generator(20)
    taus = np.array([holding_times(PLAIN, 2, gen).tau[2] for _ in range(4000)])
    se = taus.std(ddof=1) / np.sqrt(taus.size)
    assert abs(taus.mean() - 1.0) < 3 * se


def test_clock_strictly_increasing_every_seed():
    for seed in range(10):
        clock = holding_times(SINGLE, 500, seeded_generator(21, seed))
        clock.check_invariants()


def test_holding_times_rejects_small_n():
    with pytest.raises(ValueError, match="n must be >= 2"):
        holding_times(SINGLE, 1, seeded_generator(22))


def test_upsilon_degenerate_and_errors():
    clock = holding_times(SINGLE, 100, seeded_generator(23))
    assert upsilon(clock, gamma=1.0) == 0.0
    plain_clock = holding_times(PLAIN, 100, seeded_generator(23))
    with pytest.raises(ValueError, match="exactly one change point"):
        upsilon(plain_clock)


def test_upsilon_limit_value():
    # log(1/0.5)/(2+1) = log(2)/3
    assert segment_durations(SINGLE)[0] == pytest.approx(np.log(2.0) / 3.0, abs=1e-15)


def test_upsilon_mean_matches_limit():
    n, reps = 20_000, 200
    vals = np.empty(reps)
    for r in range(reps):
        vals[r] = upsilon(holding_times(SINGLE, n, seeded_generator(24, r)))
    se = vals.std(ddof=1) / np.sqrt(reps)
    assert abs(vals.mean() - segment_durations(SINGLE)[0]) < 3 * se


def test_upsilon_clt_sample_rough_normality():
    z = upsilon_clt_sample(SINGLE, 20_000, 400, seeded_generator(25))
    assert stats.kstest(z, "norm").statistic < 0.1
    assert 0.8 < z.var(ddof=1) < 1.2


@pytest.mark.parametrize("case, alpha, beta, gamma, n", [
    (0, 6.0, 1.0, 0.5, 2),
    (1, 6.0, 1.0, 0.5, 3),
    (2, 1.0, 2.0, 0.1, 5),  # floor(gamma n) = 0, so the sum starts at size 1
    (3, 6.0, 1.0, 0.5, 201),
    (4, 0.0, 4.0, 0.3, 199),
])
def test_upsilon_clt_sample_matches_holding_time_sum(case, alpha, beta, gamma, n):
    # The Beta draw against the full clock's after-change duration, each case on
    # streams of its own.  Y is a sum of independent E_s / r_s, so its cumulants
    # are k_j = (j-1)! sum 1/r_s^j: mean k_1, variance k_2, and the sample
    # variance has standard error sqrt((k_4 + 2 k_2^2) / reps).
    schedule = ChangePointSchedule.single(alpha, beta, gamma)
    reps, oracle_reps = 20_000, 5_000
    limit = segment_durations(schedule)[0]
    scale = (2.0 + beta) * np.sqrt(gamma / (1.0 - gamma)) * np.sqrt(n)
    y = limit + upsilon_clt_sample(schedule, n, reps, seeded_generator(26, 2 * case)) / scale
    gen = seeded_generator(26, 2 * case + 1)
    y_oracle = np.array([upsilon(holding_times(schedule, n, gen)) for _ in range(oracle_reps)])
    assert stats.ks_2samp(y, y_oracle).pvalue > 1e-3

    r = (2.0 + beta) * np.arange(max(int(np.floor(gamma * n)), 1), n) - 1.0
    k1, k2, k4 = (1.0 / r).sum(), (1.0 / r**2).sum(), 6.0 * (1.0 / r**4).sum()
    assert abs(y.mean() - k1) < 4.0 * np.sqrt(k2 / reps)
    assert abs(y.var(ddof=1) - k2) < 4.0 * np.sqrt((k4 + 2.0 * k2**2) / reps)


def test_malthusian_track_positive_and_stabilizing():
    cv_first, cv_last = [], []
    for r in range(50):
        _, track = malthusian_track(SINGLE, 2000, seeded_generator(27, r))
        assert np.all(np.isfinite(track)) and np.all(track > 0)
        tenth = track.size // 10
        cv_first.append(track[:tenth].std() / track[:tenth].mean())
        cv_last.append(track[-tenth:].std() / track[-tenth:].mean())
    assert np.mean(cv_last) < np.mean(cv_first)


def test_change_point_hitting_time_variance_stabilizes():
    # tau[floor(gamma*n)] - log(n)/(2+alpha) settles to a random level, so its
    # ensemble variance should be comparable across n
    reps = 200
    variances = []
    for i, n in enumerate((10_000, 100_000)):
        vals = np.empty(reps)
        for r in range(reps):
            clock = holding_times(SINGLE, n, seeded_generator(28 + i, r))
            m = int(0.5 * n)
            vals[r] = clock.tau[m] - np.log(n) / (2.0 + SINGLE.alpha)
        variances.append(vals.var(ddof=1))
    ratio = variances[1] / variances[0]
    assert 0.5 < ratio < 2.0
