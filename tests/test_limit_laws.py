from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from oracles import (
    age_cdf,
    ccdf_from_pmf,
    expected_point_count,
    point_counts_direct,
    sample_point_count,
)
from pact.limit_laws import (
    ccdf_from_samples,
    p_alpha_table,
    point_counts_nb,
    sample_age,
    sample_d_alpha,
    sample_d_theta_multi,
    segment_durations,
    tail_exponent,
    tv_distance_upto,
)
from pact.leaf_process import p_inf
from pact.model_core import ChangePointSchedule, seeded_generator

SINGLE = ChangePointSchedule.single(6.0, 1.0, 0.5)


def _replayed_epochs(schedule, seed: int, size: int, horizon: float = 1.0) -> np.ndarray:
    """The sampler's birth epochs, replayed from its first uniforms: #{j : u >= gamma_j/t}."""
    u = seeded_generator(seed).random(size)
    return sum((u >= s.gamma / horizon).astype(np.int64) for s in schedule.segments)


def _assert_degree_falls_with_epoch(values: np.ndarray, epochs: np.ndarray) -> None:
    """Later births have had less time to collect points, so their mean degree is lower."""
    means = [values[epochs == i].mean() for i in range(epochs.max() + 1)]
    assert all(a > b for a, b in zip(means, means[1:])), means


def test_pmf_spot_values_exact():
    assert p_alpha_table(0.0, 2)[1] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert p_alpha_table(0.0, 2)[2] == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert p_alpha_table(6.0, 1)[1] == pytest.approx(8.0 / 15.0, abs=1e-12)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 6.0])
def test_p_alpha_pmf_matches_gammaln_reference(alpha):
    from scipy.special import gammaln

    def reference(ks):
        kf = ks.astype(np.float64)
        log_num = gammaln(kf + alpha) - gammaln(1.0 + alpha)
        log_den = gammaln(kf + 3.0 + 2.0 * alpha) - gammaln(3.0 + 2.0 * alpha)
        return (2.0 + alpha) * np.exp(log_num - log_den)

    small = np.arange(1, 1001)
    np.testing.assert_allclose(p_alpha_table(alpha, 1000)[small], reference(small), rtol=1e-11,
                               atol=0)
    # both log-gamma differences cancel to a few digits at k near 1e6
    large = np.unique(np.logspace(3, 6, 500).astype(np.int64))
    np.testing.assert_allclose(p_alpha_table(alpha, int(large[-1]))[large], reference(large),
                               rtol=1e-8, atol=0)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 6.0])
def test_p_alpha_pmf_matches_exact_fractions(alpha):
    # exact rational products p(1) = (2+a)/(3+2a), p(k+1) = p(k) (k+a)/(k+3+2a)
    a = Fraction(alpha)
    p = (2 + a) / (3 + 2 * a)
    exact = [float(p)]
    for k in range(1, 2000):
        p = p * (k + a) / (k + 3 + 2 * a)
        exact.append(float(p))
    np.testing.assert_allclose(p_alpha_table(alpha, 2000)[1:], exact, rtol=1e-13, atol=0)


def test_pmf_rejects_bad_k():
    with pytest.raises(ValueError, match="kmax must be >= 1"):
        p_alpha_table(1.0, 0)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 6.0])
def test_pmf_ratio_recursion(alpha):
    ks = np.arange(1, 51)
    p = p_alpha_table(alpha, 50)[ks]
    expected_ratio = (ks[:-1] + alpha) / (ks[:-1] + 3.0 + 2.0 * alpha)
    assert np.allclose(p[1:] / p[:-1], expected_ratio, rtol=1e-12)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 6.0])
def test_pmf_sums_to_one_with_tail_envelope(alpha):
    kmax = 4096
    while True:
        table = p_alpha_table(alpha, kmax)
        tail = table[-1] * kmax / (2.0 + alpha)
        if tail < 1e-10:
            break
        kmax *= 4
    assert abs(table.sum() + tail - 1.0) < 1e-9


def test_table_matches_pointwise_pmf():
    table = p_alpha_table(6.0, 64)
    assert np.allclose(table[1:], p_alpha_table(6.0, 1000)[1:65], rtol=1e-12)


def test_sample_d_alpha_matches_pmf():
    draws = sample_d_alpha(6.0, 1_000_000, seeded_generator(30))
    emp = np.bincount(draws, minlength=22)[: 21] / draws.size
    exact = p_alpha_table(6.0, 20)
    assert tv_distance_upto(emp, exact, 20) < 0.005


def test_tv_distance_needs_kmax_plus_one_entries():
    table = p_alpha_table(6.0, 20)
    assert tv_distance_upto(table, np.zeros(40), 20) == 0.5 * table[1:].sum()
    for short in (table[:20], np.zeros(3)):
        with pytest.raises(ValueError, match="kmax \\+ 1 = 21 entries"):
            tv_distance_upto(table, short, 20)
        with pytest.raises(ValueError, match="kmax \\+ 1 = 21 entries"):
            tv_distance_upto(short, table, 20)


def test_point_count_zero_horizon():
    assert sample_point_count(1, 1.0, 0.0, seeded_generator(31)) == 0


def test_point_count_mean_example():
    # mean of the rank-1 process over [0, log(2)/3] is 2*(e^t - 1) for beta=1
    t = np.log(2.0) / 3.0
    counts = point_counts_direct(1, 1.0, t, 200_000, seeded_generator(32))
    target = expected_point_count(1, 1.0, t)
    assert target == pytest.approx(0.5198, abs=2e-4)
    se = counts.std(ddof=1) / np.sqrt(counts.size)
    assert abs(counts.mean() - target) < 3 * se


def test_negative_binomial_closed_form_chi_square():
    # the closed form must match the direct exponential-wait simulator before
    # the bulk samplers may rely on it
    j, beta, t = 1, 1.0, 0.3
    counts = point_counts_direct(j, beta, t, 200_000, seeded_generator(33))
    kmax = 10
    pmf = stats.nbinom.pmf(np.arange(kmax + 1), j + beta, np.exp(-t))
    obs = np.bincount(np.minimum(counts, kmax + 1), minlength=kmax + 2)
    expected = np.append(pmf, 1.0 - pmf.sum()) * counts.size
    result = stats.chisquare(obs, expected)
    assert result.pvalue > 1e-3


def test_nb_sampler_matches_closed_form_chi_square():
    # same goodness-of-fit bar for the production sampler path (non-integer size)
    j, beta, t = 3, 2.0, 0.4
    nb = point_counts_nb(np.full(200_000, float(j)), beta, t, seeded_generator(35))
    kmax = 14
    pmf = stats.nbinom.pmf(np.arange(kmax + 1), j + beta, np.exp(-t))
    obs = np.bincount(np.minimum(nb, kmax + 1), minlength=kmax + 2)
    expected = np.append(pmf, 1.0 - pmf.sum()) * nb.size
    assert stats.chisquare(obs, expected).pvalue > 1e-3


def test_sample_age_support_and_cdf():
    a = np.log(2.0) / 3.0
    rate = 3.0  # 2 + beta for beta = 1
    draws = sample_age(a, rate, seeded_generator(36), 200_000)
    assert np.all(draws >= 0.0) and np.all(draws <= a)
    assert float(np.mean(draws <= a)) == 1.0
    target = float(age_cdf(a / 2.0, a, rate))
    # independent evaluation of the same CDF formula
    assert target == pytest.approx((1 - np.exp(-rate * a / 2)) / (1 - np.exp(-rate * a)), abs=1e-12)
    emp = float(np.mean(draws <= a / 2.0))
    se = np.sqrt(target * (1 - target) / draws.size)
    assert abs(emp - target) < 3 * se


def test_sample_age_rejects_bad_a():
    with pytest.raises(ValueError, match="truncation level must be > 0"):
        sample_age(0.0, 3.0, seeded_generator(37), 10)


def test_d_theta_horizon_validation():
    with pytest.raises(ValueError, match="horizon must lie in"):
        sample_d_theta_multi(SINGLE, seeded_generator(38), 10, horizon=0.5)
    with pytest.raises(ValueError, match="horizon must lie in"):
        sample_d_theta_multi(SINGLE, seeded_generator(38), 10, horizon=1.2)


def test_d_theta_degenerates_to_d_alpha_at_gamma():
    batch = sample_d_theta_multi(SINGLE, seeded_generator(39), 200_000,
                                 horizon=SINGLE.segments[0].gamma + 1e-9)
    emp = batch.pmf(20)
    exact = p_alpha_table(SINGLE.alpha, 20)
    assert tv_distance_upto(emp, exact, 20) < 0.005


def test_d_theta_leaf_mass_matches_limit_curve():
    # cross-oracle: the mass at degree 1 equals the limiting leaf proportion
    batch = sample_d_theta_multi(SINGLE, seeded_generator(40), 1_000_000)
    p1 = float(np.mean(batch.values == 1))
    target = float(p_inf(1.0, SINGLE))
    se = np.sqrt(target * (1 - target) / batch.values.size)
    assert abs(p1 - target) < 4 * se


def test_d_theta_time_indexed_leaf_mass():
    batch = sample_d_theta_multi(SINGLE, seeded_generator(41), 1_000_000, horizon=0.75)
    p1 = float(np.mean(batch.values == 1))
    target = float(p_inf(0.75, SINGLE))
    se = np.sqrt(target * (1 - target) / batch.values.size)
    assert abs(p1 - target) < 4 * se


def test_d_theta_with_equal_offsets_reproduces_p_alpha():
    s = ChangePointSchedule.single(2.0, 2.0, 0.37)
    batch = sample_d_theta_multi(s, seeded_generator(42), 1_000_000)
    assert tv_distance_upto(batch.pmf(20), p_alpha_table(2.0, 20), 20) < 0.005


def test_d_theta_before_branch_dominates_d_alpha():
    batch = sample_d_theta_multi(SINGLE, seeded_generator(43), 500_000)
    before = batch.values[_replayed_epochs(SINGLE, 43, 500_000) == 0]
    ccdf_exact = 1.0 - np.cumsum(p_alpha_table(SINGLE.alpha, 60))[:-1]
    for k in (2, 5, 10, 20):
        emp = float(np.mean(before >= k))
        target = ccdf_exact[k - 1]
        se = np.sqrt(target * (1 - target) / before.size)
        assert emp >= target - 3 * se


def test_epoch_probabilities_and_durations():
    multi = ChangePointSchedule(alpha=4.0, segments=((0.25, 1.0), (0.75, 2.0)))
    durs = segment_durations(multi)
    assert durs[0] == pytest.approx(np.log(3.0) / 3.0, abs=1e-15)
    assert durs[1] == pytest.approx(np.log(1.0 / 0.75) / 4.0, abs=1e-15)
    assert segment_durations(multi, horizon=0.9)[1] == pytest.approx(np.log(1.2) / 4.0, abs=1e-15)
    with pytest.raises(ValueError, match="needs at least one change point"):
        sample_d_theta_multi(ChangePointSchedule(alpha=1.0), seeded_generator(38), 10)


def test_multi_sampler_epochs_follow_gap_masses():
    sched = ChangePointSchedule(alpha=4.0, segments=((0.3, 1.0), (0.7, 2.0)))
    batch = sample_d_theta_multi(sched, seeded_generator(47), 300_000)
    epochs = _replayed_epochs(sched, 47, 300_000)
    freqs = np.bincount(epochs, minlength=3) / epochs.size
    assert np.allclose(freqs, [0.3, 0.4, 0.3], atol=0.005)
    assert np.all(batch.values >= 1)
    _assert_degree_falls_with_epoch(batch.values, epochs)


def test_multi_sampler_epochs_follow_gap_masses_at_horizon():
    sched = ChangePointSchedule(alpha=4.0, segments=((0.3, 1.0), (0.6, 2.0)))
    batch = sample_d_theta_multi(sched, seeded_generator(47), 300_000, horizon=0.8)
    epochs = _replayed_epochs(sched, 47, 300_000, horizon=0.8)
    freqs = np.bincount(epochs, minlength=3) / epochs.size
    assert np.allclose(freqs, np.array([0.3, 0.3, 0.2]) / 0.8, atol=0.005)
    _assert_degree_falls_with_epoch(batch.values, epochs)
    for horizon in (0.6, 1.2):
        with pytest.raises(ValueError, match="horizon must lie in"):
            sample_d_theta_multi(sched, seeded_generator(47), 10, horizon=horizon)


def test_ccdf_exact_tail_slope():
    ks, cc = ccdf_from_pmf(p_alpha_table(0.0, 500))
    slope = tail_exponent(ks, cc, 20, 200)
    assert abs(slope - (-2.0)) < 0.1


def test_ccdf_from_samples_matches_definition():
    values = np.array([1, 1, 2, 3, 3, 3])
    ks, cc = ccdf_from_samples(values)
    assert ks[0] == 1 and cc[0] == 1.0
    assert cc[1] == pytest.approx(4 / 6)
    assert cc[2] == pytest.approx(3 / 6)


def test_ccdf_from_histogram_matches_samples():
    from pact.generator import degree_histogram, grow_tree

    tree = grow_tree(SINGLE, 2000, seeded_generator(49))
    hist = degree_histogram(tree)
    ks_h, cc_h = ccdf_from_pmf(hist.counts / hist.n)
    ks_s, cc_s = ccdf_from_samples(tree.total_degrees())
    assert np.array_equal(ks_h, ks_s)
    assert np.allclose(cc_h, cc_s, atol=1e-15)


def test_tail_exponent_insufficient_support():
    ks, cc = ccdf_from_pmf(p_alpha_table(0.0, 40))
    with pytest.raises(ValueError, match="support points"):
        tail_exponent(ks, cc, 20, 35)


def test_geometric_tail_slope_diverges():
    gen = seeded_generator(48)
    vals = 1 + gen.geometric(0.08, size=1_000_000)
    ks, cc = ccdf_from_samples(vals)
    shallow = tail_exponent(ks, cc, 10, 60)
    steep = tail_exponent(ks, cc, 10, 150)
    assert steep < shallow - 0.5
