import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from oracles import (
    age_cdf,
    alpha_sampler_table,
    ccdf_from_pmf,
    expected_point_count,
    point_counts_direct,
    sample_d_theta_oneshot,
    sample_point_count,
)
from pact import limit_laws
from pact.generator import DegreeHistogram
from pact.limit_laws import (
    _BLOCK,
    _TABLE,
    ccdf_from_samples,
    d_theta_blocks,
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


def _at(schedule: ChangePointSchedule, t: float) -> ChangePointSchedule:
    """The schedule with change points gamma_j/t: its degree law is schedule's at horizon t."""
    return ChangePointSchedule(schedule.alpha, tuple((g / t, b) for g, b in schedule.segments))


def _oneshot_by_block(schedule, gen, size: int):
    """The one-shot sampler run on consecutive blocks of _BLOCK draws: (values, epochs)."""
    parts = [sample_d_theta_oneshot(schedule, gen, min(_BLOCK, size - start))
             for start in range(0, size, _BLOCK)]
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def _replayed_epochs(schedule, seed: int, size: int) -> np.ndarray:
    """The sampler's birth epochs, #{j : u >= gamma_j}, replayed block by block."""
    return _oneshot_by_block(schedule, seeded_generator(seed), size)[1]


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
    draws = sample_d_alpha(*alpha_sampler_table(6.0), 6.0, 1_000_000, seeded_generator(30))
    emp = np.bincount(draws, minlength=22)[: 21] / draws.size
    exact = p_alpha_table(6.0, 20)
    assert tv_distance_upto(emp, exact, 20) < 0.005


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 6.0, 30.0])
def test_p_alpha_tail_telescopes(alpha):
    # P(D > k) = p(k)(k + a)/(2 + a) = prod_{j<=k} (j + a)/(j + 2 + 2a)
    kmax = 65_536
    table = p_alpha_table(alpha, kmax)
    ks = np.arange(1, kmax + 1, dtype=np.float64)
    tail = table[1:] * (ks + alpha) / (2.0 + alpha)
    product = np.cumprod((ks + alpha) / (ks + 2.0 + 2.0 * alpha))
    np.testing.assert_allclose(tail, product, rtol=1e-13, atol=0)
    # 1 - cumsum cancels, so it meets the tail only to k terms' rounding, k 2^-52
    assert np.all(np.abs(tail - (1.0 - np.cumsum(table[1:]))) <= ks * 2.0**-52)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 3.0])
@pytest.mark.parametrize("kmax", [16, 64])
def test_tail_draws_match_a_long_running_product_table(monkeypatch, kmax, alpha):
    monkeypatch.setattr(limit_laws, "_TABLE", kmax)
    size = 500_000
    draws = sample_d_alpha(*alpha_sampler_table(alpha), alpha, size, seeded_generator(8))
    cdf = np.cumsum(p_alpha_table(alpha, 1 << 20)[1:])
    ref = np.searchsorted(cdf, seeded_generator(8).random(size)) + 1
    assert ref.max() <= cdf.size  # every reference draw lies inside the long table
    assert np.count_nonzero(draws > kmax) >= 1  # the tail branch ran
    assert np.array_equal(draws, ref)


class _FixedUniform:
    """A generator stand-in: its uniforms are us in turn, the last one repeated, and it
    collects no points (every negative-binomial count is 0)."""

    def __init__(self, *us: float):
        self.us = list(us)

    def random(self, size: int) -> np.ndarray:
        return np.full(size, self.us.pop(0) if len(self.us) > 1 else self.us[0])

    def negative_binomial(self, n, p) -> np.ndarray:
        return np.zeros(np.broadcast(n, p).shape, dtype=np.int64)


def test_tail_quantile_of_the_largest_uniform_is_exact():
    # at alpha = 0, P(D > k) = 2/((k+1)(k+2)), so u = 1 - 2^-53 maps to the smallest k
    # with (k+1)(k+2) >= 2^54
    u = 1.0 - 2.0**-53
    k = int(sample_d_alpha(*alpha_sampler_table(0.0), 0.0, 1, _FixedUniform(u))[0])
    assert k == 134_217_727
    one_minus_u = 1 - Fraction(u)
    assert Fraction(2, k * (k + 1)) > one_minus_u >= Fraction(2, (k + 1) * (k + 2))


def test_no_tail_past_the_table_returns_its_last_degree():
    # at alpha = 1e6, P(D > _TABLE) underflows to 5e-324, yet cdf[-1] = 1 - 2^-52 leaves
    # u = 1 - 2^-53 past the table; a tail of 0 takes no log (warnings are errors)
    u = 1.0 - 2.0**-53
    cdf, tail = alpha_sampler_table(1e6)
    assert 0.0 < tail < 1e-300 and cdf[-1] < u
    for t in (tail, 0.0):
        assert sample_d_alpha(cdf, t, 1e6, 3, _FixedUniform(u)).tolist() == [_TABLE] * 3
    # the sampler's own tail: epoch uniforms 0.25 put all three draws before the change
    values = sample_d_theta_multi(ChangePointSchedule.single(1e6, 1.0, 0.5),
                                  _FixedUniform(0.25, u), 3).values
    assert values.tolist() == [_TABLE] * 3


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


def test_d_theta_degenerates_to_d_alpha_at_gamma():
    # just after the change point almost every vertex was born before it, and its degree
    # has had almost no time to move
    batch = sample_d_theta_multi(_at(SINGLE, SINGLE.segments[0].gamma + 1e-9),
                                 seeded_generator(39), 200_000)
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
    batch = sample_d_theta_multi(_at(SINGLE, 0.75), seeded_generator(41), 1_000_000)
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
    # at horizon t = 0.9 the last segment lasts log(t/gamma_2)/4
    assert segment_durations(_at(multi, 0.9))[1] == pytest.approx(np.log(1.2) / 4.0, abs=1e-15)


def test_segment_durations_are_positive_at_every_k():
    multi = ChangePointSchedule(alpha=4.0, segments=((0.3, 1.0), (0.7, 2.0)))
    for schedule in (SINGLE, multi):  # the last change point just short of the tree's size
        assert np.all(segment_durations(_at(schedule, schedule.segments[-1].gamma + 1e-9)) > 0)
    assert segment_durations(ChangePointSchedule(alpha=1.0)).shape == (0,)


def test_multi_sampler_epochs_follow_gap_masses():
    sched = ChangePointSchedule(alpha=4.0, segments=((0.3, 1.0), (0.7, 2.0)))
    batch = sample_d_theta_multi(sched, seeded_generator(47), 300_000)
    epochs = _replayed_epochs(sched, 47, 300_000)
    freqs = np.bincount(epochs, minlength=3) / epochs.size
    assert np.allclose(freqs, [0.3, 0.4, 0.3], atol=0.005)
    assert np.all(batch.values >= 1)
    _assert_degree_falls_with_epoch(batch.values, epochs)


def test_multi_sampler_epochs_follow_gap_masses_at_horizon():
    # at horizon t = 0.8 the epochs' masses are the gaps of (0, 0.3, 0.6, t), divided by t
    sched = _at(ChangePointSchedule(alpha=4.0, segments=((0.3, 1.0), (0.6, 2.0))), 0.8)
    batch = sample_d_theta_multi(sched, seeded_generator(47), 300_000)
    epochs = _replayed_epochs(sched, 47, 300_000)
    freqs = np.bincount(epochs, minlength=3) / epochs.size
    assert np.allclose(freqs, np.array([0.3, 0.3, 0.2]) / 0.8, atol=0.005)
    _assert_degree_falls_with_epoch(batch.values, epochs)


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


def test_histogram_ccdf_is_ccdf_from_samples_bit_for_bit():
    schedule = ChangePointSchedule(alpha=0.0, segments=((0.3, 2.0), (0.6, 0.5)))
    gen, counts, parts = seeded_generator(6), np.zeros(0, dtype=np.int64), []
    for _ in range(3):  # the running histogram limits keeps: one bincount per block
        parts.append(sample_d_theta_multi(schedule, gen, 10_000).values)
        block = np.bincount(parts[-1])
        counts = np.pad(counts, (0, max(block.size - counts.size, 0)))
        counts[:block.size] += block
    assert parts[0].max() < parts[1].max() < parts[2].max()  # each block grew the histogram
    values = np.concatenate(parts)
    ks, cc = DegreeHistogram(counts, values.size).ccdf()
    ks_s, cc_s = ccdf_from_samples(values)
    assert ks.tobytes() == ks_s.tobytes() and cc.tobytes() == cc_s.tobytes()
    assert ks[-1] == values.max() and cc[-1] > 0.0  # the largest draw, unclamped
    assert np.array_equal(cc, [(values >= k).mean() for k in ks])  # P(D >= k), exactly


def test_tail_exponent_insufficient_support():
    ks, cc = ccdf_from_pmf(p_alpha_table(0.0, 40))
    for k_lo, k_hi in [(20, 35), (200, 20)]:  # too few points, and a reversed window
        with pytest.raises(ValueError, match="support points"):
            tail_exponent(ks, cc, k_lo, k_hi)


def test_geometric_tail_slope_diverges():
    gen = seeded_generator(48)
    vals = 1 + gen.geometric(0.08, size=1_000_000)
    ks, cc = ccdf_from_samples(vals)
    shallow = tail_exponent(ks, cc, 10, 60)
    steep = tail_exponent(ks, cc, 10, 150)
    assert steep < shallow - 0.5


BLOCK_SCHEDULES = {
    "single": SINGLE,
    "multi": ChangePointSchedule(alpha=4.0, segments=((0.3, 1.0), (0.7, 2.0))),
    "alpha0": ChangePointSchedule.single(0.0, 2.0, 0.5),
    "three": ChangePointSchedule(alpha=0.5, segments=((0.1, 3.0), (0.2, 0.5), (0.6, 7.0))),
    "none_alpha0": ChangePointSchedule(alpha=0.0),  # k = 0: every draw is a p_alpha degree
    "none_alpha6": ChangePointSchedule(alpha=6.0),
}


BIT_GENERATORS = (np.random.PCG64DXSM, np.random.MT19937, np.random.SFC64)


@pytest.mark.parametrize("seed", [11, 2**63 + 5])
@pytest.mark.parametrize("t", [1.0, 0.9])  # 0.9: every change point off the round values
@pytest.mark.parametrize("name", sorted(BLOCK_SCHEDULES))
def test_blocked_sampler_draws_what_the_one_shot_sampler_draws(monkeypatch, name, t, seed):
    schedule = _at(BLOCK_SCHEDULES[name], t)
    for table in (_TABLE, 16):  # 16 entries: tail draws in blocks on either side of each edge
        monkeypatch.setattr(limit_laws, "_TABLE", table)
        for bit_generator in BIT_GENERATORS:  # any numpy Generator will do
            for size in (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3):
                gen = np.random.Generator(bit_generator(seed))
                ref_gen = np.random.Generator(bit_generator(seed))
                values = sample_d_theta_multi(schedule, gen, size).values
                ref = _oneshot_by_block(schedule, ref_gen, size)[0]
                assert np.array_equal(values, ref)
                assert gen.random() == ref_gen.random()  # the generator ends where it did
                blocks = list(d_theta_blocks(schedule, np.random.Generator(bit_generator(seed)),
                                             size))
                assert [b.size for b in blocks[:-1]] == [_BLOCK] * (len(blocks) - 1)
                assert 0 < blocks[-1].size <= _BLOCK
                for n, block in enumerate(blocks):  # each block is one one-shot sample
                    assert np.array_equal(block, ref[n * _BLOCK:(n + 1) * _BLOCK])


def test_sampler_peak_memory_stays_values_and_one_block():
    # Measured peak: 18.2 MB, of which values is 16 MB; the one-shot sampler,
    # with whole-epoch temporaries, peaks at 52 MB.
    tracemalloc.start()
    try:
        sample_d_theta_multi(SINGLE, seeded_generator(7), 2_000_000)
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert peak_mb <= 20.0
