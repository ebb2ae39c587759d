from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import expected_leaves, nonroot_leaf_counts, w_m
from pact.estimator import limit_D
from pact.generator import grow_tree, leaf_counts
from pact.leaf_process import (
    LeafTrajectory,
    delta_exponent,
    g_scale,
    gn_path,
    leaf_proportion_integral,
    mu_drift,
    p_inf,
    phi,
    sigma2,
    sigma_m2,
    variance_gn,
    write_curve_csv,
)
from pact.limit_laws import segment_durations, upsilon_clt_sample
from pact.model_core import ChangePointSchedule, seeded_generator

SINGLE = ChangePointSchedule.single(6.0, 1.0, 0.5)
TWO = ChangePointSchedule(alpha=4.0, segments=((0.3, 1.0), (0.7, 2.0)))
THREE = ChangePointSchedule(alpha=0.5, segments=((0.25, 6.0), (0.5, 0.2), (0.75, 3.0)))
# a large rise in the offset, then a near-uniform stretch and a long last segment
STEEP = ChangePointSchedule(alpha=0.0, segments=((0.1, 50.0), (0.2, 0.01), (0.9, 1.0)))


def _p_inf_printed(t, alpha, beta, gamma):
    """Expanded form of the post-change branch, kept independent of the library."""
    if t <= gamma:
        return (2 + alpha) / (3 + 2 * alpha)
    r = gamma / t
    return (2 + beta) / (3 + 2 * beta) * (1 - r ** ((3 + 2 * beta) / (2 + beta))) + r * (
        (2 + alpha) / (3 + 2 * alpha)
    ) * r ** ((1 + beta) / (2 + beta))


def test_p_inf_constant_before_change():
    for t in (0.05, 0.2, 0.5):
        assert p_inf(t, SINGLE) == pytest.approx(8.0 / 15.0, abs=1e-12)


def test_p_inf_terminal_value():
    assert p_inf(1.0, SINGLE) == pytest.approx(_p_inf_printed(1.0, 6.0, 1.0, 0.5), abs=1e-12)
    assert p_inf(1.0, SINGLE) == pytest.approx(0.5790, abs=5e-5)


def test_p_inf_continuous_at_change_point():
    g = SINGLE.segments[0].gamma
    assert abs(p_inf(g + 1e-13, SINGLE) - p_inf(g, SINGLE)) < 1e-12
    ts = np.linspace(0.51, 1.0, 200)
    assert np.allclose(p_inf(ts, SINGLE), [_p_inf_printed(t, 6, 1, 0.5) for t in ts], atol=1e-12)


def test_p_inf_domain():
    with pytest.raises(ValueError, match=r"t must lie in \(0, 1\]"):
        p_inf(0.0, SINGLE)
    with pytest.raises(ValueError, match=r"t must lie in \(0, 1\]"):
        p_inf(1.1, SINGLE)


def test_p_inf_equal_offsets_is_flat():
    s = ChangePointSchedule.single(2.0, 2.0, 0.4)
    ts = np.linspace(0.01, 1.0, 1000)
    vals = np.asarray(p_inf(ts, s))
    assert np.max(np.abs(vals - vals[0])) < 1e-12


def test_p_inf_increases_after_drop_in_offset():
    ts = np.linspace(0.5, 1.0, 1000)
    vals = np.asarray(p_inf(ts, SINGLE))
    assert np.all(np.diff(vals) > 0)


def test_leaf_integral_matches_quadrature():
    from scipy.integrate import quad

    for x in (0.3, 0.5, 0.77, 1.0):
        num, _ = quad(lambda u: p_inf(u, SINGLE), 1e-12, x, epsabs=1e-12, limit=200)
        assert leaf_proportion_integral(x, SINGLE) == pytest.approx(num, abs=1e-9)


def test_w_m_values():
    assert w_m(2, 100, ChangePointSchedule(alpha=0.0)) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert w_m(2, 100, ChangePointSchedule(alpha=6.0)) == pytest.approx(8.0 / 15.0, abs=1e-15)


def test_w_m_switches_at_change_point():
    n = 100
    # entering vertex m+1 = 51 is the first to use beta
    assert w_m(49, n, SINGLE) == pytest.approx(1 - 7.0 / (8 * 49 - 1), abs=1e-15)
    assert w_m(50, n, SINGLE) == pytest.approx(1 - 2.0 / (3 * 50 - 1), abs=1e-15)


def test_w_m_lower_bound():
    for alpha in (0.0, 1.0, 4.0, 10.0):
        s = ChangePointSchedule.single(alpha, min(alpha + 1, 10.0), 0.5)
        for m in range(4, 200):
            assert w_m(m, 1000, s) >= 0.5


def test_expected_leaves_boundary_and_recursion():
    theta = expected_leaves(200, ChangePointSchedule(alpha=0.0))
    assert theta[0] == 1.0
    assert theta[1] == pytest.approx(5.0 / 3.0, abs=1e-15)
    # replay the recursion through the scalar weight function
    s = ChangePointSchedule(alpha=0.5, segments=((0.3, 2.0), (0.7, 1.0)))
    theta = expected_leaves(50, s)
    acc = 1.0
    for m in range(2, 50):
        acc = 1.0 + w_m(m, 50, s) * acc
        assert theta[m - 1] == pytest.approx(acc, rel=1e-14)


def test_expected_leaves_track_limit_curve_uniformly():
    for schedule in (SINGLE, TWO):
        sup = {}
        for n in (1000, 10_000, 100_000):
            theta = expected_leaves(n, schedule)
            ms = np.arange(2, n + 1)
            sup[n] = np.max(np.abs(theta - ms * np.asarray(p_inf(ms / n, schedule))))
        assert sup[100_000] <= 1.2 * sup[1000]


def test_variance_suite_closed_values():
    da = delta_exponent(6.0)
    p_g = 8.0 / 15.0
    s2 = sigma2(0.3, SINGLE)
    assert s2 == pytest.approx(da * p_g * (1 - da * p_g), abs=1e-12)
    assert s2 == pytest.approx(56.0 / 225.0, abs=1e-12)
    assert g_scale(0.3, SINGLE) * 0.3**da == pytest.approx(1.0, abs=1e-12)
    assert phi(0.3, SINGLE) == pytest.approx(s2 * 0.3 ** (2 * da + 1) / (2 * da + 1), abs=1e-12)


def test_variance_at_change_point():
    # g(gamma)^2 phi(gamma) collapses to sigma2 * gamma / (2 delta + 1)
    da = delta_exponent(6.0)
    sigma2_pre = (7.0 / 15.0) * (8.0 / 15.0)
    target = sigma2_pre * 0.5 / (2 * da + 1)
    assert target == pytest.approx(0.045253, abs=5e-7)
    assert variance_gn(0.5, SINGLE) == pytest.approx(target, abs=1e-12)


def test_delta_exponent_monotone_range():
    us = np.linspace(0.0, 50.0, 400)
    ds = np.array([delta_exponent(u) for u in us])
    assert np.all(np.diff(ds) > 0)
    assert ds[0] == 0.5 and np.all(ds < 1.0)


def test_phi_zero_and_increasing():
    assert phi(0.0, SINGLE) == 0.0
    ts = np.linspace(0.05, 1.0, 25)
    vals = np.array([phi(t, SINGLE) for t in ts])
    assert np.all(np.diff(vals) > 0)


PHI_SCHEDULES = [ChangePointSchedule.single(0.0, beta, gamma)
                 for beta in (0.01, 1.0, 50.0) for gamma in (0.1, 0.5, 0.99)]
PHI_SCHEDULES += [ChangePointSchedule(alpha=0.0), SINGLE, TWO, THREE, STEEP]


def _schedule_id(schedule):
    segments = "".join(f"-b{b}-g{g}" for g, b in schedule.segments)
    return f"a{schedule.alpha}{segments or '-no-change'}"


def _change_points(schedule):
    """Each gamma_j and the point just above it; 1 stands in when there is no change point."""
    gammas = [s.gamma for s in schedule.segments] or [1.0]
    return gammas + [min(g + 1e-9, 1.0) for g in gammas]


@pytest.mark.parametrize("schedule", PHI_SCHEDULES, ids=_schedule_id)
def test_phi_closed_form_matches_quadrature(schedule):
    from scipy.integrate import quad

    bounds = [0.0] + [s.gamma for s in schedule.segments] + [1.0]
    middles = [0.5 * (a + b) for a, b in zip(bounds[1:], bounds[2:])]
    for t in sorted({0.0, 1.0, *_change_points(schedule), *middles}):
        inside = [g for g in bounds[1:-1] if g < t]
        num, _ = quad(lambda s: sigma_m2(s, schedule), 0.0, t, epsabs=1e-13, epsrel=1e-13,
                      limit=200, points=inside or None)
        assert phi(t, schedule) == pytest.approx(num, abs=1e-10)
        num, _ = quad(lambda u: p_inf(u, schedule), 1e-12, t, epsabs=1e-13, epsrel=1e-13,
                      limit=200, points=inside or None)
        assert leaf_proportion_integral(t, schedule) == pytest.approx(num, abs=1e-10)


@pytest.mark.parametrize("schedule", PHI_SCHEDULES, ids=_schedule_id)
def test_phi_vectorized_matches_scalar(schedule):
    ts = np.unique(np.concatenate([np.linspace(0.0, 1.0, 201), _change_points(schedule)]))
    vals = phi(ts, schedule)
    assert isinstance(vals, np.ndarray) and vals.shape == ts.shape
    scalars = [phi(float(t), schedule) for t in ts]
    assert all(type(v) is float for v in scalars)
    np.testing.assert_allclose(vals, scalars, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("schedule", PHI_SCHEDULES, ids=_schedule_id)
def test_variance_density_and_drift_follow_from_g(schedule):
    h = 1e-6
    ts = np.linspace(0.01, 0.99, 99)
    ts = ts[[all(abs(t - s.gamma) > 2 * h for s in schedule.segments) for t in ts]]
    g = g_scale(ts, schedule)
    np.testing.assert_allclose(sigma_m2(ts, schedule), sigma2(ts, schedule) / g**2, rtol=1e-12)
    slope = (g_scale(ts + h, schedule) - g_scale(ts - h, schedule)) / (2 * h)
    np.testing.assert_allclose(mu_drift(ts, schedule), slope, rtol=1e-6)


def test_phi_rejects_times_outside_unit_interval():
    for bad in (-0.1, 1.1, float("nan"), [0.5, 1.5]):
        with pytest.raises(ValueError, match=r"t must lie in \[0, 1\]"):
            phi(bad, SINGLE)


CLOSED_FORMS = [p_inf, leaf_proportion_integral, sigma_m2, sigma2, mu_drift, g_scale, phi]
OPEN_AT_ZERO = {p_inf, mu_drift, g_scale}  # defined on (0, 1]; the others on [0, 1]
SCHEDULES = st.one_of(
    st.builds(ChangePointSchedule.single, st.floats(0.0, 50.0), st.floats(0.01, 50.0),
              st.floats(0.01, 0.99)),
    st.builds(ChangePointSchedule, st.floats(0.0, 50.0)),
    st.builds(lambda alpha, gammas, betas: ChangePointSchedule(alpha, zip(sorted(gammas), betas)),
              st.floats(0.0, 50.0),
              st.lists(st.floats(0.01, 0.99), min_size=2, max_size=3, unique=True),
              st.lists(st.floats(0.01, 50.0), min_size=3, max_size=3)),
)
OUTSIDE = st.one_of(st.floats(max_value=0.0, exclude_max=True),
                    st.floats(min_value=1.0, exclude_min=True), st.just(float("nan")))


@settings(max_examples=150, deadline=None, database=None)
@given(schedule=SCHEDULES, ts=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
def test_closed_forms_scalar_and_array_agree(schedule, ts):
    for f in CLOSED_FORMS:
        inside = [t for t in ts if t > 0.0] if f in OPEN_AT_ZERO else ts
        if not inside:
            continue
        with np.errstate(all="ignore"):  # t near 0 overflows mu and g to inf, in both paths
            values = f(np.array(inside), schedule)
            scalars = [f(t, schedule) for t in inside]
        assert isinstance(values, np.ndarray) and values.shape == (len(inside),)
        assert all(type(v) is float for v in scalars)
        np.testing.assert_array_equal(values, scalars)


@settings(max_examples=150, deadline=None, database=None)
@given(schedule=SCHEDULES, bad=OUTSIDE, good=st.floats(0.0, 1.0))
def test_closed_forms_reject_times_outside_their_domain(schedule, bad, good):
    for f in CLOSED_FORMS:
        for t in [bad, [good, bad]] + ([0.0] if f in OPEN_AT_ZERO else []):
            with pytest.raises(ValueError, match="t must lie in"):
                f(t, schedule)


def _log_uniform(low_exp: float, high_exp: float, *edges: float):
    """10^e for e uniform in [low_exp, high_exp], or one of the edge values."""
    return st.one_of(st.sampled_from(edges), st.floats(low_exp, high_exp).map(lambda e: 10.0**e))


# the whole domain a schedule and the CLI accept: gamma_1 and t down to 1e-100, offsets to 2^53
DOMAIN_GAMMAS = _log_uniform(-100.0, 0.0, 1e-100, 1e-50, 1e-20, 0.5, 1 - 1e-16).filter(
    lambda g: g < 1.0)
DOMAIN_OFFSETS = _log_uniform(-300.0, 53 * np.log10(2.0), 1e-300, 1e-10, 1.0, 657.0, 2.0**53)
DOMAIN_SCHEDULES = st.builds(
    lambda alpha, segments: ChangePointSchedule(alpha, sorted(segments)),
    st.one_of(st.just(0.0), DOMAIN_OFFSETS),
    st.lists(st.tuples(DOMAIN_GAMMAS, DOMAIN_OFFSETS), max_size=3, unique_by=lambda s: s[0]))


@settings(max_examples=300, deadline=None, database=None)
@given(schedule=DOMAIN_SCHEDULES,
       ts=st.lists(_log_uniform(-100.0, 0.0, 1e-100, 1.0), min_size=1, max_size=8),
       eps_share=st.floats(1e-6, 1.0, exclude_max=True), n=st.integers(2, 2**53))
@example(schedule=ChangePointSchedule(0.0, ((1e-100, 657.0), (0.5, 1e-10))),
         ts=[1e-100, 1e-50, 1.0], eps_share=0.5, n=1000)
@example(schedule=ChangePointSchedule.single(6.0, 1.0, 1e-100), ts=[1e-100], eps_share=1e-6,
         n=1000)
def test_closed_forms_are_finite_on_the_accepted_domain(schedule, ts, eps_share, n):
    # no errstate: an overflow or invalid operation is an error, as is a NaN or inf value
    ts = np.array(ts)
    for f in CLOSED_FORMS:
        assert np.all(np.isfinite(f(ts, schedule))), f.__name__
    assert all(np.isfinite(variance_gn(float(t), schedule)) for t in ts)
    if schedule.segments:
        assert np.all(np.isfinite(segment_durations(schedule)))
        eps = schedule.segments[0].gamma * eps_share
        grid = np.concatenate([[eps, 1.0], ts[ts >= eps]])
        assert np.all(np.isfinite(limit_D(grid, schedule, eps)))
    if len(schedule.segments) == 1:
        z = upsilon_clt_sample(schedule, n, 4, seeded_generator(54))
        assert np.all(np.isfinite(z))


def test_continuity_and_jumps_at_change_point():
    eps = 1e-13
    g = SINGLE.segments[0].gamma
    # continuous by construction: p_inf and the de-scaling factor
    assert abs(float(g_scale(g + eps, SINGLE)) - float(g_scale(g, SINGLE))) < 1e-12
    assert abs(float(p_inf(g + eps, SINGLE)) - float(p_inf(g, SINGLE))) < 1e-12
    # the instantaneous drift and variance genuinely jump when offsets differ
    assert abs(float(mu_drift(g + 1e-9, SINGLE)) - float(mu_drift(g, SINGLE))) > 1e-3
    assert abs(float(sigma2(g + 1e-9, SINGLE)) - float(sigma2(g, SINGLE))) > 1e-3
    assert abs(float(sigma_m2(g + 1e-9, SINGLE)) - float(sigma_m2(g, SINGLE))) > 1e-3
    # the same at every gamma_j: g and sigma_m2 = sigma2 / g^2 carry each jump of the offset
    for schedule in (SINGLE, TWO, THREE, STEEP):
        offsets = schedule.offsets()
        for j, gj in enumerate(s.gamma for s in schedule.segments):
            for f in (g_scale, p_inf, leaf_proportion_integral, phi):
                scale = max(1.0, abs(f(gj, schedule)))
                assert abs(f(gj + eps, schedule) - f(gj, schedule)) < 1e-11 * scale
            d0, d1 = delta_exponent(offsets[j]), delta_exponent(offsets[j + 1])
            p, gg = p_inf(gj, schedule), g_scale(gj, schedule)
            s2_jump = d1 * p * (1 - d1 * p) - d0 * p * (1 - d0 * p)
            jumps = {mu_drift: -(d1 - d0) * gg / gj, sigma2: s2_jump, sigma_m2: s2_jump / gg**2}
            for f, jump in jumps.items():
                assert f(gj + 1e-9, schedule) - f(gj, schedule) == pytest.approx(jump, rel=1e-5)
                assert abs(jump) > 1e-3 * abs(f(gj, schedule))
    # with equal offsets the variance density is continuous
    flat = ChangePointSchedule.single(2.0, 2.0, 0.5)
    assert abs(float(sigma_m2(0.5 + eps, flat)) - float(sigma_m2(0.5, flat))) < 1e-12


def test_gn_path_centering_identity():
    n = 1000
    ms = np.arange(2, n + 1)
    exact = ms * np.asarray(p_inf(ms / n, SINGLE))
    traj = LeafTrajectory(n=n, counts=exact)
    grid = ms[49::100] / n
    path = gn_path(n, lambda steps: traj.counts[steps - 2], SINGLE, grid)
    assert np.max(np.abs(path)) < 1e-12


def _gn_path_every_step(trajectory, schedule, grid):
    """gn_path with np.interp over every recorded step."""
    ts = np.asarray(grid, dtype=np.float64)
    n = trajectory.n
    counts_at = np.interp(n * ts, trajectory.steps(), trajectory.counts)
    return (counts_at - n * ts * np.asarray(p_inf(ts, schedule))) / np.sqrt(n)


@st.composite
def _gn_path_grids(draw):
    """(n, grid) with every t in [2/n, 1] by gn_path's float predicate n t >= 2, which
    the filter applies because n (2 / n) < 2 for some n."""
    n = draw(st.integers(2, 2000))
    t = st.floats(2 / n, 1.0).filter(lambda t: n * t >= 2)
    return n, draw(st.lists(t, min_size=1, max_size=12))


@settings(max_examples=100, deadline=None, database=None)
@given(case=_gn_path_grids())
@example(case=(2, [1.0]))
@example(case=(3, [2 / 3, 0.9, 1.0]))
@example(case=(997, [2 / 997, 0.3, 0.5, 0.5, 0.25, 1.0]))
def test_gn_path_brackets_match_interpolating_every_step(case):
    # grids with n t = 2, non-integer n t, repeats, unsorted points and t = 1
    n, grid = case
    trajectory = grow_tree(SINGLE, n, seeded_generator(52, n)).leaf_trajectory()
    path = gn_path(n, lambda steps: trajectory.counts[steps - 2], SINGLE, grid)
    assert np.array_equal(path, _gn_path_every_step(trajectory, SINGLE, grid))
    # the counts read straight from the tree's draws give the same bits
    counts_at = partial(leaf_counts, SINGLE, n, seeded_generator(52, n))
    assert np.array_equal(gn_path(n, counts_at, SINGLE, grid), path)


@pytest.mark.parametrize("grid", [[np.nan], [0.5, np.nan], [0.0, 0.5], [0.5, 1.5], [-np.inf],
                                  [1e-9], [0.01], [0.015]])
def test_gn_path_rejects_grid_outside_unit_interval(grid):
    trajectory = grow_tree(SINGLE, 100, seeded_generator(53)).leaf_trajectory()
    with pytest.raises(ValueError, match="grid must lie"):
        gn_path(100, lambda steps: trajectory.counts[steps - 2], SINGLE, grid)


def test_gn_ensemble_light():
    n, reps = 20_000, 120
    grid = np.array([0.5, 1.0])
    rows = np.empty((reps, grid.size))
    for r in range(reps):
        trajectory = grow_tree(SINGLE, n, seeded_generator(50, r)).leaf_trajectory()
        rows[r] = gn_path(n, lambda steps: trajectory.counts[steps - 2], SINGLE, grid)
    se = rows.std(axis=0, ddof=1) / np.sqrt(reps)
    assert np.all(np.abs(rows.mean(axis=0)) < 4 * se)
    target = variance_gn(0.5, SINGLE)
    assert abs(rows[:, 0].var(ddof=1) - target) < 0.4 * target


def test_nonroot_counts_convention():
    tree = grow_tree(SINGLE, 500, seeded_generator(51))
    nonroot = nonroot_leaf_counts(tree)
    assert nonroot[0] == 1  # the 2-vertex tree has one non-root leaf
    diffs = tree.leaf_trajectory().counts - nonroot
    assert set(np.unique(diffs)) <= {0, 1}


def test_curve_csv(tmp_path):
    path = tmp_path / "curve.csv"
    write_curve_csv(SINGLE, [0.25, 0.5, 1.0], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,p_inf,sigmaM2,sigma2,mu,g,phi"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(8.0 / 15.0, abs=1e-12)
