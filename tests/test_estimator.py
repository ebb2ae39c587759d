import json
import math

import numpy as np
import pytest

from oracles import dn_curve_direct, split_means
from pact.estimator import (
    DN_CSV_ROWS,
    DnCurve,
    dn_curve,
    gamma_hat,
    limit_D,
    limit_H,
    near_max_threshold,
    thin_dn_curve,
    write_dn_csv,
    write_report_json,
)
from pact.generator import grow_tree
from pact.leaf_process import LeafTrajectory, p_inf
from pact.model_core import ChangePointSchedule, seeded_generator

SINGLE = ChangePointSchedule.single(6.0, 1.0, 0.5)


def _constant_traj(n: int, c: float) -> LeafTrajectory:
    ms = np.arange(2, n + 1)
    return LeafTrajectory(n=n, counts=c * ms)


def _step_traj(n: int, low: float, high: float, gamma: float) -> LeafTrajectory:
    ms = np.arange(2, n + 1)
    props = np.where(ms <= gamma * n, low, high)
    return LeafTrajectory(n=n, counts=props * ms)


def test_split_means_constant_trajectory():
    traj = _constant_traj(1000, 0.42)
    for t in (0.25, 0.5, 0.733, 0.999):
        before, after = split_means(traj, t, 0.1)
        assert before == pytest.approx(0.42, abs=1e-12)
        assert after == pytest.approx(0.42, abs=1e-12)


def test_split_means_step_trajectory_exact():
    traj = _step_traj(1000, 0.5, 0.6, 0.5)
    before, after = split_means(traj, 0.5, 0.01)
    assert before == pytest.approx(0.5, abs=1e-12)
    assert after == pytest.approx(0.6, abs=1e-12)


def test_split_means_window_errors():
    traj = _constant_traj(100, 0.5)
    with pytest.raises(ValueError):
        split_means(traj, 0.05, 0.1)
    with pytest.raises(ValueError):
        split_means(traj, 1.0, 0.1)
    with pytest.raises(ValueError):
        split_means(traj, 0.105, 0.1)  # before-window has no steps


def test_split_means_direction_on_simulated_change():
    tree = grow_tree(SINGLE, 20_000, seeded_generator(60))
    before, after = split_means(tree.leaf_trajectory(), 0.5, 0.1)
    assert after > before  # leaves become more frequent after the offset drops


def test_dn_curve_constant_is_zero():
    curve = dn_curve(_constant_traj(500, 0.37), 0.1)
    assert np.max(np.abs(curve.values)) < 1e-12
    assert curve.ts[-1] == 1.0 and curve.values[-1] == 0.0


def _simulated_traj(n: int, seed: int) -> LeafTrajectory:
    return grow_tree(SINGLE, n, seeded_generator(seed)).leaf_trajectory()


@pytest.mark.parametrize("make, epsilon", [
    (lambda: _simulated_traj(20_000, 63), 0.1),
    (lambda: _constant_traj(3000, 0.5), 0.37),
    (lambda: _constant_traj(3, 0.5), 0.5),
], ids=["simulated", "constant", "two steps"])
def test_dn_curve_bits_match_direct_expression(make, epsilon):
    traj = make()
    curve = dn_curve(traj, epsilon)
    ts, dn = dn_curve_direct(traj, epsilon)
    assert curve.ts.tobytes() == ts.tobytes()
    assert curve.values.tobytes() == dn.tobytes()


def test_dn_affine_invariance():
    n = 2000
    tree = grow_tree(SINGLE, n, seeded_generator(61))
    traj = tree.leaf_trajectory()
    ms = np.arange(2, n + 1)
    shifted = LeafTrajectory(n=n, counts=traj.counts + 0.17 * ms)
    base = dn_curve(traj, 0.1)
    moved = dn_curve(shifted, 0.1)
    assert np.allclose(base.values, moved.values, atol=1e-12)


@pytest.mark.parametrize("epsilon", [0.0, 1.0, -0.1, np.nan])
def test_dn_curve_rejects_epsilon_outside_unit_interval(epsilon):
    with pytest.raises(ValueError, match=r"epsilon must lie in \(0, 1\)"):
        dn_curve(_constant_traj(100, 0.5), epsilon)


# n = 10^4: threshold log(n)/sqrt(n) = log(10)/25, detection floor twice that
N_HAND = 10_000
THRESHOLD = math.log(10) / 25
TS = np.linspace(0.1, 1.0, 10)


def _hand_curve(values) -> DnCurve:
    return DnCurve(ts=TS, values=np.asarray(values, dtype=float), n=N_HAND, epsilon=0.1)


def test_gamma_hat_on_clean_step():
    # the near-max set {0.2, 0.4, 0.5} has a gap at 0.3 and edges exactly at max - threshold
    top = 0.5
    edge = top - near_max_threshold(N_HAND)
    below = np.nextafter(edge, -np.inf)
    report = gamma_hat(_hand_curve([below, edge, below, top, edge, below, 0.1, 0.0, 0.0, 0.0]))
    assert report.detected and report.dn_star == top
    assert (report.near_max_min, report.near_max_max) == (TS[1], TS[4])
    assert report.gamma_hat == report.near_max_max
    assert report.threshold == near_max_threshold(N_HAND) == pytest.approx(THRESHOLD, rel=1e-15)
    assert report.detection_floor == pytest.approx(2 * THRESHOLD, rel=1e-15)
    assert (report.n, report.epsilon) == (N_HAND, 0.1)


def test_gamma_hat_detection_is_strictly_above_the_floor():
    floor = 2.0 * math.log(N_HAND) / math.sqrt(N_HAND)
    for top, detected in [(floor, False), (np.nextafter(floor, np.inf), True)]:
        report = gamma_hat(_hand_curve([0.0, top, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]))
        assert report.detection_floor == floor
        assert report.detected is detected
        assert report.gamma_hat == (TS[1] if detected else None)


def test_dn_curve_shape_on_simulated_change():
    # flat plateau up to the change point, then a decay to zero at t=1
    tree = grow_tree(SINGLE, 200_000, seeded_generator(62))
    curve = dn_curve(tree.leaf_trajectory(), 0.1)
    ts, dn = curve.ts, curve.values

    def band_mean(lo, hi):
        sel = (ts >= lo) & (ts <= hi)
        return float(dn[sel].mean())

    plateau = band_mean(0.15, 0.5)
    assert abs(band_mean(0.15, 0.3) - band_mean(0.35, 0.5)) < 0.15 * plateau
    assert band_mean(0.7, 0.75) < 0.75 * plateau
    assert band_mean(0.95, 1.0) < 0.25 * plateau
    assert ts[int(np.argmax(dn))] < 0.65


def test_gamma_hat_no_change_detected_on_constant(tmp_path):
    for curve in (dn_curve(_constant_traj(5000, 0.5), 0.1), _hand_curve(np.zeros(10))):
        report = gamma_hat(curve)
        assert not report.detected
        assert report.gamma_hat is None
        assert (report.near_max_min, report.near_max_max) == (curve.ts[0], 1.0)
        write_report_json(report, tmp_path / "report.json")
        assert json.loads((tmp_path / "report.json").read_text())["gamma_hat"] is None


def test_report_json_contract(tmp_path):
    report = gamma_hat(dn_curve(_step_traj(20_000, 0.3, 0.7, 0.5), 0.1))
    write_report_json(report, tmp_path / "report.json")
    written = json.loads((tmp_path / "report.json").read_text())
    assert list(written) == ["gamma_hat", "dn_star", "detected", "epsilon", "threshold",
                             "detection_floor", "near_max_min", "near_max_max", "n"]
    assert written["n"] == 20_000


def test_report_json_bytes_are_pinned(tmp_path):
    path = tmp_path / "report_000.json"
    write_report_json(gamma_hat(dn_curve(_step_traj(20_000, 0.3, 0.7, 0.5), 0.1)), path)
    assert path.read_bytes() == (
        b'{\n  "gamma_hat": 0.5966,\n  "dn_star": 0.20000000000008542,\n  "detected": true,\n'
        b'  "epsilon": 0.1,\n  "threshold": 0.0700282320579486,\n'
        b'  "detection_floor": 0.1400564641158972,\n  "near_max_min": 0.10005,\n'
        b'  "near_max_max": 0.5966,\n  "n": 20000\n}\n'
    )


def test_limit_H_is_plateau_average():
    # H over the flat stretch equals the plateau value
    assert limit_H(0.1, 0.5, SINGLE) == pytest.approx(8.0 / 15.0, abs=1e-12)
    with pytest.raises(ValueError, match="need 0 < s < t <= 1"):
        limit_H(0.5, 0.5, SINGLE)
    with pytest.raises(ValueError, match="need 0 < s < t <= 1"):
        limit_H(0.0, 0.5, SINGLE)


def test_limit_H_takes_an_array():
    two = ChangePointSchedule(alpha=4.0, segments=((0.3, 1.0), (0.7, 2.0)))
    ts = np.array([0.15, 0.3, 0.31, 0.7, 0.9, 1.0])
    values = limit_H(0.1, ts, two)
    assert isinstance(values, np.ndarray) and values.shape == ts.shape
    assert values.tobytes() == np.array([limit_H(0.1, float(t), two) for t in ts]).tobytes()
    with pytest.raises(ValueError, match="need 0 < s < t <= 1"):
        limit_H(0.3, np.array([0.5, 0.3, 0.9]), two)


def test_limit_D_flat_when_offsets_equal():
    s = ChangePointSchedule.single(2.0, 2.0, 0.5)
    ts = np.linspace(0.1, 1.0, 200)
    assert np.max(np.abs(np.asarray(limit_D(ts, s, 0.1)))) < 1e-12


def test_limit_D_constant_then_strictly_decreasing():
    eps = 0.1
    plateau_ts = np.linspace(eps, 0.5, 50)
    vals = np.asarray(limit_D(plateau_ts, SINGLE, eps))
    assert np.max(vals) - np.min(vals) < 1e-12
    decay_ts = np.linspace(0.5, 1.0, 300)
    decay = np.asarray(limit_D(decay_ts, SINGLE, eps))
    assert np.all(np.diff(decay) < 0)
    assert decay[-1] == pytest.approx(0.0, abs=1e-12)


def test_limit_D_right_derivative_negative():
    eps, g = 0.1, 0.5
    fd = (limit_D(g + 1e-4, SINGLE, eps) - limit_D(g, SINGLE, eps)) / 1e-4
    assert fd < 0


def test_limit_D_interval_validation():
    with pytest.raises(ValueError, match="t must lie in"):
        limit_D(0.05, SINGLE, 0.1)
    with pytest.raises(ValueError, match="need 0 < epsilon < gamma_1"):
        limit_D(0.5, SINGLE, 0.6)  # epsilon above gamma


def test_limit_D_at_two_change_points_is_the_window_contrast():
    two = ChangePointSchedule(alpha=4.0, segments=((0.3, 1.0), (0.7, 2.0)))
    eps = 0.1
    ts = np.linspace(eps, 1.0, 201)[1:-1]
    direct = [(1 - t) * abs(limit_H(eps, t, two) - limit_H(t, 1.0, two)) for t in ts]
    np.testing.assert_allclose(limit_D(ts, two, eps), direct, rtol=0.0, atol=1e-14)
    with pytest.raises(ValueError, match="need 0 < epsilon < gamma_1=0.3"):
        limit_D(0.5, two, 0.35)
    # no change point: gamma_1 reads as 1, so the plateau (1 - gamma_1)|...| is 0 on [eps, 1]
    for alpha in (0.0, 1.0, 6.0, 2.0**53):
        plain = ChangePointSchedule(alpha=alpha)
        for eps in (1e-9, 0.1, 0.999):
            assert np.all(limit_D(np.linspace(eps, 1.0, 101), plain, eps) == 0.0)
            assert limit_D(eps, plain, eps) == 0.0
        with pytest.raises(ValueError, match="need 0 < epsilon < gamma_1=1.0"):
            limit_D(0.5, plain, 1.0)


def test_dn_csv(tmp_path):
    traj = _step_traj(20, 0.4, 0.6, 0.5)
    curve = dn_curve(traj, 0.1)
    d_lim = np.asarray(limit_D(curve.ts, SINGLE, 0.1))
    path = tmp_path / "dn.csv"
    write_dn_csv(curve, path, d_lim)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,dn,d_limit"
    assert len(lines) == 1 + len(curve.ts) == 19  # steps 3..19, then t = 1
    path2 = tmp_path / "dn2.csv"
    write_dn_csv(curve, path2)
    assert path2.read_text().splitlines()[1].endswith(",")


def _rows_of(thin, curve) -> np.ndarray:
    """Indices of thin's rows in curve; each must be one of curve's rows, bit for bit."""
    idx = np.searchsorted(curve.ts, thin.ts)
    assert np.all(np.diff(idx) > 0)
    assert curve.ts[idx].tobytes() == thin.ts.tobytes()
    assert curve.values[idx].tobytes() == thin.values.tobytes()
    return idx


@pytest.mark.parametrize("make", [
    lambda: _simulated_traj(200_000, 64),
    lambda: _step_traj(50_000, 0.3, 0.7, 0.5),
    lambda: _constant_traj(50_000, 0.5),  # the near-max set is every row
], ids=["simulated", "clean step", "flat"])
def test_thin_dn_curve_keeps_grid_max_and_near_max_edges(make):
    curve = dn_curve(make(), 0.1)
    report = gamma_hat(curve)
    thin = thin_dn_curve(curve, report)
    idx = _rows_of(thin, curve)
    assert len(curve.ts) > DN_CSV_ROWS and DN_CSV_ROWS <= len(idx) <= DN_CSV_ROWS + 3
    grid = np.rint(np.linspace(0, len(curve.ts) - 1, DN_CSV_ROWS)).astype(int)
    assert set(grid) <= set(idx)
    assert idx[0] == 0 and thin.ts[-1] == 1.0 and thin.values[-1] == 0.0
    assert thin.values.max() == report.dn_star
    assert report.near_max_min in thin.ts and report.near_max_max in thin.ts
    assert (thin.n, thin.epsilon) == (curve.n, curve.epsilon)


@pytest.mark.parametrize("n, rows", [(2223, DN_CSV_ROWS), (2224, DN_CSV_ROWS + 1)])
def test_thin_dn_curve_returns_a_short_curve_whole(n, rows):
    curve = dn_curve(_step_traj(n, 0.4, 0.6, 0.5), 0.1)
    assert len(curve.ts) == rows
    thin = thin_dn_curve(curve, gamma_hat(curve))
    if rows <= DN_CSV_ROWS:
        assert thin.ts.tobytes() == curve.ts.tobytes()
        assert thin.values.tobytes() == curve.values.tobytes()
        assert (thin.n, thin.epsilon) == (curve.n, curve.epsilon)
    else:
        assert DN_CSV_ROWS <= len(thin.ts) <= rows
        _rows_of(thin, curve)
