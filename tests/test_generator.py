import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from oracles import (
    AttachmentSampler,
    expected_leaves,
    grow_tree_sequential,
    leaf_chain_moments,
    leaf_functional_moments,
    leaf_functional_moments_enumerated,
    vertex_degree_mean,
)
from pact.generator import (
    DegreeHistogram,
    GrowingTree,
    degree_histogram,
    grow_tree,
    leaf_counts,
    load_tree,
    max_degree,
    save_tree,
    write_edge_csv,
)
from pact.leaf_process import LeafTrajectory, read_trajectory_csv, write_trajectory_csv
from pact.limit_laws import p_alpha_table, tv_distance_upto
from pact.model_core import ChangePointSchedule, seeded_generator

SINGLE = ChangePointSchedule.single(6.0, 1.0, 0.5)
PLAIN = ChangePointSchedule(alpha=1.0)


def _star4() -> GrowingTree:
    return GrowingTree(n=4, parent=np.array([0, 0, 1, 1, 1], dtype=np.int64))


def _path3() -> GrowingTree:
    return GrowingTree(n=3, parent=np.array([0, 0, 1, 2], dtype=np.int64))


def test_sample_parent_single_vertex_is_root():
    sampler = AttachmentSampler(offset=6.0)
    gen = seeded_generator(1)
    assert all(sampler.sample(gen) == 1 for _ in range(32))


@pytest.mark.parametrize(
    "offset,expected_root_prob",
    [(0.0, 2.0 / 3.0), (6.0, 8.0 / 15.0)],
)
def test_sample_parent_two_vertices_frequency(offset, expected_root_prob):
    # weights after one edge: root 2+offset, child 1+offset, total 3+2*offset
    sampler = AttachmentSampler(offset=offset)
    sampler.attach(1)
    draws = sampler.sample_many(seeded_generator(2), 1_000_000)
    freq = float(np.mean(draws == 1))
    se = np.sqrt(expected_root_prob * (1 - expected_root_prob) / draws.size)
    assert abs(freq - expected_root_prob) < 3 * se


@pytest.mark.parametrize("offset", [0.5, 1.0, 6.0])
def test_mixture_matches_exact_weights_on_small_trees(offset):
    # grow a random 6-vertex state step by step, checking each intermediate size
    rng = seeded_generator(3)
    sampler = AttachmentSampler(offset=offset)
    while sampler.m < 6:
        sampler.attach(sampler.sample(rng))
        exact = sampler.exact_probabilities()
        draws = sampler.sample_many(rng, 1_000_000)
        for v in range(1, sampler.m + 1):
            p = exact[v - 1]
            se = np.sqrt(p * (1 - p) / draws.size)
            assert abs(np.mean(draws == v) - p) <= 3 * se + 1e-12


def test_grow_tree_minimum_size_forced_edge():
    tree = grow_tree(SINGLE, 2, seeded_generator(4))
    assert tree.parent[2] == 1
    with pytest.raises(ValueError, match="n must be >= 2"):
        grow_tree(SINGLE, 1, seeded_generator(4))


def test_grow_tree_structural_invariants_multi_segment():
    s = ChangePointSchedule(alpha=0.5, segments=((0.3, 2.0), (0.6, 0.7)))
    tree = grow_tree(s, 5000, seeded_generator(5))
    tree.check_invariants()
    tree.leaf_trajectory().check_invariants()


def test_grow_tree_three_vertex_law():
    # after the forced edge, weights are root 2+c, child 1+c over total 3+2c
    c = 1.0
    p_root = (2 + c) / (3 + 2 * c)
    rng = seeded_generator(6)
    hits = sum(grow_tree(PLAIN, 3, rng).parent[3] == 1 for _ in range(20000))
    se = np.sqrt(p_root * (1 - p_root) / 20000)
    assert abs(hits / 20000 - p_root) < 3 * se


def test_grow_tree_four_vertex_joint_law():
    # exact joint law of (parent[3], parent[4]) from the weight rule, offset c
    c = 6.0
    p3_root = (2 + c) / (3 + 2 * c)
    # conditional weights at size 3: out-degrees depend on where vertex 3 went
    joint = {}
    for p3, pr3 in ((1, p3_root), (2, 1 - p3_root)):
        out = np.zeros(4)
        out[1] = 1 + (p3 == 1)
        out[2] = 1 if p3 == 2 else 0
        w = out[1:] + 1 + c
        for p4 in (1, 2, 3):
            joint[(p3, p4)] = pr3 * w[p4 - 1] / w.sum()
    reps = 100_000
    gen = seeded_generator(15)
    counts = {}
    for _ in range(reps):
        tree = grow_tree(ChangePointSchedule(alpha=c), 4, gen)
        key = (int(tree.parent[3]), int(tree.parent[4]))
        counts[key] = counts.get(key, 0) + 1
    for key, prob in joint.items():
        freq = counts.get(key, 0) / reps
        se = np.sqrt(prob * (1 - prob) / reps)
        assert abs(freq - prob) < 4 * se, (key, freq, prob)


def test_grow_tree_replays_bit_identically():
    a = grow_tree(SINGLE, 4000, seeded_generator(7, 3))
    b = grow_tree(SINGLE, 4000, seeded_generator(7, 3))
    assert np.array_equal(a.parent, b.parent)


@st.composite
def _sized_schedules(draw, max_n: int = 3000):
    """(n, schedule) with n <= max_n and 0-3 change points, each gamma = (floor + eighths/8) / n.

    Small floors put floor(gamma n) below 2, and equal floors put two
    boundaries in the same step.
    """
    n = draw(st.integers(2, max_n))
    k = draw(st.integers(0, 3))
    floor = st.one_of(st.integers(0, min(2, n - 1)), st.integers(0, n - 1))
    floors = sorted(draw(st.lists(floor, min_size=k, max_size=k)))
    eighths = sorted(draw(st.lists(st.integers(1, 7), min_size=k, max_size=k, unique=True)))
    betas = draw(st.lists(st.floats(0.05, 10.0), min_size=k, max_size=k))
    gammas = [(f + e / 8) / n for f, e in zip(floors, eighths)]
    return n, ChangePointSchedule(alpha=draw(st.floats(0.0, 10.0)), segments=zip(gammas, betas))


@settings(max_examples=100, deadline=None, database=None)
@given(case=_sized_schedules(), seed=st.integers(0, 2**32))
@example(case=(2, PLAIN), seed=0)
@example(case=(10, ChangePointSchedule(alpha=1.0, segments=((0.05, 2.0), (0.15, 0.5)))), seed=1)
@example(case=(10, ChangePointSchedule(alpha=0.0, segments=((0.51, 3.0), (0.55, 0.2)))), seed=2)
def test_grow_tree_matches_sequential_reference(case, seed):
    n, schedule = case
    tree = grow_tree(schedule, n, seeded_generator(seed, 5))
    parent, counts = grow_tree_sequential(schedule, n, seeded_generator(seed, 5))
    assert np.array_equal(tree.parent, parent)
    assert np.array_equal(tree.leaf_trajectory().counts, counts)


@settings(max_examples=100, deadline=None, database=None)
@given(case=_sized_schedules(), seed=st.integers(0, 2**32), data=st.data())
@example(case=(2, PLAIN), seed=0, data=None)
@example(case=(3, PLAIN), seed=3, data=None)
# the root's second child arrives on a copy step, at m = 6
@example(case=(10, ChangePointSchedule(alpha=1.0, segments=((0.05, 2.0), (0.15, 0.5)))),
         seed=34, data=None)
# the root's second child arrives at m = n = 12, the only step of the search's second window
@example(case=(12, PLAIN), seed=44, data=None)
def test_leaf_counts_match_trajectory_and_sequential_reference(case, seed, data):
    n, schedule = case
    parent, counts = grow_tree_sequential(schedule, n, seeded_generator(seed, 6))
    root_children = np.flatnonzero(parent[3:] == 1) + 3
    second = int(root_children[0]) if root_children.size else n
    drawn = [] if data is None else data.draw(st.lists(st.integers(2, n), max_size=8))
    # the first and last steps, and the steps around the root's second child
    steps = np.unique([2, n, max(second - 1, 2), second, min(second + 1, n), *drawn])
    assert np.array_equal(leaf_counts(schedule, n, seeded_generator(seed, 6), steps),
                          counts[steps - 2])
    trajectory = grow_tree(schedule, n, seeded_generator(seed, 6)).leaf_trajectory()
    assert np.array_equal(trajectory.counts, counts)
    every = np.arange(2, n + 1)
    assert np.array_equal(leaf_counts(schedule, n, seeded_generator(seed, 6), every), counts)


@pytest.mark.parametrize("steps", [[1], [5, 3], [2, 11]], ids=["below-2", "unsorted", "above-n"])
def test_leaf_counts_reject_steps_outside_the_tree(steps):
    with pytest.raises(ValueError, match="sorted and lie in 2..10"):
        leaf_counts(SINGLE, 10, seeded_generator(16), steps)


def test_leaf_trajectory_matches_truncated_histograms():
    tree = grow_tree(SINGLE, 2000, seeded_generator(8))
    traj = tree.leaf_trajectory()
    rng = np.random.default_rng(0)
    for m in rng.integers(2, 2001, size=100):
        hist = degree_histogram(tree, upto=int(m))
        assert traj.counts[m - 2] == hist.counts[1]


@pytest.mark.parametrize("parent, counts", [
    ([0, 0, 1, 2, 3, 4], [2, 2, 2, 2]),  # a path: the root keeps one child and stays a leaf
    ([0, 0, 1, 1, 1, 1], [2, 2, 3, 4]),  # a star: vertex 3, the root's second child, ends it
    ([0, 0, 1, 2, 3, 1], [2, 2, 2, 2]),  # the root's second child arrives last
], ids=["path", "star", "late-second-root-child"])
def test_leaf_trajectory_on_hand_built_trees(parent, counts):
    tree = GrowingTree(n=len(parent) - 1, parent=np.array(parent, dtype=np.int64))
    assert tree.leaf_trajectory().counts.tolist() == counts


def test_leaf_fraction_alpha_zero_no_change_point():
    tree = grow_tree(ChangePointSchedule(alpha=0.0), 100_000, seeded_generator(9))
    frac = tree.leaf_trajectory().counts[-1] / 100_000
    assert abs(frac - 2.0 / 3.0) < 0.01


def test_empty_segments_reduce_to_plain_model():
    # degree histogram at n=1e5 against the exact limit law
    tree = grow_tree(PLAIN, 100_000, seeded_generator(10))
    hist = degree_histogram(tree)
    emp = hist.proportions(20)
    exact = p_alpha_table(PLAIN.alpha, 20)
    assert tv_distance_upto(emp, exact, 20) < 0.01
    # chi-square over degrees with expected count >= 50, tail pooled
    expected = p_alpha_table(PLAIN.alpha, 2000)[1:] * hist.n
    observed = np.zeros_like(expected)
    upto = min(len(hist.counts) - 1, 2000)
    observed[: upto] = hist.counts[1 : upto + 1]
    cut = np.nonzero(expected >= 50)[0][-1] + 1
    obs = np.concatenate([observed[:cut], [observed[cut:].sum() + hist.n - observed.sum()]])
    exp = np.concatenate([expected[:cut], [expected[cut:].sum() + hist.n - expected.sum()]])
    chi2 = stats.chisquare(obs, exp * obs.sum() / exp.sum())
    assert chi2.pvalue > 1e-3


def test_root_degree_mean_matches_the_exact_recursion():
    # the root of (0; (0.5, 2)) at n = 2000 over 4000 trees, each on its own stream
    schedule = ChangePointSchedule.single(0.0, 2.0, 0.5)
    degrees = np.array([np.count_nonzero(grow_tree(schedule, 2000, seeded_generator(18, r))
                                         .parent[2:] == 1) for r in range(4000)])
    exact = vertex_degree_mean(schedule, 2000, 1)  # 66.0138
    se = degrees.std(ddof=1) / np.sqrt(degrees.size)
    assert abs(degrees.mean() - exact) < 4 * se


@settings(max_examples=100, deadline=None, database=None)
@given(case=_sized_schedules(max_n=60), seed=st.integers(0, 2**32))
@example(case=(2, PLAIN), seed=0)
@example(case=(3, SINGLE), seed=1)
@example(case=(60, ChangePointSchedule(alpha=0.0, segments=((0.51, 3.0), (0.55, 0.2)))), seed=2)
def test_leaf_functional_moments_match_the_chain_enumeration(case, seed):
    n, schedule = case
    weights = seeded_generator(seed).uniform(-1.0, 1.0, n - 1)
    mean, var = leaf_functional_moments(schedule, n, weights)
    ref_mean, ref_var = leaf_functional_moments_enumerated(schedule, n, weights)
    # the enumeration takes E L^2 - (E L)^2, so it rounds at about 1e-16 E L^2, and
    # Var L is 0 up to that at n <= 3, where N(n) = 2 surely
    scale = float(np.abs(weights) @ np.arange(2, n + 1))  # a bound on |L|
    assert mean == pytest.approx(ref_mean, rel=1e-10, abs=1e-13 * scale)
    assert var == pytest.approx(ref_var, rel=1e-10, abs=1e-13 * (ref_var + ref_mean**2))


@pytest.mark.parametrize("schedule", [
    SINGLE,
    ChangePointSchedule(alpha=4.0, segments=((0.3, 1.0), (0.7, 2.0))),
    ChangePointSchedule(alpha=6.0),
    ChangePointSchedule.single(0.0, 2.0, 0.5),
], ids=["single", "multi", "none", "alpha0"])
def test_leaf_chain_means_are_the_expected_non_root_leaves(schedule):
    # the chain's N - r counts the non-root leaves, whose mean the tree model's own
    # recursion gives; measured at most 2.8e-14 apart
    n = 5000
    moments = leaf_chain_moments(schedule, n)
    assert np.allclose(moments[0] - moments[1], expected_leaves(n, schedule), rtol=1e-12, atol=0)


def test_degree_histogram_hand_examples():
    star = _star4()
    assert degree_histogram(star).counts.tolist() == [0, 3, 0, 1]
    path = _path3()
    assert degree_histogram(path).counts.tolist() == [0, 2, 1]


def test_degree_proportions_are_indexed_by_degree():
    hist = degree_histogram(_star4())  # degrees 1, 1, 1 and 3
    assert hist.proportions(5).tolist() == [0.0, 0.75, 0.0, 0.25, 0.0, 0.0]
    assert hist.proportions(2).tolist() == [0.0, 0.75, 0.0]


@pytest.mark.parametrize("upto", [1, 4])
def test_degree_histogram_rejects_truncation_outside_the_tree(upto):
    with pytest.raises(ValueError, match="truncation size"):
        degree_histogram(_path3(), upto=upto)


def test_degree_histogram_handshake_identity():
    tree = grow_tree(SINGLE, 1000, seeded_generator(11))
    hist = degree_histogram(tree)
    hist.check_invariants()
    assert int((np.arange(hist.counts.size) * hist.counts).sum()) == 1998


def test_max_degree():
    assert max_degree(_star4()) == 3
    assert max_degree(_path3()) == 2


def test_total_degrees_are_counted_from_the_parents():
    assert _star4().total_degrees().tolist() == [3, 1, 1, 1]
    assert _star4().total_degrees(3).tolist() == [2, 1, 1]
    assert _path3().total_degrees().tolist() == [1, 2, 1]
    assert _path3().total_degrees(2).tolist() == [1, 1]
    tree = grow_tree(SINGLE, 500, seeded_generator(17))
    for m in (2, 137, 500):
        children = [np.count_nonzero(tree.parent[2 : m + 1] == v) for v in range(1, m + 1)]
        expected = np.array(children) + 1
        expected[0] -= 1
        assert np.array_equal(tree.total_degrees(m), expected)
    assert np.array_equal(tree.total_degrees(), tree.total_degrees(500))


def _v1_file(tree: GrowingTree) -> bytes:
    """The version 1 layout, which every tree had before version 2: parents as u64."""
    header = b"PACT" + struct.pack("<QQ", 1, tree.n)
    return header + tree.parent[1 : tree.n + 1].astype("<u8").tobytes()


@settings(max_examples=100, deadline=None, database=None)
@given(case=_sized_schedules(), seed=st.integers(0, 2**32))
@example(case=(777, SINGLE), seed=13)
def test_tree_binary_round_trip(tmp_path_factory, case, seed):
    n, schedule = case
    tree = grow_tree(schedule, n, seeded_generator(seed))
    path = tmp_path_factory.mktemp("tree") / "t.pact"
    save_tree(tree, path)
    back = load_tree(path)
    assert back.n == n
    assert np.array_equal(back.parent, tree.parent)
    assert np.array_equal(back.total_degrees(), tree.total_degrees())
    raw = path.read_bytes()
    assert raw[:4] == b"PACT"
    assert struct.unpack("<QQ", raw[4:20]) == (2, n)
    assert len(raw) == 20 + 4 * n
    path.write_bytes(_v1_file(tree))  # files written before version 2 still load
    assert np.array_equal(load_tree(path).parent, tree.parent)


@pytest.mark.parametrize("n, version, width", [(2**32 - 1, 2, 4), (2**32, 1, 8)])
def test_save_tree_picks_the_parent_width_by_n(tmp_path, n, version, width):
    # a 4-entry parent array stands in for n vertices: save_tree writes the parents it holds
    path = tmp_path / "t.pact"
    save_tree(GrowingTree(n=n, parent=np.array([0, 0, 1, 2], dtype=np.int64)), path)
    raw = path.read_bytes()
    assert struct.unpack("<QQ", raw[4:20]) == (version, n)
    assert raw[20:] == np.array([0, 1, 2], dtype=f"<u{width}").tobytes()


def _corrupt_tree_file(tmp_path, edit):
    path = tmp_path / "t.pact"
    save_tree(grow_tree(SINGLE, 50, seeded_generator(13)), path)
    raw = bytearray(path.read_bytes())
    edit(raw)
    path.write_bytes(bytes(raw))
    return path


def _set_parent(m, value, width=4):
    def edit(raw):
        raw[20 + width * (m - 1) : 20 + width * m] = value.to_bytes(width, "little")
    return edit


def _set_version(version):
    def edit(raw):
        raw[4:12] = version.to_bytes(8, "little")
    return edit


def _set_n(n):
    def edit(raw):
        raw[12:20] = n.to_bytes(8, "little")
    return edit


def _truncate(size):
    def edit(raw):
        del raw[size:]
    return edit


def _as_v1(raw):
    """Rewrite the version 2 file in raw as the version 1 file of the same tree."""
    n = int.from_bytes(raw[12:20], "little")
    parent = np.concatenate([[0], np.frombuffer(bytes(raw[20:]), dtype="<u4")])
    raw[:] = _v1_file(GrowingTree(n=n, parent=parent))


def _on_v1(edit_v1):
    def edit(raw):
        _as_v1(raw)
        edit_v1(raw)
    return edit


def _one_vertex(raw):
    """Magic, version 2, n = 1 and the root's parent 0: 24 bytes that agree on their size."""
    _set_n(1)(raw)
    del raw[24:]


CORRUPT_TREES = {  # the edit, and the start of the reason load_tree gives
    "forward-parent": (_set_parent(3, 3), "parents must be earlier"),
    "parent-above-n": (_set_parent(7, 51), "parents must be earlier"),
    "parent-above-u32": (_set_parent(7, 2**32 - 1), "parents must be earlier"),
    "parent-above-int64": (_on_v1(_set_parent(7, 2**64 - 1, width=8)), "parents must be earlier"),
    "root-not-sentinel": (_set_parent(1, 1), "root sentinel"),
    "unknown-version": (_set_version(3), "unsupported version 3"),
    "v1-header-on-u32-parents": (_set_version(1), "header n=50 needs 420 bytes"),
    "v2-header-on-u64-parents": (_on_v1(_set_version(2)), "header n=50 needs 220 bytes"),
    "n-above-file": (_set_n(2**40), "header n=1099511627776 needs"),
    "n-below-file": (_set_n(49), "header n=49 needs"),
    "n-zero": (_set_n(0), "header n=0, but"),
    "one-vertex": (_one_vertex, "header n=1, but"),
    "magic-only": (_truncate(4), "header holds 0 of"),
    "short-header": (_truncate(12), "header holds 8 of"),
}


@pytest.mark.parametrize("edit, reason", CORRUPT_TREES.values(), ids=CORRUPT_TREES.keys())
def test_load_tree_rejects_corrupt_files(tmp_path, edit, reason):
    path = _corrupt_tree_file(tmp_path, edit)
    with pytest.raises(ValueError) as excinfo:
        load_tree(path)
    assert str(excinfo.value).startswith(f"tree file {path}: {reason}")


def test_edge_csv_format(tmp_path):
    path = tmp_path / "edges.csv"
    write_edge_csv(_path3(), path)
    assert path.read_text() == "child,parent\n2,1\n3,2\n"


@settings(max_examples=100, deadline=None, database=None)
@given(case=_sized_schedules(), seed=st.integers(0, 2**32))
@example(case=(300, SINGLE), seed=14)
def test_trajectory_csv_round_trip(tmp_path_factory, case, seed):
    n, schedule = case
    tree = grow_tree(schedule, n, seeded_generator(seed))
    path = tmp_path_factory.mktemp("traj") / "traj.csv"
    write_trajectory_csv(tree.leaf_trajectory(), path)
    back = read_trajectory_csv(path)
    assert back.n == n
    assert np.array_equal(back.counts, tree.leaf_trajectory().counts)
    assert path.read_text().splitlines()[0] == "m,leaf_count"


MALFORMED_TRAJECTORIES = {
    "wrong-header": "m,count\r\n2,2\r\n3,2\r\n",
    "swapped-columns": "leaf_count,m\r\n2,2\r\n3,2\r\n",
    "float-count": "m,leaf_count\r\n2,2\r\n3,2.5\r\n",
    "text-step": "m,leaf_count\r\n2,2\r\nx,2\r\n",
    "extra-column": "m,leaf_count\r\n2,2,0\r\n3,2,0\r\n",
    "no-steps": "m,leaf_count\r\n",
    "starts-at-3": "m,leaf_count\r\n3,2\r\n4,3\r\n",
    "skips-a-step": "m,leaf_count\r\n2,2\r\n4,3\r\n",
    "count-above-m": "m,leaf_count\r\n2,3\r\n3,3\r\n",
    "negative-count": "m,leaf_count\r\n2,2\r\n3,-1\r\n",
    "jump-of-2": "m,leaf_count\r\n2,2\r\n3,2\r\n4,4\r\n",
    "drop-of-1": "m,leaf_count\r\n2,2\r\n3,3\r\n4,2\r\n",
    "starts-at-3-leaves": "m,leaf_count\r\n2,3\r\n3,3\r\n4,4\r\n",
    "starts-at-1-leaf": "m,leaf_count\r\n2,1\r\n3,2\r\n4,3\r\n",
    "comment": "m,leaf_count\r\n2,2\r\n3,2 # x\r\n",
    "all-leaves": "m,leaf_count\r\n2,2\r\n3,3\r\n4,4\r\n5,5\r\n",
}


@pytest.mark.parametrize("text", MALFORMED_TRAJECTORIES.values(), ids=MALFORMED_TRAJECTORIES.keys())
def test_read_trajectory_csv_rejects_malformed_files(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_bytes(text.encode())
    with pytest.raises(ValueError):
        read_trajectory_csv(path)


@pytest.mark.parametrize("bad", [
    DegreeHistogram(counts=np.array([0, 2, 1]), n=4),  # mass 3, not n
    GrowingTree(n=3, parent=np.array([0, 0, 1, 3])),  # vertex 3 its own parent
    LeafTrajectory(n=4, counts=np.array([2, 3, 3])),  # N(3) = 3
], ids=["histogram-mass", "forward-parent", "trajectory-starts-2-3"])
def test_check_invariants_raise_value_error(bad):
    with pytest.raises(ValueError):
        bad.check_invariants()
