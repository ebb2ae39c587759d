import numpy as np
import pytest
from scipy import stats

from pact.generator import (
    AttachmentSampler,
    GrowingTree,
    KTooLarge,
    RecordFlags,
    degree_histogram,
    grow_tree,
    load_tree,
    sample_parent,
    save_tree,
    top_k_degrees,
    write_edge_csv,
)
from pact.leaf_process import read_trajectory_csv, write_trajectory_csv
from pact.limit_laws import p_alpha_table, tv_distance_upto
from pact.model_core import ChangePointSchedule, SeededRng, SizeTooSmall

SINGLE = ChangePointSchedule.single(6.0, 1.0, 0.5)
PLAIN = ChangePointSchedule(alpha=1.0)


def _star4() -> GrowingTree:
    parent = np.array([0, 0, 1, 1, 1], dtype=np.int64)
    return GrowingTree(n=4, parent=parent, out_degree=np.bincount(parent[2:], minlength=5))


def _path3() -> GrowingTree:
    parent = np.array([0, 0, 1, 2], dtype=np.int64)
    return GrowingTree(n=3, parent=parent, out_degree=np.bincount(parent[2:], minlength=4))


def test_sample_parent_single_vertex_is_root():
    sampler = AttachmentSampler(offset=6.0)
    gen = SeededRng(1).generator()
    assert all(sampler.sample(gen) == 1 for _ in range(32))


@pytest.mark.parametrize(
    "offset,expected_root_prob",
    [(0.0, 2.0 / 3.0), (6.0, 8.0 / 15.0)],
)
def test_sample_parent_two_vertices_frequency(offset, expected_root_prob):
    # weights after one edge: root 2+offset, child 1+offset, total 3+2*offset
    sampler = AttachmentSampler(offset=offset)
    sampler.attach(1)
    draws = sampler.sample_many(SeededRng(2), 1_000_000)
    freq = float(np.mean(draws == 1))
    se = np.sqrt(expected_root_prob * (1 - expected_root_prob) / draws.size)
    assert abs(freq - expected_root_prob) < 3 * se


@pytest.mark.parametrize("offset", [0.5, 1.0, 6.0])
def test_mixture_matches_exact_weights_on_small_trees(offset):
    # grow a random 6-vertex state step by step, checking each intermediate size
    rng = SeededRng(3).generator()
    sampler = AttachmentSampler(offset=offset)
    while sampler.m < 6:
        sampler.attach(sample_parent(sampler, rng))
        exact = sampler.exact_probabilities()
        draws = sampler.sample_many(rng, 1_000_000)
        for v in range(1, sampler.m + 1):
            p = exact[v - 1]
            se = np.sqrt(p * (1 - p) / draws.size)
            assert abs(np.mean(draws == v) - p) <= 3 * se + 1e-12


def test_grow_tree_minimum_size_forced_edge():
    tree = grow_tree(SINGLE, 2, SeededRng(4))
    assert tree.parent[2] == 1
    with pytest.raises(SizeTooSmall):
        grow_tree(SINGLE, 1, SeededRng(4))


def test_grow_tree_structural_invariants_multi_segment():
    s = ChangePointSchedule(alpha=0.5, segments=((0.3, 2.0), (0.6, 0.7)))
    tree = grow_tree(s, 5000, SeededRng(5), RecordFlags(leaves=True))
    tree.check_invariants()
    tree.leaf_trajectory.check_invariants()


def test_grow_tree_three_vertex_law():
    # after the forced edge, weights are root 2+c, child 1+c over total 3+2c
    c = 1.0
    p_root = (2 + c) / (3 + 2 * c)
    rng = SeededRng(6).generator()
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
    gen = SeededRng(15).generator()
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
    a = grow_tree(SINGLE, 4000, SeededRng(7, 3))
    b = grow_tree(SINGLE, 4000, SeededRng(7, 3))
    assert np.array_equal(a.parent, b.parent)


def test_leaf_trajectory_matches_truncated_histograms():
    tree = grow_tree(SINGLE, 2000, SeededRng(8), RecordFlags(leaves=True))
    traj = tree.leaf_trajectory
    rng = np.random.default_rng(0)
    for m in rng.integers(2, 2001, size=100):
        hist = degree_histogram(tree, upto=int(m))
        assert traj.count_at(int(m)) == int(hist.counts[1])


def test_leaf_fraction_alpha_zero_no_change_point():
    tree = grow_tree(ChangePointSchedule(alpha=0.0), 100_000, SeededRng(9), RecordFlags(leaves=True))
    frac = tree.leaf_trajectory.counts[-1] / 100_000
    assert abs(frac - 2.0 / 3.0) < 0.01


def test_empty_segments_reduce_to_plain_model():
    # degree histogram at n=1e5 against the exact limit law
    tree = grow_tree(PLAIN, 100_000, SeededRng(10))
    hist = degree_histogram(tree)
    emp = hist.proportions(20)
    exact = p_alpha_table(PLAIN.alpha, 20)[1:]
    assert tv_distance_upto(np.concatenate([[0], emp]), np.concatenate([[0], exact]), 20) < 0.01
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


def test_degree_histogram_hand_examples():
    star = _star4()
    assert degree_histogram(star).as_dict() == {1: 3, 3: 1}
    path = _path3()
    assert degree_histogram(path).as_dict() == {1: 2, 2: 1}


def test_degree_histogram_handshake_identity():
    tree = grow_tree(SINGLE, 1000, SeededRng(11))
    hist = degree_histogram(tree)
    hist.check_invariants()
    assert int((np.arange(hist.counts.size) * hist.counts).sum()) == 1998


def test_top_k_degrees():
    assert top_k_degrees(_star4(), 2).tolist() == [3, 1]
    assert top_k_degrees(_path3(), 3).tolist() == [2, 1, 1]
    with pytest.raises(KTooLarge):
        top_k_degrees(_path3(), 4)


def test_degree_checkpoints_recorded():
    tree = grow_tree(SINGLE, 1000, SeededRng(12), RecordFlags(degree_checkpoints=(100, 500)))
    assert set(tree.degree_snapshots) == {100, 500}
    assert tree.degree_snapshots[100].n == 100
    tree.degree_snapshots[500].check_invariants()


def test_tree_binary_round_trip(tmp_path):
    tree = grow_tree(SINGLE, 777, SeededRng(13))
    path = tmp_path / "t.pact"
    save_tree(tree, path)
    back = load_tree(path)
    assert back.n == tree.n
    assert np.array_equal(back.parent, tree.parent)
    assert np.array_equal(back.out_degree, tree.out_degree)
    raw = path.read_bytes()
    assert raw[:4] == b"PACT"
    assert int.from_bytes(raw[12:20], "little") == 777


def test_edge_csv_format(tmp_path):
    path = tmp_path / "edges.csv"
    write_edge_csv(_path3(), path)
    assert path.read_text() == "child,parent\n2,1\n3,2\n"


def test_trajectory_csv_round_trip(tmp_path):
    tree = grow_tree(SINGLE, 300, SeededRng(14), RecordFlags(leaves=True))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(tree.leaf_trajectory, path)
    back = read_trajectory_csv(path)
    assert back.n == 300
    assert np.array_equal(back.counts, tree.leaf_trajectory.counts)
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
}


@pytest.mark.filterwarnings("ignore:loadtxt")
@pytest.mark.parametrize("text", MALFORMED_TRAJECTORIES.values(), ids=MALFORMED_TRAJECTORIES.keys())
def test_read_trajectory_csv_rejects_malformed_files(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_bytes(text.encode())
    with pytest.raises(ValueError):
        read_trajectory_csv(path)
