import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import segment_of, step_offsets
from pact import model_core
from pact.generator import degree_histogram, grow_tree, write_edge_csv, write_histogram_csv
from pact.leaf_process import write_trajectory_csv
from pact.limit_laws import ccdf_from_samples, p_alpha_table, write_pmf_csv, write_zsample_csv
from pact.model_core import (
    ChangePointSchedule,
    seeded_generator,
    write_csv,
)


def test_validate_accepts_basic_single_change_point():
    s = ChangePointSchedule.single(alpha=6.0, beta=1.0, gamma=0.5)
    assert (s.alpha, *s.segments[0]) == (6.0, 0.5, 1.0)


def test_validate_accepts_empty_segments():
    s = ChangePointSchedule(alpha=1.0)
    assert s.num_change_points == 0


def test_validate_accepts_alpha_zero():
    assert ChangePointSchedule.single(0.0, 2.0, 0.5).alpha == 0.0


def test_validate_accepts_offsets_up_to_2_pow_53():
    s = ChangePointSchedule.single(2.0**53, 2.0**53, 0.5)
    assert s.offsets() == (2.0**53, 2.0**53)


def test_validate_rejects_unordered_change_points():
    with pytest.raises(ValueError, match="change points must satisfy"):
        ChangePointSchedule(alpha=1.0, segments=((0.7, 2.0), (0.3, 1.0)))


@pytest.mark.parametrize("alpha,beta", [(-1.0, 1.0), (1.0, 0.0), (1.0, -2.0),
                                        (2.0**53 + 2, 1.0), (1.0, 1e308)])
def test_validate_rejects_bad_offsets(alpha, beta):
    with pytest.raises(ValueError, match="must be >= 0|must be > 0"):
        ChangePointSchedule.single(alpha, beta, 0.5)


@pytest.mark.parametrize("gamma", [0.0, 1.0, -0.2, 1.5])
def test_validate_rejects_boundary_gammas(gamma):
    with pytest.raises(ValueError, match="change points must satisfy"):
        ChangePointSchedule.single(1.0, 1.0, gamma)


def test_validate_rejects_a_first_gamma_below_1e_100():
    for gamma in (9.99e-101, 1e-300, 5e-324):
        with pytest.raises(ValueError, match="gamma_1 must be >= 1e-100"):
            ChangePointSchedule(alpha=1.0, segments=((gamma, 2.0), (0.5, 1.0)))
    assert ChangePointSchedule.single(1.0, 1.0, 1e-100).segments[0].gamma == 1e-100


def test_segment_of_examples():
    s = ChangePointSchedule.single(6.0, 1.0, 0.5)
    assert segment_of(s, 1000, 10000) == (0, 6.0)
    assert segment_of(s, 5000, 10000) == (0, 6.0)
    assert segment_of(s, 5001, 10000) == (1, 1.0)
    multi = ChangePointSchedule(alpha=2.0, segments=((0.25, 3.0), (0.75, 4.0)))
    assert segment_of(multi, 7501, 10000) == (2, 4.0)
    assert segment_of(multi, 7500, 10000) == (1, 3.0)


def test_segment_of_monotone_in_m():
    schedules = [
        ChangePointSchedule(alpha=1.0),
        ChangePointSchedule.single(6.0, 1.0, 0.5),
        ChangePointSchedule(alpha=0.5, segments=((0.2, 2.0), (0.41, 0.3), (0.8, 5.0))),
    ]
    for s in schedules:
        for n in (7, 64, 1000):
            idx = [segment_of(s, m, n)[0] for m in range(1, n + 1)]
            assert idx == sorted(idx)


def test_step_offsets_agrees_with_segment_of():
    s = ChangePointSchedule(alpha=0.5, segments=((0.2, 2.0), (0.41, 0.3), (0.8, 5.0)))
    n = 533
    offs = step_offsets(s, n)
    for m in range(2, n + 1):
        assert offs[m - 2] == segment_of(s, m, n)[1]


def test_seeded_rng_replays_identically():
    a = seeded_generator(12345, 7).random(64)
    b = seeded_generator(12345, 7).random(64)
    assert np.array_equal(a, b)


def test_seeded_rng_streams_differ():
    a = seeded_generator(12345, 7).random(64)
    b = seeded_generator(12345, 8).random(64)
    c = seeded_generator(12346, 7).random(64)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("seed", [0, 7, 1 << 32, (1 << 64) - 1])
def test_stream_i_is_numpys_ith_spawned_child(seed):
    children = np.random.SeedSequence(seed).spawn(3)
    for i, child in enumerate(children):
        expected = np.random.Generator(np.random.PCG64DXSM(child)).random(16)
        assert np.array_equal(seeded_generator(seed, i).random(16), expected)


def test_streams_on_the_32_bit_word_boundary_differ():
    # a flat word list would key (2^32, 0) and (0, 1) alike; fclt's duration stream is 2^32
    w, top = 1 << 32, (1 << 64) - 1
    pairs = [(0, 0), (0, 1), (1, 0), (w, 0), (0, w), (1, w), (w + 1, 0), (top, 0), (0, top),
             (7, 0), (7, w)]
    firsts = {seeded_generator(seed, stream).random() for seed, stream in pairs}
    assert len(firsts) == len(pairs)


@pytest.mark.parametrize("rows", [0, 1, 4096, 4097])
def test_write_csv_matches_row_by_row_csv_writer(tmp_path, rows):
    ints = np.arange(rows, dtype=np.int64) * 7919 - 3
    specials = [float("nan"), float("inf"), -0.0, 1e-300, 0.1 + 0.2]
    floats = np.resize(np.array(specials + [1.0 / 3.0, -2.5e17]), rows)
    empty = [""] * rows
    names = ['run,"a".csv'] * rows
    path = tmp_path / "columns.csv"
    write_csv(path, ["i", "x", "d_limit", "file"], [ints, floats, empty, names])

    reference = tmp_path / "rows.csv"
    with open(reference, "w", newline="\n") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "x", "d_limit", "file"])
        for i in range(rows):
            writer.writerow([int(ints[i]), repr(float(floats[i])), empty[i], names[i]])
    assert path.read_bytes() == reference.read_bytes()


# Floats where repr changes shape: signed zero, subnormals, the non-finite
# values, and both sides of 1e16, where repr switches to exponent notation.
FLOAT_EDGES = [0.0, -0.0, 5e-324, -2.225e-308, 2.2250738585072014e-308, float("nan"),
               float("inf"), float("-inf"), 9999999999999998.0, 1e16, 1.0000000000000002e16,
               1e-5, 0.0001, 1.7976931348623157e308]
FLOATS = st.one_of(st.sampled_from(FLOAT_EDGES), st.floats())
TEXT = st.text(st.one_of(st.sampled_from(',"\r\n é€'), st.characters(exclude_characters="\0",
                                                                       exclude_categories=("Cs",))))


def _resized(values, rows):
    return [values[i % len(values)] for i in range(rows)]


@st.composite
def _column(draw, rows):
    """One write_csv column of ``rows`` entries, drawn from every kind that writers pass."""
    kind = draw(st.sampled_from(["int64", "uint64", "stepped", "float64", "float32", "text",
                                 "range", "mixed"]))
    if kind in ("int64", "uint64"):
        # the largest magnitude decides between 32- and 64-bit digit division
        lo = 0 if kind == "uint64" else draw(st.sampled_from([-(2**63), -(2**32), -9, 0]))
        hi = draw(st.sampled_from([9, 2**32 - 1, 2**32, 2**33, 2**63 - 1]
                                  + ([2**63, 2**64 - 1] if kind == "uint64" else [])))
        ints = st.integers(lo, hi) | st.sampled_from([lo, hi, 0])
        return np.array(_resized(draw(st.lists(ints, min_size=1)), rows), dtype=kind)
    if kind == "stepped":
        # magnitudes that step up by 4096-row chunk and, for int64, one chunk negative, so
        # the digit width, the 32- or 64-bit division and the sign path change at chunk edges
        dtype = draw(st.sampled_from(["int64", "uint64"]))
        tops = [0, 9, 10, 2**32 - 1, 2**32, 2**63 - 1]
        if dtype == "uint64":
            tops += [2**63, 2**64 - 1]
        per_chunk = sorted(draw(st.lists(st.sampled_from(tops), min_size=3, max_size=3)))
        negative = draw(st.integers(0, 2)) if dtype == "int64" else None
        values = []
        for i in range(rows):
            top = per_chunk[i // 4096]
            value = top - min(top, i % 3)
            values.append(-value - 1 if i // 4096 == negative else value)  # down to -2**63
        return np.array(values, dtype=dtype)
    if kind == "float64":
        return np.array(_resized(draw(st.lists(FLOATS, min_size=1)), rows), dtype=np.float64)
    if kind == "float32":
        values = draw(st.lists(st.floats(width=32), min_size=1))
        return np.array(_resized(values, rows), dtype=np.float32)
    if kind == "text":
        return _resized(draw(st.lists(TEXT, min_size=1)), rows)
    if kind == "range":
        start = draw(st.integers(-(2**62), 2**62))
        step = draw(st.integers(-1000, 1000).filter(bool))
        return range(start, start + rows * step, step)
    # shaped like gamma_hats.csv: file names, "" for an undetected gamma_hat, floats
    names = st.from_regex(r"\Atrajectory_r[0-9]{3}\.csv\Z") | TEXT
    return _resized(draw(st.lists(st.one_of(st.just(""), FLOATS, names), min_size=1)), rows)


@st.composite
def _tables(draw):
    rows = draw(st.sampled_from([0, 1, 2, 4095, 4096, 4097, 8193]))
    width = draw(st.integers(1, 4))
    header = draw(st.lists(TEXT, min_size=width, max_size=width))
    return header, [draw(_column(rows)) for _ in range(width)]


# three chunks that each widen the digits and change the division or the sign
STEPPED = (["i", "u"], [np.array([9] * 4096 + [-(2**63)] * 4096 + [2**63 - 1], dtype=np.int64),
                        np.array([0] * 4096 + [2**32] * 4096 + [2**64 - 1], dtype=np.uint64)])


@settings(max_examples=150, deadline=None, database=None)
@given(table=_tables())
@example(table=STEPPED)
def test_write_csv_matches_csv_writer_property(tmp_path_factory, table):
    header, columns = table
    out = tmp_path_factory.mktemp("csv")
    write_csv(out / "bulk.csv", header, columns)

    with open(out / "rows.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns)))
    assert (out / "bulk.csv").read_bytes() == (out / "rows.csv").read_bytes()


def test_write_csv_rejects_nul_text(tmp_path):
    with pytest.raises(ValueError, match="NUL"):
        write_csv(tmp_path / "nul.csv", ["name"], [["a\0b"]])


def test_write_csv_peak_memory_stays_one_chunk(tmp_path):
    # Measured peak: 0.25 MB with 4096-row chunks, 0.97 MB with 16384 and
    # 3.87 MB with 65536; formatting the whole table at once would be far more.
    n = 1_000_000
    parents = np.random.default_rng(0).integers(1, n, n)
    tracemalloc.start()
    try:
        write_csv(tmp_path / "edges.csv", ["child", "parent"], [range(n), parents])
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert peak_mb < 0.8


def test_writers_send_every_integer_row_through_the_digit_kernel(tmp_path, monkeypatch):
    # the bytes are the same either way, so only a spy sees an integer column
    # fall from the uint32 kernel to the str path, which is about 5x slower
    kernel_rows = []

    def spy(values):
        kernel_rows.append(values.size)
        return kernel(values)

    kernel = model_core._int_block
    monkeypatch.setattr(model_core, "_int_block", spy)
    tree = grow_tree(ChangePointSchedule.single(6.0, 1.0, 0.5), 10_000, seeded_generator(5))
    hist = degree_histogram(tree)
    ks, ccdf = ccdf_from_samples(tree.total_degrees())
    z = np.random.default_rng(0).standard_normal(5000)
    writes = [  # writer, its arguments, the integer rows it writes
        (write_edge_csv, (tree,), 2 * (tree.n - 1)),
        (write_trajectory_csv, (tree.leaf_trajectory(),), 2 * (tree.n - 1)),
        (write_histogram_csv, (hist,), 2 * np.count_nonzero(hist.counts)),
        (write_zsample_csv, (z,), z.size),
        (write_pmf_csv, (range(1, 201), p_alpha_table(6.0, 200)[1:]), 200),
        (write_pmf_csv, (ks, ccdf), ks.size),
    ]
    for i, (writer, args, int_rows) in enumerate(writes):
        kernel_rows.clear()
        writer(*args, tmp_path / f"{i}.csv")
        assert sum(kernel_rows) == int_rows, writer.__name__
