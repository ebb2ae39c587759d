import csv

import numpy as np
import pytest

from oracles import segment_of
from pact.model_core import (
    ChangePointSchedule,
    NonPositiveParameter,
    SeededRng,
    UnorderedChangePoints,
    step_offsets,
    validate_schedule,
    write_csv,
)


def test_validate_accepts_basic_single_change_point():
    s = ChangePointSchedule.single(alpha=6.0, beta=1.0, gamma=0.5)
    assert validate_schedule(s) is s


def test_validate_accepts_empty_segments():
    s = ChangePointSchedule(alpha=1.0)
    assert validate_schedule(s) is s
    assert s.num_change_points == 0


def test_validate_accepts_alpha_zero():
    validate_schedule(ChangePointSchedule.single(0.0, 2.0, 0.5))


def test_validate_rejects_unordered_change_points():
    s = ChangePointSchedule(alpha=1.0, segments=((0.7, 2.0), (0.3, 1.0)))
    with pytest.raises(UnorderedChangePoints):
        validate_schedule(s)


@pytest.mark.parametrize("alpha,beta", [(-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
def test_validate_rejects_bad_offsets(alpha, beta):
    with pytest.raises(NonPositiveParameter):
        validate_schedule(ChangePointSchedule.single(alpha, beta, 0.5))


@pytest.mark.parametrize("gamma", [0.0, 1.0, -0.2, 1.5])
def test_validate_rejects_boundary_gammas(gamma):
    with pytest.raises(UnorderedChangePoints):
        validate_schedule(ChangePointSchedule.single(1.0, 1.0, gamma))


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


def test_schedule_json_round_trip():
    s = ChangePointSchedule(alpha=4.0, segments=((0.3, 1.0), (0.7, 2.0)))
    obj = s.to_json()
    assert obj == {
        "alpha": 4.0,
        "segments": [{"gamma": 0.3, "beta": 1.0}, {"gamma": 0.7, "beta": 2.0}],
    }
    assert ChangePointSchedule.from_json(obj) == s


def test_seeded_rng_replays_identically():
    a = SeededRng(12345, 7).generator().random(64)
    b = SeededRng(12345, 7).generator().random(64)
    assert np.array_equal(a, b)


def test_seeded_rng_streams_differ():
    a = SeededRng(12345, 7).generator().random(64)
    b = SeededRng(12345, 8).generator().random(64)
    c = SeededRng(12346, 7).generator().random(64)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


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
