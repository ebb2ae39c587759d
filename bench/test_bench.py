"""Tests of the benchmark itself:  python3 -m pytest bench/test_bench.py"""
from __future__ import annotations

import dataclasses
import struct
from pathlib import Path

import pytest

import run
from spans import Span, SpanRecorder, self_times
from workloads import WORKLOADS

TINY = {
    "simulate-large": {"n": 3000, "checkpoints": (1000, 2000)},
    "ensemble-fclt": {"n": 2000, "reps": 4, "threads": 2, "upsilon_reps": 10},
    "estimate-read": {"n": 3000, "files": 2},
    "limits": {"draws": 2000, "curve_points": 20},
}


def tiny(name: str):
    return dataclasses.replace(WORKLOADS[name], sizes=TINY[name])


@pytest.fixture
def quick(monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(run, "MIN_COMMANDS", 2)


def _span(name, start, end, parent=None):
    return Span(name, start, end, parent, "w")


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 3.0, parent=0),
        _span("b", 2.0, 5.0, parent=0),    # overlaps a: [1, 5] is covered once
        _span("c", 9.0, 12.0, parent=0),   # only [9, 10] lies inside the root
        _span("a.child", 1.5, 2.5, parent=1),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 4.0 - 1.0, 1.0, 3.0, 3.0, 1.0])


def test_recorder_nests_spans_and_keeps_counts():
    rec = SpanRecorder("w")
    with rec.span("outer"):
        with rec.span("inner", vertices=7):
            pass
    with rec.span("next"):
        pass
    outer, inner, nxt = rec.spans
    assert (outer.parent, inner.parent, nxt.parent) == (None, 0, None)
    assert inner.counts == {"vertices": 7} and inner.workload == "w"
    assert outer.start <= inner.start <= inner.end <= outer.end <= nxt.start
    assert sum(self_times(rec.spans)) == pytest.approx(outer.duration + nxt.duration)


def test_layer_metrics_arithmetic():
    spans = [
        _span("import.pact_cli", 0.0, 0.5),
        _span("cli.command", 0.5, 6.0),
        _span("cli.pool", 0.5, 4.5, parent=1),
        dataclasses.replace(_span("generator.grow_tree", 0.5, 2.5, parent=2),
                            counts={"vertices": 100, "peak_bytes": 12_345}),
        dataclasses.replace(_span("generator.grow_tree", 2.5, 4.0, parent=2),
                            counts={"vertices": 100}),
        dataclasses.replace(_span("generator.write_edge_csv", 4.5, 5.5, parent=1),
                            counts={"bytes": 2e6}),
    ]
    trace = {"spans": [dataclasses.asdict(sp) for sp in spans], "scipy_modules": 3,
             "per_span_s": 1e-6}
    m = run.layer_metrics(trace, wall_s=4.5, setup_s=1.0, threads=2)
    assert m["generator.grow_tree_s"] == pytest.approx(3.5)
    assert m["cli.command_s"] == pytest.approx(0.5)
    assert m["generator.grow_tree_calls"] == 2 and m["generator.vertices"] == 200
    assert m["generator.peak_bytes_per_vertex"] == 123.5
    # 5.5 s of traced work, of which the pool's 4.0 s count 1/2: 4.5 - 1.0 - (5.5 - 2.0)
    assert m["cli.self_s"] == pytest.approx(0.0)
    assert m["cli.parallel_eff"] == pytest.approx(5.5 / (2 * 3.5))
    assert m["io.bytes_written"] == 2e6 and m["io.write_mb_per_s"] == pytest.approx(2.0)
    assert m["trace.overhead_s"] == pytest.approx(6e-6)
    assert m["limit_laws.sample_s"] == 0.0
    assert set(m) == {spec["name"] for spec in run.PER_LAYER}


def test_flipped_byte_raises_failed_frac(quick, monkeypatch, tmp_path):
    real = run.pact_cli

    def corrupting(argv, log):
        sample = real(argv, log)
        victim = Path(argv[argv.index("--out") + 1]) / "trajectory_r000.csv"
        data = bytearray(victim.read_bytes())
        data[len(data) // 2] ^= 0x01
        victim.write_bytes(bytes(data))
        return sample

    monkeypatch.setattr(run, "pact_cli", corrupting)
    _, verifier = run.end_to_end(tiny("simulate-large"), 1, 0.0, tmp_path)
    assert verifier.attempted == 2
    assert verifier.failed / verifier.attempted > 0
    assert "digest does not match" in verifier.problems[0]


def test_invariant_checks_catch_a_forward_parent(tmp_path):
    from checks import CheckFailed, check_artifacts

    w = tiny("simulate-large")
    out = tmp_path / "out"
    assert run.pact_cli(w.argv(1, out, []), tmp_path / "log").returncode == 0
    check_artifacts(w, out)
    tree = out / "tree_r000.pact"
    data = bytearray(tree.read_bytes())
    data[20 + 8 * 2: 20 + 8 * 3] = struct.pack("<Q", 3)  # parent[3] = 3
    tree.write_bytes(bytes(data))
    with pytest.raises(CheckFailed, match="parents must be earlier"):
        check_artifacts(w, out)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_smoke_run(name, quick, tmp_path):
    w = tiny(name)
    (tmp_path / "e2e").mkdir()
    (tmp_path / "traced").mkdir()
    values, verifier = run.end_to_end(w, 3, 0.0, tmp_path / "e2e")
    assert verifier.problems == []
    assert set(values) == {spec["name"] for spec in run.END_TO_END}
    assert all(min(xs) > 0 for xs in values.values())

    layers, verifier, _ = run.per_layer(w, 3, 0.0, tmp_path / "traced")
    assert verifier.problems == [] and verifier.attempted == 2  # traced digests == CLI's
    assert set(layers) == {spec["name"] for spec in run.PER_LAYER}
    assert layers["import.pact_cli_s"][0] > 0 and layers["trace.overhead_s"][0] > 0
