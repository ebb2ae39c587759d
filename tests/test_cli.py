import concurrent.futures
import contextlib
import csv
import hashlib
import io
import json
import os
import re
import shlex
import signal
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pact import cli, limit_laws
from pact.cli import _DEFAULTS, _KEYS, _merge_config, _pool_map, build_parser, main
from pact.estimator import DN_CSV_ROWS, dn_curve, limit_D, write_dn_csv
from pact.generator import DegreeHistogram
from pact.leaf_process import LeafTrajectory, read_trajectory_csv, write_trajectory_csv
from pact.limit_laws import _BLOCK, p_alpha_table, sample_d_theta_multi
from pact.model_core import ChangePointSchedule, seeded_generator


def _run(*argv) -> int:
    return main(list(argv))


def _hashes(out_dir):
    manifest = json.loads((out_dir / "manifest.json").read_text())
    return manifest["outputs"]


def test_simulate_writes_artifacts_and_manifest(tmp_path):
    out = tmp_path / "run"
    rc = _run("simulate", "--out", str(out), "--n", "2000", "--seed", "7",
              "--alpha", "6", "--beta", "1", "--gamma", "0.5")
    assert rc == 0
    names = {p.name for p in out.iterdir()}
    assert {"manifest.json", "tree_r000.pact", "trajectory_r000.csv",
            "degree_hist_r000.csv"} <= names
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "simulate"
    assert manifest["config"]["n"] == 2000
    assert manifest["seeds"] == [{"seed": 7, "stream_id": 0}]
    assert manifest["tool_version"]
    assert set(manifest["outputs"]) == names - {"manifest.json"}


def test_simulate_pins_every_artifact(tmp_path):
    out = tmp_path / "sim"
    assert _run("simulate", "--out", str(out), "--n", "3000", "--seed", "7", "--alpha", "6",
                "--beta", "1", "--gamma", "0.5", "--edges",
                "--checkpoint", "500", "--checkpoint", "1500") == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16]
               for p in out.iterdir() if p.name != "manifest.json"}
    assert digests == {
        "tree_r000.pact": "dd389b6a4aa94343",
        "trajectory_r000.csv": "7ddcfbbcc03d0878",
        "degree_hist_r000.csv": "65b2763bce212095",
        "degree_hist_r000_m500.csv": "1c3d027513723f6a",
        "degree_hist_r000_m1500.csv": "601d951495cf9de4",
        "edges_r000.csv": "bcf849da7876016b",
    }


def test_simulate_trivial_size(tmp_path):
    out = tmp_path / "tiny"
    assert _run("simulate", "--out", str(out), "--n", "2", "--alpha", "1") == 0
    rows = (out / "trajectory_r000.csv").read_text().splitlines()
    assert rows == ["m,leaf_count", "2,2"]


def test_simulate_deterministic_reruns(tmp_path):
    args = ["simulate", "--n", "3000", "--seed", "11", "--alpha", "6",
            "--beta", "1", "--gamma", "0.5", "--reps", "2"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert _run(*args, "--out", str(out1)) == 0
    assert _run(*args, "--out", str(out2)) == 0
    assert _hashes(out1) == _hashes(out2)


def test_simulate_threaded_matches_serial(tmp_path):
    base = ["simulate", "--n", "1500", "--seed", "3", "--alpha", "2",
            "--beta", "1", "--gamma", "0.4", "--reps", "3"]
    out1, out2 = tmp_path / "serial", tmp_path / "pool"
    assert _run(*base, "--out", str(out1), "--threads", "1") == 0
    assert _run(*base, "--out", str(out2), "--threads", "2") == 0
    assert _hashes(out1) == _hashes(out2)


def test_simulate_ensemble_distinct_streams(tmp_path):
    out = tmp_path / "ens"
    assert _run("simulate", "--out", str(out), "--n", "500", "--reps", "3",
                "--alpha", "1") == 0
    manifest = json.loads((out / "manifest.json").read_text())
    streams = [s["stream_id"] for s in manifest["seeds"]]
    assert streams == [0, 1, 2]
    t0 = (out / "trajectory_r000.csv").read_text()
    t1 = (out / "trajectory_r001.csv").read_text()
    assert t0 != t1


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 500, "alpha": 6.0, "beta": [1.0], "gamma": [0.5]}))
    out = tmp_path / "run"
    assert _run("simulate", "--config", str(cfg), "--out", str(out), "--n", "300") == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["n"] == 300  # flag wins
    assert manifest["config"]["alpha"] == 6.0


def test_invalid_config_fails_before_side_effects(tmp_path):
    out = tmp_path / "never"
    rc = _run("simulate", "--out", str(out), "--n", "100", "--alpha", "1",
              "--beta", "1", "--gamma", "0.7", "--beta", "2", "--gamma", "0.3")
    assert rc == 2
    assert not out.exists()


@pytest.mark.parametrize("body", [b"[]", b"7", b'"n"', b"null", b'{"n": 1', b"\xff\xfe",
                                  b'{"n": 5, "n": 700}'],
                         ids=["list", "number", "string", "null", "truncated", "not-utf8",
                              "repeated-key"])
def test_config_file_that_is_not_one_json_object_fails_before_side_effects(tmp_path, capsys,
                                                                          body):
    cfg = tmp_path / "bad_cfg.json"
    cfg.write_bytes(body)
    out = tmp_path / "never"
    assert _run("simulate", "--config", str(cfg), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config file {cfg}") and err.count("\n") == 1
    assert not out.exists()


SINGLE = ["--alpha", "6", "--beta", "1", "--gamma", "0.5"]
TWO = ["--alpha", "4", "--beta", "1", "--gamma", "0.3", "--beta", "2", "--gamma", "0.7"]
GOOD_TRAJECTORY = "<a valid trajectory file>"


@pytest.mark.parametrize("argv, streams", [
    (["simulate", "--n", "300", "--reps", "3", "--threads", "2", "--seed", "5"], [0, 1, 2]),
    # at k = 1 the duration stream is drawn first in the pool but listed last
    (["fclt", "--n", "300", "--reps", "3", "--upsilon-reps", "4", "--seed", "5", *SINGLE],
     [0, 1, 2, 1 << 32]),
    (["fclt", "--n", "300", "--reps", "3", "--seed", "5"], [0, 1, 2]),
    (["maxdeg", "--n", "300", "--n", "200", "--reps", "2", "--seed", "5"], [0, 1, 2, 3]),
    (["limits", "--draws", "100", "--kmax", "20", "--curve-points", "10", "--seed", "5",
      *SINGLE], [0]),
    # with no change point limits draws p_alpha on the same stream
    (["limits", "--draws", "100", "--kmax", "20", "--curve-points", "10", "--seed", "5"], [0]),
    (["estimate", "--trajectory", GOOD_TRAJECTORY], []),
], ids=["simulate", "fclt-k1", "fclt-k0", "maxdeg", "limits", "limits-k0", "estimate"])
def test_manifest_seeds_are_pinned(tmp_path, argv, streams):
    sim = tmp_path / "sim"
    assert _run("simulate", "--out", str(sim), "--n", "300", "--no-trees") == 0
    argv = [str(sim / "trajectory_r000.csv") if a == GOOD_TRAJECTORY else a for a in argv]
    out = tmp_path / "run"
    assert _run(*argv, "--out", str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seeds"] == [{"seed": 5, "stream_id": s} for s in streams]


@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "50", "--no-trees"],
    ["limits", "--draws", "100", "--kmax", "5", "--curve-points", "3", *SINGLE],
    ["fclt", "--n", "50", "--reps", "2", "--upsilon-reps", "2", *SINGLE],
    ["maxdeg", "--n", "50", "--reps", "2"],
], ids=["simulate", "limits", "fclt", "maxdeg"])
def test_seed_must_be_u64(tmp_path, capsys, argv):
    def runs(seed: int):
        """argv with the seed from a flag, then from a config file."""
        cfg = tmp_path / f"cfg_{seed}.json"
        cfg.write_text(json.dumps({"seed": seed}))
        return [[*argv, "--seed", str(seed)], [*argv, "--config", str(cfg)]]

    for seed in (-1, 1 << 64, (1 << 70) - 1):
        for run in runs(seed):
            out = tmp_path / "never"
            assert _run(*run, "--out", str(out)) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: seed ") and err.count("\n") == 1
            assert not out.exists()
    for seed in (0, (1 << 64) - 1):
        manifests = []
        for i, run in enumerate(runs(seed)):
            out = tmp_path / f"run_{seed}_{i}"
            assert _run(*run, "--out", str(out)) == 0
            manifests.append(json.loads((out / "manifest.json").read_text()))
        for manifest in manifests:
            assert manifest["config"]["seed"] == seed
            assert {s["seed"] for s in manifest["seeds"]} == {seed}
        assert manifests[0]["outputs"] == manifests[1]["outputs"]


@pytest.mark.parametrize("argv", [
    ["limits", *SINGLE, "--draws", "0"],
    ["limits", "--kmax", "0"],
    ["limits", "--curve-points", "0"],
    ["limits", *SINGLE, "--epsilon", "0.6"],
    ["limits", "--horizon-t", "0.9"],  # the degree law at t is the schedule with gamma_j/t
    # the change points that refused horizons rescale to: at or past the tree's size
    ["limits", "--alpha", "6", "--beta", "1", "--gamma", "1.25"],  # SINGLE at t = 0.4 < gamma
    ["fclt", "--reps", "0"],
    ["fclt", "--reps", "1"],
    ["fclt", "--t", "1.5"],
    ["simulate", "--checkpoint", "200", "--n", "100"],
    ["simulate", "--n", "0"],
    ["simulate", "--threads", "0"],
    ["maxdeg", "--reps", "0"],
    ["maxdeg", "--n", "1"],
    ["estimate", "--trajectory", __file__, "--epsilon", "1.5"],
    ["limits", "--alpha", "4", "--beta", "1", "--gamma", repr(0.3 / 0.7), "--beta", "2",
     "--gamma", "1"],  # TWO at t = 0.7 = gamma_2
    ["limits", *TWO, "--epsilon", "0.35"],  # d_limit: eps < gamma_1 = 0.3
    ["estimate", "--trajectory", GOOD_TRAJECTORY, "--threads", "0"],
    ["estimate", "--trajectory", GOOD_TRAJECTORY, *SINGLE, "--epsilon", "0.6"],  # d_limit: eps < gamma
    ["estimate", "--trajectory", GOOD_TRAJECTORY, *SINGLE, "--epsilon", "0.5"],
    ["estimate", "--trajectory", GOOD_TRAJECTORY, *TWO, "--epsilon", "0.35"],
    ["estimate", "--trajectory", GOOD_TRAJECTORY, "--gamma", "0.5", "--beta", "1"],  # no alpha
    ["estimate", "--trajectory", GOOD_TRAJECTORY, "--alpha", "6"],  # no change point
    ["limits", "--reps", "7"],  # flags the subcommand would ignore
    ["estimate", "--trajectory", GOOD_TRAJECTORY, "--seed", "99"],
    ["estimate", "--trajectory", GOOD_TRAJECTORY, "--reps", "4"],
    ["simulate", "--n", "abc"],  # argparse's own errors take the same one-line path
    [],  # no subcommand
    ["limits", "--threads", "0"],
    ["limits", "--epsilon", "1.5"],  # no change point: eps < 1
    ["limits", "--alpha", "6", "--beta", "1", "--gamma", "1"],  # SINGLE at t = 0.5 = gamma
    ["limits", "--alpha", "6", "--beta", "1", "--gamma", "nan"],  # a horizon of nan
    ["limits", "--alpha", "6", "--beta", "1", "--gamma", "inf"],  # a horizon of 0
    ["estimate", "--trajectory", str(Path(__file__).with_name("no_such_trajectory.csv"))],
    ["estimate", "--trajectory", str(Path(__file__).parent)],  # a directory
    # offsets above 2^53, where float64 drops the +1 and +2 of out_degree + 1 + c
    ["limits", "--alpha", "6", "--beta", "1e308", "--gamma", "0.5"],
    ["fclt", "--n", "100000", "--alpha", "6", "--beta", "1e307", "--gamma", "0.5"],
    ["limits", "--alpha", str(2**53 + 2**1)],
    # gamma_1 below 1e-100, where phi, g and the segment constants overflow, and t below 2/n
    ["fclt", "--n", "1000", "--reps", "2", "--alpha", "6", "--beta", "1", "--gamma", "1e-150"],
    ["fclt", "--n", "1000", "--reps", "2", "--alpha", "6", "--beta", "1", "--gamma", "0.5",
     "--t", "1e-300"],
    ["limits", "--alpha", "0", "--beta", "657", "--gamma", "1e-148", "--beta", "1e-10",
     "--gamma", "0.5", "--epsilon", "1e-149", "--draws", "10"],
    # n*t < 2: G_n(t) would read N(2) in place of N(nt)
    ["fclt", "--n", "1000", "--reps", "2", "--alpha", "6", "--beta", "1", "--gamma", "0.5",
     "--t", "0.001", "--t", "1"],
    # integers above 2^53
    ["limits", "--curve-points", str(2**63 - 1)],
    ["limits", "--curve-points", str(10**400)],
    ["fclt", "--n", str(10**400)],
    ["simulate", "--n", "100", "--reps", str(2**63)],
    ["maxdeg", "--n", "100", "--reps", str(2**63)],
])
def test_invalid_values_fail_before_side_effects(tmp_path, capsys, argv):
    good = tmp_path / "good.csv"
    good.write_text("m,leaf_count\n" + "".join(f"{m},{(m + 2) // 2}\n" for m in range(2, 200)))
    argv = [str(good) if a == GOOD_TRAJECTORY else a for a in argv]
    out = tmp_path / "never"
    assert _run(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "good.csv" not in err
    assert err[len("error: "):].strip()
    assert not out.exists()


def test_an_error_without_a_message_prints_its_type(tmp_path, monkeypatch, capsys):
    def no_memory(*args):
        raise MemoryError

    monkeypatch.setitem(cli._COMMANDS, "simulate", no_memory)
    out = tmp_path / "never"
    assert _run("simulate", "--out", str(out)) == 2
    assert capsys.readouterr().err == "error: MemoryError\n"
    assert not out.exists()


def _all_digests(out_dir) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out_dir.iterdir()}


def test_out_that_holds_files_is_refused(tmp_path, capsys):
    out = tmp_path / "run"
    assert _run("simulate", "--out", str(out), "--n", "50", "--reps", "2") == 0
    before = _all_digests(out)
    capsys.readouterr()
    assert _run("simulate", "--out", str(out), "--n", "60", "--no-trees") == 2
    assert capsys.readouterr().err == f"error: --out {out} must be a new or empty directory\n"
    assert _all_digests(out) == before
    a_file = tmp_path / "file"
    a_file.write_text("kept")
    assert _run("simulate", "--out", str(a_file), "--n", "60") == 2
    assert a_file.read_text() == "kept"


def test_empty_out_directory_is_used(tmp_path):
    out = tmp_path / "empty"
    out.mkdir()
    assert _run("simulate", "--out", str(out), "--n", "50") == 0
    assert "trajectory_r000.csv" in _hashes(out)


# each fails when numpy first allocates: >= 1e14 elements exceed the address space at once
@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "100000000000000"],
    ["limits", "--kmax", "100000000000000"],  # within 2^53, so _merge_config takes it
    # after p_alpha_pmf.csv is written; limits draws in blocks, so a huge --draws only runs long
    ["limits", *SINGLE, "--curve-points", "100000000000000"],
], ids=["simulate-n", "limits-kmax", "limits-curve-points"])
@pytest.mark.parametrize("empty_out", [False, True], ids=["new-out", "empty-out"])
def test_run_that_fails_late_removes_what_it_wrote(tmp_path, capsys, argv, empty_out):
    out = tmp_path / "parent" / "run"
    if empty_out:
        out.mkdir(parents=True)
    assert _run(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if empty_out:
        assert list(out.iterdir()) == []
    else:
        assert list(tmp_path.iterdir()) == []


def test_simulate_without_out_fails_before_side_effects(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert _run("simulate", "--n", "100") == 2
    assert capsys.readouterr().err == "error: the following arguments are required: --out\n"
    assert list(tmp_path.iterdir()) == []


def test_help_prints_help_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        _run("simulate", "--help")
    assert exc.value.code == 0
    assert "--no-trees" in capsys.readouterr().out


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_NUMBERS = st.one_of(st.integers(-10**6, 10**6), _FINITE)
# a JSON value of the wrong kind for each scalar type; floats include integral ones
_WRONG = {
    int: st.one_of(_FINITE, st.text(max_size=4), st.booleans(),
                   st.lists(st.integers(), max_size=2)),
    float: st.one_of(st.text(max_size=4), st.booleans(), st.lists(_FINITE, max_size=2),
                     st.sampled_from([float("nan"), float("inf"), float("-inf")])),
    bool: st.one_of(_NUMBERS, st.text(max_size=4), st.lists(st.booleans(), max_size=2)),
    str: st.one_of(_NUMBERS, st.booleans()),
}


def _wrong_value(command: str, key: str) -> st.SearchStrategy:
    kind = _KEYS[key][1]
    if isinstance(kind, list):  # a scalar, or a list holding one value of the wrong kind
        wrong = st.one_of(_NUMBERS, st.text(max_size=4), st.booleans(),
                          st.builds(lambda v: [v], st.one_of(_WRONG[kind[0]], st.none())))
    else:
        wrong = _WRONG[kind]
    return wrong if _DEFAULTS[command][key] is None else st.one_of(wrong, st.none())


@pytest.mark.parametrize("command, key", [(c, k) for c in _DEFAULTS for k in _DEFAULTS[c]])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_config_value_of_the_wrong_json_kind_fails_before_side_effects(command, key, data):
    value = data.draw(_wrong_value(command, key), label=f"{command}.{key}")
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "cfg.json", Path(tmp) / "never"
        cfg.write_text(json.dumps({key: value}))
        with contextlib.redirect_stderr(err):
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
    assert err.getvalue().startswith(f"error: {key} ") and err.getvalue().count("\n") == 1


def test_json_integers_for_float_keys_match_the_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 6, "beta": [1], "gamma": [0.5]}))
    from_file, from_flags = tmp_path / "file", tmp_path / "flags"
    assert _run("simulate", "--config", str(cfg), "--n", "500", "--out", str(from_file)) == 0
    assert _run("simulate", *SINGLE, "--n", "500", "--out", str(from_flags)) == 0
    manifests = [json.loads((out / "manifest.json").read_text())
                 for out in (from_file, from_flags)]
    # compared as JSON text, so an echoed 6 would not pass for 6.0
    assert len({json.dumps(m["config"], sort_keys=True) for m in manifests}) == 1
    assert manifests[0]["outputs"] == manifests[1]["outputs"]


@pytest.mark.parametrize("cfg", [{"alpha": 6.0}], ids=["alpha"])
def test_estimate_partial_overlay_in_config_fails_before_side_effects(tmp_path, capsys, cfg):
    good = tmp_path / "good.csv"
    good.write_text("m,leaf_count\n" + "".join(f"{m},{(m + 2) // 2}\n" for m in range(2, 200)))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "never"
    assert _run("estimate", "--config", str(path), "--trajectory", str(good),
                "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err == "error: the d_limit overlay needs alpha and at least one beta/gamma pair\n"
    assert not out.exists()


# a schedule is spelled with the flat alpha/beta/gamma keys only
@pytest.mark.parametrize("command, cfg, key", [
    ("maxdeg", {"k": 1}, "k"),
    ("limits", {"horizon_t": 0.9}, "horizon_t"),  # a horizon is spelled by its gamma_j/t
    ("simulate", {"schedule": {"alpha": "6", "segments": [{"gamma": "0.5", "beta": True}]}},
     "schedule"),
    ("estimate", {"schedule": {"alpha": 6.0, "segments": [{"gamma": 0.5, "beta": 1.0}]}},
     "schedule"),
    ("simulate", {"schedule": {"alpha": 6.0, "segments": []}, "alpha": 1.0}, "schedule"),
], ids=["maxdeg-k", "limits-horizon_t", "simulate-schedule", "estimate-schedule",
        "simulate-schedule-and-alpha"])
def test_unknown_config_key_fails_before_side_effects(tmp_path, capsys, command, cfg, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "never"
    assert _run(command, "--config", str(path), "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: unknown config keys for {command}: ['{key}']\n"
    assert not out.exists()


# each subcommand loops over one of these lists, so an empty one is refused up front
@pytest.mark.parametrize("command, key, flag, argv", [
    ("fclt", "t_grid", "--t", ["--n", "100", "--reps", "2"]),
    ("maxdeg", "n_list", "--n", ["--reps", "1"]),
    ("estimate", "trajectories", "--trajectory", []),
], ids=["fclt-t_grid", "maxdeg-n_list", "estimate-trajectories"])
def test_empty_list_key_in_config_fails_before_side_effects(tmp_path, capsys, command, key,
                                                            flag, argv):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({key: []}))
    out = tmp_path / "never"
    assert _run(command, "--config", str(path), *argv, "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {key} ({flag}) needs at least one value\n"
    assert not out.exists()


def test_every_flag_is_a_config_key_of_its_subcommand():
    subcommands = next(a for a in build_parser()._actions if a.choices).choices
    assert set(subcommands) == set(_DEFAULTS)
    for command, parser in subcommands.items():
        keys = {a.dest for a in parser._actions if a.option_strings and a.dest != "help"}
        assert keys - set(_DEFAULTS[command]) - {"config", "out"} == set(), command


_ACTION_KINDS = {"_StoreAction": "store", "_AppendAction": "append",
                 "_StoreTrueAction": "store_true", "_StoreFalseAction": "store_false"}
_COMMON_FLAGS = {"--config": ("config", "str", "store"), "--out": ("out", "str", "store"),
                 "--threads": ("threads", "int", "store"),
                 "--alpha": ("alpha", "float", "store"), "--beta": ("beta", "float", "append"),
                 "--gamma": ("gamma", "float", "append")}
_SEED_REPS = {"--seed": ("seed", "int", "store"), "--reps": ("reps", "int", "store")}


def test_flag_surface_is_pinned():
    """Each subcommand's option strings, with their dest, type and action kind."""
    subcommands = next(a for a in build_parser()._actions if a.choices).choices
    surface = {command: {opt: (a.dest, getattr(a.type, "__name__", None),
                               _ACTION_KINDS[type(a).__name__])
                         for a in parser._actions if a.dest != "help" for opt in a.option_strings}
               for command, parser in subcommands.items()}
    assert surface == {
        "simulate": {**_COMMON_FLAGS, **_SEED_REPS, "--n": ("n", "int", "store"),
                     "--no-trees": ("save_trees", None, "store_false"),
                     "--edges": ("edges", None, "store_true"),
                     "--checkpoint": ("checkpoints", "int", "append")},
        "limits": {**_COMMON_FLAGS, "--seed": ("seed", "int", "store"),
                   "--draws": ("draws", "int", "store"),
                   "--kmax": ("kmax", "int", "store"),
                   "--curve-points": ("curve_points", "int", "store"),
                   "--epsilon": ("epsilon", "float", "store")},
        "estimate": {**_COMMON_FLAGS, "--trajectory": ("trajectories", "str", "append"),
                     "--epsilon": ("epsilon", "float", "store")},
        "fclt": {**_COMMON_FLAGS, **_SEED_REPS, "--n": ("n", "int", "store"),
                 "--t": ("t_grid", "float", "append"),
                 "--upsilon-reps": ("upsilon_reps", "int", "store")},
        "maxdeg": {**_COMMON_FLAGS, **_SEED_REPS, "--n": ("n_list", "int", "append")},
    }


def test_limits_outputs(tmp_path):
    out = tmp_path / "lim"
    assert _run("limits", "--out", str(out), "--alpha", "6", "--beta", "1",
                "--gamma", "0.5", "--draws", "20000", "--kmax", "30") == 0
    names = {p.name for p in out.iterdir()}
    assert {"p_alpha_pmf.csv", "d_theta_pmf.csv", "d_theta_ccdf.csv",
            "leaf_curve.csv", "d_limit.csv", "manifest.json"} == names
    with open(out / "p_alpha_pmf.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert float(rows[0]["p"]) == pytest.approx(8.0 / 15.0, abs=1e-12)
    # the limit curves do not depend on --draws or --kmax; these digests pin their bytes
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()[:16]
               for name in ("leaf_curve.csv", "d_limit.csv")}
    assert digests == {"leaf_curve.csv": "0864d67a3a1ddd72", "d_limit.csv": "0f2b17a07a716e75"}


def test_limits_sampled_tables_keep_their_bytes(tmp_path):
    # 200000 draws fill several of the sampler's blocks of 2^16 draws; p_alpha_pmf.csv
    # draws nothing, and the d_theta_* digests pin the per-block stream layout
    cases = {
        "single": (SINGLE, {"p_alpha_pmf.csv": "14820c5ae5e8205b",
                            "d_theta_pmf.csv": "35c831f204bbe2c5",
                            "d_theta_ccdf.csv": "02481810ce9c749b"}),
        # TWO at horizon 0.9: the schedule with change points 0.3/0.9 and 0.7/0.9
        "two-at-0.9": (["--alpha", "4", "--beta", "1", "--gamma", repr(0.3 / 0.9),
                        "--beta", "2", "--gamma", repr(0.7 / 0.9)],
                       {"p_alpha_pmf.csv": "6b6b47edc3238a30",
                        "d_theta_pmf.csv": "2a10c06ab997b6a1",
                        "d_theta_ccdf.csv": "007b906b55f50f5d"}),
    }
    for name, (flags, expected) in cases.items():
        out = tmp_path / name
        assert _run("limits", "--out", str(out), *flags, "--seed", "7", "--draws", "200000") == 0
        digests = {file: hashlib.sha256((out / file).read_bytes()).hexdigest()[:16]
                   for file in expected}
        assert digests == expected, name


def _limits_histogram(monkeypatch, out, *flags) -> np.ndarray:
    """The running histogram of draws that a limits run hands to DegreeHistogram."""
    seen = []
    monkeypatch.setattr(cli, "DegreeHistogram", lambda counts, n: seen.append(counts.copy())
                        or DegreeHistogram(counts, n))
    assert _run("limits", "--out", str(out), *flags) == 0
    (counts,) = seen
    return counts


# (0; (0.3, 2), (0.6, 0.5)) at horizon 0.9
ALPHA0_TWO = ChangePointSchedule(alpha=0.0, segments=((0.3 / 0.9, 2.0), (0.6 / 0.9, 0.5)))


@pytest.mark.parametrize("schedule, flags", [
    (ChangePointSchedule.single(6.0, 1.0, 0.5), SINGLE),
    (ALPHA0_TWO, ["--alpha", "0", "--beta", "2", "--gamma", repr(0.3 / 0.9), "--beta", "0.5",
                  "--gamma", repr(0.6 / 0.9)]),
], ids=["single", "alpha0-two"])
def test_limits_histogram_is_the_bincount_of_one_sample(monkeypatch, tmp_path, schedule, flags):
    draws = 3 * _BLOCK + 5  # the last block is short
    counts = _limits_histogram(monkeypatch, tmp_path / "lim", *flags,
                               "--seed", "7", "--draws", str(draws))
    values = sample_d_theta_multi(schedule, seeded_generator(7), draws).values
    assert counts.dtype == np.int64 and np.array_equal(counts, np.bincount(values))
    if schedule is ALPHA0_TWO:  # a later block's largest draw outgrew the running histogram
        assert values[_BLOCK:].max() > values[:_BLOCK].max()


def test_limits_builds_the_sampler_tables_once(monkeypatch, tmp_path):
    calls = []
    monkeypatch.setattr(limit_laws, "p_alpha_table", lambda *args: calls.append(args)
                        or p_alpha_table(*args))
    assert _run("limits", "--out", str(tmp_path / "lim"), *SINGLE,
                "--draws", str(3 * _BLOCK + 5)) == 0
    assert len(calls) == 1  # one set-up for all four blocks


def test_limits_holds_one_block_of_draws(tmp_path):
    # Measured peak: 3.3 MB, 4.2 MB in a fresh interpreter; holding the 2^21 draws as
    # int64 values took 19.1 MB
    tracemalloc.start()
    try:
        assert _run("limits", "--out", str(tmp_path / "lim"), *SINGLE,
                    "--draws", str(1 << 21)) == 0
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert peak_mb <= 5.0


def test_limits_without_change_point_writes_the_leaf_curve(tmp_path):
    out = tmp_path / "lim"
    assert _run("limits", "--out", str(out), "--alpha", "6", "--draws", "1000") == 0
    assert {p.name for p in out.iterdir()} == {"p_alpha_pmf.csv", "leaf_curve.csv",
                                               "d_theta_pmf.csv", "d_theta_ccdf.csv",
                                               "d_limit.csv", "manifest.json"}
    digest = hashlib.sha256((out / "leaf_curve.csv").read_bytes()).hexdigest()[:16]
    assert digest == "2cef17ea58ef7c8e"
    with open(out / "d_limit.csv") as fh:  # no change point: D is 0 on [epsilon, 1]
        assert {r["d"] for r in csv.DictReader(fh)} == {"0.0"}


@pytest.mark.parametrize("flags", [[], SINGLE], ids=["k0", "k1"])
def test_limits_flags_change_only_their_artifacts(tmp_path, flags):
    base = ["--draws", "2000", "--kmax", "20", "--curve-points", "10", "--seed", "5", *flags]
    assert _run("limits", "--out", str(tmp_path / "base"), *base) == 0
    d_theta = {"d_theta_pmf.csv", "d_theta_ccdf.csv"}
    changes = {
        "draws": (["--draws", "3000"], d_theta),
        "seed": (["--seed", "6"], d_theta),
        "epsilon": (["--epsilon", "0.2"], {"d_limit.csv"}),
    }
    before = _all_digests(tmp_path / "base")
    for name, (change, changed) in changes.items():
        assert _run("limits", "--out", str(tmp_path / name), *base, *change) == 0
        after = _all_digests(tmp_path / name)
        assert {f for f in before if f != "manifest.json" and after[f] != before[f]} == changed


def test_limits_flat_d_when_offsets_equal(tmp_path):
    out = tmp_path / "flat"
    assert _run("limits", "--out", str(out), "--alpha", "2", "--beta", "2",
                "--gamma", "0.5", "--draws", "1000") == 0
    with open(out / "d_limit.csv") as fh:
        vals = [float(r["d"]) for r in csv.DictReader(fh)]
    assert max(abs(v) for v in vals) < 1e-12


def test_limits_multi_change_point_pmf(tmp_path):
    out = tmp_path / "multi"
    assert _run("limits", "--out", str(out), "--alpha", "4",
                "--beta", "1", "--gamma", "0.3", "--beta", "2", "--gamma", "0.7",
                "--draws", "20000") == 0
    assert (out / "d_theta_pmf.csv").exists()
    assert (out / "d_limit.csv").exists()  # the limit curves cover every k


def test_estimate_on_simulated_trajectory(tmp_path):
    sim = tmp_path / "sim"
    assert _run("simulate", "--out", str(sim), "--n", "20000", "--seed", "5",
                "--alpha", "6", "--beta", "1", "--gamma", "0.5") == 0
    out = tmp_path / "est"
    assert _run("estimate", "--out", str(out),
                "--trajectory", str(sim / "trajectory_r000.csv"),
                "--alpha", "6", "--beta", "1", "--gamma", "0.5") == 0
    report = json.loads((out / "report_000.json").read_text())
    assert set(report) == {"gamma_hat", "dn_star", "detected", "epsilon", "threshold",
                           "detection_floor", "near_max_min", "near_max_max", "n"}
    assert report["n"] == 20000
    header = (out / "dn_curve_000.csv").read_text().splitlines()[0]
    assert header == "t,dn,d_limit"
    with open(out / "gamma_hats.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1


def test_estimate_constant_trajectory_not_detected(tmp_path):
    traj = tmp_path / "flat.csv"
    with open(traj, "w", newline="\n") as fh:
        writer = csv.writer(fh)
        writer.writerow(["m", "leaf_count"])
        for m in range(2, 2001):
            writer.writerow([m, (m + 2) // 2])
    out = tmp_path / "est"
    assert _run("estimate", "--out", str(out), "--trajectory", str(traj)) == 0
    report = json.loads((out / "report_000.json").read_text())
    assert report["detected"] is False
    assert report["gamma_hat"] is None


def test_estimate_quotes_a_file_name_that_needs_it(tmp_path):
    traj = tmp_path / 'a,"b".csv'
    traj.write_text("m,leaf_count\n" + "".join(f"{m},{(m + 2) // 2}\n" for m in range(2, 200)))
    out = tmp_path / "est"
    assert _run("estimate", "--out", str(out), "--trajectory", str(traj)) == 0
    assert (out / "gamma_hats.csv").read_bytes().splitlines()[1].startswith(b'"a,""b"".csv",')
    with open(out / "gamma_hats.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [row[0] for row in rows] == ["file", 'a,"b".csv']


@pytest.mark.parametrize("body", [b"m,leaf_count\r\n2,2\r\n3,2\r\n4,4\r\n", b"m,leaf_count\r\n",
                                  b"m,count\r\n2,2\r\n", b"m,leaf_count\r\n\r\n",
                                  b"m,leaf_count\r\n\r\n2,2\r\n3,2\r\n",
                                  b"m,leaf_count\r\n2,2\r\nx,2\r\n",
                                  b"m,leaf_count\r\n2,2\r\n3,2,\r\n",
                                  b"m,leaf_count\r\n2,2\r\n3,99999999999999999999\r\n",
                                  b"\xff\xfem,leaf_count\r\n2,2\r\n"],
                         ids=["jump-of-2", "no-steps", "header", "blank-body", "blank-first-line",
                              "text-step", "extra-column", "overflow", "non-utf-8"])
def test_estimate_malformed_trajectory_fails_before_side_effects(tmp_path, capsys, body):
    good = tmp_path / "good.csv"
    good.write_text("m,leaf_count\n" + "".join(f"{m},{(m + 2) // 2}\n" for m in range(2, 200)))
    bad = tmp_path / "bad.csv"
    bad.write_bytes(body)
    out = tmp_path / "never"
    assert _run("estimate", "--out", str(out), "--trajectory", str(good),
                "--trajectory", str(bad)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "bad.csv" in err
    assert not out.exists()


def test_estimate_threads_do_not_change_its_bytes(tmp_path):
    sim = tmp_path / "sim"
    assert _run("simulate", "--out", str(sim), "--n", "3000", "--seed", "4", "--reps", "2",
                "--no-trees", *SINGLE) == 0
    a, b = sim / "trajectory_r000.csv", sim / "trajectory_r001.csv"
    inputs = ["--trajectory", str(a), "--trajectory", str(b), "--trajectory", str(a), *SINGLE]
    two, one = tmp_path / "two", tmp_path / "one"
    assert _run("estimate", "--out", str(two), *inputs, "--threads", "2") == 0
    assert _run("estimate", "--out", str(one), *inputs) == 0
    assert _hashes(two) == _hashes(one)
    assert json.loads((one / "manifest.json").read_text())["config"]["threads"] == 1
    assert json.loads((two / "manifest.json").read_text())["config"]["threads"] == 2
    curves = [(two / f"dn_curve_{i:03d}.csv").read_bytes() for i in range(3)]
    assert curves[0] == curves[2] != curves[1]
    # the d_limit overlay's bytes, pinned
    assert [hashlib.sha256(c).hexdigest()[:16] for c in curves[:2]] == [
        "a65e38ea1d180021", "e7db925389ab8810"]
    with open(two / "gamma_hats.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["file"] for r in rows] == [a.name, b.name, a.name]
    reports = [json.loads((two / f"report_{i:03d}.json").read_text()) for i in range(3)]
    assert [float(r["dn_star"]) for r in rows] == [r["dn_star"] for r in reports]


def test_estimate_starts_no_pool(tmp_path, monkeypatch):
    sim = tmp_path / "sim"
    assert _run("simulate", "--out", str(sim), "--n", "3000", "--seed", "4", "--reps", "2",
                "--no-trees", *SINGLE) == 0

    def no_pool(*args):
        raise AssertionError("estimate called _pool_map")

    monkeypatch.setattr("pact.cli._pool_map", no_pool)
    out = tmp_path / "est"
    assert _run("estimate", "--out", str(out), "--trajectory", str(sim / "trajectory_r000.csv"),
                "--trajectory", str(sim / "trajectory_r001.csv"), *SINGLE, "--threads", "2") == 0
    assert len((out / "gamma_hats.csv").read_text().splitlines()) == 3


def _hashed_trajectory(path, n: int, p_before: float, p_after: float) -> None:
    """Step m > 2 adds a leaf when a multiplicative hash of m, read as a fraction, is below p.

    p switches from p_before to p_after at m = n/2.  Integer arithmetic only, so the
    file is the same on every platform and numpy version.
    """
    ms = np.arange(3, n + 1, dtype=np.uint64)
    u = ms * np.uint64(2654435761) % np.uint64(1 << 32)
    rises = (u < np.where(ms <= n // 2, p_before, p_after) * 2.0**32).astype(np.int64)
    counts = np.concatenate([[2], 2 + np.cumsum(rises)])
    write_trajectory_csv(LeafTrajectory(n=n, counts=counts), path)


def _dn_rows(path) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "dn", "d_limit"]
    return np.array([[float(v) for v in row] for row in rows[1:]])


def test_estimate_writes_a_slice_of_a_long_dn_curve(tmp_path):
    flat, step = tmp_path / "flat.csv", tmp_path / "step.csv"
    _hashed_trajectory(flat, 500_000, 0.53, 0.6)
    _hashed_trajectory(step, 500_000, 0.4, 0.8)
    out = tmp_path / "est"
    assert _run("estimate", "--out", str(out), "--trajectory", str(flat),
                "--trajectory", str(step), *SINGLE) == 0
    # gamma_hat reads every step of the curve, not the written slice; these digests pin that
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()[:16]
               for name in ("report_000.json", "report_001.json", "gamma_hats.csv")}
    assert digests == {"report_000.json": "01029a660c219088", "report_001.json": "262ca3d8b99661cf",
                       "gamma_hats.csv": "d4422d2e34636a3a"}
    for i, path in enumerate((flat, step)):
        report = json.loads((out / f"report_{i:03d}.json").read_text())
        curve = dn_curve(read_trajectory_csv(path), 0.1)
        rows = _dn_rows(out / f"dn_curve_{i:03d}.csv")
        assert DN_CSV_ROWS <= len(rows) <= DN_CSV_ROWS + 3 < len(curve.ts)
        idx = np.searchsorted(curve.ts, rows[:, 0])
        assert np.all(np.diff(idx) > 0) and idx[0] == 0 and idx[-1] == len(curve.ts) - 1
        assert curve.ts[idx].tobytes() == rows[:, 0].tobytes()
        assert curve.values[idx].tobytes() == rows[:, 1].tobytes()
        assert rows[:, 1].max() == report["dn_star"]
        assert {report["near_max_min"], report["near_max_max"]} <= set(rows[:, 0])
        d_lim = limit_D(rows[:, 0], ChangePointSchedule.single(6.0, 1.0, 0.5), 0.1)
        assert d_lim.tobytes() == rows[:, 2].tobytes()


def test_estimate_writes_a_short_dn_curve_whole(tmp_path):
    traj = tmp_path / "traj.csv"
    _hashed_trajectory(traj, 2200, 0.4, 0.8)
    out = tmp_path / "est"
    assert _run("estimate", "--out", str(out), "--trajectory", str(traj), *SINGLE) == 0
    curve = dn_curve(read_trajectory_csv(traj), 0.1)
    assert len(curve.ts) == 1980 <= DN_CSV_ROWS
    whole = tmp_path / "whole.csv"
    write_dn_csv(curve, whole, limit_D(curve.ts, ChangePointSchedule.single(6.0, 1.0, 0.5), 0.1))
    assert (out / "dn_curve_000.csv").read_bytes() == whole.read_bytes()


def _spy_pool(monkeypatch, cpus) -> list[int]:
    """The worker counts of the pools _pool_map starts, as threads, on `cpus` reported CPUs."""
    started = []

    class Spy(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    return started


def test_pool_map_starts_no_more_workers_than_tasks(monkeypatch):
    started = _spy_pool(monkeypatch, 8)
    assert _pool_map(abs, [-1], 4) == [1]
    assert _pool_map(abs, [-1, -2, -3], 2) == [1, 2, 3]
    assert _pool_map(abs, [-1, -2], 8) == [1, 2]
    assert started == [2, 2]


def test_pool_map_starts_no_more_workers_than_cpus(monkeypatch):
    started = _spy_pool(monkeypatch, 3)
    assert _pool_map(abs, [-1, -2, -3, -4, -5], 5000) == [1, 2, 3, 4, 5]
    assert _pool_map(abs, [-1, -2], 5000) == [1, 2]
    assert started == [3, 2]
    unknown = _spy_pool(monkeypatch, None)  # os.cpu_count() may not know: one process
    assert _pool_map(abs, [-1, -2, -3], 4) == [1, 2, 3]
    assert unknown == []


def _die_on_one(x):
    """A pool task whose process SIGKILLs itself on task 1, as the out-of-memory killer would."""
    if x == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return x


def _simulate_rep_dies_on_one(cfg, schedule, out_dir, stream):
    (out_dir / f"partial_{stream}.csv").write_text("m\r\n")
    _die_on_one(stream)


def test_pool_map_turns_a_dead_worker_into_an_oserror(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a pool even on one CPU: never kill pytest
    with pytest.raises(OSError, match="worker process died"):
        _pool_map(_die_on_one, [0, 1], 2)


def test_a_dead_worker_exits_2_with_one_error_line(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr("pact.cli._simulate_rep", _simulate_rep_dies_on_one)
    out = tmp_path / "never"
    assert _run("simulate", "--n", "100", "--reps", "2", "--threads", "2", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: \S.*\n", err)
    assert not out.exists()


def test_import_loads_no_process_pool():
    code = ("import sys, pact.cli; "
            "print([m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules])")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert result.stdout.strip() == "[]"


def test_import_loads_no_scipy():
    code = "import sys, pact.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert result.stdout.strip() == "[]"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_import_starts_no_blas_thread():
    # pytest's own os.environ holds the variable once any test has imported pact.cli
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    code = "import os, pact.cli; print(len(os.listdir('/proc/self/task')))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True, env=env)
    assert result.stdout.strip() == "1"
    code = "import os, pact.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True, env={**env, "OPENBLAS_NUM_THREADS": "2"})
    assert result.stdout.strip() == "2"


def test_estimate_requires_trajectory(tmp_path):
    assert _run("estimate", "--out", str(tmp_path / "x")) == 2


def test_fclt_outputs(tmp_path):
    out = tmp_path / "fclt"
    assert _run("fclt", "--out", str(out), "--n", "2000", "--reps", "8",
                "--alpha", "6", "--beta", "1", "--gamma", "0.5",
                "--upsilon-reps", "16") == 0
    with open(out / "gn_moments.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["t"] for r in rows] == ["0.25", "0.5", "0.75", "1.0"]
    assert all(float(r["target_var"]) > 0 for r in rows)
    z_lines = (out / "upsilon_z.csv").read_text().splitlines()
    assert len(z_lines) == 17
    assert hashlib.sha256((out / "gn_moments.csv").read_bytes()).hexdigest()[:16] == (
        "05365403e538d645")
    assert hashlib.sha256((out / "upsilon_z.csv").read_bytes()).hexdigest()[:16] == (
        "a95208ccef613a8d")


def test_fclt_pool_matches_serial(tmp_path):
    # 40 tasks on 2 workers go out in chunks of 2
    base = ["fclt", "--n", "2000", "--reps", "40", "--upsilon-reps", "20", "--seed", "8", *SINGLE]
    serial, pooled = tmp_path / "serial", tmp_path / "pooled"
    assert _run(*base, "--out", str(serial), "--threads", "1") == 0
    assert _run(*base, "--out", str(pooled), "--threads", "2") == 0
    assert _hashes(serial) == _hashes(pooled)
    assert set(_hashes(pooled)) == {"gn_moments.csv", "upsilon_z.csv"}


def test_fclt_defaults_to_no_change_point(tmp_path):
    out = tmp_path / "fclt"
    assert _run("fclt", "--out", str(out), "--alpha", "1", "--n", "2000", "--reps", "4") == 0
    assert hashlib.sha256((out / "gn_moments.csv").read_bytes()).hexdigest()[:16] == (
        "9b4ece910976d5a1")
    assert not (out / "upsilon_z.csv").exists()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_fclt_grows_no_tree(tmp_path, monkeypatch, threads):
    # fclt reads each tree's leaf counts from its draws; growing trees would still give
    # the pinned bytes, only slower, so a spy is what keeps that path from coming back
    def refuse(*args, **kwargs):
        raise AssertionError("fclt called grow_tree")

    monkeypatch.setattr("pact.cli.grow_tree", refuse)
    runs = {"05365403e538d645": ["--alpha", "6", "--beta", "1", "--gamma", "0.5",
                                 "--reps", "8", "--upsilon-reps", "16"],
            "9b4ece910976d5a1": ["--alpha", "1", "--reps", "4"]}
    for pin, argv in runs.items():
        out = tmp_path / pin
        assert _run("fclt", "--out", str(out), "--n", "2000", "--threads", threads, *argv) == 0
        assert hashlib.sha256((out / "gn_moments.csv").read_bytes()).hexdigest()[:16] == pin


def test_fclt_limits_and_estimate_run_at_two_change_points(tmp_path):
    schedule = ChangePointSchedule(alpha=4.0, segments=((0.3, 1.0), (0.7, 2.0)))
    out = tmp_path / "fclt"
    assert _run("fclt", "--out", str(out), *TWO, "--n", "2000", "--reps", "8") == 0
    assert set(_hashes(out)) == {"gn_moments.csv"}  # upsilon_z.csv is one change point only
    with open(out / "gn_moments.csv") as fh:
        target = [float(r["target_var"]) for r in csv.DictReader(fh)]
    assert len(target) == 4 and all(np.isfinite(v) and v > 0 for v in target)

    out = tmp_path / "limits"
    assert _run("limits", "--out", str(out), *TWO, "--draws", "2000") == 0
    assert {"leaf_curve.csv", "d_limit.csv", "d_theta_pmf.csv"} <= set(_hashes(out))

    sim, out = tmp_path / "sim", tmp_path / "est"
    assert _run("simulate", "--out", str(sim), "--n", "3000", "--no-trees", *TWO) == 0
    assert _run("estimate", "--out", str(out), "--trajectory", str(sim / "trajectory_r000.csv"),
                *TWO) == 0
    rows = _dn_rows(out / "dn_curve_000.csv")
    assert rows[:, 2].tobytes() == limit_D(rows[:, 0], schedule, 0.1).tobytes()


def test_maxdeg_outputs(tmp_path):
    out = tmp_path / "md"
    assert _run("maxdeg", "--out", str(out), "--reps", "4", "--alpha", "0",
                "--n", "500", "--n", "1000") == 0
    with open(out / "maxdeg.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    assert {r["n"] for r in rows} == {"500", "1000"}
    for r in rows:
        assert float(r["scaled"]) == pytest.approx(
            int(r["max_degree"]) / np.sqrt(int(r["n"])), rel=1e-12
        )


def test_maxdeg_pool_matches_serial(tmp_path, capsys):
    base = ["maxdeg", "--reps", "5", "--alpha", "6", "--beta", "1", "--gamma", "0.5",
            "--n", "300", "--n", "600", "--n", "300", "--seed", "9"]
    serial, pooled = tmp_path / "serial", tmp_path / "pooled"
    assert _run(*base, "--out", str(serial), "--threads", "1") == 0
    printed = capsys.readouterr().out
    assert _run(*base, "--out", str(pooled), "--threads", "2") == 0
    assert capsys.readouterr().out.replace("pooled", "serial") == printed
    assert _hashes(serial) == _hashes(pooled)
    manifest = json.loads((pooled / "manifest.json").read_text())
    assert [s["stream_id"] for s in manifest["seeds"]] == list(range(15))
    with open(pooled / "maxdeg.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["n"], r["rep"]) for r in rows] == [
        (str(n), str(rep)) for n in (300, 600, 300) for rep in range(5)]
    # the repeated size draws its own streams
    assert [r["max_degree"] for r in rows[:5]] != [r["max_degree"] for r in rows[10:]]


def test_maxdeg_scales_by_pre_change_exponent(tmp_path):
    out = tmp_path / "md"
    assert _run("maxdeg", "--out", str(out), "--reps", "3", "--alpha", "6",
                "--n", "200", "--n", "400") == 0
    with open(out / "maxdeg.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    for r in rows:  # M_n grows like n^(1/(2+alpha))
        assert float(r["scaled"]) == pytest.approx(
            int(r["max_degree"]) / int(r["n"]) ** (1 / 8), rel=1e-12
        )


def test_readme_examples_parse():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```bash\n(.*?)^```", readme, flags=re.S | re.M)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("pact ")]
    assert len(commands) == 7
    for argv in commands:
        args = build_parser().parse_args(argv)
        assert set(_merge_config(args.command, args)) == set(_DEFAULTS[args.command])
