import csv
import json

import numpy as np
import pytest

from pact.cli import main


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
    cfg.write_text(json.dumps({
        "n": 500,
        "schedule": {"alpha": 6.0, "segments": [{"gamma": 0.5, "beta": 1.0}]},
    }))
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


SINGLE = ["--alpha", "6", "--beta", "1", "--gamma", "0.5"]


@pytest.mark.parametrize("argv", [
    ["limits", *SINGLE, "--draws", "0"],
    ["limits", "--kmax", "0"],
    ["limits", "--curve-points", "0"],
    ["limits", *SINGLE, "--epsilon", "0.6"],
    ["limits", *SINGLE, "--horizon-t", "0.4"],
    ["fclt", "--reps", "0"],
    ["fclt", "--reps", "1"],
    ["fclt", "--t", "1.5"],
    ["simulate", "--checkpoint", "200", "--n", "100"],
    ["simulate", "--n", "0"],
    ["simulate", "--threads", "0"],
    ["maxdeg", "--reps", "0"],
    ["maxdeg", "--n", "1"],
    ["estimate", "--trajectory", __file__, "--epsilon", "1.5"],
])
def test_invalid_values_fail_before_side_effects(tmp_path, capsys, argv):
    out = tmp_path / "never"
    assert _run(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_maxdeg_k_is_an_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 1}))
    out = tmp_path / "never"
    assert _run("maxdeg", "--config", str(cfg), "--out", str(out)) == 2
    assert "unknown config keys" in capsys.readouterr().err
    assert not out.exists()


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
    assert not (out / "d_limit.csv").exists()  # limit curve is single-CP only


def test_estimate_on_simulated_trajectory(tmp_path):
    sim = tmp_path / "sim"
    assert _run("simulate", "--out", str(sim), "--n", "20000", "--seed", "5",
                "--alpha", "6", "--beta", "1", "--gamma", "0.5") == 0
    out = tmp_path / "est"
    assert _run("estimate", "--out", str(out),
                "--trajectory", str(sim / "trajectory_r000.csv"),
                "--alpha", "6", "--beta", "1", "--gamma", "0.5") == 0
    report = json.loads((out / "report_000.json").read_text())
    assert set(report) == {"gamma_hat", "dn_star", "detected", "epsilon", "threshold"}
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
            writer.writerow([m, m // 2])
    out = tmp_path / "est"
    assert _run("estimate", "--out", str(out), "--trajectory", str(traj)) == 0
    report = json.loads((out / "report_000.json").read_text())
    assert report["detected"] is False
    assert report["gamma_hat"] is None


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
