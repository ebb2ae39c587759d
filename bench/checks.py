"""Output checks behind `failed_frac`: manifest digests and artifact invariants.

Digests are compared between repeats of one config within a run, never
against golden values, because the RNG stream layout may change on purpose
between commits.
"""
from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

from pact.generator import DegreeHistogram, load_tree
from pact.leaf_process import LeafTrajectory

from workloads import Workload


class CheckFailed(Exception):
    """An artifact or manifest that a correct run would not produce."""


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return "sha256:" + h.hexdigest()


def verify_manifest(out_dir: Path) -> dict[str, str]:
    """The manifest's artifact digests, after checking each against its file."""
    try:
        outputs = json.loads((out_dir / "manifest.json").read_text())["outputs"]
    except (OSError, ValueError, KeyError) as exc:
        raise CheckFailed(f"{out_dir.name}: unreadable manifest: {exc}") from exc
    on_disk = {p.name for p in out_dir.iterdir() if p.name != "manifest.json"}
    if on_disk != set(outputs):
        raise CheckFailed(f"{out_dir.name}: manifest lists {sorted(outputs)}, "
                          f"directory holds {sorted(on_disk)}")
    for name, digest in outputs.items():
        if sha256(out_dir / name) != digest:
            raise CheckFailed(f"{out_dir.name}/{name}: digest does not match the manifest")
    return outputs


def _finite(path: Path, rows: int | None = None) -> np.ndarray:
    """Numeric CSV body (header skipped) as a 2-D float array; every value must be finite."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if rows is not None and data.shape[0] != rows:
        raise CheckFailed(f"{path.name}: {data.shape[0]} rows, expected {rows}")
    if not np.all(np.isfinite(data)):
        raise CheckFailed(f"{path.name}: non-finite value")
    return data


def _histogram(path: Path, n: int) -> None:
    data = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
    counts = np.zeros(int(data[:, 0].max()) + 1, dtype=np.int64)
    counts[data[:, 0]] = data[:, 1]
    DegreeHistogram(counts=counts, n=n).check_invariants()


def _check_simulate(w: Workload, out: Path) -> None:
    n = w.sizes["n"]
    tree = load_tree(out / "tree_r000.pact")  # load_tree does not validate; we do
    if tree.n != n:
        raise CheckFailed(f"tree has {tree.n} vertices, expected {n}")
    tree.check_invariants()
    traj = np.loadtxt(out / "trajectory_r000.csv", delimiter=",", skiprows=1, dtype=np.int64)
    if not np.array_equal(traj[:, 0], np.arange(2, n + 1)):
        raise CheckFailed("trajectory does not cover every step m = 2..n")
    LeafTrajectory(n=n, counts=traj[:, 1]).check_invariants()
    _histogram(out / "degree_hist_r000.csv", n)
    for m in w.sizes["checkpoints"]:
        _histogram(out / f"degree_hist_r000_m{m}.csv", m)
    edges = np.loadtxt(out / "edges_r000.csv", delimiter=",", skiprows=1, dtype=np.int64)
    if not (np.array_equal(edges[:, 0], np.arange(2, n + 1))
            and np.array_equal(edges[:, 1], tree.parent[2:])):
        raise CheckFailed("edge list disagrees with the saved tree")


def _check_fclt(w: Workload, out: Path) -> None:
    _finite(out / "gn_moments.csv")
    _finite(out / "upsilon_z.csv", rows=w.sizes["upsilon_reps"])


def _check_estimate(w: Workload, out: Path) -> None:
    files = w.sizes["files"]
    with open(out / "gamma_hats.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != files:
        raise CheckFailed(f"gamma_hats.csv has {len(rows)} rows for {files} inputs")
    for i in range(files):
        report = json.loads((out / f"report_{i:03d}.json").read_text())
        if not np.isfinite(report["dn_star"]):
            raise CheckFailed(f"report_{i:03d}.json: non-finite dn_star")
        _finite(out / f"dn_curve_{i:03d}.csv")


def _check_limits(w: Workload, out: Path) -> None:
    for name in ("p_alpha_pmf.csv", "d_theta_pmf.csv", "d_theta_ccdf.csv"):
        p = _finite(out / name)[:, 1]
        if np.any(p < 0.0) or np.any(p > 1.0):
            raise CheckFailed(f"{name}: probability outside [0, 1]")
    _finite(out / "leaf_curve.csv", rows=w.sizes["curve_points"])
    _finite(out / "d_limit.csv", rows=w.sizes["curve_points"])


_CHECKS = {
    "simulate": _check_simulate,
    "fclt": _check_fclt,
    "estimate": _check_estimate,
    "limits": _check_limits,
}


def check_artifacts(w: Workload, out: Path) -> None:
    """Invariants the model guarantees for this workload's artifacts; raises CheckFailed."""
    try:
        _CHECKS[w.command](w, out)
    except (AssertionError, OSError, ValueError, KeyError, IndexError) as exc:
        raise CheckFailed(f"{w.name}: {type(exc).__name__}: {exc}") from exc
