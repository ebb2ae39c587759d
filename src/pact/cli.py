"""Reproducible experiment harness.

One executable, five subcommands:

    simulate   grow trees, write tree/trajectory/degree-histogram artifacts
    limits     exact pmf, Monte Carlo limit-law pmf/CCDF, limit curves
    estimate   change-point reports from trajectory CSVs
    fclt       scaled leaf-count marginal moments + standardized duration sample
    maxdeg     ensemble of maximal degrees across sizes

Every run writes its artifacts plus a manifest.json (config echo, seed list,
version, wall clock, output digests) into --out.  Configuration comes from an
optional JSON file (--config) with per-key overrides from flags; flags win.
Re-running with the same merged config reproduces byte-identical CSVs.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .estimator import EstimatorConfig, dn_curve, gamma_hat, limit_D, write_dn_csv, write_report_json
from .embedding import upsilon_clt_sample, write_zsample_csv
from .generator import (
    RecordFlags,
    degree_histogram,
    grow_tree,
    save_tree,
    top_k_degrees,
    write_edge_csv,
    write_histogram_csv,
)
from .leaf_process import (
    gn_path,
    read_trajectory_csv,
    variance_gn,
    write_curve_csv,
    write_trajectory_csv,
)
from .limit_laws import (
    ccdf_from_samples,
    p_alpha_table,
    sample_d_theta,
    sample_d_theta_multi,
    write_pmf_csv,
)
from .model_core import ChangePointSchedule, SeededRng, validate_schedule, write_csv

_UPSILON_STREAM_BASE = 1 << 32  # keep duration draws off the tree streams
# smallest accepted value of each count a subcommand reads from its config
_MINIMUM = {"n": 2, "reps": 1, "threads": 1, "draws": 1, "kmax": 1, "curve_points": 1,
            "upsilon_reps": 1}


@dataclass
class RunManifest:
    """Audit record for one run; re-running the same manifest config reproduces outputs."""

    subcommand: str
    config: dict
    seeds: list[dict]
    tool_version: str = __version__
    wall_clock_s: float = 0.0
    outputs: dict = field(default_factory=dict)

    def write(self, out_dir: Path) -> None:
        path = out_dir / "manifest.json"
        with open(path, "w", newline="\n") as fh:
            json.dump(
                {
                    "subcommand": self.subcommand,
                    "config": self.config,
                    "seeds": self.seeds,
                    "tool_version": self.tool_version,
                    "wall_clock_s": self.wall_clock_s,
                    "outputs": self.outputs,
                },
                fh,
                indent=2,
                sort_keys=True,
            )
            fh.write("\n")


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return "sha256:" + h.hexdigest()


_DEFAULTS: dict[str, dict] = {
    "simulate": {"n": 10000, "reps": 1, "seed": 42, "threads": 1, "alpha": 1.0,
                 "beta": [], "gamma": [], "save_trees": True, "edges": False,
                 "checkpoints": []},
    "limits": {"seed": 42, "alpha": 1.0, "beta": [], "gamma": [], "draws": 100000,
               "horizon_t": 1.0, "kmax": 200, "curve_points": 200, "epsilon": 0.1},
    "estimate": {"epsilon": 0.1, "trajectories": [], "alpha": None, "beta": [],
                 "gamma": []},
    "fclt": {"n": 10000, "reps": 200, "seed": 42, "threads": 1, "alpha": 6.0,
             "beta": [1.0], "gamma": [0.5], "t_grid": [0.25, 0.5, 0.75, 1.0],
             "upsilon_reps": 200},
    "maxdeg": {"reps": 50, "seed": 42, "threads": 1, "alpha": 0.0, "beta": [],
               "gamma": [], "n_list": [10000, 100000]},
}


def _merge_config(command: str, args: argparse.Namespace) -> dict:
    merged = dict(_DEFAULTS[command])
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        unknown = set(file_cfg) - set(merged) - {"schedule"}
        if unknown:
            raise ValueError(f"unknown config keys for {command}: {sorted(unknown)}")
        if "schedule" in file_cfg:
            sched = ChangePointSchedule.from_json(file_cfg.pop("schedule"))
            merged["alpha"] = sched.alpha
            merged["gamma"] = [s.gamma for s in sched.segments]
            merged["beta"] = [s.beta for s in sched.segments]
        merged.update(file_cfg)
    for key in merged:
        value = getattr(args, key, None)
        if value is not None and value != []:
            merged[key] = value
    return merged


def _schedule_from(cfg: dict) -> ChangePointSchedule:
    betas = cfg.get("beta") or []
    gammas = cfg.get("gamma") or []
    if len(betas) != len(gammas):
        raise ValueError(f"need matching --beta/--gamma counts, got {len(betas)}/{len(gammas)}")
    schedule = ChangePointSchedule(
        alpha=float(cfg["alpha"]), segments=tuple(zip(gammas, betas))
    )
    return validate_schedule(schedule)


def _pool_map(fn, tasks, threads: int):
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]


# ---------------------------------------------------------------- simulate

def _simulate_rep(task: tuple) -> list[str]:
    sched_json, n, seed, stream, save_trees, edges, checkpoints, out = task
    schedule = ChangePointSchedule.from_json(sched_json)
    rng = SeededRng(seed, stream)
    record = RecordFlags(leaves=True, degree_checkpoints=tuple(checkpoints))
    tree = grow_tree(schedule, n, rng, record)
    out_dir = Path(out)
    written = []
    tag = f"r{stream:03d}"
    if save_trees:
        path = out_dir / f"tree_{tag}.pact"
        save_tree(tree, path)
        written.append(path.name)
    traj_path = out_dir / f"trajectory_{tag}.csv"
    write_trajectory_csv(tree.leaf_trajectory, traj_path)
    written.append(traj_path.name)
    hist_path = out_dir / f"degree_hist_{tag}.csv"
    write_histogram_csv(degree_histogram(tree), hist_path)
    written.append(hist_path.name)
    for m, hist in tree.degree_snapshots.items():
        p = out_dir / f"degree_hist_{tag}_m{m}.csv"
        write_histogram_csv(hist, p)
        written.append(p.name)
    if edges:
        p = out_dir / f"edges_{tag}.csv"
        write_edge_csv(tree, p)
        written.append(p.name)
    return written


def cmd_simulate(cfg: dict, out_dir: Path) -> list[dict]:
    schedule = _schedule_from(cfg)
    n, reps, seed = int(cfg["n"]), int(cfg["reps"]), int(cfg["seed"])
    tasks = [
        (schedule.to_json(), n, seed, rep, bool(cfg["save_trees"]), bool(cfg["edges"]),
         list(cfg["checkpoints"]), str(out_dir))
        for rep in range(reps)
    ]
    _pool_map(_simulate_rep, tasks, int(cfg["threads"]))
    return [{"seed": seed, "stream_id": rep} for rep in range(reps)]


# ---------------------------------------------------------------- limits

def cmd_limits(cfg: dict, out_dir: Path) -> list[dict]:
    schedule = _schedule_from(cfg)
    seed = int(cfg["seed"])
    kmax = int(cfg["kmax"])
    table = p_alpha_table(schedule.alpha, kmax)
    write_pmf_csv(range(1, kmax + 1), table[1:], out_dir / "p_alpha_pmf.csv")

    ts = np.linspace(1.0 / int(cfg["curve_points"]), 1.0, int(cfg["curve_points"]))
    if schedule.num_change_points <= 1:
        write_curve_csv(schedule, ts, out_dir / "leaf_curve.csv")

    if schedule.num_change_points >= 1:
        rng = SeededRng(seed, 0)
        draws = int(cfg["draws"])
        if schedule.num_change_points == 1:
            batch = sample_d_theta(schedule, rng, draws, horizon=float(cfg["horizon_t"]))
        else:
            batch = sample_d_theta_multi(schedule, rng, draws)
        write_pmf_csv(range(1, kmax + 1), batch.pmf(kmax)[1:], out_dir / "d_theta_pmf.csv")
        ks, cc = ccdf_from_samples(batch.values)
        write_pmf_csv(ks, cc, out_dir / "d_theta_ccdf.csv")

    if schedule.num_change_points == 1:
        eps = float(cfg["epsilon"])
        grid = np.linspace(eps, 1.0, int(cfg["curve_points"]))
        dvals = np.asarray(limit_D(grid, schedule, eps))
        write_csv(out_dir / "d_limit.csv", ["t", "d"], [grid, dvals])
    return [{"seed": seed, "stream_id": 0}]


# ---------------------------------------------------------------- estimate

def cmd_estimate(cfg: dict, out_dir: Path) -> list[dict]:
    trajectories = cfg["trajectories"]
    schedule = None
    if cfg.get("alpha") is not None and cfg.get("gamma"):
        schedule = _schedule_from(cfg)
    config = EstimatorConfig(epsilon=float(cfg["epsilon"])).validate()
    rows = []
    for i, traj_path in enumerate(trajectories):
        traj = read_trajectory_csv(traj_path)
        curve = dn_curve(traj, config)
        report = gamma_hat(curve, config)
        d_lim = None
        if schedule is not None and schedule.num_change_points == 1:
            d_lim = np.asarray(limit_D(curve.ts, schedule, config.epsilon))
        tag = f"{i:03d}"
        write_report_json(report, out_dir / f"report_{tag}.json")
        write_dn_csv(curve, out_dir / f"dn_curve_{tag}.csv", d_lim)
        rows.append((Path(traj_path).name, "" if report.gamma_hat is None else report.gamma_hat,
                     report.dn_star, int(report.detected)))
    write_csv(out_dir / "gamma_hats.csv", ["file", "gamma_hat", "dn_star", "detected"],
              list(zip(*rows)))
    return []


# ---------------------------------------------------------------- fclt

def _fclt_rep(task: tuple) -> list[float]:
    sched_json, n, seed, stream, t_grid = task
    schedule = ChangePointSchedule.from_json(sched_json)
    tree = grow_tree(schedule, n, SeededRng(seed, stream), RecordFlags(leaves=True))
    return list(gn_path(tree.leaf_trajectory, schedule, t_grid))


def cmd_fclt(cfg: dict, out_dir: Path) -> list[dict]:
    schedule = _schedule_from(cfg)
    n, reps, seed = int(cfg["n"]), int(cfg["reps"]), int(cfg["seed"])
    t_grid = [float(t) for t in cfg["t_grid"]]
    tasks = [(schedule.to_json(), n, seed, rep, t_grid) for rep in range(reps)]
    rows = np.asarray(_pool_map(_fclt_rep, tasks, int(cfg["threads"])))

    moments = [
        (t, float(rows[:, j].mean()), float(rows[:, j].var(ddof=1)), variance_gn(t, schedule), reps)
        for j, t in enumerate(t_grid)
    ]
    write_csv(out_dir / "gn_moments.csv", ["t", "mean_gn", "var_gn", "target_var", "reps"],
              list(zip(*moments)))

    seeds = [{"seed": seed, "stream_id": rep} for rep in range(reps)]
    if schedule.num_change_points == 1:
        ups_reps = int(cfg["upsilon_reps"])
        z = upsilon_clt_sample(schedule, n, ups_reps, SeededRng(seed, _UPSILON_STREAM_BASE))
        write_zsample_csv(z, out_dir / "upsilon_z.csv")
        seeds.append({"seed": seed, "stream_id": _UPSILON_STREAM_BASE})
    return seeds


# ---------------------------------------------------------------- maxdeg

def _maxdeg_rep(task: tuple) -> int:
    sched_json, n, seed, stream = task
    schedule = ChangePointSchedule.from_json(sched_json)
    tree = grow_tree(schedule, n, SeededRng(seed, stream))
    return int(top_k_degrees(tree, 1)[0])


def cmd_maxdeg(cfg: dict, out_dir: Path) -> list[dict]:
    schedule = _schedule_from(cfg)
    reps, seed = int(cfg["reps"]), int(cfg["seed"])
    n_list = [int(n) for n in cfg["n_list"]]
    exponent = (1.0 + schedule.alpha) / (2.0 + schedule.alpha)
    seeds, rows = [], []
    for ni, n in enumerate(n_list):
        tasks = [(schedule.to_json(), n, seed, ni * reps + rep) for rep in range(reps)]
        m1s = _pool_map(_maxdeg_rep, tasks, int(cfg["threads"]))
        scaled = [m1 / n**exponent for m1 in m1s]
        rows += zip([n] * reps, range(reps), m1s, scaled)
        seeds += [{"seed": seed, "stream_id": ni * reps + rep} for rep in range(reps)]
        print(f"n={n}: median scaled max degree = {float(np.median(scaled)):.4f}")
    write_csv(out_dir / "maxdeg.csv", ["n", "rep", "max_degree", "scaled"], list(zip(*rows)))
    return seeds


# ---------------------------------------------------------------- driver

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pact", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="base seed (u64)")
        p.add_argument("--reps", type=int, default=None, help="ensemble replications")
        p.add_argument("--threads", type=int, default=None, help="worker pool size")
        p.add_argument("--out", type=str, required=True, help="output directory")
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--beta", type=float, action="append", default=None,
                       help="post-change offset (repeat for multiple change points)")
        p.add_argument("--gamma", type=float, action="append", default=None,
                       help="change-point fraction (repeat for multiple change points)")

    p = sub.add_parser("simulate", help="grow trees and record statistics")
    common(p)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--no-trees", dest="save_trees", action="store_false", default=None)
    p.add_argument("--edges", action="store_true", default=None)
    p.add_argument("--checkpoint", dest="checkpoints", type=int, action="append", default=None,
                   help="record a degree histogram at this size (repeatable)")

    p = sub.add_parser("limits", help="limit-law tables and curves")
    common(p)
    p.add_argument("--draws", type=int, default=None)
    p.add_argument("--horizon-t", dest="horizon_t", type=float, default=None)
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--curve-points", dest="curve_points", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=None)

    p = sub.add_parser("estimate", help="change-point reports from trajectories")
    common(p)
    p.add_argument("--trajectory", dest="trajectories", type=str, action="append",
                   default=None, help="trajectory CSV (repeatable)")
    p.add_argument("--epsilon", type=float, default=None)

    p = sub.add_parser("fclt", help="scaled leaf-count moments and duration CLT sample")
    common(p)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--t", dest="t_grid", type=float, action="append", default=None)
    p.add_argument("--upsilon-reps", dest="upsilon_reps", type=int, default=None)

    p = sub.add_parser("maxdeg", help="maximal degree ensemble across sizes")
    common(p)
    p.add_argument("--n", dest="n_list", type=int, action="append", default=None,
                   help="tree size (repeatable)")

    return parser


_COMMANDS = {
    "simulate": cmd_simulate,
    "limits": cmd_limits,
    "estimate": cmd_estimate,
    "fclt": cmd_fclt,
    "maxdeg": cmd_maxdeg,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _merge_config(args.command, args)
        # validate the full configuration before any side effect
        for key, low in _MINIMUM.items():
            if key in cfg and int(cfg[key]) < low:
                raise ValueError(f"{key} must be >= {low}, got {cfg[key]}")
        if args.command == "estimate":
            if not cfg["trajectories"]:
                raise ValueError("estimate needs at least one --trajectory file")
            for t in cfg["trajectories"]:
                if not Path(t).is_file():
                    raise ValueError(f"trajectory file not found: {t}")
            EstimatorConfig(epsilon=float(cfg["epsilon"])).validate()
            if cfg.get("alpha") is not None and cfg.get("gamma"):
                _schedule_from(cfg)
        else:
            schedule = _schedule_from(cfg)
        if args.command == "simulate":
            bad = [m for m in cfg["checkpoints"] if not 2 <= int(m) <= int(cfg["n"])]
            if bad:
                raise ValueError(f"checkpoints must lie in 2..n = {cfg['n']}, got {bad}")
        elif args.command == "limits" and schedule.num_change_points == 1:
            gamma = schedule.gamma
            if not gamma < float(cfg["horizon_t"]) <= 1.0:
                raise ValueError(f"horizon_t must lie in ({gamma}, 1], got {cfg['horizon_t']}")
            if not 0.0 < float(cfg["epsilon"]) < gamma:
                raise ValueError(f"epsilon must lie in (0, {gamma}), got {cfg['epsilon']}")
        elif args.command == "fclt":
            if int(cfg["reps"]) < 2:
                raise ValueError(f"fclt needs reps >= 2 for var_gn, got {cfg['reps']}")
            if not all(0.0 < float(t) <= 1.0 for t in cfg["t_grid"]):
                raise ValueError(f"t must lie in (0, 1], got {cfg['t_grid']}")
        elif args.command == "maxdeg" and any(int(n) < 2 for n in cfg["n_list"]):
            raise ValueError(f"every n must be >= 2, got {cfg['n_list']}")
    except (ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    start = time.time()
    seeds = _COMMANDS[args.command](cfg, out_dir)
    manifest = RunManifest(subcommand=args.command, config=cfg, seeds=seeds)
    manifest.wall_clock_s = round(time.time() - start, 3)
    manifest.outputs = {
        p.name: _sha256(p) for p in sorted(out_dir.iterdir()) if p.name != "manifest.json"
    }
    manifest.write(out_dir)
    print(f"{args.command}: wrote {len(manifest.outputs)} artifact(s) to {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
