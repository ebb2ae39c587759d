"""Reproducible experiment harness.

One executable, five subcommands:

    simulate   grow trees, write tree/trajectory/degree-histogram artifacts
    limits     exact pmf, Monte Carlo limit-law pmf/CCDF, limit curves
    estimate   change-point reports and thinned D_n curves from trajectory CSVs
    fclt       scaled leaf-count marginal moments + standardized duration sample
    maxdeg     ensemble of maximal degrees across sizes

Every run writes its artifacts plus a manifest.json (config echo, seed list,
version, wall clock, output digests) into --out.  Configuration comes from an
optional JSON file (--config) with per-key overrides from flags; flags win.
_KEYS declares each key's flag, type and minimum once; every merged value
must have its key's JSON type.  main() checks the merged config, builds the
schedule (for estimate: the d_limit overlay and the loaded trajectories) once
and hands it to the subcommand before anything is written; a bad flag, value
or file prints one "error:" line and exits 2.  The same merged config
reproduces byte-identical CSVs.  --threads sets the worker pool size; each
subcommand defaults to 1 process and gives the same bytes with any pool size.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .estimator import (
    EstimateReport,
    dn_curve,
    gamma_hat,
    limit_D,
    thin_dn_curve,
    write_dn_csv,
    write_report_json,
)
from .embedding import upsilon_clt_sample, write_zsample_csv
from .generator import (
    degree_histogram,
    grow_tree,
    max_degree,
    save_tree,
    write_edge_csv,
    write_histogram_csv,
)
from .leaf_process import (
    LeafTrajectory,
    gn_path,
    read_trajectory_csv,
    variance_gn,
    write_curve_csv,
    write_trajectory_csv,
)
from .limit_laws import (
    ccdf_from_samples,
    p_alpha_table,
    sample_d_theta,  # unused here; bench/traced.py wraps this name on pact.cli
    sample_d_theta_multi,
    write_pmf_csv,
)
from .model_core import ChangePointSchedule, seeded_generator, write_csv

_UPSILON_STREAM_BASE = 1 << 32  # keep duration draws off the tree streams


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
    "limits": {"seed": 42, "threads": 1, "alpha": 1.0, "beta": [], "gamma": [],
               "draws": 100000, "horizon_t": 1.0, "kmax": 200, "curve_points": 200,
               "epsilon": 0.1},
    "estimate": {"epsilon": 0.1, "trajectories": [], "alpha": None, "beta": [],
                 "gamma": [], "threads": 1},
    "fclt": {"n": 10000, "reps": 200, "seed": 42, "threads": 1, "alpha": 6.0,
             "beta": [], "gamma": [], "t_grid": [0.25, 0.5, 0.75, 1.0],
             "upsilon_reps": 200},
    "maxdeg": {"reps": 50, "seed": 42, "threads": 1, "alpha": 0.0, "beta": [],
               "gamma": [], "n_list": [10000, 100000]},
}
# key -> (flag, type, smallest value, help); [type] repeats, a switch's flag flips its default
_KEYS: dict[str, tuple] = {
    "n": ("--n", int, 2, None),
    "reps": ("--reps", int, 1, "ensemble replications"),
    "seed": ("--seed", int, None, "base seed (u64)"),
    "threads": ("--threads", int, 1, "worker pool size"),
    "alpha": ("--alpha", float, None, None),
    "beta": ("--beta", [float], None, "post-change offset (repeat for multiple change points)"),
    "gamma": ("--gamma", [float], None,
              "change-point fraction (repeat for multiple change points)"),
    "save_trees": ("--no-trees", bool, None, None),
    "edges": ("--edges", bool, None, None),
    "checkpoints": ("--checkpoint", [int], 2,
                    "record a degree histogram at this size (repeatable)"),
    "draws": ("--draws", int, 1, None),
    "horizon_t": ("--horizon-t", float, None, None),
    "kmax": ("--kmax", int, 1, None),
    "curve_points": ("--curve-points", int, 1, None),
    "epsilon": ("--epsilon", float, None, None),
    "trajectories": ("--trajectory", [str], None, "trajectory CSV (repeatable)"),
    "t_grid": ("--t", [float], None, None),
    "upsilon_reps": ("--upsilon-reps", int, 1, None),
    "n_list": ("--n", [int], 2, "tree size (repeatable)"),
}
_KIND_NAMES = {int: "an integer", float: "a number", bool: "true or false", str: "a string"}


def _typed(key: str, value, kind, low):
    """value as _KEYS types it (a float key's numbers become floats), or ValueError naming key."""
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ValueError(f"{key} must be a list, got {json.dumps(value)}")
        return [_typed(key, v, kind[0], low) for v in value]
    # bool is an int to Python, but only a switch takes true or false
    if isinstance(value, bool) != (kind is bool) or not isinstance(
            value, (int, float) if kind is float else kind):
        raise ValueError(f"{key} must be {_KIND_NAMES[kind]}, got {json.dumps(value)}")
    if low is not None and value < low:
        raise ValueError(f"{key} must be >= {low}, got {value}")
    return float(value) if kind is float else value


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
    for key, default in _DEFAULTS[command].items():
        value = getattr(args, key, None)
        if value is not None and value != []:
            merged[key] = value
        if merged[key] is not None or default is not None:  # null only where it is the default
            merged[key] = _typed(key, merged[key], *_KEYS[key][1:3])
    return merged


def _schedule_from(cfg: dict) -> ChangePointSchedule:
    betas, gammas = cfg["beta"], cfg["gamma"]
    if len(betas) != len(gammas):
        raise ValueError(f"need matching --beta/--gamma counts, got {len(betas)}/{len(gammas)}")
    return ChangePointSchedule(
        alpha=cfg["alpha"], segments=tuple(zip(gammas, betas))
    )


def _pool_map(fn, tasks: list, threads: int) -> list:
    """[fn(t) for t in tasks], in order, on at most min(threads, len(tasks)) processes."""
    workers = min(threads, len(tasks))
    if workers > 1:
        # imported here: it costs every single-process run about 25 ms of start-up
        from concurrent.futures import ProcessPoolExecutor

        # under fork every worker starts up front, so start no more than there are tasks
        # tasks go out in chunks, about 8 per worker, instead of one round trip each
        chunksize = max(1, len(tasks) // (8 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, tasks, chunksize=chunksize))
    return [fn(t) for t in tasks]


# ---------------------------------------------------------------- simulate

def _simulate_rep(task: tuple) -> None:
    schedule, n, seed, stream, save_trees, edges, checkpoints, out = task
    tree = grow_tree(schedule, n, seeded_generator(seed, stream))
    out_dir = Path(out)
    tag = f"r{stream:03d}"
    if save_trees:
        save_tree(tree, out_dir / f"tree_{tag}.pact")
    write_trajectory_csv(tree.leaf_trajectory(), out_dir / f"trajectory_{tag}.csv")
    write_histogram_csv(degree_histogram(tree), out_dir / f"degree_hist_{tag}.csv")
    for m in checkpoints:
        write_histogram_csv(degree_histogram(tree, upto=m),
                            out_dir / f"degree_hist_{tag}_m{m}.csv")
    if edges:
        write_edge_csv(tree, out_dir / f"edges_{tag}.csv")


def cmd_simulate(cfg: dict, out_dir: Path, schedule: ChangePointSchedule) -> list[dict]:
    n, reps, seed = cfg["n"], cfg["reps"], cfg["seed"]
    tasks = [
        (schedule, n, seed, rep, cfg["save_trees"], cfg["edges"], cfg["checkpoints"],
         str(out_dir))
        for rep in range(reps)
    ]
    _pool_map(_simulate_rep, tasks, cfg["threads"])
    return [{"seed": seed, "stream_id": rep} for rep in range(reps)]


# ---------------------------------------------------------------- limits

def cmd_limits(cfg: dict, out_dir: Path, schedule: ChangePointSchedule) -> list[dict]:
    seed = cfg["seed"]
    kmax = cfg["kmax"]
    table = p_alpha_table(schedule.alpha, kmax)
    write_pmf_csv(range(1, kmax + 1), table[1:], out_dir / "p_alpha_pmf.csv")

    ts = np.linspace(1.0 / cfg["curve_points"], 1.0, cfg["curve_points"])
    write_curve_csv(schedule, ts, out_dir / "leaf_curve.csv")

    if schedule.num_change_points >= 1:
        batch = sample_d_theta_multi(schedule, seeded_generator(seed), cfg["draws"],
                                     cfg["horizon_t"])
        write_pmf_csv(range(1, kmax + 1), batch.pmf(kmax)[1:], out_dir / "d_theta_pmf.csv")
        ks, cc = ccdf_from_samples(batch.values)
        write_pmf_csv(ks, cc, out_dir / "d_theta_ccdf.csv")
        eps = cfg["epsilon"]
        grid = np.linspace(eps, 1.0, cfg["curve_points"])
        dvals = np.asarray(limit_D(grid, schedule, eps))
        write_csv(out_dir / "d_limit.csv", ["t", "d"], [grid, dvals])
    return [{"seed": seed, "stream_id": 0}]


# ---------------------------------------------------------------- estimate

def _estimate_task(task: tuple) -> EstimateReport:
    """Estimate one trajectory; write its report_<tag>.json and thinned dn_curve_<tag>.csv."""
    traj, epsilon, overlay, out_dir, tag = task
    curve = dn_curve(traj, epsilon)
    report = gamma_hat(curve)
    curve = thin_dn_curve(curve, report)  # the estimate reads every step; the file a slice
    d_lim = None
    if overlay is not None:
        d_lim = np.asarray(limit_D(curve.ts, overlay, epsilon))
    write_report_json(report, out_dir / f"report_{tag}.json")
    write_dn_csv(curve, out_dir / f"dn_curve_{tag}.csv", d_lim)
    return report


def _overlay(cfg: dict) -> ChangePointSchedule | None:
    """estimate's d_limit schedule: None unless alpha, beta or gamma is given, then all of them."""
    if cfg["alpha"] is None and not cfg["beta"] and not cfg["gamma"]:
        return None
    if cfg["alpha"] is None or not cfg["gamma"]:
        raise ValueError("the d_limit overlay needs alpha and at least one beta/gamma pair")
    return _schedule_from(cfg)


def cmd_estimate(cfg: dict, out_dir: Path, overlay: ChangePointSchedule | None,
                 trajectories: list[LeafTrajectory]) -> list[dict]:
    """Estimate on the trajectories main() loaded from cfg["trajectories"], one pool task each."""
    epsilon = cfg["epsilon"]
    tasks = [(traj, epsilon, overlay, out_dir, f"{i:03d}") for i, traj in enumerate(trajectories)]
    reports = _pool_map(_estimate_task, tasks, cfg["threads"])
    rows = [(Path(traj_path).name, "" if r.gamma_hat is None else r.gamma_hat, r.dn_star,
             int(r.detected)) for traj_path, r in zip(cfg["trajectories"], reports)]
    write_csv(out_dir / "gamma_hats.csv", ["file", "gamma_hat", "dn_star", "detected"],
              list(zip(*rows)))
    return []


# ---------------------------------------------------------------- fclt

def _fclt_task(task: tuple):
    """One tree's G_n path on the t grid, or, when ups_reps is set, the duration sample."""
    schedule, n, seed, stream, t_grid, ups_reps = task
    if ups_reps:
        return upsilon_clt_sample(schedule, n, ups_reps, seeded_generator(seed, stream))
    tree = grow_tree(schedule, n, seeded_generator(seed, stream))
    return list(gn_path(tree, schedule, t_grid))


def cmd_fclt(cfg: dict, out_dir: Path, schedule: ChangePointSchedule) -> list[dict]:
    n, reps, seed = cfg["n"], cfg["reps"], cfg["seed"]
    t_grid = cfg["t_grid"]
    tasks = [(schedule, n, seed, rep, t_grid, 0) for rep in range(reps)]
    seeds = [{"seed": seed, "stream_id": rep} for rep in range(reps)]
    sample_z = schedule.num_change_points == 1
    if sample_z:
        # first in the pool, so one worker draws it while the others grow trees
        tasks.insert(0, (schedule, n, seed, _UPSILON_STREAM_BASE, None,
                         cfg["upsilon_reps"]))
        seeds.append({"seed": seed, "stream_id": _UPSILON_STREAM_BASE})
    results = _pool_map(_fclt_task, tasks, cfg["threads"])
    if sample_z:
        write_zsample_csv(results.pop(0), out_dir / "upsilon_z.csv")
    rows = np.asarray(results)

    moments = [
        (t, float(rows[:, j].mean()), float(rows[:, j].var(ddof=1)), variance_gn(t, schedule), reps)
        for j, t in enumerate(t_grid)
    ]
    write_csv(out_dir / "gn_moments.csv", ["t", "mean_gn", "var_gn", "target_var", "reps"],
              list(zip(*moments)))
    return seeds


# ---------------------------------------------------------------- maxdeg

def _maxdeg_rep(task: tuple) -> int:
    schedule, n, seed, stream = task
    tree = grow_tree(schedule, n, seeded_generator(seed, stream))
    return max_degree(tree)


def cmd_maxdeg(cfg: dict, out_dir: Path, schedule: ChangePointSchedule) -> list[dict]:
    reps, seed = cfg["reps"], cfg["seed"]
    n_list = cfg["n_list"]
    exponent = 1.0 / (2.0 + schedule.alpha)  # M_n grows like n^(1/(2+alpha))
    # one pool for every size: stream ni * reps + rep is size ni's rep-th tree
    tasks = [(schedule, n, seed, ni * reps + rep)
             for ni, n in enumerate(n_list) for rep in range(reps)]
    m1s = _pool_map(_maxdeg_rep, tasks, cfg["threads"])
    rows = []
    for ni, n in enumerate(n_list):
        size_m1s = m1s[ni * reps : (ni + 1) * reps]
        scaled = [m1 / n**exponent for m1 in size_m1s]
        rows += zip([n] * reps, range(reps), size_m1s, scaled)
        print(f"n={n}: median scaled max degree = {float(np.median(scaled)):.4f}")
    write_csv(out_dir / "maxdeg.csv", ["n", "rep", "max_degree", "scaled"], list(zip(*rows)))
    return [{"seed": seed, "stream_id": task[3]} for task in tasks]


# ---------------------------------------------------------------- driver

def _fail(message: str):
    """Every parser's error: main() prints it as one line and exits 2."""
    raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pact", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.error = _fail
    sub = parser.add_subparsers(dest="command", required=True)
    for command, summary in _SUMMARIES.items():
        p = sub.add_parser(command, help=summary)
        p.error = _fail
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--out", type=str, required=True, help="output directory")
        for key, default in _DEFAULTS[command].items():
            flag, kind, _, help_text = _KEYS[key]
            how = ({"action": "store_false" if default else "store_true"} if kind is bool else
                   {"type": kind[0], "action": "append"} if isinstance(kind, list) else
                   {"type": kind})
            p.add_argument(flag, dest=key, default=None, help=help_text, **how)
    return parser


_SUMMARIES = {
    "simulate": "grow trees and record statistics",
    "limits": "limit-law tables and curves",
    "estimate": "change-point reports from trajectories",
    "fclt": "scaled leaf-count moments and duration CLT sample",
    "maxdeg": "maximal degree ensemble across sizes",
}
_COMMANDS = {
    "simulate": cmd_simulate,
    "limits": cmd_limits,
    "estimate": cmd_estimate,
    "fclt": cmd_fclt,
    "maxdeg": cmd_maxdeg,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = _merge_config(args.command, args)
        # validate the full configuration before any side effect
        if args.command == "estimate":
            if not cfg["trajectories"]:
                raise ValueError("estimate needs at least one --trajectory file")
            schedule = _overlay(cfg)
            inputs = {"overlay": schedule}
        else:
            schedule = _schedule_from(cfg)
            inputs = {"schedule": schedule}
        if "epsilon" in cfg:  # limits and estimate: d_limit needs 0 < epsilon < gamma_1
            upper = schedule.segments[0].gamma if schedule and schedule.segments else 1
            if not 0.0 < cfg["epsilon"] < upper:
                raise ValueError(f"epsilon must lie in (0, {upper}), got {cfg['epsilon']}")
        if args.command == "estimate":
            for t in cfg["trajectories"]:
                if not Path(t).is_file():
                    raise ValueError(f"trajectory file not found: {t}")
            inputs["trajectories"] = [read_trajectory_csv(t) for t in cfg["trajectories"]]
        elif args.command == "simulate":
            bad = [m for m in cfg["checkpoints"] if m > cfg["n"]]
            if bad:
                raise ValueError(f"checkpoints must be <= n = {cfg['n']}, got {bad}")
        elif args.command == "limits" and schedule.segments:
            last = schedule.segments[-1].gamma
            if not last < cfg["horizon_t"] <= 1.0:
                raise ValueError(f"horizon_t must lie in ({last}, 1], got {cfg['horizon_t']}")
        elif args.command == "fclt":
            if cfg["reps"] < 2:
                raise ValueError(f"fclt needs reps >= 2 for var_gn, got {cfg['reps']}")
            if not all(0.0 < t <= 1.0 for t in cfg["t_grid"]):
                raise ValueError(f"t must lie in (0, 1], got {cfg['t_grid']}")
    except (ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    start = time.time()
    seeds = _COMMANDS[args.command](cfg, out_dir, **inputs)
    wall_clock_s = round(time.time() - start, 3)
    outputs = {
        p.name: _sha256(p) for p in sorted(out_dir.iterdir()) if p.name != "manifest.json"
    }
    # the audit record; re-running its config reproduces every output
    with open(out_dir / "manifest.json", "w", newline="\n") as fh:
        json.dump({"subcommand": args.command, "config": cfg, "seeds": seeds,
                   "tool_version": __version__, "wall_clock_s": wall_clock_s,
                   "outputs": outputs}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{args.command}: wrote {len(outputs)} artifact(s) to {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
