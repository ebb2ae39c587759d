"""Reproducible experiment harness.

One executable, five subcommands:

    simulate   grow trees, write tree/trajectory/degree-histogram artifacts
    limits     exact pmf, Monte Carlo limit-law pmf/CCDF, limit curves
    estimate   change-point reports and thinned D_n curves from trajectory CSVs
    fclt       scaled leaf-count marginal moments + standardized duration sample
    maxdeg     ensemble of maximal degrees across sizes

Every run writes its artifacts plus a manifest.json (config echo, seed list,
version, wall clock, output digests) into --out, which must be new or empty.
Configuration comes from an optional JSON file (--config), one object keyed
like the manifest's config echo with no key twice, with per-key overrides
from flags; flags win.  _KEYS declares each key's flag, type and minimum
once; every merged value must have its key's JSON type, a float key's value
must be finite and an integer key's, seed aside, at most 2^53.  main()
checks the merged config, builds the schedule (for estimate: the d_limit
overlay, or None) once, loads estimate's trajectories and hands them to the
subcommand before anything is written; a bad flag, value or file prints one
"error:" line and exits 2.  A run that fails later with a ValueError,
MemoryError or OSError (say, an array too large to allocate) removes what it
wrote and exits the same way.  The same merged config reproduces
byte-identical CSVs.  simulate, fclt and maxdeg run their replicates on up to
--threads workers, never more than there are tasks or CPUs, and give the
same bytes with any pool size; limits and estimate run in one process and
only record --threads, which defaults to 1 everywhere.  Unless the
environment sets OPENBLAS_NUM_THREADS, the CLI sets it to 1 before numpy
loads: no command makes a BLAS call, and OpenBLAS's idle worker threads
would only spin.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import time
from functools import partial
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # no command calls BLAS; skip its thread pool

import numpy as np

from . import __version__
from .estimator import (
    dn_curve,
    gamma_hat,
    limit_D,
    thin_dn_curve,
    write_dn_csv,
    write_report_json,
)
from .generator import (
    DegreeHistogram,
    degree_histogram,
    grow_tree,
    leaf_counts,
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
    ccdf_from_samples,  # bench/traced.py wraps this name on pact.cli; no command calls it
    d_theta_blocks,
    p_alpha_table,
    sample_d_theta_multi,  # bench/traced.py wraps this name on pact.cli; no command calls it
    upsilon_clt_sample,
    write_pmf_csv,
    write_zsample_csv,
)
from .model_core import _MAX_OFFSET, ChangePointSchedule, seeded_generator, write_csv

sample_d_theta = sample_d_theta_multi  # bench/traced.py wraps this alias on pact.cli too

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
               "draws": 100000, "kmax": 200, "curve_points": 200, "epsilon": 0.1},
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
    if kind is float and not abs(value) <= sys.float_info.max:  # NaN, infinite or too large
        raise ValueError(f"{key} must be finite, got {json.dumps(value)}")
    if low is not None and value < low:
        raise ValueError(f"{key} must be >= {low}, got {value}")
    # a larger count overflows a float or a C size downstream; seed is a u64 (main())
    if kind is int and key != "seed" and value > _MAX_OFFSET:
        raise ValueError(f"{key} must be <= 2^53, got {value}")
    return float(value) if kind is float else value


def _unique_keys(pairs: list) -> dict:
    """json.load's object_pairs_hook: the object, or ValueError when a key repeats."""
    keys = [key for key, _ in pairs]
    if len(set(keys)) < len(keys):
        raise ValueError(f"repeated key {json.dumps(max(keys, key=keys.count))}")
    return dict(pairs)


def _merge_config(command: str, args: argparse.Namespace) -> dict:
    merged = dict(_DEFAULTS[command])
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            try:
                file_cfg = json.load(fh, object_pairs_hook=_unique_keys)
            except ValueError as exc:  # not UTF-8, not JSON, or a repeated key
                raise ValueError(f"config file {args.config}: {exc}") from None
        if not isinstance(file_cfg, dict):
            raise ValueError(f"config file {args.config} must hold one JSON object")
        unknown = set(file_cfg) - set(merged)
        if unknown:
            raise ValueError(f"unknown config keys for {command}: {sorted(unknown)}")
        merged.update(file_cfg)
    for key, default in _DEFAULTS[command].items():
        value = getattr(args, key, None)
        if value is not None:
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
    """[fn(t) for t in tasks], in order, on at most min(threads, len(tasks), CPUs) processes."""
    workers = min(threads, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        # imported here: it costs every single-process run about 25 ms of start-up
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        # under fork every worker starts up front, so start no more than tasks or CPUs
        # tasks go out in chunks, about 8 per worker, instead of one round trip each
        chunksize = max(1, len(tasks) // (8 * workers))
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(fn, tasks, chunksize=chunksize))
        except BrokenProcessPool:  # a RuntimeError, which main() would re-raise
            raise OSError("a worker process died (killed, or out of memory)") from None
    return [fn(t) for t in tasks]


# A pooled worker takes (cfg, schedule[, out_dir], stream): cmd_* binds the
# shared values once and maps it over stream ids; each cmd_* returns the ids
# it drew, and main() writes them into the manifest's seed list.
# ---------------------------------------------------------------- simulate

def _simulate_rep(cfg: dict, schedule: ChangePointSchedule, out_dir: Path, stream: int) -> None:
    tree = grow_tree(schedule, cfg["n"], seeded_generator(cfg["seed"], stream))
    tag = f"r{stream:03d}"
    if cfg["save_trees"]:
        save_tree(tree, out_dir / f"tree_{tag}.pact")
    write_trajectory_csv(tree.leaf_trajectory(), out_dir / f"trajectory_{tag}.csv")
    write_histogram_csv(degree_histogram(tree), out_dir / f"degree_hist_{tag}.csv")
    for m in cfg["checkpoints"]:
        write_histogram_csv(degree_histogram(tree, upto=m),
                            out_dir / f"degree_hist_{tag}_m{m}.csv")
    if cfg["edges"]:
        write_edge_csv(tree, out_dir / f"edges_{tag}.csv")


def cmd_simulate(cfg: dict, out_dir: Path, schedule: ChangePointSchedule) -> list[int]:
    streams = list(range(cfg["reps"]))
    _pool_map(partial(_simulate_rep, cfg, schedule, out_dir), streams, cfg["threads"])
    return streams


# ---------------------------------------------------------------- limits

def cmd_limits(cfg: dict, out_dir: Path, schedule: ChangePointSchedule) -> list[int]:
    kmax = cfg["kmax"]
    table = p_alpha_table(schedule.alpha, kmax)
    write_pmf_csv(range(1, kmax + 1), table[1:], out_dir / "p_alpha_pmf.csv")

    ts = np.linspace(1.0 / cfg["curve_points"], 1.0, cfg["curve_points"])
    write_curve_csv(schedule, ts, out_dir / "leaf_curve.csv")

    gen, counts = seeded_generator(cfg["seed"]), np.zeros(0, np.int64)
    for values in d_theta_blocks(schedule, gen, cfg["draws"]):
        block = np.bincount(values)  # the sampler's blocks, one held at a time
        if block.size > counts.size:  # grown only past the largest draw so far
            counts = np.pad(counts, (0, block.size - counts.size))
        counts[:block.size] += block
    hist = DegreeHistogram(counts, cfg["draws"])
    write_pmf_csv(range(1, kmax + 1), hist.proportions(kmax)[1:], out_dir / "d_theta_pmf.csv")
    write_pmf_csv(*hist.ccdf(), out_dir / "d_theta_ccdf.csv")
    eps = cfg["epsilon"]
    grid = np.linspace(eps, 1.0, cfg["curve_points"])
    dvals = limit_D(grid, schedule, eps)
    write_csv(out_dir / "d_limit.csv", ["t", "d"], [grid, dvals])
    return [0]


# ---------------------------------------------------------------- estimate

def _overlay(cfg: dict) -> ChangePointSchedule | None:
    """estimate's d_limit schedule: None unless alpha, beta or gamma is given, then all of them."""
    if cfg["alpha"] is None and not cfg["beta"] and not cfg["gamma"]:
        return None
    if cfg["alpha"] is None or not cfg["gamma"]:
        raise ValueError("the d_limit overlay needs alpha and at least one beta/gamma pair")
    return _schedule_from(cfg)


def cmd_estimate(cfg: dict, out_dir: Path, schedule: ChangePointSchedule | None,
                 *trajectories: LeafTrajectory) -> list[int]:
    """Estimate on the trajectories main() loaded from cfg["trajectories"], in this process.

    schedule is the d_limit overlay, or None.  Each trajectory gets its
    report_<i>.json and thinned dn_curve_<i>.csv, then its gamma_hats.csv row.
    No stream is drawn.
    """
    eps, rows = cfg["epsilon"], []
    for i, (traj_path, trajectory) in enumerate(zip(cfg["trajectories"], trajectories)):
        curve = dn_curve(trajectory, eps)
        report = gamma_hat(curve)
        curve = thin_dn_curve(curve, report)  # the estimate reads every step; the file a slice
        d_lim = None if schedule is None else limit_D(curve.ts, schedule, eps)
        write_report_json(report, out_dir / f"report_{i:03d}.json")
        write_dn_csv(curve, out_dir / f"dn_curve_{i:03d}.csv", d_lim)
        rows.append((Path(traj_path).name, report.gamma_hat, report.dn_star, int(report.detected)))
    write_csv(out_dir / "gamma_hats.csv", ["file", "gamma_hat", "dn_star", "detected"],
              list(zip(*rows)))
    return []


# ---------------------------------------------------------------- fclt

def _fclt_task(cfg: dict, schedule: ChangePointSchedule, stream: int) -> list[float]:
    """One tree's G_n path on the t grid, from the leaf counts its draws give; no tree is grown."""
    n = cfg["n"]
    counts_at = partial(leaf_counts, schedule, n, seeded_generator(cfg["seed"], stream))
    return list(gn_path(n, counts_at, schedule, cfg["t_grid"]))


def cmd_fclt(cfg: dict, out_dir: Path, schedule: ChangePointSchedule) -> list[int]:
    reps, t_grid = cfg["reps"], cfg["t_grid"]
    streams = list(range(reps))
    z_stream = [_UPSILON_STREAM_BASE] if len(schedule.segments) == 1 else []
    if z_stream:
        z = upsilon_clt_sample(schedule, cfg["n"], cfg["upsilon_reps"],
                               seeded_generator(cfg["seed"], _UPSILON_STREAM_BASE))
        write_zsample_csv(z, out_dir / "upsilon_z.csv")
    results = _pool_map(partial(_fclt_task, cfg, schedule), streams, cfg["threads"])
    rows = np.asarray(results)

    moments = [
        (t, float(rows[:, j].mean()), float(rows[:, j].var(ddof=1)), variance_gn(t, schedule), reps)
        for j, t in enumerate(t_grid)
    ]
    write_csv(out_dir / "gn_moments.csv", ["t", "mean_gn", "var_gn", "target_var", "reps"],
              list(zip(*moments)))
    return streams + z_stream


# ---------------------------------------------------------------- maxdeg

def _maxdeg_rep(cfg: dict, schedule: ChangePointSchedule, stream: int) -> int:
    n = cfg["n_list"][stream // cfg["reps"]]  # stream ni * reps + rep is size ni's rep-th tree
    return max_degree(grow_tree(schedule, n, seeded_generator(cfg["seed"], stream)))


def cmd_maxdeg(cfg: dict, out_dir: Path, schedule: ChangePointSchedule) -> list[int]:
    reps, n_list = cfg["reps"], cfg["n_list"]
    exponent = 1.0 / (2.0 + schedule.alpha)  # M_n grows like n^(1/(2+alpha))
    streams = list(range(len(n_list) * reps))  # one pool for every size
    m1s = _pool_map(partial(_maxdeg_rep, cfg, schedule), streams, cfg["threads"])
    rows = []
    for ni, n in enumerate(n_list):
        size_m1s = m1s[ni * reps : (ni + 1) * reps]
        scaled = [m1 / n**exponent for m1 in size_m1s]
        rows += zip([n] * reps, range(reps), size_m1s, scaled)
        print(f"n={n}: median scaled max degree = {float(np.median(scaled)):.4f}")
    write_csv(out_dir / "maxdeg.csv", ["n", "rep", "max_degree", "scaled"], list(zip(*rows)))
    return streams


# ---------------------------------------------------------------- driver

def _fail(message: str):
    """Every parser's error: main() prints it as one line and exits 2."""
    raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pact", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.error = _fail
    sub = parser.add_subparsers(dest="command", required=True)
    for command, defaults in _DEFAULTS.items():  # the module docstring lists what each does
        p = sub.add_parser(command)
        p.error = _fail
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--out", type=str, required=True, help="output directory, new or empty")
        for key, default in defaults.items():
            flag, kind, _, help_text = _KEYS[key]
            how = ({"action": "store_false" if default else "store_true"} if kind is bool else
                   {"type": kind[0], "action": "append"} if isinstance(kind, list) else
                   {"type": kind})
            p.add_argument(flag, dest=key, default=None, help=help_text, **how)
    return parser


_COMMANDS = {
    "simulate": cmd_simulate,
    "limits": cmd_limits,
    "estimate": cmd_estimate,
    "fclt": cmd_fclt,
    "maxdeg": cmd_maxdeg,
}


def main(argv: list[str] | None = None) -> int:
    made = None  # once --out is known to be new or empty: the directories this run makes
    try:
        args = build_parser().parse_args(argv)
        cfg = _merge_config(args.command, args)
        # validate the full configuration before any side effect
        if not 0 <= cfg.get("seed", 0) < 1 << 64:  # so each seed keys a stream of its own
            raise ValueError(f"seed must lie in [0, 2^64), got {cfg['seed']}")
        for key in ("trajectories", "t_grid", "n_list"):  # the lists a subcommand loops over
            if cfg.get(key) == []:
                raise ValueError(f"{key} ({_KEYS[key][0]}) needs at least one value")
        schedule = _overlay(cfg) if args.command == "estimate" else _schedule_from(cfg)
        if "epsilon" in cfg:  # limits and estimate: d_limit needs 0 < epsilon < gamma_1
            upper = schedule.segments[0].gamma if schedule and schedule.segments else 1
            if not 0.0 < cfg["epsilon"] < upper:
                raise ValueError(f"epsilon must lie in (0, {upper}), got {cfg['epsilon']}")
        trajectories = []  # estimate's inputs, each read and checked before --out exists
        if args.command == "estimate":
            trajectories = [read_trajectory_csv(t) for t in cfg["trajectories"]]
        elif args.command == "simulate":
            bad = [m for m in cfg["checkpoints"] if m > cfg["n"]]
            if bad:
                raise ValueError(f"checkpoints must be <= n = {cfg['n']}, got {bad}")
        elif args.command == "fclt":
            if cfg["reps"] < 2:
                raise ValueError(f"fclt needs reps >= 2 for var_gn, got {cfg['reps']}")
            # G_n(t) reads N(nt), which exists from step 2 on
            if not all(cfg["n"] * t >= 2 and t <= 1.0 for t in cfg["t_grid"]):
                raise ValueError(f"t must satisfy n*t >= 2 and t <= 1, got {cfg['t_grid']}")
        # so the manifest lists only this run's files, and a failed run can remove them all
        out_dir = Path(args.out)
        if out_dir.exists() and (not out_dir.is_dir() or any(out_dir.iterdir())):
            raise ValueError(f"--out {out_dir} must be a new or empty directory")
        made = [p for p in (out_dir, *out_dir.parents) if not p.exists()]  # deepest first
        out_dir.mkdir(parents=True, exist_ok=True)
        start = time.time()
        streams = _COMMANDS[args.command](cfg, out_dir, schedule, *trajectories)
        wall_clock_s = round(time.time() - start, 3)
        outputs = {
            p.name: _sha256(p) for p in sorted(out_dir.iterdir()) if p.name != "manifest.json"
        }
        # the audit record; re-running its config reproduces every output
        with open(out_dir / "manifest.json", "w", newline="\n") as fh:
            seeds = [{"seed": cfg["seed"], "stream_id": s} for s in streams]
            json.dump({"subcommand": args.command, "config": cfg, "seeds": seeds,
                       "tool_version": __version__, "wall_clock_s": wall_clock_s,
                       "outputs": outputs}, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except BaseException as exc:  # leave --out as it was found: absent, or empty
        if made:
            shutil.rmtree(made[-1], ignore_errors=True)
        elif made is not None:  # --out was an empty directory
            for p in out_dir.iterdir():
                p.unlink()
        if not isinstance(exc, (ValueError, MemoryError, OSError)):
            raise
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    print(f"{args.command}: wrote {len(outputs)} artifact(s) to {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
