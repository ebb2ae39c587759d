"""Traced, in-process run of one `pact` command, for per-layer timings.

    PYTHONPATH=src python3 bench/traced.py --workload NAME --result FILE -- <pact arguments>

It imports ``pact.cli`` inside a span, replaces the functions that cli.py
calls by name with wrappers that record a span around each call, and runs
``pact.cli.main`` itself with ``--threads 1``, so that pooled replications
run in this process where their spans can be seen.  Everything else is the
CLI's own code: the artifacts and manifest go to ``--out`` as in any run,
and the caller checks their digests against an untraced run of the same
config.  Spans stay in memory and go to FILE as JSON when the command is done.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
import tracemalloc
from pathlib import Path

from spans import SpanRecorder, per_span_cost

# pact.cli attribute -> span name.  The span name plus "_s" is the per-layer
# metric that sums the spans' self time.
SPANS = {
    "_merge_config": "cli.config",
    "_pool_map": "cli.pool",
    "_sha256": "cli.manifest_digest",
    "degree_histogram": "generator.degree_histogram",
    "read_trajectory_csv": "leaf_process.read_trajectory_csv",
    "gn_path": "leaf_process.gn_path",
    "variance_gn": "leaf_process.variance_gn",
    # one phi quadrature per row, so it is timed as compute, not as I/O
    "write_curve_csv": "leaf_process.write_curve_csv",
    "dn_curve": "estimator.dn_curve",
    "gamma_hat": "estimator.gamma_hat",
    "limit_D": "estimator.limit_D",
    "upsilon_clt_sample": "embedding.upsilon_clt_sample",
    "p_alpha_table": "limit_laws.p_alpha_table",
    "ccdf_from_samples": "limit_laws.ccdf",
}

# Writers whose work is formatting and writing one file; each span carries
# the bytes of that file, for io.bytes_written and io.write_mb_per_s.
WRITERS = {
    "save_tree": "generator.save_tree",
    "write_edge_csv": "generator.write_edge_csv",
    "write_histogram_csv": "generator.write_histogram_csv",
    "write_trajectory_csv": "leaf_process.write_trajectory_csv",
    "write_dn_csv": "estimator.write_dn_csv",
    "write_report_json": "estimator.write_report_json",
    "write_zsample_csv": "embedding.write_zsample_csv",
    "write_pmf_csv": "limit_laws.write_pmf_csv",
}


def traced(rec: SpanRecorder, name: str, fn, counts=None):
    """`fn` inside a span; `counts(args, result)` may add counts to the span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(name) as sp:
            result = fn(*args, **kwargs)
        if counts is not None:
            sp.counts.update(counts(args, result))
        return result

    return wrapper


def _written_bytes(args, _result) -> dict:
    path = next(a for a in args if isinstance(a, (str, Path)))
    return {"bytes": Path(path).stat().st_size}


def _drawn(_args, batch) -> dict:
    return {"draws": int(batch.values.size)}


def instrument(cli, rec: SpanRecorder) -> None:
    """Install span-recording wrappers on the names pact.cli looks up at call time."""
    from pact.limit_laws import DegreeSampleBatch

    for attr, name in SPANS.items():
        setattr(cli, attr, traced(rec, name, getattr(cli, attr)))
    for attr, name in WRITERS.items():
        setattr(cli, attr, traced(rec, name, getattr(cli, attr), _written_bytes))
    for attr in ("sample_d_theta", "sample_d_theta_multi"):
        setattr(cli, attr, traced(rec, "limit_laws.sample", getattr(cli, attr), _drawn))
    DegreeSampleBatch.pmf = traced(rec, "limit_laws.pmf", DegreeSampleBatch.pmf)
    # the self time of a cmd_* span is the command's own code: inline CSV
    # writes (gn_moments.csv, gamma_hats.csv, d_limit.csv) and orchestration
    for command, fn in cli._COMMANDS.items():
        cli._COMMANDS[command] = traced(rec, "cli.command", fn)

    grow_tree = cli.grow_tree
    measured = []

    @functools.wraps(grow_tree)
    def traced_grow_tree(schedule, n, *args, **kwargs):
        """grow_tree in a span; the first call of a run also records its tracemalloc peak."""
        with rec.span("generator.grow_tree", vertices=n) as sp:
            if measured:
                return grow_tree(schedule, n, *args, **kwargs)
            tracemalloc.start()
            try:
                tree = grow_tree(schedule, n, *args, **kwargs)
                sp.counts["peak_bytes"] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            measured.append(True)
            return tree

    cli.grow_tree = traced_grow_tree


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    argv = opts.argv[1:] if opts.argv[:1] == ["--"] else opts.argv

    rec = SpanRecorder(opts.workload)
    with rec.span("import.pact_cli"):
        from pact import cli
    scipy_modules = sum(1 for m in sys.modules if m == "scipy" or m.startswith("scipy."))

    instrument(cli, rec)
    code = cli.main([*argv, "--threads", "1"])
    if code != 0:
        return code
    opts.result.write_text(json.dumps({
        "spans": rec.to_json(),
        "scipy_modules": scipy_modules,
        "per_span_s": per_span_cost(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
