"""pact benchmark: run one workload as real `pact` commands and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every command runs as ``python -m pact.cli ...`` in a fresh interpreter with
this checkout's ``src`` first on the path, and is reaped with ``os.wait4``
so that CPU time and peak RSS cover its whole process tree.  Commands of one
config repeat while the time spent in them stays within ``--seconds``, and
at least MIN_COMMANDS times.  Each command's manifest digests are checked
against its files and against the run's first command; the first command's
artifacts also get the model's invariant checks.

--trace 0 prints the end-to-end metrics: medians over the commands, and
setup_s as the median of SETUP_SAMPLES fresh-interpreter imports.
--trace 1 alternates a CLI command with a traced in-process run of the same
command (bench/traced.py) and prints the per-layer metrics (medians over
the pairs).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from spans import Span, self_times
from workloads import SPEC, WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(SRC))  # checks.py imports pact from this checkout, not an installed one

SETUP_SAMPLES = 5
MIN_COMMANDS = 3
COMMAND_TIMEOUT_S = 60.0  # the slowest workload command takes about 12 s on 2 cores

END_TO_END = SPEC["end_to_end"]
# Every per-layer name ending in _s, apart from the derived cli.self_s and
# trace.overhead_s, is the summed self time of the spans of that name.
PER_LAYER = SPEC["per_layer"]

# Counts that repeat exactly for a given seed, so later changes can cite them as counts.
EXACT_COUNTS = {"output_mb", "import.scipy_modules", "io.bytes_written", "limit_laws.draws",
                "generator.vertices", "generator.peak_bytes_per_vertex"}

_IMPORT_CODE = "import time\nimport pact.cli\nprint(repr(time.monotonic()))"
_ENV_CODE = """\
import json, os, sys
import numpy, scipy, pact, pact.cli
print(json.dumps({"pact_file": pact.__file__, "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "python": sys.version.split()[0],
                  "nproc": len(os.sched_getaffinity(0))}))"""


@dataclass
class Sample:
    start: float  # time.monotonic() just before the spawn
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int


def spawn(args: list[str], log: Path) -> Sample:
    """Run ``python <args>`` with this checkout's src first on the path; stdout+stderr to log."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(log, "wb") as out:
        start = time.monotonic()
        # its own process group, so that a kill also reaches pool workers
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env,
                                stdout=out, stderr=subprocess.STDOUT, start_new_session=True)
        timer = threading.Timer(COMMAND_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(start, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                  proc.returncode)


def pact_cli(argv: list[str], log: Path) -> Sample:
    return spawn(["-m", "pact.cli", *argv], log)


def environment(work: Path) -> dict:
    """Versions the run measured; also compiles the checkout's bytecode before timing."""
    log = work / "env.log"
    if spawn(["-c", _ENV_CODE], log).returncode != 0:
        raise RuntimeError(f"cannot import pact from {SRC}:\n{log.read_text()}")
    env = json.loads(log.read_text().splitlines()[-1])
    if not Path(env["pact_file"]).resolve().is_relative_to(SRC):
        raise RuntimeError(f"pact was imported from {env['pact_file']}, not from {SRC}")
    return env


def setup_times(work: Path, samples: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until ``import pact.cli`` returns."""
    log = work / "setup.log"
    out = []
    for _ in range(samples):
        s = spawn(["-c", _IMPORT_CODE], log)
        if s.returncode != 0:
            raise RuntimeError(f"import pact.cli failed:\n{log.read_text()}")
        out.append(float(log.read_text().split()[-1]) - s.start)
    return out


def prepare_inputs(w: Workload, seed: int, work: Path) -> list[Path]:
    """Generate the workload's input files from the seed (untimed)."""
    out = work / "inputs"
    argv = w.input_argv(seed, out)
    if argv is None:
        return []
    log = work / "inputs.log"
    if pact_cli(argv, log).returncode != 0:
        raise RuntimeError(f"input generation failed:\n{log.read_text()}")
    return w.inputs(out)


class Verifier:
    """Checks every command's outputs; repeats of one config must give identical digests."""

    def __init__(self, w: Workload):
        self.w = w
        self.reference: dict[str, str] | None = None
        self.attempted = 0
        self.problems: list[str] = []

    def check(self, out: Path, sample: Sample, log: Path) -> float:
        """Verify one command's output directory, then delete it; returns its artifact MB."""
        from checks import CheckFailed, check_artifacts, verify_manifest  # imports pact

        self.attempted += 1
        try:
            written = sum(p.stat().st_size for p in out.iterdir() if p.name != "manifest.json")
            if sample.returncode != 0:
                tail = log.read_text(errors="replace").strip().splitlines()[-1:]
                raise CheckFailed(f"exit code {sample.returncode}: {' '.join(tail)}")
            outputs = verify_manifest(out)
            if self.reference is None:
                check_artifacts(self.w, out)
                self.reference = outputs
            elif outputs != self.reference:
                raise CheckFailed(f"{out.name}: digests differ from the first run of this config")
        except (CheckFailed, OSError) as exc:
            self.problems.append(str(exc))
            written = 0
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return written / 1e6

    @property
    def failed(self) -> int:
        return len(self.problems)


def end_to_end(w: Workload, seed: int, seconds: float, work: Path):
    """Run commands until `seconds` of command time are spent; returns samples per metric."""
    inputs = prepare_inputs(w, seed, work)
    values: dict[str, list[float]] = {m["name"]: [] for m in END_TO_END}
    values["setup_s"] = setup_times(work, SETUP_SAMPLES)
    verifier = Verifier(w)
    spent = 0.0
    while (len(values["wall_s"]) < MIN_COMMANDS
           or spent + statistics.median(values["wall_s"]) <= seconds):
        out, log = work / f"run{verifier.attempted:03d}", work / "command.log"
        s = pact_cli(w.argv(seed, out, inputs), log)
        spent += s.wall_s
        values["output_mb"].append(verifier.check(out, s, log))
        values["wall_s"].append(s.wall_s)
        values["work_per_s"].append(w.work() / s.wall_s)
        values["cpu_s"].append(s.cpu_s)
        values["peak_rss_mb"].append(s.peak_rss_mb)
    return values, verifier


def layer_metrics(trace: dict, wall_s: float, setup_s: float, threads: int) -> dict[str, float]:
    """Per-layer metrics of one traced run, against one untraced CLI command.

    The traced run does the pool's work serially.  cli.self_s is the
    untraced wall time left after set-up and the spans, with the pool's
    spans counted at 1/threads of their time, because the CLI spreads them
    over `threads` workers.  cli.parallel_eff is the serial traced compute
    over threads x (wall - set-up).
    """
    spans = [Span(**d) for d in trace["spans"]]
    selfs = self_times(spans)
    out = {m["name"]: 0.0 for m in PER_LAYER}
    for sp, self_s in zip(spans, selfs):
        if sp.name + "_s" in out:
            out[sp.name + "_s"] += self_s

    serial = sum(sp.duration for sp in spans
                 if sp.parent is None and sp.name != "import.pact_cli")
    pooled = sum(sp.duration for sp in spans if sp.name == "cli.pool")
    out["cli.self_s"] = wall_s - setup_s - (serial - pooled * (1 - 1 / threads))
    out["cli.parallel_eff"] = serial / (threads * (wall_s - setup_s))

    grows = [sp for sp in spans if sp.name == "generator.grow_tree"]
    out["generator.grow_tree_calls"] = len(grows)
    out["generator.vertices"] = sum(sp.counts["vertices"] for sp in grows)
    # tracemalloc's peak carries a few hundred bytes of interpreter noise; 0.1 B/vertex does not
    peaks = [sp.counts["peak_bytes"] / sp.counts["vertices"]
             for sp in grows if "peak_bytes" in sp.counts]
    out["generator.peak_bytes_per_vertex"] = round(max(peaks), 1) if peaks else 0.0
    out["limit_laws.draws"] = sum(sp.counts.get("draws", 0) for sp in spans)

    writes = [(sp, self_s) for sp, self_s in zip(spans, selfs) if "bytes" in sp.counts]
    out["io.bytes_written"] = sum(sp.counts["bytes"] for sp, _ in writes)
    write_s = sum(self_s for _, self_s in writes)
    out["io.write_mb_per_s"] = out["io.bytes_written"] / 1e6 / write_s if write_s else 0.0
    out["import.scipy_modules"] = trace["scipy_modules"]
    out["trace.overhead_s"] = len(spans) * trace["per_span_s"]
    return out


def per_layer(w: Workload, seed: int, seconds: float, work: Path):
    """Alternate an untraced CLI command and a traced run; returns samples per metric."""
    inputs = prepare_inputs(w, seed, work)
    setup_s = statistics.median(setup_times(work, SETUP_SAMPLES))
    values: dict[str, list[float]] = {m["name"]: [] for m in PER_LAYER}
    verifier = Verifier(w)
    last_trace, spent, pairs = None, 0.0, 0
    while pairs == 0 or spent * (pairs + 1) / pairs <= seconds:
        pairs += 1
        out, log = work / f"cli{pairs:03d}", work / "command.log"
        s = pact_cli(w.argv(seed, out, inputs), log)
        verifier.check(out, s, log)

        tout, result = work / f"traced{pairs:03d}", work / "trace.json"
        result.unlink(missing_ok=True)
        t = spawn([str(BENCH / "traced.py"), "--workload", w.name, "--result", str(result),
                   "--", *w.argv(seed, tout, inputs)], log)
        verifier.check(tout, t, log)
        spent += s.wall_s + t.wall_s
        if s.returncode == 0 and result.exists():
            last_trace = json.loads(result.read_text())
            for name, v in layer_metrics(last_trace, s.wall_s, setup_s, w.threads).items():
                values[name].append(v)
    if last_trace is None:
        raise RuntimeError("no traced run completed: " + "; ".join(verifier.problems))
    return values, verifier, last_trace


def quartiles(xs: list[float]) -> tuple[float, float]:
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, q3


def report(w: Workload, specs, values, verifier: Verifier) -> dict:
    """Print one line per metric (median, quartiles, sample count); return the JSON metrics."""
    metrics = {}
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        xs = values[name]
        med = statistics.median(xs)
        q1, q3 = quartiles(xs)
        note = f"  ({w.work_unit} per second)" if name == "work_per_s" else ""
        note += "  (count: repeats exactly)" if name in EXACT_COUNTS else ""
        print(f"  {name:36s} {med:<14.6g} {unit:9s} q1 {q1:.6g}  q3 {q3:.6g}  n={len(xs)}{note}")
        metrics[name] = {"value": med, "unit": unit}
    frac = verifier.failed / verifier.attempted
    print(f"  {'failed_frac':36s} {frac:<14.6g} {'ratio':9s} "
          f"{verifier.failed} of {verifier.attempted} commands")
    for problem in verifier.problems:
        print(f"  FAILED: {problem}")
    return metrics


def print_spans(trace: dict) -> None:
    """Self time per span name of the last traced run."""
    spans = [Span(**d) for d in trace["spans"]]
    table: dict[str, list[float]] = {}
    for sp, self_s in zip(spans, self_times(spans)):
        calls_total = table.setdefault(sp.name, [0, 0.0])
        calls_total[0] += 1
        calls_total[1] += self_s
    print("  span self time (last traced run):")
    for name, (calls, total) in table.items():
        print(f"    {name:36s} {total:10.4f} s  calls={calls}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pact" / "cli.py").is_file():
        print(f"error: no pact sources at {SRC}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    work = WORK / f"{w.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        env = environment(work)
        print(f"bench: workload {w.name} seed {args.seed} trace {args.trace}: {w.why}")
        print(f"env: {json.dumps(env)}")
        print(f"command: pact {' '.join(w.argv(args.seed, Path('OUT'), w.inputs(Path('IN'))))}")
        print(f"work per command: {w.work()} {w.work_unit}")
        if args.trace:
            values, verifier, last_trace = per_layer(w, args.seed, args.seconds, work)
            print_spans(last_trace)
            metrics = report(w, PER_LAYER, values, verifier)
        else:
            values, verifier = end_to_end(w, args.seed, args.seconds, work)
            metrics = report(w, END_TO_END, values, verifier)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only if no other run is using it
    print(json.dumps({"correct": verifier.failed == 0, "attempted": verifier.attempted,
                      "failed": verifier.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
