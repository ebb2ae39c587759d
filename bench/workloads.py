"""The four benchmark workloads: which `pact` subcommand each runs, at what size.

Every workload uses the single-change-point schedule alpha = 6, beta = 1,
gamma = 0.5.  The seed passed to the benchmark becomes the subcommand's
``--seed`` (and, for estimate-read, the seed of the generated inputs), so
the same benchmark seed gives the same inputs and the same artifact bytes.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

# BENCHMARK.json at the checkout's root names the workloads and metrics and says why each exists
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
SCHEDULE_ARGS = ["--alpha", "6", "--beta", "1", "--gamma", "0.5"]


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    sizes: dict
    work_unit: str

    @property
    def why(self) -> str:
        return next(w["why"] for w in SPEC["workloads"] if w["name"] == self.name)

    @property
    def threads(self) -> int:
        return int(self.sizes.get("threads", 1))

    def argv(self, seed: int, out: Path, inputs: list[Path]) -> list[str]:
        """Arguments after `python -m pact.cli` for one command of this workload."""
        s = self.sizes
        args = [self.command, "--out", str(out), *SCHEDULE_ARGS]
        if self.command == "simulate":
            args += ["--seed", str(seed), "--n", str(s["n"]), "--reps", "1", "--edges"]
            for m in s["checkpoints"]:
                args += ["--checkpoint", str(m)]
        elif self.command == "fclt":
            args += ["--seed", str(seed), "--n", str(s["n"]), "--reps", str(s["reps"]),
                     "--threads", str(s["threads"]), "--upsilon-reps", str(s["upsilon_reps"])]
        elif self.command == "estimate":
            for p in inputs:
                args += ["--trajectory", str(p)]
        elif self.command == "limits":
            args += ["--seed", str(seed), "--draws", str(s["draws"]),
                     "--curve-points", str(s["curve_points"])]
        else:
            raise ValueError(f"no argv for subcommand {self.command}")
        return args

    def input_argv(self, seed: int, out: Path) -> list[str] | None:
        """Set-up command that generates this workload's input files, if it needs any."""
        if self.command != "estimate":
            return None
        return ["simulate", "--out", str(out), *SCHEDULE_ARGS, "--seed", str(seed),
                "--n", str(self.sizes["n"]), "--reps", str(self.sizes["files"]), "--no-trees"]

    def inputs(self, out: Path) -> list[Path]:
        if self.command != "estimate":
            return []
        return [out / f"trajectory_r{rep:03d}.csv" for rep in range(self.sizes["files"])]

    def work(self) -> int:
        """Units of work in one command: vertices grown, trajectory rows or draws."""
        s = self.sizes
        if self.command == "simulate":
            return s["n"]
        if self.command == "fclt":
            return s["n"] * s["reps"]
        if self.command == "estimate":
            return s["files"] * (s["n"] - 1)
        return s["draws"]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in [
        Workload(
            "simulate-large", "simulate",
            {"n": 2_000_000, "checkpoints": (500_000, 1_000_000)},
            "vertices grown",
        ),
        Workload(
            "ensemble-fclt", "fclt",
            {"n": 100_000, "reps": 500, "threads": 2, "upsilon_reps": 1000},
            "vertices grown",
        ),
        Workload(
            "estimate-read", "estimate",
            {"n": 500_000, "files": 2},
            "trajectory rows processed",
        ),
        Workload(
            "limits", "limits",
            {"draws": 2_000_000, "curve_points": 2000},
            "limit-law draws",
        ),
    ]
}
