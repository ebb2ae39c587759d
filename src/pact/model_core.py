"""Shared domain types: attachment schedules, segment lookup, seeded RNG streams,
and the CSV writer behind every artifact.

The model grows a rooted tree one vertex at a time.  Vertex m+1 attaches to
an existing vertex v with probability proportional to out_degree(v) + 1 + c,
where the offset c is alpha until the tree passes size floor(gamma_1 * n),
then beta_1 until floor(gamma_2 * n), and so on.  A schedule with no segments
is the plain model with a single offset alpha.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union

import numpy as np

_MASK64 = (1 << 64) - 1
_CSV_CHUNK = 4096  # rows converted per batch: larger chunks raise peak RSS, not speed


class NonPositiveParameter(ValueError):
    """Attachment offset out of range (alpha < 0 or beta <= 0)."""


class UnorderedChangePoints(ValueError):
    """Change-point fractions not strictly increasing inside (0, 1)."""


class SizeTooSmall(ValueError):
    """Requested tree size below the 2-vertex minimum."""


class HorizonOutOfRange(ValueError):
    """Observation horizon t outside the valid interval."""


class Segment(NamedTuple):
    gamma: float
    beta: float


@dataclass(frozen=True)
class ChangePointSchedule:
    """Parameter set (alpha, [(gamma_1, beta_1), ...]) driving the attachment rule.

    ``segments`` is ordered by gamma.  An empty list means no change point;
    a single entry is the basic one-change-point model.
    """

    alpha: float
    segments: tuple[Segment, ...] = ()

    def __post_init__(self) -> None:
        coerced = tuple(Segment(float(g), float(b)) for g, b in self.segments)
        object.__setattr__(self, "segments", coerced)
        object.__setattr__(self, "alpha", float(self.alpha))

    @classmethod
    def single(cls, alpha: float, beta: float, gamma: float) -> "ChangePointSchedule":
        return cls(alpha=alpha, segments=(Segment(gamma, beta),))

    @property
    def num_change_points(self) -> int:
        return len(self.segments)

    @property
    def is_single(self) -> bool:
        return len(self.segments) == 1

    @property
    def gamma(self) -> float:
        if not self.is_single:
            raise ValueError("gamma is only defined for a single-change-point schedule")
        return self.segments[0].gamma

    @property
    def beta(self) -> float:
        if not self.is_single:
            raise ValueError("beta is only defined for a single-change-point schedule")
        return self.segments[0].beta

    def offsets(self) -> tuple[float, ...]:
        """Offsets per segment: (alpha, beta_1, ..., beta_k)."""
        return (self.alpha,) + tuple(s.beta for s in self.segments)

    def boundaries(self, n: int) -> list[int]:
        """Step boundaries [0, floor(gamma_1 n), ..., floor(gamma_k n), n].

        Segment j covers entering vertices m with boundaries[j] < m <= boundaries[j+1].
        """
        return [0] + [int(np.floor(s.gamma * n)) for s in self.segments] + [n]

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha,
            "segments": [{"gamma": s.gamma, "beta": s.beta} for s in self.segments],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ChangePointSchedule":
        segs = tuple(Segment(float(s["gamma"]), float(s["beta"])) for s in obj.get("segments", []))
        return cls(alpha=float(obj["alpha"]), segments=segs)

    def dumps(self) -> str:
        return json.dumps(self.to_json())

    @classmethod
    def loads(cls, text: str) -> "ChangePointSchedule":
        return cls.from_json(json.loads(text))


def validate_schedule(schedule: ChangePointSchedule) -> ChangePointSchedule:
    """Check parameter domains and change-point ordering; return the schedule.

    alpha = 0 is accepted (the uniform-attachment end of the family shows up
    in cross-checks); negative alpha and non-positive beta are rejected.
    """
    if not np.isfinite(schedule.alpha) or schedule.alpha < 0:
        raise NonPositiveParameter(f"alpha must be >= 0, got {schedule.alpha}")
    for seg in schedule.segments:
        if not np.isfinite(seg.beta) or seg.beta <= 0:
            raise NonPositiveParameter(f"beta must be > 0, got {seg.beta}")
        if not np.isfinite(seg.gamma):
            raise UnorderedChangePoints(f"gamma must be finite, got {seg.gamma}")
    gammas = [s.gamma for s in schedule.segments]
    for prev, cur in zip([0.0] + gammas, gammas + [1.0]):
        if not prev < cur:
            raise UnorderedChangePoints(
                f"change points must satisfy 0 < gamma_1 < ... < gamma_k < 1, got {gammas}"
            )
    return schedule


def segment_of(schedule: ChangePointSchedule, m: int, n: int) -> tuple[int, float]:
    """Segment index and active offset for the vertex entering at step m.

    Returns (j, offset) with boundaries[j] < m <= boundaries[j+1]; segment 0
    reports alpha.  The index is non-decreasing in m.
    """
    if not 1 <= m <= n:
        raise ValueError(f"step index m={m} outside 1..{n}")
    bounds = schedule.boundaries(n)
    offsets = schedule.offsets()
    for j in range(len(offsets)):
        if bounds[j] < m <= bounds[j + 1]:
            return j, offsets[j]
    raise AssertionError("unreachable: boundaries partition (0, n]")


def step_offsets(schedule: ChangePointSchedule, n: int) -> np.ndarray:
    """Active offset for each entering vertex m = 2..n, as an array of length n-1."""
    offs = np.empty(n - 1, dtype=np.float64)
    bounds = schedule.boundaries(n)
    offsets = schedule.offsets()
    for j, c in enumerate(offsets):
        lo = max(bounds[j] + 1, 2)
        hi = bounds[j + 1]
        if hi >= lo:
            offs[lo - 2 : hi - 1] = c
    return offs


@dataclass(frozen=True)
class SeededRng:
    """Reproducible counter-based random stream.

    Identical (seed, stream_id) pairs replay the identical sequence; distinct
    stream_ids give independent streams, so ensemble replications can run in
    parallel without coordination.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def stream(self, stream_id: int) -> "SeededRng":
        """Same seed, different stream."""
        return SeededRng(self.seed, stream_id)


RngLike = Union[SeededRng, np.random.Generator]


def as_generator(rng: RngLike) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, SeededRng):
        return rng.generator()
    raise TypeError(f"expected SeededRng or numpy Generator, got {type(rng)!r}")


def write_csv(path, header: Sequence[str], columns: Sequence[Sequence]) -> None:
    """Write a header row, then row i = (column[i] for each column).

    The one CSV format of every artifact: the csv module's quoting, ``\\r\\n``
    line ends, ints as decimals and floats as ``repr``.  numpy columns become
    Python numbers one chunk of rows at a time, so a write never holds more
    than one chunk of formatted rows.
    """
    rows = len(columns[0]) if columns else 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for lo in range(0, rows, _CSV_CHUNK):
            chunk = [col[lo : lo + _CSV_CHUNK] for col in columns]
            writer.writerows(
                zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in chunk), strict=True)
            )
