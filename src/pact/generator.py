"""Change-point preferential attachment tree generation and degree statistics.

The attachment law "out_degree(v) + 1 + c" over a tree of size s decomposes
exactly into a two-part mixture with total weight (2+c)s - 1:

  * with probability (s-1)/((2+c)s - 1): pick a uniform edge and return the
    parent endpoint (this contributes the out-degree mass), and
  * otherwise: return a uniform vertex in 1..s (the (1+c) mass per vertex).

Because vertex m's single edge points to parent[m], "parent endpoint of a
uniform edge" is parent[u] for u uniform in 2..s.  This keeps every step O(1)
for arbitrary real offsets, with no weight table to maintain.  grow_tree
exploits the same decomposition in vectorized form: all mixture choices and
uniform indices are drawn up front, and the parent[u] indirections (links to
not-yet-resolved entries) are resolved by pointer doubling in O(log n)
vectorized passes.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .leaf_process import LeafTrajectory
from .model_core import (
    ChangePointSchedule,
    RngLike,
    SizeTooSmall,
    as_generator,
    step_offsets,
    validate_schedule,
    write_csv,
)

_MAGIC = b"PACT"
_FORMAT_VERSION = 1


class KTooLarge(ValueError):
    """Requested more top degrees than there are vertices."""


@dataclass
class DegreeHistogram:
    """counts[k] = number of vertices with total degree k (root degree = out-degree)."""

    counts: np.ndarray
    n: int

    def proportions(self, kmax: int) -> np.ndarray:
        """Proportions for degrees 1..kmax (missing degrees count as zero)."""
        out = np.zeros(kmax, dtype=np.float64)
        upto = min(kmax + 1, self.counts.size)
        out[: upto - 1] = self.counts[1:upto] / self.n
        return out

    def as_dict(self) -> dict[int, int]:
        return {int(k): int(c) for k, c in enumerate(self.counts) if c > 0}

    def check_invariants(self) -> None:
        if int(self.counts.sum()) != self.n:
            raise AssertionError("histogram mass != vertex count")
        total = int((np.arange(self.counts.size) * self.counts).sum())
        if total != 2 * (self.n - 1):
            raise AssertionError("degree sum != 2 * edge count")


@dataclass
class RecordFlags:
    """What grow_tree captures along the way."""

    leaves: bool = False
    degree_checkpoints: tuple[int, ...] = ()


@dataclass
class GrowingTree:
    """Parent-array tree on vertices 1..n (index 0 unused, parent[1] = 0 sentinel)."""

    n: int
    parent: np.ndarray
    out_degree: np.ndarray
    leaf_trajectory: LeafTrajectory | None = None
    degree_snapshots: dict[int, DegreeHistogram] = field(default_factory=dict)

    def total_degrees(self) -> np.ndarray:
        """Total degree of vertices 1..n; the root's degree is its out-degree."""
        deg = self.out_degree[1 : self.n + 1] + 1
        deg[0] -= 1
        return deg

    def check_invariants(self) -> None:
        if self.parent[1] != 0:
            raise AssertionError("root sentinel parent must be 0")
        ms = np.arange(2, self.n + 1)
        if np.any(self.parent[ms] >= ms) or np.any(self.parent[ms] < 1):
            raise AssertionError("parents must be earlier vertices")
        if int(self.out_degree.sum()) != self.n - 1:
            raise AssertionError("edge count != n - 1")
        recount = np.bincount(self.parent[2:], minlength=self.n + 1)
        if not np.array_equal(recount, self.out_degree):
            raise AssertionError("out_degree inconsistent with parent array")


class AttachmentSampler:
    """Incremental single-step sampler over the current tree state.

    Holds the parent pointers (one entry per edge, indexed by child) and the
    active offset; the total attachment weight is (2 + offset) * m - 1.
    """

    def __init__(self, offset: float):
        self.offset = float(offset)
        self._parent = [0, 0]  # slots for unused index 0 and the root

    @property
    def m(self) -> int:
        return len(self._parent) - 1

    @property
    def total_weight(self) -> float:
        return (2.0 + self.offset) * self.m - 1.0

    def attach(self, parent_vertex: int) -> int:
        """Record the next vertex's edge; returns the new vertex id."""
        if not 1 <= parent_vertex <= self.m:
            raise ValueError(f"parent {parent_vertex} not in 1..{self.m}")
        self._parent.append(parent_vertex)
        return self.m

    def sample(self, rng: RngLike) -> int:
        gen = as_generator(rng)
        s = self.m
        copy_p = (s - 1) / ((2.0 + self.offset) * s - 1.0)
        if gen.random() < copy_p:
            u = int(gen.integers(2, s + 1))
            return self._parent[u]
        return int(gen.integers(1, s + 1))

    def sample_many(self, rng: RngLike, size: int) -> np.ndarray:
        """Draw `size` independent parents from the frozen current state."""
        gen = as_generator(rng)
        s = self.m
        if s == 1:
            return np.ones(size, dtype=np.int64)
        copy_p = (s - 1) / ((2.0 + self.offset) * s - 1.0)
        coin = gen.random(size)
        pick = gen.random(size)
        parents = np.asarray(self._parent, dtype=np.int64)
        copy_idx = 2 + (pick * (s - 1)).astype(np.int64)
        direct_idx = 1 + (pick * s).astype(np.int64)
        return np.where(coin < copy_p, parents[copy_idx], direct_idx)

    def exact_probabilities(self) -> np.ndarray:
        """Exact attachment law over vertices 1..m (brute-force weight oracle)."""
        out_deg = np.bincount(self._parent[2:], minlength=self.m + 1)[1:]
        weights = out_deg + 1.0 + self.offset
        return weights / weights.sum()


def sample_parent(sampler: AttachmentSampler, rng: RngLike) -> int:
    """One draw from the attachment law (probability proportional to out-degree + 1 + offset)."""
    return sampler.sample(rng)


def _leaf_trajectory(parent: np.ndarray, n: int) -> LeafTrajectory:
    ms = np.arange(2, n + 1)
    first_child = np.full(n + 1, n + 1, dtype=np.int64)
    rev = ms[::-1]
    first_child[parent[rev]] = rev  # last write wins -> smallest child index
    root_children = ms[parent[ms] == 1]
    root_second = int(root_children[1]) if root_children.size >= 2 else n + 1
    counts = np.empty(n - 1, dtype=np.int64)
    counts[0] = 2  # at m=2 both the root (out-degree 1) and vertex 2 have degree 1
    if n > 2:
        p = parent[3 : n + 1]
        steps = np.arange(3, n + 1)
        drop = np.where(p == 1, steps == root_second, first_child[p] == steps)
        counts[1:] = 2 + np.cumsum(1 - drop.astype(np.int64))
    return LeafTrajectory(n=n, counts=counts, root_second_child=root_second)


def grow_tree(
    schedule: ChangePointSchedule,
    n: int,
    rng: RngLike,
    record: RecordFlags | None = None,
) -> GrowingTree:
    """Grow an n-vertex tree under the schedule's attachment offsets.

    Vertex m+1 attaches under the offset of the segment containing step m+1.
    With record.leaves the per-step leaf counts are captured; with
    record.degree_checkpoints, degree histograms of the tree truncated at the
    requested sizes are captured.
    """
    validate_schedule(schedule)
    if n < 2:
        raise SizeTooSmall(f"n must be >= 2, got {n}")
    record = record or RecordFlags()
    for m in record.degree_checkpoints:
        if not 2 <= m <= n:
            raise ValueError(f"degree checkpoint {m} outside 2..{n}")
    gen = as_generator(rng)

    offs = step_offsets(schedule, n)
    sizes = np.arange(1, n, dtype=np.float64)
    total_weight = (2.0 + offs) * sizes - 1.0
    copy_p = (sizes - 1.0) / total_weight
    coin = gen.random(n - 1)
    pick = gen.random(n - 1)
    is_copy = coin < copy_p
    target = np.where(
        is_copy,
        2 + (pick * (sizes - 1.0)).astype(np.int64),
        1 + (pick * sizes).astype(np.int64),
    )

    parent = np.zeros(n + 1, dtype=np.int64)
    parent[2:] = target
    unresolved = np.zeros(n + 1, dtype=bool)
    unresolved[2:] = is_copy
    pending = np.nonzero(unresolved)[0]
    while pending.size:
        t = parent[pending]
        parent[pending] = parent[t]
        unresolved[pending] = unresolved[t]
        pending = pending[unresolved[pending]]

    out_degree = np.bincount(parent[2:], minlength=n + 1)
    tree = GrowingTree(n=n, parent=parent, out_degree=out_degree)
    if record.leaves:
        tree.leaf_trajectory = _leaf_trajectory(parent, n)
    for m in record.degree_checkpoints:
        tree.degree_snapshots[int(m)] = degree_histogram(tree, upto=int(m))
    return tree


def degree_histogram(tree: GrowingTree, upto: int | None = None) -> DegreeHistogram:
    """Degree histogram of the tree, optionally truncated at its first `upto` vertices."""
    m = tree.n if upto is None else int(upto)
    if not 2 <= m <= tree.n:
        raise ValueError(f"truncation size {m} outside 2..{tree.n}")
    out_deg = np.bincount(tree.parent[2 : m + 1], minlength=m + 1)
    deg = out_deg[1 : m + 1] + 1
    deg[0] -= 1
    return DegreeHistogram(counts=np.bincount(deg), n=m)


def top_k_degrees(tree: GrowingTree, k: int) -> np.ndarray:
    """The k largest total degrees, non-increasing."""
    if not 1 <= k <= tree.n:
        raise KTooLarge(f"k={k} outside 1..{tree.n}")
    deg = tree.total_degrees()
    return np.sort(deg)[::-1][:k].copy()


def save_tree(tree: GrowingTree, path) -> None:
    """Binary format: magic 'PACT', version u64 LE, n u64 LE, then parent[1..n] as u64 LE."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<QQ", _FORMAT_VERSION, tree.n))
        fh.write(tree.parent[1 : tree.n + 1].astype("<u8").tobytes())


def load_tree(path) -> GrowingTree:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        version, n = struct.unpack("<QQ", fh.read(16))
        if version != _FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        raw = fh.read(8 * n)
        if len(raw) != 8 * n:
            raise ValueError(f"{path}: truncated parent array")
    parent = np.zeros(n + 1, dtype=np.int64)
    parent[1:] = np.frombuffer(raw, dtype="<u8").astype(np.int64)
    out_degree = np.bincount(parent[2:], minlength=n + 1)
    return GrowingTree(n=int(n), parent=parent, out_degree=out_degree)


def write_edge_csv(tree: GrowingTree, path) -> None:
    write_csv(path, ["child", "parent"], [range(2, tree.n + 1), tree.parent[2 : tree.n + 1]])


def write_histogram_csv(hist: DegreeHistogram, path) -> None:
    ks = np.flatnonzero(hist.counts[1:]) + 1
    write_csv(path, ["k", "count"], [ks, hist.counts[ks]])
