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

import functools
import os
import struct
from dataclasses import dataclass

import numpy as np

from .leaf_process import LeafTrajectory
from .model_core import ChangePointSchedule, step_offsets, write_csv

_MAGIC = b"PACT"
_FORMAT_VERSION = 1


@dataclass
class DegreeHistogram:
    """counts[k] = number of vertices with total degree k (root degree = out-degree)."""

    counts: np.ndarray
    n: int

    def proportions(self, kmax: int) -> np.ndarray:
        """Proportions indexed by degree 0..kmax (missing degrees count as zero)."""
        out = np.zeros(kmax + 1, dtype=np.float64)
        upto = min(kmax + 1, self.counts.size)
        out[:upto] = self.counts[:upto] / self.n
        return out

    def ccdf(self) -> tuple[np.ndarray, np.ndarray]:
        """(ks, P(D >= k)) for k = 1..counts.size - 1, the largest degree when counts ends there."""
        return np.arange(1, self.counts.size), (self.counts[::-1].cumsum()[::-1] / self.n)[1:]

    def check_invariants(self) -> None:
        if int(self.counts.sum()) != self.n:
            raise ValueError("histogram mass != vertex count")
        total = int((np.arange(self.counts.size) * self.counts).sum())
        if total != 2 * (self.n - 1):
            raise ValueError("degree sum != 2 * edge count")


@dataclass
class GrowingTree:
    """Parent-array tree on vertices 1..n (index 0 unused, parent[1] = 0 sentinel)."""

    n: int
    parent: np.ndarray

    def total_degrees(self, upto: int | None = None) -> np.ndarray:
        """Total degree of vertices 1..m of the tree truncated at its first m = upto
        vertices (all n by default); the root's degree is its out-degree."""
        m = self.n if upto is None else upto
        deg = np.bincount(self.parent[2 : m + 1], minlength=m + 1)[1:]
        deg[1:] += 1  # every vertex but the root has its parent's edge
        return deg

    def leaf_trajectory(self) -> LeafTrajectory:
        """Leaf counts N(m), m = 2..n: vertex m adds a leaf and takes one from its parent
        when it is the parent's first child, or the root's second."""
        parent, n = self.parent, self.n
        index = np.int32 if n + 1 < 2**31 else np.int64  # first_child holds up to n + 1
        first_child = np.full(n + 1, n + 1, dtype=index)
        # children 3..n in descending order: the last write, the smallest child, wins.  With
        # vertex 2 left out, first_child[1] is the root's second, the step it stops being a leaf
        first_child[parent[:2:-1].astype(index)] = np.arange(n, 2, -1, dtype=index)
        counts = np.empty(n - 1, dtype=np.int64)
        counts[0] = 2  # at m=2 both the root (out-degree 1) and vertex 2 have degree 1
        counts[1:] = first_child[parent[3:]] != np.arange(3, n + 1, dtype=index)
        del first_child
        np.cumsum(counts, out=counts)
        return LeafTrajectory(n=n, counts=counts)

    def check_invariants(self) -> None:
        if self.parent[1] != 0:
            raise ValueError("root sentinel parent must be 0")
        parents = self.parent[2 : self.n + 1]
        if np.any(parents >= np.arange(2, self.n + 1)) or np.any(parents < 1):
            raise ValueError("parents must be earlier vertices")


def _step_tables(schedule: ChangePointSchedule, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per step i, entering vertex m = i + 2: the size s = i + 1 of the tree it joins, and
    the probability (s - 1)/((2 + c)s - 1) that it copies, c the offset of its segment."""
    sizes = np.arange(1, n, dtype=np.float64)
    den = step_offsets(schedule, n)  # c, then (2 + c)s - 1 in place
    den += 2.0
    den *= sizes
    den -= 1.0
    copy_p = sizes - 1.0
    copy_p /= den
    return sizes, copy_p


@functools.lru_cache(maxsize=1)
def _shared_step_tables(schedule: ChangePointSchedule, n: int) -> tuple[np.ndarray, np.ndarray]:
    """_step_tables, read-only and kept for the next call: an ensemble grows every tree at
    one (schedule, n), and rebuilding 16 B/vertex of fresh pages per tree costs more than
    the tree's own draws."""
    tables = _step_tables(schedule, n)
    for table in tables:
        table.flags.writeable = False
    return tables


def _draw_steps(copy_p: np.ndarray, gen: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(pick, is_copy) for every step, from one draw of 2 (n - 1) uniforms.

    The first n - 1 are the mixture coins, a step copies when its coin falls
    below copy_p; the rest are the uniform picks.
    """
    steps = copy_p.size
    draws = gen.random(2 * steps)
    return draws[steps:], draws[:steps] < copy_p


def grow_tree(schedule: ChangePointSchedule, n: int, gen: np.random.Generator) -> GrowingTree:
    """Grow an n-vertex tree under the schedule's attachment offsets.

    Vertex m+1 attaches under the offset of the segment containing step m+1.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")

    sizes, copy_p = _step_tables(schedule, n)
    pick, is_copy = _draw_steps(copy_p, gen)
    del copy_p  # each del frees an array before the next one is allocated
    # copy: 2 + floor(pick (s - 1)), a uniform edge u in 2..s; else 1 + floor(pick s)
    np.subtract(sizes, is_copy, out=sizes)
    pick *= sizes
    del sizes
    parent = np.empty(n + 1, dtype=np.int64)
    parent[:2] = 0
    parent[2:] = pick  # truncates, as astype does
    del pick
    parent[2:] += is_copy
    parent[2:] += 1

    unresolved = np.concatenate(([False, False], is_copy))
    pending = np.nonzero(unresolved)[0]
    while pending.size:
        t = parent[pending]
        parent[pending] = parent[t]
        unresolved[pending] = unresolved[t]
        pending = pending[unresolved[pending]]

    return GrowingTree(n=n, parent=parent)


def leaf_counts(schedule: ChangePointSchedule, n: int, gen: np.random.Generator,
                steps) -> np.ndarray:
    """Leaf counts N(m) at sorted steps m in 2..n of the tree grow_tree(schedule, n, gen)
    grows, read from the same draws without resolving a parent.

    A copy step attaches to parent[u], which already has the child u, so every
    vertex's first child arrives on a direct step: the vertices v >= 2 with a
    child by step m are the distinct direct targets 1 + floor(pick s) >= 2 of
    steps <= m.  The root, a leaf until its first child among vertices 3..m,
    gains it at the first step m >= 3 whose pick (s - is_copy) is below 1, the
    same product grow_tree truncates to find the parent.  A copy step through
    the edge (2, 1), pick (s - 1) < 1, has no direct target, so a doubling
    search finds that step; the full pick (s - is_copy) pass that folding it
    into has_child would need measured slower (BENCH_trims.json).  Then
    N(m) = m - #{v >= 2 with a child by m} - [m >= that step].
    """
    steps = np.asarray(steps, dtype=np.int64)
    if steps.size and (steps[0] < 2 or steps[-1] > n or np.any(np.diff(steps) < 0)):
        raise ValueError(f"steps must be sorted and lie in 2..{n}")
    sizes, copy_p = _shared_step_tables(schedule, n)
    pick, is_copy = _draw_steps(copy_p, gen)
    second, lo = n + 1, 1  # step index 1 is m = 3; search windows that double
    while lo < n - 1:
        hi = min(2 * lo + 8, n - 1)
        hits = np.flatnonzero(pick[lo:hi] * (sizes[lo:hi] - is_copy[lo:hi]) < 1.0)
        if hits.size:
            second = lo + int(hits[0]) + 2
            break
        lo = hi
    pick *= ~is_copy  # a copy step's pick becomes 0, the root, which is never counted
    pick *= sizes
    targets = pick.astype(np.intp)  # a direct step's target vertex, minus 1
    has_child = np.zeros(n, dtype=bool)
    counts = np.empty(steps.size, dtype=np.int64)
    prev = 1
    for i, m in enumerate(steps):
        has_child[targets[prev - 1 : m - 1]] = True  # the targets of steps prev + 1..m
        counts[i] = m - np.count_nonzero(has_child[1:]) - (m >= second)
        prev = m
    return counts


def degree_histogram(tree: GrowingTree, upto: int | None = None) -> DegreeHistogram:
    """Degree histogram of the tree, optionally truncated at its first `upto` vertices."""
    m = tree.n if upto is None else int(upto)
    if not 2 <= m <= tree.n:
        raise ValueError(f"truncation size {m} outside 2..{tree.n}")
    return DegreeHistogram(counts=np.bincount(tree.total_degrees(m)), n=m)


def max_degree(tree: GrowingTree) -> int:
    """The largest total degree M_n."""
    return int(tree.total_degrees().max())


def save_tree(tree: GrowingTree, path) -> None:
    """Binary format: magic 'PACT', version u64 LE, n u64 LE, then parent[1..n] as u64 LE."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<QQ", _FORMAT_VERSION, tree.n))
        fh.write(tree.parent[1 : tree.n + 1].astype("<u8"))


def load_tree(path) -> GrowingTree:
    """Read a tree written by save_tree; a ValueError naming the file unless it is a valid tree."""
    try:
        with open(path, "rb") as fh:
            magic = fh.read(4)
            if magic != _MAGIC:
                raise ValueError(f"bad magic {magic!r}")
            header = fh.read(16)
            if len(header) != 16:
                raise ValueError(f"header holds {len(header)} of its 16 bytes")
            version, n = struct.unpack("<QQ", header)
            if version != _FORMAT_VERSION:
                raise ValueError(f"unsupported version {version}")
            if n < 2:  # grow_tree's smallest tree; leaf_trajectory() cannot read n = 1
                raise ValueError(f"header n={n}, but a tree has n >= 2")
            size = os.fstat(fh.fileno()).st_size
            if size != 20 + 8 * n:
                raise ValueError(f"header n={n} needs {20 + 8 * n} bytes, file has {size}")
            raw = fh.read(8 * n)
        parent = np.zeros(n + 1, dtype=np.int64)
        parent[1:] = np.frombuffer(raw, dtype="<u8")  # a u64 >= 2^63 wraps negative: refused
        tree = GrowingTree(n=int(n), parent=parent)
        tree.check_invariants()
    except ValueError as exc:
        raise ValueError(f"tree file {path}: {exc}") from None
    return tree


def write_edge_csv(tree: GrowingTree, path) -> None:
    write_csv(path, ["child", "parent"], [range(2, tree.n + 1), tree.parent[2 : tree.n + 1]])


def write_histogram_csv(hist: DegreeHistogram, path) -> None:
    ks = np.flatnonzero(hist.counts[1:]) + 1
    write_csv(path, ["k", "count"], [ks, hist.counts[ks]])
