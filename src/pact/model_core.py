"""Shared domain types: attachment schedules, segment lookup, seeded random
generators, and the CSV writer behind every artifact.

The model grows a rooted tree one vertex at a time.  Vertex m+1 attaches to
an existing vertex v with probability proportional to out_degree(v) + 1 + c,
where the offset c is alpha until the tree passes size floor(gamma_1 * n),
then beta_1 until floor(gamma_2 * n), and so on.  A schedule with no segments
is the plain model with a single offset alpha.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

# Rows formatted per batch.  At 65,536 rows a 4.5e5 x 3 float table is no
# faster (1.4-2.2 s against 1.4-1.9 s on a 2-vCPU VM) and the writer's traced
# peak rises from 1.3 to 20.4 MB; see test_write_csv_peak_memory_stays_one_chunk.
_CSV_CHUNK = 4096
_CSV_SPECIAL = re.compile('[\0,"\r\n]')  # NUL, or a character the csv module quotes
_MAX_OFFSET = 2.0**53  # above it, float64 rounds away the +1 and +2 of out_degree + 1 + c
_MIN_FRACTION = 1e-100  # least gamma_1 and fclt t: below it the limit curves overflow


class Segment(NamedTuple):
    gamma: float
    beta: float


@dataclass(frozen=True)
class ChangePointSchedule:
    """Parameter set (alpha, [(gamma_1, beta_1), ...]) driving the attachment rule.

    ``segments`` is ordered by gamma.  An empty list means no change point;
    a single entry is the basic one-change-point model.  Every schedule is
    valid: construction raises ValueError unless 0 <= alpha <= 2^53,
    0 < beta <= 2^53 for each beta, and 1e-100 <= gamma_1 < ... < gamma_k < 1.
    alpha = 0, the uniform-attachment end of the family, is accepted.
    """

    alpha: float
    segments: tuple[Segment, ...] = ()

    def __post_init__(self) -> None:
        coerced = tuple(Segment(float(g), float(b)) for g, b in self.segments)
        object.__setattr__(self, "segments", coerced)
        object.__setattr__(self, "alpha", float(self.alpha))
        if not 0 <= self.alpha <= _MAX_OFFSET:
            raise ValueError(f"alpha must be >= 0 and <= 2^53, got {self.alpha}")
        for seg in self.segments:
            if not 0 < seg.beta <= _MAX_OFFSET:
                raise ValueError(f"beta must be > 0 and <= 2^53, got {seg.beta}")
            if not np.isfinite(seg.gamma):
                raise ValueError(f"gamma must be finite, got {seg.gamma}")
        gammas = [s.gamma for s in self.segments]
        for prev, cur in zip([0.0] + gammas, gammas + [1.0]):
            if not prev < cur:
                raise ValueError(
                    f"change points must satisfy 0 < gamma_1 < ... < gamma_k < 1, got {gammas}"
                )
        if gammas and gammas[0] < _MIN_FRACTION:
            raise ValueError(f"gamma_1 must be >= 1e-100, got {gammas[0]}")

    @classmethod
    def single(cls, alpha: float, beta: float, gamma: float) -> "ChangePointSchedule":
        return cls(alpha=alpha, segments=(Segment(gamma, beta),))

    @property
    def num_change_points(self) -> int:
        return len(self.segments)

    def offsets(self) -> tuple[float, ...]:
        """Offsets per segment: (alpha, beta_1, ..., beta_k)."""
        return (self.alpha,) + tuple(s.beta for s in self.segments)

    def boundaries(self, n: int) -> list[int]:
        """Step boundaries [0, floor(gamma_1 n), ..., floor(gamma_k n), n].

        Segment j covers entering vertices m with boundaries[j] < m <= boundaries[j+1].
        """
        return [0] + [int(np.floor(s.gamma * n)) for s in self.segments] + [n]


def seeded_generator(seed: int, stream_id: int = 0) -> np.random.Generator:
    """PCG64DXSM keyed by SeedSequence(seed, spawn_key=(stream_id,)), numpy's own
    stream_id-th spawned child of seed.  Identical pairs replay the identical
    sequence; distinct stream_ids give independent streams, so ensemble
    replications can run in parallel without coordination.
    """
    seq = np.random.SeedSequence(seed, spawn_key=(stream_id,))
    return np.random.Generator(np.random.PCG64DXSM(seq))


def write_csv(path, header: Sequence[str], columns: Sequence[Sequence]) -> None:
    """Write a header row, then row i = (column[i] for each column).

    The one CSV format of every artifact, byte for byte what the csv module's
    default writer gives for the same rows: minimal quoting, ``\\r\\n`` line
    ends, ints as decimals, floats as ``repr``, ``None`` as an empty field,
    UTF-8 text.  Each chunk of rows becomes one column-major byte matrix:
    a (width, rows) block of NUL-padded fields per column, one contiguous
    row per character position, with a ``,`` row between blocks and two
    ``\\r\\n`` rows at the end.  The file gets the transposed matrix's bytes
    with every NUL removed.  So a write never holds more than one chunk of
    formatted rows, and text holding a NUL is a ValueError.  Integer chunks in
    [0, 2**32) take a uint32 digit kernel; other integers take ``str``, like text.
    """
    rows = len(columns[0]) if columns else 0
    if any(len(col) != rows for col in columns):
        raise ValueError("write_csv: columns differ in length")
    lone = len(columns) == 1
    with open(path, "wb") as fh:
        line = ",".join(_text_field(h, len(header) == 1) for h in header) + "\r\n"
        fh.write(line.encode("utf-8"))
        for lo in range(0, rows, _CSV_CHUNK):
            blocks = [_field_block(col[lo : lo + _CSV_CHUNK], lone) for col in columns]
            sep = np.full((1, blocks[0].shape[1]), ord(","), dtype=np.uint8)
            end = np.broadcast_to(np.frombuffer(b"\r\n", dtype=np.uint8)[:, None], (2, sep.size))
            parts = [p for b in blocks for p in (b, sep)]
            matrix = np.concatenate(parts[:-1] + [end])
            fh.write(matrix.T.tobytes().replace(b"\0", b""))


def _field_block(chunk, lone: bool) -> np.ndarray:
    """One column chunk as a (width, rows) uint8 matrix of NUL-padded fields."""
    if isinstance(chunk, range):
        chunk = np.arange(chunk.start, chunk.stop, chunk.step, dtype=np.int64)
    kind = chunk.dtype.kind if isinstance(chunk, np.ndarray) and chunk.ndim == 1 else None
    if kind in ("i", "u") and 0 <= chunk.min() and chunk.max() < 2**32:
        return _int_block(chunk.astype(np.uint32))
    values = chunk.tolist() if isinstance(chunk, np.ndarray) else chunk
    if kind == "f":  # str of a float is its repr, ASCII and never quoted
        fields = np.array(list(map(str, values)), dtype="S")
    else:
        fields = np.array([_text_field(v, lone).encode("utf-8") for v in values], dtype="S")
    return fields.view(np.uint8).reshape(len(fields), fields.dtype.itemsize).T


def _int_block(values: np.ndarray) -> np.ndarray:
    """Base-10 digits of a uint32 array as a (width, rows) matrix, one row per
    digit plane, right-aligned."""
    ten = np.uint32(10)  # floor_divide by a scalar takes the constant-divisor path
    width = len(str(int(values.max())))
    out = np.zeros((width, len(values)), dtype=np.uint8)
    quotient = values // ten
    out[-1] = values - quotient * ten
    out[-1] += ord("0")  # the units digit is always written, so zero is "0"
    for j in range(width - 2, -1, -1):
        values = quotient
        quotient = values // ten
        out[j] = values - quotient * ten
        out[j] += ord("0")
        out[j] *= values > 0  # no digit left: NUL
    return out


def _text_field(value, lone: bool) -> str:
    """One field as the csv module writes it; ``lone`` says it is a row's only field."""
    text = "" if value is None else str(value)
    if (lone and not text) or _CSV_SPECIAL.search(text):
        if "\0" in text:
            raise ValueError(f"write_csv: field {text!r} contains NUL, the padding byte")
        return '"' + text.replace('"', '""') + '"'
    return text
