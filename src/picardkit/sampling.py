"""Seeded sample generation for the verifiers.

All randomness flows through numpy Generators created by :func:`seeded_rng`;
the default seed (42) keeps reports reproducible run to run. A sample set
the verifiers take whole is an (N, k) float array of reals. A
:class:`RowSource` makes its rows a slice at a time: ``len`` is its number
of rows, and a slice, of any step, makes the rows it picks as a float
array. There are three kinds: a :class:`Mesh` of pairs, deterministic by
construction; a :class:`Draw` of uniform rows of any row shape, reals or
grid functions, which reads its rows back from the generator state it
saved; and a :class:`SampleStream`, which joins row sources and arrays of
one row shape without building the joined table, so a verify pass holds
one chunk of its samples, never the whole.
"""

from __future__ import annotations

import copy
import math
import numbers

import numpy as np

from .errors import DimensionError, DomainError
from .metrics import _require_int

DEFAULT_SEED = 42


def seeded_rng(seed: int = DEFAULT_SEED) -> np.random.Generator:
    return np.random.default_rng(int(seed))


class RowSource:
    """``len`` rows, read like the array they stand for: a slice of any step
    makes the rows it picks as a float array, an int index (negative too)
    that row, or :class:`IndexError`: ``_rows(start, stop)`` those from the
    least to the greatest."""

    def __getitem__(self, rows: slice | int) -> np.ndarray:
        picked = range(len(self))[rows]
        if not isinstance(picked, range):
            return self._rows(picked, picked + 1)[0]
        if not picked:
            return self._rows(0, 0)
        low, high = sorted((picked[0], picked[-1]))
        return self._rows(low, high + 1)[picked[0] - low::picked.step]


class Mesh(RowSource):
    """All pairs from a uniform mesh with ``per_axis`` points per coordinate,
    endpoints included, in row-major order: row k is ``(axis[k // per_axis],
    axis[k % per_axis])`` of ``axis = linspace(low, high, per_axis)``, made
    as a new (k, 2) array a slice at a time, so the mesh is never held whole."""

    def __init__(self, low: float, high: float, per_axis: int):
        self.axis = np.linspace(low, high, per_axis)

    def __len__(self) -> int:
        return self.axis.size ** 2

    def _rows(self, start: int, stop: int) -> np.ndarray:
        k = np.arange(start, stop)
        return self.axis[np.stack(np.divmod(k, self.axis.size), axis=1)]


class Draw(RowSource):
    """The block ``rng.uniform(low, high, (rows, *shape))`` would draw, made
    a slice at a time: it saves the state of ``rng`` and advances ``rng``
    past the block, so the caller's later draws are those after the block.
    Rows are drawn from a copy of the saved state advanced past the rows
    before them (each value takes one 64-bit output of the bit generator,
    which must have ``advance``, as numpy's default PCG64 has), so every
    slice equals those rows of the block bit for bit. Bounds that are not
    reals or that numpy would refuse at the first slice, and a count of rows
    or a shape entry that is not an int of at least 0, raise
    :class:`DomainError` before ``rng`` is touched."""

    def __init__(self, rng: np.random.Generator, rows: int, shape: tuple[int, ...],
                 low: float = 0.0, high: float = 1.0):
        for name, value in (("rows", rows), *(("a draw's shape entry", entry) for entry in shape)):
            _require_int(name, value, least=0)
        if not all(isinstance(bound, numbers.Real) for bound in (low, high)):
            raise DomainError(f"a draw's bounds must be reals, got {low!r} and {high!r}")
        if not math.isfinite(high - low):  # a bound that is not, or a width that overflows
            raise DomainError(f"a draw's high - low is not finite, for {low!r} and {high!r}")
        if math.copysign(1.0, high - low) < 0.0:  # low > high, or 0.0 and -0.0 as numpy reads them
            raise DomainError(f"a draw's low = {low!r} exceeds its high = {high!r}")
        # Python ints, so that the jump of ``advance`` cannot overflow
        self.rows, self.shape, self.low, self.high = int(rows), tuple(map(int, shape)), low, high
        self._rng, self._saved = copy.deepcopy(rng), rng.bit_generator.state
        rng.bit_generator.advance(self.rows * math.prod(self.shape))

    def __len__(self) -> int:
        return self.rows

    def _rows(self, start: int, stop: int) -> np.ndarray:
        self._rng.bit_generator.state = self._saved
        self._rng.bit_generator.advance(start * math.prod(self.shape))
        return self._rng.uniform(self.low, self.high, (stop - start, *self.shape))


class SampleStream(RowSource):
    """Samples as one (N, ...) table that is never built: the rows of
    ``parts`` in order, each part a :class:`RowSource` or an array, all of
    one row shape of at least one axis: k reals, or k grid functions. A
    slice makes its rows as a view where they lie in one array. The pair
    and triple verifiers take a stream in place of an array and make it one
    chunk at a time."""

    def __init__(self, *parts):
        self.parts = [part if isinstance(part, RowSource) else np.asarray(part, dtype=float)
                      for part in parts]
        shapes = {part[0:0].shape for part in self.parts}
        if len(shapes) != 1 or len(shapes.pop()) < 2:
            raise DimensionError("the parts of a sample stream must share a row shape")

    def __len__(self) -> int:
        return sum(map(len, self.parts))

    def _rows(self, start: int, stop: int) -> np.ndarray:
        offsets = np.cumsum([0, *map(len, self.parts)]).tolist()  # where each part starts
        blocks = [part[max(start - at, 0):max(stop - at, 0)]
                  for part, at in zip(self.parts, offsets)]
        filled = [block for block in blocks if len(block)]
        return filled[0] if len(filled) == 1 else np.concatenate(blocks)


def probe_pair(limit: float, length: int = 200, t_offset: float = 1.0,
               s_offset: float = 1.0, start: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Paired sequences ``limit + offset / k`` sharing the limit ``limit``.

    Zero offsets give constant sequences. Negative offsets approach from
    below; pick ``start`` large enough to keep every term positive.
    """
    k = np.arange(start, start + length, dtype=float)
    return limit + t_offset / k, limit + s_offset / k
