"""Seeded sample generation for the verifiers.

All randomness flows from the :class:`SplitMix64` stream that
:func:`seeded_rng` creates; the default seed (42) keeps reports
reproducible run to run. A sample set the verifiers take whole is an
(N, k) float array of reals. A :class:`RowSource` makes its rows a slice
at a time: ``len`` is its number of rows, and a slice, of any step, makes
the rows it picks as a float array. There are three kinds: a :class:`Mesh`
of pairs, deterministic by construction; a :class:`Draw` of uniform rows
of any row shape, reals or grid functions, which computes its rows from the
span of the stream it reserved; and a :class:`SampleStream`, which joins
row sources and arrays of one row shape without building the joined table,
so a verify pass holds one chunk of its samples, never the whole.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import DimensionError, DomainError
from .metrics import _require_int

DEFAULT_SEED = 42
GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's increment, 2**64 over the golden ratio


class SplitMix64:
    """The SplitMix64 stream of ``seed`` (Steele, Lea & Flood, OOPSLA 2014),
    read by counter (Salmon et al., SC 2011): value i is ``mix64(seed +
    (i + 1) * GAMMA)`` mod 2**64, so any span of it is made directly. The
    first ``drawn`` values are reserved by the draws made from it."""

    def __init__(self, seed: int, drawn: int):
        self.seed, self.drawn = seed, drawn


def seeded_rng(seed: int = DEFAULT_SEED) -> SplitMix64:
    if not 0 <= seed < 2 ** 64:
        raise DomainError(f"a seed must be an unsigned 64-bit integer, got {seed!r}")
    return SplitMix64(int(seed), 0)


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
    """``rows`` rows of ``shape`` drawn uniform in ``[low, high)``, made a
    slice at a time: it reserves the next ``rows * prod(shape)`` values of
    ``rng``'s stream, so the caller's later draws are those after the block,
    and makes a slice's rows from their span of the stream alone, so every
    slice equals those rows of the whole block bit for bit. A value z gives
    ``low + (high - low) * ((z >> 11) * 2**-53)``, as numpy's
    ``Generator.uniform`` makes one from a 64-bit output. Bounds that are not
    reals or whose width is not finite or negative, and a count of rows or a
    shape entry that is not an int of at least 0, raise :class:`DomainError`
    before ``rng`` is touched."""

    def __init__(self, rng: SplitMix64, rows: int, shape: tuple[int, ...],
                 low: float = 0.0, high: float = 1.0):
        for name, value in (("rows", rows), *(("a draw's shape entry", entry) for entry in shape)):
            _require_int(name, value, least=0)
        if not all(isinstance(bound, numbers.Real) for bound in (low, high)):
            raise DomainError(f"a draw's bounds must be reals, got {low!r} and {high!r}")
        if not math.isfinite(high - low):  # a bound that is not, or a width that overflows
            raise DomainError(f"a draw's high - low is not finite, for {low!r} and {high!r}")
        if math.copysign(1.0, high - low) < 0.0:  # low > high, or low = 0.0 and high = -0.0
            raise DomainError(f"a draw's low = {low!r} exceeds its high = {high!r}")
        # Python ints, so that the counter cannot overflow
        self.rows, self.shape, self.low, self.high = int(rows), tuple(map(int, shape)), low, high
        self._seed, self._first = rng.seed, rng.drawn
        rng.drawn += self.rows * math.prod(self.shape)

    def __len__(self) -> int:
        return self.rows

    def _rows(self, start: int, stop: int) -> np.ndarray:
        size = math.prod(self.shape)
        z = np.arange((stop - start) * size, dtype=np.uint64).reshape(stop - start, *self.shape)
        z *= np.uint64(GAMMA)  # the counters, mixed in place: uint64 wraps mod 2**64
        z += np.uint64((self._seed + (self._first + start * size + 1) * GAMMA) % 2 ** 64)
        values = np.empty(z.shape)
        shifted = values.view(np.uint64)  # the shifts' scratch, until the values fill it
        for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
            z ^= np.right_shift(z, shift, out=shifted)
            z *= np.uint64(factor)
        z ^= np.right_shift(z, 31, out=shifted)
        z >>= np.uint64(11)
        np.multiply(z, 2.0 ** -53, out=values)
        values *= float(self.high) - float(self.low)
        values += float(self.low)
        return values


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
