"""Seeded sample generation for the verifiers.

All randomness flows through numpy Generators created by :func:`seeded_rng`;
the default seed (42) keeps reports reproducible run to run. A sample set
the verifiers take whole is an (N, k) float array of reals. A row source
makes its rows a slice at a time: ``len`` is its number of rows, and a
slice ``[start:stop]`` makes those rows as a new float array. There are two
kinds: a :class:`Mesh` of pairs, deterministic by construction, and a
:class:`Draw` of uniform rows of any row shape, reals or grid functions,
which reads its rows back from the generator state it saved. A
:class:`SampleStream` joins row sources and arrays of one row shape without
building the joined table, so a verify pass holds one chunk of its samples,
never the whole.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from .errors import DimensionError

DEFAULT_SEED = 42


def seeded_rng(seed: int = DEFAULT_SEED) -> np.random.Generator:
    return np.random.default_rng(int(seed))


class Mesh:
    """All pairs from a uniform mesh with ``per_axis`` points per coordinate,
    endpoints included, in row-major order: row k is ``(axis[k // per_axis],
    axis[k % per_axis])`` of ``axis = linspace(low, high, per_axis)``.
    ``len`` is the number of rows, and a slice ``[start:stop]`` makes those
    rows as a new (k, 2) array, so the mesh is never held whole."""

    def __init__(self, low: float, high: float, per_axis: int):
        self.axis = np.linspace(low, high, per_axis)

    def __len__(self) -> int:
        return self.axis.size ** 2

    def __getitem__(self, rows: slice) -> np.ndarray:
        k = np.arange(*rows.indices(len(self)))
        return self.axis[np.stack(np.divmod(k, self.axis.size), axis=1)]


class Draw:
    """The block ``rng.uniform(low, high, (rows, *shape))`` would draw, made
    a slice at a time: it saves the state of ``rng`` and advances ``rng``
    past the block, so the caller's later draws are those after the block.
    A slice ``[start:stop]`` draws those rows from a copy of the saved state
    advanced past the rows before them (each value takes one 64-bit output
    of the bit generator, which must have ``advance``, as numpy's default
    PCG64 has), so every slice equals those rows of the block bit for bit."""

    def __init__(self, rng: np.random.Generator, rows: int, shape: tuple[int, ...],
                 low: float = 0.0, high: float = 1.0):
        self.rows, self.shape, self.low, self.high = rows, tuple(shape), low, high
        self._rng, self._saved = copy.deepcopy(rng), rng.bit_generator.state
        rng.bit_generator.advance(rows * math.prod(self.shape))

    def __len__(self) -> int:
        return self.rows

    def __getitem__(self, rows: slice) -> np.ndarray:
        start, stop, _ = rows.indices(self.rows)
        self._rng.bit_generator.state = self._saved
        self._rng.bit_generator.advance(start * math.prod(self.shape))
        return self._rng.uniform(self.low, self.high, (max(stop - start, 0), *self.shape))


class SampleStream:
    """Samples as one (N, ...) table that is never built: the rows of
    ``parts`` in order, each part a row source (:class:`Mesh`,
    :class:`Draw`) or an array, all of one row shape of at least one
    axis: k reals, or k grid functions. ``len`` is N, and a slice
    ``[start:stop]`` makes those rows as a float array, a view where they
    lie in one array. The pair and triple verifiers take a stream in place
    of an array and make it one chunk at a time."""

    def __init__(self, *parts):
        self.parts = [part if isinstance(part, (Mesh, Draw)) else np.asarray(part, dtype=float)
                      for part in parts]
        shapes = {part[0:0].shape for part in self.parts}
        if len(shapes) != 1 or len(shapes.pop()) < 2:
            raise DimensionError("the parts of a sample stream must share a row shape")

    def __len__(self) -> int:
        return sum(map(len, self.parts))

    def __getitem__(self, rows: slice) -> np.ndarray:
        start, stop, _ = rows.indices(len(self))
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
