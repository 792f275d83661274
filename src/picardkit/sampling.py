"""Seeded sample generation for the verifiers.

All randomness flows through numpy Generators created by :func:`seeded_rng`;
the default seed (42) keeps reports reproducible run to run. Mesh samplers
are deterministic by construction. Every sampler gives a table the block
verifiers take as it is. Samples of reals are (N, k) float arrays, built
by :func:`mesh_array` and :func:`uniform_array`. A :class:`SampleStream`
joins sample sets without building the joined table: it makes the rows a
verifier's chunk asks for, a :class:`Mesh` a block of rows at a time, so a
verify pass over a large mesh holds one chunk of it, never the whole. Pairs
of grid functions are one (N, 2, n + 1) float array from
:func:`random_grid_pairs`, and a reshaped view of it groups the same
functions in triples.
"""

from __future__ import annotations

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


def mesh_array(low: float, high: float, per_axis: int) -> np.ndarray:
    """The rows of ``Mesh(low, high, per_axis)`` as one (per_axis**2, 2) array."""
    return Mesh(low, high, per_axis)[:]


class SampleStream:
    """Samples of reals as one (N, k) table that is never built: the rows of
    ``parts`` in order, each part a :class:`Mesh` or an (n, k) array of
    reals, all of one width k. ``len`` is N, and a slice ``[start:stop]``
    makes those rows as a float array, a view where they lie in one array.
    The pair and triple verifiers take a stream in place of an (N, k)
    array and make it one chunk at a time."""

    def __init__(self, *parts):
        self.parts = [part if isinstance(part, Mesh) else np.asarray(part, dtype=float)
                      for part in parts]
        widths = {part[0:0].shape for part in self.parts}
        if len(widths) != 1 or len(widths.pop()) != 2:
            raise DimensionError("the parts of a sample stream must be (n, k) "
                                 "tables of reals of one width k")

    def __len__(self) -> int:
        return sum(map(len, self.parts))

    def __getitem__(self, rows: slice) -> np.ndarray:
        start, stop, _ = rows.indices(len(self))
        blocks = []
        for part in self.parts:
            blocks.append(part[max(start, 0):max(stop, 0)])
            start, stop = start - len(part), stop - len(part)
        filled = [block for block in blocks if len(block)]
        return filled[0] if len(filled) == 1 else np.concatenate(blocks)


def uniform_array(rng: np.random.Generator, count: int, low: float, high: float,
                  width: int) -> np.ndarray:
    """``count`` uniform samples of ``width`` coordinates, a (count, width) array."""
    return rng.uniform(low, high, size=(count, width))


def random_grid_pairs(rng: np.random.Generator, count: int, n: int,
                      low: float = 0.0, high: float = 1.0) -> np.ndarray:
    """``count`` pairs of grid functions of n + 1 nodes with independent
    uniform node values, as the one drawn (count, 2, n + 1) block: row i is
    the pair i."""
    return rng.uniform(low, high, size=(count, 2, n + 1))


def probe_pair(limit: float, length: int = 200, t_offset: float = 1.0,
               s_offset: float = 1.0, start: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Paired sequences ``limit + offset / k`` sharing the limit ``limit``.

    Zero offsets give constant sequences. Negative offsets approach from
    below; pick ``start`` large enough to keep every term positive.
    """
    k = np.arange(start, start + length, dtype=float)
    return limit + t_offset / k, limit + s_offset / k
