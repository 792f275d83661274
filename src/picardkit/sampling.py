"""Seeded sample generation for the verifiers.

All randomness flows through numpy Generators created by :func:`seeded_rng`;
the default seed (42) keeps reports reproducible run to run. Mesh samplers
are deterministic by construction. Samples of reals are (N, k) float
arrays, built by :func:`mesh_array` and :func:`uniform_array`, which the
block verifiers take as they are; join sample sets with ``np.concatenate``.
Grid functions come in pairs from :func:`random_grid_pairs`.
"""

from __future__ import annotations

import numpy as np

DEFAULT_SEED = 42


def seeded_rng(seed: int = DEFAULT_SEED) -> np.random.Generator:
    return np.random.default_rng(int(seed))


def mesh_array(low: float, high: float, per_axis: int) -> np.ndarray:
    """All pairs from a uniform mesh with ``per_axis`` points per coordinate,
    endpoints included, as a (per_axis**2, 2) array in row-major order."""
    axis = np.linspace(low, high, per_axis)
    return np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)


def uniform_array(rng: np.random.Generator, count: int, low: float, high: float,
                  width: int) -> np.ndarray:
    """``count`` uniform samples of ``width`` coordinates, a (count, width) array."""
    return rng.uniform(low, high, size=(count, width))


def random_grid_pairs(rng: np.random.Generator, count: int, n: int,
                      low: float = 0.0, high: float = 1.0) -> list[tuple[np.ndarray, np.ndarray]]:
    """Pairs of grid functions with independent uniform node values: row
    views of one drawn (count, 2, n + 1) block, which they share."""
    block = rng.uniform(low, high, size=(count, 2, n + 1))
    return [(x, y) for x, y in block]


def probe_pair(limit: float, length: int = 200, t_offset: float = 1.0,
               s_offset: float = 1.0, start: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Paired sequences ``limit + offset / k`` sharing the limit ``limit``.

    Zero offsets give constant sequences. Negative offsets approach from
    below; pick ``start`` large enough to keep every term positive.
    """
    k = np.arange(start, start + length, dtype=float)
    return limit + t_offset / k, limit + s_offset / k
