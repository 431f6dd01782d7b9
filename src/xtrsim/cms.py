"""Count-Min Sketch with saturating fixed-width counters.

The sketch keeps a depth x width matrix of small counters. Every row owns a
hash function from a pairwise-independent family; an update touches one cell
per row and a point query returns the minimum over the touched cells, so the
estimate can only ever overshoot the true count.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

# Modulus of the per-row universal hash ((a*x + b) mod p) mod width. A 31-bit
# Mersenne prime keeps a*x + b under 2**62 so the vectorized path stays inside
# uint64 arithmetic. Keys are folded into [0, p) before hashing.
_HASH_PRIME = (1 << 31) - 1

_CELL_DTYPES = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}


class InvalidParams(ValueError):
    """Raised for sketch parameters outside their documented domain."""


def cell_max(cell_width_bytes: int) -> int:
    """Largest count a cell of this many bytes holds; it saturates there."""
    if cell_width_bytes not in _CELL_DTYPES:
        raise InvalidParams(f"cell width must be one of {sorted(_CELL_DTYPES)} bytes")
    return (1 << (8 * cell_width_bytes)) - 1


@dataclass(frozen=True)
class SketchParams:
    """Accuracy/confidence pair used to size a sketch.

    epsilon bounds the additive estimation error relative to the stream mass,
    delta is the probability that the bound holds for a query.
    """

    epsilon: float
    delta: float

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon <= 2.0:
            raise InvalidParams(f"epsilon must be in (0, 2], got {self.epsilon}")
        if not 0.0 <= self.delta < 1.0:
            raise InvalidParams(f"delta must be in [0, 1), got {self.delta}")


@dataclass(frozen=True)
class SketchDims:
    """Concrete matrix shape of a sketch."""

    width: int
    depth: int

    def __post_init__(self) -> None:
        if self.width < 1:
            raise InvalidParams(f"width must be >= 1, got {self.width}")
        if self.depth < 1:
            raise InvalidParams(f"depth must be >= 1, got {self.depth}")

    def memory_bytes(self, cell_width_bytes: int = 2) -> int:
        return self.width * self.depth * cell_width_bytes


def _guarded_ceil(x: float) -> int:
    # Snap to the nearest integer before ceiling when float noise is the only
    # thing keeping x off it (e.g. log(0.125)/log(0.5) = 3.0000000000000004).
    nearest = round(x)
    if abs(x - nearest) <= 1e-12 * max(1.0, abs(x)):
        return int(nearest)
    return math.ceil(x)


def dims_from_params(params: SketchParams) -> SketchDims:
    """Size a sketch as width = ceil(2/epsilon), depth = ceil(log(1-delta)/log(1/2)).

    delta = 0 yields depth 0 and is rejected.
    """
    width = _guarded_ceil(2.0 / params.epsilon)
    depth = _guarded_ceil(math.log1p(-params.delta) / math.log(0.5))
    if depth < 1:
        raise InvalidParams(f"delta={params.delta} yields depth {depth} (< 1)")
    return SketchDims(width, depth)


def _row_coefficients(seed: int, row: int) -> tuple[int, int]:
    """Deterministic (a, b) draw for one row's universal hash."""
    rng = random.Random(f"cms-{seed}-{row}")
    a = rng.randrange(1, _HASH_PRIME)
    b = rng.randrange(_HASH_PRIME)
    return a, b


def _key_to_int(key: int | bytes) -> int:
    """Fold a key into the hash domain [0, prime).

    Byte keys hash by their canonical big-endian integer value, so a 128-bit
    address and its 16-byte encoding land in the same cells.
    """
    if isinstance(key, bytes):
        key = int.from_bytes(key, "big")
    return key % _HASH_PRIME


class CountMinSketch:
    """Frequency sketch over opaque keys.

    Cells are fixed-width unsigned counters that saturate at their maximum
    value instead of wrapping; saturation is silent and only ever preserves
    the no-underestimation guarantee for counts below the cap.
    """

    def __init__(self, dims: SketchDims, *, seed: int = 0, cell_width_bytes: int = 2):
        self.cell_max = cell_max(cell_width_bytes)
        self.dims = dims
        self.seed = seed
        self.cell_width_bytes = cell_width_bytes
        self._cells = np.zeros((dims.depth, dims.width), dtype=_CELL_DTYPES[cell_width_bytes])
        coeffs = [_row_coefficients(seed, r) for r in range(dims.depth)]
        self._a = [c[0] for c in coeffs]
        self._b = [c[1] for c in coeffs]

    @property
    def memory_bytes(self) -> int:
        return self.dims.memory_bytes(self.cell_width_bytes)

    def _index(self, row: int, key_int: int) -> int:
        return ((self._a[row] * key_int + self._b[row]) % _HASH_PRIME) % self.dims.width

    def increment(self, key: int | bytes, amount: int = 1) -> None:
        """Add amount (>= 1) to the key's cell in every row, saturating."""
        if amount < 1:
            raise ValueError(f"amount must be >= 1, got {amount}")
        x = _key_to_int(key)
        for row in range(self.dims.depth):
            col = self._index(row, x)
            self._cells[row, col] = min(int(self._cells[row, col]) + amount, self.cell_max)

    def estimate(self, key: int | bytes) -> int:
        """Point estimate: minimum of the key's cells, never below the true count."""
        x = _key_to_int(key)
        return min(int(self._cells[row, self._index(row, x)])
                   for row in range(self.dims.depth))

    def _indices_vec(self, row: int, keys: np.ndarray) -> np.ndarray:
        folded = keys.astype(np.uint64) % _HASH_PRIME
        return ((self._a[row] * folded + self._b[row]) % _HASH_PRIME) % self.dims.width

    def add_counts(self, keys: np.ndarray, counts: np.ndarray) -> None:
        """Vectorized bulk increment; same placement as repeated increment()."""
        counts = np.asarray(counts)
        if np.any(counts < 1):
            raise ValueError("counts must all be >= 1")
        for row in range(self.dims.depth):
            idx = self._indices_vec(row, keys)
            # bincount sums exactly: per-cell mass stays far below 2**53.
            added = np.bincount(idx, weights=counts, minlength=self.dims.width)
            merged = self._cells[row] + added
            np.minimum(merged, self.cell_max, out=merged)
            self._cells[row] = merged.astype(self._cells.dtype)

    def estimate_many(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized point estimates for an array of integer keys."""
        est: np.ndarray | None = None
        for row in range(self.dims.depth):
            vals = self._cells[row][self._indices_vec(row, keys)]
            est = vals if est is None else np.minimum(est, vals)
        assert est is not None
        return est.astype(np.int64)

    def reset(self) -> None:
        """Zero every cell; hash functions (and future placements) are kept."""
        self._cells[:] = 0
