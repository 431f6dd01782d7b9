"""Count-Min Sketch with saturating uint16 counters.

The sketch keeps a depth x width matrix of small counters. Every row owns a
hash function drawn from a universal family over keys of up to 150 bits (so
every 128-bit address): the key is split into 30-bit limbs x_i and hashed as
(b + sum a_i*x_i) mod p, then mod width (Carter & Wegman 1979). Two distinct
keys share a row's cell with probability about 1/width, whatever the keys.
An update touches one cell per row and a point query returns the minimum
over the touched cells, so the estimate can only ever overshoot the true
count.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass

import numpy as np

from .cache import check_count

# Modulus of the per-row hash (b + sum a_i*x_i) mod p over 30-bit limbs x_i.
# With a 31-bit Mersenne prime every term a_i*x_i plus a reduced partial sum
# stays under 2**62, so the vector path runs in int64 arithmetic when it
# reduces after each term.
_HASH_PRIME = (1 << 31) - 1
_LIMB_BITS = 30
_LIMB_MASK = (1 << _LIMB_BITS) - 1
_KEY_LIMBS = 5  # keys below 2**150, which holds every 128-bit address

# Widest sketch row: every row hash is below p, so a column at p or past it
# is never reached. A width up to p also fits the uint32 that `_column` uses.
MAX_WIDTH = _HASH_PRIME

# Every cell is a uint16 that saturates at CELL_MAX instead of wrapping.
CELL_MAX = 65535


def check_reachable(threshold: int) -> None:
    """Refuse a threshold that a saturated cell's count cannot exceed: flagging
    on count > threshold would then be switched off without a word."""
    if threshold >= CELL_MAX:
        raise ValueError(f"threshold {threshold} is unreachable: cells saturate at {CELL_MAX}")


@dataclass(frozen=True)
class SketchParams:
    """Accuracy/confidence pair used to size a sketch.

    epsilon bounds the additive estimation error relative to the stream mass,
    delta is the probability that the bound holds for a query.
    """

    epsilon: float
    delta: float

    def __post_init__(self) -> None:
        if type(self.epsilon) not in (int, float) or not 0.0 < self.epsilon <= 2.0:
            raise ValueError(f"epsilon must be in (0, 2], got {self.epsilon!r}")
        if type(self.delta) not in (int, float) or not 0.0 <= self.delta < 1.0:
            raise ValueError(f"delta must be in [0, 1), got {self.delta!r}")


@dataclass(frozen=True)
class SketchDims:
    """Concrete matrix shape of a sketch."""

    width: int
    depth: int

    def __post_init__(self) -> None:
        check_count("width", self.width, 1)
        if self.width > MAX_WIDTH:
            raise ValueError(f"width must be <= {MAX_WIDTH}, the row hash's range: "
                             f"no key reaches a cell past it, got {self.width}")
        check_count("depth", self.depth, 1)

    def memory_bytes(self) -> int:
        return self.width * self.depth * 2  # a uint16 cell is 2 bytes


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
        raise ValueError(f"delta={params.delta} yields depth {depth} (< 1)")
    return SketchDims(width, depth)


def _row_coefficients(seed: int, row: int) -> tuple[int, tuple[int, ...]]:
    """Deterministic (b, (a_0, ..., a_4)) draw for one row's hash.

    a_0 and b are drawn first, so a key below 2**30 (every node index the
    scenarios use) hashes to (a_0*x + b) mod p, and pinned outputs keep their
    bytes.
    """
    rng = random.Random(f"cms-{seed}-{row}")
    a0 = rng.randrange(1, _HASH_PRIME)
    b = rng.randrange(_HASH_PRIME)
    return b, (a0, *(rng.randrange(1, _HASH_PRIME) for _ in range(_KEY_LIMBS - 1)))


def _limbs(key: int) -> list[int]:
    """Little-endian 30-bit limbs of an integer key, without trailing zero limbs."""
    try:
        key = operator.index(key)
    except TypeError:
        raise ValueError(f"key must be an integer, got {key!r}") from None
    if key < 0 or key >> (_LIMB_BITS * _KEY_LIMBS):
        raise ValueError(f"key must be in [0, 2**{_LIMB_BITS * _KEY_LIMBS}), got {key}")
    limbs = []
    while key:
        limbs.append(key & _LIMB_MASK)
        key >>= _LIMB_BITS
    return limbs


def _vector_limbs(keys: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """(limb index, int64 limb array) for limb 0 and every upper limb that is
    not all zero.

    Leaving out an all-zero limb is exact: it adds a_i*0 to every hash.
    """
    keys = np.asarray(keys)
    if keys.dtype.kind not in "iu":
        raise ValueError(f"keys must be an integer array, got dtype {keys.dtype}")
    if keys.size and keys.min() < 0:
        raise ValueError("keys must be non-negative")
    if not keys.size or keys.max() <= _LIMB_MASK:
        return [(0, keys.astype(np.int64, copy=False))]
    wide = keys.astype(np.uint64, copy=False)
    limbs = []
    for i, shift in enumerate(range(0, 64, _LIMB_BITS)):
        limb = ((wide >> np.uint64(shift)) & np.uint64(_LIMB_MASK)).astype(np.int64)
        if i == 0 or limb.any():
            limbs.append((i, limb))
    return limbs


def _row_hash(b: int, coeffs: tuple[int, ...],
              limbs: list[tuple[int, np.ndarray | int]]) -> np.ndarray | int:
    """(b + sum a_i*x_i) mod p for every key, from the keys' limbs: the sketch's
    one hash, over one key's int limbs (scalar path) or int64 arrays (vector)."""
    h = b
    for i, x in limbs:
        term = coeffs[i] * x
        term += h
        term %= _HASH_PRIME
        h = term
    return h


def _column(h: np.ndarray | int, width: int,
            out: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray | int:
    """h mod width for row hashes h below p and a width of at most p: the
    sketch's one column reduction, an intp array for array hashes. `out`, an
    intp array for the result and a uint32 one for the work, both of h's
    shape, lets reductions in a loop allocate nothing.

    Arrays are reduced in uint32 as h - (h // width) * width: numpy has no
    vector loop for integer remainder, but divides by a scalar with a vector
    multiply-and-shift (Granlund & Montgomery 1994). It is exact, as
    (h // width) * width never exceeds h.
    """
    if isinstance(h, int):
        return h % width
    h = np.asarray(h, dtype=np.uint32)
    # The result is allocated before the uint32 work array, here and in
    # `_place`: the other way round, the freed work array left a hole that
    # raised the sweep's peak RSS, by 2 MB with one lane and by 1-2 MB with two.
    col, below = out if out is not None else (np.empty(h.shape, dtype=np.intp), None)
    below = np.floor_divide(h, width, out=below)
    below *= width
    return np.subtract(h, below, out=col)


def _weights(counts: np.ndarray) -> np.ndarray:
    """Per-key counts (each >= 1) as bincount weights.

    bincount sums in float64, exactly while a cell's added mass stays below
    2**53; past that the sum still exceeds CELL_MAX, so clamping at it gives
    the exact saturated value.
    """
    counts = np.asarray(counts)
    if counts.dtype.kind not in "iu":
        raise ValueError(f"counts must be an integer array, got dtype {counts.dtype}")
    if np.any(counts < 1):
        raise ValueError("counts must all be >= 1")
    return counts.astype(np.float64)


def _place(h: np.ndarray, row: int, shapes: list[tuple[int, SketchDims]],
           weights: np.ndarray, threshold: int, flagged: list[np.ndarray]) -> None:
    """One lane's share of a row: each (index, dims) in shapes that is deep
    enough to have the row keeps flagged only the keys whose cell of the row,
    at that width, is above threshold."""
    # One result and one work array serve all the lane's shapes: a fresh 4 MB
    # array per shape is faulted in page by page, and two lanes faulting at
    # once ran barely faster than one.
    columns = (np.empty(len(h), dtype=np.intp), np.empty(len(h), dtype=np.uint32))
    for i, dims in shapes:
        if dims.depth <= row:
            continue
        cols = _column(h, dims.width, columns)
        cells = np.bincount(cols, weights=weights, minlength=dims.width)
        np.minimum(cells, CELL_MAX, out=cells)
        flagged[i] &= np.packbits((cells > threshold).take(cols))


def flagged_by_dims(keys: np.ndarray, counts: np.ndarray, dims_list: list[SketchDims],
                    threshold: int, *, seed: int = 0) -> list[np.ndarray]:
    """For each shape in dims_list, which keys a fresh sketch of that shape
    estimates above threshold after add_counts(keys, counts).

    Each entry is a np.packbits bitmap over the keys. A key's estimate, the
    minimum of its cells, exceeds the threshold exactly when every one of its
    cells does, so rows run outside and shapes inside: each row is hashed
    once for all shapes, and a shape keeps only the keys still flagged.

    Shapes run in two lanes, because the per-shape kernels (the column
    reduction, bincount, take) release the GIL, so on two cores the lanes
    run at once. There are two, not more, because each further thread gets
    its own malloc arena and raises the peak RSS; the calling thread is one
    of the two, so only one arena is added. The caller hashes each row and
    places the shapes at even indices of dims_list that are still active at
    it; one helper thread places those at odd indices. The caller hashes the
    next row while the helper may still be placing this one, and hands it
    over only once the helper is done, so at most two rows' hashes are
    alive. Each shape is written by one lane, in row order, so the bitmaps
    are the bytes one lane would give. A failure in the helper is raised
    here as itself, and the helper has ended when this returns or raises.
    The helper calls no function that the benchmark's tracer wraps, because
    the tracer's span stack is not per thread.
    """
    # Imported here, not at the top: every entry point imports cms, and the
    # import costs about 8 ms of start-up that only the sweep needs.
    from concurrent.futures import ThreadPoolExecutor

    check_count("threshold", threshold, 0)
    check_reachable(threshold)
    check_count("seed", seed, 0)
    if type(dims_list) is not list:
        raise ValueError(f"dims_list must be a list of SketchDims, got {dims_list!r}")
    for dims in dims_list:
        if type(dims) is not SketchDims:
            raise ValueError(f"dims_list must hold only SketchDims, got {dims!r}")
    keys, counts = np.asarray(keys), np.asarray(counts)
    if keys.ndim != 1 or keys.shape != counts.shape:
        raise ValueError(f"keys and counts must be 1-D arrays of one length, got shapes "
                         f"{keys.shape} and {counts.shape}")
    weights = _weights(counts)
    limbs = _vector_limbs(keys)
    flagged = [np.packbits(np.ones(len(weights), dtype=bool)) for _ in dims_list]
    shapes = list(enumerate(dims_list))
    own_lane, helper_lane = shapes[0::2], shapes[1::2]
    queued = None
    with ThreadPoolExecutor(1) as helper:
        for row in range(max((dims.depth for dims in dims_list), default=0)):
            h = _row_hash(*_row_coefficients(seed, row), limbs).astype(np.uint32)
            if queued is not None:
                queued.result()
            queued = helper.submit(_place, h, row, helper_lane, weights, threshold, flagged)
            _place(h, row, own_lane, weights, threshold, flagged)
        if queued is not None:
            queued.result()
    return flagged


class CountMinSketch:
    """Frequency sketch over integer keys.

    Cells are uint16 counters that saturate at CELL_MAX instead of wrapping;
    saturation is silent and only ever preserves the no-underestimation
    guarantee for counts below the cap.
    """

    def __init__(self, dims: SketchDims, *, seed: int = 0):
        if type(dims) is not SketchDims:
            raise ValueError(f"dims must be a SketchDims, got {dims!r}")
        self.dims = dims
        self._cells = np.zeros((dims.depth, dims.width), dtype=np.uint16)
        # Scalar updates read and write the same cells through a flat
        # memoryview, which skips numpy's boxing of each item.
        self._flat = memoryview(self._cells.reshape(-1))
        self._rows = [_row_coefficients(seed, r) for r in range(dims.depth)]

    def _hash_slots(self, key: int) -> list[int]:
        """Flat index of the key's cell in every row, hashed by `_row_hash` as
        the vector path hashes."""
        limbs = list(enumerate(_limbs(key)))
        width = self.dims.width
        return [row * width + _column(_row_hash(b, coeffs, limbs), width)
                for row, (b, coeffs) in enumerate(self._rows)]

    def increment(self, key: int, amount: int = 1) -> int:
        """Add amount (>= 1) to the key's cell in every row, saturating.

        Returns the key's estimate after the update, the value estimate()
        would now give.
        """
        check_count("amount", amount, 1)
        flat = self._flat
        est = cap = CELL_MAX
        for slot in self._hash_slots(key):
            value = flat[slot] + amount
            flat[slot] = value = value if value < cap else cap
            est = value if value < est else est
        return est

    def estimate(self, key: int) -> int:
        """Point estimate: minimum of the key's cells, never below the true count."""
        return min([self._flat[slot] for slot in self._hash_slots(key)])

    def _columns(self, row: int, limbs: list[tuple[int, np.ndarray | int]]) -> np.ndarray | int:
        """The row's column for every key, from the keys' limbs."""
        return _column(_row_hash(*self._rows[row], limbs), self.dims.width)

    def add_counts(self, keys: np.ndarray, counts: np.ndarray) -> None:
        """Vectorized bulk increment of an integer key array (keys up to 64
        bits); same placement as repeated increment().
        """
        weights = _weights(counts)
        limbs = _vector_limbs(keys)
        for row in range(self.dims.depth):
            added = np.bincount(self._columns(row, limbs), weights=weights,
                                minlength=self.dims.width)
            merged = self._cells[row] + added
            np.minimum(merged, CELL_MAX, out=merged)
            self._cells[row] = merged.astype(self._cells.dtype)

    def estimate_many(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized point estimates for an array of integer keys."""
        limbs = _vector_limbs(keys)
        est: np.ndarray | None = None
        for row in range(self.dims.depth):
            vals = self._cells[row].take(self._columns(row, limbs))
            est = vals if est is None else np.minimum(est, vals, out=est)
        return est.astype(np.int64)

    def reset(self) -> None:
        """Zero every cell; hash functions and placements are kept."""
        self._cells[:] = 0
