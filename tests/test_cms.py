"""Sketch behavior against exact-count and high-precision sizing oracles."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from xtrsim.cms import (CountMinSketch, InvalidParams, SketchDims, SketchParams, cell_max,
                        dims_from_params, flagged_by_dims)

mp.dps = 60


def oracle_dims(epsilon: float, delta: float) -> tuple[int, int]:
    """Evaluate the sizing formulas at 60 digits.

    Ratios within the documented 1e-12 guard band of an integer count as that
    integer (so inputs like 2/3, stored inexactly as doubles, size the way
    the exact rational would).
    """
    def hi_ceil(x) -> int:
        nearest = mp.nint(x)
        if abs(x - nearest) <= mp.mpf("1e-12") * max(mp.mpf(1), abs(x)):
            return int(nearest)
        return int(mp.ceil(x))

    width = hi_ceil(mp.mpf(2) / mp.mpf(epsilon))
    depth = hi_ceil(mp.log(1 - mp.mpf(delta)) / mp.log(mp.mpf(1) / 2))
    return width, depth


SIZING_GRID = [
    (0.002, 0.5), (0.002, 0.875), (0.002, 0.9375), (2.0, 0.5), (1.0, 0.75),
    (0.5, 0.5), (0.1, 0.99), (0.01, 0.999), (0.25, 0.96875), (2 / 3, 0.5),
    (0.004, 0.3), (0.002, 0.0078125), (1.5, 0.9990234375), (0.02, 0.484375),
]


@pytest.mark.parametrize("epsilon,delta", SIZING_GRID)
def test_dims_match_high_precision_oracle(epsilon, delta):
    dims = dims_from_params(SketchParams(epsilon, delta))
    assert (dims.width, dims.depth) == oracle_dims(epsilon, delta)


def test_dims_pinned_values():
    assert dims_from_params(SketchParams(0.002, 0.5)) == SketchDims(1000, 1)
    assert dims_from_params(SketchParams(0.002, 0.875)) == SketchDims(1000, 3)
    assert dims_from_params(SketchParams(2.0, 0.5)) == SketchDims(1, 1)


def test_params_domain_is_enforced():
    with pytest.raises(InvalidParams):
        SketchParams(0.0, 0.5)
    with pytest.raises(InvalidParams):
        SketchParams(-0.1, 0.5)
    with pytest.raises(InvalidParams):
        SketchParams(2.1, 0.5)  # epsilon capped at 2
    with pytest.raises(InvalidParams):
        SketchParams(0.5, 1.0)
    with pytest.raises(InvalidParams):
        SketchParams(0.5, -0.01)
    # delta = 0 is in the type's domain but sizes to depth 0
    with pytest.raises(InvalidParams):
        dims_from_params(SketchParams(0.5, 0.0))


def test_dims_validation():
    with pytest.raises(InvalidParams):
        SketchDims(0, 1)
    with pytest.raises(InvalidParams):
        SketchDims(10, 0)


def test_cell_max_per_width():
    assert [cell_max(w) for w in (1, 2, 4)] == [255, 65535, 2**32 - 1]
    assert CountMinSketch(SketchDims(4, 1), cell_width_bytes=1).cell_max == 255
    for width in (0, 3, 8, 16):
        with pytest.raises(InvalidParams):
            cell_max(width)
        with pytest.raises(InvalidParams):
            CountMinSketch(SketchDims(4, 1), cell_width_bytes=width)


def test_memory_bytes():
    assert SketchDims(5000, 3).memory_bytes(2) == 30_000
    assert SketchDims(7000, 4).memory_bytes(2) == 56_000
    assert CountMinSketch(SketchDims(1000, 1)).memory_bytes == 2000
    assert CountMinSketch(SketchDims(100, 2), cell_width_bytes=4).memory_bytes == 800


def test_never_underestimates_scalar():
    rng = np.random.default_rng(11)
    sketch = CountMinSketch(SketchDims(64, 4), seed=5)
    truth = Counter()
    for _ in range(4000):
        key = int(rng.integers(0, 300))
        truth[key] += 1
        sketch.increment(key)
    for key, count in truth.items():
        assert sketch.estimate(key) >= count


def test_vector_path_matches_scalar_path():
    rng = np.random.default_rng(3)
    keys = rng.integers(0, 10_000, size=500)
    counts = rng.integers(1, 50, size=500)
    vec = CountMinSketch(SketchDims(128, 3), seed=9)
    vec.add_counts(keys, counts)
    scal = CountMinSketch(SketchDims(128, 3), seed=9)
    for key, count in zip(keys, counts):
        scal.increment(int(key), int(count))
    probe = np.arange(0, 10_000, 7)
    assert np.array_equal(vec.estimate_many(probe),
                          np.array([scal.estimate(int(k)) for k in probe]))


def test_bytes_key_equals_canonical_int_key():
    # Keys are integers: an address counts under its canonical 128-bit
    # integer, and its 16 raw bytes are refused rather than hashed apart.
    sketch = CountMinSketch(SketchDims(512, 3), seed=21)
    address = 0xFD << 120 | 0xBEEF
    sketch.increment(int.from_bytes(address.to_bytes(16, "big"), "big"), 6)
    assert sketch.estimate(address) == 6
    sketch.increment(address, 1)
    assert sketch.estimate(address) == 7
    with pytest.raises(ValueError):
        sketch.increment(address.to_bytes(16, "big"))
    assert sketch.estimate(address) == 7


def test_row_sums_bounded_by_stream_mass():
    rng = np.random.default_rng(8)
    sketch = CountMinSketch(SketchDims(50, 3), seed=1)
    mass = 0
    for _ in range(1000):
        amount = int(rng.integers(1, 9))
        sketch.increment(int(rng.integers(0, 400)), amount)
        mass += amount
    for row in sketch._cells:
        assert int(row.sum()) == mass  # no saturation at these counts


def test_cells_saturate_silently_at_max():
    sketch = CountMinSketch(SketchDims(16, 2), seed=4, cell_width_bytes=1)
    sketch.increment(7, 250)
    sketch.increment(7, 250)
    assert sketch.estimate(7) == 255
    assert int(sketch._cells.max()) == 255
    # a saturated row undershoots the stream mass
    assert int(sketch._cells[0].sum()) < 500


def test_increment_rejects_nonpositive_amount():
    sketch = CountMinSketch(SketchDims(8, 1))
    with pytest.raises(ValueError):
        sketch.increment(7, 0)
    with pytest.raises(ValueError):
        sketch.add_counts(np.array([1, 2]), np.array([1, 0]))


def test_reset_zeroes_but_keeps_placements():
    sketch = CountMinSketch(SketchDims(97, 3), seed=13)
    fresh = CountMinSketch(SketchDims(97, 3), seed=13)
    for key in range(50):
        sketch.increment(key, key + 1)
    sketch.reset()
    assert not sketch._cells.any()
    assert sketch.estimate(17) == 0
    for key in range(50):
        sketch.increment(key, key + 1)
        fresh.increment(key, key + 1)
    assert np.array_equal(sketch._cells, fresh._cells)


def test_seed_changes_placements_not_guarantee():
    keys = np.arange(200)
    counts = np.full(200, 3)
    a = CountMinSketch(SketchDims(64, 2), seed=1)
    b = CountMinSketch(SketchDims(64, 2), seed=2)
    a.add_counts(keys, counts)
    b.add_counts(keys, counts)
    assert not np.array_equal(a._cells, b._cells)
    assert (a.estimate_many(keys) >= 3).all()
    assert (b.estimate_many(keys) >= 3).all()


def test_overestimation_bound_holds_within_3_sigma():
    # For dims from (epsilon, delta), P(est > count + epsilon*mass) <= 1-delta.
    params = SketchParams(0.01, 0.5)
    dims = dims_from_params(params)
    n_keys, stream = 1500, 20_000
    fractions = []
    for seed in range(30):
        rng = np.random.default_rng(1000 + seed)
        keys = rng.integers(0, n_keys, size=stream)
        uniq, counts = np.unique(keys, return_counts=True)
        sketch = CountMinSketch(dims, seed=seed)
        sketch.add_counts(uniq, counts)
        est = sketch.estimate_many(uniq)
        bound = counts + params.epsilon * stream
        fractions.append(float((est > bound).mean()))
    fractions = np.array(fractions)
    sem = fractions.std(ddof=1) / np.sqrt(len(fractions))
    assert fractions.mean() <= (1 - params.delta) + 3 * sem


def test_snapshot_golden_bytes():
    # Frozen cell matrix of a tiny sketch; any change to hash placement breaks it.
    sketch = CountMinSketch(SketchDims(4, 2), seed=1)
    sketch.increment(0, 1)
    sketch.increment(1, 2)
    sketch.increment(2, 3)
    assert sketch._cells.tolist() == [[1, 0, 3, 2], [3, 0, 2, 1]]


HASH_PRIME = (1 << 31) - 1


def test_keys_congruent_mod_the_hash_prime_do_not_share_cells():
    # Keys victim + i*p agreed with the victim mod p, and once hashed every
    # row's cell with it: 2,000 of them gave a never-seen victim an estimate
    # of 2,000, enough to flag it at a threshold of 1,000.
    sketch = CountMinSketch(SketchDims(65536, 8), seed=3)
    victim = 12345
    for i in range(1, 2001):
        sketch.increment(victim + i * HASH_PRIME)
    assert sketch.estimate(victim) == 0


sketch_shapes = st.tuples(st.integers(0, 2**32), st.integers(1, 300), st.integers(1, 6))
keys_64 = st.lists(st.one_of(st.integers(0, 2**30), st.integers(0, 2**64 - 1),
                             st.sampled_from([2**30 - 1, 2**30])),
                   min_size=1, max_size=20)


@settings(deadline=None)
@given(shape=sketch_shapes, keys=keys_64)
def test_scalar_and_vector_paths_place_a_key_in_the_same_cells(shape, keys):
    seed, width, depth = shape
    dims = SketchDims(width, depth)
    together = CountMinSketch(dims, seed=seed)
    together.add_counts(np.array(keys, dtype=np.uint64), np.ones(len(keys), dtype=np.int64))
    one_by_one = CountMinSketch(dims, seed=seed)
    for key in keys:
        scalar = CountMinSketch(dims, seed=seed)
        scalar.increment(key)
        vector = CountMinSketch(dims, seed=seed)
        vector.add_counts(np.array([key], dtype=np.uint64), np.array([1]))
        assert np.array_equal(scalar._cells, vector._cells)
        assert (scalar._cells.sum(axis=1) == 1).all()
        one_by_one.increment(key)
    # A batch mixes keys whose upper limbs are zero with keys whose are not.
    assert np.array_equal(together._cells, one_by_one._cells)
    if max(keys) < 2**63:
        signed = CountMinSketch(dims, seed=seed)
        signed.add_counts(np.array(keys, dtype=np.int64), np.ones(len(keys), dtype=np.int64))
        assert np.array_equal(signed._cells, one_by_one._cells)


@settings(deadline=None)
@given(shape=sketch_shapes, address=st.binary(min_size=16, max_size=16))
def test_a_16_byte_key_lands_where_its_integer_does(shape, address):
    # A 16-byte address enters the sketch as its big-endian integer and
    # counts in cell (b + sum a_i * limb_i) mod p mod width of every row,
    # limb_i being its i-th 30-bit limb.
    seed, width, depth = shape
    key = int.from_bytes(address, "big")
    sketch = CountMinSketch(SketchDims(width, depth), seed=seed)
    sketch.increment(key, 6)
    limbs = [key >> (30 * i) & (2**30 - 1) for i in range(5)]
    for row, (b, coeffs) in enumerate(sketch._rows):
        column = (b + sum(a * x for a, x in zip(coeffs, limbs))) % HASH_PRIME % width
        assert sketch._cells[row, column] == sketch._cells[row].sum() == 6
    assert sketch.estimate(key) == 6
    assert sketch.increment(key, 1) == sketch.estimate(key) == 7


@st.composite
def widths_and_batches(draw):
    """A cell width and 1-3 batches whose counts reach and pass its cap."""
    width = draw(st.sampled_from([1, 2, 4]))
    cap = cell_max(width)
    count = st.one_of(st.integers(1, 200), st.integers(cap - 2, cap + 2), st.integers(1, 2**40))
    key = st.one_of(st.integers(0, 8), st.integers(0, 2**64 - 1))
    batch = st.lists(st.tuples(key, count), min_size=1, max_size=30)
    return width, draw(st.lists(batch, min_size=1, max_size=3))


@settings(deadline=None)
@given(shape=sketch_shapes, width_batches=widths_and_batches())
def test_add_counts_matches_scalar_increments(shape, width_batches):
    # For every accepted width, the vector path equals a loop of scalar
    # increments and estimates, at and past saturation.
    seed, width, depth = shape
    cell_width, batches = width_batches
    dims = SketchDims(width, depth)
    bulk = CountMinSketch(dims, seed=seed, cell_width_bytes=cell_width)
    looped = CountMinSketch(dims, seed=seed, cell_width_bytes=cell_width)
    for batch in batches:
        keys = np.array([key for key, _ in batch], dtype=np.uint64)
        counts = np.array([count for _, count in batch], dtype=np.int64)
        bulk.add_counts(keys, counts)
        estimates = bulk.estimate_many(keys)
        assert estimates.dtype == np.int64
        for key, count in batch:
            looped.increment(key, count)
        assert estimates.tolist() == [looped.estimate(key) for key, _ in batch]
        assert np.array_equal(bulk._cells, looped._cells)


@st.composite
def flagging_cases(draw):
    """Keys with repeats (many past 2**30), counts up to the cell cap and past
    2**53, a threshold at or just below the cap or small, and a list of
    shapes whose widths (1 included) and depths repeat and go up and down."""
    cell_width = draw(st.sampled_from([1, 2, 4]))
    cap = cell_max(cell_width)
    pool = draw(st.lists(st.one_of(st.integers(0, 8), st.integers(2**30, 2**64 - 1)),
                         min_size=1, max_size=30))
    count = st.one_of(st.integers(1, 200), st.integers(cap - 2, cap + 2),
                      st.integers(2**53 - 2, 2**62))
    pairs = draw(st.lists(st.tuples(st.sampled_from(pool), count), min_size=1, max_size=40))
    threshold = draw(st.one_of(st.sampled_from([cap - 1, cap]), st.integers(0, 300)))
    dims = st.builds(SketchDims, st.one_of(st.integers(1, 16), st.integers(1, 300)),
                     st.integers(1, 5))
    return cell_width, pairs, threshold, draw(st.lists(dims, min_size=1, max_size=6))


@settings(deadline=None)
@given(seed=st.integers(0, 2**32), case=flagging_cases())
def test_flagged_by_dims_matches_a_fresh_sketch_per_shape(seed, case):
    cell_width, pairs, threshold, dims_list = case
    keys = np.array([key for key, _ in pairs], dtype=np.uint64)
    counts = np.array([count for _, count in pairs], dtype=np.int64)
    flagged = flagged_by_dims(keys, counts, dims_list, threshold, seed=seed,
                              cell_width_bytes=cell_width)
    assert len(flagged) == len(dims_list)
    for dims, bits in zip(dims_list, flagged):
        sketch = CountMinSketch(dims, seed=seed, cell_width_bytes=cell_width)
        sketch.add_counts(keys, counts)
        assert np.array_equal(bits, np.packbits(sketch.estimate_many(keys) > threshold))


def test_flagged_by_dims_rejects_counts_below_one():
    with pytest.raises(ValueError):
        flagged_by_dims(np.array([1, 2]), np.array([1, 0]), [SketchDims(8, 1)], 5)


def test_increment_returns_the_estimate_after_the_update():
    rng = np.random.default_rng(17)
    sketch = CountMinSketch(SketchDims(8, 2), seed=6, cell_width_bytes=1)
    for _ in range(400):
        key = int(rng.integers(0, 40))
        amount = int(rng.integers(1, 30))
        assert sketch.increment(key, amount) == sketch.estimate(key)
    assert sketch.estimate(0) == sketch.cell_max  # saturated on the way


def test_keys_outside_the_hash_domain_are_rejected():
    sketch = CountMinSketch(SketchDims(16, 2))
    sketch.increment(2**150 - 1)
    sketch.increment(2**128 - 1)
    for key in (-1, 2**150, (7).to_bytes(16, "big"), 1.0, "7"):
        with pytest.raises(ValueError):
            sketch.increment(key)
        with pytest.raises(ValueError):
            sketch.estimate(key)
    for keys in (np.array([3, -1]), np.array([1.0, 2.0]), np.array([True]),
                 np.array([1, 2], dtype=object)):
        with pytest.raises(ValueError):
            sketch.add_counts(keys, np.ones(len(keys), dtype=np.int64))
        with pytest.raises(ValueError):
            sketch.estimate_many(keys)


def slots_by_the_limb_formula(sketch: CountMinSketch, key) -> list[int]:
    """Flat cell of `key` in every row: (b + sum a_i * limb_i) mod p mod width."""
    limbs = [int(key) >> (30 * i) & (2**30 - 1) for i in range(5)]
    width = sketch.dims.width
    return [row * width + (b + sum(a * x for a, x in zip(coeffs, limbs))) % HASH_PRIME % width
            for row, (b, coeffs) in enumerate(sketch._rows)]


# Keys on both sides of the 2**30 edge where _vector_limbs stops taking one
# limb, and key types (bool, numpy integers) that are checked and land in
# the same cells as the equal int.
edge_keys = st.one_of(
    st.sampled_from([0, 1, 2**30 - 1, 2**30, 2**60, 2**64 - 1, 2**128 - 1, True, False]),
    st.integers(0, 2**30 - 1), st.integers(2**30, 2**64 - 1), st.integers(2**30, 2**128 - 1),
    st.integers(0, 2**63 - 1).map(np.int64), st.integers(0, 2**64 - 1).map(np.uint64))


@settings(deadline=None)
@given(shape=sketch_shapes, cell_width=st.sampled_from([1, 2, 4]), key=edge_keys,
       amounts=st.lists(st.integers(1, 300), min_size=1, max_size=4))
def test_every_path_places_a_key_by_the_limb_formula_and_saturates(shape, cell_width, key,
                                                                   amounts):
    seed, width, depth = shape
    dims = SketchDims(width, depth)
    sketch = CountMinSketch(dims, seed=seed, cell_width_bytes=cell_width)
    slots = slots_by_the_limb_formula(sketch, key)
    assert sketch._hash_slots(key) == slots
    assert sketch._hash_slots(int(key)) == slots
    if int(key) < 2**63:
        assert sketch._hash_slots(np.int64(key)) == slots
    if int(key) < 2**64:
        vector = CountMinSketch(dims, seed=seed, cell_width_bytes=cell_width)
        vector.add_counts(np.array([key], dtype=np.uint64), np.array([1]))
        assert np.flatnonzero(vector._cells).tolist() == slots
    total = 0
    for amount in amounts:
        total += amount
        assert sketch.increment(key, amount) == sketch.estimate(key) == min(total, sketch.cell_max)
    assert np.flatnonzero(sketch._cells).tolist() == slots


def test_a_key_equal_to_a_memoized_int_is_still_refused():
    # 1.0 == 1 and both hash alike, so a lookup keyed by the value before
    # the type check would count a float under the int's cells.
    sketch = CountMinSketch(SketchDims(16, 2))
    address = 0xFD << 120 | 7
    for key in (1, 7, address):
        sketch.increment(key)
        sketch.increment(key)
    for key in (1.0, 7.0, "7", (7).to_bytes(16, "big"), address.to_bytes(16, "big")):
        with pytest.raises(ValueError):
            sketch.increment(key)
        with pytest.raises(ValueError):
            sketch.estimate(key)
    assert [sketch.estimate(key) for key in (1, 7, address)] == [2, 2, 2]
