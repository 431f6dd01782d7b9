"""Sketch behavior against exact-count and high-precision sizing oracles."""

import sys
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from xtrsim import cms
from xtrsim.cms import (CELL_MAX, CountMinSketch, SketchDims, SketchParams, _column,
                        check_reachable, dims_from_params, flagged_by_dims)

mp.dps = 60

HASH_PRIME = (1 << 31) - 1


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
    with pytest.raises(ValueError, match="epsilon"):
        SketchParams(0.0, 0.5)
    with pytest.raises(ValueError, match="epsilon"):
        SketchParams(-0.1, 0.5)
    with pytest.raises(ValueError, match="epsilon"):
        SketchParams(2.1, 0.5)  # epsilon capped at 2
    with pytest.raises(ValueError, match="delta"):
        SketchParams(0.5, 1.0)
    with pytest.raises(ValueError, match="delta"):
        SketchParams(0.5, -0.01)
    # delta = 0 is in the type's domain but sizes to depth 0
    with pytest.raises(ValueError, match="delta"):
        dims_from_params(SketchParams(0.5, 0.0))


def test_dims_validation():
    with pytest.raises(ValueError, match="width"):
        SketchDims(0, 1)
    # A row hash is below p, so no key reaches a column at p or past it.
    assert SketchDims(HASH_PRIME, 1).width == HASH_PRIME
    for width in (HASH_PRIME + 1, 3_000_000_000, 1 << 40):
        with pytest.raises(ValueError, match="width"):
            SketchDims(width, 1)
    with pytest.raises(ValueError, match="depth"):
        SketchDims(10, 0)


def test_cells_are_uint16_with_one_cap():
    assert CELL_MAX == 65535 == np.iinfo(CountMinSketch(SketchDims(4, 1))._cells.dtype).max
    # A source is flagged on count > threshold, so the cap itself is out of reach.
    check_reachable(65534)
    for threshold in (65535, 65536, 2**32):
        with pytest.raises(ValueError, match=f"^threshold {threshold} is unreachable"):
            check_reachable(threshold)


def test_memory_bytes():
    assert SketchDims(5000, 3).memory_bytes() == 30_000
    assert SketchDims(7000, 4).memory_bytes() == 56_000
    sketch = CountMinSketch(SketchDims(100, 2))
    assert sketch.dims.memory_bytes() == sketch._cells.nbytes == 400


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
    sketch = CountMinSketch(SketchDims(16, 2), seed=4)
    sketch.increment(7, 40_000)
    sketch.increment(7, 40_000)
    assert sketch.estimate(7) == CELL_MAX
    assert int(sketch._cells.max()) == CELL_MAX
    # a saturated row undershoots the stream mass
    assert int(sketch._cells[0].sum()) < 80_000


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
def count_batches(draw):
    """1-3 batches whose counts reach and pass the cell cap."""
    count = st.one_of(st.integers(1, 200), st.integers(CELL_MAX - 2, CELL_MAX + 2),
                      st.integers(1, 2**40))
    key = st.one_of(st.integers(0, 8), st.integers(0, 2**64 - 1))
    batch = st.lists(st.tuples(key, count), min_size=1, max_size=30)
    return draw(st.lists(batch, min_size=1, max_size=3))


@settings(deadline=None)
@given(shape=sketch_shapes, batches=count_batches())
def test_add_counts_matches_scalar_increments(shape, batches):
    # The vector path equals a loop of scalar increments and estimates, at
    # and past saturation.
    seed, width, depth = shape
    dims = SketchDims(width, depth)
    bulk = CountMinSketch(dims, seed=seed)
    looped = CountMinSketch(dims, seed=seed)
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


# The default sweep's widths, which its 500k-key cells reduce hashes by.
SWEEP_WIDTHS = range(1000, 26001, 1000)


@st.composite
def flagging_cases(draw):
    """Keys with repeats (many past 2**30), counts up to the cell cap and past
    2**53, a threshold just below the cap or small, and a list of shapes,
    empty or not, whose widths (1 and the sweep's included) and depths repeat
    and go up and down."""
    pool = draw(st.lists(st.one_of(st.integers(0, 8), st.integers(2**30, 2**64 - 1)),
                         min_size=1, max_size=30))
    count = st.one_of(st.integers(1, 200), st.integers(CELL_MAX - 2, CELL_MAX + 2),
                      st.integers(2**53 - 2, 2**62))
    pairs = draw(st.lists(st.tuples(st.sampled_from(pool), count), min_size=1, max_size=40))
    threshold = draw(st.one_of(st.sampled_from([CELL_MAX - 2, CELL_MAX - 1]), st.integers(0, 300)))
    dims = st.builds(SketchDims, st.one_of(st.integers(1, 16), st.integers(1, 300),
                                           st.sampled_from(SWEEP_WIDTHS)),
                     st.integers(1, 5))
    return pairs, threshold, draw(st.lists(dims, max_size=6))


PAIRS = [(3, 700), (2**40 + 3, 900), (5, 2), (3, 1)]


# The calling thread places the shapes at even indices and a helper thread
# those at odd indices: no shape, one (the helper has none), a repeated
# shape beside a deeper one (a lane that placed it at row 1 too would flag
# fewer keys at this seed), and depths that leave an odd number of shapes
# active (three at row 1, of which the helper has two, then only its one).
@settings(deadline=None)
@given(seed=st.integers(0, 2**32), case=flagging_cases())
@example(seed=1, case=(PAIRS, 600, []))
@example(seed=2, case=(PAIRS, 600, [SketchDims(2, 3)]))
@example(seed=1, case=(PAIRS, 600, [SketchDims(3, 1)] * 3 + [SketchDims(3, 2)]))
@example(seed=4, case=(PAIRS, 600, [SketchDims(3, 1), SketchDims(2, 2), SketchDims(5, 2),
                                    SketchDims(2, 3)]))
def test_flagged_by_dims_matches_a_fresh_sketch_per_shape(seed, case):
    pairs, threshold, dims_list = case
    keys = np.array([key for key, _ in pairs], dtype=np.uint64)
    counts = np.array([count for _, count in pairs], dtype=np.int64)
    flagged = flagged_by_dims(keys, counts, dims_list, threshold, seed=seed)
    assert len(flagged) == len(dims_list)
    for dims, bits in zip(dims_list, flagged):
        sketch = CountMinSketch(dims, seed=seed)
        sketch.add_counts(keys, counts)
        assert np.array_equal(bits, np.packbits(sketch.estimate_many(keys) > threshold))


EDGE_HASHES = [0, 1, 2**30 - 1, 2**30, HASH_PRIME - 1]
EDGE_WIDTHS = [1, 2, 2**16, HASH_PRIME - 1, HASH_PRIME]


def assert_column_is_the_remainder(hashes: list[int], width: int) -> None:
    """`_column` is h % width for each hash as an int, and as uint32 and int64 arrays."""
    expected = [h % width for h in hashes]
    assert [_column(h, width) for h in hashes] == expected
    for dtype in (np.uint32, np.int64):
        columns = _column(np.array(hashes, dtype=dtype), width)
        assert columns.dtype == np.intp and columns.tolist() == expected


def test_column_is_the_remainder_at_the_edges():
    for width in EDGE_WIDTHS:
        assert_column_is_the_remainder(EDGE_HASHES, width)


@settings(deadline=None)
@given(hashes=st.lists(st.one_of(st.sampled_from(EDGE_HASHES), st.integers(0, HASH_PRIME - 1)),
                       min_size=1, max_size=50),
       width=st.one_of(st.sampled_from([*EDGE_WIDTHS, *SWEEP_WIDTHS]),
                       st.integers(1, HASH_PRIME)))
def test_column_is_the_remainder(hashes, width):
    assert_column_is_the_remainder(hashes, width)


@pytest.mark.parametrize("failing", [1, 0], ids=["helper-lane", "calling-lane"])
def test_a_failing_lane_raises_its_error_and_leaves_no_thread(monkeypatch, failing):
    keys, counts = np.arange(50), np.full(50, 3)
    dims_list = [SketchDims(7, 2), SketchDims(11, 2), SketchDims(13, 1)]
    threads = threading.active_count()
    flagged_by_dims(keys, counts, dims_list, 2, seed=1)
    assert threading.active_count() == threads
    column = cms._column

    def failing_column(h, width, out=None):
        if width == dims_list[failing].width:
            raise MemoryError("Unable to allocate 8.00 TiB for an array")
        return column(h, width, out)

    monkeypatch.setattr(cms, "_column", failing_column)
    with pytest.raises(MemoryError, match="8.00 TiB"):
        flagged_by_dims(keys, counts, dims_list, 2, seed=1)
    assert threading.active_count() == threads


def test_lanes_lose_no_update_under_frequent_thread_switches():
    # Three calls at once (six threads on fewer cores), switching threads
    # every microsecond: a lost or misplaced `flagged[i] &=` would change a bitmap.
    rng = np.random.default_rng(5)
    keys = rng.integers(0, 2**40, 3000, dtype=np.uint64)
    counts = rng.integers(1, 50, 3000)
    dims_list = [SketchDims(w, d) for w, d in ((50, 3), (64, 2), (80, 3), (97, 1), (128, 2))]
    expected = []
    for dims in dims_list:
        sketch = CountMinSketch(dims, seed=2)
        sketch.add_counts(keys, counts)
        expected.append(np.packbits(sketch.estimate_many(keys) > 1000))
    assert 0 < sum(int(np.unpackbits(bits).sum()) for bits in expected) < 3000 * len(dims_list)
    results = [None] * 3

    def call(j):
        results[j] = flagged_by_dims(keys, counts, dims_list, 1000, seed=2)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call, args=(j,)) for j in range(3)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    for flagged in results:
        assert all(np.array_equal(got, want) for got, want in zip(flagged, expected, strict=True))


def test_flagged_by_dims_rejects_counts_below_one():
    with pytest.raises(ValueError):
        flagged_by_dims(np.array([1, 2]), np.array([1, 0]), [SketchDims(8, 1)], 5)


def test_increment_returns_the_estimate_after_the_update():
    rng = np.random.default_rng(17)
    sketch = CountMinSketch(SketchDims(8, 2), seed=6)
    for _ in range(400):
        key = int(rng.integers(0, 40))
        amount = int(rng.integers(1, 7_500))
        assert sketch.increment(key, amount) == sketch.estimate(key)
    assert sketch.estimate(0) == CELL_MAX  # saturated on the way


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
@given(shape=sketch_shapes, key=edge_keys,
       amounts=st.lists(st.integers(1, 30_000), min_size=1, max_size=4))
def test_every_path_places_a_key_by_the_limb_formula_and_saturates(shape, key, amounts):
    seed, width, depth = shape
    dims = SketchDims(width, depth)
    sketch = CountMinSketch(dims, seed=seed)
    slots = slots_by_the_limb_formula(sketch, key)
    assert sketch._hash_slots(key) == slots
    assert sketch._hash_slots(int(key)) == slots
    if int(key) < 2**63:
        assert sketch._hash_slots(np.int64(key)) == slots
    if int(key) < 2**64:
        vector = CountMinSketch(dims, seed=seed)
        vector.add_counts(np.array([key], dtype=np.uint64), np.array([1]))
        assert np.flatnonzero(vector._cells).tolist() == slots
    total = 0
    for amount in amounts:
        total += amount
        assert sketch.increment(key, amount) == sketch.estimate(key) == min(total, CELL_MAX)
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
