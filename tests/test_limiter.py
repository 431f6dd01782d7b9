"""Admission-control semantics: thresholds, tumbling windows, backend dominance."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limiter_reference import ReferenceLimiter
from xtrsim.cache import TumblingWindow
from xtrsim.cms import CELL_MAX, SketchDims, SketchParams
from xtrsim.experiment import _attack_stream, _attack_xtr_config, dos_defaults, overflow_defaults
from xtrsim.limiter import Decision, DestRateLimiter, LimiterConfig, SourceRateLimiter
from xtrsim.xtr import Xtr


def make_limiter(**kwargs) -> SourceRateLimiter:
    return SourceRateLimiter(LimiterConfig(**kwargs))


def test_drop_starts_on_miss_after_threshold():
    limiter = make_limiter(threshold=1000)
    decisions = [limiter.on_miss(7, 0.0) for _ in range(1001)]
    assert decisions[:1000] == [Decision.ALLOW] * 1000
    assert decisions[1000] is Decision.DROP
    assert limiter.current_count(7) == 1001


def test_is_flagged_is_read_only():
    limiter = make_limiter(threshold=3)
    for _ in range(3):
        limiter.on_miss(9, 0.0)
    before = limiter.current_count(9)
    assert not limiter.is_flagged(9)  # exactly at the threshold
    assert limiter.current_count(9) == before
    limiter.on_miss(9, 0.0)
    assert limiter.is_flagged(9)


def test_windows_tumble_on_boundaries_aligned_to_start():
    limiter = make_limiter(threshold=2, period=1.0)
    limiter.on_miss(4, 0.2)
    limiter.on_miss(4, 0.9)
    assert limiter.is_flagged(4) is False
    # crossing into [1, 2) resets; counts within a window never decay
    assert limiter.on_miss(4, 1.2) is Decision.ALLOW
    assert limiter.current_count(4) == 1
    limiter.on_miss(4, 1.9999)
    assert limiter.current_count(4) == 2
    # window [2, 3) starts at the boundary 2.0, not at last reset + period
    limiter.on_miss(4, 2.0)
    assert limiter.current_count(4) == 1


def test_a_non_dyadic_period_rolls_at_its_boundary():
    # 0.35 // 0.1 is 3, but 3 * 0.1 is 0.30000000000000004: a window kept by
    # that start time saw 0.4 - start < 0.1 and counted the misses at 0.4,
    # which lie in window 4, against window 3.
    limiter = make_limiter(threshold=2, period=0.1)
    decisions = [limiter.on_miss(5, t) for t in (0.35, 0.35, 0.4, 0.4, 0.4)]
    assert decisions == [Decision.ALLOW] * 4 + [Decision.DROP]
    assert limiter.current_count(5) == 3


def test_flag_state_clears_with_the_window():
    limiter = make_limiter(threshold=1, period=0.5)
    limiter.on_miss(2, 0.0)
    limiter.on_miss(2, 0.1)
    assert limiter.is_flagged(2)
    limiter.on_miss(2, 0.5)
    assert not limiter.is_flagged(2)


def test_sketch_backend_never_misses_what_exact_catches():
    # Dominance: sketch counts are >= exact counts, so exact-flagged sources
    # are always sketch-flagged. The reverse may not hold (false positives).
    rng = np.random.default_rng(42)
    sources = rng.integers(0, 200, size=6000)
    exact = make_limiter(threshold=20)
    sketchy = SourceRateLimiter(
        LimiterConfig(threshold=20, backend="cms", sketch_dims=SketchDims(64, 2)), seed=5)
    for s in sources:
        exact.on_miss(int(s), 0.0)
        sketchy.on_miss(int(s), 0.0)
    for s in set(sources.tolist()):
        assert sketchy.current_count(s) >= exact.current_count(s)
        if exact.is_flagged(s):
            assert sketchy.is_flagged(s)


def test_on_miss_drops_exactly_when_the_source_stands_flagged():
    rng = np.random.default_rng(9)
    for backend, dims in (("exact", None), ("cms", SketchDims(16, 2))):
        limiter = SourceRateLimiter(LimiterConfig(
            threshold=15, backend=backend, sketch_dims=dims), seed=3)
        for s in rng.integers(0, 40, size=800).tolist():
            dropped = limiter.on_miss(s, 0.0) is Decision.DROP
            assert dropped == limiter.is_flagged(s)


def test_heavy_source_is_flagged_under_both_backends():
    for backend, dims in (("exact", None), ("cms", SketchDims(1000, 4))):
        limiter = SourceRateLimiter(
            LimiterConfig(threshold=1000, backend=backend, sketch_dims=dims), seed=1)
        for _ in range(1001):
            limiter.on_miss(77, 0.0)
        assert limiter.is_flagged(77)


def test_cms_backend_requires_sizing():
    with pytest.raises(ValueError, match="^cms backend needs sketch_dims$"):
        LimiterConfig(backend="cms")
    # A SketchDims, or None under the exact backend: a plain pair once passed.
    for backend in ("exact", "cms"):
        with pytest.raises(ValueError, match=r"^sketch_dims must be a SketchDims, got \(1000, 4\)$"):
            LimiterConfig(backend=backend, sketch_dims=(1000, 4))
    with pytest.raises(ValueError, match="sketch_params"):
        LimiterConfig(sketch_params=SketchParams(0.01, 0.5))
    with pytest.raises(ValueError):
        LimiterConfig(backend="bloom")
    with pytest.raises(ValueError):
        LimiterConfig(threshold=0)
    for period in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="period"):
            LimiterConfig(period=period)


def test_cms_threshold_must_be_reachable_under_the_cell_cap():
    dims = SketchDims(64, 2)
    # Cells cap at 65,535 and a source is flagged on count > threshold, so
    # 65,534 is the largest threshold a capped estimate still crosses.
    limiter = make_limiter(backend="cms", sketch_dims=dims, threshold=65534)
    decisions = [limiter.on_miss(5, 0.0) for _ in range(70_000)]
    assert decisions[:65534] == [Decision.ALLOW] * 65534
    assert set(decisions[65534:]) == {Decision.DROP}
    assert limiter.current_count(5) == CELL_MAX
    for threshold in (65535, 70_000):
        with pytest.raises(ValueError, match=f"^threshold {threshold} is unreachable"):
            LimiterConfig(backend="cms", sketch_dims=dims, threshold=threshold)
    # the exact backend has no cells, so the cap does not bound it
    assert LimiterConfig(threshold=70_000).threshold == 70_000


def test_the_cell_width_and_threshold_rule_are_pinned():
    dims = SketchDims(64, 2)
    for field, value in (("cell_width_bytes", 1), ("cell_width_bytes", 4),
                         ("cell_width_bytes", 2.0), ("strict_threshold", False),
                         ("strict_threshold", 1)):
        for backend in ("exact", "cms"):
            with pytest.raises(ValueError, match=f"^{field} must be "):
                LimiterConfig(backend=backend, sketch_dims=dims, **{field: value})


def test_dest_budget_allows_then_drops():
    limiter = DestRateLimiter(3, 1.0)
    got = [limiter.consume(0.1) for _ in range(5)]
    assert got == [Decision.ALLOW] * 3 + [Decision.DROP] * 2
    # budget returns at the period boundary
    assert limiter.consume(1.0) is Decision.ALLOW


def test_dest_budget_zero_always_drops():
    limiter = DestRateLimiter(0, 1.0)
    assert limiter.consume(0.0) is Decision.DROP
    assert limiter.consume(5.0) is Decision.DROP


def test_dest_budget_window_alignment():
    limiter = DestRateLimiter(1, 2.0)
    assert limiter.consume(0.3) is Decision.ALLOW
    assert limiter.consume(1.9) is Decision.DROP
    # 3.5 lies in [2, 4): fresh budget
    assert limiter.consume(3.5) is Decision.ALLOW
    assert limiter.consume(3.9) is Decision.DROP


def test_dest_limiter_validation():
    with pytest.raises(ValueError):
        DestRateLimiter(-1, 1.0)
    for period in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            DestRateLimiter(5, period)


WINDOW_PERIODS = [0.1, 1 / 3, 0.7, 1.0]


def window_limiter(backend: str, threshold: int, period: float) -> SourceRateLimiter:
    # A narrow sketch, so the other sources' misses collide with the target's.
    dims = SketchDims(8, 2) if backend == "cms" else None
    return SourceRateLimiter(LimiterConfig(threshold=threshold, period=period,
                                           backend=backend, sketch_dims=dims), seed=2)


@st.composite
def miss_streams(draw):
    """A period, then nondecreasing miss times crowded around its window
    boundaries, each from the target source 0 or from one of three others."""
    period = draw(st.sampled_from(WINDOW_PERIODS))
    boundary = st.integers(0, 12).map(lambda k: k * period)
    near = boundary.flatmap(lambda b: st.sampled_from(
        [math.nextafter(b, -math.inf), b, math.nextafter(b, math.inf)]))
    time = st.one_of(st.floats(0, 13 * period), boundary, near).map(lambda t: max(t, 0.0))
    misses = draw(st.lists(st.tuples(time, st.sampled_from([0, 0, 0, 1, 2, 3])),
                           min_size=1, max_size=80))
    return period, sorted(misses)


@given(stream=miss_streams())
def test_a_window_rolls_exactly_when_its_index_grows(stream):
    # advance() skips the division before its next boundary; it must still
    # count the growth of `now // period` on every time, boundaries included.
    # A caller that calls it only from `next_start` on rolls exactly as often.
    period, misses = stream
    window = TumblingWindow(period)
    index = 0.0
    for t, _ in misses:  # in time order
        due = t >= window.next_start
        crossed = window.advance(t)
        assert due == (crossed != 0)
        assert crossed == t // period - index
        index = t // period
        assert window.index == index


@settings(deadline=None)
@given(backend=st.sampled_from(["exact", "cms"]), threshold=st.integers(1, 5),
       stream=miss_streams())
def test_no_window_admits_more_than_the_threshold(backend, threshold, stream):
    # Per `now // period` index the target gets at most `threshold` misses
    # through, so any half-open interval of length `period`, which meets at
    # most two indices, gets at most 2 * threshold through.
    period, misses = stream
    limiter = window_limiter(backend, threshold, period)
    admitted, sent = [], Counter()
    for t, source in misses:
        allowed = limiter.on_miss(source, t) is Decision.ALLOW
        if source == 0:
            sent[t // period] += 1
            if allowed:
                admitted.append(t)
    per_index = Counter(t // period for t in admitted)
    if backend == "exact":
        assert per_index == {i: min(n, threshold) for i, n in sent.items()}
    assert all(n <= threshold for n in per_index.values())
    span = Fraction(period)
    for start in admitted:
        inside = sum(1 for t in admitted if 0 <= Fraction(t) - Fraction(start) < span)
        assert inside <= 2 * threshold


@pytest.mark.parametrize("backend", ["exact", "cms"])
@pytest.mark.parametrize("period", WINDOW_PERIODS)
def test_a_stream_straddling_a_boundary_gets_twice_the_threshold_through(backend, period):
    # The bound above is tight: `threshold` misses at the last instant of
    # window 2 and `threshold` at the first instant of window 3 all pass,
    # though they lie within far less than one period.
    threshold = 4
    first = 3 * period
    while math.nextafter(first, -math.inf) // period >= 3:
        first = math.nextafter(first, -math.inf)
    while first // period < 3:
        first = math.nextafter(first, math.inf)
    last = math.nextafter(first, -math.inf)
    assert (last // period, first // period) == (2, 3)
    limiter = window_limiter(backend, threshold, period)
    decisions = [limiter.on_miss(0, t) for t in [last] * threshold + [first] * threshold]
    assert decisions == [Decision.ALLOW] * (2 * threshold)
    assert limiter.on_miss(0, first) is Decision.DROP


@pytest.mark.parametrize("backend, dims", [("exact", None), ("cms", SketchDims(4, 2))])
def test_drops_after_the_first_leave_the_counter_alone_until_the_window_rolls(backend, dims):
    limiter = SourceRateLimiter(LimiterConfig(threshold=3, period=1.0, backend=backend,
                                              sketch_dims=dims), seed=4)
    counts = limiter._counts

    def cells():
        return dict(counts) if backend == "exact" else counts._cells.tobytes()

    assert [limiter.on_miss(8, 0.1) for _ in range(4)] == [Decision.ALLOW] * 3 + [Decision.DROP]
    before = cells()
    assert [limiter.on_miss(8, 0.5) for _ in range(50)] == [Decision.DROP] * 50
    assert cells() == before
    assert limiter.current_count(8) == 4
    # The next window admits the source again, up to the threshold.
    assert [limiter.on_miss(8, 1.0) for _ in range(4)] == [Decision.ALLOW] * 3 + [Decision.DROP]


@st.composite
def reference_cases(draw):
    """A limiter config over sketches from 1x1 to 6x3 or the exact backend,
    and a stream of bursts of misses, crowded around window boundaries, from
    a few small or 128-bit sources."""
    backend = draw(st.sampled_from(["exact", "cms"]))
    dims = SketchDims(draw(st.integers(1, 6)), draw(st.integers(1, 3))) \
        if backend == "cms" else None
    # Small thresholds, and one that only a 300-miss burst crosses.
    threshold = draw(st.one_of(st.integers(1, 6), st.just(254)))
    config = LimiterConfig(threshold=threshold, period=draw(st.sampled_from([0.1, 1 / 3, 1.0])),
                           backend=backend, sketch_dims=dims)
    key = st.one_of(st.integers(0, 7), st.integers(0, 2**128 - 1))
    sources = draw(st.lists(key, min_size=1, max_size=6, unique=True))
    boundary = st.integers(0, 6).map(lambda k: k * config.period)
    time = st.one_of(st.floats(0, 7 * config.period), boundary,
                     boundary.map(lambda b: max(math.nextafter(b, -math.inf), 0.0)))
    bursts = draw(st.lists(st.tuples(time, st.sampled_from(sources),
                                     st.sampled_from([1, 1, 2, 3, 300])),
                           min_size=1, max_size=30))
    return config, draw(st.integers(0, 3)), sorted(bursts)


@settings(deadline=None, max_examples=300)
@given(case=reference_cases())
def test_decisions_match_the_limiter_that_counts_every_miss(case):
    # Past a source's first drop in a window, the reference still counts its
    # misses; no decision, flag or count under the limit may differ.
    config, seed, bursts = case
    limiter, reference = SourceRateLimiter(config, seed=seed), ReferenceLimiter(config, seed=seed)
    for t, source, repeat in bursts:
        for _ in range(repeat):
            assert limiter.on_miss(source, t) is reference.on_miss(source, t)
            flagged = reference.is_flagged(source)
            assert limiter.is_flagged(source) == flagged
            if not flagged:
                assert limiter.current_count(source) == reference.count(source)


@pytest.mark.parametrize("make_config", [dos_defaults, overflow_defaults])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_router_runs_alike_on_the_reference_limiter(make_config, seed):
    config = make_config()
    stream = _attack_stream(config, seed)
    xtr_config = _attack_xtr_config(config, defended=True)
    routers = [Xtr(xtr_config, seed=seed) for _ in range(2)]
    routers[1].source_limiter = ReferenceLimiter(xtr_config.limiter, seed=seed)
    rows = [router.run(stream).as_row() for router in routers]
    assert rows[0] == rows[1]
    assert rows[0]["dropped_by_source_limiter_total"] > 0
    assert routers[0].admitted_by_source_period == routers[1].admitted_by_source_period
