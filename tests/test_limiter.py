"""Admission-control semantics: thresholds, tumbling windows, backend dominance."""

import numpy as np
import pytest

from xtrsim.cms import SketchDims
from xtrsim.limiter import Decision, DestRateLimiter, LimiterConfig, SourceRateLimiter


def make_limiter(**kwargs) -> SourceRateLimiter:
    return SourceRateLimiter(LimiterConfig(**kwargs))


def test_drop_starts_on_miss_after_threshold():
    limiter = make_limiter(threshold=1000)
    decisions = [limiter.on_miss(7, 0.0) for _ in range(1001)]
    assert decisions[:1000] == [Decision.ALLOW] * 1000
    assert decisions[1000] is Decision.DROP
    assert limiter.current_count(7) == 1001


def test_nonstrict_flags_at_exactly_threshold():
    limiter = make_limiter(threshold=5, strict_threshold=False)
    decisions = [limiter.on_miss(1, 0.0) for _ in range(5)]
    assert decisions[-1] is Decision.DROP
    assert decisions[:4] == [Decision.ALLOW] * 4


def test_is_flagged_is_read_only():
    limiter = make_limiter(threshold=3)
    for _ in range(3):
        limiter.on_miss(9, 0.0)
    before = limiter.current_count(9)
    assert not limiter.is_flagged(9)  # exactly at the threshold, strict
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
        for strict in (True, False):
            limiter = SourceRateLimiter(LimiterConfig(
                threshold=15, backend=backend, sketch_dims=dims, strict_threshold=strict), seed=3)
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
    with pytest.raises(ValueError):
        LimiterConfig(backend="cms")
    with pytest.raises(ValueError):
        LimiterConfig(backend="bloom")
    with pytest.raises(ValueError):
        LimiterConfig(threshold=0)
    with pytest.raises(ValueError):
        LimiterConfig(period=0.0)


def test_cms_threshold_must_be_reachable_under_the_cell_cap():
    dims = SketchDims(64, 2)
    # 1-byte cells cap at 255: strict flags on count > threshold, so 254 is
    # the largest threshold a capped estimate still crosses.
    limiter = make_limiter(backend="cms", sketch_dims=dims, cell_width_bytes=1,
                           threshold=254)
    decisions = [limiter.on_miss(5, 0.0) for _ in range(5000)]
    assert decisions[:254] == [Decision.ALLOW] * 254
    assert set(decisions[254:]) == {Decision.DROP}
    with pytest.raises(ValueError):
        LimiterConfig(backend="cms", sketch_dims=dims, cell_width_bytes=1, threshold=255)
    with pytest.raises(ValueError):
        LimiterConfig(backend="cms", sketch_dims=dims, cell_width_bytes=1, threshold=300)
    # non-strict flags at count >= threshold, so the cap itself is reachable
    assert LimiterConfig(backend="cms", sketch_dims=dims, cell_width_bytes=1,
                         threshold=255, strict_threshold=False).threshold == 255
    with pytest.raises(ValueError):
        LimiterConfig(backend="cms", sketch_dims=dims, cell_width_bytes=1,
                      threshold=256, strict_threshold=False)
    for width in (0, 3, 8):
        with pytest.raises(ValueError):
            LimiterConfig(backend="cms", sketch_dims=dims, cell_width_bytes=width)
    # the exact backend has no cells, so the cell width does not bound it
    assert LimiterConfig(cell_width_bytes=1, threshold=300).threshold == 300


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


def test_dest_budget_per_prefix_mode():
    limiter = DestRateLimiter(1, 1.0, mode="per_prefix")
    assert limiter.consume(0.0, "a") is Decision.ALLOW
    assert limiter.consume(0.0, "b") is Decision.ALLOW
    assert limiter.consume(0.1, "a") is Decision.DROP
    assert limiter.consume(1.0, "a") is Decision.ALLOW


def test_dest_limiter_validation():
    with pytest.raises(ValueError):
        DestRateLimiter(-1, 1.0)
    with pytest.raises(ValueError):
        DestRateLimiter(5, 0.0)
    with pytest.raises(ValueError):
        DestRateLimiter(5, 1.0, mode="queued")
