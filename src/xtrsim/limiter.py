"""Per-source admission control and the shared request budget for map-cache misses.

Both limiters count inside `cache.TumblingWindow`s aligned to time zero: the
window holding `now` has index `window_index(now, period)`, and all counters
reset when that index grows. Nothing decays within a window.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .cache import (TumblingWindow, check_choice, check_count, check_positive, check_type,
                    refuse_time)
from .cms import CountMinSketch, SketchDims, check_reachable


class Decision(enum.Enum):
    ALLOW = "allow"
    DROP = "drop"


_ALLOW, _DROP = Decision  # bound once: on Python 3.11 a lookup on the class is slow
BACKENDS = ("exact", "cms")


@dataclass(frozen=True)
class LimiterConfig:
    """Sizing and policy of the per-source miss limiter.

    threshold: misses a source may accumulate per period; it is flagged
        when its count exceeds the threshold.
    backend: "exact" keeps a per-source hash table, "cms" shares a sketch.
    """

    threshold: int = 1000
    period: float = 1.0
    backend: str = "exact"
    sketch_dims: SketchDims | None = None
    # Fixed, not settings: kept only because config_hash reads the repr.
    sketch_params: None = field(default=None, init=False)
    cell_width_bytes: int = field(default=2, init=False)
    strict_threshold: bool = field(default=True, init=False)

    def __post_init__(self) -> None:
        check_count("threshold", self.threshold, 1)
        check_positive("period", self.period)
        check_choice("backend", self.backend, BACKENDS)
        if self.sketch_dims is not None:
            check_type("sketch_dims", self.sketch_dims, SketchDims)
        if self.backend == "cms":
            if self.sketch_dims is None:
                raise ValueError("cms backend needs sketch_dims")
            check_reachable(self.threshold)


class _ExactCounts(dict):
    """Exact per-source counts, with the sketch's counting interface."""

    def increment(self, key: int) -> int:
        count = self[key] = self.get(key, 0) + 1
        return count

    def estimate(self, key: int) -> int:
        return self.get(key, 0)

    reset = dict.clear


class SourceRateLimiter:
    """Counts cache misses per source key and drops the excess.

    With the sketch backend the counter is shared and may overestimate, so a
    source flagged by the exact backend is always flagged here as well; the
    converse can fail (false positives), never the reverse.
    """

    def __init__(self, config: LimiterConfig, *, seed: int = 0):
        check_type("config", config, LimiterConfig)
        self._limit = config.threshold  # flag above
        self._window = TumblingWindow(config.period)
        self._counts = _ExactCounts() if config.backend == "exact" else CountMinSketch(
            config.sketch_dims, seed=seed)
        self._flagged: set[int] = set()  # sources dropped in this window

    def current_count(self, source: int) -> int:
        return self._counts.estimate(source)

    def on_miss(self, source: int, now: float) -> Decision:
        """Record one miss for `source` and decide admission.

        A source's misses are counted up to its first drop in a window, so
        `current_count` stops growing there. Later drops could not change any
        decision: cells only grow within a window, and a cell already over the
        limit (the cap is above it) stays over it. The flagged set holds at
        most the distinct sources that missed in the window, the exact
        backend's bound.
        """
        try:
            # `not <`, not `>=`: a NaN time goes to `advance`, whose window index refuses it.
            if not now < self._window.next_start and self._window.advance(now):
                self._counts.reset()
                self._flagged.clear()
        except TypeError:  # a time that does not compare with a float
            refuse_time(now)
        if source in self._flagged:
            return _DROP
        if self._counts.increment(source) > self._limit:
            self._flagged.add(source)
            return _DROP
        return _ALLOW

    def is_flagged(self, source: int) -> bool:
        """Read-only check of the source's standing in the current period."""
        return self.current_count(source) > self._limit


class DestRateLimiter:
    """Budget of admitted Map-Requests per period, shared by all destinations.

    The shared budget is the contended resource a miss flood actually exhausts.
    """

    def __init__(self, budget: int, period: float):
        check_count("budget", budget, 0)
        check_positive("period", period)
        self.budget = budget
        self._window = TumblingWindow(period)
        self._used = 0  # budget used this period

    def consume(self, now: float) -> Decision:
        """Take one unit of budget if any is left this period."""
        try:
            # `not <`, not `>=`: a NaN time goes to `advance`, whose window index refuses it.
            if not now < self._window.next_start and self._window.advance(now):
                self._used = 0
        except TypeError:  # a time that does not compare with a float
            refuse_time(now)
        if self._used >= self.budget:
            return _DROP
        self._used += 1
        return _ALLOW
