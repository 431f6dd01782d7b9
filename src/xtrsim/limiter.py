"""Per-source admission control and the shared request budget for map-cache misses.

Both limiters count inside `cache.TumblingWindow`s aligned to time zero: the
window holding `now` has index `window_index(now, period)`, and all counters
reset when that index grows. Nothing decays within a window.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .cache import TumblingWindow
from .cms import CountMinSketch, SketchDims, cell_max


class Decision(enum.Enum):
    ALLOW = "allow"
    DROP = "drop"


_ALLOW, _DROP = Decision  # bound once: on Python 3.11 a lookup on the class is slow


@dataclass(frozen=True)
class LimiterConfig:
    """Sizing and policy of the per-source miss limiter.

    threshold: misses a source may accumulate per period before flagging.
    strict_threshold: flag only when the count exceeds the threshold; set
        False to flag at exactly the threshold too.
    backend: "exact" keeps a per-source hash table, "cms" shares a sketch.
    """

    threshold: int = 1000
    period: float = 1.0
    backend: str = "exact"
    sketch_dims: SketchDims | None = None
    sketch_params: None = None  # single-valued: deleting it would move every config_hash
    cell_width_bytes: int = 2
    strict_threshold: bool = True

    def __post_init__(self) -> None:
        if self.threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {self.threshold}")
        if not 0 < self.period < math.inf:
            raise ValueError(f"period must be finite and > 0, got {self.period}")
        if self.backend not in ("exact", "cms"):
            raise ValueError(f"backend must be 'exact' or 'cms', got {self.backend!r}")
        if self.sketch_params is not None:
            raise ValueError(f"sketch_params must be None, got {self.sketch_params!r}")
        if self.backend == "cms":
            if self.sketch_dims is None:
                raise ValueError("cms backend needs sketch_dims")
            # Cells saturate at the cap, so a threshold the capped count can
            # never cross would switch the defence off without a word.
            cap = cell_max(self.cell_width_bytes)
            if self.threshold > (cap - 1 if self.strict_threshold else cap):
                raise ValueError(f"threshold {self.threshold} is unreachable: "
                                 f"{self.cell_width_bytes}-byte cells saturate at {cap}")


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
        self.config = config
        self._limit = config.threshold - (0 if config.strict_threshold else 1)  # flag above
        self._window = TumblingWindow(config.period)
        self._counts = _ExactCounts() if config.backend == "exact" else CountMinSketch(
            config.sketch_dims, seed=seed, cell_width_bytes=config.cell_width_bytes)
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
        if self._window.advance(now):
            self._counts.reset()
            self._flagged.clear()
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
        if budget < 0:
            raise ValueError(f"budget must be >= 0, got {budget}")
        if not 0 < period < math.inf:
            raise ValueError(f"period must be finite and > 0, got {period}")
        self.budget = budget
        self.period = period
        self._window = TumblingWindow(period)
        self._used = 0  # budget used this period

    def consume(self, now: float) -> Decision:
        """Take one unit of budget if any is left this period."""
        if self._window.advance(now):
            self._used = 0
        if self._used >= self.budget:
            return _DROP
        self._used += 1
        return _ALLOW
