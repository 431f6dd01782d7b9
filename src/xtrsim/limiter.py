"""Per-source and per-destination admission control for map-cache misses.

Both limiters count inside tumbling windows aligned to time zero:
when a window of length `period` has fully elapsed, all counters reset and
the window advances to the boundary containing `now`. Nothing decays within
a window.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .cms import CountMinSketch, SketchDims, SketchParams, cell_max, dims_from_params


class Decision(enum.Enum):
    ALLOW = "allow"
    DROP = "drop"


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
    sketch_params: SketchParams | None = None
    cell_width_bytes: int = 2
    strict_threshold: bool = True

    def __post_init__(self) -> None:
        if self.threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {self.threshold}")
        if self.period <= 0:
            raise ValueError(f"period must be > 0, got {self.period}")
        if self.backend not in ("exact", "cms"):
            raise ValueError(f"backend must be 'exact' or 'cms', got {self.backend!r}")
        if self.backend == "cms":
            if self.sketch_dims is None and self.sketch_params is None:
                raise ValueError("cms backend needs sketch_dims or sketch_params")
            # Cells saturate at the cap, so a threshold the capped count can
            # never cross would switch the defence off without a word.
            cap = cell_max(self.cell_width_bytes)
            if self.threshold > (cap - 1 if self.strict_threshold else cap):
                raise ValueError(f"threshold {self.threshold} is unreachable: "
                                 f"{self.cell_width_bytes}-byte cells saturate at {cap}")


class _TumblingWindow:
    """Window of length `period` aligned to time zero; see the module docstring."""

    def __init__(self, period: float):
        self.period = period
        self._period_start = 0.0

    def rolled(self, now: float) -> bool:
        """Advance to the window containing `now`; True when a boundary was crossed."""
        if now - self._period_start >= self.period:
            self._period_start = (now // self.period) * self.period
            return True
        return False


class SourceRateLimiter:
    """Counts cache misses per source key and drops the excess.

    With the sketch backend the counter is shared and may overestimate, so a
    source flagged by the exact backend is always flagged here as well; the
    converse can fail (false positives), never the reverse.
    """

    def __init__(self, config: LimiterConfig, *, seed: int = 0):
        self.config = config
        self._window = _TumblingWindow(config.period)
        if config.backend == "cms":
            dims = config.sketch_dims or dims_from_params(config.sketch_params)
            self._sketch: CountMinSketch | None = CountMinSketch(
                dims, seed=seed, cell_width_bytes=config.cell_width_bytes)
            self._table: dict[int, int] | None = None
        else:
            self._sketch = None
            self._table = {}

    def current_count(self, source: int) -> int:
        if self._sketch is not None:
            return self._sketch.estimate(source)
        return self._table.get(source, 0)

    def on_miss(self, source: int, now: float) -> Decision:
        """Record one miss for `source` and decide admission.

        Every miss is counted, including the ones this call drops.
        """
        if self._window.rolled(now):
            if self._sketch is not None:
                self._sketch.reset()
            else:
                self._table.clear()
        if self._sketch is not None:
            count = self._sketch.increment(source)
        else:
            count = self._table[source] = self._table.get(source, 0) + 1
        return Decision.DROP if self._over_threshold(count) else Decision.ALLOW

    def is_flagged(self, source: int) -> bool:
        """Read-only check of the source's standing in the current period."""
        return self._over_threshold(self.current_count(source))

    def _over_threshold(self, count: int) -> bool:
        if self.config.strict_threshold:
            return count > self.config.threshold
        return count >= self.config.threshold


class DestRateLimiter:
    """Budget of admitted Map-Requests per period.

    The default is one budget shared by all destinations, which is the
    contended resource a miss flood actually exhausts. "per_prefix" grants
    each destination key its own budget instead.
    """

    def __init__(self, budget: int, period: float, *, mode: str = "shared"):
        if budget < 0:
            raise ValueError(f"budget must be >= 0, got {budget}")
        if period <= 0:
            raise ValueError(f"period must be > 0, got {period}")
        if mode not in ("shared", "per_prefix"):
            raise ValueError(f"mode must be 'shared' or 'per_prefix', got {mode!r}")
        self.budget = budget
        self.period = period
        self.mode = mode
        self._window = _TumblingWindow(period)
        self._used = 0
        self._used_by_dest: dict[object, int] = {}

    def consume(self, now: float, dest: object = None) -> Decision:
        """Take one unit of budget if any is left this period."""
        if self._window.rolled(now):
            self._used = 0
            self._used_by_dest.clear()
        if self.mode == "per_prefix":
            used = self._used_by_dest.get(dest, 0)
            if used < self.budget:
                self._used_by_dest[dest] = used + 1
                return Decision.ALLOW
            return Decision.DROP
        if self._used < self.budget:
            self._used += 1
            return Decision.ALLOW
        return Decision.DROP
