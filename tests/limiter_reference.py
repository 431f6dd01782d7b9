"""Plain reference source limiter used as the equivalence oracle in tests.

Deliberately naive: every miss is counted, dropped or not, in a counter that
is built afresh whenever `now // period` changes, and each decision is read
back from the counter. Any decision that differs from
xtrsim.limiter.SourceRateLimiter's is a bug in one of them.
"""

from collections import Counter

from xtrsim.cms import CountMinSketch
from xtrsim.limiter import Decision


class ReferenceLimiter:
    def __init__(self, config, *, seed=0):
        self.config = config
        self.seed = seed
        self.window = 0
        self.counts = self._fresh_counts()

    def _fresh_counts(self):
        if self.config.backend == "exact":
            return Counter()
        return CountMinSketch(self.config.sketch_dims, seed=self.seed)

    def count(self, source):
        if self.config.backend == "exact":
            return self.counts[source]
        return self.counts.estimate(source)

    def is_flagged(self, source):
        return self.count(source) > self.config.threshold

    def on_miss(self, source, now):
        if now // self.config.period != self.window:
            self.window = now // self.config.period
            self.counts = self._fresh_counts()
        if self.config.backend == "exact":
            self.counts[source] += 1
        else:
            self.counts.increment(source)
        return Decision.DROP if self.is_flagged(source) else Decision.ALLOW
