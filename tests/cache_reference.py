"""Brute-force reference cache used as the equivalence oracle in tests.

Deliberately naive: a flat list of records, full scans everywhere, and the
same documented tie-breaks and aging arithmetic as the real cache. Any
behavioral divergence between this and xtrsim.cache is a bug in one of them.
"""

from dataclasses import dataclass

from xtrsim.cache import EidPrefix


@dataclass
class RefRecord:
    prefix: EidPrefix
    locators: tuple
    hits: int
    last_used: float
    installed_at: float


class ReferenceCache:
    def __init__(self, capacity, policy="lru", age_interval=None, age_mode="halve"):
        self.capacity = capacity
        self.policy = policy
        self.age_interval = age_interval
        self.age_mode = age_mode
        self.boundaries_aged = 0  # age_interval boundaries after time 0 already applied
        self.records = []

    def _age(self, now):
        if self.policy != "lfu-aging":
            return
        steps = int(now // self.age_interval) - self.boundaries_aged
        if steps < 1:
            return
        for rec in self.records:
            if self.age_mode == "zero":
                rec.hits = 0
            else:
                for _ in range(steps):
                    rec.hits //= 2
        self.boundaries_aged += steps

    def lookup(self, dst, now):
        best = None
        for rec in self.records:
            if rec.prefix.contains(dst):
                if best is None or rec.prefix.prefix_len > best.prefix.prefix_len:
                    best = rec
        if best is None:
            return None
        self._age(now)
        best.hits += 1
        best.last_used = now
        return best.locators

    def install(self, prefix, locators, now):
        if any(rec.prefix == prefix for rec in self.records):
            raise ValueError(f"{prefix} is already cached")
        self._age(now)
        evicted = None
        if len(self.records) >= self.capacity:
            if self.policy == "lru":
                victim = min(self.records,
                             key=lambda r: (r.last_used, r.installed_at, r.prefix))
            else:
                victim = min(self.records,
                             key=lambda r: (r.hits, r.last_used, r.installed_at, r.prefix))
            self.records.remove(victim)
            evicted = victim.prefix
        self.records.append(RefRecord(prefix, tuple(locators), 0, now, now))
        return evicted

    def age(self, now):
        if self.policy != "lfu-aging":
            raise ValueError("age() on an lru cache")
        self._age(now)

    def state(self):
        """Canonical (prefix, hits, last_used, installed_at) set for comparison."""
        return sorted((str(r.prefix), r.hits, r.last_used, r.installed_at)
                      for r in self.records)
