"""Fixed-capacity map-cache with longest-prefix match and pluggable eviction.

Two policies are provided: plain LRU, and LFU with periodic aging so that
entries cannot coast forever on hits accumulated long ago. Aging is lazy: a
hit, an install or an age call first ages once per boundary crossed since the
last aging, where `now // age_interval` grows, so hit attribution equals that
of a cache aged eagerly at each such boundary, whatever calls came before. A
lookup that misses changes nothing.

Cache time never goes back: lookup, install and age raise TimeRegression
for a `now` earlier than the latest one the cache has seen, or NaN, and leave
the cache unchanged.

The eviction order is the total order (last_used, installed_at, prefix), with
hit_count in front under lfu-aging. Victims come from a min-heap that holds
exactly one (key, prefix) item per entry. A stored key is the entry's key when
it was pushed, and between agings an entry's key only rises (a hit raises its
hit count and, time never going back, keeps or raises its last use), so every
stored key is a lower bound on its entry's current key. A hit therefore
pushes nothing; eviction re-keys stale items as it meets them at the top.
Aging is the one step that lowers keys, so it rebuilds the heap.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass

ADDRESS_BITS = 128
_FULL_MASK = (1 << ADDRESS_BITS) - 1
# _MASKS[n] keeps the top n address bits of a /n prefix.
_MASKS = tuple(_FULL_MASK ^ ((1 << (ADDRESS_BITS - n)) - 1) for n in range(ADDRESS_BITS + 1))
POLICIES, AGE_MODES = ("lru", "lfu-aging"), ("halve", "zero")


class TimeRegression(ValueError):
    """A time earlier than one the cache has already seen, or NaN."""


def window_index(now: float, period: float) -> int:
    """Index of the window of length `period`, aligned to time zero, that holds `now`;
    a ValueError when the quotient is not finite, as at a subnormal period."""
    try:
        return int(now // period)
    except (OverflowError, ValueError):  # an infinite or NaN quotient
        raise ValueError(f"time {now} has no finite window index at period {period}") from None


class TumblingWindow:
    """Windows of length `period` aligned to time zero: the limiters' and LFU aging's.

    The window is kept by its index, not by its start time: a start of
    (now // period) * period can round above a boundary (0.30000000000000004
    for 3 * 0.1), and a window kept by it would miss the roll at 0.4.
    """

    def __init__(self, period: float):
        self.period = period
        self.index = 0  # window_index of the current window
        # No later than the first time of the next window, so an earlier
        # `now` skips the division: the product rounds to the float nearest
        # (index + 1) * period, never past the first float at or above it.
        self._next = period

    def advance(self, now: float) -> int:
        """Move to the window holding `now`; the number of boundaries crossed."""
        if now < self._next:
            return 0
        crossed = window_index(now, self.period) - self.index
        self.index += crossed
        self._next = (self.index + 1) * self.period
        return crossed


class DuplicateInstall(Exception):
    """Install of a prefix that is already cached."""


class PolicyMismatch(Exception):
    """Aging requested on a cache whose policy does not age."""


class EidPrefix(tuple):
    """Canonical overlay address block: all bits below the prefix boundary are zero.

    Host routes are the /128 degenerate case. A prefix is the tuple
    (address, prefix_len), so it hashes, compares and orders as that tuple.
    """

    __slots__ = ()
    address = property(operator.itemgetter(0))
    prefix_len = property(operator.itemgetter(1))

    def __new__(cls, address: int, prefix_len: int) -> "EidPrefix":
        if not 0 <= prefix_len <= ADDRESS_BITS:
            raise ValueError(f"prefix_len must be in [0, {ADDRESS_BITS}], got {prefix_len}")
        if not isinstance(address, int) or not 0 <= address <= _FULL_MASK:
            raise ValueError(f"address {address!r} is not an integer in the 128-bit range")
        if address & ~_MASKS[prefix_len]:
            raise ValueError(f"address {address:#x} has bits below /{prefix_len}")
        return tuple.__new__(cls, (address, prefix_len))

    def __getnewargs__(self) -> tuple[int, int]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"EidPrefix(address={self[0]!r}, prefix_len={self[1]!r})"

    @property
    def mask(self) -> int:
        return _MASKS[self[1]]

    @classmethod
    def of(cls, address: int, prefix_len: int) -> "EidPrefix":
        """Build a prefix, zeroing any host bits of `address`."""
        if 0 <= prefix_len <= ADDRESS_BITS:
            address &= _MASKS[prefix_len]
        return cls(address, prefix_len)  # rejects an out-of-range prefix_len

    @classmethod
    def host(cls, address: int) -> "EidPrefix":
        """The /128 route of `address`; an int in [0, 2**128) needs no other check."""
        if type(address) is int and 0 <= address <= _FULL_MASK:
            return tuple.__new__(cls, (address, ADDRESS_BITS))
        return cls(address, ADDRESS_BITS)

    def contains(self, address: int) -> bool:
        return (address & _MASKS[self[1]]) == self[0]

    def __str__(self) -> str:
        return f"{self[0]:#x}/{self[1]}"


@dataclass(slots=True)
class MapCacheEntry:
    prefix: EidPrefix
    locators: tuple[int, ...]
    hit_count: int = 0
    last_used: float = 0.0
    installed_at: float = 0.0


def _recency_key(e: MapCacheEntry) -> tuple:
    return (e.last_used, e.installed_at, *e.prefix)


def _frequency_key(e: MapCacheEntry) -> tuple:
    return (e.hit_count, e.last_used, e.installed_at, *e.prefix)


class MapCache:
    """Map-cache of at most `capacity` entries keyed by prefix.

    policy: "lru", or "lfu-aging" with age_interval (simulated seconds) and
    age_mode "halve" (integer floor) or "zero".
    """

    def __init__(self, capacity: int, policy: str = "lru", *,
                 age_interval: float | None = None, age_mode: str = "halve",
                 record_trace: bool = False):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if policy not in POLICIES:
            raise ValueError(f"policy must be 'lru' or 'lfu-aging', got {policy!r}")
        self.capacity = capacity
        self.policy = policy
        self._aging: TumblingWindow | None = None
        self._age_mode = age_mode
        self._key = _recency_key
        if policy == "lfu-aging":
            if age_interval is None or not 0 < age_interval < math.inf:
                raise ValueError(f"lfu-aging needs a finite age_interval > 0, got {age_interval}")
            if age_mode not in AGE_MODES:
                raise ValueError(f"age_mode must be 'halve' or 'zero', got {age_mode!r}")
            self._aging = TumblingWindow(age_interval)
            self._key = _frequency_key
        self._entries: dict[EidPrefix, MapCacheEntry] = {}
        # Length-bucketed index for longest-prefix match.
        self._by_len: dict[int, dict[int, MapCacheEntry]] = {}
        self._lens_desc: list[int] = []
        # One (eviction key, prefix) item per entry; see the module docstring.
        self._heap: list[tuple[tuple, EidPrefix]] = []
        self._clock = 0.0
        self.trace: list[str] = []
        self._record_trace = record_trace

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, prefix: EidPrefix) -> bool:
        return prefix in self._entries

    def get(self, prefix: EidPrefix) -> MapCacheEntry | None:
        return self._entries.get(prefix)

    def entries(self) -> list[MapCacheEntry]:
        return list(self._entries.values())

    def _advance(self, now: float) -> None:
        if not now >= self._clock:  # also rejects NaN
            raise TimeRegression(f"cache time must not go back: {now} after {self._clock}")
        self._clock = now

    def _catch_up_aging(self, now: float) -> None:
        intervals = self._aging.advance(now)
        if not intervals:
            return
        for entry in self._entries.values():
            if self._age_mode == "zero":
                entry.hit_count = 0
            else:
                entry.hit_count >>= intervals
        self._heap = [(self._key(e), e.prefix) for e in self._entries.values()]
        heapq.heapify(self._heap)

    def lookup(self, dst: int, now: float) -> tuple[int, ...] | None:
        """Longest-prefix match; a hit refreshes the entry, a miss changes nothing."""
        self._advance(now)
        for plen in self._lens_desc:
            entry = self._by_len[plen].get(dst & _MASKS[plen])
            if entry is not None:
                break
        else:
            if self._record_trace:
                self.trace.append(f"{now} lookup {dst:#x} miss -")
            return None
        if self._aging is not None:
            self._catch_up_aging(now)
        entry.hit_count += 1
        entry.last_used = now
        if self._record_trace:
            self.trace.append(f"{now} lookup {dst:#x} hit -")
        return entry.locators

    def _victim(self) -> EidPrefix:
        """Pop the heap item of the entry that comes first in the eviction order.

        Least-recently-used goes, then the oldest install, then the smallest
        prefix; under lfu-aging the fewest hits go first. The heap holds one
        item per entry, and between agings each stored key is a lower bound
        on its entry's current key: hits only raise keys while cache time
        never goes back (`_advance`), and aging, which lowers them, rebuilds
        the heap. So a top item whose stored key is still current is the
        minimum over all entries; a stale top item is re-keyed and the heap
        is read again.
        """
        heap = self._heap
        while True:
            stored, prefix = heap[0]
            current = self._key(self._entries[prefix])
            if stored == current:
                heapq.heappop(heap)
                return prefix
            heapq.heapreplace(heap, (current, prefix))

    def _remove(self, prefix: EidPrefix) -> None:
        del self._entries[prefix]
        address, prefix_len = prefix
        bucket = self._by_len[prefix_len]
        del bucket[address]
        if not bucket:
            del self._by_len[prefix_len]
            self._lens_desc.remove(prefix_len)

    def install(self, prefix: EidPrefix, locators: tuple[int, ...] | list[int],
                now: float) -> EidPrefix | None:
        """Insert a mapping, evicting one victim if the cache is full.

        New entries always start with hit_count 0. Returns the evicted prefix
        or None. Raises DuplicateInstall if the prefix is already present.
        """
        if prefix in self._entries:
            raise DuplicateInstall(str(prefix))
        locators = tuple(locators)
        if not locators:
            raise ValueError("locators must be non-empty")
        self._advance(now)
        if self._aging is not None:
            self._catch_up_aging(now)
        evicted: EidPrefix | None = None
        if len(self._entries) >= self.capacity:
            evicted = self._victim()
            self._remove(evicted)
        entry = MapCacheEntry(prefix, locators, hit_count=0,
                              last_used=now, installed_at=now)
        self._entries[prefix] = entry
        heapq.heappush(self._heap, (self._key(entry), prefix))
        address, prefix_len = prefix
        bucket = self._by_len.setdefault(prefix_len, {})
        bucket[address] = entry
        if prefix_len not in self._lens_desc:
            self._lens_desc.append(prefix_len)
            self._lens_desc.sort(reverse=True)
        if self._record_trace:
            self.trace.append(
                f"{now} install {prefix} installed {evicted if evicted is not None else '-'}")
        return evicted

    def age(self, now: float) -> None:
        """Apply any pending aging now; only meaningful under lfu-aging."""
        if self._aging is None:
            raise PolicyMismatch("age() on an lru cache")
        self._advance(now)
        self._catch_up_aging(now)
        if self._record_trace:
            self.trace.append(f"{now} age - aged -")
