"""Fixed-capacity map-cache with longest-prefix match and pluggable eviction.

Two policies are provided: plain LRU, and LFU with periodic aging so that
entries cannot coast forever on hits accumulated long ago. Aging is lazy: a
hit, an install or an age call first ages once per boundary crossed since the
last aging, where `now // age_interval` grows, so hit attribution equals that
of a cache aged eagerly at each such boundary, whatever calls came before. A
lookup that misses changes nothing.

Cache time never goes back: lookup, install and age raise ValueError, and
leave the cache unchanged, for a `now` earlier than the latest one the cache
has seen, NaN, infinity, an int past the largest float, or a non-number.

One index, prefix length -> address -> entry with the longest length first,
holds the entries. The eviction order is the total order (last_used,
installed_at, prefix), with hit_count in front under lfu-aging. Victims come
from a min-heap that holds exactly one flat item per entry, (last_used,
installed_at, address, prefix_len, entry): no two entries share (address,
prefix_len), so the entry is never compared. A stored key is the entry's key
when it was pushed, and between agings an entry's key only rises (a hit raises
its hit count and, time never going back, keeps or raises its last use), so
every stored key is a lower bound on its entry's current key. A hit therefore
pushes nothing; eviction re-keys stale items as it meets them at the top.
Aging is the one step that lowers keys, so it rebuilds the heap.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass
from typing import Collection, Iterable, NoReturn

ADDRESS_BITS = 128
_FULL_MASK = (1 << ADDRESS_BITS) - 1
# _MASKS[n] keeps the top n address bits of a /n prefix.
_MASKS = tuple(_FULL_MASK ^ ((1 << (ADDRESS_BITS - n)) - 1) for n in range(ADDRESS_BITS + 1))
POLICIES, AGE_MODES = ("lru", "lfu-aging"), ("halve", "zero")
LATEST_TIME = math.nextafter(math.inf, 0.0)  # the largest float: the clock's last time


def check_address(value: object, name: str) -> None:
    """Refuse anything but an int (not a bool) in [0, 2**128)."""
    if type(value) is not int or not 0 <= value <= _FULL_MASK:
        raise ValueError(f"{name} {value!r} is not an integer in the 128-bit range")


def check_count(name: str, value: object, low: int) -> None:
    """Refuse anything but an int (not a bool) of at least `low`."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value!r}")


def check_positive(name: str, value: object) -> None:
    """Refuse anything but a finite int or float (not a bool) above 0."""
    if type(value) not in (int, float):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")


def check_choice(name: str, value: object, allowed: Collection) -> None:
    """Refuse a value unless it equals one of `allowed` and has its type (so
    np.str_('lru') and 1 for True, which hash another repr, are refused)."""
    if not any(type(value) is type(choice) and value == choice for choice in allowed):
        raise ValueError(f"{name} must be {' or '.join(map(repr, allowed))}, got {value!r}")


def check_type(name: str, value: object, cls: type) -> None:
    """Refuse anything but an instance of `cls` itself (a subclass is another
    class); the value is named by its type, as its repr can be huge."""
    if type(value) is not cls:
        raise ValueError(f"{name} must be of type {cls.__name__}, got {type(value).__name__}")


def window_index(now: float, period: float) -> int:
    """Index of the window of length `period`, aligned to time zero, that holds `now`;
    a ValueError when the quotient is not finite, as at a subnormal period."""
    try:
        return int(now // period)
    except (OverflowError, ValueError):  # an infinite or NaN quotient
        raise ValueError(f"time {now} has no finite window index at period {period}") from None


def refuse_time(now: object) -> NoReturn:
    """Raise the error for a time that does not compare or add with a float,
    or for a number that is NaN, infinite or too large for a float."""
    if isinstance(now, (int, float)):
        raise ValueError(f"time must be finite, got {now!r}") from None
    raise ValueError(f"time must be a number, got {now!r}") from None


class TumblingWindow:
    """Windows of length `period` aligned to time zero: the limiters' and LFU aging's.

    The window is kept by its index, not by its start time: a start of
    (now // period) * period can round above a boundary (0.30000000000000004
    for 3 * 0.1), and a window kept by it would miss the roll at 0.4.
    """

    def __init__(self, period: float):
        self.period = period
        self.index = 0  # window_index of the current window
        # The first float whose window index exceeds `index`: a caller that
        # tests `now >= next_start` first calls `advance` exactly when it rolls.
        self.next_start = period

    def advance(self, now: float) -> int:
        """Move to the window holding `now`; the number of boundaries crossed."""
        try:
            if now < self.next_start:
                return 0
        except TypeError:
            refuse_time(now)
        crossed = window_index(now, self.period) - self.index
        self.index += crossed
        # The product is the float nearest the boundary; one float up when it
        # rounded below it (5 * 0.1 is 0.5, and 0.5 // 0.1 is 4).
        start = (self.index + 1) * self.period
        if start < math.inf and window_index(start, self.period) == self.index:
            start = math.nextafter(start, math.inf)
        self.next_start = start
        return crossed


class EidPrefix(tuple):
    """Canonical overlay address block: all bits below the prefix boundary are zero.

    Host routes are the /128 degenerate case. A prefix is the tuple
    (address, prefix_len), so it hashes, compares and orders as that tuple.
    """

    __slots__ = ()
    address = property(operator.itemgetter(0))
    prefix_len = property(operator.itemgetter(1))

    def __new__(cls, address: int, prefix_len: int) -> "EidPrefix":
        if type(prefix_len) is not int or not 0 <= prefix_len <= ADDRESS_BITS:
            raise ValueError(f"prefix_len must be an int in [0, 128], got {prefix_len!r}")
        check_address(address, "address")
        if address & ~_MASKS[prefix_len]:
            raise ValueError(f"address {hex(address)} has bits below /{prefix_len}")
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
        check_address(address, "address")
        return cls(address & cls(0, prefix_len).mask, prefix_len)  # cls(0, n) checks n

    @classmethod
    def host(cls, address: int) -> "EidPrefix":
        """The /128 route of `address`; an address needs no other check."""
        check_address(address, "address")
        return tuple.__new__(cls, (address, ADDRESS_BITS))

    def contains(self, address: int) -> bool:
        return (address & _MASKS[self[1]]) == self[0]

    def __str__(self) -> str:
        return f"{hex(self[0])}/{self[1]}"


@dataclass(slots=True)
class MapCacheEntry:
    prefix: EidPrefix
    locators: tuple[int, ...]
    hit_count: int = 0
    last_used: float = 0.0
    installed_at: float = 0.0


def _recency_key(e: MapCacheEntry) -> tuple:
    return (e.last_used, e.installed_at, *e.prefix, e)


def _frequency_key(e: MapCacheEntry) -> tuple:
    return (e.hit_count, e.last_used, e.installed_at, *e.prefix, e)


class MapCache:
    """Map-cache of at most `capacity` entries keyed by prefix.

    policy: "lru", or "lfu-aging" with age_interval (simulated seconds) and
    age_mode "halve" (integer floor) or "zero".
    """

    def __init__(self, capacity: int, policy: str = "lru", *,
                 age_interval: float | None = None, age_mode: str = "halve",
                 record_trace: bool = False):
        check_count("capacity", capacity, 1)
        check_choice("policy", policy, POLICIES)
        self.capacity = capacity
        self.policy = policy
        self._aging: TumblingWindow | None = None
        self._age_mode = age_mode
        self._key = _recency_key
        if policy == "lfu-aging":
            check_positive("age_interval", age_interval)
            check_choice("age_mode", age_mode, AGE_MODES)
            self._aging = TumblingWindow(age_interval)
            self._key = _frequency_key
        # The one index and the heap; see the module docstring.
        self._by_len: dict[int, dict[int, MapCacheEntry]] = {}
        self._heap: list[tuple] = []
        self._clock = 0.0
        self.trace: list[str] = []
        self._record_trace = record_trace

    def __len__(self) -> int:
        return len(self._heap)  # one item per entry

    def __contains__(self, prefix: EidPrefix) -> bool:
        return self.get(prefix) is not None

    def get(self, prefix: EidPrefix) -> MapCacheEntry | None:
        """The entry of `prefix`; None when it is not cached or is not an EidPrefix."""
        if type(prefix) is not EidPrefix:
            return None
        return self._by_len.get(prefix[1], {}).get(prefix[0])

    def entries(self) -> list[MapCacheEntry]:
        return [entry for bucket in self._by_len.values() for entry in bucket.values()]

    def advance_clock(self, now: float) -> None:
        """Move the router's one clock to `now`, or refuse a time that goes back
        or is not a finite number with a ValueError."""
        try:
            if self._clock <= now <= LATEST_TIME:  # False for NaN, infinity and a larger int
                self._clock = now
                return
        except TypeError:  # a time that does not compare with a float
            pass
        raise ValueError(f"cache time must be finite and not go back: {now!r} after {self._clock}")

    def _catch_up_aging(self, now: float) -> None:
        intervals = self._aging.advance(now)
        if not intervals:
            return
        entries = self.entries()
        for entry in entries:
            if self._age_mode == "zero":
                entry.hit_count = 0
            else:
                entry.hit_count >>= intervals
        self._heap = [self._key(e) for e in entries]
        heapq.heapify(self._heap)

    def lookup(self, dst: int, now: float) -> tuple[int, ...] | None:
        """Longest-prefix match; a hit refreshes the entry, a miss changes nothing."""
        # check_address's predicate, inline since this runs once per packet.
        if type(dst) is not int or not 0 <= dst <= _FULL_MASK:
            check_address(dst, "address")
        self.advance_clock(now)
        for prefix_len, bucket in self._by_len.items():
            entry = bucket.get(dst & _MASKS[prefix_len])
            if entry is not None:
                break
        else:
            if self._record_trace:
                self.trace.append(f"{now} lookup {hex(dst)} miss -")
            return None
        if self._aging is not None and now >= self._aging.next_start:
            self._catch_up_aging(now)
        entry.hit_count += 1
        entry.last_used = now
        if self._record_trace:
            self.trace.append(f"{now} lookup {hex(dst)} hit -")
        return entry.locators

    def _evict(self) -> EidPrefix:
        """Remove the first entry in the eviction order from the heap and the index.

        Least-recently-used goes, then the oldest install, then the smallest
        prefix; under lfu-aging the fewest hits go first. The heap holds one
        flat item per entry, each stored key a lower bound on its entry's
        current key (see the module docstring), so a top item whose key is
        still current is the minimum over all entries; a stale top item is
        re-keyed and the heap is read again. Returns the evicted prefix.
        """
        heap, key = self._heap, self._key
        while True:
            entry = heap[0][-1]
            current = key(entry)
            if current == heap[0]:
                break
            heapq.heapreplace(heap, current)
        heapq.heappop(heap)
        address, prefix_len = entry.prefix
        bucket = self._by_len[prefix_len]
        del bucket[address]
        if not bucket:
            del self._by_len[prefix_len]
        return entry.prefix

    def install(self, prefix: EidPrefix, locators: tuple[int, ...] | list[int],
                now: float) -> EidPrefix | None:
        """Insert a mapping, evicting one victim if the cache is full.

        New entries always start with hit_count 0. Returns the evicted prefix
        or None. Raises ValueError if `prefix` is not an EidPrefix or is
        already present, or if `locators` is not a non-empty iterable.
        """
        if type(prefix) is not EidPrefix:  # check_type's test, inline: once per reply
            check_type("prefix", prefix, EidPrefix)
        address, prefix_len = prefix
        if address in self._by_len.get(prefix_len, ()):
            raise ValueError(f"{prefix} is already cached")
        if type(locators) is not tuple:
            locators = tuple(locators) if isinstance(locators, Iterable) else ()
        if not locators:
            raise ValueError("locators must be a non-empty iterable")
        self.advance_clock(now)
        if self._aging is not None and now >= self._aging.next_start:
            self._catch_up_aging(now)
        evicted = self._evict() if len(self._heap) >= self.capacity else None
        entry = MapCacheEntry(prefix, locators, 0, now, now)
        heapq.heappush(self._heap, self._key(entry))
        # Read after the eviction, which deletes a bucket it empties.
        bucket = self._by_len.get(prefix_len)
        if bucket is None:
            bucket = {}
            self._by_len = dict(sorted({**self._by_len, prefix_len: bucket}.items(),
                                       reverse=True))
        bucket[address] = entry
        if self._record_trace:  # str(prefix)'s text, written inline: this runs once per reply
            gone = "-" if evicted is None else f"{hex(evicted[0])}/{evicted[1]}"
            self.trace.append(f"{now} install {hex(address)}/{prefix_len} installed {gone}")
        return evicted

    def age(self, now: float) -> None:
        """Apply any pending aging now; only meaningful under lfu-aging."""
        if self._aging is None:
            raise ValueError("age() on an lru cache")
        self.advance_clock(now)
        self._catch_up_aging(now)
        if self._record_trace:
            self.trace.append(f"{now} age - aged -")
