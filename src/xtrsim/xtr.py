"""Event-driven model of a pull-based border router (xTR).

A data packet either hits the map-cache and is forwarded, or triggers the
miss path: pending-request dedup per destination, the per-source limiter, the
destination budget, then a Map-Request. The mapping system answers after a
fixed latency (unless loss is injected) with a reply that carries its request
and installs the mapping. Replies scheduled at time t are delivered before a
data packet carrying the same timestamp. Simulated time starts at 0: the limiters'
windows, LFU aging and the audit are numbered from it by `cache.window_index`.
"""

from __future__ import annotations

import math
import random
from collections import OrderedDict, defaultdict, deque
from dataclasses import dataclass, field, fields

from .cache import (AGE_MODES, LATEST_TIME, POLICIES, EidPrefix, MapCache, check_address,
                    check_choice, check_count, check_positive, check_type, refuse_time,
                    window_index)
from .limiter import Decision, DestRateLimiter, LimiterConfig, SourceRateLimiter
from .workloads import ROLES, Stream


_DROP = Decision.DROP  # bound once: on Python 3.11 a lookup on an Enum class is slow
# The fates of a packet that misses the cache; `XtrMetrics.cache_misses` is their sum.
_MISS_FATES = ("map_requests_sent", "dropped_by_source_limiter", "dropped_by_dest_limiter",
               "suppressed_while_pending", "nonce_table_overflows")


@dataclass
class Tally:
    """A counter split by the role of the principal it is attributed to."""

    legit: int = 0
    attacker: int = 0

    @property
    def total(self) -> int:
        return self.legit + self.attacker


@dataclass
class XtrMetrics:
    """A packet moves one counter, its fate's; `packets_in` and `cache_misses`
    are sums of the fates, derived on each read."""

    cache_hits: Tally = field(default_factory=Tally)
    map_requests_sent: Tally = field(default_factory=Tally)
    dropped_by_source_limiter: Tally = field(default_factory=Tally)
    dropped_by_dest_limiter: Tally = field(default_factory=Tally)
    suppressed_while_pending: Tally = field(default_factory=Tally)
    nonce_table_overflows: Tally = field(default_factory=Tally)
    map_replies_received: Tally = field(default_factory=Tally)
    evictions: Tally = field(default_factory=Tally)
    pending_timeouts: Tally = field(default_factory=Tally)
    stale_replies: int = 0

    @property
    def cache_misses(self) -> Tally:
        fates = [getattr(self, name) for name in _MISS_FATES]
        return Tally(sum(t.legit for t in fates), sum(t.attacker for t in fates))

    @property
    def packets_in(self) -> Tally:
        hits, misses = self.cache_hits, self.cache_misses
        return Tally(hits.legit + misses.legit, hits.attacker + misses.attacker)

    def as_row(self) -> dict[str, int]:
        """Flat column -> value view in a stable order, for CSV export; the two
        sums keep their columns, before and after `cache_hits`."""
        row: dict[str, int] = {}
        hits, *rest = (f.name for f in fields(self))
        for name in ("packets_in", hits, "cache_misses", *rest):
            value = getattr(self, name)
            if isinstance(value, Tally):
                row[f"{name}_total"] = value.total
                row.update((f"{name}_{role}", getattr(value, role)) for role in ROLES)
            else:
                row[name] = value
        return row

    def admission_ratio(self, role: str) -> float:
        """Admitted fraction of this role's misses that reached the limiter chain.

        Misses suppressed by pending dedup never asked for admission and are
        excluded. Returns 1.0 when nothing asked.
        """
        sent, *refused = (getattr(t, role) for t in (
            self.map_requests_sent, self.dropped_by_source_limiter,
            self.dropped_by_dest_limiter, self.nonce_table_overflows))
        attempts = sent + sum(refused)
        return sent / attempts if attempts else 1.0

    def hit_rate(self, role: str) -> float:
        """Cache hits over packets for one role; 0.0 when the role sent nothing."""
        packets = getattr(self.packets_in, role)
        return getattr(self.cache_hits, role) / packets if packets else 0.0


@dataclass(slots=True)
class _Pending:
    address: int  # the destination; its reply installs `EidPrefix.host(address)`
    deadline: float
    role: str  # one of `ROLES`, which names the `Tally` field to bump


class PendingRequestTable(OrderedDict):
    """Outstanding Map-Requests: each uncached destination address -> its `_Pending`.

    Entries are in send order, which is deadline order: each expires `timeout`
    after it was sent. It stays an OrderedDict: popping the front of a plain dict
    leaves deleted slots that each later `next(iter(...))` scans.
    """

    def __init__(self, capacity: int, timeout: float):
        super().__init__()
        check_count("capacity", capacity, 1)
        check_positive("timeout", timeout)
        self.capacity = capacity
        self.timeout = timeout

    @property
    def is_full(self) -> bool:
        return len(self) >= self.capacity

    def insert(self, address: int, now: float, role: str) -> _Pending:
        """Add the request for `address`, which is not pending, and return it.

        A second request for a pending address is refused: it would keep the
        first one's place, and send order would stop being deadline order.
        """
        check_address(address, "address")
        if role not in ROLES:
            check_choice("role", role, ROLES)  # raises: the role names no Tally field
        if address in self:
            raise ValueError(f"{hex(address)} is already pending")
        if self.is_full:
            raise ValueError("pending table full")
        try:
            deadline = now + self.timeout
        except (TypeError, OverflowError):  # a time that does not add to a float
            refuse_time(now)
        if not deadline < math.inf:  # NaN, which would stall every later expiry, or infinity
            refuse_time(now)
        entry = self[address] = _Pending(address, deadline, role)
        return entry

    def consume(self, entry: _Pending) -> bool:
        """Remove `entry` if it is still its address's request; False when it is not."""
        try:
            if self.get(entry.address) is not entry:
                return False
        except AttributeError:
            raise ValueError(f"entry must be a pending request, got {entry!r}") from None
        del self[entry.address]
        return True

    def expire_due(self, now: float) -> list[_Pending]:
        """Remove and return entries whose deadline has passed."""
        expired = []
        try:
            while self and next(iter(self.values())).deadline <= now:
                expired.append(self.popitem(last=False)[1])
        except TypeError:  # raised by the first comparison, before anything moved
            refuse_time(now)
        return expired


@dataclass(frozen=True)
class XtrConfig:
    cache_capacity: int = 1024
    cache_policy: str = "lru"
    age_interval: float = 5.0
    age_mode: str = "halve"
    source_limiter_enabled: bool = True
    limiter: LimiterConfig = field(default_factory=LimiterConfig)
    dest_budget: int = 10_000
    dest_period: float = 1.0
    dest_mode: str = field(default="shared", init=False)  # not a setting, nor are the last two
    pending_capacity: int = 4096
    reply_latency: float = 0.040
    pending_timeout: float | None = None  # defaults to 3x reply_latency
    reply_loss: float = 0.0
    record_cache_trace: bool = False
    reply_prefix_for: None = field(default=None, init=False)
    source_key: None = field(default=None, init=False)

    def __post_init__(self) -> None:
        # All checked whatever the policy; the init=False fields stay for config_hash's bytes.
        for name, allowed in (("cache_policy", POLICIES), ("age_mode", AGE_MODES),
                              ("source_limiter_enabled", (True, False)),
                              ("record_cache_trace", (True, False))):
            check_choice(name, getattr(self, name), allowed)
        for name, low in (("cache_capacity", 1), ("pending_capacity", 1), ("dest_budget", 0)):
            check_count(name, getattr(self, name), low)
        check_type("limiter", self.limiter, LimiterConfig)
        if type(self.reply_loss) not in (int, float) or not 0.0 <= self.reply_loss < 1.0:
            raise ValueError(f"reply_loss must be in [0, 1), got {self.reply_loss!r}")
        for name in ("reply_latency", "dest_period", "effective_pending_timeout", "age_interval"):
            check_positive(name, getattr(self, name))

    @property
    def effective_pending_timeout(self) -> float:
        return 3.0 * self.reply_latency if self.pending_timeout is None else self.pending_timeout


class Xtr:
    """One simulated xTR: map-cache, limiters, pending table, reply scheduling."""

    def __init__(self, config: XtrConfig, *, seed: int = 0):
        check_type("config", config, XtrConfig)
        check_count("seed", seed, 0)
        self.config = config
        self.metrics = XtrMetrics()
        self.cache = MapCache(config.cache_capacity, config.cache_policy,
                              age_interval=config.age_interval, age_mode=config.age_mode,
                              record_trace=config.record_cache_trace)
        self.source_limiter: SourceRateLimiter | None = None
        if config.source_limiter_enabled:
            self.source_limiter = SourceRateLimiter(config.limiter, seed=seed)
        self.dest_limiter = DestRateLimiter(config.dest_budget, config.dest_period)
        self.pending = PendingRequestTable(config.pending_capacity,
                                           config.effective_pending_timeout)
        # Admitted Map-Requests per (source, limiter period index), kept
        # for audits of the per-period admission cap; the index is the
        # `window_index` the source limiter's window rolls on.
        self.admitted_by_source_period: dict[tuple[int, int], int] = defaultdict(int)
        self._reply_loss, self._reply_latency = config.reply_loss, config.reply_latency
        self._loss_rng = random.Random(f"loss-{seed}")
        # (due, request) in send order. `step` schedules each reply at
        # now + reply_latency with a fixed latency, and the cache's clock
        # refuses a time that goes back, so due times arrive in nondecreasing
        # order and a FIFO pops them exactly as a (due, send sequence) heap
        # would; PendingRequestTable's expiry relies on the same fact.
        self._reply_queue: deque[tuple[float, _Pending]] = deque()
        # Whether a pending request can expire at or before the reply queue's
        # head. While no reply is lost and each request's reply is due strictly
        # before its deadline, every pending request's reply is queued and no
        # request is due before the queue's head, so `run` and the delivery do
        # not probe the table. Only `step` fills the router's table, and it sets
        # this the first time a reply is due at or past its request's deadline
        # (at a send time of 2**60, 40 ms and 120 ms later round to one float).
        self._expiry_can_lead = self._reply_loss > 0.0

    def _expire_pending(self, now: float) -> None:
        timeouts = self.metrics.pending_timeouts.__dict__
        for entry in self.pending.expire_due(now):
            timeouts[entry.role] += 1

    def deliver_reply(self, entry: _Pending, now: float) -> None:
        """Consume the Map-Reply to the request `entry`; it counts as stale or received.

        A stale reply, whose request has expired, is discarded even if its
        address has been requested again since. A received one installs the /128.
        A time the cache's clock refuses raises before any counter or table moves.
        """
        self.cache.advance_clock(now)
        if not self.pending.consume(entry):
            self.metrics.stale_replies += 1
            return
        self.metrics.map_replies_received.__dict__[entry.role] += 1
        # An address is pending only while uncached, so the install never finds it cached.
        if self.cache.install(EidPrefix.host(entry.address), (entry.address,), now) is not None:
            self.metrics.evictions.__dict__[entry.role] += 1

    def _deliver_due_replies(self, upto: float) -> None:
        replies, pending, can_lead = self._reply_queue, self.pending, self._expiry_can_lead
        while replies and replies[0][0] <= upto:
            reply_time, entry = replies.popleft()
            if can_lead and pending and next(iter(pending.values())).deadline <= reply_time:
                self._expire_pending(reply_time)
            self.deliver_reply(entry, reply_time)

    def step(self, now: float, src: int, dst: int, role: str) -> None:
        """Process one data packet; its fate moves one counter of its `role`.

        A role outside `ROLES`, a `dst` that is not an int in [0, 2**128), and
        a time that goes back or is not a finite number (the cache's clock is
        the router's) raise ValueError before the cache or any counter moves.
        `src` is not checked."""
        if role not in ROLES:
            check_choice("role", role, ROLES)  # raises: the role names no Tally field
        metrics = self.metrics
        if self.cache.lookup(dst, now) is not None:
            metrics.cache_hits.__dict__[role] += 1
            return

        pending = self.pending
        if dst in pending:
            metrics.suppressed_while_pending.__dict__[role] += 1
            return

        if self.source_limiter is not None and self.source_limiter.on_miss(src, now) is _DROP:
            metrics.dropped_by_source_limiter.__dict__[role] += 1
            return

        if self.dest_limiter.consume(now) is _DROP:
            metrics.dropped_by_dest_limiter.__dict__[role] += 1
            return

        if len(pending) >= pending.capacity:
            metrics.nonce_table_overflows.__dict__[role] += 1
            return

        entry = pending.insert(dst, now, role)
        metrics.map_requests_sent.__dict__[role] += 1
        self.admitted_by_source_period[(src, window_index(now, self.config.limiter.period))] += 1
        if self._reply_loss == 0.0 or self._loss_rng.random() >= self._reply_loss:
            due = now + self._reply_latency
            if not due < entry.deadline:
                self._expiry_can_lead = True
            self._reply_queue.append((due, entry))

    def run(self, stream: Stream) -> XtrMetrics:
        """Drive the xTR through a whole stream, interleaving scheduled replies.

        Replies and expiries are processed only when the head of the reply
        queue or of the pending table is due; before that they change nothing.
        The table's head is tested only once an expiry can lead the replies.
        Each packet goes through one call of `self.step`, looked up once, so
        a wrapper of `step` on the class or the instance sees every packet.
        """
        check_type("stream", stream, Stream)
        replies, pending = self._reply_queue, self.pending
        step = self.step
        columns = (stream.times, stream.srcs, stream.dsts, stream.roles)
        try:
            lengths = [len(column) for column in columns]
        except TypeError:  # zip would take an iterator; its length is unknown before it runs
            raise ValueError("stream columns must be sequences, each with a length") from None
        if len(set(lengths)) > 1:
            raise ValueError(f"stream columns must be of one length, got lengths {lengths}")
        for now, src, dst, role in zip(*columns):
            try:
                due = (replies and replies[0][0] <= now
                       or self._expiry_can_lead and pending
                       and next(iter(pending.values())).deadline <= now)
            except TypeError:  # a time that does not compare with a float: nothing
                due = False  # is due, and the clock in `step` refuses it
            if due:
                if not now <= LATEST_TIME:  # every reply and request is due at it,
                    # and the clock would refuse it only after they all moved
                    raise ValueError(f"packet time must be finite, got {now!r}")
                if replies and replies[0][0] <= now:
                    self._deliver_due_replies(now)
                if (self._expiry_can_lead and pending
                        and next(iter(pending.values())).deadline <= now):
                    self._expire_pending(now)
            step(now, src, dst, role)
        # Drain replies already in flight past the last packet.
        self._deliver_due_replies(float("inf"))
        return self.metrics
