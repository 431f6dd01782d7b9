"""The defence's guarantees, checked after every step of any small stream.

Hypothesis searches tiny routers for the interleavings that the scenarios
never reach: windows that roll mid-burst, timeouts below the latency, replies
lost or stale, tables of one entry. An observer wraps `step` on the instance
(`run` calls `self.step`, so it sees every packet), reads which counter the
packet moved, and keeps its own ledgers by `window_index`.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from xtrsim.cache import POLICIES, window_index
from xtrsim.cms import SketchDims
from xtrsim.limiter import BACKENDS, LimiterConfig
from xtrsim.workloads import ROLES, Stream
from xtrsim.xtr import Xtr, XtrConfig

# The five fates of a miss; a hit is the sixth fate of a packet.
MISS_FATES = ("suppressed_while_pending", "dropped_by_source_limiter", "dropped_by_dest_limiter",
              "nonce_table_overflows", "map_requests_sent")
FATES = ("cache_hits", *MISS_FATES)
# Periods whose windows roll mid-stream, 1/3 and 0.7 at no binary fraction.
PERIODS = st.sampled_from([0.1, 1 / 3, 0.7, 1.0])


class Observer:
    """Checks the router's guarantees before and after each packet it steps."""

    def __init__(self, xtr: Xtr):
        self.xtr, self.config, self.step = xtr, xtr.config, xtr.step
        xtr.step = self.observe
        self.sent_per_dest_window: Counter[int] = Counter()
        self.sent_per_source_window: Counter[tuple[int, int]] = Counter()
        self.reached_per_source_window: Counter[tuple[int, int]] = Counter()

    def check_state(self) -> None:
        metrics, xtr = self.xtr.metrics, self.xtr
        for role in ROLES:
            count = {name: getattr(getattr(metrics, name), role)
                     for name in ("packets_in", "cache_misses", *FATES)}
            assert count["packets_in"] == count["cache_hits"] + count["cache_misses"]
            assert count["cache_misses"] == sum(count[name] for name in MISS_FATES)
        assert len(xtr.pending) <= self.config.pending_capacity
        assert len(xtr.cache) <= self.config.cache_capacity
        assert metrics.map_requests_sent.total == (metrics.map_replies_received.total
                                                   + metrics.pending_timeouts.total
                                                   + len(xtr.pending))

    def fate_counts(self) -> dict[tuple[str, str], int]:
        return {(name, role): getattr(getattr(self.xtr.metrics, name), role)
                for name in FATES for role in ROLES}

    def observe(self, now: float, src: int, dst: int, role: str) -> None:
        self.check_state()
        before = self.fate_counts()
        self.step(now, src, dst, role)
        moved = {key: count - before[key] for key, count in self.fate_counts().items()
                 if count != before[key]}
        assert len(moved) == 1, moved
        (fate, fate_role), delta = moved.popitem()
        assert fate_role == role and delta == 1
        self.check_state()

        limiter = self.config.limiter if self.config.source_limiter_enabled else None
        source_window = (src, window_index(now, self.config.limiter.period))
        if fate == "map_requests_sent":
            dest_window = window_index(now, self.config.dest_period)
            self.sent_per_dest_window[dest_window] += 1
            assert self.sent_per_dest_window[dest_window] <= self.config.dest_budget
            if limiter is not None:
                self.sent_per_source_window[source_window] += 1
                assert self.sent_per_source_window[source_window] <= limiter.threshold
        if limiter is not None and fate not in ("cache_hits", "suppressed_while_pending"):
            self.reached_per_source_window[source_window] += 1
            count = self.reached_per_source_window[source_window]
            if count > limiter.threshold:
                assert fate == "dropped_by_source_limiter", \
                    f"over threshold but not dropped at count {count}"
            elif limiter.backend == "exact":
                assert fate != "dropped_by_source_limiter", \
                    f"dropped at or below threshold at count {count}"


@st.composite
def routers_and_streams(draw):
    """A tiny router and a stream of up to 80 packets with repeated times."""
    latency = draw(st.sampled_from([0.01, 0.05]))
    backend = draw(st.sampled_from(BACKENDS))
    limiter = LimiterConfig(threshold=draw(st.integers(1, 4)), period=draw(PERIODS),
                            backend=backend,
                            sketch_dims=SketchDims(8, 2) if backend == "cms" else None)
    config = XtrConfig(cache_capacity=draw(st.integers(1, 4)),
                       cache_policy=draw(st.sampled_from(POLICIES)), age_interval=0.05,
                       source_limiter_enabled=draw(st.booleans()), limiter=limiter,
                       dest_budget=draw(st.integers(0, 6)), dest_period=draw(PERIODS),
                       pending_capacity=draw(st.integers(1, 4)), reply_latency=latency,
                       pending_timeout=draw(st.sampled_from([latency / 2, 3 * latency])),
                       reply_loss=draw(st.sampled_from([0.0, 0.3])))
    packet = st.tuples(st.integers(0, 40), st.integers(0, 5), st.integers(0, 7),
                       st.sampled_from(ROLES))
    rows = sorted(draw(st.lists(packet, max_size=80)))
    stream = Stream([tick / 20 for tick, *_ in rows], [src for _, src, _, _ in rows],
                    [0xD00 + dst for _, _, dst, _ in rows], [role for *_, role in rows])
    return config, stream, draw(st.integers(0, 3))


@settings(max_examples=400, deadline=None)
@given(case=routers_and_streams())
def test_every_step_keeps_the_routers_guarantees(case):
    config, stream, seed = case
    xtr = Xtr(config, seed=seed)
    observer = Observer(xtr)
    xtr.run(stream)
    observer.check_state()  # after the replies still in flight are drained
    assert xtr.metrics.packets_in.total == len(stream)
