"""Miss-path pipeline: dedup, limiters, nonce table, reply delivery, accounting."""

from __future__ import annotations

import math
import os
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xtrsim.cache import EidPrefix
from xtrsim.experiment import (_attack_stream, _attack_xtr_config, dos_defaults, overflow_defaults,
                               run_attack)
from xtrsim.limiter import LimiterConfig
from xtrsim.workloads import ATTACKER, LEGIT, ROLES, PopulationProfile, Stream, gen_dos_stream
from xtrsim.xtr import (
    PendingRequestTable,
    Xtr,
    XtrConfig,
    XtrMetrics,
)


def mk_config(**overrides) -> XtrConfig:
    """Small xTR with every gate wide open; tests narrow one gate at a time."""
    base = dict(cache_capacity=8, source_limiter_enabled=False,
                dest_budget=10**9, pending_capacity=64, reply_latency=0.04)
    base.update(overrides)
    return XtrConfig(**base)


def pkt(t: float, src: int, dst: int, role: str = "legit") -> tuple[float, int, int, str]:
    """One packet as the arguments of `Xtr.step`."""
    return t, src, dst, role


def stream(*packets: tuple[float, int, int, str]) -> Stream:
    return Stream(*map(list, zip(*packets)))


# The counters a packet's fate moves, one per packet: forwarded on a hit, or
# on a miss suppressed, dropped by either limiter or the full pending table, or sent.
FATES = ("cache_hits", "suppressed_while_pending", "dropped_by_source_limiter",
         "dropped_by_dest_limiter", "nonce_table_overflows", "map_requests_sent")


def fate(x: Xtr, now: float, src: int, dst: int, role: str = LEGIT) -> str:
    """Step one packet and name the fate counter that grew by one for `role`;
    fails if any other fate counter of either role moved."""
    def counts() -> dict[tuple[str, str], int]:
        return {(name, r): getattr(getattr(x.metrics, name), r) for name in FATES for r in ROLES}

    before = counts()
    x.step(now, src, dst, role)
    moved = {key: count - before[key] for key, count in counts().items() if count != before[key]}
    grown = [name for (name, r), delta in moved.items() if r == role and delta == 1]
    assert len(grown) == 1 and moved == {(grown[0], role): 1}, moved
    return grown[0]


# ------------------------------------------------------------ pending table

def test_pending_table_round_trip():
    table = PendingRequestTable(2, 0.5)
    a = 0x1
    entry = table.insert(a, 0.25, "legit")
    assert table[a] is entry and len(table) == 1
    assert entry.address == a and entry.deadline == 0.75 and entry.role == "legit"
    assert table.consume(entry) is True
    assert table.consume(entry) is False
    assert a not in table and len(table) == 0
    # A new request for the address is a new entry, which the old one cannot consume.
    newer = table.insert(a, 1.0, "attacker")
    assert table.consume(entry) is False and table[a] is newer
    # No key outside the address space gets in, so none reaches the install.
    for bad in (-1, 1 << 128):
        with pytest.raises(ValueError, match="not an integer in the 128-bit range"):
            table.insert(bad, 1.0, "legit")
    assert list(table) == [a]


def test_a_prefix_requested_again_after_its_reply_goes_to_the_back():
    table = PendingRequestTable(4, 1.0)
    a, b = 1, 2
    first = table.insert(a, 0.0, "legit")
    table.insert(b, 0.1, "legit")
    assert table.consume(first)
    again = table.insert(a, 0.2, "legit")
    assert list(table) == [b, a]
    assert [e.address for e in table.expire_due(1.15)] == [b]
    assert table.expire_due(1.2) == [again]


def test_a_pending_prefix_is_not_inserted_again():
    # Re-inserting p kept p's first place with the later deadline, so the
    # front was not due and q, due at 1.1, was never expired.
    table = PendingRequestTable(4, 1.0)
    p, q = 0xA1, 0xA2
    first = table.insert(p, 0.0, "legit")
    second = table.insert(q, 0.1, "attacker")
    with pytest.raises(ValueError, match="^0xa1 is already pending$"):
        table.insert(p, 0.2, "legit")
    assert list(table.items()) == [(p, first), (q, second)]
    assert first.deadline == 1.0
    assert table.expire_due(1.15) == [first, second]


def test_pending_table_capacity():
    table = PendingRequestTable(1, 1.0)
    table.insert(1, 0.0, "legit")
    assert table.is_full
    with pytest.raises(ValueError, match="^pending table full$"):
        table.insert(2, 0.0, "legit")
    with pytest.raises(ValueError):
        PendingRequestTable(0, 1.0)


def test_pending_expiry_is_fifo_and_skips_consumed():
    table = PendingRequestTable(8, 2.5)
    table.insert(0, 0.0, "legit")
    e1 = table.insert(1, 1.0, "attacker")
    table.insert(2, 2.0, "legit")
    expired = table.expire_due(2.5)
    assert [e.address for e in expired] == [0]
    table.consume(e1)  # reply beat the timeout
    expired = table.expire_due(10.0)
    assert [e.address for e in expired] == [2]
    assert len(table) == 0


def test_only_an_installed_reply_builds_a_host_prefix(monkeypatch):
    # The pending table is keyed by the destination address, so the miss path
    # builds no EidPrefix: each /128 is built once, by the install of its reply.
    calls = []
    host = EidPrefix.host.__func__
    monkeypatch.setattr(EidPrefix, "host", classmethod(
        lambda cls, address: calls.append(address) or host(cls, address)))
    config = replace(dos_defaults(), n_legit=20, n_attackers=2, attacker_miss_range=(300, 600),
                     dest_budget=300)
    # Both arms run here: run_attack would run the undefended one in a child,
    # whose calls this process cannot count.
    stream = _attack_stream(config, 1)
    metrics = [Xtr(_attack_xtr_config(config, defended=defended), seed=1).run(stream)
               for defended in (True, False)]
    assert len(calls) == sum(m.map_replies_received.total for m in metrics)
    for m in metrics:
        assert 0 < m.map_replies_received.total < m.cache_misses.total


# -------------------------------------------------------------- happy path

def test_miss_reply_install_hit_cycle():
    x = Xtr(mk_config(), seed=1)
    m = x.run(stream(pkt(0.0, 1, 0xD1), pkt(0.01, 1, 0xD1), pkt(0.05, 1, 0xD1)))
    assert m.packets_in.legit == 3
    assert m.cache_misses.legit == 2
    assert m.suppressed_while_pending.legit == 1
    assert m.map_requests_sent.legit == 1
    assert m.map_replies_received.legit == 1
    assert m.cache_hits.legit == 1
    assert EidPrefix.host(0xD1) in x.cache
    assert fate(x, *pkt(0.06, 1, 0xD1)) == "cache_hits"


def test_reply_at_equal_timestamp_lands_before_the_packet():
    x = Xtr(mk_config(reply_latency=0.04), seed=1)
    m = x.run(stream(pkt(0.0, 1, 0xD2), pkt(0.04, 1, 0xD2)))
    assert m.cache_hits.legit == 1
    assert m.suppressed_while_pending.legit == 0


def test_step_outcome_for_pending_dedup():
    x = Xtr(mk_config(), seed=0)
    assert fate(x, *pkt(0.0, 1, 0xD3)) == "map_requests_sent"
    assert fate(x, *pkt(0.001, 2, 0xD3)) == "suppressed_while_pending"


# ------------------------------------------------------------ gate outcomes

def test_source_limiter_suppression_and_window_reset():
    cfg = mk_config(source_limiter_enabled=True,
                    limiter=LimiterConfig(threshold=2, period=1.0))
    x = Xtr(cfg, seed=0)
    fates = [fate(x, *pkt(i * 1e-3, 7, 0xE0 + i)) for i in range(3)]
    assert fates == ["map_requests_sent", "map_requests_sent", "dropped_by_source_limiter"]
    assert x.metrics.dropped_by_source_limiter.legit == 1
    # Next window: the same source gets a fresh allowance.
    assert fate(x, *pkt(1.5, 7, 0xEF)) == "map_requests_sent"


def test_dest_budget_suppression():
    x = Xtr(mk_config(dest_budget=2), seed=0)
    fates = [fate(x, *pkt(i * 1e-3, 100 + i, 0xF0 + i)) for i in range(3)]
    assert fates[-1] == "dropped_by_dest_limiter"
    assert x.metrics.dropped_by_dest_limiter.legit == 1


def test_pending_capacity_overflow():
    x = Xtr(mk_config(pending_capacity=2), seed=0)
    fates = [fate(x, *pkt(i * 1e-3, 200 + i, 0x900 + i)) for i in range(3)]
    assert fates[-1] == "nonce_table_overflows"
    assert x.metrics.nonce_table_overflows.legit == 1


def test_an_unknown_role_is_refused_before_the_router_moves():
    x = Xtr(XtrConfig(record_cache_trace=True))
    before = x.metrics.as_row()
    # A role that cannot be hashed fails the tally's lookup with a TypeError.
    for role, shown in (("eve", "'eve'"), (["legit"], r"\['legit'\]")):
        with pytest.raises(ValueError, match=f"^role must be 'legit' or 'attacker', got {shown}$"):
            x.step(0.5, 1, 2, role)
        assert x.cache.trace == []
        assert x.metrics.as_row() == before
    assert fate(x, 0.4, 1, 2, "legit") == "map_requests_sent"


def test_time_regression_raises():
    x = Xtr(mk_config(), seed=0)
    x.step(*pkt(1.0, 1, 0xAA))
    before = x.metrics.as_row()
    # NaN, a step back, a step back after NaN, and a time that does not
    # compare with a float: each is refused, and no counter moves.
    for t in (float("nan"), 0.5, float("nan"), 0.5, "1"):
        with pytest.raises(ValueError, match="^cache time must be finite and not go back"):
            x.step(*pkt(t, 1, 0xAB))
        assert x.metrics.as_row() == before
    assert fate(x, *pkt(1.0, 1, 0xAA)) == "suppressed_while_pending"
    # In `run` a str time behind a valid packet meets the reply queue's due
    # time (or, its reply lost, the pending table's deadline) first.
    for loss in (0.0, 0.999999):
        x, alone = (Xtr(mk_config(reply_loss=loss), seed=0) for _ in range(2))
        alone.step(*pkt(0.0, 1, 0xAA))
        with pytest.raises(ValueError,
                           match=r"^cache time must be finite and not go back: '1' after 0.0$"):
            x.run(stream(pkt(0.0, 1, 0xAA), pkt("1", 1, 0xAB)))
        assert x.metrics.as_row() == alone.metrics.as_row()


def test_an_infinite_time_is_refused_before_the_router_moves():
    # Infinity once moved packets_in and cache_misses before the limiter's
    # window index refused it, and left the clock at inf, so every later
    # packet was refused as going back.
    x = Xtr(XtrConfig(record_cache_trace=True))
    x.step(0.0, 1, 3, "legit")
    before = x.metrics.as_row(), list(x.cache.trace)
    for t in (math.inf, math.inf, -math.inf):  # twice: the first must not move the clock
        with pytest.raises(ValueError,
                           match=f"^cache time must be finite and not go back: {t} after 0.0$"):
            x.step(t, 1, 3, "legit")
        assert (x.metrics.as_row(), x.cache.trace) == before
    assert fate(x, 1.0, 1, 4) == "map_requests_sent"
    with pytest.raises(ValueError, match="^cache time must be finite and not go back: inf after 1"):
        x.cache.install(EidPrefix.host(5), (5,), math.inf)
    assert x.cache.get(EidPrefix.host(5)) is None


def test_an_infinite_time_in_run_is_refused_before_a_reply_or_expiry_moves():
    # run once compared infinity with the heads of the reply queue and the
    # pending table first, so it delivered every reply in flight and expired
    # every pending request before the clock refused the time.
    times = [0.0, 0.0, 0.0, math.inf]
    for loss in (0.0, 0.5, 0.999999):  # replies due, both, expiries due
        x, alone = (Xtr(XtrConfig(reply_loss=loss), seed=1) for _ in range(2))
        for t, dst in zip(times[:3], (3, 4, 5)):
            alone.step(t, 1, dst, LEGIT)
        with pytest.raises(ValueError, match=r"^packet time must be finite, got inf$"):
            x.run(Stream(times, [1] * 4, [3, 4, 5, 6], [LEGIT] * 4))
        assert x.metrics.as_row() == alone.metrics.as_row()
        assert x.metrics.map_replies_received.total == x.metrics.pending_timeouts.total == 0


def test_an_int_time_past_the_largest_float_is_refused_before_the_router_moves():
    # Such a time once passed the clock's `< inf` test: it moved packets_in and
    # cache_misses before the limiter's window index refused it, and left the
    # clock there, so every later packet was refused as going back.
    x = Xtr(XtrConfig())
    before = x.metrics.as_row()
    with pytest.raises(ValueError, match="^cache time must be finite and not go back: 1000"):
        x.step(10**400, 1, 2, LEGIT)
    assert x.metrics.as_row() == before
    assert fate(x, 1.0, 1, 3) == "map_requests_sent"


def test_an_int_time_past_the_largest_float_in_run_moves_no_reply_or_expiry():
    # run once tested only `now == inf`, so such a time delivered every reply
    # in flight and expired every pending request before anything refused it.
    times = [0.0, 0.0, 0.0, 10**400]
    x, alone = (Xtr(XtrConfig(reply_loss=0.5), seed=1) for _ in range(2))
    for t, dst in zip(times[:3], (3, 4, 5)):
        alone.step(t, 1, dst, LEGIT)
    with pytest.raises(ValueError, match="^packet time must be finite, got 1000"):
        x.run(Stream(times, [1] * 4, [3, 4, 5, 6], [LEGIT] * 4))
    assert x.metrics.as_row() == alone.metrics.as_row()
    assert x.metrics.packets_in.total == 3
    assert x.metrics.map_replies_received.total == x.metrics.pending_timeouts.total == 0


def test_a_reply_at_a_time_the_clock_refuses_moves_nothing():
    # deliver_reply once consumed the request and counted the reply, and only
    # then did the cache's install refuse the time.
    for t in ("x", math.nan, math.inf, -1.0):
        x = Xtr(XtrConfig(record_cache_trace=True))
        x.step(0.0, 1, 3, "legit")
        entry = x.pending[3]
        before = x.metrics.as_row(), list(x.cache.trace)
        with pytest.raises(ValueError, match="^cache time must be finite and not go back"):
            x.deliver_reply(entry, t)
        assert (x.metrics.as_row(), x.cache.trace) == before and x.pending[3] is entry
        # A stale reply is refused too, before it is counted.
        x.pending.consume(entry)
        with pytest.raises(ValueError, match="^cache time must be finite and not go back"):
            x.deliver_reply(entry, t)
        assert x.metrics.stale_replies == 0
    x.deliver_reply(entry, 0.04)
    assert x.metrics.stale_replies == 1


def test_a_stream_whose_columns_differ_in_length_is_refused_before_anything_moves():
    # zip once dropped the packets past the shortest column without a word.
    for lengths, columns in (("3, 3, 2, 3", ([0.0, 0.5, 1.0], [1, 1, 1], [2, 3], [LEGIT] * 3)),
                             ("1, 1, 1, 0", ([0.0], [1], [2], []))):
        x = Xtr(XtrConfig())
        before = x.metrics.as_row()
        with pytest.raises(ValueError, match=rf"^stream columns must be of one length, got "
                                             rf"lengths \[{lengths}\]$"):
            x.run(Stream(*columns))
        assert x.metrics.as_row() == before and not x.pending and not x._reply_queue


def test_a_type_error_while_replies_move_is_raised_without_stepping_the_packet(monkeypatch):
    # run once handed any TypeError of its due test, and of the delivery and
    # expiry it guarded, to `step`, which moved counters, then re-raised it.
    x = Xtr(mk_config(reply_loss=0.999999), seed=0)
    x.step(*pkt(0.0, 1, 0xAA))

    def failing_expiry(now):
        raise TypeError("failing expiry")

    monkeypatch.setattr(x, "_expire_pending", failing_expiry)
    before = x.metrics.as_row()
    with pytest.raises(TypeError, match="^failing expiry$"):
        x.run(stream(pkt(1.0, 1, 0xAB)))
    assert x.metrics.as_row() == before


def test_an_address_outside_128_bits_is_refused_before_the_router_moves():
    # Masked, -1 and 2**129 - 1 would both hit the /128 of 2**128 - 1; a
    # float would pass the range check and fail only after counters moved.
    top = 2**128 - 1
    x = Xtr(mk_config(record_cache_trace=True), seed=0)
    x.run(stream(pkt(0.0, 1, top)))
    assert fate(x, *pkt(0.5, 1, top)) == "cache_hits"
    before = x.metrics.as_row(), list(x.cache.trace)
    for dst in (-1, 2**128, 2**129 - 1, 1.5):
        with pytest.raises(ValueError, match="^address .* is not an integer in the 128-bit range"):
            x.step(*pkt(1.0, 1, dst))
        assert (x.metrics.as_row(), x.cache.trace) == before
    # The refused packets at 1.0 did not move the cache's clock.
    assert fate(x, *pkt(0.6, 1, top)) == "cache_hits"


# ------------------------------------------------- timeouts, loss, staleness

def test_timeout_shorter_than_latency_makes_every_reply_stale():
    x = Xtr(mk_config(pending_timeout=0.01), seed=0)
    m = x.run(stream(pkt(0.0, 1, 0xB1), pkt(1.0, 1, 0xB2)))
    assert m.map_requests_sent.legit == 2
    assert m.pending_timeouts.legit == 2
    assert m.stale_replies == 2
    assert m.map_replies_received.legit == 0
    assert len(x.cache) == 0


def test_expired_prefix_can_be_rerequested():
    x = Xtr(mk_config(pending_timeout=0.01), seed=0)
    m = x.run(stream(pkt(0.0, 1, 0xB3), pkt(0.02, 1, 0xB3)))
    # The first entry expired at 0.01, so the second packet is a fresh
    # request rather than a pending-dedup suppression.
    assert m.map_requests_sent.legit == 2
    assert m.suppressed_while_pending.legit == 0


def test_a_reply_to_an_expired_request_is_stale_though_its_prefix_is_pending_again():
    x = Xtr(mk_config(pending_timeout=0.03), seed=0)
    p = EidPrefix.host(0xB4)
    x.step(*pkt(0.0, 1, 0xB4))
    old = x.pending[0xB4]
    assert x.pending.expire_due(0.035) == [old]
    assert fate(x, *pkt(0.035, 1, 0xB4)) == "map_requests_sent"
    new = x.pending[0xB4]
    assert [entry for _, entry in x._reply_queue] == [old, new]
    x.deliver_reply(old, 0.04)
    assert (x.metrics.stale_replies, x.metrics.map_replies_received.legit) == (1, 0)
    assert x.pending[0xB4] is new and p not in x.cache
    x.deliver_reply(new, 0.05)
    assert (x.metrics.stale_replies, x.metrics.map_replies_received.legit) == (1, 1)
    assert p in x.cache and 0xB4 not in x.pending
    # Through run: the first reply, due at 0.04, meets the request sent at
    # 0.035 (deadline 0.045) and is stale; that request then times out.
    x = Xtr(mk_config(pending_timeout=0.01), seed=0)
    m = x.run(stream(pkt(0.0, 1, 0xB4), pkt(0.035, 1, 0xB4)))
    assert (m.stale_replies, m.pending_timeouts.legit, m.map_replies_received.legit) == (2, 2, 0)


def test_reply_loss_is_deterministic_and_accounted():
    cfg = mk_config(reply_loss=0.5, pending_capacity=256)

    def run_once():
        x = Xtr(cfg, seed=11)
        m = x.run(stream(*(pkt(i * 1e-4, i, 0x500 + i) for i in range(100))))
        return x, m

    x1, m1 = run_once()
    _, m2 = run_once()
    assert m1.as_row() == m2.as_row()
    assert m1.map_requests_sent.legit == 100
    assert 0 < m1.map_replies_received.legit < 100
    # Every request ends consumed, timed out, or still pending.
    assert (m1.map_replies_received.legit + m1.pending_timeouts.legit
            + len(x1.pending)) == 100


@settings(max_examples=100, deadline=None)
@given(ticks=st.lists(st.integers(0, 12), min_size=1, max_size=40),
       latency=st.sampled_from([0.005, 0.01, 0.02, 0.04]),
       loss=st.sampled_from([0.0, 0.3]), seed=st.integers(0, 3))
def test_replies_install_in_send_order(ticks, latency, loss, seed):
    # Nondecreasing times with repeats, each packet to its own destination.
    packets = stream(*(pkt(tick / 100, 1, 0xD00 + i) for i, tick in enumerate(sorted(ticks))))
    x = Xtr(mk_config(cache_capacity=4, reply_latency=latency, reply_loss=loss,
                      record_cache_trace=True), seed=seed)
    sent = []
    step = x.step

    def recording_step(now, src, dst, role):
        requests = x.metrics.map_requests_sent.total
        step(now, src, dst, role)
        if x.metrics.map_requests_sent.total > requests:
            sent.append(str(EidPrefix.host(dst)))

    x.step = recording_step
    x.run(packets)
    installed = [line.split()[2] for line in x.cache.trace if " install " in line]
    assert sent == [str(EidPrefix.host(dst)) for dst in packets.dsts]
    kept = set(installed)  # lost replies install nothing
    assert installed == [prefix for prefix in sent if prefix in kept]
    if loss == 0.0:
        assert installed == sent


def test_config_validation_and_timeout_default():
    with pytest.raises(ValueError):
        XtrConfig(reply_loss=1.0)
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        for name in ("reply_latency", "dest_period", "pending_timeout", "age_interval"):
            with pytest.raises(ValueError, match=name):
                XtrConfig(**{name: bad})
    # The cache settings are checked under lru too, which never reads the aging ones.
    for name, bad in (("cache_capacity", 0), ("pending_capacity", 0), ("dest_budget", -1),
                      ("cache_policy", "lfu"), ("age_mode", "decay")):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            XtrConfig(**{name: bad})
    with pytest.raises(TypeError, match="unexpected keyword argument 'dest_mode'$"):
        XtrConfig(dest_mode="per_prefix")
    assert XtrConfig(dest_budget=0).dest_budget == 0
    assert XtrConfig(reply_latency=0.05).effective_pending_timeout == pytest.approx(0.15)
    assert XtrConfig(pending_timeout=0.2).effective_pending_timeout == 0.2


def test_config_is_frozen_so_its_checks_cannot_be_skipped():
    # An assignment after __post_init__ would skip every check: reply_loss=2.0
    # once dropped every reply and reply_latency=-1.0 expired every request.
    cfg = XtrConfig()
    for name, value in (("reply_loss", 2.0), ("reply_latency", -1.0), ("cache_capacity", 0)):
        with pytest.raises(FrozenInstanceError):
            setattr(cfg, name, value)
    assert cfg == XtrConfig()
    with pytest.raises(ValueError, match="^reply_loss must be in"):
        replace(cfg, reply_loss=2.0)


# ---------------------------------------------------------------- metrics

def test_metrics_row_and_ratios():
    m = XtrMetrics()
    m.packets_in.legit = 4
    m.cache_hits.legit = 3
    m.map_requests_sent.attacker = 2
    m.dropped_by_source_limiter.attacker = 6
    row = m.as_row()
    assert row["packets_in_total"] == 4
    assert row["packets_in_legit"] == 4
    assert row["packets_in_attacker"] == 0
    assert row["map_requests_sent_attacker"] == 2
    assert row["stale_replies"] == 0
    assert m.admission_ratio(ATTACKER) == pytest.approx(0.25)
    assert m.admission_ratio(LEGIT) == 1.0  # nothing asked for admission
    assert m.hit_rate(LEGIT) == pytest.approx(0.75)
    assert m.hit_rate(ATTACKER) == 0.0


def test_accounting_identities_on_a_mixed_stream():
    profile = PopulationProfile(30, 0.2, attacker_miss_range=(20, 40), seed=5)
    events = gen_dos_stream(profile, duration=0.5)
    cfg = XtrConfig(cache_capacity=16, source_limiter_enabled=True,
                    limiter=LimiterConfig(threshold=10, period=0.2),
                    dest_budget=150, dest_period=0.25,
                    pending_capacity=32, reply_latency=0.01)
    x = Xtr(cfg, seed=3)
    m = x.run(events)

    for name in ROLES:
        assert getattr(m.packets_in, name) == \
            getattr(m.cache_hits, name) + getattr(m.cache_misses, name)
        assert getattr(m.cache_misses, name) == (
            getattr(m.map_requests_sent, name)
            + getattr(m.suppressed_while_pending, name)
            + getattr(m.dropped_by_source_limiter, name)
            + getattr(m.dropped_by_dest_limiter, name)
            + getattr(m.nonce_table_overflows, name))

    # Reply latency is well under the timeout and loss is off, so every
    # request resolves to exactly one consumed reply and one install.
    assert m.pending_timeouts.total == 0
    assert m.stale_replies == 0
    assert len(x.pending) == 0
    assert m.map_replies_received.total == m.map_requests_sent.total
    assert len(x.cache) <= 16
    assert len(x.cache) + m.evictions.total == m.map_replies_received.total

    # The audit ledger never exceeds the per-window cap while the limiter is on.
    assert max(x.admitted_by_source_period.values()) <= 10


def test_the_audit_books_admissions_under_the_limiter_window():
    # At period 0.1 the limiter and the audit both open window 4 at 0.4.
    x = Xtr(mk_config(source_limiter_enabled=True,
                      limiter=LimiterConfig(threshold=2, period=0.1)))
    for i, t in enumerate((0.35, 0.35, 0.4, 0.4, 0.4)):
        x.step(*pkt(t, 5, 100 + i))
    assert dict(x.admitted_by_source_period) == {(5, 3): 2, (5, 4): 2}
    assert x.metrics.dropped_by_source_limiter.total == 1


@st.composite
def boundary_sends(draw):
    """A limiter period whose products k * period are inexact, and sorted send
    times at those products and at their float neighbours."""
    period = draw(st.sampled_from([0.1, 1 / 3, 0.7]))
    times = [max(0.0, math.nextafter(k * period, k * period + side) if side else k * period)
             for k, side in draw(st.lists(st.tuples(st.integers(0, 300), st.sampled_from([-1, 0, 1])),
                                          min_size=1, max_size=40))]
    return period, sorted(times)


@settings(deadline=None)
@given(case=boundary_sends())
def test_every_admission_is_booked_under_the_floor_of_its_time_over_the_period(case):
    # Each packet has its own source, so each ledger key names one admission.
    period, times = case
    x = Xtr(mk_config(limiter=LimiterConfig(period=period)))
    x.run(Stream(times, list(range(len(times))), [0x900 + i for i in range(len(times))],
                 [LEGIT] * len(times)))
    assert x.metrics.map_requests_sent.total == len(times)
    assert dict(x.admitted_by_source_period) == {
        (src, int(t // period)): 1 for src, t in enumerate(times)}


def reference_run(x: Xtr, packets: Stream) -> XtrMetrics:
    """`Xtr.run` as a plain loop: deliver due replies, expire, then step, every packet.

    Before each reply it calls the expiry at the reply's time, whether or not
    anything is due. After every step it checks that no pending address's /128
    is cached, which is why a reply never meets its prefix already installed.
    """
    def deliver_due(upto: float) -> None:
        while x._reply_queue and x._reply_queue[0][0] <= upto:
            reply_time, entry = x._reply_queue.popleft()
            x._expire_pending(reply_time)
            x.deliver_reply(entry, reply_time)

    for now, src, dst, role in zip(packets.times, packets.srcs, packets.dsts, packets.roles):
        deliver_due(now)
        x._expire_pending(now)
        x.step(now, src, dst, role)
        assert not any(EidPrefix.host(address) in x.cache for address in x.pending)
    deliver_due(float("inf"))
    return x.metrics


@st.composite
def router_streams(draw):
    """A config with a tiny pending table and a stream with repeated timestamps."""
    latency = draw(st.sampled_from([0.01, 0.02, 0.04]))
    timeout = draw(st.sampled_from([latency / 2, latency, 1.5 * latency, 4 * latency]))
    config = mk_config(cache_capacity=draw(st.integers(1, 4)),
                       cache_policy=draw(st.sampled_from(["lru", "lfu-aging"])),
                       age_interval=0.05,
                       source_limiter_enabled=draw(st.booleans()),
                       limiter=LimiterConfig(threshold=draw(st.integers(1, 4)), period=0.1),
                       dest_budget=draw(st.sampled_from([3, 10**9])), dest_period=0.1,
                       pending_capacity=draw(st.integers(1, 4)), reply_latency=latency,
                       pending_timeout=timeout, reply_loss=draw(st.sampled_from([0.0, 0.3])),
                       record_cache_trace=True)
    packet = st.tuples(st.integers(0, 30), st.integers(1, 3), st.integers(0, 6), st.booleans())
    rows = sorted(draw(st.lists(packet, min_size=1, max_size=60)))
    packets = stream(*(pkt(tick / 100, src, 0xD00 + dst, "attacker" if attacker else "legit")
                       for tick, src, dst, attacker in rows))
    return config, packets, draw(st.integers(0, 3))


@settings(max_examples=200, deadline=None)
@given(case=router_streams())
def test_run_matches_the_deliver_expire_step_loop(case):
    config, packets, seed = case
    fast, slow = Xtr(config, seed=seed), Xtr(config, seed=seed)
    fast.run(packets)
    reference_run(slow, packets)
    assert fast.metrics.as_row() == slow.metrics.as_row()
    assert fast.cache.trace == slow.cache.trace
    assert fast.admitted_by_source_period == slow.admitted_by_source_period


def test_every_expire_due_call_removes_a_request(monkeypatch):
    results = []
    expire_due = PendingRequestTable.expire_due

    def recording(self, now):
        results.append(expire_due(self, now))
        return results[-1]

    monkeypatch.setattr(PendingRequestTable, "expire_due", recording)
    monkeypatch.delattr(os, "fork")  # both arms in this process, where the calls are seen
    run_attack(dos_defaults(), seeds=(1,))
    run_attack(overflow_defaults(), seeds=(1,))
    assert results == []  # every request of these runs is answered in time
    # Lost replies leave requests to time out, between packets and between
    # replies (the timeout undercuts the latency).
    profile = PopulationProfile(30, 0.2, attacker_miss_range=(20, 40), seed=5)
    x = Xtr(mk_config(reply_loss=0.3, pending_timeout=0.02), seed=2)
    metrics = x.run(gen_dos_stream(profile, duration=0.5))
    assert all(results)
    assert sum(map(len, results)) == metrics.pending_timeouts.total > 0
