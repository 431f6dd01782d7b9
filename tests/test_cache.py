"""Map-cache behavior: longest-prefix match, eviction order, lazy aging."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xtrsim.cache import (
    ADDRESS_BITS,
    DuplicateInstall,
    EidPrefix,
    MapCache,
    PolicyMismatch,
)

from cache_reference import ReferenceCache

A = EidPrefix.host(0xA)
B = EidPrefix.host(0xB)
C = EidPrefix.host(0xC)


def impl_state(cache: MapCache):
    return sorted((str(e.prefix), e.hit_count, e.last_used, e.installed_at)
                  for e in cache.entries())


# ---------------------------------------------------------------- EidPrefix

def test_prefix_rejects_host_bits_below_boundary():
    with pytest.raises(ValueError):
        EidPrefix(0x1, 120)  # bit 0 sits below the /120 boundary


def test_prefix_of_masks_host_bits():
    p = EidPrefix.of(0xAB00_0000_0000_0000_0000_0000_0000_0001, 8)
    assert p.address == 0xAB << 120
    assert p.prefix_len == 8


def test_prefix_len_bounds():
    with pytest.raises(ValueError):
        EidPrefix(0, -1)
    with pytest.raises(ValueError):
        EidPrefix(0, ADDRESS_BITS + 1)
    with pytest.raises(ValueError):
        EidPrefix(1 << ADDRESS_BITS, ADDRESS_BITS)


def test_default_route_contains_everything():
    default = EidPrefix(0, 0)
    assert default.mask == 0
    assert default.contains(0)
    assert default.contains((1 << ADDRESS_BITS) - 1)


def test_host_prefix_contains_only_itself():
    p = EidPrefix.host(0xDEAD)
    assert p.contains(0xDEAD)
    assert not p.contains(0xDEAE)


def test_str_parse_round_trip():
    for p in (EidPrefix(0, 0), EidPrefix.host(0xBEEF), EidPrefix.of(0x77 << 120, 8)):
        assert EidPrefix.parse(str(p)) == p


def test_prefix_ordering_is_total():
    # Tie-break code relies on (address, prefix_len) tuple order.
    assert EidPrefix(0, 0) < EidPrefix(0, 128) < EidPrefix.host(1)


# --------------------------------------------------------- lookup semantics

def test_longest_prefix_wins():
    cache = MapCache(8)
    dst = (0xAB << 120) | 0x1234
    cache.install(EidPrefix(0, 0), (1,), 0.0)
    cache.install(EidPrefix.of(dst, 8), (2,), 0.0)
    cache.install(EidPrefix.host(dst), (3,), 0.0)
    assert cache.lookup(dst, 1.0) == (3,)
    assert cache.lookup((0xAB << 120) | 0x9999, 1.0) == (2,)
    assert cache.lookup(0xCD << 120, 1.0) == (1,)


def test_lookup_miss_returns_none_and_changes_nothing():
    cache = MapCache(2)
    cache.install(A, (1,), 0.0)
    before = impl_state(cache)
    assert cache.lookup(0xFFFF, 5.0) is None
    assert impl_state(cache) == before


def test_hit_updates_recency_and_count():
    cache = MapCache(2)
    cache.install(A, (1,), 0.0)
    cache.lookup(0xA, 3.0)
    cache.lookup(0xA, 7.0)
    entry = cache.get(A)
    assert entry.hit_count == 2
    assert entry.last_used == 7.0
    assert entry.installed_at == 0.0


def test_new_installs_start_with_zero_hits():
    cache = MapCache(2)
    cache.install(A, (1,), 4.5)
    entry = cache.get(A)
    assert entry.hit_count == 0
    assert entry.last_used == 4.5


# ----------------------------------------------------------------- eviction

def test_lru_evicts_least_recently_used():
    cache = MapCache(2, policy="lru")
    cache.install(A, (1,), 0.0)
    cache.install(B, (2,), 1.0)
    cache.lookup(0xA, 2.0)  # A is now fresher than B
    assert cache.install(C, (3,), 3.0) == B
    assert A in cache and C in cache and B not in cache


def test_lru_install_counts_as_use():
    cache = MapCache(2, policy="lru")
    cache.install(A, (1,), 0.0)
    cache.lookup(0xA, 1.0)
    cache.install(B, (2,), 2.0)  # B installed after A's last hit
    assert cache.install(C, (3,), 3.0) == A


def test_lru_tie_breaks_are_deterministic():
    # Same last_used and installed_at: the smaller prefix goes first.
    cache = MapCache(2, policy="lru")
    cache.install(B, (2,), 0.0)
    cache.install(A, (1,), 0.0)
    assert cache.install(C, (3,), 0.0) == A


def test_lfu_evicts_fewest_hits():
    cache = MapCache(2, policy="lfu-aging", age_interval=1e9)
    cache.install(A, (1,), 0.0)
    cache.install(B, (2,), 0.0)
    for t in (0.1, 0.2, 0.3):
        cache.lookup(0xA, t)
    cache.lookup(0xB, 0.4)
    assert cache.install(C, (3,), 0.5) == B


def test_eviction_result_is_none_below_capacity():
    cache = MapCache(2)
    assert cache.install(A, (1,), 0.0) is None
    assert cache.install(B, (2,), 0.0) is None


# ------------------------------------------------------------------- aging

def test_aging_demotes_old_heavy_hitter():
    # A earns 8 hits in the first interval, B earns 5 in the second. By the
    # time C arrives A's count has been halved to 4, so A is the victim even
    # though its lifetime total is higher.
    cache = MapCache(2, policy="lfu-aging", age_interval=1.0)
    cache.install(A, (1,), 0.0)
    cache.install(B, (2,), 0.0)
    for i in range(8):
        cache.lookup(0xA, 0.05 + i * 0.1)
    for i in range(5):
        cache.lookup(0xB, 1.05 + i * 0.1)
    assert cache.install(C, (3,), 1.8) == A
    assert cache.get(B).hit_count == 5


def test_halving_uses_integer_floor():
    cache = MapCache(2, policy="lfu-aging", age_interval=1.0)
    cache.install(A, (1,), 0.0)
    for i in range(7):
        cache.lookup(0xA, 0.01 + i * 0.01)
    for t, want in ((1.0, 3), (2.0, 1), (3.0, 0)):
        cache.age(t)
        assert cache.get(A).hit_count == want


def test_catch_up_covers_multiple_elapsed_intervals():
    cache = MapCache(2, policy="lfu-aging", age_interval=1.0)
    cache.install(A, (1,), 0.0)
    for i in range(7):
        cache.lookup(0xA, 0.01 + i * 0.01)
    cache.age(2.9)  # two full intervals elapsed, not three
    assert cache.get(A).hit_count == 7 >> 2


def test_zero_mode_clears_counts():
    cache = MapCache(2, policy="lfu-aging", age_interval=0.5, age_mode="zero")
    cache.install(A, (1,), 0.0)
    for i in range(4):
        cache.lookup(0xA, 0.01 + i * 0.01)
    cache.age(0.5)
    assert cache.get(A).hit_count == 0


def test_pure_miss_lookup_does_not_trigger_aging():
    cache = MapCache(2, policy="lfu-aging", age_interval=1.0)
    cache.install(A, (1,), 0.0)
    cache.lookup(0xA, 0.1)
    cache.lookup(0xA, 0.2)
    cache.lookup(0xFFFF, 5.0)  # miss, several intervals later
    assert cache.get(A).hit_count == 2
    cache.install(B, (2,), 5.0)  # state change catches up: 2 >> 5 == 0
    assert cache.get(A).hit_count == 0


# ------------------------------------------------------------------- errors

def test_duplicate_install_raises():
    cache = MapCache(2)
    cache.install(A, (1,), 0.0)
    with pytest.raises(DuplicateInstall):
        cache.install(A, (9,), 1.0)


def test_age_on_lru_cache_raises():
    cache = MapCache(2, policy="lru")
    with pytest.raises(PolicyMismatch):
        cache.age(1.0)


def test_constructor_validation():
    with pytest.raises(ValueError):
        MapCache(0)
    with pytest.raises(ValueError):
        MapCache(2, policy="fifo")
    with pytest.raises(ValueError):
        MapCache(2, policy="lfu-aging")  # interval required
    with pytest.raises(ValueError):
        MapCache(2, policy="lfu-aging", age_interval=1.0, age_mode="decay")


def test_empty_locators_rejected():
    cache = MapCache(2)
    with pytest.raises(ValueError):
        cache.install(A, (), 0.0)


# -------------------------------------------------------------------- trace

def test_trace_records_operations_verbatim():
    cache = MapCache(2, policy="lru", record_trace=True)
    cache.install(A, (1,), 0.0)
    cache.lookup(0xA, 0.5)
    cache.lookup(0xB, 0.75)
    cache.install(B, (2,), 1.0)
    cache.install(C, (3,), 2.0)
    assert cache.trace == [
        "0.0 install 0xa/128 installed -",
        "0.5 lookup 0xa hit -",
        "0.75 lookup 0xb miss -",
        "1.0 install 0xb/128 installed -",
        "2.0 install 0xc/128 installed 0xa/128",
    ]


def test_trace_records_age_marker():
    cache = MapCache(2, policy="lfu-aging", age_interval=1.0, record_trace=True)
    cache.age(3.0)
    assert cache.trace == ["3.0 age - aged -"]


# ---------------------------------------------- equivalence with reference

EQUIV_CONFIGS = (
    dict(policy="lru"),
    dict(policy="lfu-aging", age_interval=1.0, age_mode="halve"),
    dict(policy="lfu-aging", age_interval=0.5, age_mode="zero"),
)


def drive_pair(cache: MapCache, ref: ReferenceCache, rng: random.Random,
               ops: int) -> None:
    now = 0.0
    pool: list[EidPrefix] = []
    next_addr = 1
    for _ in range(ops):
        now += rng.random() * 0.7
        roll = rng.random()
        if roll < 0.45 and pool:
            target = rng.choice(pool)
            host_bits = ADDRESS_BITS - target.prefix_len
            dst = target.address | rng.getrandbits(host_bits)
            assert cache.lookup(dst, now) == ref.lookup(dst, now)
        elif roll < 0.55:
            dst = rng.getrandbits(ADDRESS_BITS)
            assert cache.lookup(dst, now) == ref.lookup(dst, now)
        elif roll < 0.65 and cache.policy == "lfu-aging":
            cache.age(now)
            ref.age(now)
        else:
            if pool and rng.random() < 0.4:
                parent = rng.choice(pool)
                plen = min(parent.prefix_len + 16, ADDRESS_BITS)
                extra = rng.getrandbits(plen - parent.prefix_len) if plen > parent.prefix_len else 0
                addr = parent.address | (extra << (ADDRESS_BITS - plen))
                prefix = EidPrefix.of(addr, plen)
            else:
                plen = rng.choice((96, 112, 128))
                prefix = EidPrefix(next_addr << (ADDRESS_BITS - plen), plen)
                next_addr += 1
            if prefix in cache:
                continue
            locators = (rng.randint(1, 99),)
            assert cache.install(prefix, locators, now) == ref.install(prefix, locators, now)
            pool.append(prefix)
        assert impl_state(cache) == ref.state()


def test_random_traces_match_brute_force_reference():
    for seed in range(12):
        rng = random.Random(9100 + seed)
        cfg = EQUIV_CONFIGS[seed % len(EQUIV_CONFIGS)]
        capacity = rng.randint(1, 4)
        cache = MapCache(capacity, **cfg)
        ref = ReferenceCache(capacity, **cfg)
        drive_pair(cache, ref, rng, ops=400)


# Structured addresses (a, b, c) and prefix lengths whose prefixes nest: a /32
# holds the /112s that share its a, which hold the /128s that share their b.
address_parts = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
cache_ops = st.tuples(
    st.sampled_from([0.0, 0.0, 0.0, 0.05, 0.3, 0.6]),  # time step, often 0
    st.sampled_from(["install", "install", "hits", "stray", "age"]),
    address_parts,
    st.sampled_from([0, 32, 112, 128, 128]),
    st.integers(0, 63),  # which installed prefix a burst of hits targets
)


def structured_address(a: int, b: int, c: int) -> int:
    return (a << 96) | (b << 16) | c


@settings(deadline=None)
@given(capacity=st.integers(1, 16), cfg=st.sampled_from(EQUIV_CONFIGS),
       ops=st.lists(cache_ops, min_size=20, max_size=150))
def test_equal_time_ties_match_brute_force_reference(capacity, cfg, ops):
    # Many entries share last_used and installed_at here, so the eviction
    # order rests on its tie-breaks, where a stale heap key would show.
    cache = MapCache(capacity, **cfg)
    ref = ReferenceCache(capacity, **cfg)
    installed: list[EidPrefix] = []
    now = 0.0
    for step, kind, parts, plen, pick in ops:
        now += step
        dst = structured_address(*parts)
        if kind == "install":
            prefix = EidPrefix.of(dst, plen)
            if prefix in cache:
                for either in (cache, ref):
                    with pytest.raises(DuplicateInstall):
                        either.install(prefix, (1,), now)
                continue
            locators = (parts[2] + 1,)
            assert cache.install(prefix, locators, now) == ref.install(prefix, locators, now)
            installed.append(prefix)
        elif kind == "hits" and installed:
            # A burst of 1-4 lookups of the first address of a prefix
            # installed earlier, evicted or not; a longer prefix may match.
            target = installed[pick % len(installed)].address
            for _ in range(pick % 4 + 1):
                assert cache.lookup(target, now) == ref.lookup(target, now)
        elif kind == "stray":  # off the grid: a miss unless a /0 or /32 holds it
            assert cache.lookup(dst | 1 << 80, now) == ref.lookup(dst | 1 << 80, now)
        elif kind == "age" and cache.policy == "lfu-aging":
            cache.age(now)
            ref.age(now)
        assert impl_state(cache) == ref.state()


def test_earlier_time_is_rejected_and_changes_nothing():
    cache = MapCache(2, policy="lfu-aging", age_interval=1.0, record_trace=True)
    cache.install(A, (1,), 0.0)
    cache.install(B, (2,), 0.5)
    cache.lookup(0xA, 3.0)
    before = (impl_state(cache), list(cache.trace))
    for earlier in (2.5, float("nan")):
        for call in (lambda: cache.lookup(0xA, earlier), lambda: cache.lookup(0xF, earlier),
                     lambda: cache.install(C, (3,), earlier), lambda: cache.age(earlier)):
            with pytest.raises(ValueError):
                call()
            assert (impl_state(cache), cache.trace) == before
    assert cache.install(C, (3,), 3.0) == B  # the same time is not earlier
