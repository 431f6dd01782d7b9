"""Map-cache behavior: longest-prefix match, eviction order, lazy aging."""

from __future__ import annotations

import copy
import pickle
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xtrsim.cache import ADDRESS_BITS, EidPrefix, MapCache

from cache_reference import ReferenceCache

A = EidPrefix.host(0xA)
B = EidPrefix.host(0xB)
C = EidPrefix.host(0xC)


def impl_state(cache: MapCache):
    return sorted((str(e.prefix), e.hit_count, e.last_used, e.installed_at)
                  for e in cache.entries())


def assert_same_entries(cache: MapCache, ref: ReferenceCache, asked) -> None:
    """`len`, `in`, `get` and `entries()` read the reference's records, for
    each prefix the reference holds and each in `asked`, cached or not."""
    held = {r.prefix: (r.locators, r.hits, r.last_used, r.installed_at) for r in ref.records}
    assert len(cache) == len(held)
    assert sorted(e.prefix for e in cache.entries()) == sorted(held)
    for prefix in {*asked, *held}:
        entry = cache.get(prefix)
        assert (prefix in cache) is (prefix in held) is (entry is not None)
        if entry is not None:
            assert entry.prefix == prefix
            assert (entry.locators, entry.hit_count, entry.last_used,
                    entry.installed_at) == held[prefix]


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


def test_prefix_ordering_is_total():
    # Tie-break code relies on (address, prefix_len) tuple order.
    assert EidPrefix(0, 0) < EidPrefix(0, 128) < EidPrefix.host(1)


def test_prefix_contract():
    p = EidPrefix.of(0xAB << 120 | 0x55, 8)
    assert repr(p) == f"EidPrefix(address={0xAB << 120}, prefix_len=8)"
    assert repr(EidPrefix.host(0x7B)) == "EidPrefix(address=123, prefix_len=128)"
    assert str(p) == "0xab000000000000000000000000000000/8"
    assert str(EidPrefix.host(0x7B)) == "0x7b/128"
    assert p.mask == 0xFF << 120 and EidPrefix.host(5).mask == (1 << ADDRESS_BITS) - 1
    assert p.contains(0xAB << 120 | 0xFFFF) and not p.contains(0xAC << 120)
    # Equal prefixes are equal and hash alike however they were built.
    assert EidPrefix.host(7) == EidPrefix(7, ADDRESS_BITS) == EidPrefix.of(7, ADDRESS_BITS)
    assert hash(EidPrefix.host(7)) == hash(EidPrefix(7, ADDRESS_BITS)) == hash((7, ADDRESS_BITS))
    assert EidPrefix.host(0) != EidPrefix(0, 0)
    assert len({EidPrefix.host(7), EidPrefix(7, ADDRESS_BITS), EidPrefix(0, 0)}) == 2
    # Ordered by address, then by length.
    prefixes = [EidPrefix.host(9), EidPrefix(0, 0), p, EidPrefix(0, 1), EidPrefix.host(0)]
    assert sorted(prefixes) == sorted(prefixes, key=lambda q: (q.address, q.prefix_len))
    assert sorted(prefixes)[:3] == [EidPrefix(0, 0), EidPrefix(0, 1), EidPrefix.host(0)]
    with pytest.raises(AttributeError):
        p.address = 0


def test_prefix_survives_copy_and_pickle():
    p = EidPrefix.of(0xAB << 120, 8)
    for clone in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert clone == p and type(clone) is EidPrefix and repr(clone) == repr(p)


@pytest.mark.parametrize("address", [-1, 1 << ADDRESS_BITS, 1.5, "7", None])
def test_host_rejects_what_the_constructor_rejects(address):
    with pytest.raises(ValueError):
        EidPrefix.host(address)
    with pytest.raises(ValueError):
        EidPrefix(address, ADDRESS_BITS)


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


def test_non_dyadic_aging_does_not_depend_on_earlier_calls():
    # 0.5 // 0.1 == 4, so by time 0.5 the cache has aged four times whatever
    # calls came before. Counting intervals from the last aging instead would
    # add 0.4 // 0.1 == 4 to the one at 0.1, five halvings in all.
    for ages in ([0.5], [0.1, 0.5]):
        cache = MapCache(1, policy="lfu-aging", age_interval=0.1)
        cache.install(A, (1,), 0.0)
        for _ in range(1024):
            cache.lookup(0xA, 0.0)
        for t in ages:
            cache.age(t)
        assert cache.get(A).hit_count == 1024 >> 4, ages


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
    with pytest.raises(ValueError, match=f"^{re.escape(str(A))} is already cached$"):
        cache.install(A, (9,), 1.0)


def test_age_on_lru_cache_raises():
    cache = MapCache(2, policy="lru")
    with pytest.raises(ValueError, match=r"^age\(\) on an lru cache$"):
        cache.age(1.0)


def test_constructor_validation():
    with pytest.raises(ValueError):
        MapCache(0)
    with pytest.raises(ValueError):
        MapCache(2, policy="fifo")
    with pytest.raises(ValueError):
        MapCache(2, policy="lfu-aging")  # interval required
    for interval in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="age_interval"):
            MapCache(2, policy="lfu-aging", age_interval=interval)
    with pytest.raises(ValueError):
        MapCache(2, policy="lfu-aging", age_interval=1.0, age_mode="decay")


def test_only_an_eid_prefix_is_installed_or_found():
    cache = MapCache(2, record_trace=True)
    cache.install(A, (1,), 1.0)
    before = (impl_state(cache), list(cache.trace))
    # A plain pair, even one equal to A or with bits below its length, is no
    # prefix: refused before the clock or any entry moves, and never found.
    for other in ((0xA, 128), (3, 7), 5, "x", None):
        with pytest.raises(ValueError, match="^prefix must be an EidPrefix, got "):
            cache.install(other, (1,), 2.0)
        assert (impl_state(cache), cache.trace) == before
        assert other not in cache and cache.get(other) is None
    assert cache.install(B, (2,), 1.5) is None and A in cache


def test_empty_locators_rejected():
    cache = MapCache(2, record_trace=True)
    cache.install(B, [2], 1.0)
    before = (impl_state(cache), list(cache.trace))
    # Refused before the clock or any entry moves: neither 2.0 nor A stays.
    for locators in ((), [], 5, None):
        with pytest.raises(ValueError, match="^locators must be a non-empty iterable$"):
            cache.install(A, locators, 2.0)
        assert (impl_state(cache), cache.trace) == before
    locators = (1, 3)
    assert cache.install(A, locators, 1.0) is None
    assert cache.get(A).locators is locators  # a tuple is taken as is


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
# A non-dyadic interval, where boundaries counted from the last aging drift
# from `now // age_interval`. Kept apart so the seeds above keep their configs.
NON_DYADIC_CONFIG = dict(policy="lfu-aging", age_interval=0.1, age_mode="halve")


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
        assert_same_entries(cache, ref, pool[-8:])


def test_random_traces_match_brute_force_reference():
    seeded = [(9100 + seed, EQUIV_CONFIGS[seed % len(EQUIV_CONFIGS)]) for seed in range(12)]
    seeded += [(9200 + seed, NON_DYADIC_CONFIG) for seed in range(4)]
    for seed, cfg in seeded:
        rng = random.Random(seed)
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
@given(capacity=st.integers(1, 16), cfg=st.sampled_from(EQUIV_CONFIGS + (NON_DYADIC_CONFIG,)),
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
                    with pytest.raises(ValueError, match="is already cached$"):
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
        # /64 is a length no op installs.
        assert_same_entries(cache, ref, [*installed, EidPrefix.of(dst, 64)])


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


# ------------------------------------------------------------- the index

# Installs whose eviction empties the length bucket of the prefix being
# installed, so the install must make that bucket anew.
EMPTYING_INSTALLS = {
    "capacity-1-two-128s": (1, [EidPrefix.host(1)], EidPrefix.host(2)),
    "capacity-2-a-64-and-a-128": (2, [EidPrefix(1 << 64, 64), EidPrefix.host(3)],
                                  EidPrefix(2 << 64, 64)),
}


@pytest.mark.parametrize("capacity, earlier, new", EMPTYING_INSTALLS.values(),
                         ids=EMPTYING_INSTALLS.keys())
@pytest.mark.parametrize("cfg", EQUIV_CONFIGS)
def test_an_eviction_that_empties_the_new_prefixs_bucket_keeps_the_install(
        capacity, earlier, new, cfg):
    cache, ref = MapCache(capacity, **cfg), ReferenceCache(capacity, **cfg)
    for t, prefix in enumerate([*earlier, new]):
        assert cache.install(prefix, (t,), float(t)) == ref.install(prefix, (t,), float(t))
    assert earlier[0] not in cache and new in cache
    assert_same_entries(cache, ref, [*earlier, new])
    assert cache.lookup(new.address, 9.0) == ref.lookup(new.address, 9.0) == (len(earlier),)
    assert_same_entries(cache, ref, [*earlier, new])


def test_get_and_in_for_a_length_the_cache_holds_no_entry_of():
    cache = MapCache(2)
    cache.install(EidPrefix(1 << 64, 64), (1,), 0.0)
    cache.install(A, (2,), 0.5)
    cache.install(B, (3,), 1.0)  # evicts the /64, the only entry of its length
    for prefix in (EidPrefix(1 << 64, 64), EidPrefix(1 << 64, 96), EidPrefix(0, 0),
                   EidPrefix.of(0xA, 112)):
        assert prefix not in cache and cache.get(prefix) is None
    assert A in cache and cache.get(B).locators == (3,)
    assert len(cache) == len(cache.entries()) == 2
