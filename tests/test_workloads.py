"""Generated traffic: population draws, miss floods, scans, trace round-trips."""

from __future__ import annotations

import collections

import numpy as np
import pytest

from xtrsim.workloads import (
    BACKGROUND_DST_BASE,
    BACKGROUND_SRC_BASE,
    NEGATIVE_DST_BASE,
    NONPOPULAR_DST_BASE,
    POPULAR_DST_BASE,
    SCAN_DST_BASE,
    SCANNER_SRC,
    UNALLOCATED_DST_BASE,
    BackgroundProfile,
    PacketEvent,
    PopulationProfile,
    Role,
    ScanProfile,
    gen_dos_stream,
    gen_miss_counts,
    gen_scan_stream,
    read_trace,
    scan_prefixes,
    write_trace,
    zipf_probabilities,
)

# Background sized so round(rate * duration) == 0: scanner-only stream.
NO_BACKGROUND = BackgroundProfile(n_users=1, n_destinations=1,
                                  packet_rate=0.1, duration=1.0)


def as_tuples(events):
    return [(e.time, e.src, e.dst, e.role) for e in events]


# ------------------------------------------------------------- populations

def test_population_attacker_count_rounds():
    assert PopulationProfile(50_000, 0.01).n_attackers == 500
    assert PopulationProfile(50_000, 0.10).n_attackers == 5000
    assert PopulationProfile(100, 0.0).n_attackers == 0


def test_population_validation():
    with pytest.raises(ValueError):
        PopulationProfile(0, 0.1)
    with pytest.raises(ValueError):
        PopulationProfile(10, -0.1)
    with pytest.raises(ValueError):
        PopulationProfile(10, 1.5)
    with pytest.raises(ValueError):
        PopulationProfile(10, 0.1, legit_miss_range=(0, 5))
    with pytest.raises(ValueError):
        PopulationProfile(10, 0.1, attacker_miss_range=(9, 3))


def test_miss_counts_respect_role_ranges():
    profile = PopulationProfile(2000, 0.1, seed=7)
    draw = gen_miss_counts(profile)
    assert len(draw.sources) == 2000
    assert int(draw.attacker_mask.sum()) == 200
    attackers = draw.counts[draw.attacker_mask]
    legit = draw.counts[~draw.attacker_mask]
    assert attackers.min() >= 1000 and attackers.max() <= 10000
    assert legit.min() >= 1 and legit.max() <= 10


def test_miss_count_ranges_are_inclusive():
    profile = PopulationProfile(500, 0.5, seed=1,
                                legit_miss_range=(3, 3),
                                attacker_miss_range=(7, 7))
    draw = gen_miss_counts(profile)
    assert set(draw.counts[draw.attacker_mask]) == {7}
    assert set(draw.counts[~draw.attacker_mask]) == {3}


def test_miss_counts_deterministic_per_seed():
    a = gen_miss_counts(PopulationProfile(300, 0.1, seed=42))
    b = gen_miss_counts(PopulationProfile(300, 0.1, seed=42))
    c = gen_miss_counts(PopulationProfile(300, 0.1, seed=43))
    assert np.array_equal(a.counts, b.counts)
    assert np.array_equal(a.attacker_mask, b.attacker_mask)
    assert not np.array_equal(a.counts, c.counts)


# --------------------------------------------------------------- dos stream

DOS_PROFILE = PopulationProfile(20, 0.2, legit_miss_range=(1, 10),
                                attacker_miss_range=(50, 100), seed=3)


def test_dos_stream_emits_exactly_the_drawn_counts():
    draw = gen_miss_counts(DOS_PROFILE)
    events = gen_dos_stream(DOS_PROFILE)
    assert len(events) == int(draw.counts.sum())
    per_source = collections.Counter(e.src for e in events)
    for source, count in zip(draw.sources, draw.counts):
        assert per_source[int(source)] == count
    for e in events:
        assert (e.role is Role.ATTACKER) == bool(draw.attacker_mask[e.src])


def test_dos_attacker_destinations_are_all_fresh():
    for strategy, first in (("unallocated", UNALLOCATED_DST_BASE),
                            ("non_popular", NONPOPULAR_DST_BASE + 8)):
        events = gen_dos_stream(DOS_PROFILE, strategy, popular_pool=8)
        attacker_dsts = [e.dst for e in events if e.role is Role.ATTACKER]
        assert len(set(attacker_dsts)) == len(attacker_dsts)
        assert min(attacker_dsts) == first


def test_dos_legit_traffic_stays_in_popular_pool():
    events = gen_dos_stream(DOS_PROFILE, popular_pool=8)
    legit_dsts = {e.dst for e in events if e.role is Role.LEGIT}
    assert legit_dsts <= {POPULAR_DST_BASE + i for i in range(8)}


def test_dos_stream_is_time_sorted_within_duration():
    events = gen_dos_stream(DOS_PROFILE, duration=2.5)
    times = [e.time for e in events]
    assert times == sorted(times)
    assert 0.0 <= times[0] and times[-1] < 2.5


def test_dos_burst_front_loads_attackers_only():
    events = gen_dos_stream(DOS_PROFILE, duration=1.0, attacker_timing="burst")
    attacker_times = [e.time for e in events if e.role is Role.ATTACKER]
    legit_times = [e.time for e in events if e.role is Role.LEGIT]
    assert max(attacker_times) <= 0.1
    assert max(legit_times) > 0.1


def test_dos_strategy_selects_address_corner():
    neg = gen_dos_stream(DOS_PROFILE, "negative_prefixes")
    assert all(e.dst >= NEGATIVE_DST_BASE for e in neg if e.role is Role.ATTACKER)
    non_pop = gen_dos_stream(DOS_PROFILE, "non_popular", popular_pool=8)
    dsts = [e.dst for e in non_pop if e.role is Role.ATTACKER]
    assert all(d >= NONPOPULAR_DST_BASE + 8 for d in dsts)


def test_dos_stream_validation_and_determinism():
    with pytest.raises(ValueError):
        gen_dos_stream(DOS_PROFILE, "popular")
    with pytest.raises(ValueError):
        gen_dos_stream(DOS_PROFILE, attacker_timing="ramp")
    assert as_tuples(gen_dos_stream(DOS_PROFILE)) == as_tuples(gen_dos_stream(DOS_PROFILE))


# -------------------------------------------------------------- scan stream

def test_scan_prefixes_are_contiguous_hosts():
    prefixes = scan_prefixes(5)
    assert [p.address for p in prefixes] == [SCAN_DST_BASE + i for i in range(5)]
    assert all(p.prefix_len == 128 for p in prefixes)


def test_zipf_probabilities_shape():
    p = zipf_probabilities(100, 1.0)
    assert p.shape == (100,)
    assert p.sum() == pytest.approx(1.0)
    assert np.all(np.diff(p) < 0)
    uniform = zipf_probabilities(10, 0.0)
    assert np.allclose(uniform, 0.1)


def test_scan_sweep_covers_every_prefix_each_pass():
    scan = ScanProfile(scan_prefixes(5), packet_rate=10.0, duration=1.0, seed=2)
    events = gen_scan_stream(scan, NO_BACKGROUND)
    assert len(events) == 10
    assert [e.time for e in events] == [i / 10.0 for i in range(10)]
    assert all(e.src == SCANNER_SRC and e.role is Role.ATTACKER for e in events)
    want = {p.address for p in scan.prefix_list}
    assert {e.dst for e in events[:5]} == want
    assert {e.dst for e in events[5:]} == want


def test_scan_partial_final_pass_has_no_repeats():
    scan = ScanProfile(scan_prefixes(5), packet_rate=7.0, duration=1.0, seed=2)
    events = gen_scan_stream(scan, NO_BACKGROUND)
    assert len(events) == 7
    tail = [e.dst for e in events[5:]]
    assert len(set(tail)) == 2


def test_scan_reshuffle_toggle():
    fixed = ScanProfile(scan_prefixes(6), packet_rate=12.0, duration=1.0,
                        reshuffle_each_pass=False, seed=0)
    events = gen_scan_stream(fixed, NO_BACKGROUND)
    assert [e.dst for e in events[:6]] == [e.dst for e in events[6:]]
    shuffled = ScanProfile(scan_prefixes(6), packet_rate=12.0, duration=1.0,
                           reshuffle_each_pass=True, seed=0)
    events = gen_scan_stream(shuffled, NO_BACKGROUND)
    assert [e.dst for e in events[:6]] != [e.dst for e in events[6:]]


def test_background_traffic_shape_and_popularity():
    bg = BackgroundProfile(n_users=4, n_destinations=30, zipf_exponent=1.5,
                           packet_rate=500.0, duration=1.0, seed=9)
    scan = ScanProfile(scan_prefixes(3), packet_rate=3.0, duration=1.0, seed=1)
    events = gen_scan_stream(scan, bg)
    legit = [e for e in events if e.role is Role.LEGIT]
    assert len(legit) == 4 * 500
    assert {e.src for e in legit} == {BACKGROUND_SRC_BASE + u for u in range(4)}
    assert all(BACKGROUND_DST_BASE <= e.dst < BACKGROUND_DST_BASE + 30 for e in legit)
    popularity = collections.Counter(e.dst for e in legit)
    assert popularity.most_common(1)[0][0] == BACKGROUND_DST_BASE
    times = [e.time for e in events]
    assert times == sorted(times)


def test_scan_profile_validation():
    with pytest.raises(ValueError):
        ScanProfile((), packet_rate=1.0, duration=1.0)
    with pytest.raises(ValueError):
        ScanProfile(scan_prefixes(2), packet_rate=0.0, duration=1.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            ScanProfile(scan_prefixes(2), packet_rate=bad, duration=1.0)
        with pytest.raises(ValueError):
            ScanProfile(scan_prefixes(2), packet_rate=1.0, duration=bad)
        with pytest.raises(ValueError):
            BackgroundProfile(n_users=1, n_destinations=5, packet_rate=bad)
    # Each finite, but the packet total is not.
    with pytest.raises(ValueError, match="product"):
        ScanProfile(scan_prefixes(2), packet_rate=400.0, duration=1e307)
    with pytest.raises(ValueError, match="product"):
        BackgroundProfile(n_users=1, n_destinations=5, packet_rate=1e308, duration=20.0)
    with pytest.raises(ValueError):
        BackgroundProfile(n_users=0, n_destinations=5)
    with pytest.raises(ValueError):
        BackgroundProfile(n_users=1, n_destinations=5, zipf_exponent=-1.0)


# ------------------------------------------------------------------- traces

def test_trace_round_trip_is_exact():
    events = gen_dos_stream(DOS_PROFILE)[:200]
    text = write_trace(events)
    back = read_trace(text)
    assert as_tuples(back) == as_tuples(events)


def test_trace_format_is_one_line_per_event():
    line = write_trace([PacketEvent(0.25, 0x1, 0xAB << 120, Role.ATTACKER)])
    assert line == f"0.25 0x1 {0xAB << 120:#x} attacker\n"


def test_trace_reader_skips_comments_and_blanks():
    text = "# header\n\n0.5 0x2 0x30 legit\n   \n"
    events = read_trace(text)
    assert as_tuples(events) == [(0.5, 0x2, 0x30, Role.LEGIT)]


def test_trace_reader_rejects_malformed_lines():
    with pytest.raises(ValueError, match="line 2"):
        read_trace("0.5 0x2 0x30 legit\n0.6 0x2 0x30\n")
    with pytest.raises(ValueError):
        read_trace("0.5 0x2 0x30 eavesdropper\n")
