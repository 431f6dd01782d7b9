"""Generated traffic: population draws, miss floods, scans, trace round-trips."""

from __future__ import annotations

import collections
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stream_reference
from xtrsim import workloads
from xtrsim.workloads import (
    ATTACKER,
    ATTACKER_TIMINGS,
    BACKGROUND_DST_BASE,
    BACKGROUND_SRC_BASE,
    DOS_STRATEGY_BASES,
    LEGIT,
    NEGATIVE_DST_BASE,
    NONPOPULAR_DST_BASE,
    POPULAR_DST_BASE,
    ROLES,
    SCAN_DST_BASE,
    SCANNER_SRC,
    UNALLOCATED_DST_BASE,
    BackgroundProfile,
    PopulationProfile,
    ScanProfile,
    Stream,
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


def rows(stream):
    return list(zip(stream.times, stream.srcs, stream.dsts, stream.roles))


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
    stream = gen_dos_stream(DOS_PROFILE)
    assert len(stream) == int(draw.counts.sum())
    per_source = collections.Counter(stream.srcs)
    for source, count in zip(draw.sources, draw.counts):
        assert per_source[int(source)] == count
    for src, role in zip(stream.srcs, stream.roles):
        assert (role == ATTACKER) == bool(draw.attacker_mask[src])


def test_dos_attacker_destinations_are_all_fresh():
    for strategy, first in (("unallocated", UNALLOCATED_DST_BASE),
                            ("non_popular", NONPOPULAR_DST_BASE + 8)):
        stream = gen_dos_stream(DOS_PROFILE, strategy, popular_pool=8)
        attacker_dsts = [d for d, r in zip(stream.dsts, stream.roles) if r == "attacker"]
        assert len(set(attacker_dsts)) == len(attacker_dsts)
        assert min(attacker_dsts) == first


def test_dos_legit_traffic_stays_in_popular_pool():
    stream = gen_dos_stream(DOS_PROFILE, popular_pool=8)
    legit_dsts = {d for d, r in zip(stream.dsts, stream.roles) if r == "legit"}
    assert legit_dsts <= {POPULAR_DST_BASE + i for i in range(8)}


def test_dos_stream_is_time_sorted_within_duration():
    times = gen_dos_stream(DOS_PROFILE, duration=2.5).times
    assert times == sorted(times)
    assert 0.0 <= times[0] and times[-1] < 2.5


def test_dos_burst_front_loads_attackers_only():
    stream = gen_dos_stream(DOS_PROFILE, duration=1.0, attacker_timing="burst")
    attacker_times = [t for t, r in zip(stream.times, stream.roles) if r == "attacker"]
    legit_times = [t for t, r in zip(stream.times, stream.roles) if r == "legit"]
    assert max(attacker_times) <= 0.1
    assert max(legit_times) > 0.1


def test_dos_strategy_selects_address_corner():
    neg = gen_dos_stream(DOS_PROFILE, "negative_prefixes")
    assert all(d >= NEGATIVE_DST_BASE for d, r in zip(neg.dsts, neg.roles) if r == "attacker")
    non_pop = gen_dos_stream(DOS_PROFILE, "non_popular", popular_pool=8)
    dsts = [d for d, r in zip(non_pop.dsts, non_pop.roles) if r == "attacker"]
    assert all(d >= NONPOPULAR_DST_BASE + 8 for d in dsts)


def test_dos_stream_validation_and_determinism():
    with pytest.raises(ValueError):
        gen_dos_stream(DOS_PROFILE, "popular")
    with pytest.raises(ValueError):
        gen_dos_stream(DOS_PROFILE, attacker_timing="ramp")
    assert gen_dos_stream(DOS_PROFILE) == gen_dos_stream(DOS_PROFILE)


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
    stream = gen_scan_stream(scan, NO_BACKGROUND)
    assert len(stream) == 10
    assert stream.times == [i / 10.0 for i in range(10)]
    assert stream.srcs == [SCANNER_SRC] * 10 and stream.roles == ["attacker"] * 10
    want = {p.address for p in scan.prefix_list}
    assert set(stream.dsts[:5]) == want
    assert set(stream.dsts[5:]) == want


def test_scan_partial_final_pass_has_no_repeats():
    scan = ScanProfile(scan_prefixes(5), packet_rate=7.0, duration=1.0, seed=2)
    stream = gen_scan_stream(scan, NO_BACKGROUND)
    assert len(stream) == 7
    tail = stream.dsts[5:]
    assert len(set(tail)) == 2


def test_scan_reshuffle_toggle():
    fixed = ScanProfile(scan_prefixes(6), packet_rate=12.0, duration=1.0,
                        reshuffle_each_pass=False, seed=0)
    dsts = gen_scan_stream(fixed, NO_BACKGROUND).dsts
    assert dsts[:6] == dsts[6:]
    shuffled = ScanProfile(scan_prefixes(6), packet_rate=12.0, duration=1.0,
                           reshuffle_each_pass=True, seed=0)
    dsts = gen_scan_stream(shuffled, NO_BACKGROUND).dsts
    assert dsts[:6] != dsts[6:]


def test_background_traffic_shape_and_popularity():
    bg = BackgroundProfile(n_users=4, n_destinations=30, zipf_exponent=1.5,
                           packet_rate=500.0, duration=1.0, seed=9)
    scan = ScanProfile(scan_prefixes(3), packet_rate=3.0, duration=1.0, seed=1)
    stream = gen_scan_stream(scan, bg)
    legit = [(src, dst) for _, src, dst, role in rows(stream) if role == "legit"]
    assert len(legit) == 4 * 500
    assert {src for src, _ in legit} == {BACKGROUND_SRC_BASE + u for u in range(4)}
    assert all(BACKGROUND_DST_BASE <= dst < BACKGROUND_DST_BASE + 30 for _, dst in legit)
    popularity = collections.Counter(dst for _, dst in legit)
    assert popularity.most_common(1)[0][0] == BACKGROUND_DST_BASE
    assert stream.times == sorted(stream.times)


def test_scan_profile_validation():
    with pytest.raises(ValueError, match="^prefix_list must be non-empty$"):
        ScanProfile((), packet_rate=1.0, duration=1.0)
    with pytest.raises(ValueError, match="^prefix_list must be of type tuple, got list$"):
        ScanProfile(list(scan_prefixes(2000)), packet_rate=1.0, duration=1.0)
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
    stream = gen_dos_stream(DOS_PROFILE)
    back = read_trace(write_trace(stream).encode().splitlines())
    assert back == stream


def test_trace_format_is_one_line_per_event():
    line = write_trace(Stream([0.25], [0x1], [0xAB << 120], ["attacker"]))
    assert line == f"0.25 0x1 {0xAB << 120:#x} attacker\n"


def test_trace_reader_skips_comments_and_blanks():
    text = "# header\n\n0.5 0x2 0x30 legit\n   \n"
    assert rows(read_trace(text.encode().splitlines())) == [(0.5, 0x2, 0x30, "legit")]


def test_trace_reader_rejects_malformed_lines():
    with pytest.raises(ValueError, match="line 2"):
        read_trace([b"0.5 0x2 0x30 legit\n", b"0.6 0x2 0x30\n"])
    with pytest.raises(ValueError, match="^trace line 1: role must be 'legit' or 'attacker', "
                                         "got 'eavesdropper'$"):
        read_trace([b"0.5 0x2 0x30 eavesdropper\n"])
    # Four fields a line on average, each where a packet's field would be.
    with pytest.raises(ValueError, match="^trace line 2: expected 'ts src dst role', "
                                         "got '0.6 0x2 0x30'$"):
        read_trace([b"0.5 0x2 0x30 legit\n", b"0.6 0x2 0x30\n", b"legit 0.7 0x2 0x30 legit\n"])
    with pytest.raises(ValueError, match="^trace line 3: expected"):
        read_trace([b"0.5 0x2 0x30 legit\n", b"\n", b"0.6 0x2 0x30 legit 0.7 0x2 0x30 legit"])


def test_every_role_is_one_of_the_two_role_objects():
    # So a stream holds two role strings, not one per packet: each line of a
    # read trace decodes its role to a new string, which is swapped for its
    # ROLES object.
    dos = gen_dos_stream(DOS_PROFILE)
    scan = gen_scan_stream(ScanProfile(scan_prefixes(8), packet_rate=40.0, duration=1.0),
                           BackgroundProfile(n_users=2, n_destinations=5))
    for stream in (dos, scan, read_trace(write_trace(dos).encode().splitlines())):
        assert set(stream.roles) == set(ROLES)
        assert all(role is LEGIT or role is ATTACKER for role in stream.roles)


# ------------------------------------------- the columnar producers, pinned

# Besides ordinary spans, a duration of two subnormal steps makes most drawn
# times tie, so only a stable sort keeps the rows in generation order.
DURATIONS = st.sampled_from([1.0, 0.25, 2.5, 7.0, 1e-323])


@settings(max_examples=120, deadline=None)
@given(n_nodes=st.integers(1, 12), attacker_fraction=st.floats(0.0, 1.0),
       attacker_max=st.integers(1, 40), seed=st.integers(0, 2**32),
       strategy=st.sampled_from(sorted(DOS_STRATEGY_BASES)),
       timing=st.sampled_from(ATTACKER_TIMINGS), duration=DURATIONS,
       popular_pool=st.integers(1, 60))
def test_dos_stream_matches_the_packet_at_a_time_reference(
        n_nodes, attacker_fraction, attacker_max, seed, strategy, timing, duration, popular_pool):
    profile = PopulationProfile(n_nodes, attacker_fraction, legit_miss_range=(1, 5),
                                attacker_miss_range=(1, attacker_max), seed=seed)
    kwargs = dict(duration=duration, popular_pool=popular_pool, attacker_timing=timing)
    assert rows(gen_dos_stream(profile, strategy, **kwargs)) == \
        stream_reference.gen_dos_stream(profile, strategy, **kwargs)


@settings(max_examples=120, deadline=None)
@given(n_prefixes=st.integers(1, 12), packets=st.integers(0, 40), reshuffle=st.booleans(),
       seed=st.integers(0, 2**32), n_users=st.integers(1, 4), n_destinations=st.integers(1, 20),
       zipf_exponent=st.sampled_from([0.0, 1.0, 1.7]), per_user=st.integers(0, 15),
       duration=st.sampled_from([1.0, 0.25, 2.5, 7.0]))
def test_scan_stream_matches_the_packet_at_a_time_reference(
        n_prefixes, packets, reshuffle, seed, n_users, n_destinations, zipf_exponent, per_user,
        duration):
    # `packets` is the scanner's packet total: a multiple of the prefix count
    # or not, so the last pass may be cut short. A rate rounds to its total.
    scan = ScanProfile(scan_prefixes(n_prefixes), packet_rate=packets + 0.25, duration=1.0,
                       reshuffle_each_pass=reshuffle, seed=seed)
    bg = BackgroundProfile(n_users, n_destinations, zipf_exponent,
                           packet_rate=(per_user + 0.25) / duration, duration=duration,
                           seed=seed + 1)
    assert rows(gen_scan_stream(scan, bg)) == stream_reference.gen_scan_stream(scan, bg)


@settings(max_examples=60, deadline=None)
@given(n_nodes=st.integers(1, 8), seed=st.integers(0, 2**32), duration=DURATIONS)
def test_a_written_trace_reads_back_as_the_stream(n_nodes, seed, duration):
    profile = PopulationProfile(n_nodes, 0.3, attacker_miss_range=(1, 30), seed=seed)
    stream = gen_dos_stream(profile, duration=duration)
    text = write_trace(stream)
    back = read_trace(text.encode().splitlines(keepends=True))
    assert back == stream
    assert rows(back) == stream_reference.read_trace(text)


@st.composite
def traces_with_repeated_times(draw):
    ticks = sorted(draw(st.lists(st.integers(0, 5), min_size=1, max_size=40)))
    address = st.integers(0, 2**128 - 1)
    return [(tick / 8, draw(address), draw(address), draw(st.sampled_from(["legit", "attacker"])))
            for tick in ticks]


@settings(max_examples=100, deadline=None)
@given(packets=traces_with_repeated_times(), comment=st.sampled_from(["", "# c\n", "\n"]))
def test_a_trace_with_repeated_times_keeps_its_order(packets, comment):
    text = comment + "".join(f"{t!r} {s:#x} {d:#x} {r}\n" for t, s, d, r in packets)
    stream = read_trace(text.encode().splitlines(keepends=True))
    assert rows(stream) == packets == stream_reference.read_trace(text)
    assert write_trace(stream) == text.removeprefix(comment)


# ------------------------------------------------------- a block at a time

@functools.cache
def packet_lines() -> tuple[bytes, ...]:
    """Four blocks of trace lines in time order, as write_trace writes them."""
    return tuple(f"{i / 1024!r} {hex(i % 6)} {hex((0xD0 << 120) + i)} {ROLES[i % 3 == 0]}\n"
                 .encode() for i in range(4 * workloads._BLOCK_LINES))


# Lines a trace may hold besides its packets, each read as str.split reads
# it: the separators are whitespace to str.split but not to bytes.split.
SEPARATORS = ["\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2003"]
QUIRKS = ("comment", "blank", "crlf", "no newline", "separator")
# Each bad line, and the error today's line-at-a-time reader gives for it.
BAD_LINES = {
    "three fields": (b"9.0 0x1 0x2\n", "expected 'ts src dst role', got '9.0 0x1 0x2'"),
    "five fields": (b"9.0 0x1 0x2 legit 7\n",
                    "expected 'ts src dst role', got '9.0 0x1 0x2 legit 7'"),
    "nan time": (b"nan 0x1 0x2 legit\n", "timestamp must be finite and >= 0, got nan"),
    "infinite time": (b"inf 0x1 0x2 legit\n", "timestamp must be finite and >= 0, got inf"),
    "negative time": (b"-1.0 0x1 0x2 legit\n", "timestamp must be finite and >= 0, got -1.0"),
    "backward time": (b"0.0 0x1 0x2 legit\n", "timestamp 0.0 is before the previous {last}"),
    "negative address": (b"9.0 -0x1 0x2 legit\n",
                         "src -1 is not an integer in the 128-bit range"),
    "address past 128 bits": (f"9.0 0x1 {hex(1 << 128)} legit\n".encode(),
                              f"dst {1 << 128} is not an integer in the 128-bit range"),
    "unknown role": (b"9.0 0x1 0x2 eavesdropper\n",
                     "role must be 'legit' or 'attacker', got 'eavesdropper'"),
    "not UTF-8": (b"9.0 0x1 0x\xff legit\n",
                  "'utf-8' codec can't decode byte 0xff in position 10: invalid start byte"),
}


def with_quirk(line: bytes, quirk: str, separator: str) -> list[bytes]:
    if quirk == "comment":
        return [b"# a comment\n", line]
    if quirk == "blank":
        return [b"  \n", line]
    if quirk == "crlf":
        return [line.replace(b"\n", b"\r\n")]
    if quirk == "no newline":
        return [line.removesuffix(b"\n")]
    return [line.replace(b" ", separator.encode(), 1)]


@st.composite
def blocked_traces(draw):
    """A count of packet lines that fills 1-3 blocks, quirks at some of them,
    and maybe one bad line's kind and index in a block after the first."""
    block = workloads._BLOCK_LINES
    blocks = draw(st.integers(1, 3))
    count = draw(st.integers((blocks - 1) * block + 1, blocks * block))
    quirk = st.tuples(st.integers(0, count - 1), st.sampled_from(QUIRKS),
                      st.sampled_from(SEPARATORS))
    quirks = draw(st.lists(quirk, max_size=6))
    total = count + sum(kind in ("comment", "blank") for _, kind, _ in quirks)
    if total <= block or draw(st.booleans()):
        return count, quirks, None, None
    return count, quirks, draw(st.sampled_from(sorted(BAD_LINES))), draw(st.integers(block,
                                                                                     total - 1))


@settings(max_examples=20, deadline=None)
@given(case=blocked_traces())
def test_a_trace_read_a_block_at_a_time_reads_as_line_by_line(case):
    count, quirks, bad, index = case
    lines = list(packet_lines()[:count])
    for at, kind, separator in sorted(quirks, reverse=True):
        lines[at:at + 1] = with_quirk(lines[at], kind, separator)
    if bad is not None:
        lines[index], message = BAD_LINES[bad]
    text = b"\n".join(line.removesuffix(b"\n") for line in lines)
    if bad is None:
        assert rows(read_trace(lines)) == stream_reference.read_trace(text.decode())
        return
    if bad == "backward time":
        last = next(float(parts[0]) for line in reversed(lines[:index])
                    if (parts := line.decode().split()) and not parts[0].startswith("#"))
        message = message.format(last=last)
    with pytest.raises(ValueError) as error:
        read_trace(lines)
    assert str(error.value) == f"trace line {index + 1}: {message}"
    if bad != "not UTF-8":  # the reference reads text
        with pytest.raises(ValueError, match=f"^trace line {index + 1}: "):
            stream_reference.read_trace(text.decode())


def test_read_trace_pulls_at_most_one_block_past_the_last_line_it_accepts():
    block = workloads._BLOCK_LINES
    bad = 2 * block + 5  # in the third block
    pulled = 0

    def counted_lines():
        nonlocal pulled
        for i, line in enumerate(packet_lines()):
            pulled += 1
            yield b"9.0 0x1 0x2\n" if i == bad else line

    with pytest.raises(ValueError, match=f"^trace line {bad + 1}: expected 'ts src dst role'"):
        read_trace(counted_lines())
    assert pulled <= bad + block
