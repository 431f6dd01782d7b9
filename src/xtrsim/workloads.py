"""Synthetic traffic: miss-count populations, miss floods, cache scans, background load.

All generators are pure functions of their profile (including its seed), so a
stream can be regenerated byte-for-byte from configuration alone. Event times
are simulated seconds.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import chain, islice, repeat
from typing import Iterable

import numpy as np

from .cache import EidPrefix, check_address, check_choice, check_count, check_positive, check_type

# Disjoint corners of the 128-bit overlay space, so generated sources and
# destinations can never shadow one another.
POPULAR_DST_BASE = 0x10 << 96
NONPOPULAR_DST_BASE = 0x11 << 96
BACKGROUND_DST_BASE = 0x20 << 96
SCAN_DST_BASE = 0x30 << 96
UNALLOCATED_DST_BASE = 0xFD << 120
NEGATIVE_DST_BASE = 0xFE << 120
SCANNER_SRC = 0xA7 << 96
BACKGROUND_SRC_BASE = 0xB0 << 96


# The two roles, the one vocabulary for them: a role is its string.
ROLES = LEGIT, ATTACKER = ("legit", "attacker")
# A role's string, indexed by the attacker flag.
_ROLE_BY_FLAG = np.array(ROLES, dtype=object)


@dataclass(slots=True)
class Stream:
    """A packet stream in time order, as four parallel columns.

    A role is one of the `ROLES` strings: the `Tally` field the router counts
    the packet under, and the trace's fourth field.
    The columns are lists, not arrays: the router iterates them in Python,
    and addresses are 128-bit.
    """

    times: list[float]
    srcs: list[int]
    dsts: list[int]
    roles: list[str]

    def __len__(self) -> int:
        return len(self.times)


def _in_time_order(times: np.ndarray, srcs: np.ndarray, dsts: np.ndarray,
                   attacker: np.ndarray) -> Stream:
    """The rows as a Stream sorted by time; rows with equal times keep their order.

    A column of 128-bit addresses is an object array of Python ints.
    """
    order = np.argsort(times, kind="stable")
    return Stream(times[order].tolist(), srcs[order].tolist(), dsts[order].tolist(),
                  _ROLE_BY_FLAG[attacker[order].astype(np.intp)].tolist())


@dataclass(frozen=True)
class PopulationProfile:
    """A node population with a hidden attacker subset.

    Miss counts are drawn uniformly (inclusive) from the per-role ranges; the
    attacker subset is the first round(n_nodes * attacker_fraction) indices of
    a seeded shuffle.
    """

    n_nodes: int
    attacker_fraction: float
    legit_miss_range: tuple[int, int] = (1, 10)
    attacker_miss_range: tuple[int, int] = (1000, 10000)
    seed: int = 0

    def __post_init__(self) -> None:
        check_count("n_nodes", self.n_nodes, 1)
        check_count("seed", self.seed, 0)
        if type(fraction := self.attacker_fraction) not in (int, float) or not 0 <= fraction <= 1:
            raise ValueError(f"attacker_fraction must be in [0, 1], got {fraction!r}")
        for name in ("legit_miss_range", "attacker_miss_range"):
            bounds = getattr(self, name)
            if not (type(bounds) is tuple and list(map(type, bounds)) == [int, int]
                    and 1 <= bounds[0] <= bounds[1]):
                raise ValueError(f"{name} must be a pair lo,hi with 1 <= lo <= hi, got {bounds!r}")

    @property
    def n_attackers(self) -> int:
        return round(self.n_nodes * self.attacker_fraction)


@dataclass(frozen=True)
class MissCounts:
    """Per-source true miss counts and roles, as parallel arrays.

    Sources are the node indices 0..n-1; attacker_mask marks the attackers.
    """

    sources: np.ndarray
    counts: np.ndarray
    attacker_mask: np.ndarray


def gen_miss_counts(profile: PopulationProfile) -> MissCounts:
    """Draw one true miss count per node; attackers are heavy, the rest light."""
    rng = np.random.default_rng(profile.seed)
    n = profile.n_nodes
    k = profile.n_attackers
    perm = rng.permutation(n)
    attacker_mask = np.zeros(n, dtype=bool)
    attacker_mask[perm[:k]] = True
    counts = np.empty(n, dtype=np.int64)
    lo_a, hi_a = profile.attacker_miss_range
    lo_l, hi_l = profile.legit_miss_range
    counts[perm[:k]] = rng.integers(lo_a, hi_a + 1, size=k)
    counts[perm[k:]] = rng.integers(lo_l, hi_l + 1, size=n - k)
    return MissCounts(np.arange(n, dtype=np.int64), counts, attacker_mask)


ATTACKER_TIMINGS = ("uniform", "burst")
DOS_STRATEGY_BASES = {
    "unallocated": UNALLOCATED_DST_BASE,
    "non_popular": NONPOPULAR_DST_BASE,
    "negative_prefixes": NEGATIVE_DST_BASE,
}


def gen_dos_stream(profile: PopulationProfile, dest_strategy: str = "unallocated", *,
                   duration: float = 1.0, popular_pool: int = 50,
                   attacker_timing: str = "uniform") -> Stream:
    """Miss-flood stream: attackers spray never-before-seen destinations.

    Every attacker emits exactly its drawn miss count, each packet to a fresh
    destination, so each one is a guaranteed cache miss. Legitimate nodes emit
    their counts against a small shared pool of popular destinations. Times
    are uniform over [0, duration); "burst" timing front-loads the attackers
    into the first tenth of it.
    """
    check_choice("dest_strategy", dest_strategy, DOS_STRATEGY_BASES)
    check_choice("attacker_timing", attacker_timing, ATTACKER_TIMINGS)
    check_positive("duration", duration)
    check_count("popular_pool", popular_pool, 1)
    draw = gen_miss_counts(profile)
    rng = np.random.default_rng(profile.seed + 1)
    base = DOS_STRATEGY_BASES[dest_strategy]
    if dest_strategy == "non_popular":
        base += popular_pool  # non-popular indices start after the pool's
    times: list[np.ndarray] = []
    dsts: list[np.ndarray] = []
    for count, is_attacker in zip(draw.counts.tolist(), draw.attacker_mask.tolist()):
        source_times = rng.uniform(0.0, duration, size=count)
        if is_attacker:
            times.append(source_times * 0.1 if attacker_timing == "burst" else source_times)
            dsts.append(np.arange(base, base + count, dtype=object))
            base += count
        else:
            times.append(source_times)
            picks = rng.integers(0, popular_pool, size=count)
            dsts.append(picks.astype(object) + POPULAR_DST_BASE)
    return _in_time_order(np.concatenate(times), np.repeat(draw.sources, draw.counts),
                          np.concatenate(dsts), np.repeat(draw.attacker_mask, draw.counts))


@dataclass(frozen=True)
class ScanProfile:
    """A scanner sweeping a prefix list at a fixed packet rate.

    Each pass covers every prefix exactly once, in a fresh seeded permutation
    when reshuffle_each_pass is set; packets are 1/packet_rate apart.
    """

    prefix_list: tuple[EidPrefix, ...]
    packet_rate: float
    duration: float
    reshuffle_each_pass: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        check_type("prefix_list", self.prefix_list, tuple)
        if not self.prefix_list:
            raise ValueError("prefix_list must be non-empty")
        for i, prefix in enumerate(self.prefix_list):
            check_type(f"prefix_list[{i}]", prefix, EidPrefix)
        check_choice("reshuffle_each_pass", self.reshuffle_each_pass, (True, False))
        check_positive("packet_rate", self.packet_rate)
        check_positive("duration", self.duration)
        check_positive("the product packet_rate * duration", self.packet_rate * self.duration)
        check_count("seed", self.seed, 0)


@dataclass(frozen=True)
class BackgroundProfile:
    """Legitimate browsing load: per-user packets to Zipf-popular destinations."""

    n_users: int
    n_destinations: int
    zipf_exponent: float = 1.0
    packet_rate: float = 10.0
    duration: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        check_count("n_users", self.n_users, 1)
        check_count("n_destinations", self.n_destinations, 1)
        if type(self.zipf_exponent) not in (int, float) or not 0 <= self.zipf_exponent < math.inf:
            raise ValueError(f"zipf_exponent must be finite and >= 0, got {self.zipf_exponent!r}")
        check_positive("packet_rate", self.packet_rate)
        check_positive("duration", self.duration)
        check_positive("the product packet_rate * duration", self.packet_rate * self.duration)
        check_count("seed", self.seed, 0)


def scan_prefixes(count: int) -> tuple[EidPrefix, ...]:
    """A contiguous block of host-width prefixes to point a scanner at."""
    check_count("count", count, 0)
    return tuple(EidPrefix.host(SCAN_DST_BASE + i) for i in range(count))


def zipf_probabilities(n: int, exponent: float) -> np.ndarray:
    """Normalized Zipf mass over ranks 1..n."""
    weights = np.arange(1, n + 1, dtype=np.float64) ** -exponent
    return weights / weights.sum()


def gen_scan_stream(scan: ScanProfile, background: BackgroundProfile) -> Stream:
    """Scanner sweep merged in time order with Zipf background traffic.

    The scanner's rows come before the background's, so at equal times the
    scanner's packet goes first.
    """
    rng = np.random.default_rng(scan.seed)
    n_prefixes = len(scan.prefix_list)
    total = int(round(scan.packet_rate * scan.duration))
    passes, rest = divmod(total, n_prefixes)
    # A fresh permutation at the start of each pass; the last may be cut short.
    slots = [rng.permutation(n_prefixes) if scan.reshuffle_each_pass else np.arange(n_prefixes)
             for _ in range(passes + (rest > 0))]
    if rest:
        slots[-1] = slots[-1][:rest]
    addresses = np.array([prefix.address for prefix in scan.prefix_list], dtype=object)
    times = [np.arange(total) / scan.packet_rate]
    srcs = [SCANNER_SRC]
    dsts = [addresses[slot] for slot in slots]

    bg_rng = np.random.default_rng(background.seed)
    probs = zipf_probabilities(background.n_destinations, background.zipf_exponent)
    per_user = int(round(background.packet_rate * background.duration))
    for user in range(background.n_users):
        times.append(bg_rng.uniform(0.0, background.duration, size=per_user))
        ranks = bg_rng.choice(background.n_destinations, size=per_user, p=probs)
        srcs.append(BACKGROUND_SRC_BASE + user)
        dsts.append(ranks.astype(object) + BACKGROUND_DST_BASE)
    repeats = [total] + [per_user] * background.n_users
    return _in_time_order(np.concatenate(times), np.repeat(np.array(srcs, dtype=object), repeats),
                          np.concatenate(dsts), np.arange(sum(repeats)) < total)


def write_trace(stream: Stream) -> str:
    """Serialize a stream as one 'ts src dst role' line per packet."""
    return "".join(f"{time!r} {hex(src)} {hex(dst)} {role}\n" for time, src, dst, role
                   in zip(stream.times, stream.srcs, stream.dsts, stream.roles))


# Map each role, as text and as bytes, to its `ROLES` object, so a read trace
# holds two role strings.
_INTERNED_ROLES = {role: role for role in ROLES}
_ROLE_BY_TOKEN = {role.encode(): role for role in ROLES}
# Lines `read_trace` parses at a time; the most it holds, and the most it
# reads past a bad line.
_BLOCK_LINES = 2**14


def _block_columns(block: list[bytes], last: float) -> tuple[list, list, list, list] | None:
    """The four columns of a block of lines that are each one packet, in time
    order from `last`; None when any line is not, so it needs `_parse_lines`."""
    # "|" parses as no field, so where every fifth token is the "|" joined
    # between two lines, each line has exactly four fields.
    tokens = b" | ".join(block).split()
    if len(tokens) != 5 * len(block) - 1 or tokens[4::5].count(b"|") != len(block) - 1:
        return None  # a line with other than four fields, a comment or a blank
    try:
        times = list(map(float, tokens[0::5]))
        srcs = list(map(int, tokens[1::5], repeat(0)))
        dsts = list(map(int, tokens[2::5], repeat(0)))
        roles = list(map(_ROLE_BY_TOKEN.__getitem__, tokens[3::5]))
        for column, name in ((srcs, "src"), (dsts, "dst")):
            check_address(min(column), name)
            check_address(max(column), name)
    except (ValueError, KeyError):  # a field that does not parse, or an address out
        return None  # of range: `_parse_lines` names the line
    # Each time is compared with the one before, so a NaN anywhere fails this.
    if not (all(map(operator.le, chain((last,), times), times)) and times[-1] < math.inf):
        return None
    return times, srcs, dsts, roles


def _parse_lines(block: list[bytes], first_lineno: int, last: float, stream: Stream) -> None:
    """Append the block's packets to `stream` one line at a time, from time
    `last`; a bad line raises ValueError that names it by its line number."""
    times, srcs, dsts, roles = stream.times, stream.srcs, stream.dsts, stream.roles
    for lineno, raw in enumerate(block, start=first_lineno):
        try:
            line = raw.decode()
            parts = line.split()  # splits on the whitespace that strip() would strip
            if not parts or parts[0].startswith("#"):
                continue
            if len(parts) != 4:
                raise ValueError(f"expected 'ts src dst role', got {line.strip()!r}")
            ts, src, dst, name = parts
            time = float(ts)
            if not 0.0 <= time < math.inf:
                raise ValueError(f"timestamp must be finite and >= 0, got {ts}")
            src, dst = int(src, 0), int(dst, 0)
            check_address(src, "src")
            check_address(dst, "dst")
            if (role := _INTERNED_ROLES.get(name)) is None:
                check_choice("role", name, ROLES)  # raises: each of ROLES is a key
            if time < last:
                raise ValueError(f"timestamp {time} is before the previous {last}")
        except ValueError as exc:
            raise ValueError(f"trace line {lineno}: {exc}") from exc
        last = time
        times.append(time)
        srcs.append(src)
        dsts.append(dst)
        roles.append(role)


def read_trace(lines: Iterable[bytes]) -> Stream:
    """Parse the UTF-8 'ts src dst role' lines of write_trace; '#' lines are comments.

    `lines` is any iterable of byte lines, such as a file opened in binary
    mode. It is read `_BLOCK_LINES` lines at a time: a block whose lines are
    all packets is parsed a column at a time, and any other block a line at
    a time. A bad line raises ValueError that names it: bytes that are not
    UTF-8, a wrong field count, a timestamp that is not finite, is negative
    or goes back, an address outside [0, 2**128), or an unknown role.
    """
    stream = Stream([], [], [], [])
    columns = (stream.times, stream.srcs, stream.dsts, stream.roles)
    lines = iter(lines)
    lineno = 0
    while block := list(islice(lines, _BLOCK_LINES)):
        last = stream.times[-1] if stream.times else 0.0
        parsed = _block_columns(block, last)
        if parsed is None:
            _parse_lines(block, lineno + 1, last, stream)
        else:
            for column, part in zip(columns, parsed):
                column.extend(part)
        lineno += len(block)
    return stream
