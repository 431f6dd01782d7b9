"""Synthetic traffic: miss-count populations, miss floods, cache scans, background load.

All generators are pure functions of their profile (including its seed), so a
stream can be regenerated byte-for-byte from configuration alone. Event times
are simulated seconds.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .cache import ADDRESS_BITS, EidPrefix

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


class Role(enum.Enum):
    LEGIT = "legit"
    ATTACKER = "attacker"


@dataclass(slots=True)
class PacketEvent:
    time: float
    src: int
    dst: int
    role: Role = Role.LEGIT


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
        if self.n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {self.n_nodes}")
        if not 0.0 <= self.attacker_fraction <= 1.0:
            raise ValueError(f"attacker_fraction must be in [0, 1], got {self.attacker_fraction}")
        for name in ("legit_miss_range", "attacker_miss_range"):
            if len(bounds := getattr(self, name)) != 2 or not 1 <= bounds[0] <= bounds[1]:
                raise ValueError(f"{name} must be a pair lo,hi with 1 <= lo <= hi, got {bounds}")

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
                   attacker_timing: str = "uniform") -> list[PacketEvent]:
    """Miss-flood stream: attackers spray never-before-seen destinations.

    Every attacker emits exactly its drawn miss count, each packet to a fresh
    destination, so each one is a guaranteed cache miss. Legitimate nodes emit
    their counts against a small shared pool of popular destinations. Times
    are uniform over [0, duration); "burst" timing front-loads the attackers
    into the first tenth of it.
    """
    if dest_strategy not in DOS_STRATEGY_BASES:
        raise ValueError(f"dest_strategy must be one of {sorted(DOS_STRATEGY_BASES)}")
    if attacker_timing not in ATTACKER_TIMINGS:
        raise ValueError(f"attacker_timing must be 'uniform' or 'burst', got {attacker_timing!r}")
    draw = gen_miss_counts(profile)
    rng = np.random.default_rng(profile.seed + 1)
    base = DOS_STRATEGY_BASES[dest_strategy]
    if dest_strategy == "non_popular":
        base += popular_pool  # non-popular indices start after the pool's
    events: list[PacketEvent] = []
    fresh = 0
    for source, count, is_attacker in zip(draw.sources.tolist(), draw.counts.tolist(),
                                          draw.attacker_mask.tolist()):
        times = rng.uniform(0.0, duration, size=count)
        if is_attacker:
            if attacker_timing == "burst":
                times = times * 0.1
            for t in times:
                events.append(PacketEvent(float(t), source, base + fresh, Role.ATTACKER))
                fresh += 1
        else:
            pool_picks = rng.integers(0, popular_pool, size=count)
            for t, pick in zip(times, pool_picks):
                events.append(PacketEvent(float(t), source,
                                          POPULAR_DST_BASE + int(pick), Role.LEGIT))
    events.sort(key=lambda e: e.time)
    return events


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
        if not self.prefix_list:
            raise ValueError("prefix_list must be non-empty")
        if not (0 < self.packet_rate < math.inf and 0 < self.duration < math.inf
                and self.packet_rate * self.duration < math.inf):  # the packet total too
            raise ValueError("packet_rate, duration and their product must be finite and > 0")


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
        if self.n_users < 1 or self.n_destinations < 1:
            raise ValueError("n_users and n_destinations must be >= 1")
        if not (0 < self.packet_rate < math.inf and 0 < self.duration < math.inf
                and self.packet_rate * self.duration < math.inf):  # the packet total too
            raise ValueError("packet_rate, duration and their product must be finite and > 0")
        if not 0 <= self.zipf_exponent < math.inf:
            raise ValueError(f"zipf_exponent must be finite and >= 0, got {self.zipf_exponent}")


def scan_prefixes(count: int) -> tuple[EidPrefix, ...]:
    """A contiguous block of host-width prefixes to point a scanner at."""
    return tuple(EidPrefix.host(SCAN_DST_BASE + i) for i in range(count))


def zipf_probabilities(n: int, exponent: float) -> np.ndarray:
    """Normalized Zipf mass over ranks 1..n."""
    weights = np.arange(1, n + 1, dtype=np.float64) ** -exponent
    return weights / weights.sum()


def gen_scan_stream(scan: ScanProfile, background: BackgroundProfile) -> list[PacketEvent]:
    """Scanner sweep merged in time order with Zipf background traffic."""
    rng = np.random.default_rng(scan.seed)
    n_prefixes = len(scan.prefix_list)
    total = int(round(scan.packet_rate * scan.duration))
    order = np.arange(n_prefixes)
    events: list[PacketEvent] = []
    for i in range(total):
        slot = i % n_prefixes
        if slot == 0 and scan.reshuffle_each_pass:
            order = rng.permutation(n_prefixes)
        prefix = scan.prefix_list[int(order[slot])]
        events.append(PacketEvent(i / scan.packet_rate, SCANNER_SRC,
                                  prefix.address, Role.ATTACKER))

    bg_rng = np.random.default_rng(background.seed)
    probs = zipf_probabilities(background.n_destinations, background.zipf_exponent)
    per_user = int(round(background.packet_rate * background.duration))
    for user in range(background.n_users):
        times = bg_rng.uniform(0.0, background.duration, size=per_user)
        ranks = bg_rng.choice(background.n_destinations, size=per_user, p=probs)
        src = BACKGROUND_SRC_BASE + user
        for t, rank in zip(times, ranks):
            events.append(PacketEvent(float(t), src,
                                      BACKGROUND_DST_BASE + int(rank), Role.LEGIT))
    events.sort(key=lambda e: e.time)
    return events


def write_trace(events: Iterable[PacketEvent]) -> str:
    """Serialize a stream as one 'ts src dst role' line per event."""
    return "".join(f"{e.time!r} {e.src:#x} {e.dst:#x} {e.role.value}\n" for e in events)


_ROLES = {role.value: role for role in Role}


def read_trace(text: str) -> list[PacketEvent]:
    """Parse the 'ts src dst role' lines of write_trace; '#' lines are comments.

    A bad line raises ValueError that names it: a wrong field count, a
    timestamp that is not finite, is negative or goes back, an address
    outside [0, 2**128), or an unknown role.
    """
    events: list[PacketEvent] = []
    last = 0.0
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()  # splits on the whitespace that strip() would strip
        if not parts or parts[0].startswith("#"):
            continue
        try:
            if len(parts) != 4:
                raise ValueError(f"expected 'ts src dst role', got {line.strip()!r}")
            ts, src, dst, role = parts
            time = float(ts)
            if not 0.0 <= time < math.inf:
                raise ValueError(f"timestamp must be finite and >= 0, got {ts}")
            # Role(role) only raises: it words the error for an unknown role.
            event = PacketEvent(time, _address(src), _address(dst),
                                _ROLES.get(role) or Role(role))
            if time < last:
                raise ValueError(f"timestamp {time} is before the previous {last}")
        except ValueError as exc:
            raise ValueError(f"trace line {lineno}: {exc}") from exc
        last = time
        events.append(event)
    return events


def _address(text: str) -> int:
    value = int(text, 0)
    if not 0 <= value < 1 << ADDRESS_BITS:
        raise ValueError(f"address {text} is outside [0, 2**{ADDRESS_BITS})")
    return value
