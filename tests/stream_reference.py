"""Plain reference stream producers used as the equivalence oracle in tests.

Deliberately naive: one packet at a time, each a (time, src, dst, role)
tuple, in a list sorted by time with `list.sort`, as the producers were
first written. Any row that differs from xtrsim.workloads' columnar
producers is a bug in one of them.
"""

import math

import numpy as np

from xtrsim.workloads import (BACKGROUND_DST_BASE, BACKGROUND_SRC_BASE, DOS_STRATEGY_BASES,
                              POPULAR_DST_BASE, SCANNER_SRC, gen_miss_counts,
                              zipf_probabilities)

ROLES = ("legit", "attacker")


def gen_dos_stream(profile, dest_strategy="unallocated", *, duration=1.0, popular_pool=50,
                   attacker_timing="uniform"):
    draw = gen_miss_counts(profile)
    rng = np.random.default_rng(profile.seed + 1)
    base = DOS_STRATEGY_BASES[dest_strategy]
    if dest_strategy == "non_popular":
        base += popular_pool
    events = []
    fresh = 0
    for source, count, is_attacker in zip(draw.sources.tolist(), draw.counts.tolist(),
                                          draw.attacker_mask.tolist()):
        times = rng.uniform(0.0, duration, size=count)
        if is_attacker:
            if attacker_timing == "burst":
                times = times * 0.1
            for t in times:
                events.append((float(t), source, base + fresh, "attacker"))
                fresh += 1
        else:
            pool_picks = rng.integers(0, popular_pool, size=count)
            for t, pick in zip(times, pool_picks):
                events.append((float(t), source, POPULAR_DST_BASE + int(pick), "legit"))
    events.sort(key=lambda e: e[0])
    return events


def gen_scan_stream(scan, background):
    rng = np.random.default_rng(scan.seed)
    n_prefixes = len(scan.prefix_list)
    total = int(round(scan.packet_rate * scan.duration))
    order = np.arange(n_prefixes)
    events = []
    for i in range(total):
        slot = i % n_prefixes
        if slot == 0 and scan.reshuffle_each_pass:
            order = rng.permutation(n_prefixes)
        prefix = scan.prefix_list[int(order[slot])]
        events.append((i / scan.packet_rate, SCANNER_SRC, prefix.address, "attacker"))

    bg_rng = np.random.default_rng(background.seed)
    probs = zipf_probabilities(background.n_destinations, background.zipf_exponent)
    per_user = int(round(background.packet_rate * background.duration))
    for user in range(background.n_users):
        times = bg_rng.uniform(0.0, background.duration, size=per_user)
        ranks = bg_rng.choice(background.n_destinations, size=per_user, p=probs)
        src = BACKGROUND_SRC_BASE + user
        for t, rank in zip(times, ranks):
            events.append((float(t), src, BACKGROUND_DST_BASE + int(rank), "legit"))
    events.sort(key=lambda e: e[0])
    return events


def read_trace(text):
    # Lines end at "\n" alone, as a file's lines do: str.splitlines would also
    # end one at "\x1c" or U+0085, which str.split takes as whitespace.
    events = []
    last = 0.0
    for lineno, line in enumerate(text.split("\n"), start=1):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        try:
            if len(parts) != 4:
                raise ValueError(f"expected 'ts src dst role', got {line.strip()!r}")
            ts, src, dst, role = parts
            time = float(ts)
            if not 0.0 <= time < math.inf:
                raise ValueError(f"timestamp must be finite and >= 0, got {ts}")
            src, dst = int(src, 0), int(dst, 0)
            if not (0 <= src < 1 << 128 and 0 <= dst < 1 << 128):
                raise ValueError("address outside [0, 2**128)")
            if role not in ROLES:
                raise ValueError(f"unknown role {role!r}")
            if time < last:
                raise ValueError(f"timestamp {time} is before the previous {last}")
        except ValueError as exc:
            raise ValueError(f"trace line {lineno}: {exc}") from exc
        last = time
        events.append((time, src, dst, role))
    return events
