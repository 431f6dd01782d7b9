"""Sources the attacker picks: framing a victim, and outnumbering the per-source cap.

The per-source limiter's false-positive bound q(w, d) = (1 - (1 - 1/w)^A)^d
holds for sources that do not depend on the sketch's hash key, which is the
router's seed. An attacker who knows the key can search one /64 it owns for d
sources that each share the victim's cell in one row. d * (threshold + 1)
misses from them then deny the victim for the rest of the window. The same
search run against another key frames the victim only by chance, at most
q(w, d) with A = d. The exact backend keeps no shared cells to collide in.

The cap is per source, not per attacker (a Sybil attack: Douceur, IPTPS
2002). S sources get S * threshold admissions a window, so from
S* = ceil(dest_budget / threshold) sources on they spend the whole shared
budget while each one stays within its cap.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

from xtrsim.cms import CountMinSketch, SketchDims
from xtrsim.experiment import _attack_stream, _attack_xtr_config, dos_defaults
from xtrsim.limiter import LimiterConfig
from xtrsim.workloads import ATTACKER, LEGIT, UNALLOCATED_DST_BASE
from xtrsim.xtr import Xtr, XtrConfig

DOS = dos_defaults()  # threshold 100, a 1000 x 4 sketch, one-second windows
DIMS = SketchDims(DOS.limiter_w, DOS.limiter_d)
ROUTER_SEED = 1
VICTIM = 7
OWNED_64 = 0x2001_0DB8_0000_0001 << 64  # the /64 the attacker's sources come from
VICTIM_TIMES = [0.5 + 0.05 * i for i in range(10)]  # the rest of the first window
OTHER_KEYS = range(2, 12)


def framing_sources(key_seed: int) -> list[int]:
    """The first d sources of OWNED_64 such that the r-th shares the victim's
    row-r cell under the hash keyed by `key_seed`."""
    sketch = CountMinSketch(DIMS, seed=key_seed)
    target = sketch._hash_slots(VICTIM)
    found: dict[int, int] = {}
    for source in itertools.count(OWNED_64):
        for row, slot in enumerate(sketch._hash_slots(source)):
            if slot == target[row] and row not in found:
                found[row] = source
                break
        if len(found) == DIMS.depth:
            return [found[row] for row in range(DIMS.depth)]


def victim_counters(xtr: Xtr) -> dict[str, int]:
    """The victim's non-zero counters: it is the only legitimate sender."""
    return {name.removesuffix(f"_{LEGIT}"): count for name, count in xtr.metrics.as_row().items()
            if name.endswith(f"_{LEGIT}") and count}


def every_miss(fate: str) -> dict[str, int]:
    """The victim's counters when each of its misses met the fate counted in `fate`."""
    misses = len(VICTIM_TIMES)
    return {"packets_in": misses, "cache_misses": misses, fate: misses}


def frame(sources: list[int], backend: str = "cms") -> tuple[Xtr, dict[str, int]]:
    """Each source sends threshold + 1 misses at time 0, then the victim sends
    its misses in the same window; returns the router and the victim's counters."""
    limiter = LimiterConfig(threshold=DOS.threshold, period=DOS.limiter_period,
                            backend=backend, sketch_dims=DIMS)
    xtr = Xtr(XtrConfig(limiter=limiter, dest_budget=DOS.dest_budget,
                        pending_capacity=DOS.pending_capacity), seed=ROUTER_SEED)
    fresh = itertools.count(UNALLOCATED_DST_BASE)
    for _ in range(DOS.threshold + 1):
        for source in sources:
            xtr.step(0.0, source, next(fresh), "attacker")
    for t in VICTIM_TIMES:
        xtr.step(t, VICTIM, next(fresh), LEGIT)
    return xtr, victim_counters(xtr)


def test_the_router_key_lets_d_sources_deny_the_victim_for_the_window():
    sources = framing_sources(ROUTER_SEED)
    assert len(set(sources)) == DIMS.depth
    assert {source >> 64 for source in sources} == {OWNED_64 >> 64}
    xtr, victim = frame(sources)
    assert xtr.metrics.cache_misses.attacker == DIMS.depth * (DOS.threshold + 1)
    assert victim == every_miss("dropped_by_source_limiter")
    # The victim never sent more than the threshold: the sketch framed it.
    assert len(VICTIM_TIMES) <= DOS.threshold
    # The next window starts clean.
    xtr.step(1.0, VICTIM, UNALLOCATED_DST_BASE - 1, LEGIT)
    sent = len(VICTIM_TIMES) + 1
    assert victim_counters(xtr) == {**victim, "packets_in": sent, "cache_misses": sent,
                                    "map_requests_sent": 1}


def test_the_exact_backend_cannot_be_framed():
    _, victim = frame(framing_sources(ROUTER_SEED), backend="exact")
    assert victim == every_miss("map_requests_sent")


def allowed_failures(trials: int, p: float, alpha: float = 1e-6) -> int:
    """Smallest k with P(Binomial(trials, p) > k) <= alpha."""
    tail = 1.0
    for k in range(trials + 1):
        tail -= math.comb(trials, k) * p**k * (1 - p) ** (trials - k)
        if tail <= alpha:
            return k
    return trials


def test_without_the_key_the_same_search_leaves_the_victim_admitted():
    w, d = DIMS.width, DIMS.depth
    # Under the router's key each of the d sources shares the victim's cell
    # in a row with probability about 1/w, and one source alone sends more
    # than the threshold, so the victim is framed when every row holds one:
    # q(w, d) with A = d attackers.
    q = (1 - (1 - 1 / w) ** d) ** d
    allowed = allowed_failures(len(OTHER_KEYS), q)
    framed = []
    for key in OTHER_KEYS:
        _, victim = frame(framing_sources(key))
        if victim != every_miss("map_requests_sent"):
            framed.append(key)
    assert len(framed) <= allowed, framed


def test_allowed_failures_is_a_binomial_quantile():
    assert allowed_failures(10, 0.0) == 0
    assert allowed_failures(10, 1.0) == 10
    assert allowed_failures(1000, 0.01) == 28  # the same sum in exact fractions


def test_the_per_source_cap_protects_the_budget_only_below_budget_over_threshold_sources():
    s_star = math.ceil(DOS.dest_budget / DOS.threshold)  # 20 at the dos defaults
    for sources in (s_star // 2, s_star):
        config = replace(DOS, n_attackers=sources)
        for seed in (1, 2, 3):
            stream = _attack_stream(config, seed)
            assert len({src for src, role in zip(stream.srcs, stream.roles)
                        if role == ATTACKER}) == sources
            xtr = Xtr(_attack_xtr_config(config, defended=True), seed=seed)
            m = xtr.run(stream)
            # Criterion 6's property holds in every run: no source outgrows its cap.
            assert max(xtr.admitted_by_source_period.values()) <= DOS.threshold
            if sources < s_star:
                assert m.dropped_by_dest_limiter.legit == 0
            else:
                assert m.dropped_by_dest_limiter.legit > 0
                assert m.admission_ratio(LEGIT) < 0.5
