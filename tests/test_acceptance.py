"""Acceptance checks for the whole simulator, one criterion per test.

Each test prints a single verdict line (run with -s to see them inline).
Shapes of the checks:

 1. the sketch never undershoots a true count, over many random streams
 2. the sizing rule matches a 60-digit evaluation of the same formulas
 3. FP decay for 50k nodes / 1% attackers: monotone modulo one-step spikes,
    under 0.1% from 30 KB, flagged counts within their collision-model
    ceiling from 64 KB, exactly zero from the derived size s0, zero FN
 4. FP decay holds for 100k and 500k nodes and the zero-crossing size grows
    with the population
 5. FP decay for 50k nodes / 10% attackers: under 0.1% from 200 KB, within
    the ceiling from 320 KB, exactly zero from s0, zero FN
 6. with the limiter on, no source exceeds its per-window request allowance
 7. the bounded pending table never overflows with the limiter on, and is
    overwhelmed with it off
 8. the shared request budget starves legitimate sources during a flood
    unless the limiter is on
 9. both cache policies are operation-for-operation equivalent to brute-force
    reference implementations
10. LFU-with-aging keeps a better legitimate hit rate than LRU under a scan
11. every exported artifact is byte-identical across reruns

How criteria 3 and 5 bound the vanishing FP rate. Every attacker count is at
least the threshold and every legitimate count at least 1, so a legitimate
source is flagged when each of its d cells also holds an attacker; cells
without one carry a legitimate mass far below the threshold. With A attackers
and per-row hashes into w columns that has probability
q(w, d) = (1 - (1 - 1/w)^A)^d, so the flagged count summed over the seeds has
mean E = seeds * n_legit * q, and it is treated as Poisson(E). (The
(epsilon, delta) bound of Cormode & Muthukrishnan 2005 gives nothing here: at
64 KB epsilon * N is about 1030, already above the threshold.) Both bounds
below are computed from the schedule and the config alone, never from the
sweep's output:

 (a) ceiling: at each size from the criterion's start size (64 KB for
     criterion 3, 320 KB for criterion 5), the flagged count is at most the
     upper 1e-4 Poisson quantile of E (18 flagged at 64 KB, where E ~ 6.7);
 (b) vanishes: the mean is exactly zero from s0, the smallest schedule size
     whose E summed with every larger size's is at most 0.01 (s0 = 132 KB for
     50k / 1%, 552 KB for 50k / 10%), so a correct sketch fails (b) with
     probability at most 1%.

A literal zero at 64 KB is not promised: about 6.7 flagged sources are expected
there over the ten seeds, and 3 are measured.
"""

from __future__ import annotations

import itertools
import math
import random
from time import perf_counter

import numpy as np
import pytest

from xtrsim.cache import EidPrefix, MapCache
from xtrsim.cli import main
from xtrsim.cms import CELL_MAX, CountMinSketch, SketchDims, SketchParams, dims_from_params
from xtrsim.experiment import (
    DEFAULT_SEEDS,
    AttackConfig,
    SweepConfig,
    _attack_stream,
    _attack_xtr_config,
    attack_csv,
    attack_summary_csv,
    dos_defaults,
    overflow_defaults,
    run_attack,
    run_sweep,
    scan_defaults,
    sweep_csv,
    sweep_schedule,
)
from xtrsim.workloads import LEGIT, PopulationProfile, gen_dos_stream, write_trace
from xtrsim.xtr import Xtr

from cache_reference import ReferenceCache
from test_cache import EQUIV_CONFIGS, drive_pair, impl_state
from test_cms import SIZING_GRID, oracle_dims


def verdict(num: int, desc: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"\n[criterion {num:>2}] {desc}{suffix}: {'PASS' if ok else 'FAIL'}")


def mean_fp_by_size(rows, n_nodes: int, fraction: float) -> list[tuple[int, float]]:
    """(size_bytes, mean fp over seeds) in sweep-iteration order."""
    acc: dict[tuple[int, int, int], list[float]] = {}
    for r in rows:
        if r.n_nodes == n_nodes and r.attacker_fraction == fraction:
            acc.setdefault((r.w, r.d, r.size_bytes), []).append(r.false_positive_rate)
    return [(size, sum(v) / len(v)) for (_, _, size), v in sorted(acc.items())]


def one_step_violations(means: list[tuple[int, float]]) -> list[int]:
    """Indices where the mean rises and fails to drop back within one step."""
    m = [v for _, v in means]
    bad = []
    for i in range(len(m) - 1):
        if m[i + 1] > m[i] and (i + 2 >= len(m) or m[i + 2] > m[i]):
            bad.append(i + 1)
    return bad


def zero_crossing(means: list[tuple[int, float]]) -> int | None:
    """Smallest size from which every mean onward is exactly zero."""
    for i, (size, _) in enumerate(means):
        if all(v == 0.0 for _, v in means[i:]):
            return size
    return None


# Chance that a correct sketch breaks one size's ceiling (a), and the whole
# exact-zero run from s0 (b); see the module docstring.
CEILING_TAIL = 1e-4
VANISH_TAIL = 0.01


def expected_flagged(w: int, d: int, n_legit: int, n_attackers: int,
                     n_seeds: int, config: SweepConfig) -> float:
    """Expected flagged legitimate sources, summed over n_seeds sweep cells.

    A legitimate source is flagged when each of its d cells also holds one of
    the n_attackers, which has probability q = (1 - (1 - 1/w)^A)^d under
    per-row hashing. That needs an attacker alone to reach the threshold and
    the legitimate source to add at least 1 on top, below the cell cap.
    """
    assert config.attacker_miss_range[0] >= config.threshold
    assert config.legit_miss_range[0] >= 1
    assert CELL_MAX > config.threshold
    q = (1.0 - (1.0 - 1.0 / w) ** n_attackers) ** d
    return n_seeds * n_legit * q


def poisson_upper_quantile(mean: float, tail: float) -> int:
    """Smallest k with P(X > k) <= tail for X ~ Poisson(mean)."""
    k, cdf = -1, 0.0
    while 1.0 - cdf > tail:
        k += 1
        cdf += math.exp(k * math.log(mean) - mean - math.lgamma(k + 1))
    return k


def vanishing_size(expected: list[tuple[int, float]], tail: float) -> int | None:
    """Smallest size whose expected count, plus every larger size's, is <= tail."""
    s0, remaining = None, 0.0
    for size, e in reversed(expected):
        remaining += e
        if remaining > tail:
            break
        s0 = size
    return s0


def fp_tail_checks(rows, config: SweepConfig, n_nodes: int, fraction: float,
                   ceiling_from: int) -> tuple[bool, bool, str]:
    """Checks (a) and (b) of the module docstring for one (n_nodes, fraction).

    Returns (within ceiling, vanishes from s0, detail for the verdict line).
    """
    n_attackers = PopulationProfile(n_nodes, fraction).n_attackers
    n_legit = n_nodes - n_attackers
    expected = [(SketchDims(w, d).memory_bytes(),
                 expected_flagged(w, d, n_legit, n_attackers, len(config.seeds), config))
                for _, w, d in sweep_schedule(config)]
    flagged = dict.fromkeys((size for size, _ in expected), 0)
    for r in rows:
        if r.n_nodes == n_nodes and r.attacker_fraction == fraction:
            flagged[r.size_bytes] += round(r.false_positive_rate * n_legit)
    ceilings = [(size, e, poisson_upper_quantile(e, CEILING_TAIL))
                for size, e in expected if size >= ceiling_from]
    within = all(flagged[size] <= c for size, _, c in ceilings)
    s0 = vanishing_size(expected, VANISH_TAIL)
    vanishes = s0 is not None and all(flagged[size] == 0
                                      for size, _ in expected if size >= s0)
    size, e, c = ceilings[0]
    detail = (f"<=ceiling from {ceiling_from // 1000}KB={within} "
              f"({size // 1000}KB: {flagged[size]} flagged, expected {e:.2f}, "
              f"ceiling {c}), zero from s0={s0 // 1000 if s0 else None}KB={vanishes}")
    return within, vanishes, detail


# ------------------------------------------------------------------ fixtures

SWEEP_50K = SweepConfig(n_nodes=(50_000,), attacker_fractions=(0.01,))
SWEEP_50K_HEAVY = SweepConfig(n_nodes=(50_000,), attacker_fractions=(0.10,))


@pytest.fixture(scope="module")
def sweep_50k():
    t0 = perf_counter()
    rows = run_sweep(SWEEP_50K)
    return rows, perf_counter() - t0


@pytest.fixture(scope="module")
def sweep_50k_heavy():
    t0 = perf_counter()
    rows = run_sweep(SWEEP_50K_HEAVY)
    return rows, perf_counter() - t0


@pytest.fixture(scope="module")
def sweep_big():
    t0 = perf_counter()
    rows = run_sweep(SweepConfig(n_nodes=(100_000, 500_000),
                                 attacker_fractions=(0.01,)))
    return rows, perf_counter() - t0


@pytest.fixture(scope="module")
def dos_pairs():
    """Per seed: the defended xTR instance plus both arms' metrics."""
    config = dos_defaults()
    pairs = []
    for seed in DEFAULT_SEEDS:
        stream = _attack_stream(config, seed)
        on = Xtr(_attack_xtr_config(config, defended=True), seed=seed)
        on_metrics = on.run(stream)
        off = Xtr(_attack_xtr_config(config, defended=False), seed=seed)
        off_metrics = off.run(stream)
        pairs.append((seed, on, on_metrics, off_metrics))
    return pairs


@pytest.fixture(scope="module")
def overflow_runs():
    return run_attack(overflow_defaults(), DEFAULT_SEEDS)


@pytest.fixture(scope="module")
def scan_runs():
    return run_attack(scan_defaults(), DEFAULT_SEEDS)


# ------------------------------------------------------------------ criteria

def test_criterion_01_estimates_never_undershoot():
    t0 = perf_counter()
    streams = 0
    for i in range(1000):
        rng = np.random.default_rng(70_000 + i)
        dims = SketchDims(int(rng.integers(8, 257)), int(rng.integers(1, 5)))
        n_keys = int(rng.integers(20, 400))
        keys = rng.integers(0, 1 << 40, size=n_keys, dtype=np.int64)
        counts = rng.integers(1, 50, size=n_keys, dtype=np.int64)
        sketch = CountMinSketch(dims, seed=i)
        sketch.add_counts(keys, counts)
        true: dict[int, int] = {}
        for k, c in zip(keys.tolist(), counts.tolist()):
            true[k] = true.get(k, 0) + c
        uniq = np.fromiter(true.keys(), dtype=np.int64)
        truth = np.fromiter((true[int(k)] for k in uniq), dtype=np.int64)
        estimates = sketch.estimate_many(uniq)
        assert np.all(estimates >= truth), f"undershoot in stream {i}"
        streams += 1
    elapsed = perf_counter() - t0
    ok = streams == 1000 and elapsed < 60.0
    verdict(1, "no estimate below its true count",
            ok, f"{streams} random streams, {elapsed:.1f}s")
    assert ok


def test_criterion_02_sizing_matches_high_precision_oracle():
    mismatches = []
    for epsilon, delta in SIZING_GRID:
        dims = dims_from_params(SketchParams(epsilon, delta))
        if (dims.width, dims.depth) != oracle_dims(epsilon, delta):
            mismatches.append((epsilon, delta))
    pinned_ok = (
        dims_from_params(SketchParams(0.002, 0.5)) == SketchDims(1000, 1)
        and dims_from_params(SketchParams(0.002, 0.875)) == SketchDims(1000, 3)
        and SketchDims(1000, 1).memory_bytes() == 2000
        and SketchDims(7000, 4).memory_bytes() == 56_000)
    ok = not mismatches and pinned_ok
    verdict(2, "sizing rule agrees with 60-digit evaluation",
            ok, f"{len(SIZING_GRID)} grid points")
    assert ok, mismatches


def test_criterion_03_fp_decay_small_population(sweep_50k):
    rows, elapsed = sweep_50k
    means = mean_fp_by_size(rows, 50_000, 0.01)
    spikes = one_step_violations(means)
    small_from_30k = all(v <= 0.001 for s, v in means if s >= 30_000)
    within, vanishes, tail = fp_tail_checks(rows, SWEEP_50K, 50_000, 0.01, 64_000)
    fn_zero = all(r.false_negative_rate == 0.0 for r in rows)
    in_time = elapsed < 120.0
    ok = not spikes and small_from_30k and within and vanishes and fn_zero and in_time
    verdict(3, "50k nodes / 1% attackers: fp decays and vanishes", ok,
            f"spikes={spikes or 'none'}, <=0.1% from 30KB={small_from_30k}, "
            f"{tail}, fn==0={fn_zero}, {elapsed:.1f}s")
    assert ok


def test_criterion_04_fp_decay_larger_populations(sweep_50k, sweep_big):
    rows_small, _ = sweep_50k
    rows_big, elapsed = sweep_big
    crossings = {}
    reached = {}
    for n in (100_000, 500_000):
        means = mean_fp_by_size(rows_big, n, 0.01)
        reached[n] = any(v <= 0.001 for _, v in means)
        crossings[n] = zero_crossing(means)
    crossings[50_000] = zero_crossing(mean_fp_by_size(rows_small, 50_000, 0.01))
    ordered = [crossings[n] for n in (50_000, 100_000, 500_000)]
    ok = (all(reached.values())
          and all(c is not None for c in ordered)
          and ordered == sorted(ordered)
          and elapsed < 600.0)
    verdict(4, "100k/500k nodes: fp vanishes, zero point grows with n", ok,
            f"zero crossings {ordered} bytes, {elapsed:.1f}s")
    assert ok


def test_criterion_05_fp_decay_heavy_attack(sweep_50k_heavy):
    rows, elapsed = sweep_50k_heavy
    means = mean_fp_by_size(rows, 50_000, 0.10)
    small_from_200k = all(v <= 0.001 for s, v in means if s >= 200_000)
    within, vanishes, tail = fp_tail_checks(rows, SWEEP_50K_HEAVY, 50_000, 0.10,
                                            320_000)
    fn_zero = all(r.false_negative_rate == 0.0 for r in rows)
    in_time = elapsed < 120.0
    ok = small_from_200k and within and vanishes and fn_zero and in_time
    verdict(5, "50k nodes / 10% attackers: fp decays and vanishes", ok,
            f"<=0.1% from 200KB={small_from_200k}, {tail}, "
            f"fn==0={fn_zero}, {elapsed:.1f}s")
    assert ok


def test_criterion_06_per_source_admission_cap(dos_pairs):
    threshold = dos_defaults().threshold
    worst = 0
    for _, xtr_on, _, _ in dos_pairs:
        worst = max(worst, max(xtr_on.admitted_by_source_period.values()))
    ok = worst <= threshold
    verdict(6, "limiter caps each source's requests per window", ok,
            f"max admitted {worst} <= {threshold}, {len(dos_pairs)} seeds")
    assert ok


def test_criterion_07_pending_table_protected(overflow_runs):
    on = [r for r in overflow_runs if r.defense == "limiter_on"]
    off = [r for r in overflow_runs if r.defense == "limiter_off"]
    on_events = [r.overflow_events for r in on]
    off_events = [r.overflow_events for r in off]
    ok = (len(on) == len(off) == len(DEFAULT_SEEDS)
          and all(e == 0 for e in on_events)
          and all(e > 0 for e in off_events))
    verdict(7, "pending table overflows only without the limiter", ok,
            f"on max {max(on_events)}, off min {min(off_events)}")
    assert ok


def test_criterion_08_victim_admission_restored(dos_pairs):
    on_ratios = [m_on.admission_ratio(LEGIT) for _, _, m_on, _ in dos_pairs]
    off_ratios = [m_off.admission_ratio(LEGIT) for _, _, _, m_off in dos_pairs]
    ok = all(r == 1.0 for r in on_ratios) and all(r < 1.0 for r in off_ratios)
    verdict(8, "flooded budget starves victims unless limited", ok,
            f"defended min {min(on_ratios)}, undefended max {max(off_ratios):.3f}")
    assert ok


def _enumerate_equivalence(prefixes, lookups, cfg, alphabet, capacity,
                           max_len) -> int:
    checked = 0
    dts = (0.3, 0.3, 1.1)
    for length in range(1, max_len + 1):
        for seq in itertools.product(alphabet, repeat=length):
            cache = MapCache(capacity, **cfg)
            ref = ReferenceCache(capacity, **cfg)
            now = 0.0
            for k, op in enumerate(seq):
                now += dts[k % len(dts)]
                kind, idx = op
                if kind == "lookup":
                    assert cache.lookup(lookups[idx], now) == \
                        ref.lookup(lookups[idx], now)
                elif kind == "install":
                    prefix = prefixes[idx]
                    impl_dup = ref_dup = False
                    got = want = None
                    try:
                        got = cache.install(prefix, (idx + 1,), now)
                    except ValueError as exc:
                        assert "already cached" in str(exc)
                        impl_dup = True
                    try:
                        want = ref.install(prefix, (idx + 1,), now)
                    except ValueError as exc:
                        assert "already cached" in str(exc)
                        ref_dup = True
                    assert impl_dup == ref_dup and got == want
                else:
                    cache.age(now)
                    ref.age(now)
                assert impl_state(cache) == ref.state()
            checked += 1
    return checked


def test_criterion_09_cache_policies_match_reference():
    t0 = perf_counter()
    prefixes = (EidPrefix.of(0x100, 120), EidPrefix.host(0x123),
                EidPrefix.host(0x2), EidPrefix.host(0x3))
    lookups = (0x145, 0x123, 0x2, 0x3)  # one target inside each prefix

    configs = (
        (dict(policy="lru"), False),
        (dict(policy="lfu-aging", age_interval=1.0, age_mode="halve"), True),
        (dict(policy="lfu-aging", age_interval=1.0, age_mode="zero"), True),
    )
    sequences = 0
    for cfg, can_age in configs:
        alphabet = [("lookup", i) for i in range(3)] + \
                   [("install", i) for i in range(3)]
        if can_age:
            alphabet.append(("age", 0))
        for capacity in (1, 2):
            sequences += _enumerate_equivalence(prefixes, lookups, cfg,
                                                alphabet, capacity, max_len=5)
    # Wider alphabet (four prefixes, nested match) at shorter lengths.
    wide = [("lookup", i) for i in range(4)] + \
           [("install", i) for i in range(4)] + [("age", 0)]
    sequences += _enumerate_equivalence(
        prefixes, lookups, dict(policy="lfu-aging", age_interval=1.0,
                                age_mode="halve"), wide, 2, max_len=4)

    traces = 0
    for seed in range(100):
        rng = random.Random(52_000 + seed)
        cfg = EQUIV_CONFIGS[seed % len(EQUIV_CONFIGS)]
        capacity = rng.randint(1, 4)
        drive_pair(MapCache(capacity, **cfg), ReferenceCache(capacity, **cfg),
                   rng, ops=400)
        traces += 1
    elapsed = perf_counter() - t0
    ok = sequences > 100_000 and traces == 100
    verdict(9, "cache equals brute-force reference", ok,
            f"{sequences} enumerated sequences + {traces} random traces, "
            f"{elapsed:.1f}s")
    assert ok


def test_criterion_10_aging_beats_lru_under_scan(scan_runs):
    by_seed: dict[int, dict[str, float]] = {}
    for r in scan_runs:
        by_seed.setdefault(r.seed, {})[r.defense] = r.legit_hit_rate
    wins = sum(1 for pair in by_seed.values()
               if pair["lfu_aging"] >= pair["lru"])
    gaps = [pair["lfu_aging"] - pair["lru"] for pair in by_seed.values()]
    ok = wins >= 9 and len(by_seed) == len(DEFAULT_SEEDS)
    verdict(10, "aging policy preserves hit rate under scans", ok,
            f"{wins}/{len(by_seed)} seeds, mean gap {sum(gaps) / len(gaps):+.3f}")
    assert ok


def test_criterion_11_reruns_byte_identical(tmp_path):
    small_sweep = SweepConfig(n_nodes=(2000,), attacker_fractions=(0.05,),
                              iterations=8, seeds=(1, 2, 3))
    sweep_same = sweep_csv(run_sweep(small_sweep)) == sweep_csv(run_sweep(small_sweep))

    tiny_dos = AttackConfig(scenario="dos", n_legit=10, n_attackers=2,
                            attacker_miss_range=(50, 100), threshold=10,
                            limiter_w=64, limiter_d=2, dest_budget=300,
                            pending_capacity=500, duration=0.2)
    runs_a = run_attack(tiny_dos, seeds=(1, 2))
    runs_b = run_attack(tiny_dos, seeds=(1, 2))
    attack_same = (attack_csv(runs_a) == attack_csv(runs_b)
                   and attack_summary_csv(runs_a) == attack_summary_csv(runs_b))

    trace = tmp_path / "trace.txt"
    profile = PopulationProfile(8, 0.25, attacker_miss_range=(20, 30), seed=4)
    trace.write_text(write_trace(gen_dos_stream(profile, duration=0.2)))
    conf = tmp_path / "conf.txt"
    conf.write_text("xtr.record_cache_trace=true\nxtr.reply_latency=0.01\n")
    replay_files = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["replay", str(trace), "--config", str(conf),
                     "--out", str(out), "--seed", "7"]) == 0
        replay_files.append(((out / "replay_metrics.csv").read_bytes(),
                             (out / "cache_trace.txt").read_bytes()))
    replay_same = replay_files[0] == replay_files[1]

    ok = sweep_same and attack_same and replay_same
    verdict(11, "all exports byte-identical across reruns", ok,
            f"sweep={sweep_same}, attack={attack_same}, replay={replay_same}")
    assert ok
