"""Experiment drivers: detector sizing sweep, attack scenarios, output files.

The sweep measures how the sketch-backed per-source limiter's false-positive
rate falls as the sketch grows, against populations where a known subset of
sources generates heavy miss counts. Attack scenarios run the full router
model twice per seed (defense on/off) so the effect of the defense is a
paired comparison on identical traffic; the two arms of a seed run at once,
the undefended one in a forked child process.
"""

from __future__ import annotations

import hashlib
import math
import os
import pickle
import signal
from dataclasses import astuple, dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .cache import (AGE_MODES, POLICIES, check_choice, check_count, check_positive, check_type,
                    window_index)
from .cms import MAX_WIDTH, SketchDims, check_reachable, flagged_by_dims
from .limiter import BACKENDS, LimiterConfig
from .workloads import (ATTACKER_TIMINGS, DOS_STRATEGY_BASES, PopulationProfile,
                        BackgroundProfile, ScanProfile, LEGIT, gen_dos_stream, gen_miss_counts,
                        gen_scan_stream, scan_prefixes)
from .xtr import Xtr, XtrConfig, XtrMetrics


DEFAULT_SEEDS = tuple(range(1, 11))

SWEEP_CSV_HEADER = "n_nodes,attacker_fraction,w,d,size_bytes,seed,fp_rate,fn_rate"


@dataclass(frozen=True)
class SweepConfig:
    """Grid for the detector sizing sweep.

    Iteration i (1-based) uses width = w_start + (i-1)*w_step and depth
    ceil(i/2), which grows by one after iterations 2, 4, 6, ...
    """

    n_nodes: tuple[int, ...] = (50_000, 100_000, 500_000)
    attacker_fractions: tuple[float, ...] = (0.01, 0.10)
    threshold: int = 1000
    w_start: int = 1000
    w_step: int = 1000
    iterations: int = 26
    legit_miss_range: tuple[int, int] = (1, 10)
    attacker_miss_range: tuple[int, int] = (1000, 10000)
    seeds: tuple[int, ...] = DEFAULT_SEEDS

    def __post_init__(self) -> None:
        for name in ("n_nodes", "attacker_fractions", "seeds"):
            check_type(name, values := getattr(self, name), tuple)
            if not values:
                raise ValueError(f"{name} must be non-empty")
        for name, low in (("n_nodes", 1), ("seeds", 0)):
            for value in getattr(self, name):
                check_count(name, value, low)
        for f in self.attacker_fractions:
            if type(f) not in (int, float) or not 0 <= f <= 1:
                raise ValueError(f"attacker_fractions must each be in [0, 1], got {f!r}")
        for name, low in (("threshold", 1), ("w_start", 1), ("w_step", 0), ("iterations", 1)):
            check_count(name, getattr(self, name), low)
        last_width = self.w_start + (self.iterations - 1) * self.w_step
        if last_width > MAX_WIDTH:
            raise ValueError(f"the last width, w_start + (iterations - 1) * w_step = "
                             f"{last_width}, is above the sketch's widest row {MAX_WIDTH}")
        check_reachable(self.threshold)
        # The profile checks the miss ranges, as AttackConfig's does.
        PopulationProfile(1, 0.0, legit_miss_range=self.legit_miss_range,
                          attacker_miss_range=self.attacker_miss_range)


@dataclass(frozen=True)
class SweepRow:
    n_nodes: int
    attacker_fraction: float
    w: int
    d: int
    size_bytes: int
    seed: int
    false_positive_rate: float
    false_negative_rate: float


def sweep_schedule(config: SweepConfig) -> list[tuple[int, int, int]]:
    """(iteration, width, depth) triples the sweep will visit."""
    return [(i, config.w_start + (i - 1) * config.w_step, math.ceil(i / 2))
            for i in range(1, config.iterations + 1)]


def run_sweep(config: SweepConfig) -> list[SweepRow]:
    """Sweep sketch sizes over every (population, fraction, seed) cell.

    Each cell draws its miss counts once and reuses them across all sketch
    sizes, mirroring a single observed traffic sample being fed to detectors
    of different sizes. A source is flagged when its estimate exceeds the
    threshold. The false-positive rate is flagged legitimate sources over all
    legitimate sources; the false-negative rate counts sources whose true
    count exceeds the threshold yet whose estimate does not, over all
    attackers, and is structurally zero because estimates never undershoot.
    """
    dims_list = [SketchDims(width, depth) for _, width, depth in sweep_schedule(config)]
    rows = []
    for n in config.n_nodes:
        for fraction in config.attacker_fractions:
            for seed in config.seeds:
                profile = PopulationProfile(
                    n, fraction, legit_miss_range=config.legit_miss_range,
                    attacker_miss_range=config.attacker_miss_range, seed=seed)
                draw = gen_miss_counts(profile)
                n_attackers = int(draw.attacker_mask.sum())
                n_legit = n - n_attackers
                legit = np.packbits(~draw.attacker_mask)
                oracle = np.packbits(draw.counts > config.threshold)
                flagged = flagged_by_dims(draw.sources, draw.counts, dims_list, config.threshold,
                                          seed=seed)
                for dims, bits in zip(dims_list, flagged):
                    false_pos = int(np.count_nonzero(np.unpackbits(bits & legit)))
                    false_neg = int(np.count_nonzero(np.unpackbits(oracle & ~bits)))
                    fp_rate = false_pos / n_legit if n_legit else 0.0
                    fn_rate = false_neg / n_attackers if n_attackers else 0.0
                    rows.append(SweepRow(n, fraction, dims.width, dims.depth,
                                         dims.memory_bytes(), seed, fp_rate, fn_rate))
    rows.sort(key=lambda r: (r.n_nodes, r.attacker_fraction, r.w, r.d,
                             r.size_bytes, r.seed))
    return rows


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """The one table format: the header, then one line per row, each value
    written by `str`, which gives a float the shortest text that reads back
    as it (as `repr` does) and a numpy scalar its plain number."""
    return "".join(",".join(map(str, row)) + "\n" for row in (header, *rows))


def sweep_csv(rows: Sequence[SweepRow]) -> str:
    return csv_text(SWEEP_CSV_HEADER.split(","), map(astuple, rows))


# --- attack scenarios -------------------------------------------------------

@dataclass(frozen=True)
class AttackConfig:
    """Knobs shared by the dos / overflow / scan scenarios.

    Scenario factories pick defaults that make the attack land when the
    defense is off and stay harmless when it is on.
    """

    scenario: str = "dos"
    n_legit: int = 100
    n_attackers: int = 10
    legit_miss_range: tuple[int, int] = (1, 10)
    attacker_miss_range: tuple[int, int] = (1000, 10000)
    duration: float = 1.0
    popular_pool: int = 50
    dest_strategy: str = "unallocated"
    attacker_timing: str = "uniform"
    threshold: int = 100
    limiter_period: float = 1.0
    limiter_backend: str = "cms"
    limiter_w: int = 1000
    limiter_d: int = 4
    dest_budget: int = 2000
    dest_period: float = 1.0
    pending_capacity: int = 100_000
    reply_latency: float = 0.010
    cache_capacity: int = 256
    cache_policy: str = "lru"
    age_interval: float = 2.0
    age_mode: str = "halve"
    # scan scenario shape
    scan_n_prefixes: int = 1000
    scan_rate: float = 400.0
    reshuffle_each_pass: bool = True
    bg_users: int = 25
    bg_destinations: int = 300
    bg_zipf_exponent: float = 1.0
    bg_rate: float = 20.0

    def __post_init__(self) -> None:
        # Also the fields this scenario never reads: config_hash covers them all.
        for name, allowed in (("scenario", SCENARIOS), ("dest_strategy", DOS_STRATEGY_BASES),
                              ("attacker_timing", ATTACKER_TIMINGS), ("cache_policy", POLICIES),
                              ("age_mode", AGE_MODES), ("limiter_backend", BACKENDS),
                              ("reshuffle_each_pass", (True, False))):
            check_choice(name, getattr(self, name), allowed)
        for name in ("n_legit", "scan_n_prefixes", "popular_pool", "bg_users",
                     "bg_destinations", "limiter_w", "limiter_d"):
            check_count(name, getattr(self, name), 1)
        check_count("n_attackers", self.n_attackers, 0)
        for name in ("duration", "limiter_period", "dest_period", "reply_latency",
                     "age_interval", "scan_rate", "bg_rate"):
            check_positive(name, getattr(self, name))
        for name in ("scan_rate", "bg_rate"):  # the packet totals
            check_positive(f"{name} * duration", getattr(self, name) * self.duration)
        for name in ("limiter_period", "dest_period", "age_interval"):  # up to the last reply
            try:
                window_index(self.duration + self.reply_latency, getattr(self, name))
            except ValueError as exc:
                raise ValueError(f"{name} is too small: {exc}") from None
        # Each profile checks its own fields; ScanProfile would allocate the prefixes.
        self.population(seed=0)
        self.background(seed=0)
        _attack_xtr_config(self, defended=True)  # the router's own checks, by name

    def population(self, seed: int) -> PopulationProfile:
        n = self.n_legit + self.n_attackers
        return PopulationProfile(n, self.n_attackers / n, legit_miss_range=self.legit_miss_range,
                                 attacker_miss_range=self.attacker_miss_range, seed=seed)

    def background(self, seed: int) -> BackgroundProfile:
        return BackgroundProfile(self.bg_users, self.bg_destinations,
                                 zipf_exponent=self.bg_zipf_exponent, packet_rate=self.bg_rate,
                                 duration=self.duration, seed=seed)


def dos_defaults() -> AttackConfig:
    """Miss flood against a shared Map-Request budget."""
    return AttackConfig(scenario="dos")


def overflow_defaults() -> AttackConfig:
    """Nonce-table exhaustion: generous budget, bounded pending table.

    Admitted misses sit in the pending table for one reply latency, so the
    attackers' admitted rate times the latency is the high-water mark; with
    the limiter off it clears the table size, with it on it cannot get near.
    """
    return AttackConfig(scenario="overflow", attacker_miss_range=(5000, 10000),
                        threshold=50, dest_budget=1_000_000_000,
                        pending_capacity=1000, reply_latency=0.040)


def scan_defaults() -> AttackConfig:
    """Prefix scan that churns the map-cache; the defense is the aging policy."""
    return AttackConfig(scenario="scan", duration=20.0, dest_budget=1_000_000_000,
                        pending_capacity=100_000, reply_latency=0.005,
                        cache_capacity=128)


# scenario -> (default config, defended arm's label, undefended arm's label, headline metric)
SCENARIOS = {
    "dos": (dos_defaults, "limiter_on", "limiter_off", "victim_admission_ratio"),
    "overflow": (overflow_defaults, "limiter_on", "limiter_off", "overflow_events"),
    "scan": (scan_defaults, "lfu_aging", "lru", "legit_hit_rate"),
}


@dataclass(frozen=True)
class AttackRun:
    scenario: str
    defense: str
    seed: int
    config_hash: str
    metrics: XtrMetrics
    victim_admission_ratio: float
    legit_hit_rate: float
    overflow_events: int


def _attack_xtr_config(config: AttackConfig, *, defended: bool) -> XtrConfig:
    limiter = LimiterConfig(threshold=config.threshold, period=config.limiter_period,
                            backend=config.limiter_backend,
                            sketch_dims=SketchDims(config.limiter_w, config.limiter_d))
    # In the scan scenario the defence is the aging cache, not the limiter.
    scan = config.scenario == "scan"
    policy = ("lfu-aging" if defended else "lru") if scan else config.cache_policy
    return XtrConfig(cache_capacity=config.cache_capacity, cache_policy=policy,
                     age_interval=config.age_interval, age_mode=config.age_mode,
                     source_limiter_enabled=defended and not scan, limiter=limiter,
                     dest_budget=config.dest_budget, dest_period=config.dest_period,
                     pending_capacity=config.pending_capacity,
                     reply_latency=config.reply_latency)


def _attack_stream(config: AttackConfig, seed: int):
    if config.scenario == "scan":
        scan = ScanProfile(scan_prefixes(config.scan_n_prefixes), config.scan_rate,
                           config.duration, reshuffle_each_pass=config.reshuffle_each_pass,
                           seed=seed)
        return gen_scan_stream(scan, config.background(seed))
    return gen_dos_stream(config.population(seed), config.dest_strategy,
                          duration=config.duration, popular_pool=config.popular_pool,
                          attacker_timing=config.attacker_timing)


def config_hash(config: object) -> str:
    """Short digest of the config's repr, written beside every output row."""
    return hashlib.sha256(repr(config).encode()).hexdigest()[:12]


def _both_arms(arm: Callable[[bool], XtrMetrics]) -> tuple[XtrMetrics, XtrMetrics]:
    """`arm(True)` run here and `arm(False)` in a forked child at the same time.

    The child runs only `Xtr.run`, `pickle.dumps` and `os.write`, so it takes no
    lock another thread could hold, and it leaves by `os._exit`: no atexit
    handler, no flush of an inherited buffer. Its failure, or its silence, is a
    `ValueError` here; a raise in this process's arm kills and reaps it first.
    """
    if not hasattr(os, "fork"):
        return arm(True), arm(False)
    read_fd, write_fd = os.pipe()
    if (pid := os.fork()) == 0:
        try:
            os.close(read_fd)
            try:
                reply = (True, arm(False))
            except Exception as exc:  # sent to the caller, which raises it
                reply = (False, f"{type(exc).__name__}: {exc}")
            os.write(write_fd, pickle.dumps(reply))
        finally:
            os._exit(0)
    os.close(write_fd)
    with open(read_fd, "rb") as pipe:
        try:
            defended, data = arm(True), pipe.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code or not data:
        raise ValueError(f"the undefended arm's process exited with {code} and sent nothing")
    ok, undefended = pickle.loads(data)
    if not ok:
        raise ValueError(f"the undefended arm failed: {undefended}")
    return defended, undefended


def run_attack(config: AttackConfig, seeds: Sequence[int] = DEFAULT_SEEDS) -> list[AttackRun]:
    """Run the scenario defended and undefended on identical traffic per seed:
    the defended arm here, the undefended one at once in a child (`_both_arms`)."""
    if type(seeds) not in (tuple, list) or not seeds:
        raise ValueError(f"seeds must be non-empty and a tuple or list, got {seeds!r}")
    for seed in seeds:
        check_count("seeds", seed, 0)
    digest = config_hash(config)
    _, on_label, off_label, _ = SCENARIOS[config.scenario]
    runs = []
    for seed in seeds:
        stream = _attack_stream(config, seed)

        def arm(defended: bool) -> XtrMetrics:
            return Xtr(_attack_xtr_config(config, defended=defended), seed=seed).run(stream)

        for label, metrics in zip((on_label, off_label), _both_arms(arm)):
            runs.append(AttackRun(
                scenario=config.scenario, defense=label, seed=seed, config_hash=digest,
                metrics=metrics,
                victim_admission_ratio=metrics.admission_ratio(LEGIT),
                legit_hit_rate=metrics.hit_rate(LEGIT),
                overflow_events=metrics.nonce_table_overflows.total))
        del stream  # freed before the next seed's stream is generated
    return runs


def attack_csv(runs: Sequence[AttackRun]) -> str:
    """One row per run: identity, all counters, then the scenario summaries."""
    if not runs:
        raise ValueError("no runs to export")
    header = ["scenario", "defense", "seed", "config_hash", *runs[0].metrics.as_row(),
              "victim_admission_ratio", "legit_hit_rate", "overflow_events"]
    return csv_text(header, (
        [run.scenario, run.defense, run.seed, run.config_hash, *run.metrics.as_row().values(),
         run.victim_admission_ratio, run.legit_hit_rate, run.overflow_events]
        for run in sorted(runs, key=lambda r: (r.scenario, r.seed, r.defense))))


def attack_summary_csv(runs: Sequence[AttackRun]) -> str:
    """Per-seed defended/undefended pairs of one scenario's headline metric."""
    if not runs:
        raise ValueError("no runs to export")
    scenario = runs[0].scenario
    _, on_label, off_label, metric = SCENARIOS[scenario]
    by_seed: dict[int, dict[tuple[str, str], AttackRun]] = {}
    for run in runs:
        by_seed.setdefault(run.seed, {})[run.scenario, run.defense] = run
    for seed, arms in by_seed.items():
        if arms.keys() != {(scenario, on_label), (scenario, off_label)}:
            raise ValueError(f"seed {seed} needs a {on_label} and a {off_label} run of "
                             f"{scenario} to pair, got {sorted(arms)}")
    return csv_text(["scenario", "seed", "metric", on_label, off_label], (
        [scenario, seed, metric, getattr(by_seed[seed][scenario, on_label], metric),
         getattr(by_seed[seed][scenario, off_label], metric)] for seed in sorted(by_seed)))


def replay_csv(seed: int, config: XtrConfig, metrics: XtrMetrics) -> str:
    """The replay's one row: its seed, the router config's hash, then all counters."""
    row = metrics.as_row()
    return csv_text(["seed", "config_hash", *row], [[seed, config_hash(config), *row.values()]])


# --- the plot script written beside sweep.csv -------------------------------

PLOT_SCRIPT = '''\
#!/usr/bin/env python3
"""Plot mean false-positive rate against sketch size from sweep.csv.

One curve per network size, one figure per attacker fraction; the x axis is
sketch memory in KB (1 KB = 1000 bytes), the y axis the mean FP rate in
percent over seeds.
"""
import csv
from collections import defaultdict
from pathlib import Path

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

here = Path(__file__).parent
cells = defaultdict(list)
with open(here / "sweep.csv", newline="") as fh:
    for row in csv.DictReader(fh):
        key = (float(row["attacker_fraction"]), int(row["n_nodes"]),
               int(row["size_bytes"]))
        cells[key].append(float(row["fp_rate"]))

fractions = sorted({k[0] for k in cells})
for fraction in fractions:
    fig, ax = plt.subplots()
    sizes_by_n = defaultdict(list)
    for (frac, n, size), rates in sorted(cells.items()):
        if frac == fraction:
            sizes_by_n[n].append((size / 1000.0, 100.0 * sum(rates) / len(rates)))
    for n, points in sorted(sizes_by_n.items()):
        xs, ys = zip(*points)
        ax.plot(xs, ys, marker="o", label=f"{n} nodes")
    ax.set_xlabel("sketch size (KB)")
    ax.set_ylabel("false positive rate (%)")
    ax.set_title(f"attacker fraction {fraction:g}")
    ax.legend()
    out = here / f"fp_vs_size_frac{fraction:g}.png"
    fig.savefig(out, dpi=150)
    print(out)
'''
