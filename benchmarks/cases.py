"""The benchmark's workloads: one caller each, driving xtrsim's public API.

A workload splits into a set-up, which builds configs and inputs from the
seed, and an operation, the call a researcher waits for, timed with its CSV
or trace export. Caches start empty in every operation, as the scenarios
define them. Each workload also knows how many units of simulated work an
operation did and which invariants its output files must satisfy for any seed.
"""

from __future__ import annotations

import csv
import io
from contextlib import redirect_stdout
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from xtrsim import cli, experiment, workloads

Operation = Callable[[Path], None]

# Router counters whose sums must balance in every router run, per role.
_ROLES = ("total", "legit", "attacker")
_MISS_OUTCOMES = ("suppressed_while_pending", "dropped_by_source_limiter",
                  "dropped_by_dest_limiter", "nonce_table_overflows", "map_requests_sent")

# The undefended arm of the overflow scenario, with the cache trace recorded.
REPLAY_CONFIG = """\
xtr.source_limiter_enabled=false
xtr.pending_capacity=1000
xtr.dest_budget=1000000000
xtr.cache_capacity=256
xtr.record_cache_trace=true
"""


def csv_rows(data: bytes) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(data.decode())))


def router_problems(rows: list[dict[str, str]]) -> list[str]:
    """Counter identities that hold in every router run, whatever the input."""
    problems = []
    for i, row in enumerate(rows):
        for role in _ROLES:
            def n(counter: str) -> int:
                return int(row[f"{counter}_{role}"])
            if n("packets_in") != n("cache_hits") + n("cache_misses"):
                problems.append(f"row {i}: packets_in_{role} != cache_hits + cache_misses")
            if n("cache_misses") != sum(n(c) for c in _MISS_OUTCOMES):
                problems.append(f"row {i}: cache_misses_{role} != sum of miss outcomes")
    return problems


def _packets(rows: list[dict[str, str]]) -> int:
    return sum(int(row["packets_in_total"]) for row in rows)


@dataclass(frozen=True)
class Sweep:
    """One detector sizing cell: 500k nodes, 1% attackers, 26 sketch sizes.

    The acceptance suite's dominant cost. It exercises the sketch's vector
    path and miss-count generation and never touches the router, so a router
    change should not move it. A unit is one (key, sketch size) placement.
    """

    n_nodes: int = 500_000
    attacker_fraction: float = 0.01
    iterations: int = 26
    name: str = "sweep"
    files: tuple[str, ...] = ("sweep.csv",)
    results_per_op: int = 1
    kernel: str = "array"

    def prepare(self, seed: int, work_dir: Path) -> Operation:
        config = experiment.SweepConfig(n_nodes=(self.n_nodes,),
                                        attacker_fractions=(self.attacker_fraction,),
                                        iterations=self.iterations, seeds=(seed,))

        def operation(out_dir: Path) -> None:
            rows = experiment.run_sweep(config)
            (out_dir / "sweep.csv").write_text(experiment.sweep_csv(rows))

        return operation

    def units(self, files: dict[str, bytes]) -> int:
        return sum(int(row["n_nodes"]) for row in csv_rows(files["sweep.csv"]))

    def problems(self, files: dict[str, bytes]) -> list[str]:
        # Estimates never undershoot, so no attacker is ever missed.
        return [f"sweep row {i}: fn_rate {row['fn_rate']}"
                for i, row in enumerate(csv_rows(files["sweep.csv"]))
                if float(row["fn_rate"]) != 0.0]


@dataclass(frozen=True)
class Attack:
    """A paired attack scenario (defended and undefended arms) over several seeds.

    `dos` is heavy on the source limiter and light on eviction; `scan` runs
    with the limiter off and churns a full cache under LFU-aging and LRU. One
    call covers `seeds_per_op` scenario seeds, so that the packet count of a
    call varies less from one benchmark seed to the next; benchmark seed n
    runs scenario seeds k(n-1)+1 .. kn. A unit is one packet driven through
    `Xtr.run`. `overrides` shrinks the scenario for the benchmark's own tests.
    """

    name: str
    seeds_per_op: int = 4
    overrides: tuple[tuple[str, object], ...] = ()
    kernel: str = "router"

    @property
    def files(self) -> tuple[str, ...]:
        return (f"attack_{self.name}.csv",)

    def prepare(self, seed: int, work_dir: Path) -> Operation:
        defaults = {"dos": experiment.dos_defaults, "scan": experiment.scan_defaults}
        config = replace(defaults[self.name](), **dict(self.overrides))
        k = self.seeds_per_op
        seeds = tuple(range(k * (seed - 1) + 1, k * seed + 1))
        path = self.files[0]

        def operation(out_dir: Path) -> None:
            runs = experiment.run_attack(config, seeds)
            (out_dir / path).write_text(experiment.attack_csv(runs))

        return operation

    @property
    def results_per_op(self) -> int:
        return self.seeds_per_op

    def units(self, files: dict[str, bytes]) -> int:
        return _packets(csv_rows(files[self.files[0]]))

    def problems(self, files: dict[str, bytes]) -> list[str]:
        return router_problems(csv_rows(files[self.files[0]]))


@dataclass(frozen=True)
class Replay:
    """`xtrsim replay` of the overflow scenario's packet stream.

    The only workload that parses a trace, fills the pending table, records
    the cache trace and goes through the command line. A unit is one packet.
    `overrides` shrinks the overflow scenario for the benchmark's own tests.
    """

    overrides: tuple[tuple[str, object], ...] = ()
    name: str = "replay"
    files: tuple[str, ...] = ("replay_metrics.csv", "cache_trace.txt")
    results_per_op: int = 1
    kernel: str = "replay"

    def prepare(self, seed: int, work_dir: Path) -> Operation:
        scenario = replace(experiment.overflow_defaults(), **dict(self.overrides))
        n = scenario.n_legit + scenario.n_attackers
        profile = workloads.PopulationProfile(
            n, scenario.n_attackers / n, legit_miss_range=scenario.legit_miss_range,
            attacker_miss_range=scenario.attacker_miss_range, seed=seed)
        events = workloads.gen_dos_stream(
            profile, scenario.dest_strategy, duration=scenario.duration,
            popular_pool=scenario.popular_pool, attacker_timing=scenario.attacker_timing)
        trace = work_dir / "trace.txt"
        trace.write_text(workloads.write_trace(events))
        config = work_dir / "router.conf"
        config.write_text(REPLAY_CONFIG)
        argv = ["replay", str(trace), "--config", str(config), "--seed", str(seed)]

        def operation(out_dir: Path) -> None:
            # The command prints the paths it wrote; keep them off our stdout.
            with redirect_stdout(io.StringIO()):
                code = cli.main([*argv, "--out", str(out_dir)])
            if code != 0:
                raise RuntimeError(f"xtrsim replay exited with {code}")

        return operation

    def units(self, files: dict[str, bytes]) -> int:
        return _packets(csv_rows(files["replay_metrics.csv"]))

    def problems(self, files: dict[str, bytes]) -> list[str]:
        return router_problems(csv_rows(files["replay_metrics.csv"]))


WORKLOADS = {w.name: w for w in (Sweep(), Attack("dos"), Attack("scan"), Replay())}
