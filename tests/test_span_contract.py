"""The calls that the benchmark's traced run wraps, pinned.

`benchmarks/layers.py` wraps each function at the name its caller resolves:
`Xtr.step` on the class, the stream generators in `xtrsim.experiment`'s
namespace and `read_trace` in `xtrsim.cli`'s, whose result's `len` it counts
as trace lines. A refactor that inlined or rebound one of them would read as
zero in a `--trace 1` run without failing anything else.
"""

from __future__ import annotations

from xtrsim import cli, experiment
from xtrsim.cli import main
from xtrsim.experiment import run_attack
from xtrsim.workloads import PopulationProfile, gen_dos_stream, write_trace
from xtrsim.xtr import Xtr, XtrConfig

TINY_DOS = experiment.AttackConfig(scenario="dos", n_legit=10, n_attackers=2,
                                   attacker_miss_range=(50, 100), duration=0.2)
TINY_SCAN = experiment.AttackConfig(scenario="scan", duration=2.0, scan_n_prefixes=20,
                                    scan_rate=50.0, bg_users=2, bg_destinations=10,
                                    bg_rate=5.0, cache_capacity=8, reply_latency=0.005)


def recording(calls: list, function):
    def wrapper(*args, **kwargs):
        result = function(*args, **kwargs)
        calls.append((args, result))
        return result
    return wrapper


def test_a_wrapper_of_step_on_the_class_sees_every_packet_of_run(monkeypatch):
    calls = []
    monkeypatch.setattr(Xtr, "step", recording(calls, Xtr.step))
    stream = gen_dos_stream(PopulationProfile(20, 0.2, attacker_miss_range=(20, 40), seed=5),
                            duration=0.5)
    metrics = Xtr(XtrConfig(cache_capacity=16, pending_capacity=32)).run(stream)
    assert [args[1:] for args, _ in calls] == \
        list(zip(stream.times, stream.srcs, stream.dsts, stream.roles))
    assert metrics.packets_in.total == len(stream)


def test_run_attack_finds_the_generators_in_experiments_namespace(monkeypatch):
    for name, config in (("gen_dos_stream", TINY_DOS), ("gen_scan_stream", TINY_SCAN)):
        calls = []
        monkeypatch.setattr(experiment, name, recording(calls, getattr(experiment, name)))
        runs = run_attack(config, seeds=(1, 2))
        assert len(calls) == 2
        assert [len(stream) for _, stream in calls for _ in (0, 1)] == \
            [run.metrics.packets_in.total for run in runs]


def test_replay_reads_the_trace_through_clis_name_and_its_len_counts_the_packets(
        tmp_path, monkeypatch):
    stream = gen_dos_stream(PopulationProfile(8, 0.25, attacker_miss_range=(20, 30), seed=4),
                            duration=0.2)
    trace = tmp_path / "trace.txt"
    trace.write_text("# a comment and a blank line are not packets\n\n" + write_trace(stream))
    calls = []
    monkeypatch.setattr(cli, "read_trace", recording(calls, cli.read_trace))
    out = tmp_path / "out"
    assert main(["replay", str(trace), "--out", str(out)]) == 0
    [(_, result)] = calls
    assert len(result) == len(stream)
    header, row = (out / "replay_metrics.csv").read_text().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["packets_in_total"] == str(len(stream))
