"""Count the Python bytecodes `Xtr.run` executes per packet, on each router run
the benchmark's dos, scan and replay workloads make (ROADMAP item 10).

The count is exact and repeats run to run, so it can resolve a change to the
per-packet path that timings on a noisy host cannot; it leaves out time spent
in C (dict operations, big-int hashing), so it explains a time delta and does
not replace one. Each run drives a fresh router, built as the benchmark builds
it at scenario seed 1, through the first packets of its stream under
`sys.settrace` with opcode events on, and counts them per function.

    PYTHONPATH=src python tools/count_opcodes.py > counts.json

Point PYTHONPATH at another tree's `src` to count that tree's code.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

from xtrsim import cli, experiment, workloads
from xtrsim.workloads import Stream
from xtrsim.xtr import Xtr

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
from cases import REPLAY_CONFIG  # noqa: E402  (the replay workload's router config)

SEED = 1


def _attack_runs(name: str, packets: int):
    config = {"dos": experiment.dos_defaults, "scan": experiment.scan_defaults}[name]()
    stream = experiment._attack_stream(config, SEED)
    for defended, label in ((True, "defended"), (False, "undefended")):
        yield (f"{name}.{label}", experiment._attack_xtr_config(config, defended=defended),
               stream, packets)


def _replay_run(packets: int):
    scenario = experiment.overflow_defaults()
    n = scenario.n_legit + scenario.n_attackers
    profile = workloads.PopulationProfile(
        n, scenario.n_attackers / n, legit_miss_range=scenario.legit_miss_range,
        attacker_miss_range=scenario.attacker_miss_range, seed=SEED)
    stream = workloads.gen_dos_stream(
        profile, scenario.dest_strategy, duration=scenario.duration,
        popular_pool=scenario.popular_pool, attacker_timing=scenario.attacker_timing)
    mapping = dict(line.split("=", 1) for line in REPLAY_CONFIG.splitlines())
    yield "replay", cli._replay_configs(mapping), stream, packets


def count(config, stream: Stream, packets: int) -> dict:
    """Opcodes of one `Xtr.run` over the stream's first `packets` packets."""
    head = Stream(*(column[:packets] for column in
                    (stream.times, stream.srcs, stream.dsts, stream.roles)))
    xtr = Xtr(config, seed=SEED)
    per_function: Counter = Counter()

    def local(frame, event, arg):
        if event == "opcode":
            per_function[frame.f_code.co_qualname] += 1
        return local

    def start(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    sys.settrace(start)
    try:
        xtr.run(head)
    finally:
        sys.settrace(None)
    total = sum(per_function.values())
    return {"packets": len(head), "opcodes": total,
            "opcodes_per_packet": round(total / len(head), 1),
            "per_function": dict(per_function.most_common())}


def main() -> None:
    runs = [*_attack_runs("dos", 10_000), *_attack_runs("scan", 10_000), *_replay_run(20_000)]
    json.dump({name: count(config, stream, packets) for name, config, stream, packets in runs},
              sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
