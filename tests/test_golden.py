"""Byte-level regression gate: sha256 digests of small outputs.

The attack and replay CSVs carry a `config_hash` column, the sha256 of the
config's repr, so these digests also pin the fields of `AttackConfig`,
`XtrConfig` and the `LimiterConfig` nested in it: adding, removing, renaming,
reordering or re-defaulting a field changes a digest even when every counter
stays the same. A change that alters an output on purpose records the new
digests here and says why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from xtrsim.cli import main
from xtrsim.experiment import (AttackConfig, SweepConfig, attack_csv, dos_defaults,
                               overflow_defaults, run_attack, run_sweep, scan_defaults,
                               sweep_csv)
from xtrsim.limiter import LimiterConfig
from xtrsim.workloads import PopulationProfile, gen_dos_stream, write_trace
from xtrsim.xtr import XtrConfig


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


ATTACKS = {
    "dos": replace(dos_defaults(), n_legit=10, n_attackers=2,
                   attacker_miss_range=(200, 400)),
    # Pending table small enough that the undefended arm overflows it.
    "overflow": replace(overflow_defaults(), n_legit=10, n_attackers=2,
                        pending_capacity=100),
    "scan": replace(scan_defaults(), duration=5.0),
}

ATTACK_DIGESTS = {
    "dos": "197d2494434d75eae040a9dc853b5a644a8de6d9489879e6fb5650ec7f98aa47",
    "overflow": "55f5b6d7b3ade51d616b5fb56bd4aecf46a905dbdd78725db659ab2538d15838",
    "scan": "78123eb4712aa33306948aa6785e9831119ec575b6c53eaa785ce3092ca8f753",
}


@pytest.mark.parametrize("scenario", sorted(ATTACKS))
def test_attack_csv_digest(scenario):
    runs = run_attack(ATTACKS[scenario], seeds=(1, 2))
    assert sha(attack_csv(runs)) == ATTACK_DIGESTS[scenario]


def test_sweep_csv_digest():
    config = SweepConfig(n_nodes=(3000,), attacker_fractions=(0.01, 0.1),
                         iterations=4, seeds=(1, 2))
    assert sha(sweep_csv(run_sweep(config))) == \
        "31da68350f88cc3ab17b7aeeb3f972b447d190db6f5f3e98f218c8b6aec294eb"


def test_default_config_reprs_digest():
    defaults = (XtrConfig(), LimiterConfig(), AttackConfig(), SweepConfig())
    assert sha(repr(defaults)) == \
        "57071276134154bbb2c7017e7a42a367647698f4a3208c5ab6899a594c74bb1e"


REPLAY_CONF = """\
xtr.cache_capacity=32
xtr.record_cache_trace=true
xtr.dest_budget=100
xtr.pending_timeout=0.05
limiter.w=128
limiter.d=2
limiter.threshold=20
limiter.period=0.25
"""


def test_replay_outputs_digest(tmp_path):
    profile = PopulationProfile(12, 0.25, attacker_miss_range=(100, 200), seed=6)
    trace = tmp_path / "trace.txt"
    trace.write_text(write_trace(gen_dos_stream(profile, duration=0.5)))
    conf = tmp_path / "router.conf"
    conf.write_text(REPLAY_CONF)
    out = tmp_path / "out"
    assert main(["replay", str(trace), "--config", str(conf), "--out", str(out),
                 "--seed", "2"]) == 0
    assert sha((out / "replay_metrics.csv").read_text()) == \
        "fea272677392d8edf0673f3055a53ecb3eb8ecd8deee5723035d331a65de92b3"
    assert sha((out / "cache_trace.txt").read_text()) == \
        "a815078f15897449c1079068a791612d3d3bf90baf1bd70edc8f3f799fe7fee7"
