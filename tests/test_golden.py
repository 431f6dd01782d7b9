"""Byte-level regression gate: sha256 digests of small outputs.

The attack and replay CSVs carry a `config_hash` column, the sha256 of the
config's repr, so these digests also pin the fields of `AttackConfig`,
`XtrConfig` and the `LimiterConfig` nested in it: adding, removing, renaming,
reordering or re-defaulting a field changes a digest even when every counter
stays the same. The digest of the default configs' reprs pins those fields
too, and `SweepConfig`'s, which reach no output. A change that alters an
output or a repr on purpose records the new digests here and says why in
CHANGES.md.
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
from xtrsim.workloads import (POPULAR_DST_BASE, UNALLOCATED_DST_BASE, PopulationProfile,
                              gen_dos_stream, write_trace)
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


def test_sweep_plot_script_digest(tmp_path):
    conf = tmp_path / "sweep.conf"
    conf.write_text("sweep.n_nodes=100\nsweep.iterations=1\n")
    assert main(["sweep", "--config", str(conf), "--out", str(tmp_path / "out"),
                 "--seeds", "1"]) == 0
    assert sha((tmp_path / "out" / "plot_sweep.py").read_text()) == \
        "14b1b3a7b0271f0d37b81e4a702280dbca4cf7390bc50a40984f109f53e14e2a"


def test_default_config_reprs_digest():
    defaults = (XtrConfig(), LimiterConfig(), AttackConfig(), SweepConfig())
    assert sha(repr(defaults)) == \
        "1cf73331124fce7b46acbff02a188d9af8979e33253b796cd92b7b68805d9c5e"


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


def replay(tmp_path, trace_text: str, conf_text: str, seed: int) -> tuple[str, str]:
    """Run `xtrsim replay`; return its metrics CSV and its cache trace."""
    trace = tmp_path / "trace.txt"
    trace.write_text(trace_text)
    conf = tmp_path / "router.conf"
    conf.write_text(conf_text)
    out = tmp_path / "out"
    assert main(["replay", str(trace), "--config", str(conf), "--out", str(out),
                 "--seed", str(seed)]) == 0
    return (out / "replay_metrics.csv").read_text(), (out / "cache_trace.txt").read_text()


def test_replay_outputs_digest(tmp_path):
    profile = PopulationProfile(12, 0.25, attacker_miss_range=(100, 200), seed=6)
    metrics, cache_trace = replay(tmp_path, write_trace(gen_dos_stream(profile, duration=0.5)),
                                  REPLAY_CONF, seed=2)
    assert sha(metrics) == \
        "fea272677392d8edf0673f3055a53ecb3eb8ecd8deee5723035d331a65de92b3"
    assert sha(cache_trace) == \
        "a815078f15897449c1079068a791612d3d3bf90baf1bd70edc8f3f799fe7fee7"


SAME_TIME_CONF = """\
xtr.cache_capacity=8
xtr.record_cache_trace=true
xtr.reply_loss=0.3
limiter.threshold=10
limiter.w=64
limiter.d=2
"""


def same_time_trace() -> str:
    """Four packets per timestamp, from two flooding attackers and two legit sources.

    Attackers always send to fresh destinations; the legit sources cycle a
    pool of 12 destinations every 0.06 s, longer than the 0.04 s default
    reply latency. So the replies sent at one timestamp fall due together,
    and the cache trace records their installs in send order.
    """
    lines = []
    for tick in range(25):
        for k in range(4):
            n = tick * 2 + k
            if k < 2:
                src, dst, role = 0xA1 + k, UNALLOCATED_DST_BASE + n, "attacker"
            else:
                src, dst, role = 0x10 + n % 6, POPULAR_DST_BASE + n % 12, "legit"
            lines.append(f"{tick / 100!r} {src:#x} {dst:#x} {role}\n")
    return "".join(lines)


def test_same_time_replies_replay_digest(tmp_path):
    # Lost replies, a full cache and limiter drops on one same-time stream.
    metrics, cache_trace = replay(tmp_path, same_time_trace(), SAME_TIME_CONF, seed=3)
    assert sha(metrics) == "29d5fbc6293aeeb96b37b85b0dca27dade7500576b2149eac1ed252cad466ac8"
    assert sha(cache_trace) == "d7719bf71e890c2546434dc1ae071a347daeaae4ceb8eea51b406ca7ae4cb7a8"


OVERFLOW_LOSS_CONF = """\
xtr.cache_capacity=16
xtr.record_cache_trace=true
xtr.pending_capacity=12
xtr.reply_latency=0.04
xtr.pending_timeout=0.03
xtr.reply_loss=0.25
xtr.dest_budget=100000
limiter.w=64
limiter.d=2
limiter.threshold=15
limiter.period=0.25
"""


def test_overflow_with_loss_and_short_timeout_replay_digest(tmp_path):
    # The pending timeout undercuts the reply latency, so every request
    # expires before its reply lands and each delivered reply is stale; the
    # 12-entry pending table overflows and a quarter of the replies are lost.
    profile = PopulationProfile(10, 0.2, attacker_miss_range=(60, 120), seed=9)
    metrics, cache_trace = replay(tmp_path, write_trace(gen_dos_stream(profile, duration=0.5)),
                                  OVERFLOW_LOSS_CONF, seed=5)
    assert sha(metrics) == "35af582305e5c57da6a3d1529f8261af7907afa2ab0b19806758955a1138d2c7"
    assert sha(cache_trace) == "41a16adc07aea1aee36ae6b7456ca256f5c6aa0ed5502ac7e0dd0eaa2180f091"
