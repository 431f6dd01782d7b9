"""End-to-end CLI runs: config parsing, outputs on disk, exit codes."""

from __future__ import annotations

import io
import re
import sys
import tempfile
import threading
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xtrsim import cli, cms
from xtrsim.cli import main
from xtrsim.experiment import SCENARIOS, AttackConfig, SweepConfig
from xtrsim.limiter import LimiterConfig
from xtrsim.workloads import PopulationProfile, gen_dos_stream, read_trace, write_trace
from xtrsim.xtr import Xtr, XtrConfig

SWEEP_CONF = """\
# small grid, comments and blank lines are fine

sweep.n_nodes=300
sweep.attacker_fractions=0.1
sweep.threshold=50
sweep.attacker_miss_range=60,120
sweep.w_start=20
sweep.w_step=20
sweep.iterations=4
"""

ATTACK_CONF = """\
attack.n_legit=10
attack.n_attackers=2
attack.attacker_miss_range=50,100
attack.threshold=10
attack.limiter_w=64
attack.limiter_d=2
attack.dest_budget=300
attack.pending_capacity=500
attack.duration=0.2
"""

REPLAY_CONF = """\
xtr.cache_capacity=16
xtr.record_cache_trace=true
xtr.reply_latency=0.01
xtr.dest_budget=100
limiter.w=128
limiter.d=2
limiter.threshold=5
limiter.period=0.1
"""


def write_conf(tmp_path, text, name="conf.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def make_trace(tmp_path):
    profile = PopulationProfile(8, 0.25, attacker_miss_range=(20, 30), seed=4)
    stream = gen_dos_stream(profile, duration=0.2)
    path = tmp_path / "trace.txt"
    path.write_text(write_trace(stream))
    return str(path), len(stream)


def test_sweep_writes_outputs_and_reruns_identically(tmp_path, capsys):
    conf = write_conf(tmp_path, SWEEP_CONF)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["sweep", "--config", conf, "--out", str(out1),
                 "--seed", "5", "--seeds", "2"]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed == [str(out1 / "sweep.csv"), str(out1 / "plot_sweep.py")]
    csv1 = (out1 / "sweep.csv").read_text()
    lines = csv1.splitlines()
    assert len(lines) == 1 + 4 * 2  # iterations x two seeds
    assert {line.split(",")[5] for line in lines[1:]} == {"5", "6"}

    assert main(["sweep", "--config", conf, "--out", str(out2),
                 "--seed", "5", "--seeds", "2"]) == 0
    assert (out2 / "sweep.csv").read_text() == csv1


def test_attack_subcommand_writes_run_and_summary_files(tmp_path):
    conf = write_conf(tmp_path, ATTACK_CONF)
    out = tmp_path / "out"
    assert main(["attack", "dos", "--config", conf, "--out", str(out),
                 "--seed", "1", "--seeds", "2"]) == 0
    runs = (out / "attack_dos.csv").read_text().splitlines()
    assert len(runs) == 1 + 4  # two seeds, two arms each
    summary = (out / "attack_dos_summary.csv").read_text().splitlines()
    assert summary[0] == "scenario,seed,metric,limiter_on,limiter_off"
    assert len(summary) == 3


def test_attack_scenario_key_is_fixed(tmp_path, capsys):
    conf = write_conf(tmp_path, "attack.scenario=scan\n")
    assert main(["attack", "dos", "--config", conf,
                 "--out", str(tmp_path / "out"), "--seeds", "1"]) == 1
    assert "fixed by the subcommand" in capsys.readouterr().err


def test_replay_runs_a_trace_and_dumps_metrics(tmp_path):
    trace, n_events = make_trace(tmp_path)
    conf = write_conf(tmp_path, REPLAY_CONF)
    out = tmp_path / "out"
    assert main(["replay", trace, "--config", conf, "--out", str(out),
                 "--seed", "3"]) == 0
    lines = (out / "replay_metrics.csv").read_text().splitlines()
    assert lines[0].startswith("seed,config_hash,packets_in_total,")
    values = lines[1].split(",")
    assert values[0] == "3"
    assert values[2] == str(n_events)
    cache_trace = (out / "cache_trace.txt").read_text().splitlines()
    assert cache_trace and all(" lookup " in l or " install " in l
                               for l in cache_trace)

    rerun = tmp_path / "rerun"
    assert main(["replay", trace, "--config", conf, "--out", str(rerun),
                 "--seed", "3"]) == 0
    assert (rerun / "replay_metrics.csv").read_text() == "\n".join(lines) + "\n"


def test_replay_without_config_uses_defaults(tmp_path):
    trace, _ = make_trace(tmp_path)
    out = tmp_path / "out"
    assert main(["replay", trace, "--out", str(out)]) == 0
    assert (out / "replay_metrics.csv").exists()
    assert not (out / "cache_trace.txt").exists()


def test_replay_of_a_comment_only_trace_writes_an_empty_cache_trace(tmp_path):
    trace = tmp_path / "comments.txt"
    trace.write_text("# no packets\n\n   # indented comment\n")
    conf = write_conf(tmp_path, REPLAY_CONF)
    out = tmp_path / "out"
    assert main(["replay", str(trace), "--config", conf, "--out", str(out)]) == 0
    assert (out / "cache_trace.txt").read_bytes() == b""
    assert (out / "replay_metrics.csv").read_text().splitlines()[1].split(",")[2] == "0"


def test_unwritable_cache_trace_fails_with_2_without_traceback(tmp_path):
    trace, _ = make_trace(tmp_path)
    conf = write_conf(tmp_path, REPLAY_CONF)
    out = tmp_path / "out"
    (out / "cache_trace.txt").mkdir(parents=True)
    code, err = run_cli(["replay", trace, "--config", conf, "--out", str(out)])
    assert code == 2
    assert err.startswith("error: cannot write ") and err.count("\n") == 1
    assert "Traceback" not in err


def traced_peak(argv: list[str]) -> int:
    """Bytes of Python heap that one `main` call holds at its peak, above its start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert run_cli(argv)[0] == 0
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_cache_trace_export_holds_no_copy_of_the_trace(tmp_path):
    # About 10k packets, nearly all misses, so the cache trace runs to
    # megabytes and a copy of it dwarfs the allowance.
    profile = PopulationProfile(20, 0.25, attacker_miss_range=(2000, 2000), seed=4)
    trace = tmp_path / "trace.txt"
    trace.write_text(write_trace(gen_dos_stream(profile, duration=0.5)))
    router = "xtr.source_limiter_enabled=false\nxtr.cache_capacity=64\n"
    peaks = {}
    for recorded in (False, True):
        conf = write_conf(tmp_path, router + f"xtr.record_cache_trace={recorded}\n")
        peaks[recorded] = traced_peak(["replay", str(trace), "--config", conf,
                                       "--out", str(tmp_path / f"out-{recorded}")])
    xtr = Xtr(XtrConfig(source_limiter_enabled=False, cache_capacity=64,
                        record_cache_trace=True))
    with trace.open("rb") as lines:
        xtr.run(read_trace(lines))
    lines = xtr.cache.trace
    assert len(lines) > 10_000
    held = sys.getsizeof(lines) + sum(map(sys.getsizeof, lines))
    # The router keeps the trace as it runs; writing it out may add a line
    # and the file's buffer, not a second trace.
    assert peaks[True] - peaks[False] <= held + 2**20


def test_unknown_config_key_fails_with_1(tmp_path, capsys):
    for line in ("sweep.bogus=1", "sweep.depth_phase=odd"):
        conf = write_conf(tmp_path, line + "\n")
        assert main(["sweep", "--config", conf, "--out", str(tmp_path / "o")]) == 1
        assert "unknown config key" in capsys.readouterr().err


def test_bad_config_value_fails_with_1(tmp_path, capsys):
    trace, _ = make_trace(tmp_path)
    for command, key in ((["sweep"], "sweep.iterations"), (["replay", trace], "limiter.w")):
        conf = write_conf(tmp_path, f"{key}=abc\n")
        assert main([*command, "--config", conf, "--out", str(tmp_path / "o")]) == 1
        assert f"bad value for {key}" in capsys.readouterr().err


@pytest.mark.parametrize("command, key", [
    (["sweep"], "sweep.n_nodes"), (["sweep"], "sweep.legit_miss_range"),
    (["sweep"], "sweep.attacker_miss_range"), (["sweep"], "sweep.seeds"),
    (["attack", "dos"], "attack.legit_miss_range"),
    (["attack", "dos"], "attack.attacker_miss_range")])
def test_a_bad_tuple_element_names_its_key_once(tmp_path, command, key):
    # Each element is parsed as the tuple's element type; its error must not
    # be wrapped a second time by the tuple's own parse.
    conf = write_conf(tmp_path, f"{key}=1e-309\n")
    code, err = run_cli([*command, "--config", conf, "--out", str(tmp_path / "o")])
    assert code == 1
    assert "Traceback" not in err
    assert err.count(f"bad value for {key}") == 1


def test_malformed_config_line_fails_with_1(tmp_path):
    conf = write_conf(tmp_path, "justtext\n")
    assert main(["sweep", "--config", conf, "--out", str(tmp_path / "o")]) == 1


def test_missing_config_file_fails_with_1(tmp_path):
    assert main(["sweep", "--config", str(tmp_path / "absent.txt"),
                 "--out", str(tmp_path / "o")]) == 1


def test_missing_trace_fails_with_2(tmp_path):
    assert main(["replay", str(tmp_path / "absent.txt"),
                 "--out", str(tmp_path / "o")]) == 2


def test_malformed_trace_fails_with_1(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("0.5 0x1 0x2 legit\nnot a trace line\n")
    assert main(["replay", str(bad), "--out", str(tmp_path / "o")]) == 1


def test_unsorted_trace_fails_with_1_without_traceback(tmp_path, capsys):
    bad = tmp_path / "unsorted.txt"
    bad.write_text("0.2 0x1 0x2 legit\n0.1 0x1 0x3 legit\n")
    assert main(["replay", str(bad), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: trace line 2:")
    assert "Traceback" not in err


def test_trace_time_past_the_last_window_fails_with_1_without_traceback(tmp_path):
    far = tmp_path / "far.txt"
    far.write_text("1e308 0x1 0x2 legit\n")
    conf = write_conf(tmp_path, "xtr.dest_period=0.5\n")
    out = tmp_path / "o"
    code, err = run_cli(["replay", str(far), "--config", conf, "--out", str(out)])
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


BAD_TRACE_LINES = {
    "nan-time": "nan 0x1 0x3 legit",
    "inf-time": "inf 0x1 0x3 legit",
    "negative-time": "-1.0 0x1 0x3 legit",
    "negative-src": "0.3 -1 0x3 legit",
    "src-past-128-bits": f"0.3 {1 << 128:#x} 0x3 legit",
    "dst-past-128-bits": f"0.3 0x1 {1 << 128:#x} legit",
    "unknown-role": "0.3 0x1 0x3 bogus",
}


@pytest.mark.parametrize("line", BAD_TRACE_LINES.values(), ids=BAD_TRACE_LINES.keys())
def test_bad_trace_line_fails_with_1_naming_the_line(tmp_path, capsys, line):
    bad = tmp_path / "bad.txt"
    bad.write_text(f"0.2 0x1 0x2 legit\n{line}\n")
    out = tmp_path / "o"
    assert main(["replay", str(bad), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: trace line 2: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("bad", [b"0.3 0x1 0x\xff legit", b"# caf\xe9"], ids=["field", "comment"])
def test_non_utf8_trace_line_fails_with_1_naming_the_line(tmp_path, capsys, bad):
    # Far enough in that the line does not sit in the file's first read buffer.
    good = b"".join(b"%r 0x1 0x%x legit\n" % (i / 1000, i) for i in range(2000))
    trace = tmp_path / "bad.txt"
    trace.write_bytes(good + bad + b"\n")
    out = tmp_path / "o"
    assert main(["replay", str(trace), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: trace line 2001: 'utf-8' codec can't decode byte ")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


def test_replay_pending_timeout_takes_none_or_a_float(tmp_path, capsys):
    trace, _ = make_trace(tmp_path)
    for text in ("none", "None", "0.05"):
        conf = write_conf(tmp_path, f"xtr.pending_timeout={text}\n")
        assert main(["replay", trace, "--config", conf,
                     "--out", str(tmp_path / "o")]) == 0
    conf = write_conf(tmp_path, "xtr.pending_timeout=soon\n")
    assert main(["replay", trace, "--config", conf, "--out", str(tmp_path / "o")]) == 1
    assert "bad value for xtr.pending_timeout" in capsys.readouterr().err


def test_unwritable_out_dir_fails_with_2(tmp_path):
    conf = write_conf(tmp_path, SWEEP_CONF)
    blocker = tmp_path / "flat"
    blocker.write_text("file, not a directory\n")
    assert main(["sweep", "--config", conf, "--out", str(blocker / "sub"),
                 "--seeds", "1"]) == 2


def test_bad_seed_count_fails_with_1(tmp_path):
    conf = write_conf(tmp_path, SWEEP_CONF)
    assert main(["sweep", "--config", conf, "--out", str(tmp_path / "o"),
                 "--seeds", "0"]) == 1


@pytest.mark.parametrize("command", [["sweep", "--seeds", "1"], ["attack", "dos", "--seeds", "1"],
                                     ["replay"]])
def test_negative_seed_fails_with_1_naming_it(tmp_path, capsys, command):
    if command == ["replay"]:
        command = ["replay", make_trace(tmp_path)[0]]
    out = tmp_path / "o"
    assert main([*command, "--out", str(out), "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
    assert not out.exists()


def test_replay_takes_no_seed_count(tmp_path, capsys):
    # A replay runs one router at one seed; a count of seeds was once taken and ignored.
    out = tmp_path / "o"
    assert main(["replay", make_trace(tmp_path)[0], "--out", str(out), "--seeds", "2"]) == 1
    assert capsys.readouterr().err == "error: unrecognized arguments: --seeds 2\n"
    assert not out.exists()


# A setting that cannot describe a run: each once raised OverflowError, ran
# to exit 0 on a meaningless value, or failed without naming the field.
BAD_SETTINGS = {
    "attack-scan-rate-inf": (["attack", "scan"], "attack.scan_rate=inf", "scan_rate"),
    "attack-duration-inf": (["attack", "dos"], "attack.duration=inf", "duration"),
    "attack-duration-nan": (["attack", "dos"], "attack.duration=nan", "duration"),
    "attack-bg-rate-nan": (["attack", "scan"], "attack.bg_rate=nan", "bg_rate"),
    "xtr-reply-latency-nan": (["replay"], "xtr.reply_latency=nan", "reply_latency"),
    "xtr-pending-timeout-nan": (["replay"], "xtr.pending_timeout=nan", "pending_timeout"),
    "xtr-pending-timeout-negative": (["replay"], "xtr.pending_timeout=-1", "pending_timeout"),
    "xtr-dest-period-nan": (["replay"], "xtr.dest_period=nan", "dest_period"),
    "xtr-age-interval-nan": (["replay"], "xtr.cache_policy=lfu-aging\nxtr.age_interval=nan",
                             "age_interval"),
    "limiter-period-nan": (["replay"], "limiter.period=nan", "period"),
    # Cells are uint16 and flag above the threshold: the width is no sweep key,
    # and the limiter's fixed fields are no keys either.
    "sweep-cell-width": (["sweep"], "sweep.cell_width_bytes=1",
                         "unknown config key: sweep.cell_width_bytes"),
    "limiter-cell-width": (["replay"], "limiter.cell_width_bytes=1",
                           "unknown config key: limiter.cell_width_bytes"),
    "limiter-strict-threshold": (["replay"], "limiter.strict_threshold=false",
                                 "unknown config key: limiter.strict_threshold"),
    # A rate and duration each finite whose packet total is not.
    "attack-scan-total-overflow": (["attack", "scan"], "attack.duration=1e307", "duration"),
    "attack-bg-total-overflow": (["attack", "scan"], "attack.bg_rate=1e308", "bg_rate"),
    # A period so small that the run's last window has no finite index.
    "attack-limiter-period-subnormal": (["attack", "dos"], "attack.limiter_period=1e-309",
                                        "limiter_period"),
    "attack-dest-period-subnormal": (["attack", "dos"], "attack.dest_period=1e-309",
                                     "dest_period"),
    "attack-age-interval-subnormal": (["attack", "scan"], "attack.age_interval=1e-309",
                                      "age_interval"),
    # The cache settings are checked whatever the policy, before the trace is read.
    "xtr-cache-policy": (["replay"], "xtr.cache_policy=bogus", "cache_policy"),
    "xtr-lru-age-mode": (["replay"], "xtr.age_mode=bogus", "age_mode"),
    "xtr-lru-age-interval": (["replay"], "xtr.age_interval=-1", "age_interval"),
    # Fields the chosen scenario never reads are checked all the same.
    "attack-scan-dest-strategy": (["attack", "scan"], "attack.dest_strategy=nan", "dest_strategy"),
    "attack-scan-timing": (["attack", "scan"], "attack.attacker_timing=-1", "attacker_timing"),
    "attack-scan-cache-policy": (["attack", "scan"], "attack.cache_policy=abc", "cache_policy"),
    "attack-dos-age-mode": (["attack", "dos"], "attack.age_mode=none", "age_mode"),
    "attack-dos-scan-prefixes": (["attack", "dos"], "attack.scan_n_prefixes=-1",
                                 "scan_n_prefixes"),
    "attack-dos-bg-users": (["attack", "dos"], "attack.bg_users=0", "bg_users"),
    "attack-overflow-bg-destinations": (["attack", "overflow"], "attack.bg_destinations=0",
                                        "bg_destinations"),
    # A value of the wrong shape names its field.
    "sweep-legit-range-one-value": (["sweep"], "sweep.legit_miss_range=-1", "legit_miss_range"),
    # A miss range the population cannot draw from, refused when the config is built.
    "sweep-legit-range-from-0": (["sweep"], "sweep.legit_miss_range=0,5", "legit_miss_range"),
    "sweep-attacker-range-reversed": (["sweep"], "sweep.attacker_miss_range=9,3",
                                      "attacker_miss_range"),
    "attack-popular-pool-negative": (["attack", "dos"], "attack.popular_pool=-1",
                                     "popular_pool"),
    "attack-bg-zipf-nan": (["attack", "scan"], "attack.bg_zipf_exponent=nan", "zipf_exponent"),
    # Profile fields the chosen scenario never reads are checked all the same.
    "attack-dos-bg-zipf-nan": (["attack", "dos"], "attack.bg_zipf_exponent=nan", "zipf_exponent"),
    "attack-scan-attacker-range": (["attack", "scan"], "attack.attacker_miss_range=-1",
                                   "attacker_miss_range"),
    "attack-scan-legit-range": (["attack", "scan"], "attack.legit_miss_range=5,1",
                                "legit_miss_range"),
    # Each capacity, budget and sketch size is named.
    "xtr-cache-capacity": (["replay"], "xtr.cache_capacity=0", "cache_capacity"),
    "xtr-pending-capacity": (["replay"], "xtr.pending_capacity=0", "pending_capacity"),
    "xtr-dest-budget": (["replay"], "xtr.dest_budget=-1", "dest_budget"),
    "attack-cache-capacity": (["attack", "dos"], "attack.cache_capacity=0", "cache_capacity"),
    "attack-pending-capacity": (["attack", "overflow"], "attack.pending_capacity=0",
                                "pending_capacity"),
    "attack-dest-budget": (["attack", "dos"], "attack.dest_budget=-1", "dest_budget"),
    "attack-limiter-w": (["attack", "dos"], "attack.limiter_w=0", "limiter_w"),
    "attack-limiter-d": (["attack", "dos"], "attack.limiter_d=0", "limiter_d"),
    "limiter-w": (["replay"], "limiter.w=0", "limiter.w"),
    # A sketch wider than the row hash's range, whose extra cells no key reaches.
    "attack-limiter-w-past-the-hash": (["attack", "dos"], "attack.limiter_w=3000000000", "width"),
    "limiter-w-past-the-hash": (["replay"], "limiter.w=2147483648", "width"),
    "limiter-d": (["replay"], "limiter.d=0", "limiter.d"),
    # Fields that take one value are fixed, not keys: any value, their own too, fails.
    "xtr-dest-mode": (["replay"], "xtr.dest_mode=per_prefix", "dest_mode"),
    "xtr-source-key": (["replay"], "xtr.source_key=1", "source_key"),
    "limiter-sketch-params": (["replay"], "limiter.sketch_params=1", "sketch_params"),
    **{f"fixed-{key}": (["replay"], f"{key}={value}", f"unknown config key: {key}")
       for key, value in (("xtr.dest_mode", "shared"), ("xtr.reply_prefix_for", "none"),
                          ("xtr.source_key", "none"), ("limiter.sketch_params", "none"),
                          ("limiter.cell_width_bytes", "2"),
                          ("limiter.strict_threshold", "true"))},
}


@pytest.mark.parametrize("command, text, field", BAD_SETTINGS.values(), ids=BAD_SETTINGS.keys())
def test_unusable_setting_fails_with_1_naming_the_field(tmp_path, capsys, command, text, field):
    seeds = ["--seeds", "1"]
    if command == ["replay"]:
        command, seeds = ["replay", make_trace(tmp_path)[0]], []
    conf = write_conf(tmp_path, text + "\n")
    out = tmp_path / "o"
    assert main([*command, "--config", conf, "--out", str(out), *seeds]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert field in err
    assert not out.exists()


# Sweep widths no key can reach once died in np.bincount with a MemoryError
# traceback; they are refused before any population is drawn.
@pytest.mark.parametrize("w_start", [1 << 40, 3_000_000_000])
def test_a_sweep_width_past_the_hash_fails_with_1_before_running(tmp_path, capsys, monkeypatch,
                                                                  w_start):
    monkeypatch.setattr(cli, "run_sweep", lambda config: pytest.fail("the sweep ran"))
    conf = write_conf(tmp_path, f"sweep.n_nodes=100\nsweep.w_start={w_start}\n")
    out = tmp_path / "o"
    assert main(["sweep", "--config", conf, "--out", str(out), "--seeds", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "width" in err and "Traceback" not in err
    assert not out.exists()


def test_running_out_of_memory_fails_with_1_without_traceback(tmp_path, capsys, monkeypatch):
    def run_sweep(config):
        raise MemoryError("Unable to allocate 8.00 TiB for an array")

    monkeypatch.setattr(cli, "run_sweep", run_sweep)
    out = tmp_path / "o"
    assert main(["sweep", "--out", str(out), "--seeds", "1"]) == 1
    err = capsys.readouterr().err
    assert err == "error: out of memory: Unable to allocate 8.00 TiB for an array\n"
    assert not out.exists()


def test_running_out_of_memory_in_the_sweeps_helper_lane_fails_with_1(tmp_path, capsys,
                                                                      monkeypatch):
    # Row 0 bins widths 14000 to 26000 and folds the narrower ones into them;
    # the second of those groups, 15000's, is placed by the helper thread.
    column = cms._column

    def failing_column(h, width, out=None):
        if width == 15000 and not isinstance(h, int):  # a lane, not the grouping
            raise MemoryError("Unable to allocate 8.00 TiB for an array")
        return column(h, width, out)

    monkeypatch.setattr(cms, "_column", failing_column)
    threads = threading.active_count()
    out = tmp_path / "o"
    conf = write_conf(tmp_path, "sweep.n_nodes=100\n")
    assert main(["sweep", "--config", conf, "--out", str(out), "--seeds", "1"]) == 1
    err = capsys.readouterr().err
    assert err == "error: out of memory: Unable to allocate 8.00 TiB for an array\n"
    assert threading.active_count() == threads
    assert not out.exists()


def test_unknown_subcommand_fails_with_1(capsys):
    assert main(["explode"]) == 1
    assert main([]) == 1
    capsys.readouterr()


# --------------------------------------------------- the exit contract, fuzzed

FUZZ_BASE = {
    "sweep": "sweep.n_nodes=200\nsweep.iterations=2\nsweep.threshold=50\n"
             "sweep.attacker_miss_range=60,120\nsweep.w_start=20\nsweep.w_step=20\n",
    "attack": "attack.n_legit=3\nattack.n_attackers=1\nattack.attacker_miss_range=5,10\n"
              "attack.duration=0.2\nattack.scan_n_prefixes=5\nattack.bg_users=2\n"
              "attack.bg_destinations=5\nattack.threshold=3\nattack.limiter_w=16\n"
              "attack.limiter_d=2\n",
    "replay": "xtr.cache_capacity=4\nlimiter.w=16\nlimiter.d=2\n",
}
FUZZ_KEYS = {
    "sweep": [f"sweep.{f.name}" for f in fields(SweepConfig)],
    "attack": [f"attack.{f.name}" for f in fields(AttackConfig)],
    "replay": [f"xtr.{f.name}" for f in fields(XtrConfig)]
              + [f"limiter.{f.name}" for f in fields(LimiterConfig)] + ["limiter.w", "limiter.d"],
}
# No large finite number: no example may allocate or loop at scale. The
# smallest positive number is allowed: as a period it must be refused, not run.
FUZZ_VALUES = ["nan", "inf", "-inf", "-1", "0", "1e-309", "", "abc", "1,2", "none", "true"]
TINY_TRACE = "0.0 0x1 0x10 legit\n0.001 0x2 0x11 attacker\n0.05 0x1 0x10 legit\n"


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and stderr of one `main` call; an exception propagates."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_exit_contract(code: int, err: str) -> None:
    assert code in (0, 1, 2)
    assert sum(line.startswith("error:") for line in err.splitlines()) <= 1
    assert "Traceback" not in err


@st.composite
def single_settings(draw):
    """A subcommand and one `<section>.<field>=<value>` line over its small base."""
    command = draw(st.sampled_from(["sweep", "attack", "replay"]))
    argv = [command]
    if command == "attack":
        argv.append(draw(st.sampled_from(list(SCENARIOS))))
    line = f"{draw(st.sampled_from(FUZZ_KEYS[command]))}={draw(st.sampled_from(FUZZ_VALUES))}"
    return argv, FUZZ_BASE[command] + line + "\n"


@settings(deadline=None, max_examples=150)
@given(case=single_settings())
def test_any_single_setting_keeps_the_exit_contract(case):
    argv, conf_text = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "conf.txt").write_text(conf_text)
        (tmp / "trace.txt").write_text(TINY_TRACE)
        seeds = ["--seeds", "1"]
        if argv == ["replay"]:
            argv, seeds = ["replay", str(tmp / "trace.txt")], []
        assert_exit_contract(*run_cli([*argv, "--config", str(tmp / "conf.txt"),
                                       "--out", str(tmp / "out"), *seeds]))


BAD_TIMES = ["nan", "inf", "-inf", "-1", "-0.5", "abc", "1e400", "0x1"]
BAD_ADDRESSES = ["-1", f"{1 << 128:#x}", "zz", "0x", "1.5", "1e3", ""]
ROLES = ["legit", "attacker", "bogus", "LEGIT", "legit,"]


@st.composite
def trace_lines(draw):
    """Trace text whose lines may carry a bad field, a wrong field count or go back."""
    lines, now = [], 0.0
    for _ in range(draw(st.integers(1, 6))):
        now += draw(st.sampled_from([0.0, 0.001, 0.03, -0.02]))
        parts = [repr(now), f"{draw(st.integers(0, 2**128 - 1)):#x}",
                   f"{draw(st.integers(0, 2**128 - 1)):#x}", draw(st.sampled_from(ROLES))]
        fault = draw(st.sampled_from(["none", "none", "time", "src", "dst", "short", "long"]))
        if fault == "time":
            parts[0] = draw(st.sampled_from(BAD_TIMES))
        elif fault in ("src", "dst"):
            parts[1 if fault == "src" else 2] = draw(st.sampled_from(BAD_ADDRESSES))
        elif fault == "short":
            parts.pop(draw(st.integers(0, 3)))
        elif fault == "long":
            parts.append("extra")
        lines.append(" ".join(parts))
    return "".join(line + "\n" for line in lines)


@settings(deadline=None, max_examples=150)
@given(text=trace_lines())
def test_any_trace_keeps_the_exit_contract(text):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "trace.txt").write_text(text)
        assert_exit_contract(*run_cli(["replay", str(tmp / "trace.txt"),
                                       "--out", str(tmp / "out")]))


# ------------------------------------------------------------ documented keys

SECTIONS = {"sweep": SweepConfig, "attack": AttackConfig, "xtr": XtrConfig,
            "limiter": LimiterConfig}
README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("source", ["README.md", "cli docstring"])
def test_documented_config_keys_exist(source):
    text = README.read_text() if source == "README.md" else cli.__doc__
    keys = re.findall(r"^\s*(\w+)\.(\w+)=", text, re.MULTILINE)
    assert keys
    for section, name in keys:
        assert section in SECTIONS, f"{section}.{name}"
        known = {f.name for f in fields(SECTIONS[section])}
        if section == "limiter":
            known |= {"w", "d"}
        assert name in known, f"{section}.{name} is not a config key"
