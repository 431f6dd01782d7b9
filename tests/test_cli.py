"""End-to-end CLI runs: config parsing, outputs on disk, exit codes."""

from __future__ import annotations

from xtrsim.cli import main
from xtrsim.workloads import PopulationProfile, gen_dos_stream, write_trace

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
    events = gen_dos_stream(profile, duration=0.2)
    path = tmp_path / "trace.txt"
    path.write_text(write_trace(events))
    return str(path), len(events)


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


def test_unknown_config_key_fails_with_1(tmp_path, capsys):
    conf = write_conf(tmp_path, "sweep.bogus=1\n")
    assert main(["sweep", "--config", conf, "--out", str(tmp_path / "o")]) == 1
    assert "unknown config key" in capsys.readouterr().err


def test_bad_config_value_fails_with_1(tmp_path, capsys):
    trace, _ = make_trace(tmp_path)
    for command, key in ((["sweep"], "sweep.iterations"), (["replay", trace], "limiter.w")):
        conf = write_conf(tmp_path, f"{key}=abc\n")
        assert main([*command, "--config", conf, "--out", str(tmp_path / "o")]) == 1
        assert f"bad value for {key}" in capsys.readouterr().err


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
    assert err.startswith("error:")
    assert "Traceback" not in err


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


def test_unknown_subcommand_fails_with_1(capsys):
    assert main(["explode"]) == 1
    assert main([]) == 1
    capsys.readouterr()
