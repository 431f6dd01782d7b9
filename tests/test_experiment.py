"""Sweep schedule, sweep rows, attack runs, and file emission."""

from __future__ import annotations

import importlib.util
import subprocess
import sys

import pytest

from xtrsim.cms import CountMinSketch, SketchDims
from xtrsim.experiment import (
    DEFAULT_SEEDS,
    SWEEP_CSV_HEADER,
    AttackConfig,
    InvalidConfig,
    IoFailure,
    SweepConfig,
    attack_csv,
    attack_summary_csv,
    config_hash,
    dos_defaults,
    emit_outputs,
    overflow_defaults,
    run_attack,
    run_sweep,
    scan_defaults,
    sweep_csv,
    sweep_schedule,
)
from xtrsim.workloads import PopulationProfile, gen_miss_counts

SMALL_SWEEP = SweepConfig(n_nodes=(400,), attacker_fractions=(0.1,),
                          threshold=50, legit_miss_range=(1, 10),
                          attacker_miss_range=(60, 120),
                          w_start=20, w_step=20, iterations=6, seeds=(1, 2))


# ------------------------------------------------------------------ schedule

def test_schedule_grows_width_linearly_and_depth_every_other_step():
    schedule = sweep_schedule(SweepConfig())
    by_iter = {i: (w, d) for i, w, d in schedule}
    assert by_iter[1] == (1000, 1)
    assert by_iter[2] == (2000, 1)
    assert by_iter[5] == (5000, 3)
    assert by_iter[7] == (7000, 4)
    assert by_iter[26] == (26000, 13)
    assert len(schedule) == 26


def test_schedule_odd_phase_shifts_depth_bumps():
    even = sweep_schedule(SweepConfig(depth_phase="even"))
    odd = sweep_schedule(SweepConfig(depth_phase="odd"))
    assert [d for _, _, d in odd][:6] == [1, 2, 2, 3, 3, 4]
    assert [d for _, _, d in even][:6] == [1, 1, 2, 2, 3, 3]


def test_sweep_config_validation():
    with pytest.raises(InvalidConfig):
        SweepConfig(n_nodes=())
    with pytest.raises(InvalidConfig):
        SweepConfig(attacker_fractions=(1.5,))
    with pytest.raises(InvalidConfig):
        SweepConfig(iterations=0)
    with pytest.raises(InvalidConfig):
        SweepConfig(depth_phase="both")
    with pytest.raises(InvalidConfig):
        SweepConfig(seeds=())
    with pytest.raises(InvalidConfig):
        SweepConfig(threshold=0)
    with pytest.raises(InvalidConfig):
        SweepConfig(w_start=0)


def test_sweep_threshold_must_stay_below_the_cell_cap():
    # The sweep flags on estimate > threshold; estimates cap at the cell max.
    assert SweepConfig(threshold=65534).threshold == 65534
    with pytest.raises(InvalidConfig):
        SweepConfig(threshold=65535)
    assert SweepConfig(threshold=254, cell_width_bytes=1).threshold == 254
    with pytest.raises(InvalidConfig):
        SweepConfig(threshold=255, cell_width_bytes=1)
    with pytest.raises(ValueError):
        SweepConfig(cell_width_bytes=8)


# --------------------------------------------------------------------- sweep

def test_sweep_covers_grid_and_sorts_rows():
    rows = run_sweep(SMALL_SWEEP)
    assert len(rows) == 6 * 2  # iterations x seeds
    keys = [(r.n_nodes, r.attacker_fraction, r.w, r.d, r.size_bytes, r.seed)
            for r in rows]
    assert keys == sorted(keys)
    assert {r.seed for r in rows} == {1, 2}
    assert all(r.size_bytes == r.w * r.d * 2 for r in rows)


def test_sweep_rates_match_a_scalar_recount():
    rows = run_sweep(SMALL_SWEEP)
    for seed in (1, 2):
        profile = PopulationProfile(400, 0.1, legit_miss_range=(1, 10),
                                    attacker_miss_range=(60, 120), seed=seed)
        draw = gen_miss_counts(profile)
        for row in (r for r in rows if r.seed == seed):
            sketch = CountMinSketch(SketchDims(row.w, row.d), seed=seed)
            for source, count in zip(draw.sources.tolist(), draw.counts.tolist()):
                sketch.increment(source, count)
            fp = fn = 0
            for source, count in zip(draw.sources.tolist(), draw.counts.tolist()):
                flagged = sketch.estimate(source) > 50
                if flagged and not draw.attacker_mask[source]:
                    fp += 1
                if count > 50 and not flagged:
                    fn += 1
            assert row.false_positive_rate == pytest.approx(fp / 360)
            assert row.false_negative_rate == fn == 0


def test_sweep_csv_shape_and_determinism():
    text = sweep_csv(run_sweep(SMALL_SWEEP))
    lines = text.splitlines()
    assert lines[0] == SWEEP_CSV_HEADER
    assert lines[0] == "n_nodes,attacker_fraction,w,d,size_bytes,seed,fp_rate,fn_rate"
    assert len(lines) == 1 + 12
    first = lines[1].split(",")
    assert first[0] == "400" and first[1] == "0.1"
    assert text == sweep_csv(run_sweep(SMALL_SWEEP))


# ------------------------------------------------------------------- attacks

TINY_DOS = AttackConfig(scenario="dos", n_legit=10, n_attackers=2,
                        attacker_miss_range=(50, 100), threshold=10,
                        limiter_w=64, limiter_d=2, dest_budget=300,
                        pending_capacity=500, duration=0.2)

TINY_SCAN = AttackConfig(scenario="scan", duration=2.0, scan_n_prefixes=20,
                         scan_rate=50.0, bg_users=2, bg_destinations=10,
                         bg_rate=5.0, cache_capacity=8, age_interval=0.5,
                         dest_budget=10**9, pending_capacity=1000,
                         reply_latency=0.005)


def test_scenario_factories_and_hash():
    assert dos_defaults().scenario == "dos"
    assert overflow_defaults().scenario == "overflow"
    assert overflow_defaults().pending_capacity == 1000
    assert scan_defaults().scenario == "scan"
    digest = config_hash(dos_defaults())
    assert digest == config_hash(dos_defaults())
    assert len(digest) == 12 and int(digest, 16) >= 0
    assert digest != config_hash(overflow_defaults())


def test_attack_config_validation():
    with pytest.raises(InvalidConfig):
        AttackConfig(scenario="eclipse")
    with pytest.raises(InvalidConfig):
        AttackConfig(n_legit=0)
    with pytest.raises(InvalidConfig):
        AttackConfig(duration=0.0)


def test_run_attack_pairs_arms_on_identical_traffic():
    runs = run_attack(TINY_DOS, seeds=(1, 2))
    assert len(runs) == 4
    assert {r.defense for r in runs} == {"limiter_on", "limiter_off"}
    by_seed = {}
    for r in runs:
        by_seed.setdefault(r.seed, {})[r.defense] = r
    for seed, pair in by_seed.items():
        on, off = pair["limiter_on"], pair["limiter_off"]
        assert on.metrics.packets_in.total == off.metrics.packets_in.total > 0
        assert on.config_hash == off.config_hash == config_hash(TINY_DOS)
        # The limiter only ever removes admissions.
        assert (on.metrics.map_requests_sent.attacker
                <= off.metrics.map_requests_sent.attacker)


def test_run_attack_scan_arms_are_cache_policies():
    runs = run_attack(TINY_SCAN, seeds=(3,))
    assert {r.defense for r in runs} == {"lfu_aging", "lru"}
    for r in runs:
        assert r.metrics.dropped_by_source_limiter.total == 0
        assert 0.0 <= r.legit_hit_rate <= 1.0


def test_run_attack_rejects_empty_seeds():
    with pytest.raises(InvalidConfig):
        run_attack(TINY_DOS, seeds=())


def test_attack_csv_layout():
    runs = run_attack(TINY_DOS, seeds=(2, 1))
    text = attack_csv(runs)
    lines = text.splitlines()
    header = lines[0].split(",")
    assert header[:4] == ["scenario", "defense", "seed", "config_hash"]
    assert header[-3:] == ["victim_admission_ratio", "legit_hit_rate",
                           "overflow_events"]
    assert "packets_in_total" in header and "stale_replies" in header
    assert len(lines) == 1 + 4
    # Sorted by seed then defense label, regardless of run order.
    firsts = [line.split(",")[:3] for line in lines[1:]]
    assert firsts == [["dos", "limiter_off", "1"], ["dos", "limiter_on", "1"],
                      ["dos", "limiter_off", "2"], ["dos", "limiter_on", "2"]]
    with pytest.raises(InvalidConfig):
        attack_csv([])


def test_attack_summary_pairs_headline_metric():
    runs = run_attack(TINY_DOS, seeds=(1, 2))
    lines = attack_summary_csv(runs).splitlines()
    assert lines[0] == "scenario,seed,metric,limiter_on,limiter_off"
    assert len(lines) == 3
    for line in lines[1:]:
        scenario, seed, metric, on_value, off_value = line.split(",")
        assert scenario == "dos" and metric == "victim_admission_ratio"
        assert 0.0 <= float(on_value) <= 1.0
        assert 0.0 <= float(off_value) <= 1.0

    scan_lines = attack_summary_csv(run_attack(TINY_SCAN, seeds=(1,))).splitlines()
    assert scan_lines[0] == "scenario,seed,metric,lfu_aging,lru"
    assert scan_lines[1].split(",")[2] == "legit_hit_rate"


# ------------------------------------------------------------------ emission

def test_emit_outputs_writes_csv_and_plot_script(tmp_path):
    rows = run_sweep(SMALL_SWEEP)
    written = emit_outputs(rows, tmp_path)
    assert [p.name for p in written] == ["sweep.csv", "plot_sweep.py"]
    assert (tmp_path / "sweep.csv").read_text() == sweep_csv(rows)
    script = (tmp_path / "plot_sweep.py").read_text()
    compile(script, "plot_sweep.py", "exec")
    assert 'here / "sweep.csv"' in script


@pytest.mark.skipif(importlib.util.find_spec("matplotlib") is None,
                    reason="the generated plot script imports matplotlib")
def test_emitted_plot_script_renders_one_png_per_fraction(tmp_path):
    emit_outputs(run_sweep(SMALL_SWEEP), tmp_path)
    proc = subprocess.run([sys.executable, str(tmp_path / "plot_sweep.py")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    pngs = sorted(p.name for p in tmp_path.glob("*.png"))
    assert pngs == ["fp_vs_size_frac0.1.png"]


def test_emit_outputs_wraps_os_errors(tmp_path):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("flat file\n")
    with pytest.raises(IoFailure):
        emit_outputs([], blocker / "sub")


def test_default_seeds_are_fixed():
    assert DEFAULT_SEEDS == tuple(range(1, 11))
