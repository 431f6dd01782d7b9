"""Sweep schedule, sweep rows, attack runs, and the sweep's output files."""

from __future__ import annotations

import gc
import importlib.util
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from xtrsim import experiment
from xtrsim.cache import EidPrefix
from xtrsim.cli import main
from xtrsim.cms import CELL_MAX, CountMinSketch, SketchDims
from xtrsim.experiment import (
    DEFAULT_SEEDS,
    PLOT_SCRIPT,
    SWEEP_CSV_HEADER,
    AttackConfig,
    SweepConfig,
    SweepRow,
    attack_csv,
    attack_summary_csv,
    config_hash,
    dos_defaults,
    overflow_defaults,
    run_attack,
    run_sweep,
    scan_defaults,
    sweep_csv,
    sweep_schedule,
)
from xtrsim.workloads import PopulationProfile, Stream, gen_miss_counts
from xtrsim.xtr import XtrConfig

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


def test_sweep_config_validation():
    with pytest.raises(ValueError, match="^n_nodes"):
        SweepConfig(n_nodes=())
    with pytest.raises(ValueError, match="^attacker_fractions"):
        SweepConfig(attacker_fractions=(1.5,))
    with pytest.raises(ValueError, match="^iterations must be >= 1"):
        SweepConfig(iterations=0)
    with pytest.raises(ValueError, match="^seeds must be non-empty"):
        SweepConfig(seeds=())
    with pytest.raises(ValueError, match="^seeds must be >= 0, got -1$"):
        SweepConfig(seeds=(1, -1))
    with pytest.raises(ValueError, match="^threshold must be >= 1"):
        SweepConfig(threshold=0)
    with pytest.raises(ValueError, match="^w_start must be >= 1"):
        SweepConfig(w_start=0)


def test_sweep_miss_ranges_are_checked_when_built():
    # As AttackConfig's are: a bad range once built and failed inside run_sweep.
    for name in ("legit_miss_range", "attacker_miss_range"):
        for bad in ((0, 5), (5, 1), (3,), ()):
            with pytest.raises(ValueError, match=f"^{name} must be a pair lo,hi"):
                SweepConfig(**{name: bad})
    assert SweepConfig(legit_miss_range=(1, 1)).legit_miss_range == (1, 1)


def test_sweep_widths_stay_within_the_row_hash_range():
    # The last width is the schedule's widest; a row hash never reaches past p - 1.
    p = 2**31 - 1
    assert SweepConfig(w_start=p, iterations=1).w_start == p
    assert sweep_schedule(SweepConfig(w_start=p - 25, w_step=1))[-1] == (26, p, 13)
    for overrides in ({"w_start": 3_000_000_000}, {"w_start": 1 << 40},
                      {"w_start": p - 24, "w_step": 1}, {"w_step": 100_000_000}):
        with pytest.raises(ValueError, match="^the last width"):
            SweepConfig(**overrides)


def test_sweep_threshold_must_stay_below_the_cell_cap():
    # The sweep flags on estimate > threshold; estimates cap at the cell max.
    assert SweepConfig(threshold=65534).threshold == 65534
    with pytest.raises(ValueError, match="^threshold 65535 is unreachable"):
        SweepConfig(threshold=65535)


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


def naive_sweep(config: SweepConfig) -> tuple[list[SweepRow], bool]:
    """run_sweep as one fresh sketch per size, flagging on estimate > threshold,
    and whether any of those sketches saturated a cell."""
    rows, saturated = [], False
    for n in config.n_nodes:
        for fraction in config.attacker_fractions:
            for seed in config.seeds:
                draw = gen_miss_counts(PopulationProfile(
                    n, fraction, legit_miss_range=config.legit_miss_range,
                    attacker_miss_range=config.attacker_miss_range, seed=seed))
                legit = ~draw.attacker_mask
                n_legit, n_attackers = int(legit.sum()), int(draw.attacker_mask.sum())
                for _, width, depth in sweep_schedule(config):
                    sketch = CountMinSketch(SketchDims(width, depth), seed=seed)
                    sketch.add_counts(draw.sources, draw.counts)
                    saturated |= int(sketch._cells.max()) == CELL_MAX
                    flagged = sketch.estimate_many(draw.sources) > config.threshold
                    fp = int((flagged & legit).sum())
                    fn = int(((draw.counts > config.threshold) & ~flagged).sum())
                    rows.append(SweepRow(n, fraction, width, depth, sketch.dims.memory_bytes(),
                                         seed, fp / n_legit if n_legit else 0.0,
                                         fn / n_attackers if n_attackers else 0.0))
    rows.sort(key=lambda r: (r.n_nodes, r.attacker_fraction, r.w, r.d, r.size_bytes, r.seed))
    return rows, saturated


# Small enough that cells collide often, so each seed's hash changes its rows.
# The last flags at the largest reachable threshold, with attacker counts on
# both sides of it and of the cell cap, so some cells saturate.
REFERENCE_SWEEPS = [
    SweepConfig(n_nodes=(400,), attacker_fractions=(0.01, 0.1), threshold=50,
                attacker_miss_range=(60, 120), w_start=20, w_step=20, iterations=6,
                seeds=(1, 2, 3)),
    SweepConfig(n_nodes=(400,), attacker_fractions=(0.01, 0.1), threshold=50,
                attacker_miss_range=(60, 120), w_start=40, w_step=0, iterations=5,
                seeds=(1, 2, 3)),
    SweepConfig(n_nodes=(300,), attacker_fractions=(0.01, 0.1), threshold=CELL_MAX - 1,
                legit_miss_range=(1, 60), attacker_miss_range=(50_000, 100_000),
                w_start=30, w_step=15, iterations=5, seeds=(1, 2, 3)),
]


@pytest.mark.parametrize("config, saturates", zip(REFERENCE_SWEEPS, (False, False, True)),
                         ids=["grow", "w_step0", "saturating"])
def test_sweep_rows_match_a_fresh_sketch_per_size(config, saturates):
    rows, saturated = naive_sweep(config)
    assert run_sweep(config) == rows
    assert saturated == saturates


def test_sweep_csv_shape_and_determinism():
    text = sweep_csv(run_sweep(SMALL_SWEEP))
    lines = text.splitlines()
    assert lines[0] == SWEEP_CSV_HEADER
    assert lines[0] == "n_nodes,attacker_fraction,w,d,size_bytes,seed,fp_rate,fn_rate"
    assert len(lines) == 1 + 12
    first = lines[1].split(",")
    assert first[0] == "400" and first[1] == "0.1"
    assert text == sweep_csv(run_sweep(SMALL_SWEEP))


def test_sweep_csv_writes_each_value_as_str_does():
    # `repr` of a numpy scalar is np.float64(0.25) under numpy 2; `str` of it,
    # like `repr` and `str` of a Python float, is the shortest round-trip text.
    rows = [SweepRow(400, np.float64(0.1), 8, 1, 16, np.int64(3), np.float64(0.25), 0.1 + 0.2)]
    assert sweep_csv(rows) == SWEEP_CSV_HEADER + "\n400,0.1,8,1,16,3,0.25,0.30000000000000004\n"


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
    with pytest.raises(ValueError,
                       match="^scenario must be 'dos' or 'overflow' or 'scan', got 'eclipse'$"):
        AttackConfig(scenario="eclipse")
    with pytest.raises(ValueError, match="^n_legit must be >= 1, got 0$"):
        AttackConfig(n_legit=0)
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        for name in ("duration", "limiter_period", "dest_period", "reply_latency",
                     "age_interval", "scan_rate", "bg_rate"):
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                AttackConfig(**{name: bad})
    for name in ("limiter_w", "limiter_d"):
        with pytest.raises(ValueError, match=f"^{name} must be >= 1"):
            AttackConfig(**{name: 0})
    # The profile of another scenario checks its fields all the same.
    with pytest.raises(ValueError, match="zipf_exponent"):
        AttackConfig(scenario="dos", bg_zipf_exponent=float("nan"))
    with pytest.raises(ValueError, match="legit_miss_range"):
        AttackConfig(scenario="scan", legit_miss_range=(5, 1))
    # The router's own settings are refused when the config is built, by name.
    for name, bad in (("cache_capacity", 0), ("pending_capacity", 0), ("dest_budget", -1),
                      ("threshold", 70000)):
        with pytest.raises(ValueError, match=name):
            AttackConfig(**{name: bad})


def test_config_hash_refuses_a_callable_field():
    # A function's repr holds its address, so its digest would not repeat
    # from one process to the next: no config can be built holding one.
    with pytest.raises(TypeError, match="unexpected keyword argument 'reply_prefix_for'$"):
        XtrConfig(reply_prefix_for=EidPrefix.host)
    with pytest.raises(TypeError, match="unexpected keyword argument 'source_key'$"):
        XtrConfig(source_key=lambda event: event.src)
    assert config_hash(XtrConfig()) == config_hash(XtrConfig())


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


def test_run_attack_frees_each_seeds_stream_before_it_generates_the_next(monkeypatch):
    # A stream kept while the next one is built adds its size to the peak.
    generate, live = experiment.gen_dos_stream, []

    def counting(*args, **kwargs):
        gc.collect()
        live.append(sum(type(obj) is Stream for obj in gc.get_objects()))
        return generate(*args, **kwargs)

    monkeypatch.setattr(experiment, "gen_dos_stream", counting)
    run_attack(TINY_DOS, seeds=(1, 2, 3))
    assert live[1:] == [0, 0]


def test_run_attack_scan_arms_are_cache_policies():
    runs = run_attack(TINY_SCAN, seeds=(3,))
    assert {r.defense for r in runs} == {"lfu_aging", "lru"}
    for r in runs:
        assert r.metrics.dropped_by_source_limiter.total == 0
        assert 0.0 <= r.legit_hit_rate <= 1.0


def test_run_attack_rejects_empty_seeds():
    with pytest.raises(ValueError, match="^seeds must be non-empty"):
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
    with pytest.raises(ValueError, match="^no runs to export"):
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


def test_attack_summary_refuses_runs_it_cannot_pair():
    # A seed with one arm once raised KeyError, and a second scenario's runs
    # were left out of the summary without a word.
    dos = run_attack(TINY_DOS, seeds=(1,))
    with pytest.raises(ValueError, match=r"^seed 1 needs a limiter_on and a limiter_off run of "
                                         r"dos to pair, got \[\('dos', 'limiter_on'\)\]$"):
        attack_summary_csv(dos[:1])
    scan = run_attack(TINY_SCAN, seeds=(1,))
    with pytest.raises(ValueError, match=r"^seed 1 needs .* run of dos to pair, got .*'scan'"):
        attack_summary_csv(dos + scan)
    # dos and overflow share their arms' labels, but not their runs.
    overflow = run_attack(replace(TINY_DOS, scenario="overflow"), seeds=(1,))
    with pytest.raises(ValueError, match=r"^seed 1 needs .* run of dos to pair, got .*'overflow'"):
        attack_summary_csv(dos + overflow)


# ------------------------------------------------------------------ outputs

def test_sweep_command_writes_csv_and_plot_script(tmp_path, capsys):
    conf = tmp_path / "sweep.conf"
    conf.write_text("sweep.n_nodes=400\nsweep.attacker_fractions=0.1\nsweep.threshold=50\n"
                    "sweep.legit_miss_range=1,10\nsweep.attacker_miss_range=60,120\n"
                    "sweep.w_start=20\nsweep.w_step=20\nsweep.iterations=6\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(conf), "--out", str(out),
                 "--seed", "1", "--seeds", "2"]) == 0
    assert capsys.readouterr().out.split() == [str(out / "sweep.csv"), str(out / "plot_sweep.py")]
    assert (out / "sweep.csv").read_text() == sweep_csv(run_sweep(SMALL_SWEEP))
    assert (out / "plot_sweep.py").read_text() == PLOT_SCRIPT
    compile(PLOT_SCRIPT, "plot_sweep.py", "exec")
    assert 'here / "sweep.csv"' in PLOT_SCRIPT


@pytest.mark.skipif(importlib.util.find_spec("matplotlib") is None,
                    reason="the generated plot script imports matplotlib")
def test_emitted_plot_script_renders_one_png_per_fraction(tmp_path):
    (tmp_path / "sweep.csv").write_text(sweep_csv(run_sweep(SMALL_SWEEP)))
    (tmp_path / "plot_sweep.py").write_text(PLOT_SCRIPT)
    proc = subprocess.run([sys.executable, str(tmp_path / "plot_sweep.py")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    pngs = sorted(p.name for p in tmp_path.glob("*.png"))
    assert pngs == ["fp_vs_size_frac0.1.png"]


def test_default_seeds_are_fixed():
    assert DEFAULT_SEEDS == tuple(range(1, 11))
