"""Tests of the benchmark itself, at tiny input sizes.

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import cases  # noqa: E402
from spans import Tracer, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
TINY_SCENARIO = (("n_legit", 10), ("n_attackers", 2), ("attacker_miss_range", (200, 400)))
TINY = [
    cases.Sweep(n_nodes=2000, iterations=3),
    cases.Attack("dos", seeds_per_op=1, overrides=TINY_SCENARIO),
    cases.Attack("scan", seeds_per_op=1, overrides=(("duration", 1.0),)),
    cases.Replay(overrides=TINY_SCENARIO),
]


def test_self_time_is_duration_minus_direct_children():
    # Span 0 (0..100) has children 1 (10..30) and 2 (40..50); 3 (12..20) is 1's child.
    start = np.array([0, 10, 40, 12])
    end = np.array([100, 30, 50, 20])
    parent = np.array([-1, 0, 0, 1])
    assert self_times(start, end, parent).tolist() == [70, 12, 10, 8]


def test_tracer_self_time_and_edges():
    tracer = Tracer()

    def inner():
        return sum(range(1000))

    traced_inner = tracer.wrap(inner, "inner")

    def outer():
        return traced_inner() + traced_inner()

    tracer.wrap(outer, "outer")()
    taken = tracer.take()
    outer_sums, inner_sums = taken.by_name["outer"], taken.by_name["inner"]
    assert (outer_sums.calls, inner_sums.calls) == (1, 2)
    assert outer_sums.self_ns == outer_sums.total_ns - inner_sums.total_ns
    assert inner_sums.self_ns == inner_sums.total_ns
    assert set(taken.by_edge) == {("-", "outer"), ("outer", "inner")}
    assert tracer.take().by_name == {}


def _files(workload, operation, out_dir: Path) -> dict[str, bytes]:
    out_dir.mkdir()
    operation(out_dir)
    return {p.name: p.read_bytes() for p in out_dir.iterdir()}


@pytest.mark.parametrize("workload", [TINY[0], TINY[3]], ids=["sweep", "replay"])
def test_perturbed_output_byte_is_a_failed_operation(workload, tmp_path):
    operation = workload.prepare(1, tmp_path)
    files = _files(workload, operation, tmp_path / "first")
    expected = {name: bench.sha256(data) for name, data in files.items()}
    target = workload.files[0]
    calls = []

    def perturbed(out_dir: Path) -> None:
        operation(out_dir)
        calls.append(out_dir)
        if len(calls) == 2:
            data = bytearray((out_dir / target).read_bytes())
            data[len(data) // 2] ^= 0x01
            (out_dir / target).write_bytes(bytes(data))

    records = bench.measure(workload, perturbed, 0.0, ("plain",) * 3, tmp_path, expected)
    assert [bool(r.problems) for r in records] == [False, True, False]
    assert any("seed commit" in p for p in records[1].problems)
    assert any("rerun" in p for p in records[1].problems)
    result = json.loads(bench.result_line(records, workload.results_per_op, {}))
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 3, 1)


def test_broken_invariant_and_exception_are_failed_operations(tmp_path):
    workload = TINY[0]
    rows = cases.csv_rows(_files(workload, workload.prepare(1, tmp_path), tmp_path / "ok")
                          ["sweep.csv"])
    assert workload.problems({"sweep.csv": b"fn_rate\n0.5\n"}) == ["sweep row 0: fn_rate 0.5"]
    assert rows and workload.problems({"sweep.csv": b"fn_rate\n0.0\n"}) == []

    def raising(out_dir: Path) -> None:
        raise RuntimeError("boom")

    records = bench.measure(workload, raising, 0.0, ("plain",), tmp_path, None)
    assert "boom" in records[0].problems[0]


def test_router_invariants_catch_an_unbalanced_counter():
    roles = ("total", "legit", "attacker")
    row = {f"{c}_{r}": "0" for r in roles for c in
           ("packets_in", "cache_hits", "cache_misses", *cases._MISS_OUTCOMES)}
    assert cases.router_problems([row]) == []
    row["cache_hits_legit"] = "1"
    assert cases.router_problems([row]) == ["row 0: packets_in_legit != cache_hits + cache_misses"]


@pytest.mark.parametrize("workload", TINY, ids=[w.name for w in TINY])
def test_metric_names_match_the_spec(workload, tmp_path):
    operation = workload.prepare(1, tmp_path)
    records = bench.measure(workload, operation, 0.0, ("plain",), tmp_path, None,
                            kernel=workload.kernel)
    metrics, _ = bench.end_to_end(records, workload.kernel, (0.1, 0.1))
    traced, _, per_layer = bench.run_traced(workload, operation, 0.0, tmp_path, None)
    assert not any(r.problems for r in records + traced)
    for produced, spec in ((metrics, SPEC["end_to_end"]), (per_layer, SPEC["per_layer"])):
        assert set(produced) == {m["name"] for m in spec}
        assert all(produced[m["name"]][1] == m["unit"] for m in spec)
        assert all(NAME.fullmatch(name) for name in produced)
    assert all(metrics[name][0] > 0 for name in metrics)


def test_fails_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, f"{HERE.name}/bench.py", "--workload", "dos",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
