"""xtrsim benchmark: four workloads, end-to-end metrics, a traced per-layer run.

    python3 benchmarks/bench.py --workload dos --seed 1 --seconds 25 --trace 0

Run from a checkout with the package source under `src/xtrsim`; the script
imports it from there and from nowhere else. One process, one caller: each
operation is handed its pre-generated input and timed until it returns (a
closed loop), and operations repeat on the same seed until `--seconds` is
spent. With `--trace 0` the last line of standard output is a JSON object
with the end-to-end metrics; with `--trace 1` it holds the per-layer metrics
of a traced run. Every operation's output files are checked: against the
digests recorded at the seed commit for the default seed, against the
workload's invariants, and against the first operation's bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from reference import REFERENCE_S, kernel_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# The keys of cases.WORKLOADS, which can be imported only once src/ is found.
WORKLOAD_NAMES = ("sweep", "dos", "scan", "replay")
SETUP_PROBES = 5


@dataclass
class OpRecord:
    """One operation: its tracing mode, host seconds, work units and problems."""

    mode: str
    seconds: float
    units: int = 0
    problems: list[str] = field(default_factory=list)
    kernel_s: float | None = None  # reference kernel around the operation


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_files(workload, files: dict[str, bytes], expected: dict[str, str] | None,
                reference: dict[str, str] | None) -> list[str]:
    """Everything wrong with one operation's output files.

    `expected` holds the seed commit's digests (default seed only) and
    `reference` the digests of the run's first operation.
    """
    missing = [name for name in workload.files if name not in files]
    if missing:
        return [f"missing output {name}" for name in missing]
    digests = {name: sha256(data) for name, data in files.items()}
    problems = [f"{name}: sha256 differs from the seed commit's"
                for name, digest in (expected or {}).items() if digests.get(name) != digest]
    if reference is not None and digests != reference:
        problems.append("a rerun of the same seed gave different bytes")
    try:
        problems += workload.problems(files)
    except (KeyError, ValueError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems


def measure(workload, operation, seconds: float, modes: tuple[str, ...], work_dir: Path,
            expected: dict[str, str] | None, on_traced=None,
            kernel: str | None = None) -> list[OpRecord]:
    """Repeat `operation` for about `seconds`, cycling through `modes`.

    Runs every mode once, and more operations while the next one is expected
    to end within the time. `on_traced(mode)` returns a context manager that
    installs the spans of a traced mode and a callable that collects them.
    With `kernel`, that reference kernel runs before and after every
    operation.
    """
    records: list[OpRecord] = []
    reference = None
    began = time.perf_counter()
    before = None
    if kernel:
        kernel_seconds(kernel)  # the first run in a process pays for warming up
        before = kernel_seconds(kernel)
    while True:
        mode = modes[len(records) % len(modes)]
        out_dir = work_dir / f"op{len(records)}"
        out_dir.mkdir()
        patch, collect = (nullcontext(), None) if mode == "plain" else on_traced(mode)
        error = None
        with patch:
            t0 = time.perf_counter()
            try:
                operation(out_dir)
            except Exception:
                error = traceback.format_exc()
            elapsed = time.perf_counter() - t0
        if collect is not None:
            collect(round(elapsed * 1e9))
        record = OpRecord(mode, elapsed)
        if kernel:
            after = kernel_seconds(kernel)
            record.kernel_s = (before + after) / 2
            before = after
        files = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        shutil.rmtree(out_dir)
        if error is not None:
            record.problems.append(error)
        else:
            record.problems = check_files(workload, files, expected, reference)
            if reference is None and not record.problems:
                reference = {name: sha256(data) for name, data in files.items()}
            if not record.problems:
                record.units = workload.units(files)
        print(f"operation {len(records)} ({mode}): {elapsed:.3f} s, {record.units} units",
              file=sys.stderr)
        for problem in record.problems:
            print(f"operation {len(records)} ({mode}) failed: {problem}", file=sys.stderr)
        records.append(record)
        spent = time.perf_counter() - began
        if len(records) >= len(modes) and spent * (len(records) + 1) / len(records) > seconds:
            return records


def end_to_end(records: list[OpRecord], kernel: str, setup: tuple[float, float],
               ) -> tuple[dict[str, tuple[float, str]], dict[str, float]]:
    """The end-to-end metrics at the reference speed, and the same in host time.

    `setup` is (setup_s at the reference speed, host setup_s).
    """
    done = [r for r in records if not r.problems] or records
    scaled = [r.seconds * REFERENCE_S[kernel] / r.kernel_s for r in done]
    metrics = {
        "setup_s": (setup[0], "s"),
        "events_per_s": (statistics.median(r.units / s for r, s in zip(done, scaled)), "1/s"),
        "wall_s": (statistics.median(scaled), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    host = {
        "setup_s": setup[1],
        "events_per_s": statistics.median(r.units / r.seconds for r in done),
        "wall_s": statistics.median(r.seconds for r in done),
        "kernel_s": statistics.median(r.kernel_s for r in done),
    }
    return metrics, host


def result_line(records: list[OpRecord], results_per_op: int,
                metrics: dict[str, tuple[float, str]]) -> str:
    """The final JSON line; an operation is one independent result (see README)."""
    failed = results_per_op * sum(1 for r in records if r.problems)
    return json.dumps({
        "correct": failed == 0,
        "attempted": results_per_op * len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh process to its first timed call.

    The child imports xtrsim, builds the workload's configs and inputs, says
    so on its standard output and exits without running anything.
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--probe-setup"]
    t0 = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            child.stdout.read()
            child.wait(timeout=120)
        except BaseException:
            child.kill()
            raise
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"set-up probe exited with {child.returncode}")
    return elapsed


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Median set-up time of several probes, at the reference speed and in host time.

    Set-up is mostly interpreter work (imports, configs, input generation), so
    it is rescaled by the router kernel, run before and after each probe.
    """
    kernel_seconds("router")  # the first run in a process pays for warming up
    before = kernel_seconds("router")
    scaled, host = [], []
    for _ in range(SETUP_PROBES):
        seconds = probe_setup(workload, seed)
        after = kernel_seconds("router")
        host.append(seconds)
        scaled.append(seconds * REFERENCE_S["router"] * 2 / (before + after))
        before = after
    return statistics.median(scaled), statistics.median(host)


def machine_facts() -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            commit = out.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "xtrsim").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "xtrsim_commit": commit,
        "xtrsim_source_sha256": source.hexdigest(),
        "timing": "perf_counter and getrusage(RUSAGE_SELF) of the benchmark's own process; "
                  "setup_s timed by the parent from spawning each set-up probe; times "
                  "rescaled by a reference kernel timed around each operation (reference.py)",
        "not_used": ["machine-wide tracing", "CPU pinning", "page-cache dropping"],
    }


def print_spans(levels: dict) -> None:
    """The traced run's spans by (parent, child), the largest first."""
    for mode, level in levels.items():
        print(f"# spans ({mode} level, {level.ops} operations): "
              "parent > child, calls/op, total ms/op, self ms/op")
        for (parent, child), s in sorted(level.by_edge.items(), key=lambda kv: -kv[1].total_ns):
            print(f"#   {parent} > {child}: {level.per_op(s.calls):.0f}, "
                  f"{level.per_op(s.total_ns) / 1e6:.3f}, {level.per_op(s.self_ns) / 1e6:.3f}")


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=_positive, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "xtrsim" / "__init__.py").is_file():
        print(f"error: no xtrsim source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import xtrsim
    if Path(xtrsim.__file__).resolve().parent != (SRC / "xtrsim").resolve():
        print(f"error: imported xtrsim from {xtrsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import cases

    workload = cases.WORKLOADS[args.workload]
    work_dir = WORK / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        if args.probe_setup:
            workload.prepare(args.seed, work_dir)
            print("ready", flush=True)
            return 0
        return run(args, workload, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still has its directory there


def run(args: argparse.Namespace, workload, work_dir: Path) -> int:
    digests = json.loads((HERE / "digests.json").read_text())
    expected = digests["sha256"][workload.name] if args.seed == digests["seed"] else None
    print("# machine " + json.dumps(machine_facts()))
    if not args.trace:
        setup = setup_seconds(workload.name, args.seed)
        operation = workload.prepare(args.seed, work_dir)
        records = measure(workload, operation, args.seconds, ("plain",), work_dir, expected,
                          kernel=workload.kernel)
        metrics, host = end_to_end(records, workload.kernel, setup)
        print("# host time " + json.dumps(host))
        print(result_line(records, workload.results_per_op, metrics))
        return 0

    operation = workload.prepare(args.seed, work_dir)
    records, levels, metrics = run_traced(workload, operation, args.seconds, work_dir, expected)
    print_spans(levels)
    print(result_line(records, workload.results_per_op, metrics))
    return 0


def run_traced(workload, operation, seconds: float, work_dir: Path,
               expected: dict[str, str] | None):
    """Untraced, fully traced and entry-point-traced operations, in turn.

    Returns the operations, the span totals of both traced levels and the
    per-layer metrics.
    """
    import layers
    from spans import Patch, Tracer

    tracer = Tracer()
    levels = {"full": layers.Level(), "outer": layers.Level()}
    targets = {"full": layers.FULL, "outer": layers.OUTER}

    def on_traced(mode: str):
        return Patch(tracer, targets[mode]), \
            lambda wall_ns: levels[mode].add(tracer.take(), wall_ns)

    records = measure(workload, operation, seconds, ("plain", "full", "outer"),
                      work_dir, expected, on_traced)
    plain = statistics.median(r.seconds for r in records if r.mode == "plain")
    full = statistics.median(r.seconds for r in records if r.mode == "full")
    return records, levels, layers.per_layer(levels["full"], levels["outer"], full / plain - 1)


if __name__ == "__main__":
    sys.exit(main())
