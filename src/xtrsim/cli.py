"""Command-line front end.

Subcommands: `sweep` (detector sizing sweep), `attack dos|overflow|scan`
(paired defended/undefended runs), `replay <trace>` (run a packet trace
through one router). Configuration comes from flat key=value files whose keys
carry a section prefix, e.g.::

    sweep.w_step=1000
    sweep.n_nodes=50000,100000
    attack.threshold=50
    xtr.cache_capacity=512

Exit codes: 0 on success, 1 for invalid configuration (a run that does not
fit in memory included), 2 for I/O failures.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import Iterable

from .cache import check_count
from .cms import SketchDims
from .experiment import (DEFAULT_SEEDS, PLOT_SCRIPT, SCENARIOS, SweepConfig, attack_csv,
                         attack_summary_csv, replay_csv, run_attack, run_sweep, sweep_csv)
from .limiter import LimiterConfig
from .workloads import read_trace
from .xtr import Xtr, XtrConfig


# Cache trace lines joined into one string at a time on export: a string per
# chunk, not one per line, and never one of the whole trace.
_TRACE_CHUNK_LINES = 2**12


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage errors are configuration errors
        raise ValueError(message)


def _parse_kv_file(path: Path) -> dict[str, str]:
    try:
        text = path.read_text()
    except FileNotFoundError as exc:
        raise ValueError(f"config file not found: {path}") from exc
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        mapping[key.strip()] = value.strip()
    return mapping


def _convert(default, text: str, key: str):
    """Parse `text` into the same shape as the field's default value.

    A field whose default is None takes "none" or a float.
    """
    if isinstance(default, tuple):
        element = default[0] if default else 0
        return tuple(_convert(element, part.strip(), key)
                     for part in text.split(",") if part.strip())
    try:
        if default is None:
            return None if text.lower() == "none" else float(text)
        if isinstance(default, bool):
            lowered = text.lower()
            if lowered in ("true", "1", "yes"):
                return True
            if lowered in ("false", "0", "no"):
                return False
            raise ValueError(f"not a boolean: {text!r}")
        return type(default)(text)  # every other default is an int, a float or a str
    except ValueError as exc:
        raise ValueError(f"bad value for {key}: {exc}") from exc


def _apply_overrides(config, mapping: dict[str, str], prefix: str, *,
                     frozen_keys: tuple[str, ...] = ()):
    """Overlay `<prefix>.<field>=value` entries onto a config dataclass."""
    known = {f.name: getattr(config, f.name) for f in fields(config) if f.init}
    updates = {}
    for key, text in mapping.items():
        section, _, name = key.partition(".")
        if section != prefix:
            continue
        if name in frozen_keys:
            raise ValueError(f"{key} is fixed by the subcommand")
        if name not in known:
            raise ValueError(f"unknown config key: {key}")
        updates[name] = _convert(known[name], text, key)
    return replace(config, **updates) if updates else config


def _seed_list(args, default: tuple[int, ...]) -> tuple[int, ...]:
    if args.seed is None and args.seeds is None:
        return default
    base = args.seed if args.seed is not None else default[0]
    check_count("--seed", base, 0)
    count = args.seeds if args.seeds is not None else len(default)
    check_count("--seeds", count, 1)
    return tuple(base + i for i in range(count))


def _write(path: Path, pieces: Iterable[str]) -> Path:
    """Write the pieces, in order, as one text file; a failure is an OSError naming the path.

    Pieces are written as they come, so a large output never has to be
    joined into one string first.
    """
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as file:
            file.writelines(pieces)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc
    return path


def _cmd_sweep(args) -> int:
    config = SweepConfig()
    if args.config:
        config = _apply_overrides(config, _parse_kv_file(args.config), "sweep")
    config = replace(config, seeds=_seed_list(args, config.seeds))
    out = Path(args.out)
    print(_write(out / "sweep.csv", (sweep_csv(run_sweep(config)),)))
    print(_write(out / "plot_sweep.py", (PLOT_SCRIPT,)))
    return 0


def _cmd_attack(args) -> int:
    config = SCENARIOS[args.scenario][0]()
    if args.config:
        config = _apply_overrides(config, _parse_kv_file(args.config), "attack",
                                  frozen_keys=("scenario",))
    seeds = _seed_list(args, DEFAULT_SEEDS)
    runs = run_attack(config, seeds)
    out = Path(args.out)
    print(_write(out / f"attack_{args.scenario}.csv", (attack_csv(runs),)))
    print(_write(out / f"attack_{args.scenario}_summary.csv", (attack_summary_csv(runs),)))
    return 0


def _replay_configs(mapping: dict[str, str]) -> XtrConfig:
    size = {}
    for key, default in (("limiter.w", "1000"), ("limiter.d", "4")):
        size[key] = _convert(0, mapping.pop(key, default), key)
        check_count(key, size[key], 1)
    dims = SketchDims(size["limiter.w"], size["limiter.d"])
    limiter = _apply_overrides(LimiterConfig(backend="cms", sketch_dims=dims), mapping,
                               "limiter", frozen_keys=("sketch_dims",))
    return _apply_overrides(XtrConfig(limiter=limiter), mapping, "xtr", frozen_keys=("limiter",))


def _replay(trace: str, config: XtrConfig, seed: int) -> Xtr:
    """Run the trace file through a fresh router and return the router.

    `read_trace` parses the open file a block of lines at a time, so neither
    the trace's text nor a list of all its lines is ever held. The stream is
    freed when this returns, before the cache trace is written.
    """
    try:
        with Path(trace).open("rb") as lines:
            stream = read_trace(lines)
    except OSError as exc:
        raise OSError(f"cannot read trace {trace}: {exc}") from exc
    xtr = Xtr(config, seed=seed)
    xtr.run(stream)
    return xtr


def _cmd_replay(args) -> int:
    mapping = _parse_kv_file(args.config) if args.config else {}
    config = _replay_configs(mapping)
    seed, = _seed_list(args, (0,))
    xtr = _replay(args.trace, config, seed)
    out = Path(args.out)
    print(_write(out / "replay_metrics.csv", (replay_csv(seed, config, xtr.metrics),)))
    if config.record_cache_trace:
        trace, size = xtr.cache.trace, _TRACE_CHUNK_LINES
        chunks = ("\n".join(trace[i:i + size]) + "\n" for i in range(0, len(trace), size))
        print(_write(out / "cache_trace.txt", chunks))
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="xtrsim",
                     description="Map-cache miss-flood attack and defense simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: _Parser, *, seeds: bool = True) -> None:
        p.add_argument("--config", type=Path, help="key=value config file")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        p.add_argument("--seed", type=int, help="base seed")
        if seeds:  # a replay runs one router, at one seed
            p.add_argument("--seeds", type=int, help="number of consecutive seeds")

    p_sweep = sub.add_parser("sweep", help="false-positive rate vs sketch size")
    common(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_attack = sub.add_parser("attack", help="paired defended/undefended runs")
    p_attack.add_argument("scenario", choices=tuple(SCENARIOS))
    common(p_attack)
    p_attack.set_defaults(func=_cmd_attack)

    p_replay = sub.add_parser("replay", help="run a 'ts src dst role' trace")
    p_replay.add_argument("trace", help="trace file to replay")
    common(p_replay, seeds=False)
    p_replay.set_defaults(func=_cmd_replay, seeds=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a run larger than the memory it can get
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
