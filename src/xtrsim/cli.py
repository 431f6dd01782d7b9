"""Command-line front end.

Subcommands: `sweep` (detector sizing sweep), `attack dos|overflow|scan`
(paired defended/undefended runs), `replay <trace>` (run a packet trace
through one router). Configuration comes from flat key=value files whose keys
carry a section prefix, e.g.::

    sweep.w_step=1000
    sweep.n_nodes=50000,100000
    attack.threshold=50
    xtr.cache_capacity=512

Exit codes: 0 on success, 1 for invalid configuration, 2 for I/O failures.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import Iterable

from .cms import SketchDims
from .experiment import (DEFAULT_SEEDS, PLOT_SCRIPT, SCENARIOS, InvalidConfig, IoFailure,
                         SweepConfig, attack_csv, attack_summary_csv, config_hash, run_attack,
                         run_sweep, sweep_csv)
from .limiter import LimiterConfig
from .workloads import read_trace
from .xtr import Xtr, XtrConfig


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage errors are configuration errors
        raise InvalidConfig(message)


def _parse_kv_file(path: Path) -> dict[str, str]:
    try:
        text = path.read_text()
    except FileNotFoundError as exc:
        raise InvalidConfig(f"config file not found: {path}") from exc
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise InvalidConfig(f"{path}:{lineno}: expected key=value, got {raw!r}")
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
        if isinstance(default, int):
            return int(text)
        if isinstance(default, float):
            return float(text)
        return text
    except ValueError as exc:
        raise InvalidConfig(f"bad value for {key}: {exc}") from exc


def _apply_overrides(config, mapping: dict[str, str], prefix: str, *,
                     frozen_keys: tuple[str, ...] = ()):
    """Overlay `<prefix>.<field>=value` entries onto a config dataclass."""
    known = {f.name: getattr(config, f.name) for f in fields(config)}
    updates = {}
    for key, text in mapping.items():
        section, _, name = key.partition(".")
        if section != prefix:
            continue
        if name in frozen_keys:
            raise InvalidConfig(f"{key} is fixed by the subcommand")
        if name not in known:
            raise InvalidConfig(f"unknown config key: {key}")
        updates[name] = _convert(known[name], text, key)
    return replace(config, **updates) if updates else config


def _seed_list(args, default: tuple[int, ...]) -> tuple[int, ...]:
    if args.seed is None and args.seeds is None:
        return default
    base = args.seed if args.seed is not None else default[0]
    if base < 0:
        raise InvalidConfig(f"--seed must be >= 0, got {base}")
    count = args.seeds if args.seeds is not None else len(default)
    if count < 1:
        raise InvalidConfig("--seeds must be >= 1")
    return tuple(base + i for i in range(count))


def _write(path: Path, pieces: Iterable[str]) -> Path:
    """Write the pieces, in order, as one text file; a failure is an IoFailure.

    Pieces are written as they come, so a large output never has to be
    joined into one string first.
    """
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as file:
            file.writelines(pieces)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
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
        if size[key] < 1:
            raise InvalidConfig(f"{key} must be >= 1, got {size[key]}")
    dims = SketchDims(size["limiter.w"], size["limiter.d"])
    limiter = _apply_overrides(LimiterConfig(backend="cms", sketch_dims=dims), mapping,
                               "limiter", frozen_keys=("sketch_dims",))
    return _apply_overrides(XtrConfig(limiter=limiter), mapping, "xtr", frozen_keys=("limiter",))


def _replay(trace: str, config: XtrConfig, seed: int) -> Xtr:
    """Run the trace file through a fresh router and return the router.

    The trace text lives only until `read_trace` returns and the event list
    only until `Xtr.run` returns, so neither is still held while the cache
    trace is written.
    """
    try:
        events = read_trace(Path(trace).read_text())
    except OSError as exc:
        raise IoFailure(f"cannot read trace {trace}: {exc}") from exc
    xtr = Xtr(config, seed=seed)
    xtr.run(events)
    return xtr


def _cmd_replay(args) -> int:
    mapping = _parse_kv_file(args.config) if args.config else {}
    config = _replay_configs(mapping)
    seed = args.seed if args.seed is not None else 0
    xtr = _replay(args.trace, config, seed)
    row = xtr.metrics.as_row()
    csv_text = ("seed,config_hash," + ",".join(row) + "\n"
                + f"{seed},{config_hash(config)}," + ",".join(str(v) for v in row.values()) + "\n")
    out = Path(args.out)
    print(_write(out / "replay_metrics.csv", (csv_text,)))
    if config.record_cache_trace:
        print(_write(out / "cache_trace.txt", (f"{line}\n" for line in xtr.cache.trace)))
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="xtrsim",
                     description="Map-cache miss-flood attack and defense simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: _Parser) -> None:
        p.add_argument("--config", type=Path, help="key=value config file")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        p.add_argument("--seed", type=int, help="base seed")
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
    common(p_replay)
    p_replay.set_defaults(func=_cmd_replay)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (IoFailure, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
