"""The four rules in `cache` that check a value, and every config and entry
point that uses them: a bad value is a ValueError that names it."""

from __future__ import annotations

import math
from dataclasses import fields, replace

import numpy as np
import pytest

from xtrsim.cache import (EidPrefix, MapCache, check_address, check_choice, check_count,
                          check_positive)
from xtrsim.cms import CountMinSketch, SketchDims, SketchParams, flagged_by_dims
from xtrsim.experiment import AttackConfig, SweepConfig, config_hash, dos_defaults, run_attack
from xtrsim.limiter import DestRateLimiter, LimiterConfig, SourceRateLimiter
from xtrsim.workloads import (BackgroundProfile, PopulationProfile, ScanProfile, gen_dos_stream,
                              scan_prefixes)
from xtrsim.xtr import PendingRequestTable, Xtr, XtrConfig

# ---------------------------------------------------------------- the rules


def test_check_address_takes_only_an_int_in_the_128_bit_range():
    for good in (0, 1, 2**128 - 1):
        check_address(good, "dst")
    for bad in (-1, 2**128, True, False, 1.0, "1", None, np.int64(1)):
        with pytest.raises(ValueError, match=r"^dst .* is not an integer in the 128-bit range$"):
            check_address(bad, "dst")


def test_check_count_takes_only_an_int_at_least_low():
    check_count("n", 0, 0)
    check_count("n", 2**70, 1)
    with pytest.raises(ValueError, match=r"^n must be >= 1, got 0$"):
        check_count("n", 0, 1)
    for bad in (True, 1.0, 2.5, "3", None, [1], np.int64(3)):
        with pytest.raises(ValueError, match=r"^n must be an int, got "):
            check_count("n", bad, 0)


def test_check_positive_takes_only_a_finite_number_above_zero():
    for good in (1, 0.5, 5e-324, 1e308):
        check_positive("p", good)
    for bad in (0, 0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=r"^p must be finite and > 0, got "):
            check_positive("p", bad)
    for bad in (True, "1", None, [1], np.float64(1.0)):
        with pytest.raises(ValueError, match=r"^p must be a number, got "):
            check_positive("p", bad)


def test_check_choice_takes_only_an_allowed_value_of_its_type():
    check_choice("policy", "lru", ("lru", "lfu-aging"))
    check_choice("flag", False, (True, False))
    check_choice("pinned", None, (None,))
    check_choice("strategy", "b", {"a": 1, "b": 2})  # a dict allows its keys
    with pytest.raises(ValueError, match=r"^policy must be 'lru' or 'lfu-aging', got 'lfu'$"):
        check_choice("policy", "lfu", ("lru", "lfu-aging"))
    # Equal but of another type: each would put another repr in config_hash.
    for name, value, allowed in (("policy", np.str_("lru"), ("lru",)), ("flag", 1, (True, False)),
                                 ("width", 2.0, (2,)), ("pinned", ["x"], (None,))):
        with pytest.raises(ValueError, match=f"^{name} must be "):
            check_choice(name, value, allowed)


# ------------------------------------------------- every field of every config

# One valid instance of each config and profile; each field is replaced in turn.
BASES = (XtrConfig(), LimiterConfig(), AttackConfig(), SweepConfig(), SketchDims(8, 2),
         SketchParams(0.1, 0.5), PopulationProfile(10, 0.1),
         ScanProfile(scan_prefixes(2), 1.0, 1.0), BackgroundProfile(1, 5))
# AttackConfig hands bg_zipf_exponent to BackgroundProfile, whose check names it.
NAMED_AS = {"AttackConfig.bg_zipf_exponent": "zipf_exponent"}


def bad_values(base, f) -> list:
    """None unless the field takes it, a str, a list; 2.5 for an int field; an
    equal value of another type for a str or bool field."""
    values = ["1", [1]] + ([] if "None" in f.type else [None])
    if f.type == "int":
        values.append(2.5)
    elif f.type == "str":
        values.append(np.str_(getattr(base, f.name)))
    elif f.type == "bool":
        values.append(int(getattr(base, f.name)))
    return values


SWEPT = [(base, f) for base in BASES for f in fields(base)]


def test_the_sweep_covers_every_field_the_nested_configs_included():
    # The two fields that hold a config are swept, and so is each config they hold.
    names = {type(base).__name__ for base in BASES}
    holding = {f"{type(base).__name__}.{f.name}": f.type for base, f in SWEPT
               if names & set(f.type.replace("|", " ").split())}
    assert holding == {"XtrConfig.limiter": "LimiterConfig",
                       "LimiterConfig.sketch_dims": "SketchDims | None"}


@pytest.mark.parametrize("base, f", SWEPT, ids=[f"{type(b).__name__}.{f.name}" for b, f in SWEPT])
def test_a_bad_value_of_any_field_is_a_value_error_naming_it(base, f):
    name = NAMED_AS.get(f"{type(base).__name__}.{f.name}", f.name)
    for bad in bad_values(base, f):
        with pytest.raises(ValueError, match=name):
            replace(base, **{f.name: bad})


def test_a_pinned_field_of_another_type_is_refused_so_the_hash_holds():
    # np.str_("shared") == "shared", but its repr is np.str_('shared'): the
    # same router under another config_hash.
    assert config_hash(XtrConfig()) == "0830e136a83d"
    with pytest.raises(ValueError, match=r"^dest_mode must be 'shared', got np.str_\('shared'\)$"):
        XtrConfig(dest_mode=np.str_("shared"))


# ------------------------------------------- direct calls that raised another type

def table() -> PendingRequestTable:
    return PendingRequestTable(2, 1.0)


def flag(**changes):
    """A valid flagged_by_dims call with the named arguments changed."""
    args = dict(keys=np.array([1, 2]), counts=np.array([1, 3]), dims_list=[SketchDims(8, 1)],
                threshold=5, seed=0)
    return flagged_by_dims(**{**args, **changes})


# Each once raised TypeError or OverflowError, or stored True as an address.
DIRECT_CALLS = {
    "XtrConfig-cache_capacity-str": (lambda: XtrConfig(cache_capacity="3"), "cache_capacity"),
    "XtrConfig-reply_loss-None": (lambda: XtrConfig(reply_loss=None), "reply_loss"),
    "LimiterConfig-period-None": (lambda: LimiterConfig(period=None), "period"),
    "SketchDims-width-str": (lambda: SketchDims("5", 1), "width"),
    "AttackConfig-duration-None": (lambda: AttackConfig(duration=None), "duration"),
    "SweepConfig-iterations-str": (lambda: SweepConfig(iterations="2"), "iterations"),
    "PopulationProfile-n_nodes-str": (lambda: PopulationProfile("5", 0.1), "n_nodes"),
    "MapCache-capacity-str": (lambda: MapCache("2"), "capacity"),
    "DestRateLimiter-budget-str": (lambda: DestRateLimiter("5", 1.0), "budget"),
    "insert-address-float": (lambda: table().insert(1.5, 0.0, "legit"), "address"),
    "EidPrefix-prefix_len-float": (lambda: EidPrefix(1, 128.0), "prefix_len"),
    "increment-amount-float": (lambda: CountMinSketch(SketchDims(8, 2)).increment(1, 1.5),
                               "amount"),
    "run_attack-seed-float": (lambda: run_attack(dos_defaults(), seeds=(1.5,)), "seeds"),
    "gen_dos_stream-duration-nan": (
        lambda: gen_dos_stream(PopulationProfile(5, 0.2), duration=math.nan), "duration"),
    "EidPrefix.host-True": (lambda: EidPrefix.host(True), "address"),
    "EidPrefix-address-True": (lambda: EidPrefix(True, 128), "address"),
    "insert-address-True": (lambda: table().insert(True, 0.0, "legit"), "address"),
    "install-locators-int": (lambda: MapCache(2).install(EidPrefix.host(1), 5, 0.0), "locators"),
    # Each once raised TypeError or AttributeError later, or was taken as is.
    "install-prefix-tuple": (lambda: MapCache(2).install((3, 7), (1,), 0.0), "prefix"),
    "install-prefix-int": (lambda: MapCache(2).install(5, (1,), 0.0), "prefix"),
    "XtrConfig-limiter-str": (lambda: XtrConfig(limiter="x"), "limiter"),
    "LimiterConfig-sketch_dims-tuple": (
        lambda: LimiterConfig(backend="cms", sketch_dims=(1000, 4)), "sketch_dims"),
    "run_attack-seeds-int": (lambda: run_attack(dos_defaults(), seeds=5), "seeds"),
    # Each once raised AttributeError or TypeError, or was taken as is; each is
    # checked once, where the object enters, and no packet is checked again.
    "Xtr-config-None": (lambda: Xtr(None), "^config must be an XtrConfig, got None$"),
    "Xtr-seed-str": (lambda: Xtr(XtrConfig(), seed="x"), "^seed must be an int, got 'x'$"),
    "run-stream-None": (lambda: Xtr(XtrConfig()).run(None),
                        "^stream must be a Stream, got NoneType$"),
    "SourceRateLimiter-config-None": (lambda: SourceRateLimiter(None),
                                      "^config must be a LimiterConfig, got None$"),
    "CountMinSketch-dims-None": (lambda: CountMinSketch(None),
                                 "^dims must be a SketchDims, got None$"),
    "scan_prefixes-count-str": (lambda: scan_prefixes("3"), "^count must be an int, got '3'$"),
    # Each once raised UFuncTypeError, AttributeError or TypeError, or was
    # taken as is; each is refused before the sweep's lanes start.
    "flagged_by_dims-threshold-str": (lambda: flag(threshold="5"),
                                      "^threshold must be an int, got '5'$"),
    "flagged_by_dims-threshold-nan": (lambda: flag(threshold=math.nan),
                                      "^threshold must be an int, got nan$"),
    "flagged_by_dims-threshold-unreachable": (lambda: flag(threshold=10**6),
                                              "^threshold 1000000 is unreachable"),
    "flagged_by_dims-seed-negative": (lambda: flag(seed=-1), "^seed must be >= 0, got -1$"),
    "flagged_by_dims-seed-str": (lambda: flag(seed="x"), "^seed must be an int, got 'x'$"),
    "flagged_by_dims-dims_list-None": (lambda: flag(dims_list=None),
                                       "^dims_list must be a list of SketchDims, got None$"),
    "flagged_by_dims-dims_list-tuple": (lambda: flag(dims_list=[(8, 1)]),
                                        r"^dims_list must hold only SketchDims, got \(8, 1\)$"),
    "flagged_by_dims-counts-float": (lambda: flag(counts=np.array([1.5, 2.0])),
                                     "^counts must be an integer array, got dtype float64$"),
    "flagged_by_dims-counts-short": (lambda: flag(counts=np.array([1])),
                                     r"^keys and counts must be 1-D arrays of one length"),
    "flagged_by_dims-keys-2d": (lambda: flag(keys=np.array([[1, 2]]), counts=np.array([[1, 3]])),
                                r"^keys and counts must be 1-D arrays of one length"),
    "add_counts-counts-float": (
        lambda: CountMinSketch(SketchDims(8, 2)).add_counts(np.array([1, 2]), np.array([1.5, 2.0])),
        "^counts must be an integer array, got dtype float64$"),
}


@pytest.mark.parametrize("call, name", DIRECT_CALLS.values(), ids=DIRECT_CALLS.keys())
def test_a_direct_call_with_a_bad_value_is_a_value_error_naming_it(call, name):
    with pytest.raises(ValueError, match=name):
        call()
