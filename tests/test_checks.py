"""The five rules in `cache` that check a value, and every config and entry
point that uses them: a bad value is a ValueError that names it."""

from __future__ import annotations

import math
from dataclasses import fields, replace

import numpy as np
import pytest

from xtrsim.cache import (EidPrefix, MapCache, TumblingWindow, check_address, check_choice,
                          check_count, check_positive, check_type)
from xtrsim.cms import CountMinSketch, SketchDims, SketchParams, flagged_by_dims
from xtrsim.experiment import AttackConfig, SweepConfig, config_hash, dos_defaults, run_attack
from xtrsim.limiter import DestRateLimiter, LimiterConfig, SourceRateLimiter
from xtrsim.workloads import (BackgroundProfile, PopulationProfile, ScanProfile, Stream,
                              gen_dos_stream, gen_scan_stream, scan_prefixes)
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


def test_check_type_takes_only_an_instance_of_the_class_itself():
    check_type("dims", SketchDims(8, 2), SketchDims)
    check_type("dims_list", [], list)

    class Dims(list):
        pass

    # A subclass is another class; a value is named by its type, not its repr,
    # which for a stream or an array can be huge.
    for bad, named in ((Dims(), "Dims"), (None, "NoneType"), ((), "tuple"),
                       (np.zeros(3), "ndarray")):
        with pytest.raises(ValueError, match=f"^dims_list must be of type list, got {named}$"):
            check_type("dims_list", bad, list)
    with pytest.raises(ValueError, match="^n must be of type int, got bool$"):
        check_type("n", True, int)


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
    with pytest.raises(TypeError, match=r"unexpected keyword argument 'dest_mode'$"):
        XtrConfig(dest_mode=np.str_("shared"))


# Fields that take one value: config_hash reads them in the repr, so they
# stay there, but no constructor, replace() or CLI key can set them.
FIXED = {XtrConfig: ("dest_mode", "reply_prefix_for", "source_key"),
         LimiterConfig: ("sketch_params", "cell_width_bytes", "strict_threshold")}


def test_the_fixed_fields_stay_in_the_repr_but_are_no_settings():
    assert repr(XtrConfig()) == (
        "XtrConfig(cache_capacity=1024, cache_policy='lru', age_interval=5.0, age_mode='halve', "
        "source_limiter_enabled=True, limiter=LimiterConfig(threshold=1000, period=1.0, "
        "backend='exact', sketch_dims=None, sketch_params=None, cell_width_bytes=2, "
        "strict_threshold=True), dest_budget=10000, dest_period=1.0, dest_mode='shared', "
        "pending_capacity=4096, reply_latency=0.04, pending_timeout=None, reply_loss=0.0, "
        "record_cache_trace=False, reply_prefix_for=None, source_key=None)")
    cms = LimiterConfig(backend="cms", sketch_dims=SketchDims(1000, 4))
    assert repr(cms) == (
        "LimiterConfig(threshold=1000, period=1.0, backend='cms', sketch_dims=SketchDims("
        "width=1000, depth=4), sketch_params=None, cell_width_bytes=2, strict_threshold=True)")
    assert config_hash(XtrConfig(limiter=cms)) == "ea4340f69c60"
    assert {cls: tuple(f.name for f in fields(cls) if not f.init) for cls in FIXED} == FIXED
    assert [sum(f.init for f in fields(cls)) for cls in FIXED] == [13, 4]


@pytest.mark.parametrize("cls, name", [(cls, name) for cls, names in FIXED.items()
                                       for name in names])
def test_replace_refuses_a_fixed_field_naming_it(cls, name):
    config = cls()
    with pytest.raises(ValueError, match=f"^field {name} is declared with init=False"):
        replace(config, **{name: getattr(config, name)})


# ------------------------------------------- direct calls that raised another type

def table(*addresses: int) -> PendingRequestTable:
    """A table of capacity 2 holding a request for each address, sent at 0."""
    pending = PendingRequestTable(2, 1.0)
    for address in addresses:
        pending.insert(address, 0.0, "legit")
    return pending


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
    "Xtr-config-None": (lambda: Xtr(None), "^config must be of type XtrConfig, got NoneType$"),
    "Xtr-seed-str": (lambda: Xtr(XtrConfig(), seed="x"), "^seed must be an int, got 'x'$"),
    "run-stream-None": (lambda: Xtr(XtrConfig()).run(None),
                        "^stream must be of type Stream, got NoneType$"),
    "SourceRateLimiter-config-None": (lambda: SourceRateLimiter(None),
                                      "^config must be of type LimiterConfig, got NoneType$"),
    "CountMinSketch-dims-None": (lambda: CountMinSketch(None),
                                 "^dims must be of type SketchDims, got NoneType$"),
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
                                       "^dims_list must be of type list, got NoneType$"),
    "flagged_by_dims-dims_list-tuple": (lambda: flag(dims_list=[(8, 1)]),
                                        r"^dims_list\[0\] must be of type SketchDims, got tuple$"),
    "flagged_by_dims-counts-float": (lambda: flag(counts=np.array([1.5, 2.0])),
                                     "^counts must be an integer array, got dtype float64$"),
    "flagged_by_dims-counts-short": (lambda: flag(counts=np.array([1])),
                                     r"^keys and counts must be 1-D arrays of one length"),
    "flagged_by_dims-keys-2d": (lambda: flag(keys=np.array([[1, 2]]), counts=np.array([[1, 3]])),
                                r"^keys and counts must be 1-D arrays of one length"),
    "add_counts-counts-float": (
        lambda: CountMinSketch(SketchDims(8, 2)).add_counts(np.array([1, 2]), np.array([1.5, 2.0])),
        "^counts must be an integer array, got dtype float64$"),
    "ScanProfile-prefix_list-int": (
        lambda: gen_scan_stream(ScanProfile((1, 2), 1.0, 1.0), BackgroundProfile(1, 1)),
        r"^prefix_list\[0\] must be of type EidPrefix, got int$"),
    # Each once raised TypeError or AttributeError, or took a role that names
    # no Tally field; each is refused by the comparison or sum it already made.
    "consume-now-str": (lambda: DestRateLimiter(5, 1.0).consume("x"),
                        "^time must be a number, got 'x'$"),
    "on_miss-now-str": (lambda: SourceRateLimiter(LimiterConfig()).on_miss(1, "x"),
                        "^time must be a number, got 'x'$"),
    "advance-now-str": (lambda: TumblingWindow(1.0).advance("x"),
                        "^time must be a number, got 'x'$"),
    "insert-now-str": (lambda: table().insert(1, "x", "legit"), "^time must be a number, got 'x'$"),
    "expire_due-now-str": (lambda: table(1).expire_due("x"), "^time must be a number, got 'x'$"),
    # Each was once taken: a NaN deadline stalled every later expiry behind
    # it, and a NaN time spent the current window's budget.
    "insert-now-nan": (lambda: table().insert(1, math.nan, "legit"),
                       "^time must be finite, got nan$"),
    "insert-now-inf": (lambda: table().insert(1, math.inf, "legit"),
                       "^time must be finite, got inf$"),
    # Once an OverflowError: an int past the largest float does not add to one.
    "insert-now-past-float": (lambda: table().insert(1, 10**400, "legit"),
                              "^time must be finite, got 1000"),
    "consume-now-nan": (lambda: DestRateLimiter(1, 1.0).consume(math.nan),
                        "^time nan has no finite window index at period 1.0$"),
    "on_miss-now-nan": (lambda: SourceRateLimiter(LimiterConfig()).on_miss(1, math.nan),
                        "^time nan has no finite window index at period 1.0$"),
    "insert-role-unknown": (lambda: table().insert(5, 0.0, "eve"),
                            "^role must be 'legit' or 'attacker', got 'eve'$"),
    "deliver_reply-entry-None": (lambda: Xtr(XtrConfig()).deliver_reply(None, 0.0),
                                 "^entry must be a pending request, got None$"),
    "run-stream-column-iterator": (
        lambda: Xtr(XtrConfig()).run(Stream(iter([0.0]), [1], [2], ["legit"])),
        "^stream columns must be sequences, each with a length$"),
}


@pytest.mark.parametrize("call, name", DIRECT_CALLS.values(), ids=DIRECT_CALLS.keys())
def test_a_direct_call_with_a_bad_value_is_a_value_error_naming_it(call, name):
    with pytest.raises(ValueError, match=name):
        call()
