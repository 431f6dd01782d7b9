"""Simulator for miss-flood attacks on pull-based map-cache routers.

The package models an edge router that resolves destination mappings on
demand, the three control-plane attacks that abuses: request flooding against
a shared Map-Request budget, nonce-table exhaustion, and cache-polluting
prefix scans, plus the defenses: a Count-Min-Sketch-backed per-source miss
limiter and an LFU-with-aging cache policy.
"""

from .cache import (ADDRESS_BITS, DuplicateInstall, EidPrefix, MapCache,
                    MapCacheEntry, PolicyMismatch)
from .cms import (CountMinSketch, InvalidParams, SketchDims, SketchParams,
                  dims_from_params)
from .experiment import (AttackConfig, AttackRun, InvalidConfig, IoFailure,
                         SweepConfig, SweepRow, attack_csv, attack_summary_csv,
                         dos_defaults, emit_outputs, overflow_defaults, run_attack,
                         run_sweep, scan_defaults, sweep_csv, sweep_schedule)
from .limiter import Decision, DestRateLimiter, LimiterConfig, SourceRateLimiter
from .workloads import (BackgroundProfile, MissCounts, PacketEvent,
                        PopulationProfile, Role, ScanProfile, gen_dos_stream,
                        gen_miss_counts, gen_scan_stream, read_trace,
                        scan_prefixes, write_trace, zipf_probabilities)
from .xtr import (PendingRequestTable, StepOutcome, Tally, TimeRegression, Xtr,
                  XtrConfig, XtrMetrics)

__version__ = "0.1.0"
