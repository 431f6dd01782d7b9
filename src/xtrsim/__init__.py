"""Simulator for miss-flood attacks on pull-based map-cache routers.

The package models an edge router that resolves destination mappings on
demand, the three control-plane attacks that abuses: request flooding against
a shared Map-Request budget, nonce-table exhaustion, and cache-polluting
prefix scans, plus the defenses: a Count-Min-Sketch-backed per-source miss
limiter and an LFU-with-aging cache policy.
"""

__version__ = "0.1.0"
