"""The benchmark's fixed workloads and how a workload seed becomes a run.

This module is plain data plus seed arithmetic and imports nothing from
tiewarp, so run.py can validate its arguments without importing the program
under test. NOTES.md gives the reasons behind each workload.
"""

from __future__ import annotations

import hashlib

# Seed whose first input's sequential reference digest is frozen in
# reference_digests.json.
DEFAULT_SEED = 0

# Inputs per workload seed. Timed runs pass over them, so a run's median
# spans several global and chaos seeds: rollback counts, and with them the
# optimistic workloads' throughput, differ between seeds.
VARIANTS = 8

# RunSpec fields per workload; every workload runs in mode lex. End times
# are chosen so one run takes 0.4-0.9 s on a 2-core 2 GHz x86 box; the
# stress model's end time is already its smallest, 1.
WORKLOADS = {
    "phold-seq": {"model": "phold", "n_lps": 1024, "remote_prob": 0.1,
                  "end_time": 15.0, "workers": 1},
    "phold-opt": {"model": "phold", "n_lps": 1024, "remote_prob": 0.1,
                  "end_time": 10.0, "workers": 4},
    "ties-opt": {"model": "event-ties", "n_lps": 256, "chain_length": 2,
                 "end_time": 10.0, "workers": 8},
    "stress-opt": {"model": "event-ties-stress", "n_lps": 64, "height": 6,
                   "arity": 2, "end_time": 1.0, "workers": 4},
}


def derived_seeds(workload: str, seed: int, variant: int) -> tuple[int, int]:
    """(global seed, chaos seed) of one input; pure and 32-bit."""
    h = hashlib.sha256(f"{workload}/{seed}/{variant}".encode("ascii")).digest()
    return int.from_bytes(h[:4], "big"), int.from_bytes(h[4:8], "big")


def spec_fields(workload: str, seed: int, variant: int) -> dict:
    """Keyword arguments for ``tiewarp.RunSpec`` of one input."""
    global_seed, chaos_seed = derived_seeds(workload, seed, variant)
    return {**WORKLOADS[workload], "mode": "lex", "seed": global_seed,
            "chaos_seed": chaos_seed}
