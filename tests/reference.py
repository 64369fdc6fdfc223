"""Driver-side numpy reference for per-processor REPT/MASCOT outputs.

An independent third implementation path (besides the sequential
simulator and the Spark SQL engine) used by tests to cross-check the
*per-processor* quantities τ^(i), τ_v^(i), η^(i) bit-for-bit. Operates
on the collected narrow triangle table ``(x, y, z, t1, t2, t3)`` of a
small graph plus the stream's edge keys ``stream.k`` (indexed by t).
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.hashing import bucket, uniform01


def rept_processor_counts(
    tri: pd.DataFrame, keys: np.ndarray, m: int, lim: int, seed: int
) -> dict:
    """Per-processor τ^(i), τ_v^(i), η^(i) of processors 0 … lim−1 of
    one REPT group with m buckets and hash seed ``seed`` (lim = c for
    Algorithm 1; m or c2 for a group of Algorithm 2).

    Returns ``{"tau": ndarray[lim], "eta": ndarray[lim], "tau_v": {(i, v): cnt}}``.
    """
    b = bucket(keys, seed, m)
    t1, t2, t3 = (tri[c].to_numpy() for c in ("t1", "t2", "t3"))
    b1, b2, b3 = b[t1], b[t2], b[t3]
    mask = (b1 == b2) & (b1 < lim)
    tau = np.bincount(b1[mask], minlength=lim)

    tau_v: dict[tuple[int, int], int] = {}
    for colname in ("x", "y", "z"):
        for proc, v in zip(b1[mask], tri[colname].to_numpy()[mask]):
            tau_v[(int(proc), int(v))] = tau_v.get((int(proc), int(v)), 0) + 1

    # x_g: sampled semi-triangles with g among their first two edges;
    # y_g: those with g as last edge, stored on the same processor as g.
    x = np.zeros(len(keys), dtype=np.int64)
    y = np.zeros(len(keys), dtype=np.int64)
    np.add.at(x, t1[mask], 1)
    np.add.at(x, t2[mask], 1)
    np.add.at(y, t3[mask & (b3 == b1)], 1)
    eta = np.zeros(lim, dtype=np.int64)
    for g in np.flatnonzero(x):
        eta[b[g]] += x[g] * (x[g] - 1) // 2 + x[g] * y[g]
    return {"tau": tau, "eta": eta, "tau_v": tau_v}


def mascot_trial_count(tri: pd.DataFrame, keys: np.ndarray, p: float, seed: int) -> int:
    """Semi-triangle count of one MASCOT trial at seed (truth for the
    SQL and streaming engines)."""
    sampled = uniform01(keys, seed) < p
    return int((sampled[tri["t1"].to_numpy()] & sampled[tri["t2"].to_numpy()]).sum())
