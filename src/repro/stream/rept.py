"""Sequential per-processor REPT (paper Algorithms 1 and 2).

``rept_processor`` is the body of the paper's ``foreach (u,v) ∈ Π``
loop for one processor: it maintains the sampled edge set E^(i) as
adjacency sets, counts semi-triangles (τ^(i), τ_v^(i)), and — when
``track_eta`` — the triangle-pair counters (η^(i), η_v^(i), τ^(i)_(u,v))
of Algorithm 2, faithfully including the ``τ_(u,v) ← |N_uv|``
initialization at insert time.

``rept_run`` assembles a full REPT estimate (either algorithm) from c
sequential processors — used by tests and small jobs; the NRMSE sweeps
use the batch-equivalent SQL engine instead.
"""
from __future__ import annotations

import time

import numpy as np

from repro.core.estimators import combine_alg2
from repro.core.hashing import bucket, mix_seeds
from repro.graphs.datasets import Stream

_GROUP_SALT = 0xA11CE


def group_seed(seed: int, g: int) -> int:
    """Hash seed of group g of an Algorithm 2 run with seed ``seed``."""
    return mix_seeds(seed, g, _GROUP_SALT)


def rept_processor(
    stream: Stream,
    m: int,
    proc: int,
    seed: int,
    track_eta: bool = False,
    track_local: bool = False,
) -> dict:
    """Run one REPT processor over the whole stream.

    Returns ``tau`` (τ^(i)), ``eta`` (η^(i)), sparse dicts ``tau_v`` /
    ``eta_v``, the number of stored edges, and the loop wall time.
    """
    buckets = bucket(stream.k, seed, m)
    u_arr, v_arr = stream.u, stream.v
    adj: dict[int, set[int]] = {}
    tau = 0
    eta = 0
    tau_v: dict[int, int] = {}
    eta_v: dict[int, int] = {}
    tau_edge: dict[tuple[int, int], int] = {}
    t0 = time.perf_counter()
    for j in range(len(u_arr)):
        a = int(u_arr[j])
        b = int(v_arr[j])
        na = adj.get(a)
        nb = adj.get(b)
        n_common = 0
        if na and nb:
            common = na & nb if len(na) <= len(nb) else nb & na
            n_common = len(common)
            if n_common:
                tau += n_common
                if track_local:
                    tau_v[a] = tau_v.get(a, 0) + n_common
                    tau_v[b] = tau_v.get(b, 0) + n_common
                for w in common:
                    if track_local:
                        tau_v[w] = tau_v.get(w, 0) + 1
                    if track_eta:
                        kaw = (a, w) if a < w else (w, a)
                        kbw = (b, w) if b < w else (w, b)
                        tuw = tau_edge[kaw]
                        tvw = tau_edge[kbw]
                        eta += tuw + tvw
                        if track_local:
                            eta_v[w] = eta_v.get(w, 0) + tuw + tvw
                            eta_v[a] = eta_v.get(a, 0) + tuw
                            eta_v[b] = eta_v.get(b, 0) + tvw
                        tau_edge[kaw] = tuw + 1
                        tau_edge[kbw] = tvw + 1
        if buckets[j] == proc:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
            if track_eta:
                key = (a, b) if a < b else (b, a)
                tau_edge[key] = n_common
    elapsed = time.perf_counter() - t0
    n_sampled = sum(len(s) for s in adj.values()) // 2
    return {
        "tau": tau,
        "eta": eta,
        "tau_v": tau_v,
        "eta_v": eta_v,
        "n_sampled": n_sampled,
        "elapsed": elapsed,
    }


def rept_run(
    stream: Stream, m: int, c: int, seed: int, track_local: bool = False
) -> dict:
    """Full REPT estimate from c sequential processors (driver-side).

    Mirrors Algorithm 1 (c ≤ m) / Algorithm 2 (c > m) including the
    Graybill–Deal combination; local estimates are sparse dicts.
    """
    if c <= m:
        procs = [
            rept_processor(stream, m, i, seed, track_eta=False, track_local=track_local)
            for i in range(c)
        ]
        tau_hat = (m * m / c) * sum(p["tau"] for p in procs)
        locals_: dict[int, float] = {}
        if track_local:
            for p in procs:
                for v, t in p["tau_v"].items():
                    locals_[v] = locals_.get(v, 0.0) + t
            locals_ = {v: t * m * m / c for v, t in locals_.items()}
        return {"tau_hat": tau_hat, "tau_v_hat": locals_, "procs": procs}

    c1, c2 = divmod(c, m)
    group_results: list[list[dict]] = []
    for g in range(c1 + (1 if c2 else 0)):
        gseed = group_seed(seed, g)
        n_proc = m if g < c1 else c2
        group_results.append(
            [
                rept_processor(stream, m, i, gseed, track_eta=True, track_local=track_local)
                for i in range(n_proc)
            ]
        )
    full = [p for g in group_results[:c1] for p in g]
    tau1 = (m / c1) * sum(p["tau"] for p in full)
    if c2 == 0:
        locals_: dict[int, float] = {}
        if track_local:
            for p in full:
                for v, t in p["tau_v"].items():
                    locals_[v] = locals_.get(v, 0.0) + t
            locals_ = {v: t * m / c1 for v, t in locals_.items()}
        return {"tau_hat": tau1, "tau_v_hat": locals_, "procs": full}
    part = group_results[c1]
    tau2 = (m * m / c2) * sum(p["tau"] for p in part)
    eta_hat = (m**3 / c) * sum(p["eta"] for g in group_results for p in g)
    tau_hat = float(combine_alg2(tau1, tau2, eta_hat, m, c))

    locals_: dict[int, float] = {}
    if track_local:
        t1: dict[int, float] = {}
        t2: dict[int, float] = {}
        ev: dict[int, float] = {}
        for p in full:
            for v, t in p["tau_v"].items():
                t1[v] = t1.get(v, 0.0) + t
        for p in part:
            for v, t in p["tau_v"].items():
                t2[v] = t2.get(v, 0.0) + t
        for g in group_results:
            for p in g:
                for v, e in p["eta_v"].items():
                    ev[v] = ev.get(v, 0.0) + e
        for v in set(t1) | set(t2) | set(ev):
            tv1 = t1.get(v, 0.0) * m / c1
            tv2 = t2.get(v, 0.0) * m * m / c2
            ehat = ev.get(v, 0.0) * m**3 / c
            locals_[v] = float(combine_alg2(tv1, tv2, ehat, m, c))
    return {
        "tau_hat": tau_hat,
        "tau_v_hat": locals_,
        "tau1": tau1,
        "tau2": tau2,
        "eta_hat": eta_hat,
        "procs": [p for g in group_results for p in g],
    }
