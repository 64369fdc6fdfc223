"""Batch-equivalent REPT engine (Algorithms 1 and 2) over Spark SQL.

At end of stream, REPT's outputs are deterministic in the hash seed
(DESIGN.md §2): a triangle is a semi-triangle on processor i iff its
first two stream edges hash to bucket i; the online η^(i) equals
``Σ_g [C(x_g,2) + x_g·y_g]`` (x = sampled not-last multiplicity,
y = sampled last-edge multiplicity at bucket h(g)). This module
evaluates those closed forms for many runs at once with the
:mod:`repro.core.indicator` kernels over the narrow triangle table,
in one pass per call, reproducing exactly what the sequential
simulator in :mod:`repro.stream.rept` would output.

Bucket convention: processors are 0-indexed; group g of Algorithm 2
uses the seed :func:`repro.stream.rept.group_seed`. A job dict carries
``(seed, m, lim)`` where ``lim`` is c for Algorithm 1, m for a full
group and c2 for the leftover group.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.estimators import combine_alg2
from repro.core.hashing import bucket
from repro.core.indicator import per_job_counts, per_job_key_counts
from repro.graphs.exact import TriangleTables
from repro.stream.rept import group_seed


def kernel_semi(keys: np.ndarray, job: dict) -> np.ndarray:
    """Processor of each edge in this job's group: its bucket, or −1
    when the bucket has no processor (≥ lim)."""
    b = bucket(keys, job["seed"], job["m"])
    return np.where(b < job["lim"], b, -1)


def _alg1_jobs(m: int, c: int, seeds: list[int]) -> list[dict]:
    return [{"seed": s, "m": m, "lim": c} for s in seeds]


def _alg2_jobs(m: int, c: int, seeds: list[int]) -> tuple[list[dict], pd.DataFrame]:
    """Jobs of every group of every run, and their ``(job, run, partial)``."""
    c1, c2 = divmod(c, m)
    jobs, meta = [], []
    for r, s in enumerate(seeds):
        for g in range(c1 + (1 if c2 else 0)):
            jobs.append({"seed": group_seed(s, g), "m": m, "lim": m if g < c1 else c2})
            meta.append((len(meta), r, g == c1))
    return jobs, pd.DataFrame(meta, columns=["job", "run", "partial"])


def rept_global_runs(
    spark: SparkSession, tables: TriangleTables, m: int, c: int, seeds: list[int]
) -> pd.DataFrame:
    """Global REPT estimates τ̂ for each run seed.

    Returns pandas ``(run, tau_hat)`` plus diagnostics (``tau1``,
    ``tau2``, ``eta_hat`` for the c > m, c2 ≠ 0 case).
    """
    runs = range(len(seeds))
    if c <= m:
        jobs = _alg1_jobs(m, c, seeds)
        cnt = per_job_counts(tables.triangles, jobs, kernel_semi, tables.stream)
        return pd.DataFrame({"run": runs, "tau_hat": cnt["cnt"].to_numpy() * (m * m / c)})

    c1, c2 = divmod(c, m)
    jobs, meta = _alg2_jobs(m, c, seeds)
    cnt = per_job_counts(tables.triangles, jobs, kernel_semi, tables.stream, eta=c2 > 0)
    cnt = cnt.merge(meta, on="job")
    full = cnt[~cnt["partial"]].groupby("run")["cnt"].sum()
    tau1 = (full * (m / c1)).reindex(runs, fill_value=0.0)
    if c2 == 0:
        return pd.DataFrame({"run": runs, "tau_hat": tau1.to_numpy()})

    part = cnt[cnt["partial"]].groupby("run")["cnt"].sum()
    tau2 = (part * (m * m / c2)).reindex(runs, fill_value=0.0)
    eta_run = cnt.groupby("run")["eta"].sum().reindex(runs, fill_value=0)
    eta_hat = eta_run * (m**3 / c)
    tau_hat = combine_alg2(tau1.to_numpy(), tau2.to_numpy(), eta_hat.to_numpy(), m, c)
    return pd.DataFrame(
        {
            "run": runs,
            "tau_hat": tau_hat,
            "tau1": tau1.to_numpy(),
            "tau2": tau2.to_numpy(),
            "eta_hat": eta_hat.to_numpy(),
        }
    )


def rept_local_runs(
    spark: SparkSession, tables: TriangleTables, m: int, c: int, seeds: list[int]
) -> pd.DataFrame:
    """Local REPT estimates as sparse pandas ``(run, v, est)`` — the
    (run, node) pairs absent from the output are estimates of 0."""
    if c <= m:
        jobs = _alg1_jobs(m, c, seeds)
        vc = per_job_key_counts(tables.triangles, jobs, kernel_semi, tables.stream)
        vc = vc.sort_values(["job", "v"], ignore_index=True)
        vc["run"] = vc["job"]
        vc["est"] = vc["cnt"] * (m * m / c)
        return vc[["run", "v", "est"]]

    c1, c2 = divmod(c, m)
    jobs, meta = _alg2_jobs(m, c, seeds)
    vc = per_job_key_counts(tables.triangles, jobs, kernel_semi, tables.stream, eta=c2 > 0)
    vc = vc.merge(meta, on="job")
    tau1 = (
        vc[~vc["partial"]].groupby(["run", "v"])["cnt"].sum() * (m / c1)
    ).rename("tau1")
    if c2 == 0:
        out = tau1.reset_index()
        out["est"] = out["tau1"]
        return out[["run", "v", "est"]]

    tau2 = (
        vc[vc["partial"]].groupby(["run", "v"])["cnt"].sum() * (m * m / c2)
    ).rename("tau2")
    eta_v = (vc.groupby(["run", "v"])["eta"].sum() * (m**3 / c)).rename("eta_v")
    comb = pd.concat([tau1, tau2, eta_v], axis=1).fillna(0.0).reset_index()
    comb["est"] = combine_alg2(
        comb["tau1"].to_numpy(), comb["tau2"].to_numpy(), comb["eta_v"].to_numpy(), m, c
    )
    return comb[["run", "v", "est"]]
