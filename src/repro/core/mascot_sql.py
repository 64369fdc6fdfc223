"""Batch-equivalent parallel-MASCOT engine.

MASCOT (improved variant, Lim & Kang KDD'15) counts, per processor, the
semi-triangles whose first two stream edges were Bernoulli(p)-sampled
and scales by 1/p². Parallel MASCOT averages c independent processors.
Because processors are i.i.d., a pool of N single-processor trials
yields ``⌊N/c⌋`` independent parallel-c estimates by chunking — the
pool is built once per (dataset, p) and reused across the whole c-sweep.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.hashing import uniform01
from repro.core.indicator import per_job_counts, per_job_key_counts
from repro.graphs.exact import TriangleTables


def kernel_mascot(keys: np.ndarray, job: dict) -> np.ndarray:
    """Processor 0 stores the edges that pass the Bernoulli(p) test; a
    triangle counts when both of its first two edges do."""
    return np.where(uniform01(keys, job["seed"]) < job["p"], 0, -1)


def mascot_trial_estimates(
    spark: SparkSession, tables: TriangleTables, p: float, seeds: list[int]
) -> np.ndarray:
    """Global single-processor MASCOT estimates τ̃ (one per trial seed)."""
    jobs = [{"seed": s, "p": p} for s in seeds]
    cnt = per_job_counts(tables.triangles, jobs, kernel_mascot, tables.stream)
    return cnt["cnt"].to_numpy() / (p * p)


def mascot_local_trial_counts(
    spark: SparkSession, tables: TriangleTables, p: float, seeds: list[int]
) -> pd.DataFrame:
    """Sparse per-(trial, v) semi-triangle counts (pandas ``trial, v, cnt``)."""
    jobs = [{"seed": s, "p": p} for s in seeds]
    df = per_job_key_counts(tables.triangles, jobs, kernel_mascot, tables.stream)
    return df.rename(columns={"job": "trial"})[["trial", "v", "cnt"]]


def chunk_parallel_local(
    trial_counts: pd.DataFrame, c: int, p: float, n_trials: int
) -> tuple[pd.DataFrame, int]:
    """Parallel-c local estimates from a trial pool.

    Returns sparse pandas ``(run, v, est)`` (absent pairs are 0) and the
    number of parallel runs formed.
    """
    n_runs = n_trials // c
    if n_runs == 0:
        raise ValueError(f"need at least c={c} trials, got {n_trials}")
    tc = trial_counts[trial_counts["trial"] < n_runs * c].copy()
    tc["run"] = tc["trial"] // c
    out = tc.groupby(["run", "v"], as_index=False)["cnt"].sum()
    out["est"] = out["cnt"] / (p * p * c)
    return out[["run", "v", "est"]], n_runs
