"""Per-job semi-triangle counting over the narrow triangle table.

The NRMSE sweeps need, for hundreds of hash seeds ("jobs"), how many
triangles are semi-triangles under each seed's sampling. A
``mapInPandas`` pass evaluates every job against each partition of the
table and emits only small aggregated counts, so the ``rows × jobs``
cross join is never materialized.

A kernel ``kernel(keys, job) -> labels`` maps the stream's edge keys
(``stream.k``, indexed by arrival position t) to the processor that
stores each edge, or −1 where no processor of the job does. It runs once
per (task, job) over the |E| edges, and its labels are gathered at a
triangle's ``t1``/``t2``/``t3``: hashing costs |E| per job, not |Δ|. A
triangle is a semi-triangle iff its first two edges have the same
label ≥ 0.

With ``eta=True`` the same pass also yields Algorithm 2's η^(i)
(DESIGN.md §2). Over the job's semi-triangles, x_g counts those with
edge g among their first two edges, and y_g those with g as last edge
stored on the same processor; then Σ_i η^(i) = Σ_g C(x_g, 2) + x_g·y_g.
x and y are partial sums per partition, so they are added up per job
in a second, small stage before the non-linear step; η_v adds each
edge's term to its two endpoints. Nothing per edge reaches the driver.
"""
from __future__ import annotations

from typing import Callable, Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.graphs.datasets import Stream

Kernel = Callable[[np.ndarray, dict], np.ndarray]

#: kinds of the partial rows: semi-triangle counts (per job, or per job
#: and node), and the per-edge x_g and y_g partial sums.
_CNT, _X, _Y = 0, 1, 2
_PARTIAL = "job long, kind int, key long, cnt long"
_OUT = "job long, key long, cnt long, eta long"


def _partials(
    jobs: list[dict], kernel: Kernel, keys: np.ndarray, local: bool, eta: bool
) -> Callable[[Iterator[pd.DataFrame]], Iterator[pd.DataFrame]]:
    n_edges = len(keys)

    def emit(j: int, kind: int, key: np.ndarray, cnt: np.ndarray) -> pd.DataFrame:
        return pd.DataFrame({
            "job": np.full(len(key), j, dtype=np.int64),
            "kind": np.full(len(key), kind, dtype=np.int32),
            "key": key.astype(np.int64),
            "cnt": cnt.astype(np.int64),
        })

    def edge_counts(j: int, kind: int, ts: np.ndarray) -> pd.DataFrame:
        n = np.bincount(ts, minlength=n_edges)
        nz = np.flatnonzero(n)
        return emit(j, kind, nz, n[nz])

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        cols = ["x", "y", "z", "t1", "t2", "t3"] if local else ["t1", "t2", "t3"]
        parts = [pdf[cols].to_numpy(dtype=np.int64) for pdf in batches]
        if not parts or not jobs:
            return
        tri = np.concatenate(parts)
        t1, t2, t3 = tri[:, -3], tri[:, -2], tri[:, -1]
        out = []
        for j, job in enumerate(jobs):
            lab = kernel(keys, job)
            l1 = lab[t1]
            semi = (l1 >= 0) & (l1 == lab[t2])
            if local:
                v, n = np.unique(tri[semi, :3], return_counts=True)
                out.append(emit(j, _CNT, v, n))
            else:
                out.append(emit(j, _CNT, np.array([-1]), np.array([semi.sum()])))
            if eta:
                out.append(edge_counts(j, _X, np.concatenate([t1[semi], t2[semi]])))
                out.append(edge_counts(j, _Y, t3[semi & (lab[t3] == l1)]))
        yield pd.concat(out, ignore_index=True)

    return run


def _totals(
    u: np.ndarray, v: np.ndarray, local: bool
) -> Callable[[Iterator[pd.DataFrame]], Iterator[pd.DataFrame]]:
    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        batches = list(batches)
        if not batches:
            return
        pdf = pd.concat(batches, ignore_index=True)
        kind = pdf["kind"].to_numpy()
        by = ["job", "key"]
        cnt = pdf[kind == _CNT].groupby(by)["cnt"].sum()
        x = pdf[kind == _X].groupby(by)["cnt"].sum()
        y = pdf[kind == _Y].groupby(by)["cnt"].sum().reindex(x.index, fill_value=0)
        eta_g = x * (x - 1) // 2 + x * y
        eta_g = eta_g[eta_g > 0]
        job = eta_g.index.get_level_values("job").to_numpy()
        if local:
            t = eta_g.index.get_level_values("key").to_numpy()
            ends = [np.tile(job, 2), np.concatenate([u[t], v[t]])]
            eta = pd.Series(np.tile(eta_g.to_numpy(), 2)).groupby(ends).sum()
        else:
            eta = eta_g.groupby(pd.MultiIndex.from_arrays([job, np.full(len(job), -1)])).sum()
        both = pd.concat([cnt.rename("cnt"), eta.rename("eta")], axis=1).fillna(0)
        yield pd.DataFrame({
            "job": both.index.get_level_values(0).to_numpy(np.int64),
            "key": both.index.get_level_values(1).to_numpy(np.int64),
            "cnt": both["cnt"].to_numpy(np.int64),
            "eta": both["eta"].to_numpy(np.int64),
        })

    return run


def _run(
    df: DataFrame, jobs: list[dict], kernel: Kernel, stream: Stream, local: bool, eta: bool
) -> pd.DataFrame:
    partial = df.mapInPandas(_partials(jobs, kernel, stream.k, local, eta), schema=_PARTIAL)
    totals = _totals(stream.u, stream.v, local)
    return partial.repartition("job").mapInPandas(totals, schema=_OUT).toPandas()


def per_job_counts(
    df: DataFrame, jobs: list[dict], kernel: Kernel, stream: Stream, eta: bool = False
) -> pd.DataFrame:
    """Semi-triangles per job of the triangle table ``df`` of ``stream``:
    pandas ``(job, cnt, eta)`` with a row for every job, in job order
    (``eta`` is Σ_i η^(i), 0 unless ``eta``)."""
    out = _run(df, jobs, kernel, stream, local=False, eta=eta)
    full = pd.DataFrame({"job": np.arange(len(jobs), dtype=np.int64)})
    out = full.merge(out[["job", "cnt", "eta"]], on="job", how="left").fillna(0)
    return out.astype("int64")


def per_job_key_counts(
    df: DataFrame, jobs: list[dict], kernel: Kernel, stream: Stream, eta: bool = False
) -> pd.DataFrame:
    """Per-node semi-triangle counts (a triangle counts once at each of
    its nodes) and, with ``eta``, per-node Σ_i η_v^(i): sparse pandas
    ``(job, v, cnt, eta)`` holding only nonzero rows."""
    return _run(df, jobs, kernel, stream, local=True, eta=eta).rename(columns={"key": "v"})
