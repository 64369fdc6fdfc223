"""Exact (non-sampled) triangle analytics over an edge stream, in Spark SQL.

These are the ground truths every estimator is judged against, and the
substrate of the batch-equivalent REPT/MASCOT engines:

* :func:`triangle_df` enumerates each triangle once as the narrow row
  ``(x, y, z, t1, t2, t3)``: its nodes and the **stream arrival
  positions** of its three edges, t1 < t2 < t3. Since ``t`` indexes the
  stream, an edge's key and endpoints are ``stream.k[t]``,
  ``stream.u[t]``, ``stream.v[t]``, so nothing else is stored. t1 and t2
  are the edges that make a "semi-triangle" when sampled.
* :func:`not_last_df` lists each triangle's not-last edges; their
  multiplicities n_g give the exact η = Σ_g C(n_g, 2) and η_v.

Everything is pure DataFrame API (Catalyst); correctness is checked in
tests against both a brute-force python reference and the DuckDB oracle.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.graphs.datasets import Stream, edge_stream_df


def triangle_df(edges: DataFrame) -> DataFrame:
    """Enumerate triangles of canonical edges ``(t, a, b, k)`` (a < b).

    Output, one row per triangle ``x < y < z``: ``x, y, z, t1, t2, t3``
    with ``t1 < t2 < t3`` the arrival positions of its edges.
    """
    e1 = edges.select(F.col("a").alias("x"), F.col("b").alias("y"), F.col("t").alias("t_xy"))
    e2 = edges.select(F.col("a").alias("y"), F.col("b").alias("z"), F.col("t").alias("t_yz"))
    e3 = edges.select(F.col("a").alias("x"), F.col("b").alias("z"), F.col("t").alias("t_xz"))
    ts = [F.col("t_xy"), F.col("t_yz"), F.col("t_xz")]
    first, last = F.least(*ts), F.greatest(*ts)
    return e1.join(e2, "y").join(e3, ["x", "z"]).select(
        "x", "y", "z",
        first.alias("t1"),
        (ts[0] + ts[1] + ts[2] - first - last).alias("t2"),
        last.alias("t3"),
    )


def not_last_df(triangles: DataFrame) -> DataFrame:
    """Two rows ``(t)`` per triangle, one per *non-last* edge. Counting
    by ``t`` gives n_g, the number of triangles in which edge g is not
    the last edge."""
    return triangles.select(F.explode(F.array("t1", "t2")).alias("t"))


def _not_last_counts(triangles: DataFrame) -> DataFrame:
    return not_last_df(triangles).groupBy("t").agg(F.count(F.lit(1)).alias("n"))


def local_counts_df(triangles: DataFrame) -> DataFrame:
    """Exact local triangle counts ``(v, tau_v)`` for nodes with τ_v > 0."""
    return (
        triangles.select(
            F.explode(F.array(F.col("x"), F.col("y"), F.col("z"))).alias("v")
        )
        .groupBy("v")
        .agg(F.count(F.lit(1)).alias("tau_v"))
    )


def eta_global(triangles: DataFrame) -> int:
    """Exact η = Σ_g C(n_g, 2) over non-last multiplicities n_g."""
    eta = (
        _not_last_counts(triangles)
        .agg(F.sum(F.expr("n * (n - 1) DIV 2")))
        .collect()[0][0]
    )
    return int(eta or 0)


def eta_local_df(triangles: DataFrame, edges: DataFrame) -> DataFrame:
    """Exact per-node η_v as ``(v, eta_v)``: for each edge g = (a, b),
    C(n_g, 2) pairs accrue to both endpoints (a pair of distinct
    triangles sharing g can only both contain v if v ∈ g). ``edges`` is
    the stream's ``(t, a, b, …)`` frame."""
    return (
        _not_last_counts(triangles)
        .join(edges, "t")
        .select(
            F.explode(F.array("a", "b")).alias("v"),
            F.expr("n * (n - 1) DIV 2").alias("pairs"),
        )
        .groupBy("v")
        .agg(F.sum("pairs").alias("eta_v"))
        .filter(F.col("eta_v") > 0)
    )


@dataclass
class TriangleTables:
    """The persisted narrow triangle table of one stream, shared by
    every SQL-engine experiment, plus its exact global statistics.

    ``open_edges`` (:func:`not_last_df`) and ``last_edges`` (``t3`` as
    ``t``) are lazy, unpersisted views of ``triangles`` that no kernel
    reads. They exist only because the benchmark's traced hook
    (``perfbench/layers.py``) keys on their ``id()``; drop them when
    that hook is retired.
    """

    stream: Stream
    triangles: DataFrame
    open_edges: DataFrame
    last_edges: DataFrame
    tau: int
    eta: int

    def unpersist(self) -> None:
        self.triangles.unpersist()


def build_tables(spark: SparkSession, stream: Stream) -> TriangleTables:
    """Enumerate and persist the triangle table for ``stream``.

    The table is coalesced to one partition per core, so each kernel
    call over it runs as one wave of Python tasks: on tables of this
    size, per-task overhead, not per-row work, sets a call's cost.
    """
    parts = spark.sparkContext.defaultParallelism
    tri = triangle_df(edge_stream_df(spark, stream)).coalesce(parts).persist()
    tau = tri.count()
    eta = eta_global(tri)
    last = tri.select(F.col("t3").alias("t"))
    return TriangleTables(stream, tri, not_last_df(tri), last, tau, eta)
