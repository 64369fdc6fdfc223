"""Exact analytics (τ, τ_v, η, η_v) vs brute force and the DuckDB oracle."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.graphs.datasets import edge_stream_df
from repro.graphs.exact import (
    build_tables,
    eta_global,
    eta_local_df,
    local_counts_df,
    not_last_df,
    triangle_df,
)
from repro.oracle import assert_equivalent
from tests.helpers import SMALL_DATASETS, brute_force, tiny_stream

TINY_SEEDS = [0, 1, 2, 3, 4]


@pytest.fixture(scope="module")
def tiny(spark):
    cache = {}

    def _get(seed):
        if seed not in cache:
            s = tiny_stream(n_nodes=40, n_edges=180, seed=seed)
            edges = edge_stream_df(spark, s)
            tri = triangle_df(edges).persist()
            cache[seed] = (s, edges, tri, brute_force(s))
        return cache[seed]

    return _get


@pytest.mark.parametrize("seed", TINY_SEEDS)
class TestVsBruteForce:
    def test_tau(self, tiny, seed):
        _, _, tri, bf = tiny(seed)
        assert tri.count() == bf["tau"]

    def test_tau_v(self, tiny, seed):
        _, _, tri, bf = tiny(seed)
        got = {r["v"]: r["tau_v"] for r in local_counts_df(tri).collect()}
        assert got == bf["tau_v"]

    def test_eta(self, tiny, seed):
        _, _, tri, bf = tiny(seed)
        assert eta_global(tri) == bf["eta"]

    def test_eta_v(self, tiny, seed):
        _, edges, tri, bf = tiny(seed)
        got = {r["v"]: r["eta_v"] for r in eta_local_df(tri, edges).collect()}
        assert got == bf["eta_v"]

    def test_not_last_multiplicities(self, tiny, seed):
        s, _, tri, bf = tiny(seed)
        got = {
            (int(s.u[r["t"]]), int(s.v[r["t"]])): r["n"]
            for r in not_last_df(tri).groupBy("t").agg(F.count(F.lit(1)).alias("n")).collect()
        }
        assert got == bf["nlast"]

    def test_edge_time_ordering(self, tiny, seed):
        _, _, tri, bf = tiny(seed)
        bad = tri.filter((F.col("t1") >= F.col("t2")) | (F.col("t2") >= F.col("t3")))
        assert bad.count() == 0

    def test_triangle_edge_sets(self, tiny, seed):
        s, _, tri, bf = tiny(seed)

        def edge(t):
            return int(s.u[t]), int(s.v[t])

        got = {(edge(r["t1"]), edge(r["t2"]), edge(r["t3"])) for r in tri.collect()}
        want = {tuple(edges) for _, edges in bf["triangles"]}
        assert got == want

    def test_last_edge_rows(self, tiny, seed):
        s, _, tri, bf = tiny(seed)
        rows = tri.collect()
        assert len(rows) == bf["tau"]
        # the last edge joins two of the triangle's nodes
        for r in rows:
            assert {int(s.u[r["t3"]]), int(s.v[r["t3"]])} < {r["x"], r["y"], r["z"]}


@pytest.mark.parametrize("seed", TINY_SEEDS[:3])
class TestVsDuckDBOracle:
    def test_global_count(self, spark, tiny, seed):
        s, edges, tri, _ = tiny(seed)
        got = tri.agg(F.count(F.lit(1)).alias("n_tri"))
        assert_equivalent(
            got,
            """
            SELECT count(*) AS n_tri
            FROM e e1 JOIN e e2 ON e1.b = e2.a
                      JOIN e e3 ON e3.a = e1.a AND e3.b = e2.b
            """,
            e=edges,
        )

    def test_local_counts(self, spark, tiny, seed):
        s, edges, tri, _ = tiny(seed)
        got = local_counts_df(tri)
        assert_equivalent(
            got,
            """
            WITH tri AS (
              SELECT e1.a AS x, e1.b AS y, e2.b AS z
              FROM e e1 JOIN e e2 ON e1.b = e2.a
                        JOIN e e3 ON e3.a = e1.a AND e3.b = e2.b
            ), verts AS (
              SELECT x AS v FROM tri
              UNION ALL SELECT y FROM tri
              UNION ALL SELECT z FROM tri
            )
            SELECT v, count(*) AS tau_v FROM verts GROUP BY v
            """,
            e=edges,
        )

    def test_eta_per_edge(self, spark, tiny, seed):
        s, edges, tri, _ = tiny(seed)
        got = (
            not_last_df(tri)
            .join(edges, "t")
            .groupBy(F.col("a").alias("gp"), F.col("b").alias("gq"))
            .agg(F.count(F.lit(1)).alias("n"))
        )
        assert_equivalent(
            got,
            """
            WITH tri AS (
              SELECT e1.a AS x, e1.b AS y, e2.b AS z,
                     e1.t AS t_xy, e2.t AS t_yz, e3.t AS t_xz
              FROM e e1 JOIN e e2 ON e1.b = e2.a
                        JOIN e e3 ON e3.a = e1.a AND e3.b = e2.b
            ), open_edges AS (
              SELECT x AS gp, y AS gq FROM tri WHERE t_xy < greatest(t_yz, t_xz)
              UNION ALL
              SELECT y, z FROM tri WHERE t_yz < greatest(t_xy, t_xz)
              UNION ALL
              SELECT x, z FROM tri WHERE t_xz < greatest(t_xy, t_yz)
            )
            SELECT gp, gq, count(*) AS n FROM open_edges GROUP BY gp, gq
            """,
            e=edges,
        )


@pytest.mark.parametrize("name", SMALL_DATASETS)
class TestOnDatasets:
    def test_tables_consistent(self, tables_for, name):
        t = tables_for(name)
        assert t.tau == t.triangles.count()
        assert t.open_edges.count() == 2 * t.tau
        assert t.last_edges.count() == t.tau

    def test_tau_v_sums_to_3tau(self, tables_for, name):
        t = tables_for(name)
        total = local_counts_df(t.triangles).agg(F.sum("tau_v")).collect()[0][0]
        assert total == 3 * t.tau

    def test_eta_nonnegative(self, tables_for, name):
        t = tables_for(name)
        assert t.eta >= 0


def test_build_tables_persists_narrow_table_per_core(spark):
    """Kernel calls run one Python task per partition of the table, so
    its partition count sets their fixed cost."""
    t = build_tables(spark, tiny_stream(n_nodes=40, n_edges=180, seed=0))
    try:
        assert t.triangles.columns == ["x", "y", "z", "t1", "t2", "t3"]
        assert t.triangles.is_cached
        assert t.triangles.rdd.getNumPartitions() == spark.sparkContext.defaultParallelism
        assert not t.open_edges.is_cached and not t.last_edges.is_cached
    finally:
        t.unpersist()
