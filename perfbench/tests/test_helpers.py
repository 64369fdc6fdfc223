"""Tests of the benchmark's own helpers (no Spark session needed).

Run from the repository root: python3 -m pytest perfbench/tests -q
"""
import json
import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

from reference import enumerate_triangles, local_nrmse, mascot_hits  # noqa: E402
from stats import fixed_marginal, group_work, tail_percentile  # noqa: E402
from tracing import Tracer  # noqa: E402


class TestTailPercentile:
    def test_needs_ten_beyond(self):
        assert tail_percentile(range(19)) is None
        pct, value, beyond = tail_percentile(range(20))
        assert (pct, value, beyond) == (50.0, 9.0, 10)

    def test_picks_highest_percentile_with_ten_beyond(self):
        # 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
        pct, value, beyond = tail_percentile(range(1, 1001))
        assert (pct, value, beyond) == (99.0, 990.0, 10)
        pct, _, beyond = tail_percentile(range(1, 200))
        assert pct == 90.0 and beyond >= 10

    def test_order_does_not_matter(self):
        vals = list(np.random.default_rng(0).random(500))
        assert tail_percentile(vals) == tail_percentile(sorted(vals))


class TestFixedMarginal:
    def test_exact_split(self):
        fixed, per_seed = fixed_marginal(5.3, 5.0 + 64 * 0.3, 64)
        assert fixed == pytest.approx(5.0)
        assert per_seed == pytest.approx(0.3)

    def test_needs_two_seed_counts(self):
        with pytest.raises(ValueError):
            fixed_marginal(1.0, 2.0, 1)


class FakeTracker:
    """The three ``StatusTracker`` calls ``group_work`` makes."""

    def __init__(self, groups, jobs, stages):
        self.groups, self.jobs, self.stages = groups, jobs, stages

    def getJobIdsForGroup(self, group):
        return self.groups.get(group, [])

    def getJobInfo(self, job):
        stages = self.jobs.get(job)
        return None if stages is None else SimpleNamespace(stageIds=stages)

    def getStageInfo(self, stage):
        n = self.stages.get(stage)
        return None if n is None else SimpleNamespace(numCompletedTasks=n)


class TestGroupWork:
    def test_counts_jobs_and_tasks_of_the_group(self):
        tr = FakeTracker({"a": [0, 1], "b": [2]}, {0: [0, 1], 1: [2], 2: [3]},
                         {0: 4, 1: 64, 2: 1, 3: 8})
        seen = set()
        assert group_work(tr, "a", seen) == (2, 69)
        assert group_work(tr, "b", seen) == (1, 8)
        assert group_work(tr, "missing", seen) == (0, 0)

    def test_reused_stage_counts_once(self):
        # Job 1 lists job 0's shuffle stage 0 as skipped.
        tr = FakeTracker({"a": [0], "b": [1]}, {0: [0, 1], 1: [0, 2]}, {0: 64, 1: 4, 2: 4})
        seen = set()
        assert group_work(tr, "a", seen) == (1, 68)
        assert group_work(tr, "b", seen) == (1, 4)

    def test_unretained_job_or_stage_counts_no_tasks(self):
        tr = FakeTracker({"a": [0, 9]}, {0: [0, 7]}, {0: 3})
        assert group_work(tr, "a", set()) == (2, 3)


class TestTracer:
    def test_layer_totals_skip_nested_spans_of_the_same_layer(self):
        tr = Tracer()
        with tr.span("exact.build_tables"):
            with tr.span("exact.inner"):
                pass
        with tr.span("experiments.x"):
            with tr.span("exact.local_counts"):
                pass
        outer = tr.spans[0]["dur_s"] + tr.spans[3]["dur_s"]
        assert tr.total("exact.") == pytest.approx(outer)
        tr.spans[1]["spark_jobs"], tr.spans[3]["spark_jobs"] = 2, 3
        assert tr.layer_work("exact.") == (5, 0)
        assert tr.layer_work("experiments.") == (3, 0)

    def test_wrap_runs_calls_in_named_spans(self):
        mod = SimpleNamespace(f=lambda x: x + 1)
        tr = Tracer()
        tr.wrap(mod, "f", lambda x: f"layer.op{x}", lambda rec, res, x: rec.update(res=res))
        assert mod.f(1) == 2
        assert mod.f(2) == 3
        assert [(s["name"], s["res"]) for s in tr.spans] == [("layer.op1", 2), ("layer.op2", 3)]


class TestReference:
    def test_k4_in_stream_order(self):
        # Edges of K4 on {0,1,2,3}; every triangle closes at its last edge.
        u = np.array([0, 0, 1, 0, 1, 2])
        v = np.array([1, 2, 2, 3, 3, 3])
        tri = enumerate_triangles(u, v)
        assert tri.tau == 4
        assert sorted(tri.e3.tolist()) == [2, 4, 5, 5]
        # n_g: edge 0 is non-last in 2 triangles, edges 1, 3 in 2, others 1.
        n = np.bincount(np.concatenate([tri.e1, tri.e2]), minlength=6)
        assert n.tolist() == [2, 2, 1, 2, 1, 0]
        assert tri.eta == 3
        assert tri.tau_v() == {0: 3, 1: 3, 2: 3, 3: 3}
        # One bucket for every edge: every triangle is a semi-triangle.
        assert tri.semi_counts(np.zeros(6, dtype=np.int64), 2).tolist() == [4, 0]

    def test_mascot_hits_need_both_earlier_edges_sampled(self):
        u = np.array([0, 0, 1, 0, 1, 2])
        v = np.array([1, 2, 2, 3, 3, 3])
        tri = enumerate_triangles(u, v)
        keys = np.arange(6, dtype=np.uint64)
        assert mascot_hits(tri, keys, 1.0, 7).all()
        assert not mascot_hits(tri, keys, 0.0, 7).any()
        # Only the triangle closed by edge 2 selected: its nodes count once.
        assert tri.tau_v(tri.e3 == 2) == {0: 1, 1: 1, 2: 1}

    def test_local_nrmse_counts_missing_nodes_as_zero(self):
        truth = {1: 2, 2: 4}
        runs = [{1: 2.0}, {1: 2.0, 2: 4.0}]
        # node 1 exact; node 2 estimated 0 once: sqrt(16 / 2) / 4.
        assert local_nrmse(runs, truth) == pytest.approx((8 ** 0.5 / 4) / 2)


def test_benchmark_json_lists_every_per_layer_metric():
    import layers

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
