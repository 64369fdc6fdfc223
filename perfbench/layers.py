"""Where the traced run puts its spans, and the per-layer metrics it
derives from them.

Layers are the program's modules. :func:`instrument` wraps the calls
into each layer, in the namespaces the experiment harnesses call them
from; :func:`metrics` turns the spans into the per-layer metrics listed
in ``BENCHMARK.json``. A layer a workload never enters reports 0.
"""
from __future__ import annotations

import time
from statistics import median

import repro.core.mascot_sql as mascot_sql
import repro.core.rept_sql as rept_sql
import repro.experiments.common as common
import repro.experiments.local_nrmse as local_nrmse
import repro.experiments.runtime as runtime
import repro.graphs.datasets as datasets
import repro.stream.engine as engine

from stats import fixed_marginal, tail_percentile

METHODS = ("rept", "mascot", "triest", "gps")

#: every per-layer metric, with its unit, in BENCHMARK.json order.
#: ``indicator.row_job_evals`` is computed (table rows × jobs per kernel
#: call), not counted; the other counts come from spans and Spark.
PER_LAYER: list[tuple[str, str]] = [
    ("datasets.load_stream_s", "s"),
    ("datasets.edges", "edges"),
    ("exact.build_tables_s", "s"),
    ("exact.local_counts_s", "s"),
    ("exact.triangles", "count"),
    ("exact.spark_jobs", "count"),
    ("exact.spark_tasks", "count"),
    ("rept_sql.global_alg1_s", "s"),
    ("rept_sql.local_alg2_s", "s"),
    ("rept_sql.alg1_fixed_s", "s"),
    ("rept_sql.alg1_per_seed_ms", "ms"),
    ("rept_sql.spark_jobs", "count"),
    ("rept_sql.spark_tasks", "count"),
    ("indicator.row_job_evals", "count"),
    ("mascot_sql.global_pool_s", "s"),
    ("mascot_sql.local_pool_s", "s"),
    ("mascot_sql.per_trial_ms", "ms"),
    ("estimators.local_nrmse_s", "s"),
    ("engine.rept_call_s", "s"),
    ("engine.triest_call_s", "s"),
    ("engine.gps_call_s", "s"),
    ("engine.mixed_call_s", "s"),
    ("engine.trials", "count"),
    ("engine.spark_tasks", "count"),
    ("engine.loop_busy_s", "s"),
    ("engine.loop_share", "ratio"),
    ("engine.proc_edges_per_s", "edges/s"),
    ("engine.loop_p50_ms", "ms"),
    ("engine.loop_tail_ms", "ms"),
    ("engine.loop_tail_pct", "pct"),
    ("engine.loop_tail_beyond", "count"),
    *[(f"stream.{m}.loop_p50_ms", "ms") for m in METHODS],
    *[(f"stream.{m}.mean_sampled_edges", "edges") for m in METHODS],
    ("structured.batches", "count"),
    ("structured.first_batch_s", "s"),
    ("structured.batch_p50_s", "s"),
    ("structured.rows_per_s", "rows/s"),
    ("structured.state_rows", "count"),
    ("structured.state_bytes_last", "bytes"),
    ("structured.state_bytes_per_batch", "bytes"),
    ("structured.edges_per_s", "edges/s"),
    ("experiments.truth_s", "s"),
    ("experiments.local_sweep_s", "s"),
    ("experiments.runtime_s", "s"),
    ("experiments.pools_s", "s"),
    ("experiments.tracing_overhead_s", "s"),
    ("jvm.peak_rss_mb", "MB"),
]


class _Collected:
    """Stands in for a DataFrame whose ``toPandas()`` already ran."""

    def __init__(self, pdf):
        self._pdf = pdf

    def toPandas(self):
        return self._pdf


def _alg(prefix: str):
    return lambda spark, tables, m, c, seeds: f"rept_sql.{prefix}_alg{1 if c <= m else 2}"


def _engine_name(spark, stream, specs, **kw) -> str:
    methods = {s["method"] for s in specs}
    return f"engine.{methods.pop()}" if len(methods) == 1 else "engine.mixed"


def _engine_after(rec, result, spark, stream, specs, **kw) -> None:
    g = result[result["v"] == -1].sort_values("trial")
    rec["methods"] = [specs[i]["method"] for i in g["trial"]]
    rec["elapsed"] = g["elapsed"].tolist()
    rec["n_sampled"] = g["n_sampled"].tolist()
    rec["edges"] = stream.n_edges


def instrument(tracer, spark) -> dict:
    """Wrap every layer call, where the layer defines it and where the
    harnesses import it, and listen to streaming query progress. Returns
    the state the wrappers fill (row×job counts, stream progress)."""
    state = {"rows": {}, "row_job_evals": 0, "progress": []}

    def loaded(rec, stream, *a, **kw):
        rec["edges"] = stream.n_edges

    for mod in (datasets, common):
        tracer.wrap(mod, "load_stream", "datasets.load_stream", loaded)

    def built(rec, tables, *a, **kw):
        rec["triangles"] = tables.tau
        state["rows"].update({
            id(tables.triangles): tables.tau,
            id(tables.open_edges): 2 * tables.tau,
            id(tables.last_edges): tables.tau,
        })

    tracer.wrap(common, "build_tables", "exact.build_tables", built)

    def eager_local_counts(fn):
        def local_counts_df(triangles):
            with tracer.span("exact.local_counts"):
                return _Collected(fn(triangles).toPandas())

        return local_counts_df

    tracer.patch(local_nrmse, "local_counts_df", eager_local_counts)

    # Every kernel call takes its seeds last.
    def seeds_after(rec, result, *args):
        rec["seeds"] = len(args[-1])

    tracer.wrap(rept_sql, "rept_global_runs", _alg("global"), seeds_after)
    tracer.wrap(local_nrmse, "rept_local_runs", _alg("local"), seeds_after)
    tracer.wrap(mascot_sql, "mascot_trial_estimates", "mascot_sql.global_pool", seeds_after)
    tracer.wrap(local_nrmse, "mascot_local_trial_counts", "mascot_sql.local_pool", seeds_after)

    # Kernel calls build lazy plans, so they get no span: only the rows
    # × jobs they will evaluate, computed from the table sizes.
    def counting(fn):
        def per_job(df, jobs, *a, **kw):
            state["row_job_evals"] += state["rows"].get(id(df), 0) * len(jobs)
            return fn(df, jobs, *a, **kw)

        return per_job

    for mod in (rept_sql, mascot_sql):
        tracer.patch(mod, "per_job_counts", counting)
        tracer.patch(mod, "per_job_key_counts", counting)

    tracer.wrap(local_nrmse, "local_nrmse", "estimators.local_nrmse")
    for mod in (engine, runtime):
        tracer.wrap(mod, "run_stream_trials", _engine_name, _engine_after)

    from pyspark.sql.streaming import StreamingQueryListener

    class Progress(StreamingQueryListener):
        def onQueryStarted(self, event):
            pass

        def onQueryProgress(self, event):
            t0 = time.perf_counter()
            p = event.progress
            ops = p.stateOperators
            state["progress"].append({
                "batch": p.batchId,
                "duration_ms": p.batchDuration,
                "rows": p.numInputRows,
                "rows_per_s": p.processedRowsPerSecond,
                "state_rows": sum(o.numRowsTotal for o in ops),
                "state_bytes": sum(o.memoryUsedBytes for o in ops),
            })
            tracer.overhead_s += time.perf_counter() - t0

        def onQueryIdle(self, event):
            pass

        def onQueryTerminated(self, event):
            pass

    spark.streams.addListener(Progress())
    return state


def _per_method(spans) -> dict[str, tuple[list[float], list[int]]]:
    out: dict[str, tuple[list[float], list[int]]] = {m: ([], []) for m in METHODS}
    for rec in spans:
        for meth, el, ns in zip(rec.get("methods", ()), rec.get("elapsed", ()),
                                rec.get("n_sampled", ())):
            out[meth][0].append(el)
            out[meth][1].append(ns)
    return out


def metrics(tracer, state: dict, cores: int) -> dict[str, float]:
    """Every per-layer metric of :data:`PER_LAYER` from a traced run."""
    t = tracer.total
    spans = tracer.spans
    out: dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}

    out["datasets.load_stream_s"] = t("datasets.load_stream")
    out["datasets.edges"] = max((r.get("edges", 0) for r in spans
                                 if r["name"] == "datasets.load_stream"), default=0)
    out["exact.build_tables_s"] = t("exact.build_tables")
    out["exact.local_counts_s"] = t("exact.local_counts")
    out["exact.triangles"] = max((r.get("triangles", 0) for r in spans), default=0)
    out["exact.spark_jobs"], out["exact.spark_tasks"] = tracer.layer_work("exact.")
    for kind in ("global_alg1", "local_alg2"):
        out[f"rept_sql.{kind}_s"] = t(f"rept_sql.{kind}")

    def split(name: str) -> tuple[float, float]:
        """Fixed cost and cost per seed, in s, of the ``name`` calls,
        from its 1-seed call and its many-seed call."""
        calls = {r["seeds"]: r["dur_s"] for r in spans if r["name"] == name}
        n = max(calls, default=1)
        return fixed_marginal(calls[1], calls[n], n) if 1 in calls and n > 1 else (0.0, 0.0)

    fixed, per_seed = split("rept_sql.global_alg1")
    out["rept_sql.alg1_fixed_s"] = fixed
    out["rept_sql.alg1_per_seed_ms"] = per_seed * 1e3
    out["rept_sql.spark_jobs"], out["rept_sql.spark_tasks"] = tracer.layer_work("rept_sql.")
    out["indicator.row_job_evals"] = state["row_job_evals"]
    out["mascot_sql.global_pool_s"] = t("mascot_sql.global_pool")
    out["mascot_sql.local_pool_s"] = t("mascot_sql.local_pool")
    out["mascot_sql.per_trial_ms"] = split("mascot_sql.global_pool")[1] * 1e3
    out["estimators.local_nrmse_s"] = t("estimators.local_nrmse")

    for kind in ("rept", "triest", "gps", "mixed"):
        out[f"engine.{kind}_call_s"] = t(f"engine.{kind}")
    calls = [r for r in spans if r["name"].startswith("engine.")]
    elapsed = [e for r in calls for e in r.get("elapsed", ())]
    out["engine.trials"] = len(elapsed)
    out["engine.spark_tasks"] = tracer.layer_work("engine.")[1]
    out["engine.loop_busy_s"] = sum(elapsed)
    call_s = sum(r["dur_s"] for r in calls)
    if elapsed:
        out["engine.loop_share"] = sum(elapsed) / (cores * call_s)
        out["engine.proc_edges_per_s"] = sum(
            len(r.get("elapsed", ())) * r.get("edges", 0) for r in calls
        ) / call_s
        out["engine.loop_p50_ms"] = median(elapsed) * 1e3
        tail = tail_percentile(elapsed)
        if tail is not None:
            pct, value, beyond = tail
            out["engine.loop_tail_ms"] = value * 1e3
            out["engine.loop_tail_pct"] = pct
            out["engine.loop_tail_beyond"] = beyond
    for meth, (els, sampled) in _per_method(calls).items():
        if els:
            out[f"stream.{meth}.loop_p50_ms"] = median(els) * 1e3
            out[f"stream.{meth}.mean_sampled_edges"] = sum(sampled) / len(sampled)

    batches = [p for p in state["progress"] if p["rows"] > 0]
    if batches:
        out["structured.batches"] = len(batches)
        out["structured.first_batch_s"] = batches[0]["duration_ms"] / 1e3
        out["structured.batch_p50_s"] = median(p["duration_ms"] for p in batches) / 1e3
        out["structured.rows_per_s"] = median(p["rows_per_s"] for p in batches)
        out["structured.state_rows"] = batches[-1]["state_rows"]
        out["structured.state_bytes_last"] = batches[-1]["state_bytes"]
        if len(batches) > 1:
            out["structured.state_bytes_per_batch"] = (
                batches[-1]["state_bytes"] - batches[0]["state_bytes"]
            ) / (len(batches) - 1)
        out["structured.edges_per_s"] = sum(p["rows"] for p in batches) / t("structured.query")

    out["experiments.truth_s"] = t("experiments.truth")
    out["experiments.local_sweep_s"] = t("experiments.local_sweep")
    out["experiments.runtime_s"] = t("experiments.runtime")
    out["experiments.pools_s"] = t("experiments.pool")
    out["experiments.tracing_overhead_s"] = tracer.overhead_s
    return {k: float(v) for k, v in out.items()}
