"""One benchmark run of one workload, in a fresh process.

``run.py`` starts this script the way ``spark-submit jobs/*.py`` starts
a job: with ``PYSPARK_SUBMIT_ARGS`` and ``PYTHONPATH`` set before
pyspark is imported, and the session built by ``jobs/_session.py``.
The script sets up, measures the workload, checks its outputs outside
the timed region and writes a result file for ``run.py``.

Usage: python3 perfbench/workloads.py <config.json> <spawn monotonic time>
"""
from __future__ import annotations

import json
import os
import sys
import time
import traceback
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "jobs"))

import numpy as np  # noqa: E402
import pandas as pd  # noqa: E402
import pyspark  # noqa: E402
from _session import get_session  # noqa: E402

import repro.core.mascot_sql as mascot_sql  # noqa: E402
import repro.core.rept_sql as rept_sql  # noqa: E402
import repro.experiments.common as common  # noqa: E402
import repro.experiments.local_nrmse as local_nrmse  # noqa: E402
import repro.experiments.runtime as runtime  # noqa: E402
import repro.graphs.datasets as datasets  # noqa: E402
import repro.stream.engine as engine  # noqa: E402
from repro.core.hashing import bucket, mix_seeds  # noqa: E402
from repro.core.structured import rept_structured_counts, write_stream_files  # noqa: E402
from repro.experiments.fig1 import run_fig1  # noqa: E402
from repro.experiments.table2 import run_table2  # noqa: E402
from repro.stream.rept import rept_processor, rept_run  # noqa: E402

import layers  # noqa: E402
from reference import enumerate_triangles, local_nrmse as ref_local_nrmse, mascot_hits  # noqa: E402
from tracing import Tracer  # noqa: E402

#: when the imports above (pyspark, pandas, the program) were done.
T_IMPORTED = time.monotonic()

#: relative tolerance of the repository's cross-engine tests
#: (``pytest.approx`` for global values, 1e-9 for local ones).
REL_GLOBAL = 1e-6
REL_LOCAL = 1e-9


class Checks:
    """Correctness gates: one entry per checked output."""

    def __init__(self):
        self.items: list[dict] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.items.append({"name": name, "ok": bool(ok), "detail": detail})

    def close(self, name: str, got: float, want: float, rel: float) -> None:
        ok = abs(got - want) <= rel * max(abs(want), 1e-300)
        self.add(name, ok, f"got {got!r} want {want!r}")

    @property
    def failed(self) -> int:
        return sum(not c["ok"] for c in self.items)


class SweepDense:
    """Figure-script client on the SQL engine: Table II and Fig 1 truths,
    then a Fig 6 point of REPT Algorithm 2 (c = 32 > m = 10: c1 = 3
    full groups, c2 = 2) and of parallel MASCOT, on the Twitter analog."""

    DATASET = "Twitter"
    M = 10
    C = 32
    R_LOCAL = 1
    #: the local MASCOT pool holds 2 × R_POOL × C trials.
    R_POOL = 1
    #: c ≤ M, so REPT runs Algorithm 1.
    C_ALG1 = 8
    #: seeds of the many-seed call of each traced probe; the smaller a
    #: kernel's cost per seed, the more seeds it takes to show.
    PROBE_SEEDS = {"alg1": 64, "mascot": 256}

    def __init__(self, spark, tracer: Tracer):
        self.spark = spark
        self.tracer = tracer

    def prepare(self, ds: int) -> None:
        self.stream = datasets.load_stream(self.DATASET, seed=ds)

    def work(self, ds: int) -> dict:
        sp, tr = self.spark, self.tracer
        with tr.span("experiments.truth"):
            table2 = run_table2(sp, datasets=[self.DATASET], seed=ds)
            fig1 = run_fig1(sp, datasets=[self.DATASET], seed=ds)
        with tr.span("experiments.local_sweep"):
            loc = local_nrmse.run_local_nrmse(
                sp, p_inv=self.M, c_list=[self.C], datasets=[self.DATASET],
                methods=("rept", "mascot"), r_rept=self.R_LOCAL, r_pool=self.R_POOL, seed=ds,
            )
        return {"table2": table2, "fig1": fig1, "local": loc}

    def check(self, ds: int, out: dict, checks: Checks) -> None:
        tri = enumerate_triangles(self.stream.u, self.stream.v)
        row = out["table2"].iloc[0]
        checks.add("table2.edges", int(row["edges"]) == self.stream.n_edges)
        checks.add("table2.tau", int(row["triangles"]) == tri.tau,
                   f"{row['triangles']} vs {tri.tau}")
        checks.add("table2.eta", int(row["eta"]) == tri.eta, f"{row['eta']} vs {tri.eta}")
        checks.add("fig1.tau_eta", bool(
            (out["fig1"]["tau"] == tri.tau).all() and (out["fig1"]["eta"] == tri.eta).all()
        ))
        # Each NRMSE must equal the one computed from the harness's seeds
        # by the sequential simulator (REPT) or the benchmark's own
        # sampling (MASCOT), against the benchmark's own τ_v.
        p, k, c = 1.0 / self.M, self.stream.k, self.C
        base = common.dataset_seed(ds, self.DATASET, self.M, 99)
        tau_v = tri.tau_v()
        runs = [
            rept_run(self.stream, self.M, c, mix_seeds(base, 4, c, i), track_local=True)[
                "tau_v_hat"]
            for i in range(self.R_LOCAL)
        ]
        local = out["local"].set_index("method")["nrmse"]
        checks.close("local_nrmse.rept_alg2", float(local["rept"]), ref_local_nrmse(runs, tau_v),
                     REL_LOCAL)
        runs = []
        for run in range(2 * self.R_POOL):
            cnt: Counter[int] = Counter()
            for i in range(c):
                cnt.update(tri.tau_v(mascot_hits(tri, k, p, mix_seeds(base, 1, run * c + i))))
            runs.append({v: n / (p * p * c) for v, n in cnt.items()})
        checks.close("local_nrmse.mascot", float(local["mascot"]),
                     ref_local_nrmse(runs, tau_v), REL_LOCAL)

    def probes(self, ds: int, checks: Checks) -> None:
        """Traced runs only: a 1-seed and a many-seed call of REPT Alg 1
        (global) and of the MASCOT pool (global), which split each
        kernel's time into a fixed cost and a cost per seed. Each is
        checked on its first seed against the sequential simulator or
        the benchmark's own sampling. Alg 2 gets no such pair: one more
        Alg 2 call (about 30 s) brings a traced run too close to the
        180 s a run may take."""
        sp, stream, m, p = self.spark, self.stream, self.M, 1.0 / self.M
        tables = common.get_tables(sp, self.DATASET, 1.0, ds)
        seeds = [mix_seeds(ds, 0xBE7C, i) for i in range(max(self.PROBE_SEEDS.values()))]

        want = rept_run(stream, m, self.C_ALG1, seeds[0])["tau_hat"]
        for k in (1, self.PROBE_SEEDS["alg1"]):
            got = rept_sql.rept_global_runs(sp, tables, m, self.C_ALG1, seeds[:k])
            checks.close("probe.alg1.tau_hat", float(got["tau_hat"].iloc[0]), want, REL_GLOBAL)

        tri = enumerate_triangles(stream.u, stream.v)
        want = mascot_hits(tri, stream.k, p, seeds[0]).sum() / (p * p)
        for k in (1, self.PROBE_SEEDS["mascot"]):
            got = mascot_sql.mascot_trial_estimates(sp, tables, p, seeds[:k])
            checks.close("probe.mascot.tau_hat", float(got[0]), float(want), REL_GLOBAL)


class TrialPools:
    """Simulator client: a Fig 7 call, then Fig 4-style Trièst and GPS
    trial pools (budget p|E| and p|E|/2, p = 0.1) and one c = m REPT
    group, all on the per-edge simulators of the Twitter analog."""

    DATASET = "Twitter"
    M = 10
    P_INVS = (10,)
    POOL = 64

    def __init__(self, spark, tracer: Tracer):
        self.spark = spark
        self.tracer = tracer

    def prepare(self, ds: int) -> None:
        self.stream = datasets.load_stream(self.DATASET, seed=ds)

    def specs(self, ds: int) -> dict[str, list[dict]]:
        n = self.stream.n_edges
        budget = max(2, round(n / self.M))
        triest = [{"method": "triest", "budget": budget, "seed": mix_seeds(ds, 2, i)}
                  for i in range(self.POOL)]
        # One exact trial: a reservoir that holds the whole stream.
        triest.append({"method": "triest", "budget": n, "seed": mix_seeds(ds, 2, -1)})
        gps = [{"method": "gps", "budget": max(2, budget // 2), "seed": mix_seeds(ds, 3, i)}
               for i in range(self.POOL)]
        rept = [{"method": "rept", "m": self.M, "proc": i, "seed": mix_seeds(ds, 4)}
                for i in range(self.M)]
        return {"triest": triest, "gps": gps, "rept": rept}

    def work(self, ds: int) -> dict:
        sp, tr = self.spark, self.tracer
        with tr.span("experiments.runtime"):
            fig7 = runtime.run_runtime(sp, c=self.M, p_invs=self.P_INVS,
                                       datasets=[self.DATASET], seed=ds)
        out = {"fig7": fig7}
        for meth, specs in self.specs(ds).items():
            with tr.span("experiments.pool", method=meth):
                trials = engine.run_stream_trials(sp, self.stream, specs)
                out[meth] = engine.global_estimates(trials)
        return out

    def check(self, ds: int, out: dict, checks: Checks) -> None:
        fig7 = out["fig7"]
        checks.add("fig7.rows", sorted(fig7["method"]) == ["gps", "mascot", "rept", "triest"])
        checks.add("fig7.times", bool((fig7["max_proc_time_s"] > 0).all()))
        tri = enumerate_triangles(self.stream.u, self.stream.v)
        specs = self.specs(ds)
        want = tri.semi_counts(bucket(self.stream.k, specs["rept"][0]["seed"], self.M), self.M)
        got = out["rept"]["est"].to_numpy()
        checks.add("rept_group.per_proc", got.tolist() == want.tolist(),
                   f"{got.tolist()} vs {want.tolist()}")
        checks.add("triest.exact", float(out["triest"]["est"].iloc[-1]) == tri.tau,
                   f"{out['triest']['est'].iloc[-1]} vs {tri.tau}")
        for meth in ("triest", "gps"):
            est = out[meth]["est"].to_numpy()
            checks.add(f"{meth}.pool", len(est) == len(specs[meth])
                       and bool(np.isfinite(est).all() and (est >= 0).all()))


class StructuredStream:
    """Replays the YouTube analog, written as parquet micro-batch files
    during set-up, through the stateful Structured Streaming REPT."""

    DATASET = "YouTube"
    M = 10
    C = 4
    FILES = 2

    def __init__(self, spark, tracer: Tracer, scratch: str):
        self.spark = spark
        self.tracer = tracer
        self.scratch = scratch

    def prepare(self, ds: int) -> None:
        self.stream = datasets.load_stream(self.DATASET, seed=ds)
        self.dir = os.path.join(self.scratch, f"stream-{ds}")
        write_stream_files(datasets.stream_pdf(self.stream), os.path.join(self.dir, "in"),
                           n_files=self.FILES)

    def work(self, ds: int) -> dict:
        with self.tracer.span("structured.query"):
            counts = rept_structured_counts(
                self.spark, os.path.join(self.dir, "in"), self.M, self.C, ds,
                os.path.join(self.dir, "ckpt"), max_files_per_trigger=1,
            )
        return {"counts": counts}

    def check(self, ds: int, out: dict, checks: Checks) -> None:
        got = out["counts"]["tau"].tolist()
        want = [rept_processor(self.stream, self.M, i, ds)["tau"] for i in range(self.C)]
        checks.add("structured.tau_per_proc", got == want, f"{got} vs {want}")


class Sequence:
    """Several clients run one after the other as one workload."""

    def __init__(self, *parts):
        self.parts = parts

    def prepare(self, ds: int) -> None:
        for part in self.parts:
            part.prepare(ds)

    def work(self, ds: int) -> list[dict]:
        return [part.work(ds) for part in self.parts]

    def check(self, ds: int, outs: list[dict], checks: Checks) -> None:
        for part, out in zip(self.parts, outs):
            part.check(ds, out, checks)


#: workload name → constructor(spark, tracer, scratch directory).
WORKLOADS = {
    "sweep-dense": lambda spark, tracer, scratch: SweepDense(spark, tracer),
    "trial-pools-stream": lambda spark, tracer, scratch: Sequence(
        TrialPools(spark, tracer), StructuredStream(spark, tracer, scratch)
    ),
}


def peak_rss_mb() -> tuple[float, float]:
    """Peak resident memory (``VmHWM``) in MB of this process (the
    driver's Python) and of its child processes (the Spark driver JVM)."""
    me = os.getpid()
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            children.append(int(entry))

    def hwm_mb(pid: int) -> float:
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except OSError:
            pass
        return 0.0

    return hwm_mb(me), sum(hwm_mb(pid) for pid in children)


def main(cfg_path: str, t_spawn: float) -> int:
    with open(cfg_path) as f:
        cfg = json.load(f)
    spark = get_session(f"perfbench-{cfg['workload']}")
    t_session = time.monotonic()
    tracer = Tracer(spark if cfg["trace"] else None)
    name, seed = cfg["workload"], cfg["seed"]
    wl = WORKLOADS[name](spark, tracer, cfg["scratch"])
    if cfg["trace"]:
        state = layers.instrument(tracer, spark)
    with tracer.span("setup.inputs"):
        wl.prepare(seed)
    t_ready = time.monotonic()
    setup_s = t_ready - t_spawn

    checks = Checks()
    iterations = []
    t_measure = time.perf_counter()
    ds = seed
    while True:
        first_span = len(tracer.spans)
        t0 = time.perf_counter()
        try:
            out = wl.work(ds)
        except Exception:
            traceback.print_exc()
            checks.add(f"work.{ds}", False, "raised")
            out = None
        run_s = time.perf_counter() - t0
        iterations.append({
            "seed": ds, "run_s": run_s,
            "phases": {r["name"] + (f".{r['method']}" if "method" in r else ""): r["dur_s"]
                       for r in tracer.spans[first_span:] if r["parent"] is None},
        })
        if out is not None:
            try:
                wl.check(ds, out, checks)
            except Exception:
                traceback.print_exc()
                checks.add(f"check.{ds}", False, "raised")
        if time.perf_counter() - t_measure >= cfg["seconds"]:
            break
        ds = mix_seeds(seed, len(iterations)) % (1 << 31)
        wl.prepare(ds)

    if cfg["trace"] and out is not None and hasattr(wl, "probes"):
        try:
            wl.probes(ds, checks)
        except Exception:
            traceback.print_exc()
            checks.add("probes", False, "raised")
    python_rss_mb, jvm_rss_mb = peak_rss_mb()
    result = {
        "setup_s": setup_s,
        "setup_phases": {
            "imports": T_IMPORTED - t_spawn,
            "session": t_session - T_IMPORTED,
            "inputs": t_ready - t_session,
        },
        "run_s": [it["run_s"] for it in iterations],
        "iterations": iterations,
        "checks": checks.items,
        "attempted": len(checks.items),
        "failed": checks.failed,
        "python_rss_mb": python_rss_mb,
        "jvm_rss_mb": jvm_rss_mb,
        "provenance": {
            "spark": pyspark.__version__,
            "numpy": np.__version__,
            "pandas": pd.__version__,
            "python": sys.version.split()[0],
            "master": spark.sparkContext.master,
            "default_parallelism": spark.sparkContext.defaultParallelism,
        },
    }
    if cfg["trace"]:
        tracer.count_spark_work()
        result["layers"] = {
            **layers.metrics(tracer, state, cfg["cores"]),
            "jvm.peak_rss_mb": jvm_rss_mb,
        }
        result["spans"] = tracer.spans
    with open(cfg["result_path"], "w") as f:
        json.dump(result, f, default=float)
    spark.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], float(sys.argv[2])))
