"""REPT benchmark: one run of one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep-dense --seed 1 --seconds 10 --trace 0

Workloads (``BENCHMARK.json``): ``sweep-dense`` (the Spark SQL engine)
and ``trial-pools-stream`` (per-edge simulators as Spark tasks, then the
stateful Structured Streaming job). Each run starts the workload in a fresh Python
process (``perfbench/workloads.py``), as ``spark-submit jobs/*.py``
would, with fresh data and result directories under ``.perfbench/`` so
the repository's ``.data/`` and ``results/`` are never read or written.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
the per-layer metrics of ``BENCHMARK.json``. Every run writes its
metrics, checks and provenance (and, traced, its spans) to
``.perfbench/results/``. The last line of standard output is one JSON
object; the exit code is 0 only when every correctness check passed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: the driver JVM heap; fixed so runs compare across machines.
DRIVER_MEMORY = "2g"
#: a run must end within 180 s; leave room to stop the child.
CHILD_TIMEOUT_S = 170.0


def source_digest() -> str:
    """SHA-256 over the program's sources (the checkout may not be a git
    repository, so this identifies the code measured)."""
    h = hashlib.sha256()
    for top in ("src", "jobs"):
        for dirpath, dirnames, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def child_env(run_dir: str, cores: int, trace: bool) -> dict[str, str]:
    """Environment of the workload process: what a spark-submit user
    exports, pointed at this run's scratch directories."""
    env = dict(os.environ)
    # The program's own knob would override the session default measured.
    env.pop("SPARK_SHUFFLE_PARTITIONS", None)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYSPARK_PYTHON"] = sys.executable
    env["REPRO_DATA_DIR"] = os.path.join(run_dir, "data")
    env["REPRO_RESULTS_DIR"] = os.path.join(run_dir, "results")
    tmp = os.path.join(run_dir, "tmp")
    env["TMPDIR"] = tmp
    env["SPARK_LOCAL_DIRS"] = os.path.join(run_dir, "spark")
    confs = [
        "spark.ui.showConsoleProgress=false",
        "spark.ui.enabled=false",
        "spark.driver.host=127.0.0.1",
        f"spark.sql.warehouse.dir={os.path.join(run_dir, 'warehouse')}",
    ]
    if trace:
        # Keep every job and stage of the run for the span accounting.
        confs += ["spark.ui.retainedJobs=100000", "spark.ui.retainedStages=100000"]
    env["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [f"--master local[{cores}]", f"--driver-memory {DRIVER_MEMORY}",
         f"--driver-java-options '-XX:-UsePerfData -Djava.io.tmpdir={tmp}'"]
        + [f"--conf {c}" for c in confs]
        + ["pyspark-shell"]
    )
    return env


def stop_group(proc: subprocess.Popen) -> None:
    """Stop the workload process and everything it started (the JVM and
    its Python workers share its process group), then wait for them."""
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    t0 = time.monotonic()
    sig = signal.SIGTERM
    while time.monotonic() - t0 < 30:
        try:
            os.killpg(proc.pid, sig)
        except ProcessLookupError:
            return
        if time.monotonic() - t0 > 10:
            sig = signal.SIGKILL
        time.sleep(0.1)
    print(f"processes of group {proc.pid} did not end", file=sys.stderr)


def run_child(args, run_dir: str, cores: int) -> dict | None:
    for sub in ("data", "results", "tmp", "spark", "scratch"):
        os.makedirs(os.path.join(run_dir, sub))
    cfg = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "cores": cores,
        "scratch": os.path.join(run_dir, "scratch"),
        "result_path": os.path.join(run_dir, "result.json"),
    }
    cfg_path = os.path.join(run_dir, "config.json")
    with open(cfg_path, "w") as f:
        json.dump(cfg, f)
    log_path = os.path.join(run_dir, "child.log")
    with open(log_path, "w") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "workloads.py"), cfg_path, repr(t_spawn)],
            cwd=ROOT, env=child_env(run_dir, cores, bool(args.trace)),
            stdout=log, stderr=subprocess.STDOUT, start_new_session=True,
        )
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            stop_group(proc)
    if code != 0 or not os.path.exists(cfg["result_path"]):
        with open(log_path, errors="replace") as f:
            tail = f.read()[-4000:]
        print(f"workload process failed (exit {code}); log tail:\n{tail}", file=sys.stderr)
        return None
    with open(cfg["result_path"]) as f:
        return json.load(f)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for needed in ("src/repro", "jobs/_session.py"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"cannot run: {needed} is missing from {ROOT}", file=sys.stderr)
            return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    cores = len(os.sched_getaffinity(0))
    base = os.path.join(ROOT, ".perfbench")
    run_dir = os.path.join(base, "runs", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        res = run_child(args, run_dir, cores)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if res is None:
        return 1

    if args.trace:
        names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        values = res["layers"]
    else:
        names = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        values = {
            "setup_s": res["setup_s"],
            "run_s": statistics.median(res["run_s"]),
            "driver_rss_mb": res["python_rss_mb"],
        }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in names}

    provenance = {
        **res["provenance"],
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": cores,
        "driver_memory": DRIVER_MEMORY,
        "workload": args.workload,
        "seed": args.seed,
        "iterations": len(res["run_s"]),
        "run_s_samples": res["run_s"],
        "python_rss_mb": res["python_rss_mb"],
        "jvm_rss_mb": res["jvm_rss_mb"],
        "setup_phases": res["setup_phases"],
        "phases": [it["phases"] for it in res["iterations"]],
    }
    os.makedirs(os.path.join(base, "results"), exist_ok=True)
    kind = "trace" if args.trace else "result"
    out_path = os.path.join(base, "results", f"{kind}-{args.workload}-seed{args.seed}.json")
    with open(out_path, "w") as f:
        json.dump({"metrics": metrics, "provenance": provenance, "checks": res["checks"],
                   "spans": res.get("spans")}, f, indent=1, default=float)

    for c in res["checks"]:
        if not c["ok"]:
            print(f"CHECK FAILED {c['name']}: {c['detail']}")
    print(f"# {args.workload} seed={args.seed} nproc={cores} driver_memory={DRIVER_MEMORY} "
          f"spark={provenance['spark']} python={provenance['python']} "
          f"numpy={provenance['numpy']} source={provenance['source_sha256']} "
          f"git={provenance['git_sha']} iterations={provenance['iterations']}")
    for phase, dur in res["setup_phases"].items():
        print(f"#   setup {phase}: {dur:.3f} s")
    for phase, dur in res["iterations"][0]["phases"].items():
        print(f"#   phase {phase}: {dur:.3f} s")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    failed = res["failed"]
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
