"""Benchmark entry point: one workload of ``definetti sweep`` in fresh child processes.

    python3 bench/run.py --workload NAME [--seed S] [--seconds T] [--trace 0|1]

Run from the repository root. Every child is a new interpreter running
``bench/child.py``; children run one at a time with BLAS and OpenMP threads
capped (THREAD_CAP, never above the CPU count) and bytecode writing off, so
nothing lands in ``src/``.

``--trace 0`` (end-to-end metrics, no tracing): SETUP_CHILDREN children that
stop at the first ``verify`` entry, then full sweeps until T seconds have
passed (at least one). ``wall_s`` and ``peak_rss_mb`` are medians over the full
sweeps, ``setup_s`` the median over every child.

``--trace 1`` (per-layer metrics): one traced sweep, then untraced sweeps until
T seconds have passed (at least one); ``trace.overhead_s`` is the traced
``wall_s`` minus the untraced median.

Every sweep's CSV goes through the correctness gate in ``workloads.py``. A
child that crashes or exits with an unexpected code fails every row of the
run. The last stdout line is the JSON result; the line before it records the
environment. The full record and the span file are written to ``bench/results``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True

import tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, count_failed  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
CHILD = BENCH_DIR / "child.py"
SETUP_CHILDREN = 5
CHILD_TIMEOUT_S = 150
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread (within the cap of nproc): on a 2-core host, two threads
# doubled CPU use, gained at most ~10% wall time, and widened the run-to-run
# spread of wall_s from ~12% to ~27%.
THREAD_CAP = 1
LAYER_FIELDS = (("calls", "count"), ("time_s", "s"), ("self_s", "s"))
DERIVED_LAYER_METRICS = (
    ("haar.node_evals_per_node", "ratio"),
    ("linalg.conditioning_bytes_computed", "B"),
    ("trace.overhead_s", "s"),
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    for name in THREAD_VARIABLES:
        env[name] = str(min(THREAD_CAP, nproc()))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def git_commit():
    """HEAD's commit read from ``.git`` without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = None
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "cpu": cpu,
        "nproc": nproc(),
        "thread_caps": {name: min(THREAD_CAP, nproc()) for name in THREAD_VARIABLES},
        "git_commit": git_commit(),
    }


def run_child(mode: str, sweep_args: list, scratch: Path, command=None) -> dict:
    """Run one child to completion; returns its result plus exit status and CSV text.

    `command` replaces the child program (tests use it to simulate a crash).
    """
    result_path = scratch / "child.json"
    csv_path = scratch / "rows.csv"
    for path in (result_path, csv_path):
        path.unlink(missing_ok=True)
    argv = command or [sys.executable, str(CHILD)]
    argv = [*argv, str(result_path), mode, *sweep_args, "--output", str(csv_path)]
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        status, stderr = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired as exc:
        status, stderr = "timeout", str(exc)
    result = {"mode": mode.partition(":")[0], "status": status, "crashed": True, "csv": None}
    if status == 0 and result_path.exists():
        result.update(json.loads(result_path.read_text()), crashed=False)
        if csv_path.exists():
            result["csv"] = csv_path.read_text()
    if result["crashed"]:
        print(f"child {mode} failed with status {status}: {stderr[-2000:]}", file=sys.stderr)
    return result


def layer_metrics(trace: dict, workload, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics from one traced run; absent functions give None."""
    stats = tracer.summarize(trace)
    metrics = {}
    module_self = {}
    for name in tracer.TRACED_NAMES:
        entry = stats[name]
        for field, unit in LAYER_FIELDS:
            metrics[f"{name}.{field}"] = (None if entry is None else entry[field], unit)
        if entry is not None:
            module = name.split(".")[0]
            module_self[module] = module_self.get(module, 0.0) + entry["self_s"]
    for module in tracer.TRACED:
        metrics[f"{module}.self_s"] = (module_self.get(module), "s")
    family = stats["hamming.weight_family"]
    evaluations = len(workload.r) * workload.nodes
    conditioning = stats[tracer.CONDITIONING_FUNCTION]
    values = (
        None if family is None else family["calls"] / evaluations,
        None if conditioning is None else trace["conditioning_bytes"],
        None if untraced_wall is None else traced_wall - untraced_wall,
    )
    for (name, unit), value in zip(DERIVED_LAYER_METRICS, values):
        metrics[name] = (value, unit)
    return metrics


def median_of(children, key):
    values = [child[key] for child in children if child.get(key) is not None]
    return statistics.median(values) if values else None


def run(workload, seed: int, seconds: float, trace: bool, command=None) -> dict:
    """Run one benchmark run and return its full record."""
    RESULTS_DIR.mkdir(exist_ok=True)
    sweep_args = workload.sweep_args(seed)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=RESULTS_DIR))
    span_path = RESULTS_DIR / f"{workload.name}-spans.json"
    children = []
    try:
        started = time.perf_counter()
        if trace:
            span_path.unlink(missing_ok=True)
            children.append(run_child(f"trace:{span_path}", sweep_args, scratch, command))
        else:
            for _ in range(SETUP_CHILDREN):
                children.append(run_child("setup", sweep_args, scratch, command))
        while True:
            children.append(run_child("full", sweep_args, scratch, command))
            if time.perf_counter() - started >= seconds:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    rows = len(workload.r)
    sweeps = [child for child in children if child["mode"] != "setup"]
    for child in sweeps:
        child["failed"] = count_failed(workload, seed, child.get("exit_code"), child["csv"])
    broken = any(
        child["crashed"] or (child["mode"] == "setup" and child.get("setup_s") is None)
        for child in children
    )
    attempted = rows * len(sweeps)
    failed = attempted if broken else sum(child["failed"] for child in sweeps)
    untraced = [child for child in children if child.get("mode") == "full"]
    if trace:
        traced = children[0]
        metrics = {}
        if not traced["crashed"]:
            trace_data = json.loads(span_path.read_text())
            traced["trace_id"] = trace_data["trace_id"]
            metrics = layer_metrics(trace_data, workload, traced["wall_s"], median_of(untraced, "wall_s"))
    else:
        metrics = {
            "wall_s": (median_of(untraced, "wall_s"), "s"),
            "setup_s": (median_of(children, "setup_s"), "s"),
            "peak_rss_mb": (median_of(untraced, "peak_rss_mb"), "MB"),
            "rows": (rows, "count"),
            "rows_passed": (0 if broken else rows - max(c["failed"] for c in sweeps), "count"),
        }
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "children": [{k: v for k, v in c.items() if k != "csv"} for c in children],
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "definetti" / "cli.py").is_file():
        print(f"error: no definetti sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    record = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    out = RESULTS_DIR / f"{args.workload}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
