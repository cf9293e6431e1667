"""The benchmark's own tests; each runs in seconds.

    python3 -m pytest -q bench/tests
"""

import json
import math
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))
sys.dont_write_bytecode = True

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, count_failed, parse_rows, REFERENCE_DIR  # noqa: E402

SMOKE_ARGS = ["--d", "2", "--n", "1", "--k", "1", "--r", "1", "--state", "ghz", "--rule", "exact:6"]
CRASH = [sys.executable, "-c", "import os; os.abort()"]


def test_smoke_workload_bounds(tmp_path):
    child = run.run_child("full", SMOKE_ARGS, tmp_path)
    assert not child["crashed"] and child["exit_code"] == 0
    (row,) = parse_rows(child["csv"]).values()
    assert row["chain_bound"] == "2.44948974278"
    assert row["explicit_bound"] == "8.79689613113"
    assert math.isclose(float(row["chain_bound"]), math.sqrt(6), rel_tol=1e-11)
    assert math.isclose(float(row["explicit_bound"]), 6 * math.sqrt(3) * math.exp(-1 / 6), rel_tol=1e-11)
    assert child["wall_s"] > 0 and 0 < child["setup_s"] and child["peak_rss_mb"] > 0


def test_reference_rows_pass_and_corrupted_row_fails():
    for workload in WORKLOADS.values():
        text = (REFERENCE_DIR / f"{workload.name}.csv").read_text()
        assert count_failed(workload, DEFAULT_SEED, 0, text) == 0
        lines = text.splitlines(keepends=True)
        fields = lines[1].split(",")
        fields[5] = repr(float(fields[5]) * (1 + 1e-6))  # lhs
        corrupted = "".join([lines[0], ",".join(fields), *lines[2:]])
        assert count_failed(workload, DEFAULT_SEED, 0, corrupted) == 1


def test_bad_exit_or_missing_rows_fail_every_row():
    workload = WORKLOADS["qubit-rsweep"]
    text = (REFERENCE_DIR / f"{workload.name}.csv").read_text()
    assert count_failed(workload, DEFAULT_SEED, 1, text) == len(workload.r)
    assert count_failed(workload, DEFAULT_SEED, 0, None) == len(workload.r)
    truncated = "".join(text.splitlines(keepends=True)[:-1])
    assert count_failed(workload, DEFAULT_SEED, 0, truncated) == len(workload.r)


def test_invariants_apply_at_other_seeds():
    workload = WORKLOADS["qutrit-mc"]
    text = (REFERENCE_DIR / f"{workload.name}.csv").read_text().replace("random-sym:7,", "random-sym:8,")
    text = text.replace(",4000,7,PASS", ",4000,8,PASS")
    assert count_failed(workload, 8, 0, text) == 0
    assert count_failed(workload, 8, 0, text.replace("59.0113732207", "59.0")) == 1


def test_crashing_child_fails_every_row():
    workload = WORKLOADS["qubit-rsweep"]
    record = run.run(workload, DEFAULT_SEED, seconds=0, trace=False, command=CRASH)
    result = record["result"]
    assert result["attempted"] == len(workload.r)
    assert result["failed"] == result["attempted"]
    assert result["correct"] is False
    assert result["metrics"]["rows_passed"]["value"] == 0


def test_tracer_sees_internal_integrate_calls(tmp_path):
    spans_path = tmp_path / "spans.json"
    child = run.run_child(f"trace:{spans_path}", SMOKE_ARGS, tmp_path)
    assert not child["crashed"] and child["exit_code"] == 0
    trace = json.loads(spans_path.read_text())
    assert trace["absent"] == []
    names = trace["names"]
    estimate = names.index("haar.integration_error_estimate")
    inside_estimate = [
        span for span in trace["spans"]
        if names[span[0]] == "haar.integrate" and span[3] >= 0 and trace["spans"][span[3]][0] == estimate
    ]
    assert len(inside_estimate) == 2
    rows = {span[4] for span in trace["spans"] if names[span[0]] == "certifier.verify"}
    assert rows == {0}
    stats = tracer.summarize(trace)
    assert stats["haar.integrate"]["calls"] == 4
    for name in names:
        assert 0 <= stats[name]["self_s"] <= stats[name]["time_s"] + 1e-12


ONLY_WEIGHT_FAMILY = {
    "names": ["hamming.weight_family"],
    "absent": [name for name in tracer.TRACED_NAMES if name != "hamming.weight_family"],
    "conditioning_bytes": 0,
    "spans": [[0, 1.0, 2.0, -1, 0]],
}


def test_absent_function_is_null_not_error():
    metrics = run.layer_metrics(ONLY_WEIGHT_FAMILY, WORKLOADS["qubit-wide-k"], traced_wall=2.0, untraced_wall=1.5)
    assert metrics["linalg.sandwich_bra_last.calls"][0] is None
    assert metrics["linalg.conditioning_bytes_computed"][0] is None
    assert metrics["linalg.self_s"][0] is None
    assert metrics["hamming.weight_family.calls"][0] == 1
    assert metrics["haar.node_evals_per_node"][0] == 1 / 242
    assert metrics["trace.overhead_s"][0] == 0.5
    assert tracer.find("certifier.no_such_function") is None
    assert tracer.find("no_such_module.verify") is None


def test_benchmark_json_matches_harness():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    layer = run.layer_metrics(ONLY_WEIGHT_FAMILY, WORKLOADS["qubit-wide-k"], 2.0, 1.5)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(k, unit) for k, (_, unit) in layer.items()]
    record = run.run(WORKLOADS["qutrit-mc"], DEFAULT_SEED, seconds=0, trace=False, command=CRASH)
    assert [m["name"] for m in spec["end_to_end"]] == list(record["result"]["metrics"])
