"""Large CLI runs, each in a fresh interpreter with one BLAS thread.

Each test runs `python -m definetti ARGV` with OPENBLAS_NUM_THREADS=1 under a
small launcher that prints the run's exit code and its peak RSS, read with
`RUSAGE_CHILDREN`. The launcher is needed because Linux carries the peak RSS
of the process that starts a child into the child's own `RUSAGE_SELF`, so a
child of the test session would report the session's peak, not the run's.
Every certifying run must exit 0 with every row PASS; the checks beside that
are each run's own: a closed-form bound below 2 (or 1e-3) on some row, a
post-selection defect that is roundoff on every row, and a 150 MB cap on peak
RSS. One run is a refusal, which must exit 64 with no rows, under 60 MB.
"""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

LAUNCHER = (
    "import json, resource, subprocess, sys\n"
    "code = subprocess.call([sys.executable, '-m', 'definetti', *sys.argv[1:]])\n"
    "peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024\n"
    "print(json.dumps({'code': code, 'peak_mb': peak_mb}))\n"
)


def run(argv, tmp_path):
    """(exit code, CSV rows, peak RSS in MB) of `definetti ARGV`; a sweep writes to a file."""
    output = tmp_path / "rows.csv"
    if argv[0] == "sweep":
        argv = [*argv, "--output", str(output)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", LAUNCHER, *argv],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    *printed, last = proc.stdout.splitlines()
    result = json.loads(last)
    text = output.read_text(encoding="utf-8") if argv[0] == "sweep" else "\n".join(printed)
    return result["code"], list(csv.DictReader(text.splitlines())), result["peak_mb"]


def assert_all_pass(code, rows, count):
    assert code == 0, rows
    assert len(rows) == count
    assert all(row["status"] == "PASS" for row in rows), rows


def test_dicke_state_at_twenty_one_sites(tmp_path):
    # n+k = 21 held as its 22 Dicke coefficients; nothing of size 2^21 is built
    code, rows, _ = run([
        "verify", "--d", "2", "--n", "10", "--k", "11", "--r", "3",
        "--state", "dicke:10,11", "--rule", "exact:21",
    ], tmp_path)
    assert_all_pass(code, rows, 1)


def test_random_sweep_at_twenty_one_sites(tmp_path):
    code, rows, _ = run([
        "sweep", "--d", "2", "--n", "10", "--k", "11", "--r", "0,2,4,6,8,10",
        "--state", "random-sym:1", "--rule", "exact:21",
    ], tmp_path)
    assert_all_pass(code, rows, 6)


def test_qutrit_monte_carlo_sweep(tmp_path):
    code, rows, _ = run([
        "sweep", "--d", "3", "--n", "4", "--k", "4", "--r", "0,1,2,3,4",
        "--state", "random-sym:1", "--rule", "mc:20000:1",
    ], tmp_path)
    assert_all_pass(code, rows, 5)


def test_qutrit_sweep_at_200000_nodes_stays_below_150_mb(tmp_path):
    # verify walks the nodes in fixed blocks, so its memory does not grow with the node count
    code, rows, peak_mb = run([
        "sweep", "--d", "3", "--n", "4", "--k", "4", "--r", "0,1,2,3,4",
        "--state", "random-sym:1", "--rule", "mc:200000:1",
    ], tmp_path)
    assert_all_pass(code, rows, 5)
    assert peak_mb < 150, peak_mb


def test_sweep_at_forty_sites(tmp_path):
    # 41 thresholds from 81 Dicke coefficients; exact:40 is exact through degree 81 >= n+k.
    # The closed-form bound falls below the trivial trace distance 2 on some row (r >= 38),
    # and lhs_err, the post-selection defect of an exact rule, is roundoff on every row
    code, rows, _ = run([
        "sweep", "--d", "2", "--n", "40", "--k", "40", "--r", ",".join(map(str, range(41))),
        "--state", "random-sym:1", "--rule", "exact:40",
    ], tmp_path)
    assert_all_pass(code, rows, 41)
    assert any(float(row["explicit_bound"]) < 2 for row in rows)
    assert all(float(row["lhs_err"]) < 1e-12 for row in rows)


def test_sweep_at_a_hundred_sites(tmp_path):
    # 20402 nodes of exact:100 streamed in 40 blocks; the closed-form bound falls below 1e-3
    code, rows, _ = run([
        "sweep", "--d", "2", "--n", "100", "--k", "100",
        "--r", ",".join(map(str, range(0, 101, 5))),
        "--state", "random-sym:1", "--rule", "exact:100",
    ], tmp_path)
    assert_all_pass(code, rows, 21)
    assert any(float(row["explicit_bound"]) < 1e-3 for row in rows)


def test_qutrit_run_at_three_hundred_and_one_sites_stays_below_150_mb(tmp_path):
    # the type tables of 301 sites come from bar positions; a table of sorted 301-tuples
    # would take this run to about 260 MB
    code, rows, peak_mb = run([
        "verify", "--d", "3", "--n", "1", "--k", "300", "--r", "0,1",
        "--state", "random-sym:1", "--rule", "mc:8:1",
    ], tmp_path)
    assert_all_pass(code, rows, 2)
    assert peak_mb < 150, peak_mb


def test_qutrit_run_at_the_site_limit_stays_below_150_mb(tmp_path):
    # 652 sites is the largest d=3 run whose multiplicities fit a float; each type's row comes
    # from type_rank and its multiplicity from Pascal's triangle, where np.unique and factorial
    # divisions took about 9 s
    code, rows, peak_mb = run([
        "verify", "--d", "3", "--n", "1", "--k", "651", "--r", "0,1",
        "--state", "random-sym:1", "--rule", "mc:8:1",
    ], tmp_path)
    assert_all_pass(code, rows, 2)
    assert peak_mb < 150, peak_mb


def test_three_million_sites_are_refused_without_their_factorial(tmp_path):
    # the float-range guard builds the most even type's multiplicity site by site and stops
    # past the largest float, at 1030 sites for d=2; computing (3000001)! in full took minutes
    code, rows, peak_mb = run([
        "verify", "--d", "2", "--n", "1", "--k", "3000000", "--r", "0",
        "--state", "ghz", "--rule", "mc:1",
    ], tmp_path)
    assert code == 64
    assert rows == []
    assert peak_mb < 60, peak_mb
