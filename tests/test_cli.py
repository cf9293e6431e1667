import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from definetti import certifier, cli, haar, linalg, symmetric
from definetti.certifier import PASS, Instance, memory_floor, verify
from definetti.haar import exact_qubit_rule
from definetti.cli import (
    CSV_HEADER,
    FLAGS,
    EXIT_INCONCLUSIVE,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    main,
)

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# one spec per state builder; each is a small sweep on n + k = 6 sites
STATE_SPECS = ["product", "ghz", "dicke:3,3", "random-sym:7"]

BELL_ARGS = [
    "verify", "--d", "2", "--n", "1", "--k", "1", "--r", "1",
    "--state", "ghz", "--rule", "exact:6",
]


def parse_csv(text):
    rows = list(csv.DictReader(text.splitlines()))
    assert text.splitlines()[0] == CSV_HEADER
    return rows


def test_verify_bell_row(capsys):
    code = main(BELL_ARGS)
    out = capsys.readouterr().out
    assert code == EXIT_OK
    rows = parse_csv(out)
    assert len(rows) == 1
    row = rows[0]
    assert (row["d"], row["n"], row["k"], row["r"]) == ("2", "1", "1", "1")
    assert row["state"] == "ghz"
    assert float(row["lhs"]) < 1e-12
    assert float(row["chain_bound"]) == pytest.approx(math.sqrt(6), abs=1e-9)
    assert float(row["explicit_bound"]) == pytest.approx(
        6 * math.sqrt(3) * math.exp(-1 / 6), abs=1e-9
    )
    assert float(row["g_max"]) == pytest.approx(0.25, abs=1e-9)
    assert row["fallback_nodes"] == "0"
    assert row["nodes"] == "98"
    assert row["seed"] == ""
    assert row["status"] == "PASS"


@pytest.mark.parametrize("module", ["definetti", "definetti.cli"])
def test_python_m_entry_points(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", module, *BELL_ARGS],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    rows = parse_csv(proc.stdout)
    assert len(rows) == 1
    assert (rows[0]["state"], rows[0]["status"]) == ("ghz", "PASS")


def cold_sweep_args(spec, output):
    return [
        "sweep", "--d", "2", "--n", "3", "--k", "3", "--r", "0,2",
        "--state", spec, "--rule", "exact:6", "--output", str(output),
    ]


@pytest.mark.parametrize("spec", STATE_SPECS)
def test_sweep_does_not_import_numpy_polynomial(spec, tmp_path):
    script = (
        "import sys\n"
        "from definetti.cli import main\n"
        f"code = main({cold_sweep_args(spec, tmp_path / 'rows.csv')!r})\n"
        "print(code, 'numpy.polynomial' in sys.modules, 'definetti.hamming' in sys.modules,\n"
        "      'fractions' in sys.modules, 'numpy.random' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    # nor the dense weight-projector oracles, nor fractions: the production path never imports
    # them. Only a random state loads numpy.random (about 12 ms and 5.5 MB), so a deterministic
    # run never pays for it, and no module imports it at load time
    random = spec.startswith("random-sym:")
    assert proc.stdout.splitlines()[-1] == f"{EXIT_OK} False False False {random}"


def test_command_line_imports_no_argparse():
    # argparse, with the gettext and locale it loads, cost every run about 4 ms of parser
    # start-up; README's verify example, run cold, must load none of them
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    command = re.search(r"\n\$ definetti (verify .*)\n", readme).group(1)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-W", "error", "-m", "definetti", *command.split()],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert [row["status"] for row in parse_csv(proc.stdout)] == ["PASS"]
    # each -X importtime line ends "| <indent>module"
    imported = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()}
    assert "definetti.cli" in imported
    assert imported.isdisjoint({"argparse", "gettext", "locale"})


def test_sweep_never_handles_the_full_state(monkeypatch, tmp_path):
    # nothing indexed by the d^(n+k) basis strings is built or reduced
    calls = []
    type_codes = symmetric.type_codes
    reduce = symmetric._dicke_coefficients

    def counting_type_codes(n, d):
        calls.append(("type_codes", n))
        return type_codes(n, d)

    def counting_reduce(state):
        calls.append(("_dicke_coefficients", state.sites))
        return reduce(state)

    monkeypatch.setattr(symmetric, "type_codes", counting_type_codes)
    monkeypatch.setattr(symmetric, "_dicke_coefficients", counting_reduce)
    for spec in STATE_SPECS:
        assert main(cold_sweep_args(spec, tmp_path / "rows.csv")) == EXIT_OK, spec
    assert [call for call in calls if call[1] == 6] == []


@pytest.mark.parametrize(
    "make_state",
    [
        lambda sites, d: symmetric.ghz_state(sites + 1, d),  # site count
        lambda sites, d: symmetric.ghz_state(sites, d + 1),  # site dimension
        lambda sites, d: symmetric.SymmetricState(d, sites, np.ones(sites) / np.sqrt(sites)),  # length
        lambda sites, d: symmetric.SymmetricState(d, sites, np.ones(sites + 1)),  # norm
    ],
)
def test_invalid_symmetric_state_exits_usage(make_state, monkeypatch, capsys):
    monkeypatch.setattr(cli, "ghz_state", make_state)
    assert main(BELL_ARGS) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_crash_exits_internal_not_violation(monkeypatch, capsys):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("cannot allocate")

    monkeypatch.setattr(cli, "verify", out_of_memory)
    assert main(BELL_ARGS) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: internal error: MemoryError: cannot allocate")


@pytest.mark.parametrize(
    "name,value", [("trace_norm", math.nan), ("_chain_bound", math.nan), ("_chain_bound", math.inf)]
)
def test_non_finite_report_exits_internal_not_violation(name, value, monkeypatch, capsys):
    monkeypatch.setattr(certifier, name, lambda *args: value)
    assert main(BELL_ARGS) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: internal error: ArithmeticError: ")
    assert "is not finite" in captured.err


@pytest.mark.parametrize("n", ["0", "-1"])
def test_n_below_one_is_refused_before_any_state(n, monkeypatch, capsys):
    # n=0 once built a state on k sites before Instance refused it, and n=-1 was refused by
    # the r check as r=0 outside [0, -1]
    def refuse(*args, **kwargs):
        raise AssertionError("a state was built")

    monkeypatch.setattr(cli, "parse_state_spec", refuse)
    argv = ["verify", "--d", "2", "--n", n, "--k", "1", "--r", "0", "--state", "ghz"]
    assert main(argv + ["--rule", "exact:6"]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: n must be >= 1, got {n}\n"


def test_verify_writes_output_and_json(tmp_path, capsys):
    out_path = tmp_path / "rows.csv"
    json_path = tmp_path / "rows.json"
    code = main(BELL_ARGS + ["--output", str(out_path), "--json", str(json_path)])
    printed = capsys.readouterr().out
    assert code == EXIT_OK
    assert out_path.read_text(encoding="utf-8") == printed
    payload = json.loads(json_path.read_text(encoding="utf-8"))
    assert len(payload) == 1
    entry = payload[0]
    assert entry["status"] == "PASS"
    assert entry["seed"] is None
    assert entry["nodes"] == 98
    assert entry["chain_bound"] == pytest.approx(math.sqrt(6), abs=1e-9)
    # the JSON mirror has the CSV's columns, in order, and the CSV prints each value to 12 digits
    assert [list(entry) for entry in payload] == [CSV_HEADER.split(",")]
    for entry, row in zip(payload, parse_csv(printed), strict=True):
        for name, value in entry.items():
            want = "" if value is None else value if isinstance(value, str) else f"{value:.12g}"
            assert row[name] == want, name


def test_report_fields_are_csv_columns_in_order():
    # a row is the run's context joined with a report, each field a column under its own name
    fields = [field.name for field in dataclasses.fields(certifier.VerificationReport)]
    fields.remove("rule_description")
    assert [name for name in CSV_HEADER.split(",") if name in fields] == fields


def test_verify_multiple_r_sorted(capsys):
    code = main([
        "verify", "--d", "2", "--n", "2", "--k", "1", "--r", "2,0,1",
        "--state", "product", "--rule", "exact:3",
    ])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    rows = parse_csv(out)
    assert [row["r"] for row in rows] == ["0", "1", "2"]
    assert all(row["status"] == "PASS" for row in rows)
    # mc seed lands in the seed column only for mc rules
    assert all(row["seed"] == "" for row in rows)


def test_verify_mc_seed_column(capsys):
    code = main([
        "verify", "--d", "2", "--n", "1", "--k", "1", "--r", "0",
        "--state", "product", "--rule", "mc:200:5",
    ])
    rows = parse_csv(capsys.readouterr().out)
    assert code in (EXIT_OK, EXIT_INCONCLUSIVE)
    assert rows[0]["seed"] == "5"
    assert rows[0]["nodes"] == "200"


def test_verify_state_seed_wins_over_mc_seed(capsys):
    code = main([
        "verify", "--d", "2", "--n", "1", "--k", "1", "--r", "0",
        "--state", "random-sym:7", "--rule", "mc:200:5",
    ])
    rows = parse_csv(capsys.readouterr().out)
    assert code in (EXIT_OK, EXIT_INCONCLUSIVE)
    assert rows[0]["seed"] == "7"


def test_verify_inconclusive_exit_code(capsys):
    # one Monte Carlo node: the rule's post-selection defect exceeds the chain bound
    code = main([
        "verify", "--d", "2", "--n", "1", "--k", "1", "--r", "1",
        "--state", "ghz", "--rule", "mc:1:3",
    ])
    rows = parse_csv(capsys.readouterr().out)
    assert code == EXIT_INCONCLUSIVE
    assert rows[0]["status"] == "INCONCLUSIVE"


def refuse_work(monkeypatch):
    """Make verify and the rule builders raise, so that a run which starts work fails."""
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the request was refused")

    monkeypatch.setattr(cli, "verify", no_work)
    for module in (cli, haar):
        monkeypatch.setattr(module, "monte_carlo_rule", no_work)
        monkeypatch.setattr(module, "exact_qubit_rule", no_work)
    return no_work


def test_usage_errors(tmp_path, monkeypatch, capsys):
    # the fallback test is a fixed fraction of each node's trace, so --fallback-tol is unknown;
    # the memory check has no override, so --allow-large is unknown
    config = tmp_path / "fallback.cfg"
    config.write_text("fallback-tol = 1e-12\n", encoding="utf-8")
    large_config = tmp_path / "large.cfg"
    large_config.write_text("allow-large = true\n", encoding="utf-8")
    cases = [
        ["verify", "--d", "2", "--n", "1", "--k", "1", "--r", "1",
         "--state", "w-state", "--rule", "exact:6"],
        ["verify", "--d", "3", "--n", "1", "--k", "1", "--r", "1",
         "--state", "ghz", "--rule", "exact:6"],
        ["verify", "--d", "2", "--n", "2", "--k", "2", "--r", "1",
         "--state", "ghz", "--rule", "exact:1"],
        ["verify", "--d", "2", "--n", "1", "--k", "1", "--r", "5",
         "--state", "ghz", "--rule", "exact:6"],
        ["verify", "--d", "2", "--n", "1", "--k", "1", "--r", "1",
         "--state", "ghz", "--rule", "mc:0"],
        ["verify", "--d", "2", "--n", "1", "--k", "1", "--r", "1",
         "--state", "ghz", "--rule", "mc:100:-1"],
        BELL_ARGS + ["--fallback-tol", "-1"],
        BELL_ARGS + ["--fallback-tol", "nan"],
        ["sweep", "--d", "2", "--n", "1", "--k", "1", "--r", "0", "--state", "ghz",
         "--rule", "exact:6", "--fallback-tol", "-1e-300", "--output", os.devnull],
        BELL_ARGS + ["--config", str(config)],
        BELL_ARGS + ["--allow-large"],
        BELL_ARGS + ["--config", str(large_config)],
        ["verify", "--d", "2", "--n", "1", "--k", "1", "--r", "1",
         "--state", "dicke:3", "--rule", "exact:2"],
        ["verify", "--d", "2", "--n", "1"],
        ["verify", "--unknown-flag", "1"],
        ["frobnicate"],
        [],
        # refused at the largest k, before the smaller k is certified: the rule is read for
        # n + max k, and every k's state and instance are built before the rule
        ["sweep", "--d", "2", "--n", "100", "--k", "98,100",
         "--r", ",".join(str(r) for r in range(0, 101, 5)), "--state", "random-sym:1",
         "--rule", "exact:99", "--output", str(tmp_path / "refused.csv")],
        ["sweep", "--d", "2", "--n", "4", "--k", "2,4", "--r", "0", "--state", "dicke:3,3",
         "--rule", "exact:4", "--output", str(tmp_path / "refused.csv")],
        ["verify", "--d", "2", "--n", "0", "--k", "4", "--r", "0",
         "--state", "ghz", "--rule", "exact:4"],
        # flags take full names only, so --out is not --output; every flag needs a value that
        # does not begin with --; a token that is no flag is refused; check-props takes no flags
        BELL_ARGS + ["--out", os.devnull],
        ["verify", "--n", "1", "--k", "1", "--r", "1", "--state", "ghz", "--rule", "exact:6",
         "--d"],
        ["verify", "--d", "2", "--n", "1", "--k", "1", "--r", "1", "--state", "--rule", "exact:6"],
        BELL_ARGS + ["stray"],
        ["check-props", "--d", "2"],
    ]

    # no case reaches the work: the rule builders and verify refuse to run
    refuse_work(monkeypatch)
    for argv in cases:
        assert main(argv) == EXIT_USAGE, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error:"), argv

    # refused by the memory floor alone, before any table for n+k sites is built: by its Gram
    # term at d=4 n=k=300 (about 1.3 PB) and at d=3 n=2 k=20000 (about 660 GB)
    tables = []

    def no_table(n, d):
        tables.append(n)
        raise AssertionError(f"type_table({n}, {d}) was called")

    for module in (symmetric, certifier):
        monkeypatch.setattr(module, "type_table", no_table)
    for d, n, k in [(4, 300, 300), (3, 2, 20000)]:
        start = time.perf_counter()
        code = main([
            "verify", "--d", str(d), "--n", str(n), "--k", str(k), "--r", "1",
            "--state", "ghz", "--rule", "mc:100",
        ])
        assert time.perf_counter() - start < 1.0, (d, n, k)
        assert code == EXIT_USAGE, (d, n, k)
        assert f"{memory_floor(d, n, k, 1, 100)} bytes" in capsys.readouterr().err
    assert tables == []


def test_flag_equals_value_reads_as_flag_value(capsys):
    assert BELL_ARGS[1:3] == ["--d", "2"]
    assert main(BELL_ARGS) == EXIT_OK
    spaced = capsys.readouterr().out
    assert main(["verify", "--d=2", *BELL_ARGS[3:]]) == EXIT_OK
    assert capsys.readouterr().out == spaced


def test_repeated_flag_takes_its_last_value(capsys):
    assert main(BELL_ARGS + ["--r", "0", "--r=0,1"]) == EXIT_OK
    assert [row["r"] for row in parse_csv(capsys.readouterr().out)] == ["0", "1"]


@pytest.mark.parametrize("argv", [["--help"], ["sweep", "-h"]])
def test_help_lists_every_flag_and_does_no_work(argv, monkeypatch, capsys):
    no_work = refuse_work(monkeypatch)
    monkeypatch.setattr(cli, "parse_state_spec", no_work)
    monkeypatch.setattr(cli, "parse_rule_spec", no_work)
    assert main(argv) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    for name in FLAGS:
        assert f"--{name} " in captured.out, name


@pytest.mark.parametrize(
    "argv",
    [
        ["--n", "40", "--k", "40", "--r", "40", "--state", "random-sym:1", "--rule", "exact:40"],
        ["--n", "19", "--k", "2", "--r", "1", "--state", "ghz", "--rule", "exact:21"],
    ],
)
def test_runs_that_fit_need_no_flag(argv, capsys):
    # d^(n+k) is 2^80 and 2^21, yet verify holds only Dicke coordinates: under 1 MB here
    assert main(["verify", "--d", "2", *argv]) == EXIT_OK
    assert parse_csv(capsys.readouterr().out)[0]["status"] == "PASS"


def test_rule_is_counted_before_it_is_built(monkeypatch, capsys):
    # a trillion Monte Carlo nodes need 40 TB for their own arrays: refused from the spec alone
    def refuse(*args, **kwargs):
        raise AssertionError("the rule was built")

    for module in (cli, haar):
        monkeypatch.setattr(module, "monte_carlo_rule", refuse)
    start = time.perf_counter()
    code = main(BELL_ARGS[:-1] + ["mc:1000000000000"])
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_USAGE
    assert f"at least {memory_floor(2, 1, 1, 1, 10**12)} bytes" in capsys.readouterr().err
    for t in (0, 1, 6, 40):
        assert cli._read_rule_spec(f"exact:{t}", 2, 1)[0] == exact_qubit_rule(t).node_count


def test_memory_check_names_both_byte_counts(monkeypatch, capsys):
    need = memory_floor(2, 1, 1, 1, 98)
    # exact:6's 98 nodes and weights (40 bytes each), then the Gram term: C, the block's 98
    # bras b(psi) and the gather temporary beside them, Tr_k rho and three 2x2 Grams
    assert need == 40 * 98 + 16 * (2 * 2 + 2 * 98 * 2 + 3 * 2**2) == 10448
    monkeypatch.setattr(cli, "_physical_memory", lambda: need - 1)
    assert main(BELL_ARGS) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"at least {need} bytes" in err
    assert f"this machine's {need - 1} bytes" in err
    for memory in (need, None):  # exactly enough, and not reported by the OS
        monkeypatch.setattr(cli, "_physical_memory", lambda: memory)
        assert main(BELL_ARGS) == EXIT_OK
        capsys.readouterr()


@pytest.mark.parametrize(
    "d,n,k,thresholds,rule",
    [
        (2, 40, 40, 41, "exact:40"),
        (3, 12, 12, 13, "mc:2000:1"),
        (4, 6, 6, 7, "mc:2000:1"),
        (3, 2, 60, 3, "mc:2000:1"),
        (3, 1, 300, 2, "mc:8:1"),
    ],
)
def test_memory_floor_is_a_lower_bound(d, n, k, thresholds, rule, capsys):
    # a refused run could never have fit, so the floor needs no override
    symmetric.type_table.cache_clear()
    certifier._rotation_blocks.cache_clear()
    tracemalloc.start()
    try:
        code = main([
            "verify", "--d", str(d), "--n", str(n), "--k", str(k),
            "--r", ",".join(map(str, range(thresholds))),
            "--state", "random-sym:1", "--rule", rule,
        ])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(parse_csv(capsys.readouterr().out)) == thresholds
    assert code in (EXIT_OK, EXIT_INCONCLUSIVE)
    nodes = cli._read_rule_spec(rule, d, n + k)[0]
    assert peak >= memory_floor(d, n, k, thresholds, nodes)


def test_memory_floor_never_decreases():
    # build_rows checks the floor only at n + max k, which refuses every k that would not fit
    ks, thresholds, nodes = range(1, 61), (1, 2, 3, 61), (1, 511, 512, 513, 10**6)
    for d in range(2, 6):
        for n in range(1, 61):
            floors = np.array(
                [[[memory_floor(d, n, k, t, m) for m in nodes] for t in thresholds] for k in ks],
                dtype=object,
            )
            for axis in range(3):  # k, thresholds, nodes
                assert (np.diff(floors, axis=axis) >= 0).all(), (d, n, axis)


def test_multi_k_floor_refusal_names_n_plus_max_k(monkeypatch, tmp_path, capsys):
    # memory for k=1 only: the one check, at n + max k = 4, refuses the sweep before any verify
    def refuse(*args, **kwargs):
        raise AssertionError("verify ran")

    monkeypatch.setattr(cli, "verify", refuse)
    monkeypatch.setattr(cli, "_physical_memory", lambda: memory_floor(2, 1, 1, 1, 98))
    code = main([
        "sweep", "--d", "2", "--n", "1", "--k", "1,3,2", "--r", "1", "--state", "ghz",
        "--rule", "exact:6", "--output", str(tmp_path / "rows.csv"),
    ])
    assert code == EXIT_USAGE
    assert f"at least {memory_floor(2, 1, 3, 1, 98)} bytes at n+k=4," in capsys.readouterr().err
    assert not (tmp_path / "rows.csv").exists()


@pytest.mark.parametrize(
    "d,n,k,r",
    [(2, 1030, 1, 5), (2, 1029, 1, 5), (2, 1028, 1, 5), (3, 1, 652, 1), (3, 1, 651, 1)],
)
def test_sizes_whose_multiplicities_overflow_a_float_are_refused(d, n, k, r, monkeypatch, capsys):
    # type_table's multiplicities and g_max's binomials are floats; the first n+k whose most
    # even type t has m!/prod t_i! above the largest float is 1030 at d=2 and 653 at d=3. Such
    # a run died with OverflowError (exit 70, after 24 s at d=3); now it is refused before any
    # state is built. A size that fits reaches the state builder, which this test refuses
    def refuse(*args, **kwargs):
        raise AssertionError("a state was built")

    monkeypatch.setattr(cli, "parse_state_spec", refuse)
    monkeypatch.setattr(cli, "_physical_memory", lambda: None)  # the d=3 floor is about 17 MB
    start = time.perf_counter()
    code = main([
        "verify", "--d", str(d), "--n", str(n), "--k", str(k), "--r", str(r),
        "--state", "product", "--rule", "mc:1",
    ])
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    if n + k >= {2: 1030, 3: 653}[d]:
        assert code == EXIT_USAGE
        assert f"n+k={n + k} is too large at d={d}" in err
        assert "exceeds the largest float, 1.79769e+308" in err
    else:
        assert code == EXIT_INTERNAL
        assert "a state was built" in err


@pytest.mark.parametrize("nk", [3, 4, 7])
def test_exact_rule_floor_is_degree_2t_plus_1(nk, capsys):
    # exact:t is exact through degree 2t+1 (test_exact_rule_is_exact_through_degree_2t_plus_1),
    # so t = ceil((n+k-1)/2) integrates the chain's degree-(n+k) integrand: chain_bound matches
    # exact:n+k, and the post-selection defect, which needs degree k, is roundoff. lhs is not
    # compared: each rule certifies its own approximant, renormalized by every node's kept mass
    sites = 2 * nk
    floor = sites // 2
    state, _ = cli.parse_state_spec("random-sym:1", 2, sites)
    inst = Instance(d=2, n=nk, k=nk, rho=state)
    full = verify(inst, exact_qubit_rule(sites), range(nk + 1))
    at = verify(inst, cli.parse_rule_spec(f"exact:{floor}", 2, sites), range(nk + 1))
    for r, (got, want) in enumerate(zip(at, full)):
        assert got.chain_bound == pytest.approx(want.chain_bound, rel=1e-12, abs=0), r
        assert got.lhs_err < 1e-13, r
        assert got.status == PASS, r
    below = verify(inst, exact_qubit_rule(floor - 1), range(nk + 1))
    assert any(abs(got.chain_bound / want.chain_bound - 1) > 1e-9 for got, want in zip(below, full))
    code = main([
        "verify", "--d", "2", "--n", str(nk), "--k", str(nk), "--r", "1",
        "--state", "random-sym:1", "--rule", f"exact:{floor - 1}",
    ])
    assert code == EXIT_USAGE
    assert f"exact through degree {sites - 1}, below n+k={sites}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "nk,thresholds",
    [(50, ["40", "45", "50"]), (60, ["40", "50", "55", "60"])],
    ids=["50", "60"],
)
def test_ghz_fallback_nodes_keep_the_theorem(nk, thresholds, capsys):
    # many GHZ nodes keep less than 1e-12 of mass, yet nearly all of their trace; an absolute
    # fallback test sent 2222 of them to psi^(x)n at n=k=50, at a cost of up to twice their
    # trace, and lhs rose to 2.4e-12 against lhs_err + chain_bound = 5.3e-14 at r = 50
    code = main([
        "verify", "--d", "2", "--n", str(nk), "--k", str(nk), "--r", ",".join(thresholds),
        "--state", "ghz", "--rule", f"exact:{2 * nk}",
    ])
    rows = parse_csv(capsys.readouterr().out)
    assert code == EXIT_OK
    assert [row["r"] for row in rows] == thresholds
    for row in rows:
        assert float(row["lhs"]) <= float(row["lhs_err"]) + float(row["chain_bound"]), row
        assert row["fallback_nodes"] == "0", row


def test_sweep_requires_output(capsys):
    code = main([
        "sweep", "--d", "2", "--n", "1", "--k", "1", "--r", "0",
        "--state", "ghz", "--rule", "exact:2",
    ])
    assert code == EXIT_USAGE
    assert "--output" in capsys.readouterr().err


def test_sweep_sorted_rows_and_monotone_explicit(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--d", "2", "--n", "2", "--k", "2,1", "--r", "2,0,1",
        "--state", "ghz", "--rule", "exact:4", "--output", str(out_path),
    ])
    capsys.readouterr()
    assert code == EXIT_OK
    text = out_path.read_text(encoding="utf-8")
    rows = parse_csv(text)
    keys = [(int(row["n"]), int(row["k"]), int(row["r"])) for row in rows]
    assert keys == sorted(keys)
    assert len(rows) == 6
    for k in ("1", "2"):
        bounds = [float(row["explicit_bound"]) for row in rows if row["k"] == k]
        assert all(a > b for a, b in zip(bounds, bounds[1:]))


def test_sweep_calls_verify_once_per_k(monkeypatch, tmp_path, capsys):
    calls, rules = [], []
    real_verify = cli.verify

    def counting_verify(inst, rule, thresholds):
        calls.append((inst.k, tuple(thresholds)))
        rules.append(rule)
        return real_verify(inst, rule, thresholds)

    monkeypatch.setattr(cli, "verify", counting_verify)
    code = main([
        "sweep", "--d", "2", "--n", "2", "--k", "2,1", "--r", "2,0,1,0",
        "--state", "ghz", "--rule", "exact:4", "--output", str(tmp_path / "sweep.csv"),
    ])
    capsys.readouterr()
    assert code == EXIT_OK
    assert calls == [(1, (0, 1, 2)), (2, (0, 1, 2))]
    assert rules[0] is rules[1]  # one rule for the whole sweep


def test_sweep_rows_equal_single_k_runs(monkeypatch, tmp_path, capsys):
    # sharing one rule across k moves no digit: the sweep's rows are the single-k runs' rows
    common = ["--d", "3", "--n", "2", "--r", "0,1,2", "--state", "random-sym:1",
              "--rule", "mc:2000:1"]
    single = []
    for k in ("1", "2", "3"):
        assert main(["verify", "--k", k, *common]) in (EXIT_OK, EXIT_INCONCLUSIVE)
        single += capsys.readouterr().out.splitlines()[1:]
    builds = []
    real_rule = cli.monte_carlo_rule

    def counting_rule(*args, **kwargs):
        builds.append(args)
        return real_rule(*args, **kwargs)

    monkeypatch.setattr(cli, "monte_carlo_rule", counting_rule)
    out_path = tmp_path / "sweep.csv"
    assert main(["sweep", "--k", "1,2,3", *common, "--output", str(out_path)]) in (
        EXIT_OK, EXIT_INCONCLUSIVE
    )
    capsys.readouterr()
    assert len(single) == 9
    assert out_path.read_bytes() == "\n".join([CSV_HEADER, *single, ""]).encode("utf-8")
    assert builds == [(3, 2000)]


def test_sweep_rerun_byte_identical(tmp_path, capsys):
    args_template = [
        "sweep", "--d", "3", "--n", "2", "--k", "2", "--r", "0,1",
        "--state", "random-sym:7", "--rule", "mc:800:4",
    ]
    outputs = []
    for name in ("first", "second"):
        out_path = tmp_path / f"{name}.csv"
        json_path = tmp_path / f"{name}.json"
        code = main(args_template + ["--output", str(out_path), "--json", str(json_path)])
        capsys.readouterr()
        assert code in (EXIT_OK, EXIT_INCONCLUSIVE)
        outputs.append((out_path.read_bytes(), json_path.read_bytes()))
    assert outputs[0] == outputs[1]
    rows = parse_csv(outputs[0][0].decode("utf-8"))
    assert [row["seed"] for row in rows] == ["7", "7"]


def test_dicke_state_field_is_csv_quoted(capsys):
    code = main([
        "verify", "--d", "2", "--n", "1", "--k", "1", "--r", "1",
        "--state", "dicke:1,1", "--rule", "exact:2",
    ])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert '"dicke:1,1"' in out
    rows = parse_csv(out)
    assert rows[0]["state"] == "dicke:1,1"


def test_config_file_with_flag_override(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(
        "# certification run\n"
        "d = 2\n"
        "n = 1\n"
        "k = 1\n"
        "r = 1\n"
        "state = ghz\n"
        "rule = exact:6\n",
        encoding="utf-8",
    )
    code = main(["verify", "--config", str(config)])
    rows = parse_csv(capsys.readouterr().out)
    assert code == EXIT_OK
    assert rows[0]["r"] == "1"

    code = main(["verify", "--config", str(config), "--r", "0"])
    rows = parse_csv(capsys.readouterr().out)
    assert code == EXIT_OK
    assert [row["r"] for row in rows] == ["0"]


def test_config_file_errors(tmp_path, capsys):
    unknown = tmp_path / "bad.cfg"
    unknown.write_text("samples = 3\n", encoding="utf-8")
    assert main(["verify", "--config", str(unknown)]) == EXIT_USAGE
    capsys.readouterr()

    malformed = tmp_path / "worse.cfg"
    malformed.write_text("just some words\n", encoding="utf-8")
    assert main(["verify", "--config", str(malformed)]) == EXIT_USAGE
    capsys.readouterr()

    assert main(["verify", "--config", str(tmp_path / "absent.cfg")]) == EXIT_USAGE
    capsys.readouterr()


def test_check_props_default_grid(monkeypatch, capsys):
    # the post-selection suite runs in Dicke coordinates: nothing indexed by d^n strings
    def refuse(*args, **kwargs):
        raise AssertionError("check-props built a d^n operator")

    dense = ("symmetrizer", "dicke_isometry", "type_codes", "pure_power_moment", "power_rows")
    for module in (certifier, cli, haar, linalg, symmetric):
        for name in dense:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    code = main(["check-props"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    lines = [line for line in out.splitlines() if line]
    assert len(lines) == 8
    assert not any("sandwich" in line for line in lines)
    assert all(line.endswith("ok") for line in lines)
    assert sum("post-selection" in line for line in lines) == 7
    assert not any("gentle" in line for line in lines)
    # link 3: the largest g_max against its ceiling is at n = 50, k = 1, r = 1
    assert (
        "tail decay claim, n <= 50, all r, k in {1, n, 2n}: "
        "max g_max / e^(-(r/3) min(k/n, 1)) 0.912313 ok" in out
    )
    # the dense value; without the 1/sqrt(mult_s mult_t) scaling it reads 5.108e-03 and fails
    assert "d=3 n=2 mc(samples=100000, seed=0): max entrywise error 3.612e-03" in out
