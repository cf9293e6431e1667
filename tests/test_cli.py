import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from definetti import cli, symmetric
from definetti.cli import (
    CSV_HEADER,
    EXIT_INCONCLUSIVE,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    main,
)

SRC = Path(__file__).resolve().parents[1] / "src"

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
        "print(code, 'numpy.polynomial' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"{EXIT_OK} False"


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


def test_verify_fallback_tol_flag(capsys):
    # a fallback threshold of 1 forces the fallback branch at every node
    code = main(BELL_ARGS + ["--fallback-tol", "1.0"])
    rows = parse_csv(capsys.readouterr().out)
    assert code == EXIT_OK
    assert rows[0]["fallback_nodes"] == rows[0]["nodes"]
    assert rows[0]["status"] == "PASS"


def test_verify_inconclusive_exit_code(capsys):
    code = main([
        "verify", "--d", "2", "--n", "1", "--k", "1", "--r", "1",
        "--state", "ghz", "--rule", "mc:3:2",
    ])
    rows = parse_csv(capsys.readouterr().out)
    assert code == EXIT_INCONCLUSIVE
    assert rows[0]["status"] == "INCONCLUSIVE"


def test_usage_errors(capsys):
    cases = [
        ["verify", "--d", "2", "--n", "1", "--k", "1", "--r", "1",
         "--state", "w-state", "--rule", "exact:6"],
        ["verify", "--d", "3", "--n", "1", "--k", "1", "--r", "1",
         "--state", "ghz", "--rule", "exact:6"],
        ["verify", "--d", "2", "--n", "2", "--k", "2", "--r", "1",
         "--state", "ghz", "--rule", "exact:3"],
        ["verify", "--d", "2", "--n", "19", "--k", "2", "--r", "1",
         "--state", "ghz", "--rule", "exact:21"],
        ["verify", "--d", "2", "--n", "1", "--k", "1", "--r", "5",
         "--state", "ghz", "--rule", "exact:6"],
        ["verify", "--d", "2", "--n", "1", "--k", "1", "--r", "1",
         "--state", "ghz", "--rule", "mc:0"],
        ["verify", "--d", "2", "--n", "1", "--k", "1", "--r", "1",
         "--state", "dicke:3", "--rule", "exact:2"],
        ["verify", "--d", "2", "--n", "1"],
        ["verify", "--unknown-flag", "1"],
        ["frobnicate"],
        [],
    ]
    for argv in cases:
        assert main(argv) == EXIT_USAGE, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error:"), argv


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


def test_check_props_default_grid(capsys):
    code = main(["check-props"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    lines = [line for line in out.splitlines() if line]
    assert len(lines) == 10
    assert all(line.endswith("ok") for line in lines)
    assert sum("post-selection" in line for line in lines) == 7
