import csv
import dataclasses
import importlib
import importlib.util
import json
import re
import shlex
import sys
from pathlib import Path

import pytest

import definetti
from definetti import cli, hamming, linalg
from definetti.symmetric import SymmetricState
from oracles import dense_pure

ROOT = Path(__file__).resolve().parents[1]

ROOT_API = {
    "Instance",
    "InstanceError",
    "VerificationReport",
    "verify",
    "explicit_bound",
    "PASS",
    "VIOLATION",
    "INCONCLUSIVE",
    "QuadratureRule",
    "SymmetricState",
    "exact_qubit_rule",
    "monte_carlo_rule",
    "ghz_state",
    "dicke_state",
    "random_symmetric_pure",
    "__version__",
}


def test_root_exports_only_the_documented_api():
    assert len(definetti.__all__) == len(ROOT_API)
    assert set(definetti.__all__) == ROOT_API
    for name in definetti.__all__:
        assert hasattr(definetti, name), name
    # README's export sentence names exactly __all__
    readme = (ROOT / "README.md").read_text()
    lead = "The package root exports the library API and nothing else: "
    sentence = re.search(re.escape(lead) + r"(.*?)\.\s", readme, re.S).group(1)
    assert sorted(re.findall(r"`([^`]+)`", sentence)) == sorted(definetti.__all__)
    # the dense types left the root, not the package: the traced dense functions take them
    assert hasattr(linalg, "PureState") and hasattr(linalg, "Operator")


def test_readme_library_example_passes():
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(blocks[0], namespace)
    assert namespace["report"].status == definetti.PASS


def test_readme_verify_example_prints_its_rows(capsys):
    # lhs and lhs_err are roundoff, whose digits follow the BLAS library and thread count;
    # every other field of the row, and the header, must read as the README shows them
    readme = (ROOT / "README.md").read_text()
    command, header, row = re.search(r"\n\$ (definetti verify .*)\n(.*)\n(.*)\n", readme).groups()
    assert cli.main(shlex.split(command)[1:]) == 0
    got_header, got_row = capsys.readouterr().out.splitlines()
    assert got_header == header
    got, want = (dict(zip(header.split(","), line.split(","))) for line in (got_row, row))
    for name in ("lhs", "lhs_err"):
        assert float(got.pop(name)) <= 1e-15 and float(want.pop(name)) <= 1e-15, name
    assert got == want


def test_readme_command_lines_run(monkeypatch, tmp_path):
    # every `definetti ...` line of README's fenced blocks, continuations joined, `$ ` dropped
    readme = (ROOT / "README.md").read_text()
    lines = []
    for block in re.findall(r"^```[a-z]*\n(.*?)^```", readme, re.S | re.M):
        for line in block.replace("\\\n", " ").splitlines():
            line = line.removeprefix("$ ").strip()
            if line.startswith("definetti "):
                lines.append(line)
    assert [line.split()[1] for line in lines] == ["verify"] * 3 + ["sweep", "check-props"]
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert cli.main(shlex.split(line)[1:]) == 0, line
    # the sweep's report is sorted by (n, k, r), as README says, and its JSON mirror holds its rows
    csv_text = (tmp_path / "sweep.csv").read_text()
    rows = list(csv.DictReader(csv_text.splitlines()))
    keys = [(int(row["n"]), int(row["k"]), int(row["r"])) for row in rows]
    assert len(keys) == 5 and keys == sorted(keys)
    assert cli.rows_to_csv_text(json.loads((tmp_path / "sweep.json").read_text())) == csv_text


def test_readme_flags_table_lists_cli_flags():
    # README's Flags table names exactly the flags of cli.FLAGS, the one list the parser reads
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n### Flags\n", 1)[1].split("\n#", 1)[0]
    assert re.findall(r"^\| `--([a-z]+)` \|", section, re.M) == list(cli.FLAGS)


# names that only the tests use; they live in tests/oracles.py or were deleted as duplicates.
# cli and certifier also no longer import the dense Operator, and cli no longer numpy
MOVED = {
    "certifier": (
        "rho_psi", "tau_psi", "approximant", "nu_weight_normalization",
        "check_operator_inequality", "_node_pass", "_node_row", "_spread", "binary_divergence",
        "check_gentle", "tail_function_grid", "_validate_tail_args", "_GRID_POINTS",
        "Operator", "PSD_ATOL", "check_exponent_sandwich", "check_chernoff_claim",
        "_binary_divergences", "_report",
    ),
    "cli": ("_gentle_suite", "check_gentle", "Operator", "np", "ReportRow"),
    "haar": ("pure_power_moment", "haar_state"),
    "linalg": ("tensor", "min_eigenvalue", "kron_power"),
    "symmetric": ("dicke_isometry", "permutation_operator", "_site_strings", "DickeIsometry",
                  "_dicke_coefficients"),
    "hamming": ("hamming_distance", "tail_function", "DISTANCE_TOL", "_TRACE_ATOL",
                "tail_function_grid", "WeightProjectorFamily"),
}


def test_test_only_names_left_the_package():
    for module, names in MOVED.items():
        loaded = importlib.import_module(f"definetti.{module}")
        for name in names:
            assert not hasattr(loaded, name), f"definetti.{module}.{name}"
    assert not hasattr(hamming, "WeightProjectorFamily")
    # Dicke coefficients are the one state format: the dense conversions are test oracles
    for name in ("from_dense", "pure"):
        assert not hasattr(SymmetricState, name), f"SymmetricState.{name}"


def test_every_traced_name_resolves(monkeypatch):
    # a traced bench run reports a null per-layer metric for a listed name it cannot find
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read bench/, write nothing there
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED_NAMES
    for name in tracer.TRACED_NAMES:
        assert tracer.find(name) is not None, name


def identity_cases():
    """(record, copy, whether they are equal): the four array-holding types compare by identity."""
    rho = definetti.ghz_state(2, 2)
    dense = dense_pure(rho)
    rule = definetti.exact_qubit_rule(2)
    inst = definetti.Instance(d=2, n=1, k=1, rho=rho)
    return {
        "PureState": (dense, dataclasses.replace(dense), False),
        "Operator": (dense.projector(), dataclasses.replace(dense.projector()), False),
        "SymmetricState": (rho, dataclasses.replace(rho), False),
        "QuadratureRule": (rule, dataclasses.replace(rule), False),
        "Instance-same-rho": (inst, dataclasses.replace(inst), True),
        "Instance-copied-rho": (inst, dataclasses.replace(inst, rho=dataclasses.replace(rho)), False),
    }


@pytest.mark.parametrize("case", list(identity_cases()))
def test_records_compare_and_hash_by_identity(case):
    # a field-wise == over arrays raises, and arrays do not hash, so these types keep object's
    # identity == and hash; Instance compares fields, its rho by identity
    record, copy, equal = identity_cases()[case]
    assert record == record
    assert (record == copy) is equal and (record != copy) is not equal
    assert {record: 1}[record] == 1
    if equal:
        assert hash(record) == hash(copy)
