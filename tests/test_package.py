import importlib
import importlib.util
import re
import shlex
import sys
from pathlib import Path

import definetti
from definetti import cli, hamming

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
    "PureState",
    "Operator",
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
    "symmetric": ("dicke_isometry", "permutation_operator", "_site_strings", "DickeIsometry"),
    "hamming": ("hamming_distance", "tail_function", "DISTANCE_TOL", "_TRACE_ATOL",
                "tail_function_grid", "WeightProjectorFamily"),
}


def test_test_only_names_left_the_package():
    for module, names in MOVED.items():
        loaded = importlib.import_module(f"definetti.{module}")
        for name in names:
            assert not hasattr(loaded, name), f"definetti.{module}.{name}"
    assert not hasattr(hamming, "WeightProjectorFamily")


def test_every_traced_name_resolves(monkeypatch):
    # a traced bench run reports a null per-layer metric for a listed name it cannot find
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read bench/, write nothing there
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED_NAMES
    for name in tracer.TRACED_NAMES:
        assert tracer.find(name) is not None, name
