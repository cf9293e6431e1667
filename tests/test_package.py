import importlib
import importlib.util
import re
import sys
from pathlib import Path

import definetti
from definetti import hamming

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


# names that only the tests use; they live in tests/oracles.py or were deleted as duplicates
MOVED = {
    "certifier": (
        "rho_psi", "tau_psi", "approximant", "nu_weight_normalization",
        "check_operator_inequality", "_node_pass", "_node_row", "_spread", "binary_divergence",
    ),
    "haar": ("pure_power_moment", "haar_state"),
    "linalg": ("tensor", "min_eigenvalue"),
    "symmetric": ("dicke_isometry", "permutation_operator", "_site_strings", "DickeIsometry"),
    "hamming": ("hamming_distance", "tail_function", "DISTANCE_TOL", "_TRACE_ATOL",
                "tail_function_grid"),
}


def test_test_only_names_left_the_package():
    for module, names in MOVED.items():
        loaded = importlib.import_module(f"definetti.{module}")
        for name in names:
            assert not hasattr(loaded, name), f"definetti.{module}.{name}"
    assert not hasattr(hamming.WeightProjectorFamily, "weight_masses")


def test_every_traced_name_resolves(monkeypatch):
    # a traced bench run reports a null per-layer metric for a listed name it cannot find
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read bench/, write nothing there
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED_NAMES
    for name in tracer.TRACED_NAMES:
        assert tracer.find(name) is not None, name
