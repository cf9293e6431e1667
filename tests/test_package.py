import re
from pathlib import Path

import definetti

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
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(blocks[0], namespace)
    assert namespace["report"].status == definetti.PASS
