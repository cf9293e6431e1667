"""Desk-scale construction and certification of exponential de Finetti bounds.

The package root exports the documented library API. Dense reference
oracles and the certifier's views (`symmetrizer`, `weight_family`,
`approximant`, ...) are imported from their submodules.
"""

from definetti.certifier import (
    INCONCLUSIVE,
    PASS,
    VIOLATION,
    Instance,
    InstanceError,
    VerificationReport,
    explicit_bound,
    verify,
)
from definetti.haar import QuadratureRule, exact_qubit_rule, monte_carlo_rule
from definetti.linalg import Operator, PureState
from definetti.symmetric import SymmetricState, dicke_state, ghz_state, random_symmetric_pure

__version__ = "0.1.0"

__all__ = [
    "INCONCLUSIVE",
    "Instance",
    "InstanceError",
    "Operator",
    "PASS",
    "PureState",
    "QuadratureRule",
    "SymmetricState",
    "VIOLATION",
    "VerificationReport",
    "dicke_state",
    "exact_qubit_rule",
    "explicit_bound",
    "ghz_state",
    "monte_carlo_rule",
    "random_symmetric_pure",
    "verify",
    "__version__",
]
