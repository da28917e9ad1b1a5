"""Exact ordinal arithmetic below epsilon_0.

Ordinals are kept in Cantor normal form and every operation is symbolic
and exact: classic addition, multiplication and exponentiation, the
finite Goodstein hyperoperations (rightward and leftward), a unified
transfinite operation sequence built by supremum sampling, and a small
explorer for ordinals closed under a given operation level.
"""
from .arithmetic import add, mul, pow_
from .budget import EvalBudget
from .errors import (
    BudgetExceeded,
    NoPatternError,
    NotRepresentable,
    OrdinalDomainError,
    ParseError,
    TransfiniteError,
)
from .hyper import hyper, left_hyper, no_left_identity_witness, right_identity
from .lub import LubInference, classify_lub, infer_lub
from .mains import (
    DEFAULT_LATTICE_SPEC,
    MainNumberReport,
    MainVerdict,
    candidate_lattice,
    enumerate_main_numbers,
    is_main_number,
)
from .notation import Expr, eval_expr, format_ordinal, parse
from .ordinal import (
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    compare,
    from_natural,
    fundamental_sequence,
    is_additive_principal,
    omega_power,
)
from .reference import reference_check, reference_eval
from .synthesis import DistributionCheck, distributes, naive_ext, synth

__version__ = "0.1.0"

__all__ = [
    "Ordinal", "ZERO", "ONE", "OMEGA",
    "compare", "from_natural", "omega_power", "is_additive_principal",
    "fundamental_sequence",
    "add", "mul", "pow_",
    "hyper", "left_hyper", "right_identity", "no_left_identity_witness",
    "synth", "naive_ext", "distributes", "DistributionCheck",
    "infer_lub", "classify_lub", "LubInference",
    "reference_eval", "reference_check",
    "is_main_number", "enumerate_main_numbers", "candidate_lattice",
    "MainVerdict", "MainNumberReport", "DEFAULT_LATTICE_SPEC",
    "parse", "eval_expr", "format_ordinal", "Expr",
    "EvalBudget",
    "TransfiniteError", "NotRepresentable", "BudgetExceeded",
    "NoPatternError", "OrdinalDomainError", "ParseError",
    "__version__",
]
