"""symfreq: exact and certified-numeric linear relations among the symmetric
frequencies of continued-fraction digits modulo m."""

__version__ = "0.1.0"

from .balls import PrecisionContext, RealBall
from .cyclotomic import cyclotomic_poly, verify_u_relation
from .frequencies import evaluate_form, h_value, s_value, u_value
from .linalg import LinearForm, rref
from .relations import (
    ModulusProfile,
    RelationBasis,
    UnsupportedModulus,
    hset,
    identity_u_basis,
    k_red,
    modulus_profile,
    phi_forward,
    phi_inverse,
    prime_power_u_basis,
    semiprime_u_basis,
    short_s_relation,
    two_p_u_basis,
    u_basis,
)
from .solver import (
    DiscoveryReport,
    ExpressionTable,
    discover_relations,
    express_dependents,
    scan_range,
)

__all__ = [
    "PrecisionContext",
    "RealBall",
    "cyclotomic_poly",
    "verify_u_relation",
    "evaluate_form",
    "h_value",
    "s_value",
    "u_value",
    "LinearForm",
    "rref",
    "ModulusProfile",
    "RelationBasis",
    "UnsupportedModulus",
    "hset",
    "identity_u_basis",
    "k_red",
    "modulus_profile",
    "phi_forward",
    "phi_inverse",
    "prime_power_u_basis",
    "semiprime_u_basis",
    "short_s_relation",
    "two_p_u_basis",
    "u_basis",
    "DiscoveryReport",
    "ExpressionTable",
    "discover_relations",
    "express_dependents",
    "scan_range",
]
