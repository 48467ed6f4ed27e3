"""The paper's closed-form basis sizes, checked against the constructed bases."""

from symfreq.relations import (
    CASE_ODD_SEMIPRIME,
    CASE_PRIME,
    CASE_PRIME_POWER,
    CASE_TWO_TIMES_PRIME,
    modulus_profile,
)


def closed_form_count(m: int) -> int | None:
    """Size of the constructed basis by the closed-form counting formulas."""
    prof = modulus_profile(m)
    if prof.case == CASE_PRIME:
        return 0
    if prof.case == CASE_PRIME_POWER:
        p, n = prof.factorization[0]
        return 2 ** (n - 2) - 1 if p == 2 else (p ** (n - 1) - 3) // 2
    if prof.case == CASE_ODD_SEMIPRIME:
        p, q = prof.factorization[0][0], prof.factorization[1][0]
        return (p + q) // 2 - 3
    if prof.case == CASE_TWO_TIMES_PRIME:
        return (prof.factorization[1][0] - 3) // 2
    return None
