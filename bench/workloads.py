"""The benchmark's workloads: inputs from a seed, one op each, and oracles.

A run is a whole number of passes.  Every pass of a workload covers the same
strata of its input space (all moduli of the scan, every certified modulus
and coefficient-bound band, every value kind and modulus band), so runs with
different seeds do comparable work; the seed draws the values inside each
stratum and the order of the ops.  Oracles never call the function under
test and run outside every timed interval.
"""

from __future__ import annotations

import io
import json
import random

import mpmath

# ----------------------------------------------------------------------
# Independent number theory for the oracles


def _factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def expected_t(m: int) -> int:
    """Span dimension: (m-3)/2 for prime m, else phi(m)/2 - 1 + omega(m)."""
    fac = _factor(m)
    if fac == {m: 1}:
        return (m - 3) // 2
    phi = 1
    for p, e in fac.items():
        phi *= (p - 1) * p ** (e - 1)
    return phi // 2 - 1 + len(fac)


def _strata(rng: random.Random, count: int, passes: int) -> list[list[float]]:
    """`count * passes` stratified uniforms in [0, 1), dealt round-robin.

    Pass p receives the strata p, p + passes, ..., so each pass spans the
    whole interval and the run as a whole samples it evenly.
    """
    total = count * passes
    draws = [(s + rng.random()) / total for s in range(total)]
    return [draws[p::passes] for p in range(passes)]


# ----------------------------------------------------------------------
# scan: the paper's dimension experiment, one modulus per op


class Scan:
    """One op is solver.scan_range(m, m); each pass visits every m in 4..62."""

    name = "scan"
    entry = ("solver", "scan_range")
    pass_seconds = 6.5
    moduli = range(4, 63)
    # the trailing values S_{m'-t}..S_{m'-1} are not a basis exactly here
    trailing_failures = frozenset({42, 45, 50})

    def __init__(self, modules):
        self.solver = modules["solver"]
        self.cyclotomic = modules["cyclotomic"]

    def make_passes(self, rng: random.Random, passes: int) -> list[list[int]]:
        out = []
        for _ in range(passes):
            order = list(self.moduli)
            rng.shuffle(order)
            out.append(order)
        return out

    def warm_up(self):
        for m in self.moduli:
            self.cyclotomic.cyclotomic_poly(2 * m)
        self.solver.scan_range(12, 12)

    def call(self, fn, m):
        return fn(m, m)

    def check(self, m, rows) -> bool:
        if len(rows) != 1:
            return False
        row = rows[0]
        return (
            row.m == m
            and row.t == expected_t(m)
            and row.trailing_basis_ok == (m not in self.trailing_failures)
        )


# ----------------------------------------------------------------------
# certify: exact certificates of true and perturbed relations


class Certify:
    """One op is cyclotomic.verify_u_relation on a seeded claim at m <= 100.

    A true claim is an integer combination of the constructed basis with
    coefficients bounded by B, log-uniform in 1..64; a false claim is another
    true claim with one coefficient moved by +-1.  Each pass holds, for every
    covered modulus with a nonempty basis, `bands` true and `bands` false
    claims with B stratified over the log range.
    """

    name = "certify"
    entry = ("cyclotomic", "verify_u_relation")
    pass_seconds = 8.0
    bands = 6
    max_bound = 64

    def __init__(self, modules):
        self.cyclotomic = modules["cyclotomic"]
        self.linalg = modules["linalg"]
        relations = modules["relations"]
        self.bases = {}
        for m in range(4, 101):
            try:
                forms = relations.u_basis(m).forms
            except relations.UnsupportedModulus:
                continue
            if forms:
                # constructed bases have integer coefficients
                self.bases[m] = [[int(c) for c in f.coeffs] for f in forms]

    def _claim(self, rng, m, u, truth):
        rows = self.bases[m]
        bound = round(self.max_bound**u)
        coeffs = [0] * len(rows)
        while not any(coeffs):
            coeffs = [rng.randint(-bound, bound) for _ in rows]
        vec = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(len(rows[0]))]
        if not truth:
            vec[rng.randrange(len(vec))] += rng.choice((-1, 1))
        return m, self.linalg.LinearForm("U", m, tuple(vec)), truth

    def make_passes(self, rng: random.Random, passes: int):
        out = [[] for _ in range(passes)]
        for m in self.bases:
            for truth in (True, False):
                for p, us in enumerate(_strata(rng, self.bands, passes)):
                    out[p].extend(self._claim(rng, m, u, truth) for u in us)
        for ops in out:
            rng.shuffle(ops)
        return out

    def warm_up(self):
        for m in self.bases:
            self.cyclotomic.cyclotomic_poly(2 * m)
        self.cyclotomic.verify_u_relation(27, self.linalg.LinearForm("U", 27, tuple(self.bases[27][0])))

    def call(self, fn, claim):
        m, form, _ = claim
        return fn(m, form)

    def check(self, claim, verdict) -> bool:
        return verdict is claim[2]


# ----------------------------------------------------------------------
# evaluate: single certified values through the command line


class Evaluate:
    """One op is `symfreq freq` for one H, S or U value at 1024 bits, in-process.

    Each pass holds, for each kind, one value per band of moduli in 4..200;
    the index is uniform over the kind's range.  The oracle asks the printed
    ball to contain a 2048-bit mpmath value.  At the commit that introduced
    this benchmark every op fails it: cli.ball_to_json prints the midpoint
    to about `bits` decimal-equivalent digits, but its radius (near
    2^-(bits+40)) does not cover that decimal rounding.  The workload is
    therefore not listed in BENCHMARK.json until the rendering is fixed.
    """

    name = "evaluate"
    entry = ("cli", "main")
    pass_seconds = 1.3
    kinds = ("H", "S", "U")
    bands = 4
    m_lo, m_hi = 4, 200
    prec = 1024
    ref_prec = 2048

    def __init__(self, modules):
        self.cli = modules["cli"]

    @staticmethod
    def index_range(kind: str, m: int) -> tuple[int, int]:
        return {"H": (1, m), "S": (1, m // 2 - 1), "U": (1, m // 2)}[kind]

    def make_passes(self, rng: random.Random, passes: int):
        out = [[] for _ in range(passes)]
        span = self.m_hi - self.m_lo + 1
        for kind in self.kinds:
            for p, us in enumerate(_strata(rng, self.bands, passes)):
                for u in us:
                    m = self.m_lo + int(u * span)
                    out[p].append((kind, m, rng.randint(*self.index_range(kind, m))))
        for ops in out:
            rng.shuffle(ops)
        return out

    def _argv(self, kind, m, i):
        return ["freq", "--m", str(m), "--kind", kind, "--index", str(i), "--prec", str(self.prec)]

    def warm_up(self):
        for kind in self.kinds:
            self.cli.main(self._argv(kind, 7, 2), stream=io.StringIO())

    def call(self, fn, item):
        buf = io.StringIO()
        code = fn(self._argv(*item), stream=buf)
        return code, buf.getvalue()

    def reference(self, kind, m, i):
        with mpmath.workprec(self.ref_prec):
            pi = mpmath.pi
            if kind == "H":
                lg = mpmath.loggamma
                v = lg(mpmath.mpf(i) / m) + lg(mpmath.mpf(i + 2) / m) - 2 * lg(mpmath.mpf(i + 1) / m)
            elif kind == "S":
                half = m // 2

                def s(k):
                    return mpmath.sin(pi * k / m)

                if i == half - 1:
                    v = mpmath.log(s(half) / s(half - 1))
                else:
                    v = mpmath.log(s(i + 1) ** 2 / (s(i) * s(i + 2)))
            else:
                v = mpmath.log(mpmath.sin(pi * i / m) / mpmath.sin(pi / m))
            return v / mpmath.log(2)

    def check(self, item, output) -> bool:
        code, text = output
        if code != 0:
            return False
        values = json.loads(text)["payload"]["values"]
        if len(values) != 1 or values[0]["index"] != item[2] or values[0]["kind"] != item[0]:
            return False
        ball = values[0]["value"]
        with mpmath.workprec(self.ref_prec):
            mid = mpmath.mpf(ball["mid"])
            rad = mpmath.mpf(ball["rad"])
            return ball["bits"] == self.prec and abs(self.reference(*item) - mid) <= rad


WORKLOADS = {cls.name: cls for cls in (Scan, Certify, Evaluate)}


def pass_count(workload, seconds: float) -> int:
    """Whole passes that fit in `seconds` at the seed commit's speed (at least one).

    `pass_seconds` is one pass's wall time measured at that commit on a
    2-core x86 host.  The count depends only on `seconds`, so every run of a
    workload does the same amount of work and picks the same tail percentile.
    """
    return max(1, int(seconds // workload.pass_seconds))


def exponent_mass(cyclotomic, form) -> int:
    _, exps = cyclotomic.scaled_exponents(form)
    return sum(abs(e) for e in exps.values())

