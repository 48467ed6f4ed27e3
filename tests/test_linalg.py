import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from form_ops import form_add, form_scale
from fraction_rref import fraction_rref
from rref_rows import integer_matrix, rational_rref, stack_forms
from symfreq import linalg
from symfreq.linalg import (
    LinearForm,
    S_SPACE,
    U_SPACE,
    form_from_json,
    form_to_json,
    rat_to_str,
    ratio_from_str,
    rref,
)

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def rat_from_str(s: str) -> F:
    """The rational of a wire string, as `ratio_from_str` reads it."""
    return F(*ratio_from_str(s))


def test_rational_wire_format():
    assert rat_to_str(F(3)) == "3"
    assert rat_to_str(F(-1, 2)) == "-1/2"
    assert rat_from_str("7/3") == F(7, 3)
    assert rat_from_str("-4") == F(-4)


WIRE_STRINGS = [
    # the fast forms: sign and ASCII digits, with or without a denominator
    "0", "7", "+7", "-7", "007", "-0", "6/4", "-6/4", "+6/4", "0/5", "10/1", "123456789012345678901234567890/7",
    # left to Fraction, accepted
    " 3/4 ", "\t-2\n", "1_000", "1_0/2_0", "1.5", "-.5", "1e3", "2E-2", "\u0663", "\u0663/\u0664",
    # left to Fraction, refused
    "", " ", "+", "-", "/", "3/", "/4", "3/ 4", "3 /4", "3/-4", "3/+4", "--3", "+-3", "1/2/3", "1__0", "_1",
    "1_", "abc", "\u00b2", "0x10", "inf", "nan", "1/0", "-5/0", "0/0", "1/00",
]


@pytest.mark.parametrize("s", WIRE_STRINGS)
def test_rat_from_str_is_fraction_of_the_stripped_string(s):
    try:
        expected = F(s.strip())
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)):
            rat_from_str(s)
    else:
        got = rat_from_str(s)
        assert type(got) is F and got == expected


class TestLinearForm:
    def test_lengths_and_ranges(self):
        f = LinearForm(S_SPACE, 8, (F(1), F(0), F(2)))
        assert f.first_index == 1
        u = LinearForm(U_SPACE, 8, (F(1), F(0), F(2)))
        assert u.first_index == 2
        with pytest.raises(ValueError):
            LinearForm(S_SPACE, 8, (F(1),))
        with pytest.raises(ValueError):
            LinearForm("T", 8, (F(1), F(0), F(2)))
        with pytest.raises(ValueError):
            LinearForm(S_SPACE, 3, ())

    def test_from_map_drops_u_index_one(self):
        u = LinearForm.from_map(U_SPACE, 10, {1: F(5), 2: F(1)})
        assert u.items() == [(2, F(1))]

    def test_from_map_range_errors(self):
        with pytest.raises(ValueError):
            LinearForm.from_map(S_SPACE, 10, {0: F(1)})
        with pytest.raises(ValueError):
            LinearForm.from_map(U_SPACE, 10, {6: F(1)})

    def test_accumulates_duplicates(self):
        u = LinearForm.from_map(U_SPACE, 10, {2: F(1)})
        v = LinearForm.from_map(U_SPACE, 10, {2: F(2), 3: F(1)})
        assert form_add(u, v).items() == [(2, F(3)), (3, F(1))]

    def test_from_map_sums_integer_numerators(self, monkeypatch):
        # ints, Fractions, numpy integers and duplicate indices are summed as
        # integer numerators over one denominator, with no Fraction addition
        def refuse(*args):
            raise AssertionError("Fraction addition in from_map")

        monkeypatch.setattr(F, "__add__", refuse)
        monkeypatch.setattr(F, "__radd__", refuse)
        coeffs = {"2": F(1, 6), 2: F(1, 3), 3: np.int64(2), 4: F(-3, 4), 1: F(5), 5: 0}
        u = LinearForm.from_map(U_SPACE, 12, coeffs)
        assert (u.den, u.nums) == (4, (2, 8, -3, 0, 0))
        obj = {"m": 12, "space": "U", "coeffs": {"2": "1/2", "3": "2", "4": "-3/4", "6": "0"}}
        assert form_from_json(obj) == u


@given(
    st.integers(min_value=4, max_value=24),
    st.sampled_from([S_SPACE, U_SPACE]),
    st.booleans(),
    st.integers(min_value=1, max_value=36),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_forms_store_integers_over_one_denominator(m, space, integral, k, data):
    # the same coefficients given as ints, Fractions, a mix, a map, integer
    # numerators over a denominator or numpy integers build one form, which
    # holds Python ints; (den, nums) is the lcm-of-denominators scaling,
    # written out here
    n = m // 2 - 1
    values = st.integers(-50, 50).map(F) if integral else rationals
    vals = data.draw(st.lists(values, min_size=n, max_size=n))
    dens = [c.denominator for c in vals]
    scale = math.lcm(*dens)
    expect = (scale, tuple(c.numerator * (scale // d) for c, d in zip(vals, dens)))
    first = 1 if space == S_SPACE else 2
    forms = [
        LinearForm(space, m, tuple(vals)),
        LinearForm(space, m, [c.numerator if c.denominator == 1 else c for c in vals]),
        LinearForm.from_map(space, m, {first + i: c for i, c in enumerate(vals) if c}),
        LinearForm(space, m, [k * x for x in expect[1]], k * expect[0]),
    ]
    if integral:
        forms.append(LinearForm(space, m, tuple(int(c) for c in vals)))
        forms.append(LinearForm(space, m, np.array([int(c) for c in vals], dtype=np.int64)))
    for form in forms:
        assert form == forms[0] and hash(form) == hash(forms[0])
        assert (form.den, form.nums) == expect
        assert all(type(x) is int for x in form.nums)
        assert math.gcd(form.den, *form.nums) == 1
        assert form.coeffs == tuple(vals) and all(type(c) is F for c in form.coeffs)
        with pytest.raises(AttributeError):
            form.den = 2
        with pytest.raises(AttributeError):
            form.coeffs = ()
    if any(vals):
        assert forms[0] != LinearForm(space, m, [2 * c for c in vals])


class TestFormOps:
    def test_add_zero(self):
        a = LinearForm.from_map(S_SPACE, 12, {1: F(1), 2: F(1)})
        assert form_add(a, form_scale(a, F(0))) == a

    def test_scale_by_zero(self):
        a = LinearForm.from_map(S_SPACE, 12, {3: F(7, 2)})
        assert form_scale(a, F(0)).is_zero()

    def test_example_sum(self):
        a = LinearForm.from_map(S_SPACE, 12, {1: F(1), 2: F(1)})
        b = LinearForm.from_map(S_SPACE, 12, {2: F(1), 3: F(-1)})
        assert form_add(a, b).items() == [(1, F(1)), (2, F(2)), (3, F(-1))]

    def test_mismatch_errors(self):
        a = LinearForm.from_map(S_SPACE, 12, {1: F(1)})
        b = LinearForm.from_map(U_SPACE, 12, {2: F(1)})
        c = LinearForm.from_map(S_SPACE, 14, {1: F(1)})
        with pytest.raises(ValueError):
            form_add(a, b)
        with pytest.raises(ValueError):
            form_add(a, c)


def test_form_json_round_trip():
    a = LinearForm.from_map(U_SPACE, 27, {2: F(1), 6: F(-1, 3), 11: F(4)})
    obj = form_to_json(a, provenance="constructed")
    assert obj["coeffs"]["6"] == "-1/3"
    assert obj["provenance"] == "constructed"
    assert form_from_json(obj) == a


def test_form_json_malformed():
    with pytest.raises(ValueError):
        form_from_json({"m": 27, "space": "U"})
    with pytest.raises(ValueError):
        form_from_json({"m": 27, "space": "U", "coeffs": {"2": "zz"}})
    # "2" and "02" name one index: refused, not summed or overwritten
    for coeffs in ({"2": "1", "02": "1"}, {"3": "1", " 3": "-1"}, {"1": "1", "01": "2"}):
        with pytest.raises(ValueError, match="twice"):
            form_from_json({"m": 27, "space": "U", "coeffs": coeffs})


class TestRref:
    def test_identity(self):
        r = rational_rref([[1, 0], [0, 1]])
        assert r.rows == ((1, 0), (0, 1)) and r.pivots == (0, 1) and r.rank == 2

    def test_proportional_rows(self):
        r = rational_rref([[1, 2], [2, 4]])
        assert r.rank == 1
        assert r.rows == ((F(1), F(2)), (F(0), F(0)))

    def test_full_rank_3x3(self):
        # determinant of the circulant [[1,1,0],[0,1,1],[1,0,1]] is 2, so the
        # reduced form is the identity
        r = rational_rref([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        assert r.rank == 3 and r.pivots == (0, 1, 2)
        assert r.rows == (
            (F(1), F(0), F(0)),
            (F(0), F(1), F(0)),
            (F(0), F(0), F(1)),
        )

    def test_empty(self):
        r = rational_rref([])
        assert r.rank == 0 and r.pivots == ()
        for shape in ((0, 0), (0, 3), (2, 0)):
            r = rref(np.zeros(shape, dtype=np.int64))
            assert (r.rank, r.pivots, r.nums, r.dens) == (0, (), [], []), shape

    @pytest.mark.parametrize(
        "mat",
        [
            [[F(1, 2), F(1)], [F(3), F(4)]],  # a row list, even of Fractions
            np.array([[1.0, 2.0], [3.0, 4.0]]),
            np.array([1, 2, 3], dtype=np.int64),
            np.array([[1, 2], [3, 4]], dtype=np.int32),
            np.array([[1, F(1, 2)]], dtype=object),
            np.array([[1, np.int64(2)]], dtype=object),
            np.array([[True, False]]),
        ],
    )
    def test_takes_only_a_2d_integer_matrix(self, mat):
        with pytest.raises(ValueError):
            rref(mat)

    def test_int64_and_python_ints_agree(self):
        rows = [[2, 4, 6], [1, 3, 7], [3, 7, 13]]
        a, b = rref(np.array(rows, dtype=np.int64)), rref(np.array(rows, dtype=object))
        assert a == b and a.pivots == (0, 1) and a.nums == [[1, 0, -5], [0, 1, 4]] and a.dens == [1, 1]

    @given(
        st.lists(
            st.lists(rationals, min_size=3, max_size=3),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, rows):
        first = rational_rref(rows)
        again = rational_rref(first.rows)
        assert again.rows == first.rows
        assert again.pivots == first.pivots

    @given(
        st.lists(
            st.lists(rationals, min_size=4, max_size=4),
            min_size=2,
            max_size=4,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_rank_of_transpose(self, rows):
        assert rational_rref(rows).rank == rational_rref(list(zip(*rows))).rank

    @given(
        st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=3, max_size=3),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=40, deadline=None)
    def test_row_operation_invariance(self, rows, seed):
        # invertible row operations never change the reduced form
        rng = random.Random(seed)
        ops = [list(r) for r in rows]
        for _ in range(6):
            i, j = rng.randrange(3), rng.randrange(3)
            kind = rng.randrange(3)
            if kind == 0:
                ops[i], ops[j] = ops[j], ops[i]
            elif kind == 1:
                c = F(rng.randint(1, 5))
                ops[i] = [c * x for x in ops[i]]
            elif i != j:
                c = F(rng.randint(-4, 4))
                ops[i] = [x + c * y for x, y in zip(ops[i], ops[j])]
        assert rational_rref(ops).rows == rational_rref(rows).rows


def test_stack_forms():
    a = LinearForm.from_map(U_SPACE, 12, {2: F(1)})
    b = LinearForm.from_map(U_SPACE, 12, {3: F(2)})
    m = stack_forms([a, b])
    assert len(m) == 2 and len(m[0]) == 5
    with pytest.raises(ValueError):
        stack_forms([a, LinearForm.from_map(U_SPACE, 14, {2: F(1)})])


entries = st.one_of(
    st.integers(-6, 6),
    rationals,
    st.integers(-(10**25), 10**25),
    st.fractions(min_value=-(10**12), max_value=10**12, max_denominator=10**9),
    st.sampled_from((-(2**63), 2**63 - 1, 2**63)),  # the edges of int64
)


@st.composite
def matrices(draw):
    """Integer or rational rows, some with dependent and zero rows, possibly none."""
    ncols = draw(st.integers(1, 6))
    row = st.lists(entries, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, max_size=5))
    if rows and draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
        rows.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(ncols)])
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * ncols)
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order]


def spy_primes(monkeypatch):
    """Record (prime, pivots) for every modular elimination rref runs."""
    seen = []
    real = linalg._echelon_mod

    def spy(a, p):
        out = real(a, p)
        seen.append((p, out[0]))
        return out

    monkeypatch.setattr(linalg, "_echelon_mod", spy)
    return seen


class TestModularRref:
    @given(matrices())
    @settings(max_examples=150, deadline=None)
    def test_matches_fraction_oracle(self, rows):
        r = rational_rref(rows)
        oracle_rows, oracle_pivots = fraction_rref(rows)
        assert r.rows == oracle_rows and r.pivots == oracle_pivots
        assert r.rank == len(oracle_pivots)
        assert all(type(x) is F for row in r.rows for x in row)

    def test_bad_first_prime(self, monkeypatch):
        # rows 2 - 1 is (0, p, 2): over Q the pivots are (0, 1), but modulo
        # the first prime p the pivot minor 1 * p vanishes and they are (0, 2)
        p = next(linalg._primes())
        rows = [[1, 2, 3], [1, 2 + p, 5]]
        seen = spy_primes(monkeypatch)
        r = rational_rref(rows)
        assert (r.rows, r.pivots) == fraction_rref(rows)
        assert r.rows[0][2] == 3 - F(4, p)
        assert seen[0] == (p, (0, 2)) and seen[1][1] == (0, 1)

    def test_crt_over_two_primes(self, monkeypatch):
        # 100003/7 lies outside one prime's reconstruction range (|a|, b <= 2^15)
        rows = [[7, 100003, 1], [2, 5, 9]]
        seen = spy_primes(monkeypatch)
        r = rational_rref(rows)
        assert (r.rows, r.pivots) == fraction_rref(rows)
        assert max(abs(x.numerator) for row in r.rows for x in row) > 2**16
        assert len(seen) >= 2 and len({piv for _, piv in seen}) == 1

    def test_failed_check_is_never_returned(self, monkeypatch):
        calls = []

        def refuse(*args):
            calls.append(args)
            return False

        monkeypatch.setattr(linalg, "_verified", refuse)
        with pytest.raises(ArithmeticError):
            rational_rref([[1, 2], [3, 4]])
        assert len(calls) >= 2  # more primes were tried before giving up

    def test_reduction_out_of_shape_is_never_returned(self, monkeypatch):
        # a pivot-column entry left in row 0 leaves every free column, and so
        # the containment check there, intact; the shape check must refuse it
        real = linalg._echelon_mod

        def corrupt(a, p):
            pivots, reduced = real(a, p)
            reduced[0, pivots[1]] = 5
            return pivots, reduced

        monkeypatch.setattr(linalg, "_echelon_mod", corrupt)
        with pytest.raises(ArithmeticError):
            rational_rref([[1, 0, 1], [0, 1, 1]])

    def test_containment_refused_in_floats_and_in_packed_ints(self):
        # an echelon form off by one in a free column is refused, whether the
        # containment check runs in float64, exact below 2^53, or in packed
        # Python ints; at u = 2^55 + 1 float64 rounds 3u + 5 and 3u + 6 to
        # the same value, so only the packed check sees the difference
        for u in (7, 2**55 + 1, 2**70):
            rows = [[1, 0, 3], [u, 1, 3 * u + 5]]
            mat = np.array(rows, dtype=np.int64 if u < 2**60 else object)
            nums, dens = np.array([[1, 0, 3], [0, 1, 5]], dtype=object), np.array([1, 1], dtype=object)
            assert linalg._verified(rows, mat, (0, 1), nums, dens)
            nums[1, 2] += 1
            assert not linalg._verified(rows, mat, (0, 1), nums, dens), u

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ValueError):
            rational_rref([[1, 2], [3]])


class TestCertifyNonsingular:
    @given(st.integers(1, 12), st.sampled_from([1, 3, 1000, 2**20, 2**40]), st.integers(0, 2**32))
    @settings(max_examples=300, deadline=None)
    def test_never_certifies_a_singular_matrix(self, n, bound, seed):
        # one row an integer combination of the others; the other rows random
        rng = random.Random(seed)
        rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n - 1)]
        weights = [rng.randint(-3, 3) for _ in rows]
        rows.insert(rng.randrange(n), [sum(w * r[j] for w, r in zip(weights, rows)) for j in range(n)])
        assert not linalg.certify_nonsingular(np.array(rows, dtype=np.int64))

    @given(st.integers(1, 12), st.sampled_from([1, 3, 1000, 2**20]), st.integers(0, 2**32))
    @settings(max_examples=200, deadline=None)
    def test_certified_only_at_full_rank(self, n, bound, seed):
        rng = random.Random(seed)
        b = np.array([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)], dtype=np.int64)
        if linalg.certify_nonsingular(b):
            assert rref(b).rank == n

    def test_certifies_identity_permutation_and_diagonal(self):
        rng = random.Random(11)
        for n in (1, 2, 5, 40, 200):
            eye = np.eye(n, dtype=np.int64)
            assert linalg.certify_nonsingular(eye)
            assert linalg.certify_nonsingular(eye[rng.sample(range(n), n)])
            diag = [rng.choice((-1, 1)) * rng.randint(1, 10**6) for _ in range(n)]
            assert linalg.certify_nonsingular(np.diag(diag))

    @pytest.mark.parametrize("big", [2**51 + 1, 2**52 - 3, 2**53 + 1, 2**62])
    def test_falls_back_near_the_exactness_bound(self, big):
        # nonsingular, but with n max|b| > 2^52 no exact float64 product
        # R b is left, so the answer is left open
        assert not linalg.certify_nonsingular(np.diag([3, big]))
        assert not linalg.certify_nonsingular(np.array([[big, big - 1], [big + 1, big]]))
