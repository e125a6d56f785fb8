import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opident.ring import (
    NEG_INFINITY,
    DimensionError,
    InverseSeries,
    RingMatrix,
    UniPoly,
    binomial,
    det_berkowitz,
    det_cofactor,
    det_generic,
    det_int,
    det_poly,
    det_rational,
    format_rational,
    parse_rational,
    vandermonde_product,
)
from opident import ring
from opident.ring import _det_subset_expansion, _pack, _unpack

from conftest import bruteforce_det, random_fraction_rows

F = Fraction

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=20
)


# ---------------------------------------------------------------------------
# Rational scalars
# ---------------------------------------------------------------------------

@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6).filter(bool))
def test_rational_normalization(p, q):
    import math

    r = F(p, q)
    assert r.denominator > 0
    assert math.gcd(abs(r.numerator), r.denominator) == 1


def test_rational_round_trip():
    assert parse_rational("3/7") == F(3, 7)
    assert parse_rational("-4") == F(-4)
    assert format_rational(F(6, -4)) == "-3/2"
    assert format_rational(F(5)) == "5"


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------

def test_poly_eval_examples():
    p = UniPoly.from_coeffs([-1, 0, 1])  # x^2 - 1, monic Chebyshev-U_2
    assert p.eval(F(1)) == 0
    assert p.eval(F(2)) == 3  # classical U_2(1) = 3
    assert UniPoly.zero().eval(F(7, 3)) == 0


def test_poly_degree_and_zero():
    assert UniPoly.zero().degree == NEG_INFINITY
    assert UniPoly.from_coeffs([0, 0, 5]).degree == 2
    assert UniPoly((F(1), F(0), F(0))).coeffs == (F(1),)


def test_poly_derivative_examples():
    x3 = UniPoly.from_coeffs([0, 0, 0, 1])
    assert x3.derivative() == UniPoly.from_coeffs([0, 0, 3])
    assert x3.derivative(4).is_zero
    u3 = UniPoly.from_coeffs([0, -2, 0, 1])  # x^3 - 2x, monic U_3
    assert u3.derivative(2) == UniPoly.from_coeffs([0, 6])


def test_poly_arith_and_exact_div():
    x = UniPoly.variable()
    p = (x - 1) * (x + 2) * (x - F(1, 3))
    assert p.exact_div(x - 1) == (x + 2) * (x - F(1, 3))
    with pytest.raises(ValueError):
        (p + 1).exact_div(x - 1)
    assert (x * x - 1).eval(UniPoly.variable("z")) == UniPoly.from_coeffs([-1, 0, 1], "z")


_poly_strategy = st.lists(rationals, max_size=5).map(UniPoly.from_coeffs)


@settings(max_examples=60, deadline=None)
@given(_poly_strategy, _poly_strategy, _poly_strategy)
def test_poly_ring_laws(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p * q == q * p
    assert p + q == q + p
    assert p - p == UniPoly.zero()


@settings(max_examples=60, deadline=None)
@given(_poly_strategy, _poly_strategy, rationals)
def test_poly_eval_is_ring_homomorphism(p, q, v):
    assert (p * q).eval(v) == p.eval(v) * q.eval(v)
    assert (p + q).eval(v) == p.eval(v) + q.eval(v)


@settings(max_examples=40, deadline=None)
@given(_poly_strategy, _poly_strategy)
def test_poly_exact_div_round_trip(p, q):
    if q.is_zero:
        return
    got = (p * q).exact_div(q)
    assert got == p
    # an integral coefficient is an int, never Fraction(c, 1)
    assert all(type(c) is int or c.denominator > 1 for c in got.coeffs)


def test_poly_exact_div_on_int_coefficients_is_exact():
    # an int quotient coefficient where the division is exact, a Fraction
    # otherwise, never a float
    q = UniPoly([2, 4]).exact_div(UniPoly([1, 2]))
    assert q == UniPoly([2]) and type(q.coeffs[0]) is int
    assert UniPoly([2, 4]).exact_div(2).coeffs == (1, 2)
    assert [type(c) for c in UniPoly([2, 4]).exact_div(2).coeffs] == [int, int]
    assert UniPoly([1, 2]).exact_div(-2).coeffs == (F(-1, 2), -1)
    # an integral coefficient after a Fraction has entered the remainder
    q = UniPoly([2, 5, 2]).exact_div(UniPoly([2, 4]))
    assert q.coeffs == (1, F(1, 2)) and type(q.coeffs[0]) is int
    rng = random.Random(23)
    for _ in range(200):
        p = UniPoly([rng.randint(-9, 9) for _ in range(rng.randint(0, 5))])
        d = UniPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 4))])
        if d.is_zero:
            continue
        got = (p * d).exact_div(d)
        assert got == p and all(type(c) is int for c in got.coeffs)
        got = (p * d).exact_div(d * 2)
        assert got == p * F(1, 2)
        assert all(type(c) is (int if c.denominator == 1 else F) for c in got.coeffs)


def _exact_leaves(value) -> bool:
    """Every scalar in value, a scalar or nested UniPoly, is an int when
    integral and a Fraction otherwise: never a float."""
    if isinstance(value, UniPoly):
        return all(_exact_leaves(c) for c in value.coeffs)
    return type(value) is (int if F(value).denominator == 1 else F)


def test_poly_scalar_mixing():
    x = UniPoly.variable()
    assert 2 * x + 1 == UniPoly.from_coeffs([1, 2])
    assert (x - x).is_zero
    # different variable tag acts as a scalar from the coefficient ring
    inner = UniPoly.variable("b")
    nested = UniPoly([inner, inner * inner], "a")
    assert nested.coeffs[1] == inner * inner


def test_poly_is_unhashable():
    # A constant polynomial equals its scalar (UniPoly.constant(3) == 3), so
    # no polynomial hash could agree with the scalar's: hashing must refuse.
    assert UniPoly.constant(Fraction(3)) == 3 and UniPoly.zero() == 0
    for p in (UniPoly.constant(Fraction(3)), UniPoly.zero(), UniPoly.variable()):
        with pytest.raises(TypeError):
            hash(p)


# ---------------------------------------------------------------------------
# Determinants
# ---------------------------------------------------------------------------

def test_det_empty_matrix_is_one():
    empty = RingMatrix(0, 0, ())
    assert det_rational(empty) == 1
    assert det_generic(empty) == 1
    assert det_berkowitz(empty) == 1
    assert det_cofactor(empty) == 1


def test_det_small_examples():
    ident = RingMatrix.from_rows([[F(1), F(0)], [F(0), F(1)]])
    assert det_rational(ident) == 1
    catalan2 = RingMatrix.from_rows([[F(1), F(1)], [F(1), F(2)]])
    assert det_rational(catalan2) == 1
    assert det_rational(RingMatrix.from_rows([[F(2)]])) == 2
    assert det_rational(RingMatrix.from_rows([[F(1), F(2)], [F(2), F(4)]])) == 0


def test_det_catalan_hankel():
    from opident.moments import catalan

    rows = [[F(catalan(i + j)) for j in range(4)] for i in range(4)]
    expected = bruteforce_det(rows)
    assert expected == 1
    mat = RingMatrix.from_rows(rows)
    assert det_rational(mat) == 1
    assert det_generic(mat) == 1


def test_det_non_square_raises():
    mat = RingMatrix(2, 3, tuple(F(i) for i in range(6)))
    for fn in (det_rational, det_generic, det_berkowitz, det_cofactor):
        with pytest.raises(DimensionError):
            fn(mat)


def test_det_algorithms_agree_random():
    rng = random.Random(12345)
    for _ in range(120):
        n = rng.randint(1, 6)
        rows = random_fraction_rows(rng, n)
        expected = bruteforce_det(rows)
        mat = RingMatrix.from_rows(rows)
        assert det_rational(mat) == expected
        assert det_generic(mat) == expected
        assert det_berkowitz(mat) == expected
        assert det_cofactor(mat) == expected


def test_det_singularish_matrices():
    rng = random.Random(99)
    # matrices engineered to need pivoting / hit zero pivots
    for _ in range(60):
        n = rng.randint(2, 5)
        rows = random_fraction_rows(rng, n, bound=2, denominators=(1,))
        rows[0][0] = F(0)
        if rng.random() < 0.5:
            rows[n - 1] = rows[0][:]  # repeated row
        expected = bruteforce_det(rows)
        mat = RingMatrix.from_rows(rows)
        assert det_rational(mat) == expected
        assert det_berkowitz(mat) == expected


def test_det_generic_over_polynomials():
    x = UniPoly.variable()
    one = UniPoly.one()
    mat = RingMatrix.from_rows([[x, one], [one, x]])
    assert det_generic(mat, one=one) == x * x - 1
    mat5 = RingMatrix.from_rows(
        [[x if i == j else UniPoly.constant(F(i - j)) for j in range(5)] for i in range(5)]
    )
    assert det_berkowitz(mat5, one=one) == det_cofactor(mat5, one=one)


def test_det_cofactor_and_berkowitz_series_bookkeeping():
    v = ("y1",)
    one = InverseSeries.one(v)
    # an all-zero scalar first row: det_cofactor's fallback is the exact zero
    # series of one's ring, as the subset expansion's is
    s = InverseSeries(v, {(1,): F(1, 2)}, 4)
    m = RingMatrix.from_rows([[0, F(0), 0], [s, 1, s], [1, s, F(2)]])
    got = det_cofactor(m, one)
    assert got.is_exact_zero
    assert _same_det(got, _det_subset_expansion(m, one))
    # Berkowitz books this 5x5 zero with trunc 3 where the cofactor oracle
    # has the exact zero: the two agree in value only.  det_generic, the
    # subset expansion at every size, matches the oracle in bookkeeping too.
    u = InverseSeries(v, {}, 3)
    w = InverseSeries(v, {(0,): F(-1)}, 1)
    rows = [[0] * 5 for _ in range(5)]
    rows[0][3], rows[3][0], rows[3][3] = u, w, 2
    m5 = RingMatrix.from_rows(rows)
    berkowitz = det_berkowitz(m5, one)
    cofactor = det_cofactor(m5, one)
    assert berkowitz == cofactor
    assert (berkowitz.trunc, cofactor.trunc) == (3, None)
    assert _same_det(det_generic(m5, one), cofactor)


def test_jacobi_condensation_on_random_matrices():
    # det A * det A(both removed) = det A(i1,j1) det A(i2,j2) - det A(i1,j2) det A(i2,j1)
    rng = random.Random(777)
    for _ in range(25):
        n = rng.randint(2, 6)
        rows = random_fraction_rows(rng, n)
        mat = RingMatrix.from_rows(rows)
        i1, i2 = sorted(rng.sample(range(n), 2))
        j1, j2 = sorted(rng.sample(range(n), 2))
        lhs = det_rational(mat) * det_rational(mat.delete((i1, i2), (j1, j2)))
        rhs = det_rational(mat.delete((i1,), (j1,))) * det_rational(
            mat.delete((i2,), (j2,))
        ) - det_rational(mat.delete((i1,), (j2,))) * det_rational(mat.delete((i2,), (j1,)))
        assert lhs == rhs


def test_vandermonde_product():
    assert vandermonde_product([]) == 1
    assert vandermonde_product([F(5)]) == 1
    assert vandermonde_product([F(1), F(3), F(4)]) == 6


def test_pack_unpack_round_trip():
    # 3 p has integer coefficients 1, -6, 0, 15; packed at x = 2^w with
    # w = bitlen(||3 p||_1) + 1 they come back as balanced digits
    p = UniPoly.from_coeffs([F(1, 3), -2, 0, 5])
    width = sum(abs(int(3 * c)) for c in p.coeffs).bit_length() + 1
    digits = _unpack(_pack(list(p.coeffs), [width], 3), width, 4)
    assert UniPoly([F(c, 3) for c in digits]) == p


def _mono_x(c, e=1):
    """c x^e"""
    return UniPoly([F(0)] * e + [F(c)], "x")


def test_det_poly_at_the_slot_width_edge():
    # Each determinant is one monomial whose coefficient equals the L1
    # bound prod_i sum_j ||a_ij||_1, the largest value a slot of width
    # w = bitlen(bound) + 1 must hold: 255 = 2^8 - 1 leaves B/2 = 256.
    for a, b in ((15, 17), (-15, 17), (7, 1), (-7, 1)):
        m = RingMatrix.from_rows([[_mono_x(a), F(0)], [F(0), F(b)]])
        assert det_poly(m, ["x"]) == _mono_x(a * b)
        m = RingMatrix.from_rows([[F(0), _mono_x(a, 2)], [_mono_x(b), F(0)]])
        assert det_poly(m, ["x"]) == _mono_x(-a * b, 3)
    # two variables: -35 alpha^2 beta and 15 alpha beta^2
    alpha2 = UniPoly([F(0), F(0), F(7)], "alpha")
    beta = UniPoly([UniPoly([F(0), F(-5)], "beta")], "alpha")
    expected = UniPoly([F(0), F(0), UniPoly([F(0), F(-35)], "beta")], "alpha")
    m = RingMatrix.from_rows([[alpha2, F(0)], [F(0), beta]])
    assert det_poly(m, ["alpha", "beta"]) == expected
    ab2 = UniPoly([F(0), UniPoly([F(0), F(0), F(3)], "beta")], "alpha")
    m = RingMatrix.from_rows([[F(0), ab2], [F(-5), F(0)]])
    expected = UniPoly([F(0), UniPoly([F(0), F(0), F(15)], "beta")], "alpha")
    assert det_poly(m, ["alpha", "beta"]) == expected


def test_det_poly_negative_inner_coefficients_borrow():
    # det [[1 - 2b + 3ab, a], [b/2, 1]] = 1 - 2b + 5/2 ab, packed after the
    # second row is scaled by 2 as 2 - 4b + 5ab: the digit -4 sits below a
    # zero and must borrow from the alpha slot above it.
    one_b = UniPoly.one("beta")
    a00 = UniPoly([UniPoly([F(1), F(-2)], "beta"), UniPoly([F(0), F(3)], "beta")], "alpha")
    a01 = UniPoly([F(0), one_b], "alpha")
    a10 = UniPoly([UniPoly([F(0), F(1, 2)], "beta")], "alpha")
    m = RingMatrix.from_rows([[a00, a01], [a10, F(1)]])
    oracle = RingMatrix.from_rows([[a00, a01], [a10, UniPoly([one_b], "alpha")]])
    expected = det_cofactor(oracle, one=UniPoly([one_b], "alpha"))
    assert expected == UniPoly(
        [UniPoly([F(1), F(-2)], "beta"), UniPoly([F(0), F(5, 2)], "beta")], "alpha"
    )
    assert det_poly(m, ["alpha", "beta"]) == expected
    # det [[a - b, 0], [0, -a - b]] = -a^2 + b^2: every coefficient negative or
    # below a negative neighbour
    def linear(ca, cb):
        return UniPoly([UniPoly([F(0), F(cb)], "beta"), UniPoly([F(ca)], "beta")], "alpha")

    m = RingMatrix.from_rows([[linear(1, -1), F(0)], [F(0), linear(-1, -1)]])
    expected = UniPoly([UniPoly([F(0), F(0), F(1)], "beta"), F(0), F(-1)], "alpha")
    assert det_poly(m, ["alpha", "beta"]) == expected


def test_det_poly_empty_and_constant_matrices():
    empty = RingMatrix(0, 0, [])
    assert det_poly(empty, []) == 1
    assert det_poly(empty, ["x"]) == UniPoly.one("x")
    assert det_poly(empty, ["alpha", "beta"]) == 1
    m = RingMatrix.from_rows([[F(1, 2), F(3)], [F(-1, 3), 4]])
    assert det_poly(m, []) == F(3)
    assert det_poly(m, ["x"]) == UniPoly.constant(F(3), "x")
    assert det_poly(m, ["alpha", "beta"]) == F(3)


def test_det_poly_makes_one_det_int_call(monkeypatch):
    # the packed cells are ints already: one Bareiss run on them, with no
    # det_rational rescan of the rows
    calls = []

    def counted(a):
        calls.append(a)
        return det_int(a)

    monkeypatch.setattr(ring, "det_int", counted)
    monkeypatch.setattr(ring, "det_rational", None)
    x = UniPoly.variable("x")
    for n in range(4):
        m = RingMatrix.hankel([x + i for i in range(2 * n)], n)
        calls.clear()
        det_poly(m, ["x"])
        assert len(calls) == 1
        calls.clear()
        det_poly(m, ["alpha", "x"])
        assert len(calls) == 1


def test_det_rational_on_ints_skips_the_row_scaling(rng, monkeypatch):
    # an all-int matrix (the lemma Hankel slices, the Jacobi minors) goes to
    # det_int as it is; one Fraction entry brings the row scaling back
    monkeypatch.setattr(ring, "integer_form", None)
    for n in range(6):
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        got = det_rational(RingMatrix.from_rows(rows))
        assert type(got) is int and got == bruteforce_det(rows)
    monkeypatch.undo()
    m = RingMatrix.from_rows([[2, F(1, 2)], [3, 4]])
    assert det_rational(m) == F(13, 2) == bruteforce_det(m.to_rows())


@pytest.mark.parametrize("pad", [0, 2])
@pytest.mark.parametrize("base", ["none", "rows", "singular"])
@pytest.mark.parametrize("levels", [0, 1, 2, 3, 4])
def test_schur_minors_against_bruteforce(levels, base, pad):
    # Every partition mu of at most `levels` parts with |mu| < reach gets
    # det[rows[mu_1 + levels - 1], ..., rows[mu_levels], fixed rows] as
    # bruteforce_det takes it; zero minors are left out.  Small entries with
    # many zeros make zero minors common, and fixed rows with a repeated row
    # make every minor zero.  At levels 0 the one key is the pad zeros, at
    # det(fixed rows), 1 with none.
    draw = random.Random(levels * 100 + len(base) * 10 + pad)
    fixed = {"none": 0, "rows": 2, "singular": 2}[base]
    width, reach = levels + fixed, 6

    def row():
        return [draw.choice((-2, -1, 0, 0, 1, 3)) for _ in range(width)]

    fixed_rows = [row() for _ in range(fixed)]
    if base == "singular":
        fixed_rows[1] = list(fixed_rows[0])
    rows = [row() for _ in range(reach + levels - 1)]
    got = ring.schur_minors(fixed_rows, rows, levels, reach, pad)
    want = {}
    for mu in itertools.product(range(reach), repeat=levels):
        if list(mu) == sorted(mu, reverse=True) and sum(mu) < reach:
            picked = [rows[part + levels - l] for l, part in enumerate(mu, 1)]
            value = bruteforce_det(picked + fixed_rows)
            if value:
                want[mu + (0,) * pad] = value
    assert got == want
    assert bool(want) == (base != "singular")
    assert all(type(c) is int for c in got.values())
    # the sign goes in with the fixed rows' minors and carries through
    assert ring.schur_minors(fixed_rows, rows, levels, reach, pad, -1) == {
        mu: -c for mu, c in want.items()}
    # no partition has |mu| < 0
    assert ring.schur_minors(fixed_rows, rows, levels, 0, pad) == {}


@pytest.mark.parametrize("levels", [0, 1, 2, 3, 4])
def test_schur_minors_adds_one_row_per_walked_tail(levels, monkeypatch):
    # The fixed row goes in once, then the walk puts a row on top once per
    # tail (mu_l, ..., mu_levels), l >= 2, of some partition mu with |mu| <
    # reach, and never for a tail that no such partition completes: a larger
    # level bound walks dead branches whose values still come out right.
    # At levels == 0 nothing is walked, and the fixed rows take one det_int.
    reach = 7
    rows = [[i + 1, (i * i) % 5 - 2, i % 3, 1, 2 - i][: levels + 1]
            for i in range(reach + levels - 1)]
    fixed = [[3, -1, 0, 2, 1][: levels + 1]]
    calls = []
    add_row = ring.add_row

    def counted(minors, row):
        calls.append(row)
        return add_row(minors, row)

    monkeypatch.setattr(ring, "add_row", counted)
    ring.schur_minors(fixed, rows, levels, reach)
    tails = {
        mu[l:]
        for mu in itertools.product(range(reach), repeat=levels)
        if list(mu) == sorted(mu, reverse=True) and sum(mu) < reach
        for l in range(1, levels)
    }
    assert len(calls) == (len(fixed) if levels else 0) + len(tails)


def _leading_blocks(rows):
    return [[r[:k] for r in rows[:k]] for k in range(1, len(rows) + 1)]


@pytest.mark.parametrize("n", range(8))
def test_leading_minors_against_per_size_determinants(n, rng):
    for _ in range(5):
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        kept = [list(r) for r in rows]
        got = ring.leading_minors(rows)
        assert rows == kept  # the input is left as it is
        assert got == [det_int(b) for b in _leading_blocks(rows)]
        assert got == [bruteforce_det(b) for b in _leading_blocks(rows)]
        assert all(type(v) is int for v in got)


@pytest.mark.parametrize("n", range(1, 8))
def test_leading_minors_fall_back_after_a_zero_pivot(n, rng, monkeypatch):
    # For every k, the k-th leading block made singular (its last row the
    # sum of the rows above on its k columns, or a zero corner at k = 1):
    # that minor is the zero pivot, and det_int gives each of the n - k
    # larger blocks, which are not singular in general.
    calls = []

    def counted(a):
        calls.append(len(a))
        return det_int(a)

    monkeypatch.setattr(ring, "det_int", counted)
    for k in range(1, n + 1):
        while True:  # the blocks below k not singular, so k is the first zero pivot
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            rows[k - 1][:k] = [sum(col) for col in zip(*(r[:k] for r in rows[: k - 1]))] or [0]
            if all(bruteforce_det(b) for b in _leading_blocks(rows)[: k - 1]):
                break
        calls.clear()
        got = ring.leading_minors(rows)
        want = [bruteforce_det(b) for b in _leading_blocks(rows)]
        assert got == want
        assert got[k - 1] == 0
        assert calls == list(range(k + 1, n + 1))


def test_det_poly_minors_against_det_poly_of_each_block(rng):
    # Every leading block decoded from the whole matrix's packing, rational
    # and polynomial entries in one and two variables; a zero last row makes
    # the whole determinant 0 while the blocks above it are not.
    x = UniPoly.variable("x")
    nested = UniPoly([UniPoly([F(1, 2), 3], "beta"), UniPoly([-2], "beta")], "alpha")
    cases = [
        ([F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(9)], ()),
        ([x * rng.randint(-3, 3) + F(rng.randint(-9, 9), 2) for _ in range(9)], ("x",)),
        ([nested * rng.randint(-3, 3) + rng.randint(-5, 5) for _ in range(9)], ("alpha", "beta")),
    ]
    for entries, variables in cases:
        for zero_row in (False, True):
            m = RingMatrix.hankel(entries, 5)
            if zero_row:
                m = RingMatrix.from_rows(m.to_rows()[:4] + [[0] * 5])
            got = ring.det_poly_minors(m, variables)
            rows = m.to_rows()
            assert len(got) == 6
            for k, value in enumerate(got):
                block = RingMatrix.from_rows([r[:k] for r in rows[:k]]) if k else RingMatrix(0, 0, [])
                assert value == det_poly(block, variables), (variables, zero_row, k)
                assert str(value) == str(det_poly(block, variables))


def test_det_rational_and_det_poly_return_integral_values_as_ints(rng):
    # Rows scaled by 1/2, 2/3, ..., (n-1)/n and n (product 1) carry
    # denominators that cancel in the determinant; random Fraction rows
    # mostly do not.
    alpha = UniPoly([UniPoly.zero("beta"), UniPoly.one("beta")], "alpha")
    beta = UniPoly([UniPoly.variable("beta")], "alpha")
    ones = {
        (): F(1),
        ("x",): UniPoly.one("x"),
        ("alpha", "beta"): UniPoly([UniPoly.one("beta")], "alpha"),
    }

    def entry(variables, a, diagonal):
        if not variables:
            return a
        if len(variables) == 1:
            return UniPoly([a, F(diagonal)], "x")
        return a + (alpha * beta if diagonal else alpha - beta)

    for variables, one in ones.items():
        for n in range(5):
            for cancel in (True, False):
                a = random_fraction_rows(rng, n, denominators=(1,) if cancel else (1, 1, 2, 3))
                scales = [F(i + 1, i + 2) for i in range(n - 1)] + [F(n)] if cancel else [1] * n
                m = RingMatrix.from_rows(
                    [[entry(variables, a[i][j], i == j) * scales[i] for j in range(n)]
                     for i in range(n)])
                got = det_poly(m, variables) if variables else det_rational(m)
                assert got == det_generic(m, one) == det_cofactor(m, one)
                assert _exact_leaves(got), (variables, n, got)
                if cancel and n > 1:
                    assert any(type(x) is F for x in _scalars(m.entries))
                    assert all(type(x) is int for x in _scalars([got]))


def _scalars(values):
    for x in values:
        if isinstance(x, UniPoly):
            yield from _scalars(x.coeffs)
        else:
            yield x


def test_det_poly_one_variable_matches_cofactor(rng):
    for n in range(5):
        a = random_fraction_rows(rng, n)
        rows = [[UniPoly([a[i][j], F(i == j)], "x") for j in range(n)] for i in range(n)]
        m = RingMatrix.from_rows(rows)
        expected = det_cofactor(m, one=UniPoly.one("x"))
        assert expected.degree == n
        assert det_poly(m, ["x"]) == expected
    with pytest.raises(ValueError, match="unlisted variable 'z'"):
        det_poly(RingMatrix(1, 1, [UniPoly.variable("z")]), ["x"])


def test_det_poly_derives_the_degree_bound():
    # det [[x + 1, 2], [3, x - 1]] = x^2 - 7: no caller-supplied bound can
    # fall short of the degree and drop the x^2 term
    x = UniPoly.variable("x")
    m = RingMatrix.from_rows([[x + 1, F(2)], [F(3), x - 1]])
    assert det_poly(m, ["x"]) == UniPoly.from_coeffs([-7, 0, 1], "x")


def test_det_poly_bound_is_tight_in_each_variable():
    # det [[a^2, b], [-b^2, a/2]] = a^3/2 + b^3: the row maxima are a^2 and
    # b (row 0), a and b^2 (row 1), so the derived bounds 3 and 3 are both
    # reached, by different terms
    def beta(*cs):
        return UniPoly([UniPoly.from_coeffs(cs, "beta")], "alpha")

    a2, a_half = UniPoly.from_coeffs([0, 0, 1], "alpha"), UniPoly.from_coeffs([0, F(1, 2)], "alpha")
    m = RingMatrix.from_rows([[a2, beta(0, 1)], [beta(0, 0, -1), a_half]])
    expected = UniPoly([UniPoly.from_coeffs([0, 0, 0, 1], "beta"), F(0), F(0), F(1, 2)], "alpha")
    assert det_cofactor(m, one=beta(1)) == expected
    assert det_poly(m, ["alpha", "beta"]) == expected


def test_det_poly_two_variables_matches_cofactor_and_hand_expansion():
    # det(ab c_{i+j} + (a+b) c_{i+j+1} + c_{i+j+2}), 2 x 2, c = 2, -1, 3, 0, 1
    # = 5a^2b^2 + 3a^2b + 3ab^2 - 7ab - 9a^2 - 9b^2 - a - b + 3
    c = [F(v) for v in (2, -1, 3, 0, 1)]
    by_alpha = [[3, -1, -9], [-1, -7, 3], [-9, 3, 5]]
    expected = UniPoly([UniPoly.from_coeffs(r, "beta") for r in by_alpha], "alpha")

    alpha = UniPoly([UniPoly.zero("beta"), UniPoly.one("beta")], "alpha")
    beta = UniPoly([UniPoly.variable("beta")], "alpha")
    rows = [
        [alpha * beta * c[i + j] + (alpha + beta) * c[i + j + 1] + c[i + j + 2] for j in range(2)]
        for i in range(2)
    ]
    m = RingMatrix.from_rows(rows)
    one = UniPoly([UniPoly.one("beta")], "alpha")
    assert det_cofactor(m, one=one) == expected
    assert det_poly(m, ["alpha", "beta"]) == expected


def _random_poly_entry(rng, variables):
    """(entry for det_poly, the same entry for det_generic): a zero, an int,
    a rational or a polynomial of degree <= 1 in each variable.  An entry
    constant in the outer of two variables goes to det_poly as a bare
    UniPoly in the inner one (the _lin_det slot-1 shape) and to det_generic
    wrapped in the outer one: UniPoly arithmetic between two tags nests by
    the left operand, so a bare inner entry would nest the wrong way round."""
    def coeff():
        return F(rng.randint(-6, 6), rng.choice((1, 2, 3, 5, 7)))

    r = rng.random()
    if r < 0.1:
        return F(0), F(0)
    if r < 0.2:
        x = rng.randint(-5, 5)
        return x, x
    if r < 0.3:
        x = coeff()
        return x, x
    if len(variables) == 1:
        x = UniPoly([coeff(), coeff()], variables[0])
        return x, x
    outer, inner = variables
    if r < 0.5:
        x = UniPoly([coeff(), coeff()], inner)
        return x, UniPoly([x], outer)
    x = UniPoly([UniPoly([coeff(), coeff()], inner), UniPoly([coeff(), coeff()], inner)], outer)
    return x, x


@pytest.mark.parametrize("variables", [("x",), ("alpha", "beta")])
def test_det_poly_matches_generic(variables):
    rng = random.Random(len(variables))
    if len(variables) == 1:
        one = UniPoly.one("x")
    else:
        one = UniPoly([UniPoly.one("beta")], "alpha")
    for n in range(6):
        for hankel in (False, True):
            for _ in range(3):
                pairs = [_random_poly_entry(rng, variables) for _ in range(n * n)]
                if hankel:
                    seq = pairs[: 2 * n - 1]
                    pairs = [seq[i + j] for i in range(n) for j in range(n)]
                m = RingMatrix(n, n, [p for p, _ in pairs])
                oracle = RingMatrix(n, n, [o for _, o in pairs])
                assert det_poly(m, variables) == det_generic(oracle, one)


def test_binomial():
    assert binomial(6, 3) == 20
    assert binomial(4, 5) == 0
    assert binomial(4, -1) == 0


# ---------------------------------------------------------------------------
# Inverse-power series
# ---------------------------------------------------------------------------

def _series_strategy(variables=("y1",), trunc=8):
    k = len(variables)
    exps = st.tuples(*[st.integers(-2, trunc - 1) for _ in range(k)])

    def build(d):
        return InverseSeries(variables, d, trunc)

    return st.dictionaries(exps, rationals, max_size=6).map(build)


@settings(max_examples=60, deadline=None)
@given(_series_strategy(), _series_strategy(), _series_strategy())
def test_series_ring_laws(f, g, h):
    order = 8
    assert ((f * g) * h).equal_up_to(f * (g * h), order)
    assert (f * (g + h)).equal_up_to(f * g + f * h, order)
    assert (f * g).equal_up_to(g * f, order)
    assert (f + g).equal_up_to(g + f, order)


@settings(max_examples=40, deadline=None)
@given(_series_strategy(variables=("y1", "y2"), trunc=6), _series_strategy(variables=("y1", "y2"), trunc=6))
def test_series_bivariate_commutes(f, g):
    assert (f * g).equal_up_to(g * f, 6)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 4))
def test_series_product_is_the_convolution(data, k):
    # one to four variables: the product is one loop for every arity
    variables = tuple(f"y{l}" for l in range(1, k + 1))
    f, g = (data.draw(_series_strategy(variables, trunc=5)) for _ in range(2))
    want = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            want[e] = want.get(e, 0) + c1 * c2
    prod = f * g
    assert prod.terms == {e: c for e, c in want.items() if c and sum(e) < prod.trunc}


def test_series_str():
    v = ("y1", "y2")
    s = InverseSeries(v, {(-1, 0): 2, (0, 0): 1, (0, 1): F(-3, 4), (1, 1): 5, (2, 0): F(1, 3)}, 3)
    assert str(s) == "2*y1^1 + 1*1 - 3/4*y2^-1 + 5*y1^-1*y2^-1 + 1/3*y1^-2 + O(deg 3)"
    assert str(InverseSeries.zero(v)) == "0"
    four = InverseSeries(("a", "b", "c", "d"), {(2, 1, 0, 0): 3, (1, 2, 0, 0): -3}, 5)
    assert str(four) == "-3*a^-1*b^-2 + 3*a^-2*b^-1 + O(deg 5)"


def test_series_truncation_bookkeeping():
    v = ("y1",)
    f = InverseSeries(v, {(1,): F(1)}, 5)      # known below degree 5
    g = InverseSeries(v, {(2,): F(1)}, 7)      # known below degree 7
    assert (f + g).trunc == 5
    # multiplication gains validity from the valuation of the partner
    assert (f * g).trunc == min(5 + 2, 7 + 1)
    exact = InverseSeries.monomial(v, (3,))
    assert (f * exact).trunc == 5 + 3
    assert (exact * exact).trunc is None


def test_series_zero_and_scalars():
    v = ("y1", "y2")
    s = InverseSeries(v, {(1, 2): F(3)}, 9)
    assert (s * 0).is_exact_zero
    assert (s * F(1, 3)).coefficient((1, 2)) == 1
    assert (-s).coefficient((1, 2)) == -3
    assert InverseSeries.one(v) * s == s


def test_series_integral_scalars_stay_ints():
    v = ("y1", "y2")
    s = InverseSeries(v, {(1, 0): 3, (0, 2): -2, (1, 1): 5}, 6, cap=6)
    for six in (s * F(6), F(6) * s):
        assert six.terms == (s * 6).terms
        assert all(type(c) is int for c in six.terms.values())
        assert (six.trunc, six.cap) == (6, 6)
    half = s * F(1, 2)
    assert half.terms == {(1, 0): F(3, 2), (0, 2): F(-1), (1, 1): F(5, 2)}
    assert all(type(c) is F for c in half.terms.values())
    assert type(InverseSeries.plain_variable(v, 1).coefficient((0, -1))) is int
    assert type(InverseSeries.one(v).coefficient((0, 0))) is int


def test_series_laurent_direction():
    v = ("y1",)
    y = InverseSeries.plain_variable(v, 0)       # y^(+1), exponent -1
    inv = InverseSeries.monomial(v, (1,))       # 1/y, exponent +1
    assert (y * inv) == InverseSeries.one(v)
    assert y.valuation() == -1


def test_series_equality_below_common_order():
    v = ("y1",)
    a = InverseSeries(v, {(1,): F(1), (6,): F(5)}, 7)
    b = InverseSeries(v, {(1,): F(1)}, 6)
    assert a == b  # they agree below order 6; the degree-6 term is unknown to b
    c = InverseSeries(v, {(1,): F(2)}, 6)
    assert a != c
    assert a.first_difference(c) == (1,)


def test_series_cap_never_raises_trunc():
    v = ("y1",)
    f = InverseSeries(v, {(1,): F(1)}, 10, cap=10)
    g = InverseSeries.monomial(v, (4,))
    assert (f * g).trunc == 10  # natural order 14 capped at 10
    assert (f * g).coefficient((5,)) == 1


def test_series_variable_mismatch():
    a = InverseSeries.one(("y1",))
    b = InverseSeries.one(("z1",))
    with pytest.raises(ValueError):
        a * b
    assert a != b


def test_series_never_stores_beyond_truncation():
    v = ("y1", "y2")
    s = InverseSeries(v, {(1, 1): F(1), (4, 4): F(9)}, 5)
    assert all(sum(e) < 5 for e in s.terms)
    t = s * s
    assert t.trunc is not None
    assert all(sum(e) < t.trunc for e in t.terms)


def test_series_one_refuses_no_variables():
    with pytest.raises(ValueError):
        InverseSeries.one(())


# ---------------------------------------------------------------------------
# det_generic on series matrices, against det_cofactor
# ---------------------------------------------------------------------------

def _same_det(got, want):
    """Equal in terms, trunc and cap; scalar results equal as values."""
    if isinstance(want, InverseSeries):
        return isinstance(got, InverseSeries) and (got.terms, got.trunc, got.cap) == (
            want.terms, want.trunc, want.cap)
    return not isinstance(got, InverseSeries) and got == want


def _random_series(rng, variables, trunc, rational, low=0, size=8, cap=True):
    terms = {}
    for _ in range(rng.randint(0, size)):
        e = tuple(rng.randint(low, trunc - 1) for _ in variables)
        c = rng.randint(-9, 9)
        terms[e] = F(c, rng.choice((1, 2, 3, 5))) if rational else c
    return InverseSeries(variables, terms, trunc, cap=trunc if cap else None)


def _random_series_matrix(rng, n, make):
    """Half the time a Hankel matrix, whose entries repeat as objects."""
    if rng.random() < 0.5:
        seq = [make() for _ in range(2 * n - 1)]
        return RingMatrix(n, n, [seq[i + j] for i in range(n) for j in range(n)])
    return RingMatrix(n, n, [make() for _ in range(n * n)])


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("rational", [False, True])
def test_det_generic_matches_cofactor_on_series_matrices(k, rational):
    # one shared trunc == cap and exponents >= 0, Hankel matrices among them
    rng = random.Random(700 + 10 * k + rational)
    variables = tuple(f"y{i + 1}" for i in range(k))
    one = InverseSeries.one(variables)
    for n in range(6):
        for _ in range(4):
            trunc = rng.randint(1, 7)
            m = _random_series_matrix(
                rng, n, lambda: _random_series(rng, variables, trunc, rational))
            got = det_generic(m, one)
            assert _same_det(got, det_cofactor(m, one))
            if n and not rational:
                # integer input stays on ints
                assert all(type(c) is int for c in got.terms.values())


def _mixed_entry(rng, variables, low):
    r = rng.random()
    if r < 0.15:
        return F(0)
    if r < 0.3:
        return F(rng.randint(-4, 4), rng.choice((1, 2, 3)))
    if r < 0.4:
        return InverseSeries.zero(variables)
    if r < 0.55:  # exact (trunc=None) monomial
        e = tuple(rng.randint(low, 3) for _ in variables)
        return InverseSeries.monomial(variables, e, F(rng.randint(-3, 3), rng.choice((1, 2))))
    trunc = rng.randint(1, 7)
    return _random_series(rng, variables, trunc, rng.random() < 0.5, low=low,
                          cap=rng.random() < 0.7)


@pytest.mark.parametrize("laurent", [False, True])
def test_det_generic_mixed_series_entries_match_cofactor(laurent):
    # zero scalars, exact zero series, exact (trunc=None) entries, unequal
    # truncations and, with laurent, negative exponents: det_generic
    # matches det_cofactor's bookkeeping at every size.
    rng = random.Random(71 + laurent)
    low = -2 if laurent else 0
    for k in (1, 2, 3):
        variables = tuple(f"y{i + 1}" for i in range(k))
        one = InverseSeries.one(variables)
        for n in range(6):
            for _ in range(12):
                m = _random_series_matrix(rng, n, lambda: _mixed_entry(rng, variables, low))
                assert _same_det(det_generic(m, one), det_cofactor(m, one))


def test_det_generic_5x5_scaled_keeps_bookkeeping():
    # Scaling this matrix's last column by 2 changes the valuation of one of
    # Berkowitz's intermediate sums and with it the trunc of its result (the
    # exact zero as given, trunc 2 scaled).  The subset expansion's minors
    # scale term by term, so scaling a row or column leaves trunc and cap
    # alone, and det_generic still equals det_cofactor in terms, trunc and
    # cap.
    v = ("y1",)
    s = InverseSeries(v, {}, 2)
    t = InverseSeries(v, {(1,): F(1, 2), (2,): F(-1)}, 3)
    rows = [
        [0, 1, 0, 0, 0],
        [1, 0, 1, 0, 0],
        [0, s, 0, 0, 0],
        [0, 0, 0, -1, t],
        [0, 0, 0, 0, 1],
    ]
    m = RingMatrix.from_rows(rows)
    scaled = RingMatrix.from_rows([r[:4] + [2 * r[4]] for r in rows])
    one = InverseSeries.one(v)
    want = det_generic(m, one)
    assert want.is_exact_zero
    assert (det_berkowitz(m, one).trunc, det_berkowitz(scaled, one).trunc) == (None, 2)
    assert _same_det(det_generic(scaled, one), want)
    assert _same_det(want, det_cofactor(m, one))
