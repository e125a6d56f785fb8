import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from opident.moments import (
    ChebyshevCatalanFunctional,
    FiniteAtomFunctional,
    ModeError,
    MomentHorizonError,
    PoleAtAtomError,
    SequenceFunctional,
    functional_from_json,
    random_atom_functional,
    random_sequence_functional,
)
from opident.orthopoly import (
    DegenerateFunctionalError,
    OrthoSystem,
    build_ortho_system,
    hankel_product_formula,
    poly_lemma4,
    poly_lemma5,
    q_exact,
    q_row,
    q_series,
)
from opident.ring import InverseSeries, UniPoly

F = Fraction


def cheb_system(depth=6):
    return build_ortho_system(ChebyshevCatalanFunctional(), depth)


# ---------------------------------------------------------------------------
# Three-term recurrence construction
# ---------------------------------------------------------------------------

def test_chebyshev_system():
    sys = cheb_system(4)
    assert sys.s == (0, 0, 0, 0)
    assert sys.t == (1, 1, 1)
    assert sys.p(2) == UniPoly.from_coeffs([-1, 0, 1])
    assert sys.p(3) == UniPoly.from_coeffs([0, -2, 0, 1])
    assert sys.p(-1).is_zero
    assert sys.p(0) == UniPoly.one()


def test_two_atom_system():
    f = FiniteAtomFunctional([(1, F(1, 2)), (-1, F(1, 2))])
    sys = build_ortho_system(f, 2)
    assert sys.p(1) == UniPoly.variable()
    assert sys.p(2) == UniPoly.from_coeffs([-1, 0, 1])
    assert sys.t == (1,)


def test_first_recurrence_coefficient_is_mu1_over_mu0(rng):
    f = random_atom_functional(rng, 5)
    sys = build_ortho_system(f, 1)
    assert sys.p(1) == UniPoly.from_coeffs([-f.moment(1) / f.moment(0), 1])


def test_orthogonality_and_norms(rng):
    f = random_atom_functional(rng, 7, hankel_nonzero_upto=7)
    sys = build_ortho_system(f, 6)
    for a in range(7):
        for b in range(a):
            assert f.apply(sys.p(a) * sys.p(b)) == 0
    for n in range(6):
        assert sys.norms[n] == f.hankel_det(n + 1) / f.hankel_det(n)


def test_monicity_and_nonzero_t(rng):
    f = random_atom_functional(rng, 8, hankel_nonzero_upto=8)
    sys = build_ortho_system(f, 8)
    for n in range(9):
        p = sys.p(n)
        assert p.degree == n
        if not p.is_zero:
            assert p.coeffs[-1] == 1
    assert all(t != 0 for t in sys.t)


def test_degenerate_functional_reports_index():
    # two atoms: H(3) = 0, so depth 3 must fail naming index 3
    f = FiniteAtomFunctional([(1, F(1, 2)), (-1, F(1, 2))])
    with pytest.raises(DegenerateFunctionalError) as err:
        build_ortho_system(f, 3)
    assert err.value.index == 3


@pytest.mark.parametrize(
    "moments, depth, error, match",
    [
        # H(2) = 0 is known from mu_0..mu_2, before any row of depth 3 runs
        # past the horizon: the vanishing minor is reported, not the horizon
        ([1, 0, 0], 3, DegenerateFunctionalError, r"^Hankel determinant H\(2\) vanishes$"),
        ([1, 0, 0, 5, 7], 4, DegenerateFunctionalError, r"^Hankel determinant H\(2\) vanishes$"),
        # H(1), H(2) nonzero; step 2 needs mu_3 for L(u p_1^2)
        ([1, 0, 1], 2, MomentHorizonError, r"^moment 3 requested, horizon is 2$"),
        # H(2) itself needs mu_2
        ([1, 0], 2, MomentHorizonError, r"^moment 2 requested, horizon is 1$"),
    ],
)
def test_short_sequence_raises_at_the_step_that_needs_it(moments, depth, error, match):
    # build_ortho_system reads the moment row once, up to the horizon; each
    # step still checks its H(n) before it needs moments past the horizon
    with pytest.raises(error, match=match):
        build_ortho_system(SequenceFunctional(moments), depth)


def test_short_sequence_builds_up_to_its_horizon():
    # mu_0..mu_5 serve depth 3 exactly (step 3 reads up to mu_5)
    f = SequenceFunctional([1, 0, 1, 0, 2, 0])
    sys = build_ortho_system(f, 3)
    assert sys.p(3) == poly_lemma4(f, 3)
    # step 4 first checks H(4), which needs mu_6
    with pytest.raises(MomentHorizonError, match=r"^moment 6 requested, horizon is 5$"):
        build_ortho_system(f, 4)


def test_depth_capped_at_atom_count(rng):
    f = random_atom_functional(rng, 5, hankel_nonzero_upto=5)
    sys = build_ortho_system(f, 5)  # p_5 = node polynomial, still fine
    prod = UniPoly.one()
    for u in f.nodes:
        prod = prod * UniPoly.from_coeffs([-u, 1])
    assert sys.p(5) == prod
    with pytest.raises(DegenerateFunctionalError):
        build_ortho_system(f, 6)


def test_hankel_product_formula(rng):
    # H(n) = mu_0^n prod t_i^(n-i-1); with mu_0 = 1 the classical formula
    f = random_atom_functional(rng, 6, hankel_nonzero_upto=6, normalize=True)
    sys = build_ortho_system(f, 6)
    for n in range(7):
        assert f.hankel_det(n) == hankel_product_formula(sys, n)
        prod = F(1)
        for i in range(n - 1):
            prod *= sys.t[i] ** (n - i - 1)
        assert f.hankel_det(n) == prod


def test_norm_cross_check_has_teeth():
    # One wrong Hankel route stops the build at the first norm that reads it.
    class DoubledH3(SequenceFunctional):
        def hankel_det(self, n):
            value = super().hankel_det(n)
            return 2 * value if n == 3 else value

    f = DoubledH3(ChebyshevCatalanFunctional().moment(i) for i in range(8))
    assert build_ortho_system(f, 2).t == (1,)
    with pytest.raises(ArithmeticError, match=r"norm L\(p_2\^2\) disagrees with H\(3\)/H\(2\)"):
        build_ortho_system(f, 4)


@pytest.mark.parametrize("kind", ["atoms", "sequence"])
def test_t_is_the_hankel_quotient(rng, kind):
    # (2.4): t_i = H(i+2) H(i) / H(i+1)^2.  The build takes t as a quotient
    # of two checked norms and does not compare it with this again.
    for _ in range(5):
        if kind == "atoms":
            f = random_atom_functional(rng, 8, hankel_nonzero_upto=8)
        else:
            f = random_sequence_functional(rng, 15, hankel_nonzero_upto=8)
        sys = build_ortho_system(f, 8)
        h = f.hankel_det
        assert len(sys.t) == 7
        for i, t in enumerate(sys.t):
            assert t == h(i + 2) * h(i) / h(i + 1) ** 2


# ---------------------------------------------------------------------------
# Determinant formulas for p_n
# ---------------------------------------------------------------------------

def test_poly_lemma4_examples():
    f = ChebyshevCatalanFunctional()
    assert poly_lemma4(f, 0) == UniPoly.one()
    assert poly_lemma4(f, 2) == UniPoly.from_coeffs([-1, 0, 1])
    g = SequenceFunctional([2, 3, 7, 8])
    assert poly_lemma4(g, 1) == UniPoly.from_coeffs([F(-3, 2), 1])


def test_poly_lemma4_equals_recurrence(rng):
    f = random_atom_functional(rng, 8, hankel_nonzero_upto=8)
    sys = build_ortho_system(f, 8)
    for n in range(9):
        assert poly_lemma4(f, n) == sys.p(n)


def test_poly_lemma5_examples():
    f = ChebyshevCatalanFunctional()
    assert poly_lemma5(f, 0) == UniPoly.one()
    assert poly_lemma5(f, 1) == UniPoly.from_coeffs([0, -1])  # mu_1 - mu_0 x
    assert poly_lemma5(f, 2) == UniPoly.from_coeffs([-1, 0, 1])


def test_poly_lemma5_normalization(rng):
    # det(mu_{i+j+1} - mu_{i+j} x) = (-1)^n H(n) p_n(x): the x^n coefficient
    # of the determinant is det(-mu_{i+j}) = (-1)^n H(n).
    f = random_atom_functional(rng, 7, hankel_nonzero_upto=7)
    sys = build_ortho_system(f, 6)
    for n in range(7):
        lhs = poly_lemma5(f, n)
        sign = -1 if n % 2 else 1
        assert lhs == sign * f.hankel_det(n) * sys.p(n)


# ---------------------------------------------------------------------------
# Second-kind functions, exact
# ---------------------------------------------------------------------------

def test_q_exact_examples():
    single = build_ortho_system(FiniteAtomFunctional([(0, 1)]), 0)
    assert q_exact(single, 0, 2) == F(1, 2)
    two = build_ortho_system(FiniteAtomFunctional([(1, F(1, 2)), (-1, F(1, 2))]), 1)
    assert q_exact(two, 1, 3) == F(1, 8)


def test_q_exact_three_term_recurrence(rng):
    f = random_atom_functional(rng, 6, hankel_nonzero_upto=6)
    sys = build_ortho_system(f, 5)
    for y in (F(1, 3), F(22, 7), F(-13, 5)):
        q0 = q_exact(sys, 0, y)
        q1 = q_exact(sys, 1, y)
        assert q1 == (y - sys.s[0]) * q0 - f.moment(0)  # the initial value
        for n in range(2, 6):
            assert q_exact(sys, n, y) == (y - sys.s[n - 1]) * q_exact(
                sys, n - 1, y
            ) - sys.t[n - 2] * q_exact(sys, n - 2, y)


def test_q_exact_mode_and_pole_errors():
    cheb = cheb_system(2)
    with pytest.raises(ModeError):
        q_exact(cheb, 1, F(1, 2))
    f = FiniteAtomFunctional([(2, 1), (3, 1)])
    sys = build_ortho_system(f, 1)
    with pytest.raises(PoleAtAtomError):
        q_exact(sys, 1, 2)


# ---------------------------------------------------------------------------
# Second-kind functions, formal series
# ---------------------------------------------------------------------------

def test_q_series_moment_generating():
    sys = cheb_system(4)
    s = q_series(sys, 0, 5)
    assert s.coefficient((1,)) == 1
    assert s.coefficient((2,)) == 0
    assert s.coefficient((3,)) == 1
    assert s.trunc == 5


def test_q_series_horizon_error_names_the_largest_demanded_moment():
    # q_2 to truncation 14 needs moments up to 2 + 13 - 1 = 14; the
    # per-moment check alone would stop at moment 11
    f = SequenceFunctional([F(1, n + 1) for n in range(11)])
    sys = build_ortho_system(f, 3)
    q_series(sys, 2, 10)
    with pytest.raises(MomentHorizonError, match=r"^moment 14 requested, horizon is 10$"):
        q_series(sys, 2, 14)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_q_series_is_built_clean(k):
    # q_series skips InverseSeries validation: the validating constructor
    # must find nothing to drop
    sys = cheb_system(4)
    variables = tuple(f"y{l + 1}" for l in range(k))
    for n in range(5):
        s = q_series(sys, n, 9, variables, slot=k - 1)
        assert s.terms
        checked = InverseSeries(variables, s.terms, 9, cap=9)
        assert (s.variables, s.terms, s.trunc, s.cap) == (
            checked.variables, checked.terms, checked.trunc, checked.cap
        )


def test_q_series_leading_and_vanishing(rng):
    f = random_atom_functional(rng, 10, hankel_nonzero_upto=10)
    sys = build_ortho_system(f, 8)
    for n in range(9):
        s = q_series(sys, n, 14)
        for i in range(1, n + 1):
            assert s.coefficient((i,)) == 0
        assert s.coefficient((n + 1,)) == f.hankel_det(n + 1) / f.hankel_det(n)


def test_q_series_recurrence_coefficientwise(rng):
    f = random_atom_functional(rng, 8, hankel_nonzero_upto=8)
    sys = build_ortho_system(f, 5)
    T = 12
    from opident.ring import InverseSeries

    y = InverseSeries.plain_variable(("y",), 0)
    q0 = q_series(sys, 0, T)
    q1 = q_series(sys, 1, T)
    assert q1.equal_up_to((y - sys.s[0]) * q0 - f.moment(0), T - 1)
    for n in range(2, 6):
        lhs = q_series(sys, n, T)
        rhs = (y - sys.s[n - 1]) * q_series(sys, n - 1, T) - sys.t[n - 2] * q_series(
            sys, n - 2, T
        )
        order = min(lhs.trunc, rhs.trunc)
        assert lhs.equal_up_to(rhs, order)
        assert order >= T - 1


def test_q_series_matches_q_exact_coefficients(rng):
    # partial sums of the series converge to the exact value: the tail is
    # bounded by C sum_{i >= T-1} 9^i / y^(i+1) with C = sum |w_a p_n(u_a)|
    # since all nodes live in [-9, 9]
    f = random_atom_functional(rng, 5, hankel_nonzero_upto=5)
    sys = build_ortho_system(f, 3)
    n, T = 2, 16
    s = q_series(sys, n, T)
    y = F(100)
    partial = sum(s.coefficient((i,)) * y ** (-i) for i in range(1, T))
    err = abs(q_exact(sys, n, y) - partial)
    c_bound = sum(abs(w * sys.p(n).eval(u)) for u, w in f.atoms)
    tail_bound = c_bound * F(9, 100) ** (T - 1) / 91
    assert err <= tail_bound


# ---------------------------------------------------------------------------
# Derivatives of q
# ---------------------------------------------------------------------------

def test_q_derivative_order_zero_and_single_atom():
    single = build_ortho_system(FiniteAtomFunctional([(0, 1)]), 0)
    assert q_exact(single, 0, 2, 0) * math.factorial(0) == q_exact(single, 0, 2)
    assert q_exact(single, 0, 2, 1) * math.factorial(1) == F(-1, 4)


def test_q_exact_equals_the_atom_sum_in_fractions(rng):
    # q_exact is the one-column q_row; the oracle is the atom sum
    # sum_a w_a p_n(u_a) (-1)^r / (y - u_a)^(r+1) in plain Fractions, over
    # integer nodes and over nodes with node_scale 210
    path = Path(__file__).parent / "golden" / "atoms8-fractional.json"
    fractional = functional_from_json(path.read_text())
    for f in (random_atom_functional(rng, 7, hankel_nonzero_upto=5), fractional):
        sys = build_ortho_system(f, 5)
        for n in range(6):
            p = sys.p(n)
            for y in (F(1, 9), F(-22, 7), F(9, 2), F(-35, 3)):
                for r in range(3):
                    expected = sum(
                        (w * p.eval(u) * (-1) ** r / (y - u) ** (r + 1) for u, w in f.atoms), F(0)
                    )
                    assert q_exact(sys, n, y, r) == expected, (n, y, r)


@pytest.mark.parametrize("fractional", [False, True])
def test_rows_hold_d_b_times_the_value(fractional, rng):
    # p_row and q_row put d_b times the value in column b, d_b the
    # denominator of p_b in int_polys (1 for b < 0), over a row denominator
    # D > 0: entry / (D d_b) is p_value, q_exact and the UniPoly or atom-sum
    # oracle, for Taylor orders r <= 2 and the b < 0 conventions
    if fractional:
        f = functional_from_json((Path(__file__).parent / "golden" / "atoms8-fractional.json")
                                 .read_text())
    else:
        f = random_atom_functional(rng, 7, hankel_nonzero_upto=5)
    sys = build_ortho_system(f, 5)
    assert max(d for _, d in sys.int_polys) > 1
    cols = range(-3, 6)
    for r in range(3):
        for x in (F(1, 2), F(-7, 4), F(3)):
            nums, den = sys.p_row(cols, x, r)
            assert den > 0 and sys.p_row(cols, x.numerator, r, x.denominator) == (nums, den)
            for b, v in zip(cols, nums):
                want = sys.p(b).derivative(r).eval(x) / math.factorial(r) if b >= 0 else 0
                assert F(v, den * sys.scales((b,))) == sys.p_value(b, x, r) == want, (b, x, r)
        for y in (F(1, 9), F(-22, 7), F(9, 2)):
            nums, den = q_row(sys, cols, y, r)
            assert den > 0 and q_row(sys, cols, y.numerator, r, y.denominator) == (nums, den)
            for b, v in zip(cols, nums):
                got = F(v, den * sys.scales((b,)))
                if b < 0:
                    power = UniPoly.variable() ** (-b - 1)
                    assert got == power.derivative(r).eval(y) / math.factorial(r), (b, y, r)
                    continue
                p = sys.p(b)
                want = sum((w * p.eval(u) * (-1) ** r / (y - u) ** (r + 1) for u, w in f.atoms),
                           F(0))
                assert got == q_exact(sys, b, y, r) == want, (b, y, r)


def test_q_exact_refuses_negative_index():
    # q_b(y) = y^(-b-1) for b < 0 is a convention the row builder applies
    # itself; q_exact must not return a value that contradicts it
    sys = build_ortho_system(FiniteAtomFunctional([(0, 1), (1, 2)]), 1)
    for n in (-1, -2):
        with pytest.raises(ValueError, match=r"y\^"):
            q_exact(sys, n, F(1, 3))
    with pytest.raises(ValueError):
        q_row(sys, (2,), F(1, 3))


def _fractional_system(depth):
    rng = random.Random(5)
    while True:
        f = SequenceFunctional(F(rng.randint(-9, 9), rng.choice((1, 2, 3, 7))) for _ in range(30))
        try:
            return build_ortho_system(f, depth)
        except DegenerateFunctionalError:
            continue


def test_q_series_integer_route_matches_fraction_sums():
    # the definition sum_{i>=n} L(p_n u^i) y^(-i-1) with L(p_n u^i) as a
    # plain Fraction sum over the moments
    sys = _fractional_system(5)
    f = sys.functional
    assert any(f.moment(t).denominator > 1 for t in range(30))
    T = 14
    variables = ("y1", "y2", "y3")
    for n in range(6):
        for slot in range(3):
            want = {}
            for i in range(T - 1):
                c = sum(pc * f.moment(i + r) for r, pc in enumerate(sys.p(n).coeffs))
                if i < n:
                    assert c == 0
                elif c:
                    exps = [0, 0, 0]
                    exps[slot] = i + 1
                    want[tuple(exps)] = c
            s = q_series(sys, n, T, variables, slot)
            assert (s.terms, s.trunc, s.cap) == (want, T, T)
            assert all(type(c) is int or c.denominator > 1 for c in s.terms.values())
            assert any(c.denominator > 1 for c in s.terms.values())
    assert q_series(sys, 3, 1).terms == {} and q_series(sys, 3, 1).trunc == 1


def test_q_series_integral_coefficients_are_ints():
    s = q_series(cheb_system(4), 2, 12)
    assert s.terms and all(type(c) is int for c in s.terms.values())
    assert s.coefficient((3,)) == 1      # H(3)/H(2) = 1 for the Catalan moments


def test_q_series_tampered_moment_breaks_orthogonality():
    # the same p_n against a functional with one moment changed: some
    # L(p_n u^i), i < n, is no longer zero and q_series must refuse
    sys = _fractional_system(4)
    moments = [sys.functional.moment(i) for i in range(sys.functional.horizon + 1)]
    moments[3] += F(1, 2)
    bad = OrthoSystem(
        SequenceFunctional(moments), sys.depth, sys.s, sys.t, sys.int_polys, sys.norms
    )
    q_series(bad, 1, 10)  # L(p_1 u^0) = mu_1 - s_0 mu_0 does not read mu_3
    for n in (2, 3, 4):
        with pytest.raises(ArithmeticError, match="orthogonality violated"):
            q_series(bad, n, 10)


def test_q_series_refuses_negative_index():
    # the series twin of q_exact: n = -1 used to return the zero series
    # against q_{-1}(y) = 1, and n = -2 the wrong error
    sys = build_ortho_system(ChebyshevCatalanFunctional(), 3)
    for n in (-1, -2, -3):
        with pytest.raises(ValueError, match=r"y\^"):
            q_series(sys, n, 6)


def _rational_function_derivative(num, den, order):
    """(num/den)' iterated: exact quotient-rule oracle over UniPoly pairs."""
    for _ in range(order):
        num, den = num.derivative() * den - num * den.derivative(), den * den
    return num, den


def test_q_derivative_against_symbolic_oracle(rng):
    f = random_atom_functional(rng, 6, hankel_nonzero_upto=6)
    sys = build_ortho_system(f, 4)
    y = UniPoly.variable("y")
    for n in range(4):
        # q_n(y) = A(y)/B(y) with B = prod(y - u_a)
        B = UniPoly.one("y")
        for u in f.nodes:
            B = B * (y - u)
        A = UniPoly.zero("y")
        for u, w in f.atoms:
            term = UniPoly.constant(w * sys.p(n).eval(u), "y")
            for v in f.nodes:
                if v != u:
                    term = term * (y - v)
            A = A + term
        for order in (1, 2, 3):
            num, den = _rational_function_derivative(A, B, order)
            for point in (F(1, 3), F(17, 4)):
                assert q_exact(sys, n, point, order) * math.factorial(order) == num.eval(
                    point
                ) / den.eval(point)


def test_q_derivative_finite_difference(rng):
    # central difference with rational step h = 1/1024 is O(h^2): halving h
    # divides the error by about 4
    f = random_atom_functional(rng, 5, hankel_nonzero_upto=5)
    sys = build_ortho_system(f, 3)
    y = F(31, 3)
    h = F(1, 1024)
    exact = q_exact(sys, 2, y, 1) * math.factorial(1)

    def fd(step):
        return (q_exact(sys, 2, y + step) - q_exact(sys, 2, y - step)) / (2 * step)

    err_h = abs(fd(h) - exact)
    err_half = abs(fd(h / 2) - exact)
    assert err_h < F(1, 1024)
    if err_half:
        ratio = err_h / err_half
        assert F(7, 2) < ratio < F(9, 2)
