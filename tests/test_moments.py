import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from opident.moments import (
    ChebyshevCatalanFunctional,
    DomainError,
    FiniteAtomFunctional,
    ModeError,
    MomentHorizonError,
    PoleAtAtomError,
    SequenceFunctional,
    catalan,
    functional_from_json,
    random_atom_functional,
)
from opident.ring import InverseSeries, RingMatrix, UniPoly, det_generic, det_rational

from conftest import bruteforce_det

F = Fraction


def two_atom():
    return FiniteAtomFunctional([(1, F(1, 2)), (-1, F(1, 2))])


# ---------------------------------------------------------------------------
# Moments
# ---------------------------------------------------------------------------

def test_catalan_numbers():
    assert [catalan(n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]


def test_chebyshev_moments():
    f = ChebyshevCatalanFunctional()
    assert f.moment(8) == 14  # C_4
    assert f.moment(5) == 0
    assert f.moment(0) == 1


def test_atom_moments():
    f = two_atom()
    assert f.moment(2) == 1
    assert f.moment(1) == 0
    assert f.moment(7) == 0
    assert f.moment(6) == 1


def test_atom_validation():
    with pytest.raises(ValueError):
        FiniteAtomFunctional([(1, 1), (1, 2)])
    with pytest.raises(ValueError):
        FiniteAtomFunctional([(1, 0)])


def test_sequence_horizon_is_hard():
    f = SequenceFunctional([1, 0, F(1, 2)])
    assert f.moment(2) == F(1, 2)
    with pytest.raises(MomentHorizonError):
        f.moment(3)
    with pytest.raises(MomentHorizonError):
        f.apply(UniPoly.from_coeffs([0, 0, 0, 1]))


_FRACTIONAL_ATOMS = Path(__file__).parent / "golden" / "atoms8-fractional.json"
_FRACTIONAL_SEQUENCE = [F(3, 2), F(-1, 3), 2, F(5, 7), 0, F(-9, 4)]


def _moment_row_case(backend):
    """(functional, its moments up to 12 or its horizon, computed without
    it)."""
    if backend == "atoms":
        f = functional_from_json(_FRACTIONAL_ATOMS.read_text())
        return f, [sum(w * u**i for u, w in f.atoms) for i in range(12)]
    if backend == "sequence":
        return SequenceFunctional(_FRACTIONAL_SEQUENCE), _FRACTIONAL_SEQUENCE
    return ChebyshevCatalanFunctional(), [catalan(i // 2) * (1 - i % 2) for i in range(12)]


@pytest.mark.parametrize("backend", ["atoms", "sequence", "chebyshev"])
def test_moment_row_is_the_moments_over_one_denominator(backend):
    f, expected = _moment_row_case(backend)
    count = len(expected)
    mu, den = f.moment_row(count)
    assert den > 0 and all(type(m) is int for m in mu)
    assert [F(m, den) for m in mu] == expected
    assert [f.moment(i) for i in range(count)] == expected
    assert list(f.moment_row(0)[0]) == []
    if f.horizon is None:
        assert len(f.moment_row(3 * count)[0]) == 3 * count
    else:
        with pytest.raises(MomentHorizonError, match=rf"^moment {count} requested"):
            f.moment_row(count + 1)


# ---------------------------------------------------------------------------
# Linearity / apply
# ---------------------------------------------------------------------------

def test_apply_examples():
    f = ChebyshevCatalanFunctional()
    assert f.apply(UniPoly.one()) == 1  # mu_0
    # (x^2 - 1)^2: mu_4 - 2 mu_2 + mu_0 = 2 - 2 + 1 = 1 (the norm of p_2)
    u2 = UniPoly.from_coeffs([-1, 0, 1])
    assert f.apply(u2 * u2) == 1
    # (x^2 - 1) * x has odd degree terms only
    assert f.apply(u2 * UniPoly.variable()) == 0


def test_apply_is_linear(rng):
    f = random_atom_functional(rng, 5)
    p = UniPoly.from_coeffs([rng.randint(-5, 5) for _ in range(4)])
    q = UniPoly.from_coeffs([rng.randint(-5, 5) for _ in range(6)])
    a, b = F(3, 7), F(-2)
    assert f.apply(a * p + b * q) == a * f.apply(p) + b * f.apply(q)


# ---------------------------------------------------------------------------
# Hankel determinants
# ---------------------------------------------------------------------------

def test_hankel_det_examples():
    f = ChebyshevCatalanFunctional()
    assert f.hankel_det(0) == 1
    expected = bruteforce_det([[f.moment(i + j) for j in range(4)] for i in range(4)])
    assert f.hankel_det(4) == expected == 1
    # two atoms: moments satisfy a length-3 linear recurrence, so H(3) = 0
    assert two_atom().hankel_det(3) == 0


def test_hankel_memoization_is_consistent():
    f = ChebyshevCatalanFunctional()
    first = f.hankel_det(5)
    assert f.hankel_det(5) is first


def test_hankel_cache_concurrent_readers(rng):
    import threading

    f = random_atom_functional(rng, 6)
    expected = {n: None for n in range(7)}
    errors = []

    def reader():
        try:
            for n in range(7):
                v = f.hankel_det(n)
                if expected[n] is None:
                    expected[n] = v
                elif expected[n] != v:
                    errors.append(n)
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=reader) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors


def test_atom_moment_table_concurrent_fill():
    # The atom backend keeps no moment table: each moment is a fresh integer
    # power sum.  Concurrent readers of a fresh functional must still agree.
    import sys
    import threading

    atoms = [(F(u, 3), F(w, 2)) for u, w in zip(range(-4, 4), (3, -1, 2, 5, -2, 1, 4, 7))]
    count = 40
    expected = [sum((w * u**n for u, w in atoms), F(0)) for n in range(count)]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            f = FiniteAtomFunctional(atoms)
            barrier = threading.Barrier(6)
            results = []

            def reader():
                barrier.wait(timeout=10)
                results.append([f.moment(n) for n in range(count)])

            threads = [threading.Thread(target=reader) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert len(results) == len(threads)
            assert all(r == expected for r in results)
            assert [f.moment(n) for n in range(count)] == expected
    finally:
        sys.setswitchinterval(old_interval)


def test_hankel_memo_concurrent_first_fill():
    # test_hankel_cache_concurrent_readers never races: random_atom_functional
    # has already filled the memo.  The memo is the only shared state of a
    # functional; here 6 threads fill it on a fresh one.
    import sys
    import threading

    atoms = [(F(u, 3), F(w, 2)) for u, w in zip(range(-4, 4), (3, -1, 2, 5, -2, 1, 4, 7))]
    moments = [sum((w * u**t for u, w in atoms), F(0)) for t in range(19)]
    expected = [det_rational(RingMatrix.hankel(moments, n)) for n in range(10)]
    assert expected[8] and not expected[9]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            f = FiniteAtomFunctional(atoms)
            barrier = threading.Barrier(6)
            results = []

            def reader():
                barrier.wait(timeout=10)
                results.append([f.hankel_det(n) for n in range(10)])

            threads = [threading.Thread(target=reader) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert len(results) == len(threads)
            assert all(r == expected for r in results)
            assert sorted(f._hankel_cache) == list(range(10))
    finally:
        sys.setswitchinterval(old_interval)


# ---------------------------------------------------------------------------
# Modified moments, exact mode
# ---------------------------------------------------------------------------

def test_modified_moment_reduces_to_moment(rng):
    f = random_atom_functional(rng, 6)
    for n in range(6):
        assert f.modified_moment(n) == f.moment(n)


def test_modified_moment_single_atom():
    f = FiniteAtomFunctional([(0, 1)])
    assert f.modified_moment(0, xs=[3], ys=[2]) == F(3, 2)


def test_modified_moment_pole():
    f = FiniteAtomFunctional([(0, 1), (2, F(1, 2))])
    with pytest.raises(PoleAtAtomError):
        f.modified_moment(1, ys=[2])


@pytest.mark.parametrize(
    "ys, named",
    [((2, F(1, 2)), "1/2"), ((F(1, 2), 2), "1/2"), ((-1, 2), "2"), ((F(7, 3), -1, 2), "2")],
)
def test_pole_names_the_y_on_the_first_atom_node_hit(ys, named):
    # several ys on atom nodes: the error names the y on the first node in
    # atom order, whatever the order of the ys
    f = FiniteAtomFunctional([(F(1, 2), 3), (2, 1), (-1, 5)])
    with pytest.raises(PoleAtAtomError, match=rf"^y = {named} is an atom node$"):
        f.modified_hankel_det(1, (3,), ys)


@pytest.mark.parametrize(
    "f", [two_atom(), SequenceFunctional(range(1, 30)), ChebyshevCatalanFunctional()],
    ids=["atoms", "sequence", "chebyshev"],
)
def test_negative_modified_moment_index_is_refused(f):
    # there is no u^(-1) moment; a negative index must not read a shifted row
    with pytest.raises(ValueError, match="^moment index must be non-negative$"):
        f.modified_moment(-1)
    with pytest.raises(ValueError, match="^moment index must be non-negative$"):
        f.modified_moment_series(-1, (), ("y1",), 5)


def test_modified_moment_needs_atoms_for_poles():
    f = ChebyshevCatalanFunctional()
    with pytest.raises(ModeError):
        f.modified_moment(0, ys=[F(1, 3)])


def test_modified_moment_multilinear_consistency(rng):
    # appending a zero of the density at x = 0 shifts the moment index
    f = random_atom_functional(rng, 6)
    ys = (F(1, 3), F(-2, 3))
    for i in range(4):
        assert f.modified_moment(i, xs=(0, F(5, 2)), ys=ys) == f.modified_moment(
            i + 1, xs=(F(5, 2),), ys=ys
        )
    cheb = ChebyshevCatalanFunctional()
    for i in range(4):
        assert cheb.modified_moment(i, xs=(0,)) == cheb.moment(i + 1)


def test_modified_hankel_det_reductions(rng):
    f = random_atom_functional(rng, 6)
    assert f.modified_hankel_det(0, xs=(1,), ys=(F(1, 3),)) == 1
    for n in range(4):
        assert f.modified_hankel_det(n) == f.hankel_det(n)


def _fraction_modified_moment(f, i, xs, ys):
    """L(u^i prod(u - x) / prod(u - y)) summed over the atoms in Fractions."""
    total = F(0)
    for u, w in f.atoms:
        term = w * u**i
        for x in xs:
            term *= u - x
        for y in ys:
            term /= u - y
        total += term
    return total


def test_modified_hankel_det_matches_fraction_hankel_on_fractional_nodes():
    # the one integer Bareiss run over D^n, the powers of the node scale B
    # kept in the entries, against det_rational of the Hankel matrix of
    # modified moments summed in Fractions; B = 210 here
    path = Path(__file__).parent / "golden" / "atoms8-fractional.json"
    f = functional_from_json(path.read_text())
    assert f.node_scale == 210
    params = [
        ((), ()),
        ((F(1, 2),), ()),
        ((), (F(1, 9),)),
        ((F(3, 4), F(-5, 3)), (F(2, 9), F(-7, 9), F(4, 9))),
        ((F(1, 4), F(7, 6), F(-2, 9)), (F(5, 9),)),
    ]
    for xs, ys in params:
        mm = [_fraction_modified_moment(f, i, xs, ys) for i in range(9)]
        for n in range(5):
            assert f.modified_hankel_det(n, xs, ys) == det_rational(RingMatrix.hankel(mm, n))


def test_modified_hankel_det_on_moment_sequences():
    # the other backends reach the same Bareiss run through _modified_row;
    # the oracle applies the functional to u^i prod(u - x) in Fractions
    seq = SequenceFunctional(F(k * k - 7, 1 + k % 4) for k in range(12))
    cheb = ChebyshevCatalanFunctional()
    u = UniPoly.variable("u")
    for f in (seq, cheb):
        for xs in ((), (F(1, 2),), (F(2, 3), -3)):
            poly = UniPoly.one("u")
            for x in xs:
                poly = poly * (u - x)
            mm = [f.apply(poly * u**i) for i in range(7)]
            assert [f.modified_moment(i, xs) for i in range(7)] == mm
            for n in range(4):
                assert f.modified_hankel_det(n, xs) == det_rational(RingMatrix.hankel(mm, n))


# ---------------------------------------------------------------------------
# Modified moments, series mode
# ---------------------------------------------------------------------------

def test_modified_moment_series_chebyshev():
    f = ChebyshevCatalanFunctional()
    s = f.modified_moment_series(0, (), ("y1",), 6)
    assert s.coefficient((1,)) == -1
    assert s.coefficient((3,)) == -1   # -C_1
    assert s.coefficient((5,)) == -2   # -C_2
    assert s.coefficient((2,)) == 0
    assert s.trunc == 6


def test_series_mode_matches_exact_substitution(rng):
    # (y - u) * series(1/(y - u)) == 1 up to truncation: the generating
    # identity behind the geometric expansion, checked over Q[u][w].
    T = 9
    u = UniPoly.variable("u")
    v = ("y1",)
    geom = InverseSeries(v, {(t + 1,): u**t for t in range(T - 1)}, T)
    y_minus_u = InverseSeries.plain_variable(v, 0) - InverseSeries.constant(v, u)
    prod = y_minus_u * geom
    one = InverseSeries.constant(v, UniPoly.one("u"))
    assert prod.equal_up_to(one, T)


def test_series_agrees_with_atom_mode_coefficientwise(rng):
    # For a finite-atom functional, the series coefficients are themselves
    # exact modified moments with one more power of u.
    f = random_atom_functional(rng, 5)
    xs = (F(3, 2),)
    s = f.modified_moment_series(2, xs, ("y1",), 10)
    for e in range(1, 10):
        # coefficient of y^(-e): -L(u^(2 + e - 1) * (u - x))
        assert s.coefficient((e,)) == -f.modified_moment(2 + e - 1, xs)


def test_series_horizon_demand():
    f = SequenceFunctional(range(1, 12))  # horizon 10
    # demand i + m + (T - 1 - k) = 2 + 1 + 6 = 9 <= 10: fine
    f.modified_moment_series(2, (1,), ("y1",), 8)
    with pytest.raises(MomentHorizonError):
        f.modified_moment_series(4, (1,), ("y1",), 8)


def test_series_horizon_error_names_the_largest_demanded_moment():
    # entry 6 needs r_j up to j = 6 + (8 - 1 - 1), i.e. moments up to 13;
    # the per-moment check alone would stop at moment 11
    f = SequenceFunctional(range(1, 12))  # horizon 10
    with pytest.raises(MomentHorizonError, match=r"^moment 13 requested, horizon is 10$"):
        f.modified_moment_series(6, (1,), ("y1",), 8)


def test_modified_hankel_horizon_error_names_the_largest_demanded_moment():
    # H(6) of two-x modified moments needs moments up to 2*6 - 2 + 2 = 12
    f = SequenceFunctional(range(1, 11))  # horizon 9
    with pytest.raises(MomentHorizonError, match=r"^moment 12 requested, horizon is 9$"):
        f.modified_hankel_det(6, (F(1, 2), 3))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_modified_series_row_is_built_clean(k):
    # modified_moment_series skips InverseSeries validation: the validating
    # constructor must find nothing to drop
    f = random_atom_functional(random.Random(k), 6)
    variables = tuple(f"y{l + 1}" for l in range(k))
    row = [f.modified_moment_series(i, (F(1, 2), F(-3)), variables, 9) for i in range(1, 5)]
    assert any(s.terms for s in row)
    for s in row:
        checked = InverseSeries(variables, s.terms, 9, cap=9)
        assert (s.variables, s.terms, s.trunc, s.cap) == (
            checked.variables, checked.terms, checked.trunc, checked.cap
        )


def test_modified_hankel_series_leading_term(rng):
    # lowest-total-degree coefficient of the series Hankel det: the
    # coefficient of prod w_l^n is (-1)^(nk) c_() / D^n, and c_() / D^n
    # equals H(n) when m = 0.
    f = random_atom_functional(rng, 6)
    for n, k in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        variables = tuple(f"y{i}" for i in range(k))
        coeffs, den = f.modified_hankel_det_series(n, (), variables, 12)
        assert F(coeffs[(0,) * k], den) == f.hankel_det(n)


def test_modified_hankel_series_leading_term_formal_x():
    # m = 1 with a formal x: the top term in the w's carries the polynomial
    # (-1)^(n(1-k)) H(n) x^n + lower x-degrees (series over Q[x] coefficients).
    f = ChebyshevCatalanFunctional()
    n, k = 2, 1
    v = ("y1",)
    x = UniPoly.variable("xf")
    T = 10
    entries = {}
    for s in range(2 * n - 1):
        terms = {}
        for e in range(1, T):
            # coefficient of w^e: -L(u^(s + e - 1) (u - x))
            terms[(e,)] = -(f.moment(s + e) - x * f.moment(s + e - 1))
        entries[s] = InverseSeries(v, terms, T)
    from opident.ring import RingMatrix, det_generic

    mat = RingMatrix(n, n, [entries[i + j] for i in range(n) for j in range(n)])
    d = det_generic(mat, one=InverseSeries.constant(v, UniPoly.one("xf")))
    top = d.coefficient((n,) * k)
    sign = (-1) ** ((n * (1 - k)) % 2)
    assert top.coefficient(n) == sign * f.hankel_det(n)


def _series_oracle(f, i, xs, variables, truncation):
    """The docstring formula term by term: the coefficient of prod y_l^(-e_l),
    all e_l >= 1, is (-1)^k L(u^(i + sum(e_l - 1)) prod(u - x_l)), through
    f.apply on an explicit polynomial."""
    k = len(variables)
    u = UniPoly.variable("u")
    terms = {}
    for e in itertools.product(range(1, truncation), repeat=k):
        if sum(e) >= truncation:
            continue
        poly = u ** (i + sum(e) - k)
        for x in xs:
            poly = poly * (u - F(x))
        terms[e] = (-1) ** k * f.apply(poly)
    return InverseSeries(variables, terms, truncation, cap=truncation)


def _check_schur(got, det, n, variables, truncation):
    """modified_hankel_det_series's ({mu: c_mu}, D^n) against the oracle
    det of the modified-moment series: by the bialternant formula
    det * a_delta(z), a_delta = prod_{i<j} (z_i - z_j), is (-1)^(nk)
    sum_mu c_mu a_(mu+delta+n)(z) / D^n, with the alternant a_e(z) =
    sum_sigma sgn(sigma) z^sigma(e), below total degree T + binom(k, 2)."""
    k = len(variables)
    coeffs, den = got
    assert all(sum(mu) < truncation - n * k for mu in coeffs)
    z = [InverseSeries.monomial(variables, [int(i == l) for i in range(k)], 1) for l in range(k)]
    a_delta = InverseSeries.one(variables)
    for i in range(k):
        for j in range(i + 1, k):
            a_delta = a_delta * (z[i] - z[j])
    want = InverseSeries(variables, det.terms, det.trunc) * a_delta  # uncapped
    assert want.trunc in (None, truncation + k * (k - 1) // 2)
    terms = {}
    for mu, c in coeffs.items():
        e = [part + k - 1 - i + n for i, part in enumerate(mu)]
        for p in itertools.permutations(range(k)):
            inversions = sum(a > b for i, a in enumerate(p) for b in p[i + 1 :])
            terms[tuple(e[i] for i in p)] = (-1) ** (n * k + inversions) * F(c, den)
    assert terms == want.terms


def _fractional_sequence():
    rng = random.Random(7)
    return SequenceFunctional(
        F(rng.randint(-9, 9), rng.choice((1, 2, 3, 5))) for _ in range(24)
    )


_ROW_FUNCTIONALS = {
    "fractional-sequence": _fractional_sequence,
    "chebyshev": ChebyshevCatalanFunctional,
}


@pytest.mark.parametrize("functional", sorted(_ROW_FUNCTIONALS))
@pytest.mark.parametrize("xs", [(), (2, -3), (F(1, 2), F(-2, 3))], ids=["m0", "int", "frac"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_modified_moment_row_matches_formula(functional, xs, k):
    f = _ROW_FUNCTIONALS[functional]()
    variables = tuple(f"y{l}" for l in range(k))
    truncation = {1: 12, 2: 10, 3: 8}[k]
    oracle = {s: _series_oracle(f, s, xs, variables, truncation) for s in range(7)}
    for s, want in oracle.items():
        got = f.modified_moment_series(s, xs, variables, truncation)
        assert (got.terms, got.trunc, got.cap) == (want.terms, want.trunc, want.cap)
        # integral values come back as ints, the rest as Fractions
        assert all(type(c) is int or c.denominator > 1 for c in got.terms.values())
    for n in range(5):
        got = f.modified_hankel_det_series(n, xs, variables, truncation)
        mat = RingMatrix.hankel([oracle[s] for s in range(2 * n - 1)], n)
        _check_schur(got, det_generic(mat, InverseSeries.one(variables)), n, variables,
                     truncation)


def _singular_block_sequence(n):
    # r = mu with xs = (): moments 0 .. 2n-4 are sum_b b^j over n - 2 bases
    # b, so the leading (n-1) x (n-1) Hankel block of r has rank n - 2
    rng = random.Random(n)
    head = [sum(b**j for b in (1, 2)[: n - 2]) for j in range(2 * n - 3)]
    return SequenceFunctional(head + [rng.randint(-3, 3) for _ in range(24 - len(head))])


@pytest.mark.parametrize("n, k", [(n, k) for n in (1, 2, 3, 4) for k in (1, 2, 3, 4)
                                  if k < 4 or n < 4])
@pytest.mark.parametrize(
    "row, xs",
    [(lambda n: _fractional_sequence(), (F(1, 2), F(-2, 3))), (_singular_block_sequence, ())],
    ids=["frac", "singular-block"],
)
def test_modified_hankel_det_series_matches_oracle(row, xs, n, k):
    # The Cauchy-Binet route against det_generic on the Hankel matrix of the
    # term-by-term oracle, times a_delta: three degrees past T' = T - nk
    # (n = 1 < k - 1 at k = 3 and n <= 2 < k - 1 at k = 4 included), and
    # every T with T' <= 0, T <= k among them.  k = 4 stops at n = 3: the
    # oracle's cost grows steeply with nk.
    f = row(n)
    variables = tuple(f"y{l}" for l in range(k))
    for truncation in [*range(1, n * k + 1), n * k + 3]:
        oracle = [_series_oracle(f, s, xs, variables, truncation) for s in range(2 * n - 1)]
        want = det_generic(RingMatrix.hankel(oracle, n), InverseSeries.one(variables))
        got = f.modified_hankel_det_series(n, xs, variables, truncation)
        _check_schur(got, want, n, variables, truncation)
    assert got[0]


def test_modified_hankel_det_series_refuses_no_variables():
    f = _fractional_sequence()
    with pytest.raises(DomainError, match=r"^series mode needs at least one formal y$"):
        f.modified_hankel_det_series(2, (), (), 20)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_modified_hankel_det_series_is_the_schur_minors(n, k):
    # Any k, against the docstring formula taken one minor at a time:
    # c_mu / D^n = det[m_(rho_a + j)] over the Fraction modified moments m_s
    # (by f.apply), rho_a = mu_(n-a) + a, for every partition mu of at most
    # min(n, k) parts with |mu| < T - nk; the zero minors are left out.
    f = _fractional_sequence()
    xs = (F(1, 2), F(-2, 3))
    truncation = n * k + 4
    u = UniPoly.variable("u")
    base = (u - xs[0]) * (u - xs[1])
    moment = [f.apply(u**s * base) for s in range(2 * n + 4)]
    coeffs, den = f.modified_hankel_det_series(n, xs, tuple(f"y{l}" for l in range(k)),
                                               truncation)
    want = {}
    for mu in itertools.product(range(truncation - n * k), repeat=k):
        if list(mu) != sorted(mu, reverse=True) or sum(mu) >= truncation - n * k or any(mu[n:]):
            continue
        rho = [part + a for a, part in enumerate((list(mu) + [0] * n)[n - 1 :: -1])]
        value = bruteforce_det([[moment[r + j] for j in range(n)] for r in rho])
        if value:
            want[mu] = value
    assert {mu: F(c, den) for mu, c in coeffs.items()} == want
    assert want


@pytest.mark.parametrize("k", [1, 2, 3])
def test_modified_moment_row_below_degree_k_is_zero(k):
    # truncation <= k leaves no exponent vector with every e_l >= 1 below it
    f = _fractional_sequence()
    variables = tuple(f"y{l}" for l in range(k))
    for truncation in range(1, k + 1):
        s = f.modified_moment_series(1, (2,), variables, truncation)
        assert (s.terms, s.trunc, s.cap) == ({}, truncation, truncation)
        for n in (1, 2, 3):
            assert f.modified_hankel_det_series(n, (2,), variables, truncation) == ({}, 1)
    # the 0 x 0 det is 1 = s_(), with or without an x
    for xs in ((2,), ()):
        assert f.modified_hankel_det_series(0, xs, variables, 1) == ({(0,) * k: 1}, 1)


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

def test_json_round_trip_atoms():
    f = FiniteAtomFunctional([(F(1, 2), 1), (-1, F(2, 3))])
    g = functional_from_json(json.dumps(f.to_json_dict()))
    assert isinstance(g, FiniteAtomFunctional)
    assert g.atoms == f.atoms


def test_json_round_trip_sequence_and_chebyshev():
    f = SequenceFunctional([1, 0, F(1, 2)])
    g = functional_from_json(json.dumps(f.to_json_dict()))
    assert g.moment_row(3) == f.moment_row(3)
    assert isinstance(
        functional_from_json('{"type":"chebyshev"}'), ChebyshevCatalanFunctional
    )


def test_json_rejects_garbage():
    with pytest.raises(ValueError):
        functional_from_json('{"no_type": 1}')
    with pytest.raises(ValueError):
        functional_from_json('{"type": "wavelet"}')
    with pytest.raises(json.JSONDecodeError):
        functional_from_json("{nope")


# ---------------------------------------------------------------------------
# Random generation contract
# ---------------------------------------------------------------------------

def test_random_atom_functional_contract():
    rng = random.Random(4)
    f = random_atom_functional(rng, 8, hankel_nonzero_upto=8)
    assert len(f.atoms) == 8
    nodes = [u for u, _ in f.atoms]
    assert len(set(nodes)) == 8
    assert all(-9 <= u <= 9 and u.denominator == 1 for u in nodes)
    assert all(w != 0 for _, w in f.atoms)
    assert all(f.hankel_det(j) != 0 for j in range(1, 9))


def test_random_atom_functional_refuses_vanishing_minors():
    # H(j) = 0 for every j above the atom count, so no redraw could succeed.
    with pytest.raises(ValueError, match="H\\(9\\)"):
        random_atom_functional(random.Random(4), 8, hankel_nonzero_upto=9)


def test_random_atom_functional_normalized():
    rng = random.Random(4)
    f = random_atom_functional(rng, 6, hankel_nonzero_upto=6, normalize=True)
    assert f.moment(0) == 1
