from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opident import chebyshev
from opident.chebyshev import (
    A_GRID,
    B_GRID,
    ChebyshevRun,
    _det_shifted_identity,
    _entry_7_16,
    _entry_7_17,
    _entry_7_18,
    _rank_one_det,
    _rank_one_minors,
    central_weight,
    chebU_classical,
    chebU_monic,
    closed_form_suite,
    conjecture16_check,
    modified_moment_cheb,
    q_cheb,
    row_7_10,
    row_7_11,
    row_7_12,
    row_7_15,
    row_7_16,
    run_chebyshev_suite,
    theorem14_eval,
    theorem15_eval,
)
from opident.identity import VerificationReport
from opident.moments import ChebyshevCatalanFunctional, catalan
from opident.orthopoly import build_ortho_system
from opident import ring
from opident.ring import (RingMatrix, UniPoly, binomial, det_generic, det_int, det_poly,
                          integer_form, ratio)

from conftest import bruteforce_det

F = Fraction


def _rank_one_hankel_det(entries, r: int, n: int, divisor: int, var: str) -> UniPoly:
    """The per-n oracle: det of the n x n Hankel matrix of the integer
    V-linear entries (K_s, c r^s) over the divisor, as det K - V c det[[K, u],
    [u^T, 0]] with u_i = r^i, two det_int calls at this n alone."""
    consts, coeffs = zip(*entries)
    c = coeffs[0]
    if any(x != c * r**s for s, x in enumerate(coeffs)):
        raise ArithmeticError("variable part of the Hankel entries is not rank one")
    rows = [list(consts[i : i + n]) for i in range(n)]
    u = [r**i for i in range(n)]
    lin = -c * det_int([row + [ui] for row, ui in zip(rows, u)] + [u + [0]]) if c else 0
    return UniPoly([ratio(det_int(rows), divisor), ratio(lin, divisor)], var)


def _sigma(a, b, n):
    """The integer 7.13 entries (K_s, c_s) of size n, as theorem15_eval forms them."""
    rows, d = chebyshev._cheb_row(2 * n, a)
    return [tuple(b.denominator * hi - b.numerator * d * lo for hi, lo in zip(r1, r0))
            for r0, r1 in zip(rows, rows[1:])]


# ---------------------------------------------------------------------------
# Monic Chebyshev polynomials
# ---------------------------------------------------------------------------

def test_chebU_monic_small():
    assert chebU_monic(-1).is_zero
    assert chebU_monic(0) == UniPoly.one()
    assert chebU_monic(2) == UniPoly.from_coeffs([-1, 0, 1])
    assert chebU_monic(3) == UniPoly.from_coeffs([0, -2, 0, 1])


def test_chebU_values_at_special_points():
    for n in range(9):
        # U_n(1) = n + 1: the monic polynomial at argument 2
        assert chebU_monic(n).eval(F(2)) == n + 1
        v = chebU_monic(n).eval(F(0))
        if n % 2:
            assert v == 0
        else:
            assert v == (-1) ** (n // 2)
    # U_n(1/2) has period 6: 1, 1, 0, -1, -1, 0
    pattern = [1, 1, 0, -1, -1, 0]
    for n in range(12):
        assert chebU_classical(n, F(1, 2)) == pattern[n % 6]


def test_chebU_matches_orthogonal_system():
    sys = build_ortho_system(ChebyshevCatalanFunctional(), 7)
    for n in range(8):
        assert chebU_monic(n) == sys.p(n)


# ---------------------------------------------------------------------------
# Modified moments and q over Q[X]
# ---------------------------------------------------------------------------

def test_modified_moment_cheb_examples():
    assert modified_moment_cheb(0, F(1, 7)) == UniPoly([F(0), F(1)], "X")  # X
    assert modified_moment_cheb(2, F(-1)) == UniPoly([F(2), F(4)], "X")  # 4X + 2


def test_modified_moment_cheb_contiguous_relation():
    # rho_{n+1} = -2a rho_n + [n even] C_{n/2}: the telescoping behind the
    # closed form, from u^{n+1}/(u+2a) = u^n - 2a u^n/(u+2a)
    for a in (F(-1), F(2), F(1, 3)):
        for n in range(8):
            lhs = modified_moment_cheb(n + 1, a)
            rhs = (-2 * a) * modified_moment_cheb(n, a)
            if n % 2 == 0:
                rhs = rhs + catalan(n // 2)
            assert lhs == rhs


def test_q_cheb_examples():
    assert q_cheb(0, F(5, 3)) == UniPoly([F(0), F(-1)], "X")  # -X
    assert q_cheb(1, F(-1)) == UniPoly([F(-1), F(-2)], "X")  # -(2X + 1)


def test_q_cheb_three_term_recurrence():
    # with s = 0, t = 1 and y = -2a: q_n(y) = y q_{n-1}(y) - q_{n-2}(y)
    for a in (F(-1), F(1, 2), F(3)):
        y = -2 * a
        for n in range(2, 8):
            assert q_cheb(n, a) == y * q_cheb(n - 1, a) - q_cheb(n - 2, a)


def test_q_cheb_matches_exact_series_route():
    # coefficient check against the generic machinery: q_n(-2a) has the
    # series expansion with coefficients L(p_n u^i); compare by clearing X
    # via the atomless structural identity at small n through theorem14
    r = theorem14_eval(1, F(7, 5))
    assert r.equal and r.lhs == UniPoly([F(0), F(1)], "X")


# ---------------------------------------------------------------------------
# The two X-linear Hankel evaluations
# ---------------------------------------------------------------------------

def test_theorem14_base_case():
    r = theorem14_eval(1, F(-1))
    assert r.equal
    assert r.lhs == UniPoly([F(0), F(1)], "X")


@pytest.mark.parametrize("a", [F(-1), F(2), F(1, 2), F(-3, 5)])
def test_theorem14_grid(a):
    for n in range(1, 8):
        r = theorem14_eval(n, a)
        assert r.equal, (n, a)
        assert r.lhs.degree <= 1  # X-degree bound: the replacement argument


def test_theorem14_against_generic_determinant():
    # cross-check the two integer determinants over d^(n(n-1)) against
    # the division-free one on the Fraction Hankel matrix; a = -1 has d = 1
    for a in (F(-1), F(1, 2), F(-3, 5)):
        for n in range(1, 5):
            rho = [modified_moment_cheb(s, a) for s in range(2 * n - 1)]
            mat = RingMatrix.hankel(rho, n)
            direct = det_generic(mat, one=UniPoly.one("X"))
            assert direct == theorem14_eval(n, a).lhs


def test_theorem15_against_generic_determinant():
    # the same oracle for the 7.13 determinant of rho_{s+1} - b rho_s, whose
    # integer form is over b_den^n d^(n^2)
    for a in (F(-1), F(1, 2), F(-3, 5)):
        for b in (F(0), F(1, 3)):
            for n in range(1, 5):
                rho = [modified_moment_cheb(s, a) for s in range(2 * n)]
                sigma = [
                    UniPoly([rho[s + 1].coefficient(i) - b * rho[s].coefficient(i)
                             for i in (0, 1)], "X")
                    for s in range(2 * n - 1)
                ]
                direct = det_generic(RingMatrix.hankel(sigma, n), one=UniPoly.one("X"))
                assert direct == theorem15_eval(n, a, b).lhs


def test_theorem_grids_against_det_poly():
    # the two integer determinants of the bordered identity against one
    # polynomial determinant of the Fraction Hankel matrix, whole grid
    for a in A_GRID:
        rho = [modified_moment_cheb(s, a) for s in range(24)]
        for n in range(1, 13):
            hankel = RingMatrix.hankel(rho[: 2 * n - 1], n)
            assert det_poly(hankel, ["X"]) == theorem14_eval(n, a).lhs, (n, a)
            for b in B_GRID:
                sigma = [rho[s + 1] - b * rho[s] for s in range(2 * n - 1)]
                direct = det_poly(RingMatrix.hankel(sigma, n), ["X"])
                assert direct == theorem15_eval(n, a, b).lhs, (n, a, b)


@pytest.mark.parametrize("entry", [
    central_weight, lambda s: central_weight(s + 1), _entry_7_16, _entry_7_17, _entry_7_18,
], ids=["7.12", "7.15", "7.16", "7.17", "7.18"])
def test_shifted_identity_against_det_poly(entry):
    for n in range(1, 13):
        shifted = [UniPoly([entry(s), 1], "Y") for s in range(2 * n - 1)]
        assert _det_shifted_identity(entry, n) == det_poly(RingMatrix.hankel(shifted, n), ["Y"])


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 6),
    consts=st.lists(st.integers(-3, 3), min_size=11, max_size=11),
    scale=st.integers(-5, 5),
    r=st.integers(-4, 4),
    divisor=st.integers(1, 12),
)
@example(n=3, consts=[0] * 11, scale=2, r=-3, divisor=1)  # all-zero K
@example(n=3, consts=[1] * 11, scale=-1, r=2, divisor=4)  # rank-one K
@example(n=4, consts=[1, 0, -1, 0, 1, 0, -1, 0, 1, 0, 1], scale=0, r=5, divisor=3)  # scale 0
@example(n=6, consts=list(range(11)), scale=7, r=-2, divisor=5)  # rank-two K
def test_rank_one_hankel_det_against_generic(n, consts, scale, r, divisor):
    # det(K + V scale u u^T), u_i = r^i, expanded division-free over Q[V]:
    # singular K, scale 0 and negative r included; the per-n oracle at n,
    # and the leading minors of one size-n pencil at every size up to n
    pairs = [(consts[s], scale * r**s) for s in range(2 * n - 1)]
    entries = [UniPoly(pair, "V") for pair in pairs]
    minors = _rank_one_minors(pairs, r, n)
    for size in range(1, n + 1):
        direct = det_generic(RingMatrix.hankel(entries[: 2 * size - 1], size), one=UniPoly.one("V"))
        assert _rank_one_det(minors, size, divisor, "V") == direct * Fraction(1, divisor)
    assert _rank_one_hankel_det(pairs, r, n, divisor, "V") == direct * Fraction(1, divisor)


def test_theorem14_substitution_gives_7_12():
    # a = -1, X = -Y - 1 turns the evaluation into det(Y + central) and the
    # right side into (-1)^n (Y n + 1) after pulling 2-powers out
    for n in range(1, 7):
        r = theorem14_eval(n, F(-1))
        assert r.equal
        lhs = r.lhs
        y = UniPoly.variable("Y")
        substituted = lhs.coeffs[0] + lhs.coeffs[1] * (-y - 1)
        sign = -1 if n % 2 else 1
        assert substituted == sign * (F(n) * y + 1)


@pytest.mark.parametrize("a", [F(-1), F(0), F(1), F(1, 3)])
@pytest.mark.parametrize("b", [F(-1), F(0), F(1), F(2)])
def test_theorem15_grid(a, b):
    for n in range(1, 6):
        assert theorem15_eval(n, a, b).equal, (n, a, b)


def test_theorem15_base_case_pins_transcription():
    # n = 1: the entry is rho_1 - b rho_0 = (-2a X + 1) - b X
    a, b = F(2), F(3)
    r = theorem15_eval(1, a, b)
    assert r.equal
    assert r.lhs == UniPoly([F(1), -2 * a - b], "X")


# ---------------------------------------------------------------------------
# Catalogued closed forms
# ---------------------------------------------------------------------------

def test_central_weight():
    assert central_weight(0) == 1
    assert central_weight(1) == F(1, 2)
    assert central_weight(2) == F(1, 2)
    assert central_weight(3) == F(3, 8)


def test_row_7_10_hand_values():
    r2 = row_7_10(2)
    assert r2.equal and r2.lhs == -2  # -binom(2, 1)
    r5 = row_7_10(5)
    assert r5.equal and r5.lhs == -F(binomial(6, 3), 2)


def test_row_7_11_hand_value():
    r = row_7_11(2)
    assert r.equal
    assert r.lhs == F(1, 4)  # det [[1, 1/2], [1/2, 1/2]]


def test_row_7_15_hand_value():
    r = row_7_15(1)
    assert r.equal
    assert r.lhs == UniPoly([F(1, 2), F(1)], "Y")  # Y + 1/2


def test_rows_7_12_15_for_all_n():
    for n in range(1, 13):
        assert row_7_12(n).equal, n
        assert row_7_15(n).equal, n
        assert row_7_11(n).equal, n
        assert row_7_10(n).equal, n


def test_row_7_16_stated_labels_are_rotated():
    # the stated case split is off by one residue class everywhere; the
    # corrected split (labels shifted by one) holds for every n
    for n in range(1, 13):
        stated, corrected = row_7_16(n)
        assert corrected.equal, n
        assert not stated.equal, n
    # n = 1 concrete values: determinant is Y, stated case says -(2Y + 1)
    stated, corrected = row_7_16(1)
    assert stated.lhs == UniPoly([F(0), F(1)], "Y")
    assert stated.rhs == UniPoly([F(-1), F(-2)], "Y")


def test_closed_form_suite_shape():
    rows = closed_form_suite(3)
    idents = [r.identity for r in rows]
    assert idents.count("7.10") == 3
    assert idents.count("7.16") == 3
    assert idents.count("7.16-corrected") == 3


# ---------------------------------------------------------------------------
# Conjectured evaluations: reported, not asserted
# ---------------------------------------------------------------------------

def test_conjecture_7_17_fails_at_n1():
    row17, _ = conjecture16_check(1)
    assert not row17.equal
    assert row17.lhs == UniPoly([F(1), F(1)], "Y")   # Y + 1
    assert row17.rhs == UniPoly([F(-1), F(2)], "Y")  # 2Y - 1


def test_conjecture_7_18_holds_at_n1():
    _, row18 = conjecture16_check(1)
    assert row18.equal
    assert row18.lhs == UniPoly([F(1), F(1)], "Y")


def test_conjecture_table_is_reported_per_n():
    rows = []
    for n in range(1, 13):
        rows.extend(conjecture16_check(n))
    assert len(rows) == 24
    assert all(row.note == "conjecture" for row in rows)
    # frozen sample of the observed pattern (no ground-truth claim):
    by_key = {(r.identity, r.params["n"]): r.equal for r in rows}
    assert by_key[("7.17", 1)] is False
    assert by_key[("7.17", 8)] is True
    assert by_key[("7.18", 2)] is False
    assert by_key[("7.18", 5)] is True


# ---------------------------------------------------------------------------
# Full run
# ---------------------------------------------------------------------------

def test_run_chebyshev_suite_small():
    run = run_chebyshev_suite(max_n=5)
    assert run.all_theorems_hold
    assert any(not row.equal for row in run.conjectures)


def test_every_check_is_a_labelled_report():
    r14 = theorem14_eval(3, F(-3, 5))
    assert (r14.identity, r14.params) == ("7.9", {"n": 3, "a": "-3/5"})
    r15 = theorem15_eval(2, F(1, 2), F(1, 3))
    assert (r15.identity, r15.params) == ("7.13", {"n": 2, "a": "1/2", "b": "1/3"})
    closed = closed_form_suite(1)
    assert [r.identity for r in closed] == [
        "7.10", "7.11", "7.12", "7.15", "7.16", "7.16-corrected"]
    conj = conjecture16_check(2)
    for r in (r14, r15, *closed, *conj):
        assert isinstance(r, VerificationReport)
        assert r.equal == (r.lhs == r.rhs)
    assert all(r.params == {"n": 1} for r in closed)
    assert [(r.identity, r.params, r.note) for r in conj] == [
        ("7.17", {"n": 2}, "conjecture"), ("7.18", {"n": 2}, "conjecture")]


def test_all_theorems_hold_excludes_only_stated_7_16():
    run = run_chebyshev_suite(max_n=1)
    assert run.all_theorems_hold
    assert not [r for r in run.closed_forms if r.identity == "7.16"][0].equal
    for field in ("theorem14", "theorem15", "closed_forms"):
        for i, r in enumerate(getattr(run, field)):
            if r.identity == "7.16":
                continue
            broken = run.replace(**{field: list(getattr(run, field))})
            getattr(broken, field)[i] = r.replace(equal=False)
            assert not broken.all_theorems_hold, (field, r.identity)
    assert ChebyshevRun([], [], [], run.conjectures).all_theorems_hold


# ---------------------------------------------------------------------------
# Negative controls
# ---------------------------------------------------------------------------

def _grid_rows():
    """The 7.9, 7.13 and 7.12 reports for n <= 4."""
    ns = range(1, 5)
    return ([theorem14_eval(n, a) for n in ns for a in A_GRID]
            + [theorem15_eval(n, a, b) for n in ns for a in A_GRID for b in B_GRID]
            + [row_7_12(n) for n in ns])


# Each known fault, patched in, must make some 7.9, 7.13 or 7.12 report a
# value mismatch.  name -> (attribute of chebyshev, faulty replacement built
# from the original).
NEGATIVE_CONTROLS = {
    # P_{s+1} = (-2p)^(s+1) in place of P_s
    "X power in _cheb_row off by one": (
        "_cheb_row",
        lambda orig: lambda count, a: (
            tuple((k, p) for (k, _), (_, p) in zip(orig(count, a)[0], orig(count + 1, a)[0][1:])),
            orig(count, a)[1],
        ),
    ),
    # K_{s+1} = +2p K_s + d^(s+1) mu_s is the constant recurrence at -a
    "constant recurrence sign flipped": (
        "_cheb_row",
        lambda orig: lambda count, a: (
            tuple((k, p) for (k, _), (_, p) in zip(orig(count, -a)[0], orig(count, a)[0])),
            orig(count, a)[1],
        ),
    ),
    # det(K - c u u^T) in place of det(K + c u u^T): every X (Y) coefficient
    # of the pencils changes sign, on both grids and the shifted forms
    "bordered term sign flipped": (
        "_rank_one_minors",
        lambda orig: lambda entries, r, size: orig([(k, -c) for k, c in entries], r, size),
    ),
    # the n-th report reads the (n-1)-th leading minor
    "leading minor read one size off": (
        "leading_minors",
        lambda orig: lambda rows: [1, *orig(rows)[:-1]],
    ),
}


@pytest.mark.parametrize("name", sorted(NEGATIVE_CONTROLS))
def test_negative_control_is_caught(name, monkeypatch):
    attr, fault = NEGATIVE_CONTROLS[name]
    assert all(r.equal for r in _grid_rows())
    monkeypatch.setattr(chebyshev, attr, fault(getattr(chebyshev, attr)))
    assert any(not r.equal for r in _grid_rows())


@pytest.mark.parametrize("name", sorted(NEGATIVE_CONTROLS))
def test_negative_control_is_caught_after_a_warm_run(name, monkeypatch):
    # No leading minor outlives the run that took it: after a clean suite in
    # this process, the fault shows on both grids of a suite run and in the
    # reports taken one at a time.
    attr, fault = NEGATIVE_CONTROLS[name]
    assert run_chebyshev_suite(4).all_theorems_hold
    monkeypatch.setattr(chebyshev, attr, fault(getattr(chebyshev, attr)))
    run = run_chebyshev_suite(4)
    assert any(not r.equal for r in run.theorem14)
    assert any(not r.equal for r in run.theorem15)
    assert any(not r.equal for r in _grid_rows())


def test_x_part_that_is_not_rank_one_is_refused(monkeypatch):
    # P_s + s is not P_0 r^s: refused before any elimination is run
    with pytest.raises(ArithmeticError):
        _rank_one_hankel_det([(0, 1), (0, 2), (0, 5)], 2, 2, 1, "X")
    orig = chebyshev._cheb_row
    monkeypatch.setattr(chebyshev, "_cheb_row", lambda count, a: (
        tuple((k, p + s) for s, (k, p) in enumerate(orig(count, a)[0])), orig(count, a)[1]))
    monkeypatch.setattr(chebyshev, "leading_minors", None)
    with pytest.raises(ArithmeticError):
        _rank_one_minors([(0, 1), (0, 2), (0, 5)], 2, 2)
    for a in A_GRID:
        with pytest.raises(ArithmeticError):
            theorem14_eval(2, a)
        with pytest.raises(ArithmeticError):
            theorem15_eval(2, a, F(1, 3))
    with pytest.raises(ArithmeticError):
        run_chebyshev_suite(3)


_SHIFTED = {"7.12": central_weight, "7.15": chebyshev._entry_7_15, "7.16": _entry_7_16,
            "7.16-corrected": _entry_7_16, "7.17": _entry_7_17, "7.18": _entry_7_18}


def test_suite_matches_the_per_n_oracle_up_to_16():
    # Every 7.9, 7.13 and shifted-form lhs of one run, read off the leading
    # minors, against two det_int calls at that n alone
    run = run_chebyshev_suite(16)
    for r in run.theorem14:
        n, a = r.params["n"], F(r.params["a"])
        rows, d = chebyshev._cheb_row(2 * n - 1, a)
        assert r.lhs == _rank_one_hankel_det(rows, -2 * a.numerator, n, d ** (n * (n - 1)), "X")
    for r in run.theorem15:
        n, a, b = r.params["n"], F(r.params["a"]), F(r.params["b"])
        divisor = b.denominator**n * a.denominator ** (n * n)
        assert r.lhs == _rank_one_hankel_det(_sigma(a, b, n), -2 * a.numerator, n, divisor, "X")
    shifted = [r for r in run.closed_forms + run.conjectures if r.identity in _SHIFTED]
    assert len(shifted) == 6 * 16
    for r in shifted:
        n = r.params["n"]
        consts, den = integer_form([_SHIFTED[r.identity](s) for s in range(2 * n - 1)])
        assert r.lhs == _rank_one_hankel_det([(k, den) for k in consts], 1, n, den**n, "Y")


def test_theorem15_zero_pivot_point_falls_back():
    # At a = 1/2, b = 0, the one 7.13 grid point with a vanishing leading
    # minor, K has zero minors at sizes 3, 4, 9, 10 and K + c u u^T at 1, 2,
    # 7, 8 (U_n(-1/2) is periodic): each run stops at its first zero and
    # det_int gives every larger size, equal to the per-size determinants
    # (and to the cofactor expansion where that is quick)
    sigma = _sigma(F(1, 2), F(0), 12)
    for shift, zeros in ((0, [3, 4, 9, 10]), (1, [1, 2, 7, 8])):
        consts = [k + shift * c for k, c in sigma]
        rows = [consts[i : i + 12] for i in range(12)]
        got = ring.leading_minors(rows)
        assert got == [det_int([r[:k] for r in rows[:k]]) for k in range(1, 13)]
        assert got[:7] == [bruteforce_det([r[:k] for r in rows[:k]]) for k in range(1, 8)]
        assert [k for k, v in enumerate(got, 1) if not v] == zeros


def test_suite_runs_one_elimination_per_matrix(monkeypatch):
    # run_chebyshev_suite(12) eliminates each grid point's K and K + c u u^T
    # once at size 12 (only K where c = 0: (a, b) = (-1, 2) and (1/2, -1)),
    # and K and K + D J of each shifted form.  det_int runs only for the
    # sizes after a zero pivot (7.11 reads K off the 7.12 pencil): going
    # back to per-n determinants fails this count.
    sizes, fallbacks, det_calls = [], [], []
    leading, det = ring.leading_minors, ring.det_int

    def leading_spy(rows):
        out = leading(rows)
        sizes.append(len(rows))
        fallbacks.append(len(rows) - next((k for k, v in enumerate(out, 1) if not v), len(out)))
        return out

    monkeypatch.setattr(chebyshev, "leading_minors", leading_spy)
    monkeypatch.setattr(ring, "det_int", lambda a: det_calls.append(len(a)) or det(a))
    assert run_chebyshev_suite(12).all_theorems_hold
    assert sizes == [12] * (4 * 2 + 20 * 2 - 2 + 5 * 2)
    assert len(det_calls) == sum(fallbacks)
    # the zero pivots: K of every 7.9 point (K_0 = 0), K + u u^T at a = 1/2,
    # both 7.13 pencils at (1/2, 0) and K of 7.16
    assert sum(fallbacks) == 4 * 11 + 10 + 9 + 11 + 11

