import contextlib
import itertools
import json
import math
import random
from fractions import Fraction
from operator import itemgetter
from pathlib import Path

import pytest

import opident
import opident.identity as identity
import opident.moments as moments
import opident.ring as ring
from opident.identity import (
    ConfluentRequiredError,
    IdentityInstance,
    VerificationReport,
    jacobi_check,
    lemma8_check,
    lemma9_check,
    lhs_theorem1,
    matrix_M,
    matrix_N,
    modified_functional,
    prop13_sign,
    rhs_theorem1,
    sweep_lemmas,
    sweep_prop13,
    sweep_theorem1_atom,
    sweep_theorem1_series,
    theorem1_sign,
    uvarov_polynomial,
    uvarov_system,
    verify_theorem1,
)
from opident.moments import (
    ChebyshevCatalanFunctional,
    FiniteAtomFunctional,
    ModeError,
    MomentFunctional,
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
    poly_lemma5,
    q_exact,
    q_row,
    q_series,
    q_table,
)
from opident.ring import (
    InverseSeries,
    RingMatrix,
    UniPoly,
    det_generic,
    det_poly,
    det_rational,
    format_rational,
    integer_form,
    ratio,
    vandermonde_product,
)

F = Fraction


def atom_system(rng, atoms=8, depth=8):
    f = random_atom_functional(rng, atoms, hankel_nonzero_upto=depth)
    return f, build_ortho_system(f, depth)


# ---------------------------------------------------------------------------
# Matrix shapes and conventions
# ---------------------------------------------------------------------------

def test_matrix_empty_case():
    f = ChebyshevCatalanFunctional()
    sys = build_ortho_system(f, 3)
    inst = IdentityInstance(n=3)
    mat = matrix_M(sys, inst)
    assert mat.rows == mat.cols == 0
    assert det_rational(mat) == 1


def test_matrix_M_corollary_shapes(rng):
    f, sys = atom_system(rng, 6, 5)
    # k = 0, m = 1: 1x1 [p_n(x_1)]
    inst = IdentityInstance(n=3, xs=(F(1, 2),))
    assert matrix_M(sys, inst).entries == (sys.p_value(3, F(1, 2)),)
    # k = 1, m = 0: 1x1 [q_{n-1}(y_1)]
    inst = IdentityInstance(n=3, ys=(F(1, 3),))
    assert matrix_M(sys, inst).entries == (q_exact(sys, 2, F(1, 3)),)


def test_matrix_N_power_block(rng):
    f, sys = atom_system(rng, 6, 5)
    # n = 0, m = 0, k = 1 -> [[1]]
    inst = IdentityInstance(n=0, ys=(F(1, 3),))
    assert matrix_N(sys, inst).entries == (F(1),)
    # n = 0, m = 0, k = 2 -> [[y1, 1], [y2, 1]]
    y1, y2 = F(1, 3), F(2, 3)
    inst = IdentityInstance(n=0, ys=(y1, y2))
    assert matrix_N(sys, inst).to_rows() == [[y1, F(1)], [y2, F(1)]]
    # n = k - 1: exactly one power column in the block layout
    y3 = F(4, 3)
    inst = IdentityInstance(n=2, ys=(y1, y2, y3))
    mat = matrix_N(sys, inst)
    assert mat.rows == 3
    for r, y in enumerate((y1, y2, y3)):
        assert mat.get(r, 0) == 1  # y^(k-n-1) = y^0
        assert mat.get(r, 1) == q_exact(sys, 0, y)


def test_matrix_N_at_boundary_equals_M(rng):
    f, sys = atom_system(rng, 6, 5)
    inst = IdentityInstance(n=2, xs=(F(5, 2),), ys=(F(1, 3), F(2, 3)))
    assert matrix_N(sys, inst) == matrix_M(sys, inst)


def test_matrix_depth_guard(rng):
    f, sys = atom_system(rng, 6, 3)
    inst = IdentityInstance(n=3, xs=(F(1, 2), F(3, 2)))  # needs p_4
    with pytest.raises(ValueError):
        matrix_M(sys, inst)


def test_instance_rejects_repeated_parameters():
    with pytest.raises(ConfluentRequiredError):
        IdentityInstance(n=1, xs=(F(1), F(1)))
    with pytest.raises(ConfluentRequiredError):
        IdentityInstance(n=1, ys=(F(1, 3), F(1, 3)))


def test_instance_coerces_ints_strings_and_fractions_alike():
    # each rational becomes one Fraction whatever its type, and the integer
    # form is numerators over the lcm of the denominators
    given = [
        ((3, -2), ("1/3", "-5/3")),
        (("3", "-2/1"), (F(1, 3), "-5/3")),
        ((F(3), F(-2)), (F(1, 3), F(-5, 3))),
    ]
    insts = [IdentityInstance(n=2, xs=xs, ys=ys) for xs, ys in given]
    for inst in insts:
        assert inst == insts[0] and inst.params() == insts[0].params()
        assert all(type(v) is F for v in inst.xs + inst.ys)
        assert (inst.x_form, inst.y_form) == (((3, -2), (1, 1), 1), ((1, -5), (1, 1), 3))
    assert insts[0].params() == {"n": 2, "k": 2, "m": 2, "xs": ["3", "-2"],
                                 "ys": ["1/3", "-5/3"], "mode": "atom"}
    mixed = IdentityInstance(n=1, xs=("1/2", 3, F(5, 4)))
    assert mixed.x_form == ((2, 12, 5), (1, 1, 1), 4)
    assert mixed.xs == (F(1, 2), F(3), F(5, 4))


def test_instance_finds_repeats_across_input_types():
    # the repeat check runs on the integer numerators, so equal values
    # given in different types are still repeats
    for xs in (("1/2", F(1, 2)), (F(2), 2), ("3", F(6, 2))):
        with pytest.raises(ConfluentRequiredError):
            IdentityInstance(n=1, xs=xs)
    with pytest.raises(ConfluentRequiredError):
        IdentityInstance(n=1, ys=(F(2, 3), "4/6"))
    with pytest.raises(ValueError, match="pairwise distinct"):
        IdentityInstance(n=1, xi=(("1/2", 2), (F(1, 2), 1)))


def test_confluent_instance_round_trips_through_replace():
    inst = IdentityInstance(n=3, xi=((F(1, 2), 2), ("3", 1)), omega=(("1/3", 2),))
    assert inst.confluent and (inst.m, inst.k) == (3, 2)
    assert inst.xs == (F(1, 2), F(1, 2), F(3)) and inst.ys == (F(1, 3), F(1, 3))
    for changes in ({}, {"n": 4}, {"n": 0}):
        again = inst.replace(**changes)
        assert (again.xs, again.ys, again.xi, again.omega) == (
            inst.xs, inst.ys, inst.xi, inst.omega)
        assert (again.x_form, again.y_form) == (inst.x_form, inst.y_form)
        assert again.params() == {**inst.params(), **changes}
    assert inst.x_form == ((1, 6), (2, 1), 2) and inst.y_form == ((1,), (2,), 3)


def test_integer_vandermonde_matches_fraction_oracle():
    # _vandermondes runs vandermonde_product on integer numerators and
    # hands back the integer pair over the denominator powers; the oracle is
    # the same product over Fractions, the y factor in _y_vandermonde's
    # reversed orientation
    draw = random.Random(18)
    xs_pool = [F(p, q) for q in (1, 2, 4) for p in range(-9, 10) if math.gcd(p, q) == 1]
    ys_pool = [F(p, q) for q in (3, 9) for p in range(-20, 21) if math.gcd(p, q) == 1]
    shapes = identity._CONFLUENT_SHAPES + (((1, 1, 1), (1, 1, 1)), ((1, 1), (1, 1, 1)))
    for _ in range(20):
        for x_mults, y_mults in shapes:
            xs = draw.sample(xs_pool, len(x_mults))
            ys = draw.sample(ys_pool, len(y_mults))
            inst = IdentityInstance(n=2, xi=tuple(zip(xs, x_mults)), omega=tuple(zip(ys, y_mults)))
            vx = vandermonde_product(xs, x_mults)
            vy = vandermonde_product(ys[::-1], y_mults[::-1])
            num, den = identity._vandermondes(inst)
            assert type(num) is type(den) is int and den > 0, (xs, x_mults, ys, y_mults)
            assert F(num, den) == vx * vy, (xs, x_mults, ys, y_mults)


# ---------------------------------------------------------------------------
# Sign and orientation pinning
# ---------------------------------------------------------------------------

def test_sign_exponent():
    assert theorem1_sign(0, 0, 0) == 1
    assert theorem1_sign(1, 1, 0) == -1  # (-1)^(n(m-k)+km) = (-1)^(-1)
    assert theorem1_sign(1, 1, 1) == -1  # exponent 0*1... n(m-k)=0, km=1
    assert theorem1_sign(2, 1, 0) == 1


def test_rhs_corollary2_shape():
    # k = 0, m = 1: rhs = (-1)^n p_n(x_1)
    sys = build_ortho_system(ChebyshevCatalanFunctional(), 4)
    x = F(3)
    for n in range(4):
        inst = IdentityInstance(n=n, xs=(x,))
        expected = sys.p_value(n, x) * (-1 if n % 2 else 1)
        assert rhs_theorem1(sys, inst) == expected


def test_single_atom_k1_hand_case():
    # atoms {(0,1)}, n = 1, k = 1, y = 2: both sides equal -1/2
    f = FiniteAtomFunctional([(0, 1)])
    sys = build_ortho_system(f, 1)
    inst = IdentityInstance(n=1, ys=(F(2),))
    assert lhs_theorem1(sys, inst) == F(-1, 2)
    assert rhs_theorem1(sys, inst) == F(-1, 2)


def test_x_vandermonde_orientation_hand_case():
    # Chebyshev, n = 1, k = 0, m = 2, x = (0, 1):
    # M = [[p_1(0), p_2(0)], [p_1(1), p_2(1)]] = [[0, -1], [1, 0]], det = 1,
    # denominator (x_2 - x_1) = 1, sign (+1): rhs = 1; lhs = (mu_2 - mu_1)/H(1) = 1
    sys = build_ortho_system(ChebyshevCatalanFunctional(), 2)
    inst = IdentityInstance(n=1, xs=(F(0), F(1)))
    assert rhs_theorem1(sys, inst) == 1
    assert lhs_theorem1(sys, inst) == 1


def test_y_vandermonde_orientation_hand_case(rng):
    # k = 2, m = 0: denominator is (y_1 - y_2), not (y_2 - y_1)
    f, sys = atom_system(rng, 6, 4)
    y1, y2 = F(1, 3), F(5, 3)
    inst = IdentityInstance(n=2, ys=(y1, y2))
    det = q_exact(sys, 0, y1) * q_exact(sys, 1, y2) - q_exact(sys, 1, y1) * q_exact(
        sys, 0, y2
    )
    assert rhs_theorem1(sys, inst) == det / (y1 - y2)  # sign = (-1)^(2*(-2)) = +1
    assert lhs_theorem1(sys, inst) == rhs_theorem1(sys, inst)


# ---------------------------------------------------------------------------
# The identity, atom mode
# ---------------------------------------------------------------------------

def test_lhs_trivial_reductions(rng):
    f, sys = atom_system(rng, 6, 5)
    assert lhs_theorem1(sys, IdentityInstance(n=0)) == 1
    for n in range(4):
        assert lhs_theorem1(sys, IdentityInstance(n=n)) == 1  # H(n)/H(n)


def test_verify_theorem1_small_sweep():
    reports = sweep_theorem1_atom(seed=2026, trials=4, max_n=4, max_k=2, max_m=2)
    assert len(reports) == 4 * 5 * 3 * 3
    assert all(r.equal for r in reports)
    modes = {r.params["mode"] for r in reports}
    assert modes == {"atom"}


def test_verify_covers_n_less_than_k(rng):
    f, sys = atom_system(rng, 8, 6)
    for n in range(3):
        for k in range(n + 1, 4):
            inst = IdentityInstance(
                n=n, xs=(F(1, 2),), ys=tuple(F(2 * j + 1, 3) for j in range(k))
            )
            rep = verify_theorem1(sys, inst)
            assert rep.equal, rep.params


def test_verify_with_provided_functional():
    f = FiniteAtomFunctional([(i, 1 + (i % 3)) for i in range(-3, 4)])
    reports = sweep_theorem1_atom(seed=5, trials=2, max_n=3, max_k=2, max_m=2, functional=f)
    assert all(r.equal for r in reports)


def _pole_case(rng):
    f, sys = atom_system(rng, 6, 5)
    node = f.nodes[0]  # the pole sits on an atom
    return sys, IdentityInstance(n=2, ys=(node,)), f"y = {format_rational(node)} is an atom node"


def _degenerate_case(rng):
    # a 3-atom functional has H(4) = 0: the lhs divisor H(n - k) vanishes
    sys = build_ortho_system(random_atom_functional(rng, 3), 3)
    return sys, IdentityInstance(n=4), "Hankel determinant H(4) vanishes"


def _horizon_case(rng):
    # H(4) reads moments up to 6, past the horizon
    sys = build_ortho_system(SequenceFunctional([1, 0, 1, 0, 2]), 2)
    return sys, IdentityInstance(n=4), "moment 6 requested, horizon is 4"


def _mode_case(rng):
    # a rational y needs a finite-atom functional
    sys = build_ortho_system(SequenceFunctional([1, 0, 1, 0, 2]), 2)
    inst = IdentityInstance(n=1, ys=(F(1, 3),))
    return sys, inst, "rational y parameters need a finite-atom functional"


@pytest.mark.parametrize(
    "case",
    [_pole_case, _degenerate_case, _horizon_case, _mode_case],
    ids=["pole", "degenerate", "horizon", "mode"],
)
def test_verify_error_becomes_failed_report(rng, case):
    # one case per DomainError subclass
    sys, inst, message = case(rng)
    rep = verify_theorem1(sys, inst)
    assert not rep.equal
    assert (rep.lhs, rep.rhs) == (None, None)
    assert rep.note == f"error: {message}"


def test_pole_on_atom_raises_only_with_a_q_column():
    # A y on an atom node divides by zero only in a q_b column with b >= 0.
    # At n = 0 with m = 0 every column is a power column q_b(y) = y^(-b-1),
    # so the instance must verify (line 121 of theorem1-fractional-values).
    f = _fractional_functional()
    sys = build_ortho_system(f, 3)
    node = F(-1, 3)
    assert node in f.nodes
    nums, den = q_row(sys, range(-2, 0), node)
    assert [F(v, den) for v in nums] == [node, 1]
    with pytest.raises(PoleAtAtomError):
        q_row(sys, range(-2, 1), node)
    for inst in (
        IdentityInstance(n=0, ys=(node, F(1, 9))),
        IdentityInstance(n=0, omega=((node, 2),)),
    ):
        rep = verify_theorem1(sys, inst)
        assert rep.equal and rep.lhs == 1, rep.params
    rep = verify_theorem1(sys, IdentityInstance(n=0, xs=(F(1, 2),), ys=(node,)))
    assert not rep.equal and rep.note == "error: y = -1/3 is an atom node"


def _drop_first(coeffs: dict) -> dict:
    return dict(list(coeffs.items())[1:])


# Each known fault, patched in, must make a sweep report a value mismatch,
# so that an exact pass means something.  name -> (module or class, its
# attribute, faulty replacement built from the original, sweep that must
# catch it).
NEGATIVE_CONTROLS = {
    "flipped theorem1_sign": (
        identity, "theorem1_sign",
        lambda orig: lambda n, k, m: -orig(n, k, m),
        lambda: sweep_theorem1_atom(seed=11, trials=1),
    ),
    "column index shifted by one": (
        identity, "_pq_rows",
        lambda orig: lambda sys, cols, *forms: orig(sys, [b - 1 for b in cols], *forms),
        lambda: sweep_theorem1_atom(seed=11, trials=1),
    ),
    "y-Vandermonde not reversed": (
        identity, "_y_vandermonde",
        lambda orig: vandermonde_product,
        lambda: sweep_theorem1_atom(seed=11, trials=1),
    ),
    "confluent (-1)^binom(a,2) dropped": (
        identity, "prop13_sign",
        lambda orig: lambda inst: theorem1_sign(inst.n, inst.k, inst.m),
        lambda: sweep_prop13(seed=11, trials=1),
    ),
    "series y-Vandermonde not reversed": (
        identity, "_y_vandermonde",
        lambda orig: vandermonde_product,
        lambda: sweep_theorem1_series(seed=11, trials=1, truncation=12, max_n=3),
    ),
    "series column index shifted by one": (
        identity, "_pq_rows",
        lambda orig: lambda sys, cols, *forms: orig(sys, [b - 1 for b in cols], *forms),
        lambda: sweep_theorem1_series(
            seed=11, trials=1, truncation=12, max_n=3, ks=(2,), max_m=3),
    ),
    "series k = 3 y-Vandermonde not reversed": (
        identity, "_y_vandermonde",
        lambda orig: vandermonde_product,
        lambda: sweep_theorem1_series(
            seed=11, trials=1, truncation=12, max_n=3, ks=(3,), max_m=1),
    ),
    # reversing 4 or 5 ys is an even permutation, so there the orientation
    # fault changes nothing; k = 6 is the next k where it does
    "series k = 6 y-Vandermonde not reversed": (
        identity, "_y_vandermonde",
        lambda orig: vandermonde_product,
        lambda: sweep_theorem1_series(
            seed=11, trials=1, truncation=12, max_n=3, ks=(6,), max_m=1),
    ),
    "series k = 4 column index shifted by one": (
        identity, "_pq_rows",
        lambda orig: lambda sys, cols, *forms: orig(sys, [b - 1 for b in cols], *forms),
        lambda: sweep_theorem1_series(
            seed=11, trials=1, truncation=12, max_n=3, ks=(4,), max_m=1),
    ),
    # one coefficient missing from one side's dict, not a differing value:
    # the comparison must see keys that only the other side has
    "series rhs coefficient dropped": (
        identity, "schur_minors",
        lambda orig: lambda *args: _drop_first(orig(*args)),
        lambda: sweep_theorem1_series(seed=11, trials=1, truncation=12, max_n=3),
    ),
    "series lhs coefficient dropped": (
        MomentFunctional, "modified_hankel_det_series",
        lambda orig: lambda *args: (lambda coeffs, den: (_drop_first(coeffs), den))(*orig(*args)),
        lambda: sweep_theorem1_series(seed=11, trials=1, truncation=12, max_n=3),
    ),
    "series H(n-k) dropped": (
        identity, "_hankel_divisor",
        lambda orig: lambda f, n, k: 1,
        lambda: sweep_theorem1_series(seed=11, trials=1, truncation=12, max_n=3),
    ),
    # the x factor taken as prod(x_i - x_j), as if the x blocks came in
    # reverse order; the y factor is left as it is
    "x-Vandermonde reversed": (
        identity, "_vandermondes",
        lambda orig: lambda inst: orig(inst.replace(xs=(), xi=inst.xi[::-1])),
        lambda: sweep_theorem1_atom(seed=11, trials=1),
    ),
    # the rhs reader forgets that column b of every p/q row holds d_b times
    # the value
    "column scale dropped": (
        OrthoSystem, "scales",
        lambda orig: lambda self, cols: 1,
        lambda: sweep_theorem1_atom(seed=11, trials=1),
    ),
    "lemma Hankel slice one size short": (
        identity, "_hankel_slice_det",
        lambda orig: lambda c, size: orig(c, size - 1),
        lambda: sweep_lemmas(seed=11, trials=1),
    ),
    # the size-n lemma determinants read off the (n-1)-th leading minor
    "lemma leading minor read one size off": (
        ring, "leading_minors",
        lambda orig: lambda rows: [1, *orig(rows)[:-1]],
        lambda: sweep_lemmas(seed=11, trials=1),
    ),
    # alpha and beta exchanged in every linear determinant: lemma 9 is
    # symmetric in them, lemma 8 changes sign
    "lemma linear determinant slots swapped": (
        identity, "_lin_det",
        lambda orig: lambda c, size, slot: orig(c, size, 1 - slot),
        lambda: sweep_lemmas(seed=11, trials=1),
    ),
    # the series lhs without its (-1)^(nk): wrong at every odd nk
    "series lhs sign (-1)^(nk) dropped": (
        identity, "_series_lhs_sign",
        lambda orig: lambda n, k: orig(n, k) * (-1) ** (n * k),
        lambda: sweep_theorem1_series(seed=11, trials=1, truncation=12, max_n=3),
    ),
    # the Vandermonde orientation (-1)^binom(k, 2) left out of the series
    # lhs sign: wrong at k = 2 and 3
    "series Vandermonde sign (-1)^binom(k,2) dropped": (
        identity, "_series_lhs_sign",
        lambda orig: lambda n, k: orig(n, k) * (-1) ** (k * (k - 1) // 2),
        lambda: sweep_theorem1_series(
            seed=11, trials=1, truncation=12, max_n=3, ks=(2, 3), max_m=1),
    ),
    # every term of the Laplace expansion along a p-row of the series rhs
    # taken at the opposite sign of its complementary minor: each fixed row
    # goes into the fold negated
    "series complementary-minor sign flipped": (
        identity, "schur_minors",
        lambda orig: lambda fixed, *rest: orig([[-v for v in row] for row in fixed], *rest),
        lambda: sweep_theorem1_series(seed=11, trials=1, truncation=12, max_n=3),
    ),
    # the same along a fixed row rho_a = a of the series lhs (n > k only)
    "series lhs complementary-minor sign flipped": (
        moments, "schur_minors",
        lambda orig: lambda fixed, *rest: orig([[-v for v in row] for row in fixed], *rest),
        lambda: sweep_theorem1_series(seed=11, trials=1, truncation=12, max_n=3),
    ),
    # each series lhs Schur coefficient from rows rho_a + 1 of M for the
    # walked rows a >= n - min(n, k)
    "series lhs border row shifted by one": (
        moments, "schur_minors",
        lambda orig: lambda fixed, rows, *rest: orig(fixed, rows[1:] + rows[-1:], *rest),
        lambda: sweep_theorem1_series(seed=11, trials=1, truncation=12, max_n=3),
    ),
}


@pytest.mark.parametrize("name", sorted(NEGATIVE_CONTROLS))
def test_negative_control_is_caught(name, monkeypatch):
    owner, attr, fault, sweep = NEGATIVE_CONTROLS[name]
    assert all(r.equal for r in sweep())
    monkeypatch.setattr(owner, attr, fault(getattr(owner, attr)))
    assert any(not r.equal and r.lhs is not None for r in sweep())


@pytest.mark.parametrize("name", sorted(NEGATIVE_CONTROLS))
def test_negative_control_is_caught_after_a_warm_lemma_sweep(name, monkeypatch):
    # No leading minor outlives the sweep that took it: a clean lemma sweep
    # on the same seed leaves nothing the faulty run could read.
    owner, attr, fault, sweep = NEGATIVE_CONTROLS[name]
    assert all(r.equal for r in sweep_lemmas(seed=11, trials=1))
    monkeypatch.setattr(owner, attr, fault(getattr(owner, attr)))
    assert any(not r.equal and r.lhs is not None for r in sweep())


@pytest.mark.parametrize("seed, trials", [(1, 10), (7, 3)])
def test_lemma_sweep_runs_one_elimination_per_sequence_and_kind(seed, trials, monkeypatch):
    # Each sequence's Hankel slices, linear and quadratic determinants are
    # one elimination each at the largest size (7, 6 and 6 at max_n = 6);
    # det_int runs only for the sizes after a zero pivot, so going back to
    # per-n determinants fails this count.
    sizes, fallbacks, det_calls = [], [], []
    leading, det = ring.leading_minors, ring.det_int

    def leading_spy(rows):
        out = leading(rows)
        sizes.append(len(rows))
        fallbacks.append(len(rows) - next((k for k, v in enumerate(out, 1) if not v), len(out)))
        return out

    monkeypatch.setattr(ring, "leading_minors", leading_spy)
    monkeypatch.setattr(ring, "det_int", lambda a: det_calls.append(len(a)) or det(a))
    assert all(r.equal for r in sweep_lemmas(seed, trials))
    assert sorted(sizes) == sorted([7, 6, 6] * trials)
    assert len(det_calls) == sum(fallbacks)


def test_series_delta_off_by_one_is_caught(monkeypatch):
    # delta = (k, ..., 1): both sides of an instance name their exponents
    # through the one shift delta + (n - k + 1), so no sweep verdict sees
    # this fault; the rhs against its det_generic oracle does
    staircase = identity._staircase
    monkeypatch.setattr(identity, "_staircase", lambda k: tuple(d + 1 for d in staircase(k)))
    assert all(r.equal for r in sweep_theorem1_series(seed=11, trials=1, truncation=12, max_n=3))
    with pytest.raises(AssertionError):
        test_series_rhs_matches_fraction_oracle(fractional=False)


def test_condensation_relation_of_matrices(rng):
    # det M_{k,m,n} det M_{k-1,m-1,n} =
    #   det M_{k,m-1,n+1} det M_{k-1,m,n-1} - det M_{k,m-1,n} det M_{k-1,m,n}
    f, sys = atom_system(rng, 8, 8)
    xs = (F(1, 2), F(3, 2), F(5, 2))
    ys = (F(1, 3), F(2, 3), F(4, 3))

    def d(n, use_xs, use_ys):
        inst = IdentityInstance(n=n, xs=use_xs, ys=use_ys)
        return det_rational(matrix_M(sys, inst))

    for n in range(2, 6):
        for k in range(1, 4):
            for m in range(1, 4):
                if n - 1 < k - 1 or n < k:
                    continue
                lhs = d(n, xs[:m], ys[:k]) * d(n, xs[1:m], ys[: k - 1])
                rhs = d(n + 1, xs[1:m], ys[:k]) * d(n - 1, xs[:m], ys[: k - 1]) - d(
                    n, xs[1:m], ys[:k]
                ) * d(n, xs[:m], ys[: k - 1])
                assert lhs == rhs, (n, k, m)


# ---------------------------------------------------------------------------
# The identity, series mode
# ---------------------------------------------------------------------------

def test_rhs_series_corollary3_leading_coefficient():
    # k = 1, m = 0 over the Chebyshev functional: rhs = (-1)^n q_{n-1}(y),
    # leading coefficient (-1)^n H(n)/H(n-1) y^(-n) = (-1)^n y^(-n)
    sys = build_ortho_system(ChebyshevCatalanFunctional(), 5)
    for n in range(1, 5):
        inst = IdentityInstance(n=n, ys=("y1",), mode="series", truncation=12)
        rhs = rhs_theorem1(sys, inst)
        assert rhs.coefficient((n,)) == (-1 if n % 2 else 1)
        for i in range(1, n):
            assert rhs.coefficient((i,)) == 0
        sign = -1 if n % 2 else 1
        expected = q_series(sys, n - 1, 12, ("y1",), 0) * sign
        assert rhs.equal_up_to(expected, 12)


def test_series_mismatch_reports_first_difference(rng):
    # corrupt one side on purpose: the report must locate the disagreement
    import opident.identity as ident

    f = random_sequence_functional(rng, horizon=30, hankel_nonzero_upto=4)
    sys = build_ortho_system(f, 3)
    inst = IdentityInstance(n=2, ys=("y1",), mode="series", truncation=10)
    orig = ident.theorem1_sign
    ident.theorem1_sign = lambda n, k, m: -orig(n, k, m)
    try:
        rep = verify_theorem1(sys, inst)
    finally:
        ident.theorem1_sign = orig
    assert not rep.equal
    assert "first differing coefficient" in rep.note


def test_rhs_series_needs_small_k():
    sys = build_ortho_system(ChebyshevCatalanFunctional(), 5)
    inst = IdentityInstance(n=3, ys=("y1", "y2"), mode="series", truncation=12)
    rep = verify_theorem1(sys, inst)
    assert rep.equal
    assert rep.compared_order == 12
    # the y-Vandermonde has no inverse in the truncated ring at k = 2: both
    # sides are the denominator-cleared ones that the report compares
    for side, fn in ((rep.lhs, lhs_theorem1), (rep.rhs, rhs_theorem1)):
        got = fn(sys, inst)
        assert (got.terms, got.trunc) == (side.terms, side.trunc)


def test_series_sweep_small():
    reports = sweep_theorem1_series(
        seed=11, trials=2, truncation=14, max_n=3, ks=(1, 2), max_m=2
    )
    assert all(r.equal for r in reports)
    assert all(r.compared_order == 14 for r in reports)
    # n < k instances are present
    assert any(r.params["n"] < r.params["k"] for r in reports)


def test_series_sweep_runs_on_integer_minors(monkeypatch, capsys):
    # Series verification takes both sides from integer minors: no
    # InverseSeries product, no det_generic and no q_series, and one
    # modified_hankel_det_series per instance.  No CLI command multiplies a
    # series or calls det_generic either: every golden command and a
    # --series run at k = 4
    import sys

    from opident.cli import main
    from test_golden import CASES, GOLDEN

    calls = {"mul": 0, "det_generic": 0, "q_series": 0, "lhs": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(InverseSeries, "__mul__", counted("mul", InverseSeries.__mul__))
    monkeypatch.setattr(MomentFunctional, "modified_hankel_det_series",
                        counted("lhs", MomentFunctional.modified_hankel_det_series))
    for name, fn in (("det_generic", det_generic), ("q_series", q_series)):
        wrapper = counted(name, fn)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "opident" and getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, wrapper)
    reports = sweep_theorem1_series(1, trials=1, ks=(1, 2, 3), truncation=12)
    assert len(reports) == 45 and all(r.equal for r in reports)
    assert calls == {"mul": 0, "det_generic": 0, "q_series": 0, "lhs": len(reports)}
    monkeypatch.delenv("OPIDENT_SEED", raising=False)
    monkeypatch.chdir(GOLDEN)
    k4 = ["verify", "theorem1", "--series", "--max-k", "4", "--trials", "1"]
    for argv in [*CASES.values(), k4]:
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert calls["mul"] == calls["det_generic"] == 0


def test_series_failure_note_names_the_first_decreasing_exponent(monkeypatch):
    # A failing k = 2 report names the first strictly decreasing exponent
    # vector, by total degree and then lexicographically, at which the sides
    # differ.  With the y-Vandermonde in the wrong orientation every
    # coefficient changes sign, so that is the lowest term (2, 1) = mu +
    # delta + (n - k + 1) at mu = (); its mirror image (1, 2) differs too.
    sys = build_ortho_system(ChebyshevCatalanFunctional(), 4)
    inst = IdentityInstance(n=2, ys=("y1", "y2"), mode="series", truncation=10)
    monkeypatch.setattr(identity, "_y_vandermonde", vandermonde_product)
    rep = verify_theorem1(sys, inst)
    assert not rep.equal and rep.compared_order == 10
    assert rep.note == (
        "denominator-cleared comparison; first differing coefficient at exponents (2, 1)")
    assert rep.lhs.coefficient((2, 1)) == -rep.rhs.coefficient((2, 1)) != 0
    assert rep.lhs.coefficient((1, 2)) == -rep.rhs.coefficient((1, 2)) != 0
    assert min(map(sum, rep.lhs.terms)) == 3


def _eager_alternant_series(inst, coeffs, scale):
    """Oracle: a report side with every signed permutation expanded when it
    is built, the series route before its sides became lazy.  The partition
    mu of each coefficient names the exponent e_l = mu_l + delta_l + n - k + 1
    = mu_l + n - l + 1."""
    T, num, den = inst.truncation, scale.numerator, scale.denominator
    perms = [(itemgetter(*p), vandermonde_product(p) > 0)
             for p in itertools.permutations(range(inst.k))]
    terms = {}
    for mu, c in coeffs.items():
        e = tuple(part + inst.n - l + 1 for l, part in enumerate(mu, 1))
        if sum(e) < T:
            value = terms[e] = ratio(c * num, den)
            for permute, even in perms[1:]:
                terms[permute(e)] = value if even else -value
    return InverseSeries._make(inst.ys, terms, T, T)


def _eager_first_difference(lhs, rhs):
    """Oracle: the first differing exponent over the expanded terms."""
    if lhs.terms == rhs.terms:
        return None
    return min((e for e in {*lhs.terms, *rhs.terms} if lhs.terms.get(e) != rhs.terms.get(e)),
               key=lambda e: (sum(e), [-v for v in e]))


def test_series_sides_compare_by_integer_coefficients():
    # Two series sides compare on their integer coefficients, keyed by the
    # partition mu, below the smaller T and whatever their scales; the first
    # difference is the exponent vector e = mu + (n, n - 1) by total degree,
    # then the lexicographically largest, the one the eagerly expanded sides
    # give.  At n = 1, k = 2 the partitions (0, 0), (3, 0), (2, 1) name the
    # exponents (1, 0), (4, 0), (3, 1)
    def side(coeffs, scale, truncation=6, ys=("y1", "y2"), n=1):
        inst = IdentityInstance(n=n, ys=ys, mode="series", truncation=truncation)
        return identity._Alternant(inst, coeffs, F(scale))

    def first_difference(a, b):
        got = identity._first_difference(a, b)
        eager = [_eager_alternant_series(IdentityInstance(
            n=1, ys=s.variables, mode="series", truncation=s.trunc), s.coeffs, F(s.num, s.den))
            for s in (a, b)]
        assert got == _eager_first_difference(*eager)
        return got

    a = side({(0, 0): 2, (3, 0): 4, (2, 1): 6}, F(1, 2))
    assert a == side({(0, 0): 1, (3, 0): 2, (2, 1): 3}, 1)
    assert a == _eager_alternant_series(
        IdentityInstance(n=1, ys=("y1", "y2"), mode="series", truncation=6), a.coeffs, F(1, 2))
    assert a.terms == {(1, 0): 1, (0, 1): -1, (4, 0): 2, (0, 4): -2, (3, 1): 3, (1, 3): -3}
    b = side({(0, 0): 1, (3, 0): 5, (2, 1): 7}, 1)
    assert a != b and first_difference(a, b) == first_difference(b, a) == (4, 0)
    c = side({(0, 0): 1, (3, 0): 2}, 1)  # (2, 1) missing
    assert a != c and first_difference(a, c) == first_difference(c, a) == (3, 1)
    # compared below T = 5 only
    d = side({(0, 0): 1, (3, 0): 2, (2, 1): 3, (4, 0): 1}, 1, truncation=5)
    assert a == d and first_difference(a, d) is None
    assert a != side(a.coeffs, F(1, 2), ys=("z1", "z2"))
    # the same partitions at n = 2 name other exponents
    assert a != side(a.coeffs, F(1, 2), n=2)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_series_failure_matches_the_eager_route(k, monkeypatch, capsys):
    # With the rhs sign flipped, every report of the sweep fails; its
    # counterexample JSON as the CLI prints it, its note and both side
    # strings are the ones the eagerly expanded sides give
    from opident.cli import _report_sweep
    import argparse

    def run():
        reports = sweep_theorem1_series(seed=5, trials=1, truncation=10, max_n=3, ks=(k,),
                                        max_m=1)
        assert _report_sweep(reports, argparse.Namespace(json=True), "verify theorem1", {}) == 1
        return reports, capsys.readouterr().out

    sign = identity.theorem1_sign
    monkeypatch.setattr(identity, "theorem1_sign", lambda n, k, m: -sign(n, k, m))
    lazy, lazy_out = run()
    monkeypatch.setattr(identity, "_Alternant", _eager_alternant_series)
    monkeypatch.setattr(identity, "_first_difference", _eager_first_difference)
    eager, eager_out = run()
    assert type(lazy[0].lhs) is not type(eager[0].lhs)
    assert lazy_out == eager_out and json.loads(lazy_out)["failures"] == len(lazy) == 8
    for got, want in zip(lazy, eager):
        assert not got.equal and got.note == want.note
        assert "first differing coefficient at exponents" in got.note
        assert (str(got.lhs), str(got.rhs)) == (str(want.lhs), str(want.rhs))
        assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())


def test_passing_series_sweep_expands_no_side(monkeypatch, capsys):
    # A passing report prints "(series)" for each side, so neither side is
    # ever expanded into its signed permutations: not in the sweep of the
    # benchmark's series-sweep shape, not through the CLI
    from opident.cli import main

    expanded = []
    expand = identity._Alternant.__getattr__

    def counted(side, name):
        expanded.append(name)
        return expand(side, name)

    monkeypatch.setattr(identity._Alternant, "__getattr__", counted)
    reports = sweep_theorem1_series(1, trials=4, truncation=25, max_n=4, ks=(1, 2), max_m=2)
    assert len(reports) == 120 and all(r.equal for r in reports)
    assert {r.to_json_dict()["lhs"] for r in reports} == {"(series)"}
    assert main(["verify", "theorem1", "--series", "--json", "--seed", "1", "--trials", "4",
                 "--max-k", "3", "--truncation", "12"]) == 0
    assert json.loads(capsys.readouterr().out)["all_equal"] is True
    assert expanded == []
    # the counter sees a read: the first one expands, the next finds terms set
    side = reports[-1].lhs
    assert side.terms is side.terms and expanded == ["terms"]


def test_series_lhs_keeps_int_coefficients():
    # integer moments and integer xs: every factor of the series lhs
    # (modified-moment determinant, Vx, the y-Vandermonde) is integral, so
    # no coefficient may come back as a Fraction
    f = random_sequence_functional(random.Random(3), 30, hankel_nonzero_upto=5)
    sys = build_ortho_system(f, 5)
    for k in (1, 2):
        ys = tuple(f"y{i}" for i in range(k))
        for n in range(4):
            for xs in ((), (F(2),), (F(-3), F(4))):
                inst = IdentityInstance(n=n, xs=xs, ys=ys, mode="series", truncation=10)
                rep = verify_theorem1(sys, inst)
                assert rep.equal
                assert rep.lhs.terms
                assert all(type(c) is int for c in rep.lhs.terms.values())


def test_series_chebyshev_instance():
    sys = build_ortho_system(ChebyshevCatalanFunctional(), 4)
    inst = IdentityInstance(n=2, xs=(F(2),), ys=("y1",), mode="series", truncation=16)
    rep = verify_theorem1(sys, inst)
    assert rep.equal and rep.compared_order == 16


def test_series_mode_requires_a_formal_y():
    with pytest.raises(ValueError):
        IdentityInstance(n=2, mode="series")


def test_corollary2_over_sequence_backend(rng):
    # k = 0 involves no q values, so any backend verifies in "atom" mode
    f = random_sequence_functional(rng, horizon=12, hankel_nonzero_upto=5)
    sys = build_ortho_system(f, 5)
    for n in range(4):
        for m in range(3):
            xs = tuple(F(2 * i + 1, 2) for i in range(m))
            rep = verify_theorem1(sys, IdentityInstance(n=n, xs=xs))
            assert rep.equal, rep.params


# ---------------------------------------------------------------------------
# Confluent variant
# ---------------------------------------------------------------------------

def test_confluent_all_multiplicities_one_matches_theorem1(rng):
    f, sys = atom_system(rng, 8, 6)
    xs = (F(1, 2), F(7, 2))
    ys = (F(1, 3),)
    for n in range(5):
        plain = verify_theorem1(sys, IdentityInstance(n=n, xs=xs, ys=ys))
        conf = verify_theorem1(
            sys, IdentityInstance(n=n, xi=tuple((x, 1) for x in xs), omega=((ys[0], 1),))
        )
        assert plain.equal and conf.equal
        assert plain.lhs == conf.lhs and plain.rhs == conf.rhs


def _fractional_functional():
    path = Path(__file__).parent / "golden" / "atoms8-fractional.json"
    return functional_from_json(path.read_text())


def _oracle_matrix(sys, inst):
    """The atom-mode p/q matrix in plain Fractions, entry by entry: Taylor
    coefficients of the UniPoly p_b, the atom sums
    sum_a w_a p_b(u_a) (-1)^r / (y - u_a)^(r+1), and the b < 0 conventions."""
    f = sys.functional
    cols = range(inst.n - inst.k, inst.n + inst.m)
    rows = []
    for x, c in inst.xi:
        for r in range(c):
            rows.append([
                sys.p(b).derivative(r).eval(x) / math.factorial(r) if b >= 0 else F(0)
                for b in cols
            ])
    for y, c in inst.omega:
        for r in range(c):
            rows.append([
                sum((w * sys.p(b).eval(u) * (-1) ** r / (y - u) ** (r + 1) for u, w in f.atoms),
                    F(0))
                if b >= 0
                else (UniPoly.variable() ** (-b - 1)).derivative(r).eval(y) / math.factorial(r)
                for b in cols
            ])
    return RingMatrix.from_rows(rows)


def _oracle_instances(seed):
    # every plain (n, k, m) with n, k, m small, n < k included, plus
    # confluent blocks; ys have denominator 9, which no atom node has
    draw = random.Random(seed)
    xs_pool = [F(p, 4) for p in range(-13, 14)]
    ys_pool = [F(p, 9) for p in range(-40, 41) if p % 3]
    for n in range(5):
        for k in range(3):
            for m in range(3):
                yield IdentityInstance(n=n, xs=draw.sample(xs_pool, m), ys=draw.sample(ys_pool, k))
        for x_mults, y_mults in (((2,), ()), ((), (2,)), ((2, 1), (1,)), ((1,), (3,))):
            xs = draw.sample(xs_pool, len(x_mults))
            ys = draw.sample(ys_pool, len(y_mults))
            yield IdentityInstance(n=n, xi=tuple(zip(xs, x_mults)), omega=tuple(zip(ys, y_mults)))


@pytest.mark.parametrize("fractional", [False, True])
def test_row_denominators_are_positive(fractional, rng):
    # prod_a (y - u_a)^(r+1) is negative for many ys; q_row takes that sign
    # into its numerators, so every p/q row of the rhs has a denominator
    # D > 0, over columns with b < 0 and Taylor orders 0..2 alike
    if fractional:
        f = _fractional_functional()
    else:
        f = random_atom_functional(rng, 8, hankel_nonzero_upto=7)
    sys = build_ortho_system(f, 7)
    seen = set()
    for inst in _oracle_instances(12):
        cols = range(inst.n - inst.k, inst.n + inst.m)
        ys, y_mults, yd = inst.y_form
        for y, c in zip(ys, y_mults):
            for r in range(c):
                _, den = q_row(sys, cols, y, r, yd)
                assert den > 0, (inst.params(), r)
                negative = math.prod(F(y, yd) - u for u in f.nodes) ** (r + 1) < 0
                seen.add((cols[0] < 0, r, negative))
        rows = identity._pq_rows(sys, cols, inst.x_form, inst.y_form)
        assert all(den > 0 for _, den in rows), inst.params()
    assert {(low, r) for low, r, _ in seen} == {(low, r) for low in (False, True) for r in range(3)}
    assert {negative for *_, negative in seen} == {False, True}


@pytest.mark.parametrize("fractional", [False, True])
def test_integer_rhs_matches_fraction_oracle(fractional, rng):
    # the integer rows and their one Bareiss run against det_rational of the
    # matrix built entry by entry in Fractions, over integer nodes and over
    # nodes with node_scale > 1
    if fractional:
        f = _fractional_functional()
    else:
        f = random_atom_functional(rng, 8, hankel_nonzero_upto=7)
    assert (f.node_scale > 1) == fractional
    sys = build_ortho_system(f, 7)
    for inst in _oracle_instances(12):
        mat = _oracle_matrix(sys, inst)
        assert identity._theorem1_matrix(sys, inst) == mat, inst.params()
        expected = prop13_sign(inst) * det_rational(mat) / F(*identity._vandermondes(inst))
        assert rhs_theorem1(sys, inst) == expected, inst.params()


def _series_oracle_matrix(sys, inst):
    """The series-mode p/q matrix entry by entry: p_b(x) in Fractions, the
    one-column q_series and the plain powers y^(-b-1) for b < 0."""
    cols = range(inst.n - inst.k, inst.n + inst.m)
    wt = inst.truncation + inst.k * (inst.k - 1) // 2
    rows = [[sys.p(b).eval(x) if b >= 0 else F(0) for b in cols] for x in inst.xs]
    for slot in range(inst.k):
        y = InverseSeries.plain_variable(inst.ys, slot)
        rows.append([
            q_series(sys, b, wt, inst.ys, slot) if b >= 0 else y ** (-b - 1) for b in cols
        ])
    return RingMatrix.from_rows(rows)


@pytest.mark.parametrize("fractional", [False, True])
def test_series_rhs_matches_fraction_oracle(fractional):
    # the integer q-coefficient table and the rhs expansion along the
    # q-rows against det_generic of the matrix built entry by entry, over
    # integer moments and over moments with denominators; n < k puts power
    # columns first.  Both the paper row order and the q-rows-first order at
    # the sign (-1)^(mk) must agree with the rhs below the truncation T,
    # and the rhs is known exactly there: trunc == cap == T.  k runs to 4,
    # and to 5 at n <= 2, m <= 1: the oracle's cost grows steeply with k
    draw = random.Random(40 + fractional)
    denominators = (1, 2, 3, 7) if fractional else (1,)
    while True:
        f = SequenceFunctional(F(draw.randint(-9, 9), draw.choice(denominators)) for _ in range(30))
        try:
            sys = build_ortho_system(f, 5)
            break
        except DegenerateFunctionalError:
            continue
    assert any(f.moment(t).denominator > 1 for t in range(30)) == fractional
    xs_pool = [F(p, 4) for p in range(-13, 14)]
    T = 7
    q_dens = set()
    for n in range(5):
        for k in range(1, 6 if n <= 2 else 5):
            variables = tuple(f"y{i + 1}" for i in range(k))
            cols = range(n - k, n + 2)
            wt = T + k * (k - 1) // 2
            for m in range(2 if k == 5 else 3):
                inst = IdentityInstance(n=n, xs=draw.sample(xs_pool, m), ys=variables,
                                        mode="series", truncation=T)
                mat = _series_oracle_matrix(sys, inst)
                h = f.hankel_det(n - k) if n >= k else 1
                one = InverseSeries.one(variables)
                rows = mat.to_rows()
                q_first = RingMatrix.from_rows(rows[m:] + rows[:m])
                want = det_generic(q_first, one) * ((-1) ** (m * k) * prop13_sign(inst) * h)
                rhs = rhs_theorem1(sys, inst)
                assert (rhs.trunc, rhs.cap) == (T, T), inst.params()
                assert rhs.first_difference(want, T) is None, inst.params()
                paper = det_generic(mat, one) * (prop13_sign(inst) * h)
                assert rhs.first_difference(paper, T) is None, inst.params()
            # table row d - lo holds the coefficients of z^d of every column
            # b >= 0, column b scaled by p_b's denominator d_b; a power column
            # b < 0 is refused, as int_polys[b] would read the deepest p
            lo = n - k + 1
            if n < k:
                with pytest.raises(ValueError, match=r"^q_b\(y\) = y\^\(-b-1\) for b < 0"):
                    q_table(sys, cols, lo, wt)
            built = range(max(n - k, 0), n + 2)
            table, den = q_table(sys, built, lo, wt)
            q_dens.add(den * sys.scales(built))
            assert len(table) == wt - lo
            for j, b in enumerate(built):
                want = q_series(sys, b, wt, variables, 0)
                for d, row in enumerate(table, lo):
                    value = F(row[j], den * sys.scales((b,)))
                    assert value == want.coefficient((d,) + (0,) * (k - 1)), (n, k, b, d)
    assert max(q_dens) > 1


def _partitions(parts: int, below: int, top: int):
    """The nonincreasing tuples of ``parts`` ints in 0..top with sum < below."""
    if not parts:
        if below > 0:
            yield ()
        return
    for first in range(min(top, below - 1) + 1):
        for rest in _partitions(parts - 1, below - first, first):
            yield (first, *rest)


def _series_rhs_by_coefficient(sys, inst) -> dict:
    """{mu: value} of the series rhs, one determinant per mu: the q-rows at
    z^d, d = n + 1 + mu_l - l, over every column n-k .. n+m-1 (a power
    column b < 0 holds 1 at d = b + 1 alone), on top of the p-rows p_b(x).
    Each row goes to integers once; nothing is shared between the mu, and
    no column is left out."""
    n, k, m = inst.n, inst.k, inst.m
    cols = range(n - k, n + m)
    reach = inst.truncation + k * (k - 1) // 2 - n * k
    built = [b for b in cols if b >= 0]
    table, den = q_table(sys, built, n - k + 1, n + reach)
    q_rows = [integer_form([F(d == b + 1) for b in cols if b < 0] + [
        F(v, den * sys.scales((b,))) for v, b in zip(table[i] if table else (), built)])
        for i, d in enumerate(range(n - k + 1, n + reach))]
    p_rows = [integer_form([sys.p(b).eval(x) if b >= 0 else F(0) for b in cols]) for x in inst.xs]
    scale = prop13_sign(inst) * (-1) ** (m * k) * (sys.functional.hankel_det(n - k) if n >= k else 1)
    out = {}
    for mu in _partitions(k, reach, reach):
        rows = [q_rows[mu_l + k - l] for l, mu_l in enumerate(mu, 1)] + p_rows
        c = ring.det_int([list(r) for r, _ in rows])
        if c:
            out[mu] = F(scale * c, math.prod(s for _, s in rows))
    return out


@pytest.mark.parametrize("k", [6, 7])
def test_series_rhs_matches_coefficient_oracle(k):
    # the rhs Schur coefficients at k = 6 and 7, past the det_generic
    # oracle's reach, each against its own Bareiss run of the whole
    # (k + m)-square matrix over the q-table and the power columns; the
    # moments have denominators, so the q-table's D > 1
    draw = random.Random(60 + k)
    while True:
        f = SequenceFunctional(F(draw.randint(-9, 9), draw.choice((1, 2, 3))) for _ in range(40))
        try:
            sys = build_ortho_system(f, 4)
            break
        except DegenerateFunctionalError:
            continue
    variables = tuple(f"y{i + 1}" for i in range(k))
    for n in range(4):
        for m in range(3):
            inst = IdentityInstance(n=n, xs=draw.sample(range(-9, 10), m), ys=variables,
                                    mode="series", truncation=12)
            rhs = rhs_theorem1(sys, inst)
            got = {mu: F(c * rhs.num, rhs.den) for mu, c in rhs.coeffs.items()}
            assert got == _series_rhs_by_coefficient(sys, inst), inst.params()


@pytest.mark.parametrize("seed, ks, truncation", [(1, (1, 2), 25), (7, (1, 2), 25), (1, (3,), 12)])
def test_series_sweep_compares_below_the_full_truncation(seed, ks, truncation):
    # every report compares every coefficient below the requested
    # truncation, and both sides are known there
    reports = sweep_theorem1_series(seed, trials=4, truncation=truncation, ks=ks)
    assert len(reports) == 4 * len(ks) * 15
    for r in reports:
        assert r.equal and r.compared_order == truncation, r.params
        assert r.rhs.trunc is None or r.rhs.trunc >= truncation, r.params


def test_shared_ortho_system_verifies_from_threads():
    # A built OrthoSystem is documented as safe to share across threads: six
    # threads verify the same instances on one system, and every report
    # equals the one computed serially on a separate system.
    import sys
    import threading

    # Series reports compare their lazy sides by coefficients, and every
    # thread also reads the terms of the serial run's series sides, which
    # none has expanded before.  The threads share the ys of the atom
    # instances, so they fill the shared system's cold memo of atom sums
    # together: each (y, order) once, to the values a serial run keeps.
    class CountedFills(tuple):
        # a fill unpacks the table of weighted node values once
        def __iter__(self):
            fills.append(None)
            return super().__iter__()

    draw = random.Random(3)
    series = [IdentityInstance(n=n, xs=draw.sample(range(-9, 10), m),
                               ys=tuple(f"y{l}" for l in range(k)), mode="series", truncation=10)
              for n in range(4) for k in (1, 2, 3) for m in (0, 1)]
    insts = list(_oracle_instances(3)) + series
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            system = build_ortho_system(_fractional_functional(), 7)
            alone = build_ortho_system(_fractional_functional(), 7)
            serial = [verify_theorem1(alone, i) for i in insts]
            assert all(r.equal for r in serial)
            fills = []
            system._atom_values = CountedFills(system._atom_values)
            assert not system._atom_sums
            barrier = threading.Barrier(6)
            results, seen = [None] * 6, [None] * 6

            def worker(slot):
                barrier.wait(timeout=10)
                results[slot] = [verify_theorem1(system, i) for i in insts]
                seen[slot] = [(r.lhs.terms, r.rhs.terms) for r in serial[-len(series):]]

            threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert all(r == serial for r in results)
            assert system._atom_sums == alone._atom_sums
            assert len(fills) == len(system._atom_sums) > 40
            again = [verify_theorem1(alone, i) for i in series]
            assert all(s == [(r.lhs.terms, r.rhs.terms) for r in again] for s in seen)
    finally:
        sys.setswitchinterval(old_interval)


def test_confluent_matrix_negative_index_entry(rng):
    # q_{-1}(w) = w^0 = 1 in the power block
    f, sys = atom_system(rng, 6, 4)
    inst = IdentityInstance(n=0, omega=((F(1, 3), 1),))
    assert identity._theorem1_matrix(sys, inst).entries == (F(1),)


def test_confluent_derivative_rows(rng):
    # multiplicity-2 x block stacks p and p' rows (divided by 0! and 1!)
    f, sys = atom_system(rng, 6, 5)
    xi = F(1, 2)
    inst = IdentityInstance(n=2, xi=((xi, 2),))
    mat = identity._theorem1_matrix(sys, inst)
    assert mat.get(0, 0) == sys.p(2).eval(xi)
    assert mat.get(1, 0) == sys.p(2).derivative().eval(xi)
    assert mat.get(1, 1) == sys.p(3).derivative().eval(xi)
    # orders r = 0..2 of x- and y-blocks over the non-integer nodes of
    # atoms8-fractional.json; n = 1 < k puts b = -2, -1 in the first columns
    path = Path(__file__).parent / "golden" / "atoms8-fractional.json"
    f = functional_from_json(path.read_text())
    sys = build_ortho_system(f, 6)
    x, y = F(3, 4), F(5, 2)
    for n in (1, 3):
        inst = IdentityInstance(n=n, xi=((x, 3),), omega=((y, 3),))
        mat = identity._theorem1_matrix(sys, inst)
        for j, b in enumerate(range(n - 3, n + 3)):
            for r in range(3):
                fact = math.factorial(r)
                if b < 0:  # p_b = 0, q_b(y) = y^(-b-1)
                    p_row, q_row = F(0), (UniPoly.variable() ** (-b - 1)).derivative(r).eval(y)
                else:
                    p_row = sys.p(b).derivative(r).eval(x)
                    q_row = q_exact(sys, b, y, r) * math.factorial(r)
                assert mat.get(r, j) == p_row / fact, (n, b, r)
                assert mat.get(3 + r, j) == q_row / fact, (n, b, r)


def test_confluent_double_x(rng):
    f, sys = atom_system(rng, 8, 6)
    for n in range(5):
        inst = IdentityInstance(n=n, xi=((F(1, 2), 2),))
        rep = verify_theorem1(sys, inst)
        assert rep.equal, rep.params


def test_confluent_double_y(rng):
    f, sys = atom_system(rng, 8, 6)
    for n in range(2, 6):
        inst = IdentityInstance(n=n, omega=((F(1, 3), 2),))
        rep = verify_theorem1(sys, inst)
        assert rep.equal, rep.params


def test_confluent_two_double_y_blocks_below_k(rng):
    # n < k = 4 puts b = -4..-1 power columns under two double y-blocks,
    # whose derivative rows binom(e, r) y^(e-r) no sweep shape reaches
    f, sys = atom_system(rng, 8, 6)
    omega = ((F(1, 3), 2), (F(-2, 3), 2))
    for n in range(4):
        rep = verify_theorem1(sys, IdentityInstance(n=n, omega=omega))
        assert rep.identity == "prop13"
        assert rep.equal, rep.params


def test_records_compare_and_hash_by_their_fields():
    # an instance compares and hashes by n, xs, ys, mode and truncation
    # (the blocks and the integer forms follow from them); reports compare
    # every field and are unhashable
    shape = {"n": 2, "xs": (F(1, 2),), "ys": (F(1, 3),)}
    base = IdentityInstance(**shape)
    same = IdentityInstance(n=2, xi=(("1/2", 1),), omega=((F(1, 3), 1),))
    assert base == same and hash(base) == hash(same) and len({base, same}) == 1
    for changes in ({"n": 3}, {"xs": (F(3, 2),)}, {"ys": (F(2, 3),)}, {"truncation": 12},
                    {"xs": (F(1, 2), F(3, 2))}, {"ys": (F(1, 3), F(2, 3))}):
        assert IdentityInstance(**{**shape, **changes}) != base, changes
    series = IdentityInstance(n=2, ys=("y1",), mode="series")
    assert series != IdentityInstance(n=2, ys=("y2",), mode="series") and series != base
    assert base != (2, (F(1, 2),), (F(1, 3),), "atom", 25)
    assert repr(base) == ("IdentityInstance(n=2, xs=(Fraction(1, 2),), "
                          "ys=(Fraction(1, 3),), mode='atom', truncation=25)")
    rep = VerificationReport("theorem1", {"n": 1}, 1, 1, True)
    assert rep == VerificationReport("theorem1", {"n": 1}, 1, 1, True, None, "")
    assert rep != rep.replace(note="x") and rep.replace(equal=False).equal is False
    with pytest.raises(TypeError):
        hash(rep)


def test_block_form_instance():
    inst = IdentityInstance(n=2, xi=((F(1, 2), 2), (3, 1)), omega=((F(1, 3), 1),))
    assert inst.xs == (F(1, 2), F(1, 2), F(3))
    assert inst.ys == (F(1, 3),)
    assert (inst.m, inst.k) == (3, 1)
    assert inst.params() == {
        "n": 2, "k": 1, "m": 3, "xi": [["1/2", 2], ["3", 1]], "omega": [["1/3", 1]],
    }
    assert inst.replace(n=1).xi == inst.xi
    # every multiplicity 1: the Theorem 1 params, equal to the shorthand's
    plain = IdentityInstance(n=2, xi=((F(1, 2), 1),), omega=((F(1, 3), 1),))
    assert plain == IdentityInstance(n=2, xs=(F(1, 2),), ys=(F(1, 3),))
    assert plain.params() == {
        "n": 2, "k": 1, "m": 1, "xs": ["1/2"], "ys": ["1/3"], "mode": "atom",
    }
    series = IdentityInstance(n=2, ys=("y1",), mode="series")
    assert series.replace(n=1).ys == ("y1",)
    for bad in (
        dict(xi=((F(1, 2), 0),)),
        dict(omega=((F(1, 3), 1), (F(1, 3), 2))),
        dict(omega=(("y1", 2),), mode="series"),
        dict(xs=(F(1),), xi=((F(2), 1),)),
    ):
        with pytest.raises(ValueError):
            IdentityInstance(n=1, **bad)
    with pytest.raises(ConfluentRequiredError, match="blocks"):
        IdentityInstance(n=1, xs=(F(1), F(1)))


def test_confluent_sweep():
    reports = sweep_prop13(seed=9, trials=2, max_n=4)
    assert len(reports) >= 20
    assert all(r.equal for r in reports)


# ---------------------------------------------------------------------------
# Uvarov construction
# ---------------------------------------------------------------------------

def test_uvarov_unmodified_is_proportional_to_p(rng):
    f, sys = atom_system(rng, 8, 5)
    for n in range(5):
        poly, ok = uvarov_polynomial(sys, n)
        assert ok
        sign = -1 if n % 2 else 1
        assert poly == sign * sys.p(n).rename("x1")


def test_uvarov_orthogonality_k1(rng):
    f = random_atom_functional(rng, 10, hankel_nonzero_upto=7)
    res = uvarov_system(f, ys=(F(1, 3),), upto=4)
    assert res.orthogonal
    assert all(res.degree_ok)
    # diagonal entries are the (nonzero) norms for a nondegenerate case
    assert all(res.gram.get(i, i) != 0 for i in range(5))


def test_uvarov_orthogonality_k2_and_fixed_x(rng):
    f = random_atom_functional(rng, 10, hankel_nonzero_upto=8)
    res = uvarov_system(f, ys=(F(1, 3), F(-2, 3)), upto=4, xs_fixed=(F(1, 2),))
    assert res.orthogonal
    assert all(res.degree_ok)


def test_uvarov_matches_lemma5_of_modified_functional(rng):
    # the lhs determinant with x_1 formal is exactly the orthogonality
    # determinant built from the modified moments: equal to H(n-k) * P_n
    f = random_atom_functional(rng, 9, hankel_nonzero_upto=8)
    ys = (F(1, 3),)
    xs_fixed = ()
    sys = build_ortho_system(f, 6)
    mod = modified_functional(f, xs_fixed, ys)
    for n in range(1, 5):
        p_n, _ = uvarov_polynomial(sys, n, xs_fixed, ys)
        d_n = poly_lemma5(mod, n).rename("x1")
        assert d_n == f.hankel_det(n - 1) * p_n


def test_uvarov_degree_flag_is_reported():
    # a signed measure whose k = 1 modification has H'(2) = 0: the degree of
    # P_2 drops and the flag must say so (not an exception, never a silent True)
    f = FiniteAtomFunctional([(3, -1), (1, -2), (0, -2), (4, 2), (-3, 2)])
    res = uvarov_system(f, ys=(F(1, 2),), upto=3)
    assert res.degree_ok == (True, True, False, True)
    assert res.polys[2].degree == 1


@pytest.mark.parametrize(
    "f", [SequenceFunctional([1, 0, 1, 0, 2]), ChebyshevCatalanFunctional()],
    ids=["sequence", "chebyshev"],
)
def test_uvarov_system_needs_a_finite_atom_functional(f):
    with pytest.raises(ModeError, match="^the Uvarov construction needs a finite-atom"):
        uvarov_system(f, upto=1)


def test_domain_errors_share_one_base():
    for cls in (DegenerateFunctionalError, ModeError, MomentHorizonError, PoleAtAtomError):
        assert issubclass(cls, opident.DomainError)
    # a repeated parameter in the shorthand is a usage error, not a domain error
    assert not issubclass(ConfluentRequiredError, opident.DomainError)


def test_uvarov_refuses_fixed_x_on_atom_node_before_any_polynomial(monkeypatch):
    # x_2 = 1 is a node of atoms7.json: refused before any det_poly work
    f = functional_from_json((Path(__file__).parent / "golden" / "atoms7.json").read_text())
    calls = []
    orig = identity.uvarov_polynomial
    monkeypatch.setattr(
        identity, "uvarov_polynomial", lambda *a, **kw: calls.append(a) or orig(*a, **kw)
    )
    with pytest.raises(ValueError, match="kills the atom"):
        uvarov_system(f, upto=3, xs_fixed=(F(1),))
    assert calls == []


# ---------------------------------------------------------------------------
# Lemmas 8, 9 and Jacobi
# ---------------------------------------------------------------------------

def _eval_nested(poly, a, b):
    return poly.eval(UniPoly.constant(F(a), "beta")).eval(F(b))


def test_lemma8_n1_hand_case():
    c = [F(3), F(5)]
    rep = lemma8_check(c, 1)
    assert rep.equal
    # lhs = (beta - alpha) c_0
    assert _eval_nested(rep.lhs, 2, 7) == (7 - 2) * 3


def test_lemma9_n1_hand_case():
    c = [F(2), F(3), F(5)]
    rep = lemma9_check(c, 1)
    assert rep.equal
    # both sides equal (alpha c_0 + c_1)(beta c_0 + c_1)
    assert _eval_nested(rep.lhs, 1, 4) == (1 * 2 + 3) * (4 * 2 + 3)


def test_lemma8_alpha_equals_beta_kills_lhs(rng):
    c = [F(rng.randint(-9, 9)) for _ in range(8)]
    rep = lemma8_check(c, 3)
    assert rep.equal
    for v in (F(2), F(-1, 3)):
        assert _eval_nested(rep.lhs, v, v) == 0
        assert _eval_nested(rep.rhs, v, v) == 0


def test_lemma9_symmetric_in_alpha_beta(rng):
    c = [F(rng.randint(-9, 9)) for _ in range(9)]
    rep = lemma9_check(c, 2)
    assert rep.equal
    for a, b in ((F(2), F(5)), (F(-1), F(1, 3))):
        assert _eval_nested(rep.lhs, a, b) == _eval_nested(rep.lhs, b, a)
        assert _eval_nested(rep.rhs, a, b) == _eval_nested(rep.rhs, b, a)


def test_lemmas_random(rng):
    for _ in range(6):
        c = [F(rng.randint(-9, 9)) for _ in range(13)]
        for n in range(1, 7):
            assert lemma8_check(c, n).equal
            assert lemma9_check(c, n).equal


def test_lemmas_on_rational_sequences(rng):
    for _ in range(4):
        c = [F(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(13)]
        for n in range(1, 7):
            for check in (lemma8_check, lemma9_check):
                rep = check(c, n)
                assert rep.equal, (check.__name__, n, c)
                assert rep.params["c"] == [format_rational(v) for v in c]


def test_lemma_params_keep_integral_entries_plain():
    c = [3, F(6, 2), "-4", F(1, 2), "5/3"]
    for rep in (lemma8_check(c, 2), lemma9_check(c, 2)):
        assert rep.params["c"] == ["3", "3", "-4", "1/2", "5/3"]
    assert [type(v) for v in identity._coerce_sequence(c, 5)] == [int, int, int, F, F]


def test_lin_det_nests_one_univariate_determinant():
    # _lin_det at slot 0 and slot 1 equals det_poly over (alpha, beta) of
    # the linear entries in that variable
    rng = random.Random(23)
    for c in ([rng.randint(-9, 9) for _ in range(9)], [F(rng.randint(-9, 9), 2) for _ in range(9)]):
        c = identity._coerce_sequence(c, 9)
        for size in range(5):
            for slot, var in enumerate(("alpha", "beta")):
                lin = [UniPoly([c[s + 1], c[s]], var) for s in range(2 * size - 1)]
                want = det_poly(RingMatrix.hankel(lin, size), ["alpha", "beta"])
                assert identity._lin_det(c, size, slot) == want, (size, slot)


def test_lemmas_sequence_too_short():
    with pytest.raises(ValueError):
        lemma8_check([1, 2, 3], 2)
    with pytest.raises(ValueError):
        lemma9_check([1, 2, 3, 4], 2)


def test_jacobi_2x2_hand_case():
    mat = RingMatrix.from_rows([[F(3), F(4)], [F(5), F(7)]])
    rep = jacobi_check(mat, 1, 2, 1, 2)
    assert rep.equal
    assert rep.lhs == det_rational(mat)  # det A * det(empty)
    assert rep.rhs == 7 * 3 - 4 * 5


def test_jacobi_equal_rows():
    mat = RingMatrix.from_rows(
        [[F(1), F(2), F(3)], [F(1), F(2), F(3)], [F(0), F(1), F(5)]]
    )
    rep = jacobi_check(mat, 1, 3, 1, 2)
    assert rep.equal
    assert rep.lhs == 0


def test_jacobi_random_all_pairs(rng):
    for n in range(2, 7):
        mat = RingMatrix(n, n, [F(rng.randint(-9, 9)) for _ in range(n * n)])
        for i1 in range(1, n + 1):
            for i2 in range(i1 + 1, n + 1):
                for j1 in range(1, n + 1):
                    for j2 in range(j1 + 1, n + 1):
                        assert jacobi_check(mat, i1, i2, j1, j2).equal


def test_sweep_jacobi_computes_each_minor_once(monkeypatch):
    calls = []

    def counted(m):
        calls.append(m)
        return det_rational(m)

    monkeypatch.setattr(identity, "det_rational", counted)
    shared = identity.sweep_jacobi(3)
    # per size N: the matrix, N^2 one-deletion and C(N, 2)^2 two-deletion minors
    assert len(calls) == sum(1 + n * n + math.comb(n, 2) ** 2 for n in (5, 6)) == 388
    # with no shared_minors block, every check takes its six minors afresh
    monkeypatch.setattr(identity, "shared_minors", contextlib.nullcontext)
    calls.clear()
    alone = identity.sweep_jacobi(3)
    assert len(calls) == 6 * 325
    assert shared == alone


def test_jacobi_checks_on_two_matrices_in_one_block(rng):
    # one block over two matrices of one size: each report reads its own
    # matrix's minors, as the same check outside any block does
    mats = [RingMatrix(4, 4, [rng.randint(-9, 9) for _ in range(16)]) for _ in range(2)]
    pairs = [(1, 2, 1, 3), (2, 4, 1, 2), (1, 3, 2, 4)]
    alone = [jacobi_check(m, *p) for m in mats for p in pairs]
    with ring.shared_minors():
        together = [jacobi_check(m, *p) for m in mats for p in pairs]
    assert [(r.lhs, r.rhs) for r in together] == [(r.lhs, r.rhs) for r in alone]
    assert len({r.lhs for r in alone}) > 1


def test_jacobi_index_validation():
    mat = RingMatrix.from_rows([[F(1), F(0)], [F(0), F(1)]])
    with pytest.raises(ValueError):
        jacobi_check(mat, 2, 1, 1, 2)
    with pytest.raises(ValueError):
        jacobi_check(mat, 1, 2, 1, 3)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def test_report_json_shape(rng):
    f, sys = atom_system(rng, 6, 4)
    rep = verify_theorem1(sys, IdentityInstance(n=2, xs=(F(1, 2),), ys=(F(1, 3),)))
    d = rep.to_json_dict()
    assert d["equal"] is True
    assert d["identity"] == "theorem1"
    assert isinstance(d["lhs"], str) and "/" in d["lhs"] or d["lhs"].lstrip("-").isdigit()
    assert "elapsed" not in d
