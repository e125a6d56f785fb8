"""Acceptance suite: every criterion is exact (zero tolerance).

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion, with instance counts and wall time.
"""

import random
import time
from fractions import Fraction

from opident.chebyshev import conjecture16_table, run_chebyshev_suite
from opident.identity import (
    sweep_jacobi,
    sweep_lemmas,
    sweep_prop13,
    sweep_theorem1_atom,
    sweep_theorem1_series,
    uvarov_system,
)
from opident.moments import random_atom_functional
from opident.orthopoly import build_ortho_system, poly_lemma4, q_exact, q_series
from opident.ring import (
    RingMatrix,
    det_berkowitz,
    det_cofactor,
    det_rational,
)

F = Fraction

SEED = 20260808


def _report(criterion: str, detail: str, elapsed: float):
    print(f"ACCEPTANCE {criterion}: PASS  ({detail}, {elapsed:.1f}s)")


def test_criterion_1_theorem1_atom_sweep():
    """100 random 8-atom functionals, all (n,k,m) with n<=6, k<=3, m<=3,
    exact equality in every instance including every n < k case; < 60 s."""
    t0 = time.perf_counter()
    reports = sweep_theorem1_atom(SEED, trials=100, max_n=6, max_k=3, max_m=3)
    elapsed = time.perf_counter() - t0
    assert len(reports) == 100 * 7 * 4 * 4
    bad = [r for r in reports if not r.equal]
    assert not bad, bad[0].params if bad else None
    n_lt_k = sum(1 for r in reports if r.params["n"] < r.params["k"])
    assert n_lt_k >= 100 * 10  # the power-column matrix path is exercised
    assert elapsed < 60.0
    _report("1 (theorem 1, atom mode)", f"{len(reports)} instances", elapsed)


def test_criterion_2_theorem1_series_sweep():
    """20 random moment sequences, k in {1,2}, m<=2, n<=4: both sides agree
    on every inverse-variable coefficient of total degree < 25; < 120 s."""
    t0 = time.perf_counter()
    reports = sweep_theorem1_series(
        SEED, trials=20, truncation=25, max_n=4, ks=(1, 2), max_m=2
    )
    elapsed = time.perf_counter() - t0
    assert len(reports) == 20 * 2 * 3 * 5
    assert all(r.equal for r in reports)
    assert all(r.compared_order is not None and r.compared_order >= 25 for r in reports)
    assert elapsed < 120.0
    _report("2 (theorem 1, formal series)", f"{len(reports)} instances, order 25", elapsed)


def test_criterion_3_confluent_cases():
    """Double x and/or double y (multiplicities <= 2), n <= 5: the confluent
    right-hand side matches the directly computed left-hand side exactly."""
    t0 = time.perf_counter()
    reports = sweep_prop13(SEED, trials=4, max_n=5)
    elapsed = time.perf_counter() - t0
    assert len(reports) >= 20
    assert all(r.equal for r in reports)
    _report("3 (confluent cases)", f"{len(reports)} instances", elapsed)


def test_criterion_4_lemmas_and_jacobi():
    """Lemmas 8 and 9 as exact bivariate polynomial identities, >= 50
    instances each with n <= 6; Jacobi condensation for all index pairs on
    random 5x5 and 6x6 rational matrices."""
    t0 = time.perf_counter()
    lemma_reports = sweep_lemmas(SEED, trials=9, max_n=6)
    by_lemma = {"lemma8": 0, "lemma9": 0}
    for r in lemma_reports:
        assert r.equal, r.params
        by_lemma[r.identity] += 1
    assert by_lemma["lemma8"] >= 50 and by_lemma["lemma9"] >= 50
    jacobi_reports = sweep_jacobi(SEED, sizes=(5, 6))
    assert all(r.equal for r in jacobi_reports)
    assert len(jacobi_reports) == 100 + 225  # all admissible index pairs
    elapsed = time.perf_counter() - t0
    _report(
        "4 (lemmas 8/9 + Jacobi)",
        f"{len(lemma_reports)} lemma + {len(jacobi_reports)} Jacobi instances",
        elapsed,
    )


def test_criterion_5_orthogonal_system_internals():
    """Over 20 random functionals, for n <= 8: the Hankel product formula,
    the bordered-determinant polynomial, the q-series leading coefficient
    H(n+1)/H(n) with its n vanishing head coefficients, and the three-term
    recurrence of q --- all exact."""
    t0 = time.perf_counter()
    rng = random.Random(SEED)
    depth = 8
    for trial in range(20):
        # mu_0 = 1 so the product formula reads exactly prod t_i^(n-i-1)
        f = random_atom_functional(
            rng, 10, hankel_nonzero_upto=depth + 1, normalize=True
        )
        sys = build_ortho_system(f, depth)
        for n in range(depth + 1):
            prod = F(1)
            for i in range(n - 1):
                prod *= sys.t[i] ** (n - i - 1)
            assert f.hankel_det(n) == prod
            assert poly_lemma4(f, n) == sys.p(n)
        for n in range(depth + 1):
            s = q_series(sys, n, depth + 3)
            for i in range(1, n + 1):
                assert s.coefficient((i,)) == 0
            assert s.coefficient((n + 1,)) == f.hankel_det(n + 1) / f.hankel_det(n)
        y = F(rng.randrange(1, 60) * 3 + 1, 3)
        q_vals = [q_exact(sys, n, y) for n in range(depth + 1)]
        assert q_vals[1] == (y - sys.s[0]) * q_vals[0] - f.moment(0)
        for n in range(2, depth + 1):
            assert q_vals[n] == (y - sys.s[n - 1]) * q_vals[n - 1] - sys.t[n - 2] * q_vals[n - 2]
    elapsed = time.perf_counter() - t0
    _report("5 (orthogonal-system internals)", "20 functionals, n <= 8", elapsed)


def test_criterion_6_uvarov_orthogonality():
    """P_0..P_5 for k = 1 and k = 2 modifications of random 10-atom
    functionals: the modified functional's Gram matrix is exactly diagonal,
    with the degree flags reported."""
    t0 = time.perf_counter()
    rng = random.Random(SEED)
    checked = 0
    for trial in range(3):
        f = random_atom_functional(rng, 10, hankel_nonzero_upto=6)
        for ys in ((F(1, 3),), (F(1, 3), F(-2, 3))):
            res = uvarov_system(f, ys=ys, upto=5)
            assert res.orthogonal
            assert len(res.degree_ok) == 6
            assert all(isinstance(flag, bool) for flag in res.degree_ok)
            checked += 1
    elapsed = time.perf_counter() - t0
    _report("6 (Uvarov construction)", f"{checked} modified systems", elapsed)


def test_criterion_7_section7_reproduction():
    """The two X-linear Hankel evaluations exact over Q[X] for n <= 10 on a
    rational (a, b) grid, and the catalogued closed forms for n <= 12; < 30 s.
    One suite run to n = 12 covers both.

    The b = 1 specialization's stated mod-3 case labels are rotated by one
    (already false at n = 1 by direct evaluation); its content is verified
    through the corrected labels and the discrepancy is asserted explicitly
    rather than suppressed.
    """
    t0 = time.perf_counter()
    run = run_chebyshev_suite(max_n=12)
    elapsed = time.perf_counter() - t0
    assert all(r.equal for r in run.theorem14)
    assert all(r.equal for r in run.theorem15)
    for row in run.closed_forms:
        if row.identity in ("7.10", "7.11", "7.12", "7.15", "7.16-corrected"):
            assert row.equal, (row.identity, row.params)
        elif row.identity == "7.16":
            assert not row.equal, (row.identity, row.params)
    # spot values the closed forms must hit exactly
    r711 = [r for r in run.closed_forms if r.identity == "7.11"]
    assert all(r.lhs == F(1, 2 ** (r.params["n"] * (r.params["n"] - 1))) for r in r711)
    assert elapsed < 30.0
    _report(
        "7 (chebyshev closed forms)",
        f"{len(run.theorem14)} + {len(run.theorem15)} grid instances, n <= 12 forms",
        elapsed,
    )


def test_criterion_8_conjecture_status_table():
    """Conjecture status for n <= 12 with exact per-n values; the n = 1
    failure of the first conjectured evaluation is reported, not hidden."""
    t0 = time.perf_counter()
    rows = conjecture16_table(12)
    assert len(rows) == 24  # both conjectured evaluations, n = 1..12
    table = {(r.identity, r.params["n"]): r for r in rows}
    for ident in ("7.17", "7.18"):
        for n in range(1, 13):
            row = table[(ident, n)]
            d = row.to_json_dict()
            assert d["lhs"] and d["rhs"]  # exact per-n values present
    first = table[("7.17", 1)]
    assert not first.equal  # the n = 1 discrepancy is reported
    assert str(first.lhs) == "Y + 1" and str(first.rhs) == "2*Y - 1"
    elapsed = time.perf_counter() - t0
    _report("8 (conjecture status table)", f"{len(rows)} rows", elapsed)


def test_criterion_9_determinant_cross_check():
    """Berkowitz, fraction-free Bareiss and cofactor expansion agree exactly
    on 1000 random rational matrices up to 6x6."""
    t0 = time.perf_counter()
    rng = random.Random(SEED)
    for i in range(1000):
        n = rng.randint(1, 6)
        entries = [
            F(rng.randint(-9, 9), rng.choice((1, 1, 2, 3))) for _ in range(n * n)
        ]
        mat = RingMatrix(n, n, entries)
        a = det_rational(mat)
        assert det_berkowitz(mat) == a
        assert det_cofactor(mat) == a
    elapsed = time.perf_counter() - t0
    _report("9 (determinant cross-check)", "1000 matrices", elapsed)


def test_criterion_10_series_sweep_up_to_n6_m3():
    """The series shapes beyond criterion 2 for k in {1,2}: n <= 6, m <= 3,
    which include the 5x5 right-hand side at k + m = 5; every instance
    agrees below total degree 25; < 60 s."""
    t0 = time.perf_counter()
    reports = sweep_theorem1_series(
        SEED, trials=2, truncation=25, max_n=6, ks=(1, 2), max_m=3
    )
    elapsed = time.perf_counter() - t0
    assert len(reports) == 2 * 2 * 4 * 7
    assert all(r.equal for r in reports)
    assert all(r.compared_order is not None and r.compared_order >= 25 for r in reports)
    assert elapsed < 60.0
    _report("10 (theorem 1, formal series, n <= 6, m <= 3)",
            f"{len(reports)} instances, order 25", elapsed)


def test_criterion_11_series_sweep_k3():
    """Three formal ys: n <= 4, m <= 2, every instance agrees below total
    degree 20; < 60 s."""
    t0 = time.perf_counter()
    reports = sweep_theorem1_series(
        SEED, trials=5, truncation=20, max_n=4, ks=(3,), max_m=2
    )
    elapsed = time.perf_counter() - t0
    assert len(reports) == 5 * 3 * 5
    assert all(r.equal for r in reports)
    assert all(r.compared_order is not None and r.compared_order >= 20 for r in reports)
    assert elapsed < 60.0
    _report("11 (theorem 1, formal series, k = 3)",
            f"{len(reports)} instances, order 20", elapsed)
