"""Closed-form layer for the Chebyshev / Catalan specialization.

Only the monic second-kind polynomials exist internally (recurrence
p_n = x p_{n-1} - p_{n-2}); every classical value U_n(z) is the monic
polynomial evaluated at 2z.  The transcendental integral value is never
evaluated analytically: it lives as the formal symbol X, and all determinant
identities below are exact polynomial identities in Q[X] or Q[Y].  Every
check returns a VerificationReport whose identity is its equation label.
Every Hankel determinant here has integer entries K_s + V c r^s, V = X or
Y: a rank-one variable part, so it is linear in V (see _rank_one_minors).
Each report takes one size n of one fixed entry sequence, so its matrix is
the leading n x n block of the largest one: the suites read every size off
two eliminations (ring.leading_minors) per grid point or closed form, one of
K and one of K + c u u^T, shared by the reports of one run (shared_minors).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .identity import Record, VerificationReport
from .moments import ChebyshevCatalanFunctional
from .ring import (UniPoly, binomial, format_rational, integer_form, leading_minors, ratio,
                   shared, shared_minors)

_ZERO = Fraction(0)


@lru_cache(maxsize=None)
def chebU_monic(n: int) -> UniPoly:
    """Monic Chebyshev-U polynomial in x: p_0 = 1, p_1 = x,
    p_n = x p_{n-1} - p_{n-2}; index -1 is the zero polynomial."""
    if n < -1:
        raise ValueError("index must be >= -1")
    if n == -1:
        return UniPoly.zero()
    if n == 0:
        return UniPoly.one()
    if n == 1:
        return UniPoly.variable()
    return UniPoly.variable() * chebU_monic(n - 1) - chebU_monic(n - 2)


@lru_cache(maxsize=1024)
def _chebU_at(n: int, z: Fraction) -> Fraction:
    """chebU_monic(n) at z, evaluated once per (n, z): the theorem grids
    revisit each point for every a or b paired with it."""
    return chebU_monic(n).eval(z)


def _report(identity: str, n: int, lhs, rhs, note: str = "", **rationals) -> VerificationReport:
    """lhs against rhs at one n; the rationals (a, b) join n in params as
    "p/q" strings."""
    params = {"n": n} | {name: format_rational(v) for name, v in rationals.items()}
    return VerificationReport(identity, params, lhs, rhs, lhs == rhs, note=note)


def modified_moment_cheb(n: int, a: Fraction) -> UniPoly:
    """n-th moment of the Chebyshev weight divided by (u + 2a):

        X (-2a)^n + sum_{k=0}^{floor((n-1)/2)} (-2a)^(n-2k-1) C_k,

    linear in the formal symbol X: entry n of _cheb_row, over d^n."""
    a = Fraction(a)
    rows, d = _cheb_row(n + 1, a)
    return UniPoly([Fraction(c, d**n) for c in rows[n]], "X")


def _cheb_row(count: int, a: Fraction) -> tuple[tuple, int]:
    """Integer pairs (K_s, P_s) and d, the denominator of a, with
    modified_moment_cheb(s, a) = (K_s + P_s X) / d^s for s = 0..count-1.

    With a = p/d the X coefficient is (-2a)^s, so P_s = (-2p)^s; the
    constant terms satisfy c_0 = 0 and c_{s+1} = -2a c_s + mu_s, so
    K_{s+1} = -2p K_s + d^(s+1) mu_s on the Chebyshev moment row, whose
    denominator is 1."""
    mu, _ = ChebyshevCatalanFunctional().moment_row(count)
    p, d = a.numerator, a.denominator
    rows, const, power, dpow = [], 0, 1, 1
    for s in range(count):
        rows.append((const, power))
        dpow *= d
        const = -2 * p * const + dpow * mu[s]
        power *= -2 * p
    return tuple(rows), d


def _rank_one_minors(entries, r: int, size: int) -> tuple[list, list]:
    """For n = 1..size, det K_n and the V coefficient of det(K_n + V c u u^T),
    K the Hankel matrix of the integer V-linear entries (K_s, c_s), u_i = r^i.
    The V coefficients must be c_s = c r^s: then the V part is c u u^T, rank
    one, and by the bordered form of the matrix determinant lemma (Horn and
    Johnson, Matrix Analysis, 2nd ed., 0.8.5)

        det(K + V c u u^T) = det K - V c det [[K, u], [u^T, 0]],

    linear in V (the replacement argument that makes X free), for a singular
    K too.  Any other V part raises ArithmeticError before a determinant is
    taken.  The V coefficient is det(K + c u u^T) - det K, and the leading
    minors of K and of K + c u u^T, the Hankel matrix of K_s + c_s, are one
    leading_minors run each; c = 0 needs only K."""
    consts, coeffs = zip(*entries)
    c = coeffs[0]
    if any(x != c * r**s for s, x in enumerate(coeffs)):
        raise ArithmeticError("variable part of the Hankel entries is not rank one")
    k = leading_minors([list(consts[i : i + size]) for i in range(size)])
    if not c:
        return k, [0] * size
    pencil = [x + y for x, y in zip(consts, coeffs)]
    kv = leading_minors([pencil[i : i + size] for i in range(size)])
    return k, [b - a for a, b in zip(k, kv)]


def _rank_one_det(minors, n: int, divisor: int, var: str) -> UniPoly:
    """The n x n determinant from _rank_one_minors over the divisor."""
    k, lin = minors[0][n - 1], minors[1][n - 1]
    return UniPoly([ratio(k, divisor), ratio(lin, divisor)], var)


def q_cheb(n: int, a: Fraction) -> UniPoly:
    """q_n(-2a) = -(X U_n(-a) + U_{n-1}(-a)) over Q[X] (monic convention)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    base = -2 * Fraction(a)
    return UniPoly([-_chebU_at(n - 1, base), -_chebU_at(n, base)], "X")


def theorem14_eval(n: int, a: Fraction) -> VerificationReport:
    """The "7.9" report: the X-linear Hankel evaluation

        det(X (-2a)^(i+j) + sum ...) = (-1)^(n-1) (X U_{n-1}(-a) + U_{n-2}(-a)).

    With rho_s = R_s / d^s (_cheb_row), row i scaled by d^i and column j by
    d^j turn rho_{i+j} into R_{i+j}, and the determinant by d^(n(n-1))."""
    if n < 1:
        raise ValueError("n must be positive")
    a = Fraction(a)
    minors = shared(("7.9", a), n, lambda size: _rank_one_minors(
        _cheb_row(2 * size - 1, a)[0], -2 * a.numerator, size))
    lhs = _rank_one_det(minors, n, a.denominator ** (n * (n - 1)), "X")
    base = -2 * a
    sign = -1 if (n - 1) % 2 else 1
    rhs = UniPoly([sign * _chebU_at(n - 2, base), sign * _chebU_at(n - 1, base)], "X")
    return _report("7.9", n, lhs, rhs, a=a)


def theorem15_eval(n: int, a: Fraction, b: Fraction) -> VerificationReport:
    """The "7.13" report, the k = m = 1 specialization: the determinant of
    rho_{i+j+1} - b rho_{i+j} against

        U_{n-1}(b/2)(X U_n(-a) + U_{n-1}(-a)) - U_n(b/2)(X U_{n-1}(-a) + U_{n-2}(-a)).

    With rho_s = R_s / d^s and b = b_num / b_den, row i scaled by d^i and
    column j by b_den d^(j+1) turn rho_{s+1} - b rho_s, s = i+j, into
    S_s = b_den R_{s+1} - b_num d R_s, and the determinant by b_den^n d^(n^2).
    """
    if n < 1:
        raise ValueError("n must be positive")
    a, b = Fraction(a), Fraction(b)
    bn, bd = b.numerator, b.denominator

    def minors(size):
        rows, d = _cheb_row(2 * size, a)
        sigma = [tuple(bd * hi - bn * d * lo for hi, lo in zip(r1, r0))
                 for r0, r1 in zip(rows, rows[1:])]
        return _rank_one_minors(sigma, -2 * a.numerator, size)

    # int keys: a Fraction hashes in Python, once per report
    key = ("7.13", a.numerator, a.denominator, bn, bd)
    lhs = _rank_one_det(shared(key, n, minors), n, bd**n * a.denominator ** (n * n), "X")
    base = -2 * a
    u_n2, u_n1, u_n = (_chebU_at(j, base) for j in (n - 2, n - 1, n))
    u_n1_b, u_n_b = _chebU_at(n - 1, b), _chebU_at(n, b)
    rhs = UniPoly([u_n1_b * u_n1 - u_n_b * u_n2, u_n1_b * u_n - u_n_b * u_n1], "X")
    return _report("7.13", n, lhs, rhs, a=a, b=b)


# ---------------------------------------------------------------------------
# Catalogued closed forms
# ---------------------------------------------------------------------------

def central_weight(s: int) -> Fraction:
    """2^(-2 ceil(s/2)) binom(2 ceil(s/2), ceil(s/2))."""
    c = (s + 1) // 2
    return Fraction(binomial(2 * c, c), 4**c)


def _det_shifted_identity(entry, n: int) -> UniPoly:
    """det(Y + entry(i+j)) as a polynomial in Y: with the entries of the run's
    size (shared) as K_s / D over their lcm D, the Y part is D times the
    all-ones matrix (c = D, r = 1), and each size n is over D^n."""
    def pencil(size):
        consts, den = integer_form([entry(s) for s in range(2 * size - 1)])
        return (*_rank_one_minors([(k, den) for k in consts], 1, size), den)

    minors = shared(entry, n, pencil)
    return _rank_one_det(minors, n, minors[2] ** n, "Y")


def row_7_10(n: int) -> VerificationReport:
    """-2^n + sum 2^(n-2k-1) C_k  ==  -binom(n, n/2) (even) or
    -binom(n+1, (n+1)/2)/2 (odd): the a = -1, X = -1 value of the modified
    moment."""
    lhs = modified_moment_cheb(n, Fraction(-1)).eval(Fraction(-1))
    if n % 2 == 0:
        rhs = -Fraction(binomial(n, n // 2))
    else:
        rhs = -Fraction(binomial(n + 1, (n + 1) // 2), 2)
    return _report("7.10", n, lhs, rhs)


def row_7_11(n: int) -> VerificationReport:
    """det of the pure central-binomial matrix == 2^(-n(n-1)): the Y^0
    coefficient of the 7.12 pencil."""
    lhs = _det_shifted_identity(central_weight, n).coefficient(0)
    rhs = Fraction(1, 2 ** (n * (n - 1)))
    return _report("7.11", n, lhs, rhs)


def row_7_12(n: int) -> VerificationReport:
    """det(Y + central(i+j)) == 2^(-n(n-1)) (Y n + 1)."""
    lhs = _det_shifted_identity(central_weight, n)
    scale = Fraction(1, 2 ** (n * (n - 1)))
    rhs = UniPoly([scale, scale * n], "Y")
    return _report("7.12", n, lhs, rhs)


def _entry_7_15(s: int) -> Fraction:
    return central_weight(s + 1)


def row_7_15(n: int) -> VerificationReport:
    """det(Y + central(i+j+1)) == (-1)^binom(n,2) 2^(-n^2) (2 ceil(n/2) Y + 1)."""
    lhs = _det_shifted_identity(_entry_7_15, n)
    sign = -1 if binomial(n, 2) % 2 else 1
    scale = Fraction(sign, 2 ** (n * n))
    rhs = UniPoly([scale, scale * 2 * ((n + 1) // 2)], "Y")
    return _report("7.15", n, lhs, rhs)


def _entry_7_16(s: int) -> Fraction:
    c = (s + 1) // 2
    c2 = (s + 2) // 2
    return Fraction(binomial(2 * c, c2), 4**c)


def _rhs_7_16(n: int, residue: int) -> UniPoly:
    scale = Fraction(1, 2 ** (n * (n - 1)))
    if residue == 0:
        return UniPoly([_ZERO, scale], "Y")
    if residue == 1:
        return UniPoly([-scale, -scale * (n + 1)], "Y")
    return UniPoly([scale, scale * n], "Y")


def row_7_16(n: int) -> tuple[VerificationReport, VerificationReport]:
    """The b = 1 specialization, compared against the stated mod-3 case
    split ("7.16") and against the case split it actually satisfies
    ("7.16-corrected").

    Direct evaluation shows the stated residue labels are rotated by one:
    the formula filed under n = 0 (mod 3) holds at n = 1 (mod 3), and so on
    cyclically (already at n = 1 the determinant is Y while the stated case
    says -(2Y + 1)).  The first report is the literal stated form, the
    second the label-corrected form; the discrepancy is reported, never
    patched over silently.
    """
    lhs = _det_shifted_identity(_entry_7_16, n)
    return (
        _report("7.16", n, lhs, _rhs_7_16(n, n % 3),
                note="stated mod-3 case labels (rotated by one)"),
        _report("7.16-corrected", n, lhs, _rhs_7_16(n, (n - 1) % 3),
                note="same case formulas attached to residue (n-1) mod 3"),
    )


def closed_form_suite(max_n: int = 12) -> list[VerificationReport]:
    """Evaluate every catalogued closed form for n = 1..max_n."""
    rows = []
    for n in range(1, max_n + 1):
        rows.append(row_7_10(n))
        rows.append(row_7_11(n))
        rows.append(row_7_12(n))
        rows.append(row_7_15(n))
        rows.extend(row_7_16(n))
    return rows


# ---------------------------------------------------------------------------
# Conjectured evaluations: reported per n, never asserted
# ---------------------------------------------------------------------------

def _entry_7_17(s: int) -> Fraction:
    c = (s + 1) // 2
    return Fraction(binomial(2 * c, c), 2**s)


def _entry_7_18(s: int) -> Fraction:
    c = (s + 2) // 2
    return Fraction(binomial(2 * c, c), 2 ** (s + 1))


def conjecture16_check(n: int) -> tuple[VerificationReport, VerificationReport]:
    """Status of the two conjectured evaluations at one n (exact lhs and the
    conjectured rhs; `equal` records whether the conjecture holds there)."""
    lhs17 = _det_shifted_identity(_entry_7_17, n)
    q17 = Fraction(-1, 2 ** ((n - 1) ** 2))
    rhs17 = UniPoly([q17, q17 * (n - 3)], "Y")

    lhs18 = _det_shifted_identity(_entry_7_18, n)
    sign = -1 if (n // 6) % 2 else 1
    scale = Fraction(sign, 2 ** (n * (n - 1)))
    halves = (4 * n + 2) // 3 if n % 2 == 0 else (4 * n + 4) // 3
    rhs18 = UniPoly([scale, scale * Fraction(halves, 2)], "Y")
    return (
        _report("7.17", n, lhs17, rhs17, note="conjecture"),
        _report("7.18", n, lhs18, rhs18, note="conjecture"),
    )


def conjecture16_table(max_n: int = 12) -> list[VerificationReport]:
    rows = []
    for n in range(1, max_n + 1):
        rows.extend(conjecture16_check(n))
    return rows


# ---------------------------------------------------------------------------
# Full chebyshev suite
# ---------------------------------------------------------------------------

class ChebyshevRun(Record):
    """The reports of one suite run: the 7.9 and 7.13 grids, the closed
    forms and the conjectures."""

    __slots__ = _fields = _compared = ("theorem14", "theorem15", "closed_forms", "conjectures")

    def __init__(self, theorem14: list[VerificationReport], theorem15: list[VerificationReport],
                 closed_forms: list[VerificationReport], conjectures: list[VerificationReport]):
        self.theorem14, self.theorem15 = theorem14, theorem15
        self.closed_forms, self.conjectures = closed_forms, conjectures

    @property
    def all_theorems_hold(self) -> bool:
        """Every non-conjectural report is equal, except "7.16": its stated
        case labels are off by one and "7.16-corrected" stands in for it."""
        return all(
            r.equal
            for r in self.theorem14 + self.theorem15 + self.closed_forms
            if r.identity != "7.16"
        )


A_GRID = (Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 5))
B_GRID = (Fraction(-1), Fraction(0), Fraction(1), Fraction(2), Fraction(1, 3))


def run_chebyshev_suite(max_n: int = 10) -> ChebyshevRun:
    """Theorem grids over rational (a, b), the closed forms and the
    conjectures for n <= max_n, each evaluation one VerificationReport."""
    ns = range(1, max_n + 1)
    with shared_minors(max_n):
        return ChebyshevRun(
            [theorem14_eval(n, a) for n in ns for a in A_GRID],
            [theorem15_eval(n, a, b) for n in ns for a in A_GRID for b in B_GRID],
            closed_form_suite(max_n),
            conjecture16_table(max_n),
        )
