"""Orthogonal systems attached to a moment functional.

Builds the monic orthogonal polynomials p_n through the three-term
recurrence p_n = (x - s_{n-1}) p_{n-1} - t_{n-2} p_{n-2}, together with the
recurrence coefficients, the norms L(p_n^2), and the second-kind functions
q_n(y) = L(p_n(u) / (y - u)) in both exact (finite-atom) and formal-series
form.  Each norm L(p_n^2) is computed by two independent routes (an inner
product and the Hankel quotient H(n+1)/H(n)) and any disagreement is a hard
error; t_n, a quotient of two checked norms, needs no check of its own.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from operator import mul

from .moments import DomainError, FiniteAtomFunctional, ModeError, MomentFunctional, PoleAtAtomError
from .ring import (
    InverseSeries,
    RingMatrix,
    UniPoly,
    det_poly,
    integer_form,
    ratio,
)


class DegenerateFunctionalError(DomainError):
    """A required Hankel determinant H(j) vanishes."""

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(message or f"Hankel determinant H({index}) vanishes")


def _homogeneous_eval(coeffs, a: int, b: int, deg: int) -> int:
    """sum_i c_i a^i b^(deg-i) for deg at least the degree: b^deg times the
    polynomial at a/b (Horner on plain ints)."""
    it = reversed(coeffs)
    bpow = b ** (deg + 1 - len(coeffs))
    acc = next(it) * bpow
    for c in it:
        bpow *= b
        acc = acc * a + c * bpow
    return acc


class OrthoSystem:
    """The data (s_n), (t_n), p_n, norms attached to a functional.

    ``depth`` is the largest constructed polynomial index: p_0..p_depth,
    s_0..s_{depth-1}, t_0..t_{depth-2}, norms L(p_0^2)..L(p_{depth-1}^2).
    p(-1) is the zero polynomial.  p_n is kept only as ``int_polys[n] = (c,
    d_n)``, integer coefficients over one denominator; p(n) builds its
    UniPoly when read.  Row builders put d_b times the value in column b.
    For a finite-atom functional d_n w_a p_n(u_a) is tabled at build and the
    atom sums once per (y, order) under a lock, so a built system is safe to
    share across threads.
    """

    def __init__(self, functional, depth, s, t, int_polys, norms):
        self.functional = functional
        self.depth = depth
        self.s = tuple(s)
        self.t = tuple(t)
        self.int_polys = tuple(int_polys)
        self.norms = tuple(norms)
        self._atom_values, self._atom_sums, self._atom_lock = None, {}, threading.Lock()
        if isinstance(functional, FiniteAtomFunctional):
            # G_na / (W B^depth) = d_n w_a p_n(u_a), with w_a = N_a / W and u_a = U_a / B
            weights, weight_den = functional.modified_weights()
            nodes, b = functional.node_numerators, functional.node_scale
            self._atom_values = weight_den * b**depth, tuple(
                tuple(w * _homogeneous_eval(c, u, b, depth) for w, u in zip(weights, nodes))
                for c, _ in self.int_polys
            )

    def _check_index(self, n: int):
        if n < -1:
            raise ValueError("polynomial index below -1")
        if n > self.depth:
            raise ValueError(f"system depth is {self.depth}, p_{n} not built")

    def scales(self, cols) -> int:
        """The product of the d_b over the b >= 0 in cols, for a row's reader."""
        return math.prod([self.int_polys[b][1] for b in cols if b >= 0])

    def p(self, n: int) -> UniPoly:
        self._check_index(n)
        if n == -1:
            return UniPoly.zero()
        coeffs, d = self.int_polys[n]
        return UniPoly([Fraction(c, d) for c in coeffs])

    def p_row(self, cols, x, order: int = 0, scale: int = 1) -> tuple[list[int], int]:
        """Integers P_b and D > 0 with P_b / (D d_b) the Taylor coefficient
        p_b^(r)(x / scale)/r! for r = order and each b in cols, where p_b = 0
        for b < 0; x is an int or a Fraction.  At x_n / x_d integer Horner on
        the coefficients c_i binom(i, r) of p_b gives A_b / (d_b x_d^(b-r))."""
        xn, xd = x.numerator, x.denominator * scale
        top = max(-1, *cols)
        self._check_index(top)
        row = []
        for b in cols:
            if b < order:  # p_b has degree below r, or is zero
                row.append(0)
                continue
            coeffs = self.int_polys[b][0]
            if order:
                coeffs = [c * math.comb(i, order) for i, c in enumerate(coeffs)][order:]
            row.append(_homogeneous_eval(coeffs, xn, xd, top - order))
        return row, xd ** max(top - order, 0)

    def p_value(self, n: int, x, order: int = 0) -> Fraction:
        """The Taylor coefficient p_n^(r)(x)/r! for r = order (p_n(x) at the
        default 0), with p_b = 0 for b < 0: the one-column p_row."""
        (num,), den = self.p_row((n,), x, order)
        return Fraction(num, den * self.scales((n,)))

    def atom_sums(self, yn: int, yd: int, order: int) -> tuple[tuple[int, ...], int]:
        """Integers S_b, 0 <= b <= depth, and D > 0 with S_b / D = d_b
        q_b^(r)(y)/r! at y = yn / yd, r = order (finite-atom only), formed once
        per (yn, yd, r) under a lock, as MomentFunctional.hankel_det forms H(n):
        (-1)^r (B yd)^(r+1) sum_a G_ba (Pi / P_a) over W B^depth Pi, with y -
        u_a = e_a / (B yd), P_a = e_a^(r+1), Pi = prod_a P_a (its sign in S_b)."""
        cached = self._atom_sums.get((yn, yd, order))
        if cached is not None:
            return cached
        if self._atom_values is None:
            raise ModeError("exact q-values need a finite-atom functional")
        with self._atom_lock:
            cached = self._atom_sums.get((yn, yd, order))
            if cached is None:
                f, (den, values) = self.functional, self._atom_values
                b, lift = f.node_scale, f.node_scale * yd
                powered = [yn * b - u * yd for u in f.node_numerators]
                if not all(powered):
                    raise PoleAtAtomError(f"y = {Fraction(yn, yd)} is an atom node")
                if order:
                    powered = [p ** (order + 1) for p in powered]
                    lift = (-1) ** order * lift ** (order + 1)
                pi = math.prod(powered)
                cofactors, lift = [pi // p for p in powered], lift if pi > 0 else -lift
                cached = self._atom_sums[yn, yd, order] = (
                    tuple([lift * sum(map(mul, g, cofactors)) for g in values]), den * abs(pi))
        return cached


def build_ortho_system(f: MomentFunctional, depth: int) -> OrthoSystem:
    """Run the three-term recurrence up to p_depth on integer coefficients.

    Needs H(1)..H(depth) nonzero (checked; the first vanishing index is
    reported).  With p_{n-1} = c / d and the moment row mu_i = m_i / M,
    L(p_{n-1}^2) and L(u p_{n-1}^2) are integer dot products of c*c against
    m and m shifted, over d^2 M; the norm must equal H(n)/H(n-1) exactly.
    Both norms in t_{n-2} = L(p_{n-1}^2) / L(p_{n-2}^2) passed that check,
    so t_{n-2} is H(n)H(n-2)/H(n-1)^2 (2.4) exactly and is not checked
    again.  Only the O(n) update of p_n runs on Fractions; integer_form
    closes each step.  The moment row is read once, up to the horizon; a
    step past it raises MomentHorizonError after its H(n) check.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    int_polys = [((1,), 1)]
    s, t, norms = [], [], []
    prev2, prev = [], [Fraction(1)]
    mu, mu_den = f.moment_row(2 * depth if f.horizon is None else min(2 * depth, f.horizon + 1))
    for n in range(1, depth + 1):
        h_n = f.hankel_det(n)
        if not h_n:
            raise DegenerateFunctionalError(n)
        if len(mu) < 2 * n:
            f._require_horizon(2 * n - 1)
        coeffs, d = int_polys[n - 1]
        sq = [0] * (2 * n - 1)
        for i, a in enumerate(coeffs):
            for j, b in enumerate(coeffs, i):
                sq[j] += a * b
        dot = sum(map(mul, sq, mu))
        w_prev = Fraction(dot, d * d * mu_den)
        if w_prev != h_n / f.hankel_det(n - 1):
            raise ArithmeticError(f"norm L(p_{n-1}^2) disagrees with H({n})/H({n-1})")
        norms.append(w_prev)
        s_n = Fraction(sum(map(mul, sq, mu[1:])), dot)
        s.append(s_n)
        new = [a - s_n * b for a, b in zip([0, *prev], [*prev, 0])]
        if n >= 2:
            t_n = w_prev / norms[n - 2]
            t.append(t_n)
            for i, c in enumerate(prev2):
                new[i] -= t_n * c
        prev2, prev = prev, new
        int_polys.append(integer_form(new))
    return OrthoSystem(f, depth, s, t, int_polys, norms)


def hankel_product_formula(sys: OrthoSystem, n: int) -> Fraction:
    """mu_0^n * prod_{i<=n-2} t_i^(n-i-1); equals H(n).

    For normalized functionals (mu_0 = 1) this is the classical product
    formula H(n) = prod t_i^(n-i-1).
    """
    if n - 2 >= len(sys.t):
        raise ValueError("system too shallow for this n")
    value = sys.functional.moment(0) ** n
    for i in range(n - 1):
        value *= sys.t[i] ** (n - i - 1)
    return value


def poly_lemma4(f: MomentFunctional, n: int) -> UniPoly:
    """Monic p_n in x as a bordered-Hankel determinant divided by H(n).

    The (n+1) x (n+1) matrix has moment rows (mu_i .. mu_{i+n}) for
    i = 0..n-1 and the bottom row (1, x, ..., x^n); det_poly computes it on
    the integer moment row m_i / M, and M^n goes into the divisor.
    """
    if n == 0:
        return UniPoly.one()
    h_n = f.hankel_det(n)
    if not h_n:
        raise DegenerateFunctionalError(n)
    mu, den = f.moment_row(2 * n)
    x = UniPoly.variable()
    rows = [mu[i : i + n + 1] for i in range(n)]
    rows.append([x**j for j in range(n + 1)])
    return det_poly(RingMatrix.from_rows(rows), ["x"]) * (1 / (den**n * h_n))


def poly_lemma5(f: MomentFunctional, n: int) -> UniPoly:
    """det(mu_{i+j+1} - mu_{i+j} x), 0 <= i, j <= n-1: an orthogonal
    polynomial of degree <= n.

    When H(n) != 0 it equals (-1)^n H(n) p_n(x): the x^n coefficient of the
    determinant is det(-mu_{i+j}) = (-1)^n H(n).  Computed by det_poly on
    the integer moment row m_i / M, over M^n.
    """
    if n == 0:
        return UniPoly.one()
    mu, den = f.moment_row(2 * n)
    lin = [UniPoly([mu[s + 1], -mu[s]]) for s in range(2 * n - 1)]
    return det_poly(RingMatrix.hankel(lin, n), ["x"]) * Fraction(1, den**n)


def q_row(sys: OrthoSystem, cols, y, order: int = 0, scale: int = 1) -> tuple[list[int], int]:
    """Integers Q_b and D > 0 with Q_b / (D d_b) the Taylor coefficient
    q_b^(r)(y / scale)/r! for r = order and each b in cols, d_b as in
    OrthoSystem.p_row; y is an int or a Fraction, as x there.

    For b >= 0 that is the exact atom sum (finite-atom only)
    sum_a w_a p_b(u_a) (-1)^r / (y - u_a)^(r+1), read from
    OrthoSystem.atom_sums, which forms it for every b once per (y, r).  For
    b < 0 the convention q_b(y) = y^e, e = -b-1, gives binom(e, r)
    y^(e-r), over y_d^(e-r) up to the lowest column's.  A y on an atom node
    raises PoleAtAtomError only when some b >= 0.
    """
    yn, yd = y.numerator, y.denominator * scale
    top = max(-1, *cols)
    sys._check_index(top)
    sums, den = sys.atom_sums(yn, yd, order) if top >= 0 else ((), 1)
    low = max(-min(cols, default=0) - 1 - order, 0)  # the power of yd in D / den
    row = []
    for b in cols:
        e = -b - 1
        if b >= 0:
            row.append(sums[b] * yd**low)
        elif e >= order:
            row.append(math.comb(e, order) * yn ** (e - order) * yd ** (low + order - e) * den)
        else:
            row.append(0)
    return row, den * yd**low


def q_exact(sys: OrthoSystem, n: int, y, order: int = 0) -> Fraction:
    """The Taylor coefficient q_n^(r)(y)/r! for r = order, exact
    (finite-atom): sum_a w_a p_n(u_a) (-1)^r / (y - u_a)^(r+1), which is
    q_n(y) = sum_a w_a p_n(u_a) / (y - u_a) at the default 0.  It is the
    one-column q_row.  For n < 0 the convention is q_n(y) = y^(-n-1), which
    this does not compute."""
    if n < 0:
        raise ValueError(f"q_{n} is y^({-n - 1}) by the b < 0 convention, not q_exact's")
    if order < 0:
        raise ValueError("derivative order must be non-negative")
    (num,), den = q_row(sys, (n,), y, order)
    return Fraction(num, den * sys.scales((n,)))


def q_table(sys: OrthoSystem, cols, start: int, stop: int) -> tuple[list[list[int]], int]:
    """Integers Q[i][j] and D > 0 with Q[i][j] / (D d_b) the coefficient of
    z^d, d = start + i < stop and z = 1/y, in q_b(y) for b = cols[j] >= 0:
    L(p_b u^(d-1)), 0 for d <= 0, from p_b's integer coefficients against
    the moment row m_i / D, read once.  Orthogonality makes it 0 for d <= b,
    which is checked.  A column b < 0, the power y^(-b-1), is refused.
    """
    if min(cols, default=0) < 0:
        raise ValueError("q_b(y) = y^(-b-1) for b < 0 by convention, not a q_table column")
    sys._check_index(max(cols, default=-1))
    mu, den = sys.functional.moment_row(max(cols) + stop - 1 if cols and stop > 1 else 0)
    columns = []
    for b in cols:
        col = [0] * max(stop - start, 0)
        coeffs, d = sys.int_polys[b]
        for i in range(stop - 1):  # d = i + 1
            num = sum(map(mul, coeffs, mu[i : i + b + 1]))
            if i < b and num:
                raise ArithmeticError(
                    f"orthogonality violated: L(p_{b} u^{i}) = {ratio(num, d * den)} != 0"
                )
            if i >= start - 1:
                col[i + 1 - start] = num
        columns.append(col)
    return [list(row) for row in zip(*columns)], den


def q_series(
    sys: OrthoSystem, n: int, truncation: int, variables=("y",), slot: int = 0
) -> InverseSeries:
    """q_n as a formal series in 1/y: sum_{i>=n} L(p_n u^i) y^(-i-1).

    Orthogonality kills every i < n (checked), the coefficient of y^(-n-1)
    is the norm H(n+1)/H(n).  `slot` picks which variable of a multivariate
    series ring carries the expansion.  It is the one-column q_table over
    1 <= d < truncation; integral coefficients stay ints.  For n < 0 the
    convention is q_n(y) = y^(-n-1), which q_table refuses.
    """
    if truncation <= 0:
        raise ValueError("truncation order must be positive")
    variables = tuple(variables)
    table, den = q_table(sys, (n,), 1, truncation)
    den *= sys.scales((n,))
    exps = [0] * len(variables)
    terms = {}
    for d, (c,) in enumerate(table, 1):
        if c:
            exps[slot] = d
            terms[tuple(exps)] = ratio(c, den)
    # built clean: nonzero coefficients, degree d < truncation
    return InverseSeries._make(variables, terms, truncation, truncation)
