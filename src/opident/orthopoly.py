"""Orthogonal systems attached to a moment functional.

Builds the monic orthogonal polynomials p_n through the three-term
recurrence p_n = (x - s_{n-1}) p_{n-1} - t_{n-2} p_{n-2}, together with the
recurrence coefficients, the norms L(p_n^2), and the second-kind functions
q_n(y) = L(p_n(u) / (y - u)) in both exact (finite-atom) and formal-series
form.  The recurrence coefficients are always computed by two independent
routes (inner-product quotients and Hankel-determinant quotients) and any
disagreement is a hard error.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .moments import FiniteAtomFunctional, ModeError, MomentFunctional, PoleAtAtomError
from .ring import InverseSeries, RingMatrix, UniPoly, det_poly, det_rational

_ZERO = Fraction(0)
_ONE = Fraction(1)


class DegenerateFunctionalError(Exception):
    """A required Hankel determinant H(j) vanishes."""

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(message or f"Hankel determinant H({index}) vanishes")


class OrthoSystem:
    """The data (s_n), (t_n), p_n, norms attached to a functional.

    ``depth`` is the largest constructed polynomial index: p_0..p_depth,
    s_0..s_{depth-1}, t_0..t_{depth-2}, norms L(p_0^2)..L(p_{depth-1}^2).
    Immutable once built; p(-1) is the zero polynomial.
    """

    def __init__(self, functional, depth, s, t, polys, norms, var):
        self.functional = functional
        self.depth = depth
        self.s = tuple(s)
        self.t = tuple(t)
        self.polys = tuple(polys)
        self.norms = tuple(norms)
        self.var = var
        self._node_values = {}

    def p(self, n: int) -> UniPoly:
        if n < -1:
            raise ValueError("polynomial index below -1")
        if n == -1:
            return UniPoly.zero(self.var)
        if n > self.depth:
            raise ValueError(f"system depth is {self.depth}, p_{n} not built")
        return self.polys[n]

    def norm(self, n: int) -> Fraction:
        """L(p_n^2); equals H(n+1)/H(n)."""
        if n < len(self.norms):
            return self.norms[n]
        if n == self.depth:
            return self.functional.apply(self.polys[n] * self.polys[n])
        raise ValueError(f"system depth is {self.depth}, norm {n} not available")

    def p_value(self, n: int, x) -> Fraction:
        """p_n evaluated at x, with p_b = 0 for b < 0."""
        if n < 0:
            return _ZERO
        return self.p(n).eval(Fraction(x))

    def p_values_at_nodes(self, n: int):
        """Evaluations of p_n at the atom nodes, cached (finite-atom only)."""
        vals = self._node_values.get(n)
        if vals is None:
            vals = tuple(self.p(n).eval(u) for u, _ in self.functional.atoms)
            self._node_values[n] = vals
        return vals


def build_ortho_system(
    f: MomentFunctional, depth: int, var: str = "x"
) -> OrthoSystem:
    """Run the three-term recurrence up to p_depth.

    Needs H(1)..H(depth) nonzero (checked; the first vanishing index is
    reported).  Each t is computed both as a norm quotient and as the
    Hankel quotient H(n+1)H(n-1)/H(n)^2 and the two must agree exactly.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    x = UniPoly.variable(var)
    polys = [UniPoly.one(var)]
    s: list[Fraction] = []
    t: list[Fraction] = []
    norms: list[Fraction] = []
    for n in range(1, depth + 1):
        h_n = f.hankel_det(n)
        if not h_n:
            raise DegenerateFunctionalError(n)
        p_prev = polys[n - 1]
        sq = p_prev * p_prev
        w_prev = f.apply(sq)
        if w_prev != h_n / f.hankel_det(n - 1):
            raise ArithmeticError(
                f"norm L(p_{n-1}^2) disagrees with H({n})/H({n-1})"
            )
        norms.append(w_prev)
        s_n = f.apply(sq.shift(1)) / w_prev
        s.append(s_n)
        new = x * p_prev - s_n * p_prev
        if n >= 2:
            t_n = w_prev / norms[n - 2]
            t_hankel = h_n * f.hankel_det(n - 2) / f.hankel_det(n - 1) ** 2
            if t_n != t_hankel:
                raise ArithmeticError(
                    f"t_{n-2} from norms disagrees with Hankel quotient (2.4)"
                )
            t.append(t_n)
            new = new - t_n * polys[n - 2]
        polys.append(new)
    return OrthoSystem(f, depth, s, t, polys, norms, var)


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


def poly_lemma4(f: MomentFunctional, n: int, var: str = "x") -> UniPoly:
    """Monic p_n as a bordered-Hankel determinant divided by H(n).

    The (n+1) x (n+1) matrix has moment rows (mu_i .. mu_{i+n}) for
    i = 0..n-1 and the bottom row (1, x, ..., x^n); expanding along the
    bottom row gives the coefficients as signed rational minors.
    """
    if n == 0:
        return UniPoly.one(var)
    h_n = f.hankel_det(n)
    if not h_n:
        raise DegenerateFunctionalError(n)
    f._require_horizon(2 * n - 1)
    coeffs = []
    for j in range(n + 1):
        rows = [
            [f.moment(i + jj) for jj in range(n + 1) if jj != j] for i in range(n)
        ]
        minor = det_rational(RingMatrix.from_rows(rows))
        sign = -1 if (n + j) % 2 else 1
        coeffs.append(sign * minor / h_n)
    return UniPoly(coeffs, var)


def poly_lemma5(f: MomentFunctional, n: int, var: str = "x") -> UniPoly:
    """det(mu_{i+j+1} - mu_{i+j} x), 0 <= i, j <= n-1: an orthogonal
    polynomial of degree <= n.

    When H(n) != 0 it equals (-1)^n H(n) p_n(x): the x^n coefficient of the
    determinant is det(-mu_{i+j}) = (-1)^n H(n).  Computed by evaluation at
    n+1 rational points and exact interpolation.
    """
    if n == 0:
        return UniPoly.one(var)
    f._require_horizon(2 * n - 1)
    return det_poly(
        lambda p, i, j: f.moment(i + j + 1) - f.moment(i + j) * p[0], n, [(var, n)]
    )


def _require_atoms(sys: OrthoSystem) -> FiniteAtomFunctional:
    if not isinstance(sys.functional, FiniteAtomFunctional):
        raise ModeError("exact q-values need a finite-atom functional")
    return sys.functional


def q_exact(sys: OrthoSystem, n: int, y) -> Fraction:
    """q_n(y) = sum_a w_a p_n(u_a) / (y - u_a), exact (finite-atom)."""
    f = _require_atoms(sys)
    y = Fraction(y)
    vals = sys.p_values_at_nodes(n)
    total = _ZERO
    for (u, w), pv in zip(f.atoms, vals):
        if u == y:
            raise PoleAtAtomError(f"y = {y} is an atom node")
        total += w * pv / (y - u)
    return total


def q_derivative_exact(sys: OrthoSystem, n: int, order: int, y) -> Fraction:
    """r-th derivative of q_n at y:
    sum_a w_a p_n(u_a) (-1)^r r! / (y - u_a)^(r+1)."""
    if order < 0:
        raise ValueError("derivative order must be non-negative")
    f = _require_atoms(sys)
    y = Fraction(y)
    vals = sys.p_values_at_nodes(n)
    sign_fact = math.factorial(order) * (-1 if order % 2 else 1)
    total = _ZERO
    for (u, w), pv in zip(f.atoms, vals):
        if u == y:
            raise PoleAtAtomError(f"y = {y} is an atom node")
        total += w * pv * sign_fact / (y - u) ** (order + 1)
    return total


def q_series(
    sys: OrthoSystem, n: int, truncation: int, variables=("y",), slot: int = 0
) -> InverseSeries:
    """q_n as a formal series in 1/y: sum_{i>=n} L(p_n u^i) y^(-i-1).

    Orthogonality kills every i < n (checked), the coefficient of y^(-n-1)
    is the norm H(n+1)/H(n).  `slot` picks which variable of a multivariate
    series ring carries the expansion.
    """
    variables = tuple(variables)
    f = sys.functional
    p = sys.p(n)
    if truncation - 2 >= 0:
        f._require_horizon(n + truncation - 2)
    terms = {}
    for i in range(truncation - 1):
        c = sum((pc * f.moment(i + r) for r, pc in enumerate(p.coeffs) if pc), _ZERO)
        if i < n:
            if c:
                raise ArithmeticError(
                    f"orthogonality violated: L(p_{n} u^{i}) = {c} != 0"
                )
            continue
        if c:
            exps = [0] * len(variables)
            exps[slot] = i + 1
            terms[tuple(exps)] = c
    return InverseSeries(variables, terms, truncation, cap=truncation)
