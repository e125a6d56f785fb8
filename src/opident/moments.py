"""Moment functionals and their Hankel determinants.

A moment functional is a linear map L on polynomials, known through its
moment sequence mu_n = L(x^n).  Three backends:

* finite-atom measures (every integral is a finite rational sum),
* explicit moment sequences with a hard horizon (requests past the horizon
  raise, never silently return zero),
* the Chebyshev weight, whose even moments are the Catalan numbers.

Readers take the moments in one form, ``moment_row``: integer numerators
over one denominator.  On top of them sit the rationally modified moments
L(u^i * prod(u - x_l) / prod(u - y_l)), read in the same form
(``_modified_row``), exact for finite-atom measures and truncated
inverse-power series for formal y's, together with the Hankel determinants
of both; H(n) is the one with no x's and no y's.
"""

from __future__ import annotations

import json
import math
import threading
from fractions import Fraction
from itertools import product
from operator import mul

from .ring import (
    InverseSeries,
    UniPoly,
    binomial,
    det_int,
    format_rational,
    integer_form,
    parse_rational,
    ratio,
    schur_minors,
)

_ONE = Fraction(1)
_NO_PARAMS = ((), 1)  # integer_form of the empty parameter list


class DomainError(Exception):
    """A hypothesis of the theory fails for the given input: a vanishing
    Hankel determinant, a y on the support, a moment past the horizon, or a
    backend that cannot form the requested functional."""


class MomentHorizonError(DomainError):
    """A moment beyond the backend's horizon was requested."""


class PoleAtAtomError(DomainError):
    """A rational y parameter coincides with an atom node."""


class ModeError(DomainError):
    """Operation not available for this backend."""


def catalan(n: int) -> int:
    """C_n = binom(2n, n) / (n + 1)."""
    return binomial(2 * n, n) // (n + 1)


class MomentFunctional:
    """Base class: linearity, Hankel determinants, modified moments."""

    def __init__(self):
        self._hankel_cache = {0: _ONE}
        self._hankel_lock = threading.Lock()

    # -- backend interface ---------------------------------------------
    @property
    def horizon(self) -> int | None:
        """Largest servable moment index, or None when unbounded."""
        return None

    def moment_row(self, count: int) -> tuple[tuple[int, ...], int]:
        """Integers m_i and M > 0 with mu_i = m_i / M for i = 0..count-1:
        the one form in which the readers of the moments take them, and the
        one thing a backend implements."""
        raise NotImplementedError

    def _require_horizon(self, n: int):
        if n < 0:
            raise ValueError("moment index must be non-negative")
        h = self.horizon
        if h is not None and n > h:
            raise MomentHorizonError(f"moment {n} requested, horizon is {h}")

    def moment(self, n: int) -> Fraction:
        """mu_n = L(x^n): entry n of moment_row."""
        self._require_horizon(n)
        mu, den = self.moment_row(n + 1)
        return Fraction(mu[n], den)

    # -- linear functional ----------------------------------------------
    def apply(self, p: UniPoly) -> Fraction:
        """L(p) = sum_i coeff_i * mu_i: the integer coefficients of p against
        the moment row, over both denominators."""
        coeffs, den = integer_form(p.coeffs)
        mu, mu_den = self.moment_row(len(coeffs))
        return Fraction(sum(map(mul, coeffs, mu)), den * mu_den)

    # -- Hankel determinants ---------------------------------------------
    def hankel_det(self, n: int) -> Fraction:
        """H(n) = det(mu_{i+j}), 0 <= i, j <= n-1, H(0) = 1: modified_hankel_det(n), memoized."""
        cached = self._hankel_cache.get(n)
        if cached is not None:
            return cached
        with self._hankel_lock:
            cached = self._hankel_cache.get(n)
            if cached is None:
                cached = self.modified_hankel_det(n)
                self._hankel_cache[n] = cached
        return cached

    # -- modified moments --------------------------------------------------
    def modified_moment(self, i: int, xs=(), ys=()) -> Fraction:
        """L(u^i * prod(u - x_l) / prod(u - y_l)), exact: the one-entry
        _modified_row.

        Rational y's need a finite-atom backend; with no y's any backend
        works (the integrand is a polynomial).
        """
        if i < 0:
            raise ValueError("moment index must be non-negative")
        (num,), den = self._modified_row(i, 1, integer_form(xs), integer_form(ys))
        return Fraction(num, den)

    def modified_hankel_det(self, n: int, xs=(), ys=(), divisor=_ONE) -> Fraction:
        """det of the modified moments, 0 <= i, j <= n-1, over the nonzero
        rational ``divisor``: one integer Bareiss run on the Hankel matrix of
        the _modified_row numerators, over D^n and the divisor."""
        top, bottom = divisor.denominator, divisor.numerator
        if n:
            mm, den = self._modified_row(0, 2 * n - 1, integer_form(xs), integer_form(ys))
            top *= det_int([mm[i : i + n] for i in range(n)])
            bottom *= den**n
        return Fraction(top, bottom)

    def modified_moment_series(
        self, i: int, xs=(), variables=("y1",), truncation: int = 25
    ) -> InverseSeries:
        """Formal-series mode: each 1/(u - y_l) expands as
        -sum_t u^t y_l^(-t-1), truncated at total inverse degree `truncation`.

        The coefficient of prod y_l^(-e_l) (all e_l >= 1) is
        (-1)^k * L(u^(i + sum(e_l - 1)) * prod(u - x_l)), that is (-1)^k
        r_(i+|e|-k) / D with r_j / D the _modified_row; integral
        coefficients stay ints.
        """
        if i < 0:
            raise ValueError("moment index must be non-negative")
        variables = tuple(variables)
        k = len(variables)
        if k == 0:
            raise ValueError("series mode needs at least one inverse variable")
        terms = {}
        if truncation > k:
            r, den = self._modified_row(i, truncation - k, integer_form(xs))
            if k % 2:
                r = [-c for c in r]
            for e in product(range(1, truncation - k + 1), repeat=k):
                d = sum(e) - k
                if d < len(r) and r[d]:
                    terms[e] = ratio(r[d], den)
        # built clean: nonzero coefficients, k exponents, degree < trunc
        return InverseSeries._make(variables, terms, truncation, truncation)

    def modified_hankel_det_series(
        self, n: int, xs=(), variables=("y1",), truncation: int = 25
    ) -> tuple[dict, int]:
        """The Schur coefficients of the det of the modified-moment series,
        0 <= i, j <= n-1, k >= 1 formal ys: ({mu: c_mu}, D^n).

        With z_l = 1/y_l and r_j / D the _modified_row, entry s is (-1)^k
        z_1...z_k sum_beta h_beta(z) r_(s+beta), so the det is (-1)^(nk)
        (z_1...z_k)^n det(H^T M) / D^n, H_(beta,i) = h_(beta-i)(z), M_(beta,j)
        = r_(beta+j).  By Cauchy-Binet and Jacobi-Trudi, det(H^T M) = sum_mu
        c_mu s_mu(z), c_mu = det[r_(rho_a+j)] with rho_a = mu_(n-a) + a, over
        the partitions mu (k-tuples) of at most L = min(n, k) parts; below
        total degree `truncation` that is |mu| < truncation - nk.  Rows
        rho_a = a, a < n - L, are fixed, and ring.schur_minors puts the last
        L on them, rho_(n-1) on top: the rows reversed, at (-1)^binom(n, 2).
        """
        k = len(tuple(variables))
        if k < 1:
            raise DomainError("series mode needs at least one formal y")
        reach = truncation - n * k
        if reach <= 0:
            return {}, 1
        levels = min(n, k)
        r, den = self._modified_row(0, max(2 * n - 2 + reach, 0), integer_form(xs))
        fixed = [r[a : a + n] for a in reversed(range(n - levels))]
        rows = [r[s : s + n] for s in range(n - levels, n + reach - 1)]
        return schur_minors(fixed, rows, levels, reach, k - levels, (-1) ** binomial(n, 2)), den**n

    def _modified_row(self, start: int, count: int, xs=_NO_PARAMS, ys=_NO_PARAMS):
        """Integers r_j and D > 0 with modified moment j equal to r_j / D for
        j = start..start+count-1, the parameters given by integer_form.  Here
        the integrand u^j prod(u - x_l) is a polynomial (rational y's raise
        ModeError): with the xs as numerators X_l over d, the integer
        coefficients of prod(d u - X_l) go against moment_row, over d^m
        times the row's denominator."""
        if ys[0]:
            raise ModeError("rational y parameters need a finite-atom functional")
        nums, d = xs
        base = [1]
        for x in nums:
            base = [d * a - x * c for a, c in zip([0, *base], [*base, 0])]
        width = len(base)
        mu, mu_den = self.moment_row(start + count + width - 1)
        mu, den = mu[start:], d ** len(nums) * mu_den
        return [sum(map(mul, base, mu[j : j + width])) for j in range(count)], den

    # -- serialization -----------------------------------------------------
    def to_json_dict(self) -> dict:
        raise NotImplementedError


class FiniteAtomFunctional(MomentFunctional):
    """Discrete measure sum w_a * delta(u_a): nodes pairwise distinct,
    weights nonzero.  Every integral of the theory is a finite rational sum,
    so this is the canonical exact-verification backend.

    The sums run on plain ints: node u_a is ``node_numerators[a] /
    node_scale`` (the scale is the lcm of the node denominators), and every
    weight vector is a list of integer numerators over one denominator.
    """

    def __init__(self, atoms):
        super().__init__()
        atoms = tuple((Fraction(u), Fraction(w)) for u, w in atoms)
        nodes = [u for u, _ in atoms]
        if len(set(nodes)) != len(nodes):
            raise ValueError("atom nodes must be pairwise distinct")
        if any(not w for _, w in atoms):
            raise ValueError("atom weights must be nonzero")
        self.atoms = atoms
        self.node_numerators, self.node_scale = integer_form(nodes)
        self._weights = integer_form([w for _, w in atoms])

    @property
    def nodes(self):
        return tuple(u for u, _ in self.atoms)

    def moment_row(self, count: int) -> tuple[list[int], int]:
        """mu_0..mu_{count-1} over one denominator: _modified_row with no parameters."""
        return self._modified_row(0, count)

    def modified_weights(self, xs=_NO_PARAMS, ys=_NO_PARAMS) -> tuple[list[int], int]:
        """Integers N_a and D > 0 with N_a / D = w_a prod(u_a - x_l) / prod(u_a - y_l),
        the atom weights of the modified functional, the xs and the ys each
        given by integer_form; each factor runs over all atoms at once."""
        (xs, xd), (ys, yd) = xs, ys
        b, nodes = self.node_scale, self.node_numerators
        nums, den = self._weights
        for x in xs:
            x *= b
            nums = [w * (u * xd - x) for w, u in zip(nums, nodes)]
        # u_a - v = (U_a d - n_v B) / (B d): the B d factors are the same for
        # every atom, so they go into the shared scale.
        den *= b ** max(len(xs) - len(ys), 0) * xd ** len(xs)
        if not ys:
            return list(nums), den
        dens = [1] * len(nodes)
        for y in ys:
            y *= b
            dens = [d * (u * yd - y) for d, u in zip(dens, nodes)]
        if not all(dens):  # name the y on the first atom node hit
            u = nodes[dens.index(0)]
            y = format_rational(next(Fraction(y, yd) for y in ys if u * yd == y * b))
            raise PoleAtAtomError(f"y = {y} is an atom node")
        common = math.lcm(*dens)
        scale = b ** max(len(ys) - len(xs), 0) * yd ** len(ys)
        return [n * (common // d) * scale for n, d in zip(nums, dens)], common * den

    def _modified_row(self, start: int, count: int, xs=_NO_PARAMS, ys=_NO_PARAMS):
        """Modified moment j is sum_a N_a U_a^j / (D B^j), with N_a / D the
        modified weights and B the node scale; entry j comes over the row's
        one denominator D B^top, top = start+count-1, as its sum times B^(top-j)."""
        nodes, b = self.node_numerators, self.node_scale
        powers, den = self.modified_weights(xs, ys)
        sums = []
        for _ in range(start + count):
            sums.append(sum(powers))
            powers = list(map(mul, powers, nodes))
        top = start + count - 1
        return [sums[j] * b ** (top - j) for j in range(start, top + 1)], den * b ** max(top, 0)

    def to_json_dict(self) -> dict:
        return {
            "type": "atoms",
            "atoms": [[format_rational(u), format_rational(w)] for u, w in self.atoms],
        }

    def __repr__(self):
        return f"FiniteAtomFunctional({len(self.atoms)} atoms)"


class SequenceFunctional(MomentFunctional):
    """Explicit moment list mu_0..mu_N; indices past N raise, never 0.  The
    moments are kept once, as one integer row over its denominator."""

    def __init__(self, moments):
        super().__init__()
        self._row, self._den = integer_form([Fraction(m) for m in moments])
        if not self._row:
            raise ValueError("need at least mu_0")

    @property
    def horizon(self) -> int:
        return len(self._row) - 1

    def moment_row(self, count: int) -> tuple[tuple[int, ...], int]:
        if count:
            self._require_horizon(count - 1)
        return self._row[:count], self._den

    def to_json_dict(self) -> dict:
        moments = [format_rational(Fraction(m, self._den)) for m in self._row]
        return {"type": "sequence", "moments": moments}

    def __repr__(self):
        return f"SequenceFunctional(horizon={self.horizon})"


class ChebyshevCatalanFunctional(MomentFunctional):
    """Moments of the Chebyshev weight: mu_n = C_(n/2) for even n, 0 for odd."""

    def moment_row(self, count: int) -> tuple[list[int], int]:
        """The Catalan numbers at the even places, over 1."""
        return [catalan(i // 2) if i % 2 == 0 else 0 for i in range(count)], 1

    def to_json_dict(self) -> dict:
        return {"type": "chebyshev"}

    def __repr__(self):
        return "ChebyshevCatalanFunctional()"


def functional_from_json(source) -> MomentFunctional:
    """Build a functional from the JSON wire format.

    ``{"type":"atoms","atoms":[["1/2","1"],...]}`` (node, weight pairs),
    ``{"type":"sequence","moments":["1","0","1/2",...]}`` or
    ``{"type":"chebyshev"}``.  Rationals travel as strings "p/q".
    """
    obj = json.loads(source) if isinstance(source, (str, bytes)) else source
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValueError("functional JSON must be an object with a 'type' field")
    kind = obj["type"]

    def rational(field, value):
        if not isinstance(value, str):
            raise ValueError(f"{field}: rationals travel as strings \"p/q\", got {value!r}")
        return parse_rational(value)

    if kind == "atoms":
        atoms = obj["atoms"]
        pairs = isinstance(atoms, list) and all(isinstance(a, list) and len(a) == 2 for a in atoms)
        if not pairs:
            raise ValueError("atoms: expected a list of [node, weight] pairs")
        return FiniteAtomFunctional((rational("atoms", u), rational("atoms", w)) for u, w in atoms)
    if kind == "sequence":
        moments = obj["moments"]
        if not isinstance(moments, list):
            raise ValueError("moments: expected a list of rationals")
        return SequenceFunctional(rational("moments", m) for m in moments)
    if kind == "chebyshev":
        return ChebyshevCatalanFunctional()
    raise ValueError(f"unknown functional type {kind!r}")


_ATOM_BOUND = 9  # |node| and |weight| of random_atom_functional
_MOMENT_BOUND = 4  # |moment| of random_sequence_functional


def random_atom_functional(
    rng,
    count: int = 8,
    hankel_nonzero_upto: int | None = None,
    normalize: bool = False,
) -> FiniteAtomFunctional:
    """Seeded random finite-atom functional: distinct integer nodes in
    [-9, 9], nonzero integer weights in [-9, 9]; redrawn until every
    required H(j) is nonzero.  H(j) vanishes for j > count, so asking for
    more is a ValueError rather than an endless redraw.  `normalize`
    rescales the weights so mu_0 = 1.
    """
    if count > 2 * _ATOM_BOUND + 1:
        raise ValueError("not enough distinct integer nodes available")
    upto = hankel_nonzero_upto if hankel_nonzero_upto is not None else count
    if upto > count:
        raise ValueError(
            f"H({upto}) vanishes for every {count}-atom functional; "
            f"need hankel_nonzero_upto <= {count}"
        )
    nonzero = [w for w in range(-_ATOM_BOUND, _ATOM_BOUND + 1) if w]
    while True:
        nodes = rng.sample(range(-_ATOM_BOUND, _ATOM_BOUND + 1), count)
        weights = [Fraction(rng.choice(nonzero)) for _ in range(count)]
        if normalize:
            total = sum(weights)
            if not total:
                continue
            weights = [w / total for w in weights]
        f = FiniteAtomFunctional(zip(map(Fraction, nodes), weights))
        if all(f.hankel_det(j) for j in range(1, upto + 1)):
            return f


def random_sequence_functional(
    rng,
    horizon: int,
    hankel_nonzero_upto: int = 6,
) -> SequenceFunctional:
    """Seeded random moment sequence, integer moments in [-4, 4], with
    nonvanishing leading Hankel minors."""
    while True:
        moments = [Fraction(rng.randint(-_MOMENT_BOUND, _MOMENT_BOUND))
                   for _ in range(horizon + 1)]
        f = SequenceFunctional(moments)
        if all(f.hankel_det(j) for j in range(1, hankel_nonzero_upto + 1)):
            return f
