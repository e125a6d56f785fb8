"""The determinant identity for rationally modified moments, its confluent
variant, the Uvarov construction, and the condensation identities.

Everything here compares two independently computed sides of an exact
identity.  The left-hand side is always a Hankel determinant of modified
moments; the right-hand side is a determinant of orthogonal polynomials p
and second-kind functions q arranged as

    rows:     p_{n-k+j-1}(x_i)  (one row per x), then q_{n-k+j-1}(y_i),
    columns:  j = 1 .. k+m,

with the conventions p_b = 0 and q_b(y) = y^(-b-1) for b < 0, which for
n < k turn the top-left block into the power-column matrix (and make
the n = k boundary case of that matrix coincide with the plain one).  The
right-hand side carries the sign (-1)^(n(m-k)+km) and is divided by the
oriented Vandermonde products prod(x_j - x_i) and prod(y_i - y_j).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import permutations
from operator import add, itemgetter

from .moments import (
    DomainError,
    FiniteAtomFunctional,
    ModeError,
    random_atom_functional,
    random_sequence_functional,
)
from .orthopoly import (
    DegenerateFunctionalError,
    OrthoSystem,
    build_ortho_system,
    q_row,
    q_table,
)
from .ring import (
    InverseSeries,
    RingMatrix,
    UniPoly,
    binomial,
    det_int,
    det_poly,
    det_poly_minors,
    det_rational,
    format_rational,
    integer_form,
    ratio,
    schur_minors,
    shared,
    shared_minors,
    vandermonde_product,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


class ConfluentRequiredError(ValueError):
    """Repeated x or y parameters given as the multiplicity-1 shorthand."""


def theorem1_sign(n: int, k: int, m: int) -> int:
    return -1 if (n * (m - k) + k * m) % 2 else 1


def prop13_sign(inst: IdentityInstance) -> int:
    """The plain sign times (-1)^binom(a, 2) for each omega-block of
    multiplicity a: the reversed y-orientation flips every second
    divided-difference row in the limit (verified against the directly
    computed left-hand side; the plain statement of the confluent matrix
    omits this factor)."""
    sign = theorem1_sign(inst.n, inst.k, inst.m)
    return -sign if sum(binomial(c, 2) for _, c in inst.omega) % 2 else sign


def _y_vandermonde(ys, mults=None):
    """prod_{i<j} (y_i - y_j)^(c_i c_j) --- note the reversed orientation."""
    return vandermonde_product(ys[::-1], None if mults is None else mults[::-1])


def _staircase(k: int) -> tuple:
    """delta = (k-1, ..., 0), the leading exponents of a_delta(z) = prod_{i<j} (z_i - z_j)."""
    return tuple(range(k - 1, -1, -1))


def _series_lhs_sign(n: int, k: int) -> int:
    """(-1)^(nk) from 1/(u - y_l) = -z_l / (1 - u z_l) at z = 1/y, times the
    orientation (-1)^binom(k, 2) of the y-Vandermonde as +-a_delta(z) /
    (z_1...z_k)^(k-1): its sign at y = (1, ..., k), where a_delta(z) > 0."""
    return (-1) ** (n * k) * (1 if _y_vandermonde(range(1, k + 1)) > 0 else -1)


def _blocks(values, blocks, kind: str, rational: bool) -> tuple[tuple, tuple, tuple]:
    """(values, blocks, form) of one parameter list.  With ``blocks`` None
    the values are the multiplicity-1 shorthand and must be distinct;
    otherwise the (value, multiplicity) blocks are the source and each value
    repeats by its multiplicity.  Given together, as IdentityInstance.replace
    does, the two must agree.  ``form`` is IdentityInstance.x_form (repeats
    are found among its numerators), and the empty one for formal values;
    rationals become Fractions."""
    shorthand = blocks is None
    if shorthand:
        block_values = tuple(values)
        mults = (1,) * len(block_values)
    else:
        block_values, mults = [v for v, _ in blocks], tuple(int(c) for _, c in blocks)
        if any(c < 1 for c in mults):
            raise ValueError("multiplicities must be >= 1")
    if rational:  # Fractions stay as they are
        block_values = tuple([v if isinstance(v, Fraction) else Fraction(v) for v in block_values])
    blocks = tuple(zip(block_values, mults))
    keys, den = integer_form(block_values) if rational else (block_values, None)
    form = (keys, mults, den) if rational else ((), (), 1)
    if len(set(keys)) != len(keys):
        if shorthand:
            raise ConfluentRequiredError(
                f"repeated {kind} parameters: give them as (value, multiplicity) blocks"
            )
        raise ValueError(f"{kind} block values must be pairwise distinct")
    if shorthand:
        return block_values, blocks, form
    expanded = tuple(v for v, c in blocks for _ in range(c))
    if values and tuple(values) != expanded:
        raise ValueError(f"{kind} parameters disagree with their blocks")
    return expanded, blocks, form


class Record:
    """Base of the plain record classes: a class names its __init__ fields
    in ``_fields`` and the ones that ``==`` compares and repr shows in
    ``_compared``; replace(**changes) builds a new record from every field
    with ``changes`` applied.  Unhashable unless a class defines __hash__."""

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compared)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    __hash__ = None

    def replace(self, **changes):
        return type(self)(**{**{name: getattr(self, name) for name in self._fields}, **changes})

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{type(self).__name__}({shown})"


class IdentityInstance(Record):
    """One (n, k, m) instance of the identity.

    The parameters are (value, multiplicity) blocks xi (the xs) and omega
    (the ys); xs and ys repeat each value by its multiplicity, so m and k
    count multiplicities.  Passing xs/ys instead is the shorthand for blocks
    of multiplicity 1.  A multiplicity above 1 makes the instance one of
    the confluent form (Proposition 13), which is atom mode only.

    In atom mode the ys are rationals (away from the atoms); in series mode
    they are the names of formal inverse variables.  x_form and y_form are
    the rational blocks in the integer form the row builders read, as
    (numerators, multiplicities, denominator) by integer_form; formal ys
    have the empty y_form.  An instance
    compares and hashes by (n, xs, ys, mode, truncation); no field is
    reassigned after __init__.
    """

    __slots__ = ("n", "xs", "ys", "mode", "truncation", "xi", "omega",
                 "x_form", "y_form", "k", "m", "confluent")
    _fields = __slots__[:7]
    _compared = __slots__[:5]

    def __init__(self, n: int, xs: tuple = (), ys: tuple = (), mode: str = "atom",
                 truncation: int = 25, xi: tuple | None = None, omega: tuple | None = None):
        if mode not in ("atom", "series"):
            raise ValueError("mode must be 'atom' or 'series'")
        atom = mode == "atom"
        self.n, self.mode, self.truncation = n, mode, truncation
        self.xs, self.xi, self.x_form = _blocks(xs, xi, "x", True)
        self.ys, self.omega, self.y_form = _blocks(ys, omega, "y", atom)
        self.k, self.m = len(self.ys), len(self.xs)
        # whether some parameter is repeated (Proposition 13, not Theorem 1)
        self.confluent = self.k + self.m != len(self.xi) + len(self.omega)
        if not atom:
            if not self.ys:
                raise ValueError(
                    "series mode needs at least one formal y; with k = 0 use "
                    "atom mode (it needs no finite-atom backend then)"
                )
            if not all(isinstance(y, str) for y in self.ys):
                raise ValueError("series mode takes inverse-variable names for ys")
            if self.confluent:
                raise ValueError("series mode takes multiplicity 1 only")

    def __hash__(self):
        return hash(self._key())

    def params(self) -> dict:
        shape = {"n": self.n, "k": self.k, "m": self.m}
        if self.confluent:
            shape["xi"] = [[format_rational(v), c] for v, c in self.xi]
            shape["omega"] = [[format_rational(v), c] for v, c in self.omega]
            return shape
        shape["xs"] = [format_rational(x) for x in self.xs]
        shape["ys"] = list(self.ys if self.mode == "series" else map(format_rational, self.ys))
        shape["mode"] = self.mode
        return shape


class VerificationReport(Record):
    """Outcome of one identity check: parameters, both sides, exact verdict.

    In series mode ``compared_order`` records the total inverse degree up to
    which the coefficients were actually compared.
    """

    __slots__ = _fields = _compared = (
        "identity", "params", "lhs", "rhs", "equal", "compared_order", "note")

    def __init__(self, identity: str, params: dict, lhs, rhs, equal: bool,
                 compared_order: int | None = None, note: str = ""):
        self.identity, self.params, self.lhs, self.rhs = identity, params, lhs, rhs
        self.equal, self.compared_order, self.note = equal, compared_order, note

    def to_json_dict(self) -> dict:
        return {
            "identity": self.identity,
            "params": self.params,
            "lhs": _jsonify(self.lhs, self.equal),
            "rhs": _jsonify(self.rhs, self.equal),
            "equal": self.equal,
            "compared_order": self.compared_order,
            "note": self.note,
        }


def _jsonify(value, equal: bool):
    if value is None:
        return None
    if isinstance(value, InverseSeries):
        # Full series strings only matter for counterexamples.
        return "(series)" if equal else str(value)
    return str(value)


# ---------------------------------------------------------------------------
# Theorem-1 matrices
# ---------------------------------------------------------------------------

def _pq_rows(sys: OrthoSystem, cols, x_form, y_form) -> list:
    """The p/q rows of rational parameters over the column indices b in
    ``cols``, each as (integer numerators, row denominator).

    The parameters are blocks (values, multiplicities, denominator) as
    IdentityInstance.x_form, each value an int or Fraction.  An x of
    multiplicity c gives the Taylor rows p_b^(r)(x)/r!, a y of multiplicity
    c the rows q_b^(r)(y)/r!, for r = 0..c-1, with the conventions p_b = 0
    and q_b(y) = y^(-b-1) for b < 0 (OrthoSystem.p_row and q_row).
    """
    (xs, x_mults, xd), (ys, y_mults, yd) = x_form, y_form
    rows = [sys.p_row(cols, x, r, xd) for x, c in zip(xs, x_mults) for r in range(c)]
    rows += [q_row(sys, cols, y, r, yd) for y, c in zip(ys, y_mults) for r in range(c)]
    return rows


def _fractions(sys: OrthoSystem, cols, x_form, y_form) -> list:
    """The _pq_rows as Fractions: each entry over its row's D and its column's d_b."""
    return [[Fraction(v, den * sys.scales((b,))) for v, b in zip(nums, cols)]
            for nums, den in _pq_rows(sys, cols, x_form, y_form)]


def _theorem1_matrix(sys: OrthoSystem, inst: IdentityInstance) -> RingMatrix:
    """The p/q matrix over the columns n-k .. n+m-1 in Fractions, atom mode only."""
    if inst.mode != "atom":
        raise ModeError("the p/q matrix has rational ys only; series mode has formal ys")
    cols = range(inst.n - inst.k, inst.n + inst.m)
    return RingMatrix.from_rows(_fractions(sys, cols, inst.x_form, inst.y_form))


def matrix_M(sys: OrthoSystem, inst: IdentityInstance) -> RingMatrix:
    """The n >= k matrix: p-rows over q-rows, columns indexed n-k .. n+m-1."""
    if inst.n < inst.k:
        raise ValueError("matrix_M needs n >= k; use matrix_N")
    return _theorem1_matrix(sys, inst)


def matrix_N(sys: OrthoSystem, inst: IdentityInstance) -> RingMatrix:
    """The n < k matrix: k-n power columns, then p_0..p_{n+m-1} / q_0..q_{n+m-1}.

    Built through the negative-index conventions, so matrix_N at n = k is
    literally matrix_M (the boundary interpretation the induction needs).
    """
    if inst.n > inst.k:
        raise ValueError("matrix_N needs n <= k; use matrix_M")
    return _theorem1_matrix(sys, inst)


# ---------------------------------------------------------------------------
# The two sides
# ---------------------------------------------------------------------------

def _hankel_divisor(f, n: int, k: int) -> Fraction:
    """H(n-k), the divisor of the left-hand side, for n >= k; 1 for n < k."""
    if n < k:
        return _ONE
    h = f.hankel_det(n - k)
    if not h:
        raise DegenerateFunctionalError(n - k)
    return h


def _vandermondes(inst: IdentityInstance) -> tuple[int, int]:
    """Integers (V, D), D > 0, with V / D = prod(x_j - x_i)^(c_i c_j) *
    prod(y_i - y_j)^(c_i c_j) over the rational blocks (formal ys have none,
    so series mode gets the x factor alone): vandermonde_product of each
    list's numerators over the denominator powers d^(sum_{i<j} c_i c_j)."""
    (xs, xm, xd), (ys, ym, yd) = inst.x_form, inst.y_form
    den = xd ** _pair_count(xm) * yd ** _pair_count(ym)
    return vandermonde_product(xs, xm) * _y_vandermonde(ys, ym), den


def _pair_count(mults) -> int:
    """sum_{i<j} c_i c_j, the total exponent of a Vandermonde product."""
    return (sum(mults) ** 2 - sum(c * c for c in mults)) // 2


def lhs_theorem1(sys: OrthoSystem, inst: IdentityInstance):
    """The left-hand side: in atom mode the det of modified moments divided
    by H(n-k) when n >= k; in series mode, where the y-Vandermonde is not
    invertible in the truncated ring for k >= 2, the denominator-cleared
    Vx * Vy * det(modified moments) below total degree T.

    In series mode, with z = 1/y, the det is (-1)^(nk) (z_1...z_k)^n
    sum_mu c_mu s_mu(z) / D^n (modified_hankel_det_series).  By the
    bialternant formula s_mu a_delta = a_(mu+delta), the side is the
    _Alternant of the c_mu at the scale _series_lhs_sign * Vx / D^n; |e| < T
    needs the det below total degree T + binom(k, 2).

    The modified moments have no Vandermonde singularity, so repeated
    parameters are evaluated directly, with no limits involved.
    """
    f = sys.functional
    n, k = inst.n, inst.k
    if inst.mode == "atom":
        return f.modified_hankel_det(n, inst.xs, inst.ys, _hankel_divisor(f, n, k))
    schur, den = f.modified_hankel_det_series(n, inst.xs, inst.ys, inst.truncation + binomial(k, 2))
    scale = Fraction(*_vandermondes(inst)) * Fraction(_series_lhs_sign(n, k), den)
    return _Alternant(inst, schur, scale)


def rhs_theorem1(sys: OrthoSystem, inst: IdentityInstance):
    """The right-hand side: in atom mode sign * det(M or N) / (Vx * Vy), with
    Vx = prod(x_j - x_i) and Vy = prod(y_i - y_j); in series mode the
    denominator-cleared sign * H(n-k) * det(M or N) below total degree T,
    H only for n >= k.

    The sign is prop13_sign, which is (-1)^(n(m-k)+km) when every
    multiplicity is 1.  Each Vandermonde factor is raised to the product of
    the two multiplicities.  Atom mode runs one Bareiss determinant on the
    integer _pq_rows over the columns n-k .. n+m-1 and divides by their row
    denominators, column scales and Vandermondes in one Fraction.  In series
    mode the q-rows go above the integer p-rows, at the sign (-1)^(mk);
    q-row l has the q_table row at z_l^e_l, e = mu + delta + n - k + 1, so
    ring.schur_minors takes each coefficient of the _Alternant by
    multilinearity, |e| < T at |mu| < T + binom(k, 2) - nk.  A power column
    b < 0 (n < k) is zero in every p-row and its series q-row is D z^(b+1)
    alone, so the q-rows l > L = min(n, k) take those columns at mu_l = 0,
    for D^(k-L) at the sign (-1)^(L(k-L) + binom(k-L, 2)): the walk has L
    levels over the columns n-L .. n+m-1, k - L zero parts padded.
    """
    n, k, m, T = inst.n, inst.k, inst.m, inst.truncation
    levels = k if inst.mode == "atom" else min(n, k)  # atom q-rows hold powers of y
    cols = range(n - levels, n + m)
    rows = _pq_rows(sys, cols, inst.x_form, inst.y_form)
    sign, den = prop13_sign(inst), math.prod(d for _, d in rows) * sys.scales(cols)
    fixed = [nums for nums, _ in rows]
    if inst.mode == "atom":
        (v, v_den), det = _vandermondes(inst), det_int(fixed)
        return Fraction(sign * det * v_den, den * v)
    pad, reach = k - levels, T + binomial(k, 2) - n * k
    table, q_den = q_table(sys, cols, n - levels + 1, n + reach)
    sign *= (-1) ** (m * k + levels * pad + binomial(pad, 2))
    return _Alternant(inst, schur_minors(fixed, table, levels, reach, pad),
                      Fraction(sign, den * q_den**levels) * _hankel_divisor(sys.functional, n, k))


class _Alternant(InverseSeries):
    """A series side: the antisymmetric series in the ys with coefficient
    c * num / den at e = mu + delta + (n-k+1) for each mu of ``coeffs``, and
    at its signed permutations, below total degree T (trunc == cap == T).
    Its ``terms`` are expanded on first read, which a passing report never
    does, as == and verify_theorem1 compare the integer coeffs
    (_first_difference); threads reading one side at once may each expand
    it, into equal dicts."""

    __slots__ = ("coeffs", "shift", "num", "den")

    def __init__(self, inst: IdentityInstance, coeffs: dict, scale: Fraction):
        self.variables, self.trunc, self.cap = inst.ys, inst.truncation, inst.truncation
        self.shift = tuple(d + inst.n - inst.k + 1 for d in _staircase(inst.k))
        self.coeffs, self.num, self.den = coeffs, scale.numerator, scale.denominator

    def __getattr__(self, name):
        # reached when plain lookup fails: for terms until its first read
        if name != "terms":
            raise AttributeError(name)
        # every permutation but the identity, which comes first
        perms = [(itemgetter(*p), vandermonde_product(p) > 0)
                 for p in permutations(range(len(self.variables)))][1:]
        terms = {}
        for mu, c in self.coeffs.items():
            e = tuple(map(add, mu, self.shift))
            if sum(e) < self.trunc:
                value = terms[e] = ratio(c * self.num, self.den)
                for permute, even in perms:
                    terms[permute(e)] = value if even else -value
        self.terms = terms
        return terms

    def __eq__(self, other):
        if isinstance(other, _Alternant) and (other.variables, other.shift) == (
                self.variables, self.shift):
            return _first_difference(self, other) is None
        return super().__eq__(other)


def _first_difference(lhs: _Alternant, rhs: _Alternant):
    """The first exponent vector below the smaller T where two sides of one
    shift differ, by total degree, then lexicographically from the largest,
    or None; the integer coefficients cross-multiply, c num den' == c' num'
    den.  Both sides are antisymmetric, so their partitions mu decide."""
    a, b = lhs.coeffs, rhs.coeffs
    x, y = lhs.num * rhs.den, rhs.num * lhs.den
    if a.keys() == b.keys() and all(c * x == b[mu] * y for mu, c in a.items()):
        return None
    limit = min(lhs.trunc, rhs.trunc) - sum(lhs.shift)
    differ = [tuple(map(add, mu, lhs.shift)) for mu in a.keys() | b.keys()
              if sum(mu) < limit and a.get(mu, 0) * x != b.get(mu, 0) * y]
    return min(differ, key=lambda e: (sum(e), [-v for v in e]), default=None)


def verify_theorem1(sys: OrthoSystem, inst: IdentityInstance) -> VerificationReport:
    """Compare lhs_theorem1 and rhs_theorem1 of one instance: exactly in
    atom mode; in series mode every coefficient below total degree T, a
    failure naming the first differing exponent vector by total degree,
    then lexicographically from the largest (both sides are antisymmetric,
    so a strictly decreasing one).  A DomainError becomes a failed report
    whose note is "error: " and its message.  The report is labelled
    "prop13" when some parameter is repeated, "theorem1" otherwise."""
    identity = "prop13" if inst.confluent else "theorem1"
    params = inst.params()
    try:
        lhs = lhs_theorem1(sys, inst)
        rhs = rhs_theorem1(sys, inst)
    except DomainError as exc:
        return VerificationReport(identity, params, None, None, False, note=f"error: {exc}")
    if inst.mode == "atom":
        return VerificationReport(identity, params, lhs, rhs, lhs == rhs)
    diff = _first_difference(lhs, rhs)
    note = "denominator-cleared comparison"
    if diff is not None:
        note += f"; first differing coefficient at exponents {diff}"
    return VerificationReport(identity, params, lhs, rhs, diff is None, inst.truncation, note=note)


# ---------------------------------------------------------------------------
# Uvarov construction
# ---------------------------------------------------------------------------

def _require_atoms(f) -> None:
    if not isinstance(f, FiniteAtomFunctional):
        raise ModeError("the Uvarov construction needs a finite-atom functional")


def uvarov_polynomial(
    sys: OrthoSystem, n: int, xs_fixed=(), ys=()
) -> tuple[UniPoly, bool]:
    """Right-hand side of the identity with x_1 left formal: a polynomial
    in "x1" that (when its degree is n) is the n-th orthogonal polynomial for
    the modified density prod_{l>=2}(u - x_l) / prod(u - y_l) dmu.

    Returns (polynomial, degree_ok); a degree below n is reported, never
    silently accepted.
    """
    _require_atoms(sys.functional)
    xs_fixed = tuple(Fraction(x) for x in xs_fixed)
    ys = tuple(Fraction(y) for y in ys)
    m = 1 + len(xs_fixed)
    k = len(ys)
    cols = range(n - k, n + m)
    fixed = _fractions(sys, cols, (xs_fixed, (1,) * (m - 1), 1), (ys, (1,) * k, 1))
    x1_row = [sys.p(b).rename("x1") if b >= 0 else _ZERO for b in cols]
    d = det_poly(RingMatrix.from_rows([x1_row, *fixed]), ["x1"])
    vx = vandermonde_product((UniPoly.variable("x1"),) + xs_fixed)
    poly = d.exact_div(vx) * Fraction(theorem1_sign(n, k, m), _y_vandermonde(ys))
    return poly, poly.degree == n


class UvarovResult(Record):
    """P_0..P_N for a rationally modified density, with the exact Gram
    matrix of the modified functional as the orthogonality witness."""

    __slots__ = _fields = _compared = ("polys", "degree_ok", "gram", "modified")

    def __init__(self, polys: tuple, degree_ok: tuple, gram: RingMatrix,
                 modified: FiniteAtomFunctional):
        self.polys, self.degree_ok, self.gram, self.modified = polys, degree_ok, gram, modified

    @property
    def orthogonal(self) -> bool:
        n = self.gram.rows
        return all(
            not self.gram.get(i, j) for i in range(n) for j in range(n) if i != j
        )


def modified_functional(
    f: FiniteAtomFunctional, xs_fixed=(), ys=()
) -> FiniteAtomFunctional:
    """The finite-atom functional of the density prod_{l>=2}(u-x_l)/prod(u-y_l) dmu."""
    nums, den = f.modified_weights(integer_form(xs_fixed), integer_form(ys))
    atoms = []
    for (u, _), num in zip(f.atoms, nums):
        if not num:
            raise ValueError(
                f"fixed x = {format_rational(u)} kills the atom at that node"
            )
        atoms.append((u, Fraction(num, den)))
    return FiniteAtomFunctional(atoms)


def uvarov_system(
    f: FiniteAtomFunctional, ys=(), upto: int = 5, xs_fixed=()
) -> UvarovResult:
    """Construct P_0..P_upto and check L'(P_i P_j) = 0 for i != j exactly.

    Refused before any polynomial is built: a non-atom functional (ModeError),
    and repeated parameters or a fixed x on an atom node (ValueError).
    """
    _require_atoms(f)
    xs_fixed = tuple(Fraction(x) for x in xs_fixed)
    ys = tuple(Fraction(y) for y in ys)
    for kind, values in (("fixed x", xs_fixed), ("y", ys)):
        for i, v in enumerate(values):
            if v in values[:i]:
                raise ValueError(f"repeated {kind} parameter {format_rational(v)}")
    mod = modified_functional(f, xs_fixed, ys)
    sys = build_ortho_system(f, upto + len(xs_fixed))
    results = [uvarov_polynomial(sys, n, xs_fixed, ys) for n in range(upto + 1)]
    polys = tuple(p for p, _ in results)
    flags = tuple(ok for _, ok in results)
    size = upto + 1
    gram = RingMatrix(
        size,
        size,
        [
            mod.apply((polys[i] * polys[j]).rename("x"))
            for i in range(size)
            for j in range(size)
        ],
    )
    return UvarovResult(polys, flags, gram, mod)


# ---------------------------------------------------------------------------
# Condensation identities (standalone)
# ---------------------------------------------------------------------------

# Lemma 8 and Lemma 9 at every n read the leading minors of three Hankel
# matrices of one sequence (a tuple): each is one packed elimination at the
# largest size the sequence reaches, once per sequence of a sweep
# (shared_minors).

def _lemma_minors(c, reach: int, entry, variables) -> list:
    """det_poly_minors of the Hankel matrix of entry(s), which reads c up to
    index s + reach, at the largest size c reaches."""
    return shared((reach, c), (len(c) + 1 - reach) // 2, lambda size: det_poly_minors(
        RingMatrix.hankel([entry(s) for s in range(2 * size - 1)], size), variables))


def _hankel_slice_det(c, size: int) -> int | Fraction:
    return _lemma_minors(c, 0, c.__getitem__, ())[size]


def _lin_det(c, size: int, slot: int) -> UniPoly:
    """det(v c_{i+j} + c_{i+j+1}), a polynomial in v of degree <= size, with
    v = alpha (slot 0) or beta (slot 1), as a polynomial in alpha over Q[beta]."""
    d = _lemma_minors(c, 1, lambda s: UniPoly([c[s + 1], c[s]], "v"), ["v"])[size]
    return d.rename("alpha") if slot == 0 else UniPoly([d.rename("beta")], "alpha")


def _quad_det(c, size: int) -> UniPoly:
    """det(ab c_{i+j} + (a+b) c_{i+j+1} + c_{i+j+2}) as a nested polynomial:
    outer variable "alpha" with UniPoly("beta") coefficients."""
    def entry(s):
        return UniPoly([UniPoly([c[s + 2], c[s + 1]], "beta"), UniPoly([c[s + 1], c[s]], "beta")],
                       "alpha")

    return _lemma_minors(c, 2, entry, ["alpha", "beta"])[size]


def _coerce_sequence(c, needed: int) -> tuple:
    """The entries as rationals, integral ones as ints."""
    c = tuple(v if type(v) is int else ratio(*Fraction(v).as_integer_ratio()) for v in c)
    if len(c) < needed:
        raise ValueError(f"sequence too short: need indices up to {needed - 1}")
    return c


def lemma8_check(c, n: int) -> VerificationReport:
    """(b-a) det(ab c + (a+b) c' + c'')_{n-1} det(c)_n
       = det(a c + c')_{n-1} det(b c + c')_n - det(b c + c')_{n-1} det(a c + c')_n
    as exact polynomials in a, b (subscripts are matrix sizes)."""
    if n < 1:
        raise ValueError("n must be positive")
    c = _coerce_sequence(c, 2 * n)
    beta_minus_alpha = UniPoly([UniPoly([0, 1], "beta"), UniPoly([-1], "beta")], "alpha")
    lhs = beta_minus_alpha * _quad_det(c, n - 1) * _hankel_slice_det(c, n)
    rhs = _lin_det(c, n - 1, 0) * _lin_det(c, n, 1) - _lin_det(c, n - 1, 1) * _lin_det(c, n, 0)
    return VerificationReport(
        "lemma8", {"n": n, "c": [format_rational(v) for v in c]}, lhs, rhs, lhs == rhs
    )


def lemma9_check(c, n: int) -> VerificationReport:
    """det(a c + c')_n det(b c + c')_n
       = -det(c)_{n+1} det(ab c + (a+b) c' + c'')_{n-1}
         + det(c)_n det(ab c + (a+b) c' + c'')_n
    as exact polynomials in a, b."""
    if n < 1:
        raise ValueError("n must be positive")
    c = _coerce_sequence(c, 2 * n + 1)
    lhs = _lin_det(c, n, 0) * _lin_det(c, n, 1)
    rhs = _quad_det(c, n) * _hankel_slice_det(c, n) - _quad_det(
        c, n - 1
    ) * _hankel_slice_det(c, n + 1)
    return VerificationReport(
        "lemma9", {"n": n, "c": [format_rational(v) for v in c]}, lhs, rhs, lhs == rhs
    )


def jacobi_check(a: RingMatrix, i1: int, i2: int, j1: int, j2: int) -> VerificationReport:
    """Jacobi / Dodgson condensation (1-based indices):

        det A * det A^{j1,j2}_{i1,i2}
          = det A^{j1}_{i1} det A^{j2}_{i2} - det A^{j2}_{i1} det A^{j1}_{i2}.

    Each minor is shared under (A's entries, deleted rows, deleted columns),
    so the calls on one matrix inside a shared_minors block compute each
    distinct minor once.
    """
    if not a.is_square:
        raise ValueError("Jacobi condensation needs a square matrix")
    nn = a.rows
    if not (1 <= i1 < i2 <= nn and 1 <= j1 < j2 <= nn):
        raise ValueError("need 1 <= i1 < i2 <= N and 1 <= j1 < j2 <= N")

    def det(rows, cols):
        key = ("jacobi", a.entries, rows, cols)
        return shared(key, 0, lambda _: det_rational(a.delete(rows, cols)))

    r1, r2, c1, c2 = i1 - 1, i2 - 1, j1 - 1, j2 - 1
    lhs = det((), ()) * det((r1, r2), (c1, c2))
    rhs = det((r1,), (c1,)) * det((r2,), (c2,)) - det((r1,), (c2,)) * det((r2,), (c1,))
    return VerificationReport(
        "jacobi", {"N": nn, "i": [i1, i2], "j": [j1, j2]}, lhs, rhs, lhs == rhs
    )


# ---------------------------------------------------------------------------
# Seeded verification sweeps
# ---------------------------------------------------------------------------

_XS_POOL = tuple(Fraction(p, 2) for p in range(-15, 16))
_YS_POOL = tuple(Fraction(p, 3) for p in range(-16, 17) if p % 3)
# Integer x's give the series sides no x denominator, so with integer
# moments every coefficient of a side is an int; the draws from this pool fix
# every series digest.
_XS_POOL_INT = tuple(Fraction(p) for p in range(-9, 10))


def sweep_theorem1_atom(
    seed: int,
    trials: int = 100,
    max_n: int = 6,
    max_k: int = 3,
    max_m: int = 3,
    functional: FiniteAtomFunctional | None = None,
) -> list[VerificationReport]:
    """Full (n, k, m) grid per trial over seeded random atom functionals
    (y parameters are drawn with denominator 3, so they never hit the
    integer atom nodes).  The depth max_n + max(max_m, 1) - 1 covers the
    k = 0, m = 0 instance at n = max_n, whose left-hand side divides by
    H(max_n)."""
    rng = random.Random(seed)
    depth = max_n + max(max_m, 1) - 1
    reports = []
    for _ in range(trials):
        f = functional
        if f is None:
            f = random_atom_functional(rng, hankel_nonzero_upto=depth)
        sys = build_ortho_system(f, depth)
        for n in range(max_n + 1):
            for k in range(max_k + 1):
                for m in range(max_m + 1):
                    xs = rng.sample(_XS_POOL, m)
                    inst = IdentityInstance(n=n, xs=xs, ys=rng.sample(_YS_POOL, k))
                    reports.append(verify_theorem1(sys, inst))
    return reports


def sweep_theorem1_series(
    seed: int,
    trials: int = 20,
    truncation: int = 25,
    max_n: int = 4,
    ks=(1, 2),
    max_m: int = 2,
) -> list[VerificationReport]:
    """Formal-series sweep over seeded random moment sequences with
    nonvanishing leading Hankel minors; coefficients are compared for every
    total inverse degree below `truncation`."""
    rng = random.Random(seed)
    depth = max(max_n + max_m - 1, 0)
    # The horizon fixes the seeded draws, so every series digest depends on it
    # staying as it is; T + binom(k, 2) is the lhs det's degree bound.
    horizon = 2 * max_n - 2 + max_m + truncation + binomial(max(ks), 2)
    reports = []
    for _ in range(trials):
        f = random_sequence_functional(rng, horizon, hankel_nonzero_upto=depth)
        sys = build_ortho_system(f, depth)
        for k in ks:
            for m in range(max_m + 1):
                for n in range(max_n + 1):
                    variables = tuple(f"y{i+1}" for i in range(k))
                    inst = IdentityInstance(n=n, xs=rng.sample(_XS_POOL_INT, m), ys=variables,
                                            mode="series", truncation=truncation)
                    reports.append(verify_theorem1(sys, inst))
    return reports


_CONFLUENT_SHAPES = (
    ((2,), ()),
    ((), (2,)),
    ((2, 1), (1,)),
    ((1,), (2,)),
    ((2,), (2,)),
)


def sweep_prop13(
    seed: int,
    trials: int = 4,
    max_n: int = 5,
) -> list[VerificationReport]:
    """Confluent sweep: double x, double y, and mixed shapes, n <= max_n."""
    rng = random.Random(seed)
    max_m = max(sum(shape[0]) for shape in _CONFLUENT_SHAPES)
    depth = max_n + max_m - 1
    reports = []
    for _ in range(trials):
        f = random_atom_functional(rng, hankel_nonzero_upto=depth)
        sys = build_ortho_system(f, depth)
        for n in range(max_n + 1):
            for x_mults, y_mults in _CONFLUENT_SHAPES:
                xi = tuple(zip(rng.sample(_XS_POOL, len(x_mults)), x_mults))
                omega = tuple(zip(rng.sample(_YS_POOL, len(y_mults)), y_mults))
                inst = IdentityInstance(n=n, xi=xi, omega=omega)
                reports.append(verify_theorem1(sys, inst))
    return reports


_ENTRY_BOUND = 9  # |entry| of the random sequences and matrices of the lemma sweeps


def sweep_lemmas(
    seed: int,
    trials: int = 10,
    max_n: int = 6,
) -> list[VerificationReport]:
    """Lemma 8 and Lemma 9 on random integer sequences (entries in [-9, 9]),
    all n <= max_n; the checks on one sequence share its leading minors."""
    rng = random.Random(seed)
    reports = []
    for _ in range(trials):
        c = [rng.randint(-_ENTRY_BOUND, _ENTRY_BOUND) for _ in range(2 * max_n + 1)]
        with shared_minors():
            for n in range(1, max_n + 1):
                reports.append(lemma8_check(c, n))
                reports.append(lemma9_check(c, n))
    return reports


def sweep_jacobi(
    seed: int,
    sizes=(5, 6),
) -> list[VerificationReport]:
    """All admissible index pairs on one random matrix per size (entries in
    [-9, 9]), each distinct minor computed once per matrix."""
    rng = random.Random(seed)
    reports = []
    for nn in sizes:
        mat = RingMatrix(nn, nn, [rng.randint(-_ENTRY_BOUND, _ENTRY_BOUND) for _ in range(nn * nn)])
        with shared_minors():
            for i1 in range(1, nn + 1):
                for i2 in range(i1 + 1, nn + 1):
                    for j1 in range(1, nn + 1):
                        for j2 in range(j1 + 1, nn + 1):
                            reports.append(jacobi_check(mat, i1, i2, j1, j2))
    return reports
