"""Exact scalar arithmetic, polynomials, truncated inverse-power series and
division-free determinants over generic commutative rings.

The base field is the rationals, provided by :class:`fractions.Fraction`
(arbitrary precision, always reduced to coprime numerator / positive
denominator).  Every value in this module is immutable after construction and
safe to share across threads.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from itertools import combinations
from operator import add, mul

#: Degree of the zero polynomial.
NEG_INFINITY = float("-inf")

_ZERO = Fraction(0)
_ONE = Fraction(1)


class DimensionError(ValueError):
    """A matrix has the wrong shape for the requested operation."""


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` or ``"p"`` (whitespace tolerated)."""
    return Fraction(text.strip())


def format_rational(value: Fraction) -> str:
    """Render ``p/q``, or just ``p`` when the denominator is 1: the str of
    the value as a Fraction, which is built only when it is neither an int
    nor a Fraction."""
    return str(value if type(value) is int or isinstance(value, Fraction) else Fraction(value))


def integer_form(values) -> tuple[tuple[int, ...], int]:
    """Integer numerators c_i and the lcm d of the denominators: values[i] = c_i / d."""
    d = math.lcm(*[v.denominator for v in values])
    return tuple([v.numerator * (d // v.denominator) for v in values]), d


def ratio(num: int, den: int):
    """num / den as an int when it is integral, else as a Fraction."""
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient; 0 outside the Pascal triangle."""
    if k < 0 or k > n or n < 0:
        return 0
    return math.comb(n, k)


class UniPoly:
    """Dense univariate polynomial; coefficient index = exponent.

    The coefficient ring is whatever the entries are (Fraction, a UniPoly in
    another variable, ...).  In mixed arithmetic, a UniPoly with a *different*
    variable tag is treated as a scalar of the coefficient ring.  Trailing
    zero coefficients are trimmed, so the zero polynomial has an empty
    coefficient tuple and degree ``NEG_INFINITY``.
    """

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs=(), var: str = "x"):
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.coeffs = tuple(coeffs)
        self.var = var

    @classmethod
    def zero(cls, var: str = "x") -> "UniPoly":
        return cls((), var)

    @classmethod
    def one(cls, var: str = "x") -> "UniPoly":
        return cls((_ONE,), var)

    @classmethod
    def constant(cls, c, var: str = "x") -> "UniPoly":
        return cls((c,), var)

    @classmethod
    def variable(cls, var: str = "x") -> "UniPoly":
        return cls((_ZERO, _ONE), var)

    @classmethod
    def from_coeffs(cls, coeffs, var: str = "x") -> "UniPoly":
        return cls([Fraction(c) for c in coeffs], var)

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INFINITY

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coefficient(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else _ZERO

    def _is_same_var(self, other) -> bool:
        return isinstance(other, UniPoly) and other.var == self.var

    def __add__(self, other):
        if self._is_same_var(other):
            a, b = self.coeffs, other.coeffs
            if len(a) < len(b):
                a, b = b, a
            out = list(a)
            for i, c in enumerate(b):
                out[i] = out[i] + c
            return UniPoly(out, self.var)
        # scalar from the coefficient ring
        out = list(self.coeffs) if self.coeffs else [other]
        if self.coeffs:
            out[0] = out[0] + other
        return UniPoly(out, self.var)

    __radd__ = __add__

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs], self.var)

    def __sub__(self, other):
        return self + (-other if isinstance(other, UniPoly) else -other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if self._is_same_var(other):
            a, b = self.coeffs, other.coeffs
            if not a or not b:
                return UniPoly((), self.var)
            out = [None] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                if not x:
                    continue
                for j, y in enumerate(b):
                    p = x * y
                    out[i + j] = p if out[i + j] is None else out[i + j] + p
            return UniPoly([c if c is not None else 0 for c in out], self.var)
        if not other:
            return UniPoly((), self.var)
        return UniPoly([c * other for c in self.coeffs], self.var)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        out = UniPoly.one(self.var)
        for _ in range(e):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, UniPoly):
            if self.coeffs != other.coeffs:
                return False
            return self.var == other.var or len(self.coeffs) <= 1
        # scalar comparison against a constant polynomial
        if not self.coeffs:
            return not other
        return len(self.coeffs) == 1 and self.coeffs[0] == other

    # A constant polynomial equals its scalar, whose hash no polynomial hash
    # can match in general, so UniPoly is unhashable.
    __hash__ = None

    def eval(self, v):
        """Horner evaluation at *v* (any ring compatible with the coefficients)."""
        if not self.coeffs:
            return v * 0
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * v + c
        return acc

    def derivative(self, order: int = 1) -> "UniPoly":
        """Iterated exact formal derivative."""
        if order < 0:
            raise ValueError("derivative order must be non-negative")
        coeffs = self.coeffs
        for _ in range(order):
            coeffs = tuple(i * coeffs[i] for i in range(1, len(coeffs)))
        return UniPoly(coeffs, self.var)

    def exact_div(self, divisor: "UniPoly") -> "UniPoly":
        """Exact polynomial division; raises if the remainder is nonzero.

        Requires scalar coefficients (ints or Fractions); an integral
        quotient coefficient is an int, any other a Fraction (see ratio).
        """
        if not isinstance(divisor, UniPoly) or divisor.var != self.var:
            divisor = UniPoly.constant(divisor, self.var)
        if divisor.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        rem = list(self.coeffs)
        dc = divisor.coeffs
        dd = len(dc) - 1
        lead = dc[-1]
        out = [0] * max(len(rem) - dd, 0)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if not c:
                continue
            q = ratio(c.numerator * lead.denominator, c.denominator * lead.numerator)
            out[i - dd] = q
            for j, d in enumerate(dc):
                rem[i - dd + j] = rem[i - dd + j] - q * d
        if any(rem):
            raise ValueError("exact_div: nonzero remainder")
        return UniPoly(out, self.var)

    def rename(self, var: str) -> "UniPoly":
        return UniPoly(self.coeffs, var)

    def __repr__(self):
        return f"UniPoly({self.var!r}, {list(self.coeffs)!r})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                mono = ""
            elif i == 1:
                mono = self.var
            else:
                mono = f"{self.var}^{i}"
            cs = str(c)
            if mono and cs == "1":
                cs = ""
            elif mono and cs == "-1":
                cs = "-"
            term = f"{cs}*{mono}" if cs not in ("", "-") and mono else cs + mono
            parts.append(term)
        text = " + ".join(parts).replace("+ -", "- ")
        return text


class InverseSeries:
    """Truncated formal series in inverse variables 1/y_1, ..., 1/y_k.

    A term maps an exponent vector ``e`` to a coefficient; the monomial is
    ``prod y_l^(-e_l)``, so positive exponents are inverse powers.  Negative
    entries (plain powers of y_l) are allowed and stay bounded below --- the
    n < k matrices of the identity need them.  ``trunc`` is the knowledge
    horizon: coefficients are stored and trusted only for total degree
    < trunc, while ``trunc=None`` marks an exact series.  Arithmetic tracks
    the horizon: addition keeps the smaller one, multiplication shifts each
    operand's horizon by the other's valuation and takes the minimum.

    ``cap`` is an optional working ceiling that rides along through
    arithmetic: results never keep terms at or above it, which is always
    sound (trunc is a lower bound on validity).
    """

    __slots__ = ("variables", "terms", "trunc", "cap")

    def __init__(self, variables, terms, trunc, cap=None):
        variables = tuple(variables)
        if not variables:
            raise ValueError("at least one inverse variable required")
        if trunc is not None and trunc <= 0:
            raise ValueError("truncation order must be positive")
        if cap is not None and (trunc is None or trunc > cap):
            trunc = cap
        clean = {}
        for e, c in terms.items():
            if not c:
                continue
            if len(e) != len(variables):
                raise ValueError("exponent vector length does not match variables")
            if trunc is None or sum(e) < trunc:
                clean[tuple(e)] = c
        self.variables = variables
        self.terms = clean
        self.trunc = trunc
        self.cap = cap

    @classmethod
    def _make(cls, variables, terms, trunc, cap):
        # Internal fast constructor: terms already clean (no zeros, inside trunc).
        self = object.__new__(cls)
        self.variables = variables
        self.terms = terms
        self.trunc = trunc
        self.cap = cap
        return self

    @staticmethod
    def _merge_caps(a, b):
        if a is None:
            return b
        if b is None:
            return a
        return min(a, b)

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, variables, trunc=None, cap=None) -> "InverseSeries":
        return cls(variables, {}, trunc, cap)

    @classmethod
    def one(cls, variables) -> "InverseSeries":
        return cls.constant(variables, 1)

    @classmethod
    def constant(cls, variables, c, trunc=None, cap=None) -> "InverseSeries":
        zero_exp = (0,) * len(tuple(variables))
        return cls(variables, {zero_exp: c}, trunc, cap)

    @classmethod
    def monomial(cls, variables, exps, coeff=_ONE, trunc=None, cap=None) -> "InverseSeries":
        return cls(variables, {tuple(exps): coeff}, trunc, cap)

    @classmethod
    def plain_variable(cls, variables, slot: int) -> "InverseSeries":
        """The exact series y_slot (Laurent direction), with an int coefficient."""
        exps = [0] * len(tuple(variables))
        exps[slot] = -1
        return cls.monomial(variables, exps, 1)

    # -- inspection ---------------------------------------------------
    @property
    def is_exact_zero(self) -> bool:
        return self.trunc is None and not self.terms

    def valuation(self):
        """Minimal total degree of a stored term, or None for no terms."""
        if not self.terms:
            return None
        return min(sum(e) for e in self.terms)

    def _val_lb(self) -> int:
        # Lower bound on the valuation, used for truncation bookkeeping.
        v = self.valuation()
        if v is not None:
            return v
        return self.trunc if self.trunc is not None else 0

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), _ZERO)

    # -- arithmetic ---------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, InverseSeries):
            if other.variables != self.variables:
                raise ValueError("series variable mismatch")
            return other
        return InverseSeries.constant(self.variables, other)

    def __add__(self, other):
        other = self._coerce(other)
        if self.trunc is None:
            trunc = other.trunc
        elif other.trunc is None:
            trunc = self.trunc
        else:
            trunc = min(self.trunc, other.trunc)
        cap = self._merge_caps(self.cap, other.cap)
        out = dict(self.terms)
        for e, c in other.terms.items():
            prev = out.get(e)
            s = c if prev is None else prev + c
            if s:
                out[e] = s
            elif prev is not None:
                del out[e]
        if trunc is not None and (self.trunc != trunc or other.trunc != trunc):
            out = {e: c for e, c in out.items() if sum(e) < trunc}
        return InverseSeries._make(self.variables, out, trunc, cap)

    __radd__ = __add__

    def __neg__(self):
        return InverseSeries._make(
            self.variables, {e: -c for e, c in self.terms.items()}, self.trunc, self.cap
        )

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, InverseSeries):
            if not other:
                return InverseSeries._make(self.variables, {}, None, self.cap)
            if isinstance(other, Fraction) and other.denominator == 1:
                other = other.numerator  # int coefficients stay ints
            return InverseSeries._make(
                self.variables,
                {e: c * other for e, c in self.terms.items()},
                self.trunc,
                self.cap,
            )
        if other.variables != self.variables:
            raise ValueError("series variable mismatch")
        cap = self._merge_caps(self.cap, other.cap)
        if self.is_exact_zero or other.is_exact_zero:
            return InverseSeries._make(self.variables, {}, None, cap)
        bounds = []
        if self.trunc is not None:
            bounds.append(self.trunc + other._val_lb())
        if other.trunc is not None:
            bounds.append(other.trunc + self._val_lb())
        trunc = min(bounds) if bounds else None
        if cap is not None and (trunc is None or trunc > cap):
            trunc = cap
        a = [(e, sum(e), c) for e, c in self.terms.items()]
        b = sorted(((e, sum(e), c) for e, c in other.terms.items()), key=lambda t: t[1])
        out = {}
        get = out.get
        for e1, d1, c1 in a:
            limit = None if trunc is None else trunc - d1
            for e2, d2, c2 in b:
                if limit is not None and d2 >= limit:
                    break
                e = tuple(map(add, e1, e2))
                p = c1 * c2
                prev = get(e)
                out[e] = p if prev is None else prev + p
        out = {e: c for e, c in out.items() if c}
        return InverseSeries._make(self.variables, out, trunc, cap)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power of a series")
        out = InverseSeries.one(self.variables)
        for _ in range(e):
            out = out * self
        return out

    # -- comparison ---------------------------------------------------
    def compared_order(self, other) -> int | None:
        other = self._coerce(other)
        if self.trunc is None:
            return other.trunc
        if other.trunc is None:
            return self.trunc
        return min(self.trunc, other.trunc)

    def first_difference(self, other, order=None):
        """First exponent vector (degree-lex order) whose coefficients differ
        below *order*, or None if the series agree there."""
        other = self._coerce(other)
        limit = self.compared_order(other)
        if order is not None:
            limit = order if limit is None else min(limit, order)
        keys = set(self.terms) | set(other.terms)
        for e in sorted(keys, key=lambda e: (sum(e), e)):
            if limit is not None and sum(e) >= limit:
                continue
            if self.terms.get(e, _ZERO) != other.terms.get(e, _ZERO):
                return e
        return None

    def equal_up_to(self, other, order=None) -> bool:
        return self.first_difference(other, order) is None

    def __eq__(self, other):
        if not isinstance(other, InverseSeries):
            try:
                other = self._coerce(other)
            except ValueError:
                return NotImplemented
        if self.variables != other.variables:
            return False
        return self.equal_up_to(other)

    __hash__ = None

    def __str__(self):
        def mono(e):
            bits = []
            for tag, p in zip(self.variables, e):
                if p:
                    bits.append(f"{tag}^{-p}")
            return "*".join(bits) if bits else "1"

        items = sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))
        body = " + ".join(f"{c}*{mono(e)}" for e, c in items) if items else "0"
        tail = "" if self.trunc is None else f" + O(deg {self.trunc})"
        return body.replace("+ -", "- ") + tail

    def __repr__(self):
        return f"InverseSeries({self.variables!r}, {self.terms!r}, trunc={self.trunc!r})"


class RingMatrix:
    """Immutable row-major matrix over one coefficient ring.

    The 0x0 matrix is valid; its determinant is the ring's one.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        entries = tuple(entries)
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise DimensionError(f"need {rows}x{cols} entries, got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, rows) -> "RingMatrix":
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise DimensionError("ragged rows")
        return cls(n, m, [c for r in rows for c in r])

    @classmethod
    def hankel(cls, seq, n: int) -> "RingMatrix":
        """The n x n matrix seq[i+j]; each antidiagonal holds one object."""
        return cls(n, n, [seq[i + j] for i in range(n) for j in range(n)])

    def get(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row(self, i: int):
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self):
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def delete(self, drop_rows=(), drop_cols=()) -> "RingMatrix":
        dr, dc = set(drop_rows), set(drop_cols)
        rows = [
            [self.get(i, j) for j in range(self.cols) if j not in dc]
            for i in range(self.rows)
            if i not in dr
        ]
        return RingMatrix.from_rows(rows) if rows else RingMatrix(0, 0, ())

    def __eq__(self, other):
        return (
            isinstance(other, RingMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    __hash__ = None

    def __repr__(self):
        return f"RingMatrix({self.rows}x{self.cols})"


def _require_square(m: RingMatrix):
    if not m.is_square:
        raise DimensionError(f"determinant of a {m.rows}x{m.cols} matrix")


def det_cofactor(m: RingMatrix, one=_ONE):
    """Plain Laplace expansion along the first row.  The oracle: slow,
    division-free, obviously correct."""
    _require_square(m)

    def rec(rows):
        n = len(rows)
        if n == 0:
            return one
        if n == 1:
            return rows[0][0]
        acc = None
        for j in range(n):
            c = rows[0][j]
            if not c:
                continue
            sub = [r[:j] + r[j + 1 :] for r in rows[1:]]
            term = c * rec(sub)
            if j % 2:
                term = -term
            acc = term if acc is None else acc + term
        return acc if acc is not None else one - one

    return rec(m.to_rows())


def det_berkowitz(m: RingMatrix, one=_ONE):
    """Berkowitz's division-free determinant: a cross-checked reference that
    no product path calls.

    Works over any commutative ring, including rings with zero divisors
    (truncated series) and rings without division (polynomials).  Computes
    the characteristic polynomial of each trailing principal submatrix via
    Toeplitz products; det A = (-1)^n * (constant coefficient).  On series
    its trunc follows the valuations of intermediate sums, so it can differ
    from det_generic's, whose values it matches below both.
    """
    _require_square(m)
    n = m.rows
    if n == 0:
        return one
    a = m.to_rows()
    zero = one - one
    poly = [one, -a[n - 1][n - 1]]
    for i in range(n - 2, -1, -1):
        t = n - 1 - i
        row_i = a[i]
        # First column of the (t+2) x (t+1) Toeplitz factor:
        # [1, -a_ii, -R C, -R B C, ..., -R B^(t-1) C]
        col = [one, -row_i[i]]
        v = [a[r][i] for r in range(i + 1, n)]
        for step in range(t):
            dot = None
            for r in range(t):
                c = row_i[i + 1 + r]
                if not c or not v[r]:
                    continue
                term = c * v[r]
                dot = term if dot is None else dot + term
            col.append(-dot if dot is not None else zero)
            if step < t - 1:
                v = [
                    _dot([a[i + 1 + r][i + 1 + s] for s in range(t)], v, zero)
                    for r in range(t)
                ]
        new = []
        for r in range(t + 2):
            acc = None
            for s in range(min(r, t) + 1):
                c = col[r - s]
                if not c or not poly[s]:
                    continue
                term = c * poly[s]
                acc = term if acc is None else acc + term
            new.append(acc if acc is not None else zero)
        poly = new
    det = poly[-1]
    return -det if n % 2 else det


def _dot(row, vec, zero):
    acc = None
    for c, v in zip(row, vec):
        if not c or not v:
            continue
        term = c * v
        acc = term if acc is None else acc + term
    return acc if acc is not None else zero


def det_generic(m: RingMatrix, one=_ONE):
    """Division-free determinant over any commutative ring: first-row
    expansion with minors memoized over column subsets, n * 2^(n-1) ring
    multiplications at every size.  Large matrices have det_rational
    (rationals) and det_poly_minors (polynomials).

    Minors grow from the bottom rows up, so scalar rows on top only scale
    the minors of series rows.  Each minor is multilinear in the columns: a
    column scaled by a nonzero integer scales all its terms alike, so the
    same sums cancel and trunc and cap do not change.
    """
    _require_square(m)
    n = m.rows
    if n == 0:
        return one
    a = m.to_rows()
    zero = one - one
    # minors[mask] = det of the submatrix on the last popcount(mask) rows
    # and the column set encoded by mask
    minors = {1 << j: a[n - 1][j] for j in range(n)}
    for r in range(2, n + 1):
        row = a[n - r]
        new = {}
        for cols in combinations(range(n), r):
            mask = 0
            for j in cols:
                mask |= 1 << j
            acc = None
            for idx, j in enumerate(cols):
                c = row[j]
                if not c:
                    continue
                term = c * minors[mask ^ (1 << j)]
                if idx % 2:
                    term = -term
                acc = term if acc is None else acc + term
            new[mask] = acc if acc is not None else zero
        minors = new
    return minors[(1 << n) - 1]


def det_int(a: list) -> int:
    """Fraction-free Bareiss determinant of a square integer matrix given as
    a list of row lists, which it overwrites.  Every division in the
    elimination is exact (Bareiss 1968), so it runs on plain Python ints;
    the empty matrix gives 1."""
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not a[k][k]:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        row_k = a[k]
        for i in range(k + 1, n):
            row_i = a[i]
            f = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - f * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def leading_minors(rows: list) -> list:
    """The determinant of every leading k x k block, k = 1..n, of a square
    integer matrix given as a list of row lists (left as it is).  After k
    Bareiss steps without row swaps, entry (k, k) is the leading (k+1) x
    (k+1) minor (Sylvester's identity; Bareiss 1968), so one run gives them
    all.  A zero pivot ends the run: each larger block takes its own det_int."""
    n = len(rows)
    a = [list(r) for r in rows]
    out = []
    prev = 1
    for k in range(n):
        pivot = a[k][k]
        out.append(pivot)
        if not pivot:
            break
        row_k = a[k][k + 1 :]
        for row_i in a[k + 1 :]:
            f = row_i[k]
            row_i[k + 1 :] = [(pivot * x - f * y) // prev for x, y in zip(row_i[k + 1 :], row_k)]
        prev = pivot
    return out + [det_int([r[:k] for r in rows[:k]]) for k in range(len(out) + 1, n + 1)]


_SHARED = ContextVar("_SHARED", default=None)  # the open shared_minors block: (size, memo)


@contextmanager
def shared_minors(size: int = 0):
    """A block within which shared() takes each key's minors once, at size
    ``size`` at least.  A nested block joins the outer one, and the memo ends
    with the outermost: no minor outlives the run that took it."""
    token = _SHARED.set(_SHARED.get() or (size, {}))
    try:
        yield
    finally:
        _SHARED.reset(token)


def shared(key, n: int, compute):
    """compute(size) at the open block's size, at least n (n outside any
    block), once per key and size in the block."""
    size, memo = _SHARED.get() or (0, {})
    size = max(n, size)
    value = memo.get((key, size))
    if value is None:
        value = memo[key, size] = compute(size)
    return value


def add_row(minors: dict, row) -> dict:
    """The minors, keyed by column mask, of the integer rows under ``minors``
    (from {0: 1}) with ``row`` put on top: the expansion along it, sum over j
    in S of row[j] times the complementary minor minors[S - j] at
    (-1)^(columns of S below j)."""
    out = {}
    for mask, c in minors.items():
        for j, v in enumerate(row):
            if mask >> j & 1:
                c = -c
            elif v and c:
                out[mask | 1 << j] = out.get(mask | 1 << j, 0) + v * c
    return out


def schur_minors(fixed, rows, levels: int, reach: int, pad: int = 0, sign: int = 1) -> dict:
    """{mu: sign * det} over the partitions mu_1 >= ... >= mu_levels >= 0 with
    |mu| < reach, each key padded with ``pad`` zero parts, of the square
    integer matrix with rows[mu_l + levels - l] on top of the ``fixed`` rows,
    l = 1 topmost; zero determinants are left out.  At levels == 0 the one
    key holds sign * det_int(fixed), and no column minors are formed.
    ``rows`` must reach index reach + levels - 2.  The fixed rows go into
    one set of column minors (add_row from {0: sign}), then the rows from l =
    levels, so each tail mu_l, ..., mu_levels shares its minors, and row
    mu_1 + levels - 1 is a dot product with the cofactors of the rest."""
    if not levels:
        c = sign * det_int([list(r) for r in fixed]) if reach > 0 else 0
        return {(0,) * pad: c} if c else {}
    minors = {0: sign}
    for row in reversed(fixed):
        minors = add_row(minors, row)
    full = (1 << (len(fixed) + levels)) - 1
    out = {}

    def walk(minors, level, low, used, tail):
        if level == 1:
            cofactors = [minors.get(full ^ 1 << j, 0) * (-1) ** j for j in range(full.bit_length())]
            for mu in range(low, reach - used):
                c = sum(map(mul, cofactors, rows[mu + levels - 1]))
                if c:
                    out[(mu, *tail)] = c
            return
        # the level - 1 parts above are each at least mu
        for mu in range(low, (reach - used - 1) // level + 1):
            walk(add_row(minors, rows[mu + levels - level]), level - 1, mu, used + mu, (mu, *tail))

    walk(minors, levels, 0, 0, (0,) * pad)
    return out


def det_rational(m: RingMatrix) -> int | Fraction:
    """Determinant of a matrix of ints or Fractions; agrees exactly with
    det_generic, as an int when the value is integral (see ratio).

    Each row is scaled to integers by the lcm of its denominators (an all-int
    matrix goes as it is), det_int eliminates, and the row scales are divided out once.
    """
    _require_square(m)
    if all(type(v) is int for v in m.entries):
        return det_int(m.to_rows())
    rows = [integer_form(m.row(i)) for i in range(m.rows)]
    return ratio(det_int([list(r) for r, _ in rows]), math.prod(d for _, d in rows))


def vandermonde_product(values, mults=None):
    """prod_{i<j} (v_j - v_i)^(c_i c_j) over the multiplicities c (all 1 when
    omitted); empty and singleton lists give the int 1."""
    values = list(values)
    prod = None
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            f = values[j] - values[i]
            e = 1 if mults is None else mults[i] * mults[j]
            if e > 1:  # Theorem 1 passes all-ones lists: no unit powers
                f = f ** e
            prod = f if prod is None else prod * f
    return prod if prod is not None else 1


def det_poly_minors(m: RingMatrix, variables) -> list:
    """The determinant of every leading k x k block of a square matrix of
    polynomials, k = 0..n, each as an exact polynomial.

    ``variables`` are named outer first.  An entry is a rational scalar or
    a UniPoly in the first variable whose coefficients are scalars or
    UniPolys in the second; a UniPoly in the second variable alone is
    constant in the first.  The result nests the same way.
    det_generic(block, one) is the oracle.  Each term of the expansion takes
    one entry per row, so deg_v det <= sum_i max_j deg_v a_ij: that is the
    bound of each variable v.

    Every distinct entry gets integer coefficients over its own denominator,
    and every row the lcm of its entries' denominators as a multiplier.  The
    integer matrix is then Kronecker-packed: the innermost variable becomes
    B = 2^w and each outer one B^s, with s the slots of the variables inside
    it (the product of their bound + 1), so the coefficient of x^i y^j sits
    in slot i (bound_y + 1) + j.  One leading_minors run on the packed
    integer rows gives every coefficient of every block at once, and the
    product of the block's row multipliers is divided out at the end: an
    integral coefficient is an int (see ratio).

    Why decoding is exact: packing is a ring map Phi: Z[x, y] -> Z, so
    det(Phi(M)) = Phi(det M), and the Bareiss intermediates never need
    decoding.  Each coefficient c of det M has |c| <= ||det M||_1 <=
    prod_i max(1, sum_j ||a_ij||_1) on the integer entries, and w =
    bitlen(that bound) + 1 makes |c| < B/2.  Within the bounds every
    monomial owns its slot, and balanced base-B digits in [-B/2, B/2) are
    unique, so the digits of Phi(det M) are its coefficients, negative ones
    borrowing from the slot above as they should.  A leading block's
    degrees are within the whole matrix's bounds, and its coefficients
    within the product of its own row norms, each at least 1, so the same
    packing decodes every block.
    """
    _require_square(m)
    n = m.rows
    variables = tuple(variables)
    # A Hankel matrix repeats each entry along an antidiagonal: walk and
    # pack every distinct entry once.
    forms = {key: _poly_form(x, variables) for key, x in {id(x): x for x in m.entries}.items()}
    rows = [[forms[id(x)] for x in m.row(i)] for i in range(n)]
    scales = [math.lcm(*(d for _, d, _, _ in row)) for row in rows]
    l1 = math.prod(max(1, sum(norm * (s // d) for _, d, norm, _ in row))
                   for row, s in zip(rows, scales))
    width = l1.bit_length() + 1
    bounds = [sum(max(dg[v] for *_, dg in row) for row in rows) for v in range(len(variables))]
    # slots[i]: the digits taken by the variables from i on
    slots = [math.prod(b + 1 for b in bounds[i:]) for i in range(len(bounds) + 1)]
    shifts = [width * s for s in slots[1:]]
    packed = {key: _pack(g, shifts, d) for key, (g, d, _, _) in forms.items()}
    cells = [[packed[id(x)] * (scales[i] // forms[id(x)][1]) for x in m.row(i)] for i in range(n)]

    def build(flat, level, scale):
        if level == len(variables):
            return ratio(flat[0], scale)
        size = slots[level + 1]
        coeffs = [build(flat[i : i + size], level + 1, scale) for i in range(0, len(flat), size)]
        return UniPoly(coeffs, variables[level])

    return [build(_unpack(v, width, slots[0]), 0, math.prod(scales[:k]))
            for k, v in enumerate([1, *leading_minors(cells)])]


def _poly_form(x, variables):
    """One walk over a det_poly_minors entry: (its coefficients in
    ``variables``, outer first, as nested lists, their lcm denominator d,
    the L1 norm of d x, its degree in each variable)."""
    leaves = []
    degrees = [0] * len(variables)

    def nest(x, level):
        if level == len(variables):
            if isinstance(x, UniPoly):
                raise ValueError(f"det_poly_minors entry in an unlisted variable {x.var!r}")
            leaves.append(x)
            return x
        if isinstance(x, UniPoly) and x.var == variables[level]:
            degrees[level] = max(degrees[level], len(x.coeffs) - 1)
            return [nest(c, level + 1) for c in x.coeffs]
        return [nest(x, level + 1)]

    g = nest(x, 0)
    d = math.lcm(*(c.denominator for c in leaves))
    return g, d, sum(abs(c.numerator) * (d // c.denominator) for c in leaves), degrees


def _pack(g, shifts, d: int) -> int:
    """Horner's rule on d g, g the nested coefficients from _poly_form, at
    the point (2^shifts[0], 2^shifts[1], ...), by shift and add."""
    if not shifts:
        return g.numerator * (d // g.denominator)
    acc = 0
    for c in reversed(g):
        acc = (acc << shifts[0]) + _pack(c, shifts[1:], d)
    return acc


def _unpack(v: int, width: int, slots: int) -> list:
    """The balanced base-2^width digits of v, each in [-2^(width-1),
    2^(width-1)), least significant first: ``slots`` of them."""
    half = 1 << (width - 1)
    mask = (1 << width) - 1
    # adding B/2 to every slot turns each digit c into c + B/2 in [0, B)
    v += half * (((1 << (width * slots)) - 1) // mask)
    digits = []
    for _ in range(slots):
        digits.append((v & mask) - half)
        v >>= width
    return digits
