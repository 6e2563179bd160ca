"""Exact linear algebra over the rationals.

A ``Vec`` or ``Mat`` stores its entries as Python integer numerators over one
shared positive denominator, always in canonical form: ``den > 0`` and
``gcd(den, *num) == 1``, so the zero vector has ``den == 1`` and equal values
have equal ``(num, den)``.  Arithmetic runs on the integers and takes a gcd
only when the denominator is not 1.  ``fractions.Fraction`` appears only at
the boundary: the public constructors accept ints, Fractions and strings, and
``entries``, ``rows`` and indexing return Fractions.

Matrices are small and dense (desk scale: dim <= 6), so rank, kernel and
solve use plain fraction Gaussian elimination with first-nonzero pivoting on
the ``rows`` view.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Sequence


def rat(value) -> Fraction:
    """Coerce an int, Fraction or string like "3" / "-2/5" to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def rat_str(q: Fraction) -> str:
    """Canonical string form: "p" for integers, "p/q" otherwise."""
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _common(values: Iterable) -> tuple[tuple[int, ...], int]:
    """Canonical (numerators, denominator) of a sequence of rationals.

    Over the least common denominator the numerators are already coprime to
    it: for each prime p of the lcm, some entry's reduced denominator holds
    the lcm's full power of p, so its scaled numerator is prime to p.
    """
    qs = [rat(e) for e in values]
    den = lcm(*(q.denominator for q in qs))
    if den == 1:
        return tuple(q.numerator for q in qs), 1
    return tuple(q.numerator * (den // q.denominator) for q in qs), den


def _scalar(c) -> tuple[int, int]:
    """A scalar as (numerator, positive denominator)."""
    if isinstance(c, int):
        return c, 1
    c = rat(c)
    return c.numerator, c.denominator


def _fractions(num: Sequence[int], den: int) -> tuple[Fraction, ...]:
    if den == 1:
        return tuple(Fraction(x) for x in num)
    return tuple(Fraction(x, den) for x in num)


_new = object.__new__


def _vec(num: tuple[int, ...], den: int) -> "Vec":
    """A Vec from numerators and denominator already in canonical form."""
    v = _new(Vec)
    v.num = num
    v.den = den
    return v


def _vec_reduced(num: tuple[int, ...], den: int) -> "Vec":
    """A Vec from numerators over a positive denominator, brought to canonical form."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = tuple([x // g for x in num])
            den //= g
    return _vec(num, den)


def _mat(num: tuple[tuple[int, ...], ...], den: int) -> "Mat":
    """A Mat from numerator rows and denominator already in canonical form."""
    m = _new(Mat)
    m.num = num
    m.den = den
    return m


def _mat_reduced(num: tuple[tuple[int, ...], ...], den: int) -> "Mat":
    """A Mat from numerator rows over a positive denominator, brought to canonical form."""
    if den != 1:
        g = gcd(den, *chain.from_iterable(num))
        if g != 1:
            num = tuple([tuple([x // g for x in r]) for r in num])
            den //= g
    return _mat(num, den)


def _lincomb(terms: Iterable[tuple[int, "Vec"]], dim: int, den: int = 1) -> "Vec":
    """The sum of c * v over (integer c, Vec v) pairs, divided by the positive integer den.

    Accumulates integer numerators over the lcm of the denominators seen.
    """
    total = [0] * dim
    common = 1
    for c, v in terms:
        vden = v.den
        if vden != common:
            new = lcm(common, vden)
            if new != common:
                up = new // common
                total = [t * up for t in total]
                common = new
            c *= common // vden
        total = [t + c * x for t, x in zip(total, v.num)]
    return _vec_reduced(tuple(total), common * den)


class Vec:
    """Rational vector: integer numerators ``num`` over the denominator ``den``.

    Immutable by convention; build one with ``Vec(entries)`` or ``Vec.make``.
    """

    __slots__ = ("num", "den")

    def __init__(self, entries: Iterable):
        self.num, self.den = _common(entries)

    @staticmethod
    def make(entries: Iterable) -> "Vec":
        return Vec(entries)

    @staticmethod
    def zero(dim: int) -> "Vec":
        return _vec((0,) * dim, 1)

    @staticmethod
    def basis(dim: int, i: int) -> "Vec":
        return _vec(tuple([1 if j == i else 0 for j in range(dim)]), 1)

    @staticmethod
    def concat(*parts: "Vec") -> "Vec":
        """The direct-sum vector with the parts' coordinates in order."""
        # Over the lcm of canonical denominators the result is canonical.
        den = lcm(*(p.den for p in parts))
        return _vec(tuple(chain.from_iterable(
            p.num if p.den == den else [x * (den // p.den) for x in p.num] for p in parts)), den)

    @property
    def entries(self) -> tuple[Fraction, ...]:
        return _fractions(self.num, self.den)

    @property
    def dim(self) -> int:
        return len(self.num)

    def __getitem__(self, i: int) -> Fraction:
        return Fraction(self.num[i], self.den)

    def __add__(self, other: "Vec") -> "Vec":
        a, b = self.num, other.num
        if len(a) != len(b):
            raise ValueError("vector dimension mismatch")
        da, db = self.den, other.den
        if da == db:
            return _vec_reduced(tuple([x + y for x, y in zip(a, b)]), da)
        g = gcd(da, db)
        ma, mb = db // g, da // g
        return _vec_reduced(tuple([x * ma + y * mb for x, y in zip(a, b)]), da * ma)

    def __sub__(self, other: "Vec") -> "Vec":
        a, b = self.num, other.num
        if len(a) != len(b):
            raise ValueError("vector dimension mismatch")
        da, db = self.den, other.den
        if da == db:
            return _vec_reduced(tuple([x - y for x, y in zip(a, b)]), da)
        g = gcd(da, db)
        ma, mb = db // g, da // g
        return _vec_reduced(tuple([x * ma - y * mb for x, y in zip(a, b)]), da * ma)

    def __neg__(self) -> "Vec":
        return _vec(tuple([-x for x in self.num]), self.den)

    def scale(self, c) -> "Vec":
        p, q = _scalar(c)
        if p == 0:
            return _vec((0,) * len(self.num), 1)
        return _vec_reduced(tuple([p * x for x in self.num]), self.den * q)

    def is_zero(self) -> bool:
        return not any(self.num)

    def __eq__(self, other) -> bool:
        if type(other) is not Vec:
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return "(" + ", ".join(rat_str(a) for a in self.entries) + ")"


class Mat:
    """Rational row-major matrix: integer numerator rows ``num`` over ``den``.

    Immutable by convention; build one with ``Mat(rows)`` or ``Mat.make``.
    """

    __slots__ = ("num", "den")

    def __init__(self, rows: Iterable[Iterable]):
        rows = [tuple(r) for r in rows]
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged matrix rows")
        flat, self.den = _common(chain.from_iterable(rows))
        width = len(rows[0]) if rows else 0
        self.num = tuple(flat[i * width:(i + 1) * width] for i in range(len(rows)))

    @staticmethod
    def make(rows: Iterable[Iterable]) -> "Mat":
        return Mat(rows)

    @staticmethod
    def identity(n: int) -> "Mat":
        return _mat(tuple(tuple([1 if i == j else 0 for j in range(n)]) for i in range(n)), 1)

    @staticmethod
    def zero(nrows: int, ncols: int) -> "Mat":
        return _mat(((0,) * ncols,) * nrows, 1)

    @staticmethod
    def diagonal(diag: Iterable) -> "Mat":
        d = list(diag)
        n = len(d)
        return Mat([[d[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def from_columns(cols: Sequence[Vec]) -> "Mat":
        if not cols:
            return _mat((), 1)
        # Over the lcm of canonical denominators the result is canonical.
        den = lcm(*(c.den for c in cols))
        scaled = [c.num if c.den == den else [x * (den // c.den) for x in c.num] for c in cols]
        return _mat(tuple(zip(*scaled)), den)

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        den = self.den
        return tuple(_fractions(r, den) for r in self.num)

    @property
    def nrows(self) -> int:
        return len(self.num)

    @property
    def ncols(self) -> int:
        return len(self.num[0]) if self.num else 0

    def col(self, j: int) -> Vec:
        return _vec_reduced(tuple([r[j] for r in self.num]), self.den)

    def _plus(self, other: "Mat", sign: int) -> "Mat":
        """self + sign * other."""
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("matrix shape mismatch")
        da, db = self.den, other.den
        g = gcd(da, db)
        ma, mb = db // g, sign * (da // g)
        return _mat_reduced(tuple(tuple([x * ma + y * mb for x, y in zip(r, s)])
                                  for r, s in zip(self.num, other.num)), da * ma)

    def __add__(self, other: "Mat") -> "Mat":
        return self._plus(other, 1)

    def __sub__(self, other: "Mat") -> "Mat":
        return self._plus(other, -1)

    def __neg__(self) -> "Mat":
        return _mat(tuple(tuple([-x for x in r]) for r in self.num), self.den)

    def scale(self, c) -> "Mat":
        p, q = _scalar(c)
        if p == 0:
            return Mat.zero(self.nrows, self.ncols)
        return _mat_reduced(tuple(tuple([p * x for x in r]) for r in self.num), self.den * q)

    def __matmul__(self, other):
        if isinstance(other, Vec):
            if self.ncols != len(other.num):
                raise ValueError("matrix/vector dimension mismatch")
            support = [(j, x) for j, x in enumerate(other.num) if x]
            if not support:
                return _vec((0,) * len(self.num), 1)
            if len(support) == 1:
                j, x = support[0]
                num = tuple([r[j] * x for r in self.num])
            else:
                num = tuple([sum([r[j] * x for j, x in support]) for r in self.num])
            return _vec_reduced(num, self.den * other.den)
        if isinstance(other, Mat):
            if self.ncols != other.nrows:
                raise ValueError("matrix dimension mismatch")
            cols = list(zip(*other.num))
            return _mat_reduced(tuple([tuple([sum([a * b for a, b in zip(r, c)]) for c in cols])
                                       for r in self.num]), self.den * other.den)
        return NotImplemented

    def transpose(self) -> "Mat":
        return _mat(tuple(zip(*self.num)), self.den)

    def is_zero(self) -> bool:
        return not any(any(r) for r in self.num)

    def __eq__(self, other) -> bool:
        if type(other) is not Mat:
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return "[" + "; ".join(" ".join(rat_str(a) for a in r) for r in self.rows) + "]"


def _rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form in place; returns (rows, pivot columns)."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [a * inv for a in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def mat_rank(m: Mat) -> int:
    """Rank over the rationals."""
    rows = [list(r) for r in m.rows]
    if not rows:
        return 0
    _, pivots = _rref(rows)
    return len(pivots)


def kernel_basis(m: Mat) -> list[Vec]:
    """Basis of the right null space {v : m @ v = 0}.

    One basis vector per free column of the reduced echelon form; each
    satisfies m @ v = 0 exactly.
    """
    ncols = m.ncols
    if ncols == 0:
        return []
    rows = [list(r) for r in m.rows]
    if not rows:
        return [Vec.basis(ncols, j) for j in range(ncols)]
    rref_rows, pivots = _rref(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -rref_rows[r][free]
        basis.append(Vec(v))
    return basis


def solve_linear(m: Mat, b: Vec) -> Vec | None:
    """A particular solution of m @ x = b, or None if the system is inconsistent."""
    if b.dim != m.nrows:
        raise ValueError("right-hand side length does not match row count")
    ncols = m.ncols
    rows = [list(r) + [x] for r, x in zip(m.rows, b.entries)]
    if not rows:
        return Vec.zero(ncols)
    rref_rows, pivots = _rref(rows)
    # A pivot in the augmented column means the system is inconsistent.
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, p in enumerate(pivots):
        x[p] = rref_rows[r][ncols]
    return Vec(x)
