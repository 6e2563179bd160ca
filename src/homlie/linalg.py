"""Exact linear algebra over the rationals.

A ``Vec`` or ``Mat`` stores its entries as Python integer numerators over one
shared positive denominator, always in canonical form: ``den > 0`` and
``gcd(den, *num) == 1``, so the zero vector has ``den == 1`` and equal values
have equal ``(num, den)``.  Arithmetic runs on the integers and takes a gcd
only when the denominator is not 1.  ``fractions.Fraction`` appears only at
the boundary: the public constructors accept ints, Fractions and strings, and
``entries``, ``rows`` and indexing return Fractions.

Rank, kernel and solve run one fraction-free Gauss-Jordan elimination
(``_rref``) on the integer numerator rows, with first-nonzero pivoting: every
division in it is exact, and the result is the reduced row echelon form
times one positive integer.
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
    qs = [e if type(e) is int else rat(e) for e in values]  # an int has numerator and denominator
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


def _mat(num: tuple[tuple[int, ...], ...], den: int, ncols: int) -> "Mat":
    """A Mat from numerator rows, denominator and width already in canonical form."""
    m = _new(Mat)
    m.num = num
    m.den = den
    m.ncols = ncols
    return m


def _mat_reduced(num: tuple[tuple[int, ...], ...], den: int, ncols: int) -> "Mat":
    """A Mat from numerator rows over a positive denominator, brought to canonical form."""
    if den != 1:
        g = gcd(den, *chain.from_iterable(num))
        if g != 1:
            num = tuple([tuple([x // g for x in r]) for r in num])
            den //= g
    return _mat(num, den, ncols)


def _lincomb(terms: Iterable[tuple[int, "Vec"]], dim: int, den: int = 1) -> "Vec":
    """The sum of c * v over (integer c, Vec v) pairs, divided by the positive integer den.

    Accumulates integer numerators over the lcm of the denominators seen.
    """
    terms = iter(terms)
    for c, v in terms:  # the first term sets the numerators and the denominator
        total, common = [c * x for x in v.num], v.den
        break
    else:
        return _vec((0,) * dim, 1)
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

    The width ``ncols`` is stored, so a matrix with no rows keeps its shape.
    Immutable by convention; build one with ``Mat(rows)`` or ``Mat.make``.
    """

    __slots__ = ("num", "den", "ncols")

    def __init__(self, rows: Iterable[Iterable]):
        rows = [tuple(r) for r in rows]
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged matrix rows")
        flat, self.den = _common(chain.from_iterable(rows))
        width = self.ncols = len(rows[0]) if rows else 0
        self.num = tuple(flat[i * width:(i + 1) * width] for i in range(len(rows)))

    @staticmethod
    def make(rows: Iterable[Iterable]) -> "Mat":
        return Mat(rows)

    @staticmethod
    def identity(n: int) -> "Mat":
        return _mat(tuple(tuple([1 if i == j else 0 for j in range(n)]) for i in range(n)), 1, n)

    @staticmethod
    def zero(nrows: int, ncols: int) -> "Mat":
        return _mat(((0,) * ncols,) * nrows, 1, ncols)

    @staticmethod
    def diagonal(diag: Iterable) -> "Mat":
        d = list(diag)
        return Mat([[x if i == j else 0 for j in range(len(d))] for i, x in enumerate(d)])

    @staticmethod
    def from_columns(cols: Sequence[Vec]) -> "Mat":
        # Over the lcm of canonical denominators the result is canonical.
        den = lcm(*(c.den for c in cols))
        scaled = [c.num if c.den == den else [x * (den // c.den) for x in c.num] for c in cols]
        return _mat(tuple(zip(*scaled)), den, len(cols))

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        den = self.den
        return tuple(_fractions(r, den) for r in self.num)

    @property
    def nrows(self) -> int:
        return len(self.num)

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
                                  for r, s in zip(self.num, other.num)), da * ma, self.ncols)

    def __add__(self, other: "Mat") -> "Mat":
        return self._plus(other, 1)

    def __sub__(self, other: "Mat") -> "Mat":
        return self._plus(other, -1)

    def __neg__(self) -> "Mat":
        return _mat(tuple(tuple([-x for x in r]) for r in self.num), self.den, self.ncols)

    def scale(self, c) -> "Mat":
        p, q = _scalar(c)
        return _mat_reduced(tuple(tuple([p * x for x in r]) for r in self.num), self.den * q,
                            self.ncols)

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
            cols = other.transpose().num
            return _mat_reduced(tuple([tuple([sum([a * b for a, b in zip(r, c)]) for c in cols])
                                       for r in self.num]), self.den * other.den, other.ncols)
        return NotImplemented

    def transpose(self) -> "Mat":
        return _mat(tuple(zip(*self.num)) if self.num else ((),) * self.ncols, self.den, self.nrows)

    def is_zero(self) -> bool:
        return not any(any(r) for r in self.num)

    def __eq__(self, other) -> bool:
        if type(other) is not Mat:
            return NotImplemented
        return self.den == other.den and self.num == other.num and self.ncols == other.ncols

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return "[" + "; ".join(" ".join(rat_str(a) for a in r) for r in self.rows) + "]"


def _rref(rows: list[list[int]], rank_only: bool = False) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan elimination of integer rows, in place.

    Returns (rows, pivot columns, d) with d > 0: the first len(pivots) rows are
    d times the reduced row echelon form (d I, written at once, when every
    column is a pivot) and the rest are zero.  With rank_only, for ``mat_rank``,
    only the pivots are meant: the rows are left unscaled.  With pivot p
    in column c and prev the pivot before it (1 at the start), every other
    row becomes (p * row - row[c] * pivot row) / prev; its entries stay minors
    of the input, so the division is exact (Bareiss, Math. Comp. 22, 1968).
    A row with a zero in column c would only be scaled by p / prev, so row i
    is kept as its value times level[i] / prev and scaled when next used.
    """
    level = [1] * len(rows)
    pivots: list[int] = []
    prev = 1
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        level[r], level[pivot_row] = level[pivot_row], level[r]
        top = rows[r]
        if level[r] != prev:
            top = [a * prev // level[r] for a in top]
        p = top[c]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                rows[i] = [(p * a - f * b) // level[i] for a, b in zip(row, top)]
                level[i] = p
        rows[r], level[r] = top, p
        pivots.append(c)
        prev = p
    d = abs(prev)
    if rank_only:
        return rows, pivots, d
    if pivots and len(pivots) == len(rows[0]):  # the reduced form is the identity
        rows[:len(pivots)] = [[d if j == i else 0 for j in pivots] for i in pivots]
        return rows, pivots, d
    for i in range(len(pivots)):
        if level[i] != d:
            rows[i] = [a * d // level[i] for a in rows[i]]
    return rows, pivots, d


def mat_rank(m: Mat) -> int:
    """Rank over the rationals: the pivots of ``_rref``, with no rescaling."""
    return len(_rref([list(r) for r in m.num], rank_only=True)[1])


def kernel_basis(m: Mat) -> list[Vec]:
    """Basis of the right null space {v : m @ v = 0}.

    One basis vector per free column of the reduced echelon form, with a 1 in
    that column; each satisfies m @ v = 0 exactly.
    """
    rows, pivots, d = _rref([list(r) for r in m.num])
    ncols, pivot_set = m.ncols, set(pivots)
    basis = []
    for free in (j for j in range(ncols) if j not in pivot_set):
        v = [0] * ncols
        v[free] = d
        for row, p in zip(rows, pivots):
            v[p] = -row[free]
        basis.append(_vec_reduced(tuple(v), d))
    return basis


def solve_linear(m: Mat, b: Vec) -> Vec | None:
    """A particular solution of m @ x = b, or None if the system is inconsistent."""
    if b.dim != m.nrows:
        raise ValueError("right-hand side length does not match row count")
    ncols = m.ncols
    # m @ x = b with m = M / m.den and b = B / b.den is M @ x = B * m.den / b.den.
    bd, md = b.den, m.den
    rows, pivots, d = _rref([[x * bd for x in r] + [y * md] for r, y in zip(m.num, b.num)])
    # A pivot in the augmented column means the system is inconsistent.
    if ncols in pivots:
        return None
    x = [0] * ncols
    for row, p in zip(rows, pivots):
        x[p] = row[ncols]
    return _vec_reduced(tuple(x), d)
