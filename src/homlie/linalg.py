"""Exact linear algebra over the rationals.

Everything in this package runs on ``fractions.Fraction`` scalars, so rank,
kernel and solve results are exact and all downstream identity checks are
plain equality tests.  Matrices are small and dense (desk scale: dim <= 6),
so plain fraction Gaussian elimination with first-nonzero pivoting is enough.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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


@dataclass(frozen=True)
class Vec:
    """Immutable vector with Fraction entries."""

    entries: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(rat(e) for e in self.entries))

    @staticmethod
    def make(entries: Iterable) -> "Vec":
        return Vec(tuple(rat(e) for e in entries))

    @staticmethod
    def zero(dim: int) -> "Vec":
        return Vec((Fraction(0),) * dim)

    @staticmethod
    def basis(dim: int, i: int) -> "Vec":
        return Vec(tuple(Fraction(1 if j == i else 0) for j in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> Fraction:
        return self.entries[i]

    def __add__(self, other: "Vec") -> "Vec":
        if self.dim != other.dim:
            raise ValueError("vector dimension mismatch")
        return Vec(tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Vec") -> "Vec":
        if self.dim != other.dim:
            raise ValueError("vector dimension mismatch")
        return Vec(tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "Vec":
        return Vec(tuple(-a for a in self.entries))

    def scale(self, c) -> "Vec":
        c = rat(c)
        return Vec(tuple(c * a for a in self.entries))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def support(self) -> list[tuple[int, Fraction]]:
        """Nonzero coordinates as (index, value) pairs."""
        return [(i, a) for i, a in enumerate(self.entries) if a != 0]

    def __repr__(self) -> str:
        return "(" + ", ".join(rat_str(a) for a in self.entries) + ")"


@dataclass(frozen=True)
class Mat:
    """Immutable row-major matrix with Fraction entries."""

    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(rat(e) for e in row) for row in self.rows)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged matrix rows")
        object.__setattr__(self, "rows", rows)

    @staticmethod
    def make(rows: Iterable[Iterable]) -> "Mat":
        return Mat(tuple(tuple(rat(e) for e in row) for row in rows))

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat(tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)))

    @staticmethod
    def zero(nrows: int, ncols: int) -> "Mat":
        return Mat(((Fraction(0),) * ncols,) * nrows)

    @staticmethod
    def diagonal(diag: Iterable) -> "Mat":
        d = [rat(x) for x in diag]
        n = len(d)
        return Mat(tuple(tuple(d[i] if i == j else Fraction(0) for j in range(n)) for i in range(n)))

    @staticmethod
    def from_columns(cols: Sequence[Vec]) -> "Mat":
        if not cols:
            return Mat(())
        nrows = cols[0].dim
        return Mat(tuple(tuple(c[i] for c in cols) for i in range(nrows)))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def row(self, i: int) -> Vec:
        return Vec(self.rows[i])

    def col(self, j: int) -> Vec:
        return Vec(tuple(r[j] for r in self.rows))

    def __add__(self, other: "Mat") -> "Mat":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("matrix shape mismatch")
        return Mat(tuple(tuple(a + b for a, b in zip(r, s)) for r, s in zip(self.rows, other.rows)))

    def __sub__(self, other: "Mat") -> "Mat":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("matrix shape mismatch")
        return Mat(tuple(tuple(a - b for a, b in zip(r, s)) for r, s in zip(self.rows, other.rows)))

    def __neg__(self) -> "Mat":
        return Mat(tuple(tuple(-a for a in r) for r in self.rows))

    def scale(self, c) -> "Mat":
        c = rat(c)
        return Mat(tuple(tuple(c * a for a in r) for r in self.rows))

    def __matmul__(self, other):
        if isinstance(other, Vec):
            if self.ncols != other.dim:
                raise ValueError("matrix/vector dimension mismatch")
            return Vec(tuple(sum((a * b for a, b in zip(r, other.entries)), Fraction(0)) for r in self.rows))
        if isinstance(other, Mat):
            if self.ncols != other.nrows:
                raise ValueError("matrix dimension mismatch")
            cols = other.ncols
            return Mat(tuple(
                tuple(sum((r[k] * other.rows[k][j] for k in range(self.ncols)), Fraction(0)) for j in range(cols))
                for r in self.rows))
        return NotImplemented

    def transpose(self) -> "Mat":
        return Mat(tuple(tuple(self.rows[i][j] for i in range(self.nrows)) for j in range(self.ncols)))

    def is_zero(self) -> bool:
        return all(a == 0 for r in self.rows for a in r)

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
        basis.append(Vec(tuple(v)))
    return basis


def solve_linear(m: Mat, b: Vec) -> Vec | None:
    """A particular solution of m @ x = b, or None if the system is inconsistent."""
    if b.dim != m.nrows:
        raise ValueError("right-hand side length does not match row count")
    ncols = m.ncols
    rows = [list(r) + [b[i]] for i, r in enumerate(m.rows)]
    if not rows:
        return Vec.zero(ncols)
    rref_rows, pivots = _rref(rows)
    # A pivot in the augmented column means the system is inconsistent.
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, p in enumerate(pivots):
        x[p] = rref_rows[r][ncols]
    return Vec(tuple(x))
