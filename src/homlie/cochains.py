"""Twisted spaces and skew-symmetric multilinear cochains.

A twisted space is a finite-dimensional rational vector space with a chosen
endomorphism (the twist).  An n-cochain from (W, alpha) to (V, beta) is an
alternating n-linear map stored densely on the wedge basis: one value vector
per strictly increasing index tuple.  Arity 0 is allowed: its one key ``()``
holds a vector of V.  The cochain spaces used everywhere else are the
twist-compatible ones,

    C^n(W, V) = { f : beta o f = f o alpha^(wedge n) },

parameterized by ``compatibility_basis``; C^0(W, V) is the beta-fixed
subspace of V.  The module also provides shuffle enumeration with signs and
the first-slot insertion operator underlying all graded brackets.

The twist enters every compiled table through one wedge table kept on the
``TwistedSpace``, ``_wedge(w, k, n)``: Lambda^n(alpha^k) on increasing
n-tuples.  ``compatibility_basis`` is the kernel of the defect matrix
beta (x) I - I (x) Lambda^n alpha read off it, kept on the domain per codomain
and arity.  The insertion plan of a pair of arities, kept on the space too,
lists per inner key and coordinate the entries (outer key, output key, integer
coefficient) with the shuffle signs, the wedge of the trailing arguments under
alpha^(m-1) and the sort signs multiplied out, over one denominator; an
insertion walks it from its inner cochain's nonzero keys and coordinates.  The
action plan of a dimension and arity lists per increasing key each index it
lacks with the sign and sorted key of prepending it; an action sum walks it
from its cochain's nonzero keys.  Plans work in raw coefficient
coordinates, as a nested bracket yields an arbitrary cochain.  ``evaluate``
and ``shuffles`` are the oracle the explicit shuffle sums of ``theorems`` and
the tests check the plans and the wedge table against.

A cochain holds its values as ``Vec`` and ``Mat`` hold theirs: ``num`` maps
each nonzero key to its integer numerators over the one denominator ``den``,
in canonical form, and ``coeffs`` (key -> ``Vec``) is a view built on first
read and kept, for io, witnesses and tests.  ``_assemble`` is the one place
that sums cochain values.  A part is one signed summand: a denominator and,
per output key, integer (c, numerators) terms, read off the numerators of
the cochains and of integer tables kept on their owners, so a part carries no
``Vec``.  ``_contract_part`` gives an insertion; ``_action_part`` gives the
sum over positions of (-1)^pos table[key[pos]] paired with f(key without
pos), the action terms of the coboundary and theta~, on an integer table of
``_numerator_table`` and the action plan.  ``_kept`` is the one helper for
per-object caches; only integer-keyed tables (shuffles, cup and action plans)
are process-wide.  ``_assemble`` puts the parts over the lcm of their
denominators, sums each output key once on the integers and reduces the whole
cochain with one gcd.  ``contract`` and ``linear_combination`` (so cochain +
and -) are one-part assemblies; the brackets and the coboundary assemble
several.
"""

from __future__ import annotations

from bisect import bisect
from collections import defaultdict
from functools import lru_cache, partial
from itertools import chain, combinations, product
from math import gcd, lcm
from operator import mul
from typing import Callable, Iterable, Sequence
from weakref import ref

from .linalg import Mat, Vec, _mat, _scalar, _vec_reduced, kernel_basis


class TwistedSpace:
    """A dimension together with its twist endomorphism.

    Holds the standard basis and the twist powers, which grow one step at a
    time so that a high power needs no recursion.  Its other tables (twisted
    bases, wedge tables, insertion plans, compatibility bases with it as
    domain) are ``_kept`` on it and go with it.  A shape check tests identity
    before it calls ``__eq__``, as ``!=`` calls it even on one space.
    """

    def __init__(self, alpha: Mat):
        if alpha.nrows != alpha.ncols:
            raise ValueError("twist must be a square matrix")
        self.alpha = alpha
        self.dim = alpha.nrows
        self._powers: dict[int, Mat] = {0: Mat.identity(self.dim), 1: alpha}
        self.basis: tuple[Vec, ...] = tuple(Vec.basis(self.dim, i) for i in range(self.dim))

    @staticmethod
    def untwisted(dim: int) -> "TwistedSpace":
        return TwistedSpace(Mat.identity(dim))

    def twist_power(self, k: int) -> Mat:
        if k < 0:
            raise ValueError("negative twist power")
        powers = self._powers  # always the powers 0, 1, ..., len - 1
        for j in range(len(powers), k + 1):
            powers[j] = self.alpha @ powers[j - 1]
        return powers[k]

    def twisted_basis(self, k: int) -> tuple[Vec, ...]:
        """The basis vectors hit by the k-th twist power, alpha^k(e_i), kept on the space."""
        return self.basis if not k else _kept(
            self, "twisted", k, lambda: tuple(map(self.twist_power(k).__matmul__, self.basis)))

    def basis_vec(self, i: int) -> Vec:
        return self.basis[i]

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, TwistedSpace) and self.alpha == other.alpha)

    def __hash__(self) -> int:
        return hash(self.alpha)

    def __repr__(self) -> str:
        return f"TwistedSpace(dim={self.dim})"


def shuffles(*block_sizes: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """All (n1, ..., nk)-shuffles with their signatures.

    A shuffle is a permutation of {0, ..., N-1} that is increasing on each
    consecutive block of positions.  Returns (image, sign) pairs where
    image[p] is the 0-based value of the permutation at position p, so a term
    indexed by a shuffle reads its arguments as [args[i] for i in image].
    """
    if any(n < 0 for n in block_sizes):
        raise ValueError("block sizes must be nonnegative")
    return _shuffle_table(block_sizes)


@lru_cache(maxsize=None)
def _shuffle_table(block_sizes: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The table of ``shuffles``, in an ``lru_cache``: integers alone key it, no object owns it."""
    blocks = [n for n in block_sizes if n > 0]

    def rec(remaining: tuple[int, ...], blocks: list[int]):
        if not blocks:
            yield ()
            return
        head, *rest = blocks
        for chosen in combinations(remaining, head):
            left = tuple(v for v in remaining if v not in chosen)
            for tail in rec(left, rest):
                yield chosen + tail

    return tuple((image, perm_sign(image)) for image in rec(tuple(range(sum(block_sizes))), blocks))


def perm_sign(image: Sequence[int]) -> int:
    """Signature of a permutation given as its image sequence."""
    sign = 1
    for i in range(len(image)):
        for j in range(i + 1, len(image)):
            if image[i] > image[j]:
                sign = -sign
    return sign


def sort_with_sign(idxs: Sequence[int]) -> tuple[int, tuple[int, ...] | None]:
    """Sort indices, tracking the permutation sign; sign 0 on a repeat."""
    idx = list(idxs)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return 0, None
    return sign, tuple(idx)


class SkewCochain:
    """Alternating multilinear map on wedge basis coefficients.

    num maps strictly increasing 0-based index tuples to the integer
    numerators of their nonzero values in the codomain, over the one positive
    denominator den, in canonical form: gcd(den, every numerator) == 1, so the
    zero cochain has den == 1 and equal cochains have equal (num, den).
    Missing tuples are zero.  An arity-0 cochain is a codomain vector, kept
    under the empty tuple.  ``coeffs``, the values as ``Vec``, is a view built
    on first read.  Instances are immutable by convention.
    """

    __slots__ = ("domain", "codomain", "arity", "num", "den", "_kept", "__weakref__")
    __hash__ = None

    def __init__(self, domain: TwistedSpace, codomain: TwistedSpace, arity: int,
                 coeffs: dict[tuple[int, ...], Vec]):
        if arity < 0:
            raise ValueError("cochain arity must be >= 0")
        table: dict[tuple[int, ...], Vec] = {}
        for key, value in coeffs.items():
            key = tuple(key)
            if len(key) != arity or any(a >= b for a, b in zip(key, key[1:])):
                raise ValueError(f"coefficient key {key} is not a strictly increasing {arity}-tuple")
            if any(i < 0 or i >= domain.dim for i in key):
                raise ValueError(f"coefficient key {key} out of range for dim {domain.dim}")
            if value.dim != codomain.dim:
                raise ValueError("coefficient value has wrong dimension")
            if not value.is_zero():
                table[key] = value
        self.domain, self.codomain, self.arity, self._kept = domain, codomain, arity, {}
        self.num, self.den = _common_numerators(table)

    @staticmethod
    def zero(domain: TwistedSpace, codomain: TwistedSpace, arity: int) -> "SkewCochain":
        return SkewCochain(domain, codomain, arity, {})

    @staticmethod
    def from_function(domain: TwistedSpace, codomain: TwistedSpace, arity: int,
                      fn: Callable[[tuple[int, ...]], Vec]) -> "SkewCochain":
        """Build a cochain from its values on increasing basis tuples."""
        if arity < 0:
            raise ValueError("cochain arity must be >= 0")
        dim = codomain.dim
        table = {}
        for key in combinations(range(domain.dim), arity):
            value = fn(key)
            if value.dim != dim:
                raise ValueError("coefficient value has wrong dimension")
            if not value.is_zero():
                table[key] = value
        return _cochain(domain, codomain, arity, *_common_numerators(table))

    @property
    def coeffs(self) -> dict[tuple[int, ...], Vec]:
        """The nonzero values as ``Vec``, key by key: built on first read and kept."""
        return _kept(self, "coeffs", None, lambda: {
            key: _vec_reduced(num, self.den) for key, num in self.num.items()})

    def value_on(self, key: tuple[int, ...]) -> Vec:
        """Value on a strictly increasing basis tuple."""
        return self.coeffs.get(tuple(key), Vec.zero(self.codomain.dim))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SkewCochain):
            return NotImplemented
        return (self.arity == other.arity and self.den == other.den and self.num == other.num
                and (self.domain is other.domain or self.domain == other.domain)
                and (self.codomain is other.codomain or self.codomain == other.codomain))

    def __add__(self, other: "SkewCochain") -> "SkewCochain":
        self._require_same_shape(other)
        return linear_combination(self.domain, self.codomain, self.arity, [(1, self), (1, other)])

    def __sub__(self, other: "SkewCochain") -> "SkewCochain":
        self._require_same_shape(other)
        return linear_combination(self.domain, self.codomain, self.arity, [(1, self), (-1, other)])

    def __neg__(self) -> "SkewCochain":
        return _cochain(self.domain, self.codomain, self.arity,
                        {k: tuple([-x for x in v]) for k, v in self.num.items()}, self.den)

    def scale(self, c) -> "SkewCochain":
        if type(c) is int and c in (1, -1):  # the signs (-1)^k, with no Fraction round trip
            return self if c == 1 else -self
        p, q = _scalar(c)
        if p == 0:
            return SkewCochain.zero(self.domain, self.codomain, self.arity)
        return _reduced(self.domain, self.codomain, self.arity,
                        {k: tuple([p * x for x in v]) for k, v in self.num.items()}, self.den * q)

    def is_zero(self) -> bool:
        return not self.num

    def _require_same_shape(self, other: "SkewCochain"):
        if (self.arity != other.arity
                or (self.domain is not other.domain and self.domain != other.domain)
                or (self.codomain is not other.codomain and self.codomain != other.codomain)):
            raise ValueError("cochain shape mismatch")

    def __repr__(self) -> str:
        return f"SkewCochain(arity={self.arity}, nonzero={len(self.num)})"


def _cochain(domain: TwistedSpace, codomain: TwistedSpace, arity: int,
             num: dict[tuple[int, ...], tuple[int, ...]], den: int) -> SkewCochain:
    """A cochain from numerators and a denominator already canonical for its shape, unchecked.

    Canonical means increasing in-range keys, nonzero codomain-sized numerator
    tuples and a positive den with gcd(den, every numerator) == 1.
    """
    f = object.__new__(SkewCochain)
    f.domain, f.codomain, f.arity, f.num, f.den, f._kept = domain, codomain, arity, num, den, {}
    return f


def _reduced(domain: TwistedSpace, codomain: TwistedSpace, arity: int,
             num: dict[tuple[int, ...], tuple[int, ...]], den: int) -> SkewCochain:
    """A cochain from nonzero numerator tuples over a positive den, canonical after one gcd."""
    if den != 1:
        g = gcd(den, *chain.from_iterable(num.values()))
        if g != 1:
            num = {k: tuple([x // g for x in v]) for k, v in num.items()}
            den //= g
    return _cochain(domain, codomain, arity, num, den)


def _common_numerators(values: dict) -> tuple[dict, int]:
    """Canonical ``Vec`` values as numerators over their lcm, which is canonical.

    The lcm of canonical denominators leaves the numerators coprime to it, as in
    ``linalg._common``.
    """
    den = lcm(*[v.den for v in values.values()])
    return {k: _over(v, den) for k, v in values.items()}, den


def _numerator_table(rows) -> tuple[tuple[dict[int, tuple[int, ...]], ...], int]:
    """A table of ``Vec`` rows as (rows, den): rows[i] maps each j with a nonzero entry
    (i, j) to its integer numerators over the one denominator den, so a sum skips zeros.
    """
    rows = [tuple(row) for row in rows]
    den = lcm(*[v.den for row in rows for v in row])
    return tuple({j: _over(v, den) for j, v in enumerate(row) if any(v.num)} for row in rows), den


def _skew_table(mu: SkewCochain) -> tuple[tuple[dict[int, tuple[int, ...]], ...], int]:
    """The bracket table of a 2-cochain mu as (rows, mu.den): rows[i][j] holds the
    numerators of mu(e_i, e_j) where nonzero, the skew entries (i > j) sign-flipped.
    """
    rows = [{} for _ in range(mu.domain.dim)]
    for (i, j), v in mu.num.items():
        rows[i][j], rows[j][i] = v, tuple([-x for x in v])
    return tuple(rows), mu.den


def _twisted_numerators(f: SkewCochain, power: int) -> tuple[dict, int]:
    """The values beta^power f(e_key) as (numerators by key, den), beta f's codomain twist."""
    if not power:
        return f.num, f.den
    twist = f.codomain.twist_power(power)
    return ({key: [sum(map(mul, row, num)) for row in twist.num] for key, num in f.num.items()},
            f.den * twist.den)


def _over(v: Vec, den: int) -> tuple[int, ...]:
    """The numerators of v over den, a multiple of v.den."""
    return v.num if v.den == den else tuple([x * (den // v.den) for x in v.num])


def linear_combination(domain: TwistedSpace, codomain: TwistedSpace, arity: int,
                       terms: Iterable[tuple[int, SkewCochain]], den: int = 1) -> SkewCochain:
    """The sum of c * f over (integer c, cochain f) pairs, divided by the positive integer den.

    One ``_assemble`` part over the lcm of the denominators, visiting only the
    keys some f with c != 0 is nonzero on.
    """
    terms = [(c, f) for c, f in terms if c]
    common = lcm(*[f.den for _, f in terms])
    by_key: dict[tuple[int, ...], list[tuple[int, tuple[int, ...]]]] = {}
    for c, f in terms:
        c *= common // f.den
        for key, value in f.num.items():
            by_key.setdefault(key, []).append((c, value))
    return _assemble(domain, codomain, arity, [(common, by_key)], den)


def evaluate(f: SkewCochain, args: Sequence[Vec]) -> Vec:
    """Multilinear, alternating evaluation on arbitrary vectors: the oracle route.

    Expands each argument over its nonzero coordinates; the terms are summed
    on integer numerators over one common denominator.  No compiled table
    calls it: the explicit shuffle sums of ``theorems`` and the tests do.
    """
    if len(args) != f.arity:
        raise ValueError(f"expected {f.arity} arguments, got {len(args)}")
    dim = f.domain.dim
    arg_den = 1
    supports = []
    for a in args:
        if len(a.num) != dim:
            raise ValueError("argument dimension mismatch")
        arg_den *= a.den
        supports.append([(i, x) for i, x in enumerate(a.num) if x])
    num = f.num
    terms = []
    for combo in product(*supports):
        sign, key = sort_with_sign([i for i, _ in combo])
        if sign == 0:
            continue
        value = num.get(key)
        if value is None:
            continue
        c = sign
        for _, x in combo:
            c *= x
        terms.append((c, value))
    return _vec_reduced(tuple(_row_sum(terms, f.codomain.dim)), arg_den * f.den)


def is_compatible(f: SkewCochain) -> bool:
    """Whether beta o f = f o alpha^(wedge n) on every increasing basis tuple."""
    return compatibility_witness(f) is None


def compatibility_failures(f: SkewCochain) -> list[tuple[tuple[int, ...], Vec, Vec]]:
    """Every increasing basis tuple where twist-compatibility fails, with both sides.

    Tuples come in lexicographic order; the sides beta(f(e_I)) and f(alpha(e_I)) are integer
    row sums, compared cross-multiplied and built as ``Vec`` only at a failure.
    """
    return list(_incompatible(f))


def compatibility_witness(f: SkewCochain) -> tuple[tuple[int, ...], Vec, Vec] | None:
    """First basis tuple where twist-compatibility fails, with both sides."""
    return next(_incompatible(f), None)


def _incompatible(f: SkewCochain):
    """The failures of ``compatibility_failures``, one at a time."""
    beta, num, dim = f.codomain.alpha, f.num, f.codomain.dim
    (wedge, den), columns = _wedge(f.domain, 1, f.arity), list(zip(*beta.num))
    for key, entries in wedge.items():
        lhs = _row_sum([(x, columns[r]) for r, x in enumerate(num.get(key, ())) if x], dim)
        rhs = _row_sum([(c, num[k]) for k, c in entries if k in num], dim)
        if lhs != rhs if den == beta.den else any(x * den != y * beta.den for x, y in zip(lhs, rhs)):
            yield key, _vec_reduced(tuple(lhs), beta.den * f.den), _vec_reduced(tuple(rhs), den * f.den)


def compatibility_basis(domain: TwistedSpace, codomain: TwistedSpace, arity: int) -> list[SkewCochain]:
    """Basis of the twist-compatible cochain space C^arity(domain, codomain).

    The kernel of f -> beta o f - f o alpha^(wedge n) on raw coefficient tables,
    the matrix beta (x) I - I (x) Lambda^n alpha read off the wedge table.
    Ordered by lexicographic tuples, then codomain coordinates.  At arity 0 the
    map is beta - I: the basis is ``kernel_basis(beta - I)``, the fixed vectors.
    Kept on the domain per codomain and arity, so it goes with its space.
    """
    if arity < 0:
        raise ValueError("arity must be >= 0")

    def build():
        wedge, den = _wedge(domain, 1, arity)
        beta, d = codomain.alpha, codomain.dim
        at, width = {key: j * d for j, key in enumerate(wedge)}, len(wedge) * d
        rows = []  # (key, r) x (key', c): beta.den * den * (beta (x) I - I (x) Lambda^n alpha)
        for key, entries in wedge.items():
            for r in range(d):
                row = [0] * width
                row[at[key]:at[key] + d] = [den * x for x in beta.num[r]]
                for k, c in entries:
                    row[at[k] + r] -= beta.den * c
                rows.append(tuple(row))
        basis = []  # each canonical kernel vector's nonzero slices are its cochain's numerators
        for v in kernel_basis(_mat(tuple(rows), 1, width)):
            slices = ((key, v.num[at[key]:at[key] + d]) for key in wedge)
            basis.append(_cochain(domain, codomain, arity,
                                  {key: part for key, part in slices if any(part)}, v.den))
        return basis

    return _kept(domain, "compat", (codomain, arity), build)


def flatten_cochain(f: SkewCochain, keys: list[tuple[int, ...]] | None = None) -> Vec:
    """Raw coefficient table as a single vector (fixed tuple ordering)."""
    if keys is None:
        keys = list(combinations(range(f.domain.dim), f.arity))
    num, zero = f.num, (0,) * f.codomain.dim
    return _vec_reduced(tuple(chain.from_iterable([num.get(key, zero) for key in keys])), f.den)


def contract(inner: SkewCochain, outer: SkewCochain) -> SkewCochain:
    """First-slot insertion i_P Q of inner = P into outer = Q.

    (i_P Q)(x_1, ..., x_{m+n-1}) sums over (m, n-1)-shuffles with sign:
    outer applied to P(first block) followed by the remaining arguments hit
    by the m-1 power of the shared domain twist.  Requires inner to be an
    endomorphism-type cochain on outer's domain.  Runs on the insertion plan
    of (m, n) kept on the domain.
    """
    return _assemble(inner.domain, outer.codomain, inner.arity + outer.arity - 1,
                     [_contract_part(inner, outer)])


def _contract_part(inner: SkewCochain, outer: SkewCochain, sign: int = 1) -> tuple[int, dict]:
    """sign * i_P Q as a part for ``_assemble``, checking the shapes as ``contract`` does."""
    w = inner.domain
    m, n = inner.arity, outer.arity
    if ((inner.codomain is not w and inner.codomain != w)
            or (outer.domain is not w and outer.domain != w) or min(m, n) < 1):
        raise ValueError("contraction requires inner in C^m(W, W), outer in C^n(W, V), m, n >= 1")
    if m + n - 1 > w.dim:  # alternating maps of arity above the dimension vanish
        return 1, {}
    plan, den = _insertion_plan(w, m, n)
    outs = outer.num
    part = defaultdict(list)
    for inner_key, head in inner.num.items():
        entries = plan[inner_key]
        for a, x in enumerate(head):
            if x:
                x *= sign
                for outer_key, key, c in entries[a]:
                    value = outs.get(outer_key)
                    if value is not None:
                        part[key].append((c * x, value))
    return den * inner.den * outer.den, part


def _action_part(f: SkewCochain, table: tuple[Sequence[Sequence[tuple[int, ...]]], int],
                 sign: int = 1) -> tuple[int, dict]:
    """sign * sum_pos (-1)^pos table[key[pos]] . f(key without pos) as a part for ``_assemble``.

    table is (rows, den) of ``_numerator_table``: rows[x][v] / den, if present, is
    what domain index x makes of coordinate v of f's values.  Walks the action plan
    of f's arity from f's nonzero keys.
    """
    rows, den = table
    plan = _action_plan(f.domain.dim, f.arity)
    part: dict[tuple[int, ...], list[tuple[int, tuple[int, ...]]]] = {}
    for key, num in f.num.items():
        support = [(v, sign * y) for v, y in enumerate(num) if y]
        for x, out, c in plan[key]:
            row = rows[x]
            if terms := [(c * y, row[v]) for v, y in support if v in row]:
                part.setdefault(out, []).extend(terms)
    return f.den * den, part


@lru_cache(maxsize=None)
def _action_plan(dim: int, n: int) -> dict:
    """plan[key] lists (x, out, c) with e_x ^ e_key = c * e_out per increasing n-tuple key
    of range(dim) and index x not in it; in an ``lru_cache``, as integers alone key it.
    """
    coords = [(x, 1) for x in range(dim)]
    return {key: tuple(_prepend(coords, ((key, 1),))) for key in combinations(range(dim), n)}


def _prepend(head, tails):
    """(a, sorted key, sign * x * c) of e_a ^ e_tail per (a, x) in head, (tail, c) in tails.

    The sign is (-1)^pos for the pos entries of tail below a; a in tail is skipped.
    """
    for tail, c in tails:
        for a, x in head:
            pos = bisect(tail, a)
            if not pos or tail[pos - 1] != a:
                yield a, tail[:pos] + (a,) + tail[pos:], -x * c if pos % 2 else x * c


def _wedge(w: TwistedSpace, k: int, n: int) -> tuple[dict, int]:
    """Lambda^n(alpha^k) on increasing n-tuples, compiled once and kept on w: (table, den).

    table maps each key, lexicographically, to the (key', c) with
    alpha^k(e_key[0]) ^ ... ^ alpha^k(e_key[n-1]) = sum c * e_key' / den.
    """
    def build():
        power = w.twist_power(k)
        table = {(): (((), 1),)} if n == 0 else {}
        if 0 < n <= w.dim:
            tails = _wedge(w, k, n - 1)[0]
            columns = [[(b, x) for b, x in enumerate(col) if x] for col in zip(*power.num)]
            for key in combinations(range(w.dim), n):
                entries: dict[tuple[int, ...], int] = {}
                for _, out, c in _prepend(columns[key[0]], tails[key[1:]]):
                    entries[out] = entries.get(out, 0) + c
                table[key] = tuple([(out, c) for out, c in entries.items() if c])
        return table, power.den ** n

    return _kept(w, "wedge", (k, n), build)


def _insertion_plan(w: TwistedSpace, m: int, n: int) -> tuple[dict, int]:
    """The compiled insertion of an m-cochain into an n-cochain on w, kept on w.

    Returns (plan, den).  plan[inner][a] lists, per increasing m-tuple inner and
    coordinate a, the entries (outer key, key, c) of (i_P Q)(e_key) = sum over all
    entries of c * P(e_inner)[a] * Q(e_outer) / den, den being that of the wedge of
    the n-1 trailing arguments under alpha^(m-1).
    """
    def build():
        wedge, den = _wedge(w, m - 1, n - 1)
        coords = [(a, 1) for a in range(w.dim)]
        table = shuffles(m, n - 1)
        index = {inner: [[] for _ in range(w.dim)] for inner in combinations(range(w.dim), m)}
        for key in combinations(range(w.dim), m + n - 1):
            entries: dict[tuple, int] = {}
            for image, sign in table:
                inner = tuple([key[p] for p in image[:m]])
                for a, outer, c in _prepend(coords, wedge[tuple([key[p] for p in image[m:]])]):
                    entries[inner, a, outer] = entries.get((inner, a, outer), 0) + sign * c
            for (inner, a, outer), c in entries.items():
                if c:
                    index[inner][a].append((outer, key, c))
        return {inner: tuple(map(tuple, by_coord)) for inner, by_coord in index.items()}, den

    return _kept(w, "insertion_plan", (m, n), build)


def _kept(obj, name: str, key, build: Callable, *args):
    """build(*args), made at the first call for (name, key) and kept in the dict obj._kept.

    Every caller gets the one kept value, to read only.  The entry of a weak reference
    key (to a representation) goes with its referent.  A hit is one lookup; a cochain
    has its dict from the start, as a missing attribute is the dearest miss.
    """
    try:
        return obj._kept[name, key]
    except AttributeError:
        kept = obj._kept = {}
    except KeyError:
        kept = obj._kept
    value = build(*args)
    if type(key) is ref:
        key = ref(key(), partial(_forget, ref(obj), name))
    kept[name, key] = value
    return value


def _forget(owner: ref, name: str, key: ref):
    """Drop the entry of the collected weak key from its owner's kept entries."""
    if (obj := owner()) is not None:
        del obj._kept[name, key]


def _assemble(domain: TwistedSpace, codomain: TwistedSpace, arity: int,
              parts: Sequence[tuple[int, dict[tuple[int, ...], list[tuple[int, tuple[int, ...]]]]]],
              divisor: int = 1) -> SkewCochain:
    """The cochain that sums its parts, divided by the positive integer divisor.

    A part is (den, {key: [(c, v), ...]}), v an integer numerator tuple, and
    stands for the value sum c * v / den on e_key; every part must have the
    cochain's shape.  The terms of all parts go over the lcm of their
    denominators, so each output key is summed once on the integers, and the
    whole cochain is brought to canonical form with one gcd.
    """
    common, merged = lcm(*[den for den, _ in parts]), {}
    for den, part in parts:  # the parts are consumed: their term lists are extended
        up = common // den
        for key, terms in part.items():
            if up != 1:
                terms = [(c * up, v) for c, v in terms]
            got = merged.get(key)
            if got is None:
                merged[key] = terms
            else:
                got.extend(terms)
    dim, num = codomain.dim, {}
    for key, terms in merged.items():
        total = _row_sum(terms, dim)
        if any(total):
            num[key] = tuple(total)
    return _reduced(domain, codomain, arity, num, common * divisor)


def _row_sum(terms: Sequence[tuple[int, tuple[int, ...]]], dim: int) -> list[int]:
    """sum c * v over the (integer c, numerator tuple v) terms, v of length dim.

    The first term sets the row, as in ``linalg._lincomb``; no terms give the zero
    row, as for an evaluation or a column bracket that meets no nonzero value.
    """
    terms = iter(terms)
    for c, v in terms:
        total = [c * x for x in v]
        break
    else:
        return [0] * dim
    for c, v in terms:
        total = [t + c * x for t, x in zip(total, v)]
    return total


def operator_cochain(domain: TwistedSpace, codomain: TwistedSpace, m: Mat) -> SkewCochain:
    """A linear map as an arity-1 cochain: the numerator columns of m over its denominator."""
    if m.nrows != codomain.dim or m.ncols != domain.dim:
        raise ValueError("operator shape does not match the spaces")
    return _cochain(domain, codomain, 1,
                    {(j,): col for j, col in enumerate(zip(*m.num)) if any(col)}, m.den)


def cochain_matrix(f: SkewCochain) -> Mat:
    """Matrix of an arity-1 cochain."""
    if f.arity != 1:
        raise ValueError("only arity-1 cochains correspond to matrices")
    num, zero = f.num, (0,) * f.codomain.dim
    columns = [num.get((j,), zero) for j in range(f.domain.dim)]
    return _mat(tuple(zip(*columns)), f.den, f.domain.dim)
