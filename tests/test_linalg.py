import random
from fractions import Fraction

import pytest

from homlie.linalg import Mat, Vec, _rref, kernel_basis, mat_rank, rat, rat_str, solve_linear


def test_rat_parsing_and_canonical_form():
    assert rat("2/4") == Fraction(1, 2)
    assert rat("-6/4") == Fraction(-3, 2)
    assert rat(7) == Fraction(7)
    assert rat_str(Fraction(3)) == "3"
    assert rat_str(Fraction(-1, 2)) == "-1/2"
    with pytest.raises(TypeError):
        rat(0.5)


def test_rank_examples():
    assert mat_rank(Mat.identity(2)) == 2
    assert mat_rank(Mat.zero(3, 3)) == 0
    assert mat_rank(Mat.make([[1, 2], [2, 4]])) == 1


def test_kernel_examples():
    assert kernel_basis(Mat.identity(3)) == []
    assert len(kernel_basis(Mat.zero(2, 3))) == 3
    basis = kernel_basis(Mat.make([[1, -1]]))
    assert len(basis) == 1
    assert basis[0] == Vec.make([1, 1])


def test_solve_examples():
    b = Vec.make([2, -1, 3])
    assert solve_linear(Mat.identity(3), b) == b
    x = solve_linear(Mat.make([[1, 1]]), Vec.make([2]))
    assert x is not None and x[0] + x[1] == 2
    assert solve_linear(Mat.make([[0]]), Vec.make([1])) is None
    with pytest.raises(ValueError):
        solve_linear(Mat.identity(2), Vec.make([1, 2, 3]))


def test_matrix_without_rows_keeps_its_width():
    for m in (Mat.zero(0, 3), Mat.from_columns([Vec.zero(0)] * 3)):
        assert (m.nrows, m.ncols) == (0, 3)
        assert (m.transpose().nrows, m.transpose().ncols) == (3, 0)
        assert m != Mat.zero(0, 0)
        assert mat_rank(m) == 0
        assert kernel_basis(m) == [Vec.basis(3, j) for j in range(3)]
        assert solve_linear(m, Vec.zero(0)) == Vec.zero(3)
    assert Mat.zero(3, 0) @ Mat.zero(0, 2) == Mat.zero(3, 2)
    assert Mat.zero(0, 3) @ Mat.zero(3, 2) == Mat.zero(0, 2)


def test_matrix_vector_algebra_exactness():
    third = Fraction(1, 3)
    m = Mat.make([[third, 1], [1, third]])
    v = Vec.make(["1/7", "2/7"])
    assert (m @ v) - (m @ v) == Vec.zero(2)
    assert m @ Mat.identity(2) == m
    assert (m - m).is_zero()
    assert m.transpose().transpose() == m


def _random_matrix(rng, rows, cols):
    return Mat.make([[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
                     for _ in range(rows)])


def test_rank_nullity_and_exact_kernel_randomized():
    rng = random.Random(20240)
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = _random_matrix(rng, rows, cols)
        basis = kernel_basis(m)
        assert mat_rank(m) + len(basis) == cols
        for v in basis:
            assert (m @ v).is_zero()


def test_solve_none_iff_augmented_rank_grows():
    rng = random.Random(77)
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = _random_matrix(rng, rows, cols)
        b = Vec.make([Fraction(rng.randint(-3, 3)) for _ in range(rows)])
        x = solve_linear(m, b)
        augmented = Mat.make([list(r) + [b[i]] for i, r in enumerate(m.rows)])
        if x is None:
            assert mat_rank(augmented) > mat_rank(m)
        else:
            assert m @ x == b
            assert mat_rank(augmented) == mat_rank(m)


# -- oracle: sympy DomainMatrix over QQ ----------------------------------------


def _qq(m: Mat):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    QQ = sympy.QQ
    return DomainMatrix([[QQ(e.numerator, e.denominator) for e in row] for row in m.rows],
                        (m.nrows, m.ncols), QQ)


def _oracle_cases():
    """Seeded random matrices: mixed denominators, zero rows, empty and one-column shapes."""
    rng = random.Random(1968)
    cases = [Mat(()), Mat.zero(3, 1), Mat.make([[0], ["1/2"], [0]]), Mat.make([[0, 0, 0]])]
    for _ in range(60):
        rows, cols = rng.randint(1, 6), rng.choice((1, 1, 2, 3, 4, 5, 6))
        grid = [[Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3, 4, 6, 9)))
                 if rng.random() < 0.6 else Fraction(0) for _ in range(cols)]
                for _ in range(rows)]
        for r in range(rows):
            if rng.random() < 0.25:
                grid[r] = [Fraction(0)] * cols  # zero row
        if rows > 1 and rng.random() < 0.3:
            # a dependent row: a rational combination of two others
            a, b = rng.sample(range(rows), 2)
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            grid[rng.randrange(rows)] = [x + c * y for x, y in zip(grid[a], grid[b])]
        cases.append(Mat.make(grid))
    return rng, cases


def test_rank_kernel_and_solve_match_sympy_domain_matrix():
    rng, cases = _oracle_cases()
    inconsistent = 0
    for m in cases:
        dm = _qq(m)
        rank = dm.rank()
        assert mat_rank(m) == rank
        basis = kernel_basis(m)
        assert len(basis) == m.ncols - rank
        if basis:
            k = Mat.from_columns(basis)
            assert (dm * _qq(k)).is_zero_matrix
            assert _qq(k).rank() == len(basis)
        # right-hand sides: one in the column space, one random (often inconsistent)
        inside = m @ Vec.make([rng.randint(-3, 3) for _ in range(m.ncols)])
        outside = Vec.make([Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m.nrows)])
        for b in (inside, outside):
            x = solve_linear(m, b)
            if m.nrows == 0:
                assert x == Vec.zero(m.ncols)
                continue
            augmented = _qq(Mat.from_columns([m.col(j) for j in range(m.ncols)] + [b]))
            if x is None:
                inconsistent += 1
                assert b is not inside
                assert augmented.rank() > rank
            else:
                assert augmented.rank() == rank
                assert dm * _qq(Mat.from_columns([x])) == _qq(Mat.from_columns([b]))
    assert inconsistent > 0


def _sparse_cases():
    """Seeded sparse matrices of 200-500 columns with dependent rows, and 0 x k shapes."""
    rng = random.Random(1968)
    cases = [Mat.zero(0, k) for k in (1, 4, 250)]
    for nrows, ncols in ((150, 200), (260, 330), (120, 500)):
        rows = [{c: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))
                 for c in rng.sample(range(ncols), rng.randint(0, 5))} for _ in range(nrows)]
        for _ in range(nrows // 4):
            # a dependent row: a rational combination of two others
            a, b = rng.sample(range(nrows), 2)
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            row = dict(rows[a])
            for j, y in rows[b].items():
                row[j] = row.get(j, 0) + c * y
            rows[rng.randrange(nrows)] = row
        cases.append(Mat.make([[row.get(j, 0) for j in range(ncols)] for row in rows]))
    return rng, cases


def _sparse_qq(m: Mat):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    QQ = sympy.QQ
    return DomainMatrix({i: {j: QQ(x, m.den) for j, x in enumerate(row) if x}
                         for i, row in enumerate(m.num) if any(row)}, (m.nrows, m.ncols), QQ)


def _rref_kernel(dm, ncols: int) -> list[Vec]:
    """The kernel basis read off sympy's RREF: a 1 in each free column."""
    reduced, pivots = dm.rref()
    rows = reduced.to_dod()
    basis = []
    for free in (j for j in range(ncols) if j not in pivots):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for r, p in enumerate(pivots):
            e = rows[r].get(free)
            if e is not None:
                v[p] = -Fraction(int(e.numerator), int(e.denominator))
        basis.append(Vec.make(v))
    return basis


def test_full_column_rank_matches_sympy():
    # every column a pivot: _rref writes the reduced form as d I at once, and the
    # rank, the empty kernel and the unique solution agree with sympy's
    rng = random.Random(2011)
    for nrows, ncols in ((1, 1), (6, 6), (40, 25), (90, 60)):
        m = Mat.make([[Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(ncols)]
                      for _ in range(nrows)])
        dm = _sparse_qq(m)
        assert mat_rank(m) == dm.rank() == ncols
        assert kernel_basis(m) == _rref_kernel(dm, ncols) == []
        rows, pivots, d = _rref([list(r) for r in m.num])
        assert pivots == list(range(ncols))
        assert rows[:ncols] == [[d if j == i else 0 for j in range(ncols)] for i in range(ncols)]
        assert not any(map(any, rows[ncols:]))
        x = Vec.make([Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(ncols)])
        assert solve_linear(m, m @ x) == x


def test_sparse_rank_kernel_and_solve_at_scale_match_sympy():
    rng, cases = _sparse_cases()
    for m in cases:
        dm = _sparse_qq(m)
        rank = dm.rank()
        assert mat_rank(m) == rank
        # the reduced row echelon form is unique, so the bases agree exactly
        assert kernel_basis(m) == _rref_kernel(dm, m.ncols)
        inside = m @ Vec.make([rng.randint(-3, 3) for _ in range(m.ncols)])
        outside = Vec.make([Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                            for _ in range(m.nrows)])
        for b in (inside, outside):
            x = solve_linear(m, b)
            augmented = _sparse_qq(Mat.from_columns([m.col(j) for j in range(m.ncols)] + [b]))
            if x is None:
                assert b is not inside
                assert augmented.rank() > rank
            else:
                assert m @ x == b
