import pytest

from homlie import io as hio
from homlie.cli import main
from homlie.linalg import Mat, kernel_basis
from homlie.cochains import SkewCochain, cochain_matrix, flatten_cochain
from homlie.structures import (HomMorphism, fixture_b, fixture_yau_dim4, fixture_yau_heisenberg,
                               fixture_yau_sl2)
from homlie.cohomology import ComplexSpec, cohomology
from homlie.deformations import (MorphismDeformation, check_order_deformation,
                                 deformation_witness, extend, obstruction)


def _cocycles(spec, degree):
    basis = spec.basis(degree)
    columns = [flatten_cochain(spec.differential(b)) for b in basis]
    kern = kernel_basis(Mat.from_columns(columns))
    out = []
    for k in kern:
        total = SkewCochain.zero(spec.domain, spec.codomain, degree)
        for b, c in zip(basis, k.entries):
            total = total + b.scale(c)
        out.append(total)
    return out


def test_order_zero_deformation_is_a_morphism_check():
    B = fixture_b()
    assert check_order_deformation(MorphismDeformation(B, B, (Mat.identity(3),)))
    assert check_order_deformation(MorphismDeformation(B, B, (Mat.zero(3, 3),)))
    assert not check_order_deformation(
        MorphismDeformation(B, B, (Mat.diagonal([2, 1, 1]),)))


def test_order_one_needs_a_cocycle_term():
    B = fixture_b()
    spec = ComplexSpec.morphism(HomMorphism(B, B, Mat.identity(3)))
    cocycles = [c for c in _cocycles(spec, 1) if not c.is_zero()]
    assert cocycles
    phi1 = cochain_matrix(cocycles[0])
    good = MorphismDeformation(B, B, (Mat.identity(3), phi1))
    assert check_order_deformation(good)
    # corrupting one coefficient breaks an order equation with a witness
    corrupt = [list(r) for r in phi1.rows]
    corrupt[0][1] += 1
    bad = MorphismDeformation(B, B, (Mat.identity(3), Mat.make(corrupt)))
    w = deformation_witness(bad)
    assert w is not None and w[1] == 1


def test_obstruction_vanishing_and_closedness():
    B = fixture_b()
    d0 = MorphismDeformation(B, B, (Mat.identity(3), Mat.zero(3, 3)))
    ob = obstruction(d0)
    assert ob.cocycle.is_zero() and ob.is_coboundary
    spec = ComplexSpec.morphism(HomMorphism(B, B, Mat.identity(3)))
    for c in _cocycles(spec, 1):
        d = MorphismDeformation(B, B, (Mat.identity(3), cochain_matrix(c)))
        ob = obstruction(d)
        assert spec.differential(ob.cocycle).is_zero()


def test_obstruction_requires_valid_deformation():
    B = fixture_b()
    bad = MorphismDeformation(B, B, (Mat.identity(3), Mat.identity(3)))
    if check_order_deformation(bad):
        pytest.skip("identity term happens to satisfy the order-1 equation")
    with pytest.raises(ValueError):
        obstruction(bad)


def test_zero_terms_extend_forever():
    B = fixture_b()
    d = MorphismDeformation(B, B, (Mat.identity(3), Mat.zero(3, 3)))
    for _ in range(4):
        d = extend(d)
        assert d is not None and check_order_deformation(d)
    assert d.order == 5


def test_extension_with_vanishing_second_cohomology():
    # identity morphism on the twisted sl2 fixture: nonzero obstructions occur
    # and extension succeeds at every order because the degree-2 cohomology
    # of the twisted complex vanishes.
    A = fixture_yau_sl2()
    phi = Mat.identity(3)
    spec = ComplexSpec.morphism(HomMorphism(A, A, phi))
    assert cohomology(spec, 2).dim_h == 0
    cocycles = [c for c in _cocycles(spec, 1) if not c.is_zero()]
    assert cocycles
    saw_nonzero_obstruction = False
    for c in cocycles:
        d = MorphismDeformation(A, A, (phi, cochain_matrix(c)))
        assert check_order_deformation(d)
        while d.order < 4:
            ob = obstruction(d)
            saw_nonzero_obstruction |= not ob.cocycle.is_zero()
            assert ob.is_coboundary
            d = extend(d)
            assert d is not None and check_order_deformation(d)
        assert d.order == 4
    assert saw_nonzero_obstruction


def test_extension_roundtrip_revalidates():
    A = fixture_yau_heisenberg()
    phi = Mat.identity(3)
    spec = ComplexSpec.morphism(HomMorphism(A, A, phi))
    for c in _cocycles(spec, 1):
        d = MorphismDeformation(A, A, (phi, cochain_matrix(c)))
        ext = extend(d)
        if ext is None:
            continue
        assert ext.order == 2
        assert check_order_deformation(ext)
        # the new term solves the next-order equation exactly
        ob = obstruction(d)
        new_term = ext.terms[-1]
        got = spec.differential(ext.term_cochain(2))
        assert got == ob.cocycle


def test_a_deformation_given_a_list_of_terms_stores_a_tuple():
    B = fixture_b()
    listed = MorphismDeformation(B, B, [Mat.identity(3)])
    assert listed.terms == (Mat.identity(3),)
    assert listed == MorphismDeformation(B, B, (Mat.identity(3),))
    extended = extend(listed)
    assert extended is not None and extended.order == 1 and check_order_deformation(extended)


def _obstructed_yau_dim4():
    """yau-dim4 with phi = E11 (the matrix unit at (1, 1)) and the direction diag(1, 1, 0, 0)."""
    phi = Mat.make([[int(i == j == 0) for j in range(4)] for i in range(4)])
    return fixture_yau_dim4(), phi, Mat.diagonal([1, 1, 0, 0])


def test_an_obstructed_direction_does_not_extend():
    alg, phi, direction = _obstructed_yau_dim4()
    d = MorphismDeformation(alg, alg, (phi, direction))
    assert check_order_deformation(d)
    ob = obstruction(d)
    assert not ob.cocycle.is_zero() and not ob.is_coboundary
    assert extend(d) is None


def test_cli_deform_extend_reports_the_obstructed_order(tmp_path, capsys):
    alg, phi, direction = _obstructed_yau_dim4()
    files = {}
    for name, blob in (("alg", hio.structure_to_json(alg)), ("phi", hio.matrix_to_json(phi)),
                       ("terms", [hio.matrix_to_json(direction)])):
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(hio.dumps(blob))
    assert main(["deform", "extend", "--algebra", str(files["alg"]), "--target", str(files["alg"]),
                 "--morphism", str(files["phi"]), "--terms", str(files["terms"]),
                 "--to-order", "3"]) == 1
    assert capsys.readouterr().out.splitlines() == ["order 1 -> 2: obstructed",
                                                    "reached order 1 of 3"]
