"""The package's value types: checked construction, read-only fields, equality, JSON.

Reports and pairs are plain records: a field cannot be reassigned, equal
values compare equal, and the reports' ``to_json`` forms are the ones the CLI
and the pinned digests print.  A space, a cochain, a structure, a
representation and a morphism show their type and sizes as ``repr``.
"""

import pytest

from homlie.brackets import GradedPair
from homlie.cochains import SkewCochain, TwistedSpace
from homlie.cohomology import CohomologyReport, ComplexSpec, cohomology
from homlie.deformations import MorphismDeformation, obstruction
from homlie.linalg import Mat
from homlie.operators import nijenhuis_report
from homlie.structures import (HomMorphism, RawHomStructure, bracket_action_on_abelian,
                               fixture_b, trivial_representation)
from homlie.theorems import (Failure, SuiteReport, VerificationReport, _stream,
                             sample_cochain, verify)

B = fixture_b()
SP = B.space


def _cochain(arity: int, label: str) -> SkewCochain:
    return sample_cochain(SP, SP, arity, _stream(3, "value-types", label))


FAILURE = Failure(1, "value mismatch", (1, 2), ("1", "-1/2", "0"), "0")
FAILURE_JSON = {"trial": 1, "detail": "value mismatch", "witness": [1, 2],
                "lhs": ["1", "-1/2", "0"], "rhs": "0"}
FAILING = VerificationReport("pre_lie", 2, (FAILURE, Failure(2, "no witness", None, "1", "2")))
FAILING_JSON = {"identity": "pre_lie", "trials": 2, "passed": False,
                "failures": [FAILURE_JSON, {"trial": 2, "detail": "no witness", "witness": None,
                                            "lhs": "1", "rhs": "2"}]}


def _instances():
    """One value of each type, with the names of its fields."""
    identity = Mat.identity(3)
    return {
        "CohomologyReport": (cohomology(ComplexSpec.adjoint(B), 2),
                             ("degree", "dim_cochains", "dim_cocycles", "dim_coboundaries")),
        "GradedPair": (GradedPair(_cochain(2, "P"), _cochain(1, "E")), ("upper", "lower")),
        "OperatorReport": (nijenhuis_report(B, identity), ("ok", "checks")),
        "MorphismDeformation": (MorphismDeformation(B, B, (identity,)),
                                ("source", "target", "terms")),
        "ObstructionClass": (obstruction(MorphismDeformation(B, B, (identity, Mat.zero(3, 3)))),
                             ("cocycle", "preimage")),
        "Failure": (FAILURE, ("trial", "detail", "witness", "lhs", "rhs")),
        "VerificationReport": (FAILING, ("identity", "trials", "failures")),
        "SuiteReport": (SuiteReport(7, 2, 3, (("B", (FAILING,)),)),
                        ("seed", "trials", "max_arity", "results")),
    }


@pytest.mark.parametrize("name", sorted(_instances()))
def test_fields_are_read_only(name):
    value, fields = _instances()[name]
    assert type(value).__name__ == name
    for field in fields:
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        assert getattr(value, field) is before


def test_graded_pair_arities_must_differ_by_one():
    P, E, T = _cochain(2, "P"), _cochain(1, "E"), SkewCochain.zero(SP, SP, 3)
    for upper, lower in ((P, P), (E, E), (T, E), (E, P)):
        with pytest.raises(ValueError, match="differ by exactly one"):
            GradedPair(upper, lower)


def test_morphism_deformation_needs_terms_of_the_map_shape():
    with pytest.raises(ValueError, match="order-0 term"):
        MorphismDeformation(B, B, ())
    for terms in ((Mat.identity(2),), (Mat.identity(3), Mat.zero(3, 2)),
                  (Mat.identity(3), Mat.zero(2, 3))):
        with pytest.raises(ValueError, match="term shape"):
            MorphismDeformation(B, B, terms)


def test_equal_values_compare_equal():
    P, E = _cochain(2, "P"), _cochain(1, "E")
    zero = SkewCochain.zero(SP, SP, 2)
    assert GradedPair(P, E) == GradedPair(P + zero, E.scale(1))
    assert GradedPair(P, E) != GradedPair(P, E.scale(2))
    assert GradedPair(P, E) != GradedPair(zero, E)
    report = cohomology(ComplexSpec.adjoint(B), 2)
    assert report == cohomology(ComplexSpec.adjoint(fixture_b()), 2)
    assert report == CohomologyReport(2, 4, 4, 3)
    assert report != CohomologyReport(2, 4, 4, 2)
    assert report.dim_h == 1
    identity = Mat.identity(3)
    assert MorphismDeformation(B, B, (identity,)) == MorphismDeformation(B, B, (Mat.identity(3),))
    assert MorphismDeformation(B, B, (identity,)) != MorphismDeformation(B, B, (Mat.zero(3, 3),))


def test_report_json_forms():
    assert cohomology(ComplexSpec.adjoint(B), 2).to_json() == {
        "degree": 2, "dim_cochains": 4, "dim_cocycles": 4, "dim_coboundaries": 3,
        "dim_cohomology": 1}
    assert FAILURE.to_json() == FAILURE_JSON
    assert FAILING.to_json() == FAILING_JSON
    passing = verify("mc_homlie", B, trials=2, seed=5)
    assert passing.to_json() == {"identity": "mc_homlie", "trials": 2, "passed": True,
                                 "failures": []}
    suite = SuiteReport(7, 2, 3, (("B", (passing, FAILING)), ("empty", ())))
    assert not suite.all_passed
    assert suite.to_json() == {
        "seed": 7, "trials": 2, "max_arity": 3, "all_passed": False,
        "fixtures": [{"fixture": "B", "reports": [passing.to_json(), FAILING_JSON]},
                     {"fixture": "empty", "reports": []}]}
    assert SuiteReport(7, 2, 3, (("B", (passing,)),)).to_json()["all_passed"] is True


def test_reprs_name_the_type_and_its_sizes():
    line = TwistedSpace.untwisted(2)
    assert repr(SP) == "TwistedSpace(dim=3)"
    assert repr(B.mu) == "SkewCochain(arity=2, nonzero=2)"
    assert repr(SkewCochain.zero(SP, line, 0)) == "SkewCochain(arity=0, nonzero=0)"
    assert repr(RawHomStructure(SP, B.mu)) == "RawHomStructure(dim=3)"
    assert repr(B) == "HomLieAlgebra(dim=3)"
    assert repr(trivial_representation(B, line)) == "Representation(algebra dim=3, module dim=2)"
    assert repr(bracket_action_on_abelian(B)) == "HomLieAction(algebra dim=3, module dim=3)"
    assert repr(HomMorphism(B, B, Mat.identity(3))) == "HomMorphism(3 -> 3)"
