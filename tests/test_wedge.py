"""The wedge table against the ``evaluate`` route, and ``evaluate`` kept out of production.

``ref_failures`` and ``ref_basis`` are the twist-compatibility check and the
compatibility basis as they were built before the wedge table: both sides of
beta o f = f o alpha^(wedge n) per key, the right side by ``evaluate`` on the
twisted basis vectors, and the basis as the kernel of the defect of every
unit cochain.  The wedge table itself must give, for
alpha^0, alpha and alpha^2, the coefficients ``evaluate`` finds with unit
cochains, and the wedge route must give the same failures (keys, both sides,
order) on raw cochains and the same basis, list for list, on every arity from
0 to the dimension: on the default fixtures, on a 6-dimensional semidirect
product with a non-diagonal twist, on a singular nilpotent twist, on a
diagonal twist with a non-integer entry, on a twist that reorders the basis
(so the wedge carries sort signs) and on module twists unlike the algebra's.

The last test makes ``evaluate`` raise and runs the production paths that
used to reach it: it is now an oracle only.
"""

import json
import random
import sys
from fractions import Fraction
from itertools import combinations

import pytest

from homlie import cli
from homlie import io as hio
from homlie.brackets import cup_bracket, derived_bracket, fn_bracket, nr_bracket
from homlie.cochains import (SkewCochain, TwistedSpace, _wedge, compatibility_basis,
                             compatibility_failures, evaluate, flatten_cochain)
from homlie.cohomology import ComplexSpec, cohomology
from homlie.differentials import delta_hom
from homlie.linalg import Mat, Vec, kernel_basis
from homlie.operators import search_nijenhuis
from homlie.structures import (adjoint_representation, bracket_action_on_abelian,
                               fixture_jackson_sl2, semidirect_weight)
from homlie.theorems import default_fixtures, sample_cochain


def ref_failures(f: SkewCochain):
    beta, twisted = f.codomain.alpha, f.domain.twisted_basis(1)
    failures = []
    for key in combinations(range(f.domain.dim), f.arity):
        lhs = beta @ f.value_on(key)
        rhs = evaluate(f, [twisted[i] for i in key])
        if lhs != rhs:
            failures.append((key, lhs, rhs))
    return failures


def ref_basis(domain: TwistedSpace, codomain: TwistedSpace, arity: int):
    keys = list(combinations(range(domain.dim), arity))
    if not keys:
        return []
    columns = []
    for key in keys:
        for c in range(codomain.dim):
            unit = SkewCochain(domain, codomain, arity, {key: codomain.basis[c]})
            defect = {k: lhs - rhs for k, lhs, rhs in ref_failures(unit)}
            columns.append(flatten_cochain(SkewCochain(domain, codomain, arity, defect), keys))
    d = codomain.dim
    return [SkewCochain(domain, codomain, arity,
                        {key: Vec(v.entries[j * d:(j + 1) * d]) for j, key in enumerate(keys)})
            for v in kernel_basis(Mat.from_columns(columns))]


def _raw(domain: TwistedSpace, codomain: TwistedSpace, arity: int, rng) -> SkewCochain:
    """A cochain with small rational values on about half of the keys, compatible or not."""
    return SkewCochain(domain, codomain, arity, {
        key: Vec([Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))
                  for _ in range(codomain.dim)])
        for key in combinations(range(domain.dim), arity) if rng.random() < 0.5})


NILPOTENT = TwistedSpace(Mat([[0, 1, 0], [0, 0, 1], [0, 0, 0]]))
DIAGONAL = TwistedSpace(Mat.diagonal([2, 1, Fraction(1, 3)]))
JORDAN = TwistedSpace(Mat([[1, 1], [0, 1]]))
SWAP = TwistedSpace(Mat([[0, 1, 0], [1, 0, 0], [0, 0, -1]]))  # sort signs and a negative entry


def _pairs():
    for name, alg in default_fixtures():
        yield name, alg.space, alg.space
    shear = dict(default_fixtures())["yau-shear"]
    semidirect = semidirect_weight(bracket_action_on_abelian(shear), 1)
    yield "semidirect-yau-shear", semidirect.space, semidirect.space
    yield "nilpotent", NILPOTENT, NILPOTENT
    yield "diag(2,1,1/3)", DIAGONAL, DIAGONAL
    yield "diagonal-to-nilpotent", DIAGONAL, NILPOTENT
    yield "nilpotent-to-jordan", NILPOTENT, JORDAN
    yield "yau-shear-to-diagonal", shear.space, DIAGONAL
    yield "swap", SWAP, SWAP
    yield "swap-to-jordan", SWAP, JORDAN


PAIRS = list(_pairs())


@pytest.mark.parametrize("name,domain,codomain", PAIRS, ids=[p[0] for p in PAIRS])
def test_wedge_table_matches_evaluate_on_unit_cochains(name, domain, codomain):
    scalars = TwistedSpace.untwisted(1)
    for k in range(3):
        twisted = [domain.twist_power(k) @ b for b in domain.basis]
        for n in range(domain.dim + 1):
            table, den = _wedge(domain, k, n)
            keys = list(combinations(range(domain.dim), n))
            assert list(table) == keys
            for key in keys:
                got = dict(table[key])
                for out in keys:  # the e_out coefficient of the wedge of the twisted e_key
                    unit = SkewCochain(domain, scalars, n, {out: Vec([1])})
                    value = evaluate(unit, [twisted[i] for i in key])[0]
                    assert value == Fraction(got.get(out, 0), den)


@pytest.mark.parametrize("name,domain,codomain", PAIRS, ids=[p[0] for p in PAIRS])
def test_compatibility_basis_matches_the_evaluate_defect(name, domain, codomain):
    sizes = []
    for arity in range(domain.dim + 1):
        got = compatibility_basis(domain, codomain, arity)
        assert got == ref_basis(domain, codomain, arity)
        sizes.append(len(got))
    if name == "semidirect-yau-shear":
        assert any(x for i, row in enumerate(domain.alpha.num) for j, x in enumerate(row)
                   if i != j)  # the twist is not diagonal
        assert sizes == [4, 20, 46, 60, 46, 20, 4]


@pytest.mark.parametrize("name,domain,codomain", PAIRS, ids=[p[0] for p in PAIRS])
def test_compatibility_failures_match_the_evaluate_route(name, domain, codomain):
    rng = random.Random(f"wedge|{name}")
    failing = 0
    for arity in range(domain.dim + 1):
        for _ in range(3):
            f = _raw(domain, codomain, arity, rng)
            got = compatibility_failures(f)
            assert got == ref_failures(f)
            failing += bool(got)
        for b in compatibility_basis(domain, codomain, arity):
            assert compatibility_failures(b) == []
    identity = Mat.identity(domain.dim), Mat.identity(codomain.dim)
    assert failing or (domain.alpha, codomain.alpha) == identity  # where failures can occur


def test_production_paths_never_call_evaluate(monkeypatch, tmp_path, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("evaluate ran outside an oracle")

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("homlie") and \
                getattr(module, "evaluate", None) is evaluate:
            monkeypatch.setattr(module, "evaluate", refuse)
    rng = random.Random(0)
    fixtures = default_fixtures()
    for _, alg in fixtures:
        for arity in range(alg.dim + 1):
            compatibility_basis(alg.space, alg.space, arity)
        P = sample_cochain(alg.space, alg.space, 1, rng)
        Q = sample_cochain(alg.space, alg.space, 2, rng)
        nr_bracket(P, Q), cup_bracket(P, Q, alg), fn_bracket(alg, P, Q)
        derived_bracket(alg, P, Q), delta_hom(adjoint_representation(alg), Q)
    alg = dict(fixtures)["threedim-multiplicative"]
    assert cohomology(ComplexSpec.adjoint(alg), 2).dim_cochains
    assert search_nijenhuis(alg, (0, 1))
    path = tmp_path / "jackson.json"
    path.write_text(json.dumps(hio.structure_to_json(fixture_jackson_sl2(2))))
    assert cli.main(["check", "structure", str(path), "--json"]) == 1  # q = 2 is not multiplicative
    assert json.loads(capsys.readouterr().out)["multiplicativity_failures"]


def test_compatibility_failures_match_the_evaluate_route_at_scale():
    # the semidirect products of the default fixtures, L8-L12 and a singular twist, valid and
    # planted: multiplicativity is compatibility of the bracket
    from homlie.cochains import compatibility_witness
    from test_structures import SCALE, planted_brackets
    rng, failing = random.Random(59), set()
    for name, s in SCALE:
        assert compatibility_failures(s.mu) == [] == ref_failures(s.mu), name
        for raw in planted_brackets(s, rng, 2):
            got = compatibility_failures(raw.mu)
            assert got == ref_failures(raw.mu), name
            assert compatibility_witness(raw.mu) == (got[0] if got else None)
            if got:
                failing.add(name.split("-")[0] if name.startswith("L") else "semidirect")
                failing.add("denominators differ" if raw.alpha.den > 1 else "integer twist")
    assert failing >= {"semidirect", "L8", "L12", "denominators differ", "integer twist"}
