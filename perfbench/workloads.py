"""Seeded inputs, operations and output checks of the benchmark workloads.

The generators run in the orchestrating process and hand the program only
files: operator matrices and CLI inputs are written through ``homlie.io``, so
the measured processes start with an empty compatibility-basis cache and see
nothing but the generated inputs.  Each workload keeps a fixed template of
operations (same kinds, algebras and sizes for every seed); the seed picks the
random cochains, operators, weights and the order, so the amount of work is
about the same from seed to seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

IDENTITY_TRIALS = 5
MAX_ARITY = 3
# The two relative-operator identities belong to operator_search.
SUITE_EXCLUDED = ("relative_consistency", "d_r_matches_induced")
LAMBDAS = ("0", "1", "-1", "1/2", "2")
LIGHT_REPEATS = 3


def stream(seed: int, *labels) -> random.Random:
    digest = hashlib.sha256("|".join(map(str, (seed, *labels))).encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# identity_suite: theorems.verify on every (fixture, identity) pair


def identity_suite_setup(inputs: dict):
    from homlie.theorems import default_fixtures
    return default_fixtures()


def identity_suite_ops(inputs: dict, fixtures):
    from homlie import theorems
    seed = inputs["seed"]
    tags = [t for t in theorems.IDENTITIES if t not in SUITE_EXCLUDED]
    ops = []
    for name, alg in fixtures:
        # verify's trial inputs depend on (seed, identity, trial) alone, so with one
        # seed every fixture would draw the same cochain arities and the op costs
        # of a seed would swing together; each fixture gets its own seed instead.
        fseed = stream(seed, "suite", name).getrandbits(32)
        for tag in tags:
            # look verify up at call time so a traced pass sees the wrapper
            ops.append((f"{name}/{tag}",
                        lambda tag=tag, alg=alg, fseed=fseed: theorems.verify(
                            tag, alg, trials=IDENTITY_TRIALS, seed=fseed, max_arity=MAX_ARITY)))
    return ops


def identity_suite_check(inputs: dict, fixtures, names, results):
    """Per-op verdicts plus the digest of the assembled suite report."""
    from homlie import io as hio
    from homlie.theorems import SuiteReport
    ok = [not isinstance(r, Exception) and r.passed for r in results]
    problems = [f"{n}: {r!r}" for n, r in zip(names, results) if isinstance(r, Exception)]
    if problems:
        return ok, problems, ""
    per = len(results) // len(fixtures)
    suite = SuiteReport(inputs["seed"], IDENTITY_TRIALS, MAX_ARITY, tuple(
        (name, tuple(results[k * per:(k + 1) * per])) for k, (name, _) in enumerate(fixtures)))
    if not suite.all_passed:
        problems.append("suite report: not all identities passed")
    return ok, problems, sha256_text(hio.dumps(suite.to_json()))


# ---------------------------------------------------------------------------
# operator_search: grid searches, relative-operator contexts and verdicts

# Searches run on the {0, 1} grid, one op per (kind, fixture), so that a pass
# takes seconds and no single op dominates it.  yau-shear's commutant is not
# entry-aligned, so its searches enumerate and twist-filter the full grid; the
# other fixtures' are aligned.  d_r_matches_induced builds the relative context
# (two relative searches with the graph criterion, then induced_structures);
# it runs on the 3-dim fixtures, whose contexts take under a second.
FIXTURES = ("abelian-dim2", "threedim-multiplicative", "yau-sl2", "yau-heisenberg",
            "yau-shear", "yau-dim4")
SEARCHES = (tuple((kind, name) for name in FIXTURES
                  for kind in ("search_nijenhuis", "search_rota_baxter"))
            + tuple(("verify_relative", name)
                    for name in ("threedim-multiplicative", "yau-sl2", "yau-heisenberg")))
SEARCH_GRID = (0, 1)


def operator_search_inputs(seed: int) -> dict:
    """The pass's op list: searches at fixed slots between seeded operator verdicts."""
    from fractions import Fraction
    from homlie import io as hio
    from homlie.cochains import cochain_matrix
    from homlie.linalg import Mat
    from homlie.theorems import default_fixtures, sample_cochain
    verdicts = []
    for name, alg in default_fixtures():
        for kind in ("nijenhuis", "rota_baxter", "relative_rb"):
            for k in range(LIGHT_REPEATS):
                rng = stream(seed, "operator", name, kind, k)
                lam = rng.choice(LAMBDAS)
                if k == 0:
                    # c I is Nijenhuis and -lam I is Rota-Baxter of weight lam for
                    # every algebra; the relative verdict is not known beforehand.
                    # A fixed share of scalar operators keeps the cost mix, and so
                    # the op latency median, the same from seed to seed.
                    c = (Fraction(rng.choice((-2, -1, 1, 2, 3))) if kind == "nijenhuis"
                         else -Fraction(lam))
                    m = Mat.identity(alg.dim).scale(c)
                    expect = True if kind != "relative_rb" else None
                else:
                    m = cochain_matrix(sample_cochain(alg.space, alg.space, 1, rng))
                    expect = None
                verdicts.append({"kind": kind, "fixture": name, "lam": lam,
                                 "op": hio.matrix_to_json(m), "expect": expect})
    rng = stream(seed, "operator", "order")
    rng.shuffle(verdicts)
    step = len(verdicts) // len(SEARCHES)
    items = []
    for k, (kind, name) in enumerate(SEARCHES):
        items.append({"kind": kind, "fixture": name, "lam": rng.choice(LAMBDAS)})
        items.extend(verdicts[k * step:(k + 1) * step])
    items.extend(verdicts[len(SEARCHES) * step:])
    return {"seed": seed, "items": items}


def operator_search_setup(inputs: dict):
    from homlie import io as hio
    from homlie.structures import bracket_action_on_abelian
    from homlie.theorems import default_fixtures
    fixtures = dict(default_fixtures())
    actions = {name: bracket_action_on_abelian(alg) for name, alg in fixtures.items()}
    items = [dict(item, op=hio.matrix_from_json(item["op"], "operator")) if "op" in item else item
             for item in inputs["items"]]
    return fixtures, actions, items


def operator_search_ops(inputs: dict, state):
    from homlie import operators, theorems
    fixtures, actions, items = state
    seed = inputs["seed"]
    calls = {
        "search_nijenhuis": lambda alg, it: operators.search_nijenhuis(alg, SEARCH_GRID),
        "search_rota_baxter": lambda alg, it: operators.search_rota_baxter(
            alg, it["lam"], SEARCH_GRID),
        "verify_relative": lambda alg, it: theorems.verify(
            "d_r_matches_induced", alg, trials=IDENTITY_TRIALS, seed=seed, max_arity=MAX_ARITY),
        "nijenhuis": lambda alg, it: operators.is_nijenhuis(alg, it["op"]),
        "rota_baxter": lambda alg, it: operators.is_rota_baxter(alg, it["op"], it["lam"]),
        "relative_rb": lambda alg, it: operators.is_relative_rb(
            actions[it["fixture"]], it["op"], it["lam"]),
    }
    return [(f"{it['kind']}/{it['fixture']}",
             lambda it=it: calls[it["kind"]](fixtures[it["fixture"]], it)) for it in items]


def operator_search_check(inputs: dict, state, names, results):
    """Found operators must pass the pointwise check again; verdicts must match it."""
    from homlie import io as hio
    from homlie import operators
    fixtures, actions, items = state
    ok, problems, canon = [], [], []
    for name, it, result in zip(names, items, results):
        if isinstance(result, Exception):
            ok.append(False)
            problems.append(f"{name}: {type(result).__name__}: {result}")
            continue
        alg, kind = fixtures[it["fixture"]], it["kind"]
        if kind == "search_nijenhuis":
            good = bool(result) and all(operators.nijenhuis_defect(alg, m) is None for m in result)
            canon.append([hio.matrix_to_json(m) for m in result])
        elif kind == "search_rota_baxter":
            good = bool(result) and all(operators.rota_baxter_defect(alg, m, it["lam"]) is None
                                        for m in result)
            canon.append([hio.matrix_to_json(m) for m in result])
        elif kind == "verify_relative":
            good = result.passed
            canon.append(result.to_json())
        else:
            if kind == "nijenhuis":
                pointwise = operators.nijenhuis_defect(alg, it["op"]) is None
            elif kind == "rota_baxter":
                pointwise = operators.rota_baxter_defect(alg, it["op"], it["lam"]) is None
            else:
                pointwise = operators.relative_rb_pointwise(actions[it["fixture"]], it["op"],
                                                            it["lam"])
            good = result == pointwise and (it["expect"] is None or result == it["expect"])
            canon.append(result)
        ok.append(good)
        if not good:
            problems.append(f"{name}: output check failed")
    return ok, problems, sha256_text(hio.dumps(canon))


# ---------------------------------------------------------------------------
# cli_session: one fresh ``homlie.cli`` process per command

# 3-dim fixtures whose weighted semidirect product with their abelianized copy
# gives the session's 6-dim algebras.
SEMIDIRECT = ("yau-sl2", "threedim-multiplicative")
DEFORM_ORDER = 3

def cli_session_setup(inputs: dict | None = None):
    """The algebras a session works on: the fixtures plus 6-dim semidirect products."""
    from homlie.structures import bracket_action_on_abelian, semidirect_weight
    from homlie.theorems import default_fixtures
    fixtures = dict(default_fixtures())
    lams = (inputs or {}).get("lambdas", {})
    big = {}
    for name in SEMIDIRECT:
        big[f"sd-{name}"] = semidirect_weight(bracket_action_on_abelian(fixtures[name]),
                                              lams.get(name, "1"))
    return fixtures, big


def _write(directory: str, name: str, text: str) -> str:
    with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
        fh.write(text)
    return name


def _deform_input(alg, rng):
    """A valid order-1 deformation of the identity morphism, from a seeded nonzero 1-cocycle."""
    from homlie.cochains import SkewCochain, cochain_matrix
    from homlie.cohomology import ComplexSpec
    from homlie.deformations import MorphismDeformation, check_order_deformation
    from homlie.linalg import Mat, kernel_basis
    from homlie.structures import HomMorphism
    base = Mat.identity(alg.dim)
    spec = ComplexSpec.morphism(HomMorphism(alg, alg, base))
    basis = spec.basis(1)
    cocycles = kernel_basis(spec.matrix(1)) if basis else []
    for _ in range(20):
        term = SkewCochain.zero(alg.space, alg.space, 1)
        for k in cocycles:
            c = rng.choice((-2, -1, 1, 2))
            for b, coeff in zip(basis, k.entries):
                term = term + b.scale(coeff * c)
        if term.is_zero():
            continue
        term = cochain_matrix(term)
        if check_order_deformation(MorphismDeformation(alg, alg, (base, term))):
            return base, term
    return base, Mat.zero(alg.dim, alg.dim)


def cli_session_inputs(seed: int, directory: str) -> dict:
    """Write the session's input files and return its command list.

    Returns {"commands": [{"argv": [...], "expect": code, "check": {...} | None}],
    ...}; argv names files relative to ``directory``, where the commands run.
    Every command's exit code is known beforehand: check verdicts are worked
    out here by another route than the one the CLI takes (pointwise defects,
    the Maurer-Cartan equation), the deformation's by extending it in-process;
    the other commands must exit 0.
    """
    from fractions import Fraction
    from homlie import io as hio
    from homlie.brackets import nr_bracket
    from homlie.cochains import TwistedSpace, cochain_matrix
    from homlie.deformations import MorphismDeformation, extend
    from homlie.linalg import Mat
    from homlie.operators import (mc_residual, nijenhuis_defect, relative_rb_pointwise,
                                  rota_baxter_defect)
    from homlie.structures import (adjoint_representation, bracket_action_on_abelian,
                                   check_multiplicative, fixture_3dim, fixture_jackson_sl2,
                                   trivial_representation)
    from homlie.theorems import sample_cochain
    rng = stream(seed, "cli")
    lambdas = {name: rng.choice(LAMBDAS) for name in SEMIDIRECT}
    fixtures, big = cli_session_setup({"lambdas": lambdas})
    algebras = dict(fixtures, **big)
    files = {name: _write(directory, f"alg-{name}.json", hio.dumps(hio.structure_to_json(alg)))
             for name, alg in algebras.items()}
    commands = []

    def add(argv, check=None, verdict=True):
        commands.append({"argv": argv, "expect": 0 if verdict else 1, "check": check})

    # check structure: valid algebras, plus raw structures (Jacobi by [mu, mu] = 0)
    for name in ("yau-dim4", "sd-yau-sl2"):
        add(["check", "structure", files[name], "--json"])
    raw = {"jackson": fixture_jackson_sl2(rng.choice(("2", "3", "1/2", "-1"))),
           "threedim": fixture_3dim(rng.randint(1, 3), rng.randint(-2, 2),
                                    rng.randint(-2, 2), rng.randint(1, 3))}
    for name, s in raw.items():
        add(["check", "structure", _write(directory, f"raw-{name}.json",
                                          hio.dumps(hio.structure_to_json(s))), "--json"],
            verdict=nr_bracket(s.mu, s.mu).is_zero() and check_multiplicative(s))

    # operator verdicts on random twist-compatible operators (and a true scalar one)
    for k, (name, tname) in enumerate((("threedim-multiplicative", "yau-sl2"),
                                       ("yau-shear", "yau-heisenberg"))):
        alg, target = algebras[name], algebras[tname]
        lam = rng.choice(LAMBDAS)
        for kind in ("nijenhuis", "rotabaxter", "relative-rb"):
            if kind == "rotabaxter" and k == 0:
                m = Mat.identity(alg.dim).scale(-Fraction(lam))
            else:
                m = cochain_matrix(sample_cochain(alg.space, alg.space, 1, rng))
            if kind == "nijenhuis":
                verdict = nijenhuis_defect(alg, m) is None
            elif kind == "rotabaxter":
                verdict = rota_baxter_defect(alg, m, lam) is None
            else:
                verdict = relative_rb_pointwise(bracket_action_on_abelian(alg), m, lam)
            op = _write(directory, f"op-{kind}-{k}.json", hio.dumps(hio.matrix_to_json(m)))
            argv = ["check", kind, "--algebra", files[name], "--op", op, "--json"]
            if kind == "relative-rb":
                act = hio.dumps(hio.action_to_json(bracket_action_on_abelian(alg)))
                argv[4:4] = ["--action", _write(directory, f"act-{k}.json", act)]
            if kind != "nijenhuis":
                argv[-1:-1] = ["--weight", lam]
            add(argv, verdict=verdict)
        # a twist-compatible map is a morphism iff it solves the Maurer-Cartan equation
        phi = sample_cochain(alg.space, target.space, 1, rng)
        m = cochain_matrix(phi)
        add(["check", "morphism", "--algebra", files[name], "--target", files[tname], "--map",
             _write(directory, f"map-{k}.json", hio.dumps(hio.matrix_to_json(m))), "--json"],
            verdict=mc_residual(phi, "morphism", target=target, alg=alg).is_zero())

    # graded brackets of random compatible cochains
    for k, (kind, name) in enumerate((("nr", "yau-dim4"), ("cup", "yau-shear"),
                                      ("fn", "threedim-multiplicative"), ("derived", "yau-sl2"))):
        alg = algebras[name]
        p, q = (hio.dumps(hio.cochain_to_json(sample_cochain(alg.space, alg.space,
                                                             rng.randint(1, 2), rng)))
                for _ in range(2))
        add(["bracket", "--kind", kind, "--algebra", files[name],
             "--p", _write(directory, f"p-{k}.json", p), "--q", _write(directory, f"q-{k}.json", q)])

    # cohomology with every coefficient kind at degrees 1-3
    def cohomology(name, coeff, degree, lam=None, spec=None):
        argv = ["cohomology", "--algebra", files[name], "--coefficients", coeff,
                "--degree", str(degree), "--json"]
        if lam is not None:
            argv[-1:-1] = ["--lambda", lam]
        add(argv, {"kind": "cohomology", "algebra": name, "coefficients": spec or coeff,
                   "degree": degree, "lambda": lam})

    cohomology("yau-sl2", "adjoint", 1)  # d1 o d0 != 0 here (a known open defect)
    cohomology("yau-dim4", "adjoint", 2)
    cohomology("yau-heisenberg", "adjoint", 3)
    cohomology("yau-shear", "trivial", 2, lam=rng.choice(LAMBDAS))
    cohomology("threedim-multiplicative", "trivial", 3, lam=rng.choice(LAMBDAS))
    for k, name in enumerate(("yau-heisenberg", "yau-sl2")):
        alg = algebras[name]
        if k == 0:
            rep, desc = adjoint_representation(alg), {"kind": "adjoint"}
        else:
            twist = Mat.diagonal([rng.choice((1, 2, 3)) for _ in range(2)])
            rep, desc = trivial_representation(alg, TwistedSpace(twist)), {
                "kind": "trivial", "beta": hio.matrix_to_json(twist)}
        path = _write(directory, f"rep-{k}.json", hio.dumps(hio.representation_to_json(rep)))
        cohomology(name, f"rep:{path}", 1 + k, spec=dict(desc, kind="rep:" + desc["kind"]))
    for k, name in enumerate(("threedim-multiplicative", "yau-shear")):
        alg = algebras[name]
        choice = rng.choice(("identity", "twist", "zero"))
        m = _morphism_map(alg, choice)
        path = _write(directory, f"morph-{k}.json", hio.dumps(
            {"target": hio.structure_to_json(alg), "map": hio.matrix_to_json(m)}))
        cohomology(name, f"morphism:{path}", 1 + k, spec={"kind": "morphism", "map": choice})
    # the 6-dim products: larger row reductions, Mat @ Vec on 6-dim twists
    cohomology("sd-yau-sl2", "adjoint", 2)
    cohomology("sd-threedim-multiplicative", "adjoint", 1)

    # order-by-order extension of a seeded first-order deformation
    alg = algebras["yau-heisenberg"]
    base, term = _deform_input(alg, rng)
    deformation = MorphismDeformation(alg, alg, (base, term))
    while deformation is not None and deformation.order < DEFORM_ORDER:
        deformation = extend(deformation)
    add(["deform", "extend", "--algebra", files["yau-heisenberg"],
         "--target", files["yau-heisenberg"],
         "--morphism", _write(directory, "phi.json", hio.dumps(hio.matrix_to_json(base))),
         "--terms", _write(directory, "terms.json", hio.dumps([hio.matrix_to_json(term)])),
         "--to-order", str(DEFORM_ORDER), "--json"],
        {"kind": "deformation", "algebra": "yau-heisenberg"}, verdict=deformation is not None)

    rng.shuffle(commands)
    return {"seed": seed, "lambdas": lambdas, "commands": commands}


def cli_session_check(inputs: dict, outputs: list) -> tuple[list[bool], list[str]]:
    """Per-command verdicts and problems for one pass's [(exit code, stdout)].

    Every exit code must be the expected one; cohomology reports must equal
    the dimensions from sympy ranks; printed deformation terms must form a
    valid deformation of the order they claim.
    """
    from homlie import io as hio
    from homlie.deformations import MorphismDeformation, deformation_witness
    ok, problems = [], []
    cohomology = [(k, cmd["check"]) for k, (cmd, (code, _)) in
                  enumerate(zip(inputs["commands"], outputs))
                  if code == 0 and (cmd["check"] or {}).get("kind") == "cohomology"]
    dims = dict(zip((k for k, _ in cohomology),
                    cli_expected_dims(inputs, [check for _, check in cohomology])))
    fixtures = None
    for k, (cmd, (code, text)) in enumerate(zip(inputs["commands"], outputs)):
        label = " ".join(cmd["argv"][:2])
        if code != cmd["expect"]:
            ok.append(False)
            problems.append(f"{label}: exit {code}, expected {cmd['expect']}")
            continue
        try:
            got = json.loads(text) if cmd["check"] else None
        except ValueError:
            got = None
        good = True
        if k in dims:
            good = got == dims[k]
            if not good:
                problems.append(f"cohomology {cmd['check']}: printed {text.strip()!r},"
                                f" sympy ranks give {dims[k]}")
        elif cmd["check"] is not None:
            if fixtures is None:
                fixtures = dict(cli_session_setup(inputs)[0])
            alg = fixtures[cmd["check"]["algebra"]]
            try:
                d = MorphismDeformation(alg, alg, tuple(hio.matrix_from_json(t, "term")
                                                        for t in got["terms"]))
                good = (deformation_witness(d) is None and d.order == got["reached_order"]
                        and (d.order >= DEFORM_ORDER) == (code == 0))
            except (TypeError, KeyError, ValueError):
                good = False
            if not good:
                problems.append(f"{label}: printed terms are not a deformation of the"
                                f" order claimed: {text.strip()[:500]!r}")
        ok.append(good)
    return ok, problems


def cli_expected_dims(inputs: dict, checks: list[dict]) -> list[dict]:
    """Cohomology dimensions from sympy ranks over QQ of ``ComplexSpec.matrix``."""
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix
    from homlie import io as hio
    from homlie.cochains import TwistedSpace
    from homlie.cohomology import ComplexSpec
    from homlie.linalg import rat
    from homlie.structures import HomMorphism, adjoint_representation, trivial_representation
    fixtures, big = cli_session_setup(inputs)
    algebras = dict(fixtures, **big)

    def spec_of(check):
        alg = algebras[check["algebra"]]
        coeff = check["coefficients"]
        if coeff == "adjoint":
            return ComplexSpec.adjoint(alg)
        if coeff == "trivial":
            return ComplexSpec.scaled_trivial(alg, rat(check["lambda"]))
        if coeff["kind"] == "rep:adjoint":
            return ComplexSpec.hom_rep(adjoint_representation(alg))
        if coeff["kind"] == "rep:trivial":
            module = TwistedSpace(hio.matrix_from_json(coeff["beta"]))
            return ComplexSpec.hom_rep(trivial_representation(alg, module))
        return ComplexSpec.morphism(HomMorphism(alg, alg, _morphism_map(alg, coeff["map"])))

    def rank(spec, degree):
        m = spec.matrix(degree)
        if m.nrows == 0 or m.ncols == 0:
            return 0
        return DomainMatrix([[QQ(e.numerator, e.denominator) for e in row] for row in m.rows],
                            (m.nrows, m.ncols), QQ).rank()

    out = []
    for check in checks:
        spec, degree = spec_of(check), check["degree"]
        n = spec.dim_cochains(degree)
        cocycles = n - rank(spec, degree)
        coboundaries = 0 if degree == spec.lowest_degree else rank(spec, degree - 1)
        out.append({"degree": degree, "dim_cochains": n, "dim_cocycles": cocycles,
                    "dim_coboundaries": coboundaries, "dim_cohomology": cocycles - coboundaries})
    return out


def _morphism_map(alg, choice: str):
    """Maps that are morphisms of every multiplicative Hom-Lie algebra to itself."""
    from homlie.linalg import Mat
    return {"identity": Mat.identity(alg.dim), "twist": alg.alpha,
            "zero": Mat.zero(alg.dim, alg.dim)}[choice]
