"""Command-line front end.

Exit codes: 0 success or true verdict, 1 false verdict, 2 input or usage
error, 3 internal consistency failure (dual criteria disagreeing, or a
deformation failing its own re-validation).  Any path argument accepts "-"
for stdin.  All numeric output is rendered as canonical rational strings,
never decimals.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import io as hio
from .io import ParseError
from .linalg import Mat, rat_str
from .structures import ConsistencyError

# Each command imports the modules it runs, so that a process compiles and
# loads only those.


def _read_json(path: str):
    try:
        if path == "-":
            return json.loads(sys.stdin.read())
        with open(path, "r", encoding="utf-8") as fh:
            return json.loads(fh.read())
    except ValueError as exc:  # not UTF-8, a syntax error, or an integer of too many digits
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc


def _shaped_matrix(obj, where: str, rows: int, cols: int, dims: str = "") -> Mat:
    """A JSON matrix of shape rows x cols; a bad one is a usage error naming ``where``."""
    m = hio.matrix_from_json(obj, where)
    if (m.nrows, m.ncols) != (rows, cols):
        raise ParseError(f"{where}: expected a {rows}x{cols} matrix{dims},"
                         f" got {m.nrows}x{m.ncols}")
    return m


def _morphism_matrix(obj, where: str, source, target) -> Mat:
    """A JSON matrix of a linear map from the source to the target algebra."""
    return _shaped_matrix(obj, where, target.dim, source.dim,
                          f" (target dim {target.dim} x source dim {source.dim})")


def _vec_str(v) -> str:
    return "[" + ", ".join(rat_str(e) for e in v.entries) + "]"


def _emit(payload: dict, human: str, as_json: bool):
    if as_json:
        sys.stdout.write(hio.dumps(payload))
    else:
        print(human)


# -- fixture ----------------------------------------------------------------


def _cmd_fixture(args) -> int:
    from .structures import fixture_3dim, fixture_abelian, fixture_jackson_sl2
    if args.name == "jackson-sl2":
        s = fixture_jackson_sl2(hio.rational_from_json(args.q, "--q"))
    elif args.name == "threedim":
        s = fixture_3dim(*(hio.rational_from_json(getattr(args, k), f"--{k}") for k in "abcd"))
    else:
        s = fixture_abelian(args.dim)
    sys.stdout.write(hio.dumps(hio.structure_to_json(s)))
    return 0


# -- check ------------------------------------------------------------------


def _cmd_check_structure(args) -> int:
    from .structures import hom_jacobi_witness, multiplicativity_failures
    s = hio.structure_from_json(_read_json(args.path))
    jac = hom_jacobi_witness(s)
    mult = multiplicativity_failures(s)
    ok = jac is None and not mult
    payload = {
        "hom_jacobi": jac is None,
        "jacobi_witness": None if jac is None else {
            "triple": [i + 1 for i in jac[0]], "value": hio.vec_to_json(jac[1])},
        "multiplicative": not mult,
        "multiplicativity_failures": [
            {"pair": [i + 1, j + 1],
             "twist_of_bracket": hio.vec_to_json(lhs),
             "bracket_of_twists": hio.vec_to_json(rhs)}
            for (i, j), lhs, rhs in mult],
        "valid": ok,
    }
    lines = [f"twisted Jacobi identity: {'ok' if jac is None else 'FAIL'}"]
    if jac is not None:
        lines.append(f"  cyclic sum nonzero at triple {tuple(i + 1 for i in jac[0])}: {_vec_str(jac[1])}")
    lines.append(f"multiplicativity: {'ok' if not mult else 'FAIL'}")
    for (i, j), lhs, rhs in mult:
        lines.append(f"  pair (x{i + 1}, x{j + 1}): alpha of bracket = {_vec_str(lhs)}"
                     f" vs bracket of twists = {_vec_str(rhs)}")
    _emit(payload, "\n".join(lines), args.json)
    return 0 if ok else 1


def _operator_verdict(kind: str, label: str, defect, as_json: bool) -> int:
    """Print an operator verdict with its failing pair, if any; exit 0 yes / 1 no."""
    verdict = defect is None
    payload = {"operator": kind, "verdict": verdict}
    human = f"{label}: " + ("yes" if verdict else "no")
    if defect is not None:
        (i, j), lhs, rhs = defect
        payload["witness"] = {"pair": [i + 1, j + 1], "lhs": hio.vec_to_json(lhs),
                              "rhs": hio.vec_to_json(rhs)}
        human += f" (fails at pair {(i + 1, j + 1)}: {_vec_str(lhs)} vs {_vec_str(rhs)})"
    _emit(payload, human, as_json)
    return 0 if verdict else 1


def _cmd_check_nijenhuis(args) -> int:
    from .operators import _nijenhuis
    alg = hio.algebra_from_json(_read_json(args.algebra))
    op = _shaped_matrix(_read_json(args.op), "--op", alg.dim, alg.dim)
    return _operator_verdict("nijenhuis", "Nijenhuis operator", _nijenhuis(alg, op)[0], args.json)


def _cmd_check_rotabaxter(args) -> int:
    from .operators import _rota_baxter
    alg = hio.algebra_from_json(_read_json(args.algebra))
    op = _shaped_matrix(_read_json(args.op), "--op", alg.dim, alg.dim)
    lam = hio.rational_from_json(args.weight, "--weight")
    return _operator_verdict("rota-baxter", f"Rota-Baxter operator of weight {rat_str(lam)}",
                             _rota_baxter(alg, op, lam), args.json)


def _cmd_check_relative_rb(args) -> int:
    from .operators import _cross_checked
    from .structures import action_witness
    alg = hio.algebra_from_json(_read_json(args.algebra))
    action = hio.action_from_json(alg, _read_json(args.action))
    w = action_witness(action)
    if w is not None:
        raise ParseError(f"action file violates the action axioms: {w[0]} at {w[1]}")
    op = _shaped_matrix(_read_json(args.op), "--op", alg.dim, action.acted.dim,
                        f" (acting dim {alg.dim} x acted dim {action.acted.dim})")
    lam = hio.rational_from_json(args.weight, "--weight")
    return _operator_verdict("relative-rota-baxter",
                             f"relative Rota-Baxter operator of weight {rat_str(lam)}",
                             _cross_checked(action, op, lam), args.json)


def _cmd_check_morphism(args) -> int:
    from .structures import HomMorphism, morphism_witness
    source = hio.algebra_from_json(_read_json(args.algebra))
    target = hio.algebra_from_json(_read_json(args.target))
    mat = _morphism_matrix(_read_json(args.map), "--map", source, target)
    phi = HomMorphism(source, target, mat)
    w = morphism_witness(phi)
    payload = {"morphism": w is None}
    human = "morphism: yes"
    if w is not None:
        kind, where, lhs, rhs = w
        payload["witness"] = {"check": kind,
                              "pair": None if where is None else [k + 1 for k in where]}
        human = f"morphism: no ({kind} fails)"
    _emit(payload, human, args.json)
    return 0 if w is None else 1


# -- bracket ----------------------------------------------------------------


_BRACKET_KINDS = ("cup", "derived", "fn", "nr")


def _cmd_bracket(args) -> int:
    from .brackets import cup_bracket, derived_bracket, fn_bracket, nr_bracket
    from .cochains import compatibility_witness
    alg = hio.algebra_from_json(_read_json(args.algebra))
    p = hio.cochain_from_json(alg.space, alg.space, _read_json(args.p))
    q = hio.cochain_from_json(alg.space, alg.space, _read_json(args.q))
    for where, w in (("--p", compatibility_witness(p)), ("--q", compatibility_witness(q))):
        if w is not None:  # the brackets act on the twist-compatible cochains only
            raise ParseError(f"{where}: cochain is not twist-compatible at"
                             f" {tuple(i + 1 for i in w[0])}: beta f = {_vec_str(w[1])}"
                             f" vs f alpha = {_vec_str(w[2])}")
    if args.kind == "nr":
        result = nr_bracket(p, q)
    elif args.kind == "cup":
        result = cup_bracket(p, q, alg)
    elif args.kind == "fn":
        result = fn_bracket(alg, p, q)
    else:
        result = derived_bracket(alg, p, q)
    sys.stdout.write(hio.dumps(hio.cochain_to_json(result)))
    return 0


# -- cohomology ---------------------------------------------------------------


def _complex_from_args(args):
    from .cohomology import ComplexSpec
    from .structures import HomMorphism, representation_witness
    alg = hio.algebra_from_json(_read_json(args.algebra))
    spec = args.coefficients
    if args.lam is not None and spec != "trivial":
        raise ParseError("--lambda applies only to --coefficients trivial")
    if spec == "adjoint":
        return ComplexSpec.adjoint(alg)
    if spec == "trivial":
        lam = hio.rational_from_json(args.lam, "--lambda") if args.lam is not None else 1
        return ComplexSpec.scaled_trivial(alg, lam)
    if spec.startswith("rep:"):
        rep = hio.representation_from_json(alg, _read_json(spec[4:]))
        w = representation_witness(rep)
        if w is not None:
            raise ParseError(f"representation file violates its axioms: {w[0]} at {w[1]}")
        return ComplexSpec.hom_rep(rep)
    if spec.startswith("morphism:"):
        obj = _read_json(spec[9:])
        if not isinstance(obj, dict) or "target" not in obj or "map" not in obj:
            raise ParseError("morphism file must carry 'target' and 'map'")
        hio._known_keys(obj, ("target", "map"), spec)
        target = hio.algebra_from_json(obj["target"])
        phi = HomMorphism(alg, target, _morphism_matrix(obj["map"], f"{spec}: map", alg, target))
        return ComplexSpec.morphism(phi)
    raise ParseError(f"unknown coefficient spec {spec!r}"
                     " (use adjoint | trivial | rep:FILE | morphism:FILE)")


def _cmd_cohomology(args) -> int:
    from .cohomology import cohomology
    spec = _complex_from_args(args)
    report = cohomology(spec, args.degree)
    human = (f"degree {report.degree}: cochains {report.dim_cochains},"
             f" cocycles {report.dim_cocycles}, coboundaries {report.dim_coboundaries},"
             f" cohomology {report.dim_h}")
    _emit(report.to_json(), human, args.json)
    return 0


# -- deform -------------------------------------------------------------------


def _cmd_deform_extend(args) -> int:
    from .cohomology import ComplexSpec
    from .deformations import MorphismDeformation, _extend_with, _obstruction, deformation_witness
    if args.to_order < 0:
        raise ParseError(f"--to-order must be >= 0, got {args.to_order}")
    source = hio.algebra_from_json(_read_json(args.algebra))
    target = hio.algebra_from_json(_read_json(args.target))
    terms = [_morphism_matrix(_read_json(args.morphism), "--morphism", source, target)]
    if args.terms is not None:
        raw = _read_json(args.terms)
        if not isinstance(raw, list):
            raise ParseError("--terms: the file must hold a list of matrices")
        terms.extend(_morphism_matrix(t, f"--terms[{k}]", source, target)
                     for k, t in enumerate(raw))
    deformation = MorphismDeformation(source, target, terms)
    w = deformation_witness(deformation)
    if w is not None:
        raise ParseError(f"input terms are not an order-{deformation.order} deformation:"
                         f" {w[0]} fails at order {w[1]}")
    # One complex for every step: one check of phi_0, and the coboundaries of
    # its basis 1-cochains, kept per representation, are computed once.
    spec = ComplexSpec.morphism(deformation.base)
    orders, cochains = [], [None]  # the term cochains, kept across the steps
    while deformation.order < args.to_order:
        ob = _obstruction(deformation, spec, cochains)
        entry = {"order": deformation.order,
                 "obstruction_zero": ob.cocycle.is_zero(),
                 "obstruction_coboundary": ob.is_coboundary}
        extended = _extend_with(deformation, ob)
        entry["extended"] = extended is not None
        orders.append(entry)
        if extended is None:
            break
        deformation = extended
    reached = deformation.order
    payload = {"target_order": args.to_order, "reached_order": reached,
               "steps": orders,
               "terms": [hio.matrix_to_json(t) for t in deformation.terms]}
    lines = [f"order {e['order']} -> {e['order'] + 1}: "
             + ("extended" if e["extended"] else "obstructed") for e in orders]
    lines.append(f"reached order {reached} of {args.to_order}")
    _emit(payload, "\n".join(lines), args.json)
    return 0 if reached >= args.to_order else 1


# -- verify-theorems ----------------------------------------------------------


def _cmd_verify_theorems(args) -> int:
    from .theorems import default_fixtures, run_all
    if args.algebra is not None and args.fixture is not None:
        raise ParseError("--algebra and --fixture cannot be combined; give one of them")
    if args.algebra is not None:
        algebras = [(args.algebra, hio.algebra_from_json(_read_json(args.algebra)))]
    elif args.fixture is not None:
        table = dict(default_fixtures())
        if args.fixture not in table:
            raise ParseError(f"unknown fixture {args.fixture!r};"
                             f" choices: {', '.join(sorted(table))}")
        algebras = [(args.fixture, table[args.fixture])]
    else:
        algebras = default_fixtures()
    identities = tuple(args.identity) if args.identity else None
    suite = run_all(algebras, trials=args.trials, seed=args.seed,
                    max_arity=args.max_arity, identities=identities)
    if args.json:
        sys.stdout.write(hio.dumps(suite.to_json()))
    else:
        for name, reports in suite.results:
            for r in reports:
                mark = "PASS" if r.passed else f"FAIL ({len(r.failures)} failures)"
                print(f"{name}/{r.identity}: {mark} [{r.trials} trials]")
                for f in r.failures[:3]:
                    print(f"    trial {f.trial}: {f.detail} witness={f.witness}"
                          f" lhs={f.lhs} rhs={f.rhs}")
        print("all identities passed" if suite.all_passed else "FAILURES found")
    return 0 if suite.all_passed else 1


# -- parser -------------------------------------------------------------------


class _IdentityChoices:
    """The ``--identity`` choices, ``theorems.IDENTITIES`` read on first use.

    argparse iterates ``choices`` only for help and error text and tests
    membership when it parses a value, so building the parser does not
    import ``theorems``.
    """

    def __iter__(self):
        from .theorems import IDENTITIES
        return iter(IDENTITIES)

    def __contains__(self, name) -> bool:
        from .theorems import IDENTITIES
        return name in IDENTITIES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homlie",
        description="Exact bracket calculus for multiplicative Hom-Lie algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    fix = sub.add_parser("fixture", help="emit a built-in structure as JSON")
    fix_sub = fix.add_subparsers(dest="name", required=True)
    p = fix_sub.add_parser("jackson-sl2")
    p.add_argument("--q", default="1")
    p.set_defaults(func=_cmd_fixture)
    p = fix_sub.add_parser("threedim")
    for flag in ("--a", "--b", "--c", "--d"):
        p.add_argument(flag, default="0")
    p.set_defaults(func=_cmd_fixture)
    p = fix_sub.add_parser("abelian")
    p.add_argument("--dim", type=int, default=2)
    p.set_defaults(func=_cmd_fixture)

    chk = sub.add_parser("check", help="verdict commands (exit 0 yes / 1 no)")
    chk_sub = chk.add_subparsers(dest="what", required=True)
    p = chk_sub.add_parser("structure")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check_structure)
    p = chk_sub.add_parser("nijenhuis")
    p.add_argument("--algebra", required=True)
    p.add_argument("--op", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check_nijenhuis)
    p = chk_sub.add_parser("rotabaxter")
    p.add_argument("--algebra", required=True)
    p.add_argument("--op", required=True)
    p.add_argument("--weight", default="0")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check_rotabaxter)
    p = chk_sub.add_parser("relative-rb")
    p.add_argument("--algebra", required=True)
    p.add_argument("--action", required=True)
    p.add_argument("--op", required=True)
    p.add_argument("--weight", default="0")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check_relative_rb)
    p = chk_sub.add_parser("morphism")
    p.add_argument("--algebra", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--map", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check_morphism)

    p = sub.add_parser("bracket", help="compute a graded bracket of two cochains")
    p.add_argument("--kind", choices=_BRACKET_KINDS, required=True)
    p.add_argument("--algebra", required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.set_defaults(func=_cmd_bracket)

    p = sub.add_parser("cohomology", help="exact cohomology dimensions at one degree")
    p.add_argument("--algebra", required=True)
    p.add_argument("--coefficients", default="adjoint")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--lambda", dest="lam", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_cohomology)

    dfm = sub.add_parser("deform", help="morphism deformation commands")
    dfm_sub = dfm.add_subparsers(dest="what", required=True)
    p = dfm_sub.add_parser("extend")
    p.add_argument("--algebra", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--morphism", required=True)
    p.add_argument("--terms", default=None)
    p.add_argument("--to-order", dest="to_order", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_deform_extend)

    p = sub.add_parser("verify-theorems", help="randomized exact identity suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--max-arity", dest="max_arity", type=int, default=3)
    p.add_argument("--fixture", default=None)
    p.add_argument("--algebra", default=None)
    # add_argument iterates its choices (to check the metavar), so they are
    # set on the returned action instead.
    p.add_argument("--identity", action="append", default=None).choices = _IdentityChoices()
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify_theorems)

    return parser


def main(argv=None) -> int:
    # argparse takes "-1/2" for an option flag (only plain negative numbers
    # pass as values), so "--b -1/2" is joined into "--b=-1/2" first.
    argv = sys.argv[1:] if argv is None else list(argv)
    for k in range(len(argv) - 1, 0, -1):
        if re.fullmatch(r"-\d+/\d+", argv[k]) and re.fullmatch(r"--[\w-]+", argv[k - 1]):
            argv[k - 1:k + 1] = [f"{argv[k - 1]}={argv[k]}"]
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
