import hashlib
import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from homlie import io as hio
from homlie.io import ParseError
from homlie.cli import main
from homlie.cochains import cochain_matrix, linear_combination
from homlie.cohomology import ComplexSpec
from homlie.linalg import Mat, Vec, kernel_basis
from homlie.structures import HomMorphism, check_action, fixture_b, fixture_jackson_sl2
from homlie.theorems import default_fixtures, sample_cochain, _stream


# -- io ----------------------------------------------------------------------


def test_rational_parse_and_normalization():
    assert hio.rational_from_json("2/4") == Fraction(1, 2)
    assert hio.rational_from_json(-3) == Fraction(-3)
    with pytest.raises(ParseError):
        hio.rational_from_json(1.5)
    with pytest.raises(ParseError):
        hio.rational_from_json("1/0")
    with pytest.raises(ParseError):
        hio.rational_from_json("x")


def test_structure_roundtrip():
    j = fixture_jackson_sl2("5/3")
    blob = hio.structure_to_json(j)
    back = hio.structure_from_json(json.loads(json.dumps(blob)))
    assert back.mu == j.mu and back.alpha == j.alpha


def test_structure_parse_rejections():
    base = hio.structure_to_json(fixture_b())
    dup = json.loads(json.dumps(base))
    dup["brackets"].append(dict(dup["brackets"][0]))
    with pytest.raises(ParseError):
        hio.structure_from_json(dup)
    bad_len = json.loads(json.dumps(base))
    bad_len["brackets"][0]["value"] = ["1", "2"]
    with pytest.raises(ParseError):
        hio.structure_from_json(bad_len)
    bad_idx = json.loads(json.dumps(base))
    bad_idx["brackets"][0]["i"] = 7
    with pytest.raises(ParseError):
        hio.structure_from_json(bad_idx)
    swapped = json.loads(json.dumps(base))
    swapped["brackets"][0]["i"], swapped["brackets"][0]["j"] = 3, 1
    with pytest.raises(ParseError):
        hio.structure_from_json(swapped)


def test_cochain_roundtrip_and_rejections():
    B = fixture_b()
    f = sample_cochain(B.space, B.space, 2, _stream(77, "io"))
    blob = hio.cochain_to_json(f)
    assert hio.cochain_from_json(B.space, B.space, blob) == f
    bad = json.loads(json.dumps(blob))
    bad["coeffs"].append(dict(bad["coeffs"][0]))
    with pytest.raises(ParseError):
        hio.cochain_from_json(B.space, B.space, bad)
    decreasing = {"arity": 2, "coeffs": [{"tuple": [2, 1], "value": ["0", "0", "0"]}]}
    with pytest.raises(ParseError):
        hio.cochain_from_json(B.space, B.space, decreasing)


def test_action_roundtrip():
    from homlie.structures import bracket_action_on_abelian
    B = fixture_b()
    act = bracket_action_on_abelian(B)
    blob = hio.action_to_json(act)
    back = hio.action_from_json(B, blob)
    assert check_action(back)
    assert back.table == act.table


def test_dumps_is_canonical():
    assert hio.dumps({"b": 1, "a": 2}) == '{\n  "a": 2,\n  "b": 1\n}\n'


def test_serialization_is_stable_under_reparse():
    j = fixture_jackson_sl2("2/4")  # non-canonical input rational
    text1 = hio.dumps(hio.structure_to_json(j))
    text2 = hio.dumps(hio.structure_to_json(hio.structure_from_json(json.loads(text1))))
    assert text1 == text2
    assert '"1/2"' in text1


# -- cli ---------------------------------------------------------------------


def _run(args, stdin_text=None):
    proc = subprocess.run([sys.executable, "-m", "homlie.cli", *args],
                          capture_output=True, text=True, input=stdin_text)
    return proc


def test_cli_module_entry_and_fixture_pipeline(tmp_path):
    fx = _run(["fixture", "jackson-sl2", "--q", "2"])
    assert fx.returncode == 0
    chk = _run(["check", "structure", "-", "--json"], stdin_text=fx.stdout)
    assert chk.returncode == 1
    payload = json.loads(chk.stdout)
    assert payload["hom_jacobi"] is True
    assert payload["multiplicative"] is False
    pairs = {tuple(f["pair"]): f for f in payload["multiplicativity_failures"]}
    ef = pairs[(1, 3)]
    assert ef["twist_of_bracket"] == ["0", "3", "0"]
    assert ef["bracket_of_twists"] == ["0", "12", "0"]


def test_cli_structure_pass_case():
    fx = _run(["fixture", "threedim", "--a", "0", "--b", "1", "--c", "1", "--d", "0"])
    chk = _run(["check", "structure", "-"], stdin_text=fx.stdout)
    assert chk.returncode == 0


def test_cli_exit_codes(tmp_path):
    alg = tmp_path / "b.json"
    alg.write_text(hio.dumps(hio.structure_to_json(fixture_b())))
    zero = tmp_path / "zero.json"
    zero.write_text('[["0","0","0"],["0","0","0"],["0","0","0"]]')
    assert main(["check", "rotabaxter", "--algebra", str(alg), "--op", str(zero),
                 "--weight", "1"]) == 0
    noncommuting = tmp_path / "bad.json"
    noncommuting.write_text('[["0","1","0"],["1","0","0"],["0","0","1"]]')
    assert main(["check", "nijenhuis", "--algebra", str(alg), "--op", str(noncommuting)]) == 2
    missing = main(["check", "structure", str(tmp_path / "nope.json")])
    assert missing == 2
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    assert main(["check", "structure", str(garbage)]) == 2


def test_cli_unknown_command_is_usage_error():
    proc = _run(["frobnicate"])
    assert proc.returncode == 2


def test_cli_bracket_and_cohomology(tmp_path, capsys):
    alg = tmp_path / "b.json"
    alg.write_text(hio.dumps(hio.structure_to_json(fixture_b())))
    p = tmp_path / "p.json"
    p.write_text(hio.dumps({"arity": 1, "coeffs": [{"tuple": [1], "value": ["1", "0", "0"]}]}))
    assert main(["bracket", "--kind", "fn", "--algebra", str(alg),
                 "--p", str(p), "--q", str(p)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["arity"] == 2
    assert main(["cohomology", "--algebra", str(alg), "--coefficients", "adjoint",
                 "--degree", "1", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {"degree": 1, "dim_cochains": 5, "dim_cocycles": 2,
                      "dim_coboundaries": 1, "dim_cohomology": 1}


def test_cli_cohomology_morphism_and_rep(tmp_path, capsys):
    alg = tmp_path / "b.json"
    blob = hio.structure_to_json(fixture_b())
    alg.write_text(hio.dumps(blob))
    phi = tmp_path / "phi.json"
    phi.write_text(hio.dumps({"target": blob,
                              "map": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}))
    assert main(["cohomology", "--algebra", str(alg),
                 "--coefficients", f"morphism:{phi}", "--degree", "2", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["dim_cohomology"] == 1
    # trivial coefficients with a weight
    assert main(["cohomology", "--algebra", str(alg), "--coefficients", "trivial",
                 "--degree", "1", "--lambda", "1/2", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["dim_cocycles"] == 1


def test_cli_deform_extend(tmp_path, capsys):
    alg_blob = hio.structure_to_json(fixture_b())
    alg = tmp_path / "b.json"
    alg.write_text(hio.dumps(alg_blob))
    ident = tmp_path / "id.json"
    ident.write_text('[["1","0","0"],["0","1","0"],["0","0","1"]]')
    assert main(["deform", "extend", "--algebra", str(alg), "--target", str(alg),
                 "--morphism", str(ident), "--to-order", "2", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["reached_order"] == 2
    assert all(step["extended"] for step in report["steps"])


def test_cli_verify_theorems_deterministic_json():
    args = ["verify-theorems", "--fixture", "threedim-multiplicative", "--trials", "2",
            "--seed", "5", "--identity", "mc_homlie", "--identity", "rb_lemma", "--json"]
    a, b = _run(args), _run(args)
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout
    payload = json.loads(a.stdout)
    assert payload["all_passed"] is True


@pytest.mark.parametrize("argv", [
    ["--fixture", "yau-sl2", "--trials", "1", "--max-arity", "20",
     "--identity", "cup_trivial_cohomology"],
    ["--trials", "2", "--max-arity", "2000"],
], ids=["one-identity-max-arity-20", "suite-max-arity-2000"])
def test_cli_verify_theorems_above_the_dimension(capsys, argv):
    # Cochains of arity above the dimension are zero: no shuffle table is
    # built for them, and twist powers are computed without recursion.
    assert main(["verify-theorems"] + argv) == 0
    assert capsys.readouterr().out.endswith("all identities passed\n")


@pytest.mark.parametrize("fixture", ["threedim-multiplicative", "no-such-fixture"])
def test_cli_verify_theorems_rejects_algebra_with_fixture(tmp_path, capsys, fixture):
    alg = tmp_path / "b.json"
    alg.write_text(hio.dumps(hio.structure_to_json(fixture_b())))
    assert main(["verify-theorems", "--algebra", str(alg), "--fixture", fixture,
                 "--trials", "1", "--identity", "mc_homlie"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--algebra" in captured.err and "--fixture" in captured.err


def test_cli_verify_theorems_rejects_a_relative_search_too_large(tmp_path):
    # The twist commutant of the 4-dim abelian algebra has dimension 16: a
    # relative search would run 3^16 candidates.  The run stops before it,
    # naming the algebra, the count and the way to skip the two identities.
    from homlie.structures import fixture_abelian
    from homlie.theorems import MAX_RELATIVE_CANDIDATES
    alg = tmp_path / "ab4.json"
    alg.write_text(hio.dumps(hio.structure_to_json(fixture_abelian(4))))
    argv = [sys.executable, "-m", "homlie.cli", "verify-theorems", "--algebra", str(alg),
            "--trials", "1"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == (f"error: {alg}: the relative Rota-Baxter searches would check"
                           f" {3 ** 16} candidates each (at most {MAX_RELATIVE_CANDIDATES});"
                           " leave out relative_consistency and d_r_matches_induced"
                           " with --identity\n")
    proc = subprocess.run(argv + ["--identity", "mc_homlie"], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0 and proc.stdout.endswith("all identities passed\n")


def test_cli_consistency_failure_exits_three(tmp_path, monkeypatch):
    from homlie import operators
    alg = tmp_path / "b.json"
    alg.write_text(hio.dumps(hio.structure_to_json(fixture_b())))
    ident = tmp_path / "id.json"
    ident.write_text('[["1","0","0"],["0","1","0"],["0","0","1"]]')
    monkeypatch.setattr(operators, "fn_bracket", lambda a, p, q: a.mu)
    assert main(["check", "nijenhuis", "--algebra", str(alg), "--op", str(ident)]) == 3


# what: (argv after the algebra, the JSON "operator", the failing pair, the report label);
# the operator E23 intertwines the twists of fixture_b and fails all three kinds
_FAILING_OPERATOR_CHECKS = {
    "nijenhuis": (["--op", "{op}"], "nijenhuis", (1, 3), "Nijenhuis operator"),
    "rotabaxter": (["--op", "{op}", "--weight", "1"], "rota-baxter", (1, 2),
                   "Rota-Baxter operator of weight 1"),
    "relative-rb": (["--action", "{act}", "--op", "{op}"], "relative-rota-baxter", (1, 3),
                    "relative Rota-Baxter operator of weight 0"),
}


@pytest.mark.parametrize("what", sorted(_FAILING_OPERATOR_CHECKS))
def test_cli_check_runs_the_guard_and_the_pointwise_check_once(tmp_path, capsys, monkeypatch,
                                                               what):
    from homlie import operators
    from homlie.structures import bracket_action_on_abelian
    files = {"alg": tmp_path / "b.json", "op": tmp_path / "op.json", "act": tmp_path / "act.json"}
    files["alg"].write_text(hio.dumps(hio.structure_to_json(fixture_b())))
    files["op"].write_text('[["0","0","0"],["0","0","1"],["0","0","0"]]')
    files["act"].write_text(hio.dumps(hio.action_to_json(bracket_action_on_abelian(fixture_b()))))
    calls = {"_check_intertwines": 0, "_deformed": 0, "_pair_defect": 0}
    for name in calls:
        def counting(*args, _real=getattr(operators, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(operators, name, counting)
    rest, kind, pair, label = _FAILING_OPERATOR_CHECKS[what]
    argv = ["check", what, "--algebra", str(files["alg"])] + [
        a.format(op=files["op"], act=files["act"]) for a in rest]
    assert main(argv) == 1
    assert capsys.readouterr().out == f"{label}: no (fails at pair {pair}: [0, 0, 0] vs [0, 1, 0])\n"
    assert calls == {"_check_intertwines": 1, "_deformed": 1, "_pair_defect": 1}
    assert main(argv + ["--json"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "operator": kind, "verdict": False,
        "witness": {"pair": list(pair), "lhs": ["0", "0", "0"], "rhs": ["0", "1", "0"]}}
    assert calls == {"_check_intertwines": 2, "_deformed": 2, "_pair_defect": 2}


def test_cli_deform_extend_failed_revalidation_exits_three(tmp_path, capsys, monkeypatch):
    from homlie import deformations
    from homlie.cochains import operator_cochain
    from homlie.linalg import Mat
    real = deformations.is_coboundary

    def wrong(spec, cocycle):  # plus the identity, which is no derivation of fixture_b
        preimage = real(spec, cocycle)
        return preimage + operator_cochain(preimage.domain, preimage.codomain, Mat.identity(3))

    monkeypatch.setattr(deformations, "is_coboundary", wrong)
    alg = tmp_path / "b.json"
    alg.write_text(hio.dumps(hio.structure_to_json(fixture_b())))
    ident = tmp_path / "id.json"
    ident.write_text('[["1","0","0"],["0","1","0"],["0","0","1"]]')
    assert main(["deform", "extend", "--algebra", str(alg), "--target", str(alg),
                 "--morphism", str(ident), "--to-order", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("internal consistency failure: extension failed to re-validate:"
                            " order equation at order 1\n")


def test_cli_deform_extend_builds_each_term_cochain_once(tmp_path, capsys, monkeypatch):
    from homlie import deformations
    from homlie.structures import fixture_yau_heisenberg
    built = []
    real = deformations.operator_cochain
    monkeypatch.setattr(deformations, "operator_cochain",
                        lambda source, target, m: built.append(m) or real(source, target, m))
    alg = tmp_path / "h.json"
    alg.write_text(hio.dumps(hio.structure_to_json(fixture_yau_heisenberg())))
    ident = tmp_path / "id.json"
    ident.write_text('[["1","0","0"],["0","1","0"],["0","0","1"]]')
    assert main(["deform", "extend", "--algebra", str(alg), "--target", str(alg),
                 "--morphism", str(ident), "--to-order", "12", "--json"]) == 0
    terms = json.loads(capsys.readouterr().out)["terms"]
    # the obstruction at order n reads phi_1, ..., phi_n: each is built once, 11 in all
    assert [hio.matrix_to_json(m) for m in built] == terms[1:12]
    assert main(["deform", "extend", "--algebra", str(alg), "--target", str(alg),
                 "--morphism", str(ident), "--to-order", "12"]) == 0
    assert capsys.readouterr().out == "".join(
        f"order {n} -> {n + 1}: extended\n" for n in range(12)) + "reached order 12 of 12\n"
    assert len(built) == 22


@pytest.mark.parametrize("bad", ["--p", "--q"])
def test_cli_bracket_rejects_a_cochain_that_is_not_twist_compatible(tmp_path, capsys, bad):
    from homlie.cochains import operator_cochain
    from homlie.linalg import Mat
    from homlie.structures import fixture_3dim
    alg = fixture_3dim(0, 1, 1, 0)  # alpha = diag(1, 2, 2)
    files = {"--p": tmp_path / "p.json", "--q": tmp_path / "q.json"}
    e21 = operator_cochain(alg.space, alg.space, Mat.make([[0, 0, 0], [1, 0, 0], [0, 0, 0]]))
    for flag, path in files.items():
        path.write_text(hio.dumps(hio.cochain_to_json(e21 if flag == bad else alg.mu)))
    algebra = tmp_path / "a.json"
    algebra.write_text(hio.dumps(hio.structure_to_json(alg)))
    for kind in ("cup", "derived", "fn", "nr"):
        assert main(["bracket", "--kind", kind, "--algebra", str(algebra),
                     "--p", str(files["--p"]), "--q", str(files["--q"])]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {bad}: cochain is not twist-compatible at (1,):"
                                " beta f = [0, 2, 0] vs f alpha = [0, 1, 0]\n")


def test_cli_cohomology_rep_coefficients(tmp_path, capsys):
    B = fixture_b()
    alg = tmp_path / "b.json"
    alg.write_text(hio.dumps(hio.structure_to_json(B)))
    from homlie.structures import adjoint_representation
    rep_blob = hio.representation_to_json(adjoint_representation(B))
    rep = tmp_path / "rep.json"
    rep.write_text(hio.dumps(rep_blob))
    assert main(["cohomology", "--algebra", str(alg),
                 "--coefficients", f"rep:{rep}", "--degree", "1", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["dim_cohomology"] == 1  # matches the adjoint complex
    # an action table violating the axioms is an input error
    bad_blob = json.loads(json.dumps(rep_blob))
    bad_blob["action"][0]["value"] = ["1", "1", "1"]
    bad = tmp_path / "bad.json"
    bad.write_text(hio.dumps(bad_blob))
    assert main(["cohomology", "--algebra", str(alg),
                 "--coefficients", f"rep:{bad}", "--degree", "1"]) == 2


def test_cli_relative_rb_with_action_file(tmp_path):
    from homlie.structures import bracket_action_on_abelian
    B = fixture_b()
    act_blob = hio.action_to_json(bracket_action_on_abelian(B))
    alg = tmp_path / "b.json"
    alg.write_text(hio.dumps(hio.structure_to_json(B)))
    act = tmp_path / "act.json"
    act.write_text(hio.dumps(act_blob))
    zero = tmp_path / "zero.json"
    zero.write_text('[["0","0","0"],["0","0","0"],["0","0","0"]]')
    assert main(["check", "relative-rb", "--algebra", str(alg), "--action", str(act),
                 "--op", str(zero), "--weight", "1"]) == 0



# case: (input file, key path of the entry set to JSON true, location in the message)
_BOOL_CASES = {
    "dim": ("structure", ["dim"], "algebra: 'dim'"),
    "i": ("structure", ["brackets", 0, "i"], "algebra.brackets[0]: indices"),
    "j": ("structure", ["brackets", 0, "j"], "algebra.brackets[0]: indices"),
    "module_dim": ("rep", ["module_dim"], "representation: 'module_dim'"),
    "g": ("rep", ["action", 0, "g"], "representation.action[0]: 'g'"),
    "v": ("rep", ["action", 0, "v"], "representation.action[0]: 'v'"),
    "arity": ("cochain", ["arity"], "cochain: 'arity'"),
    "tuple": ("cochain", ["coeffs", 0, "tuple", 0], "cochain.coeffs[0]: 'tuple'"),
}


@pytest.mark.parametrize("case", sorted(_BOOL_CASES))
def test_cli_rejects_json_booleans_as_integers(tmp_path, capsys, case):
    # JSON true loads as a Python bool, which is an int equal to 1
    kind, keys, where = _BOOL_CASES[case]
    docs = {"structure": hio.structure_to_json(fixture_b()),
            "rep": {"module_dim": 1, "beta": [["1"]],
                    "action": [{"g": 1, "v": 1, "value": ["0"]}]},
            "cochain": {"arity": 1, "coeffs": [{"tuple": [1], "value": ["1", "0", "0"]}]}}
    good = {}
    for name, doc in docs.items():
        good[name] = tmp_path / f"{name}.json"
        good[name].write_text(json.dumps(doc))
    node = docs[kind]
    for k in keys[:-1]:
        node = node[k]
    node[keys[-1]] = True
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(docs[kind]))
    argv = {"structure": ["check", "structure", str(bad)],
            "rep": ["cohomology", "--algebra", str(good["structure"]),
                    "--coefficients", f"rep:{bad}", "--degree", "1"],
            "cochain": ["bracket", "--kind", "cup", "--algebra", str(good["structure"]),
                        "--p", str(bad), "--q", str(good["cochain"])]}[kind]
    assert main(argv) == 2
    assert where in capsys.readouterr().err


# case: (option named in the message, argv given the algebra, action and operator files)
_ZERO_DENOMINATOR_CASES = {
    "q": ("--q", lambda f: ["fixture", "jackson-sl2", "--q", "1/0"]),
    "a": ("--a", lambda f: ["fixture", "threedim", "--a", "1/0"]),
    "b": ("--b", lambda f: ["fixture", "threedim", "--b=-2/0"]),
    "c": ("--c", lambda f: ["fixture", "threedim", "--c", "0/0"]),
    "d": ("--d", lambda f: ["fixture", "threedim", "--d", "3/0"]),
    "weight-rotabaxter": ("--weight", lambda f: ["check", "rotabaxter", "--algebra", f["alg"],
                                                 "--op", f["op"], "--weight", "1/0"]),
    "weight-relative-rb": ("--weight", lambda f: ["check", "relative-rb", "--algebra", f["alg"],
                                                  "--action", f["act"], "--op", f["op"],
                                                  "--weight", "1/0"]),
    "lambda": ("--lambda", lambda f: ["cohomology", "--algebra", f["alg"],
                                      "--coefficients", "trivial", "--degree", "1",
                                      "--lambda", "1/0"]),
}


def _operator_files(tmp_path):
    """Algebra, action and zero-operator files for fixture B, by name."""
    from homlie.structures import bracket_action_on_abelian
    B = fixture_b()
    files = {"alg": tmp_path / "b.json", "act": tmp_path / "act.json", "op": tmp_path / "op.json"}
    files["alg"].write_text(hio.dumps(hio.structure_to_json(B)))
    files["act"].write_text(hio.dumps(hio.action_to_json(bracket_action_on_abelian(B))))
    files["op"].write_text('[["0","0","0"],["0","0","0"],["0","0","0"]]')
    return {k: str(v) for k, v in files.items()}


@pytest.mark.parametrize("case", sorted(_ZERO_DENOMINATOR_CASES))
def test_cli_rational_option_with_zero_denominator_is_usage_error(tmp_path, capsys, case):
    option, argv = _ZERO_DENOMINATOR_CASES[case]
    assert main(argv(_operator_files(tmp_path))) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {option}: bad rational" in captured.err


def test_cli_zero_denominator_is_named(tmp_path, capsys):
    files = _operator_files(tmp_path)
    for option, argv in _ZERO_DENOMINATOR_CASES.values():
        args = argv(files)
        value = args[-1].partition("=")[2] or args[-1]
        assert main(args) == 2
        assert capsys.readouterr().err == (f"error: {option}: bad rational '{value}':"
                                           " zero denominator\n")
    op = tmp_path / "zero-den.json"
    op.write_text('[["0","0","0"],["0","1/0","0"],["0","0","0"]]')
    assert main(["check", "nijenhuis", "--algebra", files["alg"], "--op", str(op)]) == 2
    assert capsys.readouterr().err == "error: --op[1][1]: bad rational '1/0': zero denominator\n"


# case: (argv given the files, ending in the option; its negative fraction value)
_NEGATIVE_FRACTION_CASES = {
    "q": (lambda f: ["fixture", "jackson-sl2", "--q"], "-1/2"),
    "b": (lambda f: ["fixture", "threedim", "--a", "1", "--b"], "-1/2"),
    "weight-rotabaxter": (lambda f: ["check", "rotabaxter", "--algebra", f["alg"],
                                     "--op", f["op"], "--weight"], "-3/2"),
    "weight-relative-rb": (lambda f: ["check", "relative-rb", "--algebra", f["alg"],
                                      "--action", f["act"], "--op", f["op"], "--weight"], "-1/3"),
    "lambda": (lambda f: ["cohomology", "--algebra", f["alg"], "--coefficients", "trivial",
                          "--degree", "1", "--lambda"], "-2/3"),
}


@pytest.mark.parametrize("case", sorted(_NEGATIVE_FRACTION_CASES))
def test_cli_negative_fraction_option_value_may_follow_as_separate_argument(
        tmp_path, capsys, case):
    head, value = _NEGATIVE_FRACTION_CASES[case]
    argv = head(_operator_files(tmp_path))
    option = argv[-1]
    assert main(argv + [value]) == 0
    separate = capsys.readouterr()
    assert main(argv[:-1] + [f"{option}={value}"]) == 0
    assert separate == capsys.readouterr()
    assert main(argv + ["-1/0"]) == 2
    assert f"error: {option}: bad rational '-1/0'" in capsys.readouterr().err


# case: (argv, text of the error message)
_OUT_OF_RANGE_CASES = {
    "dim-0": (["fixture", "abelian", "--dim", "0"], "dim >= 1, got 0"),
    "dim-negative": (["fixture", "abelian", "--dim", "-1"], "dim >= 1, got -1"),
    "trials-0": (["verify-theorems", "--fixture", "abelian-dim2", "--trials", "0"],
                 "trials must be >= 1, got 0"),
    "trials-negative": (["verify-theorems", "--fixture", "abelian-dim2", "--trials", "-1"],
                        "trials must be >= 1, got -1"),
    "max-arity-0": (["verify-theorems", "--fixture", "abelian-dim2", "--max-arity", "0"],
                    "max_arity must be >= 1, got 0"),
    "to-order-minus-1": (["deform", "extend", "--algebra", "a.json", "--target", "a.json",
                          "--morphism", "m.json", "--to-order", "-1"],
                         "--to-order must be >= 0, got -1"),
    "to-order-minus-2": (["deform", "extend", "--algebra", "a.json", "--target", "a.json",
                          "--morphism", "m.json", "--to-order", "-2"],
                         "--to-order must be >= 0, got -2"),
}


@pytest.mark.parametrize("case", sorted(_OUT_OF_RANGE_CASES))
def test_cli_out_of_range_integer_option_is_usage_error(capsys, case):
    argv, message = _OUT_OF_RANGE_CASES[case]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_cli_deform_extend_computes_each_obstruction_once(tmp_path, capsys, monkeypatch):
    from homlie import deformations
    calls = []
    original = deformations._obstruction

    def counting(d, spec, terms):
        calls.append(d.order)
        return original(d, spec, terms)

    # The command's steps call ``_obstruction`` through the ``deformations``
    # module, so patching that module counts every call.
    monkeypatch.setattr(deformations, "_obstruction", counting)
    alg = tmp_path / "b.json"
    alg.write_text(hio.dumps(hio.structure_to_json(fixture_b())))
    ident = tmp_path / "id.json"
    ident.write_text('[["1","0","0"],["0","1","0"],["0","0","1"]]')
    assert main(["deform", "extend", "--algebra", str(alg), "--target", str(alg),
                 "--morphism", str(ident), "--to-order", "3"]) == 0
    assert capsys.readouterr().out == ("order 0 -> 1: extended\norder 1 -> 2: extended\n"
                                       "order 2 -> 3: extended\nreached order 3 of 3\n")
    assert calls == [0, 1, 2]


def test_cli_deform_extend_checks_each_order_once(tmp_path, capsys, monkeypatch):
    # Order 0 is checked for the input and by the one morphism complex of
    # phi_0; every later order only when its term is added.
    from homlie import deformations, structures
    calls = []
    original = structures.order_witness

    def counting(source, target, terms, n):
        calls.append(n)
        return original(source, target, terms, n)

    monkeypatch.setattr(structures, "order_witness", counting)
    monkeypatch.setattr(deformations, "order_witness", counting)
    alg = tmp_path / "b.json"
    alg.write_text(hio.dumps(hio.structure_to_json(fixture_b())))
    ident = tmp_path / "id.json"
    ident.write_text('[["1","0","0"],["0","1","0"],["0","0","1"]]')
    assert main(["deform", "extend", "--algebra", str(alg), "--target", str(alg),
                 "--morphism", str(ident), "--to-order", "3"]) == 0
    assert capsys.readouterr().out == ("order 0 -> 1: extended\norder 1 -> 2: extended\n"
                                       "order 2 -> 3: extended\nreached order 3 of 3\n")
    assert calls == [0, 0, 1, 2, 3]


# case: map of fixture_b to itself -> (human line, JSON text); both exit 1
_MORPHISM_FAILURES = {
    # beta phi != phi alpha on e2: phi e2 = e1 + e2 is not in an eigenspace of the twist
    "twist-intertwining": ('[["1","1","0"],["0","1","0"],["0","0","1"]]',
                           "morphism: no (twist intertwining fails)\n",
                           '{\n  "morphism": false,\n  "witness": {\n'
                           '    "check": "twist intertwining",\n    "pair": null\n  }\n}\n'),
    # diag(2, 1, 2) keeps [e1, e2] = e3 and breaks [e1, e3] = e2
    "bracket-preservation": ('[["2","0","0"],["0","1","0"],["0","0","2"]]',
                             "morphism: no (bracket preservation fails)\n",
                             '{\n  "morphism": false,\n  "witness": {\n'
                             '    "check": "bracket preservation",\n    "pair": [\n'
                             '      1,\n      3\n    ]\n  }\n}\n'),
}


@pytest.mark.parametrize("case", sorted(_MORPHISM_FAILURES))
def test_cli_check_morphism_failure_output(tmp_path, capsys, case):
    matrix, human, as_json = _MORPHISM_FAILURES[case]
    alg = tmp_path / "b.json"
    alg.write_text(hio.dumps(hio.structure_to_json(fixture_b())))
    phi = tmp_path / "phi.json"
    phi.write_text(matrix)
    argv = ["check", "morphism", "--algebra", str(alg), "--target", str(alg), "--map", str(phi)]
    assert main(argv) == 1
    assert capsys.readouterr().out == human
    assert main(argv + ["--json"]) == 1
    assert capsys.readouterr().out == as_json


def _seeded_first_order_term(alg, seed):
    """phi_1 for the identity: a seeded integer combination of the 1-cocycles of its complex."""
    spec = ComplexSpec.morphism(HomMorphism(alg, alg, Mat.identity(alg.dim)))
    basis = spec.basis(1)
    rng = random.Random(seed)
    combo = Vec.zero(len(basis))
    for k in kernel_basis(spec.matrix(1)):
        combo = combo + k.scale(rng.choice((-2, -1, 1, 2)))
    return cochain_matrix(linear_combination(alg.space, alg.space, 1,
                                             zip(combo.num, basis), combo.den))


# (fixture, seed of the first-order term or None for the identity alone, --to-order)
# -> SHA-256 of the stdout of deform extend --json from the identity; yau-sl2 has a
# nonzero obstruction at each of its 7 steps
_DEEP_DEFORM_DIGESTS = {
    ("yau-sl2", 0, 8): "7cdbd27076318c44c0470fa2bcc4fb883f2022a7f03f9081b1c5ce2ba0046550",
    ("yau-shear", 0, 8): "833da7a83815f158d0f03936598d3505da64490ba0f634bc0b020d07c1fe6390",
    ("yau-dim4", 0, 8): "7782d6da3975f65e5e7819fa87db56b6b764d05203c3bde5407c15d94130abff",
    ("yau-heisenberg", None, 40):
        "a4025c72fb83eb8853f6761a5ce64a247f34deb514193bc56e602dc1c75e3749",
}


@pytest.mark.parametrize("name, seed, order", list(_DEEP_DEFORM_DIGESTS))
def test_cli_deform_extend_deep_json_digest(tmp_path, capsys, name, seed, order):
    alg = dict(default_fixtures())[name]
    terms = [] if seed is None else [_seeded_first_order_term(alg, seed)]
    assert not any(t.is_zero() for t in terms)
    files = {"alg": hio.structure_to_json(alg),
             "id": hio.matrix_to_json(Mat.identity(alg.dim)),
             "terms": [hio.matrix_to_json(t) for t in terms]}
    for key, blob in files.items():
        (tmp_path / f"{key}.json").write_text(hio.dumps(blob))
    assert main(["deform", "extend", "--algebra", str(tmp_path / "alg.json"),
                 "--target", str(tmp_path / "alg.json"), "--morphism", str(tmp_path / "id.json"),
                 "--terms", str(tmp_path / "terms.json"), "--to-order", str(order), "--json"]) == 0
    out = capsys.readouterr().out
    steps = json.loads(out)["steps"]
    assert len(steps) == order - len(terms) and all(step["extended"] for step in steps)
    if name == "yau-sl2":
        assert not any(step["obstruction_zero"] for step in steps)
    assert hashlib.sha256(out.encode()).hexdigest() == _DEEP_DEFORM_DIGESTS[name, seed, order]


# case: (argv given the files and the matrix file, the wrong and the right matrix file,
# message, where {m} stands for the matrix file)
_MORPHISM_SHAPE = "expected a 2x3 matrix (target dim 2 x source dim 3), got 3x2"
_WRONG_SHAPE_CASES = {
    "nijenhuis": (lambda f, m: ["check", "nijenhuis", "--algebra", f["alg"], "--op", m],
                  "m22", "op", "--op: expected a 3x3 matrix, got 2x2"),
    "rotabaxter": (lambda f, m: ["check", "rotabaxter", "--algebra", f["alg"], "--op", m],
                   "m22", "op", "--op: expected a 3x3 matrix, got 2x2"),
    "relative-rb": (lambda f, m: ["check", "relative-rb", "--algebra", f["alg"],
                                  "--action", f["act2"], "--op", m],
                    "m23", "m32", "--op: expected a 3x2 matrix (acting dim 3 x acted dim 2), got 2x3"),
    "morphism": (lambda f, m: ["check", "morphism", "--algebra", f["alg"],
                               "--target", f["ab2"], "--map", m],
                 "m32", "m23", f"--map: {_MORPHISM_SHAPE}"),
    "deform-morphism": (lambda f, m: ["deform", "extend", "--algebra", f["alg"],
                                      "--target", f["ab2"], "--morphism", m, "--to-order", "1"],
                        "m32", "m23", f"--morphism: {_MORPHISM_SHAPE}"),
    "deform-terms": (lambda f, m: ["deform", "extend", "--algebra", f["alg"], "--target", f["ab2"],
                                   "--morphism", f["m23"], "--terms", m, "--to-order", "1"],
                     "terms32", "terms23", f"--terms[0]: {_MORPHISM_SHAPE}"),
    "cohomology-morphism": (lambda f, m: ["cohomology", "--algebra", f["alg"],
                                          "--coefficients", f"morphism:{m}", "--degree", "1"],
                            "phi32", "phi23", "morphism:{m}: map: " + _MORPHISM_SHAPE),
}


@pytest.mark.parametrize("case", sorted(_WRONG_SHAPE_CASES))
def test_cli_operator_file_of_wrong_shape_is_usage_error(tmp_path, capsys, case):
    from homlie.structures import fixture_abelian
    files = _operator_files(tmp_path)
    docs = {"ab2": hio.structure_to_json(fixture_abelian(2)),
            # the zero action of fixture B on a 2-dim abelian algebra
            "act2": {"module_dim": 2, "beta": [["1", "0"], ["0", "1"]]},
            "m22": [["1", "0"], ["0", "1"]],
            "m23": [["0", "0", "0"], ["0", "0", "0"]],
            "m32": [["0", "0"], ["0", "0"], ["0", "0"]]}
    for shape in ("23", "32"):
        docs[f"terms{shape}"] = [docs[f"m{shape}"]]
        docs[f"phi{shape}"] = {"target": docs["ab2"], "map": docs[f"m{shape}"]}
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        files[name] = str(path)
    argv, wrong, right, message = _WRONG_SHAPE_CASES[case]
    assert main(argv(files, files[wrong])) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message.format(m=files[wrong])}\n"
    assert main(argv(files, files[right])) == 0


# -- documented forms only: rationals and object keys -------------------------


@pytest.mark.parametrize("text", ["1.5", "1_000", "1e3", "1e9999999", "+1", " 1", "1/2 ",
                                  "0x10", "١", "1/-2", "--1", "", "/2", "1/", "inf"])
def test_rational_outside_the_documented_forms_is_rejected(text):
    with pytest.raises(ParseError, match=r"^--x: bad rational .*expected an integer, 'p' or 'p/q'"):
        hio.rational_from_json(text, "--x")


def test_rational_documented_forms_are_accepted():
    for value, expected in ((7, 7), (-7, -7), ("7", 7), ("-7", -7), ("-6/4", Fraction(-3, 2)),
                            ("007/2", Fraction(7, 2)), ("0/5", 0)):
        assert hio.rational_from_json(value) == expected


def test_cli_rational_outside_the_format_is_usage_error_naming_where(tmp_path, capsys):
    files = _operator_files(tmp_path)
    assert main(["cohomology", "--algebra", files["alg"], "--coefficients", "trivial",
                 "--degree", "1", "--lambda", "1e9999999"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --lambda: bad rational '1e9999999':"
                            " expected an integer, 'p' or 'p/q'\n")
    op = tmp_path / "decimal.json"
    op.write_text('[["0","0","0"],["0","1.5","0"],["0","0","0"]]')
    assert main(["check", "nijenhuis", "--algebra", files["alg"], "--op", str(op)]) == 2
    assert capsys.readouterr().err.startswith("error: --op[1][1]: bad rational '1.5'")
    blob = hio.structure_to_json(fixture_b())
    blob["brackets"][0]["value"][2] = "1e2"
    alg = tmp_path / "exponent.json"
    alg.write_text(json.dumps(blob))
    assert main(["check", "structure", str(alg)]) == 2
    assert capsys.readouterr().err.startswith("error: algebra.brackets (1,2)[2]: bad rational")


def test_cli_json_integer_beyond_the_digit_limit_names_the_file(tmp_path, capsys):
    files = _operator_files(tmp_path)
    op = tmp_path / "huge.json"
    op.write_text("[[" + "1" * 5000 + "]]")
    assert main(["check", "nijenhuis", "--algebra", files["alg"], "--op", str(op)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {op}: invalid JSON: ")


def test_cli_file_that_is_not_utf8_names_the_file(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + "{}".encode("utf-16-le"))
    assert main(["check", "structure", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: invalid JSON: 'utf-8' codec can't decode")


@pytest.mark.parametrize("entry", [
    pytest.param("1" * 5000 + "x", id="bad-form"),
    pytest.param("1" * 5000, id="digit-limit",  # more digits than int() takes
                 marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                          reason="this interpreter has no digit limit")),
])
def test_cli_oversized_bad_rational_is_one_short_line_naming_where(tmp_path, capsys, entry):
    files = _operator_files(tmp_path)
    op = tmp_path / "long.json"
    op.write_text(json.dumps([["0", "0", "0"], ["0", entry, "0"], ["0", "0", "0"]]))
    assert main(["check", "nijenhuis", "--algebra", files["alg"], "--op", str(op)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --op[1][1]: bad rational '11111")
    assert err.count("\n") == 1 and len(err.encode()) < 200


# case: (document, key path to an object, the key renamed or None, the unknown key,
# argv given the files with the document as "bad", location in the message)
_UNKNOWN_KEY_CASES = {
    "algebra": ("alg", [], "brackets", "bracket",
                lambda f: ["check", "structure", f["bad"]], "algebra"),
    "algebra-entry": ("alg", ["brackets", 0], None, "k",
                      lambda f: ["check", "structure", f["bad"]], "algebra.brackets[0]"),
    "representation": ("rep", [], "action", "actions", lambda f: [
        "cohomology", "--algebra", f["alg"], "--coefficients", f"rep:{f['bad']}",
        "--degree", "1"], "representation"),
    "representation-entry": ("rep", ["action", 0], None, "w", lambda f: [
        "cohomology", "--algebra", f["alg"], "--coefficients", f"rep:{f['bad']}",
        "--degree", "1"], "representation.action[0]"),
    "action": ("act", [], "module_brackets", "module_bracket", lambda f: [
        "check", "relative-rb", "--algebra", f["alg"], "--action", f["bad"], "--op", f["op"]],
        "action"),
    "cochain": ("cochain", [], "coeffs", "coeff", lambda f: [
        "bracket", "--kind", "cup", "--algebra", f["alg"], "--p", f["bad"], "--q", f["bad"]],
        "cochain"),
    "cochain-entry": ("cochain", ["coeffs", 0], None, "comment", lambda f: [
        "bracket", "--kind", "cup", "--algebra", f["alg"], "--p", f["bad"], "--q", f["bad"]],
        "cochain.coeffs[0]"),
    "operator-wrapper": ("wrapped", [], "map", "mapp", lambda f: [
        "check", "nijenhuis", "--algebra", f["alg"], "--op", f["bad"]], "--op"),
    "morphism-wrapper": ("wrapped", [], None, "source", lambda f: [
        "check", "morphism", "--algebra", f["alg"], "--target", f["alg"], "--map", f["bad"]],
        "--map"),
    "morphism-file": ("wrapped", [], None, "source", lambda f: [
        "cohomology", "--algebra", f["alg"], "--coefficients", f"morphism:{f['bad']}",
        "--degree", "1"], "morphism:{bad}"),
}


def _unknown_key_docs():
    from homlie.structures import adjoint_representation, bracket_action_on_abelian
    B = fixture_b()
    blob = hio.structure_to_json(B)
    return {"alg": blob, "rep": hio.representation_to_json(adjoint_representation(B)),
            "act": hio.action_to_json(bracket_action_on_abelian(B)),
            "cochain": {"arity": 1, "coeffs": [{"tuple": [1], "value": ["1", "0", "0"]}]},
            # the {"target", "map"} wrapper of a matrix
            "wrapped": {"target": blob,
                        "map": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}}


@pytest.mark.parametrize("case", sorted(_UNKNOWN_KEY_CASES))
def test_cli_unknown_json_key_is_usage_error_naming_object_and_key(tmp_path, capsys, case):
    doc_name, path, renamed, key, argv, where = _UNKNOWN_KEY_CASES[case]
    doc = _unknown_key_docs()[doc_name]
    files = _operator_files(tmp_path)
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(doc))
    node = doc
    for k in path:
        node = node[k]
    node[key] = node.pop(renamed) if renamed else "1"
    bad.write_text(json.dumps(doc))
    # the document as written is accepted
    assert main(argv(dict(files, bad=str(good)))) in (0, 1)
    capsys.readouterr()
    assert main(argv(dict(files, bad=str(bad)))) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {where.format(bad=bad)}: unknown key {key!r}")


def test_cli_long_unknown_key_is_one_short_line(tmp_path, capsys):
    doc = hio.structure_to_json(fixture_b())
    doc["x" * 5000] = "1"
    path = tmp_path / "long-key.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "structure", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: algebra: unknown key 'xxx")
    assert captured.err.count("\n") == 1 and len(captured.err.encode()) < 200


@pytest.mark.parametrize("lam", ["5", "1e5"])
def test_cli_cohomology_lambda_needs_trivial_coefficients(tmp_path, capsys, lam):
    alg = tmp_path / "b.json"
    alg.write_text(hio.dumps(hio.structure_to_json(fixture_b())))
    assert main(["cohomology", "--algebra", str(alg), "--coefficients", "adjoint",
                 "--degree", "1", "--lambda", lam]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --lambda ")
