"""JSON serialization of structures, cochains and operators.

Rationals travel as canonical strings ("3", "-1/2"); non-canonical inputs
like "2/4" are accepted and normalized.  Basis indices are 1-based in files
and 0-based in memory.  Parsing is strict: out-of-range indices, duplicate
entries, wrong-length value vectors, unknown object keys and rationals in any
other form than an integer, "p" or "p/q" are rejected with a location.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .linalg import Mat, Vec, rat, rat_str
from .cochains import SkewCochain, TwistedSpace
from .structures import (HomLieAction, HomLieAlgebra, RawHomStructure, Representation,
                         as_hom_lie)


class ParseError(ValueError):
    """Malformed input file; message carries the offending location."""


def _int_in(x, lo: int | None = None, hi: int | None = None) -> bool:
    """Whether x is a JSON integer in lo..hi (either bound optional).

    JSON booleans load as Python bools, which are ints; they are rejected.
    """
    if isinstance(x, bool) or not isinstance(x, int):
        return False
    return (lo is None or x >= lo) and (hi is None or x <= hi)


# Fraction() alone would also take decimals, exponents and digit separators;
# "1e9999999" builds a ten-million-digit integer.
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _shown(x, limit: int = 32) -> str:
    """repr(x) for an error message, cut after ``limit`` characters when longer."""
    text = repr(x)
    return text if len(text) <= limit else f"{text[:limit]}... (cut from {len(text)} characters)"


def _known_keys(obj: dict, keys: tuple[str, ...], where: str) -> None:
    """Reject a key the format does not define, which would otherwise default silently."""
    unknown = sorted(set(obj) - set(keys))
    if unknown:
        raise ParseError(f"{where}: unknown key {_shown(unknown[0])}"
                         f" (known keys: {', '.join(map(repr, keys))})")


def rational_from_json(x, where: str = "rational") -> Fraction:
    """An integer, or a string "p" or "p/q" of decimal integers; ``where`` names it in errors."""
    if isinstance(x, bool) or not (isinstance(x, int)
                                   or isinstance(x, str) and _RATIONAL.fullmatch(x)):
        raise ParseError(f"{where}: bad rational {_shown(x)}: expected an integer, 'p' or 'p/q'")
    try:
        return rat(x)
    except (ValueError, ZeroDivisionError) as exc:
        # A digit-limit error ends in advice to call sys.set_int_max_str_digits(); cut it.
        reason = ("zero denominator" if isinstance(exc, ZeroDivisionError)
                  else str(exc).partition(";")[0])
        raise ParseError(f"{where}: bad rational {_shown(x)}: {reason}") from exc


def vec_to_json(v: Vec) -> list[str]:
    return [rat_str(e) for e in v.entries]


def vec_from_json(obj, dim: int, where: str) -> Vec:
    if not isinstance(obj, list) or len(obj) != dim:
        raise ParseError(f"{where}: expected a value vector of length {dim}")
    return Vec(tuple(rational_from_json(e, f"{where}[{k}]") for k, e in enumerate(obj)))


def matrix_to_json(m: Mat) -> list[list[str]]:
    return [[rat_str(e) for e in row] for row in m.rows]


def matrix_from_json(obj, where: str = "matrix") -> Mat:
    if isinstance(obj, dict):
        _known_keys(obj, ("map", "target"), where)
        obj = obj.get("map")
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise ParseError(f"{where}: expected a 2-d array of rationals")
    width = len(obj[0])
    if any(len(r) != width for r in obj):
        raise ParseError(f"{where}: ragged rows")
    return Mat.make([[rational_from_json(e, f"{where}[{r}][{c}]") for c, e in enumerate(row)]
                     for r, row in enumerate(obj)])


def _bracket_cochain(entries, space: TwistedSpace, where: str) -> SkewCochain:
    """Parse [{"i": i, "j": j, "value": [...]}] (1-based, i < j) into a 2-cochain."""
    dim = space.dim
    table = {}
    entries = [] if entries is None else entries
    if not isinstance(entries, list):
        raise ParseError(f"{where}: expected a list of entries")
    for pos, entry in enumerate(entries):
        loc = f"{where}[{pos}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{loc}: expected an object")
        _known_keys(entry, ("i", "j", "value"), loc)
        try:
            i, j = entry["i"], entry["j"]
        except KeyError as exc:
            raise ParseError(f"{loc}: missing key {exc}") from exc
        if not _int_in(i) or not _int_in(j):
            raise ParseError(f"{loc}: indices must be integers")
        if not _int_in(i, 1, dim) or not _int_in(j, 1, dim):
            raise ParseError(f"{loc}: index out of range 1..{dim}")
        key = (i - 1, j - 1)
        if key in table:
            raise ParseError(f"{loc}: duplicate entry for ({i}, {j})")
        table[key] = entry.get("value")
    coeffs = {}
    for (i, j), value in table.items():
        if i >= j:
            raise ParseError(f"{where}: need i < j, got ({i + 1}, {j + 1})")
        coeffs[(i, j)] = vec_from_json(value, dim, f"{where} ({i + 1},{j + 1})")
    return SkewCochain(space, space, 2, coeffs)


def structure_to_json(s: RawHomStructure) -> dict:
    brackets = []
    for (i, j), value in sorted(s.mu.coeffs.items()):
        brackets.append({"i": i + 1, "j": j + 1, "value": vec_to_json(value)})
    return {"dim": s.dim, "alpha": matrix_to_json(s.alpha), "brackets": brackets}


def structure_from_json(obj) -> RawHomStructure:
    if not isinstance(obj, dict):
        raise ParseError("algebra: expected a JSON object")
    _known_keys(obj, ("dim", "alpha", "brackets"), "algebra")
    dim = obj.get("dim")
    if not _int_in(dim, 1):
        raise ParseError("algebra: 'dim' must be a positive integer")
    alpha = matrix_from_json(obj.get("alpha"), "algebra.alpha")
    if alpha.nrows != dim or alpha.ncols != dim:
        raise ParseError(f"algebra.alpha: expected a {dim}x{dim} matrix")
    space = TwistedSpace(alpha)
    return RawHomStructure(space, _bracket_cochain(obj.get("brackets"), space, "algebra.brackets"))


def algebra_from_json(obj) -> HomLieAlgebra:
    """Parse and promote; raises ValueError when the invariants fail."""
    return as_hom_lie(structure_from_json(obj))


def _module_from_json(obj, where: str) -> TwistedSpace:
    mdim = obj.get("module_dim")
    if not _int_in(mdim, 1):
        raise ParseError(f"{where}: 'module_dim' must be a positive integer")
    beta = matrix_from_json(obj.get("beta"), f"{where}.beta")
    if beta.nrows != mdim or beta.ncols != mdim:
        raise ParseError(f"{where}.beta: expected a {mdim}x{mdim} matrix")
    return TwistedSpace(beta)


def _action_table(obj, gdim: int, module: TwistedSpace, where: str):
    entries = obj.get("action")
    table = [[Vec.zero(module.dim) for _ in range(module.dim)] for _ in range(gdim)]
    if entries is None:
        return tuple(tuple(row) for row in table)
    if not isinstance(entries, list):
        raise ParseError(f"{where}.action: expected a list of entries")
    seen = set()
    for pos, entry in enumerate(entries):
        loc = f"{where}.action[{pos}]"
        if not isinstance(entry, dict) or "g" not in entry or "v" not in entry:
            raise ParseError(f"{loc}: expected keys 'g', 'v', 'value'")
        _known_keys(entry, ("g", "v", "value"), loc)
        g, v = entry["g"], entry["v"]
        if not _int_in(g, 1, gdim):
            raise ParseError(f"{loc}: 'g' out of range 1..{gdim}")
        if not _int_in(v, 1, module.dim):
            raise ParseError(f"{loc}: 'v' out of range 1..{module.dim}")
        if (g, v) in seen:
            raise ParseError(f"{loc}: duplicate entry for (g={g}, v={v})")
        seen.add((g, v))
        table[g - 1][v - 1] = vec_from_json(entry.get("value"), module.dim, loc)
    return tuple(tuple(row) for row in table)


def representation_from_json(algebra: HomLieAlgebra, obj) -> Representation:
    """Module data {"module_dim", "beta", "action": [{"g", "v", "value"}]}."""
    if not isinstance(obj, dict):
        raise ParseError("representation: expected a JSON object")
    _known_keys(obj, ("module_dim", "beta", "action"), "representation")
    module = _module_from_json(obj, "representation")
    table = _action_table(obj, algebra.dim, module, "representation")
    return Representation(algebra, module, table)


def representation_to_json(rep: Representation) -> dict:
    action = []
    for i, row in enumerate(rep.table):
        for j, value in enumerate(row):
            if not value.is_zero():
                action.append({"g": i + 1, "v": j + 1, "value": vec_to_json(value)})
    return {"module_dim": rep.module.dim, "beta": matrix_to_json(rep.module.alpha),
            "action": action}


def action_from_json(acting: HomLieAlgebra, obj) -> HomLieAction:
    """Like a representation, plus "module_brackets" for the acted algebra.

    Missing "module_brackets" means the acted algebra is abelian.
    """
    if not isinstance(obj, dict):
        raise ParseError("action: expected a JSON object")
    _known_keys(obj, ("module_dim", "beta", "action", "module_brackets"), "action")
    module = _module_from_json(obj, "action")
    mu = _bracket_cochain(obj.get("module_brackets"), module, "action.module_brackets")
    acted = as_hom_lie(RawHomStructure(module, mu))
    table = _action_table(obj, acting.dim, module, "action")
    return HomLieAction(acting, acted, table)


def action_to_json(a: HomLieAction) -> dict:
    out = representation_to_json(a)
    out["module_brackets"] = structure_to_json(a.acted)["brackets"]
    return out


def cochain_to_json(f: SkewCochain) -> dict:
    coeffs = []
    for key, value in sorted(f.coeffs.items()):
        coeffs.append({"tuple": [i + 1 for i in key], "value": vec_to_json(value)})
    return {"arity": f.arity, "coeffs": coeffs}


def cochain_from_json(domain: TwistedSpace, codomain: TwistedSpace, obj) -> SkewCochain:
    """Parse {"arity": n, "coeffs": [{"tuple": [...], "value": [...]}]}."""
    if not isinstance(obj, dict):
        raise ParseError("cochain: expected a JSON object")
    _known_keys(obj, ("arity", "coeffs"), "cochain")
    arity = obj.get("arity")
    if not _int_in(arity, 1):
        raise ParseError("cochain: 'arity' must be a positive integer")
    entries = obj.get("coeffs", [])
    if not isinstance(entries, list):
        raise ParseError("cochain.coeffs: expected a list")
    table = {}
    for pos, entry in enumerate(entries):
        loc = f"cochain.coeffs[{pos}]"
        if not isinstance(entry, dict) or "tuple" not in entry:
            raise ParseError(f"{loc}: expected keys 'tuple', 'value'")
        _known_keys(entry, ("tuple", "value"), loc)
        key = entry["tuple"]
        if (not isinstance(key, list) or len(key) != arity
                or not all(_int_in(i) for i in key)):
            raise ParseError(f"{loc}: 'tuple' must be {arity} integers")
        if not all(_int_in(i, 1, domain.dim) for i in key):
            raise ParseError(f"{loc}: index out of range 1..{domain.dim}")
        if any(a >= b for a, b in zip(key, key[1:])):
            raise ParseError(f"{loc}: 'tuple' must be strictly increasing")
        zkey = tuple(i - 1 for i in key)
        if zkey in table:
            raise ParseError(f"{loc}: duplicate tuple {key}")
        table[zkey] = vec_from_json(entry.get("value"), codomain.dim, loc)
    return SkewCochain(domain, codomain, arity, table)


def dumps(obj) -> str:
    """Canonical JSON text: sorted keys, stable separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
