"""Random JSON values into the parsers: a rejection is a ParseError or a ValueError.

``cli.main`` turns both into exit 2 with the message; any other exception
would escape as a traceback.  Besides arbitrary JSON, the values are objects
of the formats' own keys with fields mostly of the expected shape: small
indices, rational strings with zero denominators, signs and other forms, and
vectors and matrices of them, so that many get past the first checks.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from homlie.cochains import TwistedSpace  # noqa: E402
from homlie.io import cochain_from_json, matrix_from_json, structure_from_json  # noqa: E402
from homlie.linalg import Mat  # noqa: E402

# strings a rational field must reject: zero denominators, decimals, exponents, spaces
ODD = ("1/0", "0/0", "1.5", "1e3", " 1", "/", "", "-", "2/-3", "+1")

anything = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=8)


def field(likely, odds: int = 8):
    """A value of the expected shape, except one time in ``odds`` an odd string or any JSON."""
    return st.integers(1, odds).flatmap(
        lambda k: likely if k > 1 else st.one_of(st.sampled_from(ODD), anything))


rational = field(st.one_of(st.integers(-3, 3), st.sampled_from(("0", "-0", "1/2", "-3/4", "2/4"))),
                 odds=24)


def vector(n: int):
    return st.lists(rational, min_size=n, max_size=n)


def rows(n: int, width: int):
    return st.lists(vector(width), min_size=n, max_size=n)


matrices = st.integers(1, 3).flatmap(lambda n: st.integers(1, 3).flatmap(
    lambda width: field(st.one_of(rows(n, width), st.fixed_dictionaries(
        {"map": field(rows(n, width))}, optional={"target": anything})))))


@st.composite
def structures(draw):
    n = draw(st.integers(1, 3))
    index = field(st.integers(0, n + 1))
    entry = st.fixed_dictionaries({"i": index, "j": index},
                                  optional={"value": field(vector(n))})
    return draw(st.fixed_dictionaries({"dim": field(st.just(n)), "alpha": field(rows(n, n))},
                                      optional={"brackets": field(st.lists(entry, max_size=3))}))


@st.composite
def cochains(draw):
    arity = draw(st.integers(1, 3))
    entry = st.fixed_dictionaries(
        {"tuple": field(st.lists(st.integers(0, 4), min_size=arity, max_size=arity))},
        optional={"value": field(vector(2))})
    return draw(st.fixed_dictionaries({"arity": field(st.just(arity))},
                                      optional={"coeffs": field(st.lists(entry, max_size=3))}))


json_values = st.one_of(anything, matrices, structures(), cochains())

DOMAIN = TwistedSpace(Mat([[1, 1, 0], [0, 1, 0], [0, 0, 2]]))
CODOMAIN = TwistedSpace(Mat([[2, 0], [0, 1]]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(json_values)
def test_parsers_reject_only_with_value_errors(obj):
    for parse in (structure_from_json, matrix_from_json,
                  lambda x: cochain_from_json(DOMAIN, CODOMAIN, x)):
        try:
            parse(obj)
        except ValueError:  # ParseError is a ValueError
            pass
