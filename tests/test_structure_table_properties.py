"""The cached structure table against the independent ``evaluate`` route.

``RawHomStructure.bracket`` serves every bracket from the skew basis table
``s.table``; evaluating the bracket cochain ``s.mu`` directly is the oracle.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from homlie.cochains import evaluate  # noqa: E402
from homlie.linalg import Vec  # noqa: E402
from homlie.structures import (check_multiplicative, fixture_3dim,  # noqa: E402
                               fixture_jackson_sl2)
from homlie.theorems import default_fixtures  # noqa: E402

SETTINGS = settings(max_examples=40, deadline=None)

rationals = st.builds(Fraction, st.integers(-12, 12), st.sampled_from((1, 1, 1, 2, 3, 5)))

# every default fixture, plus two raw structures that are not multiplicative
STRUCTURES = dict(default_fixtures())
STRUCTURES["jackson-sl2-q2"] = fixture_jackson_sl2("2")
STRUCTURES["threedim-a1-d1"] = fixture_3dim(1, 1, 1, 1)


def test_raw_structures_are_not_multiplicative():
    assert not check_multiplicative(STRUCTURES["jackson-sl2-q2"])
    assert not check_multiplicative(STRUCTURES["threedim-a1-d1"])


@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_table_is_skew_with_zero_diagonal(name):
    s = STRUCTURES[name]
    table = s.table
    assert len(table) == s.dim and all(len(row) == s.dim for row in table)
    for i in range(s.dim):
        assert table[i][i].is_zero()
        for j in range(s.dim):
            assert table[i][j] == -table[j][i]
            assert table[i][j] == evaluate(s.mu, [s.space.basis_vec(i), s.space.basis_vec(j)])
    assert s.table is table


@pytest.mark.parametrize("name", sorted(STRUCTURES))
@SETTINGS
@given(data=st.data())
def test_table_bracket_matches_evaluate(name, data):
    s = STRUCTURES[name]
    vec = st.lists(rationals, min_size=s.dim, max_size=s.dim).map(Vec)
    x, y = data.draw(vec), data.draw(vec)
    assert s.bracket(x, y) == evaluate(s.mu, [x, y])
