"""Property test: the rooted comparison is exact on equality cases, where
W^(1/p) = U^(1/p) + V^(1/p) holds with rational roots."""

from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from fiberdist.power import rooted_le

roots = st.fractions(min_value=0, max_value=2, max_denominator=30)


@settings(max_examples=300, deadline=None)
@given(roots, roots, st.booleans(), st.integers(1, 4))
def test_rational_roots_decide_exactly(r, s, complement, p):
    # W = 1, U = r^p, V = s^p: 1 <= r + s is the whole question.  Half the
    # draws with r <= 1 take s = 1 - r, the equality case.
    if complement and r <= 1:
        s = 1 - r
    assert rooted_le(F(1), r**p, s**p, p) is (r + s >= 1)
