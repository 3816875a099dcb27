"""Property tests for RatFuncQ: field axioms, canonical uniqueness and the
round trips through the num/den views and the canonical string.

Examples are derandomized and bounded, so every run checks the same cases.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from qgen.qcore import ONE, ZERO, RatFuncQ  # noqa: E402

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None, database=None)

coefficients = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))
laurent = st.dictionaries(st.integers(-4, 4), coefficients, max_size=4)
nonzero_laurent = laurent.filter(lambda d: any(d.values()))
ratfuncs = st.builds(RatFuncQ, laurent, nonzero_laurent)
nonzero_ratfuncs = st.builds(RatFuncQ, nonzero_laurent, nonzero_laurent)


def times(a: dict, b: dict) -> dict:
    """Product of two {exponent: coefficient} Laurent polynomials."""
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return out


@PROPERTY
@given(ratfuncs, ratfuncs, ratfuncs)
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + ZERO == f
    assert f * ONE == f
    assert f - f == ZERO


@PROPERTY
@given(ratfuncs, nonzero_ratfuncs)
def test_field_inverse(f, g):
    assert g * g**-1 == ONE
    assert (f / g) * g == f


@PROPERTY
@given(laurent, nonzero_laurent, nonzero_laurent)
def test_canonical_uniqueness(num, den, k):
    # scaling num and den by the same nonzero k changes nothing stored
    f = RatFuncQ(num, den)
    g = RatFuncQ(times(num, k), times(den, k))
    assert g == f
    assert hash(g) == hash(f)
    assert g.to_canonical_string() == f.to_canonical_string()


@PROPERTY
@given(ratfuncs)
def test_views_round_trip(f):
    assert RatFuncQ(f.num, f.den) == f


@PROPERTY
@given(ratfuncs)
def test_canonical_string_round_trip(f):
    text = f.to_canonical_string()
    assert RatFuncQ.from_canonical_string(text) == f
    assert RatFuncQ.from_canonical_string(text).to_canonical_string() == text


@PROPERTY
@given(ratfuncs, ratfuncs, coefficients)
def test_equal_values_hash_equal(f, g, c):
    # a == b implies hash(a) == hash(b): for equal values built by different
    # routes, and for constants against the int and Fraction they equal
    pairs = [(f * g, g * f), ((f + g) - g, f), (f + g, g + f), (f * ONE, f),
             (RatFuncQ(c), c), (RatFuncQ(c) * ONE, c), (RatFuncQ({0: c}, {0: 1}), c),
             (RatFuncQ(c.numerator), c.numerator)]
    if g:
        pairs += [((f * g) / g, f), ((f / g) * g, f)]
    for a, b in pairs:
        assert a == b and b == a
        assert hash(a) == hash(b)
    assert len({f * g, g * f}) == 1
