"""Property tests for RatFuncQ: ring axioms, inverses, canonical
uniqueness and the round trips through the num/den views and the
canonical string reader of `readback`.

Values are drawn from the ring RatFuncQ represents, Laurent polynomials
over products of cyclotomic polynomials Phi_d, and built as the library
builds them, from the multiplicities of their denominators
(`readback.over_cyclotomic`).  Its units are such products and monomials
over each other; `/` divides only by a monomial c q^e, and a unit is
checked against the inverse built from its factors.  Examples are
derandomized and bounded, so every run checks the same cases.
"""

from collections import Counter
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from qgen.qcore import ONE, ZERO, RatFuncQ  # noqa: E402
from qgen.qcore import _RULE_OUT_BITS, _divide_out  # noqa: E402
from readback import (cyclotomic, den_view, denotes, from_terms, num_view,  # noqa: E402
                      over_cyclotomic)

# the rule-out point of `_divide_out`
POINT = 2**_RULE_OUT_BITS

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None, database=None)


def times(a: dict, b: dict) -> dict:
    """Product of two {exponent: coefficient} Laurent polynomials."""
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def cyclotomic_product(ds: list[int]) -> dict:
    out = {0: 1}
    for d in ds:
        out = times(out, dict(enumerate(cyclotomic(d))))
    return out


coefficients = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))
laurent = st.dictionaries(st.integers(-4, 4), coefficients, max_size=4)
# c q^e and the prod Phi_d over d <= 12: the denominators of the ring are
# their products, and so are the numerators of its units
monomials = st.builds(lambda c, e: {e: c}, coefficients.filter(bool), st.integers(-3, 3))
phi_lists = st.lists(st.integers(1, 12), max_size=3)


def over(num: dict, monomial: dict, ds: list[int]) -> RatFuncQ:
    """num / (monomial prod Phi_d over ds)."""
    return over_cyclotomic(from_terms(num), Counter(ds)) / from_terms(monomial)


def unit_and_inverse(monomial: dict, ups: list[int], downs: list[int]) -> tuple[RatFuncQ, RatFuncQ]:
    """monomial prod Phi_d over ups / prod Phi_d over downs, and its inverse."""
    (e, c), = monomial.items()
    u = from_terms(times(monomial, cyclotomic_product(ups)))
    inverse = from_terms(times({-e: 1 / c}, cyclotomic_product(downs)))
    return over_cyclotomic(u, Counter(downs)), over_cyclotomic(inverse, Counter(ups))


ratfuncs = st.builds(over, laurent, monomials, phi_lists)
units = st.builds(unit_and_inverse, monomials, phi_lists, phi_lists)


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
@given(ratfuncs, units, monomials)
def test_field_inverse(f, unit, monomial):
    u, inverse = unit
    assert u * inverse == ONE
    assert (f * inverse) * u == f
    m = from_terms(monomial)
    assert m * m**-1 == ONE
    assert (f / m) * m == f


@PROPERTY
@given(laurent, monomials, phi_lists, monomials, phi_lists)
def test_canonical_uniqueness(num, m, ds, k, ks):
    # scaling num and den by the same unit numerator k prod Phi_d over ks
    # changes nothing stored
    f = over(num, m, ds)
    g = over(times(times(num, k), cyclotomic_product(ks)), times(m, k), ds + ks)
    assert g == f
    assert hash(g) == hash(f)
    assert g.to_canonical_string() == f.to_canonical_string()


@PROPERTY
@given(ratfuncs)
def test_views_round_trip(f):
    assert f * from_terms(den_view(f)) == from_terms(num_view(f))


@PROPERTY
@given(ratfuncs)
def test_canonical_string_round_trip(f):
    text = f.to_canonical_string()
    assert denotes(text, f)
    assert not denotes(text, f + ONE)


@PROPERTY
@given(ratfuncs, ratfuncs, coefficients, units, monomials)
def test_equal_values_hash_equal(f, g, c, unit, monomial):
    # a == b implies hash(a) == hash(b): for equal values built by different
    # routes, and for constants against the int and Fraction they equal
    pairs = [(f * g, g * f), ((f + g) - g, f), (f + g, g + f), (f * ONE, f),
             (RatFuncQ(c), c), (RatFuncQ(c) * ONE, c), (from_terms({0: c}), c),
             (RatFuncQ(c.numerator), c.numerator)]
    u, inverse, m = *unit, from_terms(monomial)
    pairs += [((f * u) * inverse, f), ((f * inverse) * u, f), ((f * m) / m, f), ((f / m) * m, f)]
    for a, b in pairs:
        assert a == b and b == a
        assert hash(a) == hash(b)
    assert len({f * g, g * f}) == 1


def long_division(num: list[int], d: int) -> list[int] | None:
    """num / Phi_d in Z[q] by dense long division by the monic
    `readback.cyclotomic(d)`, or None on a nonzero remainder."""
    div, rem = cyclotomic(d), list(num)
    quot = [0] * max(len(rem) - len(div) + 1, 0)
    for i in reversed(range(len(quot))):
        quot[i] = rem[i + len(div) - 1]
        for j, y in enumerate(div):
            rem[i + j] -= quot[i] * y
    return None if any(rem) else quot


def long_division_divide_out(num, den, cands):
    """`_divide_out` with no rule-out and no qcore helper: each Phi_d of
    cands divided out of num by long division while it divides, up to its
    multiplicity."""
    removed = Counter()
    for d, m in cands:
        while removed[d] < m and (quot := long_division(num, d)) is not None:
            num, removed[d] = quot, removed[d] + 1
    return num, tuple((d, m - removed[d]) for d, m in den if m > removed[d])


def multiplicities(ds: list[int]) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(Counter(ds).items()))


def reducer_numerator(cs: list[int], at_point: int | None, ds: list[int]) -> list[int]:
    """cs(q) prod Phi_d, times q - POINT + at_point (of that value at the
    rule-out point q = POINT) unless at_point is None."""
    poly = times(dict(enumerate(cs)), cyclotomic_product(ds))
    if at_point is not None:
        poly = times(poly, {0: at_point - POINT, 1: 1})
    return [poly.get(i, 0) for i in range(max(poly) + 1)]


# values at POINT of the extra linear factor: none, a root, and parts of
# Phi_1(POINT) = 255 = 3 * 5 * 17, whose primes the Phi_d(POINT) of other d
# share, so a count can run over and make a later one short
point_values = st.sampled_from([None, 0, (POINT - 1) // 3, (POINT - 1) // 5, (POINT - 1) // 17])

reducer_nums = st.builds(
    reducer_numerator, st.lists(st.integers(-6, 6), min_size=1, max_size=5).filter(lambda cs: cs[-1]),
    point_values, st.lists(st.integers(1, 12), max_size=4))


@PROPERTY
@given(reducer_nums, st.lists(st.integers(1, 12), min_size=1, max_size=5),
       st.lists(st.integers(1, 12), max_size=3))
# Phi_1 counted once too often takes the 3 or 5 that Phi_3, Phi_9 or Phi_5
# needs at POINT, so their counts fall short
@example(reducer_numerator([1], (POINT - 1) // 3, [3]), [1, 3], [])
@example(reducer_numerator([2, 1], (POINT - 1) // 5, [5, 5]), [1, 5, 5], [2])
@example(reducer_numerator([1], (POINT - 1) // 3, [9, 1]), [1, 1, 9], [])
def test_rule_out_keeps_the_long_division_result(num, den_ds, extra_ds):
    # the candidates are all of den, or the part of it that `+` tests
    den = multiplicities(den_ds + extra_ds)
    for cands in (den, multiplicities(den_ds)):
        got = _divide_out(list(num), den, cands)
        want = long_division_divide_out(list(num), den, cands)
        assert (list(got[0]), got[1]) == (list(want[0]), want[1])
