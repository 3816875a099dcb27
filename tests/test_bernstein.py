"""Weighted q-Bernstein basis: values, symmetry, completeness, operator."""

import re
import time
from fractions import Fraction
from math import comb

import pytest

from qgen.bernstein import (
    BernsteinIndex,
    _basis,
    bernstein_operator,
    bernstein_poly,
    bernstein_symmetry_check,
)
from qgen.qcore import ONE, ZERO, qbracket
from readback import from_terms


class TestBasisValues:
    def test_empty_product(self):
        assert bernstein_poly(BernsteinIndex(0, 0, 1), 7) == ONE

    def test_right_factor_at_zero(self):
        assert bernstein_poly(BernsteinIndex(0, 2, 2), 0) == ONE

    def test_laurent_value(self):
        # 2 [2]_q [-1]_{1/q} = -2q(1+q)
        got = bernstein_poly(BernsteinIndex(1, 2, 1), 2)
        assert got == from_terms({1: -2, 2: -2})

    def test_index_validation(self):
        with pytest.raises(IndexError, match="^basis index k=3 exceeds degree n=2$"):
            BernsteinIndex(3, 2, 1)
        for k, n in ((-1, 2), (0, -1)):
            with pytest.raises(IndexError, match="^basis indices must be nonnegative$"):
                BernsteinIndex(k, n, 1)
        with pytest.raises(ValueError, match="^weight alpha must be a positive integer$"):
            BernsteinIndex(0, 2, 0)

    @pytest.mark.parametrize("alpha", range(1, 5))
    @pytest.mark.parametrize("x", range(-4, 6))
    def test_old_definition(self, alpha, x):
        # the basis built by one sparse step per index against the
        # definition by powers of the two brackets, x = 0 and 1 included
        for n in range(13):
            for k in range(n + 1):
                want = comb(n, k) * qbracket(x, alpha) ** k * qbracket(1 - x, -alpha) ** (n - k)
                got = bernstein_poly(BernsteinIndex(k, n, alpha), x)
                assert got.to_canonical_string() == want.to_canonical_string(), (k, n, alpha, x)

    @pytest.mark.parametrize("bad", [2.0, 0.5, Fraction(1, 2), "2"])
    def test_non_int_point(self, bad):
        # each refusal follows the int call at the same (n, alpha), so a
        # basis cached at x = 2 cannot answer for 2.0
        idx = BernsteinIndex(1, 2, 1)
        calls = [lambda x: bernstein_poly(idx, x),
                 lambda x: bernstein_symmetry_check(idx, x),
                 lambda x: bernstein_operator([1, 1, 1], 2, 1, x)]
        for call in calls:
            call(2)
            with pytest.raises(TypeError):
                call(bad)

    @pytest.mark.parametrize("bad", [2.0, Fraction(2), "2"])
    def test_non_int_index(self, bad):
        # k, n and alpha in turn, each refused after the int index
        for name, fields in (("k", (bad, 2, 2)), ("n", (1, bad, 2)), ("alpha", (1, 2, bad))):
            bernstein_poly(BernsteinIndex(*(2 if f is bad else f for f in fields)), 3)
            message = f"^basis {name} must be an int, got {re.escape(repr(bad))}$"
            with pytest.raises(TypeError, match=message):
                BernsteinIndex(*fields)
        bernstein_operator([1, 1, 1], 2, 1, 3)
        with pytest.raises(TypeError):
            bernstein_operator([1, 1, 1], bad, 1, 3)


class TestSymmetry:
    def test_trivial_case(self):
        record = bernstein_symmetry_check(BernsteinIndex(0, 1, 1), 0)
        assert record.status == "PASS"

    def test_sample_case(self):
        record = bernstein_symmetry_check(BernsteinIndex(1, 3, 2), 2)
        assert record.status == "PASS"

    @pytest.mark.parametrize("n", range(6))
    @pytest.mark.parametrize("alpha", [1, 2, 3])
    @pytest.mark.parametrize("x", range(-1, 4))
    def test_full_grid(self, n, alpha, x):
        for k in range(n + 1):
            record = bernstein_symmetry_check(BernsteinIndex(k, n, alpha), x)
            assert record.status == "PASS", (k, n, alpha, x)

    def test_deep_sweep_within_ceiling(self):
        # every k at n = 120 reads two bases; squaring the brackets per
        # index took 0.67 s on a 2-core x86 VM
        _basis.cache_clear()
        start = time.perf_counter()
        for k in range(121):
            assert bernstein_symmetry_check(BernsteinIndex(k, 120, 3), 3).status == "PASS"
        assert time.perf_counter() - start < 0.3


class TestCompleteness:
    @pytest.mark.parametrize("n", range(6))
    @pytest.mark.parametrize("alpha", [1, 2, 3])
    @pytest.mark.parametrize("x", range(-3, 4))
    def test_binomial_completeness(self, n, alpha, x):
        total = ZERO
        for k in range(n + 1):
            total = total + bernstein_poly(BernsteinIndex(k, n, alpha), x)
        assert total == (qbracket(x, alpha) + qbracket(1 - x, -alpha)) ** n


class TestOperator:
    def test_constant_one(self):
        got = bernstein_operator([1, 1, 1], n=2, alpha=1, x=3)
        assert got == (qbracket(3, 1) + qbracket(-2, -1)) ** 2

    def test_zero_function(self):
        assert bernstein_operator([0, 0, 0], n=2, alpha=1, x=1) == ZERO

    def test_constant_scales(self):
        c = Fraction(3, 7)
        got = bernstein_operator([c, c, c, c], n=3, alpha=2, x=2)
        assert got == c * (qbracket(2, 2) + qbracket(-1, -2)) ** 3

    def test_linearity_in_samples(self):
        f = [Fraction(1), Fraction(2), Fraction(-1)]
        g = [Fraction(0), Fraction(1, 2), Fraction(5)]
        combo = [2 * a + 3 * b for a, b in zip(f, g)]
        lhs = bernstein_operator(combo, n=2, alpha=2, x=1)
        rhs = 2 * bernstein_operator(f, n=2, alpha=2, x=1) + 3 * bernstein_operator(
            g, n=2, alpha=2, x=1
        )
        assert lhs == rhs

    @pytest.mark.parametrize("bad", [0.1, 0.5, "1/2", None])
    def test_only_exact_samples(self, bad):
        # Fraction() would read 0.1 as a dyadic rational and "1/2" as text
        with pytest.raises(TypeError):
            bernstein_operator([bad, 1], 1, 1, 2)
        with pytest.raises(TypeError):
            bernstein_operator([1, bad], 1, 1, 2)
        half = Fraction(1, 2)
        assert bernstein_operator([half, 1], 1, 1, 2) == half * qbracket(-1, -1) + qbracket(2, 1)

    def test_arity_error(self):
        with pytest.raises(ValueError):
            bernstein_operator([1, 2], n=2, alpha=1, x=0)
        with pytest.raises(ValueError):
            bernstein_operator([1], n=0, alpha=1, x=0)
