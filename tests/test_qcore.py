"""Core arithmetic: canonical rational functions, q-brackets, and the
reflection identity."""

import math
import os
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from qgen import qcore
from qgen.genocchi import _recurrence_number, _recurrence_numerator
from qgen.qcore import (
    ONE,
    PoleError,
    RatFuncQ,
    ZERO,
    eval_at,
    q_power,
    qbracket,
)
from qgen.qcore import (
    _RULE_OUT_BITS,
    _at_point,
    _den_poly,
    _div_binomial,
    _divide_out,
    _int_mul,
    _one_plus_lcm,
    _over_one_plus,
    _shared_prefactor,
    _sum_over_one_plus,
    _times_cyclotomic,
    _trim,
)
from readback import (Q, cross_sum, cyclotomic, den_view, denotes, num_view,
                      one_minus_power, over_cyclotomic, read_canonical)


def qbracket_reflect(x: int, alpha: int, n: int) -> tuple[RatFuncQ, RatFuncQ]:
    """Both sides of [1-x]_{q^-a}^n == (-1)^n q^(n a) [x-1]_{q^a}^n."""
    if alpha < 1:
        raise ValueError("weight must be a positive integer")
    if n < 0:
        raise ValueError("power must be nonnegative")
    lhs = qbracket(1 - x, -alpha) ** n
    rhs = (-1) ** n * q_power(n * alpha) * qbracket(x - 1, alpha) ** n
    return lhs, rhs


def bracket_oracle(x: int, a: int, q0: Fraction) -> Fraction:
    """Independent numeric oracle: (1 - q0^(a x)) / (1 - q0^a)."""
    return (1 - q0 ** (a * x)) / (1 - q0**a)


def random_laurent(rng: random.Random, allow_zero: bool = True) -> dict[int, Fraction]:
    terms = {}
    for _ in range(rng.randint(0 if allow_zero else 1, 4)):
        terms[rng.randint(-4, 4)] = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    return {e: c for e, c in terms.items() if c}


def random_monomial(rng: random.Random) -> RatFuncQ:
    return Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4)) * q_power(rng.randint(-3, 3))


def random_ratfunc(rng: random.Random) -> RatFuncQ:
    """A Laurent polynomial over c q^e prod Phi_d, up to three d <= 12."""
    mults = Counter(rng.randint(1, 12) for _ in range(rng.randint(0, 3)))
    return over_cyclotomic(random_laurent(rng), mults) / random_monomial(rng)


def random_unit(rng: random.Random) -> tuple[RatFuncQ, RatFuncQ]:
    """A unit of the ring and its inverse: c q^e times up to three
    (1 - q^m)^(+-1) and (1 - q^m)^(+-2), |m| <= 8."""
    u = random_monomial(rng)
    inverse = u**-1
    for _ in range(rng.randint(0, 3)):
        m, k = rng.choice([-8, -5, -3, -2, -1, 1, 2, 3, 4, 6]), rng.choice([-2, -1, 1, 2])
        u, inverse = u * one_minus_power(m, k), inverse * one_minus_power(m, -k)
    return u, inverse


# the rule-out point of `_divide_out`: Phi_1(POINT) = 255 = 3 * 5 * 17, and
# 3 divides Phi_3(POINT) = 65,793
POINT = 2**_RULE_OUT_BITS


def record_divisions(monkeypatch) -> list:
    """Patch qcore's exact divisions by Phi_d products to record each call
    as (multiplicities, raised) in the list returned."""
    calls, divide = [], qcore._times_cyclotomic

    def recorded(a, mults):
        try:
            out = divide(a, mults)
        except ArithmeticError:
            calls.append((mults, True))
            raise
        calls.append((mults, False))
        return out

    monkeypatch.setattr(qcore, "_times_cyclotomic", recorded)
    return calls


class TestQBracket:
    def test_empty_sum(self):
        assert qbracket(0, 1) == ZERO

    def test_two(self):
        assert qbracket(2, 1) == RatFuncQ({0: 1, 1: 1})

    def test_scaled(self):
        assert qbracket(3, 2) == RatFuncQ({0: 1, 2: 1, 4: 1})

    def test_negative_argument(self):
        # (1 - q^-1)/(1 - q) canonicalizes to -q^-1
        assert qbracket(-1, 1) == RatFuncQ({-1: -1})

    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError):
            qbracket(3, 0)

    @pytest.mark.parametrize("bad", [2.0, 0.0, Fraction(2), "2"])
    def test_non_int_arguments(self, bad):
        # refused at the door, not later in list arithmetic or a printer:
        # q^2.0 has no canonical string, and [0.0] is no value
        for call in (lambda: qbracket(bad, 1), lambda: qbracket(2, bad), lambda: q_power(bad)):
            with pytest.raises(TypeError, match="must be an int"):
                call()
        assert q_power(1) == qbracket(2, 1) - ONE

    @pytest.mark.parametrize("x", range(-6, 7))
    @pytest.mark.parametrize("a", [-3, -2, -1, 1, 2, 3])
    def test_definition_identity(self, x, a):
        # [x]_a (1 - q^a) + q^(a x) == 1
        assert qbracket(x, a) * (ONE - q_power(a)) + q_power(a * x) == ONE

    @pytest.mark.parametrize("x", range(-4, 5))
    @pytest.mark.parametrize("a", [-2, 1, 3])
    def test_against_numeric_oracle(self, x, a):
        for q0 in (Fraction(2), Fraction(5), Fraction(3, 2)):
            assert eval_at(qbracket(x, a), q0) == bracket_oracle(x, a, q0)

    def test_two_bracket_is_one_plus_q(self):
        assert qbracket(2, 1) == ONE + Q
        assert eval_at(qbracket(2, 1), 1) == 2

    @pytest.mark.parametrize("a", [-5, -4, -3, -2, -1, 1, 2, 3, 4, 5])
    def test_matches_generic_quotient(self, a):
        # qbracket builds its canonical form directly: times 1 - q^a it is
        # 1 - q^(a x), and it equals the geometric sum the constructor
        # builds, hash included
        for x in range(-12, 13):
            if x:
                assert qbracket(x, a) * RatFuncQ({0: 1, a: -1}) == RatFuncQ({0: 1, a * x: -1})
                generic = RatFuncQ({a * i: 1 if x > 0 else -1 for i in range(min(0, x), max(0, x))})
                assert qbracket(x, a) == generic
                assert hash(qbracket(x, a)) == hash(generic)


class TestArithmetic:
    def test_cancellation(self):
        # (1 - q^2) / Phi_1 = -(1 + q)
        f = over_cyclotomic({0: 1, 2: -1}, {1: 1})
        assert f == RatFuncQ({0: -1, 1: -1})
        # sums whose numerator shares a factor with the common denominator:
        # 1 + q = Phi_2, 1 + q^2 = Phi_4 and 1 + q^4 = Phi_8
        assert over_cyclotomic(1, {2: 1}) + over_cyclotomic(Q, {2: 1}) == ONE
        s = over_cyclotomic(1, {2: 1, 4: 1}) - over_cyclotomic(1, {2: 1, 8: 1})
        assert s * (ONE + Q**2) * (ONE + Q**4) == q_power(2) * (Q - ONE)
        assert s._den == ((4, 1), (8, 1))

    def test_expansion(self):
        assert RatFuncQ({0: 1, 1: 1}) * RatFuncQ({0: 1, 2: 1}) == RatFuncQ(
            {0: 1, 1: 1, 2: 1, 3: 1}
        )

    def test_inverse_power(self):
        # negative powers of c q^s, the only values with an inverse here
        f = Fraction(-2, 3) * q_power(4)
        assert f**-1 == Fraction(-3, 2) * q_power(-4)
        assert f**-3 == Fraction(-27, 8) * q_power(-12)
        assert f**-2 * f**2 == ONE

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ONE / ZERO
        with pytest.raises(ZeroDivisionError):
            ZERO**-1

    def test_field_axioms_randomized(self):
        rng = random.Random(20240811)
        for _ in range(60):
            f, g, h = (random_ratfunc(rng) for _ in range(3))
            u, inverse = random_unit(rng)
            assert f + g == g + f
            assert (f + g) + h == f + (g + h)
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert f + ZERO == f
            assert f * ONE == f
            assert (f * inverse) * u == f
            assert u * inverse == ONE

    def test_canonical_uniqueness_vs_eval(self):
        # equal canonical forms iff values agree at enough sample points
        rng = random.Random(7)
        points = [Fraction(k, d) for k in range(2, 40) for d in (1, 3, 7)]
        for _ in range(120):
            f, g = random_ratfunc(rng), random_ratfunc(rng)
            diff = f - g
            if f == g:
                assert not diff
                continue
            # a nonzero rational function has finitely many roots
            span = max(num_view(diff)) - min(num_view(diff))
            disagreements = 0
            tried = 0
            for q0 in points:
                if tried > span + 3:
                    break
                try:
                    lv, rv = f.eval_at(q0), g.eval_at(q0)
                except PoleError:
                    continue
                tried += 1
                if lv != rv:
                    disagreements += 1
            assert disagreements > 0

    def test_scalar_coercion(self):
        f = qbracket(2, 1)
        assert 1 + f == f + 1 == RatFuncQ({0: 2, 1: 1})
        assert 2 * f == f * 2
        assert f - 1 == Q
        assert 1 - f == -Q
        assert Fraction(1, 2) * f == f / 2
        assert 6 / q_power(2) == RatFuncQ(6) / q_power(2) == RatFuncQ({-2: 6})


class TestSubstQInverse:
    def test_monomial(self):
        assert q_power(3).subst_q_inverse() == q_power(-3)

    def test_ratio(self):
        # (1 + q) / (1 + q^2), and 1 + q^2 = Phi_4
        f = over_cyclotomic({0: 1, 1: 1}, {4: 1})
        g = f.subst_q_inverse()
        assert g * RatFuncQ({0: 1, 2: 1}) == RatFuncQ({1: 1, 2: 1})
        # numeric cross-check at q = 5
        assert g.eval_at(5) == f.eval_at(Fraction(1, 5))
        # reversing 1 - 2q gives a negative leading coefficient to move out
        over_phi2 = over_cyclotomic(1, {2: 1})
        assert ((ONE - 2 * Q) * over_phi2).subst_q_inverse() == (Q - 2) * over_phi2
        # Phi_1(1/q) = -q^-1 Phi_1(q): an odd power of Phi_1 flips the sign
        over_phi1 = over_cyclotomic(1, {1: 1})
        assert (over_phi1**3).subst_q_inverse() == -Q**3 * over_phi1**3
        assert (over_phi1**2).subst_q_inverse() == Q**2 * over_phi1**2

    def test_zero_fixed_point(self):
        assert ZERO.subst_q_inverse() == ZERO

    def test_involution_randomized(self):
        rng = random.Random(99)
        for _ in range(100):
            f = random_ratfunc(rng)
            assert f.subst_q_inverse().subst_q_inverse() == f


class TestEvalAt:
    def test_polynomial(self):
        assert eval_at(RatFuncQ({0: 1, 1: 1}), 1) == 2

    def test_negative_exponent(self):
        assert eval_at(q_power(-1), Fraction(1, 2)) == 2

    def test_pole(self):
        f = over_cyclotomic(1, {1: 1})
        with pytest.raises(PoleError):
            eval_at(f, 1)

    def test_zero_with_negative_exponent(self):
        with pytest.raises(PoleError):
            eval_at(q_power(-2), 0)

    def test_removable_singularity_already_cancelled(self):
        # (1 - q^2) / Phi_1 is stored as -(1 + q), so q = 1 evaluates fine
        f = over_cyclotomic({0: 1, 2: -1}, {1: 1})
        assert eval_at(f, 1) == -2

    @pytest.mark.parametrize("bad", [0.1, "1/3", 1j, None, 2.0])
    def test_inexact_point_rejected(self, bad):
        # a float or a string would be read as some nearby rational
        with pytest.raises(TypeError):
            eval_at(qbracket(2, 1), bad)
        with pytest.raises(TypeError):
            qbracket(2, 1).eval_at(bad)


class TestReflection:
    @pytest.mark.parametrize("x", range(-3, 5))
    @pytest.mark.parametrize("alpha", [1, 2, 3])
    @pytest.mark.parametrize("n", range(6))
    def test_grid(self, x, alpha, n):
        lhs, rhs = qbracket_reflect(x, alpha, n)
        assert lhs == rhs

    def test_values(self):
        assert qbracket_reflect(1, 2, 1) == (ZERO, ZERO)
        assert qbracket_reflect(0, 1, 1) == (ONE, ONE)
        assert qbracket_reflect(2, 1, 2) == (q_power(2), q_power(2))

    def test_bad_weight(self):
        with pytest.raises(ValueError):
            qbracket_reflect(1, 0, 2)


class TestCanonicalForm:
    def test_denominator_normalization(self):
        # content and sign move to the numerator; minimal exponent >= 0
        f = over_cyclotomic({0: 2}, {1: 1, 2: 1}) / (-4 * q_power(-1))
        den = den_view(f)
        assert min(den) == 0
        assert den[max(den)] > 0
        ints = list(den.values())
        assert all(c.denominator == 1 for c in ints)

    def test_zero_is_zero_over_one(self):
        for f in (over_cyclotomic(0, {2: 5}), ZERO / (5 * q_power(2))):
            assert num_view(f) == {}
            assert den_view(f) == {0: 1}

    def test_hashable(self):
        assert len({qbracket(2, 1), ONE + Q, qbracket(3, 1)}) == 2
        # constants hash as the numbers they equal
        assert len({RatFuncQ(1), 1}) == 1
        assert len({RatFuncQ(Fraction(3, 4)), Fraction(3, 4)}) == 1
        assert len({ZERO, 0, Fraction(0)}) == 1
        assert {RatFuncQ(-2): "x"}[-2] == "x"

    def test_views_rebuild_value(self):
        f = over_cyclotomic({-1: Fraction(3, 2), 2: -3}, {2: 1}) / 2
        assert num_view(f) == {-1: Fraction(3, 4), 2: Fraction(-3, 2)}
        assert den_view(f) == {0: 1, 1: 1}
        assert list(num_view(f)) == sorted(num_view(f))
        assert f * RatFuncQ(den_view(f)) == RatFuncQ(num_view(f))

    def test_divisor_must_be_a_monomial(self, monkeypatch):
        # values are born canonical: the constructor takes a Laurent
        # polynomial, and / and negative ** divide only by c q^s, so no
        # dense denominator is factored over the Phi_d
        for divisor in (ONE + Q, RatFuncQ({0: 1, 1: 2}), over_cyclotomic(1, {2: 1}),
                        ONE + Q + Q**2 + Q**3 + Q**4 + Q**5 + Q**6 + Q**7 + Q**8 + 3 * Q**9):
            with pytest.raises(ValueError, match="c\\*q\\^s"):
                ONE / divisor
            with pytest.raises(ValueError):
                2 / divisor
            with pytest.raises(ValueError):
                divisor**-2
        with pytest.raises(TypeError):
            RatFuncQ(1, {0: 1})
        # palindromic and no product of Phi_d: refused before any division
        divisions = record_divisions(monkeypatch)
        start = time.perf_counter()
        with pytest.raises(ValueError):
            ONE / RatFuncQ({0: 1, 200: 3, 400: 1})
        assert time.perf_counter() - start < 0.1
        assert divisions == []
        monkeypatch.undo()
        # c q^s divides, and its negative powers are monomials
        third = Fraction(1, 3)
        assert qbracket(3, 1) / (3 * q_power(-2)) == RatFuncQ({2: third, 3: third, 4: third})
        assert q_power(5) ** -3 == q_power(-15)
        with pytest.raises(ZeroDivisionError):
            ZERO**-1

    def test_factor_test_is_exact(self):
        # a(2^64) = 2 (2^64 - 1) is a multiple of Phi_1(2^64), yet Phi_1 does
        # not divide a = q + 2^64 - 2: an evaluation at a large integer alone
        # would cancel it
        a = {0: 2**64 - 2, 1: 1}
        f = over_cyclotomic(a, {1: 1})
        assert num_view(f) == {0: 2**64 - 2, 1: 1} and den_view(f) == {0: -1, 1: 1}
        assert f * (Q - ONE) == RatFuncQ(a)

    def test_point_value_by_halves(self):
        # the evaluation at the rule-out point splits lists above 64 terms
        # in halves; it must give Horner's integer at every length around
        # the splits
        rng = random.Random(1702)
        for n in (*range(1, 140), 257, 1000):
            cs = [rng.choice((0, 1, -1, rng.randint(-2**70, 2**70))) for _ in range(n)]
            horner = 0
            for x in reversed(cs):
                horner = horner * POINT + x
            assert _at_point(cs) == horner, n

    def test_counted_powers_in_one_division(self, monkeypatch):
        # (1 - q^3)^-12 over a long numerator: Phi_1^12 Phi_3^11 leave in one
        # exact division, which does not raise, and the twelfth Phi_3 stays
        base = [((-1) ** i) * (i % 7 + 1) for i in range(150)]
        num = _times_cyclotomic(base, ((1, 12), (3, 11)))
        den = ((1, 12), (3, 12))
        divisions = record_divisions(monkeypatch)
        assert _divide_out(num, den, den) == (base, ((3, 1),))
        assert divisions == [(((1, -12), (3, -11)), False)]

    @pytest.mark.parametrize("ds", [(1,), (2,), (6,), (1, 2, 6)])
    def test_rule_out_point_root_survives_unreduced(self, ds, monkeypatch):
        # a = q - POINT vanishes at the rule-out point q = POINT, so every
        # Phi_d(POINT) divides a(POINT); no Phi_d divides a, so the combined
        # division raises and the recount by exact division must keep
        # every factor, whichever operation brings a against it
        a = {0: -POINT, 1: 1}
        den = [1]
        for d in ds:
            den = _int_mul(den, cyclotomic(d))
        den = {i: x for i, x in enumerate(den) if x}
        mults = {d: 1 for d in ds}
        multiplied = over_cyclotomic(a, mults)
        added = over_cyclotomic({0: -POINT}, mults) + over_cyclotomic({1: 1}, mults)
        for f in (added, multiplied):
            assert num_view(f) == a and den_view(f) == den
            assert f._den == tuple((d, 1) for d in ds)
        assert added == multiplied
        divisions = record_divisions(monkeypatch)
        den = tuple((d, 1) for d in ds)
        assert _divide_out([-POINT, 1], den, den) == ([-POINT, 1], den)
        assert divisions[0] == (tuple((d, -1) for d in ds), True)

    def test_count_that_runs_over_hides_no_later_factor(self, monkeypatch):
        # Phi_3 (q + c) over q^3 - 1 with q + c = Phi_1(POINT) / 3 at POINT:
        # 3 divides Phi_3(POINT), so the value Phi_3(POINT) / 3 * Phi_1(POINT)
        # counts Phi_1 once, which runs over, and leaves Phi_3(POINT) / 3,
        # which counts Phi_3 none times, one short; the recount by exact
        # division that follows the failed division must still find Phi_3
        c = (POINT - 1) // 3 - POINT
        num = _int_mul(cyclotomic(3), [c, 1])
        f = over_cyclotomic(dict(enumerate(num)), {1: 1, 3: 1})
        assert f == over_cyclotomic({0: c, 1: 1}, {1: 1})
        assert f._num == (c, 1) and f._den == ((1, 1),)
        den = ((1, 1), (3, 1))
        divisions = record_divisions(monkeypatch)
        assert _divide_out(num, den, den) == ([c, 1], ((1, 1),))
        # the combined division by Phi_1 raised; the recount finds no Phi_1
        # and one Phi_3, its whole multiplicity
        assert divisions == [(((1, -1),), True), (((1, -1),), True), (((3, -1),), False)]

    def test_mapping_is_not_a_number(self):
        # == accepts exactly what arithmetic accepts: a mapping is only a
        # constructor argument
        assert RatFuncQ(1) != {0: 1}
        assert not RatFuncQ(1) == {0: 1}
        assert RatFuncQ({0: 1}) == RatFuncQ(1)
        with pytest.raises(TypeError):
            RatFuncQ(1) + {0: 1}
        with pytest.raises(TypeError):
            {0: 1} * Q

    @pytest.mark.parametrize("bad", [0.1, "1/3", 1j, None])
    def test_inexact_coefficients_rejected(self, bad):
        with pytest.raises(TypeError):
            RatFuncQ({0: bad})
        with pytest.raises(TypeError):
            RatFuncQ({0: 1, 1: bad})
        with pytest.raises(TypeError):
            RatFuncQ(bad)

    def test_non_integer_exponent_rejected(self):
        with pytest.raises(TypeError):
            RatFuncQ({0.5: 1})


class TestSerialization:
    def test_round_trip(self):
        rng = random.Random(5)
        for _ in range(50):
            f = random_ratfunc(rng)
            text = f.to_canonical_string()
            assert denotes(text, f) and not denotes(text, f + Q)
            # each half reads back as the Laurent polynomial it prints
            num_text, den_text = text.split(" / ")
            num, den = read_canonical(text)
            assert num.to_canonical_string() == f"{num_text} / 1*q^0"
            assert den.to_canonical_string() == f"{den_text} / 1*q^0"

    def test_explicit_exponents(self):
        assert qbracket(2, 1).to_canonical_string() == "1*q^0 + 1*q^1 / 1*q^0"
        assert ZERO.to_canonical_string() == "0 / 1*q^0"

    def test_pretty_str(self):
        assert str(qbracket(2, 1)) == "1 + q"
        assert str(ZERO) == "0"
        assert str(over_cyclotomic(qbracket(2, 1), {4: 1})) == "(1 + q)/(1 + q^2)"


def _int_divexact(a, b) -> list[int]:
    """Exact division in Z[q]; ArithmeticError when b does not divide a."""
    rem, lb = list(a), b[-1]
    out = [0] * (len(a) - len(b) + 1)
    for shift in range(len(a) - len(b), -1, -1):
        c, r = divmod(rem[shift + len(b) - 1], lb)
        if r:
            raise ArithmeticError("inexact polynomial division")
        out[shift] = c
        for j, y in enumerate(b):
            rem[shift + j] -= c * y
    if any(rem):
        raise ArithmeticError("nonzero remainder in exact polynomial division")
    return _trim(out)


@pytest.mark.parametrize("s", [1, -1])
def test_binomial_division_matches_long_division(s):
    # a / (1 + s q^k) runs block by block for k^2 >= len(a), with a short
    # last block unless k divides len(a), and by residues of i mod k below;
    # on both paths the quotient is long division's, and a remainder raises
    rng = random.Random(2603)
    for n in (1, 2, 9, 16, 30, 64):
        for k in range(1, n + 2):
            divisor = [1] + [0] * (k - 1) + [s]
            if k < n:
                quotient = [rng.randint(-9, 9) for _ in range(n - k - 1)] + [rng.randint(1, 9)]
                a = _int_mul(quotient, divisor)
                assert _div_binomial(a, k, s) == quotient == _int_divexact(a, divisor), (n, k)
            else:
                a = [rng.randint(-9, 9) for _ in range(n - 1)] + [0]
                assert _div_binomial([0] * n, k, s) == []
            a[-1] += 1
            for divide in (_div_binomial, lambda a, k, s: _int_divexact(a, divisor)):
                with pytest.raises(ArithmeticError):
                    divide(a, k, s)


def _int_primitive(cs: list[int]) -> list[int]:
    c = math.gcd(*cs)
    return [x // c for x in cs]


def random_primitive(rng: random.Random, degree: int, bits: int) -> list[int]:
    """Primitive, positive lead, nonzero constant term."""
    cs = [rng.randint(-(2**bits), 2**bits) for _ in range(degree + 1)]
    cs[0] = cs[0] or 1
    cs[-1] = abs(cs[-1]) or 1
    g = math.gcd(*cs)
    return [c // g for c in cs]


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    # remainder of lc(b)^k * a by b, computed without fractions
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    while len(r) - 1 >= db:
        lr = r[-1]
        d = len(r) - 1 - db
        r = [lb * x for x in r]
        for j, y in enumerate(b):
            r[j + d] -= lr * y
        _trim(r)
    return r


def _prs_gcd(a, b) -> list[int]:
    """Primitive-PRS gcd of primitive a, b in Z[q], with a positive lead:
    the reference the cyclotomic reduction is compared with."""
    a, b = (list(a), list(b)) if len(a) >= len(b) else (list(b), list(a))
    while b:
        a, b = b, _int_primitive(_pseudo_rem(a, b))
    return a if a[-1] > 0 else [-x for x in a]


def one_plus_mults(exps) -> Counter:
    """The Phi_d multiplicities of prod (1 + q^e) over exps, every e >= 1:
    1 + q^e = (q^2e - 1) / (q^e - 1) is the product of the Phi_d with d | 2e
    and d not dividing e."""
    return Counter(d for e in exps for d in range(1, 2 * e + 1) if 2 * e % d == 0 and e % d)


def recurrence_pair(n: int, alpha: int, h: int) -> tuple[list[int], list[int], Counter]:
    """Primitive, positively led P_n, E_n = prod_{j<n} (1 + q^(h + alpha j))
    and the Phi_d multiplicities of E_n."""
    p = _int_primitive(list(_recurrence_numerator(n, alpha, h)))
    p = p if p[-1] > 0 else [-x for x in p]
    e = [1]
    for j in range(n):
        e = _int_mul(e, [1] + [0] * (h + alpha * j - 1) + [1])
    return p, e, one_plus_mults(h + alpha * j for j in range(n))


class TestGcd:
    """Reduction by the cyclotomic factors of the denominator, against the
    primitive-PRS gcd kept as the reference and the gcd degrees it gave."""

    def test_cyclotomic_products(self):
        rng = random.Random(6)
        phis = {d: cyclotomic(d) for d in range(1, 61)}
        for _ in range(12):
            a, b, b_mults = [1], [1], Counter()
            while len(a) < 300:
                a = _int_mul(a, phis[rng.randint(2, 60)])
            while len(b) < 300:
                b_mults[d := rng.randint(2, 60)] += 1
                b = _int_mul(b, phis[d])
            assert max(len(a), len(b)) > 300
            g = _prs_gcd(a, b)
            value = over_cyclotomic(dict(enumerate(a)), b_mults)
            assert value._num == tuple(_int_divexact(a, g))
            assert _den_poly(value._den) == tuple(_int_divexact(b, g))

    def test_recurrence_numerator_and_denominator(self):
        # P_22 and E_22 = prod_{j<22} (1 + q^(3 + 3j)) at alpha = h = 3 share
        # a factor of degree 145; P_22 over the Phi_d of E_22 and the
        # recurrence route strip the same
        p, e, mults = recurrence_pair(22, 3, 3)
        value = over_cyclotomic(dict(enumerate(p)), mults)
        assert len(_den_poly(value._den)) == len(e) - 145
        assert value._den == _recurrence_number(22, 3, 3)._den
        assert value._num == _recurrence_number(22, 3, 3)._num

    def test_recurrence_pair_within_ceiling(self):
        # (P_25, E_25) at alpha = 8, h = 6 share a factor of degree 240 (a
        # PRS gcd did not finish in 600 s)
        p, e, mults = recurrence_pair(25, 8, 6)
        start = time.perf_counter()
        value = over_cyclotomic(dict(enumerate(p)), mults)
        assert time.perf_counter() - start < 30
        assert len(_den_poly(value._den)) == len(e) - 240
        assert value._den == _recurrence_number(25, 8, 6)._den


def test_default_sweep_makes_no_recount():
    # the counted multiplicities are proved by one combined exact division
    # per reduction, which never raises on the default grid; a raise here
    # means the rule-out broke, and the reducer fell back to recounting
    # every candidate.  tests/raised_divisions.py counts them in a fresh
    # interpreter, where the lru_caches skip no work
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(tests.parent / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, str(tests / "raised_divisions.py"), "verify", "all"],
                         env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stdout + out.stderr
    combined, raised = map(int, out.stdout.split())
    assert combined > 0 and raised == 0


class TestSumOverOnePlus:
    """The shared-denominator kernel against term-by-term RatFuncQ sums,
    cross-multiplied by prod (1 + q^e)."""

    @staticmethod
    def is_termwise_sum(got, pairs):
        # got == sum of c / (1 + q^e) over the (c, e) pairs
        num, den = cross_sum((c, ONE + q_power(e)) for c, e in pairs)
        return got * den == num

    @staticmethod
    def kernel(pairs, times=()):
        # the sum of c / (1 + q^e) over (c, e) pairs, by the kernel over the
        # shared prefactor of the nonzero c
        pairs = [(c, e) for c, e in pairs if c]
        content, den, nums = _shared_prefactor([c for c, _ in pairs])
        terms = [(s, num, e) for (s, num), (_, e) in zip(nums, pairs)]
        return _sum_over_one_plus(content, den, terms, times)

    @pytest.mark.parametrize("exps", [
        [(1,)], [(2,)], [(1, 2, 3)], [(3, 6, 9, 12)],
        [(2, 5, 7, 10, 12)],  # no prefix built before
        [(3,), (3, 6), (3, 6, 9), (3, 6, 9, 12)],  # in chain order
        [(3, 6, 9, 12), (3, 6, 10), (6, 9), (3, 6), (1, 3, 6, 9)],  # off the chain
    ])
    def test_lcm_is_product_of_cyclotomic_factors(self, exps):
        # 1 + q^e is the product of Phi_d over d | 2e with d not dividing e;
        # L grows from the longest prefix built before, whatever the order
        # the exponent sets are asked for in
        _one_plus_lcm.cache_clear()
        qcore._one_plus_chain.clear()
        for asked in exps:
            lcm, cofactors = _one_plus_lcm(asked)
            ds = sorted({d for e in asked for d in range(1, 2 * e + 1) if 2 * e % d == 0 and e % d})
            want = [1]
            for d in ds:
                want = _int_mul(want, cyclotomic(d))
            assert lcm == tuple((d, 1) for d in ds)
            assert list(_den_poly(lcm)) == list(cofactors[0]) == want
            for e in asked:
                assert _int_mul(cofactors[e], [1] + [0] * (e - 1) + [1]) == want

    def test_random_coefficients_and_exponents(self):
        # any numerators and denominators, repeated e, e = 0 and e < 0
        rng = random.Random(1101)
        for _ in range(150):
            pairs = [(random_ratfunc(rng), rng.randint(-6, 6)) for _ in range(rng.randint(1, 5))]
            assert self.is_termwise_sum(self.kernel(pairs), pairs), pairs
            # [2]_q as times, cancelling against a Phi_2 or multiplying
            times_two = [((ONE + Q) * c, e) for c, e in pairs]
            assert self.is_termwise_sum(self.kernel(pairs, ((2, 1),)), times_two), pairs

    def test_shared_prefactor(self):
        # content q^s num / den gives back each coefficient
        rng = random.Random(1102)
        for _ in range(100):
            coeffs = [c for c in (random_ratfunc(rng) for _ in range(rng.randint(1, 4))) if c]
            content, den, nums = _shared_prefactor(coeffs)
            for c, (s, num) in zip(coeffs, nums):
                value = over_cyclotomic(dict(enumerate(num)), den)
                assert content * q_power(s) * value == c, (coeffs, c)

    def test_special_exponents(self):
        c = over_cyclotomic(-qbracket(3, 2), {1: 1})  # [3]_{q^2} / (1 - q)
        assert self.kernel([(c, 0)]) == c / 2
        assert self.is_termwise_sum(self.kernel([(c, -3)]), [(c, -3)])
        assert self.kernel([(c, -3)]) * (ONE + q_power(3)) == c * q_power(3)
        # the same from raw slices: (1/3) q^2 (3 - 3q) / Phi_1 = -q^2, halved
        # at e = 0, and q^2 / (1 + q^-1) = q^3 / (1 + q)
        halved = _sum_over_one_plus(Fraction(1, 3), ((1, 1),), [(2, (3, -3), 0)], ())
        assert halved == -q_power(2) / 2
        assert _sum_over_one_plus(Fraction(1), (), [(2, (1,), -1)], ()) * (ONE + Q) == q_power(3)

    def test_zero_sums(self):
        c = over_cyclotomic(-1, {1: 1, 2: 1})  # 1 / (1 - q^2)
        assert self.kernel([]) is ZERO
        assert self.kernel([(ZERO, 4)]) is ZERO
        assert self.kernel([(c, 2), (-c, 2), (ZERO, 0)]) == ZERO
        # c / (1 + q) + c q / (1 + q) = c, with no (1 + q) left over
        assert self.kernel([(c, 1), (c * Q, 1)]) == c
        # no terms, an empty numerator and an all-zero one
        assert _sum_over_one_plus(Fraction(1), (), [], ()) is ZERO
        assert _sum_over_one_plus(Fraction(2), ((1, 1),), [(3, (), 2), (-1, (0, 0), 0)], ()) is ZERO

    def test_common_factors_cancel(self):
        # (1 - q) cancels: 1/(1+q) - 1/(1+q^2) = q (q - 1) / ((1+q)(1+q^2))
        c = over_cyclotomic(-1, {1: 1})  # 1 / (1 - q)
        got = self.kernel([(c, 1), (-c, 2)])
        assert got * (ONE + Q) * (ONE + q_power(2)) == -Q
        assert got._den == ((2, 1), (4, 1))
        # the final reduction: (1 - q^2)^k / (1 + q) = (1 - q)^k (1 + q)^(k-1)
        for k in range(1, 5):
            got = self.kernel([((ONE - q_power(2)) ** k, 1)])
            assert got == (ONE - Q) ** k * (ONE + Q) ** (k - 1)
            assert den_view(got) == {0: 1}

    def test_only_the_last_table_is_kept(self):
        # integrals over other exponent sets, A then B then A again: the
        # cache holds B's table alone when A comes back, so A's is rebuilt
        # (from the lcm prefixes _one_plus_chain keeps) and gives A again
        from qgen.padic import bracket_power_integrand, integrate

        _one_plus_lcm.cache_clear()
        qcore._one_plus_chain.clear()
        a = bracket_power_integrand(2, 3, 6, exp_shift=2)  # exponents 3, 6, ..., 21
        b = bracket_power_integrand(-1, 2, 5)  # exponents 1, 3, ..., 11
        first = integrate(a)
        integrate(b)
        assert integrate(a) == first
        info = _one_plus_lcm.cache_info()
        assert (info.currsize, info.misses) == (1, 3)


class TestOverOnePlus:
    """The cyclotomic strip against a reduction by the PRS gcd."""

    def test_random_cyclotomic_products(self):
        # num = k q^z R prod Phi_d^j with Phi_d often repeated beyond its
        # multiplicity in prod (1 + q^e), and some Phi_d not in it at all
        rng = random.Random(2012)
        for _ in range(200):
            exps = [rng.randint(1, 6) for _ in range(rng.randint(1, 4))]
            den = [1]
            for e in exps:
                den = _int_mul(den, [1] + [0] * (e - 1) + [1])
            num = random_primitive(rng, rng.randint(0, 4), rng.randint(1, 20))
            for _ in range(rng.randint(0, 7)):
                num = _int_mul(num, cyclotomic(rng.randint(2, 14)))
            k, z, shift = rng.choice([-3, -1, 1, 2, 6]), rng.randint(0, 2), rng.randint(-4, 4)
            got = _over_one_plus(shift, [0] * z + [k * x for x in num], exps)
            g = _prs_gcd(num, den)
            want = (shift + z, Fraction(k), tuple(_int_divexact(num, g)), tuple(_int_divexact(den, g)))
            assert (got._shift, got._content, got._num, _den_poly(got._den)) == want, (exps, num)
            as_dict = RatFuncQ({shift + z + i: k * x for i, x in enumerate(num)})
            assert got * RatFuncQ(dict(enumerate(den))) == as_dict

    def test_zero_and_full_cancellation(self):
        assert _over_one_plus(3, [0, 0], [1, 2]) is ZERO
        # (1 + q)^2 (1 + q^2) over the same product is 1
        assert _over_one_plus(0, [1, 2, 2, 2, 1], [1, 1, 2]) == ONE
        assert _over_one_plus(0, [1, 1], [1, 1]) * (ONE + Q) == ONE


def random_unit_leaf(rng: random.Random, q):
    """c q^e times a nonzero q-bracket or 1 + q^k: a unit of the ring, as
    the inverse of the value (built from the Phi_d of q^m - 1) and the
    value itself in sympy."""
    c, e = Fraction(rng.choice([-5, -2, -1, 1, 3]), rng.randint(1, 4)), rng.randint(-5, 5)
    monomial_inverse = (c * q_power(e)) ** -1
    if rng.random() < 0.6:
        # [x]_{q^a} = (1 - q^(a x)) / (1 - q^a)
        x, a = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4, 5]), rng.choice([-3, -2, -1, 1, 2, 3])
        inverse = monomial_inverse * (ONE - q_power(a)) * one_minus_power(a * x, -1)
        return inverse, c * q**e * (1 - q ** (a * x)) / (1 - q**a)
    # 1 + q^k = (1 - q^2k) / (1 - q^k)
    k = rng.randint(1, 6)
    inverse = monomial_inverse * (ONE - q_power(k)) * one_minus_power(2 * k, -1)
    return inverse, c * q**e * (1 + q**k)


def random_tree(rng: random.Random, depth: int, q):
    """A random +, -, *, /, ** tree over q-brackets and powers of q; it
    divides, and takes negative powers, only of units of the ring, which
    it multiplies by their inverses.

    Returns the RatFuncQ value and the same expression in sympy.
    """
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.6:
            x, a = rng.randint(-4, 5), rng.choice([-3, -2, -1, 1, 2, 3])
            return qbracket(x, a), (1 - q ** (a * x)) / (1 - q**a)
        e, c = rng.randint(-5, 5), Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        return c * q_power(e), c * q**e
    f, fs = random_tree(rng, depth - 1, q)
    op = rng.choice("+-*/^")
    if op == "^":
        k = rng.randint(-2, 3)
        if k < 0:
            inverse, us = random_unit_leaf(rng, q)
            return f * inverse**-k, fs * us**k
        return f**k, fs**k
    if op == "/":
        inverse, us = random_unit_leaf(rng, q)
        return f * inverse, fs / us
    g, gs = random_tree(rng, depth - 1, q)
    if op == "+":
        return f + g, fs + gs
    if op == "-":
        return f - g, fs - gs
    return f * g, fs * gs


def test_sympy_cancel_oracle():
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")

    def as_sympy(poly: dict[int, Fraction]):
        return sum((sympy.Rational(c.numerator, c.denominator) * q**e for e, c in poly.items()),
                   sympy.Integer(0))

    rng = random.Random(2024)
    for _ in range(60):
        value, expr = random_tree(rng, 4, q)
        num, den = sympy.fraction(sympy.cancel(sympy.together(expr)))
        # same function: cross-multiplied numerators agree
        assert sympy.expand(as_sympy(num_view(value)) * den - num * as_sympy(den_view(value))) == 0
        if not value:
            assert num == 0
            continue
        # and ours is reduced: no common factor of positive degree
        ours_num = sympy.expand(as_sympy(num_view(value)) * q ** -min(num_view(value)))
        assert sympy.degree(sympy.gcd(ours_num, as_sympy(den_view(value))), q) == 0
