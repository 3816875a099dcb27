"""Weighted Genocchi routes: closed form, recurrence, umbral, integral,
classical limit, and the unweighted specializations."""

import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from qgen.genocchi import (
    GenocchiTable,
    ROUTE_CLOSED,
    ROUTE_RECURRENCE,
    ROUTE_UMBRAL,
    WeightParams,
    build_table,
    classical_genocchi,
    weighted_genocchi_integral_route,
    weighted_genocchi_number,
    weighted_genocchi_poly_closed,
    weighted_genocchi_poly_umbral,
    weighted_genocchi_recurrence,
)
from qgen.padic import PadicContext
from qgen.qcore import (ONE, RatFuncQ, ZERO, _one_plus_lcm, eval_at, q_power,
                        qbracket)
from readback import cross_sum, den_view

W = WeightParams


def unweighted_recurrence_residual(n: int, h: int) -> RatFuncQ:
    """Residual of the printed umbral recurrence for the weight-1 family:

        q^(h-1) (q g + 1)^n + g_n - [2]_q delta_{n,1}

    with g^k -> g_k and g^0 -> g_0 = 0.  The q-Genocchi case is h = 2.
    Zero certifies that the reductions satisfy their own recurrences.
    """
    w = W(1, h)
    acc = ZERO
    for k in range(n + 1):
        acc = acc + comb(n, k) * q_power(k) * weighted_genocchi_number(k, w)
    residual = q_power(h - 1) * acc + weighted_genocchi_number(n, w)
    if n == 1:
        residual = residual - qbracket(2, 1)
    return residual


def clear_recurrence_caches():
    """Every memo the recurrence route fills, so a timed run starts cold."""
    from qgen import genocchi, qcore

    for cached in (genocchi._recurrence_number, genocchi._recurrence_numerator,
                   qcore._one_plus_factors, qcore._cyclotomic_exponents,
                   qcore._cyclotomic_at_point, qcore._binomial_plan,
                   qcore._den_poly, qcore._den_op):
        cached.cache_clear()
    qcore._one_plus_chain.clear()


def bernoulli_oracle(n: int) -> Fraction:
    """Akiyama-Tanigawa triangle; flipped to the B_1 = -1/2 convention."""
    row = [Fraction(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    value = out[n]
    return -value if n == 1 else value


def genocchi_from_bernoulli(n: int) -> Fraction:
    """Independent oracle: G_n = 2 (1 - 2^n) B_n."""
    return 2 * (1 - Fraction(2) ** n) * bernoulli_oracle(n)


def closed_termwise(n: int, alpha: int, h: int, x: int) -> tuple[RatFuncQ, RatFuncQ]:
    """Reference for the closed form, as Laurent polynomials N and D with
    g_n(x) = N / D: the moments (-1)^l C(n-1, l) q^(alpha l x) / (1 + q^(alpha l + h))
    added over the product of their denominators, then the prefactor
    n [2]_q (1 - q^alpha)^-(n-1)."""
    num, den = cross_sum(((-1) ** l * comb(n - 1, l) * q_power(alpha * l * x),
                          ONE + q_power(alpha * l + h)) for l in range(n))
    return n * qbracket(2, 1) * num, den * (ONE - q_power(alpha)) ** max(n - 1, 0)


# Counts the qcore._reduced calls and the RatFuncQ values built (through
# qcore._new or the constructor) by one closed value, in a fresh interpreter
# so that no lru_cache is warm.  To re-measure after a change to the integral
# path, run this script with src on PYTHONPATH and pin what it prints.
CLOSED_COUNT_SCRIPT = """
from qgen import qcore
from qgen.genocchi import _closed
reduced, counts = qcore._reduced, [0, 0]
def counted_reduced(*args, **kwargs):
    counts[0] += 1
    return reduced(*args, **kwargs)
def counted_new(cls, *args, **kwargs):
    counts[1] += 1
    return object.__new__(cls)
qcore._reduced = counted_reduced
qcore.RatFuncQ.__new__ = staticmethod(counted_new)
_closed(9, 3, 3, 2)
print(*counts)
"""


class TestClosedForm:
    @pytest.mark.parametrize("alpha", [1, 2, 3])
    @pytest.mark.parametrize("h", [1, 2, 3])
    @pytest.mark.parametrize("x", [-2, 0, 1, 3])
    def test_index_one_constant_in_x(self, alpha, h, x):
        # [2]_q / (1 + q^h)
        got = weighted_genocchi_poly_closed(1, W(alpha, h), x)
        assert got * (ONE + q_power(h)) == qbracket(2, 1)

    @pytest.mark.parametrize("alpha", [1, 2, 3])
    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_index_two_at_zero(self, alpha, h):
        # -2 [2]_q q^h / ((1 + q^h) (1 + q^(alpha + h)))
        got = weighted_genocchi_number(2, W(alpha, h))
        den = (ONE + q_power(h)) * (ONE + q_power(alpha + h))
        assert got * den == -2 * qbracket(2, 1) * q_power(h)

    def test_index_zero_is_zero(self):
        for alpha, h in ((1, 1), (2, 3)):
            assert weighted_genocchi_poly_closed(0, W(alpha, h), 2) == ZERO
            assert weighted_genocchi_number(0, W(alpha, h)) == ZERO

    def test_h_one_cancellation(self):
        assert weighted_genocchi_number(1, W(2, 1)) == ONE

    def test_classical_value_at_two(self):
        assert eval_at(weighted_genocchi_number(2, W(1, 1)), 1) == -1

    def test_negative_index_rejected(self):
        w = W(1, 1)
        for call in (lambda: weighted_genocchi_number(-1, w),
                     lambda: weighted_genocchi_poly_closed(-1, w, 2),
                     lambda: weighted_genocchi_poly_umbral(-1, w, 2),
                     lambda: classical_genocchi(-1)):
            with pytest.raises(ValueError, match="^index must be nonnegative$"):
                call()

    @pytest.mark.parametrize("alpha", [1, 2, 3])
    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_regular_at_q_equal_one(self, alpha, h):
        # the (1 - q^alpha) prefactor always cancels structurally, so no
        # denominator is divisible by (1 - q)
        for n in range(9):
            for x in (0, 1, 2):
                f = weighted_genocchi_poly_closed(n, W(alpha, h), x)
                assert sum(den_view(f).values()) != 0
                eval_at(f, 1)  # must not raise

    @pytest.mark.parametrize("alpha", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("h", [1, 2, 3, 4])
    def test_matches_termwise_oracle(self, alpha, h):
        # the value over its known denominator equals the moment-by-moment
        # sum; alpha = 2, 4 and 6 have an even part, 6 an odd part above 1
        w = W(alpha, h)
        for n in range(12):
            for x in range(-3, 4):
                num, den = closed_termwise(n, alpha, h, x)
                assert weighted_genocchi_poly_closed(n, w, x) * den == num, (n, x)

    def test_deep_closed_form_within_ceiling(self):
        # n = 40 and n = 60 at alpha = h = 3: moment denominators of degree in
        # the thousands, numerators of degree about 4,400 at n = 60
        from qgen.genocchi import _closed
        from qgen.identities import verify_symmetry

        _closed.cache_clear()
        _one_plus_lcm.cache_clear()
        clear_recurrence_caches()
        start = time.perf_counter()
        for n in (39, 59):
            for x in (-1, 2):
                assert verify_symmetry(n, W(3, 3), x).passed, (n, x)
        assert eval_at(weighted_genocchi_number(40, W(1, 1)), 1) == classical_genocchi(40)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"closed form at n=40 and n=60 took {elapsed:.1f}s"

    def test_closed_value_counts(self):
        # one reduction and no RatFuncQ per term of the spec: the nine
        # coefficients of [2 + xi]_{q^3}^8 stay integers over the shared
        # prefactor, and the three RatFuncQs are the reduced integral, the
        # factor n and the product
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", CLOSED_COUNT_SCRIPT], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["1", "3"]


class TestRecurrenceRoute:
    def test_from_index_zero(self):
        # g_0 = 0, so a table from n = 0 alone is well defined
        assert weighted_genocchi_recurrence(0, W(2, 3)) == {0: ZERO}
        with pytest.raises(ValueError, match="^n_max must be nonnegative$"):
            weighted_genocchi_recurrence(-1, W(2, 3))

    def test_base_case(self):
        for h in (1, 2, 3):
            table = weighted_genocchi_recurrence(1, W(2, h))
            assert table[1] * (ONE + q_power(h)) == qbracket(2, 1)

    def test_one_step(self):
        # -2 [2]_q q^2 / ((1 + q^2) (1 + q^3))
        got = weighted_genocchi_recurrence(2, W(1, 2))[2]
        assert got * (ONE + q_power(2)) * (ONE + q_power(3)) == -2 * qbracket(2, 1) * q_power(2)

    def test_full_table_matches_closed_form(self):
        w = W(2, 3)
        table = weighted_genocchi_recurrence(10, w)
        for n in range(11):
            assert table[n] == weighted_genocchi_number(n, w), n

    @pytest.mark.parametrize("alpha", [1, 2, 3, 4, 6])
    def test_grid_matches_closed_form(self, alpha):
        # at even alpha some reduced denominators hold a cyclotomic factor
        # twice (they do not divide the lcm of the 1 + q^e), which a
        # reduction that strips each Phi_d only once gets wrong
        repeated = 0
        for h in range(1, 5):
            w = W(alpha, h)
            table = weighted_genocchi_recurrence(16, w)
            for n in range(1, 17):
                assert table[n] == weighted_genocchi_number(n, w), (n, h)
                lcm, _ = _one_plus_lcm(tuple(sorted({h + alpha * j for j in range(n)})))
                if not set(table[n]._den) <= set(lcm):  # (d, m) pairs, m = 1 in lcm
                    repeated += 1
        assert (repeated > 0) == (alpha % 2 == 0), repeated

    def test_deep_recurrence_within_ceiling(self):
        # degree-400 values at n=30; the recurrence must stay usable there
        clear_recurrence_caches()
        w = W(3, 3)
        start = time.perf_counter()
        table = weighted_genocchi_recurrence(30, w)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"recurrence to n=30 took {elapsed:.1f}s"
        assert table[30] == weighted_genocchi_number(30, w)

    def test_deeper_recurrence_within_ceiling(self):
        # n = 40: numerators of degree about 2,300 over 40 factors 1 + q^e
        clear_recurrence_caches()
        w = W(3, 3)
        start = time.perf_counter()
        table = weighted_genocchi_recurrence(40, w)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"recurrence to n=40 took {elapsed:.1f}s"
        assert table[40] == weighted_genocchi_number(40, w)


class TestUmbralRoute:
    @pytest.mark.parametrize("n", range(7))
    def test_reduces_to_number_at_zero(self, n):
        w = W(2, 1)
        assert weighted_genocchi_poly_umbral(n, w, 0) == weighted_genocchi_number(n, w)

    def test_index_one_consistency_with_shift(self):
        # q^h g_1(1) + g_1 = [2]_q
        for alpha, h in ((1, 1), (2, 3)):
            w = W(alpha, h)
            g1_at_1 = weighted_genocchi_poly_umbral(1, w, 1)
            assert g1_at_1 == weighted_genocchi_number(1, w)
            assert q_power(h) * g1_at_1 + weighted_genocchi_number(1, w) == qbracket(2, 1)

    def test_cross_identity_at_two(self):
        # n=2, weight 1, h=1: g_2(2) = 2 q^-1 [2]_q + q^-2 g_2
        w = W(1, 1)
        lhs = weighted_genocchi_poly_umbral(2, w, 2)
        rhs = 2 * q_power(-1) * qbracket(2, 1) + q_power(-2) * weighted_genocchi_number(2, w)
        assert lhs == rhs

    @pytest.mark.parametrize("alpha", [1, 2])
    @pytest.mark.parametrize("h", [1, 2])
    @pytest.mark.parametrize("x", [-1, 0, 1, 2])
    def test_agrees_with_closed_form(self, alpha, h, x):
        w = W(alpha, h)
        for n in range(8):
            assert weighted_genocchi_poly_umbral(n, w, x) == weighted_genocchi_poly_closed(n, w, x)


class TestShiftResidual:
    @pytest.mark.parametrize("alpha", [1, 2, 3])
    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_shift_by_one_residual(self, alpha, h):
        # q^h g_n(1) + g_n equals [2]_q for n = 1 and 0 otherwise
        w = W(alpha, h)
        for n in range(1, 11):
            residual = (
                q_power(h) * weighted_genocchi_poly_closed(n, w, 1)
                + weighted_genocchi_number(n, w)
            )
            if n == 1:
                assert residual == qbracket(2, 1)
            else:
                assert not residual, (n, alpha, h)


class TestIntegralRoute:
    def test_constant_integrand_exact(self):
        ctx = PadicContext(p=3, N=3, q=Fraction(4))
        trace = weighted_genocchi_integral_route(1, W(1, 1), 0, ctx)
        assert trace.limit == 1
        assert all(v == float("inf") for _, v in trace.entries)

    def test_valuations_grow(self):
        ctx = PadicContext(p=3, N=3, q=Fraction(4))
        trace = weighted_genocchi_integral_route(2, W(1, 1), 0, ctx, N_list=[1, 2, 3])
        assert all(v >= N for N, v in trace.entries)

    def test_limit_matches_closed_form(self):
        ctx = PadicContext(p=5, N=2, q=Fraction(6))
        w = W(2, 2)
        trace = weighted_genocchi_integral_route(3, w, 1, ctx, N_list=[1, 2])
        expected = eval_at(weighted_genocchi_poly_closed(3, w, 1), Fraction(6)) / 3
        assert trace.limit == expected

    def test_limit_checked_against_umbral_route(self, monkeypatch):
        # the limit is the integral the closed form is built from, so the
        # route checks it against the umbral value; one off and it raises
        from qgen import genocchi

        real = genocchi._umbral
        monkeypatch.setattr(genocchi, "_umbral", lambda n, a, h, x: real(n, a, h, x) + 1)
        ctx = PadicContext(p=5, N=2, q=Fraction(6))
        with pytest.raises(ArithmeticError, match="umbral"):
            weighted_genocchi_integral_route(3, W(2, 2), 1, ctx, N_list=[1, 2])

    def test_rejects_index_zero(self):
        ctx = PadicContext(p=3, N=1, q=Fraction(4))
        with pytest.raises(ValueError):
            weighted_genocchi_integral_route(0, W(1, 1), 0, ctx)


class TestClassical:
    def test_first_values_from_series(self):
        assert classical_genocchi(0) == 0
        assert classical_genocchi(1) == 1

    def test_series_against_bernoulli_oracle(self):
        for n in range(15):
            assert classical_genocchi(n) == genocchi_from_bernoulli(n), n

    def test_even_values(self):
        assert [classical_genocchi(n) for n in (2, 4, 6, 8)] == [-1, 1, -3, 17]

    def test_odd_vanishing(self):
        assert all(classical_genocchi(n) == 0 for n in (3, 5, 7, 9, 11))

    def test_integrality(self):
        assert all(classical_genocchi(n).denominator == 1 for n in range(20))

    def test_classical_limit_of_weighted_numbers(self):
        for n in range(13):
            got = eval_at(weighted_genocchi_number(n, W(1, 1)), 1)
            assert got == classical_genocchi(n), n


class TestUnweightedReductions:
    """The q-Genocchi numbers are the weight-1, h = 2 family and the
    (h,q)-Genocchi numbers the weight-1 family at h."""

    def test_q_genocchi_first(self):
        got = weighted_genocchi_number(1, W(1, 2))
        assert got * (ONE + q_power(2)) == qbracket(2, 1)

    def test_hq_zeroth(self):
        assert weighted_genocchi_number(0, W(1, 4)) == ZERO

    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_printed_recurrence_residuals(self, h):
        # the reductions satisfy their own umbral recurrences exactly
        for n in range(9):
            assert not unweighted_recurrence_residual(n, h), (n, h)

    def test_q_genocchi_is_h_two(self):
        # the q-Genocchi numbers satisfy the h = 2 recurrence of the family
        table = weighted_genocchi_recurrence(5, W(1, 2))
        for n in range(6):
            assert weighted_genocchi_number(n, W(1, 2)) == table[n], n


class TestTable:
    def test_entry_zero(self):
        table = build_table(4, W(1, 2), xs=(0, 1))
        values = {key: value for key, value, _ in table.entries()}
        assert values[(0, 1, 2, 0)] == ZERO

    def test_routes_collected(self):
        table = build_table(5, W(1, 2), xs=(0,))
        routes = {key: routes for key, _, routes in table.entries()}
        assert routes[(3, 1, 2, 0)] == {ROUTE_CLOSED, ROUTE_RECURRENCE, ROUTE_UMBRAL}
        assert (3, 1, 2, 0) in routes
        assert len(routes) == 6

    def test_x_zero_checked_by_all_routes(self):
        # the recurrence gives only numbers, so x = 0 is filled whatever xs is
        table = build_table(2, W(1, 1), xs=(2,))
        routes = {key: routes for key, _, routes in table.entries()}
        assert sorted(routes) == [(n, 1, 1, x) for n in range(3) for x in (0, 2)]
        for n in range(3):
            assert routes[(n, 1, 1, 0)] == {ROUTE_CLOSED, ROUTE_RECURRENCE, ROUTE_UMBRAL}
            assert routes[(n, 1, 1, 2)] == {ROUTE_CLOSED, ROUTE_UMBRAL}

    def test_index_zero_alone(self):
        table = build_table(0, W(2, 3), xs=(1,))
        assert [(key, value) for key, value, _ in table.entries()] == \
            [((0, 2, 3, 0), ZERO), ((0, 2, 3, 1), ZERO)]
        with pytest.raises(ValueError, match="^n_max must be nonnegative$"):
            build_table(-1, W(2, 3))

    def test_mismatch_detection(self):
        table = GenocchiTable()
        w = W(1, 1)
        table.record(2, w, 0, weighted_genocchi_number(2, w), ROUTE_CLOSED)
        with pytest.raises(ArithmeticError, match="route disagreement at"):
            table.record(2, w, 0, ONE, "bogus-route")

    def test_each_moment_table_built_once(self):
        # the closed forms at one n and every x share their moment
        # denominators; with n the outer loop, n = 1..12 build 12 tables of
        # cofactors, where x outside would build each twice (24)
        from qgen import qcore
        from qgen.genocchi import _closed

        _closed.cache_clear()
        _one_plus_lcm.cache_clear()
        qcore._one_plus_chain.clear()
        build_table(12, W(3, 3), xs=(2,))
        assert _one_plus_lcm.cache_info().misses == 12

    def test_entries_sorted(self):
        table = build_table(3, W(1, 1), xs=(0,))
        keys = [key for key, _, _ in table.entries()]
        assert keys == sorted(keys)


class TestWeightParams:
    def test_rejects_zero_weight(self):
        with pytest.raises(ValueError, match="^weight alpha must be a positive integer$"):
            W(0, 1)
        with pytest.raises(ValueError, match="^h must be a positive integer$"):
            W(1, 0)

    @pytest.mark.parametrize("bad", [2.0, Fraction(2), "2"])
    def test_rejects_non_int(self, bad):
        # refused at construction, not later inside the cyclotomic divisors
        for name, args in (("alpha", (bad, 1)), ("h", (1, bad))):
            message = f"^weight {name} must be an int, got {re.escape(repr(bad))}$"
            with pytest.raises(TypeError, match=message):
                W(*args)
