"""p-adic side: valuations, exact moments, truncated sums, convergence
diagnostics, and the q-shift functional equation."""

import random
import re
import time
from fractions import Fraction
from math import comb

import pytest

from qgen import padic, qcore
from qgen.padic import (
    IntegrandSpec,
    PadicContext,
    PrecisionError,
    bracket_power_integrand,
    convergence_probe,
    functional_equation_residual,
    integrate,
    truncated_integral,
    truncated_reading,
    truncated_sums,
    vp,
)
from qgen.qcore import ONE, RatFuncQ, ZERO, _one_plus_lcm, eval_at, q_power, qbracket
from readback import Q, cross_sum, from_terms, one_minus_power, over_cyclotomic


def naive_alternating_sum(terms: dict[int, Fraction], p: int, N: int,
                          q: Fraction, normalized: bool) -> Fraction:
    """Literal definition oracle: sum_{x=0}^{p^N - 1} f(x) (-q)^x, divided
    by [p^N]_{-q} when normalized."""
    total = Fraction(0)
    for x in range(p**N):
        fx = sum((c * q ** (m * x) for m, c in terms.items()), Fraction(0))
        total += fx * (-q) ** x
    if normalized:
        total /= (1 - (-q) ** (p**N)) / (1 + q)
    return total


def moment_integral(m: int, normalized: bool = True) -> tuple[RatFuncQ, RatFuncQ]:
    """Exact value of the integral of q^(m x), [2]_q / (1 + q^(m+1)), as its
    numerator and denominator.

    With ``normalized=False`` this is instead 2 / (1 + q^(m+1)), the
    p-adic limit of the raw (un-normalized) alternating sums.
    """
    return qbracket(2, 1) if normalized else RatFuncQ(2), ONE + q_power(m + 1)


def at_q(pair: tuple[RatFuncQ, RatFuncQ], q: Fraction) -> Fraction:
    num, den = pair
    return eval_at(num, q) / eval_at(den, q)


def integrate_termwise(spec: IntegrandSpec, normalized: bool = True) -> tuple[RatFuncQ, RatFuncQ]:
    """Reference for `integrate`, as (N, D) with the integral N / D: the
    moments c_m times moment_integral(m) added over the product of their
    denominators."""
    terms = []
    for m, c in spec.items():
        num, den = moment_integral(m, normalized)
        terms.append((c * num, den))
    return cross_sum(terms)


def combination(*pairs: tuple) -> IntegrandSpec:
    """The spec sum of scalar * spec over (scalar, spec) pairs, built from
    one merged coefficient dict."""
    merged: dict = {}
    for scalar, spec in pairs:
        for m, c in spec.items():
            merged[m] = merged.get(m, ZERO) + scalar * c
    return IntegrandSpec(merged)


def seeded_integrand(rng: random.Random, kind: int) -> IntegrandSpec:
    """A bracket-power expansion (exponents down to m < -1), the same
    shifted, a linear combination of two with different denominators, or
    q-exponentials with Fraction coefficients only."""
    if kind == 3:
        return random_spec(rng)
    spec = bracket_power_integrand(rng.randint(-2, 2), rng.choice([-3, -2, -1, 1, 2, 3]),
                                   rng.randint(0, 5), sign=rng.choice([1, -1]),
                                   exp_shift=rng.randint(-5, 3))
    if kind == 1:
        return spec.shifted(rng.randint(-2, 2))
    if kind == 2:
        other = bracket_power_integrand(rng.randint(-2, 2), rng.choice([-2, -1, 1, 2]),
                                        rng.randint(0, 4), exp_shift=rng.randint(-4, 2))
        return combination((Fraction(rng.randint(-5, 5), rng.randint(1, 4)), spec), (1, other))
    return spec


def residue(r: Fraction, mod: int) -> int:
    return r.numerator * pow(r.denominator, -1, mod) % mod


def random_spec(rng: random.Random) -> IntegrandSpec:
    terms = {
        rng.randint(-6, 6): Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        for _ in range(rng.randint(1, 5))
    }
    return IntegrandSpec(terms)


def seeded_case(rng: random.Random, p: int, kind: int) -> tuple[IntegrandSpec, Fraction]:
    """q = 1 + p k / b (negative and non-integer q included) with a spec of
    one of three kinds: q-exponentials with negative exponents, a
    bracket-power expansion (its (1 - q^a)^-n prefactor has p in the
    denominator at q), or the same expansion with the prefactor cleared."""
    k = rng.choice([-3, -2, -1, 1, 2, 3])
    b = rng.choice([b for b in (1, 2, 3, 4, 5, 7) if b % p])
    q = 1 + Fraction(p * k, b)
    if kind == 0:
        return random_spec(rng), q
    scale, power = rng.choice([-2, -1, 1, 2]), rng.randint(1, 3)
    spec = bracket_power_integrand(rng.randint(-2, 2), scale, power,
                                   sign=rng.choice([1, -1]), exp_shift=rng.randint(-2, 2))
    if kind == 2:
        spec = combination(((ONE - q_power(scale)) ** power, spec))
    return spec, q


class TestValuation:
    def test_examples(self):
        assert vp(Fraction(9, 2), 3) == 2
        assert vp(Fraction(1, 3), 3) == -1
        assert vp(10, 5) == 1

    def test_zero_undefined(self):
        with pytest.raises(ValueError):
            vp(0, 3)

    def test_not_prime(self):
        with pytest.raises(ValueError):
            vp(Fraction(1, 2), 6)

    @pytest.mark.parametrize("bad", [0.1, 25.0, "1/25", "25"])
    def test_only_exact_rationals(self, bad):
        # Fraction() would read 0.1 as a dyadic rational and "1/25" as text
        with pytest.raises(TypeError):
            vp(bad, 5)
        assert vp(Fraction(1, 25), 5) == -2

    def test_prime_must_be_an_int(self):
        # a float prime divides in floats: vp(3^40, 3.0) read 1
        assert vp(3**40, 3) == 40
        with pytest.raises(TypeError):
            vp(3**40, 3.0)

    def test_absolute_value_law(self):
        # vp(a*b) = vp(a) + vp(b)
        rng = random.Random(3)
        for _ in range(50):
            a = Fraction(rng.randint(1, 400), rng.randint(1, 400))
            b = Fraction(rng.randint(1, 400), rng.randint(1, 400))
            assert vp(a * b, 3) == vp(a, 3) + vp(b, 3)


class TestPrimality:
    # a Carmichael number, then strong pseudoprimes to the bases 2, 3, 5, 7,
    # to 2..31 and to 2..37: tests with 4, 11 and 12 prime bases pass them
    PSEUDOPRIMES = [561, 3215031751, 3825123056546413051, 318665857834031151167461]
    # a strong pseudoprime to all 13 bases 2..41: the first n past the bound
    BOUND = 3317044064679887385961981

    def test_agrees_with_trial_division(self):
        def trial(n):
            return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))

        assert [n for n in range(5000) if padic._is_prime(n)] == list(filter(trial, range(5000)))

    @pytest.mark.parametrize("n", PSEUDOPRIMES)
    def test_pseudoprimes_rejected(self, n):
        with pytest.raises(ValueError, match="not prime"):
            vp(Fraction(1, 2), n)
        with pytest.raises(ValueError, match="p must be an odd prime"):
            PadicContext(p=n, N=1, q=n + 1)

    @pytest.mark.parametrize("n", [BOUND, BOUND + 6])
    def test_past_the_bound_refused(self, n):
        with pytest.raises(ValueError, match="the test is exact only below"):
            vp(Fraction(1, 2), n)
        with pytest.raises(ValueError, match="the test is exact only below"):
            PadicContext(p=n, N=1, q=n + 1)

    def test_large_prime_builds_at_once(self):
        # trial division to the square root of 10^18 + 3 would take minutes
        start = time.perf_counter()
        ctx = PadicContext(p=10**18 + 3, N=2, q=10**18 + 4)
        elapsed = time.perf_counter() - start
        assert ctx.M == 6
        assert elapsed < 0.1, f"a context at p = 10^18 + 3 took {elapsed:.2f}s"


class TestContext:
    def test_defaults(self):
        ctx = PadicContext(p=3, N=2, q=Fraction(4))
        assert ctx.M == 6  # N + 4 guard digits
        # an int q is stored as a Fraction, by keyword or by position
        for ctx in (PadicContext(p=5, N=3, q=6), PadicContext(5, 3, 6)):
            assert type(ctx.q) is Fraction and ctx.q == 6 and ctx.M == 7

    @pytest.mark.parametrize("kwargs, error, message", [
        pytest.param(dict(p=2, N=1, q=Fraction(3)), ValueError, "p must be an odd prime",
                     id="even-prime"),
        pytest.param(dict(p=9, N=1, q=Fraction(10)), ValueError, "p must be an odd prime",
                     id="not-prime"),
        pytest.param(dict(p=3, N=1, q=Fraction(2)), ValueError,
                     "q must satisfy v_p(q - 1) >= 1", id="q-not-1-mod-p"),
        pytest.param(dict(p=3, N=1, q=Fraction(1)), ValueError,
                     "q must satisfy v_p(q - 1) >= 1", id="q-is-1"),
        pytest.param(dict(p=3, N=1, q=Fraction(4, 3)), ValueError,
                     "q must have a p-free denominator", id="p-in-denominator"),
        pytest.param(dict(p=3, N=3, q=Fraction(4), M=1), ValueError,
                     "working precision M must be at least N", id="M-below-N"),
        pytest.param(dict(p=3, N=1, q=Fraction(4), M=-1), ValueError,
                     "working precision M must be at least N", id="M-negative"),
        pytest.param(dict(p=3, N=-1, q=Fraction(4)), ValueError,
                     "truncation level must be nonnegative", id="N-negative"),
        # inexact input is refused at construction, not read as a nearby value
        pytest.param(dict(p=3, N=2.5, q=4), TypeError,
                     "p, N and M must be ints, got 3, 2.5, None", id="float-N"),
        pytest.param(dict(p=3, N=2, q=4, M=6.5), TypeError,
                     "p, N and M must be ints, got 3, 2, 6.5", id="float-M"),
        pytest.param(dict(p=3.0, N=2, q=4), TypeError,
                     "p, N and M must be ints, got 3.0, 2, None", id="float-p"),
        pytest.param(dict(p=3, N=2, q="4"), TypeError,
                     "q must be an int or a Fraction, got '4'", id="string-q"),
        pytest.param(dict(p=3, N=2, q=4.0), TypeError,
                     "q must be an int or a Fraction, got 4.0", id="float-q"),
    ])
    def test_validation(self, kwargs, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            PadicContext(**kwargs)


class TestIntegrandSpec:
    def test_drops_zero_coefficients(self):
        spec = IntegrandSpec({0: 1, 1: 0})
        assert len(spec) == 1

    def test_at_zero(self):
        spec = IntegrandSpec({0: 2, 3: -7})
        assert spec.at_zero() == RatFuncQ(-5)

    def test_shift(self):
        # f(x) = q^(2x) shifted by 1 becomes q^2 q^(2x)
        spec = IntegrandSpec({2: 1}).shifted(1)
        assert spec.items() == [(2, q_power(2))]

    def test_rational_function_coefficients(self):
        inv = over_cyclotomic(-1, {1: 1})  # 1 / (1 - q)
        spec = IntegrandSpec({0: inv, 1: -inv})
        assert spec.at_zero() == ZERO

    @pytest.mark.parametrize("terms", [{1: 1, 1.5: 2}, {"2": 1}, {Fraction(2): 1}])
    def test_non_integer_exponent_rejected(self, terms):
        # int() would truncate 1.5 onto the exponent 1 and lose a term
        with pytest.raises(TypeError, match="int exponent"):
            IntegrandSpec(terms)

    def test_mapping_coefficient_rejected(self):
        # a coefficient is a RatFuncQ or a rational constant, not the
        # {exponent: coefficient} terms of a Laurent polynomial
        with pytest.raises(TypeError, match="an int or a Fraction"):
            IntegrandSpec({1: {0: 1}})

    @pytest.mark.parametrize("kwargs, message", [
        pytest.param(dict(scale=0), "^bracket scale must be nonzero$", id="scale-zero"),
        pytest.param(dict(sign=2), "^sign must be \\+1 or -1$", id="sign-two"),
        pytest.param(dict(power=-1), "^power must be nonnegative$", id="power-negative"),
    ])
    def test_bracket_power_rejects(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            bracket_power_integrand(**{"x": 1, "scale": 2, "power": 2, **kwargs})


class TestMoments:
    def test_constant(self):
        num, den = moment_integral(0)  # [2]_q / (1 + q)
        assert num == den

    def test_negative_exponent(self):
        assert integrate(IntegrandSpec({-1: 1})) == qbracket(2, 1) / 2

    def test_positive_exponent(self):
        assert integrate(IntegrandSpec({1: 1})) * from_terms({0: 1, 2: 1}) == qbracket(2, 1)

    def test_forced_by_shift_equation(self):
        # the moment is the unique I with q q^m I + I = [2]_q
        for m in range(-5, 6):
            i_m = integrate(IntegrandSpec({m: 1}))
            assert q_power(m + 1) * i_m + i_m == qbracket(2, 1)
            num, den = moment_integral(m)
            assert i_m * den == num

    @pytest.mark.parametrize("m,p,q", [(-1, 3, 4), (1, 3, 4), (2, 5, 6)])
    def test_against_truncated_oracle(self, m, p, q):
        # truncated alternating sums converge p-adically to the moment
        limit = at_q(moment_integral(m), Fraction(q))
        for N in (1, 2, 3):
            s_n = naive_alternating_sum({m: Fraction(1)}, p, N, Fraction(q), True)
            assert vp(s_n - limit, p) >= N


class TestIntegrate:
    def test_constant(self):
        assert integrate(IntegrandSpec({0: 1})) == ONE

    def test_h_one_exponent(self):
        # q^((h-1) x) with h = 1 is the constant integrand
        assert integrate(IntegrandSpec({0: Fraction(1)})) == ONE

    def test_bracket_integrand_cross_module(self):
        # the integral of [x]_q equals half the weight-1 second number
        from qgen.genocchi import WeightParams, weighted_genocchi_number

        inv = over_cyclotomic(-1, {1: 1})  # 1 / (1 - q)
        spec = IntegrandSpec({0: inv, 1: -inv})
        expected = weighted_genocchi_number(2, WeightParams(1, 1)) / 2
        assert integrate(spec) == expected

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_termwise_oracle(self, seed):
        # the shared-denominator sum equals the moment-by-moment one
        rng = random.Random(7000 + seed)
        exponents = set()
        for i in range(40):
            spec = seeded_integrand(rng, i % 4)
            exponents.update(m for m, _ in spec.items())
            for normalized in (True, False):
                num, den = integrate_termwise(spec, normalized)
                assert integrate(spec, normalized) * den == num, (spec, normalized)
        assert -1 in exponents and min(exponents) < -1

    def test_linearity(self):
        rng = random.Random(17)
        for _ in range(30):
            f, g = random_spec(rng), random_spec(rng)
            a = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            b = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            combined = combination((a, f), (b, g))
            assert integrate(combined) == a * integrate(f) + b * integrate(g)


class TestTruncated:
    def test_constant_equals_normalizer(self):
        ctx = PadicContext(p=3, N=2, q=Fraction(4))
        assert truncated_integral(IntegrandSpec({0: 1}), ctx) == 1

    def test_hand_sum(self):
        # three-term sum at q=4: (1 - 16 + 256) / ((1+64)/5) = 241/13
        ctx = PadicContext(p=3, N=1, q=Fraction(4))
        assert truncated_integral(IntegrandSpec({1: 1}), ctx) == Fraction(241, 13)

    def test_single_term_level_zero(self):
        ctx = PadicContext(p=3, N=0, q=Fraction(4))
        assert truncated_integral(IntegrandSpec({0: 1}), ctx) == 1

    @pytest.mark.parametrize("p,q", [(3, 4), (5, 6)])
    @pytest.mark.parametrize("N", [0, 1, 2])
    def test_exact_path_matches_definition_oracle(self, p, q, N):
        terms = {1: Fraction(1), -2: Fraction(1, 2), 0: Fraction(-3)}
        ctx = PadicContext(p=p, N=N, q=Fraction(q))
        spec = IntegrandSpec(terms)
        want = tuple(naive_alternating_sum(terms, p, N, Fraction(q), normalized)
                     for normalized in (True, False))
        assert padic._sums(spec, ctx, "exact") == want

    @pytest.mark.parametrize("N", [1, 4, 5, 6])
    def test_sums_pair_matches_both_readings(self, N):
        # one summation gives S_N and the raw sum, on the exact path up to
        # N = 4 and on the modular path above
        ctx = PadicContext(p=3, N=N, q=Fraction(4))
        spec = IntegrandSpec({1: 1, -2: Fraction(2, 5), 0: -3})
        assert truncated_sums(spec, ctx) == (truncated_integral(spec, ctx),
                                             padic._sums(spec, ctx, "auto")[1])

    def test_unknown_method(self):
        ctx = PadicContext(p=3, N=2, q=Fraction(4))
        with pytest.raises(ValueError, match="^unknown method: 'bogus'$"):
            truncated_integral(IntegrandSpec({1: 1}), ctx, method="bogus")

    @pytest.mark.parametrize("p,q", [(3, 4), (5, 6), (3, 10), (3, "-2"), (3, "5/2"),
                                     (5, "-4"), (5, "-2/3"), (7, "8"), (7, "19/5")])
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_exact_and_modular_agree(self, p, q, N):
        cleared = combination(((ONE - q_power(2)) ** 2,
                               bracket_power_integrand(1, 2, 2, sign=-1, exp_shift=1)))
        ctx = PadicContext(p=p, N=N, q=Fraction(q))
        mod = p**ctx.M
        for spec in (IntegrandSpec({1: 1, -2: Fraction(1, 2)}),
                     IntegrandSpec({-5: 3, 0: Fraction(-1, 4), 4: 2}), cleared):
            # S_N and the raw sum
            exact, modular = padic._sums(spec, ctx, "exact"), padic._sums(spec, ctx, "modular")
            assert [residue(s, mod) for s in exact] == [int(s) % mod for s in modular]

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("N", [0, 1, 2, 3])
    def test_both_paths_match_definition_oracle(self, p, N):
        # the modular path is a residue of the literal sum, or refuses
        # exactly when some coefficient has p in its denominator at q
        rng = random.Random(1000 * p + N)
        for i in range(6):
            spec, q = seeded_case(rng, p, i % 3)
            ctx = PadicContext(p=p, N=N, q=q, M=N + rng.randint(1, 5))
            terms = {m: eval_at(c, q) for m, c in spec.items()}
            p_free = all(c.denominator % p for c in terms.values())
            assert p_free or i % 3 != 2  # a cleared expansion is p-integral
            want = tuple(naive_alternating_sum(terms, p, N, q, normalized)
                         for normalized in (True, False))
            assert padic._sums(spec, ctx, "exact") == want, (spec, q)
            if not p_free:
                with pytest.raises(PrecisionError):
                    padic._sums(spec, ctx, "modular")
                continue
            got = padic._sums(spec, ctx, "modular")
            assert got == tuple(residue(s, p**ctx.M) for s in want), (spec, q)

    @pytest.mark.parametrize("p,q,N,terms", [
        (3, "4", 4, {1: 1, -2: Fraction(1, 2), 0: -3}),  # K = 81
        (5, "6", 4, {2: Fraction(-3, 4), -1: 5}),  # K = 625
        (3, "5/2", 4, {3: 2, -4: Fraction(1, 7)}),
        (5, "-4", 3, {-1: Fraction(2, 3)}),  # m = -1: r = -1, w - u = 2
        (3, "7/4", 3, {-3: 1, -1: -2, 5: Fraction(1, 3)}),  # m + 1 < 0: w = 7^2 > 1
        (7, "19/5", 0, {-2: 3, 4: Fraction(-1, 2)}),  # K = 1: w^(K-1) = 1
        # above the auto path's last exact level, K = 243 and 729
        (3, "7/4", 5, {-3: 1, -1: -2, 2: Fraction(1, 3)}),
        (3, "7/4", 6, {-2: Fraction(5, 2), 1: -1}),
    ])
    def test_geometric_sum_matches_definition_oracle(self, p, q, N, terms):
        # the exact path sums each term and [p^N]_{-q} as one geometric
        # series, (w^K - u^K) / (w - u) over w^(K-1) for r = u/w; the
        # literal sum over x is the oracle, at the edge r's
        q = Fraction(q)
        ctx = PadicContext(p=p, N=N, q=q)
        want = tuple(naive_alternating_sum(terms, p, N, q, normalized)
                     for normalized in (True, False))
        assert padic._sums(IntegrandSpec(terms), ctx, "exact") == want

    def test_exact_path_does_not_loop_over_x(self):
        # p^10 = 59,049 terms: a step per x takes over a second; the closed
        # form takes two powers and one exact division per term
        spec = IntegrandSpec({1: 1, -2: Fraction(1, 2)})
        ctx = PadicContext(p=3, N=10, q=Fraction(4))
        start = time.perf_counter()
        exact = truncated_integral(spec, ctx, method="exact")
        elapsed = time.perf_counter() - start
        assert elapsed < 0.5, f"exact sum over 3^10 terms took {elapsed:.2f}s"
        modular = truncated_integral(spec, ctx, method="modular")
        assert residue(exact, 3**ctx.M) == modular

    def test_precision_error(self):
        ctx = PadicContext(p=3, N=5, q=Fraction(4))
        with pytest.raises(PrecisionError):
            truncated_integral(IntegrandSpec({0: Fraction(1, 3)}), ctx, method="modular")

    @pytest.mark.parametrize("normalized", [True, False])
    def test_precision_error_after_good_terms(self, normalized):
        # one p-denominator coefficient refuses the whole sum, wherever it
        # sits among the terms, as a rational or as a RatFuncQ value at q;
        # the raw sum is read with S_N, through truncated_sums
        ctx = PadicContext(p=3, N=5, q=Fraction(4))
        read = truncated_integral if normalized else truncated_sums
        for spec in (IntegrandSpec({-3: 1, 0: 2, 7: Fraction(5, 9)}),
                     bracket_power_integrand(0, 1, 1)):
            with pytest.raises(PrecisionError, match="divisible by p=3"):
                read(spec, ctx)

    @pytest.mark.parametrize("p,N,exact", [
        (3, 4, True), (3, 5, False), (7, 4, True), (11, 4, True), (13, 4, False),
        (23, 3, True), (31, 3, False), (139, 2, True), (149, 2, False),
        (19681, 1, True), (19687, 1, False), (19687, 0, True),
    ])
    def test_exact_levels(self, p, N, exact):
        # N <= 4 while p^N <= 3^9 = 19,683
        assert PadicContext(p=p, N=N, q=Fraction(p + 1)).exact is exact

    def test_levels_past_the_cut_read_as_residues(self):
        # p^3 = 29,791 > 3^9, so N = 3 reads mod p^M although N <= 4: the
        # auto sums are the modular ones, the reading prints a residue, and
        # the probe's bound N + vp(q - 1) + vp(31) = 5 is capped at M = 4
        spec = IntegrandSpec({31: 1, 0: Fraction(1, 2)})
        ctx = PadicContext(p=31, N=3, q=Fraction(32), M=4)
        value, raw = truncated_sums(spec, ctx)
        assert value == truncated_integral(spec, ctx, method="modular")
        assert raw == padic._sums(spec, ctx, "modular")[1]
        limit = eval_at(integrate(spec), ctx.q)
        assert truncated_reading(value, limit, ctx) == (f"{value} mod 31^4", ">=4")
        assert convergence_probe(spec, 31, 32, [3], M=4).entries == ((3, 4),)

    def test_auto_dispatch(self):
        spec = IntegrandSpec({0: 1})
        low = PadicContext(p=3, N=2, q=Fraction(4))
        assert truncated_integral(spec, low) == 1  # exact path
        high = PadicContext(p=3, N=5, q=Fraction(4))
        value = truncated_integral(spec, high)  # modular path
        assert value.denominator == 1 and 0 <= value < 3**high.M
        assert int(value) % 3**high.M == 1


class TestConvergence:
    def test_constant_is_exact(self):
        trace = convergence_probe(IntegrandSpec({0: 1}), 3, 4, [0, 1, 2, 3])
        assert all(v == float("inf") for _, v in trace.entries)
        assert trace.constant is None
        assert trace.limit == 1

    def test_censored_past_exact(self):
        # past PadicContext.exact S_N is a residue mod p^M: an inf entry there
        # shows only vp(S_N - L) >= M, which qgen integral prints as >=M
        spec = IntegrandSpec({0: 1})
        trace = convergence_probe(spec, 3, 4, [4, 5, 6])
        assert trace.entries == ((4, float("inf")), (5, float("inf")), (6, float("inf")))
        ctx = PadicContext(p=3, N=5, q=Fraction(4))
        assert not ctx.exact
        reading = truncated_reading(truncated_integral(spec, ctx), trace.limit, ctx)
        assert reading == (f"1 mod 3^{ctx.M}", f">={ctx.M}")

    def test_strictly_increasing(self):
        trace = convergence_probe(IntegrandSpec({1: 1}), 3, 4, [1, 2, 3])
        vals = trace.valuations()
        assert vals[0] < vals[1] < vals[2]
        assert all(v >= N for N, v in trace.entries)

    def test_p5(self):
        trace = convergence_probe(IntegrandSpec({-1: 1}), 5, 6, [1, 2])
        assert all(v >= N for N, v in trace.entries)

    def test_bound_is_exact_for_one_term(self):
        # vp(S_N - L) = N + vp(c) + vp(q - 1) + vp(m) for c q^(m x), m != 0
        for m in (-3, 1, 3, 6):
            for c in (Fraction(1), Fraction(9, 2), Fraction(1, 3)):
                trace = convergence_probe(IntegrandSpec({m: c}), 3, 4, range(5))
                want = tuple((N, N + vp(c, 3) + 1 + vp(m, 3)) for N in range(5))
                assert trace.entries == want, (m, c)

    def test_valuations_may_drop(self):
        # n = 3, alpha = 1, h = 2 at x = 0: two terms cancel further at N = 0
        # than at N = 1, and both levels meet the bound
        spec = bracket_power_integrand(0, 1, 2, exp_shift=1)
        trace = convergence_probe(spec, 3, 4, range(5))
        assert trace.entries == ((0, 2), (1, 1), (2, 2), (3, 3), (4, 4))
        assert trace.constant == 0

    @pytest.mark.parametrize("q, levels", [("4", [1, 2]), (4.0, [1, 2]), (4, [1.7]), (4, [1, 2.0])],
                             ids=["string-q", "float-q", "level-1.7", "level-2.0"])
    def test_inexact_input_rejected(self, q, levels):
        # a level 1.7 is not read as level 1, nor q = "4" as 4
        with pytest.raises(TypeError):
            convergence_probe(IntegrandSpec({1: 1}), 3, q, levels)

    def test_bound_can_fail(self, monkeypatch):
        # a sum off by 1 has valuation 0, below the bound N + vp(q - 1) = 3
        real = padic.truncated_integral
        monkeypatch.setattr(padic, "truncated_integral",
                            lambda spec, ctx: real(spec, ctx) + 1)
        with pytest.raises(ArithmeticError, match="a-priori bound"):
            convergence_probe(IntegrandSpec({1: 1}), 3, 4, [2])

    @pytest.mark.parametrize("p,q", [(3, 4), (5, 6), (3, 10)])
    def test_monomial_grid_bound(self, p, q):
        # observed bound vp(S_N - L) >= N over all small monomials
        for m in range(-6, 7):
            trace = convergence_probe(IntegrandSpec({m: 1}), p, q, [1, 2, 3])
            for N, v in trace.entries:
                assert v >= N, (m, p, q, N, v)
            assert trace.constant is None or trace.constant <= 0

    def test_deep_levels_within_ceiling(self):
        # p^12 = 244,140,625 residues: the modular path must not loop over them
        _one_plus_lcm.cache_clear()
        qcore._one_plus_chain.clear()
        start = time.perf_counter()
        trace = convergence_probe(IntegrandSpec({1: 1}), 5, 6, range(13))
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, f"probe to N=12 took {elapsed:.1f}s"
        assert trace.entries == tuple((N, N + 1) for N in range(13))
        assert trace.constant == convergence_probe(IntegrandSpec({1: 1}), 5, 6,
                                                   range(5)).constant

    def test_limit_matches_symbolic(self):
        spec = IntegrandSpec({2: Fraction(3, 7), 0: 1})
        trace = convergence_probe(spec, 3, 10, [1, 2])
        assert trace.limit == eval_at(integrate(spec), Fraction(10))


class TestBracketPowerIntegrand:
    def test_power_zero(self):
        spec = bracket_power_integrand(0, 1, 0, exp_shift=3)
        assert spec.items() == [(3, ONE)]

    @pytest.mark.parametrize("bad", [2.0, Fraction(2)])
    def test_non_int_arguments(self, bad):
        # x, scale, power, sign and exp_shift in turn; 2.0 would build
        # q^2.0 coefficients that integrate cannot sum
        args = dict(x=2, scale=1, power=2, sign=1, exp_shift=1)
        for name in args:
            with pytest.raises(TypeError, match=f"bracket power {name} must"):
                bracket_power_integrand(**{**args, name: bad if name != "sign" else bad / 2})

    def test_matches_direct_expansion(self):
        # [0 + x]_q = (1/(1-q)) (q^(0 x) - q^(1 x))
        spec = bracket_power_integrand(0, 1, 1)
        inv = over_cyclotomic(-1, {1: 1})
        assert spec == IntegrandSpec({0: inv, 1: -inv})

    @pytest.mark.parametrize("alpha", [1, 2, 3])
    @pytest.mark.parametrize("n", range(4))
    def test_reflection_route_builds_same_integrand(self, alpha, n):
        # [1-xi]_{q^-a}^n expanded directly equals its reflection form
        # (-1)^n q^(n a) [xi - 1]_{q^a}^n expanded, term for term
        h = 2
        direct = bracket_power_integrand(1, -alpha, n, sign=-1, exp_shift=h - 1)
        reflected = combination(((-1) ** n * q_power(n * alpha), bracket_power_integrand(
            -1, alpha, n, sign=1, exp_shift=h - 1
        )))
        assert direct == reflected

    @pytest.mark.parametrize("scale", [1, -1, 2, -2, 3, -3])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_shared_prefactor_matches_termwise_form(self, scale, sign):
        # the spec over one prefactor against its coefficients built one
        # RatFuncQ each: the same items, printed form, hash and integrals,
        # and the same under a shift
        for x in range(-2, 4):
            for power in range(7):
                weight = one_minus_power(scale, -power)
                for shift in range(3):
                    case = (x, power, shift)
                    coeffs = {scale * l * sign + shift:
                              (-1) ** l * comb(power, l) * q_power(scale * l * x) * weight
                              for l in range(power + 1)}
                    spec = bracket_power_integrand(x, scale, power, sign=sign, exp_shift=shift)
                    termwise = IntegrandSpec(coeffs)
                    assert spec.items() == termwise.items() == sorted(coeffs.items()), case
                    assert spec.describe() == termwise.describe() == "; ".join(
                        f"{m}: {c}" for m, c in sorted(coeffs.items())), case
                    assert hash(spec) == hash(termwise) == hash(frozenset(coeffs.items())), case
                    assert spec == termwise and len(spec) == power + 1, case
                    for normalized in (True, False):
                        num, den = integrate_termwise(termwise, normalized)
                        assert integrate(spec, normalized) == integrate(termwise, normalized), case
                        assert integrate(spec, normalized) * den == num, case
                    assert spec.at_zero() == sum(coeffs.values(), ZERO), case
                    for k in (-1, 2):
                        assert spec.shifted(k).items() == sorted(
                            (m, c * q_power(m * k)) for m, c in coeffs.items()), case

    def test_repr_pinned(self):
        # the printed form of the term-by-term spec, byte for byte
        assert repr(bracket_power_integrand(0, 1, 2)) == (
            "IntegrandSpec({0: (1)/(1 - 2*q + q^2); 1: (-2)/(1 - 2*q + q^2); "
            "2: (1)/(1 - 2*q + q^2)})")
        assert repr(bracket_power_integrand(2, 3, 2, exp_shift=2)) == (
            "IntegrandSpec({2: (1)/(1 - 2*q^3 + q^6); 5: (-2*q^6)/(1 - 2*q^3 + q^6); "
            "8: (q^12)/(1 - 2*q^3 + q^6)})")
        assert repr(bracket_power_integrand(1, -2, 2, sign=-1, exp_shift=1)) == (
            "IntegrandSpec({1: (q^4)/(1 - 2*q^2 + q^4); 3: (-2*q^2)/(1 - 2*q^2 + q^4); "
            "5: (1)/(1 - 2*q^2 + q^4)})")

    @pytest.mark.parametrize("x,scale,power,sign,shift", [
        (0, 1, 2, 1, 0), (1, 2, 3, 1, 1), (1, -1, 2, -1, 0), (2, -2, 3, -1, 2),
        # the prefactor from Phi_d multiplicities, with its q^(|a| n) shift
        # at a < 0, at every scale and power up to 6 and both signs
        *((power % 3 - 1, scale, power, sign, power % 3)
          for scale in (1, -1, 2, -2, 3, -3, 6, -6) for power in range(1, 7) for sign in (1, -1)),
    ])
    def test_pointwise_oracle(self, x, scale, power, sign, shift):
        # evaluate the expansion at sample (q, xi) pairs against the
        # literal bracket-power formula
        spec = bracket_power_integrand(x, scale, power, sign=sign, exp_shift=shift)
        for q0 in (Fraction(2), Fraction(3, 2)):
            for xi in range(4):
                got = sum(
                    (eval_at(c, q0) * q0 ** (m * xi) for m, c in spec.items()),
                    Fraction(0),
                )
                bracket = (1 - q0 ** (scale * (x + sign * xi))) / (1 - q0**scale)
                want = q0 ** (shift * xi) * bracket**power
                assert got == want


class TestFunctionalEquation:
    def test_constant(self):
        assert not functional_equation_residual(IntegrandSpec({0: 1}))

    def test_monomial(self):
        assert not functional_equation_residual(IntegrandSpec({3: 1}))

    def test_linear_combination(self):
        assert not functional_equation_residual(IntegrandSpec({1: 2, 4: -7}))

    def test_fifty_random_specs(self):
        rng = random.Random(20110901)
        for _ in range(50):
            assert not functional_equation_residual(random_spec(rng))

    def test_residual_zero_normalized(self):
        rng = random.Random(4)
        for _ in range(20):
            assert not functional_equation_residual(random_spec(rng))


class TestNormalizationAdjudication:
    """The raw (unnormalized) reading of the limit fails the q-shift
    equation by exactly (2 - [2]_q) f(0); the normalized reading
    satisfies it."""

    def test_unnormalized_residual_for_constant(self):
        res = functional_equation_residual(IntegrandSpec({0: 1}), normalized=False)
        assert res == (RatFuncQ(2) - qbracket(2, 1))  # f(0) = 1
        assert res == ONE - Q
        assert res  # fails for q != 1

    def test_unnormalized_residual_general(self):
        rng = random.Random(12)
        for _ in range(20):
            spec = random_spec(rng)
            res = functional_equation_residual(spec, normalized=False)
            assert res == (RatFuncQ(2) - qbracket(2, 1)) * spec.at_zero()

    def test_normalized_residual_vanishes(self):
        assert not functional_equation_residual(IntegrandSpec({0: 1}))

    def test_unnormalized_moment_limit(self):
        # raw truncated sums converge to 2/(1+q^(m+1)), not [2]_q/(1+q^(m+1))
        m, p, q = 1, 3, Fraction(4)
        raw_limit = at_q(moment_integral(m, normalized=False), q)
        for N in (2, 3):
            ctx = PadicContext(p=p, N=N, q=q)
            raw = truncated_sums(IntegrandSpec({m: 1}), ctx)[1]
            assert vp(raw - raw_limit, p) >= N
