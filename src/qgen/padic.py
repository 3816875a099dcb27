"""Fermionic p-adic q-integral on Z_p, made exact and testable.

The integral of f over Z_p against the alternating q-measure is the
p-adic limit of normalized sums

    S_N(f) = (1 / [p^N]_{-q}) * sum_{x=0}^{p^N - 1} f(x) (-q)^x,

with [p^N]_{-q} = (1 - (-q)^(p^N)) / (1 + q).  Every integrand used here
is a finite combination of q-exponentials x -> q^(m x), for which the
limit has the exact closed form

    integral of q^(m x)  =  [2]_q / (1 + q^(m+1)),

so symbolic integration reduces to finite moment combinations, and the
truncated sums provide an independent numeric route whose convergence
can be measured in the p-adic valuation.

Costs.  A spec holds integer numerators over one shared prefactor, so a
bracket power's terms are +-C(n, l) over its (1 - q^a)^n, with no RatFuncQ
per term.  `integrate` adds its moments c_m / (1 + q^(m+1)) as integer
slices over one shared denominator (`qcore._sum_over_one_plus`) and
reduces the sum, times [2]_q, once, by the cyclotomic factors of that
denominator; the (1 - q^a)^-n weight goes in one exact division.

With K = p^N, every truncated sum is one geometric series
sum_{x<K} r^x per term, r = -q^(m+1), and the normalizer [p^N]_{-q} is
the same series at r = -q.  Both paths sum it in closed form, with no
loop over x: the exact path over Q, writing r = u/w, as
((w^K - u^K) // (w - u)) / w^(K-1), where the division is exact in Z
(r = 1 would need q = -1, which v_p(q - 1) >= 1 rules out for odd p);
the modular path as (1 - r^K) (1 - r)^-1 mod p^M, where q = 1 mod p
makes 1 - r = 2 mod p a unit, so this is an identity in Z/p^M, not an
approximation.  Each costs O(log K) products per term, but an exact
sum has about K digits, so S_N is exact up to N = 4 while p^N <= 3^9
(`PadicContext.exact`) and a residue mod p^M past that.  The
literal-definition oracle, a K-step loop over x, is
`naive_alternating_sum` in the tests.

Note on normalization: without the 1/[p^N]_{-q} factor the limiting
functional satisfies q I(f1) + I(f) = 2 f(0) instead of the q-shift
equation q I(f1) + I(f) = [2]_q f(0).  The normalized reading is the
one adopted throughout; `integrate` takes ``normalized=False`` for the
unnormalized reading, and `truncated_sums` gives the raw sum next to S_N.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Mapping
from fractions import Fraction
from functools import lru_cache

from qgen.qcore import (
    RatFuncQ,
    ZERO,
    _divisors,
    _reduced,
    _require_int,
    _shared_prefactor,
    _sum_over_one_plus,
    eval_at,
    fraction_text,
    q_power,
    qbracket,
)

__all__ = [
    "ConvergenceTrace",
    "IntegrandSpec",
    "PadicContext",
    "PrecisionError",
    "bracket_power_integrand",
    "convergence_probe",
    "functional_equation_residual",
    "integrate",
    "truncated_integral",
    "truncated_reading",
    "truncated_sums",
    "vp",
]

CoeffLike = RatFuncQ | Fraction | int

# a truncated sum is exact at levels N <= _EXACT_MAX_N with p^N <= _EXACT_MAX_COUNT
# (read only by PadicContext.exact); the exact sum has about p^N digits
_EXACT_MAX_N = 4
_EXACT_MAX_COUNT = 3**9


class PrecisionError(ArithmeticError):
    """Modular arithmetic hit a denominator divisible by p."""


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# below this bound (Sorenson and Webster, Math. Comp. 86 (2017)); the
# strong pseudoprime 3317044064679887385961981 passes all 13
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Whether n is prime; raises ValueError at n >= _PRIME_BOUND."""
    if n >= _PRIME_BOUND:
        raise ValueError(f"cannot tell whether {n} is prime: "
                         f"the test is exact only below {_PRIME_BOUND}")
    if n < 2:
        return False
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def vp(r: Fraction | int, p: int) -> int:
    """p-adic valuation of a nonzero rational (|r|_p = p^-vp(r))."""
    if not isinstance(r, (int, Fraction)):
        raise TypeError(f"vp expects an int or a Fraction, got {r!r}")
    _require_int("vp", p=p)
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if r == 0:
        raise ValueError("valuation of zero is undefined (callers treat it as +infinity)")
    v = 0
    for n, sign in ((r.numerator, 1), (r.denominator, -1)):
        while n % p == 0:
            n //= p
            v += sign
    return v


class PadicContext(namedtuple("PadicContext", "p N q M")):
    """Odd prime p, truncation level N, working precision M, and a
    rational q with v_p(q - 1) >= 1 and a p-free denominator.  q is
    stored as a Fraction, and M defaults to N + 4 guard digits."""

    __slots__ = ()

    def __new__(cls, p: int, N: int, q: Fraction | int, M: int | None = None):
        if not all(isinstance(v, int) for v in (p, N, M) if v is not None):
            raise TypeError(f"p, N and M must be ints, got {p!r}, {N!r}, {M!r}")
        if not isinstance(q, (int, Fraction)):
            raise TypeError(f"q must be an int or a Fraction, got {q!r}")
        if p < 3 or not _is_prime(p):
            raise ValueError("p must be an odd prime")
        if N < 0:
            raise ValueError("truncation level must be nonnegative")
        q = Fraction(q)
        if q.denominator % p == 0:
            raise ValueError("q must have a p-free denominator")
        if q == 1 or vp(q - 1, p) < 1:
            raise ValueError("q must satisfy v_p(q - 1) >= 1")
        if M is None:
            M = N + 4
        if M < N:
            raise ValueError("working precision M must be at least N")
        return super().__new__(cls, p, N, q, M)

    @property
    def exact(self) -> bool:
        """Whether S_N reads as an exact rational: N <= 4 while p^N <= 3^9.
        Past that, S_N is a residue mod p^M."""
        return self.N <= _EXACT_MAX_N and self.p**self.N <= _EXACT_MAX_COUNT


class IntegrandSpec:
    """Finite combination x -> sum_m c_m q^(m x).

    Exponents m are integers (anything else is a TypeError); coefficients
    live in Q(q) (rational constants embed as constant rational
    functions).  Zero coefficients are dropped.

    Stored over one prefactor, a content and Phi_d multiplicities, as
    c_m = content q^(s_m) num_m(q) / prod_d Phi_d^(k_d) with integer
    lists num_m (`qcore._shared_prefactor`); `items()`, which `==`, `hash`
    and the printed forms read, reduces each c_m once, on first use.
    """

    __slots__ = ("_content", "_den", "_nums", "_items")

    def __init__(self, terms: Mapping[int, CoeffLike]):
        for m in terms:
            if not isinstance(m, int):
                raise TypeError(f"expected an int exponent, got {m!r}")
        coeffs = {m: c if isinstance(c, RatFuncQ) else RatFuncQ(c) for m, c in terms.items()}
        coeffs = {m: c for m, c in coeffs.items() if c}
        content, den, nums = _shared_prefactor(coeffs.values())
        self._set(content, den, dict(zip(coeffs, nums)))

    def _set(self, content: Fraction, den, nums: dict) -> "IntegrandSpec":
        # nums: {m: (s_m, num_m)}, every num_m a nonzero integer tuple
        self._content, self._den, self._nums, self._items = content, den, nums, None
        return self

    def items(self) -> list[tuple[int, RatFuncQ]]:
        if self._items is None:
            c, den = self._content, self._den
            self._items = [(m, _reduced(s, list(num), den, den, c.numerator, c.denominator))
                           for m, (s, num) in sorted(self._nums.items())]
        return list(self._items)

    def __len__(self) -> int:
        return len(self._nums)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IntegrandSpec):
            return self.items() == other.items()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self.items()))

    def at_zero(self) -> RatFuncQ:
        """f(0), the sum of all coefficients."""
        return sum((c for _, c in self.items()), ZERO)

    def shifted(self, k: int = 1) -> "IntegrandSpec":
        """The integrand x -> f(x + k); each c_m picks up a factor q^(m k)."""
        nums = {m: (s + m * k, num) for m, (s, num) in self._nums.items()}
        return IntegrandSpec.__new__(IntegrandSpec)._set(self._content, self._den, nums)

    def describe(self) -> str:
        if not self._nums:
            return "0"
        return "; ".join(f"{m}: {c}" for m, c in self.items())

    def __repr__(self) -> str:
        return f"IntegrandSpec({{{self.describe()}}})"


def bracket_power_integrand(x: int, scale: int, power: int, *, sign: int = 1,
                            exp_shift: int = 0) -> IntegrandSpec:
    """Binomial expansion of q^(exp_shift * xi) [x + sign*xi]_{q^scale}^power.

    [x + s xi]_{q^a}^n = (1 - q^a)^-n sum_l C(n,l) (-1)^l q^(a l x) q^(a l s xi),
    so the term at exponent m = a*l*sign + exp_shift carries coefficient
    (1 - q^a)^-n C(n,l) (-1)^l q^(a l x).
    """
    _require_int("bracket power", x=x, scale=scale, power=power, sign=sign, exp_shift=exp_shift)
    if scale == 0:
        raise ValueError("bracket scale must be nonzero")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if power < 0:
        raise ValueError("power must be nonnegative")
    # the shared prefactor (1 - q^a)^-n is (-1)^n / prod_{d | a} Phi_d^n for
    # a > 0 and q^(|a| n) / prod_{d | |a|} Phi_d^n for a < 0, its q^(|a| n)
    # carried in every shift
    den = tuple((d, power) for d in _divisors(abs(scale))) if power else ()
    shift, sign_n = (0, (-1) ** power) if scale > 0 else (-scale * power, 1)
    nums = {scale * l * sign + exp_shift:
            (shift + scale * l * x, ((-1) ** l * math.comb(power, l),)) for l in range(power + 1)}
    return IntegrandSpec.__new__(IntegrandSpec)._set(Fraction(sign_n), den, nums)


# ---------------------------------------------------------------------------
# symbolic integration
# ---------------------------------------------------------------------------


def integrate(spec: IntegrandSpec, normalized: bool = True) -> RatFuncQ:
    """Integrate a finite q-exponential combination; exact and linear.

    The moments sum_m c_m / (1 + q^(m+1)) are added over one shared
    denominator, times [2]_q, and reduced once (times 2 unnormalized).
    """
    bracket = ((2, 1),) if normalized else ()  # [2]_q = Phi_2
    terms = [(s, num, m + 1) for m, (s, num) in spec._nums.items()]
    moments = _sum_over_one_plus(spec._content, spec._den, terms, bracket)
    return moments if normalized else 2 * moments


# ---------------------------------------------------------------------------
# truncated sums
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _coeff_values(spec: IntegrandSpec, q: Fraction) -> tuple[tuple[int, Fraction], ...]:
    # every level of a convergence probe sums the same values
    return tuple((m, eval_at(c, q)) for m, c in spec.items())


def _geometric(r: Fraction, count: int) -> Fraction:
    # sum_{x<K} r^x for r = u/w != 1: w^K - u^K = (w - u) sum_{x<K} u^x w^(K-1-x)
    u, w = r.numerator, r.denominator
    return Fraction((w**count - u**count) // (w - u), w ** (count - 1))


def _diff_valuation(diff: Fraction, ctx: PadicContext) -> float:
    """vp(diff) for a truncated sum minus its limit; inf when diff is 0.

    Past `ctx.exact` the sum is a residue mod p^M, so the valuation is
    capped at M, and inf (the residue equals the limit mod p^M) shows only
    vp >= M, as M does: `truncated_reading` prints both as ``>=M``.
    """
    if diff == 0:
        return math.inf
    v = vp(diff, ctx.p)
    return v if ctx.exact else min(v, ctx.M)


def _to_mod(r: Fraction, p: int, mod: int) -> int:
    if r.denominator % p == 0:
        raise PrecisionError(
            f"a coefficient has denominator {r.denominator}, divisible by p={p}, "
            f"so it has no residue mod p^M for any M"
        )
    return r.numerator * pow(r.denominator, -1, mod) % mod


def _geometric_mod(r: int, count: int, mod: int) -> int:
    # the same sum mod p^M, for r = -1 mod p
    return (1 - pow(r, count, mod)) * pow(1 - r, -1, mod) % mod


def _sums(spec: IntegrandSpec, ctx: PadicContext, method: str) -> tuple[Fraction, Fraction]:
    # (S_N, the raw sum) from one summation: q^(m x) (-q)^x = r^x with
    # r = -q^(m+1), and [p^N]_{-q} is the same geometric sum at r = -q
    if method == "auto":
        method = "exact" if ctx.exact else "modular"
    elif method not in ("exact", "modular"):
        raise ValueError(f"unknown method: {method!r}")
    count, coeffs = ctx.p**ctx.N, _coeff_values(spec, ctx.q)
    if method == "exact":
        raw = sum((c * _geometric(-ctx.q ** (m + 1), count) for m, c in coeffs), Fraction(0))
        return raw / _geometric(-ctx.q, count), raw
    p, mod = ctx.p, ctx.p**ctx.M
    qm = _to_mod(ctx.q, p, mod)
    raw = sum(_to_mod(c, p, mod) * _geometric_mod(-pow(qm, m + 1, mod), count, mod)
              for m, c in coeffs) % mod
    total = raw * pow(_geometric_mod(-qm, count, mod), -1, mod) % mod
    return Fraction(total), Fraction(raw)


def truncated_integral(spec: IntegrandSpec, ctx: PadicContext, *,
                       method: str = "auto") -> Fraction:
    """Truncated sum S_N(f) at q = ctx.q.

    By default (``method="auto"``) an exact rational where ``ctx.exact``
    holds (N <= 4 while p^N <= 3^9), and past it a reduced representative
    mod p^M; ``method="exact"`` or ``"modular"`` forces a path at any
    level.  Readings (`truncated_reading`, `convergence_probe`) follow
    ``ctx.exact``, not ``method``.  Both paths sum each term, and the
    normalizer [p^N]_{-q}, as one geometric series in closed form, over Q
    or mod p^M, and neither loops over x.  `truncated_sums` gives the
    raw sum too.
    """
    return _sums(spec, ctx, method)[0]


def truncated_sums(spec: IntegrandSpec, ctx: PadicContext) -> tuple[Fraction, Fraction]:
    """S_N(f) and the raw sum from one summation: the raw sum divided by
    [p^N]_{-q} is S_N(f), read as `truncated_integral` reads it."""
    return _sums(spec, ctx, "auto")


def truncated_reading(value: Fraction, limit: Fraction, ctx: PadicContext) -> tuple[str, str]:
    """A truncated sum and vp(sum - limit) as printed: exact up to N = 4
    while p^N <= 3^9 (``ctx.exact``), in full at any size (inf when the sum
    equals the limit); past that, the sum is a residue ``r mod p^M`` and a
    valuation that reaches M reads ``>=M``, since the residue shows only
    that the sum agrees with the limit in M digits."""
    valuation = _diff_valuation(value - limit, ctx)
    if ctx.exact:
        return fraction_text(value), str(valuation)
    text = f">={ctx.M}" if valuation >= ctx.M else str(valuation)
    return f"{fraction_text(value)} mod {ctx.p}^{ctx.M}", text


# ---------------------------------------------------------------------------
# convergence diagnostics
# ---------------------------------------------------------------------------


class ConvergenceTrace(namedtuple("ConvergenceTrace", "p q entries limit constant")):
    """Valuations of S_N(f) - L for increasing N, against the exact limit L.

    p is an int, q and ``limit`` are Fractions, ``entries`` holds one
    (N, vp(S_N - L)) pair per level, the valuation ``math.inf`` where the
    difference vanished, and ``constant`` is the smallest C with
    vp(S_N - L) >= N - C across the trace (None when every entry is inf).
    Past ``PadicContext.exact`` an entry is censored at M: ``inf`` there
    means the residue S_N equals L mod p^M, so it shows only vp >= M, which
    `qgen integral` prints as ``>=M``.
    """

    __slots__ = ()

    def valuations(self) -> list[float]:
        return [v for _, v in self.entries]


def convergence_probe(spec: IntegrandSpec, p: int, q: Fraction | int,
                      N_list: Iterable[int], M: int | None = None) -> ConvergenceTrace:
    """Measure vp(S_N(f) - L) for each N, where L is the exact symbolic
    integral evaluated at q, and check it against the a-priori bound

        vp(S_N - L) >= N + min over m != 0 of (vp(c_m(q)) + vp(q - 1) + vp(m)),

    capped at M past ``ctx.exact``; a level below it raises ArithmeticError.  For
    one term c q^(m x) and K = p^N, S_N - L is
    c (1 + q) q^K (q^(m K) - 1) / ((1 + q^(m+1)) (1 + q^K)), whose one
    non-unit factor q^(m K) - 1 has valuation vp(q - 1) + vp(m) + N by
    lifting the exponent (p odd, q = 1 mod p), so the bound is exact for
    one term; the m = 0 term contributes nothing."""
    limit = eval_at(integrate(spec), q)  # TypeError unless q is an int or a Fraction
    q = Fraction(q)
    offset = min((vp(c, p) + vp(m, p) for m, c in _coeff_values(spec, q) if m and c),
                 default=math.inf)
    entries: list[tuple[int, float]] = []
    for N in sorted(set(N_list)):
        ctx = PadicContext(p=p, N=N, q=q, M=M)
        v = _diff_valuation(truncated_integral(spec, ctx) - limit, ctx)
        bound = N + vp(q - 1, p) + offset
        if not ctx.exact:
            bound = min(bound, ctx.M)
        if v < bound:
            raise ArithmeticError(f"vp(S_{N} - L) = {v} is below the a-priori bound {bound}")
        entries.append((N, v))
    finite = [N - int(v) for N, v in entries if v != math.inf]
    constant = max(finite) if finite else None
    return ConvergenceTrace(p=p, q=q, entries=tuple(entries), limit=limit,
                            constant=constant)


# ---------------------------------------------------------------------------
# the q-shift functional equation
# ---------------------------------------------------------------------------


def functional_equation_residual(spec: IntegrandSpec, normalized: bool = True) -> RatFuncQ:
    """q I(f1) + I(f) - [2]_q f(0), with f1(x) = f(x + 1).

    Zero for every integrand under the normalized integral; under the
    unnormalized reading it equals (2 - [2]_q) f(0) instead.
    """
    lhs = q_power(1) * integrate(spec.shifted(1), normalized) + integrate(spec, normalized)
    return lhs - qbracket(2, 1) * spec.at_zero()
