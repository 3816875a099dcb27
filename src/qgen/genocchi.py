"""Weighted (h,q)-Genocchi numbers and polynomials, by three exact routes.

For a weight alpha >= 1 and auxiliary exponent h >= 1, the polynomial of
index n >= 1 at an integer point x is n times the fermionic p-adic
q-integral of q^((h-1) xi) [x + xi]_{q^alpha}^(n-1); index 0 is 0 by
convention.  Three independent computations are provided:

closed form    the definition itself: n times `padic.integrate` of the
               binomial expansion of the integrand,
               n [2]_q (1 - q^alpha)^-(n-1)
                 * sum_l C(n-1, l) (-1)^l q^(alpha l x) / (1 + q^(alpha l + h)),
               the weight carried as Phi_d multiplicities; the one
               reducer of qcore removes the (1 - q^alpha) poles, which
               always cancel, and [2]_q enters that reduction;

recurrence     numbers only: (1 + q^h) g_1 = [2]_q and, for n > 1,
               (1 + q^(h + alpha (n-1))) g_n
                   = -q^(h - alpha) sum_{k=1}^{n-1} C(n, k) q^(alpha k) g_k;

umbral         polynomials from numbers:
               g_n(x) = q^(-alpha x) sum_k C(n, k) q^(alpha k x) g_k [x]_{q^alpha}^(n-k),
               with the 0-th symbolic power mapped to g_0 = 0, not to 1;

plus a fourth, numeric route through truncated p-adic sums, whose limit
at any admissible rational q is checked against the umbral value.

Both sums are one fraction-free Horner pass in Z[q], `_horner`.  With
g_k = q^sigma_k P_k / E_k, E_k = prod_{j<k} (1 + q^(h + alpha j)) and
[x]_{q^alpha} = q^(alpha min(x, 0)) b, it sums C(n, k) q^(alpha k max(x, 0)
+ sigma_k) P_k b^(top-k) E_top / E_k over k = 1..top.  At x = 1 (b = 1)
and top = n - 1 it is -q^alpha P_n; at top = n it is q^(alpha x) E_n g_n(x)
over q^(alpha n min(x, 0)), which `qcore._over_one_plus` reduces once.

All routes agree structurally; the q -> 1 limit of the (alpha=1, h=1)
numbers reproduces the classical Genocchi integers generated by
2t/(e^t + 1).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from qgen.padic import (
    ConvergenceTrace,
    PadicContext,
    bracket_power_integrand,
    convergence_probe,
    integrate,
)
from qgen.qcore import (
    RatFuncQ,
    ZERO,
    _int_mul,
    _over_one_plus,
    _require_int,
    _trim,
    eval_at,
)

__all__ = [
    "GenocchiTable",
    "ROUTE_CLOSED",
    "ROUTE_RECURRENCE",
    "ROUTE_UMBRAL",
    "WeightParams",
    "build_table",
    "classical_genocchi",
    "weighted_genocchi_integral_route",
    "weighted_genocchi_number",
    "weighted_genocchi_poly_closed",
    "weighted_genocchi_poly_umbral",
    "weighted_genocchi_recurrence",
]

ROUTE_CLOSED = "closed-form"
ROUTE_RECURRENCE = "recurrence"
ROUTE_UMBRAL = "umbral"


class WeightParams(namedtuple("WeightParams", "alpha h")):
    """Weight alpha >= 1 and auxiliary exponent h >= 1.

    alpha = 0 degenerates the defining bracket ([x]_{q^0} is 0/0) and is
    rejected even though weight 0 formally appears in the literature.
    """

    __slots__ = ()

    def __new__(cls, alpha: int, h: int):
        _require_int("weight", alpha=alpha, h=h)
        if alpha < 1:
            raise ValueError("weight alpha must be a positive integer")
        if h < 1:
            raise ValueError("h must be a positive integer")
        return super().__new__(cls, alpha, h)


@lru_cache(maxsize=None)
def _closed(n: int, alpha: int, h: int, x: int) -> RatFuncQ:
    if n == 0:
        return ZERO
    return n * integrate(bracket_power_integrand(x, alpha, n - 1, exp_shift=h - 1))


def weighted_genocchi_poly_closed(n: int, w: WeightParams, x: int) -> RatFuncQ:
    """Closed-form polynomial value: n times the fermionic integral of
    q^((h-1) xi) [x + xi]_{q^alpha}^(n-1), by `padic.integrate`.

    The apparent (1 - q^alpha) pole always cancels structurally, so the
    result is regular at q = 1 and eval_at(., 1) is defined.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    return _closed(n, w.alpha, w.h, x)


def weighted_genocchi_number(n: int, w: WeightParams) -> RatFuncQ:
    """The number g_n = g_n(0); index 0 gives 0."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    return _closed(n, w.alpha, w.h, 0)


def _horner(n: int, top: int, alpha: int, h: int, x: int) -> list[int]:
    b = [0] * (alpha * (abs(x) - 1) + 1)
    b[::alpha] = [-1 if x < 0 else 1] * abs(x)
    acc: list[int] = []
    for k in range(1, top + 1):
        if acc:
            pad = [0] * (h + alpha * (k - 1))
            acc = _int_mul([u + v for u, v in zip(acc + pad, pad + acc)], b)
        p_k = _recurrence_numerator(k, alpha, h)
        off = alpha * k * max(x, 0) + (h if k > 1 else 0)
        acc.extend([0] * (off + len(p_k) - len(acc)))
        c = comb(n, k)
        for i, y in enumerate(p_k, off):
            acc[i] += c * y
    return _trim(acc)


@lru_cache(maxsize=None)
def _recurrence_numerator(n: int, alpha: int, h: int) -> tuple[int, ...]:
    # P_n in g_n = q^sigma_n P_n / E_n, sigma_n = h but sigma_1 = 0; P_0 = 0, the empty pass
    if n == 1:
        return (1, 1)
    return tuple(-c for c in _horner(n, n - 1, alpha, h, 1)[alpha:])


@lru_cache(maxsize=None)
def _recurrence_number(n: int, alpha: int, h: int) -> RatFuncQ:
    return _over_one_plus(h if n > 1 else 0, _recurrence_numerator(n, alpha, h),
                          [h + alpha * j for j in range(n)])


def weighted_genocchi_recurrence(n_max: int, w: WeightParams) -> dict[int, RatFuncQ]:
    """Numbers g_0 .. g_{n_max} computed solely from the umbral recurrence."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    return {n: _recurrence_number(n, w.alpha, w.h) for n in range(n_max + 1)}


@lru_cache(maxsize=None)
def _umbral(n: int, alpha: int, h: int, x: int) -> RatFuncQ:
    # [0]_{q^alpha} = 0 leaves only the k = n term, the recurrence number
    if x == 0:
        return _recurrence_number(n, alpha, h)
    return _over_one_plus(alpha * (n * min(x, 0) - x), _horner(n, n, alpha, h, x),
                          [h + alpha * j for j in range(n)])


def weighted_genocchi_poly_umbral(n: int, w: WeightParams, x: int) -> RatFuncQ:
    """Umbral expansion of the polynomial from the recurrence numbers.

    Implements q^(-alpha x) (q^(alpha x) g + [x]_{q^alpha})^n with the
    running index on g and the convention g^0 -> g_0 = 0, in integers
    over E_n; structurally equal to the closed form at every integer x.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    return _umbral(n, w.alpha, w.h, x)


def weighted_genocchi_integral_route(n: int, w: WeightParams, x: int,
                                     ctx: PadicContext,
                                     N_list: list[int] | None = None) -> ConvergenceTrace:
    """Numeric route: truncated alternating sums of the defining integrand.

    Probes convergence over N_list (default 0..ctx.N) and checks that the
    p-adic limit equals the umbral value at q = ctx.q divided by n (the
    closed form is n times that limit, so it cannot check it).
    """
    if n < 1:
        raise ValueError("index must be positive for the integral route")
    spec = bracket_power_integrand(x, w.alpha, n - 1, exp_shift=w.h - 1)
    Ns = list(N_list) if N_list is not None else list(range(ctx.N + 1))
    trace = convergence_probe(spec, ctx.p, ctx.q, Ns, M=ctx.M)
    expected = eval_at(_umbral(n, w.alpha, w.h, x), ctx.q) / n
    if trace.limit != expected:
        raise ArithmeticError(
            f"integral-route limit {trace.limit} != umbral value / n = {expected}"
        )
    return trace


# ---------------------------------------------------------------------------
# classical limit
# ---------------------------------------------------------------------------

_genocchi_cache: list[Fraction] = []


def classical_genocchi(n: int) -> Fraction:
    """n! times the t^n coefficient of 2t/(e^t + 1), by exact series division.

    Always an integer (returned as a Fraction); odd indices >= 3 vanish.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    while len(_genocchi_cache) <= n:
        j = len(_genocchi_cache)
        # denominator series e^t + 1: constant 2, then 1/j!
        num_j = Fraction(2) if j == 1 else Fraction(0)
        acc = num_j
        for i in range(j):
            c_i = _genocchi_cache[i] / factorial(i)
            acc -= c_i * Fraction(1, factorial(j - i))
        _genocchi_cache.append(acc / 2 * factorial(j))
    return _genocchi_cache[n]


# ---------------------------------------------------------------------------
# memo table with provenance
# ---------------------------------------------------------------------------


class GenocchiTable:
    """Memoized values indexed by (n, alpha, h, x) with route tags.

    Recording the same index from two routes cross-checks them: a
    structural mismatch raises ArithmeticError immediately.
    """

    def __init__(self):
        self._entries: dict[tuple[int, int, int, int], tuple[RatFuncQ, set[str]]] = {}

    def record(self, n: int, w: WeightParams, x: int, value: RatFuncQ, route: str) -> None:
        key = (n, w.alpha, w.h, x)
        existing, routes = self._entries.setdefault(key, (value, set()))
        if existing != value:
            raise ArithmeticError(
                f"route disagreement at {key}: {route} produced {value}, "
                f"table holds {existing} from {sorted(routes)}"
            )
        routes.add(route)

    def entries(self) -> list[tuple[tuple[int, int, int, int], RatFuncQ, set[str]]]:
        return [(key, value, set(routes))
                for key, (value, routes) in sorted(self._entries.items())]


def build_table(n_max: int, w: WeightParams, xs: tuple[int, ...] = (0,)) -> GenocchiTable:
    """Fill a table over n = 0..n_max at x = 0 and the given x values,
    cross-checking the closed form: against the recurrence numbers at
    x = 0, where the umbral expansion is the recurrence number itself;
    against the umbral expansion of those numbers elsewhere.

    n is the outer loop: the closed forms at one n and every x integrate
    over the same moment denominators, and `qcore` keeps only the last
    table of their cofactors, so each table is built once."""
    table = GenocchiTable()
    for n, value in weighted_genocchi_recurrence(n_max, w).items():
        table.record(n, w, 0, value, ROUTE_RECURRENCE)
    for n in range(n_max + 1):
        for x in dict.fromkeys((0, *xs)):
            table.record(n, w, x, weighted_genocchi_poly_closed(n, w, x), ROUTE_CLOSED)
            table.record(n, w, x, weighted_genocchi_poly_umbral(n, w, x), ROUTE_UMBRAL)
    return table
