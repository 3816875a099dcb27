"""Weighted q-Bernstein polynomial basis and operator.

The basis element of index k, degree n and weight alpha at an integer
point x is

    C(n, k) [x]_{q^alpha}^k [1-x]_{q^-alpha}^(n-k),

a q-deformation of the Bernstein basis.  x is restricted to integers so
every value stays an exact rational function of q; the symmetry
B_{k,n}(x | q) = B_{n-k,n}(1-x | 1/q) then holds structurally.

At an integer x, u = [x]_{q^alpha} and v = [1-x]_{q^-alpha} satisfy
u + v = 1, so the basis is the classical Bernstein basis in u,
C(n, k) u^k v^(n-k).  It is built once per (n, alpha, x), all n + 1
values together, each from its neighbour by one sparse step (`_basis`);
a single index pays for the whole basis.  The last two bases built are
kept, which covers a sweep over k at x and at 1 - x, as the symmetry
check makes.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from math import comb

from qgen.qcore import (
    ONE,
    RatFuncQ,
    ZERO,
    _div_binomial,
    _int_pow,
    _mul_one_minus,
    _new,
    _require_int,
    qbracket,
)
from qgen.records import VerificationRecord, compare

__all__ = [
    "BernsteinIndex",
    "bernstein_operator",
    "bernstein_poly",
    "bernstein_symmetry_check",
]


class BernsteinIndex(namedtuple("BernsteinIndex", "k n alpha")):
    """Index k, degree n and weight alpha of a basis element."""

    __slots__ = ()

    def __new__(cls, k: int, n: int, alpha: int):
        _require_int("basis", k=k, n=n, alpha=alpha)
        if n < 0 or k < 0:
            raise IndexError("basis indices must be nonnegative")
        if k > n:
            raise IndexError(f"basis index k={k} exceeds degree n={n}")
        if alpha < 1:
            raise ValueError("weight alpha must be a positive integer")
        return super().__new__(cls, k, n, alpha)


@lru_cache(maxsize=2)
def _basis(n: int, alpha: int, x: int) -> tuple[RatFuncQ, ...]:
    """B_{0,n}(x), ..., B_{n,n}(x) at weight alpha, each value canonical as built.

    The numerator of B_k is g_|x|^k g_|1-x|^(n-k) for the geometric sums
    g_m = (1 - q^(alpha m)) / (1 - q^alpha), so B_k's is B_{k-1}'s times
    1 - q^(alpha |x|), divided exactly by 1 - q^(alpha |1-x|).  A product
    of geometric sums is primitive, with a positive lead and constant term
    1, and the denominator is 1: the content is C(n, k) times the signs of
    u^k v^(n-k), and the shift is theirs.
    """
    if x in (0, 1):  # u = 0 or v = 0: only B_{n x, n} is nonzero, and it is 1
        return tuple(ONE if k == n * x else ZERO for k in range(n + 1))
    u, v = qbracket(x, alpha), qbracket(1 - x, -alpha)
    num, basis = _int_pow(v._num, n), []
    for k in range(n + 1):
        if k:
            num = _div_binomial(_mul_one_minus(num, alpha * abs(x)), alpha * abs(1 - x), -1)
        content = comb(n, k) * u._content**k * v._content**(n - k)
        basis.append(_new(k * u._shift + (n - k) * v._shift, content, num, ()))
    return tuple(basis)


def bernstein_poly(idx: BernsteinIndex, x: int) -> RatFuncQ:
    """C(n,k) [x]_{q^a}^k [1-x]_{q^-a}^(n-k) as a canonical value."""
    # checked before the cache, where 2.0 would find the basis at 2
    _require_int("the Bernstein point", x=x)
    return _basis(idx.n, idx.alpha, x)[idx.k]


def bernstein_symmetry_check(idx: BernsteinIndex, x: int) -> VerificationRecord:
    """PASS iff B_{k,n}(x | q) == B_{n-k,n}(1-x | 1/q) structurally."""
    lhs = bernstein_poly(idx, x)
    mirrored = BernsteinIndex(idx.n - idx.k, idx.n, idx.alpha)
    rhs = bernstein_poly(mirrored, 1 - x).subst_q_inverse()
    params = (("k", idx.k), ("n", idx.n), ("alpha", idx.alpha), ("x", x))
    return compare("bernstein-symmetry", params, lhs, rhs)


def bernstein_operator(samples: Sequence[Fraction | int], n: int, alpha: int,
                       x: int) -> RatFuncQ:
    """Weighted q-Bernstein operator applied to sampled values.

    samples[k] stands for f(k/n), an int or a Fraction; exactly n+1
    samples are required.
    """
    if n < 1:
        raise ValueError("operator degree must be positive")
    if len(samples) != n + 1:
        raise ValueError(f"expected {n + 1} sample values, got {len(samples)}")
    for sample in samples:
        if not isinstance(sample, (int, Fraction)):
            raise TypeError(f"Bernstein samples must be ints or Fractions, got {sample!r}")
    total = ZERO
    for k, sample in enumerate(samples):
        total = total + sample * bernstein_poly(BernsteinIndex(k, n, alpha), x)
    return total
