"""Exact arithmetic over the rational functions in q with cyclotomic denominators.

`RatFuncQ` is the one number type: a canonically reduced quotient of a
Laurent polynomial in q with rational coefficients by a product of
cyclotomic polynomials Phi_d.  Such values form the subring of Q(q)
where every value of the paper lives: the fermionic moments
[2]_q / (1 + q^(m+1)) and the weight (1 - q^alpha)^-n have no other
denominators.  Equal values have equal representations, so every
identity check downstream is ``lhs == rhs``, with no numeric tolerance.

Canonical form.  A `RatFuncQ` stores its value once:

    content * q^shift * num(q) / prod_d Phi_d(q)^m_d

* ``num`` is a tuple of integer coefficients in ascending order:
  primitive, with a positive leading and a nonzero constant coefficient,
  and divisible by no Phi_d of the denominator;
* the denominator is stored as its multiplicities ((d, m_d), ...), d
  increasing and m_d >= 1, with Phi_1 = q - 1 so that the expansion
  `_den_poly` (cached) is monic: it prints and evaluates, and it expands
  the cofactors `_shared_prefactor` adds for `+` and `IntegrandSpec`;
* ``shift`` carries the overall power of q and ``content`` (a nonzero
  Fraction) the sign and the rational content;
* zero is its own value: shift 0, content 0, num (), den ().

One reducer, no gcd.  The factors of every denominator are known, so
`_divide_out` keeps num and den coprime by dividing each Phi_d out of
num as often as it divides, at most m_d times.  It has one test and one
proof: the count is how often Phi_d(2^8) divides num(2^8), read off
one evaluation, and an exact division, which raises on a remainder,
removes every factor it counts.  `+` takes the lcm as the maximum of
the multiplicities and tests only the Phi_d of equal multiplicity on
both sides (no other can divide the sum); `*` tests each numerator
against the other side's factors; `**` scales the multiplicities;
q -> 1/q keeps them.  Multiplying and dividing by Phi_d are sparse
steps by (1 - q^k).  The lcm of the moment denominators 1 + q^e grows
from the longest prefix of its sorted exponents already expanded, so a
table of closed forms expands each lcm once.  Only the last table of
cofactors lcm / (1 + q^e) is kept: the calls that share one come in a
row (the x of one (n, alpha, h), both sides of an identity), and kept
for every lcm the tables held 64 of the 156 MB that a sweep to n = 30
keeps.

Values are born canonical.  The constructor takes a rational constant
(an int or a Fraction); every other value is built from `q_power`,
`qbracket` and arithmetic.  `/` and negative `**` divide only by c q^s,
raising ValueError on any other divisor; the library builds its
denominators directly as Phi_d multiplicities, so no dense polynomial is
ever factored.  q is a formal indeterminate here: substituting a rational
number is an explicit step (`eval_at`), and the p-adic reading of q lives
in the `padic` module.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import add, or_, sub

__all__ = [
    "PoleError",
    "RatFuncQ",
    "ZERO",
    "ONE",
    "eval_at",
    "fraction_text",
    "q_power",
    "qbracket",
]

Rational = Fraction | int
# ((d, m_d), ...): prod Phi_d^m_d with d increasing and every m_d >= 1
Den = tuple[tuple[int, int], ...]


class PoleError(ArithmeticError):
    """Evaluation at a point where the value is not defined."""


# ---------------------------------------------------------------------------
# dense integer polynomial helpers (ascending coefficient lists, [] == 0)
# ---------------------------------------------------------------------------


def _trim(cs: list[int]) -> list[int]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _int_mul(a, b) -> list[int]:
    # schoolbook, one pass over the longer factor per term of the shorter
    if len(a) > len(b):
        a, b = b, a
    if not a:
        return []
    if len(a) == 1:
        return list(b) if a[0] == 1 else [a[0] * x for x in b]
    out, n = [0] * (len(a) + len(b) - 1), len(b)
    for i, x in enumerate(a):
        if x:
            out[i:i + n] = [z + x * y for z, y in zip(out[i:i + n], b)]
    return out


def _int_pow(a, k: int) -> list[int]:
    out, base = [1], a
    while k:
        if k & 1:
            out = _int_mul(out, base)
        k >>= 1
        if k:
            base = _int_mul(base, base)
    return out


def _div_binomial(a, k: int, s: int) -> list[int]:
    # a / (1 + s q^k) in Z[q] for s = +-1, k >= 1, by the recurrence
    # b[i] = a[i] - s b[i-k]: block by block for k^2 >= len, else as one
    # running sum per residue of i mod k; the top k values are the remainder
    b = list(a)
    if k * k >= len(b):
        op = add if s < 0 else sub
        for i in range(k, len(b), k):
            b[i:i + k] = map(op, b[i:i + k], b[i - k:i])
    else:
        step = None if s < 0 else (lambda x, y: y - x)
        for j in range(k):
            b[j::k] = accumulate(b[j::k], step)
    top = max(len(b) - k, 0)
    if any(b[top:]):
        raise ArithmeticError("nonzero remainder in exact binomial division")
    return b[:top]


def _mul_one_minus(a, k: int) -> list[int]:
    # a (1 - q^k), sparse
    pad = [0] * k
    return [x - y for x, y in zip(list(a) + pad, pad + list(a))]


# ---------------------------------------------------------------------------
# cyclotomic factors
# ---------------------------------------------------------------------------


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _mobius(n: int) -> int:
    mu, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if n > 1 else mu


@lru_cache(maxsize=None)
def _cyclotomic_exponents(d: int) -> tuple[tuple[int, int], ...]:
    # (k, mu(d/k)) with mu != 0: prod_{k | d} (1 - q^k)^mu(d/k) is Phi_d for
    # d > 1 and 1 - q = -Phi_1 for d = 1
    return tuple((k, mu) for k in _divisors(d) if (mu := _mobius(d // k)))


@lru_cache(maxsize=4096)
def _binomial_plan(mults: Den) -> tuple[bool, tuple[int, ...], tuple[int, ...]]:
    # prod Phi_d^m over mults (m of either sign) as (-1)^m_1 prod_k (1 - q^k)^c_k,
    # c_k = sum_d m mu(d/k): the sign, the k with c_k > 0 and those with c_k < 0
    powers: Counter[int] = Counter()
    for d, m in mults:
        for k, mu in _cyclotomic_exponents(d):
            powers[k] += m * mu
    ups = tuple(k for k, c in sorted(powers.items()) for _ in range(c))
    downs = tuple(k for k, c in sorted(powers.items()) for _ in range(-c))
    return dict(mults).get(1, 0) % 2 == 1, ups, downs


def _times_cyclotomic(a, mults: Den) -> list[int]:
    """a prod Phi_d^m over ((d, m), ...) with m of either sign.

    Sparse multiplications by (1 - q^k), then sparse exact divisions, which
    raise ArithmeticError when the quotient is not in Z[q].
    """
    negate, ups, downs = _binomial_plan(mults)
    for k in ups:
        a = _mul_one_minus(a, k)
    for k in downs:
        a = _div_binomial(a, k, -1)
    return [-x for x in a] if negate else list(a)


@lru_cache(maxsize=1024)
def _den_poly(den: Den) -> tuple[int, ...]:
    """The expanded denominator prod Phi_d^m_d: monic, nonzero constant term."""
    return tuple(_times_cyclotomic([1], den))


@lru_cache(maxsize=None)
def _one_plus_factors(e: int) -> tuple[int, ...]:
    # 1 + q^e = (1 - q^2e) / (1 - q^e) is the product of the Phi_d with
    # d | 2e and d not dividing e
    return tuple(d for d in _divisors(2 * e) if e % d)


# the rule-out point of `_divide_out` is q = 2^_RULE_OUT_BITS: remainders by
# Phi_d(2^B) cost about B^2, and at B = 6 combined divisions raise on CI's grids
_RULE_OUT_BITS = 8


def _at_point(cs) -> int:
    # cs(2^B), by halves above 64 terms: Horner's shifts cost len(cs)^2
    if len(cs) > 64:
        half = len(cs) // 2
        return _at_point(cs[:half]) + (_at_point(cs[half:]) << _RULE_OUT_BITS * half)
    value = 0
    for x in reversed(cs):
        value = (value << _RULE_OUT_BITS) + x
    return value


@lru_cache(maxsize=None)
def _cyclotomic_at_point(d: int) -> int:
    return _at_point(_times_cyclotomic([1], ((d, 1),)))


def _divide_out(num, den: Den, cands: Den) -> tuple[list[int], Den]:
    """The one reducer: num / prod Phi_d^k_d and den without those factors.

    Each Phi_d of cands (a part of den) is divided out of num as often as
    it divides, k_d at most its multiplicity m_d in cands.  num is
    evaluated once at q = 2^B (B = 8), by `_at_point`; in the order of
    cands, k_d counts how often Phi_d(2^B) divides that value, up to m_d,
    and the value is divided by each power counted.  Phi_d^j | num forces
    Phi_d(2^B)^j | num(2^B), so while every earlier count is exact the
    next is never short; it can run over (q - 2^B vanishes at 2^B), and
    the values Phi_d(2^B) share primes, so a count after one that ran
    over can fall short.  Hence one exact division by prod Phi_d^k_d,
    which raises on a remainder, proves every count at once: it succeeds
    only when no count ran over, and then none fell short.  When it
    raises, every candidate is counted again by exact division alone, one
    power at a time up to m_d, stopping at the first remainder.
    """
    if len(num) == 1 or not cands:
        return num, den
    value = _at_point(num)
    counts = {}
    for d, m in cands:
        point, k = _cyclotomic_at_point(d), 0
        while k < m and not (split := divmod(value, point))[1]:
            value, k = split[0], k + 1
        if k:
            counts[d] = k
    if not counts:
        return num, den
    try:
        num = _times_cyclotomic(num, tuple((d, -k) for d, k in counts.items()))
    except ArithmeticError:  # a count ran over, and a later one may be short
        for d, m in cands:
            counts[d] = 0
            try:
                while counts[d] < m:
                    num, counts[d] = _times_cyclotomic(num, ((d, -1),)), counts[d] + 1
            except ArithmeticError:  # Phi_d divides num counts[d] times
                pass
    return num, tuple((d, m - counts.get(d, 0)) for d, m in den if m > counts.get(d, 0))


def _reduced(shift: int, num: list[int], den: Den, cands: Den,
             top: int = 1, scale: int = 1) -> "RatFuncQ":
    """(top / scale) q^shift num / den in canonical form.

    num is any list in Z[q] (zeros at either end allowed); its content
    and sign move into the content, and `_divide_out` reduces it against
    the factors cands of den.
    """
    _trim(num)
    if not num:
        return ZERO
    start = 0
    while not num[start]:
        start += 1
    content = math.gcd(*num)
    if num[-1] < 0:
        content = -content
    num, den = _divide_out([x // content for x in num[start:]], den, cands)
    return _new(shift + start, Fraction(top * content, scale), num, den)


@lru_cache(maxsize=4096)
def _den_op(op, d1: Den, d2: Den) -> Den:
    # lcm (or_), product (add) or quotient (sub) of two denominators
    return tuple(sorted(op(Counter(dict(d1)), Counter(dict(d2))).items()))


def _over_one_plus(shift: int, num, exps) -> "RatFuncQ":
    """q^shift num / prod_{e in exps} (1 + q^e) in canonical form.

    num is in Z[q] and every e >= 1 (repeats allowed); the denominator's
    multiplicities count the e with Phi_d | 1 + q^e.
    """
    den = tuple(sorted(Counter(d for e in exps for d in _one_plus_factors(e)).items()))
    return _reduced(shift, list(num), den, den)


# exps -> (L, L expanded) for the lcm L of the 1 + q^e over exps, for
# every prefix `_one_plus_lcm` has built
_one_plus_chain: dict[tuple[int, ...], tuple[Den, tuple[int, ...]]] = {}


@lru_cache(maxsize=1)
def _one_plus_lcm(exps: tuple[int, ...]) -> tuple[Den, dict[int, tuple[int, ...]]]:
    """L = lcm of the 1 + q^e over positive exps, and L / (1 + q^e) for
    each e, with L itself at e = 0.

    L is the product of the distinct cyclotomic factors of the 1 + q^e.
    It grows from the longest prefix of exps already built (the closed
    form at n and at n + 1 share all exponents but the last): each step
    multiplies the expansion by the Phi_d that the next 1 + q^e adds.

    Only the last table is kept: it holds len(exps) + 1 polynomials of
    about deg L terms each, too many to keep one per lcm at depth.  The
    calls that share a table are adjacent (the six x of one (n, alpha, h)
    in a symmetry check, both sides of shift2, an integral and the closed
    form after it), and `_one_plus_chain` keeps L expanded, so a table
    needed again later is only divided out again.
    """
    i = len(exps)
    while i and exps[:i] not in _one_plus_chain:
        i -= 1
    lcm, poly = _one_plus_chain[exps[:i]] if i else ((), (1,))
    for i in range(i, len(exps)):
        new = tuple((d, 1) for d in _one_plus_factors(exps[i]) if (d, 1) not in lcm)
        lcm, poly = tuple(sorted(lcm + new)), tuple(_times_cyclotomic(poly, new))
        _one_plus_chain[exps[:i + 1]] = lcm, poly
    return lcm, {0: poly} | {e: tuple(_div_binomial(poly, e, 1)) for e in exps}


def _shared_prefactor(coeffs) -> tuple[Fraction, Den, list[tuple[int, tuple[int, ...]]]]:
    """Nonzero RatFuncQs c as content q^s num / prod Phi_d^m_d, with one
    content and one den (the lcm of theirs) for all: (content, den, [(s, num)])."""
    den = ()
    for c in coeffs:
        den = _den_op(or_, den, c._den)
    scale = math.lcm(*(c._content.denominator for c in coeffs))
    top = math.gcd(*(c._content.numerator for c in coeffs))
    out = []
    for c in coeffs:
        k = c._content.numerator // top * (scale // c._content.denominator)
        num = c._num if c._den == den else _int_mul(c._num, _den_poly(_den_op(sub, den, c._den)))
        out.append((c._shift, tuple(k * x for x in num)))
    return Fraction(top, scale), den, out


def _sum_over_one_plus(content: Fraction, den: Den, terms, times: Den) -> "RatFuncQ":
    """content (prod Phi_d^t_d over times) times the sum over (s, num, e)
    terms (a list) of q^s num / ((prod Phi_d^m_d over den) (1 + q^e)), with
    integer lists num and a nonzero Fraction content.

    The kernel of `padic.integrate`, which passes a spec's shared prefactor
    and [2]_q = Phi_2 as times; the closed-form Genocchi values are such
    integrals.  One shared denominator, reduced once: den times the lcm L
    of the 1 + q^|e|, less the factors of times, which cancel first.  Each
    term adds k y L / (1 + q^|e|) at q^s for each y of num into one list,
    with k = 2 over a halved content, so that e = 0 (k = 1, cofactor L)
    is num / 2; e < 0 adds q^-e num / (1 + q^-e).
    """
    if not terms:
        return ZERO
    lcm, cofs = _one_plus_lcm(tuple(sorted({abs(e) for _, _, e in terms if e})))
    shifts = [s - e if e < 0 else s for s, _, e in terms]
    lo = min(shifts)
    acc: list[int] = []
    for (_, num, e), shift in zip(terms, shifts):
        cof, k = cofs[abs(e)], 2 if e else 1
        n, off = len(cof), shift - lo
        acc.extend([0] * (off + len(num) + n - 1 - len(acc)))
        for i, y in enumerate(num, off):
            if y:
                ky = k * y
                acc[i:i + n] = [a + ky * x for a, x in zip(acc[i:i + n], cof)]
    # times cancels against den first, and what is left of it multiplies acc
    den = _den_op(add, den, lcm)
    if rest := _den_op(sub, times, den):
        acc = _times_cyclotomic(acc, rest)
    den = _den_op(sub, den, times)
    return _reduced(lo, acc, den, den, content.numerator, 2 * content.denominator)


# ---------------------------------------------------------------------------
# canonical rational functions
# ---------------------------------------------------------------------------


class RatFuncQ:
    """Canonically reduced quotient of a Laurent polynomial in q by a
    product of cyclotomic polynomials.

    All arithmetic returns canonical values, so `==` decides mathematical
    equality.  The value is stored once as (shift, content, num, den), see
    the module docstring.
    """

    __slots__ = ("_shift", "_content", "_num", "_den")

    def __init__(self, value: Rational = 0):
        # a rational constant; every other value is built by arithmetic
        if not isinstance(value, (int, Fraction)):
            raise TypeError(f"RatFuncQ expects an int or a Fraction, got {value!r}")
        self._shift, self._content, self._den = 0, Fraction(value), ()
        self._num = (1,) if value else ()

    # -- inspection ------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other: object) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # the integer tuples first: they settle most unequal pairs without
        # a Fraction comparison
        return (self._num == other._num and self._den == other._den
                and self._shift == other._shift and self._content == other._content)

    def __hash__(self) -> int:
        # a constant hashes as its Fraction, as == with int and Fraction needs;
        # any other value hashes its content as two ints, not as a Fraction
        c = self._content
        if self._shift == 0 and len(self._num) <= 1 and not self._den:
            return hash(c)
        return hash((self._shift, c.numerator, c.denominator, self._num, self._den))

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._num:
            return other
        if not other._num:
            return self
        # one content and one den for both; no Phi_d whose multiplicities
        # differ can divide the sum, so only the common ones are tested
        content, den, ((s1, a), (s2, b)) = _shared_prefactor((self, other))
        common = tuple(sorted(set(self._den) & set(other._den)))
        lo = min(s1, s2)
        acc = [0] * max(s1 - lo + len(a), s2 - lo + len(b))
        for part, off in ((a, s1 - lo), (b, s2 - lo)):
            for i, x in enumerate(part, off):
                acc[i] += x
        return _reduced(lo, acc, den, common, content.numerator, content.denominator)

    __radd__ = __add__

    def __neg__(self):
        return _new(self._shift, -self._content, self._num, self._den)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._num or not other._num:
            return ZERO
        for f, g in ((self, other), (other, self)):
            if g._num == (1,) and not g._den:  # f times c q^s: nothing to reduce
                return _new(f._shift + g._shift, f._content * g._content, f._num, f._den)
        n1, d2 = _divide_out(self._num, other._den, other._den)
        n2, d1 = _divide_out(other._num, self._den, self._den)
        return _new(self._shift + other._shift, self._content * other._content,
                    _int_mul(n1, n2), _den_op(add, d1, d2) if d1 and d2 else d1 or d2)

    __rmul__ = __mul__

    def _inverse(self) -> "RatFuncQ":
        if not self._num:
            raise ZeroDivisionError("inverse of zero rational function")
        if self._num != (1,) or self._den:
            raise ValueError(f"can only divide by c*q^s, not by {self}")
        return _new(-self._shift, 1 / self._content, (1,), ())

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other._inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self._inverse()

    def __pow__(self, k: int):
        _require_int("rational function power", k=k)
        if k == 0:
            return ONE
        if k < 0:
            return self._inverse() ** (-k)
        if not self._num:
            return ZERO
        return _new(self._shift * k, self._content**k, _int_pow(self._num, k),
                    tuple((d, m * k) for d, m in self._den))

    # -- substitutions ------------------------------------------------------

    def subst_q_inverse(self) -> "RatFuncQ":
        """Replace q by 1/q: reverse num, keep den, move the shift.

        den(1/q) = (-1)^m_1 q^-deg(den) den(q), as Phi_d(1/q) is
        q^-phi(d) Phi_d(q) for d > 1 and -q^-1 Phi_1(q) for d = 1.
        """
        if not self._num:
            return self
        c, n = self._content, self._num[::-1]
        if n[-1] < 0:
            c, n = -c, tuple(-x for x in n)
        degree = 0
        for d, m in self._den:
            degree += sum(k * mu for k, mu in _cyclotomic_exponents(d)) * m
            if d == 1 and m % 2:
                c = -c
        return _new(degree - len(n) + 1 - self._shift, c, n, self._den)

    def eval_at(self, q0: Rational) -> Fraction:
        """Exact value at q = q0, an int or a Fraction; raises PoleError at a pole."""
        if not isinstance(q0, (int, Fraction)):
            raise TypeError(f"eval_at expects an int or a Fraction, got {q0!r}")
        q0 = Fraction(q0)
        a, b = q0.numerator, q0.denominator
        # p(a/b) b^(len-1) and b^len for p = den, num, by homogeneous Horner
        values = []
        for cs in (_den_poly(self._den), self._num):
            acc, bk = 0, 1
            for c in reversed(cs):
                acc = acc * a + c * bk
                bk *= b
            values.append((acc, bk))
        (dv, db), (nv, nb) = values
        if dv == 0:
            raise PoleError(f"denominator vanishes at q = {q0}")
        if a == 0 and self._shift < 0:
            raise PoleError("negative exponent at q = 0")
        return self._content * q0**self._shift * Fraction(nv * db, dv * nb)

    # -- serialization --------------------------------------------------------

    def to_canonical_string(self) -> str:
        """Machine form: explicit terms, ascending exponents, 'num / den'."""
        p, r, s = self._content.numerator, self._content.denominator, self._shift
        if r == 1:  # integer content: every coefficient is p x, no gcd to take
            num = " + ".join([f"{_decimal(p * x)}*q^{e}" for e, x in enumerate(self._num, s) if x])
        else:
            num = " + ".join([f"{_ratio_str(p * x, r)}*q^{e}"
                              for e, x in enumerate(self._num, s) if x])
        return f"{num or '0'} / {_den_string(self._den)}"

    def __str__(self) -> str:
        num = _poly_str(self._shift, self._content, self._num)
        if not self._den:
            return num
        return f"({num})/({_poly_str(0, 1, _den_poly(self._den))})"

    def __repr__(self) -> str:
        return f"RatFuncQ({self.to_canonical_string()!r})"


def _new(shift: int, content: Fraction, num, den: Den) -> RatFuncQ:
    # from parts already in canonical form; callers have handled zero
    f = RatFuncQ.__new__(RatFuncQ)
    f._shift, f._content, f._num, f._den = shift, content, tuple(num), den
    return f


@lru_cache(maxsize=1024)
def _den_string(den: Den) -> str:
    # the denominator half of the canonical string; values share few
    # denominators (76 among the 782 sides of the default sweep), so each
    # is rendered once while it is among the last 1,024 used
    return " + ".join(f"{_decimal(x)}*q^{i}" for i, x in enumerate(_den_poly(den)) if x)


def _ratio_str(n: int, d: int) -> str:
    # fraction_text(Fraction(n, d)) without building the Fraction
    g = math.gcd(n, d)
    return _decimal(n // g) if g == d else f"{_decimal(n // g)}/{_decimal(d // g)}"


def _poly_str(shift: int, content: Rational, cs) -> str:
    # readable form of content * q^shift * cs(q): "1 - 2*q + 1/2*q^3"
    parts: list[str] = []
    for i, x in enumerate(cs):
        if not x:
            continue
        v, e = content * x, shift + i
        mag = abs(v)
        if e == 0:
            body = fraction_text(mag)
        else:
            qpart = "q" if e == 1 else f"q^{e}"
            body = qpart if mag == 1 else f"{fraction_text(mag)}*{qpart}"
        if not parts:
            parts.append(body if v > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if v > 0 else f"- {body}")
    return " ".join(parts) or "0"


def _require_int(what: str, **values) -> None:
    # at the door: a float, Fraction or str would build q^2.0 or fail far away
    for name, value in values.items():
        if not isinstance(value, int):
            raise TypeError(f"{what} {name} must be an int, got {value!r}")


def _coerce(value) -> "RatFuncQ":
    if isinstance(value, RatFuncQ):
        return value
    return RatFuncQ(value) if isinstance(value, (int, Fraction)) else NotImplemented


ZERO = RatFuncQ(0)
ONE = RatFuncQ(1)


def q_power(e: int) -> RatFuncQ:
    """The monomial q^e (e may be negative)."""
    _require_int("q_power", e=e)
    return _new(e, Fraction(1), (1,), ())


# ---------------------------------------------------------------------------
# spec operations
# ---------------------------------------------------------------------------


def qbracket(x: int, a: int) -> RatFuncQ:
    """q-analogue [x]_{q^a} = (1 - q^(a x)) / (1 - q^a).

    For x >= 0 this reduces to the geometric sum
    1 + q^a + ... + q^(a (x-1)); negative x gives a Laurent value.
    """
    _require_int("q-bracket", x=x, a=a)
    if a == 0:
        raise ValueError("bracket scale must be nonzero")
    if x == 0:
        return ZERO
    # sign * sum of q^(a i) over min(0, x) <= i < max(0, x), already canonical
    lo, hi = min(0, x), max(0, x)
    ones = (1,) + ((0,) * (abs(a) - 1) + (1,)) * (hi - lo - 1)
    return _new(min(a * lo, a * (hi - 1)), Fraction(-1 if x < 0 else 1), ones, ())


def eval_at(f: RatFuncQ, q0: Rational) -> Fraction:
    """Exact rational value of f at q = q0 (PoleError at poles).

    Because values are canonical, removable singularities are already
    cancelled; in particular q0 = 1 realizes the q -> 1 limit.
    """
    return f.eval_at(q0)


def fraction_text(value: Rational) -> str:
    """str(value) at any size: an exact p-adic sum at N = 4, a limit, a
    value at a large q or a coefficient of a value can pass 4,300 digits."""
    num = _decimal(value.numerator)
    return num if value.denominator == 1 else f"{num}/{_decimal(value.denominator)}"


def _decimal(n: int) -> str:
    # str() refuses an int longer than sys.get_int_max_str_digits() (4,300
    # by default, never below 640 when set), so split at a power of ten
    if n.bit_length() <= 2000:  # 603 digits
        return str(n)
    if n < 0:
        return "-" + _decimal(-n)
    k = n.bit_length() * 3 // 20  # half the digits, log10(2) ~ 0.3
    high, low = divmod(n, 10**k)
    return _decimal(high) + _decimal(low).zfill(k)
