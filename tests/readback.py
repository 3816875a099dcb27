"""Reading values back from what qgen prints or stores, and building the
values the tests compare with, for the tests.

- `read_fraction` parses a printed rational number at any size;
  `read_canonical` reads a canonical string (`RatFuncQ.to_canonical_string`)
  as its two Laurent polynomials, and `denotes` checks a value against one;
- `num_view` and `den_view` are a value's numerator (content and shift
  included) and expanded denominator as {exponent: Fraction} dicts;
- `from_terms` builds the Laurent polynomial of an {exponent: coefficient}
  map as a sum of c * q_power(e), since `RatFuncQ` itself takes only a
  rational constant;
- `over_cyclotomic` builds a value from its denominator's Phi_d
  multiplicities, as the library builds every value: no dense denominator
  is ever factored, and `/` divides only by c q^s;
- `one_minus_power` is (1 - q^m)^k at any integer k, a negative one built
  from the Phi_d of q^|m| - 1;
- `cross_sum` adds num / den over Laurent polynomials, cross-multiplied,
  for oracles that check ``value * D == N`` without dividing;
- `cyclotomic` is Phi_d, dense, by long division, independent of the
  library's product over (1 - q^k);
- `Q` is the monomial q.
"""

import re
from fractions import Fraction
from functools import lru_cache

from qgen import qcore
from qgen.qcore import ONE, ZERO, RatFuncQ, q_power

Q = q_power(1)

_TERM_RE = re.compile(r"^(-?\d+(?:/\d+)?)\*q\^(-?\d+)$")


def read_fraction(text: str) -> Fraction:
    """Fraction(text) at any length: int() refuses a decimal longer than
    sys.get_int_max_str_digits(), so each part is read 500 digits at a time."""
    def big_int(digits: str) -> int:
        sign, digits = (-1, digits[1:]) if digits.startswith("-") else (1, digits)
        n = 0
        for i in range(0, len(digits), 500):
            chunk = digits[i:i + 500]
            n = n * 10 ** len(chunk) + int(chunk)
        return sign * n

    num, _, den = text.partition("/")
    return Fraction(big_int(num), big_int(den or "1"))


def _read_terms(text: str) -> dict[int, Fraction]:
    # "c*q^e + c*q^e + ..." or "0"
    if text == "0":
        return {}
    coeffs: dict[int, Fraction] = {}
    for term in text.split(" + "):
        m = _TERM_RE.match(term)
        if not m:
            raise ValueError(f"malformed term: {term!r}")
        coeffs[int(m.group(2))] = read_fraction(m.group(1))
    return coeffs


def read_canonical(text: str) -> tuple[RatFuncQ, RatFuncQ]:
    """The numerator and the denominator of a canonical string, as two
    Laurent polynomials N and D."""
    num_text, den_text = text.split(" / ")
    return from_terms(_read_terms(num_text)), from_terms(_read_terms(den_text))


def denotes(text: str, f: RatFuncQ) -> bool:
    """Whether the canonical string text has the value f: f D == N, D != 0."""
    num, den = read_canonical(text)
    return bool(den) and f * den == num


def num_view(f: RatFuncQ) -> dict[int, Fraction]:
    """{exponent: coefficient} of content * q^shift * num(q)."""
    c, s = f._content, f._shift
    return {s + i: c * x for i, x in enumerate(f._num) if x}


def den_view(f: RatFuncQ) -> dict[int, Fraction]:
    """{exponent: coefficient} of the expanded denominator prod Phi_d^m_d."""
    return {i: Fraction(x) for i, x in enumerate(qcore._den_poly(f._den)) if x}


def from_terms(terms) -> RatFuncQ:
    """The Laurent polynomial sum of c q^e over the {e: c} terms.  An
    exponent that is no int or a coefficient that is no int or Fraction
    raises TypeError, as `q_power` and arithmetic do."""
    return sum((c * q_power(e) for e, c in terms.items()), ZERO)


def over_cyclotomic(num, mults) -> RatFuncQ:
    """num / prod Phi_d^m over the {d: m} (or ((d, m), ...)) mults, m >= 0;
    num is a RatFuncQ, an int or a Fraction."""
    den = tuple(sorted((d, m) for d, m in dict(mults).items() if m))
    return num * qcore._new(0, Fraction(1), (1,), den)


def one_minus_power(m: int, k: int) -> RatFuncQ:
    """(1 - q^m)^k for m != 0 and any integer k.  A negative power inverts
    q^|m| - 1 = prod_{d | |m|} Phi_d, which 1 - q^m is times -1 (m > 0) or
    q^m (m < 0)."""
    if k >= 0:
        return (ONE - q_power(m)) ** k
    inverse = over_cyclotomic(1, {d: 1 for d in range(1, abs(m) + 1) if m % d == 0})
    return (-inverse if m > 0 else q_power(-m) * inverse) ** -k


def cross_sum(terms) -> tuple[RatFuncQ, RatFuncQ]:
    """(N, D) with N / D the sum of n / d over the (n, d) terms, d nonzero:
    N = sum_i n_i prod_{j != i} d_j and D = prod_i d_i."""
    num, den = ZERO, ONE
    for n, d in terms:
        num, den = num * d + n * den, den * d
    return num, den


@lru_cache(maxsize=None)
def cyclotomic(d: int) -> tuple[int, ...]:
    """Phi_d as ascending integer coefficients: q^d - 1 divided by the
    Phi_e, e | d, e < d (all monic), by long division."""
    rem = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            div = cyclotomic(e)
            quot = [0] * (len(rem) - len(div) + 1)
            for i in range(len(quot) - 1, -1, -1):
                quot[i] = rem[i + len(div) - 1]
                for j, y in enumerate(div):
                    rem[i + j] -= quot[i] * y
            rem = quot
    return tuple(rem)
