"""Reading values back from what qgen prints or stores, for the tests.

- `read_fraction` and `read_canonical` parse a printed rational number and
  a canonical string (`RatFuncQ.to_canonical_string`) at any size;
- `num_view` and `den_view` are a value's numerator (content and shift
  included) and expanded denominator as {exponent: Fraction} dicts;
- `Q` is the monomial q.
"""

import re
from fractions import Fraction

from qgen import qcore
from qgen.qcore import RatFuncQ, q_power

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


def read_canonical(text: str) -> RatFuncQ:
    """The value of a canonical string; ValueError unless printing that
    value gives the same text back."""
    num_text, den_text = text.split(" / ")
    value = RatFuncQ(_read_terms(num_text), _read_terms(den_text))
    if value.to_canonical_string() != text:
        raise ValueError(f"not in canonical form: {text!r}")
    return value


def num_view(f: RatFuncQ) -> dict[int, Fraction]:
    """{exponent: coefficient} of content * q^shift * num(q)."""
    c, s = f._content, f._shift
    return {s + i: c * x for i, x in enumerate(f._num) if x}


def den_view(f: RatFuncQ) -> dict[int, Fraction]:
    """{exponent: coefficient} of the expanded denominator prod Phi_d^m_d."""
    return {i: Fraction(x) for i, x in enumerate(qcore._den_poly(f._den)) if x}
