"""Verification records: one theorem instance, both sides, and a verdict.

Statuses separate regression gating from domain exploration: PASS/FAIL
mark parameter points inside an identity's asserted domain, while
BOUNDARY-PASS/BOUNDARY-FAIL mark probes outside it (recorded, never
gated on).  Every identity is checked as printed; nothing is ever
substituted silently.
"""

from __future__ import annotations

from collections import namedtuple

from qgen.qcore import RatFuncQ

__all__ = ["VerificationRecord"]

PASS = "PASS"
FAIL = "FAIL"
BOUNDARY_PASS = "BOUNDARY-PASS"
BOUNDARY_FAIL = "BOUNDARY-FAIL"

Params = tuple[tuple[str, object], ...]


class VerificationRecord(namedtuple("VerificationRecord", "theorem params lhs rhs status")):
    """One checked point: theorem (str), params (Params), both sides
    (RatFuncQ) and the status (str)."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.status in (PASS, BOUNDARY_PASS)

    def params_text(self) -> str:
        return " ".join(f"{k}={v}" for k, v in self.params)


def compare(theorem: str, params: Params, lhs: RatFuncQ, rhs: RatFuncQ,
            *, boundary: bool = False) -> VerificationRecord:
    """Build a record; the verdict is structural equality of both sides."""
    equal = lhs == rhs
    if boundary:
        status = BOUNDARY_PASS if equal else BOUNDARY_FAIL
    else:
        status = PASS if equal else FAIL
    return VerificationRecord(theorem, params, lhs, rhs, status)
