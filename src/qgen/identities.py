"""Mechanical verifiers for the weighted Genocchi identities.

Each verifier computes both sides of one identity as canonical rational
functions of q and records PASS or FAIL by structural equality; a sweep
driver maps the parameter domains where each identity holds.  A theorem
is one entry of the theorem table, its grid, plus its verify_<name>.

Domain policy: parameters inside an identity's asserted domain produce
PASS/FAIL records, and every FAIL gates regressions; probes outside it
(e.g. the shift identity below its stated n > 1) are recorded with
BOUNDARY-* statuses and never gate.  The single, double and s-fold
Bernstein identities all reduce to one equation in D = sum(n_i) and
K = s k.  Its two sides are forward differences, read from one
Pascal-rule table: the (D - K)-th differences of g_i / i and the K-th
differences of the reflected values, each entry one subtraction of two
memoized neighbours.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import product

from qgen.genocchi import WeightParams, weighted_genocchi_number, weighted_genocchi_poly_closed
from qgen.padic import bracket_power_integrand, integrate
from qgen.qcore import RatFuncQ, q_power, qbracket
from qgen.records import FAIL, VerificationRecord, compare

__all__ = [
    "SweepConfig",
    "SweepReport",
    "THEOREMS",
    "sweep",
    "unresolved_failures",
    "verify_bernstein_double",
    "verify_bernstein_multi",
    "verify_bernstein_single",
    "verify_integral_reflect",
    "verify_integral_shift",
    "verify_shift2",
    "verify_symmetry",
]

def _weight_params(w: WeightParams) -> tuple[tuple[str, int], ...]:
    return (("alpha", w.alpha), ("h", w.h))


def verify_symmetry(n: int, w: WeightParams, x: int) -> VerificationRecord:
    """g_{n+1}(1-x) at 1/q against (-1)^n q^(h + alpha n - 1) g_{n+1}(x)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    lhs = weighted_genocchi_poly_closed(n + 1, w, 1 - x).subst_q_inverse()
    rhs = ((-1) ** n) * q_power(w.h + w.alpha * n - 1) * weighted_genocchi_poly_closed(n + 1, w, x)
    params = (("n", n),) + _weight_params(w) + (("x", x),)
    return compare("symmetry", params, lhs, rhs)


def verify_shift2(n: int, w: WeightParams) -> VerificationRecord:
    """g_n(2) against n q^-h [2]_q + q^-2h g_n; asserted for n > 1 only,
    with n in {0, 1} recorded as boundary probes."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    lhs = weighted_genocchi_poly_closed(n, w, 2)
    rhs = n * q_power(-w.h) * qbracket(2, 1) + q_power(-2 * w.h) * weighted_genocchi_number(n, w)
    params = (("n", n),) + _weight_params(w)
    return compare("shift2", params, lhs, rhs, boundary=(n < 2))


@lru_cache(maxsize=None)
def _reflected_integral(n: int, w: WeightParams) -> RatFuncQ:
    # integral of q^((h-1) xi) [1 - xi]_{q^-alpha}^n, shared by the shift
    # and reflection checks
    return integrate(bracket_power_integrand(1, -w.alpha, n, sign=-1, exp_shift=w.h - 1))


def verify_integral_shift(n: int, w: WeightParams) -> VerificationRecord:
    """Integral of q^((h-1)(xi+1)) [1-xi]_{q^-alpha}^n against
    g_{n+1}(2) at 1/q divided by n+1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    lhs = q_power(w.h - 1) * _reflected_integral(n, w)
    rhs = weighted_genocchi_poly_closed(n + 1, w, 2).subst_q_inverse() / (n + 1)
    params = (("n", n),) + _weight_params(w)
    return compare("integral-shift", params, lhs, rhs)


@lru_cache(maxsize=None)
def _reflected(n: int, w: WeightParams) -> RatFuncQ:
    # [2]_q + q^(h+1) g_{n+1}(1/q) / (n+1)
    g_inv = weighted_genocchi_number(n + 1, w).subst_q_inverse()
    return qbracket(2, 1) + q_power(w.h + 1) * g_inv / (n + 1)


def verify_integral_reflect(n: int, w: WeightParams) -> VerificationRecord:
    """Integral of q^((h-1) xi) [1-xi]_{q^-alpha}^n against
    [2]_q + q^(h+1) g_{n+1} at 1/q divided by n+1; asserted for n >= 1,
    n = 0 is a boundary probe (it fails, fixing the implicit domain)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    lhs = _reflected_integral(n, w)
    params = (("n", n),) + _weight_params(w)
    return compare("integral-reflect", params, lhs, _reflected(n, w), boundary=(n < 1))


def _moment(i: int, w: WeightParams) -> RatFuncQ:
    # g_i / i, the moments the left side takes differences of
    return weighted_genocchi_number(i, w) / i


@lru_cache(maxsize=None)
def _difference(seq, j: int, i: int, w: WeightParams) -> RatFuncQ:
    # sum_{l=0}^{j} (-1)^l C(j, l) seq(i + l, w), by Pascal's rule
    if j == 0:
        return seq(i, w)
    return _difference(seq, j - 1, i, w) - _difference(seq, j - 1, i + 1, w)


def _bernstein_sides(D: int, K: int, w: WeightParams) -> tuple[RatFuncQ, RatFuncQ]:
    """Both sides of the Bernstein identity of total degree D and K = s k:
    sum_{l=0}^{D-K} C(D-K, l) (-1)^l g_{l+K+1} / (l+K+1) against
    sum_{l=0}^{K} C(K, l) (-1)^l _reflected(D - K + l), each one entry
    of the memoized difference table."""
    return _difference(_moment, D - K, K + 1, w), _difference(_reflected, K, D - K, w)


def verify_bernstein_single(n: int, k: int, w: WeightParams) -> VerificationRecord:
    """Single-basis integral identity, stated for n > k >= 0."""
    if not n > k >= 0:
        raise ValueError("requires n > k >= 0")
    params = (("n", n), ("k", k)) + _weight_params(w)
    return compare("bernstein-single", params, *_bernstein_sides(n, k, w))


def verify_bernstein_multi(n_list: list[int], k: int, w: WeightParams) -> VerificationRecord:
    """Product-of-s-bases integral identity, stated for s >= 2 and
    sum(n_i) > s k, with the product of binomials C(n_i, k) cancelled
    from both sides."""
    s = len(n_list)
    if s < 2:
        raise ValueError("requires at least two basis factors")
    if k < 0 or any(n < 0 for n in n_list):
        raise ValueError("indices must be nonnegative")
    total_degree = sum(n_list)
    if total_degree <= s * k:
        raise ValueError("requires sum(n_i) > s*k")
    params = (
        ("n_list", ",".join(str(n) for n in n_list)),
        ("k", k),
        ("s", s),
    ) + _weight_params(w)
    return compare("bernstein-multi", params, *_bernstein_sides(total_degree, s * k, w))


def verify_bernstein_double(n1: int, n2: int, k: int, w: WeightParams) -> VerificationRecord:
    """Two-basis case of the s-fold identity, stated for n1 + n2 > 2k,
    with its own theorem id and (n1, n2) parameters."""
    if min(n1, n2, k) < 0:
        raise ValueError("indices must be nonnegative")
    if n1 + n2 <= 2 * k:
        raise ValueError("requires n1 + n2 > 2k")
    params = (("n1", n1), ("n2", n2), ("k", k)) + _weight_params(w)
    return compare("bernstein-double", params, *_bernstein_sides(n1 + n2, 2 * k, w))


# ---------------------------------------------------------------------------
# sweep driver
# ---------------------------------------------------------------------------


# the Bernstein theorems' weights stop at 2, or lower at alpha_max and
# h_max: each weight builds its own rows of the difference table
_BERNSTEIN_WEIGHT_MAX = 2


# SweepConfig's fields, each an int, with their defaults
_SWEEP_BOUNDS = {
    "n_max": 8,           # symmetry, integral-shift and bernstein-single
    "scalar_n_max": 10,   # shift2 and integral-reflect
    "alpha_max": 3,
    "h_max": 3,
    "x_min": -2,          # symmetry's x range
    "x_max": 3,
    "pair_n_max": 4,      # bernstein-double's n1 and n2
    "multi_n_max": 3,     # bernstein-multi's n_i
    "s_max": 3,           # bernstein-multi's number of factors
}


class SweepConfig(namedtuple("SweepConfig", _SWEEP_BOUNDS, defaults=_SWEEP_BOUNDS.values())):
    """The upper bounds of every verifier's grid; the theorem table fixes
    where each grid starts.  A range whose max is below its floor adds no
    records.  Shrink the maxima for quicker runs."""

    __slots__ = ()

    def capped(self, n_max: int | None = None, **bounds: int | None) -> SweepConfig:
        """The config under the CLI's caps, each None left out: n_max sets
        the main index ranges and only shrinks the pair and multi ranges;
        `bounds` set their fields as given."""
        updates = {name: value for name, value in bounds.items() if value is not None}
        if n_max is not None:
            updates.update(n_max=n_max, scalar_n_max=n_max,
                           pair_n_max=min(self.pair_n_max, n_max),
                           multi_n_max=min(self.multi_n_max, n_max))
        return self._replace(**updates)

    def echo(self) -> dict[str, int]:
        """Every bound of the grids by name, as the report's config echo
        prints it: the fields, the table's floors and the derived maxima."""
        return {**self._asdict(), "n_min": 0, "scalar_n_min": 0, "alpha_min": 1, "h_min": 1,
                "pair_n_min": 1, "multi_n_min": 1, "s_min": 2, "single_n_max": self.n_max,
                "product_alpha_max": min(_BERNSTEIN_WEIGHT_MAX, self.alpha_max),
                "product_h_max": min(_BERNSTEIN_WEIGHT_MAX, self.h_max)}


def _weights(alpha_max: int, h_max: int) -> list[WeightParams]:
    return [WeightParams(a, h) for a in range(1, alpha_max + 1) for h in range(1, h_max + 1)]


def _scalar_grid(c: SweepConfig, n_max: int, *more):
    # each n at every weight, then each point of `more`
    return product(range(n_max + 1), _weights(c.alpha_max, c.h_max), *more)


def _bernstein_grid(c: SweepConfig, points) -> list[tuple]:
    # each point at every Bernstein weight, the weight last
    weights = _weights(min(_BERNSTEIN_WEIGHT_MAX, c.alpha_max),
                       min(_BERNSTEIN_WEIGHT_MAX, c.h_max))
    return [(*point, w) for point in points for w in weights]


# The theorem table: each theorem's grid, a function from the config to
# the argument tuples of its verify_<name> in record order.  Each grid's
# floor is written here once: n from 0, so shift2 and integral-reflect
# are probed below their domains; alpha, h and each n_i from 1; s from 2
# factors.  A theorem is one entry here plus its verifier; the sweep runs
# them in this order.
_GRIDS = {
    "symmetry": lambda c: _scalar_grid(c, c.n_max, range(c.x_min, c.x_max + 1)),
    "shift2": lambda c: _scalar_grid(c, c.scalar_n_max),
    "integral-shift": lambda c: _scalar_grid(c, c.n_max),
    "integral-reflect": lambda c: _scalar_grid(c, c.scalar_n_max),
    "bernstein-single": lambda c: _bernstein_grid(c, (
        (n, k) for n in range(1, c.n_max + 1) for k in range(n))),
    "bernstein-double": lambda c: _bernstein_grid(c, (
        (n1, n2, k) for n1, n2 in product(range(1, c.pair_n_max + 1), repeat=2)
        for k in range((n1 + n2 - 1) // 2 + 1))),
    "bernstein-multi": lambda c: _bernstein_grid(c, (
        (list(n_list), k) for s in range(2, c.s_max + 1)
        for n_list in product(range(1, c.multi_n_max + 1), repeat=s)
        for k in range((sum(n_list) - 1) // s + 1))),
}

THEOREMS = tuple(_GRIDS)


class SweepReport(namedtuple("SweepReport", "records summary boundaries")):
    """Deterministically ordered records plus per-theorem summary counts
    and the detected domain boundaries (status flips along n)."""

    __slots__ = ()


def _summarize(records: tuple[VerificationRecord, ...]) -> dict[str, dict[str, int]]:
    summary: dict[str, dict[str, int]] = {}
    for rec in records:
        per = summary.setdefault(rec.theorem, {})
        per[rec.status] = per.get(rec.status, 0) + 1
        per["total"] = per.get("total", 0) + 1
    return {t: dict(sorted(v.items())) for t, v in sorted(summary.items())}


def _boundaries(records: tuple[VerificationRecord, ...]) -> tuple[dict, ...]:
    # the theorems whose records carry an n parameter flip along n
    series: dict[tuple, list[tuple[int, str]]] = {}
    for rec in records:
        params = dict(rec.params)
        n = params.pop("n", None)
        if n is None:
            continue
        key = (rec.theorem, tuple(sorted(params.items())))
        verdict = "PASS" if rec.passed else "FAIL"
        series.setdefault(key, []).append((int(n), verdict))
    out = []
    for (theorem, rest), points in sorted(series.items()):
        points.sort()
        for (n0, v0), (n1, v1) in zip(points, points[1:]):
            if v0 != v1:
                out.append({
                    "theorem": theorem,
                    "params": " ".join(f"{k}={v}" for k, v in rest),
                    "n_from": n0,
                    "n_to": n1,
                    "flip": f"{v0}->{v1}",
                })
    return tuple(out)


def sweep(config: SweepConfig | None = None,
          only: tuple[str, ...] | None = None) -> SweepReport:
    """Run every verifier over its grid; deterministic record order
    (theorem table order, then each grid's order).

    `only` restricts the run to the named theorems.  The run is one
    sequential pass, so the theorems share the memoized closed forms
    and difference table.
    """
    config = config or SweepConfig()
    if only is not None:
        unknown = set(only) - set(THEOREMS)
        if unknown:
            raise ValueError(f"unknown theorems: {sorted(unknown)}")
    found: list[VerificationRecord] = []
    for theorem, grid in _GRIDS.items():
        if only is None or theorem in only:
            # by module-level name: perfbench/spans.py traces it by rebinding
            verify = globals()["verify_" + theorem.replace("-", "_")]
            found.extend(verify(*args) for args in grid(config))
    records = tuple(found)
    return SweepReport(records=records, summary=_summarize(records),
                       boundaries=_boundaries(records))


def unresolved_failures(report: SweepReport) -> list[VerificationRecord]:
    """The asserted-domain FAIL records; regression gating acts on these."""
    return [rec for rec in report.records if rec.status == FAIL]
