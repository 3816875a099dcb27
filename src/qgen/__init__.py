"""Exact q-series toolkit: weighted (h,q)-Genocchi numbers and polynomials,
fermionic p-adic q-integral moments, weighted q-Bernstein polynomials, and
mechanical verification of the identities connecting them.

All arithmetic is exact (big rationals and reduced Laurent rational
functions in q); identity checking is structural equality of canonical
forms, never numeric comparison.
"""

from qgen.qcore import (
    PoleError,
    Q,
    ONE,
    ZERO,
    RatFuncQ,
    binomial,
    eval_at,
    q_power,
    qbracket,
    subst_q_inverse,
)
from qgen.records import VerificationRecord
from qgen.padic import (
    ConvergenceTrace,
    IntegrandSpec,
    PadicContext,
    PrecisionError,
    bracket_power_integrand,
    convergence_probe,
    functional_equation_check,
    functional_equation_residual,
    integrate,
    truncated_integral,
    vp,
)
from qgen.genocchi import (
    GenocchiTable,
    WeightParams,
    build_table,
    classical_genocchi,
    unweighted_reductions,
    weighted_genocchi_integral_route,
    weighted_genocchi_number,
    weighted_genocchi_poly_closed,
    weighted_genocchi_poly_umbral,
    weighted_genocchi_recurrence,
)
from qgen.bernstein import (
    BernsteinIndex,
    bernstein_operator,
    bernstein_poly,
    bernstein_symmetry_check,
)
from qgen.identities import (
    SweepConfig,
    SweepReport,
    sweep,
    verify_bernstein_double,
    verify_bernstein_multi,
    verify_bernstein_single,
    verify_integral_reflect,
    verify_integral_shift,
    verify_shift2,
    verify_symmetry,
)

__version__ = "0.1.0"

__all__ = [
    "BernsteinIndex",
    "ConvergenceTrace",
    "GenocchiTable",
    "IntegrandSpec",
    "ONE",
    "PadicContext",
    "PoleError",
    "PrecisionError",
    "Q",
    "RatFuncQ",
    "SweepConfig",
    "SweepReport",
    "VerificationRecord",
    "WeightParams",
    "ZERO",
    "__version__",
    "bernstein_operator",
    "bernstein_poly",
    "bernstein_symmetry_check",
    "binomial",
    "bracket_power_integrand",
    "build_table",
    "classical_genocchi",
    "convergence_probe",
    "eval_at",
    "functional_equation_check",
    "functional_equation_residual",
    "integrate",
    "q_power",
    "qbracket",
    "subst_q_inverse",
    "sweep",
    "truncated_integral",
    "unweighted_reductions",
    "verify_bernstein_double",
    "verify_bernstein_multi",
    "verify_bernstein_single",
    "verify_integral_reflect",
    "verify_integral_shift",
    "verify_shift2",
    "verify_symmetry",
    "vp",
    "weighted_genocchi_integral_route",
    "weighted_genocchi_number",
    "weighted_genocchi_poly_closed",
    "weighted_genocchi_poly_umbral",
    "weighted_genocchi_recurrence",
]
