"""Exact q-series toolkit: weighted (h,q)-Genocchi numbers and polynomials,
fermionic p-adic q-integral moments, weighted q-Bernstein polynomials, and
mechanical verification of the identities connecting them.

All arithmetic is exact (big rationals and reduced Laurent rational
functions in q); identity checking is structural equality of canonical
forms, never numeric comparison.  Each module's ``__all__`` is its public
API; the package re-exports the union of those lists.
"""

# layer order: each module imports only the ones above it
from qgen.qcore import *  # noqa: F401,F403
from qgen.records import *  # noqa: F401,F403
from qgen.padic import *  # noqa: F401,F403
from qgen.genocchi import *  # noqa: F401,F403
from qgen.bernstein import *  # noqa: F401,F403
from qgen.identities import *  # noqa: F401,F403
from qgen import bernstein, genocchi, identities, padic, qcore, records

__version__ = "0.1.0"

__all__ = ["__version__"] + sorted(
    {name for module in (qcore, records, padic, genocchi, bernstein, identities)
     for name in module.__all__}
)
