#!/usr/bin/env python3
"""Walkthrough: truncated fermionic sums converging p-adically.

For integrands f(x) = sum c_m q^(m x) the exact integral is a finite
moment combination; the truncated alternating sums S_N approach it with
p-adic valuation growing at least linearly in N.  Also demonstrates why
the normalizer 1/[p^N]_{-q} matters: without it the limit satisfies the
q-shift equation with 2 f(0) instead of [2]_q f(0).
"""

from fractions import Fraction

from qgen.padic import (
    IntegrandSpec,
    PadicContext,
    convergence_probe,
    functional_equation_residual,
    integrate,
    truncated_sums,
)
from qgen.qcore import eval_at


def show_probe(label: str, spec: IntegrandSpec, p: int, q: int) -> None:
    trace = convergence_probe(spec, p, q, [1, 2, 3])
    print(f"\n{label}   (p={p}, q={q})")
    print(f"  exact limit  = {trace.limit}   (symbolic: {integrate(spec)})")
    for N, v in trace.entries:
        print(f"  N={N}: vp(S_N - limit) = {v}")
    print(f"  reported constant C (vp >= N - C): {trace.constant}")


def main() -> None:
    print("Fermionic p-adic q-integral: truncation vs exact moments")
    print("=" * 64)

    show_probe("constant integrand f = 1", IntegrandSpec({0: 1}), 3, 4)
    show_probe("single monomial q^x", IntegrandSpec({1: 1}), 3, 4)
    show_probe("mixed integrand q^(2x) + (1/2) q^(-x)",
               IntegrandSpec({2: 1, -1: Fraction(1, 2)}), 5, 6)

    print("\nRaw (unnormalized) sums converge to a different functional:")
    spec = IntegrandSpec({0: 1})
    ctx = PadicContext(p=3, N=3, q=Fraction(4))
    norm, raw = truncated_sums(spec, ctx)
    print(f"  normalized   S_3(1) = {norm}")
    print(f"  unnormalized S_3(1) = {raw}")
    print("  q-shift residual q I(f1) + I(f) - [2]_q f(0), f = 1:")
    print(f"    normalized reading   -> {functional_equation_residual(spec)}")
    print(f"    unnormalized reading -> {functional_equation_residual(spec, normalized=False)}")
    print("  (the nonzero residual 1 - q is exactly (2 - [2]_q) f(0))")


if __name__ == "__main__":
    main()
