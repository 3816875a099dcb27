#!/usr/bin/env python3
"""Walkthrough: sweeping the identity verifiers over a parameter grid.

Runs every theorem verifier on a medium grid, prints the per-theorem
tallies, and lists the detected domain boundaries: parameter points
where an identity's status flips, e.g. the reflected-integral identity
failing at n = 0 and holding from n = 1 on.
"""

from qgen.identities import SweepConfig, sweep, unresolved_failures


def main() -> None:
    config = SweepConfig(
        n_max=6, scalar_n_max=8, alpha_max=2, h_max=2,
        x_min=-1, x_max=2, pair_n_max=3, multi_n_max=2,
    )
    print("Sweeping all identity verifiers (exact, structural equality)")
    print("=" * 64)
    report = sweep(config)
    print(f"{len(report.records)} records\n")

    print("per-theorem summary:")
    for theorem, counts in report.summary.items():
        text = "  ".join(f"{k}={v}" for k, v in counts.items())
        print(f"  {theorem:<18} {text}")

    print("\ndomain boundaries (status flips along n):")
    if not report.boundaries:
        print("  none on this grid")
    for b in report.boundaries:
        print(f"  {b['theorem']} [{b['params']}]: {b['flip']} between "
              f"n={b['n_from']} and n={b['n_to']}")

    gating = unresolved_failures(report)
    print(f"\nunresolved asserted failures: {len(gating)}")
    print("(boundary probes are recorded but never gate)")

    sample = [r for r in report.records if r.theorem == "integral-reflect"][:3]
    print("\nsample records:")
    for rec in sample:
        print(f"  {rec.status:<14} {rec.theorem} {rec.params_text()}")
        print(f"    lhs = {rec.lhs}")
        print(f"    rhs = {rec.rhs}")


if __name__ == "__main__":
    main()
