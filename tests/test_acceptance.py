"""Acceptance suite: the exit criteria, one test per criterion.

Every check is exact; PASS means structural equality of canonical
rational functions (or exact rational equality), never a numeric
tolerance.  Each test prints one line (visible with ``pytest -s``):

    ACCEPTANCE <k> <name>: PASS

Runtime ceilings are asserted per criterion.
"""

import hashlib
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from qgen.cli import EXIT_OK, EXIT_PRECISION, EXIT_USAGE, run
from qgen.genocchi import (
    WeightParams,
    classical_genocchi,
    weighted_genocchi_integral_route,
    weighted_genocchi_number,
    weighted_genocchi_poly_closed,
    weighted_genocchi_poly_umbral,
    weighted_genocchi_recurrence,
)
from qgen.bernstein import BernsteinIndex, bernstein_poly, bernstein_symmetry_check
from qgen.identities import (
    verify_bernstein_double,
    verify_bernstein_multi,
    verify_bernstein_single,
    verify_integral_reflect,
    verify_shift2,
    verify_symmetry,
)
from qgen.padic import IntegrandSpec, PadicContext, functional_equation_residual
from qgen.qcore import ONE, RatFuncQ, ZERO, eval_at, qbracket
from pins import GOLDEN
from readback import Q

W = WeightParams


@contextmanager
def criterion(tag: str, budget_seconds: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {tag}: FAIL")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_seconds, f"{tag} took {elapsed:.1f}s (budget {budget_seconds}s)"
    print(f"ACCEPTANCE {tag}: PASS ({elapsed:.1f}s)")


def test_01_functional_equation_random_specs():
    with criterion("1 functional-equation", 5.0):
        rng = random.Random(20110901)
        for _ in range(50):
            terms = {
                rng.randint(-6, 6): Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                for _ in range(rng.randint(1, 5))
            }
            assert not functional_equation_residual(IntegrandSpec(terms)), terms


def test_02_normalization_adjudication():
    with criterion("2 normalization-adjudication", 1.0):
        constant = IntegrandSpec({0: 1})
        # unnormalized reading: residual (2 - [2]_q) f(0) = 1 - q, nonzero
        raw = functional_equation_residual(constant, normalized=False)
        assert raw == (RatFuncQ(2) - qbracket(2, 1)) * constant.at_zero()
        assert raw == ONE - Q
        assert raw
        assert eval_at(raw, Fraction(3)) != 0  # fails for q != 1
        assert eval_at(raw, 1) == 0
        # normalized reading: residual is identically zero
        assert not functional_equation_residual(constant, normalized=True)


def test_03_three_way_genocchi_agreement():
    with criterion("3 three-way-agreement", 30.0):
        instances = 0
        for alpha in (1, 2, 3):
            for h in (1, 2, 3):
                w = W(alpha, h)
                recurrence = weighted_genocchi_recurrence(10, w)
                for n in range(1, 11):
                    for x in (0, 1, 2):
                        closed = weighted_genocchi_poly_closed(n, w, x)
                        umbral = weighted_genocchi_poly_umbral(n, w, x)
                        assert closed == umbral, (n, alpha, h, x)
                        if x == 0:
                            assert recurrence[n] == closed, (n, alpha, h)
                        instances += 1
        assert instances == 270


def test_04_padic_convergence():
    with criterion("4 padic-convergence", 60.0):
        for p, q in ((3, 4), (5, 6)):
            ctx = PadicContext(p=p, N=3, q=Fraction(q))
            for n in (1, 2, 3):
                for alpha, h in ((1, 1), (2, 2)):
                    for x in (0, 1):
                        trace = weighted_genocchi_integral_route(
                            n, W(alpha, h), x, ctx, N_list=[1, 2, 3]
                        )
                        for N, v in trace.entries:
                            assert v >= N, (p, q, n, alpha, h, x, N, v)


def test_05_classical_limit():
    with criterion("5 classical-limit", 5.0):
        # series-division oracle values (computed, then frozen as a regression guard)
        oracle = [classical_genocchi(n) for n in range(13)]
        assert oracle == [0, 1, -1, 0, 1, 0, -3, 0, 17, 0, -155, 0, 2073]
        for n in range(13):
            limit = eval_at(weighted_genocchi_number(n, W(1, 1)), 1)
            assert limit == oracle[n], n


def test_06_symmetry_shift_reflect_grids():
    with criterion("6 symmetry-shift-reflect", 60.0):
        weights = [W(a, h) for a in (1, 2, 3) for h in (1, 2, 3)]
        for w in weights:
            for n in range(9):
                for x in range(-2, 4):
                    assert verify_symmetry(n, w, x).status == "PASS", (n, w, x)
        for w in weights:
            for n in range(2, 11):
                assert verify_shift2(n, w).status == "PASS", (n, w)
        for w in weights:
            for n in range(1, 11):
                assert verify_integral_reflect(n, w).status == "PASS", (n, w)
            boundary = verify_integral_reflect(0, w)
            assert boundary.status == "BOUNDARY-FAIL", w


def test_07_bernstein_integral_identities():
    with criterion("7 bernstein-integral-identities", 300.0):
        weights = [W(a, h) for a in (1, 2) for h in (1, 2)]
        unexplained = []
        for w in weights:
            for n in range(1, 9):
                for k in range(n):
                    rec = verify_bernstein_single(n, k, w)
                    if rec.status != "PASS":
                        unexplained.append(rec)
        for w in weights:
            for n1 in range(1, 5):
                for n2 in range(1, 5):
                    for k in range((n1 + n2 - 1) // 2 + 1):
                        rec = verify_bernstein_double(n1, n2, k, w)
                        if rec.status != "PASS":
                            unexplained.append(rec)
        from itertools import product as iproduct

        for w in weights:
            for s in (2, 3):
                for n_list in iproduct((1, 2, 3), repeat=s):
                    total = sum(n_list)
                    for k in range(total // s + 1):
                        if total <= s * k:
                            continue
                        rec = verify_bernstein_multi(list(n_list), k, w)
                        if rec.status != "PASS":
                            unexplained.append(rec)
        assert unexplained == [], unexplained
        # the s = 2 multi case reproduces the double case record-for-record
        for w in weights:
            for n1 in range(1, 4):
                for n2 in range(1, 4):
                    for k in range((n1 + n2 - 1) // 2 + 1):
                        a = verify_bernstein_double(n1, n2, k, w)
                        b = verify_bernstein_multi([n1, n2], k, w)
                        assert (a.lhs, a.rhs, a.status) == (b.lhs, b.rhs, b.status), (
                            n1, n2, k, w
                        )


def test_08_bernstein_basis_properties():
    with criterion("8 bernstein-properties", 10.0):
        for n in range(6):
            for alpha in (1, 2, 3):
                for x in range(-1, 4):
                    total = ZERO
                    for k in range(n + 1):
                        idx = BernsteinIndex(k, n, alpha)
                        assert bernstein_symmetry_check(idx, x).status == "PASS"
                        total = total + bernstein_poly(idx, x)
                    expected = (qbracket(x, alpha) + qbracket(1 - x, -alpha)) ** n
                    assert total == expected, (n, alpha, x)


def test_09_cli_determinism(capsys):
    with criterion("9 cli-determinism", 600.0):
        # two runs of `verify all` with the default config, byte for byte
        argv = GOLDEN.argv
        code_first = run(argv)
        first = capsys.readouterr().out
        code_second = run(argv)
        second = capsys.readouterr().out
        assert first == second
        assert first  # non-empty report
        # the golden report: the same bytes whatever the representation
        assert hashlib.sha256(first.encode("utf-8")).hexdigest() == GOLDEN.sha256
        # exit codes conform to the contract
        assert code_first == code_second == EXIT_OK
        assert run(["verify", "nonexistent-theorem"]) == EXIT_USAGE
        capsys.readouterr()
        assert run(["integral", "--p", "3", "--q", "4", "--coeff", "0:1/3",
                    "--N", "5"]) == EXIT_PRECISION
        capsys.readouterr()
