"""Identity verifiers and the sweep driver."""

from fractions import Fraction
from math import comb

import pytest

from qgen import identities
from qgen.genocchi import WeightParams, weighted_genocchi_number
from qgen.identities import (
    THEOREMS,
    SweepConfig,
    sweep,
    unresolved_failures,
    verify_bernstein_double,
    verify_bernstein_multi,
    verify_bernstein_single,
    verify_integral_reflect,
    verify_integral_shift,
    verify_shift2,
    verify_symmetry,
)
from qgen.qcore import ONE, PoleError, RatFuncQ, q_power, qbracket
from qgen.records import FAIL, VerificationRecord

W = WeightParams

SPOT_POINTS = (Fraction(2), Fraction(3), Fraction(5, 2))


def spot_check(record: VerificationRecord) -> None:
    """Structural verdicts must match plain evaluation at non-pole points."""
    for q0 in SPOT_POINTS:
        try:
            lv = record.lhs.eval_at(q0)
            rv = record.rhs.eval_at(q0)
        except PoleError:
            continue
        structural = record.lhs == record.rhs
        if structural:
            assert lv == rv
        elif lv != rv:
            return  # disagreement confirms FAIL
    # all sampled points agreed; only acceptable when sides are equal
    assert record.lhs == record.rhs or record.status.endswith("FAIL")


class TestSymmetry:
    @pytest.mark.parametrize("alpha", [1, 2, 3])
    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_index_zero_closed_value(self, alpha, h):
        record = verify_symmetry(0, W(alpha, h), x=2)
        assert record.status == "PASS"
        # q^(h-1) [2]_q / (1 + q^h)
        assert record.lhs * (ONE + q_power(h)) == q_power(h - 1) * qbracket(2, 1)

    def test_small_case(self):
        assert verify_symmetry(1, W(1, 1), 0).status == "PASS"

    @pytest.mark.parametrize("n", range(6))
    @pytest.mark.parametrize("x", [-2, 0, 3])
    def test_grid_sample(self, n, x):
        record = verify_symmetry(n, W(2, 3), x)
        assert record.status == "PASS"
        spot_check(record)


class TestShift2:
    @pytest.mark.parametrize("alpha", [1, 2, 3])
    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_n_two_value(self, alpha, h):
        record = verify_shift2(2, W(alpha, h))
        assert record.status == "PASS"
        # 2 [2]_q (1 + q^alpha + q^(alpha+h)) / ((1 + q^h) (1 + q^(alpha+h)))
        den = (ONE + q_power(h)) * (ONE + q_power(alpha + h))
        assert record.lhs * den == 2 * qbracket(2, 1) * (ONE + q_power(alpha) + q_power(alpha + h))

    def test_boundary_probes(self):
        # the identity is stated for n > 1; n = 1 genuinely fails,
        # n = 0 degenerates to 0 = 0
        r1 = verify_shift2(1, W(1, 1))
        assert r1.status == "BOUNDARY-FAIL"
        r0 = verify_shift2(0, W(1, 1))
        assert r0.status == "BOUNDARY-PASS"

    @pytest.mark.parametrize("n", range(2, 11))
    def test_asserted_domain(self, n):
        record = verify_shift2(n, W(3, 2))
        assert record.status == "PASS"
        spot_check(record)


class TestIntegralShift:
    @pytest.mark.parametrize("n", range(7))
    @pytest.mark.parametrize("alpha,h", [(1, 1), (2, 1), (1, 3), (3, 2)])
    def test_grid(self, n, alpha, h):
        record = verify_integral_shift(n, W(alpha, h))
        assert record.status == "PASS"

    def test_index_zero_value(self):
        # both sides reduce to q^(h-1) [2]_q / (1 + q^h)
        record = verify_integral_shift(0, W(2, 3))
        assert record.lhs * (ONE + q_power(3)) == q_power(2) * qbracket(2, 1)


class TestIntegralReflect:
    @pytest.mark.parametrize("alpha", [1, 2, 3])
    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_n_one_value(self, alpha, h):
        record = verify_integral_reflect(1, W(alpha, h))
        assert record.status == "PASS"
        # [2]_q (1 + q^h + q^(alpha+h)) / ((1 + q^h) (1 + q^(alpha+h)))
        den = (ONE + q_power(h)) * (ONE + q_power(alpha + h))
        assert record.lhs * den == qbracket(2, 1) * (ONE + q_power(h) + q_power(alpha + h))

    def test_boundary_failure_at_zero(self):
        # recorded (not asserted): fixes the implicit domain n >= 1
        record = verify_integral_reflect(0, W(1, 1))
        assert record.status == "BOUNDARY-FAIL"
        h = 1
        # [2]_q / (1 + q^h) against [2]_q (1 + q^h + q^2h) / (1 + q^h)
        den = ONE + q_power(h)
        assert record.lhs * den == qbracket(2, 1)
        assert record.rhs * den == qbracket(2, 1) * (ONE + q_power(h) + q_power(2 * h))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_asserted_domain(self, n):
        record = verify_integral_reflect(n, W(2, 2))
        assert record.status == "PASS"
        spot_check(record)


class TestBernsteinSingle:
    @pytest.mark.parametrize("alpha", [1, 2])
    @pytest.mark.parametrize("h", [1, 2])
    def test_first_case_value(self, alpha, h):
        record = verify_bernstein_single(1, 0, W(alpha, h))
        assert record.status == "PASS"
        # [2]_q (1 + q^h + q^(alpha+h)) / ((1 + q^h) (1 + q^(alpha+h)))
        den = (ONE + q_power(h)) * (ONE + q_power(alpha + h))
        assert record.lhs * den == qbracket(2, 1) * (ONE + q_power(h) + q_power(alpha + h))

    def test_nonzero_k(self):
        record = verify_bernstein_single(2, 1, W(1, 1))
        assert record.status == "PASS"

    @pytest.mark.parametrize("n", range(1, 9))
    def test_grid(self, n):
        for k in range(n):
            record = verify_bernstein_single(n, k, W(2, 2))
            assert record.status == "PASS", (n, k)

    def test_precondition(self):
        with pytest.raises(ValueError):
            verify_bernstein_single(2, 2, W(1, 1))
        with pytest.raises(ValueError):
            verify_bernstein_single(2, -1, W(1, 1))


class TestBernsteinDoubleMulti:
    def test_s2_consistency(self):
        a = verify_bernstein_double(1, 1, 0, W(1, 1))
        b = verify_bernstein_multi([1, 1], 0, W(1, 1))
        assert (a.lhs, a.rhs, a.status) == (b.lhs, b.rhs, b.status)

    def test_double_reduces_to_single_shape(self):
        # the (1,1,0) double case carries the same sides as single (2,0)
        a = verify_bernstein_double(1, 1, 0, W(2, 1))
        b = verify_bernstein_single(2, 0, W(2, 1))
        assert (a.lhs, a.rhs) == (b.lhs, b.rhs)

    @pytest.mark.parametrize("n1", range(1, 5))
    @pytest.mark.parametrize("n2", range(1, 5))
    def test_double_grid(self, n1, n2):
        for k in range((n1 + n2 - 1) // 2 + 1):
            record = verify_bernstein_double(n1, n2, k, W(1, 2))
            assert record.status == "PASS", (n1, n2, k)

    def test_multi_sample_points(self):
        assert verify_bernstein_multi([2, 1, 1], 0, W(1, 1)).status == "PASS"
        assert verify_bernstein_multi([2, 2, 1], 1, W(2, 1)).status == "PASS"

    def test_preconditions(self):
        with pytest.raises(ValueError):
            verify_bernstein_multi([2], 0, W(1, 1))
        with pytest.raises(ValueError):
            verify_bernstein_multi([1, 1], 1, W(1, 1))
        # the double verifier: a negative index, or n1 + n2 <= 2k
        for n1, n2, k in [(-1, 3, 0), (3, -1, 0), (2, 2, -1), (1, 1, 1), (2, 1, 2)]:
            with pytest.raises(ValueError):
                verify_bernstein_double(n1, n2, k, W(1, 1))


@pytest.mark.parametrize("verify, args, message", [
    pytest.param(verify, args, message, id=verify.__name__) for verify, args, message in [
        (verify_symmetry, (-1, W(1, 1), 0), "n must be nonnegative"),
        (verify_shift2, (-1, W(1, 1)), "n must be nonnegative"),
        (verify_integral_shift, (-1, W(1, 1)), "n must be nonnegative"),
        (verify_integral_reflect, (-1, W(1, 1)), "n must be nonnegative"),
        (verify_bernstein_multi, ([3, -1], 0, W(1, 1)), "indices must be nonnegative"),
    ]])
def test_negative_index_rejected(verify, args, message):
    # each verifier's own message: without its check, the call either
    # returns a record or fails later with another message
    with pytest.raises(ValueError, match=f"^{message}$"):
        verify(*args)


def clear_bernstein_caches():
    """Forget the difference table and the reflected values it starts from."""
    for cached in (identities._difference, identities._reflected):
        cached.cache_clear()


def direct_bernstein_sides(D, K, w):
    """Both Bernstein sides as the plain alternating binomial sums."""
    lhs = RatFuncQ(0)
    for l in range(D - K + 1):
        g = weighted_genocchi_number(l + K + 1, w)
        lhs = lhs + (-1) ** l * comb(D - K, l) * g / (l + K + 1)
    rhs = RatFuncQ(0)
    for l in range(K + 1):
        rhs = rhs + (-1) ** (K + l) * comb(K, l) * identities._reflected(D - l, w)
    return lhs, rhs


def default_grid_sides():
    """Every (D, K, w) the default sweep's Bernstein records check."""
    grids, config = identities._GRIDS, SweepConfig()
    keys = {(n, k, w) for n, k, w in grids["bernstein-single"](config)}
    keys |= {(n1 + n2, 2 * k, w) for n1, n2, k, w in grids["bernstein-double"](config)}
    keys |= {(sum(n_list), len(n_list) * k, w)
             for n_list, k, w in grids["bernstein-multi"](config)}
    return keys


class TestBernsteinSides:
    """The difference table against the direct sums it replaces."""

    def test_default_grid(self):
        keys = default_grid_sides()
        # the 36 pairs K < D <= 8 of the single grid, and (9, 0), (9, 3),
        # (9, 6) from s = 3, each at four weights
        assert len(keys) == 156
        for D, K, w in keys:
            assert identities._bernstein_sides(D, K, w) == direct_bernstein_sides(D, K, w), (D, K, w)

    @pytest.mark.parametrize("alpha", [1, 2, 3])
    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_degree_up_to_twelve(self, alpha, h):
        w = W(alpha, h)
        for D in range(1, 13):
            for K in range(D):
                assert identities._bernstein_sides(D, K, w) == direct_bernstein_sides(D, K, w), (D, K)

    def test_one_memo_for_both_sides(self):
        # the default Bernstein records read 220 differences of g_i / i and
        # 172 of the reflected values, all from one memo
        clear_bernstein_caches()
        sweep(only=("bernstein-single", "bernstein-double", "bernstein-multi"))
        info = identities._difference.cache_info()
        assert (info.currsize, info.hits) == (392, 1544)


SMALL_CONFIG = SweepConfig(
    n_max=3, scalar_n_max=3, alpha_max=2, h_max=2, x_min=0, x_max=1,
    pair_n_max=2, multi_n_max=2, s_max=2,
)


@pytest.fixture(scope="module")
def small_report():
    return sweep(SMALL_CONFIG)


class TestSweep:
    def test_deterministic(self, small_report):
        again = sweep(SMALL_CONFIG)
        assert again.records == small_report.records
        assert again.summary == small_report.summary
        assert again.boundaries == small_report.boundaries

    def test_no_unresolved_failures(self, small_report):
        assert unresolved_failures(small_report) == []

    def test_summary_counts_match_records(self, small_report):
        total = sum(counts["total"] for counts in small_report.summary.values())
        assert total == len(small_report.records)

    def test_boundary_detection(self, small_report):
        flips = {(b["theorem"], b["flip"]) for b in small_report.boundaries}
        assert ("integral-reflect", "FAIL->PASS") in flips
        assert ("shift2", "FAIL->PASS") in flips

    def test_empty_config(self):
        # every range has max < min
        report = sweep(SweepConfig(n_max=-1, scalar_n_max=-1, alpha_max=0, h_max=0,
                                   x_max=-3, pair_n_max=0, multi_n_max=0, s_max=1))
        assert report.records == ()
        assert report.summary == {}

    def test_single_point_config(self):
        # the smallest grid with a record of every theorem: the floors are
        # fixed, and bernstein-single needs n = 1, so symmetry and
        # integral-shift run over n = 0 and 1
        config = SweepConfig(n_max=1, scalar_n_max=0, alpha_max=1, h_max=1, x_min=0, x_max=0,
                             pair_n_max=1, multi_n_max=1, s_max=2)
        report = sweep(config)
        assert {t: counts["total"] for t, counts in report.summary.items()} == {
            "symmetry": 2,
            "shift2": 1,
            "integral-shift": 2,
            "integral-reflect": 1,
            "bernstein-single": 1,
            "bernstein-double": 1,
            "bernstein-multi": 1,
        }
        # n = 0 lies below the stated domains of shift2 and integral-reflect
        assert all(rec.status.startswith("BOUNDARY-") for rec in report.records
                   if rec.theorem in ("shift2", "integral-reflect"))

    def test_derived_bounds(self):
        # the Bernstein weights stop at 2, whatever alpha_max and h_max
        # allow above it, and bernstein-single runs to n_max
        bernstein = ("bernstein-single", "bernstein-double", "bernstein-multi")
        report = sweep(SweepConfig(alpha_max=1, h_max=5), only=bernstein)
        weights = {(dict(rec.params)["alpha"], dict(rec.params)["h"]) for rec in report.records}
        assert weights == {(1, 1), (1, 2)}
        report = sweep(SweepConfig(n_max=3), only=("bernstein-single",))
        assert max(dict(rec.params)["n"] for rec in report.records) == 3

    def test_config_defaults_caps_and_echo(self):
        defaults = {"n_max": 8, "scalar_n_max": 10, "alpha_max": 3, "h_max": 3, "x_min": -2,
                    "x_max": 3, "pair_n_max": 4, "multi_n_max": 3, "s_max": 3}
        config = SweepConfig()
        assert {name: getattr(config, name) for name in defaults} == defaults
        # capped: n_max sets the main ranges and only shrinks the pair and
        # multi ones, the other bounds are set as given, None changes nothing
        assert config.capped() == config
        assert config.capped(5) == SweepConfig(n_max=5, scalar_n_max=5)
        capped = config.capped(2, alpha_max=1, h_max=None, s_max=4)
        assert capped == SweepConfig(n_max=2, scalar_n_max=2, alpha_max=1, pair_n_max=2,
                                     multi_n_max=2, s_max=4)
        assert type(capped) is SweepConfig and config == SweepConfig()
        # the echo: the fields in order, then the floors, then the derived maxima
        assert list(capped.echo().items()) == [
            ("n_max", 2), ("scalar_n_max", 2), ("alpha_max", 1), ("h_max", 3), ("x_min", -2),
            ("x_max", 3), ("pair_n_max", 2), ("multi_n_max", 2), ("s_max", 4),
            ("n_min", 0), ("scalar_n_min", 0), ("alpha_min", 1), ("h_min", 1),
            ("pair_n_min", 1), ("multi_n_min", 1), ("s_min", 2), ("single_n_max", 2),
            ("product_alpha_max", 1), ("product_h_max", 2)]

    @pytest.mark.parametrize("config", [SweepConfig(), SMALL_CONFIG,
                                        SweepConfig(n_max=3, alpha_max=1, h_max=5)])
    def test_echo_bounds_the_grids(self, config):
        # the config echo's floors and derived maxima are the least and
        # greatest value each grid runs over
        echo = config.echo()
        grids = {t: list(identities._GRIDS[t](config)) for t in THEOREMS}

        def span(values):
            values = list(values)
            return min(values), max(values)

        def bounds(*names):
            return tuple(echo[name] for name in names)

        assert span(n for n, _, _ in grids["symmetry"]) == bounds("n_min", "n_max")
        assert span(x for _, _, x in grids["symmetry"]) == bounds("x_min", "x_max")
        assert span(n for n, _ in grids["integral-shift"]) == bounds("n_min", "n_max")
        for theorem in ("shift2", "integral-reflect"):
            assert span(n for n, _ in grids[theorem]) == bounds("scalar_n_min", "scalar_n_max")
        for theorem in THEOREMS:
            # the weight follows n in symmetry's (n, w, x) and ends every other tuple
            weights = [args[1] if theorem == "symmetry" else args[-1] for args in grids[theorem]]
            prefix = "product_" if theorem.startswith("bernstein") else ""
            assert span(w.alpha for w in weights) == bounds("alpha_min", prefix + "alpha_max")
            assert span(w.h for w in weights) == bounds("h_min", prefix + "h_max")
        assert span(n for n, _, _ in grids["bernstein-single"])[1] == echo["single_n_max"]
        assert span(n1 for n1, _, _, _ in grids["bernstein-double"]) == \
            bounds("pair_n_min", "pair_n_max")
        multi = grids["bernstein-multi"]
        assert span(len(n_list) for n_list, _, _ in multi) == bounds("s_min", "s_max")
        assert span(n for n_list, _, _ in multi for n in n_list) == \
            bounds("multi_n_min", "multi_n_max")

    @pytest.mark.parametrize("theorem", THEOREMS)
    def test_only_filter(self, small_report, theorem):
        # one theorem alone gives its slice of the full sweep, in order
        report = sweep(SMALL_CONFIG, only=(theorem,))
        assert report.records
        assert report.records == tuple(r for r in small_report.records if r.theorem == theorem)

    def test_only_rejects_unknown_theorem(self):
        with pytest.raises(ValueError):
            sweep(SMALL_CONFIG, only=("no-such-theorem",))

    def test_spot_check_consistency(self, small_report):
        for record in small_report.records[::7]:
            spot_check(record)


class TestUnresolvedFailures:
    def test_synthetic_gating(self):
        from qgen.identities import SweepReport
        from qgen.records import compare

        w_params = (("n", 1), ("alpha", 1), ("h", 1))
        failing = compare("demo", w_params, ONE, ONE + q_power(1))
        assert failing.status == "FAIL"
        boundary = compare("demo", (("n", 0),), ONE, q_power(1), boundary=True)

        # a failure gates, a boundary probe does not
        report = SweepReport((failing, boundary), {}, ())
        assert unresolved_failures(report) == [failing]

    @pytest.fixture
    def perturbed_g4(self, monkeypatch):
        # g_4 + 1 in place of g_4; the memoized sides are cleared before
        # and after so no perturbed value reaches another test
        original = identities.weighted_genocchi_number

        def perturbed(n, w):
            return original(n, w) + (1 if n == 4 else 0)

        clear_bernstein_caches()
        monkeypatch.setattr(identities, "weighted_genocchi_number", perturbed)
        yield
        monkeypatch.undo()
        clear_bernstein_caches()

    def test_failure_beyond_min_degree_gates(self, perturbed_g4):
        # at k > min(n_i) the cancelled prefactor prod C(n_i, k) is 0; a
        # failure there must gate like any other
        config = SweepConfig(pair_n_max=4, alpha_max=1, h_max=1)
        report = sweep(config, only=("bernstein-double",))
        failures = [rec for rec in report.records if rec.status == FAIL]
        assert failures
        assert unresolved_failures(report) == failures
        failing_points = {rec.params_text() for rec in failures}
        assert "n1=1 n2=4 k=2 alpha=1 h=1" in failing_points
        assert "n1=4 n2=1 k=2 alpha=1 h=1" in failing_points


TINY_CONFIG = SweepConfig(
    n_max=1, scalar_n_max=1, alpha_max=1, h_max=1, x_min=0, x_max=0,
    pair_n_max=1, multi_n_max=1, s_max=2,
)


@pytest.mark.parametrize("theorem", THEOREMS)
def test_sweep_calls_each_verifier_by_name(theorem, monkeypatch):
    # perfbench/spans.py traces the verifiers by rebinding these module
    # names, so the sweep must call through them once per record
    name = "verify_" + theorem.replace("-", "_")
    original = getattr(identities, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(identities, name, counting)
    report = sweep(TINY_CONFIG, only=(theorem,))
    assert report.records
    assert len(calls) == len(report.records)
