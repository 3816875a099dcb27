"""Command-line interface: formats, determinism, exit codes."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qgen import __version__, padic
from qgen.cli import EXIT_FAIL, EXIT_OK, EXIT_PRECISION, EXIT_USAGE, run, serialize_report
from qgen.genocchi import WeightParams, weighted_genocchi_number, weighted_genocchi_poly_closed
from qgen.identities import SweepConfig, SweepReport, sweep
from qgen.padic import IntegrandSpec, PadicContext, integrate, truncated_integral
from qgen.qcore import ONE, RatFuncQ, eval_at
from qgen.records import compare
from pins import GOLDEN, PINS
from readback import Q, denotes, over_cyclotomic, read_canonical, read_fraction

SRC = str(Path(__file__).resolve().parents[1] / "src")


def src_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def run_cli(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SMALL_VERIFY = ["--n-max", "2", "--alpha-max", "1", "--h-max", "1",
                "--x-min", "0", "--x-max", "1"]


class TestTable:
    def test_classical_column_csv(self, capsys):
        code, out, _ = run_cli(capsys, [
            "table", "--n-max", "4", "--alpha", "1", "--h", "1",
            "--at-q", "1", "--format", "csv",
        ])
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "alpha", "h", "x", "value"]
        assert [r[4] for r in rows[1:]] == ["0", "1", "-1", "0", "1"]

    def test_symbolic_values_parse_back(self, capsys):
        code, out, _ = run_cli(capsys, [
            "table", "--n-max", "3", "--alpha", "2", "--h", "1", "--format", "json",
        ])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["tool-version"]
        for row in payload["rows"]:
            w = WeightParams(row["alpha"], row["h"])
            value = weighted_genocchi_poly_closed(row["n"], w, row["x"])
            assert denotes(row["value"], value)
            assert value.to_canonical_string() == row["value"]

    def test_rejects_bad_weight(self, capsys):
        code, _, err = run_cli(capsys, ["table", "--n-max", "2", "--alpha", "0"])
        assert code == EXIT_USAGE
        assert "alpha" in err

    def test_route_disagreement(self, capsys, monkeypatch):
        import qgen.genocchi

        monkeypatch.setattr(qgen.genocchi, "weighted_genocchi_poly_umbral",
                            lambda n, w, x: ONE + Q)
        code, out, err = run_cli(capsys, ["table", "--n-max", "2"])
        assert code == EXIT_FAIL
        assert out == ""
        assert err.startswith("qgen: route disagreement at (0, 1, 1, 0): umbral produced 1 + q")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_failed_check_writes_no_file(self, capsys, monkeypatch, tmp_path):
        # every check finishes before the first byte goes out, so a failed
        # one leaves no partial report behind
        import qgen.cli

        def disagree(n_max, w, xs):
            raise ArithmeticError("route disagreement at (0, 1, 1, 0)")

        monkeypatch.setattr(qgen.cli, "build_table", disagree)
        target = tmp_path / "r.json"
        code, out, err = run_cli(capsys, ["table", "--format", "json", "--output", str(target)])
        assert (code, out, err) == (EXIT_FAIL, "", "qgen: route disagreement at (0, 1, 1, 0)\n")
        assert not target.exists()

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_values_past_the_int_digit_limit(self, capsys, fmt):
        # at q = 10^1500 the values pass 4,300 digits and print in full
        at_q = "1" + "0" * 1500
        code, out, err = run_cli(capsys, ["table", "--n-max", "4", "--alpha", "1", "--h", "1",
                                          "--at-q", at_q, "--format", fmt])
        assert (code, err) == (EXIT_OK, "")
        if fmt == "json":
            printed = [row["value"] for row in json.loads(out)["rows"]]
        else:
            printed = [line.split()[1] for line in out.splitlines()[1:]]
        w = WeightParams(1, 1)
        want = [eval_at(weighted_genocchi_number(n, w), Fraction(at_q)) for n in range(5)]
        assert max(abs(v.numerator) for v in want).bit_length() > 14_300
        assert [read_fraction(text) for text in printed] == want


class TestVerify:
    def test_exit_zero_small_grid(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "all", *SMALL_VERIFY, "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["records"]
        assert all(r["status"] in ("PASS", "BOUNDARY-PASS", "BOUNDARY-FAIL")
                   for r in payload["records"])

    def test_boundary_failures_do_not_gate(self, capsys):
        # shift2 records BOUNDARY-FAIL at n=1 yet the exit code stays 0
        code, out, _ = run_cli(capsys, [
            "verify", "shift2", "--n-max", "3", "--alpha-max", "1", "--h-max", "1",
            "--format", "json",
        ])
        assert code == EXIT_OK
        payload = json.loads(out)
        statuses = {r["status"] for r in payload["records"]}
        assert "BOUNDARY-FAIL" in statuses

    def test_single_theorem_filter(self, capsys):
        code, out, _ = run_cli(capsys, [
            "verify", "symmetry", *SMALL_VERIFY, "--format", "json",
        ])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert {r["theorem"] for r in payload["records"]} == {"symmetry"}

    def test_byte_determinism(self, capsys):
        args = ["verify", "all", *SMALL_VERIFY, "--format", "json"]
        _, first, _ = run_cli(capsys, args)
        _, second, _ = run_cli(capsys, args)
        assert first == second

    def test_csv_shape(self, capsys):
        code, out, _ = run_cli(capsys, [
            "verify", "integral-reflect", "--n-max", "2", "--alpha-max", "1",
            "--h-max", "1", "--format", "csv",
        ])
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["theorem", "params", "status", "lhs", "rhs"]
        assert len(rows) == 1 + 3  # header + n in {0, 1, 2}
        for row in rows[1:]:
            for side in row[3:]:
                assert read_canonical(side)[1]  # parses, with a nonzero denominator

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, [
            "verify", "shift2", "--n-max", "2", "--alpha-max", "1", "--h-max", "1",
            "--format", "json", "--output", str(target),
        ])
        assert code == EXIT_OK
        assert out == ""
        json.loads(target.read_text())

    @pytest.mark.parametrize("cap, fields", [
        (["--n-max", "2"], {"n_max": 2, "scalar_n_max": 2, "single_n_max": 2,
                            "pair_n_max": 2, "multi_n_max": 2}),
        (["--n-max", "12"], {"n_max": 12, "scalar_n_max": 12, "single_n_max": 12}),
        (["--alpha-max", "6"], {"alpha_max": 6, "product_alpha_max": 2}),
        (["--h-max", "5"], {"h_max": 5, "product_h_max": 2}),
        (["--x-min=-1", "--x-max", "1"], {"x_min": -1, "x_max": 1}),
        (["--s-max", "4"], {"s_max": 4}),
    ], ids=["n-max-2", "n-max-12", "alpha-max", "h-max", "x-range", "s-max"])
    def test_caps_in_config_echo(self, capsys, cap, fields):
        # --n-max, --alpha-max and --h-max set the main ranges and only
        # shrink the pair, multi and product ranges; the x and s bounds are
        # set as given, and every other field keeps its default
        code, out, _ = run_cli(capsys, ["verify", "shift2", "--alpha-max", "1", "--h-max", "1",
                                        *cap, "--format", "json"])
        assert code == EXIT_OK
        want = {"n_min": 0, "n_max": 8, "scalar_n_min": 0, "scalar_n_max": 10,
                "alpha_min": 1, "alpha_max": 1, "h_min": 1, "h_max": 1,
                "x_min": -2, "x_max": 3, "single_n_max": 8,
                "pair_n_min": 1, "pair_n_max": 4, "multi_n_min": 1, "multi_n_max": 3,
                "s_min": 2, "s_max": 3, "product_alpha_max": 1, "product_h_max": 1,
                "theorem": "shift2"}
        assert json.loads(out)["config-echo"] == {**want, **fields}

    def test_workers_option_is_gone(self, capsys):
        # verify has no parallelism option: argparse rejects it, exit 2
        code, out, err = run_cli(capsys, ["verify", "all", "--workers", "2"])
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("usage:")
        assert "unrecognized arguments: --workers 2" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, empty", [
        (["--x-min", "3", "--x-max", "-3"], "symmetry"),
        (["--s-max", "1"], "bernstein-multi"),
        (["--n-max", "0"],
         "shift2, integral-reflect, bernstein-single, bernstein-double, bernstein-multi"),
    ], ids=["x-range", "s-max", "n-max"])
    def test_empty_theorem(self, capsys, argv, empty):
        # a theorem that checked nothing is not a success, even when the
        # others checked something; at n = 0 shift2 and integral-reflect
        # hold boundary probes only, which assert nothing
        code, out, err = run_cli(capsys, ["verify", "all", "--format", "json", *argv])
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (f"qgen: the verify grid has no asserted check for {empty}; "
                       "nothing was checked there\n")

    def test_empty_grid(self, capsys):
        # a run that checked nothing is not a success
        code, out, err = run_cli(capsys, ["verify", "all", "--alpha-max", "0"])
        assert code == EXIT_USAGE
        assert out == ""
        assert "nothing was checked" in err
        assert err.count("\n") == 1

    def test_unwritable_output(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, [
            "verify", "shift2", "--n-max", "2", "--alpha-max", "1", "--h-max", "1",
            "--output", str(tmp_path / "missing" / "report.json"),
        ])
        assert code == EXIT_USAGE
        assert "cannot write" in err


class TestIntegral:
    def test_constant_monomial(self, capsys):
        code, out, _ = run_cli(capsys, [
            "integral", "--p", "3", "--q", "4/1", "--m", "0", "--N", "2",
            "--format", "json",
        ])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["limit"] == "1"
        assert payload["rows"] == [{"N": 2, "value": "1", "valuation": "inf"}]

    def test_hand_sum_row(self, capsys):
        code, out, _ = run_cli(capsys, [
            "integral", "--p", "3", "--q", "4/1", "--m", "1", "--N", "1",
            "--format", "json",
        ])
        payload = json.loads(out)
        assert payload["rows"][0]["value"] == "241/13"

    def test_coefficient_terms(self, capsys):
        # negative exponents need the = form so argparse keeps the value
        code, out, _ = run_cli(capsys, [
            "integral", "--p", "5", "--q", "6", "--coeff", "1:1", "--coeff=-2:1/2",
            "--N", "1,2", "--format", "csv",
        ])
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["N", "value", "valuation"]
        assert len(rows) == 3

    def test_precision_exit_code(self, capsys):
        code, _, err = run_cli(capsys, [
            "integral", "--p", "3", "--q", "4", "--coeff", "0:1/3", "--N", "5",
        ])
        assert code == EXIT_PRECISION
        assert "precision" in err

    def test_config_errors(self, capsys):
        code, _, _ = run_cli(capsys, ["integral", "--p", "4", "--q", "4", "--m", "0"])
        assert code == EXIT_USAGE
        code, _, _ = run_cli(capsys, ["integral", "--p", "3", "--q", "2", "--m", "0"])
        assert code == EXIT_USAGE  # v_3(q-1) = 0
        code, _, _ = run_cli(capsys, ["integral", "--p", "3", "--q", "4"])
        assert code == EXIT_USAGE  # no terms

    @pytest.mark.parametrize("terms", [["--m", "1", "--coeff", "1:-1"], ["--coeff", "1:0"],
                                       ["--coeff", "0:0", "--coeff=-3:0"]])
    def test_zero_integrand(self, capsys, terms):
        # terms that cancel leave nothing to check: no limit-0, vp=inf report
        code, out, err = run_cli(capsys, ["integral", "--p", "3", "--q", "4"] + terms)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "qgen: the integrand is zero; nothing was checked\n"

    def test_negative_precision(self, capsys):
        # --M -1 is a precision below N, not a request for the default
        code, out, err = run_cli(capsys, [
            "integral", "--p", "3", "--q", "4", "--m", "1", "--M", "-1",
        ])
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "qgen: working precision M must be at least N\n"

    def test_unnormalized_column(self, capsys):
        code, out, _ = run_cli(capsys, [
            "integral", "--p", "3", "--q", "4", "--m", "0", "--N", "1",
            "--unnormalized", "--format", "json",
        ])
        payload = json.loads(out)
        # raw three-term sum: 1 - 4 + 16 = 13
        assert payload["rows"][0]["raw-sum"] == "13"

    def test_unnormalized_sums_each_level_once(self, capsys, monkeypatch):
        # the normalized sum is the raw one over [p^N]_{-q}: one summation
        # per level serves both columns, on the exact and the modular path
        calls = []
        real = padic._sums
        monkeypatch.setattr(padic, "_sums", lambda spec, ctx, method: calls.append(ctx.N)
                            or real(spec, ctx, method))
        code, _, _ = run_cli(capsys, [
            "integral", "--p", "3", "--q", "4", "--m", "1", "--N", "1,4,5",
            "--unnormalized", "--format", "json",
        ])
        assert code == EXIT_OK
        assert calls == [1, 4, 5]

    def test_large_prime_levels_are_residues(self, capsys, monkeypatch):
        # an exact sum over p^N terms has about p^N digits, so past
        # p^N = 3^9 the levels N <= 4 read mod p^M too; an exact sum there
        # fails at once instead of taking minutes
        real = padic._geometric

        def bounded(r, count):
            assert count <= 3**9, f"exact geometric sum over {count} terms"
            return real(r, count)

        monkeypatch.setattr(padic, "_geometric", bounded)
        code, out, _ = run_cli(capsys, ["integral", "--p", "31", "--q", "32", "--m", "1",
                                        "--N", "3,4"])
        assert code == EXIT_OK
        rows = out.splitlines()[-2:]
        assert rows[0].startswith("  N=3   value=") and rows[0].endswith(" mod 31^7  vp(diff)=4")
        assert rows[1] == "  N=4   value=23647455279 mod 31^8  vp(diff)=5"
        code, out, _ = run_cli(capsys, ["integral", "--p", "11", "--q", "12", "--m", "1",
                                        "--N", "4"])
        assert code == EXIT_OK
        assert " mod " not in out and out.splitlines()[-1].endswith("vp(diff)=5")

    @staticmethod
    def _residues(spec, N, M):
        # the exact S_N and raw sum reduced mod 3^M, independent of the
        # modular path
        ctx = PadicContext(p=3, N=N, q=Fraction(4), M=M)
        return [s.numerator * pow(s.denominator, -1, 3**M) % 3**M
                for s in padic._sums(spec, ctx, "exact")]

    def test_modular_rows_json(self, capsys):
        # above N = 4 the sums are residues mod p^M and print as such
        code, out, _ = run_cli(capsys, [
            "integral", "--p", "3", "--q", "4", "--m", "1", "--N", "4,5",
            "--unnormalized", "--format", "json",
        ])
        assert code == EXIT_OK
        low, high = json.loads(out)["rows"]
        assert "mod" not in low["value"] and low["valuation"] == "5"
        value, raw = self._residues(IntegrandSpec({1: 1}), 5, 9)
        assert high == {
            "N": 5,
            "value": f"{value} mod 3^9",
            "raw-sum": f"{raw} mod 3^9",
            "valuation": "6",
        }

    def test_modular_rows_text_and_csv(self, capsys):
        # a difference that vanishes mod p^M has valuation >= M: the
        # constant sum equals its limit, and q^x at M = N = 5 has vp 6
        argv = ["integral", "--p", "3", "--q", "4", "--m", "0", "--N", "5"]
        code, out, _ = run_cli(capsys, argv)
        assert code == EXIT_OK
        assert out.splitlines()[-1] == "  N=5   value=1 mod 3^9  vp(diff)=>=9"
        code, out, _ = run_cli(capsys, [
            "integral", "--p", "3", "--q", "4", "--m", "1", "--N", "5", "--M", "5",
            "--format", "csv",
        ])
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        value, _ = self._residues(IntegrandSpec({1: 1}), 5, 5)
        assert rows == [["N", "value", "valuation"], ["5", f"{value} mod 3^5", ">=5"]]

    @pytest.mark.parametrize("argv, terms, N, M", [
        (["--p", "7", "--q", "8", "--m", "1", "--N", "4"], {1: 1}, 4, None),
        (["--p", "7", "--q", "9/2", "--m", "2", "--coeff=-3:2/5", "--N", "4"],
         {2: 1, -3: Fraction(2, 5)}, 4, None),
        (["--p", "7", "--q", "8", "--m", "1", "--N", "5", "--M", "5200"], {1: 1}, 5, 5200),
        (["--p", "3", "--q", "4", "--m", "8000", "--N", "1"], {8000: 1}, 1, None),
    ])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_values_past_the_int_digit_limit(self, capsys, argv, terms, N, M, fmt):
        # str() of an int refuses more than 4,300 digits by default; the
        # exact sums at N = 4, a residue mod 7^5200 and the limit
        # [2]_q / (1 + q^8001) at q = 4 print in full
        code, out, err = run_cli(capsys, ["integral", *argv, "--format", fmt])
        assert (code, err) == (EXIT_OK, "")
        if fmt == "json":
            payload = json.loads(out)
            printed, limit = payload["rows"][0]["value"], payload["limit"]
        else:
            lines = out.splitlines()
            printed = lines[-1].partition("value=")[2].partition("  vp(diff)=")[0]
            limit = lines[1].partition("exact limit = ")[2].partition("  (symbolic: ")[0]
        p, q = int(argv[1]), Fraction(argv[3])
        spec = IntegrandSpec(terms)
        value = truncated_integral(spec, PadicContext(p=p, N=N, q=q, M=M))
        assert max(value.numerator, value.denominator).bit_length() > 14_300
        if M is not None:
            printed = printed.removesuffix(f" mod {p}^{M}")
        assert read_fraction(printed) == value
        assert read_fraction(limit) == eval_at(integrate(spec), q)

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_coefficients_past_the_int_digit_limit(self, capsys, fmt):
        # coefficients 1/(10^4000 + 1) and 1/(10^4000 + 3): the spec, the
        # symbolic limit and its canonical string print them in full
        d1, d2 = 10**4000 + 1, 10**4000 + 3
        code, out, err = run_cli(capsys, ["integral", "--p", "3", "--q", "4",
                                          "--coeff", f"0:1/{d1}", "--coeff", f"1:1/{d2}",
                                          "--N", "1", "--format", fmt])
        assert (code, err) == (EXIT_OK, "")
        spec = IntegrandSpec({0: Fraction(1, d1), 1: Fraction(1, d2)})
        if fmt == "json":
            payload = json.loads(out)
            assert payload["config-echo"]["spec"] == f"0: 1/{d1}; 1: 1/{d2}"
            assert denotes(payload["limit-symbolic"], integrate(spec))
            assert integrate(spec).to_canonical_string() == payload["limit-symbolic"]
        elif fmt == "text":
            assert out.startswith(f"fermionic integral: p=3 q=4 spec {{0: 1/{d1}; 1: 1/{d2}}}\n")
        else:
            value = truncated_integral(spec, PadicContext(p=3, N=1, q=Fraction(4)))
            assert read_fraction(list(csv.reader(io.StringIO(out)))[1][1]) == value


class TestBernstein:
    def test_all_indices(self, capsys):
        code, out, _ = run_cli(capsys, [
            "bernstein", "--n", "3", "--alpha", "2", "--x", "1", "--format", "json",
        ])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert len(payload["rows"]) == 4
        assert all(r["symmetry"] == "PASS" for r in payload["rows"])

    def test_single_index(self, capsys):
        code, out, _ = run_cli(capsys, [
            "bernstein", "--n", "2", "--k", "1", "--x", "2", "--format", "csv",
        ])
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 2
        assert denotes(rows[1][4], RatFuncQ({1: -2, 2: -2}))
        assert rows[1][4] == RatFuncQ({1: -2, 2: -2}).to_canonical_string()

    def test_bad_index(self, capsys):
        code, _, _ = run_cli(capsys, ["bernstein", "--n", "2", "--k", "5"])
        assert code == EXIT_USAGE

    def test_negative_degree(self, capsys):
        code, out, err = run_cli(capsys, ["bernstein", "--n", "-1"])
        assert code == EXIT_USAGE
        assert out == ""
        assert err.count("\n") == 1


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert run_cli(capsys, ["frobnicate"])[0] == EXIT_USAGE

    def test_unknown_theorem(self, capsys):
        assert run_cli(capsys, ["verify", "bogus"])[0] == EXIT_USAGE

    def test_bad_rational(self, capsys):
        assert run_cli(capsys, ["integral", "--p", "3", "--q", "x/y", "--m", "0"])[0] == EXIT_USAGE

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, ["--help"])[0] == 0

    @pytest.mark.parametrize("arg, message", [
        pytest.param(["--N", "2,x"], "argument --N: not a truncation list: '2,x'", id="N-text"),
        pytest.param(["--N=-1"], "argument --N: truncation levels must be nonnegative",
                     id="N-negative"),
        pytest.param(["--coeff", "1"], "argument --coeff: expected m:coeff, got '1'",
                     id="coeff-no-colon"),
        pytest.param(["--coeff", "1:1/0"], "argument --coeff: expected m:coeff, got '1:1/0'",
                     id="coeff-zero-denominator"),
    ])
    def test_malformed_integral_argument(self, capsys, arg, message):
        # refused while parsing, with argparse's usage line and message
        code, out, err = run_cli(capsys, ["integral", "--p", "3", "--q", "4", "--m", "0", *arg])
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("usage: qgen integral ")
        assert err.endswith(f"\nqgen integral: error: {message}\n")
        assert "Traceback" not in err

    def test_failed_check_exits_one(self, capsys, monkeypatch):
        # an ArithmeticError from the library is a failed check: exit 1
        # with its one-line message and no report
        import qgen.identities

        def failing(n, w):
            raise ArithmeticError("nonzero remainder in exact binomial division")

        monkeypatch.setattr(qgen.identities, "verify_shift2", failing)
        code, out, err = run_cli(capsys, ["verify", "shift2", "--n-max", "2"])
        assert (code, out, err) == (
            EXIT_FAIL, "", "qgen: nonzero remainder in exact binomial division\n")


# the front-door pins, in-process; the golden pin runs in
# tests/test_acceptance.py, and tests/pins.py runs them all cold
@pytest.mark.parametrize("pin", [
    pytest.param(pin, id=pin.command.replace(" --format ", " "))
    for pin in PINS if pin.tier1 and pin is not GOLDEN
])
def test_report_bytes(capsys, pin):
    code, out, err = run_cli(capsys, pin.argv)
    assert (code, err) == (EXIT_OK, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == pin.sha256


# every "qgen:" line the CLI prints for bad input, with its exit code;
# {tmp} stands for a fresh temporary directory
BAD_INPUT = [
    (["table", "--alpha", "0"], EXIT_USAGE, "weight alpha must be a positive integer"),
    (["table", "--h", "0"], EXIT_USAGE, "h must be a positive integer"),
    (["table", "--n-max", "-1"], EXIT_USAGE, "n_max must be nonnegative"),
    (["table", "--n-max", "3", "--alpha", "2", "--at-q", "-1"], EXIT_USAGE,
     "denominator vanishes at q = -1"),
    (["verify", "all", "--alpha-max", "0"], EXIT_USAGE,
     "the verify grid is empty; nothing was checked"),
    (["verify", "all", "--n-max", "-1"], EXIT_USAGE,
     "the verify grid is empty; nothing was checked"),
    (["verify", "symmetry", "--x-min", "3", "--x-max", "-3"], EXIT_USAGE,
     "the verify grid is empty; nothing was checked"),
    (["verify", "integral-reflect", "--n-max", "0"], EXIT_USAGE,
     "the verify grid has no asserted check for integral-reflect; nothing was checked there"),
    (["verify", "shift2", "--n-max", "1"], EXIT_USAGE,
     "the verify grid has no asserted check for shift2; nothing was checked there"),
    (["verify", "shift2", "--n-max", "2", "--output", "{tmp}/missing/r.json"], EXIT_USAGE,
     "cannot write {tmp}/missing/r.json: [Errno 2] No such file or directory: "
     "'{tmp}/missing/r.json'"),
    (["integral", "--p", "3", "--q", "4"], EXIT_USAGE,
     "provide at least one term via --m or --coeff"),
    (["integral", "--p", "3", "--q", "4", "--coeff", "1:0"], EXIT_USAGE,
     "the integrand is zero; nothing was checked"),
    (["integral", "--p", "4", "--q", "4", "--m", "0"], EXIT_USAGE, "p must be an odd prime"),
    (["integral", "--p", "2", "--q", "3", "--m", "0"], EXIT_USAGE, "p must be an odd prime"),
    (["integral", "--p", "3317044064679887385961981", "--q", "3317044064679887385961982",
      "--m", "0"], EXIT_USAGE, "cannot tell whether 3317044064679887385961981 is prime: "
     "the test is exact only below 3317044064679887385961981"),
    (["integral", "--p", "3", "--q", "2", "--m", "0"], EXIT_USAGE,
     "q must satisfy v_p(q - 1) >= 1"),
    (["integral", "--p", "3", "--q", "1/3", "--m", "0"], EXIT_USAGE,
     "q must have a p-free denominator"),
    (["integral", "--p", "3", "--q", "4", "--m", "1", "--M", "-1"], EXIT_USAGE,
     "working precision M must be at least N"),
    (["integral", "--p", "3", "--q", "4", "--coeff", "0:1/3", "--N", "5"], EXIT_PRECISION,
     "precision error: a coefficient has denominator 3, divisible by p=3, so it has no "
     "residue mod p^M for any M"),
    (["bernstein", "--n", "2", "--k", "5"], EXIT_USAGE, "basis index k=5 exceeds degree n=2"),
    (["bernstein", "--n", "-1"], EXIT_USAGE, "basis indices must be nonnegative"),
    (["bernstein", "--n", "2", "--k", "-1"], EXIT_USAGE, "basis indices must be nonnegative"),
    (["bernstein", "--n", "2", "--alpha", "0"], EXIT_USAGE,
     "weight alpha must be a positive integer"),
]


@pytest.mark.parametrize("argv, code, message", BAD_INPUT,
                         ids=[" ".join(argv) for argv, _, _ in BAD_INPUT])
def test_bad_input(capsys, tmp_path, argv, code, message):
    # one "qgen:" line on stderr, nothing on stdout, never a traceback
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    message = message.replace("{tmp}", str(tmp_path))
    assert run_cli(capsys, argv) == (code, "", f"qgen: {message}\n")


class TestSerializeReport:
    def test_empty_report_envelope(self):
        text = serialize_report(SweepReport((), {}, ()), "json", {"theorem": "all"})
        payload = json.loads(text)
        assert payload["records"] == []
        assert payload["summary"] == {}
        assert payload["config-echo"] == {"theorem": "all"}
        assert "tool-version" in payload
        # byte for byte in every format
        assert text == ('{\n  "boundaries": [],\n  "config-echo": {\n    "theorem": "all"\n  },\n'
                        f'  "records": [],\n  "summary": {{}},\n  "tool-version": "{__version__}"\n}}\n')
        assert serialize_report(SweepReport((), {}, ()), "csv", {}) == \
            "theorem,params,status,lhs,rhs\n"
        assert serialize_report(SweepReport((), {}, ()), "text", {}) == \
            f"qgen {__version__} verification report\n\nsummary:\n"

    def test_record_round_trip(self):
        rec = compare("demo", (("n", 1), ("alpha", 1)), ONE + Q, ONE + Q)
        text = serialize_report(SweepReport((rec,), {}, ()), "json", {})
        payload = json.loads(text)
        entry = payload["records"][0]
        assert entry["status"] == "PASS"
        assert denotes(entry["lhs"], ONE + Q)
        assert not denotes(entry["lhs"], ONE - Q)
        assert (ONE + Q).to_canonical_string() == entry["lhs"]

    def test_csv_line_count(self):
        recs = tuple(
            compare("demo", (("n", n),), ONE, ONE) for n in range(3)
        )
        text = serialize_report(SweepReport(recs, {}, ()), "csv", {})
        assert text.count("\n") == 4  # header + 3 data lines

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            serialize_report(SweepReport((), {}, ()), "yaml", {})

    def test_every_string_is_its_records_canonical_string(self):
        # the per-call memo of strings by value must give each record its
        # own sides: equal values built apart, constants that hash like
        # their Fractions, and records whose sides differ
        config = SweepConfig(n_max=2, scalar_n_max=2, alpha_max=2, h_max=1, x_min=0,
                             x_max=1, pair_n_max=2, multi_n_max=1, s_max=2)
        extra = (
            compare("demo", (("n", 0),), RatFuncQ(2), RatFuncQ({0: Fraction(4, 2)})),
            compare("demo", (("n", 1),), ONE, Q),
            compare("demo", (("n", 2),), (ONE + Q) * (ONE + Q), ONE + 2 * Q + Q * Q),
            compare("demo", (("n", 3),), -ONE, over_cyclotomic(Q, {2: 1})),
        )
        records = sweep(config).records + extra
        assert any(rec.lhs != rec.rhs for rec in records)
        report = SweepReport(records, {}, ())
        rows = list(csv.reader(io.StringIO(serialize_report(report, "csv", {}))))[1:]
        entries = json.loads(serialize_report(report, "json", {}))["records"]
        assert len(rows) == len(entries) == len(records)
        for rec, row, entry in zip(records, rows, entries):
            want = [rec.lhs.to_canonical_string(), rec.rhs.to_canonical_string()]
            assert row[3:] == want
            assert [entry["lhs"], entry["rhs"]] == want

    @staticmethod
    def reference_json(report, config_echo):
        # the report as one json.dumps of per-record dicts, with no memo of
        # sides: the oracle of the serializer's memoized rendering
        records = [{"theorem": rec.theorem, "params": rec.params_text(),
                    "lhs": rec.lhs.to_canonical_string(), "rhs": rec.rhs.to_canonical_string(),
                    "status": rec.status, "variant": "as-stated"} for rec in report.records]
        payload = {"tool-version": __version__, "config-echo": config_echo,
                   "records": records, "summary": report.summary,
                   "boundaries": list(report.boundaries)}
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def test_json_layout_is_json_dumps(self):
        config = SweepConfig(n_max=2, scalar_n_max=2, alpha_max=2, h_max=1, x_min=0,
                             x_max=1, pair_n_max=2, multi_n_max=1, s_max=2)
        # a double quote, a backslash and non-ASCII text in theorem and params
        odd = (
            compare('say "q"', (("n", 1), ("path", "a\\b")), ONE + Q, ONE + Q),
            compare("\u00e9t\u00e9\\", (("\u03b1", "\u00e9"), ("tag", '"')),
                    over_cyclotomic(Q, {2: 1}), -ONE),
            compare("plain", (), RatFuncQ({0: Fraction(1, 3)}), ONE, boundary=True),
        )
        reports = [
            (SweepReport((), {}, ()), {}),
            (sweep(config), {"theorem": "all", "n_max": 2}),
            (SweepReport(odd, summary={'say "q"': {"PASS": 1, "total": 1}},
                         boundaries=({"theorem": "\u00e9", "params": "a\\b"},)),
             {"note": 'x"\\\u00ff'}),
        ]
        for report, echo in reports:
            assert serialize_report(report, "json", echo) == self.reference_json(report, echo)

    def test_text_report_renders_no_side(self, monkeypatch):
        # the text format prints status, theorem and params only; its lines
        # are read here from the JSON report of the same sweep
        config = SweepConfig(n_max=2, scalar_n_max=2, alpha_max=2, h_max=1, x_min=0,
                             x_max=1, pair_n_max=2, multi_n_max=1, s_max=2)
        report = sweep(config)
        payload = json.loads(serialize_report(report, "json", {}))
        want = [f"qgen {payload['tool-version']} verification report"]
        want += [f"{r['status']:<14} {r['theorem']} {r['params']}" for r in payload["records"]]
        want += ["", "summary:"]
        want += [f"  {theorem}: " + " ".join(f"{k}={v}" for k, v in counts.items())
                 for theorem, counts in payload["summary"].items()]
        want += ["domain boundaries (status flips along n):"]
        want += [f"  {b['theorem']} {b['params']}: {b['flip']} between "
                 f"n={b['n_from']} and n={b['n_to']}" for b in payload["boundaries"]]
        assert payload["boundaries"]

        def refuse(self):
            raise AssertionError("text report rendered a side")

        monkeypatch.setattr(RatFuncQ, "to_canonical_string", refuse)
        assert serialize_report(report, "text", {}) == "\n".join(want) + "\n"


class WriteLog(io.StringIO):
    """A stdout that counts the writes made to it."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


class TestStreamedReport:
    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_writes_join_to_serialize_report(self, monkeypatch, fmt):
        # run writes the chunks of the one serializer that serialize_report joins
        log = WriteLog()
        monkeypatch.setattr(sys, "stdout", log)
        assert run(["verify", "all", "--format", fmt]) == EXIT_OK
        config = SweepConfig()
        echo = {**config.echo(), "theorem": "all"}
        assert log.getvalue() == serialize_report(sweep(config), fmt, echo)

    @pytest.mark.parametrize("argv", [["verify", "all"], ["table"]])
    def test_json_report_is_written_in_chunks(self, monkeypatch, argv):
        # the report never exists as one string
        log = WriteLog()
        monkeypatch.setattr(sys, "stdout", log)
        assert run([*argv, "--format", "json"]) == EXIT_OK
        json.loads(log.getvalue())
        assert log.writes > 1

    @staticmethod
    def qgen_process(argv, **kwargs):
        return subprocess.Popen([sys.executable, "-m", "qgen.cli", *argv], env=src_env(),
                                stderr=subprocess.PIPE, **kwargs)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
    @pytest.mark.parametrize("argv", [
        ["table", "--n-max", "3"],
        ["verify", "all"],
    ], ids=["flushed-at-the-end", "written-while-streaming"])
    def test_full_stdout_exits_two(self, argv):
        # the small report fails only when run flushes stdout, the 1.9 MB
        # one while it is written; either way one line, no traceback
        with open("/dev/full", "wb") as full:
            proc = self.qgen_process([*argv, "--format", "json"], stdout=full)
            _, err = proc.communicate(timeout=120)
        assert proc.returncode == EXIT_USAGE
        assert err == b"qgen: cannot write <stdout>: [Errno 28] No space left on device\n"

    def test_closed_pipe_is_quiet(self):
        # as `| head -c 100` does, the reader closes the pipe long before
        # the 1.9 MB report ends: no traceback, no "Exception ignored" at
        # exit, and the exit code the checks earned
        proc = self.qgen_process(["verify", "all", "--format", "json"], stdout=subprocess.PIPE)
        head = proc.stdout.read(100)
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert head.startswith(b'{\n  "boundaries": [')
        assert (proc.returncode, err) == (EXIT_OK, b"")


def test_cli_import_leaves_multiprocessing_unloaded():
    # the sweep runs in one process; loading multiprocessing would only
    # add to the start-up of every command
    code = "import sys, qgen.cli; print('multiprocessing' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


class TestExitCodeContract:
    def test_gating_logic_synthetic(self):
        # exit 1 exactly when some asserted-domain record fails
        from qgen.identities import unresolved_failures

        ok = compare("demo", (("n", 2),), ONE, ONE)
        bad = compare("demo", (("n", 3),), ONE, ONE + Q)
        probe = compare("demo", (("n", 0),), ONE, ONE + Q, boundary=True)
        assert unresolved_failures(SweepReport((ok, probe), {}, ())) == []
        assert unresolved_failures(SweepReport((ok, bad), {}, ())) == [bad]
