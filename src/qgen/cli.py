"""Command-line front end.

Subcommands:

* ``table``      weighted Genocchi values, the closed form cross-checked
                 against the recurrence at x = 0 and against the umbral
                 expansion elsewhere, symbolic or evaluated at a rational q
* ``verify``     run one theorem verifier or all of them over a grid and
                 emit a machine-readable report
* ``integral``   truncated fermionic sums with convergence diagnostics
* ``bernstein``  basis values and symmetry checks

Output is byte-deterministic for a fixed invocation: identical configs
produce identical reports.  Rational inputs are given as "a/b" text so
no floating point ever enters.  Exit codes: 0 all requested checks
passed, 1 a check failed (an asserted record, a route disagreement, or
any other failed check of the library, an ArithmeticError), 2 usage or
configuration error, or a report that could not be written, 3 precision
(modular arithmetic) error.  A reader that closes the pipe early is no
error: the exit code stays the one the checks earned.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from collections.abc import Iterable, Iterator
from fractions import Fraction

from qgen import __version__
from qgen.bernstein import BernsteinIndex, bernstein_symmetry_check
from qgen.genocchi import WeightParams, build_table
from qgen.identities import (
    THEOREMS,
    SweepConfig,
    SweepReport,
    sweep,
    unresolved_failures,
)
from qgen.padic import (
    IntegrandSpec,
    PadicContext,
    PrecisionError,
    integrate,
    truncated_reading,
    truncated_sums,
)
from qgen.qcore import PoleError, eval_at, fraction_text
from qgen.records import FAIL, PASS

__all__ = ["console_main", "run", "serialize_report"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_PRECISION = 3


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}")


def _n_values(text: str) -> list[int]:
    try:
        values = sorted({int(part) for part in text.split(",")})
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a truncation list: {text!r}")
    if any(v < 0 for v in values):
        raise argparse.ArgumentTypeError("truncation levels must be nonnegative")
    return values


def _coeff_term(text: str) -> tuple[int, Fraction]:
    try:
        m_text, c_text = text.split(":", 1)
        return int(m_text), Fraction(c_text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected m:coeff, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgen",
        description="Exact weighted (h,q)-Genocchi arithmetic and identity verification.",
    )
    parser.add_argument("--version", action="version", version=f"qgen {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "csv"), default="text")
    common.add_argument("--output", default=None, metavar="PATH",
                        help="write the report to PATH instead of stdout")

    p_table = sub.add_parser("table", parents=[common],
                             help="weighted Genocchi tables (routes cross-checked)")
    p_table.add_argument("--n-max", type=int, default=8)
    p_table.add_argument("--alpha", type=int, default=1)
    p_table.add_argument("--h", type=int, default=1)
    p_table.add_argument("--x", type=int, default=0)
    p_table.add_argument("--at-q", type=_fraction, default=None, metavar="A/B",
                         help="evaluate at a rational q instead of printing symbolic values")

    p_verify = sub.add_parser("verify", parents=[common],
                              help="verify one identity or all of them over a grid")
    p_verify.add_argument("theorem", choices=("all",) + THEOREMS)
    for flag, text in (
            ("--n-max", "largest n of symmetry, shift2, integral-* and bernstein-single; "
                        "lowers, never raises, the n_i of bernstein-double and -multi"),
            ("--alpha-max", "largest alpha of every theorem; bernstein-* stop at 2"),
            ("--h-max", "largest h of every theorem; bernstein-* stop at 2"),
            ("--x-min", "smallest x of symmetry"),
            ("--x-max", "largest x of symmetry"),
            ("--s-max", "most basis factors of bernstein-multi")):
        p_verify.add_argument(flag, type=int, default=None, help=text)

    p_int = sub.add_parser("integral", parents=[common],
                           help="truncated fermionic sums and convergence diagnostics")
    p_int.add_argument("--p", type=int, required=True, help="odd prime")
    p_int.add_argument("--q", type=_fraction, required=True, metavar="A/B")
    p_int.add_argument("--m", type=int, action="append", default=None,
                       help="monomial exponent (repeatable; coefficient 1)")
    p_int.add_argument("--coeff", type=_coeff_term, action="append", default=None,
                       metavar="M:C",
                       help="general term, e.g. --coeff 2:-3/4 (repeatable; "
                            "use --coeff=-2:1/2 for negative exponents)")
    p_int.add_argument("--N", type=_n_values, default=[2], metavar="N1,N2,...",
                       help="truncation levels (comma separated)")
    p_int.add_argument("--M", type=int, default=None, help="working precision exponent")
    p_int.add_argument("--unnormalized", action="store_true",
                       help="also report the raw sums without the bracket normalizer")

    p_bern = sub.add_parser("bernstein", parents=[common],
                            help="weighted q-Bernstein basis values and symmetry checks")
    p_bern.add_argument("--n", type=int, required=True)
    p_bern.add_argument("--alpha", type=int, default=1)
    p_bern.add_argument("--x", type=int, default=0)
    p_bern.add_argument("--k", type=int, default=None,
                        help="single basis index (default: all k = 0..n)")
    return parser


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _sides(records) -> list[tuple[str, str]]:
    """The canonical strings of (lhs, rhs) for each record, in order.

    The memo is keyed by value, so each distinct side is rendered once
    however many records share it (2,834 sides hold 782 values in the
    default sweep).
    """
    memo: dict = {}

    def side(value) -> str:
        text = memo.get(value)
        if text is None:
            text = memo[value] = value.to_canonical_string()
        return text

    return [(side(rec.lhs), side(rec.rhs)) for rec in records]


def _json_chunks(payload: dict) -> Iterator[str]:
    # with indent set, json.dumps runs this same pure-Python encoder
    yield from json.JSONEncoder(sort_keys=True, indent=2).iterencode(payload)
    yield "\n"


class _Echo:
    """A file whose write hands the line back, so csv.writer yields rows."""

    def write(self, line: str) -> str:
        return line


def _csv_chunks(header: list[str], rows: Iterable[list[str]]) -> Iterator[str]:
    writer = csv.writer(_Echo(), lineterminator="\n")
    yield writer.writerow(header)
    for row in rows:
        yield writer.writerow(row)


def _report_chunks(report: SweepReport, fmt: str, config_echo: dict) -> Iterable[str]:
    """A sweep report as str chunks, in order; byte-stable for identical inputs."""
    if fmt == "text":  # status, theorem and params only: no side is rendered
        lines = [f"qgen {__version__} verification report"]
        for rec in report.records:
            lines.append(f"{rec.status:<14} {rec.theorem} {rec.params_text()}")
        lines.append("")
        lines.append("summary:")
        for theorem, counts in report.summary.items():
            text = " ".join(f"{k}={v}" for k, v in counts.items())
            lines.append(f"  {theorem}: {text}")
        if report.boundaries:
            lines.append("domain boundaries (status flips along n):")
            for b in report.boundaries:
                lines.append(
                    f"  {b['theorem']} {b['params']}: {b['flip']} between "
                    f"n={b['n_from']} and n={b['n_to']}"
                )
        return ["\n".join(lines) + "\n"]
    if fmt == "json":
        # every record checks an identity as printed; the constant "variant"
        # key stays because the golden report digest pins the report format
        records = [{"theorem": rec.theorem, "params": rec.params_text(), "lhs": lhs,
                    "rhs": rhs, "status": rec.status, "variant": "as-stated"}
                   for rec, (lhs, rhs) in zip(report.records, _sides(report.records))]
        return _json_chunks({
            "tool-version": __version__,
            "config-echo": config_echo,
            "records": records,
            "summary": report.summary,
            "boundaries": list(report.boundaries),
        })
    if fmt == "csv":
        rows = ([rec.theorem, rec.params_text(), rec.status, lhs, rhs]
                for rec, (lhs, rhs) in zip(report.records, _sides(report.records)))
        return _csv_chunks(["theorem", "params", "status", "lhs", "rhs"], rows)
    raise ValueError(f"unknown format: {fmt!r}")


def serialize_report(report: SweepReport, fmt: str, config_echo: dict) -> str:
    """Render a sweep report as one string: the chunks `run` writes, joined."""
    return "".join(_report_chunks(report, fmt, config_echo))


def _rows_report(fmt: str, title: list[str], config: dict, rows: list[dict], line,
                 extra: dict | None = None) -> Iterable[str]:
    """The report of table, integral and bernstein, one row per value, as chunks.

    json carries {tool-version, config-echo, rows} plus `extra`; the csv
    header is the row keys; text is the title lines, then `line(row)`.
    """
    if fmt == "json":
        return _json_chunks({"tool-version": __version__, "config-echo": config,
                             "rows": rows, **(extra or {})})
    if fmt == "csv":
        return _csv_chunks(list(rows[0]), (list(r.values()) for r in rows))
    return ["\n".join(title + [line(r) for r in rows]) + "\n"]


# ---------------------------------------------------------------------------
# subcommands: each returns (report chunks, whether an asserted check failed)
# once every check has run, so the chunks only serialize what was computed;
# bad input raises ValueError, IndexError or PoleError, a failed check any
# other ArithmeticError, and `run` turns either into its exit code
# ---------------------------------------------------------------------------


def _cmd_table(args) -> tuple[Iterable[str], bool]:
    w = WeightParams(args.alpha, args.h)
    # raises on a route disagreement: at x = 0 the closed form against the
    # recurrence, at --x against the umbral expansion of its numbers
    table = build_table(args.n_max, w, xs=(args.x,))
    rows = []
    # sorted by n; the entries at x = 0 are skipped unless --x is 0
    for (n, _, _, x), value, _ in table.entries():
        if x == args.x:
            text = (value.to_canonical_string() if args.at_q is None
                    else fraction_text(eval_at(value, args.at_q)))
            rows.append({"n": n, "alpha": w.alpha, "h": w.h, "x": x, "value": text})
    config = {"n-max": args.n_max, "alpha": w.alpha, "h": w.h, "x": args.x,
              "at-q": str(args.at_q) if args.at_q is not None else None}
    return _rows_report(args.format,
                        [f"weighted Genocchi table alpha={w.alpha} h={w.h} x={args.x}"],
                        config, rows, lambda r: f"  n={r['n']:<3} {r['value']}"), False


def _cmd_verify(args) -> tuple[Iterable[str], bool]:
    config = SweepConfig().capped(args.n_max, alpha_max=args.alpha_max, h_max=args.h_max,
                                  x_min=args.x_min, x_max=args.x_max, s_max=args.s_max)
    requested = THEOREMS if args.theorem == "all" else (args.theorem,)
    report = sweep(config, only=requested)
    if not report.records:
        raise ValueError("the verify grid is empty; nothing was checked")
    # boundary probes assert nothing, so a theorem with only those checked nothing
    unchecked = [t for t in requested if not {PASS, FAIL} & report.summary.get(t, {}).keys()]
    if unchecked:
        raise ValueError(f"the verify grid has no asserted check for {', '.join(unchecked)}; "
                         "nothing was checked there")
    chunks = _report_chunks(report, args.format, {**config.echo(), "theorem": args.theorem})
    return chunks, bool(unresolved_failures(report))


def _cmd_integral(args) -> tuple[Iterable[str], bool]:
    terms: dict[int, Fraction] = {}
    for m in args.m or []:
        terms[m] = terms.get(m, Fraction(0)) + 1
    for m, c in args.coeff or []:
        terms[m] = terms.get(m, Fraction(0)) + c
    if not terms:
        raise ValueError("provide at least one term via --m or --coeff")
    spec = IntegrandSpec(terms)
    if not spec:
        raise ValueError("the integrand is zero; nothing was checked")
    contexts = [PadicContext(p=args.p, N=N, q=args.q, M=args.M) for N in args.N]
    limit_sym = integrate(spec)
    limit = eval_at(limit_sym, args.q)
    rows = []
    for ctx in contexts:
        total, raw = truncated_sums(spec, ctx)
        value, valuation = truncated_reading(total, limit, ctx)
        row = {"N": ctx.N, "value": value, "valuation": valuation}
        if args.unnormalized:
            row["raw-sum"] = truncated_reading(raw, limit, ctx)[0]
        rows.append(row)
    config = {"p": args.p, "q": str(args.q), "spec": spec.describe(),
              "N": args.N, "M": args.M, "unnormalized": args.unnormalized}
    title = [f"fermionic integral: p={args.p} q={args.q} spec {{{spec.describe()}}}",
             f"  exact limit = {fraction_text(limit)}  (symbolic: {limit_sym})"]

    def line(r: dict) -> str:
        extra = f"  raw-sum={r['raw-sum']}" if args.unnormalized else ""
        return f"  N={r['N']:<3} value={r['value']}  vp(diff)={r['valuation']}{extra}"

    return _rows_report(args.format, title, config, rows, line,
                        {"limit": fraction_text(limit),
                         "limit-symbolic": limit_sym.to_canonical_string()}), False


def _cmd_bernstein(args) -> tuple[Iterable[str], bool]:
    # a negative --n still builds k = 0, so BernsteinIndex rejects it
    ks = [args.k] if args.k is not None else list(range(max(args.n, 0) + 1))
    indices = [BernsteinIndex(k, args.n, args.alpha) for k in ks]
    checks = [bernstein_symmetry_check(idx, args.x) for idx in indices]
    rows = [{"k": idx.k, "n": idx.n, "alpha": idx.alpha, "x": args.x,
             "value": check.lhs.to_canonical_string(),
             "symmetry": check.status} for idx, check in zip(indices, checks)]
    config = {"n": args.n, "alpha": args.alpha, "x": args.x, "k": args.k}
    title = [f"weighted q-Bernstein basis n={args.n} alpha={args.alpha} x={args.x}"]
    return (_rows_report(args.format, title, config, rows,
                         lambda r: f"  k={r['k']:<3} {r['symmetry']:<5} {r['value']}"),
            not all(check.passed for check in checks))


def run(argv: list[str] | None = None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else EXIT_USAGE
        return code
    handlers = {
        "table": _cmd_table,
        "verify": _cmd_verify,
        "integral": _cmd_integral,
        "bernstein": _cmd_bernstein,
    }
    try:
        chunks, failed = handlers[args.command](args)
    except PrecisionError as exc:
        print(f"qgen: precision error: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except (ValueError, IndexError, PoleError) as exc:
        print(f"qgen: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:  # a failed check, such as a route disagreement
        print(f"qgen: {exc}", file=sys.stderr)
        return EXIT_FAIL
    try:
        if args.output is None:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        else:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.writelines(chunks)
    except OSError as exc:
        if args.output is not None:
            print(f"qgen: cannot write {args.output}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        # the interpreter flushes stdout again at exit; whatever of the
        # report is left then goes to the null device, not to a second error
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if not isinstance(exc, BrokenPipeError):  # a reader that closed early wants no more
            print(f"qgen: cannot write <stdout>: {exc}", file=sys.stderr)
            return EXIT_USAGE
    return EXIT_FAIL if failed else EXIT_OK


def console_main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    console_main()
