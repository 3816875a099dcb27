"""Spans around calls into qgen, made by wrapping its public names.

Nothing under ``src/`` is edited: ``Tracer.install`` replaces public
functions and ``RatFuncQ`` operators with wrappers, in every qgen module
that binds them.  Each call records a span (name, start, end, parent) in
memory; ``write`` stores them once the run has ended.  A span's self time
is its duration minus the time covered by its child spans.

Work the tracer does for its own counts (the size of each ``RatFuncQ``
result, say) is recorded as a ``trace.hook`` child span, so it is left
out of every layer's self time and of the per-call latencies.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import Counter
from pathlib import Path

MODULES = ("qcore", "padic", "genocchi", "bernstein", "identities", "records", "cli")

THEOREM_SPANS = {
    "verify_symmetry": "identities.symmetry",
    "verify_shift2": "identities.shift2",
    "verify_integral_shift": "identities.integral-shift",
    "verify_integral_reflect": "identities.integral-reflect",
    "verify_bernstein_single": "identities.bernstein-single",
    "verify_bernstein_double": "identities.bernstein-double",
    "verify_bernstein_multi": "identities.bernstein-multi",
}

# RatFuncQ operator -> span name.  __radd__ and __rmul__ are separate
# class attributes that alias __add__ and __mul__, so each is wrapped.
QCORE_OPERATORS = {
    "__add__": "qcore.add", "__radd__": "qcore.add",
    "__sub__": "qcore.sub", "__rsub__": "qcore.sub",
    "__neg__": "qcore.neg",
    "__mul__": "qcore.mul", "__rmul__": "qcore.mul",
    "__truediv__": "qcore.div", "__rtruediv__": "qcore.div",
    "__pow__": "qcore.pow",
    "subst_q_inverse": "qcore.subst",
    "eval_at": "qcore.eval",
    "to_canonical_string": "qcore.to_string",
}

HOOK = "trace.hook"

# Per-layer metrics whose values must repeat exactly across runs of the
# same inputs; every other per-layer metric is a timing.
DETERMINISTIC = (
    ["qcore.calls", "qcore.max_degree", "qcore.max_coeff_bits",
     "genocchi.closed.distinct_ratio", "identities.bernstein.distinct_ratio",
     "padic.residue_terms", "cli.report_bytes"]
    + [f"{m}.src_lines" for m in MODULES]
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start_ns, end_ns, parent index or -1]
        self._stack: list[int] = []
        self.residue_terms = Counter()  # method -> p^N * terms over finished sums
        self.closed_keys: list[tuple] = []
        self.bernstein_keys: list[tuple] = []
        self.report_bytes = 0
        self.max_degree = 0
        self.max_coeff_bits = 0
        self._to_string = None

    # -- wrapping ------------------------------------------------------

    def wrap(self, name, fn, after=None):
        """Return fn recording one span per call.

        ``name`` is a span name or a function of (args, kwargs) giving
        one.  ``after(args, kwargs, result, parent)`` runs once the span
        has ended, inside a ``trace.hook`` span.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            parent = stack[-1] if stack else -1
            span = [label, 0, 0, parent]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                hook = [HOOK, clock(), 0, parent]
                spans.append(hook)
                after(args, kwargs, result, parent)
                hook[2] = clock()
            return result

        return traced

    def install(self) -> None:
        """Wrap the public names of every layer in all qgen modules."""
        from qgen import bernstein, cli, genocchi, identities, padic, qcore

        modules = [m for n, m in sys.modules.items() if n == "qgen" or n.startswith("qgen.")]

        def rebind(original, wrapper):
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

        def wrap_function(module, attr, name, after=None):
            rebind(getattr(module, attr), self.wrap(name, getattr(module, attr), after))

        cls = qcore.RatFuncQ
        self._to_string = cls.to_canonical_string
        for attr, name in QCORE_OPERATORS.items():
            hook = self._measure_result if name not in ("qcore.eval", "qcore.to_string") else None
            setattr(cls, attr, self.wrap(name, vars(cls)[attr], hook))

        def closed_key(args, kwargs, result, parent):
            n, w = args[0], args[1]
            x = args[2] if len(args) > 2 else 0
            self.closed_keys.append((n, w.alpha, w.h, x))

        wrap_function(genocchi, "weighted_genocchi_poly_closed", "genocchi.closed", closed_key)
        wrap_function(genocchi, "weighted_genocchi_number", "genocchi.closed", closed_key)
        wrap_function(genocchi, "weighted_genocchi_recurrence", "genocchi.recurrence")
        wrap_function(genocchi, "weighted_genocchi_poly_umbral", "genocchi.umbral")
        wrap_function(genocchi, "build_table", "genocchi.table")
        wrap_function(genocchi, "weighted_genocchi_integral_route", "genocchi.integral")

        def truncated_name(args, kwargs):
            method = kwargs.get("method", "auto")
            if method == "auto":
                method = "exact" if args[1].N <= 4 else "modular"
            return f"padic.truncated.{method}"

        def residue_terms(args, kwargs, result, parent):
            spec, ctx = args[0], args[1]
            method = truncated_name(args, kwargs).rsplit(".", 1)[1]
            self.residue_terms[method] += ctx.p**ctx.N * len(spec)

        wrap_function(padic, "truncated_integral", truncated_name, residue_terms)
        wrap_function(padic, "convergence_probe", "padic.probe")
        wrap_function(padic, "integrate", "padic.integrate")

        wrap_function(bernstein, "bernstein_poly", "bernstein.poly")
        wrap_function(bernstein, "bernstein_symmetry_check", "bernstein.symmetry")
        wrap_function(bernstein, "bernstein_operator", "bernstein.operator")

        for attr, name in THEOREM_SPANS.items():
            after = self._bernstein_key if "bernstein" in attr else None
            wrap_function(identities, attr, name, after)
        wrap_function(identities, "sweep", "identities.sweep")
        # Only the binding the verifiers use, as the records layer.
        identities.compare = self.wrap("records.compare", identities.compare)

        def report_size(args, kwargs, result, parent):
            self.report_bytes += len(result.encode("utf-8"))

        wrap_function(cli, "serialize_report", "cli.serialize", report_size)
        wrap_function(cli, "run", "cli.run")

    # -- counters fed by hooks -------------------------------------------

    def _measure_result(self, args, kwargs, result, parent):
        # Only results handed back out of qcore; nested operator calls
        # (the multiply inside a divide) are qcore's own business.
        if parent >= 0 and self.spans[parent][0].startswith("qcore."):
            return
        if not hasattr(result, "to_canonical_string"):
            return
        # The canonical string is the representation-independent form.
        for side in self._to_string(result).split(" / "):
            if side == "0":
                continue
            exps = []
            for term in side.split(" + "):
                coeff, exp = term.split("*q^")
                exps.append(int(exp))
                for part in coeff.lstrip("-").split("/"):
                    self.max_coeff_bits = max(self.max_coeff_bits, int(part).bit_length())
            self.max_degree = max(self.max_degree, max(exps) - min(exps))

    def _bernstein_key(self, args, kwargs, result, parent):
        # Nested calls (multi inside double) are part of the outer record.
        if parent >= 0 and self.spans[parent][0] in THEOREM_SPANS.values():
            return
        theorem = result.theorem
        params = dict(result.params)
        w = (params["alpha"], params["h"])
        if theorem == "bernstein-single":
            self.bernstein_keys.append((params["n"], params["k"], w))
        elif theorem == "bernstein-double":
            self.bernstein_keys.append((params["n1"] + params["n2"], 2 * params["k"], w))
        else:
            n_list = [int(v) for v in str(params["n_list"]).split(",")]
            self.bernstein_keys.append((sum(n_list), len(n_list) * params["k"], w))

    # -- output ----------------------------------------------------------

    def write(self, path: Path) -> None:
        """Store every span as one tab-separated line: name, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{start}\t{end}\t{parent}\n")

    def metrics(self, src_dir: Path) -> dict[str, float]:
        """Per-layer metrics from the recorded spans and counters."""
        spans = self.spans
        child_ns = [0] * len(spans)
        hook_ns = [0] * len(spans)      # hook time inside each span's subtree
        # Children follow their parents, so one reverse pass sums subtrees.
        for i in range(len(spans) - 1, -1, -1):
            name, start, end, parent = spans[i]
            if parent >= 0:
                child_ns[parent] += end - start
                hook_ns[parent] += (end - start) if name == HOOK else hook_ns[i]
        # A verifier called by another verifier (multi inside double) is
        # charged to the outer theorem.
        theorems = set(THEOREM_SPANS.values())
        key = [name for name, _, _, _ in spans]
        for i, (name, _, _, parent) in enumerate(spans):
            if name in theorems and parent >= 0 and key[parent] in theorems:
                key[i] = key[parent]
        self_ns = Counter()
        calls = Counter()
        latency_ns: dict[str, list[int]] = {}
        for i, (name, start, end, parent) in enumerate(spans):
            self_ns[key[i]] += end - start - child_ns[i]
            calls[name] += 1
            if name in theorems and (parent < 0 or key[parent] not in theorems):
                latency_ns.setdefault("identities.task", []).append(end - start - hook_ns[i])
            elif name in ("qcore.add", "qcore.mul", "qcore.div"):
                latency_ns.setdefault(name, []).append(end - start - hook_ns[i])

        def self_s(*names):
            return sum(self_ns[n] for n in names) / 1e9

        qcore_names = set(QCORE_OPERATORS.values())
        out: dict[str, float] = {
            "qcore.self_s": self_s(*qcore_names),
            "qcore.calls": sum(calls[n] for n in qcore_names),
        }
        for op in ("add", "mul", "div", "pow", "subst"):
            out[f"qcore.{op}.calls"] = calls[f"qcore.{op}"]
        for op in ("add", "mul", "div"):
            values = latency_ns.get(f"qcore.{op}", [])
            out[f"qcore.{op}.p50_us"] = _percentile(values, 50) / 1e3
            out[f"qcore.{op}.p99_us"] = _percentile(values, 99) / 1e3
        out["qcore.max_degree"] = self.max_degree
        out["qcore.max_coeff_bits"] = self.max_coeff_bits
        out["qcore.to_string.self_s"] = self_s("qcore.to_string")

        for route in ("closed", "recurrence", "umbral", "table"):
            out[f"genocchi.{route}.self_s"] = self_s(f"genocchi.{route}")
        out["genocchi.closed.calls"] = len(self.closed_keys)
        out["genocchi.closed.distinct_ratio"] = _ratio(len(set(self.closed_keys)),
                                                       len(self.closed_keys))

        out["padic.integrate.calls"] = calls["padic.integrate"]
        out["padic.integrate.self_s"] = self_s("padic.integrate")
        out["padic.truncated.exact.self_s"] = self_s("padic.truncated.exact")
        out["padic.truncated.modular.self_s"] = self_s("padic.truncated.modular")
        out["padic.residue_terms"] = sum(self.residue_terms.values())
        out["padic.modular.residue_terms_per_s"] = _ratio(
            self.residue_terms["modular"], out["padic.truncated.modular.self_s"])

        out["bernstein.poly.calls"] = calls["bernstein.poly"]
        out["bernstein.poly.self_s"] = self_s("bernstein.poly")
        out["bernstein.symmetry.self_s"] = self_s("bernstein.symmetry")

        for name in THEOREM_SPANS.values():
            out[f"{name}.self_s"] = self_s(name)
        tasks = latency_ns.get("identities.task", [])
        out["identities.task.p50_ms"] = _percentile(tasks, 50) / 1e6
        out["identities.task.p99_ms"] = _percentile(tasks, 99) / 1e6
        out["identities.bernstein.distinct_ratio"] = _ratio(len(set(self.bernstein_keys)),
                                                            len(self.bernstein_keys))

        out["records.compare.calls"] = calls["records.compare"]
        out["records.compare.self_s"] = self_s("records.compare")
        out["cli.serialize.self_s"] = self_s("cli.serialize")
        out["cli.report_bytes"] = self.report_bytes
        for module in MODULES:
            with open(src_dir / f"{module}.py", encoding="utf-8") as fh:
                out[f"{module}.src_lines"] = sum(1 for _ in fh)
        return out


def _percentile(values: list[int], pct: int) -> float:
    """Nearest-rank percentile; 0 when there are no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
