"""The package as a whole: its namespace, each module's __all__
re-exported once; what importing it loads; and the contract its seven
record types share."""

import ast
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import qgen
from qgen import bernstein, genocchi, identities, padic, qcore, records
from qgen.bernstein import BernsteinIndex
from qgen.genocchi import WeightParams
from qgen.identities import SweepConfig, SweepReport
from qgen.padic import ConvergenceTrace, PadicContext
from qgen.qcore import ONE, q_power
from qgen.records import VerificationRecord

MODULES = (qcore, records, padic, genocchi, bernstein, identities)
ROOT = Path(__file__).resolve().parents[1]

# every command pays for `import qgen.cli`; generating dataclass methods
# (dataclasses loads inspect), typing and contextlib once took a fifth
# to a third of it, and qgen needs none of them
HEAVY_IMPORTS = ("contextlib", "dataclasses", "inspect", "typing")


def test_all_is_the_union_of_the_module_lists():
    names = {name for module in MODULES for name in module.__all__}
    assert qgen.__all__ == ["__version__"] + sorted(names)


def test_every_public_name_resolves():
    for name in qgen.__all__:
        assert hasattr(qgen, name), name
    for module in MODULES:
        for name in module.__all__:
            assert getattr(qgen, name) is getattr(module, name), name


def test_test_only_helpers_stay_out():
    assert "unweighted_recurrence_residual" not in qgen.__all__


def test_every_public_name_is_used_outside_the_tests():
    # a name of qgen.__all__ must be read (a Name load or an attribute) in
    # the package, a demo or the benchmark; `sweep` reaches each
    # verify_<theorem> by name through its theorem table
    used = {"verify_" + t.replace("-", "_") for t in identities.THEOREMS}
    for folder in ("src/qgen", "demos", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    assert [name for name in qgen.__all__ if name not in used] == []


def test_cli_import_loads_no_heavy_import():
    # a clean interpreter (-S: site may load typing or contextlib itself)
    code = f"import qgen.cli, sys; print(*sorted(set(sys.modules) & set({HEAVY_IMPORTS!r})))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == []


def test_no_module_imports_a_heavy_import():
    found = []
    for path in sorted((ROOT / "src" / "qgen").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}: {name}" for name in names
                      if name.split(".")[0] in HEAVY_IMPORTS]
    assert found == []


# each record type with its module, its fields, one instance's field
# values and that instance's repr
RECORD_TYPES = [
    (WeightParams, "genocchi", "alpha h", (1, 2), "WeightParams(alpha=1, h=2)"),
    (BernsteinIndex, "bernstein", "k n alpha", (1, 2, 3), "BernsteinIndex(k=1, n=2, alpha=3)"),
    (PadicContext, "padic", "p N q M", (3, 2, Fraction(4), 6),
     "PadicContext(p=3, N=2, q=Fraction(4, 1), M=6)"),
    (ConvergenceTrace, "padic", "p q entries limit constant",
     (3, Fraction(4), ((1, 2), (2, float("inf"))), Fraction(5, 17), None),
     "ConvergenceTrace(p=3, q=Fraction(4, 1), entries=((1, 2), (2, inf)), "
     "limit=Fraction(5, 17), constant=None)"),
    (SweepConfig, "identities",
     "n_max scalar_n_max alpha_max h_max x_min x_max pair_n_max multi_n_max s_max",
     (1, 2, 3, 4, -5, 6, 7, 8, 9),
     "SweepConfig(n_max=1, scalar_n_max=2, alpha_max=3, h_max=4, x_min=-5, x_max=6, "
     "pair_n_max=7, multi_n_max=8, s_max=9)"),
    (SweepReport, "identities", "records summary boundaries",
     ((), {"t": {"total": 0}}, ({"n_from": 1},)),
     "SweepReport(records=(), summary={'t': {'total': 0}}, boundaries=({'n_from': 1},))"),
    (VerificationRecord, "records", "theorem params lhs rhs status",
     ("t", (("n", 1),), ONE, q_power(1), "FAIL"),
     "VerificationRecord(theorem='t', params=(('n', 1),), lhs=RatFuncQ('1*q^0 / 1*q^0'), "
     "rhs=RatFuncQ('1*q^1 / 1*q^0'), status='FAIL')"),
]


@pytest.mark.parametrize("cls, module, fields, values, text", RECORD_TYPES,
                         ids=[cls.__name__ for cls, *_ in RECORD_TYPES])
def test_record_type_contract(cls, module, fields, values, text):
    # where it lives, built by position or by keyword alike, its fields in
    # this order, its repr, and no field can be assigned
    assert cls.__module__ == f"qgen.{module}"
    fields = fields.split()
    by_position = cls(*values)
    assert by_position == cls(**dict(zip(fields, values)))
    assert [getattr(by_position, name) for name in fields] == list(values)
    assert repr(by_position) == text
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(by_position, name, values[0])
