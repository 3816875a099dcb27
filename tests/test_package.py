"""The package namespace: each module's __all__, re-exported once."""

import ast
from pathlib import Path

import qgen
from qgen import bernstein, genocchi, identities, padic, qcore, records

MODULES = (qcore, records, padic, genocchi, bernstein, identities)


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
    root = Path(__file__).resolve().parents[1]
    used = {"verify_" + t.replace("-", "_") for t in identities.THEOREMS}
    for folder in ("src/qgen", "demos", "perfbench"):
        for path in sorted((root / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    assert [name for name in qgen.__all__ if name not in used] == []
