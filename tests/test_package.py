"""The package namespace: each module's __all__, re-exported once."""

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
