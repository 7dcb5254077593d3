import importlib
import pkgutil

import pytest

import striplab

_MODULES = sorted(info.name for info in pkgutil.walk_packages(striplab.__path__, "striplab."))


def test_every_module_is_covered():
    assert {"striplab.cli", "striplab.errors", "striplab.spectral.hardy"} <= set(_MODULES)


@pytest.mark.parametrize("name", _MODULES)
def test_every_exported_name_resolves(name):
    """Each name in a module's ``__all__`` is defined in it, so a deleted
    definition leaves no stale export. A module without ``__all__``, such as
    ``errors``, exports its public names, which resolve by definition."""
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)
