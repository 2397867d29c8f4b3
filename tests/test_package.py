"""The package's export lists name only what exists."""

import importlib
import pkgutil

import pumpedsu11


def test_every_exported_name_resolves():
    modules = [pumpedsu11] + [importlib.import_module(f"pumpedsu11.{info.name}")
                              for info in pkgutil.iter_modules(pumpedsu11.__path__)]
    assert len(modules) > 9
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ())
                   if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
