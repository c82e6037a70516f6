"""The package's public names: every name in an __all__ resolves."""

import importlib
import pkgutil

import ahmass


def test_every_exported_name_resolves():
    # __main__ runs the CLI on import, and exports nothing
    modules = [ahmass] + [importlib.import_module("ahmass." + m.name)
                          for m in pkgutil.iter_modules(ahmass.__path__) if m.name != "__main__"]
    assert len(modules) > 1
    missing = [(mod.__name__, name) for mod in modules
               for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
