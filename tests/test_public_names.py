"""Every name in ``__all__`` resolves.

Tools that walk the public surface, such as the layer tracer in
``perfbench``, call ``getattr`` on each entry, so a name left behind after
a deletion breaks them.
"""

import importlib
import pkgutil

import pytest

import mmg

# __main__ runs the command line on import
MODULES = ["mmg"] + [
    f"mmg.{info.name}" for info in pkgutil.iter_modules(mmg.__path__) if info.name != "__main__"
]


@pytest.mark.parametrize("modname", MODULES)
def test_all_names_resolve(modname):
    module = importlib.import_module(modname)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
