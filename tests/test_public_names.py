"""Every name in ``__all__`` resolves, and modules meet only there.

Tools that walk the public surface, such as the layer tracer in
``perfbench``, call ``getattr`` on each entry, so a name left behind after
a deletion breaks them. A module that imports another's underscore name
ties itself to that module's internals, so none may; dunders such as
``__version__`` are public.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

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


@pytest.mark.parametrize("path", sorted(Path(mmg.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_underscore_name_imported_from_another_module(path):
    private = [
        f"{'.' * node.level}{node.module or ''} import {alias.name}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "mmg")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert private == []
