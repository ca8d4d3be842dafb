"""Every name in ``__all__`` resolves, and modules meet only there.

Tools that walk the public surface, such as the layer tracer in
``perfbench``, call ``getattr`` on each entry, so a name left behind after
a deletion breaks them. A module that imports another's underscore name
ties itself to that module's internals, so none may; dunders such as
``__version__`` are public. The package root exports the names needed to
play and study games; every other public name lives in its own module.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import mmg

# __main__ runs the command line on import
MODULES = ["mmg"] + [
    f"mmg.{info.name}" for info in pkgutil.iter_modules(mmg.__path__) if info.name != "__main__"
]

ROOT_NAMES = {
    "__version__", "ConfigError", "GameConfig",
    "GameState", "RunRecords", "init_game", "step", "run",
    "RunSummary", "SweepSpec", "summarize_run", "ensemble_run", "q_sweep",
    "estimate_critical_q", "figure_dataset", "subseed",
}
# public names the root does not re-export, by the module that exports them
MODULE_NAMES = {
    "mmg.cli": ["cli_main", "main"],
    "mmg.config": ["CONFIG_KEYS", "MAX_MEMORY", "MAX_TABLE_BYTES"],
    "mmg.engine": [],
    "mmg.experiments": ["FIGURE_NAMES", "check_run", "summary_table", "sweep_row"],
    "mmg.io": [
        "FILE_KEYS", "ParsedConfig", "RunManifest", "content_hash", "format_number",
        "parse_config", "parse_manifest", "render_records", "render_table", "serialize_manifest",
    ],
    "mmg.metrics": [
        "SeriesStats", "MuHistogram", "CriticalFluctuation", "big_small_markets",
        "classify_mode", "detect_critical_history", "fluctuation_frequency",
        "mean_c_at_recurrence", "mu_histogram", "predicted_irregular",
        "predicted_occupancies", "relaxation_time", "resolve_window", "series_stats",
        "split_detected",
    ],
    "mmg.rng": ["Draws"],
    "mmg.strategies": ["draw_strategies"],
}


def test_root_exports_exactly_the_entry_points():
    assert sorted(mmg.__all__) == sorted(ROOT_NAMES)
    assert len(mmg.__all__) == len(ROOT_NAMES)


@pytest.mark.parametrize("modname", sorted(MODULE_NAMES))
def test_names_left_out_of_the_root_stay_in_their_module(modname):
    # exactly these: a name added to or dropped from the module is a deliberate change
    exported = importlib.import_module(modname).__all__
    assert sorted(set(exported) - set(mmg.__all__)) == sorted(MODULE_NAMES[modname])
    assert set(MODULE_NAMES[modname]).isdisjoint(mmg.__all__)


@pytest.mark.parametrize("modname", MODULES)
def test_all_names_resolve(modname):
    module = importlib.import_module(modname)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


# parameters that stand for a game's fields, or a quantity read from a game
GAME_FIELDS = {"seed", "n_agents", "n_markets", "k_markets", "n_strategies", "memory",
               "link_mask", "q", "value_col"}
# functions that rightly take them
TAKES_FIELDS = {
    "mmg.metrics.predicted_occupancies": "mmg predict builds no game, only counts",
    "mmg.metrics.predicted_irregular": "mmg predict builds no game, only counts",
}


@pytest.mark.parametrize("modname", MODULES)
def test_public_functions_take_the_game_not_its_fields(modname):
    module = importlib.import_module(modname)
    found = [
        f"{fn.__module__}.{name}({param})"
        for name in module.__all__
        if inspect.isfunction(fn := getattr(module, name))
        and f"{fn.__module__}.{name}" not in TAKES_FIELDS
        for param in inspect.signature(fn).parameters
        if param in GAME_FIELDS
    ]
    assert found == []


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


@pytest.mark.parametrize("path", sorted(Path(mmg.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_validate_method(path):
    # GameConfig and SweepSpec check themselves when built; a validate()
    # method is a check each caller must remember, so none is defined or called
    found = [
        f"line {node.lineno}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == "validate"
        or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "validate"
    ]
    assert found == []


def test_one_byte_budget():
    # every size is refused by GameConfig.check_budget alone: no other module
    # reads MAX_TABLE_BYTES, and the refusal is worded in one place
    readers, wordings = [], []
    for path in sorted(Path(mmg.__file__).parent.glob("*.py")):
        text = path.read_text()
        readers += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Name) and node.id == "MAX_TABLE_BYTES"
            or isinstance(node, ast.Attribute) and node.attr == "MAX_TABLE_BYTES"
            or isinstance(node, ast.alias) and node.name == "MAX_TABLE_BYTES"
        ]
        wordings += [path.name] * text.count("over the budget")
    assert all(reader.startswith("config.py:") for reader in readers) and readers
    assert wordings == ["config.py"]
