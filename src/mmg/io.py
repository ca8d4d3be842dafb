"""Configuration parsing and bit-stable serialization.

Config files are whitespace-separated ``key=value`` tokens with ``#``
comments; unknown and duplicate keys are rejected with a source location.
Run records serialize to long-form CSV (header ``t,k,O,A,astar,mu,C``,
one row per tick and market, t-major) or JSONL (one object per tick with
per-market arrays). Both are rendered straight from the column arrays of
``RunRecords``, t from the row index. Integers print verbatim and reals
with 17 significant digits, so identical data always yields identical
bytes.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
import numpy as np

from . import __version__
from .config import CONFIG_KEYS, ConfigError, GameConfig
from .engine import RunRecords
from .experiments import SweepSpec, check_run

__all__ = [
    "FILE_KEYS",
    "ParsedConfig",
    "RunManifest",
    "parse_config",
    "render_records",
    "render_table",
    "format_number",
    "serialize_manifest",
    "parse_manifest",
    "content_hash",
]

def _int_list(text: str) -> tuple[int, ...]:
    # an empty entry, as in "8,,16", is refused by int(""), not dropped
    return tuple(int(v) for v in text.split(",")) if text else ()


def _window(text: str) -> tuple[int, int] | None:
    if text == "last-half":
        return None
    start, stop = text.split(":")
    return int(start), int(stop)


#: Every config-file key and the kind of value it takes: the game keys of
#: ``CONFIG_KEYS``, the topology, and the run and sweep directives.
FILE_KEYS = {
    **{key: kind for key, (_, kind, _) in CONFIG_KEYS.items()},
    "topology": ("regular", "irregular"),
    "n1": int,
    "n2": int,
    "T": int,
    "seeds": int,
    "sweep": ("N", "n1"),
    "values": _int_list,
    "window": _window,
}
_EXPECTED = {
    int: "an integer",
    float: "a number",
    _int_list: "comma-separated integers",
    _window: "'last-half' or 'start:stop' with integer bounds",
}


@dataclass(frozen=True)
class ParsedConfig:
    """Validated game config plus run/sweep directives from the same file;
    ``directives`` names those given, in the order read."""

    game: GameConfig
    ticks: int | None = None
    n_seeds: int | None = None
    sweep: SweepSpec | None = None
    window: tuple[int, int] | None = None
    directives: tuple[str, ...] = ()


def _tokenize(text: str):
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        for match in re.finditer(r"\S+", body):
            yield lineno, match.start() + 1, match.group()


def parse_config(text: str, overrides: dict | None = None) -> ParsedConfig:
    """Parse the key-value config format into a fully defaulted config.

    ``overrides`` (same key names; values as text, or any whose ``str`` is
    that text) win over file keys and are converted the same way; this is
    how command-line flags layer on top of a file.
    """
    raw: dict[str, object] = {}
    for lineno, col, token in _tokenize(text):
        if "=" not in token:
            raise ConfigError(f"expected key=value, got {token!r}", lineno, col)
        key, value = token.split("=", 1)
        if key not in FILE_KEYS:
            raise ConfigError(f"unknown key {key!r}", lineno, col)
        if key in raw:
            raise ConfigError(f"duplicate key {key!r}", lineno, col)
        try:
            raw[key] = convert(key, value)
        except ConfigError as exc:
            raise ConfigError(str(exc), lineno, col) from None
    if overrides:
        for key, value in overrides.items():
            if key not in FILE_KEYS:
                raise ConfigError(f"unknown key {key!r}")
            if value is not None:
                raw[key] = convert(key, str(value))
    return _build(raw)


def convert(key: str, value: str):
    """A value of ``key`` from its config-file text, or ConfigError naming ``key``."""
    kind = FILE_KEYS[key]
    if isinstance(kind, tuple):
        if value not in kind:
            raise ConfigError(f"{key}: expected one of {', '.join(kind)}, got {value!r}")
        return value
    try:
        return kind(value)
    except ValueError:
        raise ConfigError(f"{key}: expected {_EXPECTED[kind]}, got {value!r}") from None


def _build(raw: dict) -> ParsedConfig:
    n_exclusive = None
    if raw.get("topology") == "irregular":
        n_exclusive = raw.get("n1")
        raw["N"] = GameConfig.check_irregular(n_exclusive, raw.get("n2"), raw.get("N"))
    else:
        for key in ("n1", "n2"):
            if key in raw:
                raise ConfigError(f"{key}: only valid with topology=irregular")
        if "N" not in raw:
            raise ConfigError("N: required")
    if "seed" not in raw:
        raise ConfigError("seed: required (explicit seeding only)")

    fields = {field: raw[key] for key, (field, _, _) in CONFIG_KEYS.items() if key in raw}
    game = GameConfig(n_exclusive=n_exclusive, **fields)

    ticks, n_seeds, window = raw.get("T"), raw.get("seeds"), raw.get("window")
    check_run(game, ticks, n_seeds, window)

    sweep = None
    if "sweep" in raw:  # the topology sets what a sweep varies; the key must agree
        swept = "N" if n_exclusive is None else "n1"
        if raw["sweep"] != swept:
            raise ConfigError(f"sweep: topology={raw.get('topology', 'regular')} sweeps {swept}, "
                              f"got sweep={raw['sweep']}")
        sweep = SweepSpec(game, tuple(raw.get("values", ())))
    elif "values" in raw:
        raise ConfigError("values: only valid together with sweep=")

    directives = tuple(key for key in raw if key in ("T", "seeds", "sweep", "values", "window"))
    return ParsedConfig(game, ticks, n_seeds, sweep, window, directives)


# --- number and record formatting ------------------------------------------


def format_number(x) -> str:
    """Integers verbatim, booleans as 1 and 0; reals with 17 significant digits."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    value = float(x)
    if value != value:  # nan
        return ""
    return f"{value:.17g}"


_CSV_ROW = (",".join(["{}"] * 7) + "\n").format
_FIELDS = ("occupancy", "demand", "minority", "history", "n_switched")

# Ticks rendered at a time: besides the records and the text, rendering
# holds the Python rows of one chunk of ticks.
_RENDER_TICKS = 1 << 12


def _csv_lines(records: RunRecords, ticks: slice) -> str:
    k_markets = records.config.n_markets
    t = np.arange(*ticks.indices(records.n_ticks))
    rows = np.column_stack([
        np.repeat(t, k_markets), np.tile(np.arange(k_markets), len(t)),
        records.occupancy[ticks].ravel(), records.demand[ticks].ravel(),
        records.minority[ticks].ravel(), records.history[ticks].ravel(),
        np.repeat(records.n_switched[ticks], k_markets),
    ]).tolist()
    return "".join([_CSV_ROW(*row) for row in rows])


def _jsonl_lines(records: RunRecords, ticks: slice) -> str:
    # the text json.dumps(..., separators=(",", ":")) gives each tick's object
    arrays = "".join(f',"{key}":[' + ",".join(["{}"] * records.config.n_markets) + "]"
                     for key in ("O", "A", "astar", "mu"))
    line = ('{{"t":{}' + arrays + ',"C":{}}}\n').format
    rows = np.column_stack([np.arange(*ticks.indices(records.n_ticks))]
                           + [getattr(records, name)[ticks] for name in _FIELDS]).tolist()
    return "".join([line(*row) for row in rows])


# format -> (text before the first record, renderer of a slice of ticks)
_RENDERERS = {"csv": ("t,k,O,A,astar,mu,C\n", _csv_lines), "jsonl": ("", _jsonl_lines)}


def render_records(records: RunRecords, fmt: str = "csv") -> str:
    """Serialize records to one deterministic string, built one chunk of
    ``_RENDER_TICKS`` ticks at a time and joined once."""
    if fmt not in _RENDERERS:
        raise ValueError(f"unknown record format {fmt!r}")
    head, lines = _RENDERERS[fmt]
    return "".join([head] + [lines(records, slice(start, start + _RENDER_TICKS))
                             for start in range(0, records.n_ticks, _RENDER_TICKS)])


def _csv_text(text: str) -> str:
    """Quote per RFC 4180, only when the text holds a comma, quote, CR or LF."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def render_table(table: dict[str, np.ndarray]) -> str:
    """Deterministic CSV for a column table (ensemble, sweep and figure outputs).

    Text columns print their cells, quoted only where RFC 4180 needs it;
    every other column goes through ``format_number``, so NaN prints empty.
    """
    columns = [np.asarray(col) for col in table.values()]
    cells = [
        [_csv_text(str(v)) for v in col] if col.dtype.kind in "US" else
        [format_number(v) for v in col]
        for col in columns
    ]
    lines = [",".join(table)] + [",".join(row) for row in zip(*cells)]
    return "\n".join(lines) + "\n"


def content_hash(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


# --- run manifests ----------------------------------------------------------


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce and verify one emitted dataset; its seed is the config's."""

    config: GameConfig
    ticks: int
    fmt: str
    version: str
    content_hash: str


def _config_obj(cfg: GameConfig) -> dict:
    obj = {key: getattr(cfg, field) for key, (field, _, _) in CONFIG_KEYS.items()}
    n1 = cfg.n_exclusive
    obj["topology"] = ({"kind": "regular"} if n1 is None else
                       {"kind": "irregular", "n1": n1, "n2": cfg.n_agents - n1})
    return obj


def serialize_manifest(manifest: RunManifest) -> str:
    obj = {
        "version": manifest.version,
        "seed": manifest.config.seed,
        "T": manifest.ticks,
        "format": manifest.fmt,
        "content_hash": manifest.content_hash,
        "config": _config_obj(manifest.config),
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


_MANIFEST_KEYS = ("config", "content_hash", "format", "seed", "T", "version")


def _json_object(value, key: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{key}: expected a JSON object, got {type(value).__name__}")
    return dict(value)


def parse_manifest(text: str) -> RunManifest:
    """Inverse of ``serialize_manifest``. ``config``, with ``topology`` read as
    the keys ``topology``, ``n1`` and ``n2``, and ``T`` are checked as the
    keys of a config file, except that a number must be a JSON number;
    ``format`` must be csv or jsonl and ``seed`` the config's. ConfigError
    names the key at fault, or ``manifest`` for text that is no JSON object."""
    try:
        obj = _json_object(json.loads(text), "manifest")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"manifest: not JSON: {exc}") from None
    missing = [key for key in _MANIFEST_KEYS if key not in obj]
    if missing:
        raise ConfigError(f"{missing[0]}: required")
    config = _json_object(obj.pop("config"), "config")
    topology = _json_object(config.pop("topology", {}), "topology")
    unknown = sorted(({*obj} - {*_MANIFEST_KEYS}) | ({*config} - {*CONFIG_KEYS})
                     | ({*topology} - {"kind", "n1", "n2"}))
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r}")
    if obj["format"] not in _RENDERERS:
        raise ConfigError(f"format: expected one of {', '.join(_RENDERERS)}, "
                          f"got {obj['format']!r}")
    keys = {**config, "topology": topology.pop("kind", None), **topology, "T": obj["T"]}
    # a number is a JSON number, read as its text in a config file: 2.5 is no integer
    for key, value in [*keys.items(), ("seed", obj["seed"])]:
        if FILE_KEYS[key] in (int, float) and isinstance(value, str):
            raise ConfigError(f"{key}: expected {_EXPECTED[FILE_KEYS[key]]}, got {value!r}")
    parsed = _build({key: convert(key, str(value)) for key, value in keys.items()})
    if convert("seed", str(obj["seed"])) != parsed.game.seed:
        raise ConfigError(f"seed: {obj['seed']} differs from the config's seed "
                          f"{parsed.game.seed}")
    return RunManifest(config=parsed.game, ticks=parsed.ticks, fmt=obj["format"],
                       version=obj["version"], content_hash=obj["content_hash"])


def make_manifest(cfg: GameConfig, ticks: int, fmt: str, rendered: str) -> RunManifest:
    return RunManifest(
        config=cfg,
        ticks=ticks,
        fmt=fmt,
        version=__version__,
        content_hash=content_hash(rendered),
    )
