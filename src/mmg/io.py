"""Configuration parsing and bit-stable serialization.

Config files are whitespace-separated ``key=value`` tokens with ``#``
comments; unknown and duplicate keys are rejected with a source location.
Run records serialize to long-form CSV (header ``t,k,O,A,astar,mu,C``,
one row per tick and market, t-major) or JSONL (one object per tick with
per-market arrays). Both are rendered straight from the column arrays of
``RunRecords`` and parsed straight back into them; parsing rejects rows out
of render layout. Integers print verbatim and reals with 17 significant
digits, so identical data always yields identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
import numpy as np

from . import __version__
from .config import CONFIG_KEYS, TOPOLOGY_KINDS, ConfigError, GameConfig, MarketTopology
from .engine import RunRecords
from .experiments import SweepSpec, check_run

__all__ = [
    "FILE_KEYS",
    "ParsedConfig",
    "RunManifest",
    "parse_config",
    "render_records",
    "parse_records",
    "render_table",
    "format_number",
    "serialize_manifest",
    "parse_manifest",
    "content_hash",
]

CSV_HEADER = "t,k,O,A,astar,mu,C"


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v)


def _window(text: str) -> tuple[int, int] | None:
    if text == "last-half":
        return None
    start, stop = text.split(":")
    return int(start), int(stop)


#: Every config-file key and the kind of value it takes: the game keys of
#: ``CONFIG_KEYS``, the topology, and the run and sweep directives.
FILE_KEYS = {
    **{key: kind for key, (_, kind, _) in CONFIG_KEYS.items()},
    "topology": TOPOLOGY_KINDS,
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
    """Validated game config plus run/sweep directives from the same file."""

    game: GameConfig
    ticks: int | None = None
    n_seeds: int | None = None
    sweep: SweepSpec | None = None
    window: tuple[int, int] | None = None


def _tokenize(text: str):
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        for match in re.finditer(r"\S+", body):
            yield lineno, match.start() + 1, match.group()


def parse_config(text: str, overrides: dict | None = None) -> ParsedConfig:
    """Parse the key-value config format into a fully defaulted config.

    ``overrides`` (same key names, already-typed values) win over file
    keys; this is how command-line flags layer on top of a file.
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
            raw[key] = _convert(key, value)
        except ConfigError as exc:
            raise ConfigError(str(exc), lineno, col) from None
    if overrides:
        for key, value in overrides.items():
            if key not in FILE_KEYS:
                raise ConfigError(f"unknown key {key!r}")
            if value is not None:
                raw[key] = value
    return _build(raw)


def _convert(key: str, value: str):
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
    if raw.get("topology") == "irregular":
        if "n1" not in raw or "n2" not in raw:
            raise ConfigError("topology: irregular requires n1 and n2")
        topology = MarketTopology.irregular(raw["n1"], raw["n2"])
        raw.setdefault("N", topology.n1 + topology.n2)
    else:
        if "n1" in raw or "n2" in raw:
            raise ConfigError("n1/n2: only valid with topology=irregular")
        topology = MarketTopology.regular()
        if "N" not in raw:
            raise ConfigError("N: required")
    if "seed" not in raw:
        raise ConfigError("seed: required (explicit seeding only)")

    fields = {field: raw[key] for key, (field, _, _) in CONFIG_KEYS.items() if key in raw}
    game = GameConfig(topology=topology, **fields)
    game.validate()

    ticks, n_seeds, window = raw.get("T"), raw.get("seeds"), raw.get("window")
    check_run(game, ticks, n_seeds, window)

    sweep = None
    if "sweep" in raw:
        run_keys = {"n_seeds": n_seeds, "ticks": ticks}  # unset ones keep SweepSpec's defaults
        sweep = SweepSpec(game, raw["sweep"], tuple(raw.get("values", ())), window=window,
                          **{k: v for k, v in run_keys.items() if v is not None})
        sweep.validate()
    elif "values" in raw:
        raise ConfigError("values: only valid together with sweep=")

    return ParsedConfig(game=game, ticks=ticks, n_seeds=n_seeds, sweep=sweep, window=window)


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
_JSONL_KEYS = ("t", "O", "A", "astar", "mu", "C")
_FIELDS = ("t", "occupancy", "demand", "minority", "history", "n_switched")

# Ticks rendered at a time: besides the records and the text, rendering
# holds the Python rows of one chunk of ticks.
_RENDER_TICKS = 1 << 12


def _csv_lines(records: RunRecords, ticks: slice) -> str:
    k_markets = records.n_markets
    t = records.t[ticks]
    rows = np.column_stack([
        np.repeat(t, k_markets), np.tile(np.arange(k_markets), len(t)),
        records.occupancy[ticks].ravel(), records.demand[ticks].ravel(),
        records.minority[ticks].ravel(), records.history[ticks].ravel(),
        np.repeat(records.n_switched[ticks], k_markets),
    ]).tolist()
    return "".join([_CSV_ROW(*row) for row in rows])


def _jsonl_lines(records: RunRecords, ticks: slice) -> str:
    # the text json.dumps(..., separators=(",", ":")) gives each tick's object
    arrays = "".join(f',"{key}":[' + ",".join(["{}"] * records.n_markets) + "]"
                     for key in _JSONL_KEYS[1:5])
    line = ('{{"t":{}' + arrays + ',"C":{}}}\n').format
    rows = np.column_stack([getattr(records, name)[ticks] for name in _FIELDS]).tolist()
    return "".join([line(*row) for row in rows])


# format -> (text before the first record, renderer of a slice of ticks)
_RENDERERS = {"csv": (CSV_HEADER + "\n", _csv_lines), "jsonl": ("", _jsonl_lines)}


def render_records(records: RunRecords, fmt: str = "csv") -> str:
    """Serialize records to one deterministic string, built one chunk of
    ``_RENDER_TICKS`` ticks at a time and joined once."""
    if fmt not in _RENDERERS:
        raise ValueError(f"unknown record format {fmt!r}")
    head, lines = _RENDERERS[fmt]
    return "".join([head] + [lines(records, slice(start, start + _RENDER_TICKS))
                             for start in range(0, records.n_ticks, _RENDER_TICKS)])


def parse_records(text: str, fmt: str = "csv", *, memory: int) -> RunRecords:
    """Inverse of render_records; render(parse(render(x))) == render(x).

    Rows must be in render layout: ticks in increasing order and, in CSV,
    one row per market k = 0..K-1 within each tick; anything else raises
    ValueError. The records do not carry the memory length, so the caller
    names it.
    """
    if fmt == "csv":
        lines = [ln.split(",") for ln in text.splitlines() if ln]
        if not lines or lines[0] != CSV_HEADER.split(","):
            raise ValueError("missing or unexpected CSV header")
        if len(lines) == 1:
            raise ValueError("no records to parse")
        if any(len(row) != 7 for row in lines):
            raise ValueError("every CSV row must hold 7 integers")
        rows = np.array(lines[1:], dtype=np.int64)
        # K is the number of rows of the first tick
        k_markets = int(np.argmax(rows[:, 0] != rows[0, 0])) or len(rows)
        if len(rows) % k_markets:
            raise ValueError(f"{len(rows)} rows do not split into ticks of {k_markets} markets")
        ticks = rows.reshape(-1, k_markets, 7)
        same_tick = (ticks[:, :, [0, 6]] == ticks[:, :1, [0, 6]]).all(axis=(1, 2))
        bad = ~same_tick | (ticks[:, :, 1] != np.arange(k_markets)).any(axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(
                f"CSV rows {i * k_markets + 1}..{(i + 1) * k_markets}: expected the rows "
                f"k = 0..{k_markets - 1} of one tick, in order (K = {k_markets} from the "
                "first tick)"
            )
        columns = [ticks[:, 0, 0], *(ticks[:, :, j] for j in range(2, 6)), ticks[:, 0, 6]]
    elif fmt == "jsonl":
        objs = [json.loads(ln) for ln in text.splitlines() if ln]
        if not objs:
            raise ValueError("no records to parse")
        layout = "every JSONL tick must hold t, O, A, astar, mu and C, with K values per market"
        try:
            columns = [np.array([obj[key] for obj in objs], dtype=np.int64) for key in _JSONL_KEYS]
        except (KeyError, ValueError):
            raise ValueError(layout) from None
        if columns[1].ndim != 2 or {col.shape for col in columns[1:5]} != {columns[1].shape}:
            raise ValueError(layout)
    else:
        raise ValueError(f"unknown record format {fmt!r}")
    t = columns[0]
    back = np.flatnonzero(np.diff(t) <= 0)
    if len(back):
        i = int(back[0])
        raise ValueError(f"ticks out of order: t={t[i + 1]} follows t={t[i]}")
    return RunRecords(memory, *columns)


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
    """Everything needed to reproduce and verify one emitted dataset."""

    config: GameConfig
    seed: int
    ticks: int
    fmt: str
    version: str
    content_hash: str


def _config_obj(cfg: GameConfig) -> dict:
    topo: dict[str, object] = {"kind": cfg.topology.kind}
    if cfg.topology.kind == "irregular":
        topo["n1"] = cfg.topology.n1
        topo["n2"] = cfg.topology.n2
    obj = {key: getattr(cfg, field) for key, (field, _, _) in CONFIG_KEYS.items()}
    obj["topology"] = topo
    return obj


def serialize_manifest(manifest: RunManifest) -> str:
    obj = {
        "version": manifest.version,
        "seed": manifest.seed,
        "T": manifest.ticks,
        "format": manifest.fmt,
        "content_hash": manifest.content_hash,
        "config": _config_obj(manifest.config),
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def parse_manifest(text: str) -> RunManifest:
    """Inverse of ``serialize_manifest``. ``config``, with ``topology`` read as
    the keys ``topology``, ``n1`` and ``n2``, and ``T`` are checked as the
    keys of a config file, so an unplayable game raises ConfigError naming one."""
    obj = json.loads(text)
    config = dict(obj["config"])
    topology = dict(config.pop("topology", {}))
    unknown = sorted(({*config} - {*CONFIG_KEYS}) | ({*topology} - {"kind", "n1", "n2"}))
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r}")
    keys = {**config, "topology": topology.pop("kind", None), **topology, "T": obj["T"]}
    # a JSON value is read as its text in a config file, so 2.5 is no integer
    parsed = _build({key: _convert(key, str(value)) for key, value in keys.items()})
    return RunManifest(
        config=parsed.game,
        seed=int(obj["seed"]),
        ticks=parsed.ticks,
        fmt=obj["format"],
        version=obj["version"],
        content_hash=obj["content_hash"],
    )


def make_manifest(cfg: GameConfig, ticks: int, fmt: str, rendered: str) -> RunManifest:
    return RunManifest(
        config=cfg,
        seed=cfg.seed,
        ticks=ticks,
        fmt=fmt,
        version=__version__,
        content_hash=content_hash(rendered),
    )
