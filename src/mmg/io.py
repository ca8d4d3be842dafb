"""Configuration parsing and bit-stable serialization.

Config files are whitespace-separated ``key=value`` tokens with ``#``
comments; unknown and duplicate keys are rejected with a source location.
Record streams serialize to long-form CSV (header ``t,k,O,A,astar,mu,C``,
one row per tick and market) or JSONL (one object per tick with per-market
arrays). Integers print verbatim and reals with 17 significant digits, so
identical data always yields identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import __version__
from .config import (
    INIT_UTILITIES,
    MAX_MEMORY,
    PAYOFF_KINDS,
    TIE_BREAKS,
    ZERO_DEMAND_RULES,
    ConfigError,
    GameConfig,
    MarketTopology,
)
from .engine import RunRecords, TickRecord

__all__ = [
    "ParsedConfig",
    "SweepDirective",
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

_INT_KEYS = {"N", "K", "s", "m", "seed", "T", "n1", "n2", "seeds"}
_FLOAT_KEYS = {"u_low", "u_high"}
_CHOICE_KEYS = {
    "payoff": PAYOFF_KINDS,
    "topology": ("regular", "irregular"),
    "tie_break": TIE_BREAKS,
    "zero_demand": ZERO_DEMAND_RULES,
    "init_utilities": INIT_UTILITIES,
    "sweep": ("N", "n1"),
}
_LIST_KEYS = {"values"}
_SPECIAL_KEYS = {"window"}
_ALL_KEYS = _INT_KEYS | _FLOAT_KEYS | set(_CHOICE_KEYS) | _LIST_KEYS | _SPECIAL_KEYS


@dataclass(frozen=True)
class SweepDirective:
    param: str
    values: tuple[int, ...]


@dataclass(frozen=True)
class ParsedConfig:
    """Validated game config plus run/sweep directives from the same file."""

    game: GameConfig
    ticks: int | None = None
    n_seeds: int | None = None
    sweep: SweepDirective | None = None
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
        if key not in _ALL_KEYS:
            raise ConfigError(f"unknown key {key!r}", lineno, col)
        if key in raw:
            raise ConfigError(f"duplicate key {key!r}", lineno, col)
        try:
            raw[key] = _convert(key, value)
        except ValueError as exc:
            raise ConfigError(str(exc), lineno, col) from None
    if overrides:
        for key, value in overrides.items():
            if key not in _ALL_KEYS:
                raise ConfigError(f"unknown key {key!r}")
            if value is not None:
                raw[key] = value
    return _build(raw)


def _convert(key: str, value: str):
    if key in _INT_KEYS:
        try:
            return int(value)
        except ValueError:
            raise ValueError(f"{key}: expected an integer, got {value!r}") from None
    if key in _FLOAT_KEYS:
        try:
            return float(value)
        except ValueError:
            raise ValueError(f"{key}: expected a number, got {value!r}") from None
    if key in _CHOICE_KEYS:
        if value not in _CHOICE_KEYS[key]:
            raise ValueError(
                f"{key}: expected one of {', '.join(_CHOICE_KEYS[key])}, got {value!r}"
            )
        return value
    if key in _LIST_KEYS:
        try:
            return tuple(int(v) for v in value.split(",") if v)
        except ValueError:
            raise ValueError(f"{key}: expected comma-separated integers, got {value!r}") from None
    # window
    if value == "last-half":
        return None
    parts = value.split(":")
    if len(parts) != 2:
        raise ValueError(f"window: expected 'last-half' or 'start:stop', got {value!r}")
    try:
        return (int(parts[0]), int(parts[1]))
    except ValueError:
        raise ValueError(f"window: expected integer bounds, got {value!r}") from None


def _build(raw: dict) -> ParsedConfig:
    kind = raw.get("topology", "regular")
    if kind == "irregular":
        if "n1" not in raw or "n2" not in raw:
            raise ConfigError("topology: irregular requires n1 and n2")
        topology = MarketTopology.irregular(int(raw["n1"]), int(raw["n2"]))
        n_agents = int(raw.get("N", topology.n1 + topology.n2))
    else:
        if "n1" in raw or "n2" in raw:
            raise ConfigError("n1/n2: only valid with topology=irregular")
        topology = MarketTopology.regular()
        if "N" not in raw:
            raise ConfigError("N: required")
        n_agents = int(raw["N"])

    seed = raw.get("seed")
    if seed is None:
        raise ConfigError("seed: required (explicit seeding only)")

    game = GameConfig(
        n_agents=n_agents,
        seed=int(seed),
        n_markets=int(raw.get("K", 2)),
        n_strategies=int(raw.get("s", 2)),
        memory=int(raw.get("m", 5)),
        payoff=str(raw.get("payoff", "linear")),
        topology=topology,
        init_utilities=str(raw.get("init_utilities", "zero")),
        u_low=float(raw.get("u_low", 0.0)),
        u_high=float(raw.get("u_high", 1.0)),
        tie_break=str(raw.get("tie_break", "random")),
        zero_demand=str(raw.get("zero_demand", "coin")),
    )
    game.validate()

    ticks = raw.get("T")
    if ticks is not None and int(ticks) < 1:
        raise ConfigError(f"T: must be >= 1, got {ticks}")
    n_seeds = raw.get("seeds")
    if n_seeds is not None and int(n_seeds) < 1:
        raise ConfigError(f"seeds: must be >= 1, got {n_seeds}")

    sweep = None
    if "sweep" in raw:
        if "values" not in raw or not raw["values"]:
            raise ConfigError("values: a sweep needs a non-empty value list")
        sweep = SweepDirective(param=str(raw["sweep"]), values=tuple(raw["values"]))
        if sweep.param == "n1" and topology.kind != "irregular":
            raise ConfigError("sweep=n1 requires topology=irregular with n1/n2")
    elif "values" in raw:
        raise ConfigError("values: only valid together with sweep=")

    return ParsedConfig(
        game=game,
        ticks=int(ticks) if ticks is not None else None,
        n_seeds=int(n_seeds) if n_seeds is not None else None,
        sweep=sweep,
        window=raw.get("window"),
    )


# --- number and record formatting ------------------------------------------


def format_number(x) -> str:
    """Integers verbatim; reals with 17 significant digits."""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    value = float(x)
    if value != value:  # nan
        return ""
    return f"{value:.17g}"


def _tick_rows_csv(rec: TickRecord) -> str:
    rows = []
    for k in range(len(rec.occupancy)):
        rows.append(
            f"{rec.t},{k},{rec.occupancy[k]},{rec.demand[k]},"
            f"{rec.minority[k]},{rec.history[k]},{rec.n_switched}"
        )
    return "\n".join(rows)


def _tick_obj(rec: TickRecord) -> dict:
    return {
        "t": int(rec.t),
        "O": [int(v) for v in rec.occupancy],
        "A": [int(v) for v in rec.demand],
        "astar": [int(v) for v in rec.minority],
        "mu": [int(v) for v in rec.history],
        "C": int(rec.n_switched),
    }


def render_records(records: RunRecords | Iterable[TickRecord], fmt: str = "csv") -> str:
    """Serialize records to one deterministic string."""
    ticks = iter(records)
    if fmt == "csv":
        lines = [CSV_HEADER]
        lines.extend(_tick_rows_csv(rec) for rec in ticks)
        return "\n".join(lines) + "\n"
    if fmt == "jsonl":
        return "".join(
            json.dumps(_tick_obj(rec), separators=(",", ":")) + "\n" for rec in ticks
        )
    raise ValueError(f"unknown record format {fmt!r}")


def parse_records(text: str, fmt: str = "csv", *, memory: int) -> RunRecords:
    """Inverse of render_records; render(parse(render(x))) == render(x).

    The records do not carry the memory length, so the caller names it.
    """
    ticks: list[TickRecord] = []
    if fmt == "csv":
        lines = [ln for ln in text.splitlines() if ln]
        if not lines or lines[0] != CSV_HEADER:
            raise ValueError("missing or unexpected CSV header")
        by_tick: dict[int, list[tuple[int, ...]]] = {}
        order: list[int] = []
        for line in lines[1:]:
            t, k, o, a, astar, mu, c = (int(v) for v in line.split(","))
            if t not in by_tick:
                by_tick[t] = []
                order.append(t)
            by_tick[t].append((k, o, a, astar, mu, c))
        for t in order:
            rows = sorted(by_tick[t])
            ticks.append(
                TickRecord(
                    t=t,
                    occupancy=np.array([r[1] for r in rows], dtype=np.int64),
                    demand=np.array([r[2] for r in rows], dtype=np.int64),
                    minority=np.array([r[3] for r in rows], dtype=np.int64),
                    history=np.array([r[4] for r in rows], dtype=np.int64),
                    n_switched=rows[0][5],
                )
            )
    elif fmt == "jsonl":
        for line in text.splitlines():
            if not line:
                continue
            obj = json.loads(line)
            ticks.append(
                TickRecord(
                    t=int(obj["t"]),
                    occupancy=np.array(obj["O"], dtype=np.int64),
                    demand=np.array(obj["A"], dtype=np.int64),
                    minority=np.array(obj["astar"], dtype=np.int64),
                    history=np.array(obj["mu"], dtype=np.int64),
                    n_switched=int(obj["C"]),
                )
            )
    else:
        raise ValueError(f"unknown record format {fmt!r}")
    if not ticks:
        raise ValueError("no records to parse")
    return RunRecords.from_ticks(ticks, memory=memory)


def render_table(table: dict[str, np.ndarray]) -> str:
    """Deterministic CSV for a column table (figure and sweep outputs)."""
    names = list(table)
    columns = [np.asarray(table[name]) for name in names]
    n_rows = len(columns[0])
    lines = [",".join(names)]
    for i in range(n_rows):
        cells = []
        for col in columns:
            v = col[i]
            cells.append(str(v) if col.dtype.kind in "US" else format_number(v))
        lines.append(",".join(cells))
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
    return {
        "N": cfg.n_agents,
        "K": cfg.n_markets,
        "s": cfg.n_strategies,
        "m": cfg.memory,
        "payoff": cfg.payoff,
        "topology": topo,
        "init_utilities": cfg.init_utilities,
        "u_low": cfg.u_low,
        "u_high": cfg.u_high,
        "tie_break": cfg.tie_break,
        "zero_demand": cfg.zero_demand,
        "seed": cfg.seed,
    }


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
    obj = json.loads(text)
    c = obj["config"]
    topo = c["topology"]
    topology = (
        MarketTopology.irregular(int(topo["n1"]), int(topo["n2"]))
        if topo["kind"] == "irregular"
        else MarketTopology.regular()
    )
    cfg = GameConfig(
        n_agents=int(c["N"]),
        seed=int(c["seed"]),
        n_markets=int(c["K"]),
        n_strategies=int(c["s"]),
        memory=int(c["m"]),
        payoff=c["payoff"],
        topology=topology,
        init_utilities=c["init_utilities"],
        u_low=float(c["u_low"]),
        u_high=float(c["u_high"]),
        tie_break=c["tie_break"],
        zero_demand=c["zero_demand"],
    )
    return RunManifest(
        config=cfg,
        seed=int(obj["seed"]),
        ticks=int(obj["T"]),
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
