"""Command-line surface.

Subcommands: ``run`` (single game), ``ensemble`` (multi-seed summaries),
``sweep`` (parameter sweep table), ``figure`` (canned experiment datasets),
``predict`` (closed-form occupancies), ``verify MANIFEST FILE`` (replay a
run manifest and check FILE against it). Flags override config-file keys.
Exit codes: 0 success, 1 usage, 2 configuration error (an unreadable file
and a bad value of a key's flag included), 3 runtime failure, 4 ``verify``
mismatch.
Data goes to files or stdout; diagnostics go to stderr. MMG_OUT_DIR sets
the default output directory for ``figure``.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import CONFIG_KEYS, ConfigError, GameConfig
from .engine import run as run_game
from .experiments import FIGURE_NAMES, ensemble_run, figure_dataset, q_sweep, summary_table
from .io import (
    FILE_KEYS,
    ParsedConfig,
    content_hash,
    convert,
    format_number,
    make_manifest,
    parse_config,
    parse_manifest,
    render_records,
    render_table,
    serialize_manifest,
)
from .metrics import predicted_irregular, predicted_occupancies

__all__ = ["main", "cli_main"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage problems, not argparse's 2
        raise UsageError(message)


@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> _Parser:
    parser = _Parser(prog="mmg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p):
        # the values of the key flags stay text: parse_config converts each
        # one as it does a config file's, so a bad one names its key
        def choices(kind):
            return "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else None

        p.add_argument("--config", type=Path, help="key=value config file")
        p.add_argument("-T", "--ticks", dest="T", help="ticks to play")
        for key, (_, kind, help_text) in CONFIG_KEYS.items():
            p.add_argument("--" + key.replace("_", "-"), dest=key, help=help_text,
                           metavar=choices(kind))
        p.add_argument("--topology", metavar=choices(FILE_KEYS["topology"]))
        p.add_argument("--n1", help="agents on market 1 only (irregular)")
        p.add_argument("--n2", help="agents on both markets (irregular)")

    p_run = sub.add_parser("run", help="play one game and emit its records")
    add_config_flags(p_run)
    p_run.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p_run.add_argument("--out", type=Path, help="records file (default stdout)")
    p_run.add_argument("--manifest", type=Path, help="write a provenance manifest here")

    p_ens = sub.add_parser("ensemble", help="summarize an ensemble of seeded runs")
    add_config_flags(p_ens)
    p_ens.add_argument("--seeds", help="runs in the ensemble")
    p_ens.add_argument("--out", type=Path, help="summary CSV (default stdout)")

    p_sweep = sub.add_parser("sweep", help="ensemble sweep over N or n1")
    add_config_flags(p_sweep)
    p_sweep.add_argument("--seeds", help="runs per swept value")
    p_sweep.add_argument("--out", type=Path, help="sweep table CSV (default stdout)")

    p_fig = sub.add_parser("figure", help="generate a canned experiment dataset")
    p_fig.add_argument("name", choices=FIGURE_NAMES)
    p_fig.add_argument("--out", type=Path, help="output directory (default $MMG_OUT_DIR or .)")
    p_fig.add_argument("--seed", default="0", help="master seed")
    p_fig.add_argument("-T", "--ticks", dest="T")
    p_fig.add_argument("--seeds", help="runs per ensemble point")

    p_pred = sub.add_parser("predict", help="closed-form asymptotic occupancies")
    p_pred.add_argument("--N", help="agent count (n1 + n2 if irregular)")
    p_pred.add_argument("--K", default=str(GameConfig.n_markets),
                        help="market count (2 if irregular)")
    p_pred.add_argument("--s", default=str(GameConfig.n_strategies),
                        help="strategies per market")
    p_pred.add_argument("--n1", help="exclusive agents (irregular)")
    p_pred.add_argument("--n2", help="shared agents (irregular)")

    p_verify = sub.add_parser("verify", help="replay a run manifest and check a records file")
    p_verify.add_argument("manifest", type=Path, help="manifest written by run --manifest")
    p_verify.add_argument("file", type=Path, help="records file the manifest describes")
    return parser


def _read(path: Path, what: str) -> str:
    """``path`` as UTF-8 with line endings kept; ConfigError naming ``what`` if unreadable."""
    try:
        return path.read_bytes().decode("utf-8")
    except (OSError, UnicodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"{what}: cannot read {path}: {reason}") from None


def _load_config(args, *required: str, optional: tuple[str, ...] = ()) -> ParsedConfig:
    """Flags over the config file; each ``required`` directive (T, seeds or
    sweep) must be set, and no directive but those and ``optional`` may be."""
    text = "" if args.config is None else _read(args.config, "config")
    overrides = {k: v for k, v in vars(args).items() if k in FILE_KEYS}  # flags named by key
    parsed = parse_config(text, overrides=overrides)
    for key in parsed.directives:
        if key not in required + optional:
            raise ConfigError(f"{key}: not read by {args.command}")
    for key in required:
        if key not in parsed.directives:
            raise ConfigError(f"{key}: required for {args.command}")
    return parsed


def _write(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)


def _cmd_run(args) -> int:
    parsed = _load_config(args, "T")
    records = run_game(parsed.game, parsed.ticks)
    text = render_records(records, args.format)
    _write(text, args.out)
    if args.manifest is not None:
        manifest = make_manifest(parsed.game, parsed.ticks, args.format, text)
        _write(serialize_manifest(manifest), args.manifest)
    return 0


def _cmd_ensemble(args) -> int:
    parsed = _load_config(args, "T", "seeds", optional=("window",))
    summaries = ensemble_run(parsed.game, parsed.ticks, parsed.n_seeds, window=parsed.window)
    _write(render_table(summary_table(summaries)), args.out)
    if all(s.failed for s in summaries):
        raise RuntimeError(f"all {len(summaries)} runs failed; run 0: {summaries[0].error}")
    return 0


def _cmd_sweep(args) -> int:
    parsed = _load_config(args, "sweep", "T", "seeds", optional=("values", "window"))
    table = q_sweep(parsed.sweep, parsed.ticks, parsed.n_seeds, window=parsed.window)
    _write(render_table(table), args.out)
    return 0


def _flags(args, *keys: str) -> dict:
    """Each given flag of ``keys``, converted as a config file's value."""
    values = vars(args)
    return {key: convert(key, values[key]) for key in keys if values[key] is not None}


def _cmd_figure(args) -> int:
    out_dir = args.out or Path(os.environ.get("MMG_OUT_DIR", "."))
    overrides = _flags(args, "seed", "T", "seeds")
    tables = figure_dataset(args.name, **overrides)
    out_dir.mkdir(parents=True, exist_ok=True)
    for stem, table in tables.items():
        path = out_dir / f"{stem}.csv"
        path.write_text(render_table(table))
        print(f"wrote {path}", file=sys.stderr)
    return 0


def _cmd_predict(args) -> int:
    flags = _flags(args, "N", "K", "s", "n1", "n2")
    if "n1" in flags or "n2" in flags:
        GameConfig.check_irregular(flags.get("n1"), flags.get("n2"), flags.get("N"), flags["K"])
        values = predicted_irregular(flags["n1"], flags["n2"], flags["s"])
    else:
        if "N" not in flags:
            raise UsageError("predict: need --N (regular) or --n1/--n2 (irregular)")
        values = predicted_occupancies(flags["N"], flags["K"], flags["s"])
    print(" ".join(format_number(v) for v in values))
    return 0


def _cmd_verify(args) -> int:
    manifest = parse_manifest(_read(args.manifest, "manifest"))
    text = _read(args.file, "file")
    replay = render_records(run_game(manifest.config, manifest.ticks), manifest.fmt)
    hashes = {"manifest": manifest.content_hash, "file": content_hash(text),
              "replay": content_hash(replay)}
    differ = [(a, b) for a, b in itertools.combinations(hashes, 2) if hashes[a] != hashes[b]]
    for a, b in differ:
        print(f"verify: {a} {hashes[a]} != {b} {hashes[b]}", file=sys.stderr)
    if text != replay:
        # lazily: both texts as lists of lines could outgrow the records' budget
        lines = [(m.group() for m in re.finditer(r".*\n?", t)) for t in (text, replay)]
        pairs = enumerate(itertools.zip_longest(*lines, fillvalue=""), 1)
        line, (ours, theirs) = next((i, p) for i, p in pairs if p[0] != p[1])
        print(f"verify: first difference at line {line}\n  file:   {ours!r}\n"
              f"  replay: {theirs!r}", file=sys.stderr)
    if differ:
        print(f"verify: manifest written by mmg {manifest.version}; replayed by mmg "
              f"{__version__} with numpy {np.__version__}", file=sys.stderr)
    return 4 if differ else 0


_COMMANDS = {
    "run": _cmd_run,
    "ensemble": _cmd_ensemble,
    "sweep": _cmd_sweep,
    "figure": _cmd_figure,
    "predict": _cmd_predict,
    "verify": _cmd_verify,
}


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    except Exception as exc:  # noqa: BLE001 - a CLI reports, it does not crash
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(cli_main())
