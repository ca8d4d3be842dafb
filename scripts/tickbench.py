#!/usr/bin/env python3
"""Time ``engine.step`` and ``init_game`` in process on fixed games.

Every game has m=5 and s=2 unless named otherwise; each is played under
both tie rules. A run draws the game with ``init_game(cfg, ticks)``, as
``run`` does, so a linear or sign game from zero utilities has the integer
scores that ``run`` plays and every other game float64 scores (not timed),
and then times only its ``step`` calls; the figure for a game is the median
of 5 runs. The games:

- N11, N128: regular, K=2, linear payoff;
- N1447s: regular, K=2, sign payoff (many tied agents per tick);
- N1447sK3s3: the same with K=3 and s=3, so K*s = 9 (many tied agents
  over more (market, slot) rows);
- N10301: irregular n1=10000, n2=301, linear (the perfbench big_run game);
- N10301scaled, N10301uniform: the same topology with the scaled payoff,
  and linear from uniform initial utilities (float64 scores);
- N11K40: regular, 40 markets, coin rule (many coins per tick);
- below/at ONE_HOT_AGENTS: regular, K=2, linear, with one agent per market
  fewer than ``engine.ONE_HOT_AGENTS`` and with exactly that many, the two
  sides of the aggregation switch;
- at/above ONE_HOT_ROWS: regular, K=2, linear, ``ONE_HOT_AGENTS`` agents per
  market, with K*s at ``engine.ONE_HOT_ROWS`` (one-hot counts) and two
  above it (bincounts);
- K=40, m=2, one agent per market fewer than ``ONE_HOT_AGENTS`` and
  exactly that many: both count with bincounts, the second because K*s =
  80 is over ``ONE_HOT_ROWS``;
- below/at ARGMAX_AGENTS: regular, K=2, linear, with one agent fewer than
  ``engine.ARGMAX_AGENTS`` (choice from ``argmax``) and exactly that many
  (the weights formula);
- N11K5: regular, 5 markets, coin rule (at most four balanced markets a
  tick, so each coin is one scalar call).

Prints one JSON line, game/tie-rule -> microseconds per tick, and
game/init -> ``init_game``'s median microseconds (``us``) and the peak bytes
tracemalloc traces while it runs, in KiB (``peak_kib``). Runs in 10-20 s:

    PYTHONPATH=src python3 scripts/tickbench.py

Where the host's speed drifts, one run per side can differ by more than a
change does. ``--parent DIR`` compares the ``mmg`` on the path with the one
under ``DIR/src`` (say, a checkout of the parent commit) in one process:
each builds every game from the same config-file text with its own
``mmg.io.parse_config`` and its records with its own ``RunRecords.empty``,
both play it side by side, alternated in blocks of
ticks (which side goes first alternates too), and the line maps
game/tie-rule to the parent's and this version's median microseconds per
tick and the number of blocks this version was faster in. Each game/init maps to both versions' median
``init_game`` microseconds over ``BLOCKS`` alternated calls, the calls this
version was faster in, and both traced peaks (``parent_peak_kib``,
``change_peak_kib``). Both must write the same records, ``n_tied``
included, and leave the same stream (``state.draws.sync()``), or it stops:

    PYTHONPATH=src python3 scripts/tickbench.py --parent ../parent
"""

import argparse
import importlib.util
import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

import mmg
from mmg.engine import ARGMAX_AGENTS, ONE_HOT_AGENTS, ONE_HOT_ROWS, RunRecords, init_game, step

RUNS = 5
BLOCKS = 21
FIELDS = ("t", "occupancy", "demand", "minority", "history", "n_switched", "n_tied")
TIES = ("random", "lowest-index")


def games():
    """(name, config-file text, ticks) of every timed game; the text sets no tie rule."""
    edge = 2 * ONE_HOT_AGENTS
    big_run = "topology=irregular n1=10000 n2=301 seed=1"
    return [
        ("N11", "N=11 seed=1", 2000),
        ("N128", "N=128 seed=1", 2000),
        ("N1447s", "N=1447 seed=1 payoff=sign", 600),
        ("N1447sK3s3", "N=1447 seed=1 payoff=sign K=3 s=3", 400),
        ("N10301", big_run, 200),
        ("N10301scaled", f"{big_run} payoff=scaled", 200),
        ("N10301uniform", f"{big_run} init_utilities=uniform", 200),
        ("N11K40", "N=11 seed=1 K=40", 1000),
        (f"N{edge - 2}", f"N={edge - 2} seed=1", 1000),
        (f"N{edge}", f"N={edge} seed=1", 1000),
        (f"N{edge}s{ONE_HOT_ROWS // 2}", f"N={edge} seed=1 s={ONE_HOT_ROWS // 2}", 300),
        (f"N{edge}s{ONE_HOT_ROWS // 2 + 1}", f"N={edge} seed=1 s={ONE_HOT_ROWS // 2 + 1}", 300),
        (f"N{40 * (ONE_HOT_AGENTS - 1)}K40", f"N={40 * (ONE_HOT_AGENTS - 1)} seed=1 K=40 m=2", 30),
        (f"N{40 * ONE_HOT_AGENTS}K40", f"N={40 * ONE_HOT_AGENTS} seed=1 K=40 m=2", 30),
        (f"N{ARGMAX_AGENTS - 1}", f"N={ARGMAX_AGENTS - 1} seed=1", 2000),
        (f"N{ARGMAX_AGENTS}", f"N={ARGMAX_AGENTS} seed=1", 2000),
        ("N11K5", "N=11 seed=1 K=5", 2000),
    ]


def parsed(pkg, text):
    """The game of config-file ``text``, built by ``pkg``'s own parser, so
    each version reads and validates it with its own code."""
    return importlib.import_module(f"{pkg.__name__}.io").parse_config(text).game


def us_per_tick(cfg, ticks):
    state = init_game(cfg, ticks)
    out = RunRecords.empty(cfg, ticks)
    start = time.perf_counter()
    for i in range(ticks):
        step(state, out, i)
    return (time.perf_counter() - start) / ticks * 1e6


def init_us(init, cfg, ticks):
    """Microseconds of one ``init(cfg, ticks)``."""
    start = time.perf_counter()
    init(cfg, ticks)
    return (time.perf_counter() - start) * 1e6


def init_peak_kib(init, cfg, ticks):
    """Peak KiB that tracemalloc traces during one ``init(cfg, ticks)``."""
    tracemalloc.start()
    try:
        init(cfg, ticks)
        return round(tracemalloc.get_traced_memory()[1] / 1024, 1)
    finally:
        tracemalloc.stop()


def medians():
    result = {}
    for name, text, ticks in games():
        for tie in TIES:
            cfg = parsed(mmg, f"{text} tie_break={tie}")
            times = [us_per_tick(cfg, ticks) for _ in range(RUNS)]
            result[f"{name}/{tie}"] = round(statistics.median(times), 1)
        cfg = parsed(mmg, text)
        times = [init_us(init_game, cfg, ticks) for _ in range(RUNS)]
        result[f"{name}/init"] = {"us": round(statistics.median(times), 1),
                                  "peak_kib": init_peak_kib(init_game, cfg, ticks)}
    return result


def import_parent(root):
    """The ``mmg`` package under ``root/src``, imported as ``mmg_parent``."""
    init = Path(root, "src", "mmg", "__init__.py")
    spec = importlib.util.spec_from_file_location(
        "mmg_parent", init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules["mmg_parent"] = module
    spec.loader.exec_module(module)
    return module


def side_by_side(parent, text, ticks):
    """Play the game of config-file ``text`` on ``parent`` and on this
    ``mmg`` in ``BLOCKS`` alternated blocks of ``ticks // RUNS`` ticks;
    return the per-tick microseconds of each block, parent's then this
    version's."""
    block = max(ticks // RUNS, 1)
    total = BLOCKS * block
    sides = []
    for pkg in (parent, mmg):
        cfg = parsed(pkg, text)
        state = pkg.init_game(cfg, total)
        sides.append((pkg.step, state, pkg.RunRecords.empty(cfg, total)))
    times = ([], [])
    for b in range(BLOCKS):
        for side in ((0, 1) if b % 2 == 0 else (1, 0)):
            play, state, out = sides[side]
            start = time.perf_counter()
            for i in range(b * block, (b + 1) * block):
                play(state, out, i)
            times[side].append((time.perf_counter() - start) / block * 1e6)
    for name in FIELDS:
        if not np.array_equal(getattr(sides[0][2], name), getattr(sides[1][2], name)):
            raise SystemExit(f"{text}: the two versions wrote different {name} records")
    streams = [state.draws.sync().bit_generator.state for _, state, _ in sides]
    if streams[0] != streams[1]:
        raise SystemExit(f"{text}: the two versions left different streams")
    return times


def compared(old, new):
    return {
        "parent": round(statistics.median(old), 1),
        "change": round(statistics.median(new), 1),
        "wins": f"{sum(b < a for a, b in zip(old, new))}/{BLOCKS}",
    }


def against_parent(root):
    parent = import_parent(root)
    result = {}
    for name, text, ticks in games():
        for tie in TIES:
            result[f"{name}/{tie}"] = compared(*side_by_side(parent, f"{text} tie_break={tie}", ticks))
        sides = [(pkg.init_game, parsed(pkg, text)) for pkg in (parent, mmg)]
        times = ([], [])
        for b in range(BLOCKS):
            for side in ((0, 1) if b % 2 == 0 else (1, 0)):
                times[side].append(init_us(*sides[side], ticks))
        result[f"{name}/init"] = compared(*times)
        for label, side in zip(("parent", "change"), sides):
            result[f"{name}/init"][f"{label}_peak_kib"] = init_peak_kib(*side, ticks)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", metavar="DIR",
                        help="compare with the mmg under DIR/src, in one process")
    args = parser.parse_args()
    print(json.dumps(against_parent(args.parent) if args.parent else medians()))


if __name__ == "__main__":
    main()
