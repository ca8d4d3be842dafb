#!/usr/bin/env python3
"""Time ``engine.step`` in process: microseconds per tick on fixed games.

Every game has m=5 and s=2 unless named otherwise; each is played under
both tie rules. A run draws the game with ``init_game(cfg, ticks)``, as
``run`` does, so a linear or sign game has the integer scores that ``run``
plays (not timed), and then times only its ``step`` calls; the figure for a
game is the median of 5 runs. The games:

- N11, N128: regular, K=2, linear payoff;
- N1447s: regular, K=2, sign payoff (many tied agents per tick);
- N10301: irregular n1=10000, n2=301, linear (the perfbench big_run game);
- N11K40: regular, 40 markets, coin rule (many coins per tick);
- below/at ONE_HOT_AGENTS: regular, K=2, linear, with one agent per market
  fewer than ``engine.ONE_HOT_AGENTS`` and with exactly that many, the two
  sides of the aggregation switch;
- at/above ONE_HOT_ROWS: regular, K=2, linear, ``ONE_HOT_AGENTS`` agents per
  market, with K*s at ``engine.ONE_HOT_ROWS`` (one-hot counts) and two
  above it (bincounts);
- K=40, m=2, one agent per market fewer than ``ONE_HOT_AGENTS`` and
  exactly that many: both count with bincounts, the second because K*s =
  80 is over ``ONE_HOT_ROWS``.

Prints one JSON line, game/tie-rule -> microseconds per tick. Takes no
options and runs in 10-20 s:

    PYTHONPATH=src python3 scripts/tickbench.py

Where the host's speed drifts, compare two versions over several
alternated runs; one run per side can differ by more than the change.
"""

import json
import statistics
import time
from dataclasses import replace

from mmg import GameConfig, MarketTopology
from mmg.engine import ONE_HOT_AGENTS, ONE_HOT_ROWS, RunRecords, init_game, step

RUNS = 5


def games():
    """(name, config, ticks) of every timed game, random ties."""
    edge = 2 * ONE_HOT_AGENTS
    return [
        ("N11", GameConfig(n_agents=11, seed=1), 2000),
        ("N128", GameConfig(n_agents=128, seed=1), 2000),
        ("N1447s", GameConfig(n_agents=1447, seed=1, payoff="sign"), 600),
        ("N10301", GameConfig(n_agents=10301, seed=1,
                              topology=MarketTopology.irregular(10000, 301)), 200),
        ("N11K40", GameConfig(n_agents=11, seed=1, n_markets=40), 1000),
        (f"N{edge - 2}", GameConfig(n_agents=edge - 2, seed=1), 1000),
        (f"N{edge}", GameConfig(n_agents=edge, seed=1), 1000),
        (f"N{edge}s{ONE_HOT_ROWS // 2}",
         GameConfig(n_agents=edge, seed=1, n_strategies=ONE_HOT_ROWS // 2), 300),
        (f"N{edge}s{ONE_HOT_ROWS // 2 + 1}",
         GameConfig(n_agents=edge, seed=1, n_strategies=ONE_HOT_ROWS // 2 + 1), 300),
        (f"N{40 * (ONE_HOT_AGENTS - 1)}K40",
         GameConfig(n_agents=40 * (ONE_HOT_AGENTS - 1), seed=1, n_markets=40, memory=2), 30),
        (f"N{40 * ONE_HOT_AGENTS}K40",
         GameConfig(n_agents=40 * ONE_HOT_AGENTS, seed=1, n_markets=40, memory=2), 30),
    ]


def us_per_tick(cfg, ticks):
    state = init_game(cfg, ticks)
    out = RunRecords.empty(ticks, cfg.n_markets, cfg.memory)
    start = time.perf_counter()
    for i in range(ticks):
        step(state, out, i)
    return (time.perf_counter() - start) / ticks * 1e6


def main():
    result = {}
    for name, cfg, ticks in games():
        for tie in ("random", "lowest-index"):
            times = [us_per_tick(replace(cfg, tie_break=tie), ticks) for _ in range(RUNS)]
            result[f"{name}/{tie}"] = round(statistics.median(times), 1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
