#!/usr/bin/env python3
"""Show the choice-symmetry breaking on two identical markets.

Runs one large game, prints the measured stationary occupancies against
the closed-form levels, and the collective-event statistics on the big
market. Takes a couple of seconds.
"""

import sys

import numpy as np

from mmg import GameConfig, run, summarize_run
from mmg.metrics import predicted_occupancies


def main(argv):
    seed = int(argv[0]) if argv else 1
    n, ticks = 1447, 5000
    cfg = GameConfig(n_agents=n, seed=seed)
    records = run(cfg, ticks)

    summary = summarize_run(records)
    stats, big, small = summary.stats, summary.big_market, summary.small_market
    predicted = predicted_occupancies(n, 2, 2)
    crit = summary.critical

    print(f"N={n}, m={cfg.memory}, s={cfg.n_strategies}, seed={seed}, T={ticks}")
    print(f"split detected: {summary.split}  (relaxation time {summary.tau0})")
    print(f"mean occupancy big/small: {stats.mean_occupancy[big]:.1f} / "
          f"{stats.mean_occupancy[small]:.1f}   predicted {predicted[0]} / {predicted[1]}")
    print(f"per-capita demand variance big/small: {stats.per_capita_var[big]:.2f} / "
          f"{stats.per_capita_var[small]:.2f}")
    print(f"large-fluctuation frequency on big market: {summary.nu:.4f}   (1/2^m = {1/32:.4f})")
    if crit is not None:
        rc = crit.recurrences
        amp = np.abs(records.demand[rc, big]) / records.occupancy[rc, big]
        print(f"critical history {crit.history} first seen at t={crit.first_tick}, "
              f"{len(rc)} recurrences, median |A|/O at recurrence {np.median(amp):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
