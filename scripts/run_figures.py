#!/usr/bin/env python3
"""Regenerate every canned figure dataset into an output directory.

Usage: python scripts/run_figures.py [outdir] [--quick]

--quick shrinks run lengths and ensembles by ~10x for a fast smoke pass;
full datasets take a few minutes (the sweeps dominate).
"""

import sys
import time
from pathlib import Path

from mmg.experiments import FIGURE_NAMES, figure_dataset
from mmg.io import render_table

QUICK_OVERRIDES = {
    "fig3": dict(T=500),
    "fig4": dict(T=500),
    "fig5": dict(T=300),
    "fig6": dict(T=300),
    "fig6_0": dict(T=500),
    "fig6_1": dict(T=1000, seeds=3, values=[512, 1024, 1447]),
    "fig7": dict(T=1000, seeds=3),
    "fig8": dict(T=1000, seeds=3, values=[301, 1000, 3000]),
    "fig010": dict(T=500),
}


def main(argv):
    args = [a for a in argv if not a.startswith("--")]
    quick = "--quick" in argv
    out_dir = Path(args[0]) if args else Path("out")
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in FIGURE_NAMES:
        t0 = time.time()
        overrides = QUICK_OVERRIDES[name] if quick else {}
        tables = figure_dataset(name, seed=0, **overrides)
        for stem, table in tables.items():
            path = out_dir / f"{stem}.csv"
            path.write_text(render_table(table))
            print(f"{path}  ({time.time() - t0:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
