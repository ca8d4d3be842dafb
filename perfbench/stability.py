"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/stability.py --out perfbench/spread.json

Runs ``run.py`` for ``SETS`` sets of ``RUNS`` runs of every workload at
``spec.RUN_SECONDS``, one process at a time, seeds 1..RUNS in each set. For
each workload, metric and set it reports the median and the quartile spread
(Q3 - Q1) / median, with Q1..Q3 from ``statistics.quantiles(n=4)``, next
to the metric's bound; and how far the second set's median moved from the
first set's, as a share of the first. It exits 1 when a spread or a drift,
``setup_s`` included, is outside its metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402
from run import provenance  # noqa: E402

RUNS = 10
SETS = 2


def one_run(workload: str, seed: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec.RUN_SECONDS), "--trace", "0"]
    out = subprocess.run(argv, cwd=HERE.parent, check=True, capture_output=True, text=True,
                         timeout=600).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs failed their checks\n{out}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, help="write the report here as JSON")
    args = parser.parse_args()

    names = [n for n, _ in spec.WORKLOADS]
    bounds = {name: bound for name, _, _, bound in spec.END_TO_END}
    runs: dict = {w: [[] for _ in range(SETS)] for w in names}
    started = time.time()
    for s in range(SETS):
        for seed in range(1, RUNS + 1):
            for w in names:
                runs[w][s].append(one_run(w, seed))
    report = {"runs": RUNS, "sets": SETS, "seconds": spec.RUN_SECONDS,
              "elapsed_s": round(time.time() - started, 1),
              "provenance": provenance(None), "workloads": {}}
    ok = True
    for w in names:
        per_metric = {}
        for name, bound in bounds.items():
            sets = [summary([r[name] for r in runs[w][s]]) for s in range(SETS)]
            drift = [abs(x["median"] / sets[0]["median"] - 1) for x in sets[1:]]
            steady = all(x["spread"] < bound for x in sets) and all(d <= bound for d in drift)
            ok = ok and steady
            per_metric[name] = {"bound": bound, "sets": sets, "median_drift": drift,
                                "within_bound": steady}
            print(f"{w:14s} {name:18s} bound {bound:<5} "
                  + " ".join(f"median {x['median']:.6g} spread {x['spread']:.4f}" for x in sets)
                  + "".join(f" drift {d:.4f}" for d in drift)
                  + ("" if steady else "  OUT OF BOUND"))
        report["workloads"][w] = per_metric
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
