"""Definitions behind BENCHMARK.json: workloads, metrics, bounds.

``python3 perfbench/run.py --write-spec`` renders these into
BENCHMARK.json at the repository root; the smoke test fails when the two
drift apart.
"""

from __future__ import annotations

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 25
DEFAULT_SEED = 0
# Reference duration of run.calibrate(): reported times are scaled to a host
# on which the calibration kernel takes this long.
CALIBRATION_S = 0.025

# Why each workload exists: each one stresses a different layer, so an
# optimisation of one layer has a workload that exercises it and one that
# should not move.
WORKLOADS = [
    ("big_run",
     "mmg run, irregular n1=10000 n2=301, linear, CSV + manifest: largest fig8 point, bound by "
     "engine.step array kernels; io idle. Times are scaled to a 25 ms calibration kernel"),
    ("low_q_sweep",
     "mmg sweep, regular linear game, N=11,64,128, 6 seeds each: per-tick Python overhead and "
     "game set-up; replica batching. Times are scaled to a 25 ms calibration kernel"),
    ("tie_ensemble",
     "mmg ensemble, regular N=1447, sign payoff: 15-24% of agents tie each tick, so the "
     "tie-break RNG path runs hot. Times are scaled to a 25 ms calibration kernel"),
    ("jsonl_run",
     "mmg run --format jsonl, long N=11 game, --manifest: the workload where io.render_records "
     "does much of the work. Times are scaled to a 25 ms calibration kernel"),
]

# (name, unit, better, bound). ``failed_frac`` is 0 on a healthy run, and a
# metric that can be 0 has no relative bound, so it is carried as
# ok_frac = 1 - failed_frac. Even calibrated (see run.py), medians of 25 s
# runs spread by up to 10 % (wall_s) and 16 % (setup_s) between runs on a
# shared 2-vCPU host (spread.json), so the time bounds are the widest allowed;
# peak RSS repeats within 0.5 %.
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("agent_ticks_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.05),
    ("ok_frac", "ratio", "higher", 0.01),
    ("setup_s", "s", "lower", 0.25),
]

# (name, unit, better). Times and counts are per timed repetition.
PER_LAYER = [
    ("engine.step.calls", "count", "lower"),
    ("engine.agent_ticks", "count", "higher"),
    ("engine.step.busy_s", "s", "lower"),
    ("engine.step.us_p50", "us", "lower"),
    ("engine.step.us_p99", "us", "lower"),
    ("engine.run.self_s", "s", "lower"),
    ("engine.init_game.busy_s", "s", "lower"),
    ("strategies.draw_strategies.busy_s", "s", "lower"),
    ("rng.busy_s", "s", "lower"),
    ("engine.tied_agents_per_tick", "count", "lower"),
    ("engine.balanced_markets_per_tick", "count", "lower"),
    ("engine.state_bytes", "bytes", "lower"),
    ("metrics.busy_s", "s", "lower"),
    ("metrics.calls", "count", "lower"),
    ("experiments.summarize_run.busy_s", "s", "lower"),
    ("experiments.self_s", "s", "lower"),
    ("experiments.games", "count", "higher"),
    ("experiments.games_failed", "count", "lower"),
    ("io.render_records.busy_s", "s", "lower"),
    ("io.render_records.mb_per_s", "MB/s", "higher"),
    ("io.content_hash.busy_s", "s", "lower"),
    ("io.render_table.busy_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
