"""Benchmark of the ``mmg`` command line, end to end and layer by layer.

    python3 perfbench/run.py --workload big_run --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --write-spec      # regenerate BENCHMARK.json

Run from the repository root. The program is imported from ``src/`` of the
same checkout and driven in process through ``mmg.cli.cli_main``, exactly
as ``mmg run/sweep/ensemble`` would run it, by one process and one thread
(closed loop: the next repetition starts when the previous one ends).

On a shared 2-vCPU virtual machine (Intel Xeon, 2 MiB L2, 105 MiB L3) the
speed of the host drifts by up to a half over tens of seconds: the same
pure-Python loop takes 40 or 65 ms depending on the minute, and raw medians
of 20 s runs spread by about 30 % from run to run. Every timed interval is
therefore paired with a calibration kernel run just before it -- fixed
pure-Python and NumPy work that does not touch ``mmg`` -- and reported
scaled to a host on which that kernel takes ``spec.CALIBRATION_S``:
``t * CALIBRATION_S / kernel time``. That cuts the run-to-run spread by two
to three times.
Span times of the traced run are scaled by the median calibration of the
traced section. The measured (unscaled) medians and the median calibration
time are printed as a JSON object on the line that starts with
``uncalibrated`` just above the result line, whose keys are fixed.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is the separate traced run: it times repetitions untraced for
half the time, then traced for the other half, and prints the per-layer
metrics. Every repetition's outputs are checked. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines above it are a readable report and provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

import numpy as np  # noqa: E402

import spec  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 15
_CAL_DATA = np.random.default_rng(12345).random((1024, 4))

# A fresh interpreter's path from process start to the first timed call:
# import the program, then write the workload's inputs. The probe prints the
# time at which it is done on the system-wide monotonic clock (perf_counter is
# CLOCK_MONOTONIC on Linux), because waiting for a child with a timeout polls
# with sleeps of up to 50 ms and would round the interval up by that much.
_SETUP_PROBE = """
import sys
import time
from pathlib import Path
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import mmg.cli
import workloads
workloads.prepare(sys.argv[3], int(sys.argv[4]), sys.argv[5], Path(sys.argv[6]))
print(time.perf_counter())
"""


def import_program():
    """Import ``mmg`` from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "mmg" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {SRC / 'mmg'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import mmg.cli

    if Path(mmg.__file__).resolve().parent != (SRC / "mmg").resolve():
        sys.exit(f"perfbench: imported mmg from {mmg.__file__}, not from {SRC}")
    return mmg.cli


def calibrate() -> float:
    """Seconds taken by a fixed kernel of interpreter and small-array work."""
    t0 = time.perf_counter()
    total = 0
    for i in range(60000):
        total += i * i
    for _ in range(180):
        masked = np.where(_CAL_DATA > 0.5, _CAL_DATA, -np.inf)
        total += int((masked == masked.max(axis=1)[:, None]).sum())
    return time.perf_counter() - t0


class Samples:
    """Raw interval times, each with the calibration time measured before it."""

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.cal: list[float] = []

    def add(self, raw: float, cal: float) -> None:
        self.raw.append(raw)
        self.cal.append(cal)

    @property
    def scaled(self) -> list[float]:
        return [r * spec.CALIBRATION_S / c for r, c in zip(self.raw, self.cal)]

    def median(self) -> float:
        return statistics.median(self.scaled)

    def describe(self) -> str:
        q1, med, q3 = quartiles(self.scaled)
        return (f"median {med:.6f} s, quartiles {q1:.6f}..{q3:.6f} s, n = {len(self.raw)}; "
                f"raw median {statistics.median(self.raw):.6f} s, "
                f"calibration median {statistics.median(self.cal) * 1e3:.3f} ms")


def setup_seconds(name: str, seed: int, size: str) -> Samples:
    """Wall time of ``SETUP_PROBES`` fresh interpreters doing the set-up."""
    samples = Samples()
    for i in range(SETUP_PROBES):
        argv = [sys.executable, "-c", _SETUP_PROBE, str(HERE), str(SRC), name,
                str(seed), size, str(WORK / name / f"setup{i}")]
        cal = calibrate()
        t0 = time.perf_counter()
        done = subprocess.run(argv, check=True, timeout=60, cwd=ROOT, capture_output=True,
                              text=True).stdout
        samples.add(float(done) - t0, cal)
    return samples


def provenance(seed: int) -> dict:
    import numpy

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "mmg").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha(),
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "seed": seed,
    }


def git_sha() -> str | None:
    """HEAD commit read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Counts:
    """Operations attempted and failed: games played plus output checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, label: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{label}: {problem}")


def play(cli, job: workloads.Job, counts: Counts, reference: dict | None, pinned: bool):
    """One repetition: the timed command, then its checks (untimed).

    With ``reference`` None every check runs and the output hashes are
    returned as the reference; later repetitions must reproduce those bytes.
    """
    for path in job.outputs.values():
        path.unlink(missing_ok=True)
    t0 = time.perf_counter()
    code = cli.cli_main(job.argv)
    wall = time.perf_counter() - t0
    if code != 0:
        for i in range(job.games):
            counts.add(f"game {i}", f"mmg exited with code {code}")
        counts.add("outputs", "not written")
        return wall, reference
    try:
        failed = workloads.failed_games(job)
    except (OSError, ValueError, KeyError):
        failed = job.games  # unreadable outputs: no game counts as played
    for i in range(job.games):
        counts.add(f"game {i}", "reported failed" if i < failed else None)
    hashes = workloads.file_hashes(job)
    if reference is None:
        for name, problem in workloads.full_checks(job, pinned):
            counts.add(name, problem)
        return wall, hashes
    for kind, digest in hashes.items():
        counts.add(f"replay:{kind}", None if digest == reference.get(kind)
                   else "bytes differ from the first repetition")
    return wall, reference


def timed_loop(cli, job, counts, reference, seconds: float) -> Samples:
    walls = Samples()
    deadline = time.perf_counter() + seconds
    while not walls.raw or time.perf_counter() < deadline:
        cal = calibrate()
        wall, reference = play(cli, job, counts, reference, False)
        walls.add(wall, cal)
    return walls


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str] | None = None, size: str = "full") -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[n for n, _ in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json at the repository root and exit")
    args = parser.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    cli = import_program()
    host = provenance(args.seed)
    name = args.workload
    shutil.rmtree(WORK / name, ignore_errors=True)
    setup = setup_seconds(name, args.seed, size) if not args.trace else None
    job = workloads.prepare(name, args.seed, size, WORK / name)
    counts = Counts()
    pinned = size == "full" and args.seed == spec.DEFAULT_SEED

    # Warm-up repetition: fills caches and runs every output check.
    _, reference = play(cli, job, counts, None, pinned)

    if not args.trace:
        walls = timed_loop(cli, job, counts, reference, args.seconds)
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wall = walls.median()
        metrics = {
            "wall_s": wall,
            "agent_ticks_per_s": job.agent_ticks / wall,
            "peak_rss_mib": rss_mib,
            "ok_frac": 1 - counts.failed / counts.attempted,
            "setup_s": setup.median(),
        }
        uncalibrated = {
            "wall_s": statistics.median(walls.raw),
            "wall_calibration_s": statistics.median(walls.cal),
            "wall_samples": len(walls.raw),
            "setup_s": statistics.median(setup.raw),
            "setup_calibration_s": statistics.median(setup.cal),
            "setup_samples": len(setup.raw),
        }
        (WORK / name / "walls.json").write_text(json.dumps(vars(walls)))
        print(f"wall_s per repetition: {walls.describe()}")
        print(f"setup_s per fresh interpreter: {setup.describe()}")
    else:
        from tracer import Tracer

        untraced = timed_loop(cli, job, counts, reference, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = timed_loop(cli, job, counts, reference, args.seconds / 2)
        finally:
            tracer.uninstall()
        tracer.write_spans(WORK / name / "spans.csv")
        reps = len(traced.raw)
        overhead = traced.median() / untraced.median() - 1
        scale = spec.CALIBRATION_S / statistics.median(traced.cal)
        metrics = tracer.layer_metrics(reps, overhead, scale)
        uncalibrated = {
            "wall_s": statistics.median(traced.raw),
            "wall_calibration_s": statistics.median(traced.cal),
            "wall_samples": reps,
        }
        # Every tick and every game must have passed through a wrapper.
        counts.add("trace: engine.step.calls = sum T",
                   None if tracer.count("engine.step") == reps * job.ticks
                   else f"{tracer.count('engine.step')} != {reps * job.ticks}")
        counts.add("trace: engine.run.calls = games",
                   None if tracer.count("engine.run") == reps * job.games
                   else f"{tracer.count('engine.run')} != {reps * job.games}")
        print(f"untraced wall_s per repetition: {untraced.describe()}")
        print(f"traced wall_s per repetition: {traced.describe()}")
        print(f"traced repetitions: {reps}, untraced: {len(untraced.raw)}, "
              f"spans: {len(tracer.spans)} written to {WORK / name / 'spans.csv'}")
        caches = host["caches"]
        print(f"engine.state_bytes is computed (nbytes of tables, utilities, choice mask) "
              f"for the largest game: {metrics['engine.state_bytes'] / 2**20:.3f} MiB "
              f"against L2 {caches.get('L2', '?')} and L3 {caches.get('L3', '?')}")

    for key, value in metrics.items():
        print(f"{key:40s} {value:.6g} {spec.UNITS[key]}")
    print(f"failed_frac {counts.failed}/{counts.attempted} = "
          f"{counts.failed / counts.attempted:.6g} (games played plus output checks)")
    for line in counts.failures:
        print(f"FAILED {line}")
    print("provenance " + json.dumps(host, sort_keys=True))
    print("uncalibrated " + json.dumps(uncalibrated))
    print(json.dumps({
        "correct": counts.failed == 0,
        "attempted": counts.attempted,
        "failed": counts.failed,
        "metrics": {k: {"value": v, "unit": spec.UNITS[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
