"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402

NAMES = [name for name, _ in spec.WORKLOADS]


def bench(capsys, *argv: str) -> tuple[dict, str]:
    assert run.main(list(argv), size="tiny") == 0
    out = capsys.readouterr().out
    return json.loads(out.strip().splitlines()[-1]), out


def test_benchmark_json_matches_spec():
    on_disk = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert on_disk == spec.benchmark_json()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_printed_with_unit(capsys, name, trace):
    result, report = bench(capsys, "--workload", name, "--seed", "0",
                           "--seconds", "0.2", "--trace", str(trace))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec.PER_LAYER if trace else spec.END_TO_END
    assert set(result["metrics"]) == {m[0] for m in wanted}
    for metric, unit, *_ in wanted:
        assert result["metrics"][metric]["unit"] == unit
        assert any(line.split()[:1] == [metric] and line.split()[-1] == unit
                   for line in report.splitlines()), metric
    if trace:
        job = workloads.prepare(name, 0, "tiny", run.WORK / "smoke")
        assert result["metrics"]["engine.step.calls"]["value"] == job.ticks
        assert result["metrics"]["engine.agent_ticks"]["value"] == job.agent_ticks


@pytest.mark.parametrize("name", NAMES)
def test_non_default_seed_passes_checks(capsys, name):
    result, _ = bench(capsys, "--workload", name, "--seed", "7", "--seconds", "0.2")
    assert result["correct"] and result["failed"] == 0


def test_checks_catch_corrupt_records():
    cli = run.import_program()
    job = workloads.prepare("big_run", 3, "tiny", run.WORK / "corrupt")
    assert cli.cli_main(job.argv) == 0
    assert all(problem is None for _, problem in workloads.full_checks(job, False))
    path = job.outputs["records_csv"]
    lines = path.read_text().splitlines()
    t, k, o, a, *rest = lines[5].split(",")
    lines[5] = ",".join([t, k, str(int(o) + 2), a, *rest])  # keeps parity, breaks sum O = N
    path.write_text("\n".join(lines) + "\n")
    problems = dict(workloads.full_checks(job, False))
    assert "sum_k O = N" in problems["record_invariants"]
    assert "content_hash" in problems["manifest_hash"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", NAMES[0], "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
