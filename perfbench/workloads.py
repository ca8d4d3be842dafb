"""Workload inputs and output checks.

Each workload turns a seed into config files and one ``mmg`` command line;
the program sees nothing else. Checks read the files the command wrote and
verify them without calling back into the program.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MEMORY = 5

# Run lengths and repeat counts per repetition. ``full`` is what the
# benchmark measures; ``tiny`` keeps the smoke test fast.
SIZES = {
    "full": {
        "big_run": {"n1": 10000, "n2": 301, "T": 300},
        "low_q_sweep": {"values": (11, 64, 128), "seeds": 6, "T": 200},
        "tie_ensemble": {"N": 1447, "seeds": 4, "T": 250},
        "jsonl_run": {"N": 11, "T": 4000},
    },
    "tiny": {
        "big_run": {"n1": 200, "n2": 31, "T": 20},
        "low_q_sweep": {"values": (11, 64), "seeds": 2, "T": 60},
        "tie_ensemble": {"N": 101, "seeds": 2, "T": 60},
        "jsonl_run": {"N": 11, "T": 50},
    },
}

# sha256 of every output file at the full size and the default seed:
# (config, seed) fixes every byte, so any change here is a behaviour change.
PINNED = {
    "big_run": {
        "records_csv": "fb60691581c2cbf91b36f47e2ebd789892c22954f37b9055e75d21e775c3bec0",
        "manifest": "c7de784e4f90810f38a9663a35907ebca4c7b4323e08a652106afe16ddead2e8",
    },
    "low_q_sweep": {
        "sweep_csv": "e42f8acd1fb4d3140d99fef2c60184b8226fe5def1347e39b5147b13b91c3286",
    },
    "tie_ensemble": {
        "ensemble_csv": "155636bc261887a5e64c0ae74d1205da71d788f77780bc16aac222b43fe9b18f",
    },
    "jsonl_run": {
        "records_jsonl": "c6186e2b117f0ec985c84904a5a7398efd284403df0a86086486cc77b749d56f",
        "manifest": "f69d43693e8ecf021155c5630f24698cad65fcd50b615df8a83c216e3167ff03",
    },
}


@dataclass
class Job:
    """One repetition's command line plus what its outputs must satisfy."""

    name: str
    seed: int
    argv: list[str]
    outputs: dict[str, Path]  # output kind -> file
    games: int
    ticks: int  # sum of T over the games of one repetition
    agent_ticks: int  # sum of N*T over the games of one repetition
    facts: dict = field(default_factory=dict)


def prepare(name: str, seed: int, size: str, workdir: Path) -> Job:
    """Write the workload's config file for ``seed`` and return its job."""
    workdir.mkdir(parents=True, exist_ok=True)
    p = SIZES[size][name]
    cfg = workdir / f"{name}.cfg"
    out = workdir / "out"
    if name == "big_run":
        n = p["n1"] + p["n2"]
        cfg.write_text(
            f"topology=irregular n1={p['n1']} n2={p['n2']} K=2 s=2 m={MEMORY}\n"
            f"payoff=linear seed={seed} T={p['T']}\n"
        )
        outputs = {"records_csv": out / "records.csv", "manifest": out / "run.json"}
        argv = ["run", "--config", str(cfg), "--out", str(outputs["records_csv"]),
                "--manifest", str(outputs["manifest"])]
        return Job(name, seed, argv, outputs, 1, p["T"], n * p["T"],
                   {"N": n, "T": p["T"], "n2": p["n2"], "fmt": "csv"})
    if name == "low_q_sweep":
        values = list(p["values"])
        random.Random(seed).shuffle(values)  # the program must sort by Q
        cfg.write_text(
            f"N={values[0]} K=2 s=2 m={MEMORY} payoff=linear seed={seed}\n"
            f"T={p['T']} seeds={p['seeds']}\n"
            f"sweep=N values={','.join(map(str, values))}\n"
        )
        outputs = {"sweep_csv": out / "points.csv"}
        argv = ["sweep", "--config", str(cfg), "--out", str(outputs["sweep_csv"])]
        games = len(values) * p["seeds"]
        return Job(name, seed, argv, outputs, games, games * p["T"],
                   sum(values) * p["seeds"] * p["T"],
                   {"values": tuple(values), "seeds": p["seeds"]})
    if name == "tie_ensemble":
        cfg.write_text(
            f"N={p['N']} K=2 s=2 m={MEMORY} payoff=sign seed={seed}\n"
            f"T={p['T']} seeds={p['seeds']}\n"
        )
        outputs = {"ensemble_csv": out / "summaries.csv"}
        argv = ["ensemble", "--config", str(cfg), "--out", str(outputs["ensemble_csv"])]
        return Job(name, seed, argv, outputs, p["seeds"], p["seeds"] * p["T"],
                   p["N"] * p["seeds"] * p["T"], {"N": p["N"], "seeds": p["seeds"]})
    if name == "jsonl_run":
        cfg.write_text(f"N={p['N']} K=2 s=2 m={MEMORY} payoff=linear seed={seed} T={p['T']}\n")
        outputs = {"records_jsonl": out / "records.jsonl", "manifest": out / "run.json"}
        argv = ["run", "--config", str(cfg), "--format", "jsonl",
                "--out", str(outputs["records_jsonl"]), "--manifest", str(outputs["manifest"])]
        return Job(name, seed, argv, outputs, 1, p["T"], p["N"] * p["T"],
                   {"N": p["N"], "T": p["T"], "fmt": "jsonl"})
    raise KeyError(name)


def file_hashes(job: Job) -> dict[str, str]:
    return {kind: hashlib.sha256(path.read_bytes()).hexdigest()
            for kind, path in job.outputs.items()}


# --- checks -----------------------------------------------------------------
# Every check returns (name, failure message or None). A check that raises
# counts as failed with the exception as its message.


def _records(job: Job) -> dict[str, np.ndarray]:
    """Columns t (T,), O/A/astar/mu (T, K) and C (T,) from the records file."""
    if job.facts["fmt"] == "csv":
        path = job.outputs["records_csv"]
        with path.open() as fh:
            header = fh.readline().strip()
        if header != "t,k,O,A,astar,mu,C":
            raise ValueError(f"unexpected CSV header {header!r}")
        rows = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
        k = 2
        if rows.shape[0] % k or not (rows[:, 1] == np.tile(np.arange(k), rows.shape[0] // k)).all():
            raise ValueError("rows are not one per (tick, market) in market order")
        rows = rows.reshape(-1, k, 7)
        if not (rows[:, :, 0] == rows[:, :1, 0]).all() or not (rows[:, :, 6] == rows[:, :1, 6]).all():
            raise ValueError("t or C differs between the markets of one tick")
        return {"t": rows[:, 0, 0], "O": rows[:, :, 2], "A": rows[:, :, 3],
                "astar": rows[:, :, 4], "mu": rows[:, :, 5], "C": rows[:, 0, 6]}
    objs = [json.loads(line) for line in job.outputs["records_jsonl"].read_text().splitlines()]
    return {
        "t": np.array([o["t"] for o in objs], dtype=np.int64),
        "O": np.array([o["O"] for o in objs], dtype=np.int64),
        "A": np.array([o["A"] for o in objs], dtype=np.int64),
        "astar": np.array([o["astar"] for o in objs], dtype=np.int64),
        "mu": np.array([o["mu"] for o in objs], dtype=np.int64),
        "C": np.array([o["C"] for o in objs], dtype=np.int64),
    }


def _record_invariants(job: Job) -> str | None:
    r = _records(job)
    n, T = job.facts["N"], job.facts["T"]
    O, A, astar, mu = r["O"], r["A"], r["astar"], r["mu"]
    bits = (astar + 1) // 2
    problems = {
        "consecutive t from 0": np.array_equal(r["t"], np.arange(T)),
        "sum_k O = N": (O.sum(axis=1) == n).all(),
        "|A| <= O": (np.abs(A) <= O).all(),
        "A = O mod 2": ((A - O) % 2 == 0).all(),
        "mu in [0, 2^m)": ((mu >= 0) & (mu < 1 << MEMORY)).all(),
        "astar in {-1, +1}": np.isin(astar, (-1, 1)).all(),
        "astar = -sign(A) where A != 0": (astar[A != 0] == -np.sign(A[A != 0])).all(),
        "mu shifts in astar": (mu[1:] == ((mu[:-1] << 1) | bits[:-1]) & ((1 << MEMORY) - 1)).all(),
        "C[0] = 0 and 0 <= C <= N": r["C"][0] == 0 and ((r["C"] >= 0) & (r["C"] <= n)).all(),
    }
    if "n2" in job.facts:
        problems["O_2 <= n2"] = (O[:, 1] <= job.facts["n2"]).all()
    bad = [name for name, ok in problems.items() if not ok]
    return f"record invariants broken: {bad}" if bad else None


def _manifest(job: Job) -> str | None:
    man = json.loads(job.outputs["manifest"].read_text())
    records = job.outputs["records_csv" if job.facts["fmt"] == "csv" else "records_jsonl"]
    want = "sha256:" + hashlib.sha256(records.read_bytes()).hexdigest()
    if man["content_hash"] != want:
        return f"manifest content_hash {man['content_hash']} != hash of bytes written {want}"
    if (man["seed"], man["T"], man["format"], man["config"]["N"]) != (
        job.seed, job.facts["T"], job.facts["fmt"], job.facts["N"]
    ):
        return "manifest seed/T/format/N do not match the inputs"
    return None


def _csv_rows(path: Path) -> tuple[list[str], list[dict[str, str]]]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def child_seed(master: int, index: int) -> int:
    """Child seed of run ``index``, derived independently of the program."""
    ss = np.random.SeedSequence(master, spawn_key=(index,))
    return int(ss.generate_state(1, np.uint64)[0])


def _ensemble(job: Job) -> str | None:
    header, rows = _csv_rows(job.outputs["ensemble_csv"])
    if header[:2] != ["run", "seed"] or header[-1] != "error":
        return f"unexpected ensemble header {header}"
    if len(rows) != job.facts["seeds"]:
        return f"{len(rows)} rows for {job.facts['seeds']} seeds"
    for i, row in enumerate(rows):
        if row["error"]:
            continue  # counted by failed_games
        if int(row["run"]) != i or int(row["seed"]) != child_seed(job.seed, i):
            return f"row {i}: run index or child seed out of order"
        total = float(row["o_m1"]) + float(row["o_m2"])
        if abs(total - job.facts["N"]) > 1e-9 * job.facts["N"]:
            return f"row {i}: mean occupancies sum to {total}, not N"
        if float(row["o_big"]) < float(row["o_small"]) or row["big_market"] not in ("0", "1"):
            return f"row {i}: big/small market labels inconsistent"
    return None


def _sweep(job: Job) -> str | None:
    header, rows = _csv_rows(job.outputs["sweep_csv"])
    if header[:2] != ["N", "Q"] or header[-1] != "n_failed":
        return f"unexpected sweep header {header}"
    values = sorted(job.facts["values"])
    if [int(r["N"]) for r in rows] != values:
        return f"sweep rows {[r['N'] for r in rows]} are not in Q order {values}"
    qs = [float(r["Q"]) for r in rows]
    if qs != [v / (1 << MEMORY) for v in values]:
        return f"Q column {qs} does not match N / 2^m"
    for r in rows:
        if int(r["n_seeds"]) != job.facts["seeds"]:
            return f"N={r['N']}: n_seeds {r['n_seeds']}"
        total = float(r["o_m1_mean"]) + float(r["o_m2_mean"])
        if abs(total - int(r["N"])) > 1e-9 * int(r["N"]):
            return f"N={r['N']}: mean occupancies sum to {total}"
    return None


def failed_games(job: Job) -> int:
    """Games the outputs report as failed: a non-empty ensemble ``error``
    or a sweep ``n_failed`` above 0."""
    if "ensemble_csv" in job.outputs:
        return sum(1 for row in _csv_rows(job.outputs["ensemble_csv"])[1] if row["error"])
    if "sweep_csv" in job.outputs:
        return sum(int(row["n_failed"]) for row in _csv_rows(job.outputs["sweep_csv"])[1])
    return 0


def full_checks(job: Job, pinned: bool) -> list[tuple[str, str | None]]:
    """Every check of a repetition's outputs; ``pinned`` adds the sha256 pins."""
    checks = []
    if "manifest" in job.outputs:
        checks += [("record_invariants", _record_invariants), ("manifest_hash", _manifest)]
    if "ensemble_csv" in job.outputs:
        checks.append(("ensemble_rows", _ensemble))
    if "sweep_csv" in job.outputs:
        checks.append(("sweep_rows", _sweep))
    results = []
    for name, fn in checks:
        try:
            results.append((name, fn(job)))
        except Exception as exc:  # noqa: BLE001 - a malformed output is a failed check
            results.append((name, f"{type(exc).__name__}: {exc}"))
    if pinned:
        got = file_hashes(job)
        for kind, want in PINNED[job.name].items():
            results.append((f"pinned_sha256:{kind}",
                            None if got.get(kind) == want else f"{got.get(kind)} != pinned {want}"))
    return results
