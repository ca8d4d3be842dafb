"""Ensemble orchestration: multi-seed runs, parameter sweeps, figure data.

Every ensemble derives one child seed per run index from the master seed,
so per-run results never move when the ensemble grows and aggregation in
run-index order is deterministic. Failed runs are kept in the output with
their error message instead of aborting the ensemble.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import ConfigError, GameConfig
from .engine import RunRecords, init_game, run, step
from .metrics import (
    CriticalFluctuation,
    SeriesStats,
    big_small_markets,
    classify_mode,
    detect_critical_history,
    fluctuation_frequency,
    mean_c_at_recurrence,
    mu_histogram,
    relaxation_time,
    resolve_window,
    series_stats,
    split_detected,
)
from .rng import subseed

__all__ = [
    "RunSummary",
    "SweepSpec",
    "summarize_run",
    "check_run",
    "ensemble_run",
    "summary_table",
    "sweep_row",
    "q_sweep",
    "estimate_critical_q",
    "figure_dataset",
    "FIGURE_NAMES",
]


@dataclass(eq=False)
class RunSummary:
    """Stationary-regime observables of one seeded run, and its game (a failed run's too)."""

    run_index: int
    config: GameConfig
    stats: SeriesStats | None = None
    big_market: int | None = None
    small_market: int | None = None
    split: bool | None = None
    mode: str | None = None
    tau0: int | None = None
    nu: float | None = None
    critical: CriticalFluctuation | None = None
    mean_c_at_recurrence: float | None = None
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None


def summarize_run(
    records: RunRecords,
    run_index: int = 0,
    window: tuple[int, int] | None = None,
) -> RunSummary:
    """Condense one run's records into the standard summary of their game."""
    stats = series_stats(records, window)
    big, small = big_small_markets(stats)
    split = split_detected(records, window)
    tau0 = relaxation_time(records)
    nu = fluctuation_frequency(records, big, window)
    crit = detect_critical_history(records, big)
    return RunSummary(
        run_index=run_index,
        config=records.config,
        stats=stats,
        big_market=big,
        small_market=small,
        split=split,
        mode=classify_mode(stats, split),
        tau0=tau0,
        nu=nu,
        critical=crit,
        mean_c_at_recurrence=mean_c_at_recurrence(records, crit),
    )


def check_run(cfg: GameConfig, ticks: int | None, n_seeds: int | None = None,
              window: tuple[int, int] | None = None) -> None:
    """Refuse, with a ConfigError naming the key, a ``ticks``, ``n_seeds`` or
    ``window`` no ensemble of ``cfg`` can use; None is unchecked."""
    if n_seeds is not None:
        GameConfig.check_counts(seeds=n_seeds)
    if ticks is not None:
        cfg.check_ticks(ticks)
    if window is not None:
        resolve_window(ticks, window)


def ensemble_run(
    cfg: GameConfig,
    ticks: int,
    n_seeds: int,
    window: tuple[int, int] | None = None,
) -> list[RunSummary]:
    """Run ``n_seeds`` independent games on substreams of ``cfg.seed``.

    A run that raises is recorded as failed and does not abort the rest; a
    bad ``ticks``, ``n_seeds`` or ``window`` raises ConfigError
    (``check_run``) before the first.
    """
    check_run(cfg, ticks, n_seeds, window)
    out: list[RunSummary] = []
    for i in range(n_seeds):
        game = replace(cfg, seed=subseed(cfg.seed, i))
        try:
            out.append(summarize_run(run(game, ticks), i, window))
        except Exception as exc:  # noqa: BLE001 - per-seed isolation is the contract
            out.append(RunSummary(run_index=i, config=game, error=f"{type(exc).__name__}: {exc}"))
    return out


@dataclass(frozen=True)
class SweepSpec:
    """The games of a one-parameter sweep; ``q_sweep`` takes the run keys.

    The base game sets the parameter: a regular base sweeps N (total
    population), an irregular one n1 (exclusive population, at the base's
    n2). A sweep checks itself when built: values that are empty or repeat,
    or a swept game without an agent, raise ConfigError naming ``values``;
    then every swept game is built, so a bad one names its own key.
    """

    base: GameConfig
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        values = list(self.values)
        if not values or len(set(values)) < len(values):  # a repeat replays the same seeds
            raise ConfigError(f"values: need distinct values, at least one, got {values}")
        # every swept game needs N >= 1; an n1 sweep keeps the base's n2 = N - n1
        n1 = self.base.n_exclusive
        low = 1 if n1 is None else max(0, 1 - self.base.n_agents + n1)
        if min(values) < low:
            raise ConfigError(f"values: every game needs an agent, so values >= {low}, "
                              f"got {min(values)}")
        self.configs()  # each swept game checks itself as it is built

    def configs(self) -> list[GameConfig]:
        if self.base.n_exclusive is None:
            return [replace(self.base, n_agents=v) for v in self.values]
        n2 = self.base.n_agents - self.base.n_exclusive
        return [replace(self.base, n_agents=v + n2, n_exclusive=v) for v in self.values]


Table = dict[str, np.ndarray]


def _mean_std(column: np.ndarray) -> tuple[float, float]:
    """Mean and sample std of the cells that are not NaN; the std of one
    cell is 0, and both are NaN without a cell."""
    values = column[~np.isnan(column)]
    if not len(values):
        return float("nan"), float("nan")
    return float(values.mean()), float(values.std(ddof=1)) if len(values) > 1 else 0.0


def sweep_row(summaries: list[RunSummary]) -> dict[str, float]:
    """Reduce the per-seed table of one swept game to one sweep row.

    The game gives the value column and value, ``N`` of a regular game or
    ``N1`` (its n1) of an irregular one, and Q = value / 2**m. Every
    observable of ``summary_table`` (then ``o_m{k}`` and ``var_m{k}`` market
    by market) gets the mean and std of its defined cells, so failed runs,
    and runs without a tau0, drop out; ``tau0_defined`` counts the runs with
    a tau0. 'big'/'small' follow each run's own labeling.
    """
    cfg = summaries[0].config
    value_col, value = ("N", cfg.n_agents) if cfg.n_exclusive is None else ("N1", cfg.n_exclusive)
    per_seed = summary_table(summaries)
    ok = per_seed["error"] == ""
    if not ok.any():
        raise RuntimeError(f"all {len(summaries)} runs failed at value {value}")
    names = ["o_big", "o_small", "var_big", "var_small", "nu", "tau0"]
    names += [f"{x}_m{k + 1}" for k in range(cfg.n_markets) for x in ("o", "var")]
    row: dict[str, float] = {value_col: value, "Q": value / (1 << cfg.memory)}
    for name in names:
        row[f"{name}_mean"], row[f"{name}_std"] = _mean_std(per_seed[name])
    row["tau0_defined"] = int(np.count_nonzero(~np.isnan(per_seed["tau0"])))
    row["split_fraction"] = float(per_seed["split"][ok].mean())
    row["n_seeds"] = len(summaries)
    row["n_failed"] = int(np.count_nonzero(~ok))
    return row


def q_sweep(
    spec: SweepSpec,
    ticks: int,
    n_seeds: int,
    window: tuple[int, int] | None = None,
) -> Table:
    """``ensemble_run`` at every swept value, one ``sweep_row`` each, rows
    ordered by Q; the value column is ``N``, or ``N1`` for an n1 sweep. A bad
    run key raises ConfigError before the first game; ``spec`` checked itself
    when it was built."""
    check_run(spec.base, ticks, n_seeds, window)
    rows = sorted((sweep_row(ensemble_run(cfg, ticks, n_seeds, window)) for cfg in spec.configs()),
                  key=lambda row: row["Q"])
    return {col: np.array([row[col] for row in rows]) for col in rows[0]}


#: The split fractions ``estimate_critical_q`` looks for a crossing between.
CRITICAL_LOW = 0.25
CRITICAL_HIGH = 0.75


def estimate_critical_q(table: Table) -> float | None:
    """Midpoint of the narrowest Q interval over which the split fraction
    crosses from below ``CRITICAL_LOW`` to above ``CRITICAL_HIGH``; None when it
    never does. Reads the ``Q`` and ``split_fraction`` columns of a sweep table."""
    pts = sorted(zip(table["Q"].tolist(), table["split_fraction"].tolist()), key=lambda p: p[0])
    best: tuple[float, float] | None = None
    for i, (qa, fa) in enumerate(pts):
        if fa >= CRITICAL_LOW:
            continue
        for qb, fb in pts[i + 1 :]:
            if fb > CRITICAL_HIGH:
                width = qb - qa
                if best is None or width < best[0]:
                    best = (width, (qa + qb) / 2)
                break
    return None if best is None else best[1]


# --- figure datasets -------------------------------------------------------

#: Config keys each figure reads besides ``seed``, with their defaults. A
#: figure whose default ``values`` holds one population plays one game.
_FIGURES = {
    "fig3": dict(T=5000, values=(11, 253, 1447)),
    "fig4": dict(T=5000, values=(11, 253, 1447)),
    "fig5": dict(T=300, values=(1600,)),
    "fig6": dict(T=300, values=(1600,)),
    "fig6_0": dict(T=5000, values=(1447, 11)),
    "fig6_1": dict(T=5000, values=(253, 362, 512, 724, 1024, 1447, 2048), seeds=10),
    "fig7": dict(T=5000, values=(11, 64, 128, 256, 512, 1024, 1447), seeds=10),
    "fig8": dict(T=5000, values=(301, 1000, 3000, 10000), seeds=10, n2=301),
    "fig010": dict(T=5000, values=(3001,)),
}
FIGURE_NAMES = tuple(_FIGURES)


def _records_table(cfgs: list[GameConfig], ticks: int, names: tuple[str, ...]) -> Table:
    """The ``names`` columns of one run per config, stacked in config order:
    ``N`` (the run's population), ``t``, ``O{k}`` and ``A{k}`` (occupancy
    and demand of market k) and ``C`` (switch count)."""
    runs = []
    for cfg in cfgs:
        rec = run(cfg, ticks)  # refuses a bad T before the N column is built
        columns = {"N": np.full(ticks, cfg.n_agents), "t": rec.t, "C": rec.n_switched}
        for k in range(cfg.n_markets):
            columns[f"O{k + 1}"] = rec.occupancy[:, k]
            columns[f"A{k + 1}"] = rec.demand[:, k]
        runs.append([columns[name] for name in names])
    return {name: np.concatenate(chunks) for name, chunks in zip(names, zip(*runs))}


def _fig6_table(cfg: GameConfig, ticks: int) -> Table:
    """Utility traces of three agents picked by how many of their two
    strategies on the first fluctuating market won at the fluctuation tick
    (2, 1, 0); lowest agent index represents each class. The first is the
    earliest fluctuation, on the lowest market of equals. The traces replay
    the game through ``step``. Needs s = 2."""
    if cfg.n_strategies != 2:
        raise ConfigError(f"s: fig6 classes agents by 2, 1 or 0 good strategies of two, "
                          f"so it needs s = 2, got {cfg.n_strategies}")
    records = run(cfg, ticks)
    firsts = [detect_critical_history(records, k) for k in range(cfg.n_markets)]
    crit = min(filter(None, firsts), key=lambda crit: crit.first_tick, default=None)
    if crit is None:
        raise RuntimeError(
            "no large fluctuation within the run; lengthen it or change the seed"
        )
    # float64 scores, as ``run``'s may not be: -inf in the unlinked entries
    state = init_game(cfg)
    winner = records.minority[crit.first_tick, crit.market]
    n_good = (state.tables[state.market_rows[crit.market] + crit.history] == winner).sum(axis=0)
    picks = [
        (klass, int(np.flatnonzero(n_good == count)[0]))
        for count, klass in ((2, "both-good"), (1, "one-good"), (0, "none-good"))
        if (n_good == count).any()
    ]

    # (K*s, picks, T+1) scores of the picked agents before each tick and after the last
    agents = [agent for _, agent in picks]
    traces = np.empty((len(state.scores), len(agents), ticks + 1))
    traces[:, :, 0] = state.scores[:, agents]
    replay = RunRecords.empty(cfg, 1)  # each tick overwrites row 0
    for i in range(ticks):
        step(state, replay, 0)
        traces[:, :, i + 1] = state.scores[:, agents]
    table: Table = {
        "klass": np.repeat([klass for klass, _ in picks], ticks + 1),
        "agent": np.repeat(agents, ticks + 1),
        "t": np.tile(np.arange(ticks + 1), len(picks)),
    }
    for j, column in enumerate(traces.reshape(len(traces), -1)):
        table[f"U_m{j // 2 + 1}_s{j % 2 + 1}"] = column
    return table


def _fig6_0_tables(cfgs: list[GameConfig], ticks: int) -> dict[str, Table]:
    out: dict[str, Table] = {}
    for cfg in cfgs:
        rec = run(cfg, ticks)
        stats = series_stats(rec, window=(0, ticks))
        big, small = big_small_markets(stats)
        for label, k in (("big", big), ("small", small)):
            h = mu_histogram(rec, k, window=(0, ticks))
            out[f"fig6_0_N{cfg.n_agents}_{label}"] = {
                "mu": np.arange(len(h.counts)),
                "count": h.counts,
                "p": h.p,
            }
    return out


def summary_table(summaries: list[RunSummary]) -> Table:
    """One row per run, in run-index order; the games give the seeds and K.

    A failed run keeps its run index, seed and error; its other cells are
    NaN or "", which render empty. ``seed`` stays uint64: child seeds
    exceed 2**53, which a float column would round.
    """

    def floats(get) -> np.ndarray:  # None and failed runs give NaN
        values = [None if s.failed else get(s) for s in summaries]
        return np.array([np.nan if v is None else float(v) for v in values])

    table: Table = {
        "run": np.array([s.run_index for s in summaries]),
        "seed": np.array([s.config.seed for s in summaries], dtype=np.uint64),
        "big_market": floats(lambda s: s.big_market),
        "split": floats(lambda s: s.split),
        "mode": np.array([s.mode or "" for s in summaries]),
        "tau0": floats(lambda s: s.tau0),
        "nu": floats(lambda s: s.nu),
        "o_big": floats(lambda s: s.stats.mean_occupancy[s.big_market]),
        "o_small": floats(lambda s: s.stats.mean_occupancy[s.small_market]),
        "var_big": floats(lambda s: s.stats.per_capita_var[s.big_market]),
        "var_small": floats(lambda s: s.stats.per_capita_var[s.small_market]),
    }
    k_markets = max((s.config.n_markets for s in summaries), default=0)
    for k in range(k_markets):
        table[f"o_m{k + 1}"] = floats(lambda s: s.stats.mean_occupancy[k])
    for k in range(k_markets):
        table[f"var_m{k + 1}"] = floats(lambda s: s.stats.per_capita_var[k])
    table["critical_mu"] = floats(lambda s: None if s.critical is None else s.critical.history)
    table["n_recurrences"] = floats(
        lambda s: 0 if s.critical is None else len(s.critical.recurrences)
    )
    table["mean_c_at_recurrence"] = floats(lambda s: s.mean_c_at_recurrence)
    table["error"] = np.array([s.error or "" for s in summaries])
    return table


def figure_dataset(name: str, **overrides) -> dict[str, Table]:
    """Dataset behind a canned experiment, keyed by output file stem.

    Overrides are config keys: ``seed`` (master, >= 0) and the figure's
    keys in ``_FIGURES``. An unknown one, ``values`` that is not a list or
    tuple, an entry that is not an integer, more than one value for a
    figure that plays one game (fig5, fig6, fig010), a negative fig8 ``n2``,
    and what ``SweepSpec`` refuses in the figure's games or ``check_run`` in
    its run keys raise ConfigError before any game.
    """
    if name not in _FIGURES:
        raise ValueError(f"unknown figure {name!r}; known: {', '.join(FIGURE_NAMES)}")
    known = {"seed", *_FIGURES[name]}
    unused = sorted(set(overrides) - known)
    if unused:
        raise ConfigError(
            f"{unused[0]}: {name} does not use it; it reads {', '.join(sorted(known))}"
        )
    opts = {"seed": 0, "seeds": 1, **_FIGURES[name], **overrides}
    if not isinstance(opts["values"], (list, tuple)):  # "8,16" is not [8, 16]
        raise ConfigError(f"values: expected a list of integers, got {opts['values']!r}")
    for key, value in opts.items():  # refused, not truncated: 40.7 is not T=40
        for entry in value if key == "values" else (value,):
            GameConfig.check_kind(key, entry, int)
    seed = int(opts["seed"])
    game = {"fig5": dict(init_utilities="uniform"), "fig6": dict(init_utilities="uniform"),
            "fig010": dict(n_markets=3)}.get(name, {})
    base = GameConfig(n_agents=11, seed=seed, **game)
    if name == "fig8":  # the sweep replaces n1, keeping n2; n1 = 1 gives n2 = 0 an agent
        n1 = int(opts["n2"] == 0)
        base = GameConfig(n_agents=GameConfig.check_irregular(n1, int(opts["n2"])), seed=seed,
                          n_exclusive=n1)
    values = tuple(int(v) for v in opts["values"])
    if len(_FIGURES[name]["values"]) == 1 and len(values) != 1:
        raise ConfigError(f"values: {name} plays one game and takes one value, got {values}")
    ticks, n_seeds = int(opts["T"]), int(opts["seeds"])
    spec = SweepSpec(base, values)
    check_run(base, ticks, n_seeds)

    if name in ("fig6_1", "fig7", "fig8"):
        table = q_sweep(spec, ticks, n_seeds)
        if name == "fig6_1":  # relaxation time against Q
            table["n_defined"] = table["tau0_defined"]
            keep = ("Q", "N", "tau0_mean", "tau0_std", "n_defined", "n_seeds")
            table = {col: table[col] for col in keep}
        return {name: table}

    cfgs = [replace(cfg, seed=subseed(seed, i)) for i, cfg in enumerate(spec.configs())]
    if name == "fig6":
        return {name: _fig6_table(cfgs[0], ticks)}
    if name == "fig6_0":
        return _fig6_0_tables(cfgs, ticks)
    columns = {
        "fig3": ("N", "t", "O1", "O2"),
        "fig4": ("N", "t", "A1", "A2"),
        "fig5": ("t", "O1", "O2", "A1", "A2", "C"),
        "fig010": ("t", "A1", "A2", "A3", "O1", "O2", "O3"),
    }
    return {name: _records_table(cfgs, ticks, columns[name])}
