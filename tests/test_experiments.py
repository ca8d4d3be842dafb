import importlib.util
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from mmg import (
    ConfigError,
    GameConfig,
    RunSummary,
    SweepSpec,
    ensemble_run,
    estimate_critical_q,
    figure_dataset,
    init_game,
    metrics,
    q_sweep,
    run,
    subseed,
    summarize_run,
)
from mmg.experiments import FIGURE_NAMES, _FIGURES, _fig6_table, summary_table, sweep_row
from mmg.io import FILE_KEYS, render_table


def tiny_cfg(**kw):
    defaults = dict(n_agents=9, seed=17, memory=3)
    defaults.update(kw)
    return GameConfig(**defaults)


class Played(BaseException):
    """Raised in place of a game; no ``except Exception`` catches it."""


def no_game(*args, **kwargs):
    raise Played


class TestEnsembleRun:
    def test_repeatable(self):
        a = ensemble_run(tiny_cfg(), 40, 4)
        b = ensemble_run(tiny_cfg(), 40, 4)
        assert [s.config.seed for s in a] == [s.config.seed for s in b]
        for x, y in zip(a, b):
            assert np.array_equal(x.stats.mean_occupancy, y.stats.mean_occupancy)
            assert x.nu == y.nu and x.tau0 == y.tau0 and x.split == y.split

    def test_single_seed_matches_direct_run(self):
        cfg = tiny_cfg()
        summaries = ensemble_run(cfg, 50, 1)
        child = subseed(cfg.seed, 0)
        direct = summarize_run(
            run(GameConfig(**{**cfg.__dict__, "seed": child}), 50),
            run_index=0,
        )
        got = summaries[0]
        assert got.config.seed == child
        assert got.config == replace(cfg, seed=child)  # the game played
        assert np.array_equal(got.stats.mean_occupancy, direct.stats.mean_occupancy)
        assert got.nu == direct.nu and got.big_market == direct.big_market

    def test_adding_seeds_keeps_existing_runs(self):
        short = ensemble_run(tiny_cfg(), 30, 3)
        longer = ensemble_run(tiny_cfg(), 30, 5)
        for a, b in zip(short, longer):
            assert a.config.seed == b.config.seed
            assert np.array_equal(a.stats.mean_occupancy, b.stats.mean_occupancy)

    def test_bad_seed_count(self):
        with pytest.raises(Exception):
            ensemble_run(tiny_cfg(), 10, 0)

    @pytest.mark.parametrize("ticks", [100_000_000_000, 0])
    def test_bad_ticks_raise_before_any_seed(self, monkeypatch, ticks):
        from mmg import experiments

        def no_game(cfg, ticks):
            raise AssertionError("a game was started")

        monkeypatch.setattr(experiments, "run", no_game)
        with pytest.raises(ConfigError, match="^T: "):
            ensemble_run(tiny_cfg(), ticks, 3)

    @pytest.mark.parametrize("kwargs, key", [
        (dict(window=(0, 500)), "window"),
        (dict(window=(30, 20)), "window"),
    ])
    def test_bad_window_raise_before_any_seed(self, monkeypatch, kwargs, key):
        # it is known before the first seed; a bad one would fail every seed after its game
        from mmg import experiments

        monkeypatch.setattr(experiments, "run", no_game)
        with pytest.raises(ConfigError, match=f"^{key}: "):
            ensemble_run(tiny_cfg(), 50, 2, **kwargs)

    @pytest.mark.parametrize("ticks, n_seeds, key", [
        (10.5, 2, "T"), (True, 2, "T"), ("10", 2, "T"), (10, True, "seeds"), (10, 2.0, "seeds"),
    ])
    def test_run_key_of_the_wrong_kind_names_it(self, monkeypatch, ticks, n_seeds, key):
        # refused before any seed, not recorded as failed seeds
        from mmg import experiments

        monkeypatch.setattr(experiments, "run", no_game)
        with pytest.raises(ConfigError, match=f"^{key}: expected an integer, got "):
            ensemble_run(tiny_cfg(), ticks, n_seeds)

    def test_numpy_run_keys_are_accepted(self):
        summaries = ensemble_run(tiny_cfg(), np.int64(20), np.int32(2))
        assert len(summaries) == 2 and not any(s.failed for s in summaries)

    def test_failure_keeps_exception_type(self, monkeypatch):
        from mmg import experiments

        def broken_run(cfg, ticks):
            raise TypeError("boom")

        monkeypatch.setattr(experiments, "run", broken_run)
        summaries = ensemble_run(tiny_cfg(), 10, 2)
        assert [s.error for s in summaries] == ["TypeError: boom"] * 2
        # a failed run keeps the game it was to play
        assert [s.config for s in summaries] == [
            replace(tiny_cfg(), seed=subseed(tiny_cfg().seed, i)) for i in range(2)]


class TestSummarizeRun:
    def test_detects_critical_history_once(self, monkeypatch):
        from mmg import experiments

        calls = []
        real = experiments.detect_critical_history

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments, "detect_critical_history", counting)
        summary = summarize_run(run(GameConfig(n_agents=11, seed=3, memory=2), 100))
        assert len(calls) == 1
        assert summary.critical is not None
        assert summary.mean_c_at_recurrence is not None

    def test_tau0_follows_the_records_game(self):
        # tau0 settles to the split levels of the records' own s: this s=3
        # game settles at tick 3, and never on the s=2 levels
        rec = run(GameConfig(n_agents=1447, seed=2, n_strategies=3, memory=3), 3000)
        assert summarize_run(rec).tau0 == 3
        relabelled = replace(rec, config=replace(rec.config, n_strategies=2))
        assert summarize_run(relabelled).tau0 is None

    def test_no_tau0_at_one_market(self):
        # a single-market game has no split, so a sweep row counts no tau0
        summaries = ensemble_run(GameConfig(n_agents=65, seed=5, n_markets=1, payoff="sign"),
                                 400, 3)
        assert [s.tau0 for s in summaries] == [None] * 3
        row = sweep_row(summaries)
        assert row["tau0_defined"] == 0 and np.isnan(row["tau0_mean"])


class TestSummaryTable:
    def test_columns_and_failed_row(self):
        ok = ensemble_run(tiny_cfg(n_markets=3), 40, 1)[0]
        failed = RunSummary(run_index=1, config=tiny_cfg(n_markets=3, seed=2**64 - 1),
                            error="E: a, b")
        table = summary_table([ok, failed])
        assert list(table)[:7] == ["run", "seed", "big_market", "split", "mode", "tau0", "nu"]
        assert [name for name in table if name.startswith("o_m")] == ["o_m1", "o_m2", "o_m3"]
        assert list(table)[-4:] == [
            "critical_mu", "n_recurrences", "mean_c_at_recurrence", "error",
        ]
        rows = render_table(table).splitlines()
        # a child seed above 2**53 prints exactly; the failed row is empty
        # but for run, seed and its quoted error
        assert rows[2] == "1,18446744073709551615," + "," * (len(table) - 3) + '"E: a, b"'
        assert rows[1].startswith(f"0,{ok.config.seed},{ok.big_market},")
        assert rows[1].endswith(",")


class TestQSweep:
    def test_single_value_equals_ensemble(self):
        spec = SweepSpec(base=tiny_cfg(), values=(9,))
        table = q_sweep(spec, 40, 3)
        assert len(table["N"]) == 1
        direct = sweep_row(ensemble_run(tiny_cfg(), 40, 3))
        assert list(table) == list(direct)
        assert table["o_big_mean"][0] == direct["o_big_mean"]
        assert table["o_big_std"][0] == direct["o_big_std"]
        assert table["split_fraction"][0] == direct["split_fraction"]

    @pytest.mark.parametrize("base, col, value", [
        (tiny_cfg(n_agents=12), "N", 12),
        (tiny_cfg(n_agents=12, n_exclusive=5), "N1", 5),
    ])
    def test_row_reads_value_and_q_from_the_game(self, base, col, value):
        # m=3: Q = N / 8 of a regular game and n1 / 8 of an irregular one
        row = sweep_row(ensemble_run(base, 30, 2))
        assert list(row)[:2] == [col, "Q"]
        assert row[col] == value and row["Q"] == value / 8

    def test_empty_values_raise_before_any_game(self, monkeypatch):
        from mmg import experiments

        monkeypatch.setattr(experiments, "run", no_game)
        with pytest.raises(ConfigError, match="^values:"):
            q_sweep(SweepSpec(base=tiny_cfg(), values=()), 30, 2)

    @pytest.mark.parametrize("base, values, key", [
        (tiny_cfg(), (9, 9), "values"),
        (tiny_cfg(n_agents=6, n_exclusive=3), (4, 0, 4), "values"),
        (tiny_cfg(), (9, 0), "values"),
        (tiny_cfg(n_agents=3, n_exclusive=3), (0, 4), "values"),
        (tiny_cfg(memory=20), (9, 2000), "m"),
    ])
    def test_bad_spec_raises_before_any_game(self, monkeypatch, base, values, key):
        # a repeated value would replay the same child seeds and give identical rows
        from mmg import experiments

        monkeypatch.setattr(experiments, "run", no_game)
        with pytest.raises(ConfigError, match=f"^{key}[:=]"):
            q_sweep(SweepSpec(base=base, values=values), 30, 2)

    @pytest.mark.parametrize("kwargs, key", [
        (dict(window=(0, 500)), "window"),
    ])
    def test_bad_window_raise_before_any_game(self, monkeypatch, kwargs, key):
        from mmg import experiments

        monkeypatch.setattr(experiments, "run", no_game)
        spec = SweepSpec(base=tiny_cfg(), values=(9,))
        with pytest.raises(ConfigError, match=f"^{key}: "):
            q_sweep(spec, 50, 2, **kwargs)

    def test_points_ordered_by_q(self):
        spec = SweepSpec(base=tiny_cfg(), values=(16, 4, 8))
        table = q_sweep(spec, 30, 2)
        assert table["N"].tolist() == [4, 8, 16]
        assert np.all(np.diff(table["Q"]) > 0)

    def test_big_plus_small_is_n(self):
        spec = SweepSpec(base=tiny_cfg(), values=(12,))
        table = q_sweep(spec, 60, 3)
        assert table["o_big_mean"][0] + table["o_small_mean"][0] == pytest.approx(12.0)

    def test_irregular_sweep_configs(self):
        base = tiny_cfg(n_agents=6, n_exclusive=3, n_markets=2)
        spec = SweepSpec(base=base, values=(2, 5))
        table = q_sweep(spec, 30, 2)
        assert table["N1"].tolist() == [2, 5]
        # all agents accounted for at each point
        total = table["o_m1_mean"] + table["o_m2_mean"]
        assert total == pytest.approx(table["N1"] + 3)

    def test_n1_sweep_of_a_base_without_exclusive_agents(self):
        # n_exclusive = 0 is an irregular base whose n2 is all N agents
        spec = SweepSpec(base=tiny_cfg(n_agents=5, n_exclusive=0), values=(0, 3))
        assert [(cfg.n_agents, cfg.n_exclusive) for cfg in spec.configs()] == [(5, 0), (8, 3)]

    def test_spec_is_refused_when_built(self):
        with pytest.raises(ConfigError, match="^values:"):
            SweepSpec(tiny_cfg(), (9, 9))

    def test_base_game_sets_the_parameter(self):
        assert [f.name for f in fields(SweepSpec)] == ["base", "values"]
        regular = SweepSpec(tiny_cfg(), (4, 8)).configs()
        assert [(cfg.n_agents, cfg.n_exclusive) for cfg in regular] == [(4, None), (8, None)]
        irregular = SweepSpec(tiny_cfg(n_agents=6, n_exclusive=2), (1, 5)).configs()
        assert [(cfg.n_agents, cfg.n_exclusive) for cfg in irregular] == [(5, 1), (9, 5)]


class TestRelaxationTrend:
    def test_tau0_decreases_with_q(self):
        # stabilization arrives sooner in larger populations; also defined
        # more often (frozen 6-seed ensembles, ~6s)
        means = {}
        defined_counts = {}
        for n in (724, 1447):
            summaries = ensemble_run(GameConfig(n_agents=n, seed=909), 3000, 6)
            taus = [s.tau0 for s in summaries if s.tau0 is not None]
            means[n] = np.mean(taus)
            defined_counts[n] = len(taus)
        assert means[1447] < means[724]
        assert defined_counts[1447] >= defined_counts[724]


class TestCriticalQEstimator:
    def table(self, fracs):
        return {
            "Q": np.array([q for q, _ in fracs], dtype=float),
            "split_fraction": np.array([f for _, f in fracs]),
        }

    def test_midpoint_of_narrowest_crossing(self):
        fracs = [(1, 0.0), (2, 0.1), (4, 0.5), (8, 0.9), (16, 1.0)]
        assert estimate_critical_q(self.table(fracs)) == (2 + 8) / 2

    def test_no_crossing(self):
        assert estimate_critical_q(self.table([(q, 0.5) for q in (1, 2, 4)])) is None

    def test_unsorted_input(self):
        fracs = [(8, 1.0), (1, 0.0), (4, 0.2)]
        assert estimate_critical_q(self.table(fracs)) == (4 + 8) / 2


class TestFigureDatasets:
    def test_fig5_columns(self):
        tables = figure_dataset("fig5", T=40, values=[24], seed=3)
        table = tables["fig5"]
        assert list(table) == ["t", "O1", "O2", "A1", "A2", "C"]
        assert all(len(v) == 40 for v in table.values())

    def test_fig3_stacks_populations(self):
        tables = figure_dataset("fig3", T=15, values=[5, 9], seed=1)
        table = tables["fig3"]
        assert list(table) == ["N", "t", "O1", "O2"]
        assert len(table["t"]) == 30
        assert set(table["N"]) == {5, 9}
        assert np.all(table["O1"] + table["O2"] == table["N"])

    def test_fig6_0_yields_four_histograms(self):
        tables = figure_dataset("fig6_0", T=64, values=[9, 5], seed=2)
        assert len(tables) == 4
        for stem, table in tables.items():
            assert stem.startswith("fig6_0_N")
            assert list(table) == ["mu", "count", "p"]
            assert table["count"].sum() == 64

    def test_fig6_classes_and_trace_length(self, monkeypatch):
        monkeypatch.setattr(metrics, "THETA", 0.7)  # 200 agents seldom fluctuate by 0.9 O
        tables = figure_dataset("fig6", T=120, values=[200], seed=0)
        table = tables["fig6"]
        assert set(table) == {
            "klass", "agent", "t", "U_m1_s1", "U_m1_s2", "U_m2_s1", "U_m2_s2",
        }
        classes = set(table["klass"])
        assert classes <= {"both-good", "one-good", "none-good"}
        assert len(table["t"]) % 121 == 0

    def test_fig6_refuses_other_strategy_counts(self):
        # the classes count good strategies out of two: at s=3 "both-good"
        # would mean two of three, and an agent with all three good would
        # fall in no class
        for s in (3, 1):
            cfg = GameConfig(n_agents=200, seed=subseed(0, 0), n_strategies=s,
                             init_utilities="uniform")
            with pytest.raises(ConfigError, match="^s:"):
                _fig6_table(cfg, 120)

    def test_fig6_without_fluctuation_raises(self):
        with pytest.raises(RuntimeError):
            figure_dataset("fig6", T=3, values=[64], seed=6)

    def test_fig010_three_markets(self):
        tables = figure_dataset("fig010", T=25, values=[13], seed=4)
        table = tables["fig010"]
        assert list(table) == ["t", "A1", "A2", "A3", "O1", "O2", "O3"]
        assert np.all(table["O1"] + table["O2"] + table["O3"] == 13)

    def test_fig7_sweep_table(self):
        tables = figure_dataset("fig7", T=40, values=[8, 16], seeds=2, seed=5)
        table = tables["fig7"]
        assert table["N"].tolist() == [8, 16]
        assert "split_fraction" in table and "var_big_mean" in table

    def test_fig6_1_rows_follow_q(self):
        table = figure_dataset("fig6_1", T=60, values=[16, 8], seeds=2, seed=5)["fig6_1"]
        assert list(table) == ["Q", "N", "tau0_mean", "tau0_std", "n_defined", "n_seeds"]
        assert table["N"].tolist() == [8, 16]
        assert table["Q"].tolist() == [0.25, 0.5]
        assert table["n_seeds"].tolist() == [2, 2]

    def test_quick_overrides_cover_every_figure(self):
        path = Path(__file__).resolve().parents[1] / "scripts" / "run_figures.py"
        spec = importlib.util.spec_from_file_location("run_figures", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert set(module.QUICK_OVERRIDES) == set(FIGURE_NAMES)
        for name, overrides in module.QUICK_OVERRIDES.items():
            assert set(overrides) <= set(_FIGURES[name]), name
        # every input of a figure is a config key, under the config key's name
        for name, keys in _FIGURES.items():
            assert {"seed", *keys} <= set(FILE_KEYS), name

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            figure_dataset("fig99")

    def test_unused_override_rejected(self):
        with pytest.raises(ValueError):
            figure_dataset("fig5", T=10, values=[8], bogus=1)

    @pytest.mark.parametrize("name", ["fig5", "fig6", "fig010"])
    @pytest.mark.parametrize("values", [[24, 300], []])
    def test_one_game_figures_take_one_value(self, name, values):
        # these figures play one game; extra values were silently dropped
        with pytest.raises(ConfigError, match="^values:"):
            figure_dataset(name, T=10, values=values, seed=3)

    @pytest.mark.parametrize("name", FIGURE_NAMES)
    def test_empty_values_raise_before_any_game(self, monkeypatch, name):
        from mmg import experiments

        monkeypatch.setattr(experiments, "run", no_game)
        with pytest.raises(ConfigError, match="^values:"):
            figure_dataset(name, T=10, values=[], seed=3)

    @pytest.mark.parametrize("name", ["fig3", "fig6_0", "fig7"])
    def test_repeated_values_raise_before_any_game(self, monkeypatch, name):
        # fig6_0 keys its tables by N, so a repeated N dropped a game; fig3
        # gave two blocks under one N, and a sweep the same ensemble twice
        from mmg import experiments

        monkeypatch.setattr(experiments, "run", no_game)
        with pytest.raises(ConfigError, match="^values:"):
            figure_dataset(name, T=10, values=[11, 11], seed=3)

    def test_deterministic(self):
        a = figure_dataset("fig5", T=30, values=[16], seed=8)["fig5"]
        b = figure_dataset("fig5", T=30, values=[16], seed=8)["fig5"]
        for key in a:
            assert np.array_equal(a[key], b[key])

    @pytest.mark.parametrize("name, overrides, key, got", [
        ("fig5", dict(T=40.7), "T", "40.7"),
        ("fig5", dict(values=[24.9]), "values", "24.9"),
        ("fig5", dict(seed=True), "seed", "True"),
        ("fig5", dict(seed=3.0), "seed", "3.0"),
        ("fig7", dict(seeds=2.5), "seeds", "2.5"),
        ("fig7", dict(values=[8, "16"]), "values", "'16'"),
        ("fig8", dict(n2=5.5), "n2", "5.5"),
    ])
    def test_non_integer_entries_refused_before_any_game(self, monkeypatch, name, overrides,
                                                         key, got):
        # int() truncated these: T=40.7 played 40 ticks and seed=True seed 1
        from mmg import experiments

        monkeypatch.setattr(experiments, "run", no_game)
        with pytest.raises(ConfigError, match=f"^{key}: expected an integer, got {got}$"):
            figure_dataset(name, **{"T": 40, "values": [24], "seed": 3, **overrides})

    @pytest.mark.parametrize("values", [8, "8,16", {8, 16}, None], ids=repr)
    def test_values_must_be_a_list_or_tuple(self, monkeypatch, values):
        # an int raised TypeError, and "8,16" was read character by character
        from mmg import experiments

        monkeypatch.setattr(experiments, "run", no_game)
        with pytest.raises(ConfigError, match=f"^values: expected a list of integers, got "
                                              f"{re.escape(repr(values))}$"):
            figure_dataset("fig7", values=values, T=20, seeds=1)

    @pytest.mark.parametrize("n2, values", [(-3, [10]), (-1, [1])])
    def test_fig8_names_a_bad_n2(self, monkeypatch, n2, values):
        # the n1 bound or the values bound was named instead
        from mmg import experiments

        monkeypatch.setattr(experiments, "run", no_game)
        with pytest.raises(ConfigError, match=f"^n2: must be >= 0, got {n2}$"):
            figure_dataset("fig8", n2=n2, values=values, T=20, seeds=1)

    def test_fig8_without_shared_agents(self):
        # n2 = 0: every agent is exclusive to market 0
        table = figure_dataset("fig8", n2=0, values=[3], T=20, seeds=1)["fig8"]
        assert table["N1"].tolist() == [3]
        assert table["o_m1_mean"].tolist() == [3.0] and table["o_m2_mean"].tolist() == [0.0]


def closed_form_fig6(cfg: GameConfig, ticks: int, theta: float) -> dict:
    """fig6 from the closed form U(t) = U(0) - cumsum(a(mu_t) * g(A_t)) over
    the run's records, starting from ``init_game(cfg)``."""
    records = run(cfg, ticks)
    state = init_game(cfg)
    occ, dem = records.occupancy, records.demand
    large = (occ > 0) & (np.abs(dem) >= theta * occ)
    assert large.any(), "the game must fluctuate"
    t1, k_star = np.unravel_index(np.argmax(large), large.shape)
    winner = records.minority[t1, k_star]
    block = state.tables[state.market_rows[k_star] + records.history[t1, k_star]]
    n_good = (block == winner).sum(axis=0)
    picks = [
        (klass, int(np.flatnonzero(n_good == count)[0]))
        for count, klass in ((2, "both-good"), (1, "one-good"), (0, "none-good"))
        if (n_good == count).any()
    ]
    gain = {
        "linear": dem.astype(np.float64),
        "sign": np.sign(dem).astype(np.float64),
        "scaled": dem / cfg.n_agents,
    }[cfg.payoff][:, :, None]
    _, k_markets, s = state.utilities.shape
    traces = []
    for _, agent in picks:
        steps = -state.tables[state.market_rows + records.history, :, agent] * gain
        utilities = np.cumsum(np.concatenate([state.utilities[agent][None], steps]), axis=0)
        traces.append(utilities.reshape(ticks + 1, k_markets * s))
    columns = np.concatenate(traces)
    table = {
        "klass": np.repeat([klass for klass, _ in picks], ticks + 1),
        "agent": np.repeat([agent for _, agent in picks], ticks + 1),
        "t": np.tile(np.arange(ticks + 1), len(picks)),
    }
    for j in range(k_markets * s):
        table[f"U_m{j // s + 1}_s{j % s + 1}"] = columns[:, j]
    return table


# (config, ticks, theta); ``metrics.THETA`` is patched to each game's theta,
# low enough for its small game to fluctuate. The irregular game has
# unlinked entries, which hold -inf in the float64 scores of ``init_game(cfg)``
FIG6_GAMES = {
    "default": (GameConfig(n_agents=1600, seed=subseed(0, 0), init_utilities="uniform"),
                300, 0.9),
    "K3-uniform": (GameConfig(n_agents=300, seed=1, n_markets=3, init_utilities="uniform"),
                   2000, 0.5),
    "irregular": (GameConfig(n_agents=200, seed=1, n_exclusive=150),
                  2000, 0.5),
    "scaled": (GameConfig(n_agents=300, seed=1, payoff="scaled"), 2000, 0.5),
    "sign": (GameConfig(n_agents=300, seed=1, payoff="sign"), 2000, 0.5),
}


@pytest.mark.parametrize("game", sorted(FIG6_GAMES))
def test_fig6_matches_closed_form(monkeypatch, game):
    cfg, ticks, theta = FIG6_GAMES[game]
    monkeypatch.setattr(metrics, "THETA", theta)
    expected = render_table(closed_form_fig6(cfg, ticks, theta))
    assert render_table(_fig6_table(cfg, ticks)) == expected
