import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmg import ConfigError, GameConfig, RunRecords, metrics, run
from mmg.config import MAX_TABLE_BYTES
from mmg.rng import subseed
from mmg.metrics import (
    big_small_markets,
    classify_mode,
    detect_critical_history,
    fluctuation_frequency,
    mean_c_at_recurrence,
    mu_histogram,
    predicted_irregular,
    predicted_occupancies,
    relaxation_time,
    resolve_window,
    series_stats,
    split_detected,
)


def make_records(occupancy, demand, history=None, n_switched=None, memory=5):
    occupancy = np.asarray(occupancy, dtype=np.int64)
    demand = np.asarray(demand, dtype=np.int64)
    ticks, k = occupancy.shape
    if history is None:
        history = np.zeros((ticks, k), dtype=np.int64)
    if n_switched is None:
        n_switched = np.zeros(ticks, dtype=np.int64)
    return RunRecords(
        # a game has an agent: an all-empty first row stands for one
        config=GameConfig(n_agents=int(occupancy[0].sum()) or 1, seed=0, n_markets=k,
                          memory=memory),
        occupancy=occupancy,
        demand=demand,
        minority=np.where(demand > 0, -1, 1).astype(np.int64),
        history=np.asarray(history, dtype=np.int64),
        n_switched=np.asarray(n_switched, dtype=np.int64),
        n_tied=np.zeros(ticks, dtype=np.int64),
    )


class TestSeriesStats:
    def test_constant_series(self):
        rec = make_records([[1200, 400]] * 10, [[0, 0]] * 10)
        st_ = series_stats(rec, (0, 10))
        assert st_.mean_occupancy.tolist() == [1200.0, 400.0]
        assert st_.per_capita_var.tolist() == [0.0, 0.0]

    def test_alternating_demand(self):
        demand = [[2, 0], [-2, 0]] * 5
        rec = make_records([[4, 0]] * 10, demand)
        st_ = series_stats(rec, (0, 10))
        assert st_.per_capita_var[0] == 1.0
        assert st_.per_capita_var[1] == 0.0  # empty market pins 0/0 to 0

    def test_default_window_is_last_half(self):
        rec = make_records([[10, 0]] * 8 + [[0, 10]] * 8, [[0, 0]] * 16)
        st_ = series_stats(rec)
        assert st_.window == (8, 16)
        assert st_.mean_occupancy.tolist() == [0.0, 10.0]

    def test_occupancies_sum_to_n(self):
        rec = run(GameConfig(n_agents=31, seed=9, memory=3), 200)
        st_ = series_stats(rec)
        assert math.isclose(float(st_.mean_occupancy.sum()), 31.0)

    def test_flip_invariance(self):
        rng = np.random.default_rng(0)
        occ = rng.integers(1, 9, size=(40, 2))
        dem = rng.integers(-5, 6, size=(40, 2))
        a = series_stats(make_records(occ, dem), (0, 40))
        b = series_stats(make_records(occ, -dem), (0, 40))
        assert np.allclose(a.per_capita_var, b.per_capita_var)

    def test_empty_window_rejected(self):
        rec = make_records([[1, 0]] * 4, [[1, 0]] * 4)
        with pytest.raises(ValueError):
            series_stats(rec, (3, 3))
        with pytest.raises(ValueError):
            resolve_window(4, (0, 9))

    @pytest.mark.parametrize("window", [
        (0.5, 3.7), (0, 3.0), (False, True), ("2", "5"), (0, 10, 99), (5,), 5, "05",
    ], ids=repr)
    def test_window_of_two_integers_only(self, window):
        # a float, bool or string bound was truncated or converted, and a
        # third entry dropped, so the estimators measured another window
        with pytest.raises(ConfigError, match="^window: "):
            resolve_window(10, window)

    def test_window_bounds_may_be_numpy_integers(self):
        assert resolve_window(10, (np.int64(2), np.int32(5))) == (2, 5)
        assert resolve_window(10, [0, 10]) == (0, 10)


class TestMuHistogram:
    def test_counting(self):
        rec = make_records(
            [[2, 0]] * 4, [[0, 0]] * 4, history=[[0, 0], [1, 0], [0, 0], [1, 0]], memory=1
        )
        h = mu_histogram(rec, 0, (0, 4))
        assert h.p.tolist() == [0.5, 0.5]
        assert h.counts.sum() == 4

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**16), memory=st.integers(1, 4))
    def test_distribution_properties(self, seed, memory):
        rec = run(GameConfig(n_agents=5, seed=seed, memory=memory), 30)
        h = mu_histogram(rec, 0)
        assert math.isclose(float(h.p.sum()), 1.0)
        assert np.all(h.p >= 0)
        assert len(h.p) == 2**memory


class TestSwitchSeries:
    def test_plain_extraction(self):
        # spike at t=0 with history 1, which recurs at t=2: C(3) is read
        # straight from the records' switch counts
        occ = [[2, 0]] * 4
        dem = [[2, 0], [0, 0], [0, 0], [0, 0]]
        rec = make_records(occ, dem, history=[[1, 0], [0, 0], [1, 0], [0, 0]],
                           n_switched=[0, 2, 1, 5])
        assert rec.n_switched.tolist() == [0, 2, 1, 5]
        assert mean_c_at_recurrence(rec, detect_critical_history(rec, 0)) == 5.0

    def test_conditioned_on_recurrences(self):
        # spike at t=1 on market 0 with history 3; history 3 recurs at t=3
        occ = [[4, 0]] * 6
        dem = [[0, 0], [4, 0], [0, 0], [0, 0], [0, 0], [0, 0]]
        hist = [[0, 0], [3, 0], [1, 0], [3, 0], [2, 0], [3, 0]]
        c = [0, 0, 3, 0, 2, 0]
        rec = make_records(occ, dem, history=hist, n_switched=c)
        crit = detect_critical_history(rec, 0)
        assert crit.recurrences.tolist() == [3, 5]
        # switching shows up one tick after each recurrence; t=5 has no t+1
        assert mean_c_at_recurrence(rec, crit) == 2.0

    def test_no_fluctuation_gives_no_conditioning(self):
        rec = make_records([[4, 0]] * 4, [[1, 0]] * 4)
        crit = detect_critical_history(rec, 0)
        assert crit is None
        assert mean_c_at_recurrence(rec, crit) is None

    def test_recurrence_only_at_last_tick(self):
        occ = [[4, 0]] * 3
        dem = [[4, 0], [0, 0], [0, 0]]
        rec = make_records(occ, dem, history=[[2, 0], [0, 0], [2, 0]], n_switched=[0, 1, 3])
        crit = detect_critical_history(rec, 0)
        assert crit.recurrences.tolist() == [2]
        assert mean_c_at_recurrence(rec, crit) is None


class TestFluctuationFrequency:
    def test_quiet_series(self):
        rec = make_records([[4, 0]] * 10, [[1, 0]] * 10)
        assert fluctuation_frequency(rec, 0, (0, 10)) == 0.0

    def test_maximal_series(self):
        rec = make_records([[4, 0]] * 10, [[4, 0]] * 10)
        assert fluctuation_frequency(rec, 0, (0, 10)) == 1.0

    def test_empty_market_never_counts(self):
        rec = make_records([[0, 4]] * 10, [[0, 0]] * 10)
        assert fluctuation_frequency(rec, 0, (0, 10)) == 0.0

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_theta(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        occ = rng.integers(0, 9, size=(30, 2))
        dem = np.array([[rng.integers(-o, o + 1) for o in row] for row in occ])
        rec = make_records(occ, dem)
        t1 = data.draw(st.floats(0.05, 1.0))
        t2 = data.draw(st.floats(0.05, 1.0))
        lo, hi = sorted((t1, t2))
        # patched in the body: hypothesis refuses a function-scoped monkeypatch
        with mock.patch.object(metrics, "THETA", hi):
            at_hi = fluctuation_frequency(rec, 0, (0, 30))
        with mock.patch.object(metrics, "THETA", lo):
            assert at_hi <= fluctuation_frequency(rec, 0, (0, 30))


class TestRelaxationTime:
    def level_series(self, ticks, n=16, s=2):
        # exact split levels: 4 and 12 for n=16, s=2
        return [[12, 4]] * ticks

    def test_enters_and_stays(self):
        rec = make_records([[8, 8]] * 100 + self.level_series(300), [[0, 0]] * 400)
        assert relaxation_time(rec) == 100

    def test_never_inside(self):
        rec = make_records([[8, 8]] * 200, [[0, 0]] * 200)
        assert relaxation_time(rec) is None

    def test_inside_from_start(self):
        rec = make_records(self.level_series(200), [[0, 0]] * 200)
        assert relaxation_time(rec) == 0

    def test_short_terminal_stay_rejected(self, monkeypatch):
        # a lucky landing on the levels for the last few ticks is not
        # stabilization
        rec = make_records([[8, 8]] * 197 + self.level_series(3), [[0, 0]] * 200)
        assert relaxation_time(rec) is None
        monkeypatch.setattr(metrics, "RELAX_MIN_STAY", 3)
        assert relaxation_time(rec) == 197

    def test_widening_belt_never_increases_tau(self, monkeypatch):
        rng = np.random.default_rng(5)
        occ1 = rng.integers(0, 17, size=(300, 1))
        occ = np.hstack([occ1, 16 - occ1])
        rec = make_records(occ, np.zeros_like(occ))
        monkeypatch.setattr(metrics, "RELAX_MIN_STAY", 1)
        taus = []
        for belt in (0.05, 0.1, 0.2, 0.4):
            monkeypatch.setattr(metrics, "RELAX_BELT", belt)
            taus.append(relaxation_time(rec))
        defined = [t for t in taus if t is not None]
        assert defined == sorted(defined, reverse=True)
        for a, b in zip(taus, taus[1:]):
            if a is not None:
                assert b is not None and b <= a

    def test_one_market_has_no_split_to_relax_to(self):
        # K = 1: the one market always holds all N agents, its only level
        rec = make_records([[16]] * 200, [[0]] * 200)
        assert relaxation_time(rec) is None

    def test_three_market_levels(self):
        # N=64, K=3, s=2: predicted levels 48, 12 and 4
        settled = [[48, 12, 4], [12, 48, 4], [4, 12, 48]] * 100
        rec = make_records([[22, 21, 21]] * 50 + settled, [[0, 0, 0]] * 350)
        assert relaxation_time(rec) == 50


class TestPredictions:
    def test_two_market_values(self):
        assert predicted_occupancies(1600, 2, 2) == [1200.0, 400.0]

    def test_three_market_values(self):
        got = predicted_occupancies(3001, 3, 2)
        assert got == [2250.75, 562.6875, 187.5625]
        assert sum(got) == 3001.0

    def test_single_market(self):
        assert predicted_occupancies(7, 1, 2) == [7.0]

    def test_s1_no_split(self):
        assert predicted_occupancies(1000, 2, 1) == [500.0, 500.0]

    @given(
        n=st.integers(1, 10**6),
        k=st.integers(1, 6),
        s=st.integers(1, 8),
    )
    def test_sum_is_exactly_n(self, n, k, s):
        values = predicted_occupancies(n, k, s)
        assert len(values) == k
        assert math.fsum(values) == float(n)
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_ratio_bits_unchanged(self):
        # r = 2**-s has the bits of 1 / (1 << s) wherever the latter is defined
        for s in (1, 2, 5, 52, 53, 64, 1000, 1023):
            r = 1.0 / (1 << s)
            assert predicted_occupancies(1, 2, s) == [1 - r, r]
            assert predicted_irregular(0, 1, s) == (1 - r, r)

    def test_ratio_underflows_past_float_range(self):
        assert predicted_occupancies(5, 2, 1100) == [5.0, 0.0]
        assert predicted_irregular(3, 4, 1100) == (7.0, 0.0)

    def test_market_count_bounded_by_table_budget(self):
        # N*K*s*2 int8 bytes at m=1: 2**27 agents fill the budget at K=2
        n = MAX_TABLE_BYTES >> 3
        assert predicted_occupancies(n, 2, 2) == [0.75 * n, 0.25 * n]
        with pytest.raises(ConfigError, match="^K:"):
            predicted_occupancies(n, 3, 2)
        # past the budget at K=1, N is at fault; one market is never refused
        with pytest.raises(ConfigError, match="^N:"):
            predicted_occupancies(4 * n, 2, 2)
        assert predicted_occupancies(4 * n, 1, 2) == [4.0 * n]

    @pytest.mark.parametrize("n, k, s, key", [(0, 2, 2, "N"), (5, 0, 2, "K"), (5, 2, 0, "s")])
    def test_count_below_one_refused_as_by_a_game(self, n, k, s, key):
        # one rule, one message: the prediction and the game refuse alike
        with pytest.raises(ConfigError) as predicted:
            predicted_occupancies(n, k, s)
        with pytest.raises(ConfigError) as game:
            GameConfig(n_agents=n, seed=1, n_markets=k, n_strategies=s)
        assert str(predicted.value) == str(game.value) == f"{key}: must be >= 1, got 0"
        if key == "s":
            with pytest.raises(ConfigError) as irregular:
                predicted_irregular(3, 4, s)
            assert str(irregular.value) == str(game.value)

    def test_irregular_values(self):
        assert predicted_irregular(1000, 301, 2) == (1225.75, 75.25)
        assert predicted_irregular(301, 301, 2) == (526.75, 75.25)
        assert predicted_irregular(5, 0, 2) == (5.0, 0.0)


class TestCriticalHistory:
    def test_crafted_trace(self):
        occ = [[10, 0]] * 12
        dem = [[0, 0]] * 7 + [[10, 0]] + [[0, 0]] * 4
        hist = [[h, 0] for h in (0, 1, 2, 3, 4, 5, 6, 9, 1, 9, 2, 9)]
        rec = make_records(occ, dem, history=hist)
        crit = detect_critical_history(rec, 0)
        assert crit.first_tick == 7
        assert crit.history == 9
        assert crit.recurrences.tolist() == [9, 11]

    def test_no_fluctuation(self):
        rec = make_records([[10, 0]] * 5, [[2, 0]] * 5)
        assert detect_critical_history(rec, 0) is None


class TestSplitAndModes:
    def test_split_detection(self):
        n = 100
        split_occ = [[80, 20]] * 50
        rec = make_records(split_occ, [[0, 0]] * 50)
        assert split_detected(rec, (0, 50))
        rec = make_records([[55, 45]] * 50, [[0, 0]] * 50)
        assert not split_detected(rec, (0, 50))

    def test_split_needs_sustained_gap(self):
        occ = [[80, 20]] * 30 + [[50, 50]] * 20
        rec = make_records(occ, [[0, 0]] * 50)
        assert not split_detected(rec, (0, 50))

    def test_split_is_the_lead_of_the_top_market(self):
        # at K = 5 two crowded markets level with each other are no split,
        # however empty the others are
        rec = make_records([[40, 38, 10, 7, 5]] * 50, [[0] * 5] * 50)
        assert not split_detected(rec, (0, 50))
        rec = make_records([[70, 12, 10, 5, 3]] * 50, [[0] * 5] * 50)
        assert split_detected(rec, (0, 50))

    @pytest.mark.parametrize("k, s, n, splits", [(5, 3, 64, 0), (5, 3, 11, 0),
                                                 (3, 2, 1447, 6), (5, 3, 2048, 6)],
                             ids=["K5s3N64", "K5s3N11", "K3s2N1447", "K5s3N2048"])
    def test_splits_at_k_over_2(self, k, s, n, splits):
        # of six 2000-tick games, over the default window; non-herding K = 5
        # games have markets near N/K, a few far below
        games = [GameConfig(n_agents=n, seed=subseed(3, i), n_markets=k, n_strategies=s)
                 for i in range(6)]
        assert sum(split_detected(run(cfg, 2000)) for cfg in games) == splits

    @pytest.mark.parametrize("n", [11, 301])
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_two_markets_split_by_their_gap_tick_for_tick(self, s, n):
        # at K = 2 the top market's lead is max - min: a one-tick window
        # reads the gap rule on that tick
        rec = run(GameConfig(n_agents=n, seed=subseed(3, s), memory=3, n_strategies=s), 400)
        gap = rec.occupancy.max(axis=1) - rec.occupancy.min(axis=1) > metrics.SPLIT_GAP_FRAC * n
        got = [split_detected(rec, (t, t + 1)) for t in range(rec.n_ticks)]
        assert got == gap.tolist()
        assert split_detected(rec) == (np.mean(gap[200:]) >= metrics.SPLIT_SUSTAIN)
        if n == 11:  # ticks on both sides of the gap
            assert 0 < gap.sum() < len(gap)

    def test_one_market_never_splits(self):
        rec = run(GameConfig(n_agents=11, seed=3, n_markets=1), 50)
        assert not split_detected(rec) and not split_detected(rec, (0, 1))

    def stats_with_var(self, v1, v2):
        occ = [[4, 4]] * 10
        rec = make_records(occ, [[0, 0]] * 10)
        s = series_stats(rec, (0, 10))
        return type(s)(
            window=s.window,
            mean_occupancy=s.mean_occupancy,
            mean_demand=s.mean_demand,
            per_capita_var=np.array([v1, v2]),
        )

    def test_mode_labels(self):
        assert classify_mode(self.stats_with_var(1.0, 1.0), split=False) == "random"
        assert classify_mode(self.stats_with_var(0.9, 5.0), split=False) == "herd-symmetric"
        assert classify_mode(self.stats_with_var(2.0, 2.0), split=True) == "herd-asymmetric"
        assert classify_mode(self.stats_with_var(0.3, 0.5), split=False) == "cooperation"

    def test_boundary_variance_is_random(self):
        assert classify_mode(self.stats_with_var(1.0, 0.9), split=False) == "random"

    def test_big_small_labels(self):
        rec = make_records([[3, 7]] * 10, [[0, 0]] * 10)
        assert big_small_markets(series_stats(rec, (0, 10))) == (1, 0)
