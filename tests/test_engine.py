import copy
import itertools
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import columns, link_mask, one_tick, topology_kind
from mmg import ConfigError, GameConfig, RunRecords, engine, init_game, run, step
from mmg.config import MAX_TABLE_BYTES
from mmg.engine import (
    ARGMAX_AGENTS, ONE_HOT_AGENTS, ONE_HOT_ROWS, SCALAR_DRAWS, UNLINKED_SCORE,
)
from mmg.io import parse_config
from mmg.rng import Draws
from reference import reference_run


def small_config(**kw):
    defaults = dict(
        n_agents=9,
        seed=5,
        n_markets=2,
        n_strategies=2,
        memory=3,
        tie_break="lowest-index",
        zero_demand="plus-one",
    )
    defaults.update(kw)
    return GameConfig(**defaults)


class TestInitGame:
    def test_regular_counts(self):
        state = init_game(GameConfig(n_agents=11, seed=1, memory=5))
        assert np.count_nonzero(state.tables) == 44 << 5  # 44 tables of 2**m actions
        assert state.histories.shape == (2,)
        assert state.utilities.shape == (11, 2, 2)

    def test_irregular_counts(self):
        cfg = GameConfig(
            n_agents=5, seed=1, n_strategies=2, memory=2, n_exclusive=3,
        )
        state = init_game(cfg)
        # 3 agents hold 2 tables (market 0 only), 2 agents hold 4
        assert np.count_nonzero(state.tables) == 14 << 2
        assert np.all(state.tables[1 << 2:, :, :3] == 0)

    def test_zero_initial_utilities(self):
        state = init_game(GameConfig(n_agents=11, seed=1, memory=5))
        assert np.all(state.utilities == 0.0)

    def test_uniform_initial_utilities(self):
        state = init_game(
            GameConfig(n_agents=11, seed=1, memory=5, init_utilities="uniform")
        )
        assert np.all((state.utilities >= 0.0) & (state.utilities < 1.0))
        assert len(np.unique(state.utilities)) > 40

    def test_invalid_topology(self):
        # n1 + n2 other than N can only be written in the config format; a
        # game refuses n1 past N and an irregular game on other than 2 markets
        with pytest.raises(ConfigError, match="^N: must be n1 \\+ n2 = 6"):
            parse_config("topology=irregular n1=3 n2=3 N=5 seed=1")
        with pytest.raises(ConfigError, match="^n1: must be <= N = 5, got 6"):
            init_game(GameConfig(n_agents=5, seed=1, n_exclusive=6))
        with pytest.raises(ConfigError, match="^K: an irregular game has 2 markets, got 3"):
            init_game(GameConfig(n_agents=5, seed=1, n_markets=3, n_exclusive=2))

    def test_run_refuses_records_over_budget(self, monkeypatch):
        def no_game(*args, **kwargs):
            raise AssertionError("a game was started")

        monkeypatch.setattr(engine, "init_game", no_game)
        with pytest.raises(ConfigError, match="^T: "):
            run(GameConfig(n_agents=11, seed=0), 100_000_000_000)
        with pytest.raises(ConfigError, match="^T: must be >= 1"):
            run(GameConfig(n_agents=11, seed=0), 0)

    def test_memory_cap(self):
        with pytest.raises(ConfigError):
            init_game(GameConfig(n_agents=2, seed=1, memory=25))

    @pytest.mark.parametrize("ticks, message", [
        (10.5, "expected an integer"), (True, "expected an integer"), ("10", "expected an integer"),
        (-3, "must be >= 1"), (0, "must be >= 1"),
    ])
    def test_refuses_ticks_that_are_no_count(self, ticks, message):
        # the ticks pick the score dtype, so they are checked before any draw
        with pytest.raises(ConfigError, match=f"^T: {message}"):
            init_game(GameConfig(n_agents=8, seed=1), ticks)


def two_slot_agent(utilities):
    """One agent on two markets whose slot 0 plays +1 and slot 1 plays -1 at
    every history, so the record's demand names the active slot."""
    state = init_game(small_config(n_agents=1))
    state.tables[:, 0, 0] = 1
    state.tables[:, 1, 0] = -1
    state.utilities[0] = utilities
    return state


class TestChooseActiveStrategy:
    def test_unique_maximum(self):
        state = two_slot_agent([[3.0, 5.0], [2.0, 1.0]])
        rec = one_tick(state)
        assert rec.occupancy.tolist() == [1, 0]
        assert rec.demand.tolist() == [-1, 0]  # market 0, slot 1
        assert state.last_market.tolist() == [0]

    def test_lowest_index_tie(self):
        state = two_slot_agent([[5.0, 5.0], [1.0, 0.0]])
        rec = one_tick(state)
        assert rec.occupancy.tolist() == [1, 0]
        assert rec.demand.tolist() == [1, 0]  # market 0, slot 0

    def test_random_tie_uniform(self):
        # at zero utilities every agent ties across all four (market, slot)
        # pairs; slot 0 plays +1 and slot 1 plays -1, so (O + A) / 2 agents
        # hold slot 0 on each market
        n = 4000
        state = init_game(small_config(n_agents=n, tie_break="random"))
        state.tables[:, 0, :] = 1
        state.tables[:, 1, :] = -1
        rec = one_tick(state)
        slot0 = (rec.occupancy + rec.demand) // 2
        picks = np.concatenate([slot0, rec.occupancy - slot0]) / n
        assert np.all(picks > 0.2) and np.all(picks < 0.3)

    def test_shift_invariance_over_run(self):
        # adding a constant to all utilities changes no choice, any tick
        state_a = init_game(small_config(seed=9))
        state_b = copy.deepcopy(state_a)
        state_b.utilities[...] += 17.25
        for _ in range(50):
            rec_a = one_tick(state_a)
            rec_b = one_tick(state_b)
            assert np.array_equal(state_a.last_market, state_b.last_market)
            assert tick_tuple(rec_a) == tick_tuple(rec_b)


def fixed_action_game(actions, n_markets=1, payoff="linear", zero_demand="plus-one"):
    """Agents confined to market 0, each with a slot-0 strategy fixed to its
    entry of ``actions`` and a slot-1 strategy playing the opposite. With
    zero utilities and lowest-index ties, slot 0 is active at tick 0."""
    n = len(actions)
    cfg = GameConfig(
        n_agents=n, seed=1, n_markets=n_markets, n_strategies=2, memory=1,
        payoff=payoff, n_exclusive=n if n_markets == 2 else None, tie_break="lowest-index",
        zero_demand=zero_demand,
    )
    state = init_game(cfg)
    column = np.array(actions, dtype=np.int8)
    state.tables[:1 << 1, 0, :] = column
    state.tables[:1 << 1, 1, :] = -column
    return state


class TestPrimitives:
    def test_aggregate_demand(self):
        assert one_tick(fixed_action_game([1, 1, -1])).demand.tolist() == [1]
        assert one_tick(fixed_action_game([1] * 1200)).demand.tolist() == [1200]
        rec = one_tick(fixed_action_game([1, -1, 1], n_markets=2))
        assert rec.occupancy.tolist() == [3, 0]
        assert rec.demand.tolist() == [1, 0]  # an empty market has zero demand

    def test_minority_sign(self):
        assert one_tick(fixed_action_game([1] * 5)).minority.tolist() == [-1]
        assert one_tick(fixed_action_game([-1] * 3)).minority.tolist() == [1]

    def test_minority_zero_rules(self):
        # two opposite agents balance market 0; market 1 stays empty
        state = fixed_action_game([1, -1], n_markets=2)
        for _ in range(5):
            assert one_tick(state).minority.tolist() == [1, 1]
        state = fixed_action_game([1, -1], n_markets=2, zero_demand="coin")
        draws = {int(a) for _ in range(50) for a in one_tick(state).minority}
        assert draws == {-1, 1}

    def test_payoff_kinds(self):
        # slot 0 is the active strategy, slot 1 its passive complement
        state = fixed_action_game([1] * 4, payoff="linear")
        one_tick(state)
        assert state.utilities[0, 0].tolist() == [-4.0, 4.0]
        state = fixed_action_game([1] * 4, payoff="sign")
        one_tick(state)
        assert state.utilities[0, 0].tolist() == [-1.0, 1.0]
        state = fixed_action_game([1] * 6 + [-1] * 2, payoff="scaled")
        one_tick(state)
        assert state.utilities[7, 0].tolist() == [0.5, -0.5]
        state = fixed_action_game([1, -1], payoff="sign")
        one_tick(state)
        assert np.all(state.utilities == 0.0)


class TestStep:
    def test_hand_trace(self):
        # Two agents confined to market 0, one strategy each: agent 0 always
        # +1, agent 1 always -1. Demand cancels, minority falls to plus-one,
        # linear payoff of zero demand leaves utilities untouched; the
        # unlinked market-1 entries hold -inf.
        cfg = GameConfig(
            n_agents=2, seed=1, n_strategies=1, memory=1, n_exclusive=2,
            tie_break="lowest-index", zero_demand="plus-one",
        )
        state = init_game(cfg)
        state.tables[:1 << 1, 0, 0] = 1
        state.tables[:1 << 1, 0, 1] = -1
        for _ in range(3):
            rec = one_tick(state)
            assert rec.occupancy.tolist() == [2, 0]
            assert rec.demand.tolist() == [0, 0]
            assert rec.minority.tolist() == [1, 1]
            assert rec.n_switched == 0
            assert np.all(state.utilities[:, 0] == 0.0)
            assert np.all(np.isneginf(state.utilities[:, 1]))
            assert state.histories.tolist() == [1, 1]  # m=1: all-ones after shift

    def test_single_agent_alternates_markets(self):
        # One agent, linear payoff: the active strategy is penalized by its
        # own demand while the idle market pays zero, so the agent flips
        # markets every tick and C(t>=1) stays 1.
        cfg = GameConfig(
            n_agents=1, seed=3, n_strategies=1, memory=1,
            tie_break="lowest-index", zero_demand="plus-one",
        )
        rec = run(cfg, 6)
        assert rec.n_switched.tolist() == [0, 1, 1, 1, 1, 1]
        assert rec.occupancy.sum(axis=1).tolist() == [1] * 6

    def test_replay_determinism(self):
        cfg = GameConfig(n_agents=25, seed=123, memory=3)
        a = run(cfg, 1000)
        b = run(cfg, 1000)
        for name, column in columns(a).items():
            assert np.array_equal(column, getattr(b, name)), name

    def test_single_market_occupancy(self):
        cfg = GameConfig(n_agents=7, seed=2, n_markets=1, memory=2)
        rec = run(cfg, 50)
        assert np.all(rec.occupancy == 7)
        assert np.all(rec.n_switched == 0)

    def test_deterministic_modes_consume_no_rng(self):
        state = init_game(small_config(seed=8))
        before = state.draws.sync().bit_generator.state
        for _ in range(20):
            one_tick(state)
        assert state.draws.sync().bit_generator.state == before

    def test_single_tick_run(self):
        rec = run(small_config(seed=6), 1)
        assert rec.n_ticks == 1 and rec.n_switched[0] == 0

    def test_run_rejects_nonpositive_ticks(self):
        with pytest.raises(ConfigError):
            run(small_config(), 0)

    @pytest.mark.parametrize("k_markets", [1, 2, 3])
    def test_record_budget_counts_what_is_allocated(self, k_markets):
        # the check counts the bytes ``empty`` allocates: the largest T it
        # accepts is the budget over one tick's bytes, and one tick more is
        # refused with the bytes those ticks would take
        cfg = GameConfig(n_agents=5, seed=1, n_markets=k_markets)
        nbytes = sum(column.nbytes for column in columns(RunRecords.empty(cfg, 7)).values())
        per_tick = nbytes // 7
        assert per_tick * 7 == nbytes
        most = MAX_TABLE_BYTES // per_tick
        RunRecords.check(cfg, most)
        with pytest.raises(ConfigError, match=f"^T: .* = {per_tick * (most + 1)} bytes"):
            RunRecords.check(cfg, most + 1)

    @pytest.mark.parametrize("n_exclusive", [None, 4], ids=["regular", "irregular"])
    def test_run_is_step_row_by_row(self, n_exclusive):
        # run(cfg, T) is T calls of step(state, out, i) on a fresh game
        cfg = GameConfig(n_agents=11, seed=4, memory=3, payoff="sign", n_exclusive=n_exclusive)
        ticks = 80
        want = run(cfg, ticks)
        state = init_game(cfg)
        out = RunRecords.empty(cfg, ticks)
        assert out.config == want.config
        for i in range(ticks):
            step(state, out, i)
            for name, column in columns(out).items():
                assert np.array_equal(column[i], getattr(want, name)[i]), (i, name)

    @pytest.mark.parametrize("cfg", [
        GameConfig(n_agents=11, seed=4),
        GameConfig(n_agents=11, seed=4, n_exclusive=4),
        GameConfig(n_agents=11, seed=4, n_markets=3),
    ], ids=["regular", "irregular", "K3"])
    def test_records_hold_their_game(self, cfg):
        assert run(cfg, 5).config == cfg


@st.composite
def game_configs(draw):
    n_markets = draw(st.integers(1, 3))
    n_agents = draw(st.integers(1, 12))
    n_exclusive = None
    if n_markets == 2 and draw(st.booleans()):
        n_exclusive = draw(st.integers(0, n_agents))
    return GameConfig(
        n_agents=n_agents,
        seed=draw(st.integers(0, 2**32)),
        n_markets=n_markets,
        n_strategies=draw(st.integers(1, 3)),
        memory=draw(st.integers(1, 4)),
        payoff=draw(st.sampled_from(("linear", "sign", "scaled"))),
        n_exclusive=n_exclusive,
        tie_break=draw(st.sampled_from(("random", "lowest-index"))),
        zero_demand=draw(st.sampled_from(("coin", "plus-one"))),
    )


class TestInvariants:
    @settings(max_examples=30, deadline=None)
    @given(cfg=game_configs())
    def test_conservation_bounds_parity(self, cfg):
        rec = run(cfg, 40)
        assert np.all(rec.occupancy.sum(axis=1) == cfg.n_agents)
        assert np.all(np.abs(rec.demand) <= rec.occupancy)
        assert np.all((rec.demand - rec.occupancy) % 2 == 0)
        assert set(np.unique(rec.minority)) <= {-1, 1}
        assert np.all((rec.history >= 0) & (rec.history < 2**cfg.memory))
        assert np.all((rec.n_switched >= 0) & (rec.n_switched <= cfg.n_agents))
        assert rec.n_switched[0] == 0

    @settings(max_examples=15, deadline=None)
    @given(cfg=game_configs())
    def test_utility_replay(self, cfg):
        # the final utilities must be recomputable from the records alone
        state = init_game(cfg)
        tables = state.tables.copy()
        u0 = state.utilities.copy()
        ticks = 60
        recs = [one_tick(state) for _ in range(ticks)]
        expected = u0.copy()
        for rec in recs:
            for k in range(cfg.n_markets):
                if cfg.payoff == "linear":
                    g = float(rec.demand[k])
                elif cfg.payoff == "sign":
                    g = float(np.sign(rec.demand[k]))
                else:
                    g = rec.demand[k] / cfg.n_agents
                expected[:, k, :] -= tables[(k << cfg.memory) + rec.history[k]].T * g
        if cfg.payoff in ("linear", "sign"):
            assert np.array_equal(state.utilities, expected)
        else:
            # the unlinked entries stay at -inf, where a difference is nan
            linked = link_mask(cfg)
            tol = 2**-40 * ticks * cfg.n_agents
            assert np.max(np.abs(state.utilities[linked] - expected[linked])) <= tol
            assert np.array_equal(state.utilities[~linked], expected[~linked])

    def test_complement_antisymmetry(self):
        # complementary tables on one market keep a constant utility sum
        state = init_game(GameConfig(n_agents=5, seed=21, memory=3))
        state.tables[:1 << 3, 1, 0] = -state.tables[:1 << 3, 0, 0]
        total0 = state.utilities[0, 0, 0] + state.utilities[0, 0, 1]
        for _ in range(100):
            one_tick(state)
            assert state.utilities[0, 0, 0] + state.utilities[0, 0, 1] == total0


class TestSingleMarketReduction:
    def test_against_independent_smg(self):
        # at K=1 the game is the single-market minority game; the reference
        # engine plays it agent by agent
        picker = np.random.default_rng(2024)
        for case in range(20):
            cfg = GameConfig(
                n_agents=int(picker.integers(1, 10)),
                seed=int(picker.integers(0, 2**32)),
                n_markets=1,
                n_strategies=int(picker.integers(1, 4)),
                memory=int(picker.integers(1, 4)),
                payoff=("linear", "sign", "scaled")[case % 3],
                tie_break="lowest-index",
                zero_demand="plus-one",
            )
            state = init_game(cfg)
            ticks, _ = reference_run(state, 100)
            expected = [tick.demand[0] for tick in ticks]
            got = [int(one_tick(state).demand[0]) for _ in range(100)]
            assert got == expected, f"case {case}: {cfg}"


class TestDrawStream:
    """``step`` draws a tick's tie-breaks one scalar call at a time or in
    one array call, and its coins one scalar call at a time or in one
    ``size=`` call, each by their count, where ``tests/reference.py`` makes
    one scalar call per draw; each pair must read the same numbers from the
    generator and leave it in the same state. ``draw_strategies`` reads the
    bits of NumPy's int8 draw from the 32-bit words that draw takes them
    from. ``lead`` coins drawn first leave PCG64's buffered 32-bit half full
    or empty."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**63), lead=st.integers(0, 3),
           highs=st.lists(st.integers(1, 64), max_size=40))
    def test_array_high_matches_scalar_calls(self, seed, lead, highs):
        array_rng, scalar_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for rng in (array_rng, scalar_rng):
            rng.integers(0, 2, size=lead)
        got = array_rng.integers(0, np.array(highs, dtype=np.int64)).tolist()
        assert got == [int(scalar_rng.integers(0, h)) for h in highs]
        assert array_rng.bit_generator.state == scalar_rng.bit_generator.state

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**63), lead=st.integers(0, 3), n=st.integers(0, 40))
    def test_sized_coins_match_scalar_calls(self, seed, lead, n):
        array_rng, scalar_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for rng in (array_rng, scalar_rng):
            rng.integers(0, 2, size=lead)
        got = array_rng.integers(0, 2, size=n).tolist()
        assert got == [int(scalar_rng.integers(0, 2)) for _ in range(n)]
        assert array_rng.bit_generator.state == scalar_rng.bit_generator.state

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**63), lead=st.integers(0, 3), words=st.integers(0, 40))
    def test_int8_bits_are_top_bits_of_words(self, seed, lead, words):
        bits_rng, words_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for rng in (bits_rng, words_rng):
            rng.integers(0, 2, size=lead)
        bits = bits_rng.integers(0, 2, size=4 * words, dtype=np.int8)
        drawn = words_rng.integers(0, 2**32, size=words, dtype=np.uint32)
        assert np.array_equal(bits, drawn.astype("<u4").view(np.uint8) >> 7)
        assert bits_rng.bit_generator.state == words_rng.bit_generator.state

    def test_a_run_never_reads_or_writes_the_generator_state(self, monkeypatch):
        # one Draws holds the stream from the first table bit to the last
        # tick; only ``Draws.sync`` reads its state, into a new generator
        calls = []
        sync = Draws.sync
        monkeypatch.setattr(Draws, "sync", lambda self: calls.append(self) or sync(self))
        for kw in (dict(n_agents=11), dict(n_agents=1447, payoff="sign"),
                   dict(n_agents=11, n_markets=40), dict(n_agents=11, init_utilities="uniform")):
            run(GameConfig(seed=3, **kw), 50)
        assert calls == []
        state = init_game(GameConfig(n_agents=11, seed=3))
        assert isinstance(state.draws.sync(), np.random.Generator)
        assert calls == [state.draws]

    @pytest.mark.parametrize("kw", [dict(n_agents=1447, payoff="sign"),
                                    dict(n_agents=11, n_markets=40)], ids=["ties", "coins"])
    def test_a_draw_on_a_synced_generator_leaves_the_game(self, kw):
        # draws made between ticks on a snapshot of the stream move no later
        # tie-break or coin: the records and the final stream are those of
        # the untouched game
        cfg, ticks = GameConfig(seed=3, **kw), 40
        games = []
        for touched in (False, True):
            state, out = init_game(cfg, ticks), RunRecords.empty(cfg, ticks)
            for i in range(ticks):
                if touched:  # an odd count leaves a half buffered
                    state.draws.sync().integers(0, 7, size=i % 3 + 1)
                step(state, out, i)
            games.append((out, state.draws.sync().bit_generator.state))
        (want, want_stream), (got, got_stream) = games
        for name, column in columns(got).items():
            assert np.array_equal(column, getattr(want, name)), name
        assert got_stream == want_stream
        assert want_stream != init_game(cfg, ticks).draws.sync().bit_generator.state


def reference_grid():
    """Every payoff, tie, zero-demand and init rule on K = 1, 2, 3 regular
    and the two-market irregular topology; N, s and m vary across cases."""
    cases = []
    rules = itertools.product(
        ((1, False), (2, False), (3, False), (2, True)),
        ("linear", "sign", "scaled"),
        ("random", "lowest-index"),
        ("coin", "plus-one"),
        ("zero", "uniform"),
    )
    for i, ((k, irregular), payoff, tie, zero, init) in enumerate(rules):
        n = 1 + i % 11
        cases.append(GameConfig(
            n_agents=n, seed=1000 + i, n_markets=k, n_strategies=1 + i % 3,
            memory=1 + i % 4, payoff=payoff, n_exclusive=i % (n + 1) if irregular else None,
            init_utilities=init, tie_break=tie, zero_demand=zero,
        ))
    return cases


REFERENCE_GRID = reference_grid()

# N in the hundreds and K*s >= 9, beyond the small grid: under the sign
# payoff with random ties 150-300 agents tie each tick, and K*s = 260 needs
# 16-bit choice weights
LARGE_GRID = [
    GameConfig(n_agents=600, seed=7, n_strategies=5, memory=3, payoff="sign",
               n_exclusive=350),
    GameConfig(n_agents=300, seed=8, n_markets=3, n_strategies=3, memory=2, payoff="sign"),
    GameConfig(n_agents=200, seed=9, n_markets=4, n_strategies=3, memory=4,
               init_utilities="uniform", tie_break="lowest-index", zero_demand="plus-one"),
    GameConfig(n_agents=120, seed=10, n_strategies=130, memory=1, payoff="sign",
               n_exclusive=60),
]

# Tick 0 of a zero-utility game ties every agent between all its linked
# strategies, so N sets the number of tie draws that tick: one, exactly
# SCALAR_DRAWS, one more, and far more. Four and five, the bound while the
# scalar draws went through ``Generator.integers``, stay as draws below it.
# Each count is played on the regular topology and on the irregular one,
# where the unlinked mask leaves the first n1 agents s maximizers instead of
# K*s.
TIE_BOUNDARY_GRID = [
    GameConfig(n_agents=n, seed=40 + n, memory=3, payoff=payoff, n_exclusive=n_exclusive)
    for n in sorted({1, 4, 5, SCALAR_DRAWS, SCALAR_DRAWS + 1, 60})
    for payoff, n_exclusive in (("linear", None), ("sign", n // 2))
]


# Games one agent per market below, at and one above ONE_HOT_AGENTS, where
# aggregation switches from bincount to the one-hot count: regular and
# irregular K=2 and regular K=3. The last is above it with K*s = 260, which
# needs uint16 weights and, over ONE_HOT_ROWS, counts with bincounts.
ONE_HOT_BOUNDARY_GRID = [
    GameConfig(n_agents=n, seed=70 + d, n_markets=k, memory=4, payoff=payoff,
               n_exclusive=n // 3 if irregular else None)
    for d in (-1, 0, 1)
    for k, payoff, irregular in ((2, "linear", False), (2, "sign", True), (3, "linear", False))
    for n in [k * (ONE_HOT_AGENTS + d)]
] + [GameConfig(n_agents=2 * (ONE_HOT_AGENTS + 1), seed=80, n_strategies=130, memory=1)]


def tick_tuple(rec):
    return (
        rec.occupancy.tolist(), rec.demand.tolist(), rec.minority.tolist(),
        rec.history.tolist(), rec.n_switched, rec.n_tied,
    )


def assert_steps_like_reference(state, ticks):
    """Step ``state`` next to the reference engine started from it, tie draws
    included; return the records and the reference game."""
    ref_ticks, ref = reference_run(state, ticks)
    got = []
    for i, expected in enumerate(ref_ticks):
        got.append(tick_tuple(one_tick(state)))
        assert got[-1] == (*expected, ref.tick_tie_draws[i]), f"tick {i}"
    assert np.array_equal(state.utilities, np.array(ref.utilities))
    assert state.draws.sync().bit_generator.state == ref.rng.bit_generator.state
    return got, ref


class TestAgainstReference:
    @pytest.mark.parametrize("cfg", REFERENCE_GRID, ids=range(len(REFERENCE_GRID)))
    def test_step_matches_reference(self, cfg):
        assert_steps_like_reference(init_game(cfg), 200)

    @pytest.mark.parametrize("cfg", LARGE_GRID, ids=range(len(LARGE_GRID)))
    def test_large_population_matches_reference(self, cfg):
        _, ref = assert_steps_like_reference(init_game(cfg), 100)
        if cfg.tie_break == "random":
            assert ref.tie_draws >= 100 * 100

    @pytest.mark.parametrize("cfg", TIE_BOUNDARY_GRID,
                             ids=lambda cfg: f"N{cfg.n_agents}-{topology_kind(cfg)}")
    def test_tie_draws_around_scalar_bound(self, cfg):
        _, first = reference_run(init_game(cfg), 1)
        assert first.tie_draws == cfg.n_agents
        assert_steps_like_reference(init_game(cfg), 200)

    @pytest.mark.parametrize("cfg", ONE_HOT_BOUNDARY_GRID, ids=lambda cfg: (
        f"N{cfg.n_agents}-K{cfg.n_markets}-s{cfg.n_strategies}-{topology_kind(cfg)}"))
    def test_counts_around_one_hot_bound(self, cfg):
        state = init_game(cfg)
        assert state.weights.dtype == (np.uint16 if cfg.n_strategies == 130 else np.uint8)
        _, ref = assert_steps_like_reference(state, 100)
        assert ref.tie_draws > 0

    @pytest.mark.parametrize("s", [ONE_HOT_ROWS // 2, ONE_HOT_ROWS // 2 + 1])
    def test_counts_around_one_hot_rows(self, s):
        # ONE_HOT_AGENTS agents per market with K*s at ONE_HOT_ROWS counts
        # from the one-hot (uint8 rows); one slot more, from the bincounts
        # (intp rows)
        cfg = GameConfig(n_agents=2 * ONE_HOT_AGENTS, seed=90 + s, n_strategies=s, memory=2)
        state = init_game(cfg, 12)
        _, ref = assert_steps_like_reference(state, 12)
        one_hot = 2 * s <= ONE_HOT_ROWS
        assert state.last_market.dtype == (np.uint8 if one_hot else np.intp)
        assert ref.tie_draws > 0

    def test_many_coins_per_tick(self):
        # under the coin rule every empty or balanced market draws a coin:
        # eleven agents on 40 markets leave at least 29 empty every tick
        cfg = GameConfig(n_agents=11, seed=5, n_markets=40, memory=5)
        _, ref = assert_steps_like_reference(init_game(cfg), 200)
        assert ref.coin_draws >= 200 * 29

    def test_grid_covers_random_paths(self):
        assert len(REFERENCE_GRID) >= 72
        draws = {"tie": 0, "coin": 0}
        for cfg in REFERENCE_GRID:
            _, ref = reference_run(init_game(cfg), 200)
            draws["tie"] += ref.tie_draws
            draws["coin"] += ref.coin_draws
        assert draws["tie"] > 0 and draws["coin"] > 0


# K*s on both sides of every doubling depth of the running count, from 3 (two
# doublings) to 33 (six), and 260 (nine, with 16-bit ranks). Tick 0 of a
# zero-utility game ties every agent, so all N agents draw and, with at least
# ``count_ties`` of them, the tick picks from the count.
DOUBLING_GRID = [
    GameConfig(n_agents=n, seed=100 + k * s, n_markets=k, n_strategies=s, memory=2,
               payoff="sign")
    for k, s, n in ((3, 1, 60), (1, 5, 60), (2, 3, 60), (7, 1, 60), (3, 3, 60), (2, 8, 60),
                    (1, 17, 60), (3, 11, 60), (2, 130, 80))
]


class TestRunningCount:
    @pytest.mark.parametrize("cfg", DOUBLING_GRID,
                             ids=lambda cfg: f"Ks{cfg.n_markets * cfg.n_strategies}")
    @pytest.mark.parametrize("ticks", [50, None], ids=["int32", "float64"])
    def test_steps_like_reference(self, cfg, ticks):
        state = init_game(cfg, ticks)
        assert state.scores.dtype == (np.float64 if ticks is None else np.int32)
        assert state.count_ties <= cfg.n_agents
        _, ref = assert_steps_like_reference(state, 50)
        assert ref.tick_tie_draws[0] == cfg.n_agents

    @pytest.mark.parametrize("cfg", REFERENCE_GRID + LARGE_GRID + TIE_BOUNDARY_GRID,
                             ids=lambda cfg: f"N{cfg.n_agents}-K{cfg.n_markets}-"
                             f"s{cfg.n_strategies}-{cfg.tie_break}-{cfg.seed}")
    def test_tie_draws_recorded(self, cfg):
        # run records each tick's tie draws, as the reference counts them
        # (none under lowest-index ties)
        ticks = 100
        _, ref = reference_run(init_game(cfg), ticks)
        assert run(cfg, ticks).n_tied.tolist() == ref.tick_tie_draws


# Games one agent below and at ARGMAX_AGENTS, where the choice switches
# from argmax to the weights formula and the count of maximizers: regular
# and irregular (unlinked sentinel rows) K=2, K=3 with s=3, the scaled payoff
# and uniform initial utilities (float64 scores), a sign game, and K*s = 260.
# Each starts but the uniform one from zero utilities, so tick 0 ties every
# agent: below the bound the tick gathers, at it the tick takes the count
# (but for K*s = 260, whose ``count_ties`` is 72).
ARGMAX_GAMES = [  # (game of N agents, ticks)
    (lambda n: dict(), 150),
    (lambda n: dict(n_exclusive=n // 3), 150),
    (lambda n: dict(n_markets=3, n_strategies=3), 150),
    (lambda n: dict(payoff="scaled"), 150),
    (lambda n: dict(init_utilities="uniform"), 150),
    (lambda n: dict(payoff="sign", memory=2), 150),
    (lambda n: dict(n_strategies=130, memory=1, payoff="sign"), 40),
]
ARGMAX_BOUNDARY_GRID = [
    (GameConfig(**{"n_agents": n, "seed": 110 + 2 * i + d, "memory": 4, "tie_break": tie,
                   "zero_demand": zero, **game(n)}), ticks)
    for i, (game, ticks) in enumerate(ARGMAX_GAMES)
    for d, n in enumerate((ARGMAX_AGENTS - 1, ARGMAX_AGENTS))
    for tie in ("random", "lowest-index")
    for zero in ("coin", "plus-one")
]


class TestArgmaxBound:
    """A game with fewer than ``ARGMAX_AGENTS`` agents chooses from
    ``argmax``, a larger one from the weights formula; both must step like
    the reference engine."""

    @pytest.mark.parametrize("cfg, ticks", ARGMAX_BOUNDARY_GRID, ids=lambda case: (
        f"N{case.n_agents}-K{case.n_markets}-s{case.n_strategies}-{case.payoff}-"
        f"{case.init_utilities}-{topology_kind(case)}-{case.tie_break}-{case.zero_demand}"
        if isinstance(case, GameConfig) else f"T{case}"))
    def test_steps_like_reference(self, cfg, ticks):
        state = init_game(cfg, ticks)
        float_scores = cfg.payoff == "scaled" or cfg.init_utilities == "uniform"
        assert state.scores.dtype == (np.float64 if float_scores else np.int32)
        _, ref = assert_steps_like_reference(state, ticks)
        assert run(cfg, ticks).n_tied.tolist() == ref.tick_tie_draws
        if cfg.tie_break == "random" and cfg.init_utilities == "zero":
            assert ref.tick_tie_draws[0] == cfg.n_agents

    @pytest.mark.parametrize("tie", ["random", "lowest-index"])
    def test_small_game_reads_no_weights(self, tie):
        # below the bound the choice reads neither weights, rows nor
        # count_ties; at the bound it needs them
        for n in (ARGMAX_AGENTS - 1, ARGMAX_AGENTS):
            state = init_game(GameConfig(n_agents=n, seed=1, tie_break=tie), 20)
            state.weights = state.rows = state.count_ties = None
            if n < ARGMAX_AGENTS:
                for _ in range(20):
                    one_tick(state)
            else:
                with pytest.raises((AttributeError, TypeError)):
                    one_tick(state)

    @pytest.mark.parametrize("n", [ARGMAX_AGENTS - 1, ARGMAX_AGENTS])
    def test_grid_covers_every_tie_side(self, n):
        # ticks with scalar draws, with a gather-sized count, and with at
        # least count_ties draws (gathered below the bound, counted at it)
        sides = set()
        for cfg, ticks in ARGMAX_BOUNDARY_GRID:
            if cfg.n_agents == n and cfg.tie_break == "random":
                count_ties = init_game(cfg, ticks).count_ties
                for tied in run(cfg, ticks).n_tied.tolist():
                    sides.add(0 if tied == 0 else 1 if tied <= SCALAR_DRAWS
                              else 2 if tied < count_ties else 3)
        assert sides == {0, 1, 2, 3}

    def test_scalar_and_sized_coins(self):
        # eleven agents on twelve markets balance from five to eleven
        # markets a tick, so the coins come one scalar draw each on some
        # ticks and in one sized draw on others
        cfg = GameConfig(n_agents=11, seed=3, n_markets=12, memory=3)
        _, ref = assert_steps_like_reference(init_game(cfg, 200), 200)
        balanced = (run(cfg, 200).demand == 0).sum(axis=1)
        assert ref.coin_draws == balanced.sum()
        assert (balanced <= SCALAR_DRAWS).any() and (balanced > SCALAR_DRAWS).any()

    @pytest.mark.parametrize("cfg", DOUBLING_GRID[:-1],
                             ids=lambda cfg: f"Ks{cfg.n_markets * cfg.n_strategies}")
    @pytest.mark.parametrize("ticks", [50, None], ids=["int32", "float64"])
    def test_running_count_at_bound(self, cfg, ticks):
        # the running count needs at least ARGMAX_AGENTS agents: the
        # doubling games at that size play every doubling depth on it (the
        # last, K*s = 260 at N=80, already does)
        cfg = replace(cfg, n_agents=ARGMAX_AGENTS)
        state = init_game(cfg, ticks)
        assert state.scores.dtype == (np.float64 if ticks is None else np.int32)
        assert state.count_ties <= cfg.n_agents
        _, ref = assert_steps_like_reference(state, 50)
        assert ref.tick_tie_draws[0] == cfg.n_agents


def integral(cfg):
    return cfg.payoff in ("linear", "sign") and cfg.init_utilities == "zero"


# The zero-init linear and sign games of the grids above: ``init_game(cfg,
# ticks)`` gives them int32 scores, as ``run`` does. Each plays as many
# ticks as its float64 test but the one-hot boundary games, whose reference
# runs are the slowest and whose ties come in the first ticks.
INTEGRAL_GRID = [
    (cfg, ticks)
    for grid, ticks in ((REFERENCE_GRID, 200), (LARGE_GRID, 100), (TIE_BOUNDARY_GRID, 200),
                        (ONE_HOT_BOUNDARY_GRID, 30))
    for cfg in grid if integral(cfg)
]


class TestIntegerScores:
    """Linear and sign games from zero utilities play on int32 scores, with
    the unlinked entries held at ``UNLINKED_SCORE``; they must step exactly
    like the reference engine and like the same game on float64 scores."""

    @pytest.mark.parametrize("cfg, ticks", INTEGRAL_GRID, ids=lambda case: (
        f"N{case.n_agents}-K{case.n_markets}-s{case.n_strategies}-{case.payoff}-"
        f"{topology_kind(case)}-{case.seed}" if isinstance(case, GameConfig) else f"T{case}"))
    def test_steps_like_reference(self, cfg, ticks):
        state = init_game(cfg, ticks)
        assert state.scores.dtype == np.int32
        assert (state.scores[~state.choice_mask.T] == UNLINKED_SCORE).all()
        assert_steps_like_reference(state, ticks)

    @pytest.mark.parametrize("kw, ticks, sentinel", [
        (dict(payoff="linear"), 300, UNLINKED_SCORE),
        (dict(payoff="sign"), 300, UNLINKED_SCORE),
        (dict(payoff="scaled"), 300, -np.inf),
        (dict(init_utilities="uniform"), 300, -np.inf),
        (dict(), None, -np.inf),
    ], ids=["linear", "sign", "scaled", "uniform", "linear-no-ticks"])
    def test_unlinked_entries_keep_sentinel(self, kw, ticks, sentinel):
        cfg = GameConfig(n_agents=30, seed=3, memory=3,
                         n_exclusive=12, **kw)
        state = init_game(cfg, ticks)
        assert state.scores.dtype == (np.int32 if sentinel == UNLINKED_SCORE else np.float64)
        unlinked = ~state.choice_mask.T
        assert unlinked.sum() == 12 * 2
        assert (state.scores[unlinked] == sentinel).all()
        for _ in range(300):
            one_tick(state)
        assert (state.scores[unlinked] == sentinel).all()
        linked = state.scores[~unlinked]
        assert linked.any() and np.isfinite(linked).all() and (linked > UNLINKED_SCORE).all()

    def test_run_plays_integer_scores(self, monkeypatch):
        played = []

        def init_and_keep(cfg, ticks=None):
            played.append(init_game(cfg, ticks))
            return played[-1]

        monkeypatch.setattr(engine, "init_game", init_and_keep)
        run(GameConfig(n_agents=11, seed=1, n_exclusive=5), 50)
        assert played[0].scores.dtype == np.int32 and played[0].last_market is not None

    @pytest.mark.parametrize("cfg", [
        GameConfig(n_agents=1200, seed=2, n_exclusive=900),
        GameConfig(n_agents=301, seed=3, n_markets=3, payoff="sign", zero_demand="plus-one"),
    ], ids=["irregular-linear", "K3-sign"])
    def test_run_matches_float_scores(self, cfg):
        ticks = 300
        want = init_game(cfg)
        assert want.scores.dtype == np.float64
        out = RunRecords.empty(cfg, ticks)
        for i in range(ticks):
            step(want, out, i)
        got = run(cfg, ticks)
        for name, column in columns(got).items():
            assert np.array_equal(column, getattr(out, name)), name

    @pytest.mark.parametrize("payoff, n, ticks, dtype", [
        ("linear", 33, (2**30 - 1) // 33, np.int32),  # N*T = 2**30 - 1
        ("linear", 32, 2**25, np.float64),  # N*T = 2**30
        ("sign", 5, 2**30 - 1, np.int32),
        ("sign", 5, 2**30, np.float64),
    ])
    def test_dtype_at_bound(self, payoff, n, ticks, dtype):
        cfg = GameConfig(n_agents=n, seed=1, payoff=payoff, n_exclusive=2)
        state = init_game(cfg, ticks)
        assert state.scores.dtype == dtype
        sentinel = UNLINKED_SCORE if dtype == np.int32 else -np.inf
        assert (state.scores[2:, :2] == sentinel).all()

    @pytest.mark.parametrize("kw, ticks", [
        (dict(payoff="scaled"), 10),
        (dict(init_utilities="uniform"), 10),
        (dict(), None),
        (dict(payoff="sign"), None),
    ], ids=["scaled", "uniform", "linear-no-ticks", "sign-no-ticks"])
    def test_float_scores_elsewhere(self, kw, ticks):
        cfg = GameConfig(n_agents=9, seed=1, n_exclusive=4, **kw)
        state = init_game(cfg, ticks)
        assert state.scores.dtype == np.float64
        assert np.isneginf(state.scores[2:, :4]).all()


def played_game():
    state = init_game(GameConfig(n_agents=40, seed=11, n_markets=3, memory=3, payoff="sign"))
    for _ in range(5):
        one_tick(state)
    return state


class TestStateViews:
    """``utilities`` is an agent-first view of the engine's agent-minor
    scores and ``tables`` the table storage itself; writes through either
    must reach the next tick."""

    def assert_write_reaches_step(self, write, copied):
        state = played_game()
        if copied:
            state = copy.deepcopy(state)
        untouched, _ = assert_steps_like_reference(played_game(), 20)
        write(state)
        written, _ = assert_steps_like_reference(state, 20)
        assert written != untouched

    @pytest.mark.parametrize("copied", [False, True])
    def test_item_assignment(self, copied):
        def write(state):
            for i in range(0, 40, 3):
                state.utilities[i] = 0.0
                state.utilities[i, 2, 1] = 50.0
        self.assert_write_reaches_step(write, copied)

    @pytest.mark.parametrize("copied", [False, True])
    def test_inplace_add(self, copied):
        def write(state):
            state.utilities[...] += np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 25.0]])
        self.assert_write_reaches_step(write, copied)

    @pytest.mark.parametrize("copied", [False, True])
    def test_table_assignment(self, copied):
        def write(state):
            state.tables[:, :, :20] = -state.tables[:, :, :20]
        self.assert_write_reaches_step(write, copied)

    def test_deepcopy_steps_identically(self):
        # a deep copy and an unpickled copy each own their arrays
        state = played_game()
        twins = [copy.deepcopy(state), pickle.loads(pickle.dumps(state))]
        for twin in twins:
            for name in ("tables", "scores", "histories"):
                assert not np.shares_memory(getattr(twin, name), getattr(state, name)), name
        assert not np.shares_memory(twins[0].tables, twins[1].tables)
        for _ in range(30):
            want = tick_tuple(one_tick(state))
            assert [tick_tuple(one_tick(twin)) for twin in twins] == [want, want]
        for twin in twins:
            assert np.array_equal(twin.tables, state.tables)
            assert np.array_equal(twin.utilities, state.utilities)
            assert twin.draws.sync().bit_generator.state == state.draws.sync().bit_generator.state

    def test_storage_is_agent_minor(self):
        state = played_game()
        assert state.scores.shape == (6, 40) and state.scores.flags.c_contiguous
        assert np.shares_memory(state.utilities, state.scores)
        assert state.utilities.shape == (40, 3, 2)
        assert state.tables.shape == (3 * 8, 2, 40) and state.tables.flags.c_contiguous

    def test_market_rows_and_histories_in_place(self):
        # step reads row k*2**m + mu of the tables for market k, and writes
        # the next histories into the same array
        state = played_game()
        assert state.market_rows.tolist() == [0, 8, 16]
        histories = state.histories
        one_tick(state)
        assert state.histories is histories

    def test_state_read_by_tracer(self):
        # perfbench's layer tracer reads these shapes and sizes from a game
        # (its tied-agent count and engine.state_bytes)
        state = played_game()
        n, k_markets, s, m = 40, 3, 2, 3
        assert state.utilities.shape[0] == n
        assert state.utilities.reshape(n, -1).shape == state.choice_mask.shape
        assert state.tables.nbytes == n * k_markets * s * (1 << m)

    def test_results_and_names_read_by_tracer(self):
        # the tracer's other hooks read these results, and its per-layer
        # metrics name these functions, which it finds through each __all__
        import importlib

        from mmg.experiments import ensemble_run
        from mmg.io import render_records

        records = run(small_config(), 6)
        assert records.n_ticks == 6 and records.demand.shape == (6, 2)
        assert isinstance(render_records(records, "jsonl"), str)  # its hook encodes the text
        assert [s.failed for s in ensemble_run(small_config(), 20, 2)] == [False, False]
        named = {
            "engine": ["step", "run", "init_game"],
            "strategies": ["draw_strategies"],
            "experiments": ["summarize_run", "ensemble_run"],
            "io": ["render_records", "content_hash", "render_table"],
            "cli": ["cli_main"],
        }
        for layer, functions in named.items():
            exported = importlib.import_module(f"mmg.{layer}").__all__
            assert [name for name in functions if name not in exported] == [], layer
        assert importlib.import_module("mmg.rng").__all__  # rng.busy_s spans its functions

    def test_unlinked_mask_is_agent_minor(self):
        cfg = GameConfig(n_agents=9, seed=1, n_exclusive=4)
        scores = init_game(cfg).scores
        assert scores.shape == (4, 9) and scores.flags.c_contiguous
        # -inf at market 1 (rows 2 and 3) of the four n1 agents only
        unlinked = np.zeros((4, 9), dtype=bool)
        unlinked[2:, :4] = True
        assert np.array_equal(np.isneginf(scores), unlinked)
