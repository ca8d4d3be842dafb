import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import link_mask, one_tick
from mmg import ConfigError, GameConfig, init_game, run, strategies
from mmg.engine import UNLINKED_SCORE
from mmg.rng import Draws
from mmg.strategies import draw_strategies


def game(n_agents, n_markets, n_strategies, memory, **kw):
    """The game whose tables ``draw_strategies`` draws; its seed is unused."""
    return GameConfig(n_agents=n_agents, seed=0, n_markets=n_markets,
                      n_strategies=n_strategies, memory=memory, **kw)


def table_from_bits(bits, m):
    """Table whose action at history i is +1 where bit i of ``bits`` is set."""
    return np.array([1 if (bits >> i) & 1 else -1 for i in range(1 << m)], dtype=np.int8)


def lone_agent(m, table=None):
    """One agent holding one strategy on one market: the market's demand is
    that strategy's action, and the minority is its opposite."""
    cfg = GameConfig(
        n_agents=1, seed=0, n_markets=1, n_strategies=1, memory=m,
        tie_break="lowest-index", zero_demand="plus-one",
    )
    state = init_game(cfg)
    if table is not None:
        state.tables[:, 0, 0] = table
    return state


def actions_at(table, m, histories):
    """Action the engine reads from ``table`` at each history value."""
    state = lone_agent(m, table)
    out = []
    for h in histories:
        state.histories[0] = h
        out.append(int(one_tick(state).demand[0]))
    return out


def shift_in(state, winner):
    """Play one tick whose minority is ``winner``; return the new history."""
    state.tables[:, 0, 0] = -winner
    one_tick(state)
    return int(state.histories[0])


class TestEvaluate:
    def test_constant_all_zeros(self):
        assert actions_at(table_from_bits(0b0000, 2), 2, [0b10]) == [-1]

    def test_constant_all_ones(self):
        assert actions_at(table_from_bits(0b1111, 2), 2, range(4)) == [1, 1, 1, 1]

    def test_single_bit_enumeration(self):
        # bit 3 set: hand enumeration of all four histories gives -,-,-,+
        table = table_from_bits(0b1000, 2)
        assert actions_at(table, 2, [0b00, 0b01, 0b10, 0b11]) == [-1, -1, -1, 1]

    def test_memory_mismatch(self):
        # tables and histories share one memory length: every table holds
        # 2**m actions and every history played indexes inside it
        for m in range(1, 7):
            cfg = GameConfig(n_agents=3, seed=m, memory=m)
            state = init_game(cfg)
            assert state.tables.shape == (2 << m, 2, 3)
            assert run(cfg, 40).history.max() < 1 << m

    @given(bits=st.integers(min_value=0, max_value=2**16 - 1))
    def test_range_exhaustive(self, bits):
        table = table_from_bits(bits, 4)
        assert actions_at(table, 4, range(16)) == table.tolist()


class TestUpdateHistory:
    def test_shift_in_plus(self):
        state = lone_agent(2)
        state.histories[0] = 0b01
        assert shift_in(state, 1) == 0b11

    def test_shift_in_minus(self):
        state = lone_agent(2)
        state.histories[0] = 0b11
        assert shift_in(state, -1) == 0b10

    def test_saturation(self):
        state = lone_agent(5)
        state.histories[0] = 0
        for _ in range(5):
            h = shift_in(state, 1)
        assert h == 0b11111

    @settings(deadline=None)
    @given(
        m=st.integers(min_value=1, max_value=10),
        start=st.integers(min_value=0),
        word=st.integers(min_value=0),
    )
    def test_round_trip_overwrites_start(self, m, start, word):
        # After m ticks whose minorities spell out `word`, the start value
        # is fully gone.
        start %= 2**m
        word %= 2**m
        state = lone_agent(m)
        state.histories[0] = start
        for i in reversed(range(m)):
            h = shift_in(state, 1 if (word >> i) & 1 else -1)
        assert h == word


class TestDrawStrategies:
    def test_table_count(self):
        tables = draw_strategies(Draws(0), game(2, 2, 2, 2))
        assert tables.shape == (2 * 4, 2, 2)
        assert np.count_nonzero(tables) == 8 * 4  # 8 tables of 4 actions

    def test_determinism(self):
        a = draw_strategies(Draws(42), game(3, 2, 2, 3))
        b = draw_strategies(Draws(42), game(3, 2, 2, 3))
        assert np.array_equal(a, b)

    def test_values_are_actions(self):
        tables = draw_strategies(Draws(7), game(5, 2, 2, 4))
        assert set(np.unique(tables)) <= {-1, 1}

    def test_link_mask_zeroes_unlinked(self):
        # n1 = 2: agents 0 and 1 are linked to market 0 only, agent 2 to both
        tables = draw_strategies(Draws(3), game(3, 2, 2, 3, n_exclusive=2))
        assert np.count_nonzero(tables) == 8 * 8  # 8 tables of 8 actions
        assert np.all(tables[1 << 3:, :, 0] == 0)
        assert np.all(tables[1 << 3:, :, 1] == 0)
        assert set(np.unique(tables[:, :, 2])) <= {-1, 1}

    @pytest.mark.parametrize("kw, key", [
        (dict(n_agents=0), "N"), (dict(n_markets=0), "K"), (dict(n_strategies=0), "s"),
        (dict(memory=0), "m"), (dict(n_exclusive=9), "n1"), (dict(n_markets=3, n_exclusive=1), "K"),
    ])
    def test_bad_game_names_its_key(self, kw, key):
        with pytest.raises(ConfigError, match=f"^{key}: "):
            draw_strategies(Draws(0),
                            GameConfig(**{**dict(n_agents=5, seed=0, memory=2), **kw}))

    def test_uniform_over_tables(self):
        # N=K=s=1, m=1: four possible 2-bit tables, each expected 1/4 of seeds.
        scipy_stats = pytest.importorskip("scipy.stats")
        counts = np.zeros(4, dtype=int)
        cfg = game(1, 1, 1, 1)
        for seed in range(10_000):
            tables = draw_strategies(Draws(seed), cfg)
            bits = (tables[:, 0, 0] + 1) // 2
            counts[bits[0] * 2 + bits[1]] += 1
        res = scipy_stats.chisquare(counts)
        assert res.pvalue > 1e-4, f"counts {counts} too far from uniform"

    def test_good_strategy_fraction(self):
        # P(at least one of s tables says a0 at h0) = 1 - 1/2**s = 0.75 for s=2.
        tables = draw_strategies(Draws(11), game(4000, 1, 2, 5))
        frac = np.mean(np.any(tables[(0 << 5) + 7] == 1, axis=0))
        assert abs(frac - 0.75) < 0.03

    def test_table_view_matches_engine_layout(self):
        # step reads agent n's slot-i action on market k at history mu
        # from tables[k * 2**m + mu, i, n]
        state = init_game(GameConfig(n_agents=2, seed=5, memory=3, tie_break="lowest-index"))
        assert state.tables.shape == (2 * 8, 2, 2)
        state.utilities[0] = [[0.0, 0.0], [1.0, 0.0]]  # market 1, slot 0
        state.utilities[1] = [[0.0, 1.0], [0.0, 0.0]]  # market 0, slot 1
        mu = state.histories.copy()
        rec = one_tick(state)
        assert rec.occupancy.tolist() == [1, 1]
        assert rec.demand.tolist() == [state.tables[(0 << 3) + mu[0], 1, 1],
                                       state.tables[(1 << 3) + mu[1], 0, 0]]


def one_call_draw(rng, cfg):
    """Every table bit of the game ``cfg`` from one ``integers`` call: the
    draw whose tables and generator state the chunked draw reproduces."""
    n_agents, n_markets, n_strategies = cfg.n_agents, cfg.n_markets, cfg.n_strategies
    P, linked = 1 << cfg.memory, link_mask(cfg)
    bits = rng.integers(0, 2, size=(int(linked.sum()), n_strategies, P), dtype=np.int8)
    tables = np.zeros((n_markets * P, n_strategies, n_agents), dtype=np.int8)
    agent_first = tables.reshape(n_markets, P, n_strategies, n_agents).transpose(3, 0, 2, 1)
    agent_first[linked] = 2 * bits - 1
    return tables


def one_call_init(cfg):
    """Tables, (N, K, s) utilities, histories and generator state of a game
    from uniform initial utilities, each draw one call over the whole game."""
    n, k_markets, s = cfg.n_agents, cfg.n_markets, cfg.n_strategies
    rng = np.random.default_rng(cfg.seed)
    linked = link_mask(cfg)
    tables = one_call_draw(rng, cfg)
    utilities = np.full((n, k_markets, s), -np.inf)
    utilities[linked] = rng.uniform(cfg.u_low, cfg.u_high, size=(int(linked.sum()), s))
    histories = rng.integers(0, 1 << cfg.memory, size=k_markets, dtype=np.int64)
    return tables, utilities, histories, rng.bit_generator.state


# (N, K, n_exclusive): regular at K = 1, 2, 3 with odd and even N, and the
# irregular game with odd and even n1
GRID_GAMES = [(n, k, None) for n in (5, 6) for k in (1, 2, 3)] + [
    (n1 + n2, 2, n1) for n1, n2 in ((5, 3), (4, 3), (1, 6), (6, 1))
]

# 1 is the smallest chunk (one agent each); 160 bytes puts a few agents in
# each, so a chunk of an odd count of m=1, odd-s pairs carries values over
CHUNKS = [1, 160]


@pytest.mark.parametrize("n, k_markets, n1", GRID_GAMES)
def test_chunks_follow_the_runs(monkeypatch, n, k_markets, n1):
    # agents 0..N-1 once and in order, split at n1: k = 1 below it, K from it
    cfg = GameConfig(n_agents=n, seed=0, n_markets=k_markets, n_exclusive=n1)
    cut = n1 or 0
    for chunk in [*CHUNKS, strategies._CHUNK_BYTES]:
        monkeypatch.setattr(strategies, "_CHUNK_BYTES", chunk)
        for pair_bytes in (1, 24, 160):
            chunks = list(strategies.agent_chunks(cfg, pair_bytes))
            assert [a for run, _ in chunks for a in range(run.start, run.stop)] == list(range(n))
            for run, k in chunks:
                assert run.start < run.stop and run.step is None
                assert (run.start < cut) == (run.stop <= cut)  # no chunk spans n1
                assert k == (1 if run.start < cut else k_markets)
                # within the chunk bytes, or one agent
                assert run.stop - run.start == 1 or (run.stop - run.start) * k * pair_bytes <= chunk


@pytest.mark.parametrize("ticks", [300, None], ids=["int32", "float64"])
@pytest.mark.parametrize("n, k_markets, n1", GRID_GAMES)
def test_choice_mask_and_sentinels_follow_the_links(n, k_markets, n1, ticks):
    cfg = GameConfig(n_agents=n, seed=n, n_markets=k_markets, n_strategies=3, memory=2,
                     n_exclusive=n1)
    state = init_game(cfg, ticks)
    assert state.scores.dtype == (np.int32 if ticks else np.float64)
    linked = np.repeat(link_mask(cfg), 3, axis=1)  # (N, K*s), slots of a market together
    assert np.array_equal(state.choice_mask, linked)
    # the linked scores start at zero, above the sentinel
    sentinel = UNLINKED_SCORE if ticks else -np.inf
    assert np.array_equal(state.scores.T == sentinel, ~linked)


class TestChunkedDraw:
    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("s", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_tables_and_stream_match_one_call(self, monkeypatch, m, s, chunk):
        monkeypatch.setattr(strategies, "_CHUNK_BYTES", chunk)
        for n, k_markets, n1 in GRID_GAMES:
            cfg = game(n, k_markets, s, m, n_exclusive=n1)
            seed = n * 100 + k_markets * 10 + m
            want_rng, draws = np.random.default_rng(seed), Draws(seed)
            want = one_call_draw(want_rng, cfg)
            got = draw_strategies(draws, cfg)
            assert np.array_equal(got, want), (n, k_markets, n1)
            assert draws.sync().bit_generator.state == want_rng.bit_generator.state, \
                (n, k_markets, n1)

    def test_default_chunks_match_one_call(self):
        # the big_run game's 1.26 MiB of tables span several default chunks
        cfg = GameConfig(n_agents=10301, seed=3, n_exclusive=10000)
        want_rng, draws = np.random.default_rng(3), Draws(3)
        want = one_call_draw(want_rng, cfg)
        assert want.nbytes > 4 * strategies._CHUNK_BYTES
        assert np.array_equal(draw_strategies(draws, cfg), want)
        assert draws.sync().bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("s", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_uniform_utilities_match_one_call(self, monkeypatch, m, s, chunk):
        monkeypatch.setattr(strategies, "_CHUNK_BYTES", chunk)
        for n, k_markets, n1 in GRID_GAMES:
            cfg = GameConfig(n_agents=n, seed=n + m, n_markets=k_markets, n_strategies=s,
                             memory=m, n_exclusive=n1, init_utilities="uniform",
                             u_low=-2.0, u_high=3.0)
            tables, utilities, histories, rng_state = one_call_init(cfg)
            state = init_game(cfg, 10)
            assert np.array_equal(state.tables, tables), cfg
            assert np.array_equal(state.utilities, utilities), cfg
            assert np.array_equal(state.histories, histories), cfg
            assert state.draws.sync().bit_generator.state == rng_state, cfg


def traced_overhead(fn):
    """Peak traced bytes while ``fn()`` runs, less the bytes still held when
    it returns (its result among them)."""
    tracemalloc.start()
    try:
        result = fn()  # noqa: F841 -- held until the bytes are read
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - live


# the big_run game, and an m=1, s=1 irregular one with odd n1, whose tables
# are 4 bytes an agent: an index array over all its linked pairs (16 bytes
# a pair) would be four times them
BIG_GAMES = {
    "big_run": dict(n_agents=10301, n_exclusive=10000),
    "m1s1": dict(n_agents=100001, memory=1, n_strategies=1, n_exclusive=99001),
}
# Python objects and the game's few per-market arrays
SLACK = 16 << 10


class TestInitMemory:
    @pytest.mark.parametrize("name", BIG_GAMES)
    def test_draw_holds_tables_plus_one_chunk(self, name):
        cfg = GameConfig(seed=1, **BIG_GAMES[name])
        over = traced_overhead(lambda: draw_strategies(Draws(1), cfg))
        assert over <= strategies._CHUNK_BYTES + SLACK

    @pytest.mark.parametrize("init_utilities", ["zero", "uniform"])
    @pytest.mark.parametrize("name", BIG_GAMES)
    def test_init_game_holds_kept_arrays_plus_one_chunk(self, name, init_utilities):
        cfg = GameConfig(seed=1, init_utilities=init_utilities, **BIG_GAMES[name])
        over = traced_overhead(lambda: init_game(cfg, 300))
        assert over <= strategies._CHUNK_BYTES + SLACK
