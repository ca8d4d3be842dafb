"""Tick loop of the multi-market minority game.

Each tick runs in a pinned order: (1) every agent activates its
highest-utility strategy across its linked markets, ties resolved per
config; (2) occupancy and signed demand are aggregated per market over the
active agents; (3) the minority action is -sign(demand), with the
zero-demand rule deciding balanced or empty markets; (4) every strategy on
every linked market -- active and passive alike -- is scored with
``-action * g(demand)`` evaluated at this tick's pre-update histories;
(5) the minority actions are shifted into the histories; (6) the number of
agents whose active market changed since the previous tick is recorded.

Randomness is consumed in a pinned order: at init, endowment bits (NumPy's
int8 bits, read from 32-bit words; see ``mmg.strategies``), then uniform
initial utilities (when enabled), then one initial history per market; per
tick, one draw in ``[0, n)`` per agent tied between n maximizers, in agent
index order, picking among them in flat (market, slot) order (random
tie-breaking only), then one coin per balanced market in market index order
(coin rule only). Every draw, from the first table bit on, is made by the
game's one ``mmg.rng.Draws``, built from its seed by ``init_game`` and kept
as ``GameState.draws``, which alone holds the game's PCG64 and draws from
its raw words, each equal to the NumPy ``Generator`` call it stands for,
so the bytes depend only on PCG64 and ``SeedSequence``, which NumPy keeps
fixed across versions, and a (config, seed) pair determines the full
trajectory bit for bit. The tie-breaks read the same stream whether they are made one scalar
draw at a time or in one array draw, and so do the coins; their count this
tick picks which (``SCALAR_DRAWS``). An agent's draw p picks its (p+1)-th
maximizer; with many tied agents (``GameState.count_ties``) that is the row
whose running count of maximizers down the K*s rows first exceeds p, for
every agent at once, and otherwise it is found among the gathered rows of
the tied agents alone. Both pick the same row, so the tie count picks only
the cheaper path. A game with fewer than ``ARGMAX_AGENTS`` agents takes
every agent's first maximizer from ``argmax`` and finds its tied agents as
those whose last maximizer (an ``argmax`` up the reversed rows) is another
row; it picks among the tied agents' own columns, never from the running
count.

``step`` works on whole arrays of agents and is the only implementation of
the tick; there are no per-agent helpers. Its arrays keep the agent axis
last: utilities are stored as ``GameState.scores``, one row of length N
per (market, slot) pair in flat order, and strategy tables as
``GameState.tables``, one ``(s, N)`` block per (market, history) pair (see
``mmg.strategies``). So every per-tick reduction runs across K*s
contiguous rows rather than along a short inner axis, and a tick reads its
actions as one ``take`` of K table rows. ``GameState.utilities`` is a
transposed view of the scores in the agent-first shape ``(N, K, s)``. The
plain-Python per-agent loop in ``tests/reference.py`` follows the same
order and random stream and serves as its oracle. ``run`` sizes and
allocates the columnar ``RunRecords`` of its config once, and ``step`` writes
tick i into its row i, so no column holds t; that is the one layout io
renders and every estimator reads.
Aggregation depends on agents per market and on K*s. From
``ONE_HOT_AGENTS`` agents per market up, while K*s <= ``ONE_HOT_ROWS``,
each market's counts come from its block of the one-hot ``(K, s, N)`` of
the choices, and each agent's chosen (market, slot) row, its active market
and ``GameState.last_market`` stay in the dtype of ``GameState.weights``,
the smallest unsigned type that holds K*s (uint8 here), so the switch
count compares bytes. Otherwise the counts come from ``bincount`` over the
gathered actions, and the chosen rows are intp, which ``take`` and
``bincount`` index with. The per-market work of a tick (minority, coins,
next histories) runs on Python ints, since K is small and a NumPy call on a
K-vector costs more than the arithmetic.

Scores are int32 when every utility is an integer that stays above
``UNLINKED_SCORE``: a linear or sign game from zero utilities whose length
``run`` passes to ``init_game``. Every other game (scaled, uniform initial
utilities, too long a game, or ``init_game`` without ticks) has float64
scores. The unlinked entries of either hold a sentinel below every linked
score in ``scores`` itself, ``UNLINKED_SCORE`` or -inf, so the choice reads
the scores directly. Both make the same comparisons, since a float64 sum of
integers of this size is exact; the int32 ones read half the bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import GameConfig
from .rng import Draws
from .strategies import agent_chunks, draw_strategies

__all__ = [
    "RunRecords",
    "GameState",
    "init_game",
    "step",
    "run",
]

# A tick with at most this many tie-breaks makes them one scalar draw
# (``Draws.integer``) each, each picking among its agent's own maximizer
# rows, and with more makes them in one array draw (``Draws.integers``),
# picking as set out below. Likewise a tick with at most this many balanced
# markets draws their coins one scalar draw each, and with more in one sized
# draw. Both read the same numbers and leave the stream in the same state,
# so the count picks only the cheaper path. Per call (numpy 2.4.6, 2-vCPU
# Xeon), a scalar draw costs about 0.35 us, an array draw of 8 highs 4.4 us
# and a sized draw of 8 coins 3.6 us. On whole ticks (``scripts/tickbench.py
# --parent``, m=5, s=2, random ties; us per tick, blocks won of 21), 8 over
# 4: N11 21.2 -> 20.6 (17), N64 29.2 -> 26.6 (20), N128 30.7 -> 28.1 (20),
# N11K40 51.8 -> 46.7 (21), N1447s 57.8 -> 57.5 (12); 12 and 16 over 8 moved
# no game by more than 0.8 us.
SCALAR_DRAWS = 8

# A game with fewer than this many agents takes each agent's first maximizer
# from ``argmax`` down its K*s rows and, under random ties, finds the tied
# agents as those whose first and last maximizers differ, then picks among
# the tied agents' own columns (one scalar draw each, or one gather); it
# never reads ``weights``, ``rows`` or ``count_ties``. Larger games keep the
# weights formula and the count of maximizers, since ``argmax`` along axis 0
# runs one inner loop per agent. Measured on whole ticks, both sides
# alternated in one process (m=5, s=2, linear payoff, int32 scores; numpy
# 2.4.6, 2-vCPU Xeon; two runs), argmax over weights speed at N = 16 / 48 /
# 64 / 80 / 128, random ties: K=2 0.99-1.13x / 1.00-1.06x / 1.02-1.04x /
# 0.96-1.00x / 0.92-0.95x, K=3 1.15-1.25x / 1.05x / 1.00-1.01x / 0.96-0.98x
# / 0.90x, K=5 1.09-1.10x / 0.98-1.00x / 0.97-0.99x / 0.95x / 0.89-0.90x.
# Lowest-index ties gain at every N measured (1.12-1.46x), so the bound sits
# at the random-tie crossover of K = 2 and 3.
ARGMAX_AGENTS = 64

# A tick with more than SCALAR_DRAWS tie-breaks finds every agent's pick in
# one running count of maximizers down the K*s rows when at least
# ceil(log2 K*s) * max(COUNT_TIES, N // COUNT_SHARE) agents tie
# (``GameState.count_ties``), and among the gathered rows of the tied agents
# otherwise. The count makes ceil(log2 K*s) doubling passes over all N agents;
# the gather's cost grows with the tied agents alone. Measured on
# ``_choose_all`` over 15 alternations on the same scores (numpy 2.4.6, 2-vCPU
# Xeon), count over gather time on every tick with more than SCALAR_DRAWS
# ties: N=1447 sign, K*s = 4 / 9 / 16 / 32: 0.74x / 0.67x / 0.53x / 0.57x;
# N=300 sign, K*s=15: 0.89x. The bound keeps the gather where the count was
# slower: N=60 sign K*s=9 1.07x, N=11 K=40 1.12x, N=4096 K=8 1.11x and
# N=20480 K=40 1.52x (and on most ticks of the big_run game, 0.95x).
COUNT_TIES = 8
COUNT_SHARE = 32

# A tick with at least this many agents per market (N >= K * ONE_HOT_AGENTS)
# counts each market's occupancy and demand from the one-hot of the chosen
# rows, one ``count_nonzero`` per contiguous (s, N) block of the market; with
# fewer, from two ``bincount`` calls over the gathered actions. Both give the
# same integers. The one-hot work grows with K*s*N, the bincounts' with N.
# Measured on whole ticks, both paths alternated in one process (m=5, s=2,
# linear payoff, random ties; numpy 2.4.6, 2-vCPU Xeon), one-hot over
# bincount speed at 384 / 512 / 640 agents per market: K=2 0.97-0.99x /
# 1.01-1.02x / 1.05x, K=3 0.98-0.99x / 1.00-1.02x / 1.06x, K=5 0.92x /
# 1.05x / -.
ONE_HOT_AGENTS = 512

# ... and only while it has at most this many (market, slot) rows, K*s <=
# ONE_HOT_ROWS, since the bincounts' work does not grow with K*s. Measured
# the same way (m=2, int32 scores; K from 2 to 40, 512 and 1024 agents per
# market), median one-hot over bincount speed by K*s: 8 1.05x, 12 1.04x, 14
# 1.02x, 16 0.98x, 20 0.97x, 24 0.98x, 32 0.95x, 40 0.92x, 80 (K=40, s=2)
# 0.85x; single games spread up to 0.1x around these.
ONE_HOT_ROWS = 14

# Score of an unlinked (agent, market) entry in a game with int32 scores.
# A linear or sign game from zero utilities moves a utility by at most N
# (linear) or 1 (sign) a tick; ``init_game`` gives it int32 scores only when
# that bound times T stays above this sentinel, so the sentinel sits below
# every linked score. Unlinked entries score action 0 and keep it.
UNLINKED_SCORE = -(1 << 30)


@dataclass(eq=False)
class RunRecords:
    """Observables of a whole run, one row per tick, and the game they came from.

    This is the only layout records are stored and serialized in;
    ``step`` writes tick i into row i, so a row's index is its tick.
    ``config`` is the played game, which the estimators read N, K, s and m
    from; neither it nor ``n_tied`` is serialized.
    """

    config: GameConfig
    occupancy: np.ndarray  # (T, K)
    demand: np.ndarray  # (T, K)
    minority: np.ndarray  # (T, K)
    history: np.ndarray  # (T, K)
    n_switched: np.ndarray  # (T,)
    n_tied: np.ndarray  # (T,) tie draws

    @staticmethod
    def check(cfg: GameConfig, ticks: int) -> int:
        """Refuse records of ``ticks`` ticks of ``cfg`` before anything is allocated:
        T < 1, or the 8*T*(4K+2) bytes of ``empty`` past the budget. Return those bytes."""
        GameConfig.check_counts(T=ticks)
        record_bytes = 8 * ticks * (4 * cfg.n_markets + 2)
        GameConfig.check_budget("T", f"records of T={ticks} ticks need 8*T*(4K+2)",
                                record_bytes, "T")
        return record_bytes

    @classmethod
    def empty(cls, cfg: GameConfig, ticks: int) -> RunRecords:
        """Unfilled records of ``ticks`` ticks of the game ``cfg``."""
        per_market = [np.empty((ticks, cfg.n_markets), dtype=np.int64) for _ in range(4)]
        return cls(cfg, *per_market, *(np.empty(ticks, dtype=np.int64) for _ in range(2)))

    @property
    def n_ticks(self) -> int:
        return len(self.n_switched)


@dataclass(eq=False)
class GameState:
    """Full mutable state of one game run.

    ``tables`` and ``scores`` are plain arrays with the agent axis last (see
    ``mmg.strategies`` and the module docstring); ``utilities`` is the
    read-only ``(N, K, s)`` view of ``scores``, whose items write into
    ``scores``; no module of ``mmg`` reads it (``experiments`` traces fig6
    from ``scores``). ``draws`` makes every draw of the game and holds its
    stream alone; ``draws.sync()`` is a NumPy generator in that stream's
    state (``mmg.rng.Draws``). A deep copy or an unpickled state owns copies
    of the arrays and of the stream.
    The fields after ``last_market`` are derived once from the config; ``step`` reads
    all of them every tick, except that a game with fewer than
    ``ARGMAX_AGENTS`` agents reads neither ``weights``, ``rows`` nor
    ``count_ties``. ``step`` writes the next histories into ``histories`` in
    place. ``__post_init__`` writes the unlinked entries of ``scores``, rows
    ``k*s:`` of each run of agents (``GameConfig.agent_runs``):
    ``UNLINKED_SCORE`` in int32 scores and -inf in float64 ones. A write
    through ``utilities`` must leave them so, or an agent may pick a strategy
    on a market it is not linked to. Besides the tables and the scores, a
    game keeps ``agents`` (8*N) and ``last_market`` (8*N, or N on the
    one-hot side of ``step``), not ``choice_mask``; see
    ``config.MAX_TABLE_BYTES`` for what that adds up to.
    """

    config: GameConfig
    draws: Draws
    tables: np.ndarray  # (K*2**m, s, N) int8, row k*2**m + mu is market k at history mu
    scores: np.ndarray  # (K*s, N) int32 or float64, row k*s + i is slot i on market k
    histories: np.ndarray  # (K,) int64
    last_market: np.ndarray | None = None  # (N,) active market at t-1
    weights: np.ndarray = field(init=False)  # (K*s, 1) K*s down to 1, in flat order
    rows: np.ndarray = field(init=False)  # (K*s, 1) 0 up to K*s - 1, dtype of ``weights``
    agents: np.ndarray = field(init=False)  # (N,) agent indices
    market_rows: np.ndarray = field(init=False)  # (K,) int64 first row k * 2**m of market k
    count_ties: int = field(init=False)  # fewest tied agents picked by the running count

    def __post_init__(self) -> None:
        cfg = self.config
        n, k_markets, s = cfg.n_agents, cfg.n_markets, cfg.n_strategies
        rows = k_markets * s
        unlinked = UNLINKED_SCORE if self.scores.dtype == np.int32 else -np.inf
        for agents, k in cfg.agent_runs():
            self.scores[k * s:, agents] = unlinked
        self.weights = np.arange(rows, 0, -1, dtype=np.min_scalar_type(rows))[:, None]
        self.rows = rows - self.weights
        self.agents = np.arange(n)
        self.market_rows = np.arange(cfg.n_markets) << cfg.memory
        doublings = (rows - 1).bit_length()
        self.count_ties = max(SCALAR_DRAWS + 1, doublings * max(COUNT_TIES, n // COUNT_SHARE))

    @property
    def choice_mask(self) -> np.ndarray:
        """(N, K*s) linked-strategy mask, from the config's runs of agents;
        ``step`` never reads it."""
        mask = np.zeros(self.scores.shape[::-1], dtype=bool)
        for agents, k in self.config.agent_runs():
            mask[agents, :k * self.config.n_strategies] = True
        return mask

    @property
    def utilities(self) -> np.ndarray:
        """(N, K, s) view of ``scores``."""
        k_markets, s = self.config.n_markets, self.config.n_strategies
        return self.scores.reshape(k_markets, s, -1, copy=False).transpose(2, 0, 1)


def _score_dtype(cfg: GameConfig, ticks: int | None) -> type:
    """int32 when every utility of a ``ticks``-tick game is an integer above
    ``UNLINKED_SCORE``; float64 otherwise and when ``ticks`` is None."""
    if ticks is None or cfg.init_utilities != "zero" or cfg.payoff not in ("linear", "sign"):
        return np.float64
    per_tick = cfg.n_agents if cfg.payoff == "linear" else 1
    return np.int32 if per_tick * ticks < -UNLINKED_SCORE else np.float64


def init_game(cfg: GameConfig, ticks: int | None = None) -> GameState:
    """Draw the strategy tables, initial utilities and initial histories,
    in that order, from the one ``Draws`` of the game's seed.

    Given the number of ticks to be played, an integral game gets int32
    scores (see ``UNLINKED_SCORE``); without it, the scores are float64.
    Tables and uniform initial utilities are written in place, one block of
    a run of agents at a time (``mmg.strategies.agent_chunks``), every table
    chunk before the first utility chunk; so init holds the arrays the game
    keeps plus one chunk, no mask of the links, and reads the random stream
    as one call per draw would. The game checked itself when it was
    built; ``ticks``, when given, is checked here as ``T``.
    """
    if ticks is not None:
        GameConfig.check_counts(T=ticks)
    draws = Draws(cfg.seed)
    n, k_markets, s = cfg.n_agents, cfg.n_markets, cfg.n_strategies
    tables = draw_strategies(draws, cfg)
    scores = np.zeros((k_markets * s, n), dtype=_score_dtype(cfg, ticks))
    if cfg.init_utilities == "uniform":
        # (N, K, s) view of the scores; uniform holds one 64-bit word a value
        utilities = scores.reshape(k_markets, s, n).transpose(2, 0, 1)
        for agents, k in agent_chunks(cfg, 8 * s):
            draws.uniform(cfg.u_low, cfg.u_high, utilities[agents, :k])
    histories = draws.integers(1 << cfg.memory, size=k_markets)
    return GameState(config=cfg, draws=draws, tables=tables, scores=scores, histories=histories)


def _gain(demand: np.ndarray, cfg: GameConfig, dtype: type) -> np.ndarray:
    """g(demand) in ``dtype``, the dtype of the scores; scaled is float64."""
    if cfg.payoff == "linear":
        return demand.astype(dtype)
    if cfg.payoff == "sign":
        return np.sign(demand).astype(dtype)
    return demand / cfg.n_agents  # scaled


def _choose_all(state: GameState, dtype: np.typing.DTypeLike) -> tuple[np.ndarray, int]:
    """Flat (market*s + slot) choice per agent, as ``dtype``, and the number
    of tie draws made; consumes RNG only on ties."""
    scores = state.scores
    if len(state.agents) < ARGMAX_AGENTS:
        # each agent's first maximizer, in intp: a game this small never
        # counts from the one-hot, so intp is the dtype asked for
        choice = scores.argmax(axis=0)
        if state.config.tie_break != "random":
            return choice, 0
        # tied where the first maximizer is not the last
        tied = (choice + scores[::-1].argmax(axis=0) != len(scores) - 1).nonzero()[0]
        if len(tied) <= SCALAR_DRAWS:
            for j in tied.tolist():
                column = scores[:, j]
                rows = (column == column[choice[j]]).nonzero()[0]
                choice[j] = rows[state.draws.integer(len(rows))]
        else:
            columns = scores[:, tied]
            is_max = columns == columns.max(axis=0)
            _gather(state.draws, choice, tied, is_max, is_max.sum(axis=0))
        return choice, len(tied)
    is_max = scores == scores.max(axis=0)
    weights = state.weights
    if state.config.tie_break != "random":
        # the first maximizer carries the largest weight
        return np.subtract(len(weights), (is_max * weights).max(axis=0), dtype=dtype), 0
    counts = is_max.sum(axis=0, dtype=weights.dtype)
    tied = (counts > 1).nonzero()[0]
    if len(tied) >= state.count_ties:
        # running count of maximizers down the rows, in ceil(log2 K*s)
        # doublings in place (numpy reads overlapping operands as if copied)
        ranks = is_max.astype(weights.dtype)
        d = 1
        while d < len(ranks):
            ranks[d:] += ranks[:-d]
            d *= 2
        pick = np.zeros(len(counts), dtype=weights.dtype)
        pick[tied] = state.draws.integers(counts[tied])
        # the (pick+1)-th maximizer: the rows above it count at most pick
        above = (ranks <= pick).view(np.uint8)
        return above.sum(axis=0, dtype=weights.dtype).astype(dtype, copy=False), len(tied)
    choice = np.subtract(len(weights), (is_max * weights).max(axis=0), dtype=dtype)
    if len(tied) <= SCALAR_DRAWS:
        for j in tied.tolist():
            rows = is_max[:, j].nonzero()[0]
            choice[j] = rows[state.draws.integer(len(rows))]
    else:
        _gather(state.draws, choice, tied, is_max[:, tied], counts[tied].astype(np.int64))
    return choice, len(tied)


def _gather(draws: Draws, choice: np.ndarray, tied: np.ndarray,
            is_max: np.ndarray, highs: np.ndarray) -> None:
    """Draw each ``tied`` agent's row among its maximizers into ``choice``,
    in one array draw; ``is_max`` is the (K*s, len(tied)) maximizer mask of
    the tied agents and ``highs`` its int64 column counts."""
    # maximizer rows of every tied agent, agent by agent in row order
    rows = is_max.T.nonzero()[1]
    choice[tied] = rows[np.cumsum(highs) - highs + draws.integers(highs)]


def step(state: GameState, out: RunRecords, i: int) -> None:
    """Advance the game by one tick and write its observables into row ``i``
    of ``out``."""
    cfg = state.config
    k_markets, s = cfg.n_markets, cfg.n_strategies
    n = len(state.agents)
    mu = state.histories.tolist()

    # (K, s, N) action of every strategy at the current histories: one table
    # row per market
    acts = state.tables.take(state.market_rows + state.histories, axis=0)

    # (1) strategy choice, in intp off the one-hot side since take and
    # bincount index with it
    one_hot = n >= k_markets * ONE_HOT_AGENTS and k_markets * s <= ONE_HOT_ROWS
    choice, out.n_tied[i] = _choose_all(state, state.weights.dtype if one_hot else np.intp)
    market = choice // s

    # (2) aggregation over active agents; a chosen entry is +1 or -1
    demand = out.demand[i]
    if one_hot:
        chosen = (choice == state.rows).reshape(k_markets, s, n)
        plus = acts > 0
        plus &= chosen
        occupancy = [np.count_nonzero(block) for block in chosen]
        out.occupancy[i] = occupancy
        demand[:] = [2 * np.count_nonzero(block) - o for block, o in zip(plus, occupancy)]
    else:
        # each agent's entry of its chosen (K*s) row
        action = acts.take(choice * n + state.agents)
        out.occupancy[i] = np.bincount(market, minlength=k_markets)
        demand[:] = np.bincount(market, weights=action, minlength=k_markets)

    # (3) minority action, zero-demand markets resolved in market order
    demands = demand.tolist()
    minority = [-1 if a > 0 else 1 for a in demands]
    if cfg.zero_demand == "coin" and 0 in demands:
        balanced = demands.count(0)
        if balanced <= SCALAR_DRAWS:
            coins = iter([state.draws.integer(2) for _ in range(balanced)])
        else:
            coins = iter(state.draws.integers(2, size=balanced).tolist())
        minority = [2 * next(coins) - 1 if a == 0 else x for a, x in zip(demands, minority)]

    # (4) score every linked strategy, active and passive; unlinked entries
    # hold action 0 and stay untouched
    scores = state.scores.reshape(k_markets, s, n, copy=False)
    scores -= acts * _gain(demand, cfg, scores.dtype)[:, None, None]

    # (5) histories shift in the minority actions
    mask = (1 << cfg.memory) - 1
    state.histories[:] = [((h << 1) | (x > 0)) & mask for h, x in zip(mu, minority)]

    # (6) market-switch count; first tick defined as 0
    n_switched = 0
    if state.last_market is not None:
        n_switched = np.count_nonzero(market != state.last_market)
    state.last_market = market

    out.minority[i] = minority
    out.history[i] = mu
    out.n_switched[i] = n_switched


def run(cfg: GameConfig, ticks: int) -> RunRecords:
    """Play ``ticks`` ticks from a fresh game and return the columnar record."""
    RunRecords.check(cfg, ticks)
    state = init_game(cfg, ticks)
    out = RunRecords.empty(cfg, ticks)
    for i in range(ticks):
        step(state, out, i)
    return out
