"""Plain-Python reference engine: the oracle for ``mmg.engine.step``.

One tick is a loop over per-agent lists, written to be read next to the
model description rather than to be fast. It covers any K, s and m, the
irregular game (``GameConfig.n_exclusive``), all three payoffs, both tie
rules and both zero-demand rules.

It starts from a state built by ``init_game`` and draws from a snapshot of
that state's stream (``state.draws.sync()``) in the order ``step`` does:
one ``integers(0, len(maximizers))`` per tied agent, in agent order,
picking from the maximizers in flat (market, slot) order; then one
``integers(0, 2)`` per balanced market, in market order. It copies what it
reads, so it leaves the state as it found it. Started from the same
initial state, it must reproduce ``step`` bit for bit: records, utilities
and the final generator state.
"""

from __future__ import annotations

from typing import NamedTuple


class RefTick(NamedTuple):
    occupancy: list[int]
    demand: list[int]
    minority: list[int]
    history: list[int]
    n_switched: int


class ReferenceGame:
    """Per-agent lists copied from a ``GameState``, and a snapshot of its
    stream."""

    def __init__(self, state):
        cfg = state.config
        self.cfg = cfg
        self.rng = state.draws.sync()
        self.tables = state.tables.tolist()  # [market * 2**m + mu][slot][agent]
        self.utilities = state.utilities.tolist()  # [agent][market][slot]
        self.histories = [int(h) for h in state.histories]
        n1 = cfg.n_exclusive or 0  # the first n1 agents hold market 0 only
        self.strategies = [  # (market, slot) pairs each agent holds, flat order
            [(k, i) for k in range(cfg.n_markets) if k == 0 or agent >= n1
             for i in range(cfg.n_strategies)]
            for agent in range(cfg.n_agents)
        ]
        self.last_market = None if state.last_market is None else state.last_market.tolist()
        self.tick_tie_draws = []  # tie draws of each tick played
        self.coin_draws = 0

    @property
    def tie_draws(self) -> int:
        return sum(self.tick_tie_draws)

    def _gain(self, demand: int) -> float:
        if self.cfg.payoff == "linear":
            return float(demand)
        if self.cfg.payoff == "sign":
            return float((demand > 0) - (demand < 0))
        return demand / self.cfg.n_agents

    def step(self) -> RefTick:
        cfg, rng, mu = self.cfg, self.rng, self.histories
        n_markets = cfg.n_markets

        # (1) every agent activates its highest-utility strategy
        markets, actions = [], []
        tie_draws = 0
        for agent, held in enumerate(self.strategies):
            util = self.utilities[agent]
            best = max(util[k][i] for k, i in held)
            maximizers = [(k, i) for k, i in held if util[k][i] == best]
            pick = 0
            if len(maximizers) > 1 and cfg.tie_break == "random":
                pick = int(rng.integers(0, len(maximizers)))
                tie_draws += 1
            k, i = maximizers[pick]
            markets.append(k)
            actions.append(self.tables[(k << cfg.memory) + mu[k]][i][agent])
        self.tick_tie_draws.append(tie_draws)

        # (2) occupancy and signed demand per market
        occupancy = [0] * n_markets
        demand = [0] * n_markets
        for k, action in zip(markets, actions):
            occupancy[k] += 1
            demand[k] += action

        # (3) minority action; balanced (or empty) markets fall to the rule
        minority = []
        for k in range(n_markets):
            if demand[k] > 0:
                minority.append(-1)
            elif demand[k] < 0:
                minority.append(1)
            elif cfg.zero_demand == "coin":
                minority.append(2 * int(rng.integers(0, 2)) - 1)
                self.coin_draws += 1
            else:
                minority.append(1)

        # (4) every held strategy, active or passive, earns -action * g(A)
        gains = [self._gain(a) for a in demand]
        for agent, held in enumerate(self.strategies):
            for k, i in held:
                self.utilities[agent][k][i] -= (
                    self.tables[(k << cfg.memory) + mu[k]][i][agent] * gains[k]
                )

        # (5) shift the minority actions into the histories
        mask = (1 << cfg.memory) - 1
        self.histories = [
            ((h << 1) | (1 if w == 1 else 0)) & mask for h, w in zip(mu, minority)
        ]

        # (6) agents whose market changed since the previous tick
        if self.last_market is None:
            n_switched = 0
        else:
            n_switched = sum(a != b for a, b in zip(markets, self.last_market))
        self.last_market = markets

        return RefTick(occupancy, demand, minority, list(mu), n_switched)


def reference_run(state, ticks: int) -> tuple[list[RefTick], ReferenceGame]:
    """Play ``ticks`` ticks from ``state``; the game carries the final utilities."""
    game = ReferenceGame(state)
    return [game.step() for _ in range(ticks)], game
