"""Strategy tables and their seeded draw.

A history packs the last ``m`` winning (minority) decisions on one market
into an integer in ``[0, 2**m)``: +1 encodes to bit 1, -1 to bit 0, and the
newest decision enters as the least significant bit (the engine keeps one
per market). A strategy is a lookup table assigning an action in {-1, +1}
to each of the ``2**m`` histories. Both conventions are arbitrary but
pinned so that a seed fully determines a game.

A game's tables live in one int8 array stored agent-minor, as
``(K, 2**m, s, N)``: the actions of all agents for one (market, history)
pair form one contiguous ``(s, N)`` block, which is what the engine reads
each tick. ``Endowment.actions`` is the ``(N, K, s, 2**m)`` transposed
view of that storage, so code indexes it agent first and writes through
it to the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Endowment", "draw_strategies"]


@dataclass(eq=False)
class Endowment:
    """All strategy tables drawn for one game.

    ``actions[n, k, i, mu]`` is the action of agent n's slot-i strategy on
    market k at history value mu. Entries of unlinked (agent, market) pairs
    are zero and never consulted. ``draw_strategies`` makes ``actions`` a
    view whose ``transpose(1, 3, 2, 0)`` is the contiguous storage.
    """

    actions: np.ndarray  # (N, K, s, 2**m) int8, view of (K, 2**m, s, N) storage
    link_mask: np.ndarray  # (N, K) bool
    memory: int

    @property
    def n_agents(self) -> int:
        return self.actions.shape[0]

    @property
    def n_markets(self) -> int:
        return self.actions.shape[1]

    @property
    def n_strategies(self) -> int:
        return self.actions.shape[2]


def draw_strategies(
    rng: np.random.Generator,
    n_agents: int,
    n_markets: int,
    n_strategies: int,
    memory: int,
    link_mask: np.ndarray | None = None,
) -> Endowment:
    """Draw the full strategy endowment, i.i.d. fair bits with replacement.

    Bits are consumed agent-major, then market, then slot, then history
    index, and only for linked (agent, market) pairs, so a seed pins the
    endowment bit for bit. The storage order does not change the draw
    order: the bits are scattered through the agent-major view.
    """
    if min(n_agents, n_markets, n_strategies, memory) < 1:
        raise ValueError("n_agents, n_markets, n_strategies and memory must be >= 1")
    P = 1 << memory
    if link_mask is None:
        link_mask = np.ones((n_agents, n_markets), dtype=bool)
    link_mask = np.asarray(link_mask, dtype=bool)
    if link_mask.shape != (n_agents, n_markets):
        raise ValueError("link_mask shape does not match (n_agents, n_markets)")
    n_linked = int(link_mask.sum())
    bits = rng.integers(0, 2, size=(n_linked, n_strategies, P), dtype=np.int8)
    storage = np.zeros((n_markets, P, n_strategies, n_agents), dtype=np.int8)
    actions = storage.transpose(3, 0, 2, 1)
    actions[link_mask] = 2 * bits - 1
    return Endowment(actions=actions, link_mask=link_mask, memory=memory)
