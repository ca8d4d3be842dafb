"""Strategy tables and their seeded draw.

A history packs the last ``m`` winning (minority) decisions on one market
into an integer in ``[0, 2**m)``: +1 encodes to bit 1, -1 to bit 0, and the
newest decision enters as the least significant bit (the engine keeps one
per market). A strategy is a lookup table assigning an action in {-1, +1}
to each of the ``2**m`` histories. Both conventions are arbitrary but
pinned so that a seed fully determines a game.

A game's tables live in one contiguous int8 array of shape
``(K * 2**m, s, N)``: row ``k * 2**m + mu`` holds the actions of every
agent's s slots on market k at history mu, one ``(s, N)`` block, which is
what the engine reads each tick. Agent n's slot-i action there is
``tables[k * 2**m + mu, i, n]``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["draw_strategies"]


def draw_strategies(
    rng: np.random.Generator,
    n_agents: int,
    n_markets: int,
    n_strategies: int,
    memory: int,
    link_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Draw every strategy table of a game, i.i.d. fair bits with replacement.

    Returns the ``(K * 2**m, s, N)`` int8 tables; the entries of unlinked
    (agent, market) pairs are zero and never consulted. Bits are consumed
    agent-major, then market, then slot, then history index, and only for
    linked (agent, market) pairs, so a seed pins the tables bit for bit.
    The storage order does not change the draw order: the bits are
    scattered through an agent-major view of the tables.
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
    tables = np.zeros((n_markets * P, n_strategies, n_agents), dtype=np.int8)
    # (N, K, s, 2**m) view: agent, market, slot, history
    agent_first = tables.reshape(n_markets, P, n_strategies, n_agents).transpose(3, 0, 2, 1)
    agent_first[link_mask] = 2 * bits - 1
    return tables
