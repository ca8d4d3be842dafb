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

The draw takes the game's stream (``mmg.rng.Draws``, the one that makes
every later draw of the game) and the game, and writes its tables in
place, one block of a run of agents at a time (``agent_chunks``): the
agents of a run and the k leading markets they are linked to. So it holds
the tables plus one chunk, never a second array the size of the tables nor
a mask of the links. The chunks read the random stream exactly as one call
over the whole game would.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .config import GameConfig
from .rng import Draws

__all__ = ["draw_strategies"]

# Most bytes one chunk of an in-place draw holds. A chunk holds at least one
# agent.
_CHUNK_BYTES = 1 << 18


def agent_chunks(cfg: GameConfig, pair_bytes: int) -> Iterator[tuple[slice, int]]:
    """Chunks of whole agents of the game ``cfg``, in agent order, each with
    the count k of leading markets its agents are linked to: every run of
    ``cfg.agent_runs()`` cut into chunks of at most ``_CHUNK_BYTES``, counting
    ``pair_bytes`` per linked (agent, market) pair."""
    for run, k in cfg.agent_runs():
        step = max(_CHUNK_BYTES // (k * pair_bytes), 1)
        for start in range(run.start, run.stop, step):
            yield slice(start, min(start + step, run.stop)), k


def draw_strategies(draws: Draws, cfg: GameConfig) -> np.ndarray:
    """Draw every strategy table of the game ``cfg``, i.i.d. fair bits with
    replacement, from the game's stream ``draws``. The game checked itself
    when it was built.

    Returns the ``(K * 2**m, s, N)`` int8 tables; the entries of unlinked
    (agent, market) pairs are zero and never consulted. Bits are consumed
    agent-major, then market, then slot, then history index, and only for
    linked (agent, market) pairs, so a seed pins the tables bit for bit.
    The storage order does not change the draw order: each chunk of agents
    is written to its block of an agent-major view of the tables.

    NumPy's int8 draw in [0, 2) reads each value from the top bit of a byte
    of a 32-bit word, low byte first, and drops a call's unused last bytes.
    So each chunk draws those words (``mmg.rng.Draws.words``) for its values
    rounded up to a multiple of four, turns their bytes into values in place
    and carries the 0-3 values past its own over: the chunks read the same
    words as one call. ``draws`` is left in the state that call leaves it in.
    """
    n_agents, n_markets, n_strategies = cfg.n_agents, cfg.n_markets, cfg.n_strategies
    P = 1 << cfg.memory
    tables = np.zeros((n_markets * P, n_strategies, n_agents), dtype=np.int8)
    # (N, K, s, 2**m) view: agent, market, slot, history
    agent_first = tables.reshape(n_markets, P, n_strategies, n_agents).transpose(3, 0, 2, 1)
    carry = np.empty(0, dtype=np.int8)
    # a chunk's words are a byte a value; counting 4 bounds all the draw holds
    # at once: the last chunk's words too, kept until the next draw returns,
    # and a copy of the words, made when they follow a buffered half or when
    # values carry over
    for agents, k in agent_chunks(cfg, 4 * n_strategies * P):
        block = agent_first[agents, :k]
        need = block.size
        words = draws.words((need - len(carry) + 3) // 4)
        bits = words.view(np.uint8)  # little-endian bytes
        bits = np.right_shift(bits, 7, out=bits).view(np.int8)
        if len(carry):
            bits = np.concatenate([carry, bits])
        bits, carry = bits[:need], bits[need:]
        bits *= 2
        bits -= 1
        block[...] = bits.reshape(block.shape)
    return tables
