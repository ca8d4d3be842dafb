"""Game configuration.

A ``GameConfig`` fixes one game. Its ``n_exclusive`` field, the paper's n1,
is the market topology: None is the regular game, where every agent may act
on every market; an int makes the two-market irregular game, where the
first n1 agents may act only on market 0 and the other N - n1 on both. The
config format writes that game as ``topology=irregular n1= n2=``
(``mmg.io``).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

__all__ = [
    "ConfigError",
    "GameConfig",
    "CONFIG_KEYS",
    "MAX_MEMORY",
    "MAX_TABLE_BYTES",
]

MAX_MEMORY = 24  # keeps 2**m indexable in a machine word with headroom
# Largest size ``GameConfig.check_budget`` lets the strategy tables (N*K*s*2**m
# int8 bytes), a run's records or fig6's arrays reach, each on its own. A game
# keeps more than its tables: the scores, unlinked entries included (4*N*K*s
# bytes when int32, 8*N*K*s otherwise), ``agents`` (8*N) and ``last_market``
# (8*N, or N on the one-hot side of ``engine.step``). At m=1, s=1 that is 9.5x
# the tables for K=1 and 7.25x for K=2 (float64 scores, one-hot side; 7.5x and
# 5.25x when int32), and 13x and 9x for a game under 512*K agents, on the
# bincount side (tracemalloc after ``init_game`` and one ``step``, per byte of
# tables as N grows); ``init_game`` itself holds one chunk more.
MAX_TABLE_BYTES = 1 << 30


class ConfigError(ValueError):
    """Invalid configuration; carries an optional source location."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class GameConfig:
    """Complete, seedable description of one game.

    ``n_exclusive`` is None in a regular game, where every agent is linked
    to every market. Set, it is the paper's n1 of the irregular game (two
    markets): the first n1 agents are linked only to market 0, the other
    n2 = N - n1 agents to both.

    A game checks itself when built, ``dataclasses.replace`` included: a bad
    field raises ConfigError naming its key.
    """

    n_agents: int
    seed: int
    n_markets: int = 2
    n_strategies: int = 2
    memory: int = 5
    payoff: str = "linear"
    n_exclusive: int | None = None
    init_utilities: str = "zero"
    u_low: float = 0.0
    u_high: float = 1.0
    tie_break: str = "random"
    zero_demand: str = "coin"

    @property
    def table_bytes(self) -> int:
        """Size of the int8 strategy tables, N*K*s*2**m bytes."""
        return (self.n_agents * self.n_markets * self.n_strategies) << self.memory

    def agent_runs(self) -> list[tuple[slice, int]]:
        """The runs of agents, in agent order, each with the count k of leading
        markets its agents are linked to: ``[(slice(0, n1), 1), (slice(n1, N),
        K)]``, empty runs left out, so a regular game is one run."""
        n1 = self.n_exclusive or 0
        runs = [(slice(0, n1), 1), (slice(n1, self.n_agents), self.n_markets)]
        return [(agents, k) for agents, k in runs if agents.start < agents.stop]

    @staticmethod
    def check_irregular(n1: int | None, n2: int | None, n_agents: int | None = None,
                        n_markets: int = 2) -> int:
        """N = n1 + n2 of an irregular game. Refuses, naming its key, a missing
        or negative n1 or n2, a given ``n_agents`` other than n1 + n2 and
        ``n_markets`` other than 2."""
        for key, value in (("n1", n1), ("n2", n2)):
            if value is None:
                raise ConfigError(f"{key}: required for an irregular game")
            if value < 0:
                raise ConfigError(f"{key}: must be >= 0, got {value}")
        if n_agents is not None and n_agents != n1 + n2:
            raise ConfigError(f"N: must be n1 + n2 = {n1 + n2} in an irregular game, "
                              f"got {n_agents}")
        if n_markets != 2:
            raise ConfigError(f"K: an irregular game has 2 markets, got {n_markets}")
        return n1 + n2

    @staticmethod
    def check_kind(key: str, value, kind: type | tuple[str, ...]) -> None:
        """Refuse, naming ``key``, a value not of ``kind`` (as in ``CONFIG_KEYS``):
        a string not in the tuple, a bool, or for ``int`` a non-integral value
        and for ``float`` a non-real one."""
        if isinstance(kind, tuple):
            if value not in kind:
                raise ConfigError(f"{key}: must be one of {kind}, got {value!r}")
        elif isinstance(value, bool) or not isinstance(
                value, numbers.Integral if kind is int else numbers.Real):
            raise ConfigError(f"{key}: expected {'an integer' if kind is int else 'a number'}, "
                              f"got {value!r}")

    @staticmethod
    def check_counts(**counts: int) -> None:
        """Refuse, in the order given, a count (N, K, s, T or seeds) that is not an
        int or is below 1, naming its key."""
        for key, value in counts.items():
            GameConfig.check_kind(key, value, int)
            if value < 1:
                raise ConfigError(f"{key}: must be >= 1, got {value}")

    @staticmethod
    def check_budget(key: str, what: str, nbytes: int, remedy: str) -> None:
        """Refuse, naming ``key``, ``what`` of ``nbytes`` bytes over ``MAX_TABLE_BYTES``:
        the one check of every size, made before anything is allocated."""
        if nbytes > MAX_TABLE_BYTES:
            raise ConfigError(f"{key}: {what} = {nbytes} bytes, over the budget of "
                              f"{MAX_TABLE_BYTES}; lower {remedy}")

    def __post_init__(self) -> None:
        for key, (field, kind, _) in CONFIG_KEYS.items():
            GameConfig.check_kind(key, getattr(self, field), kind)
        GameConfig.check_counts(N=self.n_agents, K=self.n_markets, s=self.n_strategies)
        if self.seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {self.seed}")
        if not 1 <= self.memory <= MAX_MEMORY:
            raise ConfigError(f"m: must be in [1, {MAX_MEMORY}], got {self.memory}")
        GameConfig.check_budget("m", "strategy tables need N*K*s*2**m", self.table_bytes,
                                "m, N, K or s")
        if not math.isfinite(self.u_high - self.u_low):
            raise ConfigError(
                f"u_low/u_high: need finite bounds with a finite u_high - u_low, "
                f"got [{self.u_low}, {self.u_high}]"
            )
        if self.init_utilities == "uniform" and not self.u_low < self.u_high:
            raise ConfigError(f"u_low/u_high: need u_low < u_high, got [{self.u_low}, {self.u_high}]")
        if self.n_exclusive is not None:
            GameConfig.check_kind("n1", self.n_exclusive, int)
            if self.n_exclusive > self.n_agents:
                raise ConfigError(f"n1: must be <= N = {self.n_agents}, got {self.n_exclusive}")
            # n2 = N - n1 >= 0 here, so only n1 < 0 and K != 2 are left to refuse
            GameConfig.check_irregular(self.n_exclusive, self.n_agents - self.n_exclusive,
                                       n_markets=self.n_markets)


#: Config key -> (``GameConfig`` field, kind of value, flag help). The kind
#: is ``int``, ``float`` or the tuple of allowed strings. Each key is a
#: config-file key, a ``--key`` flag (``_`` -> ``-``) and a manifest
#: ``config`` key; the defaults are the field defaults above. The topology
#: (``topology``, ``n1``, ``n2``), which sets ``n_exclusive``, is read apart.
CONFIG_KEYS: dict[str, tuple[str, type | tuple[str, ...], str | None]] = {
    "seed": ("seed", int, "game seed (required unless in config)"),
    "N": ("n_agents", int, "agent count"),
    "K": ("n_markets", int, "market count"),
    "s": ("n_strategies", int, "strategies per market per agent"),
    "m": ("memory", int, "memory length"),
    "payoff": ("payoff", ("linear", "sign", "scaled"), None),
    "tie_break": ("tie_break", ("random", "lowest-index"), None),
    "zero_demand": ("zero_demand", ("coin", "plus-one"), None),
    "init_utilities": ("init_utilities", ("zero", "uniform"), None),
    "u_low": ("u_low", float, None),
    "u_high": ("u_high", float, None),
}
