"""Game configuration and market topology."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConfigError",
    "MarketTopology",
    "GameConfig",
    "PAYOFF_KINDS",
    "TIE_BREAKS",
    "ZERO_DEMAND_RULES",
    "INIT_UTILITIES",
    "TOPOLOGY_KINDS",
    "CONFIG_KEYS",
    "MAX_MEMORY",
    "MAX_TABLE_BYTES",
]

PAYOFF_KINDS = ("linear", "sign", "scaled")
TIE_BREAKS = ("random", "lowest-index")
ZERO_DEMAND_RULES = ("coin", "plus-one")
INIT_UTILITIES = ("zero", "uniform")
TOPOLOGY_KINDS = ("regular", "irregular")
MAX_MEMORY = 24  # keeps 2**m indexable in a machine word with headroom
# Largest strategy-table array a game may ask for: N*K*s*2**m int8 bytes.
# A game keeps more than its tables: the scores, unlinked entries included
# (4*N*K*s bytes when int32, 8*N*K*s otherwise), ``agents`` (8*N) and
# ``last_market`` (8*N, or N on the one-hot side of ``engine.step``). At
# m=1, s=1 that is 9.5x the tables for K=1 and 7.25x for K=2 (float64
# scores, one-hot side; 7.5x and 5.25x when int32), and 13x and 9x for a
# game under 512*K agents, on the bincount side (tracemalloc after
# ``init_game`` and one ``step``, per byte of tables as N grows).
# ``init_game`` draws the tables and uniform initial utilities in place, one
# chunk of agents at a time, so it holds the arrays the game keeps plus one
# chunk (``strategies._CHUNK_BYTES``), never a second copy of the tables.
# A run's records, 8*T*(4K+3) bytes, are held to the same budget.
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
class MarketTopology:
    """Which markets each agent may act on.

    ``regular``: every agent is linked to all markets. ``irregular`` (two
    markets): the first n1 agents are linked only to market 0, the
    remaining n2 agents to both.
    """

    kind: str
    n1: int | None = None
    n2: int | None = None

    @classmethod
    def regular(cls) -> "MarketTopology":
        return cls(kind="regular")

    @classmethod
    def irregular(cls, n1: int, n2: int) -> "MarketTopology":
        return cls(kind="irregular", n1=n1, n2=n2)

    def n_agents(self) -> int:
        """n1 + n2 of an irregular topology; ConfigError when either is unset."""
        if self.n1 is None or self.n2 is None:
            raise ConfigError("topology: irregular requires n1 and n2")
        return self.n1 + self.n2

    def validate(self, n_agents: int, n_markets: int) -> None:
        if self.kind == "regular":
            return
        if self.kind != "irregular":
            raise ConfigError(f"topology: unknown kind {self.kind!r}")
        linked = self.n_agents()
        if self.n1 < 0 or self.n2 < 0:
            raise ConfigError("topology: n1 and n2 must be >= 0")
        if n_markets != 2:
            raise ConfigError("topology: irregular is defined for exactly 2 markets")
        if linked != n_agents:
            raise ConfigError(f"topology: n1 + n2 = {linked} does not match N = {n_agents}")
        if linked < 1:
            raise ConfigError("topology: at least one agent required")

    def link_mask(self, n_agents: int, n_markets: int) -> np.ndarray:
        """(N, K) boolean mask; every agent has at least one link."""
        self.validate(n_agents, n_markets)
        mask = np.ones((n_agents, n_markets), dtype=bool)
        if self.kind == "irregular":
            mask[: self.n1, 1] = False
        return mask


@dataclass(frozen=True)
class GameConfig:
    """Complete, seedable description of one game."""

    n_agents: int
    seed: int
    n_markets: int = 2
    n_strategies: int = 2
    memory: int = 5
    payoff: str = "linear"
    topology: MarketTopology = MarketTopology.regular()
    init_utilities: str = "zero"
    u_low: float = 0.0
    u_high: float = 1.0
    tie_break: str = "random"
    zero_demand: str = "coin"

    @property
    def table_bytes(self) -> int:
        """Size of the int8 strategy tables, N*K*s*2**m bytes."""
        return (self.n_agents * self.n_markets * self.n_strategies) << self.memory

    def check_ticks(self, ticks: int) -> None:
        """Refuse a run of ``ticks`` ticks before anything is allocated: T < 1,
        or int64 records of 8*T*(4K+3) bytes over ``MAX_TABLE_BYTES``."""
        if ticks < 1:
            raise ConfigError(f"T: must be >= 1, got {ticks}")
        record_bytes = 8 * ticks * (4 * self.n_markets + 3)
        if record_bytes > MAX_TABLE_BYTES:
            raise ConfigError(
                f"T: records of T={ticks} ticks need 8*T*(4K+3) = {record_bytes} bytes, "
                f"over the budget of {MAX_TABLE_BYTES}; lower T"
            )

    @staticmethod
    def check_counts(**counts: int) -> None:
        """Refuse, in the order given, a count (N, K or s) below 1, naming its key."""
        for key, value in counts.items():
            if value < 1:
                raise ConfigError(f"{key}: must be >= 1, got {value}")

    def validate(self) -> None:
        GameConfig.check_counts(N=self.n_agents, K=self.n_markets, s=self.n_strategies)
        if self.seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {self.seed}")
        if not 1 <= self.memory <= MAX_MEMORY:
            raise ConfigError(f"m: must be in [1, {MAX_MEMORY}], got {self.memory}")
        if self.table_bytes > MAX_TABLE_BYTES:
            raise ConfigError(
                f"m: strategy tables need N*K*s*2**m = {self.table_bytes} bytes, over the "
                f"budget of {MAX_TABLE_BYTES}; lower m, N, K or s"
            )
        if self.payoff not in PAYOFF_KINDS:
            raise ConfigError(f"payoff: must be one of {PAYOFF_KINDS}, got {self.payoff!r}")
        if self.init_utilities not in INIT_UTILITIES:
            raise ConfigError(
                f"init_utilities: must be one of {INIT_UTILITIES}, got {self.init_utilities!r}"
            )
        if not math.isfinite(self.u_high - self.u_low):
            raise ConfigError(
                f"u_low/u_high: need finite bounds with a finite u_high - u_low, "
                f"got [{self.u_low}, {self.u_high}]"
            )
        if self.init_utilities == "uniform" and not self.u_low < self.u_high:
            raise ConfigError(f"u_low/u_high: need u_low < u_high, got [{self.u_low}, {self.u_high}]")
        if self.tie_break not in TIE_BREAKS:
            raise ConfigError(f"tie_break: must be one of {TIE_BREAKS}, got {self.tie_break!r}")
        if self.zero_demand not in ZERO_DEMAND_RULES:
            raise ConfigError(
                f"zero_demand: must be one of {ZERO_DEMAND_RULES}, got {self.zero_demand!r}"
            )
        self.topology.validate(self.n_agents, self.n_markets)


#: Config key -> (``GameConfig`` field, kind of value, flag help). The kind
#: is ``int``, ``float`` or the tuple of allowed strings. Each key is a
#: config-file key, a ``--key`` flag (``_`` -> ``-``) and a manifest
#: ``config`` key; the defaults are the field defaults above. The topology
#: (``topology``, ``n1``, ``n2``) is read apart.
CONFIG_KEYS: dict[str, tuple[str, type | tuple[str, ...], str | None]] = {
    "seed": ("seed", int, "game seed (required unless in config)"),
    "N": ("n_agents", int, "agent count"),
    "K": ("n_markets", int, "market count"),
    "s": ("n_strategies", int, "strategies per market per agent"),
    "m": ("memory", int, "memory length"),
    "payoff": ("payoff", PAYOFF_KINDS, None),
    "tie_break": ("tie_break", TIE_BREAKS, None),
    "zero_demand": ("zero_demand", ZERO_DEMAND_RULES, None),
    "init_utilities": ("init_utilities", INIT_UTILITIES, None),
    "u_low": ("u_low", float, None),
    "u_high": ("u_high", float, None),
}
