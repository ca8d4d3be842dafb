"""Estimators over run records and closed-form occupancy predictors.

All estimators are pure functions of the columnar records and of the
game they hold, ``RunRecords.config``. Windows are half-open tick ranges
``[start, stop)``; ``None`` means the last half of the run, which excludes
the transient before the occupancies settle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import MAX_TABLE_BYTES, ConfigError, GameConfig
from .engine import RunRecords

__all__ = [
    "SeriesStats",
    "MuHistogram",
    "CriticalFluctuation",
    "resolve_window",
    "series_stats",
    "mu_histogram",
    "mean_c_at_recurrence",
    "fluctuation_frequency",
    "relaxation_time",
    "predicted_occupancies",
    "predicted_irregular",
    "detect_critical_history",
    "split_detected",
    "classify_mode",
    "big_small_markets",
]

#: The threshold of a "large" fluctuation: |A| >= THETA * O separates
#: full-market collective events from ordinary sqrt(O)-scale noise.
THETA = 0.9

#: ``relaxation_time``'s band around each split level (a fraction of N) and
#: the fewest ticks held in it up to the end of a run; ``split_detected``'s
#: lead of the top market over the next (a fraction of N) and the share of
#: window ticks above it.
RELAX_BELT = 0.05
RELAX_MIN_STAY = 50
SPLIT_GAP_FRAC = 0.2
SPLIT_SUSTAIN = 0.9


def _large_fluctuations(occ: np.ndarray, dem: np.ndarray) -> np.ndarray:
    """Where a non-empty market fluctuates by |A| >= THETA * O."""
    return (occ > 0) & (np.abs(dem) >= THETA * occ)


def resolve_window(n_ticks: int | None, window: tuple[int, int] | None) -> tuple[int, int]:
    """Validate ``window``, two integers, against the recorded range,
    unbounded when ``n_ticks`` is None, raising ConfigError naming
    ``window``; ``None`` -> last half. A bool is not an integer."""
    if window is None:
        window = (n_ticks // 2, n_ticks)
    if not (isinstance(window, (tuple, list)) and len(window) == 2):
        raise ConfigError(f"window: need two integers [start, stop), got {window!r}")
    for x in window:
        GameConfig.check_kind("window", x, int)
    start, stop = int(window[0]), int(window[1])
    if not 0 <= start < stop <= (stop if n_ticks is None else n_ticks):
        raise ConfigError(f"window: need 0 <= start < stop <= T, got [{start}, {stop}) "
                          f"for T={n_ticks}")
    return start, stop


@dataclass(frozen=True)
class SeriesStats:
    """Per-market time averages over a measurement window."""

    window: tuple[int, int]
    mean_occupancy: np.ndarray  # (K,)
    mean_demand: np.ndarray  # (K,)
    per_capita_var: np.ndarray  # (K,) mean(A^2) / mean(O)


def series_stats(records: RunRecords, window: tuple[int, int] | None = None) -> SeriesStats:
    """Window averages of occupancy and demand, and per-capita demand variance.

    The per-capita variance is mean(A_k^2) / mean(O_k) over the window, not
    a variance of per-tick ratios. Markets empty throughout the window get
    variance 0.
    """
    a, b = resolve_window(records.n_ticks, window)
    occ = records.occupancy[a:b].astype(np.float64)
    dem = records.demand[a:b].astype(np.float64)
    mean_occ = occ.mean(axis=0)
    mean_sq = (dem**2).mean(axis=0)
    var = np.divide(mean_sq, mean_occ, out=np.zeros_like(mean_sq), where=mean_occ > 0)
    return SeriesStats(
        window=(a, b),
        mean_occupancy=mean_occ,
        mean_demand=dem.mean(axis=0),
        per_capita_var=var,
    )


def big_small_markets(stats: SeriesStats) -> tuple[int, int]:
    """(big, small) market indices by window-mean occupancy; per-run labels."""
    return int(np.argmax(stats.mean_occupancy)), int(np.argmin(stats.mean_occupancy))


@dataclass(frozen=True)
class MuHistogram:
    """Empirical distribution of one market's history values."""

    market: int
    window: tuple[int, int]
    counts: np.ndarray  # (2**m,)
    p: np.ndarray  # (2**m,) counts normalized to 1


def mu_histogram(
    records: RunRecords, market: int, window: tuple[int, int] | None = None
) -> MuHistogram:
    a, b = resolve_window(records.n_ticks, window)
    values = records.history[a:b, market]
    counts = np.bincount(values, minlength=1 << records.config.memory).astype(np.int64)
    return MuHistogram(market=market, window=(a, b), counts=counts, p=counts / (b - a))


@dataclass(frozen=True)
class CriticalFluctuation:
    """First large fluctuation on a market and the recurrences of its history."""

    market: int
    history: int
    first_tick: int
    recurrences: np.ndarray  # all later ticks where the history value recurs


def detect_critical_history(records: RunRecords, market: int) -> CriticalFluctuation | None:
    """History preceding the first fluctuation with |A| >= THETA * O > 0."""
    hits = np.flatnonzero(
        _large_fluctuations(records.occupancy[:, market], records.demand[:, market])
    )
    if len(hits) == 0:
        return None
    t1 = int(hits[0])
    mu_c = int(records.history[t1, market])
    later = np.flatnonzero(records.history[:, market] == mu_c)
    return CriticalFluctuation(
        market=market, history=mu_c, first_tick=t1, recurrences=later[later > t1]
    )


def mean_c_at_recurrence(
    records: RunRecords, crit: CriticalFluctuation | None
) -> float | None:
    """Mean switch count C(t+1) over the recurrences t of the critical history.

    Switching triggered by a recurrence at tick t shows up in the choices of
    tick t+1, so a recurrence at the last recorded tick has no C to read.
    None without a critical history or without such a recurrence.
    """
    if crit is None:
        return None
    after = crit.recurrences[crit.recurrences + 1 < records.n_ticks] + 1
    return float(records.n_switched[after].mean()) if len(after) else None


def fluctuation_frequency(
    records: RunRecords, market: int, window: tuple[int, int] | None = None
) -> float:
    """Rate of ticks with |A| >= THETA * O on a non-empty market."""
    a, b = resolve_window(records.n_ticks, window)
    large = _large_fluctuations(records.occupancy[a:b, market], records.demand[a:b, market])
    return float(np.count_nonzero(large) / (b - a))


def relaxation_time(records: RunRecords) -> int | None:
    """First tick from which every occupancy stays in the +-RELAX_BELT*N band
    around one of the split levels of ``predicted_occupancies`` for the
    records' game (its N, K and s) until the end of the recorded range.

    "Forever" is only checkable to the end of the run; to keep a lucky
    final tick from counting as stabilization, the terminal in-band
    stretch must span at least ``RELAX_MIN_STAY`` ticks, else None. A
    single market holds all N agents from the start, its one level, so it
    has no split to relax to: None.
    """
    cfg = records.config
    if cfg.n_markets == 1:
        return None
    levels = np.array(predicted_occupancies(cfg.n_agents, cfg.n_markets, cfg.n_strategies))
    near = np.abs(records.occupancy[:, :, None] - levels) <= RELAX_BELT * cfg.n_agents
    ok = near.any(axis=2).all(axis=1)
    if ok.all():
        tau = 0
    else:
        last_bad = int(np.flatnonzero(~ok)[-1])
        tau = last_bad + 1
    if tau >= records.n_ticks or records.n_ticks - tau < RELAX_MIN_STAY:
        return None
    return tau


def predicted_occupancies(n_agents: int, n_markets: int, n_strategies: int) -> list[float]:
    """Asymptotic occupancies, largest market first; sums exactly to N.

    With r = 1/2**s, the k-th largest market keeps N(1-r)r**(k-1) agents
    and the smallest keeps the remainder N r**(K-1). Past one market, the
    inputs are bounded like a game's: N, K and s whose strategy tables
    exceed ``MAX_TABLE_BYTES`` even at m=1 are refused before anything is
    built.
    """
    GameConfig.check_counts(N=n_agents, K=n_markets, s=n_strategies)
    if n_markets == 1:
        return [float(n_agents)]
    table_bytes = (n_agents * n_markets * n_strategies) << 1  # N*K*s*2**m at m=1
    if table_bytes > MAX_TABLE_BYTES:
        # K is at fault when the one-market game would fit
        key = "K" if table_bytes // n_markets <= MAX_TABLE_BYTES else "N"
        raise ConfigError(
            f"{key}: no game with N={n_agents}, K={n_markets}, s={n_strategies} can be "
            f"played: its strategy tables need {table_bytes} bytes even at m=1, over the "
            f"budget of {MAX_TABLE_BYTES}; lower N, K or s"
        )
    r = 2.0 ** -n_strategies
    out = [n_agents * (1 - r) * r**k for k in range(n_markets - 1)]
    out.append(n_agents * r ** (n_markets - 1))
    return out


def predicted_irregular(n1: int, n2: int, n_strategies: int) -> tuple[float, float]:
    """Large-n1 asymptote of the exclusive market and limit of the shared one."""
    GameConfig.check_counts(N=GameConfig.check_irregular(n1, n2), s=n_strategies)
    r = 2.0 ** -n_strategies
    return n1 + (1 - r) * n2, n2 * r


def split_detected(records: RunRecords, window: tuple[int, int] | None = None) -> bool:
    """True when the most occupied market leads the runner-up by more than
    SPLIT_GAP_FRAC * N on at least a ``SPLIT_SUSTAIN`` fraction of the
    window's ticks; at K = 2 that lead is the occupancy gap. A single market
    has no split."""
    a, b = resolve_window(records.n_ticks, window)
    if records.config.n_markets == 1:
        return False
    top = np.partition(records.occupancy[a:b], -2, axis=1)
    lead = top[:, -1] - top[:, -2]
    return bool(np.mean(lead > SPLIT_GAP_FRAC * records.config.n_agents) >= SPLIT_SUSTAIN)


#: Per-capita variance bands for the mode labels; 1.0 (random agents) lies
#: between them.
HERD_VAR = 1.5
COOP_VAR = 0.75


def classify_mode(stats: SeriesStats, split: bool) -> str:
    """Heuristic game-mode label from stationary statistics.

    A persistent split wins outright; otherwise the largest per-capita
    variance decides between herd, cooperation and random.
    """
    if split:
        return "herd-asymmetric"
    peak = float(np.max(stats.per_capita_var))
    if peak > HERD_VAR:
        return "herd-symmetric"
    if peak < COOP_VAR:
        return "cooperation"
    return "random"
