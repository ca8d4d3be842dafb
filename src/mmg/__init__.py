"""Deterministic multi-market minority game simulator and measurement toolkit."""

__version__ = "0.1.0"

from .config import ConfigError, GameConfig, MarketTopology
from .engine import (
    GameState,
    RunRecords,
    init_game,
    run,
    step,
)
from .metrics import (
    CriticalFluctuation,
    MuHistogram,
    SeriesStats,
    big_small_markets,
    classify_mode,
    detect_critical_history,
    fluctuation_frequency,
    mean_c_at_recurrence,
    mu_histogram,
    predicted_irregular,
    predicted_occupancies,
    relaxation_time,
    series_stats,
    split_detected,
)
from .experiments import (
    RunSummary,
    SweepSpec,
    ensemble_run,
    estimate_critical_q,
    figure_dataset,
    q_sweep,
    summarize_run,
)
from .rng import game_rng, subseed
from .strategies import draw_strategies

__all__ = [
    "__version__",
    "ConfigError",
    "GameConfig",
    "MarketTopology",
    "GameState",
    "RunRecords",
    "CriticalFluctuation",
    "MuHistogram",
    "SeriesStats",
    "RunSummary",
    "SweepSpec",
    "big_small_markets",
    "classify_mode",
    "detect_critical_history",
    "draw_strategies",
    "ensemble_run",
    "estimate_critical_q",
    "figure_dataset",
    "fluctuation_frequency",
    "game_rng",
    "init_game",
    "mean_c_at_recurrence",
    "mu_histogram",
    "predicted_irregular",
    "predicted_occupancies",
    "q_sweep",
    "relaxation_time",
    "run",
    "series_stats",
    "split_detected",
    "step",
    "subseed",
    "summarize_run",
]
