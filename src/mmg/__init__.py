"""Deterministic multi-market minority game simulator and measurement toolkit."""

__version__ = "0.1.0"

from .config import ConfigError, GameConfig
from .engine import GameState, RunRecords, init_game, run, step
from .experiments import (
    RunSummary,
    SweepSpec,
    ensemble_run,
    estimate_critical_q,
    figure_dataset,
    q_sweep,
    summarize_run,
)
from .rng import subseed

__all__ = [
    "__version__",
    "ConfigError",
    "GameConfig",
    "GameState",
    "RunRecords",
    "init_game",
    "step",
    "run",
    "RunSummary",
    "SweepSpec",
    "summarize_run",
    "ensemble_run",
    "q_sweep",
    "estimate_critical_q",
    "figure_dataset",
    "subseed",
]
