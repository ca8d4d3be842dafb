"""Test helpers: play one tick of a game through ``mmg.step``; list a run's
record columns; name a game's topology and build its link mask."""

from dataclasses import fields
from types import SimpleNamespace

import numpy as np

from mmg import RunRecords, step


def one_tick(state):
    """Play one tick of ``state`` into a one-row ``RunRecords``; return that
    row's per-market ``(K,)`` arrays, its ``n_switched`` and its ``n_tied``."""
    out = RunRecords.empty(state.config, 1)
    step(state, out, 0)
    return SimpleNamespace(
        occupancy=out.occupancy[0], demand=out.demand[0], minority=out.minority[0],
        history=out.history[0], n_switched=int(out.n_switched[0]), n_tied=int(out.n_tied[0]),
    )


def columns(records):
    """Name -> array of every ``RunRecords`` field of ``records`` but ``config``."""
    return {f.name: getattr(records, f.name) for f in fields(RunRecords) if f.name != "config"}


def topology_kind(cfg):
    """``regular``, or ``irregular`` when ``cfg`` sets ``n_exclusive`` (the paper's n1)."""
    return "regular" if cfg.n_exclusive is None else "irregular"


def link_mask(cfg):
    """(N, K) mask of the markets each agent of ``cfg`` is linked to, built
    from ``n_exclusive`` alone: the first n1 agents lack market 1."""
    mask = np.ones((cfg.n_agents, cfg.n_markets), dtype=bool)
    mask[: cfg.n_exclusive or 0, 1:] = False
    return mask
