"""Byte pins: sha256 of the CSV records of fixed games.

Each entry pins ``render_records(run(cfg, 300), "csv")`` for one config.
Together they cover K = 1, 2, 3, the irregular topology and every payoff,
tie rule, zero-demand rule and initial-utility rule. Any change to the
engine's arithmetic or its random-number consumption moves at least one
pin; a pure refactor or speed-up must leave all of them in place.
"""

import hashlib

import pytest

from mmg import GameConfig, MarketTopology, run
from mmg.io import render_records

TICKS = 300

GOLDEN = {
    "k2-default": (
        dict(n_agents=11, seed=0),
        "71ca9cac49a3d2dd4316e10661739674e34bebcfbeb66a422c057bd2539b492a",
    ),
    "k1-sign-s3": (
        dict(n_agents=7, seed=1, n_markets=1, n_strategies=3, memory=2, payoff="sign"),
        "d543df051a3b07f1ef4abe4867b15847496cdc02581fb1a323e16a70bee57456",
    ),
    "k3-linear": (
        dict(n_agents=31, seed=2, n_markets=3, memory=3),
        "e2dee4ed32c7a62d2125a8cd7fa0f32d4674194bfaddfdbb84eccd53c0a6d4c3",
    ),
    "k3-scaled-lowest-plus": (
        dict(
            n_agents=20, seed=3, n_markets=3, payoff="scaled",
            tie_break="lowest-index", zero_demand="plus-one",
        ),
        "326772ff0c369485916d8209567063d966eb9d2eba40f881c5d1069d88458ddd",
    ),
    "irregular-linear": (
        dict(n_agents=11, seed=4, topology=MarketTopology.irregular(6, 5), memory=3),
        "6c4ae94958043bead3a3e3495ca116b3a04100391c6c88eb8a38e348a18c7053",
    ),
    "irregular-sign-uniform": (
        dict(
            n_agents=9, seed=5, topology=MarketTopology.irregular(0, 9),
            payoff="sign", init_utilities="uniform",
        ),
        "6af1194bb53d100657525831420234c2bd6ac97e772777682270181623318f2e",
    ),
    "k2-sign-ties": (
        dict(n_agents=64, seed=6, memory=4, payoff="sign"),
        "f25a6f4fdba78c19e53e161e7c66a07ed67a6e950e6698c09b18c3fcead5eb90",
    ),
    "k2-scaled-uniform": (
        dict(
            n_agents=15, seed=7, payoff="scaled", init_utilities="uniform",
            u_low=-1.0, u_high=2.0,
        ),
        "54ffcfcd12999e68f31830cafaaf4829846e3801406c6cd058c0a4ada7a03c5f",
    ),
    "k2-lowest-coin": (
        dict(n_agents=12, seed=8, memory=2, tie_break="lowest-index"),
        "00525ab6d039415a160882310aa0a64625ad346a725ecf980fdaf8522e0ed515",
    ),
    "k2-random-plus": (
        dict(n_agents=10, seed=9, memory=3, zero_demand="plus-one"),
        "87150e04353a573bacdae1271341ac65b9b0ff009f8c24444a78e820d206c2b9",
    ),
    "k1-scaled-uniform": (
        dict(
            n_agents=13, seed=10, n_markets=1, payoff="scaled",
            init_utilities="uniform",
        ),
        "74f6cc64f76df505cf02f52e2e99a9c9faad32631fdf5cec96ae238442ba3c9e",
    ),
    "k2-single-agent-s1": (
        dict(n_agents=1, seed=11, n_strategies=1, memory=1),
        "3ab7ab4c59295156c458e6b22a887d1c24c326517a9e7136238caa421dc8e808",
    ),
    "k2-sign-lowest-plus-uniform": (
        dict(
            n_agents=12, seed=12, payoff="sign", tie_break="lowest-index",
            zero_demand="plus-one", init_utilities="uniform",
        ),
        "74b66665e5fcfe731a1e2052252ce5c81029801bfc298102a5088837a288ba26",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_records(name):
    kwargs, pinned = GOLDEN[name]
    text = render_records(run(GameConfig(**kwargs), TICKS), "csv")
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == pinned
