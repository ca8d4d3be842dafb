"""Byte pins: sha256 of the records of fixed games and of figure tables.

Each ``GOLDEN`` entry pins ``render_records(run(cfg, 300), fmt)`` for one
config in both record formats. Together they cover K = 1, 2, 3, the
irregular topology and every payoff, tie rule, zero-demand rule and
initial-utility rule. Each ``FIGURES`` entry pins every table of one canned
experiment at small overrides, rendered with ``render_table``. Each
``ENSEMBLES`` and ``SWEEPS`` entry pins the CSV that ``mmg ensemble`` or
``mmg sweep`` writes for one small config, and each ``MANIFESTS`` entry
the manifest that ``mmg run --manifest`` writes. Any change to the engine's
arithmetic or its random-number consumption moves at least one pin; a pure
refactor or speed-up must leave all of them in place.
"""

import hashlib

import pytest

from mmg import GameConfig, experiments, metrics, run, subseed
from mmg.cli import cli_main
from mmg.experiments import FIGURE_NAMES, figure_dataset
from mmg.io import render_records, render_table

TICKS = 300

GOLDEN = {
    "k2-default": (
        dict(n_agents=11, seed=0),
        dict(
            csv="71ca9cac49a3d2dd4316e10661739674e34bebcfbeb66a422c057bd2539b492a",
            jsonl="761889bea0f0cd188df7539d6ca40eecea7982ca847e4dea8f30997bc2ad5675",
        ),
    ),
    "k1-sign-s3": (
        dict(n_agents=7, seed=1, n_markets=1, n_strategies=3, memory=2, payoff="sign"),
        dict(
            csv="d543df051a3b07f1ef4abe4867b15847496cdc02581fb1a323e16a70bee57456",
            jsonl="7094024ed159cb02c7d0581b2af24260d8f141792f4701f32de62fe29f4f67f0",
        ),
    ),
    "k3-linear": (
        dict(n_agents=31, seed=2, n_markets=3, memory=3),
        dict(
            csv="e2dee4ed32c7a62d2125a8cd7fa0f32d4674194bfaddfdbb84eccd53c0a6d4c3",
            jsonl="60fa01ce87c2f9db74126abd634b03d6df6e1b0e6368c3ed8471060c8e8f9819",
        ),
    ),
    "k3-scaled-lowest-plus": (
        dict(
            n_agents=20, seed=3, n_markets=3, payoff="scaled",
            tie_break="lowest-index", zero_demand="plus-one",
        ),
        dict(
            csv="326772ff0c369485916d8209567063d966eb9d2eba40f881c5d1069d88458ddd",
            jsonl="a18bfecdd07ec36f461af81d7eb57e651ff14e16ae280c7ad8d920de8bccc64a",
        ),
    ),
    "irregular-linear": (
        dict(n_agents=11, seed=4, n_exclusive=6, memory=3),
        dict(
            csv="6c4ae94958043bead3a3e3495ca116b3a04100391c6c88eb8a38e348a18c7053",
            jsonl="8855dc4b24fdb370b3c6baef21cb427850ee6e9e47b351b8bd1cbf45282a228a",
        ),
    ),
    "irregular-sign-uniform": (
        dict(
            n_agents=9, seed=5, n_exclusive=0,
            payoff="sign", init_utilities="uniform",
        ),
        dict(
            csv="6af1194bb53d100657525831420234c2bd6ac97e772777682270181623318f2e",
            jsonl="0873bf25cad8e13e2d83caf1f5a936a11d640e9ddd7cf6a4ef6472fa6bc89293",
        ),
    ),
    "k2-sign-ties": (
        dict(n_agents=64, seed=6, memory=4, payoff="sign"),
        dict(
            csv="f25a6f4fdba78c19e53e161e7c66a07ed67a6e950e6698c09b18c3fcead5eb90",
            jsonl="3a4938ac6d625e90379b40c0af7e27b352f7fccec37832e623f6f379476f02d4",
        ),
    ),
    "k2-scaled-uniform": (
        dict(
            n_agents=15, seed=7, payoff="scaled", init_utilities="uniform",
            u_low=-1.0, u_high=2.0,
        ),
        dict(
            csv="54ffcfcd12999e68f31830cafaaf4829846e3801406c6cd058c0a4ada7a03c5f",
            jsonl="2e57711768c3f5729b636c1334bfeb51c65755188c4eafac6f4ce061c44b8ce3",
        ),
    ),
    "k2-lowest-coin": (
        dict(n_agents=12, seed=8, memory=2, tie_break="lowest-index"),
        dict(
            csv="00525ab6d039415a160882310aa0a64625ad346a725ecf980fdaf8522e0ed515",
            jsonl="e0b146fa3054dd043144716bb10ddb6ce13f006593e778e49964af4d8c60a0c9",
        ),
    ),
    "k2-random-plus": (
        dict(n_agents=10, seed=9, memory=3, zero_demand="plus-one"),
        dict(
            csv="87150e04353a573bacdae1271341ac65b9b0ff009f8c24444a78e820d206c2b9",
            jsonl="4607f0e0c58ae9e5f3c5fcb782598623538357ec9d8985f91b1bb5d042a96214",
        ),
    ),
    "k1-scaled-uniform": (
        dict(
            n_agents=13, seed=10, n_markets=1, payoff="scaled",
            init_utilities="uniform",
        ),
        dict(
            csv="74f6cc64f76df505cf02f52e2e99a9c9faad32631fdf5cec96ae238442ba3c9e",
            jsonl="af0de305efdf2b887a77adfe21fee92d822bd065292d9f2c0a86cbf89f113add",
        ),
    ),
    "k2-single-agent-s1": (
        dict(n_agents=1, seed=11, n_strategies=1, memory=1),
        dict(
            csv="3ab7ab4c59295156c458e6b22a887d1c24c326517a9e7136238caa421dc8e808",
            jsonl="73f3b0c9c06c7bd34c26b073ddf827f3932cb89621f227badaed28bdd23df66c",
        ),
    ),
    "k2-sign-lowest-plus-uniform": (
        dict(
            n_agents=12, seed=12, payoff="sign", tie_break="lowest-index",
            zero_demand="plus-one", init_utilities="uniform",
        ),
        dict(
            csv="74b66665e5fcfe731a1e2052252ce5c81029801bfc298102a5088837a288ba26",
            jsonl="95345d29f107758aeacc16b936a85812e881d2d8703b6ee2909c4bd18ea8fd89",
        ),
    ),
}


# overrides small enough for a test run; fig6 fluctuates at these with
# ``metrics.THETA`` patched to ``FIGURE_THETAS``, and the fig6_1 points give
# one undefined and one defined tau0
FIGURES = {
    "fig3": (
        dict(T=60, values=[11, 64], seed=1),
        "2b1284be6e107e0d960e569f529ddfc63d080a8284c864b34cf58e9fe082f592",
    ),
    "fig4": (
        dict(T=60, values=[11, 64], seed=2),
        "b15caf1905988d94a74c85ecfd8234044e0a495888a5d5afd8a26387c0f6b87d",
    ),
    "fig5": (
        dict(T=80, values=[200], seed=3),
        "3b6cd7f4116dcd021d2c7a91260d582adc381a76e455431c80481debe9064dc0",
    ),
    "fig6": (
        dict(T=120, values=[200], seed=0),
        "7c7a3e9c2e8ee99996ea165db00969b600905ebea820b9628dec157145c5b841",
    ),
    "fig6_0": (
        dict(T=200, values=[128, 11], seed=4),
        "0216168ceb4d0dfb7648528d2917fe08e8b59f46b3e7e362a9f9b201a92c00e4",
    ),
    "fig6_1": (
        dict(T=1000, values=[253, 1447], seeds=2, seed=5),
        "56a08c4346e1ab11be81708f45f747fcef6743a4f77b8a6257d97d56afa19deb",
    ),
    "fig7": (
        dict(T=100, values=[8, 32, 64], seeds=3, seed=6),
        "271d6c7dc826a56388858a5f3a77662845ebd9f3ef2fb81ecf49855ca6b4b40c",
    ),
    "fig8": (
        dict(T=100, values=[5, 40], n2=5, seeds=3, seed=7),
        "40690e9f3930cda57fb4f9f97d210dcf2ea614e676e69b7bbd800b159531e2ea",
    ),
    "fig010": (
        dict(T=80, values=[31], seed=8),
        "35c0e51d1d4da0e6b2b577d1aea8cf65c22c9d51eece0678d60a9d3f9803d166",
    ),
}


FIGURE_THETAS = {"fig6": 0.7}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_records(name: str, fmt: str) -> None:
    kwargs, pinned = GOLDEN[name]
    text = render_records(run(GameConfig(**kwargs), TICKS), fmt)
    assert sha256(text) == pinned[fmt]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_records(name):
    check_records(name, "csv")


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_records_jsonl(name):
    check_records(name, "jsonl")


def test_every_figure_is_pinned():
    assert set(FIGURES) == set(FIGURE_NAMES)


@pytest.mark.parametrize("name", FIGURE_NAMES)
def test_golden_figure(monkeypatch, name):
    overrides, pinned = FIGURES[name]
    monkeypatch.setattr(metrics, "THETA", FIGURE_THETAS.get(name, metrics.THETA))
    tables = figure_dataset(name, **overrides)
    text = "".join(f"{stem}\n{render_table(table)}" for stem, table in tables.items())
    assert sha256(text) == pinned


# ``mmg ensemble`` flags; together they cover defined and undefined tau0, a
# seed with no critical history, K = 3 and the irregular topology
ENSEMBLES = {
    "k2-tau0": (
        "--N 200 --m 3 --seed 5 --seeds 4 -T 200",
        "08c2afe2bbde510917197294bd5230e24002ffcfa8d42a8adf618ed2386a1751",
    ),
    "k2-no-critical": (
        "--N 11 --m 2 --seed 3 --seeds 5 -T 100",
        "47db0680d8601385a63d7332837f766879ad7615340cd8fc5a708ec628b51813",
    ),
    "k3": (
        "--N 13 --K 3 --m 3 --seed 1 --seeds 4 -T 80",
        "1246febdad1ce070ce40669e4cbe8de4c2a24836b83af427874be3510391b866",
    ),
    "irregular": (
        "--topology irregular --n1 6 --n2 5 --m 3 --seed 4 --seeds 3 -T 80",
        "5712fc80ae8a8cc261c2a89a73c15e8ce28907b73d2320097f8fbcb23cc7d2b0",
    ),
}

# ``mmg sweep`` config files; unsorted values, undefined and defined tau0,
# K = 3 and an n1 sweep
SWEEPS = {
    "N": (
        "N=8 m=3 seed=2 T=200 sweep=N values=200,8,64 seeds=3",
        "57de95377fca2f5e81ec515d3fe0ba9ca04a891a5a32285dc1149fc2e6128f9b",
    ),
    "k3": (
        "K=3 N=13 m=3 seed=1 T=80 sweep=N values=13,31 seeds=2",
        "92e2ef3f2ae7b188934a5089635d1bbd6795276da907e0d03c12a13b319c5a5f",
    ),
    "n1": (
        "topology=irregular n1=5 n2=5 m=3 seed=7 T=80 sweep=n1 values=5,40 seeds=2",
        "40763492eb108341f745dd506c072f2d2fd39c8537fc81013964556d9a2f653f",
    ),
}

# ``mmg run --manifest`` flags: a regular game, an irregular one and one
# with no exclusive agent (n1 = 0). The manifest holds the package version,
# so a new version moves these pins.
MANIFESTS = {
    "regular": (
        "--N 11 --K 3 --m 3 --seed 2 -T 50 --payoff sign",
        "3317de12c11c9655397254c0a6d0f3e9c3a1c28604b1f738c5fb34bf4f2eb705",
    ),
    "irregular": (
        "--topology irregular --n1 6 --n2 5 --m 3 --seed 4 -T 50 --format jsonl",
        "e8df4a8ea33424cc1329886d41ffc3c7cda6de6ee8646e03e1634ae89cbbc596",
    ),
    "irregular-n1-0": (
        "--topology irregular --n1 0 --n2 9 --m 2 --seed 5 -T 40",
        "e474cbfcb5db6b5db2298cfa996e9b02067bdadf14873e6f3c3a17999ccaa978",
    ),
}

# run 1 fails with a message that must be quoted; the other rows are kept
FAILED_ENSEMBLE = "--N 9 --m 3 --seed 5 --seeds 3 -T 60"
FAILED_ENSEMBLE_SHA = "46a5bfc7c1a9395b809f05b7e855d0ae3afbe4cd214e930d0dc111a61c53bdaf"
FAILED_SWEEP_SHA = "bef7607d74fcb4e7c6d95cb9e9e2e8eac4fd6ec891a7c3f80e3e3dc92da64df6"


def cli_output(tmp_path, argv: list[str]) -> str:
    out = tmp_path / "out.csv"
    assert cli_main(argv + ["--out", str(out)]) == 0
    return out.read_text()


@pytest.mark.parametrize("name", sorted(ENSEMBLES))
def test_golden_ensemble(name, tmp_path):
    flags, pinned = ENSEMBLES[name]
    assert sha256(cli_output(tmp_path, ["ensemble"] + flags.split())) == pinned


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_golden_sweep(name, tmp_path):
    text, pinned = SWEEPS[name]
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(text + "\n")
    assert sha256(cli_output(tmp_path, ["sweep", "--config", str(cfg)])) == pinned


@pytest.mark.parametrize("name", sorted(MANIFESTS))
def test_golden_manifest(name, tmp_path):
    flags, pinned = MANIFESTS[name]
    records, manifest = tmp_path / "records", tmp_path / "manifest.json"
    argv = ["run", *flags.split(), "--out", str(records), "--manifest", str(manifest)]
    assert cli_main(argv) == 0
    assert sha256(manifest.read_text()) == pinned
    assert cli_main(["verify", str(manifest), str(records)]) == 0


@pytest.fixture
def run_1_fails(monkeypatch):
    real_run = experiments.run

    def failing_run(cfg, ticks):
        if cfg.seed in (subseed(5, 1), subseed(7, 1)):
            raise ValueError('shape (3, 2) does not fit "x"')
        return real_run(cfg, ticks)

    monkeypatch.setattr(experiments, "run", failing_run)


def test_golden_ensemble_failed_row(run_1_fails, tmp_path):
    text = cli_output(tmp_path, ["ensemble"] + FAILED_ENSEMBLE.split())
    assert sha256(text) == FAILED_ENSEMBLE_SHA


def test_golden_sweep_failed_run(run_1_fails, tmp_path):
    # the failed run counts in n_failed and is left out of every mean
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("N=8 m=3 seed=7 T=60 sweep=N values=8,16 seeds=3\n")
    assert sha256(cli_output(tmp_path, ["sweep", "--config", str(cfg)])) == FAILED_SWEEP_SHA
