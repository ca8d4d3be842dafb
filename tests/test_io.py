import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmg import ConfigError, GameConfig, RunRecords, io, run
from mmg.config import CONFIG_KEYS, MAX_MEMORY, MAX_TABLE_BYTES
from mmg.io import (
    RunManifest,
    content_hash,
    format_number,
    make_manifest,
    parse_config,
    parse_manifest,
    render_records,
    render_table,
    serialize_manifest,
)


class TestParseConfig:
    def test_minimal_line(self):
        parsed = parse_config("N=11 K=2 s=2 m=5 payoff=linear topology=regular seed=1 T=5000")
        cfg = parsed.game
        assert cfg.n_agents == 11 and cfg.n_markets == 2
        assert parsed.ticks == 5000
        # documented defaults materialized
        assert cfg.tie_break == "random"
        assert cfg.zero_demand == "coin"
        assert cfg.init_utilities == "zero"
        assert (cfg.u_low, cfg.u_high) == (0.0, 1.0)

    def test_domain_error_names_field(self):
        with pytest.raises(ConfigError, match="s:"):
            parse_config("N=5 s=0 seed=1")
        with pytest.raises(ConfigError, match="m:"):
            parse_config("N=5 m=25 seed=1")

    def test_table_budget_names_memory(self):
        # 200000 agents at m=20 would ask for about 781 GiB of tables; the
        # config is refused before anything is allocated
        with pytest.raises(ConfigError, match="^m: .*838860800000 bytes"):
            GameConfig(n_agents=200_000, seed=1, memory=20)
        with pytest.raises(ConfigError, match="^m: "):
            parse_config("N=200000 m=20 seed=1")

    def test_table_budget_is_inclusive(self):
        n = MAX_TABLE_BYTES >> 12  # N*K*s*2**m at exactly the budget for K=s=2, m=10
        GameConfig(n_agents=n, seed=1, memory=10)
        with pytest.raises(ConfigError, match="^m: "):
            GameConfig(n_agents=n + 1, seed=1, memory=10)
        with pytest.raises(ConfigError, match="^m: "):
            parse_config(f"N={n} K=3 m=10 seed=1")

    def test_record_budget_names_ticks(self):
        # a run's records take 8*T*(4K+3) bytes, 88*T at K=2: T is refused
        # over the budget, inclusively, before anything is allocated
        most = MAX_TABLE_BYTES // 88
        cfg = GameConfig(n_agents=11, seed=1)
        cfg.check_ticks(most)
        with pytest.raises(ConfigError, match="^T: "):
            cfg.check_ticks(most + 1)
        with pytest.raises(ConfigError, match="^T: must be >= 1"):
            cfg.check_ticks(0)
        assert parse_config(f"N=11 seed=1 T={most}").ticks == most
        with pytest.raises(ConfigError, match="^T: .*8800000000000 bytes"):
            parse_config("N=11 seed=1 T=100000000000")
        with pytest.raises(ConfigError, match="^T: "):
            parse_config(f"N=11 K=3 seed=1 T={most}")

    def test_irregular_population(self):
        parsed = parse_config("topology=irregular n1=1146 n2=301 seed=9")
        assert parsed.game.n_agents == 1447
        assert parsed.game.n_exclusive == 1146

    @pytest.mark.parametrize("text", [
        "topology=irregular n1=5 seed=1",
        "topology=irregular n2=5 seed=1",
        "topology=irregular N=5 seed=1",
    ])
    def test_irregular_needs_both_populations(self, text):
        # the first of n1 and n2 that is missing is named
        missing = "n2" if "n1=" in text else "n1"
        with pytest.raises(ConfigError, match=f"^{missing}: required for an irregular game$"):
            parse_config(text)

    @pytest.mark.parametrize("text, key", [
        ("N=5 n1=2 seed=1", "n1"),
        ("topology=regular N=5 n2=3 seed=1", "n2"),
        ("topology=irregular n1=-1 n2=3 seed=1", "n1"),
        ("topology=irregular n1=2 n2=-3 seed=1", "n2"),
        ("topology=irregular n1=2 n2=3 K=3 seed=1", "K"),
    ])
    def test_irregular_input_names_key(self, text, key):
        with pytest.raises(ConfigError, match=f"^{key}: "):
            parse_config(text)

    def test_irregular_population_mismatch(self):
        with pytest.raises(ConfigError, match="^N: must be n1 \\+ n2 = 5 in an irregular game, got 9$"):
            parse_config("topology=irregular n1=2 n2=3 N=9 seed=1")

    def test_unknown_key_with_location(self):
        with pytest.raises(ConfigError, match=r"line 2, col 7"):
            parse_config("N=4 seed=1\nm=3   bogus=7")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("N=4 N=5 seed=1")

    def test_multiline_with_comments(self):
        text = """
        # base game
        N=16 K=2        # two markets
        s=2 m=3 seed=4
        sweep=N values=8,16,32 seeds=3 T=100
        window=10:50
        """
        parsed = parse_config(text)
        assert parsed.sweep.values == (8, 16, 32)
        assert parsed.n_seeds == 3
        assert parsed.window == (10, 50)

    def test_seed_required(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config("N=5")

    @pytest.mark.parametrize("text", [
        "N=8 seed=1 sweep=N values=0,8",
        "N=8 seed=1 sweep=N values=8,-2",
        "topology=irregular n1=3 n2=3 seed=1 sweep=n1 values=-3",
        "topology=irregular n1=3 n2=0 seed=1 sweep=n1 values=0,4",
    ])
    def test_swept_population_below_one(self, text):
        with pytest.raises(ConfigError, match="values"):
            parse_config(text)

    @pytest.mark.parametrize("text", [
        "N=9 m=3 seed=17 T=30 seeds=2 sweep=N values=9,9",
        "topology=irregular n1=3 n2=3 seed=1 sweep=n1 values=4,0,4",
    ])
    def test_repeated_sweep_values(self, text):
        with pytest.raises(ConfigError, match="^values:"):
            parse_config(text)

    @pytest.mark.parametrize("text", [
        "topology=irregular n1=5 n2=5 seed=1 sweep=N values=8,16 T=10 seeds=1",
        "N=8 seed=1 sweep=n1 values=2",
    ])
    def test_sweep_key_must_match_the_topology(self, text):
        # a regular game sweeps N, an irregular one n1; an N sweep of an
        # irregular game played regular games
        with pytest.raises(ConfigError, match="^sweep"):
            parse_config(text)

    @pytest.mark.parametrize("values", ["8,,16", "8,", ",8", ","])
    def test_empty_list_entry_refused(self, values):
        # each was read as the list without its empty entries
        message = f"values: expected comma-separated integers, got '{values}'"
        with pytest.raises(ConfigError, match=re.escape(message) + "$"):
            parse_config(f"N=8 seed=1 sweep=N values={values}")

    def test_empty_values(self):
        with pytest.raises(ConfigError, match="^values: need distinct values, at least one"):
            parse_config("N=8 seed=1 sweep=N values=")

    def test_swept_n1_may_be_zero(self):
        parsed = parse_config("topology=irregular n1=3 n2=3 seed=1 sweep=n1 values=0,4")
        assert parsed.sweep.values == (0, 4)

    @pytest.mark.parametrize("window", ["20:10", "0:50", "-1:10", "5:5"])
    def test_window_outside_run(self, window):
        with pytest.raises(ConfigError, match="window"):
            parse_config(f"N=9 seed=1 T=30 window={window}")

    def test_window_up_to_last_tick(self):
        assert parse_config("N=9 seed=1 T=30 window=0:30").window == (0, 30)
        assert parse_config("N=9 seed=1 window=20:50").window == (20, 50)

    def test_sweep_window_is_checked_as_a_run_window(self):
        # without T no window is out of range, with sweep= or without it
        for text in ("N=8 seed=1", "N=8 seed=1 sweep=N values=8,16"):
            assert parse_config(f"{text} window=0:6000").window == (0, 6000)

    def test_values_without_sweep(self):
        with pytest.raises(ConfigError, match="values"):
            parse_config("N=5 seed=1 values=1,2")

    def test_overrides_win(self):
        parsed = parse_config("N=5 seed=1 m=3", overrides={"m": 4, "seed": 2})
        assert parsed.game.memory == 4 and parsed.game.seed == 2

    @pytest.mark.parametrize("init, low, high", [
        ("zero", 0.0, math.inf),
        ("uniform", 0.0, math.inf),
        ("zero", math.nan, 1.0),
        ("uniform", -1e308, 1e308),  # each bound finite, their difference not
    ])
    def test_non_finite_utility_bounds(self, init, low, high):
        with pytest.raises(ConfigError, match="^u_low/u_high: "):
            GameConfig(n_agents=5, seed=1, init_utilities=init, u_low=low, u_high=high)

    def test_malformed_token(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_config("N=5 seed=1 whatisthis")


class TestValidByConstruction:
    def test_bad_game_is_refused_when_built(self):
        with pytest.raises(ConfigError, match="^N:"):
            GameConfig(n_agents=0, seed=1)

    def test_replace_checks_the_new_game(self):
        valid = GameConfig(n_agents=5, seed=1)
        with pytest.raises(ConfigError, match="^seed:"):
            dataclasses.replace(valid, seed=-1)

    @pytest.mark.parametrize("kw, key", [
        (dict(seed=1.5), "seed"), (dict(n_agents=True), "N"), (dict(n_agents=8.5), "N"),
        (dict(n_agents="8"), "N"), (dict(n_markets=np.float64(2)), "K"),
        (dict(n_strategies=False), "s"), (dict(memory=3.0), "m"), (dict(u_low="0"), "u_low"),
        (dict(u_high=None), "u_high"), (dict(u_high=True), "u_high"),
        (dict(n_exclusive=2.5), "n1"), (dict(n_exclusive=True), "n1"),
    ])
    def test_value_of_the_wrong_kind_names_its_key(self, kw, key):
        # files, flags and manifests convert first; the Python API is checked here
        kind = "a number" if key.startswith("u_") else "an integer"
        with pytest.raises(ConfigError, match=f"^{key}: expected {kind}, got "):
            GameConfig(**{"n_agents": 8, "seed": 1, **kw})

    def test_numpy_numbers_are_accepted(self):
        cfg = GameConfig(n_agents=np.int64(8), seed=np.uint64(3), memory=np.int32(3),
                         u_low=np.float32(-1.0), n_exclusive=np.int16(2))
        assert cfg.agent_runs() == [(slice(0, 2), 1), (slice(2, 8), 2)]


class TestConfigKeys:
    def test_one_key_per_field(self):
        keyed = sorted(field for field, _, _ in CONFIG_KEYS.values())
        fields = sorted(f.name for f in dataclasses.fields(GameConfig) if f.name != "n_exclusive")
        assert keyed == fields

    def test_file_defaults_are_dataclass_defaults(self):
        assert parse_config("N=5 seed=1").game == GameConfig(n_agents=5, seed=1)

    @pytest.mark.parametrize("key", [
        key for key, (_, kind, _) in CONFIG_KEYS.items() if isinstance(kind, tuple)
    ])
    def test_python_api_refuses_a_bad_choice(self, key):
        # files, flags and manifests are refused earlier, by their converter
        choices = {
            "payoff": "('linear', 'sign', 'scaled')",
            "tie_break": "('random', 'lowest-index')",
            "zero_demand": "('coin', 'plus-one')",
            "init_utilities": "('zero', 'uniform')",
        }
        field, _, _ = CONFIG_KEYS[key]
        with pytest.raises(ConfigError) as info:
            GameConfig(n_agents=5, seed=1, **{field: "bogus"})
        assert str(info.value) == f"{key}: must be one of {choices[key]}, got 'bogus'"

    @pytest.mark.parametrize("topology", [{}, {"n_exclusive": 2}])
    def test_manifest_config_keys(self, topology):
        cfg = GameConfig(n_agents=5, seed=1, **topology)
        obj = json.loads(serialize_manifest(make_manifest(cfg, 3, "csv", "x")))
        assert set(obj["config"]) == set(CONFIG_KEYS) | {"topology"}


class TestRecordFormats:
    def records(self):
        return run(GameConfig(n_agents=7, seed=13, memory=3), 9)

    def test_csv_layout(self):
        rec = self.records()
        text = render_records(rec, "csv")
        lines = text.splitlines()
        assert lines[0] == "t,k,O,A,astar,mu,C"
        assert len(lines) == 1 + 9 * 2
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0"

    def test_csv_single_tick_two_markets(self):
        rec = RunRecords(
            config=GameConfig(n_agents=5, seed=0, memory=3),
            t=np.array([0]),
            occupancy=np.array([[3, 2]]),
            demand=np.array([[1, -2]]),
            minority=np.array([[-1, 1]]),
            history=np.array([[5, 0]]),
            n_switched=np.array([0]),
            n_tied=np.array([0]),
        )
        assert render_records(rec, "csv") == (
            "t,k,O,A,astar,mu,C\n0,0,3,1,-1,5,0\n0,1,2,-2,1,0,0\n"
        )

    def test_empty_stream_is_header_only(self):
        empty = np.empty((0, 2), dtype=np.int64)
        rec = RunRecords(
            config=GameConfig(n_agents=5, seed=0, memory=3), t=np.empty(0, dtype=np.int64),
            occupancy=empty, demand=empty, minority=empty, history=empty,
            n_switched=np.empty(0, dtype=np.int64), n_tied=np.empty(0, dtype=np.int64),
        )
        assert render_records(rec, "csv") == "t,k,O,A,astar,mu,C\n"
        assert render_records(rec, "jsonl") == ""

    def test_byte_stability(self):
        a = render_records(self.records(), "csv")
        b = render_records(self.records(), "csv")
        assert a == b
        assert content_hash(a) == content_hash(b)

    def test_jsonl_key_order(self):
        line = render_records(self.records(), "jsonl").splitlines()[0]
        assert line.startswith('{"t":0,"O":[')
        assert '"astar":' in line and '"C":' in line

    @pytest.mark.parametrize("k_markets", [1, 2, 3])
    def test_jsonl_matches_json_dumps(self, k_markets):
        # each line is the object json.dumps writes for the tick; the game
        # has negative demands and, at t=0, the first tick's C=0, the
        # random record multi-digit negatives in every column
        game = run(GameConfig(n_agents=9, seed=k_markets, n_markets=k_markets, memory=3), 40)
        assert (game.demand < 0).any() and game.t[0] == 0 and game.n_switched[0] == 0
        draw = np.random.default_rng(k_markets).integers
        wide = RunRecords(game.config, np.arange(30) * 7,
                          *(draw(-5000, 5000, (30, k_markets)) for _ in range(4)),
                          draw(-5000, 5000, 30), np.zeros(30, dtype=np.int64))
        keys = ("t", "O", "A", "astar", "mu", "C")
        fields = ("t", "occupancy", "demand", "minority", "history", "n_switched")
        for rec in (game, wide, RunRecords.empty(game.config, 0)):
            ticks = zip(*(getattr(rec, name).tolist() for name in fields))
            text = render_records(rec, "jsonl")
            assert text == "".join(
                json.dumps(dict(zip(keys, tick)), separators=(",", ":")) + "\n" for tick in ticks
            )

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render_records(self.records(), "parquet")

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_tie_draws_are_not_serialized(self, fmt):
        # n_tied is kept in memory only: the same records without it render
        # the same bytes
        rec = run(GameConfig(n_agents=60, seed=4, memory=3, payoff="sign"), 30)
        assert rec.n_tied.any()
        text = render_records(rec, fmt)
        assert render_records(dataclasses.replace(rec, n_tied=None), fmt) == text


def one_shot_render(records, fmt):
    """The records' text built from one row list over the whole run: the
    bytes that rendering chunk by chunk reproduces."""
    n_ticks, k_markets = records.n_ticks, records.config.n_markets
    if fmt == "csv":
        rows = np.column_stack([
            np.repeat(records.t, k_markets), np.tile(np.arange(k_markets), n_ticks),
            records.occupancy.ravel(), records.demand.ravel(), records.minority.ravel(),
            records.history.ravel(), np.repeat(records.n_switched, k_markets),
        ]).tolist()
        return "\n".join(["t,k,O,A,astar,mu,C"] + [",".join(map(str, row)) for row in rows]) + "\n"
    fields = ("t", "occupancy", "demand", "minority", "history", "n_switched")
    keys = ("t", "O", "A", "astar", "mu", "C")
    ticks = zip(*(getattr(records, name).tolist() for name in fields))
    return "".join(json.dumps(dict(zip(keys, tick)), separators=(",", ":")) + "\n" for tick in ticks)


def wide_records(ticks, k_markets, seed=0):
    """Records of ``ticks`` ticks holding multi-digit values of either sign."""
    draw = np.random.default_rng(seed).integers
    return RunRecords(GameConfig(n_agents=5, seed=seed, n_markets=k_markets), np.arange(ticks),
                      *(draw(-5000, 5000, (ticks, k_markets)) for _ in range(4)),
                      draw(0, 5000, ticks), np.zeros(ticks, dtype=np.int64))


def head(records, ticks):
    """The first ``ticks`` ticks of ``records``."""
    return RunRecords(records.config, *(getattr(records, name)[:ticks] for name in
                                        ("t", "occupancy", "demand", "minority", "history",
                                         "n_switched", "n_tied")))


class TestChunkedRender:
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_chunk_edges_match_one_shot(self, fmt):
        chunk = io._RENDER_TICKS
        game = run(GameConfig(n_agents=5, seed=3, memory=2), chunk + 1)
        for ticks in (chunk - 1, chunk, chunk + 1):
            rec = head(game, ticks)
            assert render_records(rec, fmt) == one_shot_render(rec, fmt), ticks

    @pytest.mark.parametrize("k_markets", [1, 3])
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_many_small_chunks_match_one_shot(self, monkeypatch, fmt, k_markets):
        monkeypatch.setattr(io, "_RENDER_TICKS", 3)
        rec = wide_records(11, k_markets)
        for ticks in range(12):
            assert render_records(head(rec, ticks), fmt) == one_shot_render(head(rec, ticks), fmt)

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_peak_is_text_twice_plus_one_chunk(self, fmt):
        # the chunks' texts and their join, plus what one chunk of ticks
        # takes to render; one row list over the run takes 4-6x the records
        def peak(rec):
            tracemalloc.start()
            try:
                text = render_records(rec, fmt)
                return len(text), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        rec = wide_records(8 * io._RENDER_TICKS, 2)
        _, one_chunk = peak(head(rec, io._RENDER_TICKS))
        size, whole = peak(rec)
        assert whole <= 2 * size + one_chunk


class TestFormatNumber:
    def test_integers_verbatim(self):
        assert format_number(1200) == "1200"
        assert format_number(np.int64(-3)) == "-3"

    def test_bools_print_as_integers(self):
        cells = [format_number(x) for x in (True, False, np.True_, np.False_)]
        assert cells == ["1", "0", "1", "0"]

    def test_float_17_digits(self):
        assert format_number(0.1) == "0.10000000000000001"
        assert format_number(75.25) == "75.25"

    @given(x=st.floats(allow_nan=False, allow_infinity=False))
    def test_floats_round_trip(self, x):
        assert float(format_number(x)) == x

    def test_table_rendering(self):
        table = {"a": np.array([1, 2]), "b": np.array([0.5, 1.5])}
        assert render_table(table) == "a,b\n1,0.5\n2,1.5\n"

    def test_table_quotes_text_only_where_needed(self):
        text = ["plain", "a,b", 'say "hi"', "cr\rx", "lf\nx", ""]
        table = {"n": np.array([1.0, np.nan, 2.0, 3.0, 4.0, 5.0]), "text": np.array(text)}
        assert render_table(table) == (
            'n,text\n1,plain\n,"a,b"\n2,"say ""hi"""\n3,"cr\rx"\n4,"lf\nx"\n5,\n'
        )


def populations():
    """(n1, n2) of an irregular game: both >= 0, at least one agent."""
    return st.tuples(st.integers(0, 50), st.integers(0, 50)).filter(lambda p: p[0] + p[1] > 0)


@st.composite
def manifest_configs(draw):
    """Games that can be played: parse_manifest refuses the others."""
    n_exclusive = None
    if draw(st.booleans()):
        n_exclusive, n2 = draw(populations())
        n_agents, n_markets = n_exclusive + n2, 2
    else:
        n_agents = draw(st.integers(1, 5000))
        n_markets = draw(st.integers(1, 4))
    n_strategies = draw(st.integers(1, 4))
    # the largest m whose strategy tables fit the budget
    tables_per_pattern = n_agents * n_markets * n_strategies
    max_memory = min(MAX_MEMORY, (MAX_TABLE_BYTES // tables_per_pattern).bit_length() - 1)
    return GameConfig(
        n_agents=n_agents,
        seed=draw(st.integers(0, 2**63 - 1)),
        n_markets=n_markets,
        n_strategies=n_strategies,
        memory=draw(st.integers(1, max_memory)),
        payoff=draw(st.sampled_from(("linear", "sign", "scaled"))),
        n_exclusive=n_exclusive,
        init_utilities=draw(st.sampled_from(("zero", "uniform"))),
        u_low=draw(st.floats(-10, 0.5, allow_nan=False)),
        u_high=draw(st.floats(0.6, 10, allow_nan=False)),
        tie_break=draw(st.sampled_from(("random", "lowest-index"))),
        zero_demand=draw(st.sampled_from(("coin", "plus-one"))),
    )


class TestManifest:
    @settings(max_examples=60, deadline=None)
    @given(cfg=manifest_configs(), ticks=st.integers(1, 10**6))
    def test_round_trip(self, cfg, ticks):
        manifest = RunManifest(
            config=cfg, ticks=ticks, fmt="csv",
            version="0.1.0", content_hash=content_hash("x"),
        )
        assert parse_manifest(serialize_manifest(manifest)) == manifest

    @settings(max_examples=60, deadline=None)
    @given(populations=populations(), seed=st.integers(0, 2**63 - 1))
    def test_irregular_game_round_trips(self, populations, seed):
        # config text -> GameConfig -> manifest -> GameConfig, bytes unchanged
        n1, n2 = populations
        cfg = parse_config(f"topology=irregular n1={n1} n2={n2} seed={seed}").game
        assert (cfg.n_agents, cfg.n_markets, cfg.n_exclusive) == (n1 + n2, 2, n1)
        text = serialize_manifest(make_manifest(cfg, 10, "csv", "x"))
        assert json.loads(text)["config"]["topology"] == {"kind": "irregular", "n1": n1, "n2": n2}
        manifest = parse_manifest(text)
        assert manifest.config == cfg
        assert serialize_manifest(manifest) == text
        # only the first n1 agents' second market is blocked
        blocked = np.zeros((n1 + n2, 2), dtype=bool)
        blocked[:n1, 1] = True
        linked = np.zeros((n1 + n2, 2), dtype=bool)
        for agents, k in cfg.agent_runs():
            linked[agents, :k] = True
        assert np.array_equal(~linked, blocked)

    @staticmethod
    def manifest_with(config=None, **top):
        """Manifest text of a playable game, with some values replaced."""
        cfg = GameConfig(n_agents=12, seed=5, n_exclusive=4)
        obj = json.loads(serialize_manifest(make_manifest(cfg, 10, "csv", "payload")))
        obj["config"].update(config or {})
        obj.update(top)
        return json.dumps(obj)

    @pytest.mark.parametrize("text", ["{not json", "", '["config"]', "null"])
    def test_no_json_object_names_manifest(self, text):
        with pytest.raises(ConfigError, match="^manifest: "):
            parse_manifest(text)

    @pytest.mark.parametrize("key", ["config", "content_hash", "format", "seed", "T", "version"])
    def test_missing_key_is_named(self, key):
        obj = json.loads(self.manifest_with())
        del obj[key]
        with pytest.raises(ConfigError, match=f"^{key}: required$"):
            parse_manifest(json.dumps(obj))

    @pytest.mark.parametrize("fmt", ["parquet", "CSV", None])
    def test_unknown_format_is_named(self, fmt):
        with pytest.raises(ConfigError, match="^format: expected one of csv, jsonl"):
            parse_manifest(self.manifest_with(format=fmt))

    @pytest.mark.parametrize("seed", [99, 3.0])
    def test_seed_other_than_config_seed(self, seed):
        # the game plays config.seed, so a different top-level seed is refused
        with pytest.raises(ConfigError, match="^seed: "):
            parse_manifest(self.manifest_with({"seed": 3}, seed=seed))

    @pytest.mark.parametrize("key", ["config", "topology"])
    def test_config_and_topology_are_objects(self, key):
        obj = json.loads(self.manifest_with())
        if key == "config":
            obj["config"] = [1, 2]
        else:
            obj["config"]["topology"] = "irregular"
        with pytest.raises(ConfigError, match=f"^{key}: expected a JSON object"):
            parse_manifest(json.dumps(obj))

    def test_unplayable_game_names_key(self):
        with pytest.raises(ConfigError, match="^N: "):
            parse_manifest(self.manifest_with({"N": -5, "m": 99}))

    # a non-integer, a non-number or an unknown choice for every key of CONFIG_KEYS
    BAD_VALUES = {
        key: ("bogus" if isinstance(kind, tuple) else "x" if kind is float else 2.5)
        for key, (_, kind, _) in CONFIG_KEYS.items()
    }

    @pytest.mark.parametrize("key", sorted(CONFIG_KEYS))
    def test_bad_value_names_key(self, key):
        with pytest.raises(ConfigError, match=f"^{key}: "):
            parse_manifest(self.manifest_with({key: self.BAD_VALUES[key]}))

    # every number serialize_manifest writes, by its path in the manifest
    NUMBER_PATHS = [("seed",), ("T",), *[("config", key) for key in (
        "seed", "N", "K", "s", "m", "u_low", "u_high")], ("config", "topology", "n1"),
        ("config", "topology", "n2")]

    @pytest.mark.parametrize("retype", [str, lambda value: True], ids=["string", "boolean"])
    @pytest.mark.parametrize("path", NUMBER_PATHS, ids="/".join)
    def test_number_keys_take_json_numbers(self, path, retype):
        # the value itself as a JSON string ("7"), or a JSON boolean
        obj = json.loads(self.manifest_with())
        *parents, key = path
        holder = obj
        for parent in parents:
            holder = holder[parent]
        holder[key] = retype(holder[key])
        with pytest.raises(ConfigError, match=f"^{key}: "):
            parse_manifest(json.dumps(obj))

    @pytest.mark.parametrize("config, top, key", [
        ({"topology": {"kind": "ring"}}, {}, "topology"),
        ({"topology": {"n1": 4, "n2": 8}}, {}, "topology"),
        ({"topology": {"kind": "regular", "n3": 1}}, {}, "unknown key 'n3'"),
        ({"topology": {"kind": "irregular", "n1": 4, "n2": "x"}}, {}, "n2"),
        ({"topology": {"kind": "irregular", "n1": 5, "n2": 8}}, {}, "N"),  # N=12
        ({}, {"T": 0}, "T"),
        ({}, {"T": 10**11}, "T"),
        ({"seeds": 3}, {}, "unknown key 'seeds'"),
        ({}, {"window": "0:5"}, "unknown key 'window'"),
    ])
    def test_bad_topology_ticks_or_key(self, config, top, key):
        with pytest.raises(ConfigError, match=f"^{key}"):
            parse_manifest(self.manifest_with(config, **top))

    def test_serialize_is_fixed_point(self):
        cfg = GameConfig(n_agents=12, seed=5)
        m = make_manifest(cfg, 10, "csv", "payload")
        text = serialize_manifest(m)
        assert serialize_manifest(parse_manifest(text)) == text

    def test_hash_matches_payload(self):
        cfg = GameConfig(n_agents=6, seed=8, memory=2)
        rec = run(cfg, 5)
        text = render_records(rec, "csv")
        m = make_manifest(cfg, 5, "csv", text)
        assert m.content_hash == content_hash(text)
        assert m.config.seed == 8 and m.ticks == 5
