import csv
import json

import pytest

from helpers import columns
from mmg import GameConfig, RunRecords, cli, engine, experiments
from mmg.cli import _build_parser, cli_main
from mmg.config import CONFIG_KEYS, MAX_TABLE_BYTES
from mmg.experiments import FIGURE_NAMES
from mmg.io import FILE_KEYS, content_hash, parse_manifest


class Played(BaseException):
    """Raised in place of a game; no ``except Exception`` catches it."""


def no_game(cfg, ticks):
    raise Played


# a config-file value and a different flag value for every key of CONFIG_KEYS
FILE_AND_FLAG = {
    "seed": ("1", "2"),
    "N": ("5", "7"),
    "K": ("2", "3"),
    "s": ("2", "1"),
    "m": ("2", "3"),
    "payoff": ("linear", "sign"),
    "tie_break": ("random", "lowest-index"),
    "zero_demand": ("coin", "plus-one"),
    "init_utilities": ("zero", "uniform"),
    "u_low": ("0", "-0.5"),
    "u_high": ("1", "2.5"),
}

# a value of the wrong kind for every key of FILE_KEYS
BAD_FILE_VALUES = {
    **{key: "2.5" for key in ("seed", "N", "K", "s", "m", "n1", "n2", "T", "seeds")},
    **{key: "x" for key in ("u_low", "u_high")},
    **{key: "bogus" for key in ("payoff", "tie_break", "zero_demand", "init_utilities",
                                "topology", "sweep")},
    "values": "8,x",
    "window": "10",
}


def subparser(command):
    """The parser of one ``mmg`` subcommand."""
    subparsers = next(a for a in _build_parser()._actions if a.dest == "command")
    return subparsers.choices[command]


class TestPredict:
    def test_regular_two_markets(self, capsys):
        assert cli_main(["predict", "--N", "1600", "--K", "2", "--s", "2"]) == 0
        assert capsys.readouterr().out == "1200 400\n"

    def test_regular_three_markets(self, capsys):
        assert cli_main(["predict", "--N", "3001", "--K", "3", "--s", "2"]) == 0
        assert capsys.readouterr().out == "2250.75 562.6875 187.5625\n"

    def test_irregular(self, capsys):
        assert cli_main(["predict", "--n1", "1000", "--n2", "301", "--s", "2"]) == 0
        assert capsys.readouterr().out == "1225.75 75.25\n"

    def test_irregular_with_its_own_n_and_k(self, capsys):
        assert cli_main(["predict", "--N", "7", "--K", "2", "--n1", "3", "--n2", "4"]) == 0
        assert capsys.readouterr().out == "6 1\n"

    def test_missing_arguments(self, capsys):
        assert cli_main(["predict"]) == 1

    @pytest.mark.parametrize("argv, out", [
        (["--N", "5", "--s", "1100"], "5 0\n"),
        (["--n1", "3", "--n2", "4", "--s", "1100"], "7 0\n"),
    ])
    def test_strategy_count_past_float_range(self, capsys, argv, out):
        # 2**-s underflows to 0 instead of 1 / 2**s overflowing the float
        assert cli_main(["predict", *argv]) == 0
        assert capsys.readouterr().out == out

    def test_irregular_game_without_agents(self, capsys):
        # ``mmg run`` refuses the same game
        assert cli_main(["predict", "--n1", "0", "--n2", "0"]) == 2
        assert capsys.readouterr().err == "config error: N: must be >= 1, got 0\n"

    def test_one_market_has_no_table_bound(self, capsys):
        # one market keeps all N agents; no table budget applies
        assert cli_main(["predict", "--N", "2000000000", "--K", "1"]) == 0
        assert capsys.readouterr().out == "2000000000\n"

    @pytest.mark.parametrize("argv, key", [
        (["--N", "-5"], "N"),
        (["--N", "5", "--K", "0"], "K"),
        (["--N", "5", "--s", "0"], "s"),
        (["--n1", "-1", "--n2", "3"], "n1"),
        (["--N", "5", "--K", "2000000000"], "K"),
        (["--N", "2000000000", "--K", "2"], "N"),
        (["--N", "5", "--n1", "3", "--n2", "4"], "N"),  # N is n1 + n2 = 7
        (["--K", "3", "--n1", "3", "--n2", "4"], "K"),  # the irregular game has 2 markets
        (["--n1", "5"], "n2"),
        (["--n2", "5"], "n1"),
        (["--n1", "3", "--n2", "-4"], "n2"),
    ])
    def test_bad_input_names_key(self, capsys, argv, key):
        assert cli_main(["predict", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: {key}:")


class TestExitCodes:
    def test_unknown_subcommand(self):
        assert cli_main(["frobnicate"]) == 1

    def test_run_without_seed(self, tmp_path):
        assert cli_main(["run", "--N", "5", "-T", "3", "--out", str(tmp_path / "r.csv")]) == 2

    def test_run_without_ticks(self, tmp_path):
        assert cli_main(["run", "--N", "5", "--seed", "1"]) == 2

    def test_invalid_domain_value(self):
        assert cli_main(["run", "--N", "0", "--seed", "1", "-T", "2"]) == 2

    @pytest.mark.parametrize("key", sorted(FILE_KEYS))
    def test_bad_file_value_names_key(self, tmp_path, capsys, key):
        cfg = tmp_path / "game.cfg"
        cfg.write_text(f"{key}={BAD_FILE_VALUES[key]}\n")
        assert cli_main(["run", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: line 1, col 1: {key}: ")

    @pytest.mark.parametrize("command, key, flag", [
        (command, action.dest, action.option_strings[0])
        for command in ("run", "ensemble", "sweep", "figure", "predict")
        for action in subparser(command)._actions if action.dest in FILE_KEYS
    ])
    def test_bad_flag_value_names_key(self, tmp_path, capsys, command, key, flag):
        # a flag's value is converted as the same key's value in a file is
        argv = [command, "fig3", "--out", str(tmp_path)] if command == "figure" else [command]
        assert cli_main([*argv, flag, BAD_FILE_VALUES[key]]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {key}: ")

    def test_sweep_without_seeds(self, tmp_path, capsys):
        # as ensemble, sweep plays only the seeds it is given
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("N=8 m=3 seed=1 T=30 sweep=N values=8\n")
        assert cli_main(["sweep", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "config error: seeds: required for sweep\n"

    @pytest.mark.parametrize("command, directives, key", [
        ("run", "seeds=3 window=0:3", "seeds"),
        ("run", "window=0:3 seeds=3", "window"),
        ("run", "window=last-half", "window"),
        ("run", "sweep=N values=8,16", "sweep"),
        ("ensemble", "seeds=2 sweep=N values=8,16", "sweep"),
    ])
    def test_unread_directive_is_refused(self, tmp_path, capsys, monkeypatch, command,
                                         directives, key):
        # the same keys as flags are usage errors; in a file they were ignored
        monkeypatch.setattr(cli, "run_game", no_game)
        monkeypatch.setattr(experiments, "run", no_game)
        cfg = tmp_path / "game.cfg"
        cfg.write_text(f"N=8 m=3 seed=1 T=30 {directives}\n")
        out = tmp_path / "out.csv"
        assert cli_main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {key}: not read by {command}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "ensemble", "sweep"])
    def test_unreadable_config_file(self, tmp_path, capsys, command):
        # an unreadable file is bad input, like a bad key, not a runtime failure
        for path in (tmp_path / "missing.cfg", tmp_path):
            assert cli_main([command, "--config", str(path)]) == 2
            assert capsys.readouterr().err.startswith(f"config error: config: cannot read {path}")

    def test_negative_seed(self, capsys):
        assert cli_main(["run", "--N", "5", "--seed", "-1", "-T", "3"]) == 2
        assert "seed" in capsys.readouterr().err

    def test_negative_figure_seed(self, tmp_path, capsys):
        argv = ["figure", "fig3", "--seed", "-1", "-T", "20", "--seeds", "1"]
        assert cli_main(argv + ["--out", str(tmp_path)]) == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("game, key", [
        ("N=8 sweep=N values=0,8", "values"),
        ("topology=irregular n1=3 n2=3 sweep=n1 values=-3", "values"),
        ("N=8 sweep=N values=8 window=0:50", "window"),
        # a regular game sweeps N, an irregular one n1: this N sweep played regular games
        ("topology=irregular n1=5 n2=5 sweep=N values=8,16", "sweep"),
        ("N=8 sweep=n1 values=2", "sweep"),
    ])
    def test_bad_sweep_input(self, tmp_path, capsys, game, key):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"{game} m=3 seed=1 T=30 seeds=1\n")
        assert cli_main(["sweep", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {key}:")

    @pytest.mark.parametrize("values", ["8,,16", "8,", ",8"])
    def test_empty_sweep_value_refused(self, tmp_path, capsys, values):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"N=8 m=3 seed=1 T=30 seeds=1 sweep=N values={values}\n")
        assert cli_main(["sweep", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.endswith(f"values: expected comma-separated integers, got '{values}'\n")

    @pytest.mark.parametrize("game", [
        "N=8 sweep=N values=8,2000",
        "topology=irregular n1=3 n2=3 sweep=n1 values=3,2000",
    ])
    def test_swept_game_over_table_budget(self, tmp_path, capsys, game):
        # the base game fits; the swept value 2000 needs about 7.8 GiB of tables
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"{game} m=20 seed=1 T=5 seeds=1\n")
        assert cli_main(["sweep", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("config error: m:")

    @pytest.mark.parametrize("game", [
        "N=9 sweep=N values=9,9",
        "topology=irregular n1=3 n2=3 sweep=n1 values=4,4",
    ])
    def test_repeated_sweep_values(self, tmp_path, capsys, monkeypatch, game):
        # a repeat would replay the same ensemble and write an identical row
        monkeypatch.setattr(experiments, "run", no_game)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"{game} m=3 seed=17 T=30 seeds=2\n")
        out = tmp_path / "points.csv"
        assert cli_main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: values:")
        assert not out.exists()

    @pytest.mark.parametrize("window", ["20:10", "0:50"])
    def test_window_beyond_run(self, tmp_path, capsys, window):
        cfg = tmp_path / "game.cfg"
        cfg.write_text(f"N=9 m=3 seed=5 T=30 seeds=2 window={window}\n")
        out = tmp_path / "summaries.csv"
        assert cli_main(["ensemble", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: window:")
        assert not out.exists()

    def test_non_finite_utility_bound(self, capsys):
        argv = ["run", "--N", "5", "--seed", "1", "-T", "2", "--init-utilities", "uniform",
                "--u-low", "0", "--u-high", "inf"]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err.startswith("config error: u_low/u_high:")

    @pytest.mark.parametrize("argv", [
        ["run", "--N", "11", "--seed", "0"],
        ["ensemble", "--N", "11", "--seed", "0", "--seeds", "3"],
        ["sweep", "--N", "11", "--seed", "0", "--seeds", "3"],
        *(["figure", name] for name in FIGURE_NAMES),
    ], ids=lambda argv: "-".join(argv[:2]) if argv[0] == "figure" else argv[0])
    def test_records_over_budget(self, tmp_path, capsys, monkeypatch, argv):
        # 10**11 ticks of two markets need 8*T*(4K+2) = 8e12 bytes of records
        def no_game(*args, **kwargs):
            raise AssertionError("a game was started")

        monkeypatch.setattr(engine, "init_game", no_game)
        if argv[0] == "sweep":
            cfg = tmp_path / "sweep.cfg"
            cfg.write_text("sweep=N values=11,13\n")
            argv = argv + ["--config", str(cfg)]
        out = tmp_path / "out"
        assert cli_main(argv + ["-T", "100000000000", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: T: ")
        assert not out.exists()

    def test_record_budget_edge(self, tmp_path, capsys, monkeypatch):
        # at K=2 the records take 80*T bytes: the largest T within the
        # budget reaches the game, one tick more is refused before it
        monkeypatch.setattr(cli, "run_game", no_game)
        argv = ["run", "--N", "11", "--seed", "0", "--out", str(tmp_path / "out.csv"), "-T"]
        with pytest.raises(Played):
            cli_main(argv + ["13421772"])
        assert cli_main(argv + ["13421773"]) == 2
        assert capsys.readouterr().err.startswith("config error: T: records of T=13421773")
        assert not (tmp_path / "out.csv").exists()

    def test_fig6_budget_edge(self, tmp_path, capsys, monkeypatch):
        # fig6 holds its records and its table at once, the table T+1 rows of
        # each pick's traces and klass, agent and t cells: the largest T whose
        # arrays fit the budget reaches the game, one tick more is refused
        # before it and writes no file
        short = 300
        table = experiments.figure_dataset("fig6", T=short)["fig6"]
        assert len(set(table["agent"])) == 3
        table_bytes = sum(column.nbytes for column in table.values())
        per_row = table_bytes // (short + 1)
        assert per_row * (short + 1) == table_bytes
        records = columns(RunRecords.empty(GameConfig(n_agents=1600, seed=0), short))
        per_tick = sum(column.nbytes for column in records.values()) // short
        most = (MAX_TABLE_BYTES - per_row) // (per_tick + per_row)
        monkeypatch.setattr(experiments, "run", no_game)
        argv = ["figure", "fig6", "--out", str(tmp_path / "out"), "-T"]
        with pytest.raises(Played):
            cli_main(argv + [str(most)])
        assert cli_main(argv + [str(most + 1)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: T: ")
        assert f" = {per_tick * (most + 1) + per_row * (most + 2)} bytes" in err
        assert not (tmp_path / "out").exists()

    def test_runtime_failure(self, tmp_path):
        # fig6 needs a large fluctuation; two ticks cannot contain one
        assert cli_main(["figure", "fig6", "-T", "2", "--out", str(tmp_path)]) == 3


class TestRun:
    def test_writes_records_and_manifest(self, tmp_path):
        out = tmp_path / "records.csv"
        man = tmp_path / "manifest.json"
        code = cli_main([
            "run", "--N", "9", "--m", "3", "--seed", "7", "-T", "12",
            "--out", str(out), "--manifest", str(man),
        ])
        assert code == 0
        text = out.read_text()
        assert text.startswith("t,k,O,A,astar,mu,C\n")
        assert len(text.splitlines()) == 1 + 12 * 2
        manifest = parse_manifest(man.read_text())
        assert manifest.ticks == 12
        assert manifest.config.n_agents == 9
        assert manifest.content_hash == content_hash(text)

    def test_stdout_default(self, capsys):
        assert cli_main(["run", "--N", "5", "--m", "2", "--seed", "3", "-T", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("t,k,O,A,astar,mu,C\n")

    def test_deterministic_bytes(self, tmp_path):
        argv = ["run", "--N", "9", "--seed", "7", "-T", "20", "--format", "jsonl"]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert cli_main(argv + ["--out", str(a)]) == 0
        assert cli_main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_flags_override_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "game.cfg"
        cfg.write_text("N=5 m=2 seed=1 T=2\n")
        assert cli_main(["run", "--config", str(cfg), "--N", "7"]) == 0
        lines = capsys.readouterr().out.splitlines()
        tick0 = [line.split(",") for line in lines[1:] if line.startswith("0,")]
        assert sum(int(row[2]) for row in tick0) == 7  # occupancies reflect N=7


    @pytest.mark.parametrize("key", sorted(CONFIG_KEYS))
    def test_each_key_flag_overrides_file(self, tmp_path, key):
        cfg = tmp_path / "game.cfg"
        cfg.write_text(" ".join(f"{k}={v}" for k, (v, _) in FILE_AND_FLAG.items()) + " T=2\n")
        man = tmp_path / "run.json"
        flag, value = "--" + key.replace("_", "-"), FILE_AND_FLAG[key][1]
        argv = ["run", "--config", str(cfg), flag, value,
                "--out", str(tmp_path / "records.csv"), "--manifest", str(man)]
        assert cli_main(argv) == 0
        field, kind, _ = CONFIG_KEYS[key]
        want = value if isinstance(kind, tuple) else kind(value)
        assert json.loads(man.read_text())["config"][key] == want
        assert getattr(parse_manifest(man.read_text()).config, field) == want


def disagreeing_pairs(err):
    """The pairs named by ``verify``'s "verify: A sha256:.. != B sha256:.." lines."""
    return [line.split()[1::3] for line in err.splitlines() if " != " in line]


class TestVerify:
    @staticmethod
    def written(tmp_path, fmt="csv"):
        """Paths of the records and manifest ``run`` writes for one game."""
        out, man = tmp_path / f"records.{fmt}", tmp_path / "run.json"
        argv = ["run", "--N", "9", "--m", "3", "--seed", "7", "-T", "12", "--format", fmt,
                "--out", str(out), "--manifest", str(man)]
        assert cli_main(argv) == 0
        return man, out

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_run_output_verifies(self, tmp_path, capsys, fmt):
        man, out = self.written(tmp_path, fmt)
        assert cli_main(["verify", str(man), str(out)]) == 0
        assert capsys.readouterr().err == ""

    def test_changed_digit_names_line(self, tmp_path, capsys):
        man, out = self.written(tmp_path)
        lines = out.read_text().splitlines(keepends=True)
        row = lines[6].split(",")
        row[2] = str(int(row[2]) + 1)
        lines[6] = ",".join(row)
        out.write_text("".join(lines))
        assert cli_main(["verify", str(man), str(out)]) == 4
        err = capsys.readouterr().err
        assert disagreeing_pairs(err) == [["manifest", "file"], ["file", "replay"]]
        assert "first difference at line 7" in err
        assert repr(lines[6]) in err
        assert "numpy" in err

    def test_crlf_copy_fails(self, tmp_path, capsys):
        man, out = self.written(tmp_path)
        out.write_bytes(out.read_bytes().replace(b"\n", b"\r\n"))
        assert cli_main(["verify", str(man), str(out)]) == 4
        assert "first difference at line 1" in capsys.readouterr().err

    def test_manifest_hash_differs(self, tmp_path, capsys):
        man, out = self.written(tmp_path)
        obj = json.loads(man.read_text())
        obj["content_hash"] = content_hash("other")
        man.write_text(json.dumps(obj))
        assert cli_main(["verify", str(man), str(out)]) == 4
        err = capsys.readouterr().err
        assert disagreeing_pairs(err) == [["manifest", "file"], ["manifest", "replay"]]
        assert "first difference" not in err

    @pytest.mark.parametrize("missing", ["manifest", "file"])
    def test_unreadable_input_is_named(self, tmp_path, capsys, missing):
        paths = dict(zip(("manifest", "file"), self.written(tmp_path)))
        for bad in (tmp_path / "missing", tmp_path):
            argv = [str(bad if key == missing else path) for key, path in paths.items()]
            assert cli_main(["verify", *argv]) == 2
            assert capsys.readouterr().err.startswith(f"config error: {missing}: cannot read {bad}")

    @pytest.mark.parametrize("key", ["seed", "T", "N"])
    def test_number_as_string_is_refused_before_replay(self, tmp_path, capsys, monkeypatch, key):
        man, out = self.written(tmp_path)
        obj = json.loads(man.read_text())
        holder = obj["config"] if key == "N" else obj
        holder[key] = str(holder[key])
        man.write_text(json.dumps(obj))
        monkeypatch.setattr(cli, "run_game", no_game)
        assert cli_main(["verify", str(man), str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {key}: ")

    def test_records_over_budget_refused_before_replay(self, tmp_path, capsys, monkeypatch):
        man, out = self.written(tmp_path)
        obj = json.loads(man.read_text())
        obj["T"] = 10**11
        man.write_text(json.dumps(obj))
        monkeypatch.setattr(cli, "run_game", no_game)
        assert cli_main(["verify", str(man), str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: T: ")


class TestParserReuse:
    # the later run leaves out every flag the first one set but --N, -T, --seed
    CALLS = [
        ["run", "--N", "7", "-T", "20", "--seed", "3", "--payoff", "sign",
         "--tie-break", "lowest-index", "--format", "jsonl"],
        ["ensemble", "--N", "9", "-T", "30", "--seeds", "2", "--seed", "4", "--K", "3"],
        ["run", "--N", "5", "-T", "20", "--seed", "3"],
    ]

    def test_flags_do_not_leak_between_calls(self, capsys):
        def output(argv):
            assert cli_main(argv) == 0
            return capsys.readouterr().out

        fresh = []
        for argv in self.CALLS:
            _build_parser.cache_clear()
            fresh.append(output(argv))
        _build_parser.cache_clear()
        assert [output(argv) for argv in self.CALLS] == fresh
        assert _build_parser() is _build_parser()


class TestEnsembleAndSweep:
    def test_ensemble_summary_table(self, tmp_path):
        out = tmp_path / "summaries.csv"
        code = cli_main([
            "ensemble", "--N", "9", "--m", "3", "--seed", "5",
            "--seeds", "3", "-T", "30", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("run,seed,big_market,split,mode,tau0,nu")

    def test_ensemble_error_cell_is_quoted(self, tmp_path, monkeypatch):
        def broken_run(cfg, ticks):
            raise ValueError('shape (3, 2) does not fit "x"\nat all')

        monkeypatch.setattr(experiments, "run", broken_run)
        out = tmp_path / "summaries.csv"
        code = cli_main([
            "ensemble", "--N", "9", "--m", "3", "--seed", "5",
            "--seeds", "2", "-T", "30", "--out", str(out),
        ])
        assert code == 3  # no seed succeeded
        with out.open(newline="") as f:
            rows = list(csv.reader(f))
        assert len(rows) == 3
        assert all(len(row) == len(rows[0]) for row in rows)
        assert rows[1][-1] == 'ValueError: shape (3, 2) does not fit "x"\nat all'

    @pytest.mark.parametrize("failing, code", [(1, 0), (2, 3)])
    def test_ensemble_exits_3_when_no_seed_succeeds(self, tmp_path, capsys, monkeypatch,
                                                    failing, code):
        play, calls = experiments.run, []

        def fail_first(cfg, ticks):
            calls.append(cfg)
            if len(calls) <= failing:
                raise RuntimeError("boom")
            return play(cfg, ticks)

        monkeypatch.setattr(experiments, "run", fail_first)
        out = tmp_path / "summaries.csv"
        argv = ["ensemble", "--N", "9", "--m", "3", "--seed", "5", "--seeds", "2", "-T", "30"]
        assert cli_main(argv + ["--out", str(out)]) == code
        errors = [row[-1] for row in csv.reader(out.open(newline=""))][1:]
        assert errors == ["RuntimeError: boom"] * failing + [""] * (2 - failing)
        err = capsys.readouterr().err
        assert err == ("" if code == 0 else "error: all 2 runs failed; run 0: RuntimeError: boom\n")

    def test_sweep_from_config(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("N=8 m=3 seed=2 T=30 sweep=N values=8,16 seeds=2\n")
        out = tmp_path / "points.csv"
        assert cli_main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0].split(",")[:2] == ["N", "Q"]

    def test_sweep_requires_directive(self):
        assert cli_main(["sweep", "--N", "8", "--seed", "1", "-T", "10"]) == 2


class TestFigure:
    def test_fig6_0_writes_four_files(self, tmp_path):
        code = cli_main(["figure", "fig6_0", "-T", "80", "--out", str(tmp_path)])
        assert code == 0
        files = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert len(files) == 4
        assert all(name.startswith("fig6_0_N") for name in files)

    def test_out_dir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MMG_OUT_DIR", str(tmp_path / "envout"))
        assert cli_main(["figure", "fig5", "-T", "10"]) == 0
        assert (tmp_path / "envout" / "fig5.csv").exists()

    def test_unused_override_exits_before_any_game(self, tmp_path, capsys, monkeypatch):
        def no_game(cfg, ticks):
            raise AssertionError("a game was played")

        monkeypatch.setattr(experiments, "run", no_game)
        assert cli_main(["figure", "fig3", "-T", "50", "--seeds", "2", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "config error: seeds: fig3 does not use it; it reads T, seed, values\n")
        assert list(tmp_path.iterdir()) == []

    def test_unknown_figure_is_usage_error(self):
        assert cli_main(["figure", "fig99"]) == 1
