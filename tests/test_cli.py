"""End-to-end tests of the command-line surface."""

import csv
import json
import math
import shlex
import sys
from pathlib import Path

import pytest

import levdiv.cli
from levdiv import LeverageScenario, MarketParams, regime_sweep
from levdiv.cli import COMMANDS, FLAGS, PUBLISHED_CRITICAL_N, build_parser, compute_table1, main

README = Path(__file__).resolve().parents[1] / "README.md"
PD_ARGS = ("--f", "0.25", "--n", "5", "--N", "10", "--chi", "1.6")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestScalarCommands:
    def test_pd_pretty(self, capsys):
        code, out, _ = run(capsys, "pd", "--f", "0.25", "--n", "5", "--N", "10", "--chi", "1.6")
        assert code == 0
        assert "0.09128757073457716" in out

    def test_pd_json(self, capsys):
        code, out, _ = run(
            capsys, "pd", "--f", "0.25", "--n", "5", "--N", "10", "--chi", "1.6",
            "--output", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["pd"] == pytest.approx(0.0912875707, abs=1e-9)

    def test_pd_csv_is_crlf(self, capsys):
        code, out, _ = run(
            capsys, "pd", "--f", "0.25", "--n", "5", "--N", "10", "--chi", "1.6",
            "--output", "csv",
        )
        assert code == 0
        assert "\r\n" in out
        rows = list(csv.reader(out.splitlines()))
        assert rows[0][-1] == "pd"

    def test_sigma_route(self, capsys):
        code, out, _ = run(
            capsys, "pd", "--f", "0.25", "--n", "5", "--N", "10",
            "--sigma", "1.7888543819998317", "--T", "1.0", "--output", "json",
        )
        assert code == 0
        assert json.loads(out)["pd"] == pytest.approx(0.0912875707, abs=1e-8)

    def test_single_cell_commands_print_the_given_chi(self, capsys):
        # the market stores chi as given: through sigma = sqrt(2 chi) it read 1.5999999999999999
        commands = {
            "pd": ("--f", "0.25", "--n", "5"),
            "spd": ("--f", "0.25", "--n", "5"),
            "delta": ("--f-normal", "0.1", "--f-abnormal", "0.25", "--n", "5"),
            "critical-n": ("--f-normal", "0.1", "--f-abnormal", "0.25"),
            "mu-scan": ("--f-normal", "0.1", "--f-abnormal", "0.25"),
        }
        docs = {}
        for command, args in commands.items():
            code, out, _ = run(capsys, command, *args, "--N", "10", "--chi", "1.6", "--output", "json")
            assert code == 0
            docs[command] = json.loads(out)
            assert docs[command]["chi"] == 1.6
        # and evaluates it: delta is the sweep's cell at its labelled chi
        sweep = regime_sweep(LeverageScenario(0.1, 0.25), [10], [1.6])
        assert docs["delta"]["delta_phi2"] == sweep.delta_phi2[4]
        for sigma, horizon in ((1.7888543819998317, 1.0), (0.9, 2.0), (0.3, 0.25), (2.0, 0.5)):
            assert MarketParams.from_sigma(10, sigma, horizon).chi == 0.5 * sigma * sigma * horizon

    def test_spd_and_delta(self, capsys):
        code, out, _ = run(
            capsys, "spd", "--f", "0.25", "--n", "5", "--N", "10", "--chi", "1.6",
            "--output", "json",
        )
        assert code == 0
        assert 0 < json.loads(out)["systemic_pd"] < 0.0913
        code, out, _ = run(
            capsys, "delta", "--f-normal", "0.1", "--f-abnormal", "0.25",
            "--n", "3", "--N", "10", "--chi", "1.6", "--output", "json",
        )
        assert code == 0
        assert json.loads(out)["delta_phi2"] == pytest.approx(0.06286104646, abs=1e-8)

    @pytest.mark.parametrize("argv, field", [
        (("spd", "--f", "0.25", "--n", "5", "--N", "10"), "systemic_pd"),
        (("delta", "--f-normal", "0.1", "--f-abnormal", "0.25", "--n", "5", "--N", "10"), "delta_phi2"),
    ])
    def test_tiny_chi_gives_the_limit_not_nan(self, capsys, argv, field):
        # chi = 1e-310 puts z near -2e155, where Phi2 overflowed to nan
        code, out, _ = run(capsys, *argv, "--chi", "1e-310")
        assert code == 0
        assert f"{field}  0.0\n" in out and "nan" not in out

    def test_grid_near_unit_correlation(self, capsys):
        # rho = 1 - 1e-12: a table serves it, where the rho = 1 limit Phi(z) would be 2.25e-7 off
        argv = ("spd", "--f", "0.25", "--n", "999999999999", "--N", "1000000000000", "--chi", "1.4e12")
        oracle, grid = (json.loads(run(capsys, *argv, "--method", m, "--output", "json")[1]) for m in ("oracle", "grid"))
        assert abs(grid["systemic_pd"] - oracle["systemic_pd"]) <= 1e-7

    def test_critical_n_reports_none_in_band(self, capsys):
        code, out, _ = run(
            capsys, "critical-n", "--f-normal", "0.25", "--f-abnormal", "0.5",
            "--N", "10", "--chi", "9.0",
        )
        assert code == 0
        assert "none" in out

    def test_mu_scan(self, capsys):
        code, out, _ = run(
            capsys, "mu-scan", "--f-normal", "0.1", "--f-abnormal", "0.25",
            "--N", "10", "--chi", "0.4", "--mu-values=-0.2,0,0.2", "--output", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["critical_n[mu=0.0]"] == "9"
        assert doc["critical_n[mu=-0.2]"] == "none"

    def test_grid_method_flag(self, capsys):
        code, out, _ = run(
            capsys, "spd", "--f", "0.25", "--n", "5", "--N", "10", "--chi", "1.6",
            "--method", "grid", "--output", "json",
        )
        assert code == 0
        assert json.loads(out)["systemic_pd"] == pytest.approx(0.0284762758, abs=1e-3)


class TestErrors:
    def test_domain_error_exits_2(self, capsys):
        code, _, err = run(capsys, "pd", "--f", "1.5", "--n", "5", "--N", "10", "--chi", "1.6")
        assert code == 2
        assert "error" in err

    def test_missing_market_exits_2(self, capsys):
        code, _, err = run(capsys, "pd", "--f", "0.5", "--n", "5", "--N", "10")
        assert code == 2
        assert "chi" in err or "sigma" in err

    def test_both_chi_and_sigma_exits_2(self, capsys):
        code, _, _ = run(
            capsys, "pd", "--f", "0.5", "--n", "5", "--N", "10",
            "--chi", "1.6", "--sigma", "0.5",
        )
        assert code == 2

    # a command that raises stands in for the failure, so no real large
    # allocation is made: whether one fails depends on the host's overcommit
    @pytest.mark.parametrize(
        "error",
        [OverflowError("math range error"), MemoryError("Unable to allocate 745. GiB for an array")],
        ids=["overflow", "memory"],
    )
    def test_numerical_failure_exits_3(self, capsys, monkeypatch, error):
        def fail(p):
            raise error

        monkeypatch.setitem(COMMANDS, "critical-n", COMMANDS["critical-n"]._replace(run=fail))
        code, out, err = run(
            capsys, "critical-n", "--f-normal", "0.1", "--f-abnormal", "0.25", "--N", "10", "--chi", "1.6"
        )
        assert (code, out) == (3, "")
        assert err == f"numerical failure: {error}\n"

    @pytest.mark.parametrize("argv", [
        ("pd", "--f", "0.25", "--n", "5", "--N", "10", "--chi", "5e-324"),
        ("spd", "--f", "0.25", "--n", "5", "--N", "10", "--chi", "5e-324", "--method", "grid"),
        ("spd", "--f", "0.25", "--n", "5", "--N", "10", "--chi", "5e-324", "--method", "oracle"),
        ("sweep", "--f-normal", "0.1", "--f-abnormal", "0.25", "--N-values", "10", "--chi-points", "2",
         "--mu", "1e308", "--out", "unwritten.csv"),
        ("simulate", "--f", "0.25", "--n", "1", "--N", "1", "--chi", "1e308", "--overlap", "fixed:1",
         "--paths", "10", "--steps", "1"),
    ], ids=["pd-chi-over-n-is-0", "spd-grid", "spd-oracle", "sweep-z-overflows", "simulate-sigma-overflows"])
    def test_non_finite_z_or_variance_exits_2(self, capsys, tmp_path, monkeypatch, argv):
        # one error line on every route; a RuntimeWarning would fail the
        # test, since the suite turns warnings into errors
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert ("sigma^2" if argv[0] == "simulate" else "z is not finite") in err

    def test_book_larger_than_market_is_one_error_line(self, capsys):
        spd = run(capsys, "spd", "--f", "0.25", "--n", "11", "--N", "10", "--chi", "1.6")
        simulate = run(capsys, "simulate", "--f", "0.25", "--n", "11", "--N", "10", "--chi", "1.6", "--paths", "10")
        assert spd == simulate == (2, "", "error: diversification 11 exceeds market size 10\n")

    @pytest.mark.parametrize("chi, message", [
        ("0", "an analytic cell needs chi > 0 (sigma > 0 and T > 0), got chi=0.0"),
        ("5e-324", "z is not finite at f=0.25, n=4, chi=5e-324, shift=0.0"),
    ], ids=["chi-0", "chi-over-n-is-0"])
    def test_simulate_refuses_a_market_before_it_draws(self, capsys, tmp_path, monkeypatch, chi, message):
        # the analytic targets come first: no path is drawn and no dump is written
        def draw(*args, **kwargs):
            raise AssertionError("a path was drawn")

        monkeypatch.setattr(levdiv.cli, "estimate_default_probs", draw)
        dump = tmp_path / "t.csv"
        code, out, err = run(
            capsys, "simulate", "--f", "0.25", "--n", "4", "--N", "8", "--chi", chi, "--overlap", "fixed:2",
            "--paths", "200000", "--steps", "250", "--dump-terminals", str(dump),
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not dump.exists()

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pd", "--f", "not-a-number", "--n", "5", "--N", "10", "--chi", "1.6"])
        assert exc.value.code == 2

    def test_unwritable_out_nonzero(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--f-normal", "0.1", "--f-abnormal", "0.25",
            "--N-values", "4", "--chi-points", "2", "--out", "/nonexistent/dir/x.csv",
        )
        assert code != 0
        assert "error" in err


class TestMalformedInput:
    def test_invalid_json_config_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"f": 0.25,')
        code, _, err = run(capsys, "pd", *PD_ARGS, "--config", str(cfg))
        assert code == 2
        assert err.startswith("error:") and "not valid JSON" in err

    def test_config_value_of_wrong_type_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"f": 0.25, "n": 5, "N": "ten", "chi": 1.6}))
        code, _, err = run(capsys, "pd", "--config", str(cfg))
        assert code == 2
        assert err.startswith("error:") and "'ten'" in err

    def test_empty_config_list_is_usage_error(self, capsys, tmp_path):
        # a scan over no drift prints no level: a usage error, not a success
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"mu_values": []}))
        argv = ("mu-scan", "--f-normal", "0.1", "--f-abnormal", "0.25", "--N", "20", "--chi", "1.6")
        code, out, err = run(capsys, *argv, "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "at least one market (chi/mu value)" in err

    def test_malformed_int_list_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "sweep", "--f-normal", "0.1", "--f-abnormal", "0.25",
                "--N-values", "10,abc", "--out", "unused.csv",
            ])
        assert exc.value.code == 2
        assert "--N-values" in capsys.readouterr().err

    def test_malformed_float_list_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "mu-scan", "--f-normal", "0.1", "--f-abnormal", "0.25",
                "--N", "10", "--chi", "0.4", "--mu-values=a,b",
            ])
        assert exc.value.code == 2
        assert "--mu-values" in capsys.readouterr().err

    def test_config_value_outside_choices_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"method": "exact"}))
        code, _, err = run(capsys, "spd", *PD_ARGS, "--config", str(cfg))
        assert code == 2
        assert "method" in err

    @pytest.mark.parametrize("eps", ["nan", "-1"])
    def test_non_finite_or_negative_eps_safe_exits_2(self, capsys, eps):
        code, _, err = run(
            capsys, "critical-n", "--f-normal", "0.1", "--f-abnormal", "0.25",
            "--N", "10", "--chi", "0.4", "--eps-safe", eps,
        )
        assert code == 2
        assert "epsilon_safe" in err

    @pytest.mark.parametrize("command", ["critical-n", "mu-scan"])
    @pytest.mark.parametrize("eps", ["1e-6", "nan"])
    def test_zero_sigma_exits_2_before_eps_is_read(self, capsys, command, eps):
        code, out, err = run(
            capsys, command, "--f-normal", "0.1", "--f-abnormal", "0.25",
            "--N", "10", "--sigma", "0", "--T", "1", "--eps-safe", eps,
        )
        assert (code, out) == (2, "")
        assert err == "error: an analytic cell needs chi > 0 (sigma > 0 and T > 0), got chi=0.0\n"


def _parse(capsys, parse, argv):
    """Exit code, stdout and stderr of parsing argv, and the parsed flags
    when it parses."""
    try:
        flags = vars(parse(argv))
    except SystemExit as exc:
        code, flags = exc.code, None
    else:
        code = 0
    out = capsys.readouterr()
    return code, out.out, out.err, flags


def _typed_flag(name):
    return next(flag for flag in COMMANDS[name].flags if FLAGS[flag].type is not str)


PARSER_CASES = [
    *((name, "-h") for name in COMMANDS),
    *((name, "--bogus", "1") for name in COMMANDS),
    *((name, "--" + _typed_flag(name).replace("_", "-"), "x") for name in COMMANDS),
    ("-h",),
    (),
    ("nosuch",),
    ("swe",),
    ("table1", "--out", "sweep"),
    ("pd", *PD_ARGS, "sweep"),
]


class TestParserOfTheNamedCommand:
    """A parser built for its argv registers only the named commands'
    flags; every help text, usage error and parse equals the full parser's."""

    @pytest.mark.parametrize("argv", PARSER_CASES, ids=" ".join)
    def test_same_text_and_exit_as_full_parser(self, capsys, argv):
        argv = list(argv)
        full = _parse(capsys, build_parser().parse_args, argv)
        assert _parse(capsys, build_parser(argv).parse_args, argv) == full
        assert full[1] or full[2] or full[3]  # help, an error or a parse

    @pytest.mark.parametrize("argv", [("sweep", "-h"), ("spd", "--bogus", "1"), ("-h",), (), ("nosuch",)])
    def test_main_reads_sys_argv(self, capsys, monkeypatch, argv):
        full = _parse(capsys, build_parser().parse_args, list(argv))
        monkeypatch.setattr(sys, "argv", ["levdiv", *argv])
        assert _parse(capsys, lambda _: main(), None) == full

    def test_only_named_commands_get_flags(self):
        def flags(parser):
            sub = next(a for a in parser._actions if a.dest == "command")
            return {name: len(p._actions) for name, p in sub.choices.items()}

        full = flags(build_parser())
        assert flags(build_parser(["table1", "--out", "sweep"])) == {
            name: full[name] if name in ("table1", "sweep") else 1 for name in COMMANDS
        }


class TestFlagsPerCommand:
    @pytest.mark.parametrize(
        "argv",
        [
            ("pd", *PD_ARGS, "--method", "grid"),
            ("simulate", *PD_ARGS, "--method", "oracle"),
            ("table1", "--output", "csv"),
            # the grid's discretization is DEFAULT_GRID, not a flag of any command
            *((command, flag) for command in COMMANDS for flag in ("--grid-cells=400", "--grid-range=-6:6")),
        ],
    )
    def test_flag_the_command_does_not_read_is_usage_error(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2

    def test_config_sets_output_and_out(self, capsys, tmp_path):
        out_path = tmp_path / "pd.json"
        cfg = tmp_path / "run.json"
        # "paths" is not a pd flag: unknown keys are ignored, so one file
        # can serve several commands
        cfg.write_text(json.dumps({"output": "json", "out": str(out_path), "paths": 10}))
        code, out, _ = run(capsys, "pd", *PD_ARGS, "--config", str(cfg))
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text())["pd"] == pytest.approx(0.0912875707, abs=1e-9)

    def test_config_sets_dump_terminals(self, capsys, tmp_path):
        dump = tmp_path / "terminals.csv"
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"dump_terminals": str(dump), "paths": 5, "steps": 2}))
        code, out, _ = run(capsys, "simulate", *PD_ARGS, "--overlap", "fixed:1", "--config", str(cfg))
        assert code == 0
        assert f"wrote {dump}" in out
        assert len(dump.read_text().splitlines()) == 1 + 5


class TestConfigPrecedence:
    def test_flags_beat_config_beat_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"f": 0.25, "n": 5, "N": 10, "chi": 1.6}))
        code, out, _ = run(capsys, "pd", "--config", str(cfg), "--output", "json")
        assert code == 0
        assert json.loads(out)["f"] == 0.25
        code, out, _ = run(
            capsys, "pd", "--config", str(cfg), "--f", "0.5", "--output", "json"
        )
        assert code == 0
        assert json.loads(out)["f"] == 0.5

    def test_json_array_list_matches_comma_flag(self, capsys, tmp_path):
        cfg, from_config, from_flag = tmp_path / "run.json", tmp_path / "a.csv", tmp_path / "b.csv"
        cfg.write_text(json.dumps({"N_values": [20, 5, 10], "out": str(from_config)}))
        sweep = ("sweep", "--f-normal", "0.1", "--f-abnormal", "0.25", "--chi-points", "3")
        code, config_stdout, _ = run(capsys, *sweep, "--config", str(cfg))
        assert code == 0
        code, flag_stdout, _ = run(capsys, *sweep, "--N-values", "20,5,10", "--out", str(from_flag))
        assert code == 0
        assert from_config.read_bytes() == from_flag.read_bytes()
        assert config_stdout.replace(str(from_config), "") == flag_stdout.replace(str(from_flag), "")

    def test_integral_float_is_an_int(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"f": 0.25, "n": 5.0, "N": 1e1, "chi": 1.6}')
        code, out, _ = run(capsys, "pd", "--config", str(cfg), "--output", "json")
        assert code == 0
        assert json.loads(out)["pd"] == pytest.approx(0.0912875707, abs=1e-9)

    MARKET = ("--f-normal", "0.1", "--f-abnormal", "0.25")

    @pytest.mark.parametrize(
        "argv, values",
        [
            (("pd", "--f", "0.25", "--n", "5", "--chi", "1.6"), {"N": 10.9}),
            (("pd", "--f", "0.25", "--n", "5", "--chi", "1.6"), {"N": True}),
            (("pd", "--f", "0.25", "--N", "10", "--chi", "1.6"), {"n": -0.5}),
            (("pd", "--n", "5", "--N", "10", "--chi", "1.6"), {"f": False}),
            (("sweep", *MARKET, "--out", "unused.csv"), {"N_values": [10, True]}),
            (("sweep", *MARKET, "--out", "unused.csv"), {"N_values": [10.5]}),
            (("mu-scan", *MARKET, "--N", "10", "--chi", "0.4"), {"mu_values": [0.0, True]}),
        ],
        ids=["fraction", "bool", "negative-fraction", "bool-float", "bool-in-list", "fraction-in-list", "bool-in-float-list"],
    )
    def test_non_number_config_value_exits_2(self, capsys, tmp_path, argv, values):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(values))
        code, out, err = run(capsys, *argv, "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith("error: config value ")


class TestSweepCommand:
    def test_csv_row_count_and_summary(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, out, _ = run(
            capsys, "sweep", "--f-normal", "0.1", "--f-abnormal", "0.25",
            "--N-values", "4,6", "--chi-points", "10", "--out", str(out_path),
        )
        assert code == 0
        rows = list(csv.reader(out_path.read_text().splitlines()))
        assert len(rows) == 1 + (4 + 6) * 10
        assert "risky fraction" in out

    def test_json_output_parses(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.json"
        code, _, _ = run(
            capsys, "sweep", "--f-normal", "0.1", "--f-abnormal", "0.25",
            "--N-values", "4", "--chi-points", "3", "--output", "json",
            "--out", str(out_path),
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert set(doc["markets"]) == {"4"}

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(
                capsys, "sweep", "--f-normal", "0.1", "--f-abnormal", "0.25",
                "--N-values", "5", "--chi-points", "8", "--out", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()


class TestTable1Command:
    def test_layout_and_reference_cells(self, capsys, tmp_path):
        out_path = tmp_path / "table1.csv"
        code, out, _ = run(capsys, "table1", "--out", str(out_path))
        assert code == 0
        body = [line for line in out.splitlines() if line.startswith("{")]
        assert len(body) == 6  # two scenarios x three chi rows
        rows = list(csv.reader(out_path.read_text().splitlines()))
        # Table 1 layout: one row per N, a value and a diff column per
        # (scenario, chi) pair
        assert rows[0][0] == "N"
        assert len(rows) == 1 + 4
        assert len(rows[0]) == 1 + 6 + 6
        assert rows[0][1] == "fn0.1_fa0.25_chi1.6"
        for row in rows[1:]:
            size = int(row[0])
            for got in row[1:7]:
                assert got == "none" or 1 <= int(got) <= size

    def test_reference_values_match_source_table(self):
        ref = PUBLISHED_CRITICAL_N
        assert ref[(0.10, 0.25)][1.6] == (3, 4, 5, 5)
        assert ref[(0.25, 0.50)][8.9] == (7, 12, 17, 22)

    def test_loose_epsilon_gives_small_levels(self, capsys):
        # with a threshold well above the achievable differentials the whole
        # suffix is safe everywhere
        code, out, _ = run(capsys, "table1", "--eps-safe", "0.99")
        assert code == 0
        computed = compute_table1(epsilon_safe=0.99)
        assert all(v == 1 for by_chi in computed.values() for vs in by_chi.values() for v in vs)


class TestSimulateCommand:
    ARGS = (
        "simulate", "--f", "0.25", "--n", "2", "--N", "4", "--chi", "1.6",
        "--paths", "400", "--steps", "25", "--seed", "7", "--overlap", "fixed:1",
    )

    def test_identical_reruns(self, capsys):
        code1, out1, _ = run(capsys, *self.ARGS, "--output", "json")
        code2, out2, _ = run(capsys, *self.ARGS, "--output", "json")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_comparison_columns(self, capsys):
        code, out, _ = run(capsys, *self.ARGS, "--output", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["target_correlation"] == 0.5
        assert 0 <= doc["pd1_hat"] <= 1
        assert doc["analytic_pd"] == pytest.approx(0.32150071778, abs=1e-8)
        assert doc["pd1_se_multiple"] >= 0
        # with a fixed overlap the mixture over K is the single Phi2 value
        assert doc["analytic_joint_pd_mixture"] == doc["analytic_joint_pd"]

    def test_random_overlap_reports_both_joint_targets(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--f", "0.25", "--n", "4", "--N", "8", "--chi", "1.6",
            "--paths", "200", "--steps", "10", "--seed", "3", "--overlap", "random", "--output", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["analytic_joint_pd"] == pytest.approx(0.049681, abs=1e-6)
        assert doc["analytic_joint_pd_mixture"] == pytest.approx(0.051975, abs=1e-6)
        assert doc["joint_se_multiple_mixture"] == pytest.approx(
            abs(doc["joint_pd_hat"] - doc["analytic_joint_pd_mixture"]) / doc["se_joint"]
        )

    def test_single_path_determinism(self, capsys):
        args = (
            "simulate", "--f", "0.25", "--n", "2", "--N", "4", "--chi", "1.6",
            "--paths", "1", "--steps", "10", "--seed", "7", "--overlap", "random",
            "--output", "json",
        )
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    @pytest.mark.parametrize("paths, steps", [(20, 5), (1, 1)])
    def test_json_writes_non_finite_as_null(self, capsys, paths, steps):
        # no path defaults, so every SE is 0 and its multiples are infinite;
        # one step of one path leaves no variance for the correlation
        argv = (
            "simulate", "--f", "0.1", "--n", "4", "--N", "8", "--chi", "0.01", "--overlap", "fixed:2",
            "--paths", str(paths), "--steps", str(steps),
        )
        code, out, _ = run(capsys, *argv, "--output", "json")
        assert code == 0

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        doc = json.loads(out, parse_constant=refuse)
        assert doc["pd1_hat"] == doc["se_pd1"] == 0.0
        assert doc["pd1_se_multiple"] is None and doc["joint_se_multiple_mixture"] is None
        assert (doc["realized_correlation"] is None) == (steps == 1)
        # the pretty and csv modes keep Python's inf and nan
        assert "pd1_se_multiple            inf\n" in run(capsys, *argv)[1]
        assert ",inf," in run(capsys, *argv, "--output", "csv")[1]

    def test_underflowed_book_returns_give_finite_fields(self, capsys):
        # at sigma^2 = 4000 every gross return underflows to 0; an exact match
        # of estimate and target is 0 SEs off, not infinitely many
        code, out, _ = run(
            capsys, "simulate", "--f", "0.25", "--n", "1", "--N", "1", "--chi", "2000", "--overlap", "fixed:1",
            "--paths", "10", "--steps", "1",
        )
        assert code == 0
        fields = dict(line.split() for line in out.splitlines())
        assert (fields["pd1_hat"], fields["analytic_pd"], fields["pd1_se_multiple"]) == ("1.0", "1.0", "0.0")
        assert math.isfinite(float(fields["realized_correlation"]))

    def test_terminal_dump(self, capsys, tmp_path):
        dump = tmp_path / "terminals.csv"
        code, _, _ = run(capsys, *self.ARGS, "--dump-terminals", str(dump))
        assert code == 0
        rows = list(csv.reader(dump.read_text().splitlines()))
        assert rows[0] == ["path", "terminal_assets_bank1", "terminal_assets_bank2"]
        assert len(rows) == 1 + 400
        assert float(rows[1][1]) > 0


def test_readme_examples_run(capsys, tmp_path, monkeypatch):
    """Every command of README's "Command line" block exits 0."""
    block = README.read_text().split("## Command line", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("levdiv ")]
    assert {argv[0] for argv in commands} == set(COMMANDS)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv
