import csv
import os
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from combust import analysis, cli, timestepper
from combust.cli import ConfigError, main, parse_config
from combust.mncp import SolverOptions
from combust.model import (
    BASE_PARAMS,
    TYPICAL_RESERVOIR,
    DimensionalParams,
    DimensionlessParams,
)
from combust.timestepper import MNCP, NCP


def write_config(tmp_path, text, name="case.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def dimensional_block(**values):
    """The dimensional block of TYPICAL_RESERVOIR, with values replacing keys."""
    constants = {**asdict(TYPICAL_RESERVOIR), **values}
    return "\n".join(f"{key} = {value!r}" for key, value in constants.items())


DIMENSIONAL_BLOCK = dimensional_block()


def readme_block(first_line):
    """The ```ini block of README.md that begins with first_line."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    return next(block.split("```")[0] for block in readme.read_text().split("```ini\n")[1:]
                if block.startswith(first_line))


class TestParseConfig:
    def test_empty_file_gives_base_case(self, tmp_path):
        config = parse_config(write_config(tmp_path, ""))
        assert config.params == BASE_PARAMS
        assert config.grid.length == 0.05
        assert config.grid.m == 50
        assert config.grid.k == 1e-5
        assert config.grid.n_steps == 1000
        assert config.method == MNCP
        assert config.record_times == cli.DEFAULT_RECORD_TIMES
        assert config.solver_opts.tol == 1e-8

    def test_comments_and_overrides(self, tmp_path):
        text = """
        # custom coarse setup
        m_subintervals = 20
        time_step = 2e-5    # larger step
        t_end = 2e-4
        method = ncp
        record_times = 0.0, 1e-4, 2e-4
        tol = 1e-10
        """
        config = parse_config(write_config(tmp_path, text))
        assert config.grid.m == 20
        assert config.grid.k == 2e-5
        assert config.grid.n_steps == 10
        assert config.method == NCP
        assert config.record_times == (0.0, 1e-4, 2e-4)
        assert config.solver_opts.tol == 1e-10

    def test_max_iter_is_an_integer(self, tmp_path):
        config = parse_config(write_config(tmp_path, "max_iter = 5\n"))
        assert config.solver_opts.max_iter == 5
        with pytest.raises(ConfigError, match="integer"):
            parse_config(write_config(tmp_path, "max_iter = 2.5\n"))

    def test_dimensionless_override(self, tmp_path):
        config = parse_config(write_config(tmp_path, "e_act = 90.0\n"))
        assert config.params.e_act == 90.0
        assert config.params.pe_t == BASE_PARAMS.pe_t

    def test_dimensional_block(self, tmp_path):
        config = parse_config(write_config(tmp_path, DIMENSIONAL_BLOCK))
        p = config.params
        assert p.beta == pytest.approx(BASE_PARAMS.beta, rel=1e-12)
        assert p.e_act == pytest.approx(BASE_PARAMS.e_act, rel=0.01)
        assert p.theta0 == pytest.approx(BASE_PARAMS.theta0, rel=0.01)
        assert p.pe_t == pytest.approx(BASE_PARAMS.pe_t, rel=0.01)
        assert p.u == pytest.approx(BASE_PARAMS.u, rel=0.01)

    def test_blocks_mutually_exclusive(self, tmp_path):
        text = DIMENSIONAL_BLOCK + "\npe_t = 1406\n"
        with pytest.raises(ConfigError, match="mutually exclusive"):
            parse_config(write_config(tmp_path, text))

    def test_incomplete_dimensional_block(self, tmp_path):
        with pytest.raises(ConfigError, match="incomplete"):
            parse_config(write_config(tmp_path, "t_res = 300.0\n"))

    @pytest.mark.parametrize("text, message", [
        ("x_star = 1.0\nt_res = 300.0\n", "line 1: dimensional block incomplete"),
        ("u = 3.0\nx_star = 1.0\nr_gas = 8.0\n", "line 2: dimensionless keys"),
    ])
    def test_block_error_names_first_dimensional_line(self, tmp_path, text, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(write_config(tmp_path, text))

    def test_unknown_key_reports_line(self, tmp_path):
        text = "m_subintervals = 10\nbogus_key = 3\n"
        with pytest.raises(ConfigError, match="line 2"):
            parse_config(write_config(tmp_path, text))

    def test_bad_number_reports_line(self, tmp_path):
        text = "# header\n\ntime_step = fast\n"
        with pytest.raises(ConfigError, match="line 3"):
            parse_config(write_config(tmp_path, text))

    @pytest.mark.parametrize("value", ["", " , "])
    def test_empty_record_times_reports_line(self, tmp_path, value):
        # a run with no record time would write a header-only CSV
        text = f"# header\nrecord_times ={value}\n"
        with pytest.raises(ConfigError, match="^line 2: record_times lists no time$"):
            parse_config(write_config(tmp_path, text))

    def test_duplicate_key(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(write_config(tmp_path, "tol = 1e-8\ntol = 1e-9\n"))

    def test_bad_method(self, tmp_path):
        with pytest.raises(ConfigError, match="method"):
            parse_config(write_config(tmp_path, "method = simplex\n"))

    def test_keys_are_grid_keys_and_dataclass_fields(self):
        grid_keys = {"domain_length", "m_subintervals", "time_step", "t_end", "record_times", "method"}
        field_names = {f.name for cls in (SolverOptions, DimensionlessParams, DimensionalParams)
                       for f in fields(cls)}
        assert set(cli._CONVERTERS) == grid_keys | field_names
        assert len(cli._CONVERTERS) == 24

    # a value other than the default for each key outside the parameter blocks
    NEW_VALUES = {"domain_length": "0.1", "m_subintervals": "20", "time_step": "2e-5",
                  "t_end": "0.02", "record_times": "0.0, 0.005", "method": "ncp",
                  "tol": "1e-9", "max_iter": "17"}

    @pytest.mark.parametrize("key", list(cli._CONVERTERS))
    def test_every_key_changes_the_configuration(self, tmp_path, key):
        # a key that nothing reads would be accepted, even required, and change nothing
        typical = asdict(TYPICAL_RESERVOIR)
        if key in typical:
            before, after = DIMENSIONAL_BLOCK, dimensional_block(**{key: 1.5 * typical[key]})
        elif key in self.NEW_VALUES:
            before, after = "", f"{key} = {self.NEW_VALUES[key]}\n"
        else:
            before, after = "", f"{key} = {1.5 * getattr(BASE_PARAMS, key)!r}\n"
        assert (parse_config(write_config(tmp_path, after))
                != parse_config(write_config(tmp_path, before, name="before.cfg")))

    def test_every_solver_option_round_trips(self, tmp_path):
        given = {"tol": 1e-9, "max_iter": 17}
        defaults = SolverOptions()
        assert set(given) == {f.name for f in fields(SolverOptions)}
        assert all(value != getattr(defaults, key) for key, value in given.items())
        text = "".join(f"{key} = {value!r}\n" for key, value in given.items())
        opts = parse_config(write_config(tmp_path, text)).solver_opts
        for key, value in given.items():
            assert getattr(opts, key) == value
            assert type(getattr(opts, key)) is type(value)

    def test_first_bad_line_is_reported(self, tmp_path):
        with pytest.raises(ConfigError, match="^line 1: cannot parse number 'x' for key tol$"):
            parse_config(write_config(tmp_path, "tol = x\nm_subintervals = y\n"))

    def test_first_bad_dimensional_line_for_every_hash_seed(self, tmp_path):
        # t_res on line 1 and u_inj on a later line are both malformed
        lines = DIMENSIONAL_BLOCK.splitlines()
        assert lines[0].startswith("t_res =")
        lines[0] = "t_res = warm"
        lines[[line.split(" =")[0] for line in lines].index("u_inj")] = "u_inj = slow"
        cfg = write_config(tmp_path, "\n".join(lines) + "\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        for seed in ("1", "5"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-m", "combust.cli", "run", "--config", cfg,
                 "--out", str(tmp_path / "o.csv")],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert proc.returncode == 1
            assert "configuration error: line 1: cannot parse number 'warm' for key t_res" in proc.stderr

    @pytest.mark.parametrize("with_file", [False, True])
    def test_flags_equal_file_keys(self, tmp_path, with_file):
        base = "time_step = 1e-5\nrecord_times = 0.0, 3e-5\ntol = 1e-9\n" if with_file else ""
        flags = write_config(tmp_path, base + "m_subintervals = 8\n", name="flags.cfg")
        keys = write_config(tmp_path, base + "method = ncp\nm_subintervals = 6\nt_end = 3e-5\n",
                            name="keys.cfg")
        # the method is case-insensitive as a flag, as it is as a key
        for method in ("ncp", "NCP"):
            argv = ["run", "--out", "o.csv", "--method", method, "--m", "6", "--tend", "3e-5"]
            if with_file:
                argv += ["--config", flags]
            config = cli._load_config(cli._build_parser().parse_args(argv))
            assert config == parse_config(keys)
            assert (config.grid.m, config.grid.n_steps, config.method) == (6, 3, NCP)


class TestTimeToStep:
    # k = 2**-10 and t_end = (j + 1/2) k are exact in binary: every t_end is a tie
    K = 2.0**-10

    @pytest.mark.parametrize("j", range(21))
    def test_t_end_is_the_last_step(self, tmp_path, j):
        t_end = (j + 0.5) * self.K
        config = parse_config(write_config(tmp_path, f"time_step = {self.K!r}\nt_end = {t_end!r}\n"))
        assert config.grid.n_steps == j
        assert timestepper.snapshot_indices(config.grid, (t_end,)) == {config.grid.n_steps}

    def test_run_at_a_tie_writes_its_final_state(self, tmp_path):
        t_end = 11.5 * self.K
        config = parse_config(write_config(
            tmp_path, f"m_subintervals = 10\ntime_step = {self.K!r}\nt_end = {t_end!r}\n"
                      f"record_times = 0.0, {t_end!r}\n"))
        series = timestepper.run(config)
        assert config.grid.n_steps == 11
        assert [state.n for _, state in series.snapshots] == [0, config.grid.n_steps]

    def test_at_most_2_53_steps(self, tmp_path):
        # float64 step indices are exact up to 2**53: one step more is refused,
        # as nearest_step could not place a time beyond it
        top = 2.0**53 * self.K
        config = parse_config(write_config(tmp_path, f"time_step = {self.K!r}\nt_end = {top!r}\n"))
        assert config.grid.n_steps == 2**53
        beyond = float(np.nextafter(top, np.inf))
        with pytest.raises(ConfigError, match=r"^line 2: t_end / time_step = .* exceeds 2\*\*53 steps$"):
            parse_config(write_config(tmp_path, f"time_step = {self.K!r}\nt_end = {beyond!r}\n"))


SMALL_RUN = """
m_subintervals = 8
time_step = 1e-5
t_end = 5e-5
record_times = 0.0, 5e-5
"""


class TestMain:
    def test_run_writes_profiles(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_RUN)
        out = str(tmp_path / "profiles.csv")
        assert main(["run", "--config", cfg, "--out", out]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["time", "x", "theta", "eta"]
        # two snapshots, each with boundary node plus 8 interior nodes
        assert len(rows) == 1 + 2 * 9
        # boundary row of the first snapshot
        assert [float(v) for v in rows[1]] == [0.0, 0.0, 0.0, 1.0]
        # every snapshot's boundary row holds the fixed injection values
        assert [[float(v) for v in row] for row in rows[1::9]] == [
            [t, 0.0, 0.0, 1.0] for t in (0.0, 5e-5)]
        # values survive a text round trip bit-exactly
        for row in rows[1:]:
            for tok in row:
                assert float(tok) == float(repr(float(tok)))

    def test_snapshot_time_is_written_without_the_products_rounding(self, tmp_path):
        # 3 * 1e-5 is 3.0000000000000004e-05 in binary; the CSV writes 3e-05
        cfg = write_config(tmp_path, "m_subintervals = 4\nt_end = 3e-5\n"
                                     "record_times = -0.5, 2e-5, 1.0\n")
        out = tmp_path / "profiles.csv"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            times = [row[0] for row in csv.reader(fh)][1:]
        assert times == ["0.0"] * 5 + ["2e-05"] * 5 + ["3e-05"] * 5

    def test_csv_rows_end_in_lf(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_RUN)
        out = tmp_path / "profiles.csv"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        data = out.read_bytes()
        assert b"\r" not in data
        assert data.count(b"\n") == 1 + 2 * 9

    def test_run_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_RUN)
        out = str(tmp_path / "p.csv")
        assert main(["run", "--config", cfg, "--out", out, "--method", "ncp", "--m", "6"]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 2 * 7

    def test_compare_output(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_RUN)
        out = str(tmp_path / "diff.csv")
        assert main(["compare", "--config", cfg, "--out", out]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["time", "theta_max", "theta_l2", "eta_max", "eta_l2"]
        assert len(rows) == 3
        assert float(rows[2][1]) <= 1e-6

    def test_refine_output(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_RUN)
        out = str(tmp_path / "errors.csv")
        assert main(["refine", "--config", cfg, "--out", out]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "E_h", "E_h2", "E_h4", "ratio1", "ratio2", "variable"]
        # one positive record time, two variables
        assert len(rows) == 3
        assert {row[6] for row in rows[1:]} == {"theta", "eta"}

    def test_bench_output(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_RUN)
        out = str(tmp_path / "bench.csv")
        assert main(["bench", "--config", cfg, "--out", out]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "wall_time", "iter", "bl_t", "s_evals", "js_evals", "method"]
        assert {row[6] for row in rows[1:]} == {"mncp", "ncp"}
        for row in rows[1:]:
            assert int(row[2]) >= 1
            assert 0.0 < float(row[3]) <= 1.0

    def test_plot_script(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_RUN)
        out = str(tmp_path / "profiles.csv")
        script = str(tmp_path / "plots.gp")
        assert main(["run", "--config", cfg, "--out", out, "--plot-script", script]) == 0
        text = Path(script).read_text()
        assert out in text
        assert "plot" in text

    def test_refine_plot_script_draws_error_curves(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_RUN)
        out = str(tmp_path / "errors.csv")
        script = str(tmp_path / "eplots.gp")
        assert main(["refine", "--config", cfg, "--out", out, "--plot-script", script]) == 0
        text = Path(script).read_text()
        assert f"'{out}' using 1:2 with linespoints title 'E_h'" in text
        assert "title 'E_h/4'" in text
        assert "multiplot" not in text
        assert "ylabel 'theta'" not in text

    @pytest.mark.parametrize("command", ["compare", "bench"])
    def test_plot_script_only_on_run_and_refine(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, SMALL_RUN)
        script = tmp_path / "plots.gp"
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o.csv"),
                     "--plot-script", str(script)]) == 1
        assert "usage:" in capsys.readouterr().err
        assert not script.exists()

    @pytest.mark.parametrize("text, m, peclet", [
        ("", "50", "5.29"),                       # the paper's base case
        ("domain_length = 5\n", "100", "264"),     # the igniting case
        ("", "400", None),                        # u h Pe_t = 0.66
    ])
    def test_run_warns_on_cell_peclet_above_2(self, tmp_path, capsys, text, m, peclet):
        cfg = write_config(tmp_path, text + "t_end = 1e-5\nrecord_times = 1e-5\n")
        out = str(tmp_path / "p.csv")
        assert main(["run", "--config", cfg, "--out", out, "--m", m]) == 0
        err = capsys.readouterr().err
        if peclet is None:
            assert "Peclet" not in err
        else:
            assert f"warning: cell Peclet number u h Pe_t = {peclet} exceeds 2" in err

    @pytest.mark.parametrize("command", ["compare", "bench"])
    def test_method_flag_only_on_run_and_refine(self, tmp_path, capsys, command):
        # compare and bench run both methods, so a --method would be ignored
        assert main([command, "--out", str(tmp_path / "o.csv"), "--method", "ncp"]) == 1
        assert "unrecognized arguments: --method ncp" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("command", ["compare", "refine", "bench"])
    @pytest.mark.parametrize("text", ["record_times = 0.0\n", "t_end = 0\n"],
                             ids=["step-0-record-time", "no-steps"])
    def test_no_snapshot_after_step_0_exit_code(self, tmp_path, capsys, monkeypatch, command, text):
        # every snapshot the three commands compare comes after step 0: with none,
        # the command stops before its first run
        def no_run(*args):
            raise AssertionError("the run started")

        monkeypatch.setattr(analysis, "run", no_run)
        cfg = write_config(tmp_path, text)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"combust: configuration error: {command} needs a snapshot after step 0, ")
        assert not (tmp_path / "o.csv").exists()

    def test_usage_error_exit_code(self, capsys):
        assert main(["run"]) == 1
        assert "usage:" in capsys.readouterr().err

    def test_help_exit_code(self, capsys):
        assert main(["run", "--help"]) == 0
        assert "--plot-script" in capsys.readouterr().out

    @pytest.mark.parametrize("key, value", [("c_m", "2e6"), ("c_g", "27.42"), ("pressure", "101325")])
    def test_reservoir_value_outside_the_mapping_is_not_a_key(self, tmp_path, capsys, key, value):
        # the paper's reservoir table gives these, but nondimensionalize reads none of them
        cfg = write_config(tmp_path, f"{key} = {value}\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 1
        assert capsys.readouterr().err == f"combust: configuration error: line 1: unknown key '{key}'\n"

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bogus = 1\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 1
        assert "configuration error" in capsys.readouterr().err

    def test_empty_record_times_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "t_end = 1e-5\nrecord_times =\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 1
        assert capsys.readouterr().err == ("combust: configuration error: line 2: "
                                           "record_times lists no time\n")
        assert not (tmp_path / "o.csv").exists()

    def test_line_without_equals_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "m_subintervals 20\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 1
        assert capsys.readouterr().err == ("combust: configuration error: line 1: expected "
                                           "'key = value', got 'm_subintervals 20'\n")

    def test_negative_tend_exit_code(self, tmp_path, capsys):
        assert main(["run", "--tend", "-1", "--out", str(tmp_path / "o.csv")]) == 1
        assert capsys.readouterr().err == "combust: configuration error: t_end must be nonnegative, got -1.0\n"
        assert not (tmp_path / "o.csv").exists()

    def test_negative_tend_in_file_names_its_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "m_subintervals = 8\nt_end = -0.5\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 1
        assert capsys.readouterr().err == ("combust: configuration error: line 2: t_end must be "
                                           "nonnegative, got -0.5\n")

    @pytest.mark.parametrize("line", [
        "eps_interior = 0", "eps_interior = -1e-6", "max_iter = 0",
        "eta_armijo = -5", "eta_armijo = 1", "max_restore = -1", "tol = 0",
    ])
    def test_invalid_solver_option_exit_code(self, tmp_path, capsys, line):
        cfg = write_config(tmp_path, f"t_end = 0.0002\n{line}\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 1
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("sigma_c", "0.5"), ("eta_armijo", "0.1"), ("nu_backtrack", "0.8"),
        ("eps_interior", "1e-6"), ("max_restore", "60"),
    ])
    def test_solver_constant_is_not_a_key(self, tmp_path, capsys, key, value):
        # the solver's tuning values are constants: even the value it uses is refused
        cfg = write_config(tmp_path, f"t_end = 0.0002\n{key} = {value}\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 1
        assert capsys.readouterr().err == f"combust: configuration error: line 2: unknown key '{key}'\n"

    @pytest.mark.parametrize("text, flags", [
        ("domain_length = nan\n", []),
        ("domain_length = inf\n", []),
        ("time_step = inf\n", []),
        ("time_step = 0\n", []),
        ("t_end = inf\n", []),
        ("t_end = nan\n", []),
        ("t_end = 1e300\ntime_step = 1e-300\n", []),
        ("t_end = 0.0002\n", ["--tend", "inf"]),
        # h^2 underflows to 0 or overflows: k/h^2 has no finite value
        ("domain_length = 1e-300\n", []),
        ("domain_length = 1e300\n", []),
    ])
    def test_non_finite_grid_exit_code(self, tmp_path, capsys, text, flags):
        cfg = write_config(tmp_path, text)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o.csv"), *flags]) == 1
        assert "combust: configuration error" in capsys.readouterr().err

    def test_tend_beyond_2_53_steps_exit_code(self, tmp_path, capsys, monkeypatch):
        # at the default k = 1e-5 the run would never end: it is refused before it starts
        def no_run(*args):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli, "run", no_run)
        cfg = write_config(tmp_path, "t_end = 0.0002\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o.csv"), "--tend", "1e300"]) == 1
        assert capsys.readouterr().err.startswith(
            "combust: configuration error: t_end / time_step = 1e+305 exceeds 2**53 steps")

    def test_theta0_too_large_to_square_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "theta0 = 1e200\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 1
        assert capsys.readouterr().err == ("combust: configuration error: DimensionlessParams.theta0 "
                                           "= 1e+200 is too large: theta0^2 overflows\n")

    def test_readme_dimensional_block_runs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, readme_block("t_res = "))
        assert parse_config(cfg) == parse_config(write_config(tmp_path, DIMENSIONAL_BLOCK,
                                                              name="typical.cfg"))
        out = tmp_path / "dim.csv"
        assert main(["run", "--config", cfg, "--tend", "0.001", "--out", str(out)]) == 0
        # snapshots at steps 0 and 100, each of 51 nodes, and the header
        assert len(out.read_text().splitlines()) == 103
        assert "Traceback" not in capsys.readouterr().err

    def test_dimensional_block_without_dt_star_exit_code(self, tmp_path, capsys):
        block = [line for line in readme_block("t_res = ").splitlines() if not line.startswith("dt_star")]
        cfg = write_config(tmp_path, "\n".join(block) + "\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 1
        assert capsys.readouterr().err == ("combust: configuration error: line 1: dimensional "
                                           "block incomplete, missing ['dt_star']\n")

    @pytest.mark.parametrize("command", ["compare", "bench"])
    def test_readme_example_runs_both_methods(self, tmp_path, command):
        # snapshots at steps 0 and 100: compare diffs both, bench reports the
        # one after step 0 for each method
        cfg = write_config(tmp_path, readme_block("# coarse NCP run"))
        out = tmp_path / "o.csv"
        assert main([command, "--config", cfg, "--tend", "0.001", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 3

    @pytest.mark.parametrize("values, message", [
        # lambda_th dt_star, the denominator of pe_t, underflows to 0
        ({"lambda_th": 1e-200, "dt_star": 1e-200}, "a product of the dimensional constants in a "
                                                   "denominator underflows to 0"),
        # rho_f_res k_p q_r overflows
        ({"rho_f_res": 1e200, "k_p": 1e200}, "DimensionlessParams.beta must be positive and "
                                             "finite, got inf"),
    ], ids=["underflow", "overflow"])
    def test_dimensional_block_without_finite_parameters_exit_code(self, tmp_path, capsys,
                                                                   values, message):
        cfg = write_config(tmp_path, dimensional_block(**values) + "\nt_end = 0.0002\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 1
        assert capsys.readouterr().err == f"combust: configuration error: {message}\n"

    def test_out_of_memory_exit_code(self, tmp_path, capsys, monkeypatch):
        # numpy raises a MemoryError subclass for a grid too large to allocate
        message = "Unable to allocate 745. GiB for an array with shape (99999999999,) and data type float64"

        def no_memory(*args):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "run", no_memory)
        assert main(["run", "--m", "99999999999", "--out", str(tmp_path / "o.csv")]) == 1
        assert capsys.readouterr().err == f"combust: out of memory: {message}\n"

    @pytest.mark.parametrize("flag, value, key", [
        ("--m", "abc", "m_subintervals"), ("--tend", "x", "t_end"), ("--method", "foo", "method"),
    ])
    def test_unparsable_flag_exit_code(self, tmp_path, capsys, flag, value, key):
        # a flag is converted as its key in the file is: a configuration error, not a usage error
        assert main(["run", "--out", str(tmp_path / "o.csv"), flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("combust: configuration error: ")
        assert key in err
        assert "usage:" not in err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("out, script", [("missing/o.csv", "p.gp"), ("o.csv", "missing/p.gp")])
    def test_unwritable_output_exit_code(self, tmp_path, capsys, monkeypatch, out, script):
        # the missing directory is found before any run starts
        def no_run(*args):
            raise AssertionError("computation started before the output check")

        monkeypatch.setattr(cli, "run", no_run)
        monkeypatch.setattr(analysis, "refine_errors", no_run)
        cfg = write_config(tmp_path, SMALL_RUN)
        for command in ("run", "refine"):
            assert main([command, "--config", cfg, "--out", str(tmp_path / out),
                         "--plot-script", str(tmp_path / script)]) == 1
            err = capsys.readouterr().err
            assert "combust: cannot write output:" in err
            assert str(tmp_path / "missing") in err

    def test_write_failure_after_the_run_exit_code(self, tmp_path, capsys, monkeypatch):
        # /dev/full passes the pre-run check and fails the write; a
        # system without it gets the same error from the writer
        if not Path("/dev/full").exists():
            def full(*args):
                raise OSError(28, "No space left on device")

            monkeypatch.setattr(cli, "_write_csv", full)
        cfg = write_config(tmp_path, SMALL_RUN)
        assert main(["run", "--config", cfg, "--out", "/dev/full"]) == 1
        err = capsys.readouterr().err
        assert err.endswith("\ncombust: cannot write output: [Errno 28] No space left on device\n")
        assert "Traceback" not in err

    @pytest.mark.parametrize("script", ["f.csv", "./f.csv", "sub/../f.csv"])
    def test_out_and_plot_script_same_file_exit_code(self, tmp_path, capsys, monkeypatch, script):
        # the script would replace the CSV: refused before any run, and an
        # existing f.csv is left as it was
        def no_run(*args):
            raise AssertionError("computation started before the output check")

        monkeypatch.setattr(cli, "run", no_run)
        monkeypatch.setattr(analysis, "refine_errors", no_run)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        (tmp_path / "f.csv").write_text("kept\n")
        cfg = write_config(tmp_path, SMALL_RUN)
        for command in ("run", "refine"):
            assert main([command, "--config", cfg, "--out", "f.csv", "--plot-script", script]) == 1
            err = capsys.readouterr().err
            assert err.startswith("combust: cannot write output: ")
            assert "--out and --plot-script name the same file" in err
        assert (tmp_path / "f.csv").read_text() == "kept\n"

    @pytest.mark.parametrize("flag", ["--out", "--plot-script"])
    def test_output_names_the_config_file_exit_code(self, tmp_path, capsys, monkeypatch, flag):
        # the output would replace the configuration: refused before the run,
        # and the file is left as it was
        def no_run(*args):
            raise AssertionError("computation started before the output check")

        monkeypatch.setattr(cli, "run", no_run)
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, SMALL_RUN)
        args = ["run", "--config", cfg, "--out", "o.csv", "--plot-script", "p.gp"]
        args[args.index(flag) + 1] = "./case.cfg"
        assert main(args) == 1
        assert capsys.readouterr().err == \
            f"combust: cannot write output: {flag} names the --config file {cfg}\n"
        assert (tmp_path / "case.cfg").read_text() == SMALL_RUN

    @pytest.mark.parametrize("command", ["run", "compare", "refine", "bench"])
    def test_out_is_directory_exit_code(self, tmp_path, capsys, monkeypatch, command):
        def no_run(*args):
            raise AssertionError("computation started before the output check")

        for owner, name in ((cli, "run"), (analysis, "compare_methods"),
                            (analysis, "refine_errors"), (analysis, "bench")):
            monkeypatch.setattr(owner, name, no_run)
        out = tmp_path / "existing"
        out.mkdir()
        cfg = write_config(tmp_path, SMALL_RUN)
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"combust: cannot write output: {out} is a directory\n"
        assert list(out.iterdir()) == []

    def test_plot_script_is_directory_exit_code(self, tmp_path, capsys, monkeypatch):
        def no_run(*args):
            raise AssertionError("computation started before the output check")

        monkeypatch.setattr(cli, "run", no_run)
        cfg = write_config(tmp_path, SMALL_RUN)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o.csv"),
                     "--plot-script", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"combust: cannot write output: {tmp_path} is a directory\n"
        assert not (tmp_path / "o.csv").exists()

    def test_missing_config_file_exit_code(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "o.csv")]) == 1

    def test_max_iter_1_names_the_step_and_the_worst_pair(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "max_iter = 1\n")
        assert main(["run", "--config", cfg, "--tend", "0.001", "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        # after the base case's cell Peclet warning
        assert "\ncombust: solver failure (MaxIterations) at time step 0: " in err
        assert err.endswith("; row 0 is theta at node 1, paired with G\n")

    def test_solver_failure_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_RUN + "max_iter = 1\ntol = 1e-16\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert "solver failure" in err
        assert "time step" in err

    def test_non_finite_residual_exit_code(self, tmp_path, capsys):
        # the reaction term overflows, so the first residual is non-finite
        cfg = write_config(tmp_path, "beta = 1e308\ntime_step = 1\nt_end = 3\nm_subintervals = 10\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert "solver failure (NumericError) at time step 0: non-finite residual G at node 1" in err
        assert "RuntimeWarning" not in err


@pytest.mark.parametrize("argv, config, code, message", [
    (["--tend", "0.001"], "", 0, ""),
    (["--tend", "inf"], "", 1, "combust: configuration error: t_end must be finite, got 'inf'\n"),
    (["--tend", "0.001"], "max_iter = 1\n", 2, "combust: solver failure (MaxIterations) at time step 0: "),
], ids=["ok", "configuration-error", "solver-failure"])
def test_module_entry_point_returns_the_exit_code(tmp_path, argv, config, code, message):
    """`python -m combust.cli` runs main under the __main__ guard and exits with
    its code, as the installed `combust` script does, with no traceback."""
    cfg = write_config(tmp_path, config)
    out = tmp_path / "o.csv"
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "combust.cli", "run", "--config", cfg,
                           "--out", str(out), *argv],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr
    if code == 0:
        assert len(out.read_text().splitlines()) == 103


RUN_PATH_MODULES = ["combust", "combust.cli", "combust.discretization", "combust.mncp",
                    "combust.model", "combust.timestepper"]


@pytest.mark.parametrize("command, loaded", [
    (None, RUN_PATH_MODULES),
    ("run", RUN_PATH_MODULES),
    ("compare", sorted(RUN_PATH_MODULES + ["combust.analysis"])),
], ids=["import", "run", "compare"])
def test_only_the_analysis_commands_load_analysis(tmp_path, command, loaded):
    """The run path loads the solver's modules alone; compare, refine and bench
    also load combust.analysis, whose import costs start-up time a run never uses."""
    script = "import sys\nimport combust.cli\n"
    if command is not None:
        argv = [command, "--tend", "0.0001", "--out", str(tmp_path / "o.csv")]
        script += f"assert combust.cli.main({argv!r}) == 0\n"
    script += "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'combust'))\n"
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == loaded
