import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qndsim import cli
from qndsim.cli import cmd_dwell, cmd_relax, cmd_survival, cmd_thermal, cmd_zeno, main
from qndsim.config import ConfigError, RunConfig, load_config
from qndsim.measurement import ZeroProbabilityError
from qndsim.stats import FitError

SRC = Path(__file__).resolve().parents[1] / "src"


def csv_body(text):
    """Rows after the metadata block, split into header and value rows."""
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    return lines[0], [line.split(",") for line in lines[1:]]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfig:
    def test_defaults(self):
        config = RunConfig()
        assert config.steps == 100
        assert config.dt == pytest.approx(0.01)
        config.validate()

    def test_file_then_flag_precedence(self, tmp_path):
        manifest = tmp_path / "run.json"
        manifest.write_text(json.dumps({"gamma": 2.0, "traj": 50}))
        config = load_config(str(manifest), {"traj": 75, "gamma": None})
        assert config.gamma == 2.0  # file value kept where the flag is unset
        assert config.traj == 75  # flag wins

    def test_unknown_key_rejected(self, tmp_path):
        manifest = tmp_path / "run.json"
        manifest.write_text(json.dumps({"tau": 2.0}))
        with pytest.raises(ConfigError):
            load_config(str(manifest), {})

    def test_values_are_coerced_by_field_type(self, tmp_path):
        manifest = tmp_path / "run.json"
        manifest.write_text(json.dumps({"trunc": 3.0, "gamma": "2", "engine": "gillespie", "out": None}))
        config = load_config(str(manifest), {"seed": "7", "mode": "paper"})
        assert (config.trunc, config.gamma, config.seed) == (3, 2.0, 7)
        assert [type(v) for v in (config.trunc, config.gamma, config.seed)] == [int, float, int]
        assert (config.engine, config.mode, config.out) == ("gillespie", "paper", None)
        for key, value in (("trunc", 2.5), ("traj", "many"), ("horizon", [1.0])):
            with pytest.raises(ConfigError, match=f"bad value for '{key}'"):
                load_config(None, {key: value})
        manifest.write_text(json.dumps({"gdt": None}))  # flags skip None; a manifest may not
        with pytest.raises(ConfigError, match="bad value for 'gdt'"):
            load_config(str(manifest))

    def test_interval_must_fit_horizon(self):
        with pytest.raises(ConfigError):
            RunConfig(gdt=2.0, horizon=1.0).validate()

    def test_horizon_must_be_whole_number_of_steps(self):
        with pytest.raises(ConfigError, match="whole number"):
            RunConfig(horizon=1.0, gdt=0.3).validate()
        for horizon, gdt in ((1.0, 0.01), (0.2, 0.01), (5.0, 0.05), (0.1, 0.01), (0.05, 0.01)):
            RunConfig(horizon=horizon, gdt=gdt).validate()

    def test_occupancy_warnings(self):
        assert RunConfig(n_thermal=0.1).validate() == []
        assert len(RunConfig(n_thermal=0.9).validate()) == 1
        assert "degenerates" in RunConfig(n_thermal=1.5).validate()[0]

    def test_thermal_truncation_tail(self):
        # the tail above trunc is (n/(n+1))**(trunc+1): at n_thermal 5 it
        # crosses TAIL_WARN = 1e-6 between trunc 75 and 74, and TAIL_MAX =
        # 1e-2 between trunc 25 and 24
        def tail_warnings(**kw):
            return [w for w in RunConfig(**kw).validate() if "thermal mass" in w]

        assert tail_warnings(n_thermal=5.0, trunc=75) == []
        assert tail_warnings(n_thermal=5.0, trunc=74) != []
        assert tail_warnings(n_thermal=5.0, trunc=25) != []
        with pytest.raises(ConfigError, match="thermal mass"):
            RunConfig(n_thermal=5.0, trunc=24).validate()
        # trunc = 1 is the two-level model, not a truncated ladder
        assert tail_warnings(n_thermal=100.0, trunc=1) == []
        assert tail_warnings() == []


class TestExitCodes:
    def test_usage_error_is_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "thermal", "--gdt", "2.0", "--horizon", "1.0")
        assert code == 1
        assert "error" in err

    def test_unknown_flag_is_exit_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["survival", "--engine", "euler"])
        assert exc.value.code == 1

    def test_success_is_exit_0(self, capsys):
        code, out, _ = run_cli(capsys, "thermal", "--trunc", "1")
        assert code == 0
        assert out.startswith("# qndsim")

    def test_fractional_horizon_is_exit_1(self, capsys):
        code, out, err = run_cli(capsys, "relax", "--horizon", "1", "--gdt", "0.3")
        assert code == 1
        assert out == ""
        assert "whole number" in err

    @pytest.mark.parametrize(
        "flags",
        [
            ("--gdt", "nan"),
            ("--horizon", "inf"),
            ("--gamma", "inf"),
            ("--gamma", "nan"),
            ("--n-thermal", "nan"),
            ("--n-thermal", "inf"),
            ("--gamma", "1e308", "--n-thermal", "10"),  # B_a overflows
            ("--gamma", "1e-320"),  # dt = gdt / gamma overflows
            ("--horizon", "1e300", "--gdt", "1e-10"),  # the step count overflows
            ("--config", "nan.json"),
            ("--trunc", "1", "--gdt", "2e6", "--horizon", "2e6"),  # past the event cap
        ],
    )
    def test_unrepresentable_value_is_exit_1(self, capsys, monkeypatch, tmp_path, flags):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "nan.json").write_text('{"gdt": NaN}')
        code, out, err = run_cli(capsys, "survival", "--traj", "10", *flags)
        assert (code, out) == (1, "")
        assert err.startswith("error:")
        assert "Traceback" not in err
        if "2e6" in flags:
            assert "more than 1.28e+06 mean uniformized events" in err

    def test_unwritable_out_is_exit_1(self, capsys, tmp_path):
        missing = tmp_path / "missing_dir" / "x.csv"
        code, _, err = run_cli(capsys, "relax", "--horizon", "0.05", "--out", str(missing))
        assert code == 1
        assert err == f"error: cannot write --out {missing}: No such file or directory\n"

    def test_validate_writes_report_to_out(self, capsys, monkeypatch, tmp_path):
        from qndsim import validation

        out = tmp_path / "v.txt"
        for passed, code in ((True, 0), (False, 2)):
            results = [validation.CriterionResult("AC1 stub", passed, ())]
            monkeypatch.setattr(validation, "run_all", lambda config, results=results: results)
            assert run_cli(capsys, "validate", "--out", str(out)) == (code, "", "")
            report = out.read_text()
            assert "# command: validate\n" in report
            assert report.endswith(validation.render_results(results))
        missing = tmp_path / "missing_dir" / "v.txt"
        code, _, err = run_cli(capsys, "validate", "--out", str(missing))
        assert code == 1
        assert err == f"error: cannot write --out {missing}: No such file or directory\n"

    @pytest.mark.parametrize("error", [FitError, ZeroProbabilityError])
    def test_statistical_failure_is_exit_2(self, capsys, monkeypatch, error):
        def fail(config):
            raise error("no usable points")

        monkeypatch.setattr(cli, "cmd_thermal", fail)
        code, _, err = run_cli(capsys, "thermal", "--trunc", "1")
        assert code == 2
        assert "no usable points" in err

    @pytest.mark.parametrize("command", ["zeno", "validate"])
    def test_level1_product_without_decay_is_exit_2(self, capsys, command):
        # at n_thermal >= 1 the analytic level-1 product does not decay: zeno
        # stops at the failed fit, validate fails AC3 with it and reports
        # every criterion
        code, out, err = run_cli(capsys, command, "--n-thermal", "2", "--trunc", "80", "--traj", "2000")
        assert code == 2
        assert "Traceback" not in err
        if command == "zeno":
            assert "error: FitError: " in err
            return
        assert "error" not in err
        lines = out.splitlines()
        verdicts = [line for line in lines if line.startswith("AC")]
        assert [v.split()[0] for v in verdicts] == [f"AC{i}" for i in range(1, 9)]
        ac3 = lines.index("AC3 partial-Zeno slowdown rates: FAIL")
        assert any(line.startswith("    FitError: ") for line in lines[ac3:lines.index(verdicts[3])])
        assert "zeno output byte-identical across reruns: True" in out

    def test_zeno_reports_n_thermal_above_one_once(self):
        # a child process, so stderr is what a user sees: Python's own
        # warning display is not intercepted there as it is under pytest
        env = dict(os.environ, PYTHONPATH=str(SRC))
        argv = ["zeno", "--n-thermal", "2", "--trunc", "80", "--traj", "2000"]
        child = subprocess.run(
            [sys.executable, "-m", "qndsim.cli", *argv], env=env, capture_output=True, text=True
        )
        assert child.returncode == 2
        lines = child.stderr.splitlines()
        assert lines[0] == "warning: n_thermal = 2 >= 1: persistence-time ordering degenerates"
        assert len(lines) == 2 and lines[1].startswith("error: FitError: ")
        assert "ZenoDomainWarning" not in child.stderr and "cli.py" not in child.stderr

    def test_other_exceptions_propagate(self, monkeypatch):
        def bug(config):
            raise RuntimeError("a bug, not a statistical failure")

        monkeypatch.setattr(cli, "cmd_thermal", bug)
        with pytest.raises(RuntimeError, match="a bug"):
            main(["thermal", "--trunc", "1"])

    def test_truncation_tail_warning_on_stderr(self, capsys):
        code, out, err = run_cli(capsys, "thermal", "--n-thermal", "5", "--trunc", "40")
        assert code == 0
        assert "warning: trunc = 40 drops 0.00057 of the thermal mass at n_thermal = 5\n" in err
        assert out == cmd_thermal(RunConfig(n_thermal=5.0, trunc=40))
        code, out, err = run_cli(capsys, "thermal", "--n-thermal", "5", "--trunc", "20")
        assert code == 1
        assert out == ""
        assert "thermal mass" in err

    def test_soft_occupancy_warning_on_stderr(self, capsys):
        code, _, err = run_cli(capsys, "thermal", "--trunc", "1", "--n-thermal", "0.9")
        assert code == 0
        assert "warning" in err


class TestThermal:
    def test_two_level_weights(self, capsys):
        # n_thermal = 1/9 puts the Boltzmann ratio at ln 10
        code, out, _ = run_cli(
            capsys, "thermal", "--trunc", "1", "--gamma", "1.0", "--n-thermal", str(1.0 / 9.0)
        )
        assert code == 0
        rows = dict(line.split(",") for line in out.splitlines() if "," in line and not line.startswith("#"))
        assert float(rows["0"]) == pytest.approx(0.909091, abs=1e-6)
        assert float(rows["1"]) == pytest.approx(0.090909, abs=1e-6)

    def test_unit_occupancy_rates(self, capsys):
        _, out, _ = run_cli(capsys, "thermal", "--trunc", "1", "--n-thermal", "1.0")
        assert f"B_e = {1.0!r}" in out
        assert f"B_a = {2.0!r}" in out
        assert f"boltzmann_ratio = {math.log(2.0)!r}" in out


class TestRelax:
    def test_columns_and_first_row(self):
        text = cmd_relax(RunConfig(horizon=0.2))
        header, rows = csv_body(text)
        assert header == "gamma_t,nbar_analytic,nbar_numeric,abs_error"
        first = rows[0]
        assert float(first[0]) == 0.0
        assert float(first[1]) == float(first[2]) == 0.0

    def test_numeric_tracks_analytic(self):
        text = cmd_relax(RunConfig(horizon=5.0, gdt=0.05))
        _, rows = csv_body(text)
        assert all(float(r[3]) <= 1e-8 for r in rows)
        final = rows[-1]
        assert abs(float(final[1]) - 0.1) <= math.exp(-5.0) * 0.1 + 1e-12


class TestSurvival:
    CONFIG = RunConfig(traj=3000, trunc=1)

    def test_columns_and_first_row(self):
        text = cmd_survival(self.CONFIG)
        header, rows = csv_body(text)
        assert header == "gamma_t,p_product_eq26,p_exponential_eq29,p_exact_chain,p_mc,mc_stderr"
        from qndsim.dynamics import two_level_population

        assert float(rows[0][1]) == two_level_population(self.CONFIG.bath(), 0, 0.01)

    def test_final_row_reference_values(self):
        text = cmd_survival(self.CONFIG)
        _, rows = csv_body(text)
        assert float(rows[-1][0]) == pytest.approx(1.0)
        assert float(rows[-1][1]) == pytest.approx(0.905243, abs=1e-6)
        assert float(rows[-1][2]) == pytest.approx(0.904837, abs=1e-6)

    def test_monte_carlo_tracks_first_exit(self):
        text = cmd_survival(self.CONFIG)
        _, rows = csv_body(text)
        for row in rows:
            exact, mc, stderr = float(row[3]), float(row[4]), float(row[5])
            assert abs(mc - exact) <= 3.0 * stderr + 1e-12

    def test_round_trip_formatting(self):
        text = cmd_survival(self.CONFIG)
        _, rows = csv_body(text)
        value = float(rows[-1][1])
        assert repr(value) in text


class TestDwell:
    def test_comparison_row(self):
        summary, csv = cmd_dwell(RunConfig(traj=20_000, trunc=1))
        header, rows = csv_body(csv)
        assert header == "fraction_1,paper_target_nthermal,exact_target_pi1"
        fraction, paper, exact = (float(v) for v in rows[0])
        assert paper == 0.1
        assert exact == pytest.approx(1.0 / 12.0, abs=1e-12)
        assert abs(fraction - exact) <= 0.05
        assert "dwell_histogram" in summary

    def test_fractions_sum_to_one(self):
        summary, _ = cmd_dwell(RunConfig(traj=5_000, trunc=1))
        fractions = [
            float(line.split(",")[1])
            for line in summary.splitlines()
            if line and line[0].isdigit()
        ]
        assert sum(fractions) == 1.0


class TestZeno:
    CONFIG = RunConfig(traj=4000)

    def test_report_and_sweep(self):
        table, csv = cmd_zeno(self.CONFIG)
        assert f"tau_0 = {10.0!r}" in table
        assert "slowdown_0 = 10.0" in table
        header, rows = csv_body(csv)
        assert header == "x,p_product,p_exponential,abs_gap"
        gaps = [float(r[3]) for r in rows]
        xs = [float(r[0]) for r in rows]
        assert gaps[0] > gaps[1] > gaps[2]
        assert all(g <= x for g, x in zip(gaps, xs))

    def test_fitted_slowdown_window(self):
        table, _ = cmd_zeno(self.CONFIG)
        fitted_tau0 = float(table.split("fitted tau_0 = ")[1].split(" ")[0])
        assert 9.5 <= fitted_tau0 <= 10.5


class TestDeterminism:
    def test_survival_reruns_are_byte_identical(self):
        config = RunConfig(traj=500, trunc=1)
        assert cmd_survival(config) == cmd_survival(config)

    def test_seed_changes_output(self):
        base = RunConfig(traj=500, trunc=1)
        assert cmd_survival(base) != cmd_survival(RunConfig(traj=500, trunc=1, seed=9))

    def test_out_file_written(self, tmp_path, capsys):
        out = tmp_path / "relax.csv"
        code, _, _ = run_cli(capsys, "relax", "--horizon", "0.1", "--out", str(out))
        assert code == 0
        text = out.read_text()
        assert text.startswith("# qndsim")
        assert "gamma_t,nbar_analytic" in text

    def test_default_config_line_is_pinned(self, capsys):
        _, out, _ = run_cli(capsys, "thermal")
        assert out.splitlines()[2] == (
            "# config: gamma=1.0 n_thermal=0.1 trunc=40 gdt=0.01 horizon=1.0 traj=100000 "
            "seed=0 engine=luders mode=exact"
        )

    def test_metadata_precedes_header(self, capsys):
        _, out, _ = run_cli(capsys, "relax", "--horizon", "0.05")
        lines = out.splitlines()
        first_data = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        assert lines[first_data] == "gamma_t,nbar_analytic,nbar_numeric,abs_error"
        assert any("seed=0" in line for line in lines[:first_data])
        assert any("SeedSequence" in line for line in lines[:first_data])
