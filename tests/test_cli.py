"""Command-line interface: emission formats, exit codes, reproducibility."""

import importlib.metadata
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from anmimo import (
    NumericError,
    SystemConfig,
    asymptotic_average_rate,
    average_secrecy_rate,
    mc_average_secrecy_rate,
    theta,
)
from anmimo import cli
from anmimo.cli import main

POINT = "n_a = 6\nn_b = 3\nn_e = 4\nalpha = 2\nbeta = 0.5\ngamma = 2\n"
SWEEP = (
    "axis = n_e\nvalues = 2, 4, 6\noutputs = exact, lower, upper, mc\n"
    "n_a = 6\nn_b = 3\nalpha = 2\nbeta = 0.5\ngamma = 2\n"
    "mc_trials = 1500\nseed = 11\n"
)
DESIGN = "n_a = 6\nn_b = 3\nalpha_db = 3\nbeta_db = 1\ngamma_db = 3\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip("\n").split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


class TestRate:
    def test_default_outputs(self, capsys, tmp_path):
        cfg = write(tmp_path, "p.cfg", POINT)
        code, out, err = run_main(capsys, ["rate", "--config", cfg])
        assert code == 0 and err == ""
        header, rows = parse_csv(out)
        assert header == [
            "n_a", "n_b", "n_e", "alpha", "beta", "gamma",
            "exact", "exact_clamped", "asymptotic", "lower", "upper",
        ]
        ref = average_secrecy_rate(SystemConfig(6, 3, 4, 2.0, 0.5, 2.0))
        assert float(rows[0]["exact"]) == pytest.approx(ref, rel=1e-11)

    def test_json_emission(self, capsys, tmp_path):
        cfg = write(tmp_path, "p.cfg", POINT)
        code, out, _ = run_main(
            capsys, ["rate", "--config", cfg, "--outputs", "exact", "--json"]
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 1 and "exact" in rows[0] and rows[0]["n_a"] == 6

    def test_bits_units(self, capsys, tmp_path):
        cfg = write(tmp_path, "p.cfg", POINT)
        _, nats_out, _ = run_main(capsys, ["rate", "--config", cfg, "--outputs", "exact"])
        _, bits_out, _ = run_main(
            capsys, ["rate", "--config", cfg, "--outputs", "exact", "--units", "bits"]
        )
        _, nats_rows = parse_csv(nats_out)
        _, bits_rows = parse_csv(bits_out)
        assert float(bits_rows[0]["exact"]) == pytest.approx(
            float(nats_rows[0]["exact"]) / math.log(2.0), rel=1e-10
        )

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        cfg = write(tmp_path, "p.cfg", POINT)
        _, stdout_text, _ = run_main(capsys, ["rate", "--config", cfg])
        dest = tmp_path / "row.csv"
        code, out, _ = run_main(capsys, ["rate", "--config", cfg, "--out", str(dest)])
        assert code == 0 and out == ""
        assert dest.read_text() == stdout_text

    @pytest.mark.parametrize("dest", ["missing/row.csv", "."], ids=["no-parent", "directory"])
    def test_unwritable_out_is_config_error(self, capsys, tmp_path, dest):
        cfg = write(tmp_path, "p.cfg", POINT)
        out_path = str(tmp_path / dest)
        code, out, err = run_main(capsys, ["rate", "--config", cfg, "--out", out_path])
        assert code == 1 and out == ""
        assert err.startswith(f"error: cannot write output {out_path!r}: ")
        assert err.count("\n") == 1

    def test_underflowing_noise_level_is_domain_error(self, capsys, tmp_path):
        # alpha beta underflows to 0: a DomainError, not a ZeroDivisionError
        text = POINT.replace("alpha = 2\nbeta = 0.5", "alpha = 1e-200\nbeta = 1e-200")
        cfg = write(tmp_path, "p.cfg", text)
        code, out, err = run_main(capsys, ["rate", "--config", cfg])
        assert code == 1 and out == ""
        assert err == "error: alpha * beta must be finite and > 0, got 0.0\n"

    @pytest.mark.parametrize(
        "scales, product",
        [("alpha = 1e200\nbeta = 1e200\ngamma = 1\n", "alpha * beta"),
         ("alpha = 1e200\nbeta = 1\ngamma = 1e200\n", "alpha * gamma")],
        ids=["alpha-beta", "alpha-gamma"],
    )
    def test_overflowing_product_is_named(self, capsys, tmp_path, scales, product):
        # the product that overflows, not an argument the config never gave
        cfg = write(tmp_path, "p.cfg", "n_a = 6\nn_b = 3\nn_e = 4\n" + scales)
        code, out, err = run_main(capsys, ["rate", "--config", cfg])
        assert code == 1 and out == ""
        assert err == f"error: {product} must be finite and >= 0, got inf\n"

    def test_rate_past_16(self, capsys, tmp_path):
        # n_a = n_e = 24 puts theta's n at 24: the rate and both bounds evaluate
        text = "n_a = 24\nn_b = 12\nn_e = 24\nalpha = 2\nbeta = 0.5\ngamma = 2\n"
        cfg = write(tmp_path, "p.cfg", text)
        code, out, err = run_main(capsys, ["rate", "--config", cfg, "--json"])
        assert (code, err) == (0, "")
        (row,) = json.loads(out)
        assert row["lower"] <= row["exact"] <= row["upper"]

    def test_rate_keeps_its_sign_at_the_zero_crossing(self, capsys, tmp_path):
        # the true rate here is +3.434e-15; the three terms rounded to
        # doubles and then subtracted gave -7.105e-15, clamped to 0
        text = "n_a = 12\nn_b = 4\nn_e = 12\nalpha = 10\nbeta = 3\ngamma = 0.20814001408996496\n"
        cfg = write(tmp_path, "p.cfg", text)
        code, out, _ = run_main(capsys, ["rate", "--config", cfg, "--json"])
        assert code == 0
        (row,) = json.loads(out)
        assert row["exact_clamped"] == row["exact"] > 0.0

    def test_missing_antenna_count(self, capsys, tmp_path):
        cfg = write(tmp_path, "p.cfg", POINT.replace("n_e = 4\n", ""))
        code, out, err = run_main(capsys, ["rate", "--config", cfg])
        assert (code, out, err) == (1, "", "error: missing n_e\n")

    def test_asymptotic_past_the_bisection_bracket(self, capsys, tmp_path):
        # past about 147 dB at (6,3,4) delta falls below solve_delta's
        # bracket [1e-15, 1], a typed numeric failure; 146 dB evaluates
        text = "n_a = 6\nn_b = 3\nn_e = 4\nalpha_db = {}\nbeta = 1\ngamma = 1\n"
        argv = ["rate", "--outputs", "asymptotic", "--config"]
        code, out, err = run_main(capsys, argv + [write(tmp_path, "p.cfg", text.format(147))])
        assert code == 2 and out == ""
        assert err.startswith("numeric failure: no sign change on [1e-15, 1]: ")
        code, out, err = run_main(capsys, argv + [write(tmp_path, "p.cfg", text.format(146))])
        assert code == 0 and err == ""
        assert math.isfinite(float(parse_csv(out)[1][0]["asymptotic"]))

    def test_asymptotic_at_a_steep_antenna_ratio(self, capsys, tmp_path):
        # n_a/n_e = 20000: no double meets the fixed point's tolerance, and
        # the bisection ends where its bracket closes
        text = "n_a = 40000\nn_b = 3\nn_e = 2\nalpha_db = 10\nbeta = 1\ngamma = 1\n"
        argv = ["rate", "--outputs", "asymptotic,delta_amax,delta_amin", "--config"]
        code, out, err = run_main(capsys, argv + [write(tmp_path, "p.cfg", text)])
        assert code == 0 and err == ""
        (row,) = parse_csv(out)[1]
        want = asymptotic_average_rate(SystemConfig(40000, 3, 2, 10.0, 1.0, 1.0))
        assert float(row["asymptotic"]) == pytest.approx(want, rel=1e-11)
        assert float(row["delta_amax"]) == float(row["delta_amin"]) > 0.0

    def test_missing_config_file(self, capsys):
        code, _, err = run_main(capsys, ["rate", "--config", "/nonexistent/x.cfg"])
        assert code == 1 and err.startswith("error:")

    def test_bad_output_name(self, capsys, tmp_path):
        cfg = write(tmp_path, "p.cfg", POINT)
        code, _, err = run_main(capsys, ["rate", "--config", cfg, "--outputs", "exact,nope"])
        assert code == 1 and "unknown output" in err

    def test_conflicting_snr_spellings(self, capsys, tmp_path):
        cfg = write(tmp_path, "p.cfg", POINT + "alpha_db = 3\n")
        code, _, err = run_main(capsys, ["rate", "--config", cfg])
        assert code == 1 and "not both" in err

    def test_numeric_failure_exit_code(self, capsys, tmp_path, monkeypatch):
        import anmimo.cli as cli_mod

        def boom(*a, **k):
            raise NumericError("synthetic loss of precision")

        monkeypatch.setattr(cli_mod, "run_point", boom)
        cfg = write(tmp_path, "p.cfg", POINT)
        code, _, err = run_main(capsys, ["rate", "--config", cfg])
        assert code == 2 and err.startswith("numeric failure:")


class TestMc:
    def test_matches_library(self, capsys, tmp_path):
        cfg = write(tmp_path, "p.cfg", POINT)
        code, out, _ = run_main(
            capsys,
            ["mc", "--config", cfg, "--trials", "400", "--seed", "7", "--clamp", "false"],
        )
        assert code == 0
        _, rows = parse_csv(out)
        est = mc_average_secrecy_rate(
            SystemConfig(6, 3, 4, 2.0, 0.5, 2.0), 400, seed=7, clamp=False
        )
        assert float(rows[0]["mc"]) == pytest.approx(est.mean, rel=1e-11)
        assert float(rows[0]["mc_stderr"]) == pytest.approx(est.stderr, rel=1e-9)

    def test_too_few_trials(self, capsys, tmp_path):
        cfg = write(tmp_path, "p.cfg", POINT)
        code, _, err = run_main(capsys, ["mc", "--config", cfg, "--trials", "1"])
        assert code == 1 and "error:" in err

    def test_negative_seed(self, capsys, tmp_path):
        cfg = write(tmp_path, "p.cfg", POINT)
        code, _, _ = run_main(capsys, ["mc", "--config", cfg, "--seed", "-4"])
        assert code == 1


class TestSweep:
    def test_rows_in_axis_order(self, capsys, tmp_path):
        cfg = write(tmp_path, "s.cfg", SWEEP)
        code, out, _ = run_main(capsys, ["sweep", "--config", cfg])
        assert code == 0
        _, rows = parse_csv(out)
        assert [r["n_e"] for r in rows] == ["2", "4", "6"]
        for r in rows:
            assert float(r["lower"]) <= float(r["exact"]) <= float(r["upper"])

    def test_flag_overrides_file_trials(self, capsys, tmp_path):
        cfg = write(tmp_path, "s.cfg", SWEEP)
        _, base_out, _ = run_main(capsys, ["sweep", "--config", cfg])
        _, over_out, _ = run_main(capsys, ["sweep", "--config", cfg, "--trials", "300"])
        _, base_rows = parse_csv(base_out)
        _, over_rows = parse_csv(over_out)
        assert base_rows[0]["exact"] == over_rows[0]["exact"]
        assert base_rows[0]["mc"] != over_rows[0]["mc"]

    @pytest.mark.parametrize("flag", ["--trials"])
    def test_integer_beyond_float_range_without_mc(self, capsys, tmp_path, flag):
        # float() of a 402-digit int overflows; without an mc column the
        # trial count is checked but never used (a seed is held to 64 bits)
        cfg = write(tmp_path, "s.cfg", "axis = n_e\nvalues = 2, 4\noutputs = exact\n" + POINT)
        _, want, _ = run_main(capsys, ["sweep", "--config", cfg])
        code, out, err = run_main(capsys, ["sweep", "--config", cfg, flag, str(10**401)])
        assert (code, out, err) == (0, want, "")

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range_fails_before_any_row(self, capsys, tmp_path, seed):
        cfg = write(tmp_path, "s.cfg", SWEEP.replace("seed = 11", f"seed = {seed}"))
        code, out, err = run_main(capsys, ["sweep", "--config", cfg])
        want = f"error: seed must fit in 64 unsigned bits, got {seed}\n"
        assert (code, out, err) == (1, "", want)

    def test_seed_beyond_64_bits_with_mc(self, capsys, tmp_path):
        cfg = write(tmp_path, "s.cfg", SWEEP)
        code, out, err = run_main(capsys, ["sweep", "--config", cfg, "--seed", str(10**401)])
        assert code == 1 and out == ""
        assert f"seed must fit in 64 unsigned bits, got {10**401}" in err

    def test_partial_failure_reports_completed_rows(self, capsys, tmp_path):
        # at alpha = 1e300, gamma = 90 dB makes alpha * gamma overflow,
        # which only evaluation finds
        text = (
            "axis = gamma_db\nvalues = 0, 90\noutputs = exact, lower, upper\n"
            "n_a = 6\nn_b = 3\nn_e = 4\nalpha = 1e300\nbeta = 0.5\n"
        )
        cfg = write(tmp_path, "s.cfg", text)
        code, _, err = run_main(capsys, ["sweep", "--config", cfg])
        assert code == 1
        assert "sweep aborted after 1 completed row(s)" in err
        assert "gamma_db=90.0: alpha * gamma must be finite and >= 0, got inf" in err

    def test_eavesdropper_past_16_completes(self, capsys, tmp_path):
        # n_e = 24 puts theta's n at 24: every row has its values
        text = "axis = n_e\nvalues = 8, 16, 24\noutputs = exact, lower, upper\n" + POINT
        cfg = write(tmp_path, "s.cfg", text.replace("n_e = 4\n", ""))
        code, out, err = run_main(capsys, ["sweep", "--config", cfg])
        assert (code, err) == (0, "")
        _, rows = parse_csv(out)
        assert [r["n_e"] for r in rows] == ["8", "16", "24"]
        for r in rows:
            assert float(r["lower"]) <= float(r["exact"]) <= float(r["upper"])

    def test_bad_clamp_is_config_error(self, capsys, tmp_path):
        cfg = write(tmp_path, "s.cfg", SWEEP + "clamp = maybe\n")
        code, out, err = run_main(capsys, ["sweep", "--config", cfg])
        assert (code, out, err) == (1, "", "error: expected true or false, got 'maybe'\n")

    def test_numeric_cause_gets_numeric_exit(self, capsys, tmp_path, monkeypatch):
        import anmimo.harness as harness_mod

        def boom(*a, **k):
            raise NumericError("synthetic")

        monkeypatch.setattr(harness_mod, "run_point", boom)
        cfg = write(tmp_path, "s.cfg", SWEEP)
        code, _, err = run_main(capsys, ["sweep", "--config", cfg])
        assert code == 2
        assert "sweep aborted after 0 completed row(s)" in err


class TestDesign:
    def test_thresholds_row(self, capsys, tmp_path):
        cfg = write(tmp_path, "d.cfg", DESIGN)
        code, out, _ = run_main(capsys, ["design", "--config", cfg])
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0]["n_sufficient"] == "12"
        assert rows[0]["n_necessary"] == "16"
        assert rows[0]["advisory"] == "true"

    def test_scan_cutoff_is_numeric_failure(self, capsys, tmp_path):
        cfg = write(tmp_path, "d.cfg", DESIGN)
        code, _, err = run_main(capsys, ["design", "--config", cfg, "--max-ne", "8"])
        assert code == 2 and err.startswith("numeric failure:")

    def test_rejects_equal_antenna_counts(self, capsys, tmp_path):
        cfg = write(tmp_path, "d.cfg", DESIGN.replace("n_a = 6", "n_a = 3"))
        code, out, err = run_main(capsys, ["design", "--config", cfg])
        assert (code, out, err) == (1, "", "error: need n_b < n_a, got n_b=3, n_a=3\n")

    def test_rejects_fixed_eavesdropper(self, capsys, tmp_path):
        cfg = write(tmp_path, "d.cfg", DESIGN + "n_e = 4\n")
        code, _, err = run_main(capsys, ["design", "--config", cfg])
        assert code == 1 and "n_e" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            # gamma beta3 rounds to 0.0 in the scan
            ("n_a = 6\nn_b = 3\nalpha = 1e300\nbeta = 1\ngamma = 5e-324\n",
             "power scales out of float range"),
            # p_u (1 + sqrt(beta2))^2 overflows in phi_func
            ("n_a = 6\nn_b = 3\nalpha = 1.7e308\nbeta = 1.05\ngamma = 0.3\n",
             "is out of float range"),
        ],
        ids=["subnormal-gamma", "phi-overflow"],
    )
    def test_float_range_is_numeric_failure(self, capsys, tmp_path, text, message):
        cfg = write(tmp_path, "d.cfg", text)
        code, out, err = run_main(capsys, ["design", "--config", cfg])
        assert code == 2 and out == ""
        assert err.startswith("numeric failure:") and message in err


class TestIntegerFields:
    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("rate", "n_a = {v}\nn_b = 3\nn_e = 4\nalpha = 2\nbeta = 0.5\ngamma = 2\n",
             "n_a must be an integer, got {v}"),
            ("design", "n_a = {v}\nn_b = 3\nalpha = 2\nbeta = 0.5\ngamma = 2\n",
             "n_a must be an integer, got {v}"),
            ("sweep", "axis = n_e\nvalues = 1, {v}\noutputs = asymptotic\n" + POINT,
             "n_e sweep value {v} is not an integer"),
            ("sweep", SWEEP.replace("values = 2, 4, 6", "values = {v}"),
             "n_e sweep value {v} is not an integer"),
        ],
        ids=["rate", "design", "sweep", "sweep-ne-from-values"],
    )
    def test_non_finite_is_config_error(self, capsys, tmp_path, command, text, message, value):
        cfg = write(tmp_path, "c.cfg", text.format(v=value))
        code, out, err = run_main(capsys, [command, "--config", cfg])
        assert code == 1 and out == ""
        assert err == f"error: {message.format(v=value)}\n"


class TestDecibelRange:
    # 10^(4000/10) is past float range: one error line, no traceback
    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("rate", POINT.replace("alpha = 2", "alpha_db = 4000"),
             "alpha must be finite and >= 0, got inf"),
            ("design", DESIGN.replace("alpha_db = 3", "alpha_db = 4000"),
             "alpha must be finite and > 0, got inf"),
            ("sweep", "axis = gamma_db\nvalues = 0, 4000\noutputs = exact\n"
             + POINT.replace("gamma = 2\n", ""),
             "gamma must be finite and > 0, got inf"),
            ("sweep", "axis = beta_db\nvalues = 0, 4000\noutputs = exact\n"
             + POINT.replace("beta = 0.5\n", ""),
             "beta must be finite and > 0, got inf"),
        ],
        ids=["rate", "design", "sweep-gamma", "sweep-beta"],
    )
    def test_overflowing_db_is_config_error(self, capsys, tmp_path, command, text, message):
        cfg = write(tmp_path, "c.cfg", text)
        code, out, err = run_main(capsys, [command, "--config", cfg])
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"


class TestOracle:
    def test_uniform_scale(self, capsys):
        code, out, _ = run_main(
            capsys,
            ["oracle", "--rows", "1", "--cols", "1", "--scale", "4", "--trials", "3000",
             "--seed", "3"],
        )
        assert code == 0
        _, rows = parse_csv(out)
        mean, stderr = float(rows[0]["mean"]), float(rows[0]["stderr"])
        assert abs(mean - theta(1, 1, 4.0)) <= 5.0 * stderr
        assert rows[0]["trials"] == "3000" and rows[0]["seed"] == "3"

    def test_profile_list(self, capsys):
        code, out, _ = run_main(
            capsys,
            ["oracle", "--rows", "2", "--cols", "3", "--profile", "2,1,0.5",
             "--trials", "200"],
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["mean"]) > 0.0

    def test_profile_length_mismatch(self, capsys):
        code, _, err = run_main(
            capsys,
            ["oracle", "--rows", "2", "--cols", "2", "--profile", "1,2,3",
             "--trials", "200"],
        )
        assert code == 1 and "error:" in err

    def test_profile_not_a_number(self, capsys):
        code, out, err = run_main(
            capsys, ["oracle", "--rows", "2", "--cols", "2", "--profile", "1,x"]
        )
        assert (code, out) == (1, "")
        assert err == "error: bad --profile: could not convert string to float: 'x'\n"

    def test_scale_and_profile_conflict(self, capsys):
        code, _, _ = run_main(
            capsys,
            ["oracle", "--rows", "1", "--cols", "1", "--scale", "1",
             "--profile", "1", "--trials", "200"],
        )
        assert code == 1

    def test_scale_required(self, capsys):
        code, _, _ = run_main(capsys, ["oracle", "--rows", "1", "--cols", "1"])
        assert code == 1


class TestUsage:
    def test_no_subcommand(self, capsys):
        code, _, _ = run_main(capsys, [])
        assert code == 1

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run_main(capsys, ["transmogrify"])
        assert code == 1

    def test_missing_required_flag(self, capsys):
        code, _, _ = run_main(capsys, ["rate"])
        assert code == 1


class TestParserReuse:
    """main() builds its parser once per process; no call leaves state behind."""

    def test_calls_share_one_parser_and_no_state(self, capsys, tmp_path, monkeypatch):
        design = write(tmp_path, "d.cfg", DESIGN)
        sweep = write(
            tmp_path, "s.cfg", "axis = n_e\nvalues = 2, 4\noutputs = exact, asymptotic\n" + POINT
        )
        ok = [["design", "--config", design], ["sweep", "--config", sweep]]
        first = [run_main(capsys, argv) for argv in ok]
        assert [code for code, _, _ in first] == [0, 0]
        code, _, err = run_main(capsys, ["design", "--config", design, "--bogus"])
        assert code == 1 and err == "error: unrecognized arguments: --bogus\n"
        assert run_main(capsys, ["transmogrify"])[0] == 1
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        capsys.readouterr()
        assert [run_main(capsys, argv) for argv in ok] == first

        built = []
        init = cli._Parser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting_init)
        for argv in [*ok, ["transmogrify"], *ok]:
            run_main(capsys, argv)
        assert built == []


class TestSubprocess:
    """End-to-end runs through the real interpreter entry points."""

    def run(self, args, env_extra=None, entry=("-m", "anmimo")):
        env = dict(os.environ)
        env.pop("ANMIMO_WORKERS", None)
        if env_extra:
            env.update(env_extra)
        return subprocess.run(
            [sys.executable, *entry, *args],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )

    def test_rate_sweep_and_design_run_without_numpy(self, capsys, tmp_path):
        rate = write(tmp_path, "p.cfg", POINT)
        sweep = write(
            tmp_path,
            "s.cfg",
            "axis = n_e\nvalues = 2, 4, 6\n"
            "outputs = exact, lower, upper, asymptotic, delta_amax, delta_amin\n"
            "n_a = 6\nn_b = 3\nalpha = 2\nbeta = 0.5\ngamma = 2\n",
        )
        design = write(tmp_path, "d.cfg", DESIGN)
        argvs = [
            ["rate", "--config", rate],
            ["sweep", "--config", sweep],
            ["design", "--config", design],
        ]
        script = (
            "import sys\n"
            "sys.modules['numpy'] = None  # any import of numpy now fails\n"
            "import anmimo\n"
            "from anmimo.cli import main\n"
            f"sys.exit(max(main(argv) for argv in {argvs!r}))\n"
        )
        proc = self.run(["-c", script], entry=[])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "".join(run_main(capsys, argv)[1] for argv in argvs)

    def test_every_command_runs_without_mpmath(self, capsys, tmp_path):
        # the closed forms evaluate T_0 in integers, so the exact rate and
        # its bounds need mpmath no more than the asymptotics do
        sweep = write(
            tmp_path,
            "s.cfg",
            "axis = n_e\nvalues = 2, 4, 6\n"
            "outputs = asymptotic, delta_amax, delta_amin\n"
            "n_a = 6\nn_b = 3\nalpha = 2\nbeta = 0.5\ngamma = 2\n",
        )
        exact_sweep = write(
            tmp_path,
            "e.cfg",
            "axis = n_e\nvalues = 2, 4, 6\n"
            "outputs = exact, lower, upper\n"
            "n_a = 6\nn_b = 3\nalpha = 2\nbeta = 0.5\ngamma = 2\n",
        )
        design = write(tmp_path, "d.cfg", DESIGN)
        point = write(tmp_path, "p.cfg", POINT)
        argvs = [
            ["rate", "--config", point],
            ["sweep", "--config", exact_sweep],
            ["sweep", "--config", sweep],
            ["design", "--config", design],
            ["mc", "--config", point, "--trials", "400", "--seed", "7"],
            ["oracle", "--rows", "2", "--cols", "3", "--scale", "2", "--trials", "500"],
        ]
        script = (
            "import sys\n"
            "import anmimo\n"
            "from anmimo.cli import main\n"
            "assert 'mpmath' not in sys.modules\n"
            "sys.modules['mpmath'] = None  # any import of mpmath now fails\n"
            f"sys.exit(max(main(argv) for argv in {argvs!r}))\n"
        )
        proc = self.run(["-c", script], entry=[])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "".join(run_main(capsys, argv)[1] for argv in argvs)

    def test_cold_rate_report_imports_neither_mpmath_nor_fractions(self):
        script = (
            "import sys\n"
            "from anmimo import SystemConfig, eve_leakage_upper_bound, rate_report, theta\n"
            "rate_report(SystemConfig(16, 8, 16, 2.0, 0.5, 1.0))\n"
            "eve_leakage_upper_bound(SystemConfig(16, 8, 16, 2.0, 0.5, 1.0))\n"
            "theta(16, 16, 0.05)\n"
            "assert 'mpmath' not in sys.modules, 'mpmath'\n"
            "assert 'fractions' not in sys.modules, 'fractions'\n"
        )
        proc = self.run(["-c", script], entry=[])
        assert proc.returncode == 0, proc.stderr

    def test_monte_carlo_names_resolve_on_first_use(self):
        script = (
            "import sys\n"
            "import anmimo\n"
            "assert 'numpy' not in sys.modules\n"
            "rate = anmimo.mc_average_secrecy_rate\n"
            "assert 'numpy' in sys.modules\n"
            "from anmimo.monte_carlo import mc_average_secrecy_rate\n"
            "assert rate is mc_average_secrecy_rate\n"
            "names = {}\n"
            "exec('from anmimo import *', names)\n"
            "assert set(anmimo.__all__) <= set(names)\n"
        )
        proc = self.run(["-c", script], entry=[])
        assert proc.returncode == 0, proc.stderr

    def test_help_exits_zero(self):
        proc = self.run(["--help"])
        assert proc.returncode == 0
        assert "rate" in proc.stdout and "design" in proc.stdout

    @pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"]])
    def test_help_follows_the_terminal_at_call_time(self, tmp_path, argv):
        # the parser is built under 200 columns; help at 40 must still
        # wrap as a fresh process at 40 columns wraps it
        design = write(tmp_path, "d.cfg", DESIGN)
        build = ["design", "--config", design, "--out", str(tmp_path / "d.csv")]
        script = (
            "import os\n"
            "from anmimo.cli import main\n"
            "os.environ['COLUMNS'] = '200'\n"
            f"assert main({build!r}) == 0\n"
            "os.environ['COLUMNS'] = '40'\n"
            f"main({argv!r})\n"
        )
        proc = self.run(["-c", script], entry=[])
        narrow = self.run(argv, env_extra={"COLUMNS": "40"})
        wide = self.run(argv, env_extra={"COLUMNS": "200"})
        assert proc.returncode == narrow.returncode == 0, proc.stderr
        assert proc.stdout == narrow.stdout != wide.stdout

    def test_console_script_installed(self, tmp_path):
        # The `anmimo` script declared in pyproject.toml must start the CLI and
        # pass its return value on as the exit status. The launcher below is the
        # one installers write for a console script, so this holds whether or
        # not the package has been installed.
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["anmimo"]
        ep = importlib.metadata.EntryPoint(name="anmimo", value=target, group="console_scripts")
        assert ep.load() is main

        launcher = tmp_path / "anmimo"
        launcher.write_text(
            "import re\n"
            "import sys\n"
            f"from {ep.module} import {ep.attr}\n"
            "if __name__ == '__main__':\n"
            "    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])\n"
            f"    sys.exit({ep.attr}())\n"
        )
        cfg = write(tmp_path, "p.cfg", POINT)
        args = ["rate", "--config", cfg, "--outputs", "exact"]
        proc = self.run(args, entry=[str(launcher)])
        assert proc.returncode == 0 and "exact" in proc.stdout
        assert proc.stdout == self.run(args).stdout
        absent = str(tmp_path / "absent.cfg")
        missing = self.run(["rate", "--config", absent], entry=[str(launcher)])
        assert missing.returncode == 1

    @pytest.mark.skipif(
        shutil.which("anmimo") is None,
        reason="no anmimo executable on PATH (package not installed)",
    )
    def test_console_script_on_path(self, tmp_path):
        exe = shutil.which("anmimo")
        assert exe is not None
        cfg = write(tmp_path, "p.cfg", POINT)
        proc = subprocess.run(
            [exe, "rate", "--config", cfg, "--outputs", "exact"],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0 and "exact" in proc.stdout

    def test_worker_count_never_changes_bytes(self, tmp_path):
        cfg = write(tmp_path, "p.cfg", "n_a = 16\nn_b = 8\nn_e = 8\nalpha = 2\nbeta = 0.5\ngamma = 2\n")
        sweep = write(
            tmp_path,
            "s.cfg",
            "axis = gamma_db\nvalues = -3, 0, 3\noutputs = exact, mc\n"
            "n_a = 6\nn_b = 3\nn_e = 4\nalpha = 2\nbeta = 0.5\nmc_trials = 2000\nseed = 5\n",
        )
        mc_outs = []
        sweep_outs = []
        for workers in ("1", "4", "8"):
            env = {"ANMIMO_WORKERS": workers}
            mc = self.run(
                ["mc", "--config", cfg, "--trials", "9000", "--seed", "9"], env_extra=env
            )
            sw = self.run(["sweep", "--config", sweep], env_extra=env)
            assert mc.returncode == 0 and sw.returncode == 0
            mc_outs.append(mc.stdout)
            sweep_outs.append(sw.stdout)
        assert mc_outs[0] == mc_outs[1] == mc_outs[2]
        assert sweep_outs[0] == sweep_outs[1] == sweep_outs[2]
