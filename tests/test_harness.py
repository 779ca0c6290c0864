"""Config parsing, point/sweep evaluation, and serialization."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anmimo import (
    ConfigError,
    SweepError,
    SweepSpec,
    SystemConfig,
    average_rate_bounds,
    average_secrecy_rate,
    config_from_mapping,
    critical_eve_antennas,
    design_report,
    format_config,
    parse_config,
    parse_design_text,
    parse_sweep_text,
    point_row,
    rows_to_csv,
    rows_to_json,
    run_point,
    run_sweep,
)
from anmimo.harness import SWEEP_AXES

LN2 = math.log(2.0)

POINT_TEXT = """
# base operating point
n_a = 6
n_b = 3
n_e = 4
alpha_db = 3    # linear 10^0.3
beta_db = -3
gamma_db = 3
"""


def base_cfg():
    return SystemConfig(n_a=6, n_b=3, n_e=4, alpha=2.0, beta=0.5, gamma=2.0)


class TestConfigParsing:
    def test_db_conversion_happens_once(self):
        cfg = parse_config(POINT_TEXT)
        assert cfg.n_a == 6 and cfg.n_b == 3 and cfg.n_e == 4
        assert cfg.alpha == 10.0**0.3
        assert cfg.beta == 10.0**-0.3
        assert cfg.gamma == 10.0**0.3

    def test_linear_keys(self):
        cfg = parse_config("n_a=6\nn_b=3\nn_e=4\nalpha=2\nbeta=0.5\ngamma=2\n")
        assert cfg == base_cfg()

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(POINT_TEXT + "n_a = 8\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(POINT_TEXT + "snr = 3\n")

    def test_unknown_key_in_mapping_rejected(self):
        raw = {"n_a": 6, "n_b": 3, "n_e": 4, "alpha": 2.0, "beta": 0.5, "gamma": 2.0, "delta": 1.0}
        with pytest.raises(ConfigError) as exc:
            config_from_mapping(raw)
        assert str(exc.value) == "unknown key 'delta'"

    def test_both_spellings_rejected(self):
        with pytest.raises(ConfigError, match="not both"):
            parse_config(POINT_TEXT + "alpha = 2\n")

    def test_missing_key_rejected(self):
        with pytest.raises(ConfigError, match="missing gamma"):
            parse_config("n_a=6\nn_b=3\nn_e=4\nalpha=2\nbeta=0.5\n")

    def test_bad_number_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config("n_a = six\n")

    def test_fractional_dimension_rejected(self):
        with pytest.raises(ConfigError, match="integer"):
            parse_config("n_a=6.5\nn_b=3\nn_e=4\nalpha=2\nbeta=0.5\ngamma=2\n")

    def test_bool_dimension_rejected(self):
        # True is not the count 1, in a mapping as in SweepSpec(mc_trials=True)
        raw = {"n_a": 6, "n_b": True, "n_e": True, "alpha": 2.0, "beta": 0.5, "gamma": 2.0}
        with pytest.raises(ConfigError, match="n_b must be an integer, got True"):
            config_from_mapping(raw)

    def test_dimension_constraint_surfaces_as_config_error(self):
        with pytest.raises(ConfigError):
            parse_config("n_a=3\nn_b=6\nn_e=4\nalpha=2\nbeta=0.5\ngamma=2\n")

    @pytest.mark.parametrize("name", ["alpha", "beta", "gamma"])
    def test_db_beyond_float_range_rejected(self, name):
        # 10^(4000/10) overflows; it reaches the finiteness check as inf
        raw = {"n_a": 6, "n_b": 3, "n_e": 4, "alpha": 2.0, "beta": 0.5, "gamma": 2.0}
        del raw[name]
        raw[name + "_db"] = 4000.0
        with pytest.raises(ConfigError, match=f"{name} must be finite .* got inf"):
            config_from_mapping(raw)

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("n_a 6\n")

    def test_format_round_trip(self):
        cfg = parse_config(POINT_TEXT)
        assert parse_config(format_config(cfg)) == cfg
        # %.12g would read 0.1 + 0.2 back as 0.3, another operating point
        cfg = SystemConfig(n_a=6, n_b=3, n_e=4, alpha=0.1 + 0.2, beta=0.5, gamma=2.0)
        assert parse_config(format_config(cfg)) == cfg

    @given(
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=1, max_value=11),
        st.integers(min_value=1, max_value=12),
        st.floats(min_value=0.01, max_value=100.0),
        st.floats(min_value=0.01, max_value=100.0),
        st.floats(min_value=0.01, max_value=100.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip_any_config(self, n_a, n_b, n_e, alpha, beta, gamma):
        if n_b >= n_a:
            n_b = n_a - 1
        cfg = SystemConfig(n_a=n_a, n_b=n_b, n_e=n_e, alpha=alpha, beta=beta, gamma=gamma)
        assert parse_config(format_config(cfg)) == cfg

    def test_design_text_rejects_eavesdropper_count(self):
        with pytest.raises(ConfigError, match="n_e"):
            parse_design_text(POINT_TEXT)

    def test_design_text_parses_transmitter_side(self):
        out = parse_design_text("n_a=6\nn_b=3\nalpha_db=3\nbeta_db=1\ngamma_db=3\n")
        assert out["n_a"] == 6 and out["n_b"] == 3
        assert out["alpha"] == 10.0**0.3
        assert out["beta"] == 10.0**0.1


class TestReadersAgree:
    """Config, design and sweep files read their base point one way."""

    BASE = "n_a = 6\nn_b = 3\nalpha = 2\nbeta = 0.5\ngamma = 2\n"

    @staticmethod
    def refusals(base):
        """The ConfigError text of each reader, given a file around ``base``."""
        files = {
            "config": (parse_config, base + "n_e = 4\n"),
            "design": (parse_design_text, base),
            "sweep": (parse_sweep_text, "axis = n_e\nvalues = 2, 4\noutputs = exact\n" + base),
        }
        messages = {}
        for reader, (parse, text) in files.items():
            try:
                parse(text)
            except ConfigError as exc:
                messages[reader] = str(exc)
        return messages

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("gamma = 2\n", "", "missing gamma (or gamma_db)"),
            ("gamma = 2", "gamma = x", "bad value 'x' for 'gamma'"),
            ("n_a = 6", "n_a = 6.5", "n_a must be an integer, got 6.5"),
            ("alpha = 2\n", "alpha = 2\nalpha_db = 3\n", "give alpha or alpha_db, not both"),
        ],
        ids=["missing-gamma", "bad-number", "fractional-count", "both-spellings"],
    )
    def test_same_message_from_every_reader(self, old, new, message):
        messages = self.refusals(self.BASE.replace(old, new))
        assert messages == {"config": message, "design": message, "sweep": message}

    def test_overflowing_db_refused_by_each_points_own_range(self):
        # the design reader leaves ranges to design_report, which needs alpha > 0
        base = self.BASE.replace("alpha = 2", "alpha_db = 4000")
        message = "alpha must be finite and >= 0, got inf"
        assert self.refusals(base) == {"config": message, "sweep": message}
        fields = parse_design_text(base)
        assert fields["alpha"] == math.inf
        with pytest.raises(ValueError, match="^alpha must be finite and > 0, got inf$"):
            design_report(**fields)


class TestRunPoint:
    def test_exact_carries_clamped_twin(self):
        row = run_point(base_cfg(), ["exact"])
        assert row["exact"] == average_secrecy_rate(base_cfg())
        assert row["exact_clamped"] == max(row["exact"], 0.0)

    def test_mc_carries_stderr(self):
        row = run_point(base_cfg(), ["mc"], mc_trials=500, seed=3)
        assert row["mc_stderr"] > 0.0

    def test_bounds_bracket_exact(self):
        row = run_point(base_cfg(), ["exact", "lower", "upper"])
        assert row["lower"] <= row["exact"] <= row["upper"]

    def test_margin_ordering(self):
        row = run_point(base_cfg(), ["delta_amax", "delta_amin"])
        assert row["delta_amax"] <= row["delta_amin"]

    def test_bits_divide_every_column(self):
        nats = run_point(base_cfg(), ["exact", "lower", "upper", "mc"], mc_trials=500, seed=3)
        bits = run_point(
            base_cfg(), ["exact", "lower", "upper", "mc"], mc_trials=500, seed=3, units="bits"
        )
        assert set(nats) == set(bits)
        for key, value in nats.items():
            assert bits[key] == value / LN2

    def test_duplicate_outputs_collapse(self):
        row = run_point(base_cfg(), ["exact", "exact"])
        assert list(row) == ["exact", "exact_clamped"]

    def test_output_validation(self):
        with pytest.raises(ConfigError, match="unknown output"):
            run_point(base_cfg(), ["exact", "typo"])
        with pytest.raises(ConfigError, match="nonempty"):
            run_point(base_cfg(), [])
        with pytest.raises(ConfigError, match="units"):
            run_point(base_cfg(), ["exact"], units="dB")


class TestSweepSpec:
    def kwargs(self, **over):
        out = dict(base=base_cfg(), axis="n_e", values=(2, 4, 6), outputs=("exact",))
        out.update(over)
        return out

    def test_axis_validation(self):
        with pytest.raises(ConfigError, match="axis"):
            SweepSpec(**self.kwargs(axis="alpha_db"))

    def test_values_must_increase(self):
        with pytest.raises(ConfigError, match="strictly increasing"):
            SweepSpec(**self.kwargs(values=(4, 4, 6)))
        with pytest.raises(ConfigError, match="nonempty"):
            SweepSpec(**self.kwargs(values=()))

    def test_integer_axis_checks_values(self):
        with pytest.raises(ConfigError, match="not an integer"):
            SweepSpec(**self.kwargs(values=(2, 4.5)))

    def test_trials_coercion(self):
        spec = SweepSpec(**self.kwargs(mc_trials=100.0))
        assert spec.mc_trials == 100 and isinstance(spec.mc_trials, int)
        with pytest.raises(ConfigError):
            SweepSpec(**self.kwargs(mc_trials=1))
        for bad in (99.5, True, math.inf, math.nan):
            with pytest.raises(ConfigError, match="mc_trials must be an integer"):
                SweepSpec(**self.kwargs(mc_trials=bad))

    def test_seed_coercion(self):
        spec = SweepSpec(**self.kwargs(seed=7.0))
        assert spec.seed == 7 and isinstance(spec.seed, int)
        for bad in (1.5, True, math.inf, math.nan):
            with pytest.raises(ConfigError, match="seed must be an integer"):
                SweepSpec(**self.kwargs(seed=bad))

    def test_integers_beyond_float_range_kept(self):
        spec = SweepSpec(**self.kwargs(mc_trials=10**401, seed=10**401))
        assert spec.mc_trials == 10**401 and spec.seed == 10**401

    def test_axis_substitution(self):
        spec = SweepSpec(**self.kwargs(axis="gamma_db", values=(-3.0, 0.0, 3.0)))
        cfg = spec.config_at(3.0)
        assert cfg.gamma == 10.0**0.3
        assert cfg.beta == base_cfg().beta

    @pytest.mark.parametrize(
        "axis, values, linear",
        [
            ("n_e", (1.0, 2.0, 7.0), int),
            ("gamma_db", (-7.3, 0.0, 4.1), lambda v: 10.0 ** (v / 10.0)),
            ("beta_db", (-20.0, 1.5, 30.0), lambda v: 10.0 ** (v / 10.0)),
        ],
        ids=["n_e", "gamma_db", "beta_db"],
    )
    def test_rows_change_only_the_axis(self, axis, values, linear):
        base = base_cfg()
        spec = SweepSpec(**self.kwargs(axis=axis, values=values))
        name = axis.removesuffix("_db")
        for v in values:
            want = {k: getattr(base, k) for k in ("n_a", "n_b", "n_e", "alpha", "beta", "gamma")}
            want[name] = linear(v)
            assert spec.config_at(v) == SystemConfig(**want)
        assert spec.configs == tuple(spec.config_at(v) for v in values)

    def test_fail_fast_on_unbuildable_row(self):
        with pytest.raises(ConfigError):
            SweepSpec(**self.kwargs(values=(0, 2)))

    @pytest.mark.parametrize("axis", ["gamma_db", "beta_db"])
    def test_db_row_beyond_float_range_rejected(self, axis):
        name = axis.removesuffix("_db")
        with pytest.raises(ConfigError, match=f"{name} must be finite and > 0, got inf"):
            SweepSpec(**self.kwargs(axis=axis, values=(0.0, 4000.0)))


class TestParseSweepText:
    TEXT = """
axis = gamma_db
values = -4, 0, 4
outputs = exact, lower, upper
n_a = 6
n_b = 3
n_e = 4
alpha_db = 3
beta_db = -3
mc_trials = 400
seed = 11
units = bits
clamp = false
"""

    def test_file_fields(self):
        spec = parse_sweep_text(self.TEXT)
        assert spec.axis == "gamma_db"
        assert spec.values == (-4.0, 0.0, 4.0)
        assert spec.outputs == ("exact", "lower", "upper")
        assert spec.mc_trials == 400 and spec.seed == 11
        assert spec.units == "bits" and spec.clamp is False
        # swept key omitted from the base: first value fills in
        assert spec.base.gamma == 10.0**-0.4

    def test_flag_overrides_beat_file(self):
        spec = parse_sweep_text(self.TEXT, mc_trials=99, seed=5, units="nats", clamp=True)
        assert spec.mc_trials == 99 and spec.seed == 5
        assert spec.units == "nats" and spec.clamp is True

    def test_missing_sections(self):
        with pytest.raises(ConfigError, match="axis"):
            parse_sweep_text("values = 1,2\noutputs = exact\n")
        with pytest.raises(ConfigError, match="values"):
            parse_sweep_text("axis = n_e\noutputs = exact\n")
        with pytest.raises(ConfigError, match="outputs"):
            parse_sweep_text("axis = n_e\nvalues = 1,2\n")

    def test_unsupported_axis_named_before_the_base(self):
        # no n_e line: the base point cannot be built, so the axis is checked first
        text = (
            "axis = alpha_db\nvalues = 1, 2\noutputs = exact\n"
            "n_a = 6\nn_b = 3\nalpha = 2\nbeta = 0.5\ngamma = 2\n"
        )
        with pytest.raises(ConfigError) as exc:
            parse_sweep_text(text)
        assert str(exc.value) == f"axis must be one of {SWEEP_AXES}, got 'alpha_db'"

    def test_bad_values_list(self):
        bad = self.TEXT.replace("-4, 0, 4", "-4, mid, 4")
        with pytest.raises(ConfigError, match="bad sweep values"):
            parse_sweep_text(bad)


class TestRunSweep:
    def test_rows_follow_axis(self):
        spec = SweepSpec(
            base=base_cfg(), axis="n_e", values=(2, 4, 6), outputs=("exact", "lower", "upper")
        )
        rows = run_sweep(spec)
        assert [r["n_e"] for r in rows] == [2, 4, 6]
        for r in rows:
            assert r["lower"] <= r["exact"] <= r["upper"]
        # more eavesdropper antennas never helps
        exact = [r["exact"] for r in rows]
        assert exact == sorted(exact, reverse=True)

    def test_partial_rows_survive_failure(self):
        # at alpha = 1e300, gamma = 90 dB makes alpha * gamma overflow,
        # which only evaluation finds, so the first row completes and the
        # error carries it
        base = SystemConfig(n_a=6, n_b=3, n_e=4, alpha=1e300, beta=0.5, gamma=2.0)
        spec = SweepSpec(base=base, axis="gamma_db", values=(0, 90), outputs=("exact",))
        with pytest.raises(SweepError, match="gamma_db=90") as err:
            run_sweep(spec)
        assert "alpha * gamma must be finite and >= 0, got inf" in str(err.value)
        assert len(err.value.partial_rows) == 1
        assert err.value.partial_rows[0]["gamma"] == 1.0

    def test_bits_apply_per_row(self):
        spec_nats = SweepSpec(base=base_cfg(), axis="n_e", values=(2, 4), outputs=("exact",))
        spec_bits = SweepSpec(
            base=base_cfg(), axis="n_e", values=(2, 4), outputs=("exact",), units="bits"
        )
        for rn, rb in zip(run_sweep(spec_nats), run_sweep(spec_bits)):
            assert rb["exact"] == rn["exact"] / LN2


class TestDesignReport:
    def test_matches_threshold_scan(self):
        rep = design_report(6, 3, alpha=10**0.3, beta=10**0.1, gamma=10**0.3)
        assert (rep["n_sufficient"], rep["n_necessary"]) == critical_eve_antennas(
            6, 3, alpha=10**0.3, beta=10**0.1, gamma=10**0.3
        )
        assert rep["n_sufficient"] <= rep["n_necessary"]

    def test_advisory_outside_trust_region(self):
        # effective SNR floor just under 4: thresholds are indicative only
        rep = design_report(6, 3, alpha=10**0.3, beta=10**0.1, gamma=10**0.3)
        assert rep["advisory"] is True
        solid = design_report(12, 4, alpha=2.0, beta=2.0, gamma=2.0)
        assert solid["advisory"] is False

    def test_small_dimensions_trigger_advisory(self):
        rep = design_report(4, 2, alpha=4.0, beta=2.0, gamma=4.0)
        assert rep["advisory"] is True


class TestSerialization:
    def test_csv_golden(self):
        rows = [
            {"n_a": 6, "n_b": 3, "exact": 1.25, "flag": True},
            {"n_a": 6, "n_b": 3, "exact": -0.5},
        ]
        expect = "n_a,n_b,exact,flag\n6,3,1.25,true\n6,3,-0.5,\n"
        assert rows_to_csv(rows) == expect

    def test_column_order_is_config_then_outputs_then_extras(self):
        row = {
            "upper": 2.0,
            "exact": 1.0,
            "gamma": 2.0,
            "n_a": 6,
            "custom": 7,
            "lower": 0.5,
        }
        header = rows_to_csv([row]).splitlines()[0]
        assert header == "n_a,gamma,exact,lower,upper,custom"

    def test_float_formatting(self):
        text = rows_to_csv([{"exact": 0.1 + 0.2}])
        assert text.splitlines()[1] == "0.3"

    def test_empty_rows(self):
        assert rows_to_csv([]) == ""

    def test_json_round_trip(self):
        rows = [{"n_a": 6, "exact": 1.5, "flag": False}]
        text = rows_to_json(rows)
        assert text.endswith("\n")
        assert json.loads(text) == rows

    def test_point_row_prefixes_config(self):
        row = point_row(base_cfg(), {"exact": 1.0})
        assert list(row)[:6] == ["n_a", "n_b", "n_e", "alpha", "beta", "gamma"]
        assert row["exact"] == 1.0
