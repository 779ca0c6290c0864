"""Secrecy-rate analysis for artificial-noise MIMO wiretap transmission.

Closed-form average secrecy rates, two-sided bounds, large-system
asymptotics with design thresholds, and a reproducible Monte Carlo
ground truth, plus a config/sweep harness and CLI. The Monte Carlo names
load ``monte_carlo``, and with it numpy, on first use.
"""

from .asymptotics import (
    AsymptoticRatios,
    DeltaSolution,
    a_min_max,
    applicability_guard,
    asymptotic_average_rate,
    critical_eve_antennas,
    delta_equal_scales,
    delta_highsnr,
    eta_of_delta,
    f_func,
    phi_func,
    positivity_conditions,
    psi,
    solve_delta,
    v_of_delta,
)
from .closed_form import (
    RateReport,
    SystemConfig,
    average_rate_bounds,
    average_secrecy_rate,
    bob_capacity,
    eve_leakage_upper_bound,
    omega,
    rate_report,
    theta,
)
from .errors import (
    ConfigError,
    DomainError,
    NoRootError,
    NumericError,
    SweepError,
    UnboundedRangeError,
)
from .harness import (
    SweepSpec,
    config_from_mapping,
    design_report,
    format_config,
    parse_config,
    parse_config_text,
    parse_design_text,
    parse_sweep_text,
    point_row,
    rows_to_csv,
    rows_to_json,
    run_point,
    run_sweep,
)

_MONTE_CARLO_NAMES = frozenset(
    {
        "ChannelRealization",
        "MCEstimate",
        "instantaneous_secrecy_rate",
        "mc_average_secrecy_rate",
        "mc_logdet_oracle",
        "mc_normalized_rate_sample",
        "sample_channel",
    }
)


def __getattr__(name):
    # PEP 562: only Monte Carlo needs numpy, so it is imported on first use
    if name in _MONTE_CARLO_NAMES:
        from . import monte_carlo

        return getattr(monte_carlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "AsymptoticRatios",
    "ChannelRealization",
    "ConfigError",
    "DeltaSolution",
    "DomainError",
    "MCEstimate",
    "NoRootError",
    "NumericError",
    "RateReport",
    "SweepError",
    "SweepSpec",
    "SystemConfig",
    "UnboundedRangeError",
    "a_min_max",
    "applicability_guard",
    "asymptotic_average_rate",
    "average_rate_bounds",
    "average_secrecy_rate",
    "bob_capacity",
    "config_from_mapping",
    "critical_eve_antennas",
    "delta_equal_scales",
    "delta_highsnr",
    "design_report",
    "eta_of_delta",
    "eve_leakage_upper_bound",
    "f_func",
    "format_config",
    "instantaneous_secrecy_rate",
    "mc_average_secrecy_rate",
    "mc_logdet_oracle",
    "mc_normalized_rate_sample",
    "omega",
    "parse_config",
    "parse_config_text",
    "parse_design_text",
    "parse_sweep_text",
    "phi_func",
    "positivity_conditions",
    "psi",
    "rate_report",
    "rows_to_csv",
    "rows_to_json",
    "run_point",
    "run_sweep",
    "sample_channel",
    "solve_delta",
    "theta",
    "v_of_delta",
    "__version__",
]
