"""Integer arguments at every public entry go through one validator.

A numpy integer is as good as an int: each entry gives the same result
for np.int64(k) as for k, and stores or returns plain ints. A bool is
not a count anywhere and raises DomainError, as a float does.
"""

import numpy as np
import pytest

from anmimo import (
    DomainError,
    SystemConfig,
    critical_eve_antennas,
    design_report,
    mc_average_secrecy_rate,
    mc_logdet_oracle,
    mc_normalized_rate_sample,
    sample_channel,
    theta,
)

CFG = SystemConfig(n_a=6, n_b=3, n_e=4, alpha=2.0, beta=0.5, gamma=2.0)


def _channel(trial_index, seed):
    ch = sample_channel(CFG, trial_index, seed)
    return tuple(a.tobytes() for a in (ch.h, ch.g, ch.v1, ch.z))


def _config(n_a, n_b, n_e):
    cfg = SystemConfig(n_a=n_a, n_b=n_b, n_e=n_e, alpha=2.0, beta=0.5, gamma=2.0)
    return cfg, tuple(type(v) for v in (cfg.n_a, cfg.n_b, cfg.n_e))


def _design(n_a, n_b, max_eve_antennas):
    report = design_report(n_a, n_b, 2.0, 0.5, 2.0, max_eve_antennas=max_eve_antennas)
    return report, type(report["n_a"]), type(report["n_b"])


# each entry with its integer arguments; the result must not depend on
# whether they arrive as int or np.int64
ENTRIES = {
    "SystemConfig": (_config, (6, 3, 4)),
    "theta": (lambda m, n: theta(m, n, 2.0), (3, 5)),
    "critical_eve_antennas": (
        lambda n_a, n_b, cap: critical_eve_antennas(n_a, n_b, 2.0, 0.5, 2.0, cap),
        (6, 3, 64),
    ),
    "design_report": (_design, (6, 3, 64)),
    "sample_channel": (_channel, (5, 7)),
    "mc_average_secrecy_rate": (
        lambda trials, seed: mc_average_secrecy_rate(CFG, trials, seed=seed), (40, 3)
    ),
    "mc_logdet_oracle": (
        lambda rows, cols, trials, seed: mc_logdet_oracle(rows, cols, 1.5, trials, seed=seed),
        (2, 3, 40, 3),
    ),
    "mc_normalized_rate_sample": (
        lambda realizations, seed: mc_normalized_rate_sample(CFG, realizations, seed=seed),
        (6, 3),
    ),
}


@pytest.mark.parametrize("entry", list(ENTRIES))
def test_numpy_integers_match_ints(entry):
    fn, args = ENTRIES[entry]
    assert fn(*(np.int64(a) for a in args)) == fn(*args)


@pytest.mark.parametrize("entry", list(ENTRIES))
def test_bool_is_not_an_integer(entry):
    fn, args = ENTRIES[entry]
    for i in range(len(args)):
        bad = args[:i] + (True,) + args[i + 1:]
        with pytest.raises(DomainError, match="must be an integer, got True"):
            fn(*bad)
