"""Config files, single-point evaluation, sweeps, and stable CSV/JSON output.

Text configs are flat ``key = value`` lines. SNR-like quantities accept
either a linear key (``alpha``) or a decibel key (``alpha_db``); supplying
both is an error, and the dB form is converted exactly once, at the parse
boundary. Unit conversion (nats to bits) likewise happens at exactly one
point, after all rate columns are assembled, so every output path agrees.

One reader states what a point is, for config, design and sweep files
alike: ``_floats`` turns the file's strings into numbers, ``_point_fields``
checks the antenna counts and resolves alpha, beta and gamma, and
``POINT_COLUMNS`` orders the six point fields wherever they are written.

CSV bytes are deterministic: fixed column order, ``%.12g`` floats, and a
bare-newline line terminator regardless of platform.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .asymptotics import (
    AsymptoticRatios,
    _in_trust_region,
    a_min_max,
    critical_eve_antennas,
    delta_highsnr,
    psi,
)
from .closed_form import SystemConfig, _rate_values
from .errors import _MAX_SEED, ConfigError, SweepError

LN2 = math.log(2.0)

# the six fields of an operating point, in the order every output uses
POINT_COLUMNS: Tuple[str, ...] = ("n_a", "n_b", "n_e", "alpha", "beta", "gamma")

CONFIG_KEYS = frozenset(POINT_COLUMNS + ("alpha_db", "beta_db", "gamma_db"))

# every column a point evaluation can emit, in canonical order
OUTPUT_COLUMNS: Tuple[str, ...] = (
    "exact",
    "exact_clamped",
    "asymptotic",
    "lower",
    "upper",
    "mc",
    "mc_stderr",
    "delta_amax",
    "delta_amin",
)

# names callers may request; derived columns come along automatically
REQUESTABLE_OUTPUTS = frozenset(
    {"exact", "asymptotic", "lower", "upper", "mc", "delta_amax", "delta_amin"}
)

SWEEP_AXES = ("gamma_db", "beta_db", "n_e")


def _parse_lines(text: str, allowed: frozenset) -> Dict[str, str]:
    """Shared line scanner: ``key = value``, ``#`` comments, no duplicates."""
    out: Dict[str, str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in allowed:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def parse_config_text(text: str) -> Dict[str, float]:
    """Parse flat ``key = value`` lines into a raw numeric mapping.

    ``#`` starts a comment; blank lines are skipped. Duplicate keys,
    unknown keys, and unparseable values are all rejected rather than
    silently last-one-wins.
    """
    return _floats(_parse_lines(text, CONFIG_KEYS))


def _floats(pairs: Mapping[str, str]) -> Dict[str, float]:
    """Each value of ``pairs`` as a float; ConfigError names the first bad one."""
    out: Dict[str, float] = {}
    for key, value in pairs.items():
        try:
            out[key] = float(value)
        except ValueError:
            raise ConfigError(f"bad value {value!r} for {key!r}") from None
    return out


def _whole_number(value, message: str) -> int:
    """``value`` as an int; ConfigError(message) unless it is a whole number.

    A bool is refused, not read as 0 or 1. An int skips float(), which
    raises OverflowError beyond float range.
    """
    if isinstance(value, bool):
        raise ConfigError(message)
    if isinstance(value, int):
        return int(value)
    if not float(value).is_integer():
        raise ConfigError(message)
    return int(value)


def _db_to_linear(db: float) -> float:
    """10^(db/10); inf past float range, for the finiteness checks to refuse."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        return math.inf


def _resolve_linear(raw: Mapping[str, float], name: str) -> float:
    db_name = name + "_db"
    if name in raw and db_name in raw:
        raise ConfigError(f"give {name} or {db_name}, not both")
    if db_name in raw:
        return _db_to_linear(raw[db_name])
    if name in raw:
        return raw[name]
    raise ConfigError(f"missing {name} (or {db_name})")


def _point_fields(raw: Mapping[str, float], counts: Sequence[str]) -> Dict[str, float]:
    """The named antenna counts as ints, then linear alpha, beta and gamma.

    ConfigError for a missing or fractional count, or a level given both
    ways or not at all. Ranges are left to what the fields are passed to
    (SystemConfig, or design_report for a design file).
    """
    fields: Dict[str, float] = {}
    for name in counts:
        if name not in raw:
            raise ConfigError(f"missing {name}")
        fields[name] = _whole_number(raw[name], f"{name} must be an integer, got {raw[name]!r}")
    for name in ("alpha", "beta", "gamma"):
        fields[name] = _resolve_linear(raw, name)
    return fields


def config_from_mapping(raw: Mapping[str, float]) -> SystemConfig:
    """Build a validated system description from parsed key/value pairs."""
    for key in raw:
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown key {key!r}")
    fields = _point_fields(raw, ("n_a", "n_b", "n_e"))
    try:
        return SystemConfig(**fields)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_config(text: str) -> SystemConfig:
    return config_from_mapping(parse_config_text(text))


def parse_design_text(text: str) -> Dict[str, float]:
    """Parse a transmitter-side config (no eavesdropper count) for design.

    Accepts the same keys as a plain config except n_e, which must be
    absent: the design question is how many eavesdropper antennas the
    given transmitter can tolerate.
    """
    raw = parse_config_text(text)
    if "n_e" in raw:
        raise ConfigError("design config must not fix n_e; it is the unknown")
    return _point_fields(raw, ("n_a", "n_b"))


def format_config(cfg: SystemConfig) -> str:
    """Render a config as parseable text; round-trips exactly through parse_config."""
    return "".join(f"{name} = {getattr(cfg, name)!r}\n" for name in POINT_COLUMNS)


def _check_outputs(outputs: Sequence[str], units: str) -> List[str]:
    """The requested outputs, duplicates dropped; then the units are checked."""
    if not outputs:
        raise ConfigError("outputs must be a nonempty list")
    seen = []
    for name in outputs:
        if name not in REQUESTABLE_OUTPUTS:
            raise ConfigError(
                f"unknown output {name!r}; valid: {sorted(REQUESTABLE_OUTPUTS)}"
            )
        if name not in seen:
            seen.append(name)
    if units not in ("nats", "bits"):
        raise ConfigError(f"units must be 'nats' or 'bits', got {units!r}")
    return seen


def run_point(
    cfg: SystemConfig,
    outputs: Sequence[str],
    *,
    mc_trials: int = 10000,
    seed: int = 0,
    units: str = "nats",
    clamp: bool = True,
) -> Dict[str, float]:
    """Evaluate the requested quantities at one operating point.

    Returns a dict keyed by column name. Requesting "exact" also yields
    "exact_clamped" (the value floored at zero), and "mc" also yields
    "mc_stderr". With units="bits" every rate-like column is divided by
    ln 2 in a single pass at the end.
    """
    wanted = _check_outputs(outputs, units)
    row: Dict[str, float] = {}
    if "exact" in wanted or "lower" in wanted or "upper" in wanted:
        # one evaluation of what is asked: the rate and its bounds share their terms
        values = _rate_values("run_point", cfg, wanted)
    if "exact" in wanted:
        row.update(exact=values["exact"], exact_clamped=max(values["exact"], 0.0))
    # the asymptotic column and the margins share one set of ratios
    ratios = None
    if "asymptotic" in wanted:
        ratios = AsymptoticRatios.from_config(cfg)
        row["asymptotic"] = cfg.n_b * psi(ratios) if cfg.alpha != 0.0 else 0.0
    row.update((name, values[name]) for name in ("lower", "upper") if name in wanted)
    if "mc" in wanted:
        from .monte_carlo import mc_average_secrecy_rate  # numpy only when MC runs

        est = mc_average_secrecy_rate(cfg, mc_trials, seed=seed, clamp=clamp)
        row["mc"] = est.mean
        row["mc_stderr"] = est.stderr
    if "delta_amax" in wanted or "delta_amin" in wanted:
        if ratios is None:
            ratios = AsymptoticRatios.from_config(cfg)
        a_min, a_max = a_min_max(ratios)
        if "delta_amax" in wanted:
            row["delta_amax"] = delta_highsnr(a_max, ratios)
        if "delta_amin" in wanted:
            row["delta_amin"] = delta_highsnr(a_min, ratios)
    if units == "bits":
        row = {k: v / LN2 for k, v in row.items()}
    return row


def _check_axis(axis: str) -> None:
    if axis not in SWEEP_AXES:
        raise ConfigError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")


@dataclass(frozen=True)
class SweepSpec:
    """A one-axis parameter sweep around a base operating point.

    axis is one of gamma_db, beta_db, n_e; values must be strictly
    increasing. Each row evaluates the base config with that axis value
    substituted (dB axes converted to linear scale per row); configs
    holds those row configs, built once when the spec is.
    """

    base: SystemConfig
    axis: str
    values: Tuple[float, ...]
    outputs: Tuple[str, ...]
    mc_trials: int = 10000
    seed: int = 0
    units: str = "nats"
    clamp: bool = True
    configs: Tuple[SystemConfig, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_axis(self.axis)
        values = tuple(float(v) for v in self.values)
        if not values:
            raise ConfigError("sweep values must be nonempty")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ConfigError("sweep values must be strictly increasing")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "outputs", tuple(_check_outputs(self.outputs, self.units)))
        trials = _whole_number(
            self.mc_trials, f"mc_trials must be an integer, got {self.mc_trials!r}"
        )
        if trials < 2:
            raise ConfigError(f"mc_trials must be >= 2, got {self.mc_trials}")
        object.__setattr__(self, "mc_trials", trials)
        seed = _whole_number(self.seed, f"seed must be an integer, got {self.seed!r}")
        if not 0 <= seed < _MAX_SEED:
            raise ConfigError(f"seed must fit in 64 unsigned bits, got {seed}")
        object.__setattr__(self, "seed", seed)
        # fail fast if any row cannot even be constructed
        object.__setattr__(self, "configs", tuple(self.config_at(v) for v in values))

    def config_at(self, value: float) -> SystemConfig:
        if self.axis == "n_e":
            change = {"n_e": _sweep_n_e(value)}
        else:
            change = {self.axis.removesuffix("_db"): _db_to_linear(value)}
        try:
            return replace(self.base, **change)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


def _sweep_n_e(value: float) -> int:
    return _whole_number(value, f"n_e sweep value {value!r} is not an integer")


SWEEP_FILE_KEYS = CONFIG_KEYS | {"axis", "values", "outputs", "mc_trials", "seed", "units", "clamp"}


def parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low == "true":
        return True
    if low == "false":
        return False
    raise ConfigError(f"expected true or false, got {text!r}")


def parse_sweep_text(
    text: str,
    *,
    mc_trials: Optional[int] = None,
    seed: Optional[int] = None,
    units: Optional[str] = None,
    clamp: Optional[bool] = None,
) -> SweepSpec:
    """Parse a sweep description file into a validated SweepSpec.

    The file holds the base operating point (same keys as a plain config,
    where the swept axis key may be omitted) plus ``axis``, comma-separated
    ``values`` and ``outputs``, and optional ``mc_trials`` / ``seed`` /
    ``units`` / ``clamp``. Keyword arguments override the file (they carry
    command-line flags, which win over file contents).
    """
    raw = _parse_lines(text, SWEEP_FILE_KEYS)
    if "axis" not in raw:
        raise ConfigError("sweep file missing axis")
    axis = raw.pop("axis")
    if "values" not in raw:
        raise ConfigError("sweep file missing values")
    try:
        values = tuple(float(v) for v in raw.pop("values").split(","))
    except ValueError as exc:
        raise ConfigError(f"bad sweep values: {exc}") from None
    if "outputs" not in raw:
        raise ConfigError("sweep file missing outputs")
    outputs = tuple(s.strip() for s in raw.pop("outputs").split(",") if s.strip())

    # the file's settings, then the flags over them; SweepSpec holds the
    # defaults for whatever neither gives
    settings = {}
    for key in ("mc_trials", "seed"):
        if key in raw:
            value = raw.pop(key)
            try:
                settings[key] = int(value)
            except ValueError:
                raise ConfigError(f"bad value {value!r} for {key!r}") from None
    if "units" in raw:
        settings["units"] = raw.pop("units")
    if "clamp" in raw:
        settings["clamp"] = parse_bool(raw.pop("clamp"))
    flags = {"mc_trials": mc_trials, "seed": seed, "units": units, "clamp": clamp}
    settings.update((k, v) for k, v in flags.items() if v is not None)

    # checked before the base point, whose own errors would hide a bad axis
    _check_axis(axis)
    base_raw = _floats(raw)
    # the swept coordinate may be left out of the base point; any value
    # from the axis list is substituted per row anyway
    if axis not in base_raw and axis.removesuffix("_db") not in base_raw:
        base_raw[axis] = _sweep_n_e(values[0]) if axis == "n_e" else values[0]
    base = config_from_mapping(base_raw)
    return SweepSpec(
        base=base,
        axis=axis,
        values=values,
        outputs=outputs,
        **settings,
    )


def run_sweep(spec: SweepSpec) -> List[Dict[str, float]]:
    """Evaluate every sweep row in order, same seed for every row.

    Reusing the seed keeps rows comparable (common random numbers): the
    MC column then varies smoothly along the axis instead of jittering.
    A failure partway raises a SweepError carrying the completed rows.
    """
    rows: List[Dict[str, float]] = []
    for value, cfg in zip(spec.values, spec.configs):
        try:
            row = run_point(
                cfg,
                spec.outputs,
                mc_trials=spec.mc_trials,
                seed=spec.seed,
                units=spec.units,
                clamp=spec.clamp,
            )
        except Exception as exc:
            raise SweepError(
                f"sweep failed at {spec.axis}={value!r}: {exc}", partial_rows=rows
            ) from exc
        rows.append(point_row(cfg, row))
    return rows


def point_row(cfg: SystemConfig, computed: Mapping[str, float]) -> Dict[str, float]:
    """Prepend the config columns to a computed output mapping."""
    row: Dict[str, float] = {name: getattr(cfg, name) for name in POINT_COLUMNS}
    row.update(computed)
    return row


def design_report(
    n_a: int,
    n_b: int,
    alpha: float,
    beta: float,
    gamma: float,
    max_eve_antennas: int = 4096,
) -> Dict[str, object]:
    """Largest eavesdropper sizes with positive high-SNR secrecy margin.

    n_sufficient uses the pessimistic margin (guaranteed positive rate up
    to that many antennas), n_necessary the optimistic one (beyond it the
    rate is negative for sure). The advisory flag is set when the
    operating point sits outside the regime where the large-system
    approximation is trustworthy (moderate SNR or very small dimensions),
    in which case the thresholds are indicative only.
    """
    n_suff, n_nec = critical_eve_antennas(
        n_a, n_b, alpha, beta, gamma, max_eve_antennas=max_eve_antennas
    )
    n_a, n_b = int(n_a), int(n_b)  # validated above; the report holds plain ints
    advisory = not _in_trust_region(alpha, beta, gamma, n_a, n_b, n_a - n_b)
    return {
        "n_a": n_a,
        "n_b": n_b,
        "alpha": float(alpha),
        "beta": float(beta),
        "gamma": float(gamma),
        "n_sufficient": n_suff,
        "n_necessary": n_nec,
        "advisory": advisory,
    }


def _column_order(rows: Sequence[Mapping[str, object]]) -> List[str]:
    present = set()
    for row in rows:
        present.update(row.keys())
    ordered = [c for c in POINT_COLUMNS if c in present]
    ordered += [c for c in OUTPUT_COLUMNS if c in present]
    # anything nonstandard (e.g. design report fields) keeps first-seen order
    for row in rows:
        for key in row:
            if key not in ordered:
                ordered.append(key)
    return ordered


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def rows_to_csv(rows: Sequence[Mapping[str, object]]) -> str:
    """Serialize rows to CSV with a stable header and %.12g floats.

    The byte stream depends only on the row contents: fixed column order,
    "\\n" line endings on every platform.
    """
    if not rows:
        return ""
    columns = _column_order(rows)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_format_cell(row[c]) if c in row else "" for c in columns])
    return buf.getvalue()


def rows_to_json(rows: Sequence[Mapping[str, object]]) -> str:
    return json.dumps(list(rows), indent=2) + "\n"
