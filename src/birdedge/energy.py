"""Energy autonomy sizing for field deployments.

The chain, all in SI units internally (W, J, s, Wh for capacity):

    active_power   = (E_infer + E_dsp) / (t_infer + t_dsp)
    average_power  = duty * active_power + (1 - duty) * p_sleep
    battery_capacity = average_power * autonomy_hours          [Wh]
    charge_power   = capacity / charge_hours                   [W]
    panel_area     = charge_power / (eta_solar * eta_bat * s_rad)

Profiles load from key=value text files whose measured quantities use
field units (mJ, ms, mW, percent); the irradiance table is a 12 row CSV of
monthly mean solar radiation in W/m^2.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from .exceptions import ConfigError

_FULL_MONTH_NAMES = (
    "january", "february", "march", "april", "may", "june", "july",
    "august", "september", "october", "november", "december",
)
MONTH_NAMES = tuple(name[:3] for name in _FULL_MONTH_NAMES)
# Every accepted irradiance month label: 1..12, or at least three letters
# of the English month name, up to the whole name ("sep", "sept", ...).
_MONTH_LABELS = {
    label: month
    for month, name in enumerate(_FULL_MONTH_NAMES, start=1)
    for label in (str(month), *(name[:n] for n in range(3, len(name) + 1)))
}

# Deployment constants: two days of autonomy, recharged within one day,
# 10 percent recording duty cycle, 20 percent panel and 90 percent charge
# efficiency.
DEFAULT_DUTY = 0.10
DEFAULT_AUTONOMY_HOURS = 48.0
DEFAULT_CHARGE_HOURS = 24.0
DEFAULT_ETA_SOLAR = 0.20
DEFAULT_ETA_BAT = 0.90


@dataclass(frozen=True)
class DeploymentProfile:
    """Measured platform numbers plus deployment assumptions, SI units, all finite."""

    e_infer_j: float
    t_infer_s: float
    e_dsp_j: float
    t_dsp_s: float
    p_sleep_w: float
    duty: float = DEFAULT_DUTY
    autonomy_hours: float = DEFAULT_AUTONOMY_HOURS
    charge_hours: float = DEFAULT_CHARGE_HOURS
    eta_solar: float = DEFAULT_ETA_SOLAR
    eta_bat: float = DEFAULT_ETA_BAT

    def __post_init__(self):
        for field in fields(self):
            _check(field.name, getattr(self, field.name), field.name)


_MEASURED = tuple(f.name for f in fields(DeploymentProfile) if f.default is MISSING)


def _check(name: str, value: float, field: str, per_si: float = 1.0) -> None:
    """Raise ConfigError, naming `name`, unless value is allowed for field.

    value counts units of 1/per_si of the field's SI unit (per_si=1e3 for
    mJ, 100 for percent), and the message states the range in those units.
    """
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value}")
    if field in _MEASURED and value < 0:
        raise ConfigError(f"{name} must be >= 0, got {value}")
    if field == "duty" and not 0.0 <= value <= per_si:
        raise ConfigError(f"{name} must be in [0, {per_si:g}], got {value}")
    if field.endswith("_hours") and value <= 0:
        raise ConfigError(f"{name} must be > 0, got {value}")
    # value / per_si is the stored fraction: a positive value can underflow to 0
    if field.startswith("eta_") and not (0.0 < value / per_si and value <= per_si):
        raise ConfigError(f"{name} must be in (0, {per_si:g}], got {value}")


def active_power(profile: DeploymentProfile) -> float:
    """Mean power while processing, W: total energy over total time."""
    return (profile.e_infer_j + profile.e_dsp_j) / (profile.t_infer_s + profile.t_dsp_s)


def average_power(profile: DeploymentProfile) -> float:
    """Duty-weighted mean of active and sleep power, W."""
    return profile.duty * active_power(profile) + (1.0 - profile.duty) * (
        profile.p_sleep_w
    )


def battery_capacity(profile: DeploymentProfile) -> float:
    """Capacity in Wh to ride out autonomy_hours at average power."""
    return average_power(profile) * profile.autonomy_hours


def charge_power(capacity_wh: float, charge_hours: float) -> float:
    """Power in W needed to refill capacity_wh within charge_hours."""
    return capacity_wh / charge_hours


def panel_area(
    charge_w: float, s_rad_w_m2: float, eta_solar: float, eta_bat: float
) -> float:
    """Solar panel area in m^2 delivering charge_w at irradiance s_rad."""
    return charge_w / (eta_solar * eta_bat * s_rad_w_m2)


@dataclass(frozen=True)
class MonthlyRequirement:
    """One row of the sizing report."""

    month: int           # 1..12
    s_rad_w_m2: float
    average_power_w: float
    battery_wh: float
    charge_power_w: float
    panel_area_m2: float
    worst: bool          # largest panel area of the year


def monthly_report(
    profile: DeploymentProfile, irradiance: dict[int, float]
) -> list[MonthlyRequirement]:
    """Apply the sizing chain to every month and flag the worst one.

    The battery and charging stages do not depend on the month; only the
    panel area scales with irradiance. All arithmetic is full precision.
    """
    if sorted(irradiance) != list(range(1, 13)):
        raise ConfigError(f"irradiance table must cover months 1..12, got {sorted(irradiance)}")
    for month, s_rad in irradiance.items():
        if not 0 < s_rad < math.inf:  # as parse_irradiance checks a file's
            raise ConfigError(
                f"month {month}: irradiance must be finite and positive, got {s_rad}")
    avg = average_power(profile)
    capacity = battery_capacity(profile)
    charge = charge_power(capacity, profile.charge_hours)
    # finite positive inputs can still underflow panel_area's denominator to 0
    if any(profile.eta_solar * profile.eta_bat * s_rad == 0 for s_rad in irradiance.values()):
        raise ConfigError("sizing underflows: efficiency x irradiance is 0")
    areas = {
        month: panel_area(charge, s_rad, profile.eta_solar, profile.eta_bat)
        for month, s_rad in irradiance.items()
    }
    # finite inputs can still overflow the chain; inf or NaN propagates to
    # every panel area, so checking the areas covers every column
    if not all(math.isfinite(area) for area in areas.values()):
        raise ConfigError("sizing overflows: profile or irradiance values too extreme")
    worst_area = max(areas.values())
    return [
        MonthlyRequirement(
            month=month,
            s_rad_w_m2=irradiance[month],
            average_power_w=avg,
            battery_wh=capacity,
            charge_power_w=charge,
            panel_area_m2=areas[month],
            worst=areas[month] == worst_area,
        )
        for month in range(1, 13)
    ]


# Profile files use field units. Internal storage is SI. Each profile key
# maps to its DeploymentProfile field and its units per SI unit.
_PROFILE_KEYS = {
    "e_infer_mj": ("e_infer_j", 1e3),
    "t_infer_ms": ("t_infer_s", 1e3),
    "e_dsp_mj": ("e_dsp_j", 1e3),
    "t_dsp_ms": ("t_dsp_s", 1e3),
    "p_sleep_mw": ("p_sleep_w", 1e3),
    "duty_percent": ("duty", 100.0),
    "autonomy_hours": ("autonomy_hours", 1.0),
    "charge_hours": ("charge_hours", 1.0),
    "eta_solar_percent": ("eta_solar", 100.0),
    "eta_bat_percent": ("eta_bat", 100.0),
}
_REQUIRED_KEYS = tuple(key for key, (field, _) in _PROFILE_KEYS.items() if field in _MEASURED)


def parse_profile(text: str) -> DeploymentProfile:
    """Parse a key = value profile; '#' starts a comment.

    Measured keys (e_infer_mj, t_infer_ms, e_dsp_mj, t_dsp_ms, p_sleep_mw)
    are required; deployment keys fall back to the standard assumptions.
    Unknown keys, malformed lines, out-of-range values and a zero active
    time (t_infer_ms + t_dsp_ms) raise ConfigError; a range error names the
    key and states the range in its units.
    """
    values: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key not in _PROFILE_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = float(value.strip())
        except ValueError:
            raise ConfigError(f"line {lineno}: bad number {value.strip()!r}") from None

    missing = [k for k in _REQUIRED_KEYS if k not in values]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")

    si = {}
    for key, value in values.items():
        field, per_si = _PROFILE_KEYS[key]
        _check(key, value, field, per_si)
        si[field] = value / per_si
    # active_power divides by this sum, which a tiny time can underflow to 0
    if si["t_infer_s"] + si["t_dsp_s"] == 0:
        raise ConfigError("t_infer_ms + t_dsp_ms must be > 0: the active time is 0 s")
    return DeploymentProfile(**si)


def _read_text(path) -> str:
    """A UTF-8 text file; bytes that are not UTF-8 are a ConfigError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: {err}") from None


def load_profile(path) -> DeploymentProfile:
    return parse_profile(_read_text(path))


def parse_irradiance(text: str) -> dict[int, float]:
    """Parse the 12 row CSV under the header month,s_rad_w_m2 (each field
    stripped, any case); a month is 1..12 or at least the first three
    letters of its English name, any case ("sep", "Sept").

    Every irradiance must be finite and positive. A malformed row, an
    over-long field included, raises ConfigError.
    """
    table: dict[int, float] = {}
    # rows end only where the csv module ends them, as in read_trials_csv:
    # str.splitlines would also break at a form feed, \x85 or U+2028
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = list(reader)
    except csv.Error as err:
        raise ConfigError(f"irradiance line {reader.line_num}: {err}") from None
    header = rows[0] if rows else None
    if header is None or [h.strip().lower() for h in header] != ["month", "s_rad_w_m2"]:
        raise ConfigError(f"expected a month,s_rad_w_m2 header, got {header}")
    for row in rows[1:]:
        if not row:
            continue
        if len(row) != 2:
            raise ConfigError(f"bad irradiance row {row}")
        month = _MONTH_LABELS.get(row[0].strip().lower())
        if month is None:
            raise ConfigError(f"unknown month {row[0]!r}")
        if month in table:
            raise ConfigError(f"duplicate month {row[0]!r}")
        try:
            value = float(row[1])
        except ValueError:
            raise ConfigError(f"bad irradiance value {row[1]!r}") from None
        if not 0 < value < math.inf:
            raise ConfigError(f"irradiance must be finite and positive, got {value}")
        table[month] = value
    if len(table) != 12:
        raise ConfigError(f"irradiance table has {len(table)} months, need 12")
    return table


def load_irradiance(path) -> dict[int, float]:
    return parse_irradiance(_read_text(path))
