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
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .exceptions import ConfigError

MONTH_NAMES = (
    "jan", "feb", "mar", "apr", "may", "jun",
    "jul", "aug", "sep", "oct", "nov", "dec",
)

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
            value = getattr(self, field.name)
            if not math.isfinite(value):
                raise ConfigError(f"{field.name} must be finite, got {value}")
        for name in ("e_infer_j", "t_infer_s", "e_dsp_j", "t_dsp_s", "p_sleep_w"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if not 0.0 <= self.duty <= 1.0:
            raise ConfigError(f"duty must be in [0, 1], got {self.duty}")
        for name in ("autonomy_hours", "charge_hours"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        for name in ("eta_solar", "eta_bat"):
            if not 0.0 < getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must be in (0, 1]")


def active_power(profile: DeploymentProfile) -> float:
    """Mean power while processing, W: total energy over total time."""
    total_time = profile.t_infer_s + profile.t_dsp_s
    if total_time == 0:
        raise ZeroDivisionError("active time is zero")
    return (profile.e_infer_j + profile.e_dsp_j) / total_time


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
    if charge_hours == 0:
        raise ZeroDivisionError("charge window is zero")
    return capacity_wh / charge_hours


def panel_area(
    charge_w: float, s_rad_w_m2: float, eta_solar: float, eta_bat: float
) -> float:
    """Solar panel area in m^2 delivering charge_w at irradiance s_rad."""
    denom = eta_solar * eta_bat * s_rad_w_m2
    if denom == 0:
        raise ZeroDivisionError("irradiance or efficiency is zero")
    return charge_w / denom


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
    avg = average_power(profile)
    capacity = battery_capacity(profile)
    charge = charge_power(capacity, profile.charge_hours)
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


# Profile files use field units. Internal storage is SI.
_REQUIRED_KEYS = ("e_infer_mj", "t_infer_ms", "e_dsp_mj", "t_dsp_ms", "p_sleep_mw")
_OPTIONAL_KEYS = (
    "duty_percent",
    "autonomy_hours",
    "charge_hours",
    "eta_solar_percent",
    "eta_bat_percent",
)


def parse_profile(text: str) -> DeploymentProfile:
    """Parse a key = value profile; '#' starts a comment.

    Measured keys (e_infer_mj, t_infer_ms, e_dsp_mj, t_dsp_ms, p_sleep_mw)
    are required; deployment keys fall back to the standard assumptions.
    Unknown keys and malformed lines raise ConfigError.
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
        if key not in _REQUIRED_KEYS + _OPTIONAL_KEYS:
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

    profile = DeploymentProfile(
        e_infer_j=values["e_infer_mj"] / 1e3,
        t_infer_s=values["t_infer_ms"] / 1e3,
        e_dsp_j=values["e_dsp_mj"] / 1e3,
        t_dsp_s=values["t_dsp_ms"] / 1e3,
        p_sleep_w=values["p_sleep_mw"] / 1e3,
    )
    if "duty_percent" in values:
        profile = replace(profile, duty=values["duty_percent"] / 100.0)
    if "autonomy_hours" in values:
        profile = replace(profile, autonomy_hours=values["autonomy_hours"])
    if "charge_hours" in values:
        profile = replace(profile, charge_hours=values["charge_hours"])
    if "eta_solar_percent" in values:
        profile = replace(profile, eta_solar=values["eta_solar_percent"] / 100.0)
    if "eta_bat_percent" in values:
        profile = replace(profile, eta_bat=values["eta_bat_percent"] / 100.0)
    return profile


def load_profile(path) -> DeploymentProfile:
    return parse_profile(Path(path).read_text())


def parse_irradiance(text: str) -> dict[int, float]:
    """Parse the 12 row month,s_rad CSV; months may be names or 1..12.

    Every irradiance must be finite and positive.
    """
    table: dict[int, float] = {}
    reader = csv.reader(text.splitlines())
    header = next(reader, None)
    if header is None or [h.strip().lower() for h in header][:1] != ["month"]:
        raise ConfigError(f"expected a month,s_rad_w_m2 header, got {header}")
    for row in reader:
        if not row:
            continue
        if len(row) != 2:
            raise ConfigError(f"bad irradiance row {row}")
        label = row[0].strip().lower()
        if label[:3] in MONTH_NAMES:
            month = MONTH_NAMES.index(label[:3]) + 1
        else:
            try:
                month = int(label)
            except ValueError:
                raise ConfigError(f"unknown month {row[0]!r}") from None
        if not 1 <= month <= 12:
            raise ConfigError(f"month {month} out of range")
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
    return parse_irradiance(Path(path).read_text())
