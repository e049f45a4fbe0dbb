"""Deployment energy sizing tests.

The two reference platforms are checked stage by stage against published
field numbers, each stage fed with the rounded value a datasheet reader
would carry forward; the library itself stays full precision.
"""

import importlib.resources
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from birdedge.energy import (
    DEFAULT_DUTY,
    MONTH_NAMES,
    DeploymentProfile,
    MonthlyRequirement,
    active_power,
    average_power,
    battery_capacity,
    charge_power,
    load_irradiance,
    load_profile,
    monthly_report,
    panel_area,
    parse_irradiance,
    parse_profile,
)
from birdedge.exceptions import ConfigError

# microcontroller board: 83 mJ / 237 ms inference, 55 mJ / 170 ms feature
# extraction, 116 mW sleep
MCU = DeploymentProfile(
    e_infer_j=0.083, t_infer_s=0.237, e_dsp_j=0.055, t_dsp_s=0.170,
    p_sleep_w=0.116,
)
# single-board computer: 24.3 mJ / 3.6 ms inference, 483 mJ / 80.9 ms
# feature extraction, 2.93 W idle
SBC = DeploymentProfile(
    e_infer_j=0.0243, t_infer_s=0.0036, e_dsp_j=0.483, t_dsp_s=0.0809,
    p_sleep_w=2.93,
)


def bundled(name):
    return importlib.resources.files("birdedge").joinpath("data", name).read_text()


class TestMcuChain:
    def test_active_power(self):
        # (83 + 55) mJ over (237 + 170) ms
        assert active_power(MCU) == pytest.approx(0.138 / 0.407, rel=1e-12)
        assert active_power(MCU) * 1000 == pytest.approx(339.0, abs=1.0)

    def test_average_power(self):
        assert average_power(MCU) * 1000 == pytest.approx(138.3, abs=0.1)

    def test_battery_capacity(self):
        assert battery_capacity(MCU) == pytest.approx(6.6, abs=0.05)

    def test_charge_power_from_rounded_capacity(self):
        assert charge_power(6.6, 24.0) == pytest.approx(0.275, rel=1e-12)

    def test_panel_area_december(self):
        area = panel_area(0.275, 22.8, 0.20, 0.90)
        assert area == pytest.approx(0.07, abs=0.01)

    def test_full_chain_stays_close(self):
        # without any intermediate rounding the answers barely move
        capacity = battery_capacity(MCU)
        charge = charge_power(capacity, MCU.charge_hours)
        area = panel_area(charge, 22.8, MCU.eta_solar, MCU.eta_bat)
        assert capacity == pytest.approx(6.6387, abs=1e-3)
        assert charge == pytest.approx(0.2766, abs=1e-3)
        assert area == pytest.approx(0.0674, abs=1e-3)


class TestSbcChain:
    def test_active_power(self):
        assert active_power(SBC) == pytest.approx(6.0, abs=0.1)

    def test_average_power(self):
        assert average_power(SBC) == pytest.approx(3.24, abs=0.01)

    def test_battery_capacity(self):
        assert battery_capacity(SBC) == pytest.approx(155.5, abs=0.5)

    def test_charge_power_from_rounded_capacity(self):
        assert charge_power(155.5, 24.0) == pytest.approx(6.48, abs=0.01)

    def test_panel_area_december(self):
        area = panel_area(6.48, 22.8, 0.20, 0.90)
        assert area == pytest.approx(1.58, abs=0.01)

    def test_battery_ratio_vs_mcu(self):
        # the microcontroller build needs a battery more than 20x smaller
        assert battery_capacity(SBC) / battery_capacity(MCU) > 20


class TestOperators:
    def test_zero_duty_is_pure_sleep(self):
        quiet = DeploymentProfile(
            e_infer_j=1.0, t_infer_s=1.0, e_dsp_j=1.0, t_dsp_s=1.0,
            p_sleep_w=0.2, duty=0.0,
        )
        assert average_power(quiet) == 0.2

    def test_full_duty_is_pure_active(self):
        busy = DeploymentProfile(
            e_infer_j=2.0, t_infer_s=1.0, e_dsp_j=2.0, t_dsp_s=1.0,
            p_sleep_w=0.2, duty=1.0,
        )
        assert average_power(busy) == active_power(busy) == 2.0

    def test_zero_active_time(self):
        broken = DeploymentProfile(
            e_infer_j=1.0, t_infer_s=0.0, e_dsp_j=1.0, t_dsp_s=0.0,
            p_sleep_w=0.1,
        )
        with pytest.raises(ZeroDivisionError):
            active_power(broken)

    def test_zero_charge_window(self):
        with pytest.raises(ZeroDivisionError):
            charge_power(10.0, 0.0)

    def test_zero_irradiance(self):
        with pytest.raises(ZeroDivisionError):
            panel_area(1.0, 0.0, 0.2, 0.9)

    def test_charge_relation(self):
        # autonomy of two charge windows means charging at twice the
        # average draw
        profile = DeploymentProfile(
            e_infer_j=1.0, t_infer_s=1.0, e_dsp_j=1.0, t_dsp_s=1.0,
            p_sleep_w=0.5, autonomy_hours=48.0, charge_hours=24.0,
        )
        charge = charge_power(battery_capacity(profile), profile.charge_hours)
        assert charge == pytest.approx(2.0 * average_power(profile), rel=1e-12)

    @given(
        s_low=st.floats(1.0, 100.0),
        bump=st.floats(0.1, 100.0),
        charge=st.floats(0.01, 50.0),
    )
    def test_area_monotone_in_irradiance(self, s_low, bump, charge):
        dark = panel_area(charge, s_low, 0.2, 0.9)
        bright = panel_area(charge, s_low + bump, 0.2, 0.9)
        assert dark > bright

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(e_infer_j=-1.0),
            dict(p_sleep_w=-0.1),
            dict(duty=1.5),
            dict(duty=-0.2),
            dict(autonomy_hours=0.0),
            dict(charge_hours=-2.0),
            dict(eta_solar=0.0),
            dict(eta_bat=1.2),
            dict(e_infer_j=float("nan")),
            dict(t_infer_s=float("inf")),
            dict(p_sleep_w=float("nan")),
            dict(autonomy_hours=float("inf")),
            dict(charge_hours=float("nan")),
        ],
    )
    def test_profile_validation(self, kwargs):
        base = dict(
            e_infer_j=1.0, t_infer_s=1.0, e_dsp_j=1.0, t_dsp_s=1.0,
            p_sleep_w=0.1,
        )
        base.update(kwargs)
        with pytest.raises(ConfigError):
            DeploymentProfile(**base)


class TestMonthlyReport:
    def irradiance(self):
        return parse_irradiance(bundled("irradiance_de.csv"))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(e_infer_j=1e308, t_infer_s=1e-300),   # active power overflows
            dict(autonomy_hours=1e308, p_sleep_w=10.0),  # battery overflows
            dict(duty=0.0, t_infer_s=1e-320, t_dsp_s=0.0),  # 0 * inf is NaN
        ],
    )
    def test_overflow_rejected(self, kwargs):
        profile = DeploymentProfile(**{**MCU.__dict__, **kwargs})
        with pytest.raises(ConfigError, match="overflows"):
            monthly_report(profile, self.irradiance())

    @pytest.mark.parametrize("value", [-100.0, 0.0, math.nan, math.inf])
    def test_irradiance_must_be_finite_and_positive(self, value):
        # parse_irradiance refuses these in a file; a table built in Python
        # gave negative or zero panel areas
        table = {**self.irradiance(), 3: value}
        with pytest.raises(ConfigError, match=rf"month 3: irradiance must be finite "
                                              rf"and positive, got {value}"):
            monthly_report(MCU, table)

    def test_underflowed_denominator_rejected(self):
        # 0.2 * 0.9 * 5e-324 rounds to 0, which panel_area would divide by
        table = {**self.irradiance(), 1: 5e-324}
        with pytest.raises(ConfigError, match="sizing underflows"):
            monthly_report(MCU, table)

    def test_december_is_worst(self):
        report = monthly_report(MCU, self.irradiance())
        assert len(report) == 12
        worst = [r for r in report if r.worst]
        assert [r.month for r in worst] == [12]
        assert max(report, key=lambda r: r.panel_area_m2).month == 12

    def test_month_invariant_stages(self):
        report = monthly_report(MCU, self.irradiance())
        assert len({r.battery_wh for r in report}) == 1
        assert len({r.charge_power_w for r in report}) == 1
        assert len({r.average_power_w for r in report}) == 1

    def test_area_tracks_irradiance(self):
        table = self.irradiance()
        report = monthly_report(MCU, table)
        for row in report:
            expect = charge_power(battery_capacity(MCU), MCU.charge_hours) / (
                MCU.eta_solar * MCU.eta_bat * table[row.month]
            )
            assert row.panel_area_m2 == pytest.approx(expect, rel=1e-12)

    def test_incomplete_table_rejected(self):
        table = self.irradiance()
        del table[6]
        with pytest.raises(ConfigError):
            monthly_report(MCU, table)

    def test_rows_are_typed(self):
        row = monthly_report(MCU, self.irradiance())[0]
        assert isinstance(row, MonthlyRequirement)
        assert row.month == 1
        assert row.s_rad_w_m2 == 28.0


def table_with_label(label, month):
    """A 12-row irradiance table of 50s, months by number, with `month`'s
    row labelled `label`."""
    return "month,s_rad_w_m2\n" + "".join(
        f"{label if m == month else m},50\n" for m in range(1, 13))


class TestParsers:
    def test_bundled_mcu_profile(self):
        profile = parse_profile(bundled("profile_m7.cfg"))
        assert profile == MCU
        assert profile.e_infer_j == pytest.approx(0.083)
        assert profile.t_infer_s == pytest.approx(0.237)
        assert profile.p_sleep_w == pytest.approx(0.116)
        assert profile.duty == DEFAULT_DUTY
        assert profile.autonomy_hours == 48.0

    def test_bundled_sbc_profile(self):
        profile = parse_profile(bundled("profile_pi4.cfg"))
        assert active_power(profile) == pytest.approx(6.0, abs=0.1)

    def test_defaults_applied(self):
        profile = parse_profile(
            "e_infer_mj = 10\nt_infer_ms = 5\ne_dsp_mj = 1\n"
            "t_dsp_ms = 1\np_sleep_mw = 2\n"
        )
        assert profile.duty == 0.10
        assert profile.charge_hours == 24.0
        assert profile.eta_solar == 0.20
        assert profile.eta_bat == 0.90

    def test_comments_and_blanks(self):
        profile = parse_profile(
            "# measured\n\ne_infer_mj = 10 # trailing note\nt_infer_ms = 5\n"
            "e_dsp_mj = 1\nt_dsp_ms = 1\np_sleep_mw = 2\n"
        )
        assert profile.e_infer_j == pytest.approx(0.010)

    def test_override_deployment_keys(self):
        profile = parse_profile(
            "e_infer_mj=1\nt_infer_ms=1\ne_dsp_mj=1\nt_dsp_ms=1\np_sleep_mw=1\n"
            "duty_percent=25\nautonomy_hours=12\ncharge_hours=6\n"
            "eta_solar_percent=15\neta_bat_percent=80\n"
        )
        assert profile.duty == 0.25
        assert profile.autonomy_hours == 12.0
        assert profile.charge_hours == 6.0
        assert profile.eta_solar == pytest.approx(0.15)
        assert profile.eta_bat == pytest.approx(0.80)

    @pytest.mark.parametrize(
        "text",
        [
            "e_infer_mj = 10\n",                       # missing keys
            "bogus_key = 1\n",                          # unknown key
            "e_infer_mj = ten\n",                       # bad number
            "e_infer_mj = 10\ne_infer_mj = 11\n",       # duplicate
            "e_infer_mj 10\n",                          # no equals sign
            "e_infer_mj=nan\nt_infer_ms=1\ne_dsp_mj=1\nt_dsp_ms=1\np_sleep_mw=1\n",
            # zero active time, the second once in seconds
            "e_infer_mj=1\nt_infer_ms=0\ne_dsp_mj=1\nt_dsp_ms=0\np_sleep_mw=1\n",
            "e_infer_mj=1\nt_infer_ms=5e-324\ne_dsp_mj=1\nt_dsp_ms=0\np_sleep_mw=1\n",
        ],
    )
    def test_profile_errors(self, text):
        with pytest.raises(ConfigError):
            parse_profile(text)

    @pytest.mark.parametrize("key", ["eta_solar_percent", "eta_bat_percent"])
    def test_an_efficiency_that_underflows_names_its_key(self, key):
        # 1e-323 is in (0, 100], but 1e-323 / 100 is 0.0
        text = f"e_infer_mj=1\nt_infer_ms=1\ne_dsp_mj=1\nt_dsp_ms=1\np_sleep_mw=1\n{key}=1e-323"
        with pytest.raises(ConfigError, match=rf"^{key} must be in \(0, 100\], got 1e-323$"):
            parse_profile(text)

    @pytest.mark.parametrize("load", [load_profile, load_irradiance])
    def test_bytes_that_are_not_utf8_are_a_config_error(self, tmp_path, load):
        path = tmp_path / "latin1.txt"
        path.write_bytes("# müller\n".encode("latin-1"))
        with pytest.raises(ConfigError, match="codec can't decode"):
            load(path)

    def test_irradiance_by_name_and_number(self):
        names = bundled("irradiance_de.csv")
        numbered = "month,s_rad_w_m2\n" + "".join(
            f"{i},{40 + i}\n" for i in range(1, 13)
        )
        assert sorted(parse_irradiance(names)) == list(range(1, 13))
        table = parse_irradiance(numbered)
        assert table[3] == 43.0

    @pytest.mark.parametrize("label, month", [
        ("sep", 9), ("Sept", 9), ("SEPTEMBER", 9), ("janu", 1), (" may ", 5),
        ("12", 12),
    ])
    def test_month_label_forms(self, label, month):
        assert parse_irradiance(table_with_label(label, month))[month] == 50

    def test_blank_irradiance_rows_skipped(self):
        text = "month,s_rad_w_m2\n\n" + "".join(f"{i},{40 + i}\n\n" for i in range(1, 13))
        assert parse_irradiance(text) == {i: 40.0 + i for i in range(1, 13)}

    def test_bundled_irradiance_values(self):
        table = parse_irradiance(bundled("irradiance_de.csv"))
        assert table[12] == 22.8
        assert min(table.values()) == 22.8
        assert table[6] == max(table.values())

    @pytest.mark.parametrize(
        "text",
        [
            "month,s_rad_w_m2\njan,28\n",                          # incomplete
            "month,s_rad_w_m2\n" + "".join(
                f"{i},50{',1' if i == 6 else ''}\n" for i in range(1, 13)
            ),                                                     # 3 fields
            "wrong,s\njan,28\n",                                   # bad header
            # a header that only starts like the documented one
            *(pytest.param(table_with_label("1", 1).replace("month,s_rad_w_m2", header),
                           id=f"header-{header}")
              for header in ["month", "Month,anything,extra", "month,s_rad"]),
            "month,s_rad_w_m2\n" + "jan,1\n" * 12,                 # duplicates
            "month,s_rad_w_m2\nsmarch,10\n",                       # unknown month
            "month,s_rad_w_m2\n" + "".join(
                f"{i},-5\n" for i in range(1, 13)
            ),                                                     # negative
            "month,s_rad_w_m2\n" + "".join(
                f"{i},x\n" for i in range(1, 13)
            ),                                                     # bad number
            "month,s_rad_w_m2\n" + "".join(
                f"{i},{'nan' if i == 6 else 50}\n" for i in range(1, 13)
            ),                                                     # NaN
            "month,s_rad_w_m2\n" + "".join(
                f"{i},{'inf' if i == 6 else 50}\n" for i in range(1, 13)
            ),                                                     # infinite
            # one label that is not a month, in a table that is otherwise
            # whole; the first four only start like one
            *(pytest.param(table_with_label(label, month), id=label)
              for label, month in [("junk", 6), ("mayhem", 5), ("ma", 3),
                                   ("septem-ber", 9), ("0", 1), ("13", 12),
                                   ("03", 3), ("+3", 3)]),
        ],
    )
    def test_irradiance_errors(self, text):
        with pytest.raises(ConfigError):
            parse_irradiance(text)

    def test_irradiance_oversized_field_is_a_config_error(self):
        # the csv module refuses fields over 131072 characters
        text = "month,s_rad_w_m2\n" + "x" * 200_000 + ",50\n"
        with pytest.raises(ConfigError, match="line 2: field larger than field limit"):
            parse_irradiance(text)

    @pytest.mark.parametrize("separator", ["\f", "\v", "\x1c", "\x1d", "\x1e", "\x85",
                                           "\u2028", "\u2029"],
                             ids=["ff", "vt", "fs", "gs", "rs", "nel", "ls", "ps"])
    def test_rows_break_only_where_the_csv_module_breaks_them(self, separator):
        # str.splitlines ends a line at each of these; trials CSVs never did
        text = table_with_label("1", 1)
        assert len(parse_irradiance(text.replace("\n", "\r\n"))) == 12
        with pytest.raises(ConfigError, match="expected a month,s_rad_w_m2 header"):
            parse_irradiance(text.replace("\n", separator))

    def test_header_is_read_stripped_and_in_any_case(self):
        text = table_with_label("1", 1).replace("month,s_rad_w_m2", " Month , S_RAD_W_M2 ")
        assert parse_irradiance(text) == {i: 50.0 for i in range(1, 13)}

    def test_month_names_are_calendar_order(self):
        assert MONTH_NAMES[0] == "jan" and MONTH_NAMES[11] == "dec"
        assert len(MONTH_NAMES) == 12
