"""Fleet arithmetic: closed-form oracles, exact IEEE identities, INI loading."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from nodepower.scenario import (
    ScenarioSpec,
    aggregate_swing,
    carbon_emissions,
    cluster_energy,
    format_scenario_report,
    load_scenario_spec,
    run_scenario,
    scenario_result_document,
    tdp_gap,
)


def _spec(**kw):
    base = dict(
        nodes=2500,
        gpus_per_node=8,
        duration_days=90,
        per_node_power_kw=7.3,
        pue=1.1,
        conversion_loss_fraction=0.10,
        carbon_intensity_kg_per_mwh={"grid_average": 428.0},
        per_node_swing_kw=2.4,
    )
    base.update(kw)
    return ScenarioSpec(**base)


class TestClusterEnergy:
    def test_it_energy_oracle(self):
        it, _ = cluster_energy(_spec())
        assert it == pytest.approx(2500 * 7.3 * 90 * 24 / 1e6, rel=1e-12)

    def test_divide_convention(self):
        it, fac = cluster_energy(_spec())
        assert fac == pytest.approx(it * 1.1 / 0.9, rel=1e-12)

    def test_multiply_convention(self):
        it, fac = cluster_energy(_spec(loss_convention="multiply"))
        assert fac == pytest.approx(it * 1.1 * 1.1, rel=1e-12)

    def test_no_overhead_collapses_to_it(self):
        it, fac = cluster_energy(_spec(pue=1.0, conversion_loss_fraction=0.0))
        assert fac == it

    def test_overhead_ratio_is_power_independent(self):
        a = cluster_energy(_spec(per_node_power_kw=7.3))
        b = cluster_energy(_spec(per_node_power_kw=3.0))
        assert a[1] / a[0] == pytest.approx(b[1] / b[0], rel=1e-12)

    @given(
        nodes=st.integers(1, 10**6),
        kw=st.floats(0.1, 50.0),
        days=st.integers(1, 3650),
    )
    def test_linearity_in_node_count(self, nodes, kw, days):
        one = _spec(nodes=1, per_node_power_kw=kw, duration_days=days)
        many = _spec(nodes=nodes, per_node_power_kw=kw, duration_days=days)
        assert cluster_energy(many)[0] == pytest.approx(
            nodes * cluster_energy(one)[0], rel=1e-9
        )


class TestCarbon:
    def test_reference_products_are_exact(self):
        # these land on exact doubles, so equality rather than approx
        assert carbon_emissions(19.0, 428.0) == 8132.0
        assert carbon_emissions(19.0, 806.0) == 15314.0

    def test_units(self):
        # 1 GWh at 1 kg/MWh is one tonne
        assert carbon_emissions(1.0, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_additive_over_energy(self):
        total = carbon_emissions(30.0, 428.0)
        assert carbon_emissions(19.0, 428.0) + carbon_emissions(
            11.0, 428.0
        ) == pytest.approx(total, rel=1e-12)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            carbon_emissions(-1.0, 428.0)
        with pytest.raises(ValueError):
            carbon_emissions(1.0, -428.0)


class TestTdpGap:
    def test_gap_matches_hand_arithmetic(self):
        spec = _spec()
        _, fac = cluster_energy(spec)
        _, fac_at_rating = cluster_energy(
            _spec(per_node_power_kw=10.2)
        )
        gap, gap_emissions = tdp_gap(spec, node_tdp_kw=10.2)
        assert gap == pytest.approx(fac_at_rating - fac, rel=1e-12)
        assert gap_emissions["grid_average"] == pytest.approx(
            gap * 428.0, rel=1e-12
        )

    def test_zero_at_rating(self):
        spec = _spec(per_node_power_kw=10.2)
        gap, gap_emissions = tdp_gap(spec, node_tdp_kw=10.2)
        assert gap == 0.0
        assert gap_emissions == {"grid_average": 0.0}

    def test_rating_below_operating_power_rejected(self):
        with pytest.raises(ValueError):
            tdp_gap(_spec(per_node_power_kw=11.0), node_tdp_kw=10.2)

    @pytest.mark.parametrize("rating", [math.inf, math.nan, 0.0, -1.0])
    def test_rating_must_be_positive_and_finite(self, rating):
        for call in (tdp_gap, run_scenario):
            with pytest.raises(ValueError, match=(
                "^node_tdp_kw must be a positive, finite rating in kW"
            )):
                call(_spec(), node_tdp_kw=rating)


class TestSwing:
    def test_reference_fleet_is_exact(self):
        assert aggregate_swing(80_000, 8, 2.4) == 24.0

    def test_linearity(self):
        assert aggregate_swing(16_000, 8, 2.4) == pytest.approx(
            aggregate_swing(8_000, 8, 2.4) * 2, rel=1e-12
        )

    def test_indivisible_fleet_rejected(self):
        with pytest.raises(ValueError):
            aggregate_swing(80_001, 8, 2.4)

    def test_kw_to_mw_conversion(self):
        # 1000 nodes swinging 1 kW each is exactly 1 MW
        assert aggregate_swing(8_000, 8, 1.0) == 1.0


class TestSpecValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("nodes", 0),
            ("gpus_per_node", 0),
            ("duration_days", -1),
            ("per_node_power_kw", 0.0),
            ("pue", 0.99),
            ("conversion_loss_fraction", 1.0),
            ("conversion_loss_fraction", -0.1),
            ("per_node_swing_kw", -2.4),
            ("loss_convention", "subtract"),
        ],
    )
    def test_bad_field_rejected(self, field, value):
        with pytest.raises(ValueError):
            _spec(**{field: value})

    def test_negative_intensity_rejected(self):
        with pytest.raises(ValueError):
            _spec(carbon_intensity_kg_per_mwh={"grid_average": -1.0})

    def test_total_gpus(self):
        assert _spec().total_gpus == 20_000


class TestRunScenario:
    def test_document_carries_every_band(self):
        spec = _spec(
            carbon_intensity_kg_per_mwh={
                "grid_average": 428.0,
                "nonbaseload": 806.0,
            }
        )
        result = run_scenario(spec)
        doc = scenario_result_document(spec, result)
        assert doc["result"]["facility_energy_gwh"] == (
            result.facility_energy_gwh
        )
        emitted = doc["result"]["emissions_tonnes"]
        assert set(emitted) == {"grid_average", "nonbaseload"}
        assert emitted["grid_average"] == pytest.approx(
            result.facility_energy_gwh * 428.0, rel=1e-12
        )
        assert doc["spec"]["loss_convention"] == "divide"

    def test_swing_propagates(self):
        result = run_scenario(_spec())
        assert result.aggregate_swing_mw == pytest.approx(
            2500 * 2.4 / 1000.0, rel=1e-12
        )
        assert result.tdp_facility_energy_gwh == pytest.approx(
            result.facility_energy_gwh + result.energy_gap_gwh, rel=1e-15
        )

    def test_report_mentions_key_figures(self):
        spec = _spec()
        result = run_scenario(spec)
        text = format_scenario_report(spec, result)
        assert f"{result.facility_energy_gwh:.2f}" in text
        assert "GWh" in text and "MW" in text


class TestIniLoading:
    INI = """\
[scenario]
nodes = 2500
gpus_per_node = 8
duration_days = 90
per_node_power_kw = 7.3
pue = 1.1
conversion_loss_fraction = 0.10
per_node_swing_kw = 2.4

[carbon_intensity_kg_per_mwh]
grid_average = 428
nonbaseload = 806
"""

    def test_round_trip(self, tmp_path):
        path = tmp_path / "fleet.ini"
        path.write_text(self.INI)
        spec = load_scenario_spec(path)
        assert spec.nodes == 2500
        assert spec.pue == pytest.approx(1.1)
        assert spec.carbon_intensity_kg_per_mwh == {
            "grid_average": 428.0,
            "nonbaseload": 806.0,
        }
        assert spec.loss_convention == "divide"

    def test_missing_section_rejected(self, tmp_path):
        path = tmp_path / "broken.ini"
        path.write_text("[fleet]\nnodes = 10\n")
        with pytest.raises(ValueError, match="scenario"):
            load_scenario_spec(path)

    def test_intensity_table_optional(self, tmp_path):
        path = tmp_path / "bare.ini"
        path.write_text(
            "[scenario]\nnodes = 10\ngpus_per_node = 4\n"
            "duration_days = 7\nper_node_power_kw = 5.0\n"
        )
        spec = load_scenario_spec(path)
        assert spec.carbon_intensity_kg_per_mwh == {}
        assert math.isclose(spec.pue, 1.0)
