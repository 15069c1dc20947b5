import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modeswitch.model import (
    AgeGroup,
    AttributeBundle,
    CurrentMode,
    DatasetKind,
    IncomeBand,
    ParameterVector,
    Purpose,
    SpecificationError,
    ValidationError,
    availability,
    build_congestion_covariate,
)

from conftest import SEB, SEV, SQ, compiled_task, make_task, persona

J_SQ, J_SEV, J_SEB = 0, 1, 2  # columns of the compiled arrays, in ALTERNATIVES order


def utility(obs, who, params, spec):
    return compiled_task(obs, who, params, spec)[0]


def offsets(draws, params, spec, obs=None):
    """Error-component offsets (sq, sev, seb) for one individual's draws."""
    spread = compiled_task(obs or make_task(), persona(), params, spec)[2]
    return spread @ np.asarray(draws, dtype=float)


class TestStatusQuoUtility:
    def test_zero_parameters_give_zero(self, noncommute_spec, noncommute_estimates):
        zeros = noncommute_estimates.with_values(
            {name: 0.0 for name in noncommute_estimates.names}
        )
        obs = make_task(attributes={SQ: AttributeBundle(travel_time_min=20, travel_cost_eur=2)})
        assert utility(obs, persona(), zeros, noncommute_spec)[J_SQ] == 0.0

    def test_pt_user_time_and_cost(self, noncommute_spec, noncommute_estimates):
        obs = make_task(
            sq_mode=CurrentMode.PUBLIC_TRANSPORT,
            attributes={SQ: AttributeBundle(travel_time_min=15, travel_cost_eur=1.5)},
        )
        p = persona(mode=CurrentMode.PUBLIC_TRANSPORT)
        value = utility(obs, p, noncommute_estimates, noncommute_spec)[J_SQ]
        assert value == pytest.approx(-0.06 * 15 - 0.39 * 1.5, abs=1e-12)
        assert value == pytest.approx(-1.485, abs=1e-9)

    def test_car_user_parking_terms(self, noncommute_spec, noncommute_estimates):
        obs = make_task(
            attributes={SQ: AttributeBundle(parking_fee_eur=3, parking_search_time_min=5)}
        )
        value = utility(obs, persona(), noncommute_estimates, noncommute_spec)[J_SQ]
        assert value == pytest.approx(-0.08 * 3 - 0.04 * 5, abs=1e-12)
        assert value == pytest.approx(-0.44, abs=1e-9)

    def test_unavailable_status_quo_rejected(self, noncommute_spec, noncommute_estimates):
        obs = make_task(sq_mode=CurrentMode.CAR)
        _, avail, _ = compiled_task(
            obs, persona(mode=CurrentMode.BIKE), noncommute_estimates, noncommute_spec
        )
        assert avail.tolist() == [False, True, True]

    def test_unresolved_coefficient_is_specification_error(self, noncommute_spec):
        incomplete = ParameterVector({"asc_sev": -1.0})
        obs = make_task(attributes={SQ: AttributeBundle(travel_time_min=10)})
        with pytest.raises(SpecificationError):
            utility(obs, persona(), incomplete, noncommute_spec)

    def test_negative_attribute_rejected_at_construction(self):
        with pytest.raises(ValidationError):
            AttributeBundle(travel_time_min=-1)


class TestSharedUtility:
    def test_zero_parameters(self, noncommute_spec, noncommute_estimates):
        zeros = noncommute_estimates.with_values(
            {name: 0.0 for name in noncommute_estimates.names}
        )
        obs = make_task(attributes={SEV: AttributeBundle(travel_time_min=10)})
        assert utility(obs, persona(), zeros, noncommute_spec)[J_SEV] == 0.0

    def test_sev_car_user_leisure(self, noncommute_spec, noncommute_estimates):
        obs = make_task(
            attributes={
                SEV: AttributeBundle(
                    travel_time_min=10,
                    travel_cost_eur=0.25 * 10,
                    access_egress_time_min=10,
                )
            }
        )
        value = utility(obs, persona(), noncommute_estimates, noncommute_spec)[J_SEV]
        # constant, age shifter, time, cost, access
        assert value == pytest.approx(-4.33 + 1.45 - 0.6 + 0.05 - 0.4, abs=1e-9)
        assert value == pytest.approx(-3.83, abs=1e-9)

    def test_seb_bike_user_shopping_composition(self, noncommute_spec, noncommute_estimates):
        bundle = AttributeBundle(
            travel_time_min=12, travel_cost_eur=1.0, access_egress_time_min=10
        )
        base_persona = persona(mode=CurrentMode.BIKE, age=AgeGroup.MID, education=False)
        leisure = make_task(sq_mode=CurrentMode.BIKE, purpose=Purpose.LEISURE,
                            attributes={SEB: bundle})
        shopping = make_task(sq_mode=CurrentMode.BIKE, purpose=Purpose.SHOPPING,
                             attributes={SEB: bundle})
        v_leisure = utility(leisure, base_persona, noncommute_estimates, noncommute_spec)[J_SEB]
        v_shopping = utility(shopping, base_persona, noncommute_estimates, noncommute_spec)[J_SEB]
        attribute_part = 0.02 * 12 - 0.47 * 1.0 - 0.03 * 10
        assert v_leisure == pytest.approx(-3.47 - 1.68 + attribute_part, abs=1e-9)
        assert v_shopping - v_leisure == pytest.approx(-0.18, abs=1e-12)

    def test_walk_distance_asc_gating(self, noncommute_spec, noncommute_estimates):
        p = persona(mode=CurrentMode.WALK, age=AgeGroup.MID, education=False)
        at2 = make_task(sq_mode=CurrentMode.WALK, distance=2.0)
        at5 = make_task(sq_mode=CurrentMode.WALK, distance=5.0)
        v2 = utility(at2, p, noncommute_estimates, noncommute_spec)[J_SEV]
        v5 = utility(at5, p, noncommute_estimates, noncommute_spec)[J_SEV]
        assert v2 == pytest.approx(-4.33 - 0.56)
        assert v5 == pytest.approx(-4.33 + 0.86)

    def test_missing_income_matches_no_band_shifter(self, noncommute_spec, noncommute_estimates):
        low = persona(income=IncomeBand.LOW)
        missing = persona(income=IncomeBand.MISSING)
        obs = make_task()
        v_low = utility(obs, low, noncommute_estimates, noncommute_spec)[J_SEB]
        v_missing = utility(obs, missing, noncommute_estimates, noncommute_spec)[J_SEB]
        assert v_low - v_missing == pytest.approx(0.48)


class TestRandomOffset:
    def test_zero_sigmas(self, noncommute_spec, noncommute_estimates):
        zeroed = noncommute_estimates.with_values(
            {"sigma_shared": 0.0, "sigma_sev": 0.0, "sigma_seb": 0.0}
        )
        assert offsets([1.0, 1.0, 1.0], zeroed, noncommute_spec).tolist() == [0.0, 0.0, 0.0]

    def test_sev_offset_composition(self, noncommute_spec, noncommute_estimates):
        # component order: shared, sev, seb
        value = offsets([1.0, 1.0, 0.0], noncommute_estimates, noncommute_spec)[J_SEV]
        assert value == pytest.approx(1.64 + 1.28, abs=1e-12)
        assert value == pytest.approx(2.92, abs=1e-9)

    def test_negative_sigma_gives_signed_spread(self, commute_spec, commute_estimates):
        # the compiled spread keeps the sign, so the likelihood is smooth through 0
        assert commute_estimates["sigma_sev"] == -1.11
        commute_task = make_task(purpose=Purpose.COMMUTE)
        value = offsets([0.0, 1.0, 0.0], commute_estimates, commute_spec, commute_task)[J_SEV]
        assert value == -1.11

    def test_negative_sigma_taken_absolute(self, commute_spec, commute_estimates):
        # forward simulation keeps the |sigma| convention of the bundled estimates
        from modeswitch import presets
        from modeswitch.simulator import scenario_probabilities
        from modeswitch.synthesizer import synthesize_dataset

        flipped = commute_estimates.with_values({"sigma_sev": 1.11})
        scenario = presets.base_scenario(CurrentMode.CAR, 5.0, DatasetKind.COMMUTE, n_draws=2000)
        np.testing.assert_array_equal(
            scenario_probabilities(scenario, commute_estimates, commute_spec),
            scenario_probabilities(scenario, flipped, commute_spec),
        )
        assert synthesize_dataset(DatasetKind.COMMUTE, 30, 4, commute_estimates) == (
            synthesize_dataset(DatasetKind.COMMUTE, 30, 4, flipped)
        )

    def test_status_quo_never_receives_offset(self, noncommute_spec, noncommute_estimates):
        assert offsets([3.0, -2.0, 1.0], noncommute_estimates, noncommute_spec)[J_SQ] == 0.0


class TestCongestionCovariate:
    def test_noncommute_product(self):
        assert build_congestion_covariate(
            DatasetKind.NONCOMMUTE, 0.4, 0.5, 10.0
        ) == pytest.approx(0.20)

    def test_commute_product(self):
        assert build_congestion_covariate(DatasetKind.COMMUTE, 0.2, 10.0, 12.0) == pytest.approx(2.0)

    def test_zero_chance(self):
        for kind in DatasetKind:
            assert build_congestion_covariate(kind, 0.0, 0.0, 10.0) == 0.0

    def test_noncommute_needs_positive_travel_time(self):
        with pytest.raises(ValidationError):
            build_congestion_covariate(DatasetKind.NONCOMMUTE, 0.4, 0.5, 0.0)


class TestAvailability:
    def test_shared_alternatives_always_available(self):
        obs = make_task(sq_mode=CurrentMode.CAR)
        for mode in CurrentMode:
            assert availability(obs, SEV, persona(mode=mode))
            assert availability(obs, SEB, persona(mode=mode))

    def test_own_status_quo_available(self):
        obs = make_task(sq_mode=CurrentMode.CAR)
        assert availability(obs, SQ, persona(mode=CurrentMode.CAR))

    def test_other_mode_status_quo_unavailable(self):
        obs = make_task(sq_mode=CurrentMode.CAR)
        assert not availability(obs, SQ, persona(mode=CurrentMode.BIKE))


class TestInvariants:
    @settings(max_examples=30, deadline=None)
    @given(factor=st.floats(min_value=-3, max_value=3, allow_nan=False))
    def test_utility_linear_in_parameters(self, factor, noncommute_spec, noncommute_estimates):
        obs = make_task(
            attributes={
                SQ: AttributeBundle(travel_time_min=10, travel_cost_eur=1, parking_fee_eur=3),
                SEV: AttributeBundle(travel_time_min=10, travel_cost_eur=2.5,
                                     access_egress_time_min=10),
            }
        )
        p = persona()
        scaled = noncommute_estimates.scaled(factor)
        base = utility(obs, p, noncommute_estimates, noncommute_spec)
        np.testing.assert_allclose(
            utility(obs, p, scaled, noncommute_spec), factor * base, rtol=0, atol=1e-9
        )
        draws = [1.0, -0.5, 0.2]
        offset = offsets(draws, noncommute_estimates, noncommute_spec)[J_SEV]
        assert offsets(draws, scaled, noncommute_spec)[J_SEV] == pytest.approx(
            factor * offset, abs=1e-9
        )

    def test_every_table_row_resolves_once(self, noncommute_spec, noncommute_estimates):
        assert set(noncommute_spec.coefficient_names) == set(noncommute_estimates.names)
        assert len(noncommute_spec.coefficient_names) == 44

    def test_commute_parameter_count(self, commute_spec, commute_estimates):
        assert set(commute_spec.coefficient_names) == set(commute_estimates.names)
        assert len(commute_spec.coefficient_names) == 31

    def test_bundled_p_values_cover_every_coefficient(self):
        from modeswitch import presets

        for kind in DatasetKind:
            estimates = presets.bundled_estimates(kind)
            p_values = presets.bundled_p_values(kind)
            assert set(p_values) == set(estimates.names)
            assert all(0.0 <= p <= 1.0 for p in p_values.values())


class TestParameterVector:
    def test_free_and_fixed_bookkeeping(self):
        params = ParameterVector({"a": 1.0, "b": 2.0, "c": 3.0}, fixed=frozenset({"b"}))
        assert params.free_names == ("a", "c")
        assert params.n_free == 2
        updated = params.with_free_array(np.array([10.0, 30.0]))
        assert updated["a"] == 10.0 and updated["b"] == 2.0 and updated["c"] == 30.0

    def test_unknown_update_rejected(self):
        params = ParameterVector({"a": 1.0})
        with pytest.raises(SpecificationError):
            params.with_values({"zzz": 1.0})

    def test_fixed_flag_must_reference_known_name(self):
        with pytest.raises(SpecificationError):
            ParameterVector({"a": 1.0}, fixed=frozenset({"nope"}))
