import numpy as np
import pytest

from modeswitch import presets
from modeswitch.model import (
    AttributeBundle,
    CurrentMode,
    DatasetKind,
    Purpose,
    TripContext,
    ValidationError,
)
from modeswitch.simulator import (
    ScenarioDefinition,
    ShareRow,
    ShareTable,
    policy_delta,
    scenario_probabilities,
    substitution_table,
)

from conftest import SEB, SEV, SQ, compiled_task, persona


def plain_scenario(spec, seed=0, n_draws=5000, **bundle_overrides):
    attributes = {SQ: AttributeBundle(), SEV: AttributeBundle(), SEB: AttributeBundle()}
    attributes.update(bundle_overrides)
    return ScenarioDefinition(
        persona=persona(),
        context=TripContext(Purpose.LEISURE, 5.0),
        attributes=attributes,
        n_draws=n_draws,
        seed=seed,
    )


class TestScenarioProbabilities:
    def test_all_zero_parameters_uniform(self, noncommute_spec, noncommute_estimates):
        zeros = noncommute_estimates.with_values(
            {name: 0.0 for name in noncommute_estimates.names}
        )
        shares = scenario_probabilities(plain_scenario(noncommute_spec), zeros, noncommute_spec)
        np.testing.assert_allclose(shares, np.full(3, 1 / 3), atol=1e-12)

    def test_car_five_km_reference_row(self, noncommute_spec, noncommute_estimates):
        scenario = presets.base_scenario(CurrentMode.CAR, 5.0, seed=1, n_draws=100_000)
        shares = 100 * scenario_probabilities(scenario, noncommute_estimates, noncommute_spec)
        np.testing.assert_allclose(shares, [77.7, 11.0, 11.2], atol=3.0)

    def test_cheaper_ebike_policy_row(self, noncommute_spec, noncommute_estimates):
        base = presets.base_scenario(CurrentMode.CAR, 5.0, seed=1, n_draws=100_000)
        cheaper = presets.base_scenario(
            CurrentMode.CAR, 5.0, seed=1, n_draws=100_000,
            overrides={SEB: {"travel_cost_eur": 0.5}},
        )
        shares = 100 * scenario_probabilities(cheaper, noncommute_estimates, noncommute_spec)
        np.testing.assert_allclose(shares, [76.2, 10.6, 13.2], atol=3.0)
        delta = policy_delta(base, cheaper, noncommute_estimates, noncommute_spec)
        assert delta[SEB] == pytest.approx(2.0, abs=0.5)

    def test_deterministic_given_seed(self, noncommute_spec, noncommute_estimates):
        scenario = presets.base_scenario(CurrentMode.CAR, 5.0, seed=12, n_draws=2000)
        a = scenario_probabilities(scenario, noncommute_estimates, noncommute_spec)
        b = scenario_probabilities(scenario, noncommute_estimates, noncommute_spec)
        np.testing.assert_array_equal(a, b)

    def test_seed_stability_at_production_draws(self, noncommute_spec, noncommute_estimates):
        shares = [
            100 * scenario_probabilities(
                presets.base_scenario(CurrentMode.CAR, 5.0, seed=seed, n_draws=100_000),
                noncommute_estimates,
                noncommute_spec,
            )
            for seed in range(5)
        ]
        spread = np.ptp(np.stack(shares), axis=0)
        assert spread.max() < 0.2

    def test_walk_at_ten_km_rejected(self, noncommute_spec, noncommute_estimates):
        scenario = ScenarioDefinition(
            persona=persona(mode=CurrentMode.WALK),
            context=TripContext(Purpose.LEISURE, 10.0),
            attributes={SQ: AttributeBundle(), SEV: AttributeBundle(), SEB: AttributeBundle()},
        )
        with pytest.raises(ValidationError):
            scenario_probabilities(scenario, noncommute_estimates, noncommute_spec)

    def test_degenerate_mixing_matches_closed_form(self, noncommute_spec, noncommute_estimates):
        frozen = noncommute_estimates.with_values(
            {"sigma_shared": 0.0, "sigma_sev": 0.0, "sigma_seb": 0.0}
        )
        scenario = presets.base_scenario(CurrentMode.CAR, 5.0, seed=3, n_draws=11)
        got = scenario_probabilities(scenario, frozen, noncommute_spec)
        from modeswitch.likelihood import task_choice_prob

        v, avail, _ = compiled_task(scenario.task(), scenario.persona, frozen, noncommute_spec)
        assert avail.all()
        np.testing.assert_allclose(got, task_choice_prob(v, avail), atol=1e-12)

    def test_cost_monotonicity(self, noncommute_spec, noncommute_estimates):
        base = presets.base_scenario(CurrentMode.PUBLIC_TRANSPORT, 5.0, seed=2, n_draws=20_000)
        seb_base = base.attributes[SEB]
        pricier = presets.base_scenario(
            CurrentMode.PUBLIC_TRANSPORT, 5.0, seed=2, n_draws=20_000,
            overrides={SEB: {"travel_cost_eur": seb_base.travel_cost_eur + 1.0}},
        )
        before = scenario_probabilities(base, noncommute_estimates, noncommute_spec)
        after = scenario_probabilities(pricier, noncommute_estimates, noncommute_spec)
        assert after[2] < before[2]
        assert after[0] > before[0] and after[1] > before[1]


class TestSubstitutionTable:
    def test_noncommute_grid_shape(self, noncommute_spec, noncommute_estimates):
        grid = presets.substitution_grid(DatasetKind.NONCOMMUTE, seed=0, n_draws=4000)
        table = substitution_table(grid, noncommute_estimates, noncommute_spec)
        assert len(table.rows) == 11
        with pytest.raises(KeyError):
            table.cell(CurrentMode.WALK, 10.0)

    def test_commute_grid_shape(self, commute_spec, commute_estimates):
        grid = presets.substitution_grid(DatasetKind.COMMUTE, seed=0, n_draws=4000)
        table = substitution_table(grid, commute_estimates, commute_spec)
        assert len(table.rows) == 5
        with pytest.raises(KeyError):
            table.cell(CurrentMode.BIKE, 10.0)

    def test_rows_sum_to_one_hundred(self, noncommute_spec, noncommute_estimates):
        grid = presets.substitution_grid(DatasetKind.NONCOMMUTE, seed=0, n_draws=2000)
        table = substitution_table(grid, noncommute_estimates, noncommute_spec)
        for row in table.rows:
            assert sum(row.shares.values()) == pytest.approx(100.0, abs=0.1)

    def test_cell_errors_carry_coordinates(self, noncommute_spec, noncommute_estimates):
        bad = ScenarioDefinition(
            persona=persona(mode=CurrentMode.WALK),
            context=TripContext(Purpose.LEISURE, 10.0),
            attributes={SQ: AttributeBundle(), SEV: AttributeBundle(), SEB: AttributeBundle()},
        )
        with pytest.raises(ValidationError, match="walk, 10 km"):
            substitution_table([bad], noncommute_estimates, noncommute_spec)

    def test_share_table_rejects_bad_row(self):
        with pytest.raises(ValidationError):
            ShareTable(
                (ShareRow(CurrentMode.CAR, 5.0, {SQ: 70.0, SEV: 10.0, SEB: 10.0}),)
            )


class TestPolicyDelta:
    def test_identical_scenarios_give_exact_zero(self, noncommute_spec, noncommute_estimates):
        base = presets.base_scenario(CurrentMode.CAR, 5.0, seed=8, n_draws=3000)
        delta = policy_delta(base, base, noncommute_estimates, noncommute_spec)
        assert all(v == 0.0 for v in delta.values())

    def test_mismatched_context_rejected(self, noncommute_spec, noncommute_estimates):
        a = presets.base_scenario(CurrentMode.CAR, 5.0, seed=8, n_draws=1000)
        b = presets.base_scenario(CurrentMode.CAR, 2.0, seed=8, n_draws=1000)
        with pytest.raises(ValidationError):
            policy_delta(a, b, noncommute_estimates, noncommute_spec)

    def test_mismatched_seed_rejected(self, noncommute_spec, noncommute_estimates):
        a = presets.base_scenario(CurrentMode.CAR, 5.0, seed=8, n_draws=1000)
        b = presets.base_scenario(CurrentMode.CAR, 5.0, seed=9, n_draws=1000)
        with pytest.raises(ValidationError):
            policy_delta(a, b, noncommute_estimates, noncommute_spec)

    def test_common_random_numbers_reduce_delta_variance(
        self, noncommute_spec, noncommute_estimates
    ):
        # the same comparison with shared vs independent draws, repeated over seeds
        deltas_crn, deltas_indep = [], []
        for seed in range(5):
            base = presets.base_scenario(CurrentMode.CAR, 5.0, seed=seed, n_draws=2000)
            cheap = presets.base_scenario(
                CurrentMode.CAR, 5.0, seed=seed, n_draws=2000,
                overrides={SEB: {"travel_cost_eur": 0.5}},
            )
            deltas_crn.append(
                policy_delta(base, cheap, noncommute_estimates, noncommute_spec)[SEB]
            )
            other = presets.base_scenario(
                CurrentMode.CAR, 5.0, seed=seed + 100, n_draws=2000,
                overrides={SEB: {"travel_cost_eur": 0.5}},
            )
            b = scenario_probabilities(base, noncommute_estimates, noncommute_spec)
            m = scenario_probabilities(other, noncommute_estimates, noncommute_spec)
            deltas_indep.append(100 * (m[2] - b[2]))
        assert np.var(deltas_crn) < np.var(deltas_indep)
