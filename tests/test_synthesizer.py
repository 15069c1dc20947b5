import numpy as np
import pytest

from modeswitch.dataset import Individual, compile_dataset, compile_individuals
from modeswitch.designer import assign_tasks, build_noncommuting_tasks
from modeswitch.model import (
    AgeGroup,
    CurrentMode,
    DatasetKind,
    IncomeBand,
    Purpose,
    ValidationError,
)
from modeswitch.synthesizer import (
    PopulationMarginals,
    sample_population,
    sample_reference_trip,
    simulate_choices,
)

from conftest import SEB, SEV, SQ, persona, tiny_params, tiny_spec


def survey_marginals(current_mode):
    return PopulationMarginals(
        age_group={AgeGroup.LE35: 0.434, AgeGroup.MID: 0.366, AgeGroup.GE60: 0.2},
        higher_education={True: 0.605, False: 0.395},
        income_band={
            IncomeBand.LOW: 0.41,
            IncomeBand.MIDDLE: 0.327,
            IncomeBand.HIGH: 0.135,
            IncomeBand.MISSING: 0.128,
        },
        has_children={True: 0.361, False: 0.639},
        current_mode=current_mode,
    )


class TestSamplePopulation:
    def test_five_km_mode_shares_reproduced(self):
        # the surveyed 5 km shares, including modes outside the modelled set
        shares = {
            "car": 0.286,
            "car_passenger": 0.053,
            "pt": 0.113,
            "walk": 0.077,
            "private_ebike": 0.066,
            "bike": 0.315,
            "bikesharing": 0.025,
            "carsharing": 0.017,
            "taxi": 0.011,
            "motorcycle": 0.036,
        }
        total = sum(shares.values())
        shares = {k: v / total for k, v in shares.items()}
        personas = sample_population(10_000, survey_marginals(shares), seed=2)
        car_share = np.mean([p.current_mode == "car" for p in personas])
        assert car_share == pytest.approx(0.286, abs=0.015)

    def test_degenerate_marginal(self):
        marginals = PopulationMarginals(
            age_group={AgeGroup.LE35: 1.0},
            higher_education={True: 1.0},
            income_band={IncomeBand.LOW: 1.0},
            has_children={False: 1.0},
            current_mode={CurrentMode.CAR: 1.0},
        )
        personas = sample_population(50, marginals, seed=0)
        assert len(set(personas)) == 1

    def test_same_seed_identical(self):
        m = survey_marginals({CurrentMode.CAR: 0.5, CurrentMode.BIKE: 0.5})
        assert sample_population(100, m, seed=9) == sample_population(100, m, seed=9)

    def test_malformed_marginal_rejected(self):
        with pytest.raises(ValidationError):
            survey_marginals({CurrentMode.CAR: 0.7, CurrentMode.BIKE: 0.7})

    def test_unmodelled_labels_fail_only_at_model_entry(self):
        personas = sample_population(10, survey_marginals({"taxi": 1.0}), seed=0)
        with pytest.raises(ValidationError):
            personas[0].modelled_mode()


class TestSampleReferenceTrip:
    def test_car_travel_time_median(self):
        times = [
            sample_reference_trip(CurrentMode.CAR, seed).travel_time_min
            for seed in range(10_000)
        ]
        assert float(np.median(times)) == pytest.approx(12.0, abs=1.0)

    def test_bike_parking_search_bounded(self):
        trips = [sample_reference_trip(CurrentMode.BIKE, seed) for seed in range(2000)]
        assert max(t.parking_search_time_min for t in trips) <= 10.0

    def test_bike_speed_screen_never_violated(self):
        for seed in range(2000):
            trip = sample_reference_trip(CurrentMode.BIKE, seed)
            speed = trip.distance_km / (trip.travel_time_min / 60.0)
            assert speed <= 40.0

    def test_reproducible(self):
        assert sample_reference_trip(CurrentMode.CAR, 7) == sample_reference_trip(CurrentMode.CAR, 7)

    def test_walk_rejected(self):
        with pytest.raises(ValidationError):
            sample_reference_trip(CurrentMode.WALK, 0)


def one_cell_tasks(n, mode=CurrentMode.CAR):
    battery = build_noncommuting_tasks(5.0, Purpose.LEISURE, mode)
    return [assign_tasks(battery, DatasetKind.NONCOMMUTE, seed=i)[:1] for i in range(n)]


class TestSimulateChoices:
    def test_dominant_constant_wins(self, noncommute_spec, noncommute_estimates):
        boosted = noncommute_estimates.with_values({"asc_sev": 50.0})
        personas = [persona() for _ in range(300)]
        task_sets = one_cell_tasks(300)
        ds = simulate_choices(noncommute_spec, boosted, personas, task_sets, seed=0)
        share = np.mean(
            [obs.chosen is SEV for ind in ds.individuals for obs in ind.tasks]
        )
        assert share > 0.999

    def test_zero_parameters_give_uniform_shares(self):
        spec = tiny_spec(n_components=1)
        params = tiny_params(spec, {"sigma_shared": 0.0})
        personas = [persona() for _ in range(1200)]
        battery = build_noncommuting_tasks(5.0, Purpose.LEISURE, CurrentMode.CAR)
        task_sets = [
            assign_tasks(battery, DatasetKind.NONCOMMUTE, seed=i)[:3] for i in range(1200)
        ]
        ds = simulate_choices(spec, params, personas, task_sets, seed=3)
        chosen = [obs.chosen for ind in ds.individuals for obs in ind.tasks]
        for alt in (SQ, SEV, SEB):
            assert np.mean([c is alt for c in chosen]) == pytest.approx(1 / 3, abs=0.02)

    def test_panel_correlation_signature(self):
        spec = tiny_spec(n_components=1)
        quiet = tiny_params(spec, {"sigma_shared": 0.0})
        loud = tiny_params(spec, {"sigma_shared": 3.0})
        personas = [persona() for _ in range(800)]
        battery = build_noncommuting_tasks(
            5.0, Purpose.LEISURE, CurrentMode.CAR
        ) + build_noncommuting_tasks(5.0, Purpose.SHOPPING, CurrentMode.CAR)
        task_sets = [
            assign_tasks(battery, DatasetKind.NONCOMMUTE, seed=i) for i in range(800)
        ]

        def within_person_switch_correlation(params, seed):
            ds = simulate_choices(spec, params, personas, task_sets, seed=seed)
            pairs = np.array(
                [
                    [obs.chosen is not SQ for obs in ind.tasks]
                    for ind in ds.individuals
                ],
                dtype=float,
            )
            return np.corrcoef(pairs[:, 0], pairs[:, 1])[0, 1]

        assert within_person_switch_correlation(loud, 5) > 0.25
        assert abs(within_person_switch_correlation(quiet, 5)) < 0.1

    def test_order_independent_generation(self, noncommute_spec, noncommute_estimates):
        personas = [persona(), persona(mode=CurrentMode.PUBLIC_TRANSPORT)]
        battery_car = build_noncommuting_tasks(5.0, Purpose.LEISURE, CurrentMode.CAR)
        battery_pt = build_noncommuting_tasks(5.0, Purpose.LEISURE, CurrentMode.PUBLIC_TRANSPORT)
        sets = [battery_car[:3], battery_pt[:3]]
        ds = simulate_choices(noncommute_spec, noncommute_estimates, personas, sets, seed=1)
        # regenerating only the first individual gives identical choices
        again = simulate_choices(
            noncommute_spec, noncommute_estimates, personas[:1], sets[:1], seed=1
        )
        assert [o.chosen for o in again.individuals[0].tasks] == [
            o.chosen for o in ds.individuals[0].tasks
        ]

    def test_mismatched_lengths_rejected(self, noncommute_spec, noncommute_estimates):
        with pytest.raises(ValidationError):
            simulate_choices(noncommute_spec, noncommute_estimates, [persona()], [], seed=0)

    def test_unanswered_tasks_compile_like_answered(self, noncommute_spec, noncommute_estimates):
        personas = [persona(), persona(mode=CurrentMode.WALK)]
        sets = [
            build_noncommuting_tasks(5.0, Purpose.LEISURE, CurrentMode.CAR)[:2],
            one_cell_tasks(1, CurrentMode.WALK)[0],
        ]
        ds = simulate_choices(noncommute_spec, noncommute_estimates, personas, sets, seed=4)
        answered = compile_dataset(ds, noncommute_spec)
        unanswered = compile_individuals(
            [Individual(i, p, tuple(tasks)) for i, (p, tasks) in enumerate(zip(personas, sets))],
            noncommute_spec,
        )
        np.testing.assert_array_equal(unanswered.design, answered.design)
        np.testing.assert_array_equal(unanswered.avail, answered.avail)
        np.testing.assert_array_equal(unanswered.obs_starts, answered.obs_starts)
        assert unanswered.chosen.tolist() == [-1, -1, -1]
        assert (answered.chosen >= 0).all()
