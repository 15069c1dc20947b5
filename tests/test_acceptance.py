"""Acceptance suite: one test per criterion, each printing a PASS line.

The parameter-recovery criterion estimates five full-size synthetic
datasets at 1000 draws and dominates the runtime of the whole suite
(roughly 6-7 minutes on one core); everything else finishes in seconds.
"""

import itertools
import math

import numpy as np
import pytest

from modeswitch import presets
from modeswitch.cli import synthesize_dataset
from modeswitch.dataset import ChoiceDataset, Individual, compile_dataset
from modeswitch.designer import orthogonal_array_27
from modeswitch.draws import standard_normal_mlhs
from modeswitch.estimator import EstimationSettings, estimate, vot
from modeswitch.likelihood import EvaluationContext, null_loglik, panel_probability, rho_square
from modeswitch.model import CurrentMode, DatasetKind, Purpose
from modeswitch.simulator import (
    policy_delta,
    scenario_probabilities,
    substitution_table,
)
from modeswitch.synthesizer import simulate_choices

from conftest import SEB, SEV, SQ, make_task, persona, tiny_dataset, tiny_params, tiny_spec

N_DRAWS_TABLES = 100_000


def report(criterion: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS")


def flat_dataset(n_individuals: int, n_tasks: int, kind: DatasetKind) -> ChoiceDataset:
    """All three alternatives available in every task, choices at the status quo."""
    purpose = Purpose.COMMUTE if kind is DatasetKind.COMMUTE else Purpose.LEISURE
    individuals = []
    for i in range(n_individuals):
        tasks = tuple(
            make_task(task_id=str(t), purpose=purpose, chosen=SQ) for t in range(n_tasks)
        )
        individuals.append(Individual(individual_id=i, persona=persona(), tasks=tasks))
    return ChoiceDataset(kind, tuple(individuals))


class TestCriterion1NullLoglik:
    def test_noncommute_scale(self):
        ds = flat_dataset(707, 6, DatasetKind.NONCOMMUTE)
        assert ds.n_observations == 4242
        assert null_loglik(ds) == pytest.approx(-4660.3, abs=0.1)

    def test_commute_scale(self):
        ds = flat_dataset(295, 6, DatasetKind.COMMUTE)
        assert ds.n_observations == 1770
        assert null_loglik(ds) == pytest.approx(-1944.5, abs=0.1)
        report("1 null log-likelihood exactness")


class TestCriterion2RhoSquare:
    def test_both_published_fits(self):
        assert rho_square(-2354.4, -4660.3) == pytest.approx(0.495, abs=0.001)
        assert rho_square(-708.7, -1944.5) == pytest.approx(0.636, abs=0.001)
        report("2 rho-square arithmetic")


class TestCriterion3ValueOfTime:
    def test_shared_mode_values(self, noncommute_estimates):
        seb = vot(noncommute_estimates["seb_time_car_pt"], noncommute_estimates["seb_cost"])
        sev = vot(noncommute_estimates["sev_time_car_pt"], noncommute_estimates["sev_cost_pt"])
        assert seb == pytest.approx(6.4, abs=0.05)
        assert sev == pytest.approx(12.9, abs=0.05)
        report("3 value-of-time reproduction")


NONCOMMUTE_GRID_TARGETS = {
    (CurrentMode.CAR, 2.0): (75.6, 12.2, 12.3),
    (CurrentMode.CAR, 5.0): (77.7, 11.0, 11.2),
    (CurrentMode.CAR, 10.0): (78.7, 11.2, 10.1),
    (CurrentMode.PUBLIC_TRANSPORT, 2.0): (68.1, 16.8, 15.1),
    (CurrentMode.PUBLIC_TRANSPORT, 5.0): (67.5, 14.6, 17.9),
    (CurrentMode.PUBLIC_TRANSPORT, 10.0): (59.2, 13.6, 27.2),
    (CurrentMode.BIKE, 2.0): (86.1, 8.6, 5.3),
    (CurrentMode.BIKE, 5.0): (82.4, 10.3, 7.4),
    (CurrentMode.BIKE, 10.0): (70.8, 15.5, 13.6),
    (CurrentMode.WALK, 2.0): (78.7, 8.7, 12.5),
    (CurrentMode.WALK, 5.0): (56.0, 20.2, 23.8),
}


class TestCriterion4SubstitutionGrid:
    def test_noncommute_grid_reproduced(self, noncommute_spec, noncommute_estimates):
        grid = presets.substitution_grid(DatasetKind.NONCOMMUTE, seed=0, n_draws=N_DRAWS_TABLES)
        table = substitution_table(grid, noncommute_estimates, noncommute_spec)
        assert len(table.rows) == 11
        for row in table.rows:
            target = np.array(NONCOMMUTE_GRID_TARGETS[(row.current_mode, row.distance_km)])
            got = np.array(
                [row.shares[SQ], row.shares[SEV], row.shares[SEB]]
            )
            np.testing.assert_allclose(got, target, atol=5.0)
        car_row = table.cell(CurrentMode.CAR, 5.0)
        got = np.array([car_row.shares[SQ], car_row.shares[SEV], car_row.shares[SEB]])
        np.testing.assert_allclose(got, (77.7, 11.0, 11.2), atol=3.0)
        report("4 substitution grid reproduction")


POLICY_TARGETS = {
    "hub_access_to_7p5_min": (76.6, 11.7, 11.7),
    "seb_fee_to_0p5_eur": (76.2, 10.6, 13.2),
    "car_parking_search_to_7p5_min": (76.3, 11.7, 12.0),
    "car_parking_fee_to_4p5_eur": (76.4, 11.7, 11.9),
}
POLICY_BASE = np.array([77.7, 11.0, 11.2])


class TestCriterion5PolicyDeltas:
    def test_policy_pack_reproduced(self, noncommute_spec, noncommute_estimates):
        scenarios = presets.policy_scenarios(seed=0, n_draws=N_DRAWS_TABLES)
        base = scenarios[presets.POLICY_BASELINE]
        base_shares = 100 * scenario_probabilities(base, noncommute_estimates, noncommute_spec)
        np.testing.assert_allclose(base_shares, POLICY_BASE, atol=3.0)
        for name, target in POLICY_TARGETS.items():
            shares = 100 * scenario_probabilities(
                scenarios[name], noncommute_estimates, noncommute_spec
            )
            np.testing.assert_allclose(shares, target, atol=3.0)
            delta = policy_delta(base, scenarios[name], noncommute_estimates, noncommute_spec)
            got = np.array([delta[SQ], delta[SEV], delta[SEB]])
            np.testing.assert_allclose(got, np.array(target) - POLICY_BASE, atol=1.0)
        report("5 policy delta reproduction")


RECOVERY_SEEDS = (101, 102, 103, 104, 105)


@pytest.fixture(scope="module")
def recovery_runs(noncommute_spec, noncommute_estimates):
    runs = []
    for seed in RECOVERY_SEEDS:
        dataset = synthesize_dataset(DatasetKind.NONCOMMUTE, 900, seed, noncommute_estimates)
        result = estimate(
            dataset,
            noncommute_spec,
            settings=EstimationSettings(n_draws=1000, seed=seed + 7000),
        )
        runs.append(result)
    return runs


class TestCriterion6ParameterRecovery:
    def test_recovery_within_two_standard_errors(self, recovery_runs, noncommute_estimates):
        truth = noncommute_estimates
        truth_p = presets.bundled_p_values(DatasetKind.NONCOMMUTE)
        total = 0
        inside = 0
        sign_violations = []
        for result in recovery_runs:
            assert result.convergence.converged
            assert result.std_errors is not None
            for name in result.estimates.free_names:
                is_sigma = name.startswith("sigma")
                target = abs(truth[name]) if is_sigma else truth[name]
                got = abs(result.estimates[name]) if is_sigma else result.estimates[name]
                total += 1
                if abs(got - target) <= 2 * result.std_errors[name]:
                    inside += 1
                # A sign is recovered when no statistically significant truth
                # gets a significant estimate of the opposite sign. Sigma signs
                # are unidentified, so they stay out of this check.
                if (
                    not is_sigma
                    and truth_p[name] < 0.05
                    and result.p_values[name] < 0.05
                    and math.copysign(1, got) != math.copysign(1, target)
                ):
                    sign_violations.append(name)
        fraction = inside / total
        print(
            f"recovery: {inside}/{total} within 2 SE ({100 * fraction:.1f}%), "
            f"sign violations: {sign_violations}"
        )
        assert fraction >= 0.90
        assert not sign_violations
        report("6 parameter recovery at full scale")


class TestCriterion7GradientCorrectness:
    def test_twenty_random_points(self):
        spec = tiny_spec(n_components=2)
        dataset = tiny_dataset(n_individuals=30, n_tasks=3, seed=21, spec=spec)
        compiled = compile_dataset(dataset, spec)
        draws = standard_normal_mlhs(30, 64, 2, seed=4)
        context = EvaluationContext(compiled, draws)
        base = tiny_params(spec)
        rng = np.random.default_rng(99)
        names = base.free_names
        n_sigma = len(spec.sigma_names)
        for point in range(20):
            x = rng.normal(0, 0.4, size=len(names))
            x[-n_sigma:] = rng.uniform(0.2, 1.5, n_sigma)
            params = base.with_free_array(x)
            _, grad = context.loglik_and_gradient(params)
            for i in range(len(names)):
                h = 1e-5 * max(1.0, abs(x[i]))
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                fd = (
                    context.loglik(base.with_free_array(xp))
                    - context.loglik(base.with_free_array(xm))
                ) / (2 * h)
                assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-7)
        report("7 gradient versus finite differences")


class TestCriterion8MixingIntegralOracle:
    def test_hundred_random_parameterizations(self):
        from modeswitch.model import ErrorComponent, ModelSpec

        base_spec = tiny_spec(n_components=0)
        rng = np.random.default_rng(42)
        nodes, weights = np.polynomial.hermite.hermgauss(32)
        for case in range(100):
            v = rng.normal(0, 1.5, size=3)
            sigma = rng.uniform(0.2, 2.0)
            loaded = int(rng.integers(1, 3))  # a component on sev or on seb
            chosen_idx = int(rng.integers(3))

            oracle = 0.0
            for xi, wi in zip(nodes, weights):
                shifted = v.copy()
                shifted[loaded] += sigma * math.sqrt(2.0) * xi
                e = np.exp(shifted - shifted.max())
                oracle += wi * e[chosen_idx] / e.sum()
            oracle /= math.sqrt(math.pi)

            spec = ModelSpec(
                base_spec.kind,
                base_spec.terms,
                (ErrorComponent("sigma_only", frozenset({(SQ, SEV, SEB)[loaded]})),),
            )
            # the tiny spec has no status-quo constant: shift all utilities by -v[0]
            params = tiny_params(
                spec,
                {"asc_sev": v[1] - v[0], "asc_seb": v[2] - v[0],
                 "beta_cost": 0.0, "beta_time": 0.0, "sigma_only": sigma},
            )
            ind = Individual(
                individual_id=0,
                persona=persona(),
                tasks=(make_task(chosen=(SQ, SEV, SEB)[chosen_idx]),),
            )
            draws = standard_normal_mlhs(1, 1000, 1, seed=1000 + case)
            simulated = panel_probability(ind, spec, params, draws.values[0])
            assert simulated == pytest.approx(oracle, abs=1e-3)
        report("8 mixing integral versus quadrature")


class TestCriterion9DesignStrength:
    @pytest.mark.parametrize("k", range(2, 14))
    def test_strength_two(self, k):
        matrix = orthogonal_array_27(k)
        for a, b in itertools.combinations(range(k), 2):
            counts = np.zeros((3, 3), dtype=int)
            for row in matrix:
                counts[row[a], row[b]] += 1
            assert (counts == 3).all()
        if k == 13:
            report("9 orthogonal array strength-2")


class TestCriterion10GenerativeEvaluativeConsistency:
    def test_ten_matched_scenarios(self, noncommute_spec, noncommute_estimates):
        # ten of the eleven defined grid cells, all four current modes included
        cells = [
            (mode, distance)
            for mode in (CurrentMode.CAR, CurrentMode.PUBLIC_TRANSPORT,
                         CurrentMode.BIKE, CurrentMode.WALK)
            for distance in (2.0, 5.0, 10.0)
            if not (mode is CurrentMode.WALK and distance == 10.0)
        ][:10]
        assert len(cells) == 10
        n_people = 4000
        for index, (mode, distance) in enumerate(cells):
            scenario = presets.base_scenario(mode, distance, seed=500 + index,
                                             n_draws=N_DRAWS_TABLES)
            expected = scenario_probabilities(scenario, noncommute_estimates, noncommute_spec)
            task = scenario.task()
            personas = [scenario.persona] * n_people
            task_sets = [(task,)] * n_people
            simulated = simulate_choices(
                noncommute_spec, noncommute_estimates, personas, task_sets,
                seed=900 + index,
            )
            counts = {alt: 0 for alt in (SQ, SEV, SEB)}
            for ind in simulated.individuals:
                counts[ind.tasks[0].chosen] += 1
            for j, alt in enumerate((SQ, SEV, SEB)):
                empirical = counts[alt] / n_people
                bound = 3 * math.sqrt(max(expected[j] * (1 - expected[j]), 1e-6) / n_people)
                assert abs(empirical - expected[j]) <= bound, (
                    f"cell ({mode.value}, {distance}) alternative {alt.value}: "
                    f"empirical {empirical:.4f} vs simulated {expected[j]:.4f} "
                    f"(bound {bound:.4f})"
                )
        report("10 generative and evaluative engines agree")
