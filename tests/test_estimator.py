from dataclasses import replace as dc_replace

import numpy as np
import pytest

from modeswitch.dataset import ChoiceDataset
from modeswitch.estimator import (
    EstimationSettings,
    estimate,
    likelihood_ratio_test,
    numerical_hessian,
    pool_coefficients,
    std_errors,
    vot,
)
from modeswitch.model import ParameterVector, SpecificationError, UtilityTerm, ValidationError

from conftest import SEV, tiny_dataset, tiny_params, tiny_spec

FAST = EstimationSettings(n_draws=96, seed=5, draw_block=96)


@pytest.fixture(scope="module")
def small_problem():
    spec = tiny_spec(n_components=1)
    truth = tiny_params(
        spec,
        {"asc_sev": 0.5, "asc_seb": -0.4, "beta_cost": -0.45, "beta_time": -0.06,
         "sigma_shared": 0.9},
    )
    dataset = tiny_dataset(n_individuals=250, n_tasks=5, seed=12, spec=spec, params=truth)
    return spec, truth, dataset


def zero_spread_problem(seed):
    """The tiny one-component spec and 220 four-task panels whose spread truth is 0."""
    spec = tiny_spec(n_components=1)
    truth = tiny_params(
        spec,
        {"asc_sev": 0.4, "asc_seb": -0.3, "beta_cost": -0.5, "beta_time": -0.05,
         "sigma_shared": 0.0},
    )
    return spec, tiny_dataset(n_individuals=220, n_tasks=4, seed=seed, spec=spec, params=truth)


@pytest.fixture(scope="module")
def fitted(small_problem):
    spec, truth, dataset = small_problem
    return estimate(dataset, spec, settings=FAST)


class TestVot:
    def test_seb_value_from_bundled_coefficients(self):
        assert vot(-0.05, -0.47) == pytest.approx(6.4, abs=0.05)

    def test_sev_pt_value_from_bundled_coefficients(self):
        assert vot(-0.06, -0.28) == pytest.approx(12.9, abs=0.05)

    def test_unit_coefficients(self):
        assert vot(-1.0, -1.0) == pytest.approx(60.0)

    def test_zero_cost_rejected(self):
        with pytest.raises(ValidationError):
            vot(-0.05, 0.0)


class TestStdErrors:
    def test_one_parameter_quadratic(self):
        # LL = -a (theta - m)^2 / 2 has Hessian -a and standard error 1/sqrt(a)
        a = 4.0
        assert std_errors(np.array([[-a]]))[0] == pytest.approx(1 / np.sqrt(a))

    def test_diagonal_hessian(self):
        h = np.diag([-4.0, -25.0, -0.25])
        np.testing.assert_allclose(std_errors(h), [0.5, 0.2, 2.0])

    def test_singular_hessian_flagged(self):
        with pytest.raises(ValidationError):
            std_errors(np.zeros((2, 2)))

    def test_positive_definite_hessian_flagged(self):
        with pytest.raises(ValidationError):
            std_errors(np.eye(2))

    def test_numerical_hessian_of_quadratic(self):
        q = np.array([[3.0, 0.4], [0.4, 2.0]])

        def grad(x):
            return -q @ x

        h = numerical_hessian(grad, np.array([0.3, -0.2]))
        np.testing.assert_allclose(h, -q, atol=1e-6)


class TestEstimate:
    def test_recovers_small_truth(self, small_problem, fitted):
        spec, truth, dataset = small_problem
        assert fitted.convergence.converged
        assert fitted.fit.n_parameters == 5
        assert fitted.fit.n_observations == dataset.n_observations
        assert fitted.fit.n_individuals == 250
        inside = 0
        for name in truth.free_names:
            target = abs(truth[name]) if name.startswith("sigma") else truth[name]
            got = abs(fitted.estimates[name]) if name.startswith("sigma") else fitted.estimates[name]
            if abs(got - target) <= 2 * fitted.std_errors[name]:
                inside += 1
        assert inside >= 4

    def test_fit_statistics_consistent(self, fitted):
        fit = fitted.fit
        assert fit.null_ll <= 0
        assert fit.final_ll >= fit.null_ll
        assert fit.rho_square == pytest.approx(1 - fit.final_ll / fit.null_ll)

    def test_restart_at_optimum_stays_put(self, small_problem, fitted):
        spec, _, dataset = small_problem
        again = estimate(
            dataset,
            spec,
            start=fitted.estimates,
            settings=EstimationSettings(n_draws=96, seed=5, draw_block=96,
                                        compute_std_errors=False),
        )
        assert again.convergence.converged
        assert again.convergence.iterations <= 2
        assert again.fit.final_ll == pytest.approx(fitted.fit.final_ll, abs=1e-6)

    def test_order_of_individuals_is_irrelevant(self, small_problem):
        spec, truth, dataset = small_problem
        subset = dataset.individuals[:60]
        reversed_ds = ChoiceDataset(dataset.kind, tuple(reversed(subset)))
        forward_ds = ChoiceDataset(dataset.kind, subset)
        settings = EstimationSettings(n_draws=64, seed=3, draw_block=64,
                                      compute_std_errors=False)
        a = estimate(forward_ds, spec, settings=settings)
        b = estimate(reversed_ds, spec, settings=settings)
        assert a.fit.final_ll == pytest.approx(b.fit.final_ll, abs=1e-9)
        for name in truth.free_names:
            assert a.estimates[name] == pytest.approx(b.estimates[name], abs=1e-6)

    def test_profile_consistency(self, small_problem, fitted):
        spec, _, dataset = small_problem
        pinned = fitted.estimates.with_fixed(["beta_cost"])
        again = estimate(
            dataset,
            spec,
            start=pinned,
            settings=EstimationSettings(n_draws=96, seed=5, draw_block=96,
                                        compute_std_errors=False),
        )
        for name in again.estimates.free_names:
            assert again.estimates[name] == pytest.approx(
                fitted.estimates[name], abs=1e-3
            )

    def test_sigma_zero_truth_estimated_insignificant(self):
        hits = 0
        for seed in range(3):
            spec, dataset = zero_spread_problem(seed)
            result = estimate(dataset, spec, settings=FAST)
            if result.p_values["sigma_shared"] > 0.05:
                hits += 1
        assert hits >= 2

    @pytest.mark.parametrize("seed", range(6))
    def test_sigma_zero_truth_converges(self, seed):
        # the likelihood is smooth through sigma = 0, so a spread estimate
        # near zero, of either sign, does not stall the line search there
        spec, dataset = zero_spread_problem(seed)
        result = estimate(dataset, spec, settings=dc_replace(FAST, compute_std_errors=False))
        assert result.convergence.converged, result.convergence.message

    def test_non_convergence_is_flagged_with_best_so_far(self, small_problem):
        spec, _, dataset = small_problem
        result = estimate(
            dataset,
            spec,
            settings=EstimationSettings(n_draws=32, seed=1, max_iterations=1,
                                        draw_block=32, compute_std_errors=False),
        )
        assert not result.convergence.converged
        assert np.isfinite(result.fit.final_ll)

    def test_unidentified_parameter_detected_and_named(self):
        # an all-car, all-leisure dataset leaves the shopping shifter without
        # any variation; the first such coefficient is reported by name
        from modeswitch import presets
        from modeswitch.dataset import validate_for_estimation

        spec = presets.noncommute_spec()
        params = presets.starting_values(spec)
        dataset = tiny_dataset(n_individuals=8, n_tasks=2)
        with pytest.raises(ValidationError, match="sev_shopping"):
            validate_for_estimation(dataset, spec, params)

    def test_std_errors_match_finite_difference_hessian(self, small_problem, fitted):
        from modeswitch.dataset import compile_dataset
        from modeswitch.draws import standard_normal_mlhs
        from modeswitch.likelihood import EvaluationContext

        spec, _, dataset = small_problem
        compiled = compile_dataset(dataset, spec)
        draws = standard_normal_mlhs(
            compiled.n_individuals, FAST.n_draws, 1, FAST.seed,
            individual_ids=compiled.individual_ids,
        )
        context = EvaluationContext(compiled, draws, draw_block=FAST.draw_block)
        estimates = fitted.estimates

        def grad(x):
            return context.loglik_and_gradient(estimates.with_free_array(x))[1]

        reference = std_errors(numerical_hessian(grad, estimates.free_array()))
        got = [fitted.std_errors[name] for name in estimates.free_names]
        np.testing.assert_allclose(got, reference, rtol=1e-4)
        assert fitted.std_errors_missing is None

    def test_singular_hessian_reports_why(self, small_problem):
        # a second constant on the shared EV duplicates a design column, so the
        # Hessian has a null direction and gives no standard errors
        from modeswitch.io import format_results_text

        spec, truth, dataset = small_problem
        copy = UtilityTerm("asc_sev_copy", frozenset({SEV}))
        spec = dc_replace(spec, terms=spec.terms + (copy,))
        start = ParameterVector({**truth.values, "asc_sev_copy": 0.0})
        result = estimate(dataset, spec, start=start, settings=FAST)
        assert result.std_errors is None and result.p_values is None
        assert result.std_errors_missing.startswith("Hessian is ")
        assert "smallest eigenvalue of -H" in result.std_errors_missing
        lines = format_results_text(result, spec).splitlines()
        assert lines[-1] == f"Standard errors: unavailable ({result.std_errors_missing})"

    def test_no_free_parameters_short_circuits(self, small_problem):
        spec, truth, dataset = small_problem
        pinned = truth.with_fixed(truth.names)
        result = estimate(dataset, spec, start=pinned, settings=FAST)
        assert result.convergence.converged
        assert result.fit.n_parameters == 0


class TestPooling:
    def test_pooled_spec_shares_coefficient(self, small_problem):
        spec, truth, dataset = small_problem
        pooled = pool_coefficients(spec, {"asc_any": ["asc_sev", "asc_seb"]})
        assert "asc_any" in pooled.beta_names
        assert "asc_sev" not in pooled.beta_names
        assert len(pooled.beta_names) == len(spec.beta_names) - 1

    def test_likelihood_ratio_of_true_restriction_is_insignificant(self):
        spec = tiny_spec(n_components=0)
        truth = tiny_params(
            spec, {"asc_sev": 0.3, "asc_seb": 0.3, "beta_cost": -0.4, "beta_time": -0.05}
        )
        dataset = tiny_dataset(n_individuals=150, n_tasks=4, seed=3, spec=spec, params=truth)
        settings = EstimationSettings(n_draws=1, seed=0, draw_block=1, compute_std_errors=False)
        full = estimate(dataset, spec, settings=settings)
        pooled_spec = pool_coefficients(spec, {"asc_any": ["asc_sev", "asc_seb"]})
        restricted = estimate(dataset, pooled_spec, settings=settings)
        stat, p_value = likelihood_ratio_test(
            restricted.fit.final_ll, full.fit.final_ll, df=1
        )
        assert stat >= 0
        assert p_value > 0.01

    def test_double_pooling_rejected(self, small_problem):
        spec, _, _ = small_problem
        with pytest.raises(SpecificationError):
            pool_coefficients(
                spec, {"a": ["asc_sev", "asc_seb"], "b": ["asc_seb", "beta_cost"]}
            )

    def test_unknown_member_rejected(self, small_problem):
        spec, _, _ = small_problem
        with pytest.raises(SpecificationError):
            pool_coefficients(spec, {"a": ["nonexistent"]})
