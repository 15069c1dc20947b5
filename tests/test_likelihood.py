import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modeswitch.dataset import ChoiceDataset, Individual, compile_dataset
from modeswitch.draws import DrawMatrix, standard_normal_mlhs
from modeswitch.estimator import numerical_hessian
from modeswitch import likelihood
from modeswitch.likelihood import (
    EvaluationContext,
    ZeroProbabilityError,
    gradient,
    null_loglik,
    panel_probability,
    rho_square,
    simulated_loglik,
    task_choice_prob,
)
from modeswitch.model import AttributeBundle, CurrentMode, DatasetKind, ValidationError

from conftest import SEB, SEV, SQ, make_task, persona, tiny_dataset, tiny_params, tiny_spec


class TestTaskChoiceProb:
    def test_equal_utilities(self):
        np.testing.assert_allclose(
            task_choice_prob(np.zeros(3), np.ones(3, dtype=bool)), np.full(3, 1 / 3)
        )

    def test_unavailable_gets_exact_zero(self):
        probs = task_choice_prob(np.zeros(3), np.array([True, True, False]))
        assert probs[2] == 0.0
        np.testing.assert_allclose(probs[:2], [0.5, 0.5])

    def test_closed_form_softmax(self):
        probs = task_choice_prob(np.array([math.log(2), 0.0, 0.0]), np.ones(3, dtype=bool))
        np.testing.assert_allclose(probs, [0.5, 0.25, 0.25], atol=1e-12)

    def test_stable_at_large_magnitudes(self):
        probs = task_choice_prob(np.array([700.0, -700.0, 699.0]), np.ones(3, dtype=bool))
        assert np.isfinite(probs).all()
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_empty_availability_rejected(self):
        with pytest.raises(ValidationError):
            task_choice_prob(np.zeros(3), np.zeros(3, dtype=bool))

    @settings(max_examples=50, deadline=None)
    @given(
        v=st.lists(st.floats(min_value=-300, max_value=300), min_size=3, max_size=3),
        avail=st.lists(st.booleans(), min_size=3, max_size=3).filter(any),
    )
    def test_simplex_property(self, v, avail):
        probs = task_choice_prob(np.array(v), np.array(avail))
        assert (probs >= 0).all()
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert all(p == 0 for p, a in zip(probs, avail) if not a)

    @settings(max_examples=30, deadline=None)
    @given(
        v=st.lists(st.floats(min_value=-50, max_value=50), min_size=3, max_size=3),
        shift=st.floats(min_value=-100, max_value=100),
    )
    def test_translation_invariance(self, v, shift):
        avail = np.ones(3, dtype=bool)
        base = task_choice_prob(np.array(v), avail)
        shifted = task_choice_prob(np.array(v) + shift, avail)
        np.testing.assert_allclose(base, shifted, atol=1e-12)


class TestNullLoglik:
    def test_three_available(self):
        ds = tiny_dataset(n_individuals=3, n_tasks=3)
        assert null_loglik(ds) == pytest.approx(-9 * math.log(3), abs=1e-9)

    def test_single_available_alternative_contributes_zero(self):
        obs = make_task(
            chosen=SQ, availability={SEV: False, SEB: False}
        )
        ds = ChoiceDataset(
            DatasetKind.NONCOMMUTE,
            (Individual(individual_id=0, persona=persona(), tasks=(obs,)),),
        )
        assert null_loglik(ds) == 0.0

    def test_conditional_rule_shrinks_choice_set(self):
        # a bike user's car-template status quo is unavailable: 2 alternatives
        obs = make_task(sq_mode=CurrentMode.CAR, chosen=SEV)
        ds = ChoiceDataset(
            DatasetKind.NONCOMMUTE,
            (Individual(individual_id=0, persona=persona(mode=CurrentMode.BIKE), tasks=(obs,)),),
        )
        assert null_loglik(ds) == pytest.approx(-math.log(2))


class TestRhoSquare:
    def test_published_noncommute_fit(self):
        assert rho_square(-2354.4, -4660.3) == pytest.approx(0.495, abs=0.001)

    def test_published_commute_fit(self):
        assert rho_square(-708.7, -1944.5) == pytest.approx(0.636, abs=0.001)

    def test_equal_loglik_gives_zero(self):
        assert rho_square(-123.4, -123.4) == 0.0

    def test_zero_null_rejected(self):
        with pytest.raises(ValidationError):
            rho_square(-1.0, 0.0)


def gauss_hermite_panel_prob(v, chosen, sigma, loaded_alt, nodes=32):
    """Independent oracle: single task, one component, by Gauss-Hermite quadrature."""
    x, w = np.polynomial.hermite.hermgauss(nodes)
    total = 0.0
    for xi, wi in zip(x, w):
        u = np.array(v, dtype=float)
        u[loaded_alt] += abs(sigma) * math.sqrt(2.0) * xi
        e = np.exp(u - u.max())
        total += wi * (e[chosen] / e.sum())
    return total / math.sqrt(math.pi)


class TestPanelProbability:
    def test_degenerate_mixing_equals_plain_logit(self):
        spec = tiny_spec(n_components=1)
        params = tiny_params(spec, {"asc_sev": 0.4, "beta_cost": -0.3, "sigma_shared": 0.0})
        bundles = {
            SQ: AttributeBundle(travel_cost_eur=1.0),
            SEV: AttributeBundle(travel_cost_eur=2.0),
            SEB: AttributeBundle(travel_cost_eur=0.5),
        }
        tasks = tuple(
            make_task(task_id=str(t), attributes=bundles, chosen=SEV) for t in range(3)
        )
        ind = Individual(individual_id=0, persona=persona(), tasks=tasks)
        v = np.array([-0.3, 0.4 - 0.6, -0.15])
        expected = task_choice_prob(v, np.ones(3, dtype=bool))[1] ** 3
        for n_draws in (1, 7, 40):
            z = np.zeros((n_draws, 1)) + np.linspace(-2, 2, n_draws)[:, None]
            assert panel_probability(ind, spec, params, z) == pytest.approx(expected, abs=1e-12)

    def test_matches_gauss_hermite_quadrature(self):
        spec = tiny_spec(n_components=2)  # shared + sev-specific
        rng = np.random.default_rng(5)
        for _ in range(10):
            cost = rng.uniform(0, 3, size=3)
            params = tiny_params(
                spec,
                {
                    "asc_sev": rng.normal(),
                    "asc_seb": rng.normal(),
                    "beta_cost": rng.normal(scale=0.5),
                    "beta_time": 0.0,
                    "sigma_shared": 0.0,
                    "sigma_sev": rng.uniform(0.3, 1.5),
                },
            )
            bundles = {
                alt: AttributeBundle(travel_cost_eur=float(c))
                for alt, c in zip((SQ, SEV, SEB), cost)
            }
            chosen_idx = int(rng.integers(3))
            obs = make_task(attributes=bundles, chosen=(SQ, SEV, SEB)[chosen_idx])
            ind = Individual(individual_id=0, persona=persona(), tasks=(obs,))
            v = [
                params["beta_cost"] * cost[0],
                params["asc_sev"] + params["beta_cost"] * cost[1],
                params["asc_seb"] + params["beta_cost"] * cost[2],
            ]
            oracle = gauss_hermite_panel_prob(v, chosen_idx, params["sigma_sev"], loaded_alt=1)
            draws = standard_normal_mlhs(1, 1000, 2, seed=int(rng.integers(2**31)))
            simulated = panel_probability(ind, spec, params, draws.values[0])
            assert simulated == pytest.approx(oracle, abs=1e-3)

    def test_two_identical_tasks_equal_utilities(self):
        spec = tiny_spec(n_components=0)
        params = tiny_params(spec)
        tasks = tuple(make_task(task_id=str(t), chosen=SQ) for t in range(2))
        ind = Individual(individual_id=0, persona=persona(), tasks=tasks)
        z = np.zeros((5, 0))
        assert panel_probability(ind, spec, params, z) == pytest.approx(1 / 9, abs=1e-12)


class TestSimulatedLoglik:
    def test_single_equal_utility_task(self):
        spec = tiny_spec(n_components=0)
        params = tiny_params(spec)
        ds = ChoiceDataset(
            DatasetKind.NONCOMMUTE,
            (Individual(individual_id=0, persona=persona(), tasks=(make_task(chosen=SQ),)),),
        )
        draws = DrawMatrix(np.zeros((1, 1, 0)), seed=0)
        assert simulated_loglik(ds, spec, params, draws) == pytest.approx(
            math.log(1 / 3), abs=1e-12
        )

    def test_full_scale_null_value_at_zero_parameters(self):
        # 4242 three-alternative observations at zero parameters
        spec = tiny_spec(n_components=0)
        params = tiny_params(spec)
        tasks = tuple(make_task(task_id=str(t), chosen=SQ) for t in range(6))
        individuals = tuple(
            Individual(individual_id=i, persona=persona(), tasks=tasks) for i in range(707)
        )
        ds = ChoiceDataset(DatasetKind.NONCOMMUTE, individuals)
        draws = DrawMatrix(np.zeros((707, 1, 0)), seed=0)
        assert simulated_loglik(ds, spec, params, draws) == pytest.approx(-4660.3, abs=0.1)

    def test_pushing_cost_against_data_decreases_loglik(self):
        spec = tiny_spec(n_components=0)
        ds = tiny_dataset(n_individuals=40, n_tasks=4, spec=spec)
        draws = DrawMatrix(np.zeros((40, 1, 0)), seed=0)
        good = tiny_params(spec, {"beta_cost": -0.4, "asc_sev": 0.3, "asc_seb": -0.2,
                                  "beta_time": -0.05})
        bad = good.with_values({"beta_cost": 2.0})
        assert simulated_loglik(ds, spec, bad, draws) < simulated_loglik(ds, spec, good, draws)

    def test_sigma_zero_equals_closed_form_for_any_draw_count(self):
        spec = tiny_spec(n_components=1)
        ds = tiny_dataset(n_individuals=25, n_tasks=3, spec=spec)
        params = tiny_params(spec, {"asc_sev": 0.2, "beta_cost": -0.3, "sigma_shared": 0.0})
        reference = None
        for n_draws, seed in ((1, 0), (13, 4), (200, 9)):
            draws = standard_normal_mlhs(25, n_draws, 1, seed)
            value = simulated_loglik(ds, spec, params, draws)
            if reference is None:
                reference = value
            assert value == pytest.approx(reference, abs=1e-12)

    def test_draw_count_stability(self):
        spec = tiny_spec(n_components=2)
        params = tiny_params(
            spec, {"asc_sev": 0.3, "asc_seb": -0.2, "beta_cost": -0.4, "beta_time": -0.05,
                   "sigma_shared": 0.8, "sigma_sev": 0.5}
        )
        ds = tiny_dataset(n_individuals=60, n_tasks=4, spec=spec, params=params)
        ll_1000 = simulated_loglik(ds, spec, params, standard_normal_mlhs(60, 1000, 2, 1))
        ll_2000 = simulated_loglik(ds, spec, params, standard_normal_mlhs(60, 2000, 2, 1))
        assert abs(ll_1000 - ll_2000) / abs(ll_1000) < 0.005

    def test_repeated_evaluation_is_deterministic(self):
        spec = tiny_spec(n_components=2)
        params = tiny_params(spec, {"asc_sev": 0.3, "beta_cost": -0.4,
                                    "sigma_shared": 0.8, "sigma_sev": 0.5})
        ds = tiny_dataset(n_individuals=30, n_tasks=3, spec=spec)
        draws = standard_normal_mlhs(30, 64, 2, 2)
        first = simulated_loglik(ds, spec, params, draws)
        second = simulated_loglik(ds, spec, params, draws)
        assert first == second

    def test_block_and_thread_partitions_agree(self):
        spec = tiny_spec(n_components=2)
        params = tiny_params(spec, {"asc_sev": 0.3, "beta_cost": -0.4,
                                    "sigma_shared": 0.8, "sigma_sev": 0.5})
        ds = tiny_dataset(n_individuals=20, n_tasks=3, spec=spec)
        compiled = compile_dataset(ds, spec)
        draws = standard_normal_mlhs(20, 64, 2, 2)
        whole = EvaluationContext(compiled, draws, draw_block=64).loglik_and_gradient(params)
        blocked = EvaluationContext(compiled, draws, draw_block=17).loglik_and_gradient(params)
        threaded = EvaluationContext(compiled, draws, draw_block=17, threads=3).loglik_and_gradient(params)
        assert abs(whole[0] - blocked[0]) < 1e-10
        assert blocked[0] == threaded[0]
        np.testing.assert_allclose(whole[1], blocked[1], atol=1e-10)
        np.testing.assert_array_equal(blocked[1], threaded[1])

    def test_tiny_chosen_probability_stays_finite(self):
        # p = exp(-4000) / (exp(-4000) + 2) underflows, but its log does not
        spec = tiny_spec(n_components=0)
        bundles = {SQ: AttributeBundle(travel_cost_eur=4000.0), SEV: AttributeBundle(),
                   SEB: AttributeBundle()}
        obs = make_task(attributes=bundles, chosen=SQ)
        ds = ChoiceDataset(
            DatasetKind.NONCOMMUTE,
            (Individual(individual_id=17, persona=persona(), tasks=(obs,)),),
        )
        params = tiny_params(spec, {"beta_cost": -1.0})
        draws = DrawMatrix(np.zeros((1, 1, 0)), seed=0)
        assert simulated_loglik(ds, spec, params, draws) == pytest.approx(
            -4000.0 - math.log(2.0), rel=1e-15
        )

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("beta_cost, chosen", [(-10.0, SQ), (10.0, SEV)])
    def test_overflowing_utility_reports_individual(self, beta_cost, chosen):
        # the status quo's utility overflows to -inf (chosen) or +inf (not chosen)
        spec = tiny_spec(n_components=0)
        bundles = {SQ: AttributeBundle(travel_cost_eur=1e308), SEV: AttributeBundle(),
                   SEB: AttributeBundle()}
        obs = make_task(attributes=bundles, chosen=chosen)
        ds = ChoiceDataset(
            DatasetKind.NONCOMMUTE,
            (Individual(individual_id=17, persona=persona(), tasks=(obs,)),),
        )
        params = tiny_params(spec, {"beta_cost": beta_cost})
        draws = DrawMatrix(np.zeros((1, 1, 0)), seed=0)
        with pytest.raises(ZeroProbabilityError) as excinfo:
            simulated_loglik(ds, spec, params, draws)
        assert excinfo.value.individual_id == 17


def log_domain_loglik(ds, params, z):
    """Independent oracle: ln mean_d prod_t p_t,chosen,d per individual, with every
    step in logs (scipy's logsumexp over alternatives and over draws)."""
    from scipy.special import logsumexp

    per_individual = []
    for n, ind in enumerate(ds.individuals):
        log_panel = np.zeros(z.shape[1])
        for obs in ind.tasks:
            u = []
            for alt in (SQ, SEV, SEB):
                bundle = obs.attributes[alt]
                v = (params["beta_cost"] * bundle.travel_cost_eur
                     + params["beta_time"] * bundle.travel_time_min
                     + {SQ: 0.0, SEV: params["asc_sev"], SEB: params["asc_seb"]}[alt])
                offset = abs(params["sigma_shared"]) * z[n, :, 0] if alt is not SQ else 0.0
                if alt is SEV:
                    offset = offset + abs(params["sigma_sev"]) * z[n, :, 1]
                u.append(v + offset * np.ones(z.shape[1]))
            u = np.array(u)
            log_panel += u[(SQ, SEV, SEB).index(obs.chosen)] - logsumexp(u, axis=0)
        per_individual.append(logsumexp(log_panel) - math.log(z.shape[1]))
    return np.array(per_individual)


class TestLogDomain:
    def test_long_panel_at_extreme_parameters_matches_oracle(self):
        # 27 tasks whose choices the parameters strongly reject: each panel
        # probability is far below the smallest double, so an average of
        # exp(sum of ln p) over draws would be exactly zero
        spec = tiny_spec(n_components=2)
        ds = tiny_dataset(n_individuals=6, n_tasks=27, spec=spec, seed=8)
        params = tiny_params(spec, {"asc_sev": -30.0, "asc_seb": 60.0, "beta_cost": 12.0,
                                    "beta_time": -1.5, "sigma_shared": 6.0, "sigma_sev": -4.0})
        draws = standard_normal_mlhs(6, 200, 2, 5)
        context = EvaluationContext(compile_dataset(ds, spec), draws, draw_block=64)
        ll, grad = context.loglik_and_gradient(params)
        oracle = log_domain_loglik(ds, params, draws.values)
        assert oracle.max() < -745.0  # below ln of the smallest subnormal double
        assert np.isfinite(ll) and np.isfinite(grad).all()
        assert ll == pytest.approx(oracle.sum(), rel=1e-12)
        assert context.loglik(params) == ll

    @pytest.mark.parametrize("threads", [1, 3])
    def test_recomputed_probabilities_are_bit_identical(self, threads, monkeypatch):
        spec = tiny_spec(n_components=2)
        params = tiny_params(spec, {"asc_sev": 0.3, "beta_cost": -0.4,
                                    "sigma_shared": 0.8, "sigma_sev": -0.5})
        ds = tiny_dataset(n_individuals=20, n_tasks=3, spec=spec)
        compiled = compile_dataset(ds, spec)
        draws = standard_normal_mlhs(20, 150, 2, 2)
        cached = EvaluationContext(compiled, draws, draw_block=40, threads=threads)
        monkeypatch.setattr(likelihood, "_P_CACHE_BYTES", 0)
        recomputed = EvaluationContext(compiled, draws, draw_block=40, threads=threads)
        assert cached._cache_probs and not recomputed._cache_probs
        ll, grad = cached.loglik_and_gradient(params)
        ll_again, grad_again = recomputed.loglik_and_gradient(params)
        assert ll == ll_again
        np.testing.assert_array_equal(grad, grad_again)
        np.testing.assert_array_equal(cached.hessian(params), recomputed.hessian(params))


class TestGradient:
    def test_matches_finite_differences(self):
        spec = tiny_spec(n_components=2)
        params = tiny_params(
            spec, {"asc_sev": 0.25, "asc_seb": -0.15, "beta_cost": -0.35, "beta_time": -0.04,
                   "sigma_shared": 0.7, "sigma_sev": 0.4}
        )
        ds = tiny_dataset(n_individuals=25, n_tasks=3, spec=spec)
        compiled = compile_dataset(ds, spec)
        draws = standard_normal_mlhs(25, 128, 2, 3)
        context = EvaluationContext(compiled, draws)
        _, grad = context.loglik_and_gradient(params)
        x = params.free_array()
        for i, name in enumerate(params.free_names):
            h = 1e-5 * max(1.0, abs(x[i]))
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd = (
                context.loglik(params.with_free_array(xp))
                - context.loglik(params.with_free_array(xm))
            ) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-4), name

    def test_fixed_parameters_have_no_entry(self):
        spec = tiny_spec(n_components=1)
        params = tiny_params(spec, fixed=("asc_seb", "sigma_shared"))
        ds = tiny_dataset(n_individuals=10, n_tasks=2, spec=spec)
        draws = standard_normal_mlhs(10, 16, 1, 0)
        grad = gradient(ds, spec, params, draws)
        assert grad.shape == (len(params.free_names),)
        assert "asc_seb" not in params.free_names

    def test_logit_score_identity_at_zero(self):
        # at zero parameters with sigma fixed to 0, the constant's gradient is
        # the observed count minus the predicted count of its alternative
        spec = tiny_spec(n_components=1)
        params = tiny_params(spec, {"sigma_shared": 0.0}, fixed=("sigma_shared",))
        ds = tiny_dataset(n_individuals=30, n_tasks=4, spec=spec)
        draws = standard_normal_mlhs(30, 8, 1, 0)
        grad = gradient(ds, spec, params, draws)
        idx = params.free_names.index("asc_sev")
        n_obs = ds.n_observations
        observed = sum(
            1 for ind in ds.individuals for obs in ind.tasks if obs.chosen is SEV
        )
        assert grad[idx] == pytest.approx(observed - n_obs / 3, abs=1e-9)


def finite_difference_hessian(context, params):
    def grad(x):
        return context.loglik_and_gradient(params.with_free_array(x))[1]

    return numerical_hessian(grad, params.free_array())


class TestHessian:
    @pytest.mark.parametrize("n_components", [0, 1, 2])
    @pytest.mark.parametrize("fixed", [(), ("asc_seb", "sigma_shared")])
    def test_matches_finite_differences_on_tiny_spec(self, n_components, fixed):
        spec = tiny_spec(n_components=n_components)
        fixed = tuple(name for name in fixed if name in spec.coefficient_names)
        # negative spreads: the likelihood uses |sigma|, the Hessian its sign
        params = tiny_params(
            spec,
            {"asc_sev": 0.25, "asc_seb": -0.15, "beta_cost": -0.35, "beta_time": -0.04,
             **{name: -0.7 + 0.4 * c for c, name in enumerate(spec.sigma_names)}},
            fixed=fixed,
        )
        ds = tiny_dataset(n_individuals=25, n_tasks=3, spec=spec, seed=4)
        if n_components:
            draws = standard_normal_mlhs(25, 130, n_components, 3)
        else:
            draws = DrawMatrix(np.zeros((25, 1, 0)), seed=0)
        context = EvaluationContext(compile_dataset(ds, spec), draws, draw_block=64)
        hessian = context.hessian(params)
        assert hessian.shape == (len(params.free_names),) * 2
        np.testing.assert_allclose(
            hessian, finite_difference_hessian(context, params),
            rtol=1e-4, atol=1e-4 * np.abs(hessian).max(),
        )

    def test_matches_finite_differences_on_bundled_spec(
        self, noncommute_spec, noncommute_estimates
    ):
        from modeswitch.synthesizer import synthesize_dataset

        ds = synthesize_dataset(DatasetKind.NONCOMMUTE, 40, 6, noncommute_estimates)
        compiled = compile_dataset(ds, noncommute_spec)
        draws = standard_normal_mlhs(
            compiled.n_individuals, 120, 3, 11, individual_ids=compiled.individual_ids
        )
        context = EvaluationContext(compiled, draws, draw_block=70)
        hessian = context.hessian(noncommute_estimates)
        assert hessian.shape == (44, 44)
        np.testing.assert_allclose(
            hessian, finite_difference_hessian(context, noncommute_estimates),
            rtol=1e-4, atol=1e-4 * np.abs(hessian).max(),
        )

    def test_bit_identical_across_thread_counts_and_repeats(self):
        spec = tiny_spec(n_components=2)
        params = tiny_params(spec, {"asc_sev": 0.3, "beta_cost": -0.4,
                                    "sigma_shared": 0.8, "sigma_sev": -0.5})
        ds = tiny_dataset(n_individuals=20, n_tasks=3, spec=spec)
        compiled = compile_dataset(ds, spec)
        draws = standard_normal_mlhs(20, 150, 2, 2)
        one = EvaluationContext(compiled, draws, draw_block=70, threads=1)
        two = EvaluationContext(compiled, draws, draw_block=70, threads=2)
        first = one.hessian(params)
        np.testing.assert_array_equal(first, two.hessian(params))
        np.testing.assert_array_equal(first, one.hessian(params))
        assert (first == first.T).all()
