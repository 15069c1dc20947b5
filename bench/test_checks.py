"""Each of the benchmark's output checks passes on good output and fails on bad.

    python3 -m pytest bench/test_checks.py -q

Run from the root of the repository; the program is imported from ``src/``.
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
from modeswitch import cli, dataset, draws, likelihood, presets, simulator  # noqa: E402
from modeswitch import io as mio  # noqa: E402
from modeswitch.designer import assign_tasks  # noqa: E402
from modeswitch.estimator import EstimationSettings, estimate  # noqa: E402
from modeswitch.model import (  # noqa: E402
    ALTERNATIVES,
    Condition,
    CurrentMode,
    DatasetKind,
    ErrorComponent,
    ModelSpec,
    ParameterVector,
    UtilityTerm,
)
from modeswitch.synthesizer import sample_population, simulate_choices  # noqa: E402

SQ, SEV, SEB = ALTERNATIVES


# ---------------------------------------------------------------------------
# Estimation


def _small_spec():
    def term(name, alt, covariate="const"):
        return UtilityTerm(name, frozenset({alt}), covariate, Condition())

    return ModelSpec(
        DatasetKind.NONCOMMUTE,
        (term("asc_sev", SEV), term("asc_seb", SEB), term("sq_time", SQ, "travel_time"),
         term("seb_cost", SEB, "travel_cost"), term("sev_access", SEV, "access_time")),
        (ErrorComponent("sigma_shared", frozenset({SEV, SEB})),),
    )


@pytest.fixture(scope="module")
def small_fit(tmp_path_factory):
    """A converged fit of a five-parameter model with its reference log-likelihood."""
    spec = _small_spec()
    truth = ParameterVector({"asc_sev": -1.0, "asc_seb": -0.5, "sq_time": -0.05,
                             "seb_cost": -0.4, "sev_access": -0.05, "sigma_shared": 1.0})
    personas = sample_population(150, presets.population_marginals(), seed=3)
    task_sets = [
        assign_tasks(presets.noncommute_battery(p.modelled_mode()), DatasetKind.NONCOMMUTE, 10 + i)
        for i, p in enumerate(personas)
    ]
    data = simulate_choices(spec, truth, personas, task_sets, seed=4)
    settings = EstimationSettings(n_draws=200, seed=5)
    result = estimate(data, spec, settings=settings)
    assert result.convergence.converged
    out = tmp_path_factory.mktemp("fit")
    mio.save_results(result, spec, out)
    mio.save_dataset(data, out / "data.csv")
    compiled = dataset.compile_dataset(data, spec)
    z = draws.standard_normal_mlhs(compiled.n_individuals, 200, 1, 5,
                                   individual_ids=compiled.individual_ids).values
    names = compiled.parameter_names
    start = presets.starting_values(spec)
    return {
        "report": checks.parse_report((out / "results.txt").read_text(encoding="utf-8")),
        "results": checks.read_results_csv(out / "results.csv"),
        "names": names,
        "loglik": checks.ReferenceLoglik(compiled, z),
        "truth": np.array([truth[n] for n in names]),
        "start": np.array([start[n] for n in names]),
        "null_ll": checks.csv_null_loglik(checks.read_dataset_csv(out / "data.csv")[1]),
        "program_ll": result.fit.final_ll,
        "program_null": likelihood.null_loglik(data),
    }


def _fit_problems(fit, results=None, report=None, null_ll=None):
    return checks.fit_problems(
        report or fit["report"], results or fit["results"], fit["names"], fit["loglik"],
        fit["truth"], fit["start"], fit["null_ll"] if null_ll is None else null_ll, probe_seed=1,
    )


def test_reference_loglik_matches_the_program(small_fit):
    x = np.array([small_fit["results"][n][0] for n in small_fit["names"]])
    assert small_fit["loglik"](x) == pytest.approx(small_fit["program_ll"], abs=1e-8)
    assert small_fit["null_ll"] == pytest.approx(small_fit["program_null"], abs=1e-9)


def test_good_fit_passes(small_fit):
    assert _fit_problems(small_fit) == []


def test_perturbed_estimate_fails_agreement_and_probe(small_fit):
    results = dict(small_fit["results"])
    estimate_, se = results["asc_sev"]
    results["asc_sev"] = (estimate_ + 2.0 * se, se)
    problems = _fit_problems(small_fit, results=results)
    assert any("disagrees with reported" in p for p in problems)
    assert any("probe step raises" in p for p in problems)


def test_missing_standard_error_fails(small_fit):
    results = dict(small_fit["results"])
    results["seb_cost"] = (results["seb_cost"][0], None)
    assert any("standard errors" in p for p in _fit_problems(small_fit, results=results))


def test_unconverged_or_wrong_null_fails(small_fit):
    report = dict(small_fit["report"], converged=False)
    assert any("did not converge" in p for p in _fit_problems(small_fit, report=report))
    wrong_null = small_fit["null_ll"] - 1.0
    assert any("null LL" in p for p in _fit_problems(small_fit, null_ll=wrong_null))


def test_estimate_below_truth_fails(small_fit):
    # report the start as the estimate: the truth then beats it
    results = {n: (v, small_fit["results"][n][1])
               for n, v in zip(small_fit["names"], small_fit["start"])}
    report = dict(small_fit["report"], final_ll=round(small_fit["loglik"](small_fit["start"]), 1))
    problems = _fit_problems(small_fit, results=results, report=report)
    assert any("LL at the truth" in p for p in problems)


# ---------------------------------------------------------------------------
# Scenario shares


@pytest.fixture(scope="module")
def noncommute_model():
    spec = presets.noncommute_spec()
    params = presets.bundled_estimates(DatasetKind.NONCOMMUTE)
    sigma = np.array([params[c.name] for c in spec.error_components])
    loadings = np.array([[alt in c.alternatives for c in spec.error_components]
                         for alt in ALTERNATIVES], dtype=float)
    flat = params.with_values({c.name: 0.0 for c in spec.error_components})
    return spec, params, flat, sigma, loadings


def _printed_and_utilities(model, scenario):
    spec, params, flat, _, _ = model
    printed = tuple(round(100.0 * s, 1)
                    for s in simulator.scenario_probabilities(scenario, params, spec))
    one_draw = replace(scenario, n_draws=1)
    v = checks.utilities_from_logit_shares(simulator.scenario_probabilities(one_draw, flat, spec))
    return printed, v


def test_quadrature_accepts_simulated_cell_and_rejects_moved_row(noncommute_model):
    _, _, _, sigma, loadings = noncommute_model
    scenario = presets.base_scenario(CurrentMode.PUBLIC_TRANSPORT, 10.0, seed=7)
    printed, v = _printed_and_utilities(noncommute_model, scenario)
    assert checks.quadrature_problems("cell", printed, v, sigma, loadings, 100_000) == []
    moved = (printed[0] - 2.0, printed[1] + 2.0, printed[2])
    assert checks.quadrature_problems("cell", moved, v, sigma, loadings, 100_000)
    assert checks.share_sum_problems("cell", moved) == []
    assert checks.share_sum_problems("cell", (printed[0] + 0.5,) + printed[1:])


def test_quadrature_matches_a_one_component_closed_case():
    # one component, zero spread: the quadrature is the plain logit
    v = np.array([0.0, -1.0, 0.5])
    mean, var = checks.quadrature_shares(v, np.array([0.0]), np.array([[0.0], [1.0], [1.0]]))
    expected = np.exp(v) / np.exp(v).sum()
    np.testing.assert_allclose(mean, expected, rtol=1e-12)
    np.testing.assert_allclose(var, 0.0, atol=1e-12)


def test_paper_check_rejects_a_moved_row():
    rows = [(m, d, s) for (m, d), s in checks.PAPER_NONCOMMUTE_SHARES.items()]
    assert checks.paper_problems(rows) == []
    mode, distance, shares = rows[4]
    rows[4] = (mode, distance, (shares[0] - 6.0, shares[1] + 6.0, shares[2]))
    assert checks.paper_problems(rows)
    assert checks.paper_problems(rows[:-1])  # a missing cell fails too


def test_policy_check_rejects_unbalanced_deltas():
    table = {"base": ((70.0, 15.0, 15.0), None),
             "cheaper": ((65.0, 14.0, 21.0), (-5.0, -1.0, 6.0))}
    assert checks.policy_problems(table) == []
    table["cheaper"] = ((65.0, 14.0, 21.0), (-5.0, -1.0, 8.0))
    assert checks.policy_problems(table)


def _cost_chain(model, alt, mode, costs):
    """``(own cost, printed share of alt)`` over ``costs``, on common draws."""
    chain = []
    for cost in costs:
        scenario = presets.base_scenario(mode, 5.0, seed=9,
                                         overrides={alt: {"travel_cost_eur": cost}})
        printed, _ = _printed_and_utilities(model, scenario)
        chain.append((cost, printed[ALTERNATIVES.index(alt)]))
    return chain


def test_monotone_check_follows_the_cost_estimate(noncommute_model):
    _, params, _, _, _ = noncommute_model
    fee = params[checks.NONCOMMUTE_OWN_COST_ESTIMATE[("seb", "car")]]
    assert fee < 0
    chain = _cost_chain(noncommute_model, SEB, CurrentMode.CAR, (0.5, 1.0, 2.0))
    assert chain[0][1] > chain[-1][1]
    assert checks.monotone_problems("seb fee", chain, fee) == []
    assert checks.monotone_problems("seb fee", chain, -fee)  # the wrong direction fails
    (c0, _), (c1, s1), rest = chain[0], chain[1], chain[2:]
    assert checks.monotone_problems("seb fee", [(c0, s1 - 1.0), (c1, s1)] + rest, fee)


def test_monotone_check_allows_a_share_rising_with_a_positive_cost_estimate(noncommute_model):
    _, params, _, _, _ = noncommute_model
    tariff = params[checks.NONCOMMUTE_OWN_COST_ESTIMATE[("sev", "car")]]
    assert tariff > 0
    chain = _cost_chain(noncommute_model, SEV, CurrentMode.CAR, (1.0, 30.0, 60.0))
    assert chain[0][1] < chain[-1][1]
    assert checks.monotone_problems("sev tariff", chain, tariff) == []
    assert checks.monotone_problems("sev tariff", chain, -tariff)


# ---------------------------------------------------------------------------
# Dataset round trips


@pytest.fixture()
def roundtrip(tmp_path):
    kind = DatasetKind.NONCOMMUTE
    data = cli.synthesize_dataset(kind, 40, 6, presets.bundled_estimates(kind))
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    mio.save_dataset(data, first)
    loaded = mio.load_dataset(first)
    mio.save_dataset(loaded, second)
    return {
        "first": first, "second": second,
        "synthesized": {
            "individuals": data.n_individuals, "tasks": data.n_observations,
            "sq_available": [bool(obs.availability[SQ]) and ind.persona.current_mode == obs.sq_mode
                             for ind in data.individuals for obs in ind.tasks],
        },
        "loaded_individuals": loaded.n_individuals, "loaded_tasks": loaded.n_observations,
        "avail": dataset.compile_dataset(loaded, presets.noncommute_spec()).avail,
        "null_ll": likelihood.null_loglik(loaded),
    }


def test_roundtrip_passes(roundtrip):
    assert checks.roundtrip_problems(**roundtrip) == []


def test_one_byte_edit_fails_roundtrip(roundtrip):
    raw = bytearray(roundtrip["second"].read_bytes())
    offset = raw.index(b"\n") + 1 + raw[raw.index(b"\n") + 1:].index(b".") + 1
    raw[offset] = ord("7") if raw[offset] != ord("7") else ord("3")
    roundtrip["second"].write_bytes(bytes(raw))
    problems = checks.roundtrip_problems(**roundtrip)
    assert any("saved again differs" in p for p in problems)


def test_counts_availability_and_null_are_checked(roundtrip):
    wrong = dict(roundtrip, synthesized=dict(roundtrip["synthesized"], tasks=1))
    assert any("tasks counts" in p for p in checks.roundtrip_problems(**wrong))
    avail = roundtrip["avail"].copy()
    avail[0, 0] = not avail[0, 0]
    assert any("status quo" in p for p in checks.roundtrip_problems(**dict(roundtrip, avail=avail)))
    shifted = dict(roundtrip, null_ll=roundtrip["null_ll"] + 0.5)
    assert any("null LL" in p for p in checks.roundtrip_problems(**shifted))


# ---------------------------------------------------------------------------
# Metric names


def test_printed_metrics_match_benchmark_json():
    import json

    import run

    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    layers = run.layer_metrics([], 0.0, 0.0, 0.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: m["unit"] for name, m in layers.items()
    }
    assert {m["name"] for m in spec["end_to_end"]} == {"run_s", "setup_s", "peak_rss_mb"}
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_quiet_run_s_leaves_out_slow_stretches_only():
    import run

    steady = [0.30] * 12
    assert run.quiet_run_s(4.0, [steady]) == pytest.approx(4.0)
    # a quarter of the units in a 1.5x slow stretch: their extra time goes
    slowed = [0.30] * 9 + [0.45] * 3
    assert run.quiet_run_s(0.4 + sum(slowed), [slowed]) == pytest.approx(0.4 + 12 * 0.30)
    # every unit twice as costly (a slower program): all of it counts
    assert run.quiet_run_s(0.4 + 12 * 0.60, [[0.60] * 12]) == pytest.approx(0.4 + 12 * 0.60)
    # groups are filtered apart; a group of one unit counts as measured
    short, long = [0.1, 0.1, 0.1, 0.2], [2.0, 2.0, 2.0, 3.0]
    assert run.quiet_run_s(sum(short) + sum(long) + 5.0, [short, long, [5.0]]) == pytest.approx(
        0.4 + 8.0 + 5.0)
