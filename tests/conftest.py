import numpy as np
import pytest

from modeswitch import presets
from modeswitch.dataset import ChoiceDataset, Individual, compile_individuals, split_params
from modeswitch.model import (
    AgeGroup,
    Alternative,
    AttributeBundle,
    CurrentMode,
    DatasetKind,
    ErrorComponent,
    IncomeBand,
    ModelSpec,
    ParameterVector,
    Persona,
    Purpose,
    TaskObservation,
    TripContext,
    UtilityTerm,
)

SQ = Alternative.STATUS_QUO
SEV = Alternative.SHARED_EV
SEB = Alternative.SHARED_EBIKE


def persona(mode=CurrentMode.CAR, age=AgeGroup.LE35, education=True,
            income=IncomeBand.MIDDLE, children=False) -> Persona:
    return Persona(
        age_group=age,
        higher_education=education,
        income_band=income,
        has_children=children,
        current_mode=mode,
    )


def make_task(sq_mode=CurrentMode.CAR, purpose=Purpose.LEISURE, distance=5.0,
              chosen=None, attributes=None, availability=None,
              task_id="1") -> TaskObservation:
    bundles = {SQ: AttributeBundle(), SEV: AttributeBundle(), SEB: AttributeBundle()}
    if attributes:
        bundles.update(attributes)
    avail = {alt: True for alt in (SQ, SEV, SEB)}
    if availability:
        avail.update(availability)
    return TaskObservation(
        task_id=task_id,
        context=TripContext(purpose, distance),
        sq_mode=sq_mode,
        attributes=bundles,
        availability=avail,
        chosen=chosen,
    )


def compiled_task(obs, who, params, spec):
    """One task on the compiled path: utilities (sq, sev, seb), availability flags,
    and the spread matrix whose row ``j`` times the draws is alternative j's offset."""
    compiled = compile_individuals((Individual(individual_id=0, persona=who, tasks=(obs,)),), spec)
    beta, sigma = split_params(compiled, params)
    return compiled.design[0] @ beta, compiled.avail[0], compiled.spread(sigma)


@pytest.fixture(scope="session")
def noncommute_spec():
    return presets.noncommute_spec()


@pytest.fixture(scope="session")
def commute_spec():
    return presets.commute_spec()


@pytest.fixture(scope="session")
def noncommute_estimates():
    return presets.bundled_estimates(DatasetKind.NONCOMMUTE)


@pytest.fixture(scope="session")
def commute_estimates():
    return presets.bundled_estimates(DatasetKind.COMMUTE)


def tiny_spec(n_components=1) -> ModelSpec:
    """Three-alternative spec with one cost attribute and simple constants."""
    terms = (
        UtilityTerm("asc_sev", frozenset({SEV})),
        UtilityTerm("asc_seb", frozenset({SEB})),
        UtilityTerm("beta_cost", frozenset({SQ, SEV, SEB}), "travel_cost"),
        UtilityTerm("beta_time", frozenset({SQ, SEV, SEB}), "travel_time"),
    )
    components = (
        ErrorComponent("sigma_shared", frozenset({SEV, SEB})),
        ErrorComponent("sigma_sev", frozenset({SEV})),
    )[: n_components if n_components else 0]
    return ModelSpec(DatasetKind.NONCOMMUTE, terms, components)


def tiny_params(spec, values=None, fixed=()) -> ParameterVector:
    base = {name: 0.0 for name in spec.beta_names}
    base.update({name: 0.1 for name in spec.sigma_names})
    if values:
        base.update(values)
    return ParameterVector(base, frozenset(fixed))


def tiny_dataset(n_individuals=30, n_tasks=4, seed=0, spec=None, params=None) -> ChoiceDataset:
    """Small random dataset over the tiny spec, choices simulated crudely."""
    spec = spec or tiny_spec()
    params = params or tiny_params(
        spec, {"asc_sev": 0.3, "asc_seb": -0.2, "beta_cost": -0.4, "beta_time": -0.05,
               **{name: 0.6 for name in spec.sigma_names}}
    )
    rng = np.random.default_rng(seed)
    individuals = []
    for i in range(n_individuals):
        p = persona(mode=CurrentMode.CAR)
        z = rng.standard_normal(len(spec.error_components))
        tasks = []
        for t in range(n_tasks):
            bundles = {
                alt: AttributeBundle(
                    travel_time_min=float(rng.uniform(5, 30)),
                    travel_cost_eur=float(rng.uniform(0, 4)),
                )
                for alt in (SQ, SEV, SEB)
            }
            obs = make_task(task_id=str(t), attributes=bundles)
            utilities = []
            for j, alt in enumerate((SQ, SEV, SEB)):
                v = sum(
                    params[term.coefficient]
                    * (1.0 if term.covariate == "const"
                       else getattr(bundles[alt], "travel_cost_eur" if term.covariate == "travel_cost" else "travel_time_min"))
                    for term in spec.terms
                    if alt in term.alternatives
                )
                offset = sum(
                    abs(params[c.name]) * z[k]
                    for k, c in enumerate(spec.error_components)
                    if alt in c.alternatives
                )
                gumbel = -np.log(-np.log(rng.random()))
                utilities.append(v + offset + gumbel)
            chosen = (SQ, SEV, SEB)[int(np.argmax(utilities))]
            tasks.append(make_task(task_id=str(t), attributes=bundles, chosen=chosen))
        individuals.append(Individual(individual_id=i, persona=p, tasks=tuple(tasks)))
    return ChoiceDataset(DatasetKind.NONCOMMUTE, tuple(individuals))
