"""Synthetic populations, reference trips, and choice responses.

The generator mirrors the choice model and takes its utilities from the
same compiled arrays as the likelihood: error components are drawn once
per individual, an independent extreme-value shock is added per task and
alternative, and the available alternative with the highest total utility
is recorded. Generated datasets double as the parameter-recovery oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from . import presets
from .dataset import ChoiceDataset, Individual, compile_individuals, split_params
from .designer import ReferenceTrip, assign_tasks, build_commuting_tasks
from .model import (
    ALTERNATIVES,
    CurrentMode,
    DatasetKind,
    ModelSpec,
    ParameterVector,
    Persona,
    TaskObservation,
    ValidationError,
    validate_params,
)


def _substream(seed: int, key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))


def _check_distribution(name: str, dist: Mapping) -> None:
    if not dist:
        raise ValidationError(f"marginal {name!r} is empty")
    values = list(dist.values())
    if any(p < 0 for p in values):
        raise ValidationError(f"marginal {name!r} has negative probabilities")
    if abs(sum(values) - 1.0) > 1e-9:
        raise ValidationError(f"marginal {name!r} sums to {sum(values)}, expected 1")


@dataclass(frozen=True)
class PopulationMarginals:
    """Independent categorical distributions for persona sampling.

    ``current_mode`` may carry labels outside the modelled set; such
    personas are rejected later, when they enter model evaluation, which
    mirrors how the survey sample was restricted before modelling.
    """

    age_group: Mapping
    higher_education: Mapping
    income_band: Mapping
    has_children: Mapping
    current_mode: Mapping

    def __post_init__(self) -> None:
        for name in ("age_group", "higher_education", "income_band", "has_children", "current_mode"):
            dist = dict(getattr(self, name))
            _check_distribution(name, dist)
            object.__setattr__(self, name, dist)


def _sample_categorical(rng: np.random.Generator, dist: Mapping, n: int) -> list:
    keys = list(dist)
    probs = np.array([dist[k] for k in keys], dtype=float)
    probs = probs / probs.sum()
    idx = rng.choice(len(keys), size=n, p=probs)
    return [keys[i] for i in idx]


def sample_population(
    n: int, marginals: PopulationMarginals, seed: int
) -> tuple[Persona, ...]:
    """Draw ``n`` personas with independent marginals (no joint structure)."""
    if n < 1:
        raise ValidationError("population size must be at least 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    ages = _sample_categorical(rng, marginals.age_group, n)
    educations = _sample_categorical(rng, marginals.higher_education, n)
    incomes = _sample_categorical(rng, marginals.income_band, n)
    children = _sample_categorical(rng, marginals.has_children, n)
    modes = _sample_categorical(rng, marginals.current_mode, n)
    return tuple(
        Persona(
            age_group=ages[i],
            higher_education=bool(educations[i]),
            income_band=incomes[i],
            has_children=bool(children[i]),
            current_mode=modes[i],
        )
        for i in range(n)
    )


# Quantile anchors (min, 25%, 50%, 75%, max) of the reported commute trips.
_CAR_TRIP_QUANTILES = {
    "travel_time_min": (1.0, 10.0, 12.0, 15.0, 45.0),
    "travel_cost_eur": (0.0, 0.3, 0.6, 1.3, 9.9),
    "access_egress_time_min": (0.0, 3.0, 5.0, 11.0, 48.0),
    "congestion_chance": (0.0, 0.1, 0.2, 0.5, 1.0),
    "congestion_time_min": (0.0, 1.0, 5.0, 11.0, 30.0),
    "parking_search_time_min": (0.0, 1.0, 2.0, 6.0, 20.0),
    "parking_fee_eur": (0.0, 0.0, 3.0, 8.0, 20.0),
}
_BIKE_TRIP_QUANTILES = {
    "travel_time_min": (4.0, 13.0, 20.0, 25.0, 45.0),
    "parking_search_time_min": (0.0, 0.0, 1.0, 2.0, 10.0),
}


def _piecewise_uniform(rng: np.random.Generator, quantiles: Sequence[float]) -> float:
    """Draw from the piecewise-uniform law through the five quantile anchors."""
    u = rng.random()
    segment = min(int(u * 4), 3)
    t = u * 4 - segment
    lo, hi = quantiles[segment], quantiles[segment + 1]
    return lo + t * (hi - lo)


def sample_reference_trip(mode: CurrentMode, seed: int) -> ReferenceTrip:
    """Draw a plausible commuting reference trip for a car or bike user.

    Bike distances are drawn conditional on travel time so the 40 km/h
    speed screen holds by construction.
    """
    mode = CurrentMode(mode)
    if mode not in (CurrentMode.CAR, CurrentMode.BIKE):
        raise ValidationError("reference trips cover car and bike commuters only")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if mode is CurrentMode.CAR:
        fields = {
            name: _piecewise_uniform(rng, quantiles)
            for name, quantiles in _CAR_TRIP_QUANTILES.items()
        }
        if fields["congestion_chance"] == 0.0:
            fields["congestion_time_min"] = 0.0
        distance = 1.0 + 9.0 * rng.random()
        return ReferenceTrip(mode=mode, distance_km=distance, **fields)
    fields = {
        name: _piecewise_uniform(rng, quantiles)
        for name, quantiles in _BIKE_TRIP_QUANTILES.items()
    }
    max_distance = min(10.0, fields["travel_time_min"] * 40.0 / 60.0)
    distance = 1.0 + (max_distance - 1.0) * rng.random()
    return ReferenceTrip(mode=mode, distance_km=distance, **fields)


def _gumbel(rng: np.random.Generator, size: int) -> np.ndarray:
    u = rng.random(size)
    while (u == 0.0).any():
        u[u == 0.0] = rng.random(int((u == 0.0).sum()))
    return -np.log(-np.log(u))


def simulate_choices(
    spec: ModelSpec,
    true_params: ParameterVector,
    personas: Sequence[Persona],
    task_sets: Sequence[Sequence[TaskObservation]],
    seed: int,
) -> ChoiceDataset:
    """Generate panel choices at known parameters.

    ``task_sets[i]`` holds the unanswered tasks assigned to ``personas[i]``
    (assignment follows the designer's rules). Each individual owns a seed
    substream, so generation is order-independent.
    """
    validate_params(spec, true_params)
    if len(personas) != len(task_sets):
        raise ValidationError("one task set per persona required")
    unanswered = [
        Individual(individual_id=i, persona=persona, tasks=tuple(tasks))
        for i, (persona, tasks) in enumerate(zip(personas, task_sets))
    ]
    compiled = compile_individuals(unanswered, spec)
    beta, sigma = split_params(compiled, true_params)
    v = np.where(compiled.avail, compiled.design @ beta, -np.inf)
    spread = compiled.spread(np.abs(sigma))
    individuals = []
    for i, ind in enumerate(unanswered):
        rng = _substream(seed, i)
        offsets = spread @ rng.standard_normal(compiled.n_components)
        start = compiled.obs_starts[i]
        answered = []
        for row, obs in enumerate(ind.tasks, start):
            total = v[row] + offsets + _gumbel(rng, 3)
            answered.append(replace(obs, chosen=ALTERNATIVES[int(np.argmax(total))]))
        individuals.append(replace(ind, tasks=tuple(answered)))
    return ChoiceDataset(spec.kind, tuple(individuals))


def synthesize_dataset(
    kind: DatasetKind, n: int, seed: int, truth: ParameterVector
) -> ChoiceDataset:
    """Population, batteries, assignment, and simulated choices in one step."""
    spec = presets.model_spec(kind)
    marginals = presets.population_marginals(kind)
    personas = sample_population(n, marginals, seed)
    task_sets = []
    if kind is DatasetKind.NONCOMMUTE:
        batteries = {
            mode: presets.noncommute_battery(mode)
            for mode in (CurrentMode.CAR, CurrentMode.PUBLIC_TRANSPORT,
                         CurrentMode.BIKE, CurrentMode.WALK)
        }
        for i, persona in enumerate(personas):
            assign_seed = int(np.random.SeedSequence(seed, spawn_key=(1, i)).generate_state(1)[0])
            task_sets.append(
                assign_tasks(batteries[persona.modelled_mode()], kind, assign_seed)
            )
    else:
        for i, persona in enumerate(personas):
            trip_seed = int(np.random.SeedSequence(seed, spawn_key=(2, i)).generate_state(1)[0])
            ref = sample_reference_trip(persona.modelled_mode(), trip_seed)
            assign_seed = int(np.random.SeedSequence(seed, spawn_key=(3, i)).generate_state(1)[0])
            task_sets.append(assign_tasks(build_commuting_tasks(ref), kind, assign_seed))
    return simulate_choices(spec, truth, personas, task_sets, seed)
