"""Panel choice data and its compilation into dense arrays.

The estimation and simulation code works on a compiled view: one design
tensor over (observation, alternative, coefficient), availability and
choice arrays, and the error-component loading pattern. Compilation is the
single place where the declarative spec meets the data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import (
    ALTERNATIVES,
    COMMUTE_MODES,
    DatasetKind,
    ModelSpec,
    ParameterVector,
    Persona,
    Purpose,
    TaskObservation,
    ValidationError,
    availability,
    covariate_value,
    validate_params,
)


@dataclass(frozen=True)
class Individual:
    individual_id: int
    persona: Persona
    tasks: tuple[TaskObservation, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tasks", tuple(self.tasks))
        if not self.tasks:
            raise ValidationError(f"individual {self.individual_id} has no tasks")
        if self.individual_id < 0:
            raise ValidationError("individual ids must be non-negative")


class PanelError(ValidationError):
    """A dataset invariant broken by one individual, or by one of its tasks.

    ``individual`` is the position in the dataset and ``task`` the position
    among that individual's tasks (None when the individual as a whole is at
    fault), so a loader can point at the offending line of its file.
    """

    def __init__(self, message: str, individual: int, task: int | None = None):
        super().__init__(message)
        self.individual = individual
        self.task = task


@dataclass(frozen=True)
class ChoiceDataset:
    kind: DatasetKind
    individuals: tuple[Individual, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "individuals", tuple(self.individuals))
        seen = set()
        for n, ind in enumerate(self.individuals):
            if ind.individual_id in seen:
                raise PanelError(f"duplicate individual id {ind.individual_id}", n)
            seen.add(ind.individual_id)
            mode = ind.persona.modelled_mode()
            if self.kind is DatasetKind.COMMUTE and mode not in COMMUTE_MODES:
                raise PanelError(
                    f"individual {ind.individual_id}: commuting data covers car and bike users only",
                    n,
                )
            for t, obs in enumerate(ind.tasks):
                is_commute = obs.context.purpose is Purpose.COMMUTE
                if is_commute != (self.kind is DatasetKind.COMMUTE):
                    raise PanelError(
                        f"individual {ind.individual_id}: task {obs.task_id} purpose does not "
                        f"match dataset kind {self.kind.value}",
                        n, t,
                    )
                if obs.chosen is None:
                    raise PanelError(
                        f"individual {ind.individual_id}: task {obs.task_id} has no recorded choice",
                        n, t,
                    )

    @property
    def n_individuals(self) -> int:
        return len(self.individuals)

    @property
    def n_observations(self) -> int:
        return sum(len(ind.tasks) for ind in self.individuals)


ALT_INDEX = {alt: j for j, alt in enumerate(ALTERNATIVES)}


@dataclass(frozen=True)
class CompiledData:
    """Dense arrays for one (dataset, spec) pairing.

    ``design`` holds covariate values per (obs, alternative, beta coefficient)
    in ``beta_names`` order; sigma parameters are not columns but act through
    ``loadings`` (alternative x component) together with per-individual draws.
    Observations are grouped contiguously by individual.
    """

    beta_names: tuple[str, ...]
    sigma_names: tuple[str, ...]
    design: np.ndarray          # (n_obs, 3, n_beta)
    avail: np.ndarray           # (n_obs, 3) bool
    chosen: np.ndarray          # (n_obs,) int alternative index, -1 if unanswered
    obs_individual: np.ndarray  # (n_obs,) index into individuals
    obs_starts: np.ndarray      # (n_individuals,) first obs row per individual
    loadings: np.ndarray        # (3, n_components) 0/1
    individual_ids: tuple[int, ...]

    @property
    def n_obs(self) -> int:
        return self.design.shape[0]

    @property
    def n_individuals(self) -> int:
        return len(self.individual_ids)

    @property
    def n_components(self) -> int:
        return self.loadings.shape[1]

    @property
    def parameter_names(self) -> tuple[str, ...]:
        return self.beta_names + self.sigma_names

    def spread(self, sigma: np.ndarray) -> np.ndarray:
        """Error-component spread per (alternative, component): loadings x |sigma|.

        The sign of a spread is not identified; every utility takes it by
        absolute value here.
        """
        return self.loadings * np.abs(sigma)


def compile_dataset(dataset: ChoiceDataset, spec: ModelSpec) -> CompiledData:
    if spec.kind is not dataset.kind:
        raise ValidationError(
            f"spec is for {spec.kind.value} data, dataset is {dataset.kind.value}"
        )
    return compile_individuals(dataset.individuals, spec)


def compile_individuals(individuals: Sequence[Individual], spec: ModelSpec) -> CompiledData:
    """Compile individuals whose tasks may be unanswered; such tasks get chosen index -1."""
    beta_names = spec.beta_names
    beta_index = {name: k for k, name in enumerate(beta_names)}
    terms_by_alt = [[t for t in spec.terms if alt in t.alternatives] for alt in ALTERNATIVES]
    n_obs = sum(len(ind.tasks) for ind in individuals)

    design = np.zeros((n_obs, 3, len(beta_names)))
    avail = np.zeros((n_obs, 3), dtype=bool)
    chosen = np.full(n_obs, -1, dtype=np.int64)
    obs_individual = np.zeros(n_obs, dtype=np.int64)
    obs_starts = np.zeros(len(individuals), dtype=np.int64)

    row = 0
    for n, ind in enumerate(individuals):
        obs_starts[n] = row
        persona = ind.persona
        for obs in ind.tasks:
            for j, alt in enumerate(ALTERNATIVES):
                avail[row, j] = obs.availability[alt] and availability(obs, alt, persona)
                bundle = obs.attributes[alt]
                for term in terms_by_alt[j]:
                    if term.condition.matches(persona, obs.context):
                        design[row, j, beta_index[term.coefficient]] += covariate_value(
                            term.covariate, bundle, spec.kind
                        )
            if obs.chosen is not None:
                j_chosen = ALT_INDEX[obs.chosen]
                if not avail[row, j_chosen]:
                    raise ValidationError(
                        f"individual {ind.individual_id}: task {obs.task_id} chose an "
                        f"unavailable alternative"
                    )
                chosen[row] = j_chosen
            obs_individual[row] = n
            row += 1

    loadings = np.zeros((3, len(spec.error_components)))
    for c, component in enumerate(spec.error_components):
        for alt in component.alternatives:
            loadings[ALT_INDEX[alt], c] = 1.0

    return CompiledData(
        beta_names=beta_names,
        sigma_names=spec.sigma_names,
        design=design,
        avail=avail,
        chosen=chosen,
        obs_individual=obs_individual,
        obs_starts=obs_starts,
        loadings=loadings,
        individual_ids=tuple(ind.individual_id for ind in individuals),
    )


def split_params(compiled: CompiledData, params: ParameterVector):
    """Order parameter values for the compiled arrays: (beta vector, sigma vector)."""
    beta = np.array([params[name] for name in compiled.beta_names])
    sigma = np.array([params[name] for name in compiled.sigma_names])
    return beta, sigma


def check_identification(compiled: CompiledData, params: ParameterVector) -> None:
    """Reject free coefficients with zero variation in the available data."""
    free = set(params.free_names)
    for k, name in enumerate(compiled.beta_names):
        if name in free and not np.any(compiled.design[:, :, k][compiled.avail] != 0.0):
            raise ValidationError(f"coefficient {name!r} has no data variation and is unidentified")


def validate_for_estimation(
    dataset: ChoiceDataset, spec: ModelSpec, params: ParameterVector
) -> CompiledData:
    validate_params(spec, params)
    compiled = compile_dataset(dataset, spec)
    check_identification(compiled, params)
    return compiled
