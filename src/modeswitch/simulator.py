"""Forward Monte Carlo scenario engine for mode-substitution shares.

A scenario fixes one persona, one trip context and one attribute bundle per
alternative; its share vector is the average choice probability over draws
of the error components. Policy comparisons reuse the same draws so the
deltas are free of simulation noise between scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .dataset import Individual, compile_individuals, split_params
from .draws import standard_normal_mlhs
from .likelihood import softmax_planes, utility_planes
from .model import (
    ALTERNATIVES,
    Alternative,
    AttributeBundle,
    CurrentMode,
    DatasetKind,
    ModelSpec,
    ParameterVector,
    Persona,
    TaskObservation,
    TripContext,
    ValidationError,
    validate_params,
)


@dataclass(frozen=True)
class ScenarioDefinition:
    """One simulation cell: persona, context, and final attribute bundles."""

    persona: Persona
    context: TripContext
    attributes: Mapping[Alternative, AttributeBundle]
    n_draws: int = 100_000
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "attributes", dict(self.attributes))
        if set(self.attributes) != set(ALTERNATIVES):
            raise ValidationError("a scenario needs one attribute bundle per alternative")
        if self.n_draws < 1:
            raise ValidationError("a scenario needs at least one draw")

    def task(self) -> TaskObservation:
        return TaskObservation(
            task_id="scenario",
            context=self.context,
            sq_mode=self.persona.modelled_mode(),
            attributes=self.attributes,
            availability={alt: True for alt in ALTERNATIVES},
        )


def _check_defined(persona: Persona, context: TripContext, spec: ModelSpec) -> None:
    mode = persona.modelled_mode()
    if mode is CurrentMode.WALK and context.distance_km not in (2.0, 5.0):
        raise ValidationError(
            f"walkers at {context.distance_km:g} km are not a defined scenario cell"
        )
    if spec.kind is DatasetKind.COMMUTE and mode not in (CurrentMode.CAR, CurrentMode.BIKE):
        raise ValidationError("commuting scenarios cover car and bike users only")


def scenario_probabilities(
    scenario: ScenarioDefinition, params: ParameterVector, spec: ModelSpec
) -> np.ndarray:
    """Average choice probabilities (status quo, shared EV, shared e-bike).

    Deterministic given the scenario seed; stratified draws keep the Monte
    Carlo noise well under reporting precision at the default draw count.
    """
    validate_params(spec, params)
    _check_defined(scenario.persona, scenario.context, spec)
    individual = Individual(individual_id=0, persona=scenario.persona, tasks=(scenario.task(),))
    compiled = compile_individuals((individual,), spec)
    beta, sigma = split_params(compiled, params)
    v = compiled.design @ beta  # the scenario task offers all three alternatives
    n_comp = compiled.n_components
    if n_comp == 0:
        z = np.empty((0, 1, 1))
    else:
        draws = standard_normal_mlhs(1, scenario.n_draws, n_comp, scenario.seed).values[0]
        z = np.ascontiguousarray(draws.T)[:, None, :]  # (component, task, draw)
    u = utility_planes(v, compiled.spread(sigma), z)
    softmax_planes(u)
    return u[:, 0].mean(axis=1)


@dataclass(frozen=True)
class ShareRow:
    current_mode: CurrentMode
    distance_km: float
    shares: Mapping[Alternative, float]  # percent

    def __post_init__(self) -> None:
        object.__setattr__(self, "shares", dict(self.shares))


@dataclass(frozen=True)
class ShareTable:
    rows: tuple[ShareRow, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(self.rows))
        for row in self.rows:
            total = sum(row.shares.values())
            if abs(total - 100.0) > 0.1:
                raise ValidationError(
                    f"shares of {row.current_mode.value} at {row.distance_km:g} km "
                    f"sum to {total:.3f}%"
                )

    def cell(self, mode: CurrentMode, distance_km: float) -> ShareRow:
        for row in self.rows:
            if row.current_mode is mode and row.distance_km == distance_km:
                return row
        raise KeyError((mode, distance_km))


def substitution_table(
    scenarios: Sequence[ScenarioDefinition], params: ParameterVector, spec: ModelSpec
) -> ShareTable:
    """Assemble the share grid; failures carry their cell coordinates."""
    rows = []
    for scenario in scenarios:
        mode = scenario.persona.modelled_mode()
        distance = scenario.context.distance_km
        try:
            probs = scenario_probabilities(scenario, params, spec)
        except ValidationError as exc:
            raise ValidationError(
                f"cell ({mode.value}, {distance:g} km): {exc}"
            ) from exc
        rows.append(
            ShareRow(mode, distance, dict(zip(ALTERNATIVES, 100.0 * probs)))
        )
    return ShareTable(tuple(rows))


def _check_comparable(base: ScenarioDefinition, modified: ScenarioDefinition) -> None:
    if base.persona != modified.persona or base.context != modified.context:
        raise ValidationError("policy comparisons must hold persona and context fixed")
    if base.seed != modified.seed or base.n_draws != modified.n_draws:
        raise ValidationError("policy comparisons need identical seeds and draw counts")


def _delta(base_shares: np.ndarray, modified_shares: np.ndarray) -> dict[Alternative, float]:
    return dict(zip(ALTERNATIVES, 100.0 * (modified_shares - base_shares)))


def policy_delta(
    base: ScenarioDefinition,
    modified: ScenarioDefinition,
    params: ParameterVector,
    spec: ModelSpec,
) -> dict[Alternative, float]:
    """Share changes in percentage points, modified minus base.

    Both scenarios must share persona, context, seed and draw count so the
    comparison runs on common random numbers.
    """
    _check_comparable(base, modified)
    return _delta(
        scenario_probabilities(base, params, spec),
        scenario_probabilities(modified, params, spec),
    )


def policy_table(
    scenarios: Mapping[str, ScenarioDefinition],
    base_name: str,
    params: ParameterVector,
    spec: ModelSpec,
) -> tuple[dict[str, np.ndarray], dict[str, dict[Alternative, float]]]:
    """Shares in percent of every scenario, and each one's ``policy_delta`` against the base.

    Each scenario is simulated once; the deltas equal ``policy_delta``'s.
    """
    base = scenarios[base_name]
    for scenario in scenarios.values():
        _check_comparable(base, scenario)
    probs = {name: scenario_probabilities(s, params, spec) for name, s in scenarios.items()}
    shares = {name: 100.0 * p for name, p in probs.items()}
    deltas = {
        name: _delta(probs[base_name], p) for name, p in probs.items() if name != base_name
    }
    return shares, deltas
