"""Domain types and the declarative utility specification.

The choice setting is a conditional switching one: every task offers the
respondent's currently used mode (the status quo) next to two shared
electric alternatives from a mobility hub. Utilities are linear in the
parameters; mode-specific coefficient pooling is expressed through
predicate-gated terms so that one declarative spec covers all current-mode
groups.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from typing import Iterable, Mapping

import numpy as np


class SpecificationError(ValueError):
    """A model spec references something that does not resolve."""


class ValidationError(ValueError):
    """Input data violates a documented invariant."""


class Alternative(str, enum.Enum):
    STATUS_QUO = "sq"
    SHARED_EV = "sev"
    SHARED_EBIKE = "seb"


ALTERNATIVES = (Alternative.STATUS_QUO, Alternative.SHARED_EV, Alternative.SHARED_EBIKE)
EHUB_ALTERNATIVES = (Alternative.SHARED_EV, Alternative.SHARED_EBIKE)


class CurrentMode(str, enum.Enum):
    CAR = "car"
    PUBLIC_TRANSPORT = "pt"
    BIKE = "bike"
    WALK = "walk"


COMMUTE_MODES = (CurrentMode.CAR, CurrentMode.BIKE)


class Purpose(str, enum.Enum):
    COMMUTE = "commute"
    LEISURE = "leisure"
    SHOPPING = "shopping"


class AgeGroup(str, enum.Enum):
    LE35 = "le35"
    MID = "36to59"
    GE60 = "ge60"


class IncomeBand(str, enum.Enum):
    LOW = "low"
    MIDDLE = "middle"
    HIGH = "high"
    MISSING = "missing"


class DatasetKind(str, enum.Enum):
    COMMUTE = "commute"
    NONCOMMUTE = "noncommute"


NONCOMMUTE_DISTANCES_KM = (2.0, 5.0, 10.0)


@dataclass(frozen=True)
class Persona:
    """Socio-demographic profile of one respondent.

    ``current_mode`` is normally a :class:`CurrentMode`; population sampling
    may carry other mode labels, which are rejected once the persona enters
    model evaluation.
    """

    age_group: AgeGroup
    higher_education: bool
    income_band: IncomeBand
    has_children: bool
    current_mode: CurrentMode | str

    def modelled_mode(self) -> CurrentMode:
        try:
            return CurrentMode(self.current_mode)
        except ValueError:
            raise ValidationError(
                f"current mode {self.current_mode!r} is outside the modelled set"
            ) from None


@dataclass(frozen=True)
class TripContext:
    purpose: Purpose
    distance_km: float

    def __post_init__(self) -> None:
        if self.distance_km <= 0:
            raise ValidationError("trip distance must be positive")
        if self.purpose is not Purpose.COMMUTE and self.distance_km not in NONCOMMUTE_DISTANCES_KM:
            raise ValidationError(
                f"non-commute distance must be one of {NONCOMMUTE_DISTANCES_KM}, "
                f"got {self.distance_km}"
            )


@dataclass(frozen=True)
class AttributeBundle:
    """Level-of-service attributes of one alternative in one task.

    ``congestion_delay`` is in minutes for commute tasks and a fraction of
    travel time for non-commute tasks. Fields that do not apply to an
    alternative stay at zero.
    """

    travel_time_min: float = 0.0
    travel_cost_eur: float = 0.0
    access_egress_time_min: float = 0.0
    congestion_chance: float = 0.0
    congestion_delay: float = 0.0
    parking_search_time_min: float = 0.0
    parking_fee_eur: float = 0.0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if value < 0:
                raise ValidationError(f"attribute {f.name} must be non-negative, got {value}")
        if not 0.0 <= self.congestion_chance <= 1.0:
            raise ValidationError("congestion_chance must lie in [0, 1]")
        if self.congestion_chance == 0.0 and self.congestion_delay != 0.0:
            raise ValidationError("congestion_delay must be zero when congestion_chance is zero")


def build_congestion_covariate(
    kind: DatasetKind, chance: float, delay: float, travel_time_min: float
) -> float:
    """Collapse the two designed congestion factors into the model covariate.

    Non-commute tasks carry the possible delay as a fraction of travel time,
    commute tasks carry it in minutes; the covariate is the product of the
    delay with its probability in either unit system.
    """
    if not 0.0 <= chance <= 1.0:
        raise ValidationError("congestion chance must lie in [0, 1]")
    if delay < 0:
        raise ValidationError("congestion delay must be non-negative")
    if kind is DatasetKind.NONCOMMUTE and travel_time_min <= 0:
        raise ValidationError("non-commute congestion needs a positive travel time")
    return chance * delay


@dataclass(frozen=True)
class TaskObservation:
    """One stated-choice task: three alternatives, one of them the status quo.

    ``sq_mode`` records which current mode the status-quo alternative stands
    for; availability of the status quo is conditional on the respondent
    actually using that mode. ``chosen`` is None for unanswered design tasks.
    """

    task_id: str
    context: TripContext
    sq_mode: CurrentMode
    attributes: Mapping[Alternative, AttributeBundle]
    availability: Mapping[Alternative, bool]
    chosen: Alternative | None = None

    def __post_init__(self) -> None:
        if set(self.attributes) != set(ALTERNATIVES):
            raise ValidationError("a task must carry attributes for exactly the three alternatives")
        if set(self.availability) != set(ALTERNATIVES):
            raise ValidationError("a task must carry an availability flag per alternative")
        if self.chosen is not None and not self.availability[self.chosen]:
            raise ValidationError(f"chosen alternative {self.chosen.value} is not available")

    @property
    def kind(self) -> DatasetKind:
        return DatasetKind.COMMUTE if self.context.purpose is Purpose.COMMUTE else DatasetKind.NONCOMMUTE


def availability(obs: TaskObservation, alt: Alternative, persona: Persona) -> bool:
    """Conditional switching rule: the status quo exists only for its users."""
    if alt in EHUB_ALTERNATIVES:
        return True
    return persona.modelled_mode() is obs.sq_mode


# ---------------------------------------------------------------------------
# Declarative utility structure


CONST = "const"

_ATTRIBUTE_COVARIATES = {
    "travel_time": "travel_time_min",
    "travel_cost": "travel_cost_eur",
    "access_time": "access_egress_time_min",
    "parking_time": "parking_search_time_min",
    "parking_fee": "parking_fee_eur",
}

COVARIATES = (CONST, "congestion") + tuple(_ATTRIBUTE_COVARIATES)


def covariate_value(selector: str, bundle: AttributeBundle, kind: DatasetKind) -> float:
    if selector == CONST:
        return 1.0
    if selector == "congestion":
        if bundle.congestion_chance == 0.0:
            return 0.0
        return build_congestion_covariate(
            kind, bundle.congestion_chance, bundle.congestion_delay, bundle.travel_time_min
        )
    try:
        return getattr(bundle, _ATTRIBUTE_COVARIATES[selector])
    except KeyError:
        raise SpecificationError(f"unknown covariate selector {selector!r}") from None


def _frozen(values: Iterable | None) -> frozenset | None:
    if values is None:
        return None
    return frozenset(values)


@dataclass(frozen=True)
class Condition:
    """Predicate over persona and trip context gating a utility term.

    ``None`` fields do not constrain; set-valued fields match by membership.
    A missing income band never matches a band condition unless listed
    explicitly, so published low/high shifters skip missing-income personas.
    """

    modes: frozenset[CurrentMode] | None = None
    purposes: frozenset[Purpose] | None = None
    distances: frozenset[float] | None = None
    age_groups: frozenset[AgeGroup] | None = None
    income_bands: frozenset[IncomeBand] | None = None
    higher_education: bool | None = None
    has_children: bool | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "modes", _frozen(self.modes))
        object.__setattr__(self, "purposes", _frozen(self.purposes))
        object.__setattr__(self, "distances", _frozen(self.distances))
        object.__setattr__(self, "age_groups", _frozen(self.age_groups))
        object.__setattr__(self, "income_bands", _frozen(self.income_bands))

    def matches(self, persona: Persona, context: TripContext) -> bool:
        if self.modes is not None and persona.modelled_mode() not in self.modes:
            return False
        if self.purposes is not None and context.purpose not in self.purposes:
            return False
        if self.distances is not None and context.distance_km not in self.distances:
            return False
        if self.age_groups is not None and persona.age_group not in self.age_groups:
            return False
        if self.income_bands is not None and persona.income_band not in self.income_bands:
            return False
        if self.higher_education is not None and persona.higher_education != self.higher_education:
            return False
        if self.has_children is not None and persona.has_children != self.has_children:
            return False
        return True


ALWAYS = Condition()


@dataclass(frozen=True)
class UtilityTerm:
    """One linear contribution: coefficient x covariate, gated by a condition."""

    coefficient: str
    alternatives: frozenset[Alternative]
    covariate: str = CONST
    condition: Condition = ALWAYS

    def __post_init__(self) -> None:
        object.__setattr__(self, "alternatives", frozenset(self.alternatives))
        if not self.alternatives:
            raise SpecificationError(f"term {self.coefficient} applies to no alternative")
        if self.covariate not in COVARIATES:
            raise SpecificationError(f"unknown covariate selector {self.covariate!r}")


@dataclass(frozen=True)
class ErrorComponent:
    """A zero-mean normal term shared by the listed alternatives.

    The named parameter holds its standard deviation, whose sign is not
    identified: estimation may return either sign, simulation uses |sigma|.
    """

    name: str
    alternatives: frozenset[Alternative]

    def __post_init__(self) -> None:
        object.__setattr__(self, "alternatives", frozenset(self.alternatives))
        if not self.alternatives:
            raise SpecificationError(f"error component {self.name} loads on no alternative")
        if Alternative.STATUS_QUO in self.alternatives:
            raise SpecificationError("error components never load on the status quo")


CONDITIONAL_SWITCHING = "conditional_switching"


@dataclass(frozen=True)
class ModelSpec:
    """Declarative utility specification for one dataset kind."""

    kind: DatasetKind
    terms: tuple[UtilityTerm, ...]
    error_components: tuple[ErrorComponent, ...] = ()
    availability_rule: str = CONDITIONAL_SWITCHING

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))
        object.__setattr__(self, "error_components", tuple(self.error_components))
        if self.availability_rule != CONDITIONAL_SWITCHING:
            raise SpecificationError(f"unknown availability rule {self.availability_rule!r}")
        names = [c.name for c in self.error_components]
        if len(set(names)) != len(names):
            raise SpecificationError("duplicate error component names")

    @property
    def beta_names(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for term in self.terms:
            seen.setdefault(term.coefficient, None)
        return tuple(seen)

    @property
    def sigma_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.error_components)

    @property
    def coefficient_names(self) -> tuple[str, ...]:
        return self.beta_names + self.sigma_names


@dataclass(frozen=True)
class ParameterVector:
    """Named coefficient values with per-entry free/fixed flags."""

    values: Mapping[str, float]
    fixed: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", dict(self.values))
        object.__setattr__(self, "fixed", frozenset(self.fixed))
        unknown = self.fixed - set(self.values)
        if unknown:
            raise SpecificationError(f"fixed flags for unknown coefficients: {sorted(unknown)}")

    def __getitem__(self, name: str) -> float:
        try:
            return self.values[name]
        except KeyError:
            raise SpecificationError(f"coefficient {name!r} is not in the parameter vector") from None

    def __contains__(self, name: str) -> bool:
        return name in self.values

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.values)

    @property
    def free_names(self) -> tuple[str, ...]:
        return tuple(n for n in self.values if n not in self.fixed)

    @property
    def n_free(self) -> int:
        return len(self.free_names)

    def free_array(self) -> np.ndarray:
        return np.array([self.values[n] for n in self.free_names], dtype=float)

    def with_values(self, updates: Mapping[str, float]) -> "ParameterVector":
        unknown = set(updates) - set(self.values)
        if unknown:
            raise SpecificationError(f"unknown coefficients in update: {sorted(unknown)}")
        merged = dict(self.values)
        merged.update(updates)
        return ParameterVector(merged, self.fixed)

    def with_free_array(self, array) -> "ParameterVector":
        names = self.free_names
        if len(array) != len(names):
            raise ValidationError(f"expected {len(names)} free values, got {len(array)}")
        return self.with_values({n: float(v) for n, v in zip(names, array)})

    def with_fixed(self, names: Iterable[str]) -> "ParameterVector":
        return ParameterVector(self.values, self.fixed | set(names))

    def scaled(self, factor: float) -> "ParameterVector":
        return ParameterVector({n: factor * v for n, v in self.values.items()}, self.fixed)


def validate_params(spec: ModelSpec, params: ParameterVector) -> None:
    """Check that spec and parameter vector name exactly the same coefficients."""
    referenced = set(spec.coefficient_names)
    present = set(params.names)
    missing = referenced - present
    if missing:
        raise SpecificationError(f"parameter vector lacks coefficients: {sorted(missing)}")
    extra = present - referenced
    if extra:
        raise SpecificationError(f"parameter vector has unreferenced coefficients: {sorted(extra)}")
