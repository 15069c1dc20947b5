"""Bundled model specifications, coefficient sets, and scenario builders.

These presets wire the declarative machinery into the two concrete models
the package ships: a non-commuting spec with 44 parameters and a commuting
spec with 31. The bundled point estimates drive the default simulation
scenarios and the synthetic-data generators used for recovery experiments.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping

import numpy as np

from .designer import build_noncommuting_tasks
from .model import (
    AgeGroup,
    Alternative,
    AttributeBundle,
    Condition,
    CurrentMode,
    DatasetKind,
    ErrorComponent,
    IncomeBand,
    ModelSpec,
    ParameterVector,
    Persona,
    Purpose,
    TripContext,
    UtilityTerm,
    ValidationError,
)
from .simulator import ScenarioDefinition

SQ = Alternative.STATUS_QUO
SEV = Alternative.SHARED_EV
SEB = Alternative.SHARED_EBIKE
CAR = CurrentMode.CAR
PT = CurrentMode.PUBLIC_TRANSPORT
BIKE = CurrentMode.BIKE
WALK = CurrentMode.WALK


def _term(coefficient, alternative, covariate="const", **condition) -> UtilityTerm:
    return UtilityTerm(coefficient, frozenset({alternative}), covariate, Condition(**condition))


_ERROR_COMPONENTS = (
    ErrorComponent("sigma_shared", frozenset({SEV, SEB})),
    ErrorComponent("sigma_sev", frozenset({SEV})),
    ErrorComponent("sigma_seb", frozenset({SEB})),
)


def noncommute_spec() -> ModelSpec:
    """Choice model for leisure and shopping trips: 44 parameters."""
    terms = (
        # shared EV constants and their current-mode / context interactions
        _term("asc_sev", SEV),
        _term("sev_shopping", SEV, purposes={Purpose.SHOPPING}),
        _term("sev_pt_user", SEV, modes={PT}),
        _term("sev_bike_user", SEV, modes={BIKE}),
        _term("sev_walk_2km", SEV, modes={WALK}, distances={2.0}),
        _term("sev_walk_5km", SEV, modes={WALK}, distances={5.0}),
        # shared e-bike constants
        _term("asc_seb", SEB),
        _term("seb_shopping", SEB, purposes={Purpose.SHOPPING}),
        _term("seb_pt_user", SEB, modes={PT}),
        _term("seb_bike_user", SEB, modes={BIKE}),
        _term("seb_walk_2km", SEB, modes={WALK}, distances={2.0}),
        _term("seb_walk_5km", SEB, modes={WALK}, distances={5.0}),
        # status quo attributes, pooled by current mode
        _term("sq_car_time", SQ, "travel_time", modes={CAR}),
        _term("sq_pt_time", SQ, "travel_time", modes={PT}),
        _term("sq_bike_time", SQ, "travel_time", modes={BIKE}),
        _term("sq_walk_time", SQ, "travel_time", modes={WALK}),
        _term("sq_car_cost", SQ, "travel_cost", modes={CAR}),
        _term("sq_pt_cost", SQ, "travel_cost", modes={PT}),
        _term("sq_access_time", SQ, "access_time"),
        _term("sq_car_congestion", SQ, "congestion", modes={CAR}),
        _term("sq_parking_time", SQ, "parking_time", modes={CAR, BIKE}),
        _term("sq_car_parking_fee", SQ, "parking_fee", modes={CAR}),
        # shared EV attributes
        _term("sev_time_car_pt", SEV, "travel_time", modes={CAR, PT}),
        _term("sev_time_bike_walk", SEV, "travel_time", modes={BIKE, WALK}),
        _term("sev_cost_car", SEV, "travel_cost", modes={CAR}),
        _term("sev_cost_pt", SEV, "travel_cost", modes={PT}),
        _term("sev_cost_bike_walk", SEV, "travel_cost", modes={BIKE, WALK}),
        _term("sev_access_time", SEV, "access_time"),
        _term("sev_congestion_car", SEV, "congestion", modes={CAR}),
        _term("sev_congestion_other", SEV, "congestion", modes={PT, BIKE, WALK}),
        # shared e-bike attributes
        _term("seb_time_car_pt", SEB, "travel_time", modes={CAR, PT}),
        _term("seb_time_bike_walk", SEB, "travel_time", modes={BIKE, WALK}),
        _term("seb_cost", SEB, "travel_cost"),
        _term("seb_access_time", SEB, "access_time"),
        # socio-demographic shifters
        _term("sev_age_le35", SEV, age_groups={AgeGroup.LE35}),
        _term("sev_children", SEV, has_children=True),
        _term("seb_age_le35", SEB, age_groups={AgeGroup.LE35}),
        _term("seb_age_ge60", SEB, age_groups={AgeGroup.GE60}),
        _term("seb_income_low", SEB, income_bands={IncomeBand.LOW}),
        _term("seb_higher_education", SEB, higher_education=True),
        _term("seb_children", SEB, has_children=True),
    )
    return ModelSpec(DatasetKind.NONCOMMUTE, terms, _ERROR_COMPONENTS)


def commute_spec() -> ModelSpec:
    """Choice model for commuting trips of car and bike users: 31 parameters."""
    terms = (
        _term("asc_sev", SEV),
        _term("sev_bike_user", SEV, modes={BIKE}),
        _term("asc_seb", SEB),
        _term("seb_bike_user", SEB, modes={BIKE}),
        _term("sq_car_time", SQ, "travel_time", modes={CAR}),
        _term("sq_bike_time", SQ, "travel_time", modes={BIKE}),
        _term("sq_cost", SQ, "travel_cost"),
        _term("sq_access_time", SQ, "access_time"),
        _term("sq_car_congestion", SQ, "congestion", modes={CAR}),
        _term("sq_car_parking_time", SQ, "parking_time", modes={CAR}),
        _term("sq_bike_parking_time", SQ, "parking_time", modes={BIKE}),
        _term("sq_car_parking_fee", SQ, "parking_fee", modes={CAR}),
        _term("sev_time_car", SEV, "travel_time", modes={CAR}),
        _term("sev_time_bike", SEV, "travel_time", modes={BIKE}),
        _term("sev_cost_car", SEV, "travel_cost", modes={CAR}),
        _term("sev_cost_bike", SEV, "travel_cost", modes={BIKE}),
        _term("sev_access_time", SEV, "access_time"),
        _term("sev_congestion_car", SEV, "congestion", modes={CAR}),
        _term("sev_congestion_bike", SEV, "congestion", modes={BIKE}),
        _term("seb_time", SEB, "travel_time"),
        _term("seb_cost", SEB, "travel_cost"),
        _term("seb_access_car", SEB, "access_time", modes={CAR}),
        _term("seb_access_bike", SEB, "access_time", modes={BIKE}),
        _term("sev_age_le35", SEV, age_groups={AgeGroup.LE35}),
        _term("sev_income_high", SEV, income_bands={IncomeBand.HIGH}),
        _term("seb_age_le35", SEB, age_groups={AgeGroup.LE35}),
        _term("seb_age_ge60", SEB, age_groups={AgeGroup.GE60}),
        _term("seb_income_high", SEB, income_bands={IncomeBand.HIGH}),
    )
    return ModelSpec(DatasetKind.COMMUTE, terms, _ERROR_COMPONENTS)


def model_spec(kind: DatasetKind | str) -> ModelSpec:
    kind = DatasetKind(kind)
    return commute_spec() if kind is DatasetKind.COMMUTE else noncommute_spec()


_NONCOMMUTE_ESTIMATES = {
    "asc_sev": -4.33,
    "sev_shopping": 0.47,
    "sev_pt_user": 1.02,
    "sev_bike_user": -0.98,
    "sev_walk_2km": -0.56,
    "sev_walk_5km": 0.86,
    "asc_seb": -3.47,
    "seb_shopping": -0.18,
    "seb_pt_user": 0.46,
    "seb_bike_user": -1.68,
    "seb_walk_2km": -0.28,
    "seb_walk_5km": 0.72,
    "sq_car_time": -0.02,
    "sq_pt_time": -0.06,
    "sq_bike_time": -0.04,
    "sq_walk_time": -0.01,
    "sq_car_cost": -0.38,
    "sq_pt_cost": -0.39,
    "sq_access_time": 0.02,
    "sq_car_congestion": -0.16,
    "sq_parking_time": -0.04,
    "sq_car_parking_fee": -0.08,
    "sev_time_car_pt": -0.06,
    "sev_time_bike_walk": 0.05,
    "sev_cost_car": 0.02,
    "sev_cost_pt": -0.28,
    "sev_cost_bike_walk": -0.16,
    "sev_access_time": -0.04,
    "sev_congestion_car": -0.37,
    "sev_congestion_other": 0.02,
    "seb_time_car_pt": -0.05,
    "seb_time_bike_walk": 0.02,
    "seb_cost": -0.47,
    "seb_access_time": -0.03,
    "sev_age_le35": 1.45,
    "sev_children": 1.48,
    "seb_age_le35": 0.68,
    "seb_age_ge60": -0.99,
    "seb_income_low": 0.48,
    "seb_higher_education": 0.46,
    "seb_children": 0.72,
    "sigma_shared": 1.64,
    "sigma_sev": 1.28,
    "sigma_seb": 1.07,
}

_COMMUTE_ESTIMATES = {
    "asc_sev": -4.46,
    "sev_bike_user": -0.61,
    "asc_seb": -4.15,
    "seb_bike_user": -0.79,
    "sq_car_time": 0.01,
    "sq_bike_time": -0.03,
    "sq_cost": -0.44,
    "sq_access_time": 0.00,
    "sq_car_congestion": 0.02,
    "sq_car_parking_time": -0.16,
    "sq_bike_parking_time": -0.79,
    "sq_car_parking_fee": -0.08,
    "sev_time_car": -0.08,
    "sev_time_bike": -0.20,
    "sev_cost_car": 0.11,
    "sev_cost_bike": -0.42,
    "sev_access_time": -0.03,
    "sev_congestion_car": 0.05,
    "sev_congestion_bike": -0.22,
    "seb_time": -0.04,
    "seb_cost": -0.46,
    "seb_access_car": 0.03,
    "seb_access_bike": -0.07,
    "sev_age_le35": 1.96,
    "sev_income_high": -1.75,
    "seb_age_le35": 0.99,
    "seb_age_ge60": -3.32,
    "seb_income_high": -1.49,
    # the sign of a standard deviation is not identified; simulation takes
    # it by absolute value
    "sigma_shared": 2.28,
    "sigma_sev": -1.11,
    "sigma_seb": 0.85,
}


_NONCOMMUTE_P_VALUES = {
    "asc_sev": 0.00, "sev_shopping": 0.00, "sev_pt_user": 0.03, "sev_bike_user": 0.02,
    "sev_walk_2km": 0.44, "sev_walk_5km": 0.57, "asc_seb": 0.00, "seb_shopping": 0.16,
    "seb_pt_user": 0.37, "seb_bike_user": 0.00, "seb_walk_2km": 0.71, "seb_walk_5km": 0.64,
    "sq_car_time": 0.56, "sq_pt_time": 0.00, "sq_bike_time": 0.01, "sq_walk_time": 0.53,
    "sq_car_cost": 0.00, "sq_pt_cost": 0.01, "sq_access_time": 0.33,
    "sq_car_congestion": 0.15, "sq_parking_time": 0.01, "sq_car_parking_fee": 0.02,
    "sev_time_car_pt": 0.03, "sev_time_bike_walk": 0.21, "sev_cost_car": 0.78,
    "sev_cost_pt": 0.01, "sev_cost_bike_walk": 0.14, "sev_access_time": 0.00,
    "sev_congestion_car": 0.00, "sev_congestion_other": 0.81, "seb_time_car_pt": 0.00,
    "seb_time_bike_walk": 0.38, "seb_cost": 0.00, "seb_access_time": 0.02,
    "sev_age_le35": 0.00, "sev_children": 0.00, "seb_age_le35": 0.00, "seb_age_ge60": 0.00,
    "seb_income_low": 0.01, "seb_higher_education": 0.02, "seb_children": 0.00,
    "sigma_shared": 0.00, "sigma_sev": 0.00, "sigma_seb": 0.00,
}

_COMMUTE_P_VALUES = {
    "asc_sev": 0.00, "sev_bike_user": 0.57, "asc_seb": 0.00, "seb_bike_user": 0.42,
    "sq_car_time": 0.79, "sq_bike_time": 0.49, "sq_cost": 0.01, "sq_access_time": 0.89,
    "sq_car_congestion": 0.87, "sq_car_parking_time": 0.06, "sq_bike_parking_time": 0.00,
    "sq_car_parking_fee": 0.12, "sev_time_car": 0.09, "sev_time_bike": 0.02,
    "sev_cost_car": 0.26, "sev_cost_bike": 0.01, "sev_access_time": 0.11,
    "sev_congestion_car": 0.42, "sev_congestion_bike": 0.07, "seb_time": 0.04,
    "seb_cost": 0.00, "seb_access_car": 0.25, "seb_access_bike": 0.00,
    "sev_age_le35": 0.00, "sev_income_high": 0.00, "seb_age_le35": 0.02,
    "seb_age_ge60": 0.01, "seb_income_high": 0.01,
    "sigma_shared": 0.00, "sigma_sev": 0.00, "sigma_seb": 0.00,
}


def bundled_estimates(kind: DatasetKind | str) -> ParameterVector:
    """Point estimates bundled as simulator defaults and recovery truths."""
    kind = DatasetKind(kind)
    table = _COMMUTE_ESTIMATES if kind is DatasetKind.COMMUTE else _NONCOMMUTE_ESTIMATES
    spec = model_spec(kind)
    ordered = {name: table[name] for name in spec.coefficient_names}
    return ParameterVector(ordered)


def bundled_p_values(kind: DatasetKind | str) -> dict[str, float]:
    """P-values accompanying the bundled estimates (two-decimal precision)."""
    kind = DatasetKind(kind)
    table = _COMMUTE_P_VALUES if kind is DatasetKind.COMMUTE else _NONCOMMUTE_P_VALUES
    spec = model_spec(kind)
    return {name: table[name] for name in spec.coefficient_names}


_SIGMA_START = 0.1


def starting_values(spec: ModelSpec) -> ParameterVector:
    """Default optimizer start: zero coefficients, sigmas at ``_SIGMA_START``.

    sigma = 0 is a near-stationary point of the simulated likelihood: there
    a spread's gradient is proportional to each person's mean draw, so the
    mixing parameters begin slightly away from it.
    """
    values = {name: 0.0 for name in spec.beta_names}
    values.update({name: _SIGMA_START for name in spec.sigma_names})
    return ParameterVector(values)


# ---------------------------------------------------------------------------
# Simulation scenarios


def reference_persona(mode: CurrentMode, kind: DatasetKind | str = DatasetKind.NONCOMMUTE) -> Persona:
    """The young, highly educated persona behind the bundled scenario grids.

    Income is set to the middle band and children to none so that no income
    or household shifter fires; those fields are a documented assumption.
    """
    return Persona(
        age_group=AgeGroup.LE35,
        higher_education=True,
        income_band=IncomeBand.MIDDLE,
        has_children=False,
        current_mode=mode,
    )


_SQ_EGRESS_MIDDLE = {2.0: 3.0, 5.0: 5.0, 10.0: 5.0}
_EHUB_ACCESS_MIDDLE = {2.0: 6.0, 5.0: 10.0, 10.0: 10.0}
_SEV_TIME_MIDDLE = {2.0: 5.0, 5.0: 10.0, 10.0: 20.0}
_SEB_TIME_MIDDLE = {2.0: 6.0, 5.0: 12.0, 10.0: 25.0}
_PT_TIME_MIDDLE = {2.0: 6.0, 5.0: 15.0, 10.0: 30.0}
_PT_COST_MIDDLE = {2.0: 1.0, 5.0: 1.5, 10.0: 3.0}
_BIKE_TIME_MIDDLE = {2.0: 8.0, 5.0: 20.0, 10.0: 40.0}
_WALK_TIME_MIDDLE = {2.0: 25.0, 5.0: 60.0}
SEV_TARIFF_MIDDLE = 0.25
SEB_FEE_MIDDLE = 1.0
CAR_COST_PER_KM_MIDDLE = 0.2
CAR_PARKING_SEARCH_MIDDLE = 5.0
CAR_PARKING_FEE_MIDDLE = 3.0
BIKE_PARKING_SEARCH_MIDDLE = 5.0


def middle_level_attributes(
    mode: CurrentMode, distance_km: float, kind: DatasetKind | str = DatasetKind.NONCOMMUTE
) -> dict[Alternative, AttributeBundle]:
    """Average-condition attribute bundles: middle design levels, no congestion.

    Commuting scenarios reuse the non-commuting levels except that bike
    users get zero parking search time.
    """
    kind = DatasetKind(kind)
    distance_km = float(distance_km)
    if mode is WALK and distance_km not in _WALK_TIME_MIDDLE:
        raise ValidationError(f"walking at {distance_km:g} km is not a defined scenario cell")
    if distance_km not in _SEV_TIME_MIDDLE:
        raise ValidationError(f"no bundled levels for {distance_km:g} km trips")
    if kind is DatasetKind.COMMUTE and mode not in (CAR, BIKE):
        raise ValidationError("commuting scenarios cover car and bike users only")

    access = _EHUB_ACCESS_MIDDLE[distance_km]
    sev_time = _SEV_TIME_MIDDLE[distance_km]
    sev = AttributeBundle(
        travel_time_min=sev_time,
        travel_cost_eur=SEV_TARIFF_MIDDLE * sev_time,
        access_egress_time_min=access,
    )
    seb = AttributeBundle(
        travel_time_min=_SEB_TIME_MIDDLE[distance_km],
        travel_cost_eur=SEB_FEE_MIDDLE,
        access_egress_time_min=access,
    )
    if mode is CAR:
        sq = AttributeBundle(
            travel_time_min=sev_time,
            travel_cost_eur=CAR_COST_PER_KM_MIDDLE * distance_km,
            access_egress_time_min=_SQ_EGRESS_MIDDLE[distance_km],
            parking_search_time_min=CAR_PARKING_SEARCH_MIDDLE,
            parking_fee_eur=CAR_PARKING_FEE_MIDDLE,
        )
    elif mode is PT:
        sq = AttributeBundle(
            travel_time_min=_PT_TIME_MIDDLE[distance_km],
            travel_cost_eur=_PT_COST_MIDDLE[distance_km],
            access_egress_time_min=_SQ_EGRESS_MIDDLE[distance_km],
        )
    elif mode is BIKE:
        parking = 0.0 if kind is DatasetKind.COMMUTE else BIKE_PARKING_SEARCH_MIDDLE
        sq = AttributeBundle(
            travel_time_min=_BIKE_TIME_MIDDLE[distance_km],
            parking_search_time_min=parking,
        )
    else:
        sq = AttributeBundle(travel_time_min=_WALK_TIME_MIDDLE[distance_km])
    return {SQ: sq, SEV: sev, SEB: seb}


def base_scenario(
    mode: CurrentMode,
    distance_km: float,
    kind: DatasetKind | str = DatasetKind.NONCOMMUTE,
    seed: int = 0,
    n_draws: int = 100_000,
    overrides: Mapping[Alternative, Mapping[str, float]] | None = None,
) -> ScenarioDefinition:
    kind = DatasetKind(kind)
    purpose = Purpose.COMMUTE if kind is DatasetKind.COMMUTE else Purpose.LEISURE
    attributes = middle_level_attributes(mode, distance_km, kind)
    if overrides:
        for alt, fields in overrides.items():
            attributes[alt] = replace(attributes[alt], **dict(fields))
    return ScenarioDefinition(
        persona=reference_persona(mode, kind),
        context=TripContext(purpose, float(distance_km)),
        attributes=attributes,
        n_draws=n_draws,
        seed=seed,
    )


def substitution_grid(
    kind: DatasetKind | str, seed: int = 0, n_draws: int = 100_000
) -> list[ScenarioDefinition]:
    """The bundled mode x distance scenario grid for one dataset kind.

    Undefined cells (walkers at 10 km; bike commutes at 10 km) are left out
    rather than zeroed. Each cell derives its own seed from the master seed
    so the grid is order-independent.
    """
    kind = DatasetKind(kind)
    if kind is DatasetKind.COMMUTE:
        cells = [(CAR, 2.0), (CAR, 5.0), (CAR, 10.0), (BIKE, 2.0), (BIKE, 5.0)]
    else:
        cells = [
            (mode, distance)
            for mode in (CAR, PT, BIKE, WALK)
            for distance in (2.0, 5.0, 10.0)
            if not (mode is WALK and distance == 10.0)
        ]
    scenarios = []
    for index, (mode, distance) in enumerate(cells):
        cell_seed = int(
            np.random.SeedSequence(seed, spawn_key=(index,)).generate_state(1)[0]
        )
        scenarios.append(base_scenario(mode, distance, kind, cell_seed, n_draws))
    return scenarios


POLICY_BASELINE = "base"


def policy_scenarios(
    seed: int = 0, n_draws: int = 100_000
) -> dict[str, ScenarioDefinition]:
    """Car-user policy pack on the 5 km non-commuting base scenario.

    All scenarios share the seed and draw count so deltas against the base
    use common random numbers.
    """
    def scenario(overrides=None):
        return base_scenario(CAR, 5.0, DatasetKind.NONCOMMUTE, seed, n_draws, overrides)

    access = _EHUB_ACCESS_MIDDLE[5.0]
    return {
        POLICY_BASELINE: scenario(),
        "hub_access_to_7p5_min": scenario(
            {
                SEV: {"access_egress_time_min": access * 0.75},
                SEB: {"access_egress_time_min": access * 0.75},
            }
        ),
        "seb_fee_to_0p5_eur": scenario({SEB: {"travel_cost_eur": 0.5}}),
        "car_parking_search_to_7p5_min": scenario({SQ: {"parking_search_time_min": 7.5}}),
        "car_parking_fee_to_4p5_eur": scenario({SQ: {"parking_fee_eur": 4.5}}),
    }


# ---------------------------------------------------------------------------
# Synthetic populations


def population_marginals(kind: DatasetKind | str = DatasetKind.NONCOMMUTE):
    """Marginal socio-demographic distributions for synthetic populations.

    Current-mode shares are renormalised over the modelled modes (car and
    bike only for commuting). The split of the oldest age band between
    36-59 and 60+ is an assumption; it only affects covariate variation in
    generated data, not any estimation target.
    """
    from .synthesizer import PopulationMarginals

    kind = DatasetKind(kind)
    if kind is DatasetKind.COMMUTE:
        raw = {CAR: 0.384, BIKE: 0.333}
    else:
        raw = {CAR: 0.286, PT: 0.113, BIKE: 0.315, WALK: 0.077}
    total = sum(raw.values())
    modes = {mode: share / total for mode, share in raw.items()}
    return PopulationMarginals(
        age_group={AgeGroup.LE35: 0.434, AgeGroup.MID: 0.366, AgeGroup.GE60: 0.200},
        higher_education={True: 0.605, False: 0.395},
        income_band={
            IncomeBand.LOW: 0.410,
            IncomeBand.MIDDLE: 0.327,
            IncomeBand.HIGH: 0.135,
            IncomeBand.MISSING: 0.128,
        },
        has_children={True: 0.361, False: 0.639},
        current_mode=modes,
    )


def noncommute_battery(mode: CurrentMode) -> tuple:
    """All defined (distance, purpose) cells for one current mode, 27 tasks each."""
    tasks = []
    for distance in (2.0, 5.0, 10.0):
        if mode is WALK and distance == 10.0:
            continue
        for purpose in (Purpose.LEISURE, Purpose.SHOPPING):
            tasks.extend(build_noncommuting_tasks(distance, purpose, mode))
    return tuple(tasks)
