"""Conditional-switching mixed logit estimation and mode-substitution simulation."""

__version__ = "0.1.0"

from .model import (  # noqa: F401
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
    SpecificationError,
    TaskObservation,
    TripContext,
    UtilityTerm,
    ValidationError,
    availability,
    build_congestion_covariate,
)
from .dataset import ChoiceDataset, Individual, compile_dataset  # noqa: F401
from .draws import DrawMatrix, mlhs_uniform, standard_normal_mlhs, to_standard_normal  # noqa: F401
from .likelihood import (  # noqa: F401
    FitStatistics,
    null_loglik,
    panel_probability,
    rho_square,
    simulated_loglik,
    task_choice_prob,
)
from .estimator import (  # noqa: F401
    EstimationResult,
    EstimationSettings,
    estimate,
    likelihood_ratio_test,
    pool_coefficients,
    std_errors,
    vot,
)
from .designer import (  # noqa: F401
    DesignPlan,
    ReferenceTrip,
    assign_tasks,
    build_commuting_tasks,
    build_noncommuting_tasks,
    orthogonal_array_27,
)
from .synthesizer import (  # noqa: F401
    PopulationMarginals,
    sample_population,
    sample_reference_trip,
    simulate_choices,
    synthesize_dataset,
)
from .simulator import (  # noqa: F401
    ScenarioDefinition,
    ShareRow,
    ShareTable,
    policy_delta,
    policy_table,
    scenario_probabilities,
    substitution_table,
)
from . import presets  # noqa: F401
