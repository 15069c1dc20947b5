"""Maximum simulated likelihood estimation and post-processing.

Optimization is quasi-Newton (BFGS) on the simulated log-likelihood with
its analytic gradient, over one fixed draw matrix. Standard errors come
from the classical negated inverse of the analytic Hessian at the optimum,
computed in one pass over the same draws.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from typing import Mapping, Sequence

import numpy as np
from scipy import optimize, stats

from .dataset import ChoiceDataset, validate_for_estimation
from .draws import standard_normal_mlhs
from .likelihood import (
    EvaluationContext,
    FitStatistics,
    ZeroProbabilityError,
    null_loglik,
    rho_square,
)
from .model import ModelSpec, ParameterVector, SpecificationError, UtilityTerm, ValidationError
from .presets import starting_values


@dataclass(frozen=True)
class EstimationSettings:
    n_draws: int = 1000
    seed: int = 0
    max_iterations: int = 500
    gradient_tolerance: float = 1e-5
    draw_block: int = 500
    threads: int = 1
    compute_std_errors: bool = True


@dataclass(frozen=True)
class Convergence:
    converged: bool
    iterations: int
    gradient_norm: float
    message: str = ""


@dataclass(frozen=True)
class EstimationResult:
    """Estimates with classical standard errors from the analytic Hessian.

    ``std_errors`` and ``p_values`` are None when standard errors were not
    requested or the Hessian cannot give them; ``std_errors_missing`` then
    says why, for a failed Hessian with the smallest eigenvalue of its
    negation.
    """

    estimates: ParameterVector
    std_errors: dict[str, float] | None
    p_values: dict[str, float] | None
    fit: FitStatistics
    convergence: Convergence
    std_errors_missing: str | None = None

    def vot(self, time_coefficient: str, cost_coefficient: str) -> float:
        return vot(self.estimates[time_coefficient], self.estimates[cost_coefficient])


def vot(time_coeff: float, cost_coeff: float) -> float:
    """Value of travel time in euros per hour from per-minute and per-euro coefficients."""
    if cost_coeff == 0.0:
        raise ValidationError("value of time is undefined for a zero cost coefficient")
    return 60.0 * time_coeff / cost_coeff


def std_errors(hessian: np.ndarray) -> np.ndarray:
    """Classical standard errors from the log-likelihood Hessian at the optimum."""
    hessian = np.asarray(hessian, dtype=float)
    info = -hessian
    try:
        cov = np.linalg.inv(info)
    except np.linalg.LinAlgError as exc:
        raise ValidationError("Hessian is singular; standard errors unavailable") from exc
    diag = np.diag(cov)
    if (diag <= 0).any():
        raise ValidationError("Hessian is not negative definite; standard errors unavailable")
    return np.sqrt(diag)


def numerical_hessian(grad_func, x: np.ndarray, relative_step: float = 1e-5) -> np.ndarray:
    """Central finite differences of a gradient function, symmetrised.

    The reference that tests hold ``EvaluationContext.hessian`` against.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    hessian = np.empty((n, n))
    for i in range(n):
        h = relative_step * max(1.0, abs(x[i]))
        forward = x.copy()
        forward[i] += h
        backward = x.copy()
        backward[i] -= h
        hessian[:, i] = (grad_func(forward) - grad_func(backward)) / (2.0 * h)
    return (hessian + hessian.T) / 2.0


def estimate(
    dataset: ChoiceDataset,
    spec: ModelSpec,
    start: ParameterVector | None = None,
    settings: EstimationSettings | None = None,
) -> EstimationResult:
    """Maximise the simulated panel log-likelihood.

    Convergence requires the gradient infinity-norm to fall under the
    tolerance scaled by max(1, |LL|/1000). Draws are generated once, keyed
    by individual id, and reused for every evaluation (common random
    numbers). Non-convergence returns the best point found, flagged.
    """
    settings = settings or EstimationSettings()
    start = start if start is not None else starting_values(spec)
    compiled = validate_for_estimation(dataset, spec, start)

    n_components = len(spec.error_components)
    draws = standard_normal_mlhs(
        compiled.n_individuals,
        settings.n_draws,
        max(n_components, 1),
        settings.seed,
        individual_ids=compiled.individual_ids,
    )
    if n_components == 0:
        draws = dc_replace(draws, values=draws.values[:, :1, :0])
    context = EvaluationContext(
        compiled, draws, draw_block=settings.draw_block, threads=settings.threads
    )

    free_names = start.free_names
    null_ll = null_loglik(dataset)

    def evaluate(x: np.ndarray):
        params = start.with_free_array(x)
        try:
            ll, grad = context.loglik_and_gradient(params)
        except ZeroProbabilityError:
            # reject the step; the line search backtracks
            return np.inf, np.zeros(len(free_names))
        return -ll, -grad

    if not free_names:
        final_ll = context.loglik(start)
        fit = FitStatistics(
            null_ll=null_ll,
            final_ll=final_ll,
            rho_square=rho_square(final_ll, null_ll),
            n_parameters=0,
            n_observations=dataset.n_observations,
            n_individuals=dataset.n_individuals,
        )
        return EstimationResult(
            estimates=start,
            std_errors={},
            p_values={},
            fit=fit,
            convergence=Convergence(True, 0, 0.0, "no free parameters"),
        )

    x0 = start.free_array()
    ll0, grad0 = context.loglik_and_gradient(start)
    scale = max(1.0, abs(ll0) / 1000.0)
    gtol = settings.gradient_tolerance * scale

    result = optimize.minimize(
        evaluate,
        x0,
        jac=True,
        method="BFGS",
        options={"gtol": gtol, "maxiter": settings.max_iterations},
    )
    final_ll = -float(result.fun)
    gradient_norm = float(np.max(np.abs(result.jac)))
    converged = bool(result.success) or gradient_norm <= gtol
    estimates = start.with_free_array(result.x)

    se_map = None
    p_map = None
    se_missing = "not requested"
    if settings.compute_std_errors:
        hessian = context.hessian(estimates)
        try:
            se = std_errors(hessian)
        except ValidationError as exc:
            smallest = float(np.linalg.eigvalsh(-hessian)[0])
            se_missing = f"{exc}; smallest eigenvalue of -H {smallest:.3g}"
        else:
            se_missing = None
            se_map = dict(zip(free_names, se))
            z = result.x / se
            p_map = dict(zip(free_names, 2.0 * stats.norm.sf(np.abs(z))))

    fit = FitStatistics(
        null_ll=null_ll,
        final_ll=final_ll,
        rho_square=rho_square(final_ll, null_ll),
        n_parameters=len(free_names),
        n_observations=dataset.n_observations,
        n_individuals=dataset.n_individuals,
    )
    return EstimationResult(
        estimates=estimates,
        std_errors=se_map,
        p_values=p_map,
        fit=fit,
        convergence=Convergence(
            converged, int(result.nit), gradient_norm, str(result.message)
        ),
        std_errors_missing=se_missing,
    )


def pool_coefficients(spec: ModelSpec, pooling: Mapping[str, Sequence[str]]) -> ModelSpec:
    """Constrain groups of coefficients to equality by renaming them.

    ``pooling`` maps each pooled name to the coefficients it replaces;
    re-estimating under the pooled spec and comparing likelihoods gives the
    usual ratio test for the restriction.
    """
    rename: dict[str, str] = {}
    for pooled, members in pooling.items():
        for member in members:
            if member in rename:
                raise SpecificationError(f"coefficient {member!r} pooled twice")
            rename[member] = pooled
    known = set(spec.coefficient_names)
    missing = set(rename) - known
    if missing:
        raise SpecificationError(f"cannot pool unknown coefficients: {sorted(missing)}")
    terms = tuple(
        UtilityTerm(
            rename.get(t.coefficient, t.coefficient), t.alternatives, t.covariate, t.condition
        )
        for t in spec.terms
    )
    return ModelSpec(spec.kind, terms, spec.error_components, spec.availability_rule)


def likelihood_ratio_test(
    restricted_ll: float, unrestricted_ll: float, df: int
) -> tuple[float, float]:
    """LR statistic and p-value for nested models."""
    if df < 1:
        raise ValidationError("the restriction must remove at least one parameter")
    statistic = 2.0 * (unrestricted_ll - restricted_ll)
    return statistic, float(stats.chi2.sf(statistic, df))
