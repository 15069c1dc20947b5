"""Simulated panel log-likelihood, analytic gradient and Hessian, fit statistics.

The panel probability of an individual is the average over draws of the
product of per-task logit probabilities; utilities are linear in every
parameter once draws are fixed, which gives the gradient and the Hessian
in closed form.
The same draw matrix is reused for every evaluation within a run (common
random numbers), so the simulated objective is smooth.

One probability kernel serves estimation and scenario simulation. It is
alternative-major: each alternative's utility is its own contiguous
(observation, draw) plane (``utility_planes``), so the softmax's maximum
and sum are element-wise operations across three planes
(``softmax_planes``). The likelihood stays in the log domain: ln p of a
chosen alternative is (u - m) - ln sum_j exp(u_j - m) with m the largest
utility, and ln P_n is a log-sum-exp over draws, so long panels or extreme
parameters do not underflow into a zero probability.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dataset import ChoiceDataset, CompiledData, Individual, compile_dataset, split_params
from .draws import DrawMatrix
from .model import ModelSpec, ParameterVector, ValidationError, availability

_P_CACHE_BYTES = 512 * 1024 * 1024  # keep per-draw probabilities between passes below this
# Draws per step of the Hessian pass. Its per-draw score and covariate arrays
# scale with this; at 25 the pass leaves an estimation's peak memory where the
# likelihood evaluations put it, and its time hardly depends on the value.
_HESSIAN_SUB_BLOCK = 25


@dataclass(frozen=True)
class FitStatistics:
    null_ll: float
    final_ll: float
    rho_square: float
    n_parameters: int
    n_observations: int
    n_individuals: int


def task_choice_prob(v: np.ndarray, avail: np.ndarray) -> np.ndarray:
    """Softmax over the available alternatives; unavailable ones get exactly 0."""
    v = np.asarray(v, dtype=float)
    avail = np.asarray(avail, dtype=bool)
    if not avail.any():
        raise ValidationError("a task needs at least one available alternative")
    shifted = np.where(avail, v - v[avail].max(), -np.inf)
    expv = np.exp(shifted)
    return expv / expv.sum()


def null_loglik(dataset: ChoiceDataset) -> float:
    """Log-likelihood of the equal-shares model: sum of -ln(available count)."""
    total = 0.0
    for ind in dataset.individuals:
        persona = ind.persona
        for obs in ind.tasks:
            n_avail = sum(
                1
                for alt, flag in obs.availability.items()
                if flag and availability(obs, alt, persona)
            )
            if n_avail == 0:
                raise ValidationError(f"task {obs.task_id} has no available alternative")
            total -= np.log(n_avail)
    return float(total)


def rho_square(final_ll: float, null_ll: float) -> float:
    if null_ll == 0.0:
        raise ValidationError("null log-likelihood of zero leaves rho-square undefined")
    return 1.0 - final_ll / null_ll


def utility_planes(v: np.ndarray, spread: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Utilities as one contiguous (observation, draw) plane per alternative.

    ``v`` (n_obs, 3) holds the systematic utilities, -inf for an unavailable
    alternative, and ``z`` (component, n_obs, n_draws) the error-component
    draws. Returns (3, n_obs, n_draws); alternative j's plane adds
    spread[j, c] z[c] only for the components with a non-zero spread on j,
    so a plane without error components is v alone.
    """
    u = np.empty((3,) + z.shape[1:])
    term = np.empty(z.shape[1:])
    for j in range(3):
        u[j] = v[:, j, None]
        for c in np.flatnonzero(spread[j]):
            np.multiply(z[c], spread[j, c], out=term)
            u[j] += term
    return u


def softmax_planes(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Turn utility planes ``u`` (3, ...) into choice probabilities, in place.

    The planes are shifted by their element-wise maximum m, so no
    exponential overflows. Returns (m, s) with s = sum_j exp(u_j - m) >= 1:
    ln p_j = (u_j - m) - ln s stays finite where p_j underflows to zero.
    """
    m = np.maximum(np.maximum(u[0], u[1]), u[2])
    u -= m
    np.exp(u, out=u)
    s = u[0] + u[1] + u[2]
    u /= s
    return m, s


class ZeroProbabilityError(ValidationError):
    """An individual's simulated ln P_n is not finite: a probability that is
    zero or undefined in floating point, as when a utility overflows."""

    def __init__(self, individual_id: int):
        self.individual_id = individual_id
        super().__init__(
            f"individual {individual_id} has a zero or undefined simulated probability; "
            f"the likelihood is undefined at these parameters"
        )


class EvaluationContext:
    """Precomputed draw planes binding compiled data to one draw matrix.

    ``z_obs`` holds each observation's panel draws as (component, obs,
    draw), n_components x n_obs x n_draws values, so every likelihood
    evaluation reads each component's plane directly instead of gathering
    draws per individual. Probabilities are kept between the log-likelihood
    and the gradient as one (alternative, obs, draw) array per draw block
    while that stays under ``_P_CACHE_BYTES``, and recomputed otherwise.
    Everything is in the log domain until the draw weights, which are
    formed from ln of the per-draw panel products minus their maximum.
    Draw blocks are processed in a fixed order (optionally on a thread
    pool) and reduced sequentially, so repeated evaluations are
    bit-identical.
    """

    def __init__(
        self,
        compiled: CompiledData,
        draws: DrawMatrix,
        draw_block: int = 500,
        threads: int = 1,
    ):
        if draws.n_individuals != compiled.n_individuals:
            raise ValidationError(
                f"draw matrix covers {draws.n_individuals} individuals, "
                f"data has {compiled.n_individuals}"
            )
        if draws.n_dims != compiled.n_components:
            raise ValidationError(
                f"draw matrix has {draws.n_dims} dimensions, the model declares "
                f"{compiled.n_components} error components"
            )
        self.compiled = compiled
        self.n_draws = draws.n_draws
        self.draw_block = max(1, int(draw_block))
        self.threads = max(1, int(threads))
        # built one component at a time, so no second copy of the draws is held
        self.z_obs = np.empty((compiled.n_components, compiled.n_obs, self.n_draws))
        for c in range(compiled.n_components):
            self.z_obs[c] = draws.values[compiled.obs_individual, :, c]
        self.onehot = np.zeros((compiled.n_obs, 3))
        self._rows = np.arange(compiled.n_obs)
        self.onehot[self._rows, compiled.chosen] = 1.0
        self.neg_inf_pad = np.where(compiled.avail, 0.0, -np.inf)
        self._blocks = [
            (start, min(start + self.draw_block, self.n_draws))
            for start in range(0, self.n_draws, self.draw_block)
        ]
        p_bytes = compiled.n_obs * 3 * self.n_draws * 8
        self._cache_probs = p_bytes <= _P_CACHE_BYTES

    def _map_blocks(self, func):
        """Apply ``func(start, stop)`` per draw block, results in block order."""
        if self.threads == 1 or len(self._blocks) == 1:
            return [func(start, stop) for start, stop in self._blocks]
        with ThreadPoolExecutor(max_workers=self.threads) as pool:
            return list(pool.map(lambda b: func(*b), self._blocks))

    def _chunk(self, v: np.ndarray, spread: np.ndarray, start: int, stop: int):
        """Choice probabilities (3, n_obs, D) of one draw block and ln p of each
        observation's chosen alternative (n_obs, D); ``v`` carries -inf for the
        unavailable alternatives."""
        u = utility_planes(v, spread, self.z_obs[:, :, start:stop])
        log_chosen = u[self.compiled.chosen, self._rows]
        m, s = softmax_planes(u)
        log_chosen -= m
        log_chosen -= np.log(s)
        return u, log_chosen

    def _simulate(self, params: ParameterVector, keep_probs: bool):
        """Padded utilities, sigma, ln P_n, draw weights and kept probability chunks.

        With L_nd = sum_t ln p_chosen over individual n's tasks at draw d,
        ln P_n = ln mean_d exp(L_nd) is a log-sum-exp over draws and the draw
        weights w_nd = exp(L_nd) / sum_d exp(L_nd) are formed from
        L_nd - max_d L_nd, so neither underflows. Raises ZeroProbabilityError
        when an ln P_n is not finite, as when a utility overflows.
        """
        compiled = self.compiled
        beta, sigma = split_params(compiled, params)
        v = compiled.design @ beta + self.neg_inf_pad
        spread = compiled.spread(sigma)
        keep = keep_probs and self._cache_probs

        def work(start, stop):
            p, log_chosen = self._chunk(v, spread, start, stop)
            return np.add.reduceat(log_chosen, compiled.obs_starts, axis=0), (p if keep else None)

        chunks = self._map_blocks(work)
        log_panel = np.concatenate([c[0] for c in chunks], axis=1)
        prob_chunks = [c[1] for c in chunks] if keep else None
        top = log_panel.max(axis=1, keepdims=True)
        with np.errstate(invalid="ignore"):
            scaled = np.exp(log_panel - top)
        total = scaled.sum(axis=1)
        log_prob = top[:, 0] + np.log(total / self.n_draws)
        bad = ~np.isfinite(log_prob)
        if bad.any():
            raise ZeroProbabilityError(compiled.individual_ids[int(np.argmax(bad))])
        return v, sigma, log_prob, scaled / total[:, None], prob_chunks

    def _block_probs(self, prob_chunks, v, sigma, start: int, stop: int):
        """Probabilities (3, n_obs, D) of one draw block, kept or recomputed."""
        if prob_chunks is not None:
            return prob_chunks[start // self.draw_block]
        return self._chunk(v, self.compiled.spread(sigma), start, stop)[0]

    def _free_index(self, params: ParameterVector) -> list[int]:
        names = self.compiled.parameter_names
        return [names.index(name) for name in params.free_names]

    def loglik(self, params: ParameterVector) -> float:
        _, _, log_prob, _, _ = self._simulate(params, keep_probs=False)
        return float(log_prob.sum())

    def loglik_and_gradient(self, params: ParameterVector):
        """Simulated log-likelihood and its gradient over the free parameters."""
        compiled = self.compiled
        v, sigma, log_prob, w, prob_chunks = self._simulate(params, keep_probs=True)
        ll = float(log_prob.sum())

        # Draw weights w[n, d] sum to one per individual, so the
        # chosen-alternative part of the score collapses to the one-hot
        # matrix and only the probability-weighted parts need the draws.
        n_obs, n_comp = compiled.n_obs, compiled.n_components
        loadings = compiled.loadings

        def work(start, stop):
            p = self._block_probs(prob_chunks, v, sigma, start, stop)
            w_obs = w[compiled.obs_individual, start:stop]
            sum_wp = np.empty((n_obs, 3))
            a_z = np.empty((n_obs, n_comp))
            b_z = np.zeros((n_obs, 3, n_comp))
            for j in range(3):
                sum_wp[:, j] = np.vecdot(p[j], w_obs)
            for c in range(n_comp):
                wz = w_obs * self.z_obs[c, :, start:stop]
                a_z[:, c] = wz.sum(axis=1)
                for j in np.flatnonzero(loadings[:, c]):
                    b_z[:, j, c] = np.vecdot(p[j], wz)
            return sum_wp, a_z, b_z

        sum_wp, a_z, b_z = (sum(parts[1:], parts[0]) for parts in zip(*self._map_blocks(work)))

        g_obs = self.onehot - sum_wp
        grad_beta = np.einsum("oj,ojp->p", g_obs, compiled.design)

        chosen_load = loadings[compiled.chosen]
        grad_sigma = (a_z * chosen_load).sum(axis=0) - np.einsum("ojc,jc->c", b_z, loadings)

        grad = np.concatenate([grad_beta, grad_sigma])
        return ll, grad[self._free_index(params)]

    def hessian(self, params: ParameterVector) -> np.ndarray:
        """Hessian of the simulated log-likelihood over the free parameters.

        With the draws fixed, utilities are linear in beta and sigma, so
        for individual n (Train 2009, section 10.2)

            d2 ln P_n = sum_d w_nd (H_nd + g_nd g_nd') - gbar_n gbar_n'

        with w_nd the draw weights of the gradient, g_nd = sum_t (x_t,chosen,d
        - xbar_td) the per-draw score, gbar_n = sum_d w_nd g_nd, and H_nd =
        -sum_t sum_j p_tjd (x_tjd - xbar_td)(x_tjd - xbar_td)' the per-draw
        logit curvature. The covariate of a beta is ``design[t, j]``; that of
        sigma_c is loadings[j, c] z_ndc. The within-task terms are reduced to
        per-task moments; the scores are built per task position over
        sub-blocks of draws, so no (obs, draw, parameter) array is ever formed.
        """
        compiled = self.compiled
        v, sigma, _, w, prob_chunks = self._simulate(params, keep_probs=True)

        design = compiled.design
        loadings = compiled.loadings
        starts = compiled.obs_starts
        n_obs, n_ind = compiled.n_obs, compiled.n_individuals
        n_beta, n_comp = design.shape[2], compiled.n_components
        n_par = n_beta + n_comp
        chosen_design = np.add.reduceat(design[self._rows, compiled.chosen], starts, axis=0)
        chosen_load = np.add.reduceat(loadings[compiled.chosen], starts, axis=0)
        n_tasks = np.diff(np.append(starts, n_obs))
        positions = []  # (individuals with a k-th task, their k-th rows)
        for k in range(int(n_tasks.max())):
            who = np.flatnonzero(n_tasks > k)
            rows = starts[who] + k
            positions.append((who, rows))
        diag = np.arange(3)

        def within_task(p, z, lo, hi):
            """Sums over draws lo..hi, weighted by w, of the within-task moments:
            diag(p) - p p' and p_j e_jc per task, and sum_j p_j e_j e_j' over all
            tasks, with the centred sigma covariate e_jc = z_c (loadings[j, c] -
            q_c), q = p @ loadings."""
            w_obs = w[compiled.obs_individual, lo:hi]
            pw = p * w_obs[:, :, None]
            pw_t = pw.transpose(0, 2, 1)
            omega = -np.matmul(pw_t, p)
            omega[:, diag, diag] += pw.sum(axis=1)
            q = p @ loadings
            zq = z * q
            cross = np.matmul(pw_t, z) * loadings - np.matmul(pw_t, zq)
            sigma_sq = -np.tensordot(w_obs[:, :, None] * zq, zq, axes=([0, 1], [0, 1]))
            for j in range(3):
                pz = pw[:, :, j, None] * z
                sigma_sq += np.outer(loadings[j], loadings[j]) * np.tensordot(
                    pz, z, axes=([0, 1], [0, 1])
                )
            return omega, cross, sigma_sq, np.add.reduceat(q, starts, axis=0)

        def scores(p, z, q_sum, lo, hi):
            """Sums over draws lo..hi of w g g' and, per individual, of w g."""
            score = np.empty((n_ind, hi - lo, n_par))
            score[:, :, :n_beta] = chosen_design[:, None, :]
            for who, rows in positions:
                score[who, :, :n_beta] -= np.matmul(p[rows], design[rows])
            score[:, :, n_beta:] = z[starts] * (chosen_load[:, None, :] - q_sum)
            weighted = score * w[:, lo:hi, None]
            return weighted.reshape(-1, n_par).T @ score.reshape(-1, n_par), weighted.sum(axis=1)

        def work(start, stop):
            p_block = self._block_probs(prob_chunks, v, sigma, start, stop)
            sums = None
            for lo in range(start, stop, _HESSIAN_SUB_BLOCK):
                hi = min(lo + _HESSIAN_SUB_BLOCK, stop)
                # the moments below read (obs, draw, alternative or component)
                p = np.ascontiguousarray(p_block[:, :, lo - start:hi - start].transpose(1, 2, 0))
                z = np.ascontiguousarray(self.z_obs[:, :, lo:hi].transpose(1, 2, 0))
                omega, cross, sigma_sq, q_sum = within_task(p, z, lo, hi)
                part = (omega, cross, sigma_sq) + scores(p, z, q_sum, lo, hi)
                sums = part if sums is None else tuple(a + b for a, b in zip(sums, part))
            return sums

        pieces = self._map_blocks(work)
        omega, cross, sigma_sq, outer, g_bar = (sum(parts[1:], parts[0]) for parts in zip(*pieces))

        within = np.empty((n_par, n_par))
        within[:n_beta, :n_beta] = np.tensordot(design, omega @ design, axes=([0, 1], [0, 1]))
        within[:n_beta, n_beta:] = np.tensordot(design, cross, axes=([0, 1], [0, 1]))
        within[n_beta:, :n_beta] = within[:n_beta, n_beta:].T
        within[n_beta:, n_beta:] = sigma_sq
        hess = outer - g_bar.T @ g_bar - within
        hess = (hess + hess.T) / 2.0
        free = self._free_index(params)
        return hess[np.ix_(free, free)]


def simulated_loglik(
    dataset: ChoiceDataset | CompiledData,
    spec: ModelSpec,
    params: ParameterVector,
    draws: DrawMatrix,
    draw_block: int = 500,
) -> float:
    compiled = dataset if isinstance(dataset, CompiledData) else compile_dataset(dataset, spec)
    return EvaluationContext(compiled, draws, draw_block).loglik(params)


def gradient(
    dataset: ChoiceDataset | CompiledData,
    spec: ModelSpec,
    params: ParameterVector,
    draws: DrawMatrix,
    draw_block: int = 500,
) -> np.ndarray:
    compiled = dataset if isinstance(dataset, CompiledData) else compile_dataset(dataset, spec)
    _, grad = EvaluationContext(compiled, draws, draw_block).loglik_and_gradient(params)
    return grad


def panel_probability(
    individual: Individual,
    spec: ModelSpec,
    params: ParameterVector,
    individual_draws: np.ndarray,
) -> float:
    """Simulated probability of one individual's observed choice sequence.

    ``individual_draws`` has shape (n_draws, n_components): the error
    components are drawn once per individual and shared by all tasks.
    """
    individual_draws = np.atleast_2d(np.asarray(individual_draws, dtype=float))
    if individual_draws.shape[1] != len(spec.error_components):
        raise ValidationError(
            f"draws have {individual_draws.shape[1]} dimensions, the model declares "
            f"{len(spec.error_components)} error components"
        )
    dataset = ChoiceDataset(spec.kind, (individual,))
    compiled = compile_dataset(dataset, spec)
    draws = DrawMatrix(np.ascontiguousarray(individual_draws[None, :, :]), seed=0)
    _, _, log_prob, _, _ = EvaluationContext(compiled, draws)._simulate(params, keep_probs=False)
    return float(np.exp(log_prob[0]))
