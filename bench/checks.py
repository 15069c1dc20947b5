"""Output checks made apart from the program.

Each check returns a list of problems; an empty list means the output passed.
The reference computations here share no code with modeswitch's likelihood,
simulator or file loader: they read the CSV files the program writes, and
they take from the program only its compiled design arrays, its draws and
(for scenario cells) the logit shares at zero error-component spread, from
which the cell's utilities are recovered.
"""

from __future__ import annotations

import csv
import math
from collections import OrderedDict
from pathlib import Path

import numpy as np

# Published substitution shares of the non-commuting model (percent of status
# quo, shared EV, shared e-bike) per (current mode, distance in km).
PAPER_NONCOMMUTE_SHARES = {
    ("car", 2.0): (75.6, 12.2, 12.3),
    ("car", 5.0): (77.7, 11.0, 11.2),
    ("car", 10.0): (78.7, 11.2, 10.1),
    ("pt", 2.0): (68.1, 16.8, 15.1),
    ("pt", 5.0): (67.5, 14.6, 17.9),
    ("pt", 10.0): (59.2, 13.6, 27.2),
    ("bike", 2.0): (86.1, 8.6, 5.3),
    ("bike", 5.0): (82.4, 10.3, 7.4),
    ("bike", 10.0): (70.8, 15.5, 13.6),
    ("walk", 2.0): (78.7, 8.7, 12.5),
    ("walk", 5.0): (56.0, 20.2, 23.8),
}
PAPER_TOLERANCE_PP = 5.0

# Name of the estimate that multiplies a shared mode's own trip cost, per
# (alternative, current mode), in the non-commuting model's table of estimates.
NONCOMMUTE_OWN_COST_ESTIMATE = {
    ("sev", "car"): "sev_cost_car",
    ("sev", "pt"): "sev_cost_pt",
    ("sev", "bike"): "sev_cost_bike_walk",
    ("sev", "walk"): "sev_cost_bike_walk",
    ("seb", "car"): "seb_cost",
    ("seb", "pt"): "seb_cost",
    ("seb", "bike"): "seb_cost",
    ("seb", "walk"): "seb_cost",
}

# Share tables print one decimal: a printed share is within half a unit of
# the simulated one, a sum of three within three halves.
ROUNDING_PP = 0.05 + 1e-9
SUM_TOLERANCE_PP = 3 * ROUNDING_PP
# Quadrature bound: printed rounding plus this many i.i.d. Monte Carlo
# standard errors (stratified draws only shrink the error).
MC_SIGMAS = 4.0
# The report prints log-likelihoods with one decimal.
REPORT_LL_TOLERANCE = 0.05 + 1e-6
# At a maximum no probe step may raise the log-likelihood by more than this.
PROBE_TOLERANCE = 1e-3
PROBE_STEP = 0.05  # in standard-error units
PROBE_DIRECTIONS = 8
QUADRATURE_NODES = 24  # Gauss-Hermite nodes per error component


# ---------------------------------------------------------------------------
# Dataset CSV, read without the program's loader


def read_dataset_csv(path):
    """Per-task records from a long-format dataset CSV.

    Returns ``(rows, tasks)``: the data row count and an ordered mapping
    ``(individual_id, task_id) -> {"mode", "available": {alt: flag}, "chosen": [alts]}``.
    """
    tasks: OrderedDict = OrderedDict()
    rows = 0
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        for record in reader:
            rows += 1
            key = (int(record["individual_id"]), record["task_id"])
            task = tasks.setdefault(
                key, {"mode": record["current_mode"], "available": {}, "chosen": []}
            )
            task["available"][record["alt"]] = record["available"] == "1"
            if record["chosen"] == "1":
                task["chosen"].append(record["alt"])
    return rows, tasks


def csv_null_loglik(tasks) -> float:
    """-sum of ln(available alternatives per task), counted from the file."""
    return -sum(math.log(sum(t["available"].values())) for t in tasks.values())


# ---------------------------------------------------------------------------
# Estimation


def parse_report(text: str) -> dict:
    """Null/final log-likelihood and the convergence flag from results.txt."""
    out = {"converged": False}
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("Null log-likelihood"):
            out["null_ll"] = float(stripped.split()[-1])
        elif stripped.startswith("Final log-likelihood"):
            out["final_ll"] = float(stripped.split()[-1])
        elif stripped.startswith("Convergence:"):
            out["converged"] = stripped.startswith("Convergence: converged")
    return out


def _number(text: str) -> float:
    # results.csv writes numpy scalars with repr, which numpy 2 spells
    # "np.float64(0.25)" rather than "0.25"
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


def read_results_csv(path):
    """``{name: (estimate, std_error or None)}`` from results.csv."""
    out = {}
    with open(path, encoding="utf-8", newline="") as handle:
        for record in csv.DictReader(handle):
            se = record["std_error"]
            out[record["name"]] = (_number(record["estimate"]), _number(se) if se else None)
    return out


def _logsumexp(a, axis):
    top = np.max(a, axis=axis, keepdims=True)
    top = np.where(np.isfinite(top), top, 0.0)
    return np.squeeze(top, axis=axis) + np.log(np.sum(np.exp(a - top), axis=axis))


class ReferenceLoglik:
    """Simulated panel log-likelihood in the log domain.

    ln L = sum_n ln( (1/R) sum_r exp( sum_t ln P(chosen_nt | draw r) ) ),
    written straight from the definition over the compiled arrays
    (``design``, ``avail``, ``chosen``, ``loadings``, ``obs_starts``) and a
    draw array indexed (individual, draw, component).
    """

    def __init__(self, compiled, draw_values):
        self.design = compiled.design
        self.blocked = np.where(compiled.avail, 0.0, -np.inf)
        self.chosen = compiled.chosen
        self.loadings = compiled.loadings
        self.starts = compiled.obs_starts
        self.n_beta = len(compiled.beta_names)
        self.z = draw_values[compiled.obs_individual]  # (obs, draws, components)
        self.rows = np.arange(len(self.chosen))

    def __call__(self, values) -> float:
        values = np.asarray(values, dtype=float)
        beta, sigma = values[: self.n_beta], np.abs(values[self.n_beta:])
        v = np.einsum("ojk,k->oj", self.design, beta) + self.blocked
        u = v[:, None, :] + self.z @ (self.loadings * sigma).T
        log_p = u[self.rows, :, self.chosen] - _logsumexp(u, axis=2)  # (obs, draws)
        per_draw = np.add.reduceat(log_p, self.starts, axis=0)  # (individuals, draws)
        n_draws = per_draw.shape[1]
        return float(np.sum(_logsumexp(per_draw, axis=1) - math.log(n_draws)))


def probe_gain(loglik, x, scale, seed):
    """Largest rise of ``loglik`` seen from ``x`` along seeded random directions.

    Steps are ``PROBE_STEP`` standard errors long along unit directions in
    standard-error units, so each coordinate moves in proportion to its
    sampling spread. Per direction the rise is the larger of the two
    one-sided changes and of half their difference, the first-order rise
    with the curvature removed; at a maximum all of them are about 0 or
    below.
    """
    rng = np.random.default_rng(seed)
    base = loglik(x)
    best = -np.inf
    for _ in range(PROBE_DIRECTIONS):
        d = rng.standard_normal(len(x))
        d *= PROBE_STEP * scale / np.linalg.norm(d)
        up, down = loglik(x + d) - base, loglik(x - d) - base
        best = max(best, up, down, abs(up - down) / 2.0)
    return best


def fit_problems(report, results, free_names, loglik, truth, start, csv_null_ll, probe_seed):
    """Checks of one estimation run against the reference log-likelihood.

    ``report`` is ``parse_report`` output, ``results`` ``read_results_csv``
    output, ``truth``/``start`` arrays over ``free_names``.
    """
    problems = []
    if not report.get("converged"):
        problems.append("fit did not converge")
    missing = [n for n in free_names if n not in results]
    if missing:
        return problems + [f"results.csv lacks {missing}"]
    x = np.array([results[n][0] for n in free_names])
    se = np.array([results[n][1] if results[n][1] is not None else np.nan for n in free_names])
    if not (np.isfinite(se).all() and (se > 0).all()):
        problems.append("standard errors are missing, not finite or not positive")
    ll_est = loglik(x)
    if "final_ll" not in report or abs(ll_est - report["final_ll"]) > REPORT_LL_TOLERANCE:
        problems.append(
            f"reference LL {ll_est:.4f} disagrees with reported {report.get('final_ll')}"
        )
    for label, point in (("truth", truth), ("start", start)):
        ll_other = loglik(point)
        if ll_other > ll_est + 1e-6:
            problems.append(f"LL at the {label} ({ll_other:.4f}) beats the estimate ({ll_est:.4f})")
    scale = np.where(np.isfinite(se) & (se > 0), se, 1.0)
    gain = probe_gain(loglik, x, scale, probe_seed)
    if gain > PROBE_TOLERANCE:
        problems.append(f"a probe step raises the LL by {gain:.3g} > {PROBE_TOLERANCE}")
    if "null_ll" not in report or abs(report["null_ll"] - csv_null_ll) > REPORT_LL_TOLERANCE:
        problems.append(
            f"reported null LL {report.get('null_ll')} != {csv_null_ll:.4f} counted from the CSV"
        )
    return problems


# ---------------------------------------------------------------------------
# Scenario shares


def read_share_csv(path):
    """``[(mode, distance_km, (sq, sev, seb))]`` from shares.csv, in percent."""
    rows = []
    with open(path, encoding="utf-8") as handle:
        next(handle)
        for line in handle:
            if line.startswith("#") or not line.strip():
                continue
            mode, distance, *shares = line.strip().split(",")
            rows.append((mode, float(distance), tuple(float(s) for s in shares)))
    return rows


def read_policy_csv(path):
    """``{policy: (shares, deltas or None)}`` from policies.csv, in percent."""
    out = OrderedDict()
    with open(path, encoding="utf-8") as handle:
        next(handle)
        for line in handle:
            name, *fields = line.rstrip("\n").split(",")
            shares = tuple(float(f) for f in fields[:3])
            deltas = tuple(float(f) for f in fields[3:]) if fields[3] else None
            out[name] = (shares, deltas)
    return out


def quadrature_shares(v, sigma, loadings):
    """Mixed-logit shares by tensor Gauss-Hermite quadrature.

    ``v`` holds the three systematic utilities, ``sigma`` the spread of each
    standard-normal error component and ``loadings`` (3, components) which
    alternatives each component enters. Returns ``(mean, variance)`` of the
    choice probabilities over the mixing distribution.
    """
    x, w = np.polynomial.hermite.hermgauss(QUADRATURE_NODES)
    z1 = math.sqrt(2.0) * x
    w1 = w / math.sqrt(math.pi)
    n_comp = len(sigma)
    z = np.stack([g.ravel() for g in np.meshgrid(*([z1] * n_comp), indexing="ij")], axis=1)
    weights = np.prod(
        np.stack([g.ravel() for g in np.meshgrid(*([w1] * n_comp), indexing="ij")], axis=1),
        axis=1,
    )
    u = np.asarray(v, dtype=float)[None, :] + z @ (np.asarray(loadings) * np.abs(sigma)).T
    u -= u.max(axis=1, keepdims=True)
    p = np.exp(u)
    p /= p.sum(axis=1, keepdims=True)
    mean = weights @ p
    var = weights @ (p * p) - mean * mean
    return mean, np.maximum(var, 0.0)


def utilities_from_logit_shares(shares):
    """Utilities relative to the status quo: ln(s_j / s_sq)."""
    shares = np.asarray(shares, dtype=float)
    return np.log(shares) - math.log(shares[0])


def share_sum_problems(label, shares):
    total = sum(shares)
    if abs(total - 100.0) > SUM_TOLERANCE_PP:
        return [f"{label}: shares sum to {total:.2f}"]
    return []


def quadrature_problems(label, printed, v, sigma, loadings, n_draws):
    """Printed shares against the quadrature of the mixing integral."""
    mean, var = quadrature_shares(v, sigma, loadings)
    exact = 100.0 * mean
    bound = ROUNDING_PP + MC_SIGMAS * 100.0 * np.sqrt(var / n_draws)
    off = np.abs(np.asarray(printed) - exact)
    if (off > bound).any():
        return [
            f"{label}: printed {tuple(printed)} vs quadrature "
            f"{tuple(round(float(e), 3) for e in exact)} (bound {np.round(bound, 3).tolist()})"
        ]
    return []


def paper_problems(rows):
    """Non-commuting grid rows within PAPER_TOLERANCE_PP of the published shares."""
    problems = []
    seen = set()
    for mode, distance, shares in rows:
        target = PAPER_NONCOMMUTE_SHARES.get((mode, distance))
        if target is None:
            problems.append(f"grid row {mode} {distance:g} km is not a published cell")
            continue
        seen.add((mode, distance))
        if max(abs(a - b) for a, b in zip(shares, target)) > PAPER_TOLERANCE_PP:
            problems.append(f"grid row {mode} {distance:g} km {shares} vs paper {target}")
    missing = set(PAPER_NONCOMMUTE_SHARES) - seen
    if missing:
        problems.append(f"grid lacks published cells {sorted(missing)}")
    return problems


def policy_problems(policies):
    """Policy rows: shares sum to 100, deltas sum to 0 and equal share minus base."""
    problems = []
    if "base" not in policies:
        return ["policy table lacks the 'base' row"]
    base = policies["base"][0]
    for name, (shares, deltas) in policies.items():
        problems += share_sum_problems(f"policy {name}", shares)
        if name == "base":
            continue
        if deltas is None:
            problems.append(f"policy {name} has no deltas")
            continue
        if abs(sum(deltas)) > SUM_TOLERANCE_PP:
            problems.append(f"policy {name}: deltas sum to {sum(deltas):.2f}")
        for d, s, b in zip(deltas, shares, base):
            if abs(d - (s - b)) > 3 * ROUNDING_PP:
                problems.append(f"policy {name}: delta {d} != {s} - {b}")
    return problems


def monotone_problems(label, chain, cost_coefficient):
    """Shares along ``chain`` of ``(own_cost, printed_share)`` on common draws.

    With every other input and the draws held fixed, an alternative's share
    moves against its own cost when the cost coefficient is negative and
    with it when the coefficient is positive. Printed shares are rounded, so
    ties pass; a zero coefficient allows only ties.
    """
    ordered = sorted(chain)
    for (c0, s0), (c1, s1) in zip(ordered, ordered[1:]):
        if c1 == c0:
            continue
        if (cost_coefficient <= 0 and s1 > s0) or (cost_coefficient >= 0 and s1 < s0):
            return [f"{label}: share {s0} -> {s1} as own cost rises {c0:g} -> {c1:g} "
                    f"(cost coefficient {cost_coefficient:g})"]
    return []


# ---------------------------------------------------------------------------
# Dataset round trips


def roundtrip_problems(first, second, synthesized, loaded_individuals, loaded_tasks,
                       avail, null_ll):
    """One synthesize -> save -> load -> compile -> save cycle.

    ``first`` is the saved synthesis, ``second`` the loaded data saved again;
    ``synthesized`` holds the counts and the per-task status-quo availability
    the synthesizer produced; ``avail`` is the compiled (tasks, 3) mask of the
    loaded data and ``null_ll`` the program's null log-likelihood of it.
    """
    problems = []
    a, b = Path(first).read_bytes(), Path(second).read_bytes()
    if a != b:
        offset = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        problems.append(f"a loaded file saved again differs from byte {offset}")
    rows, tasks = read_dataset_csv(first)
    counts = {
        "individuals": (synthesized["individuals"], loaded_individuals,
                        len({ind for ind, _ in tasks})),
        "tasks": (synthesized["tasks"], loaded_tasks, len(tasks)),
        "rows": (3 * synthesized["tasks"], rows),
    }
    for name, values in counts.items():
        if len(set(values)) != 1:
            problems.append(f"{name} counts disagree {values}")
    per_person = {}
    for (ind, _), task in tasks.items():
        per_person.setdefault(ind, [task["mode"], 0])[1] += 1
    for ind, (mode, n_tasks) in per_person.items():
        # non-commuting panels: one task per (distance, purpose) cell, and
        # walkers have no 10 km cells
        expected = 4 if mode == "walk" else 6
        if n_tasks != expected:
            problems.append(f"individual {ind} ({mode}) has {n_tasks} tasks, expected {expected}")
            break
    expected_sq = np.array(synthesized["sq_available"], dtype=bool)
    csv_sq = np.array([t["available"].get("sq", False) for t in tasks.values()])
    if avail.shape[0] != len(expected_sq) or len(csv_sq) != len(expected_sq):
        problems.append(f"compiled {avail.shape[0]} tasks, synthesized {len(expected_sq)}")
    else:
        if not np.array_equal(avail[:, 0], expected_sq):
            problems.append("status quo availability of the loaded data differs from the synthesis")
        if not np.array_equal(csv_sq, expected_sq):
            problems.append("status quo availability in the CSV differs from the synthesis")
        if not avail[:, 1:].all():
            problems.append("a shared mode is unavailable")
    if any(len(t["chosen"]) != 1 for t in tasks.values()):
        problems.append("a task has no or several chosen rows")
    own = csv_null_loglik(tasks)
    if abs(own - null_ll) > 1e-9 * max(1.0, abs(own)):
        problems.append(f"null LL {null_ll} != {own} counted from the CSV")
    return problems
