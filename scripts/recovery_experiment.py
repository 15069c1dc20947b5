#!/usr/bin/env python3
"""Parameter-recovery experiment: generate at known coefficients, re-estimate.

Synthesizes one non-commuting panel per seed at the bundled point estimates,
estimates it by maximum simulated likelihood, and scores how many free
parameters land within two estimated standard errors of the truth.

    python scripts/recovery_experiment.py --seeds 3 --individuals 300 --draws 500
"""

import argparse
import time

from modeswitch import presets
from modeswitch.synthesizer import synthesize_dataset
from modeswitch.estimator import EstimationSettings, estimate
from modeswitch.model import DatasetKind


def run_seed(seed: int, n_individuals: int, n_draws: int, truth, spec) -> tuple[int, int]:
    t0 = time.time()
    dataset = synthesize_dataset(DatasetKind.NONCOMMUTE, n_individuals, seed, truth)
    result = estimate(
        dataset, spec, settings=EstimationSettings(n_draws=n_draws, seed=seed + 7000)
    )
    inside = 0
    names = result.estimates.free_names
    print(f"\nseed {seed}: {time.time() - t0:.0f}s, "
          f"converged={result.convergence.converged} "
          f"({result.convergence.iterations} iterations), "
          f"LL {result.fit.final_ll:.1f}, rho2 {result.fit.rho_square:.3f}")
    print(f"{'parameter':<26}{'truth':>8}{'estimate':>10}{'std err':>9}")
    for name in names:
        is_sigma = name.startswith("sigma")
        target = abs(truth[name]) if is_sigma else truth[name]
        got = abs(result.estimates[name]) if is_sigma else result.estimates[name]
        se = result.std_errors[name] if result.std_errors else float("nan")
        hit = abs(got - target) <= 2 * se
        inside += hit
        marker = "" if hit else "  *"
        print(f"{name:<26}{target:>8.3f}{got:>10.3f}{se:>9.3f}{marker}")
    print(f"seed {seed}: {inside}/{len(names)} within 2 SE")
    return inside, len(names)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--individuals", type=int, default=900)
    parser.add_argument("--draws", type=int, default=1000)
    args = parser.parse_args()

    spec = presets.noncommute_spec()
    truth = presets.bundled_estimates(DatasetKind.NONCOMMUTE)
    inside = total = 0
    for seed in range(101, 101 + args.seeds):
        hits, count = run_seed(seed, args.individuals, args.draws, truth, spec)
        inside += hits
        total += count
    print(f"\npooled: {inside}/{total} within 2 SE ({100 * inside / total:.1f}%)")


if __name__ == "__main__":
    main()
