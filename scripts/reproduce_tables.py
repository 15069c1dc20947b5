#!/usr/bin/env python3
"""Print the bundled substitution grids and the car-user policy table.

Runs the forward simulator at the bundled coefficient estimates with the
default reference persona (young, highly educated, middle income, no
children) and middle-level trip attributes.

    python scripts/reproduce_tables.py --draws 100000 --seed 0
"""

import argparse

from modeswitch import presets
from modeswitch.io import format_policy_table_text, format_share_table_text
from modeswitch.model import DatasetKind
from modeswitch.simulator import policy_table, substitution_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--draws", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    for kind, excluded in (
        (DatasetKind.NONCOMMUTE, ["walk 10 km (undefined cell)"]),
        (DatasetKind.COMMUTE, ["bike 10 km (too few commuting respondents)"]),
    ):
        spec = presets.model_spec(kind)
        params = presets.bundled_estimates(kind)
        grid = presets.substitution_grid(kind, args.seed, args.draws)
        table = substitution_table(grid, params, spec)
        print(f"mode substitution, {kind.value} trips")
        print(format_share_table_text(table, excluded))

    spec = presets.model_spec(DatasetKind.NONCOMMUTE)
    params = presets.bundled_estimates(DatasetKind.NONCOMMUTE)
    scenarios = presets.policy_scenarios(args.seed, args.draws)
    shares, deltas = policy_table(scenarios, presets.POLICY_BASELINE, params, spec)
    print("car-user policies, 5 km non-commuting base")
    print(format_policy_table_text(shares, deltas))


if __name__ == "__main__":
    main()
