"""Command-line entry points tying the pipeline together.

Subcommands: design, synthesize, estimate, simulate, vot. Every run that
writes files also writes a manifest with the effective configuration, the
seed, package versions, and input digests. Seeds are mandatory (defaulted,
never wall-clock) so any run is reproducible.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import presets, specfile
from .designer import (
    ReferenceTrip,
    build_commuting_tasks,
    build_noncommuting_tasks,
    commuting_plan,
    noncommuting_plan,
)
from .estimator import EstimationSettings, estimate, vot
from .model import (
    Alternative,
    AgeGroup,
    CurrentMode,
    DatasetKind,
    IncomeBand,
    Persona,
    Purpose,
    SpecificationError,
    ValidationError,
)
from .simulator import ScenarioDefinition, policy_table, substitution_table
from .synthesizer import synthesize_dataset
from . import io as mio

THREADS_ENV_VAR = "MODESWITCH_THREADS"

SCENARIO_PRESETS = ("noncommute-grid", "commute-grid", "car-policies")


def _default_threads() -> int:
    raw = os.environ.get(THREADS_ENV_VAR, "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _add_common(parser: argparse.ArgumentParser, with_out: bool = True) -> None:
    parser.add_argument("--config", type=Path, help="JSON file with defaults for the flags")
    parser.add_argument("--seed", type=int, default=None, help="random seed (default 0)")
    parser.add_argument("--draws", type=int, default=None, help="number of simulation draws")
    parser.add_argument("--threads", type=int, default=None, help="worker threads")
    if with_out:
        parser.add_argument("--out", type=Path, default=None, help="output directory")


def _merge_config(args: argparse.Namespace, defaults: dict) -> dict:
    """Config-file values fill in flags the user left unset."""
    config = dict(defaults)
    if args.config:
        try:
            loaded = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{args.config}: not valid JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise ValidationError(f"{args.config}: config file must hold a JSON object")
        config.update(loaded)
    for key, value in vars(args).items():
        if key in ("config", "command", "func") or value is None:
            continue
        config[key] = value
    return config


def _config_reader(args: argparse.Namespace, config: dict):
    """``get(key, convert[, default])``: ``convert`` applied to a merged config value.

    Flags arrive typed by argparse, so a value that fails to convert came
    from the --config file; the ValidationError names that file and the key.
    """

    def get(key: str, convert, *default):
        value = config.get(key, *default) if default else config[key]
        try:
            return convert(value)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{args.config}: {key}: {type(exc).__name__}: {exc}") from None

    return get


def _json_bool(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _out_dir(config: dict, get) -> Path:
    out = get("out", Path, "out")
    out.mkdir(parents=True, exist_ok=True)
    config["out"] = str(out)
    return out


def _config_echo(config: dict) -> dict:
    return {k: (str(v) if isinstance(v, Path) else v) for k, v in config.items()}


def cmd_design(args: argparse.Namespace) -> int:
    config = _merge_config(args, {"seed": 0, "kind": "noncommute"})
    get = _config_reader(args, config)
    out = _out_dir(config, get)
    kind = get("kind", DatasetKind)
    mode = get("mode", CurrentMode)
    distance = get("distance", float)
    if kind is DatasetKind.COMMUTE:
        ref = ReferenceTrip(
            mode=mode,
            distance_km=distance,
            travel_time_min=get("travel_time", float),
            travel_cost_eur=get("travel_cost", float, 0.0),
            access_egress_time_min=get("access_time", float, 0.0),
            congestion_chance=get("congestion_chance", float, 0.0),
            congestion_time_min=get("congestion_time", float, 0.0),
            parking_search_time_min=get("parking_search", float, 0.0),
            parking_fee_eur=get("parking_fee", float, 0.0),
        )
        tasks = build_commuting_tasks(ref)
        plan = commuting_plan(ref)
        note = (
            f"commuting battery for a {mode.value} user, {distance:g} km reference trip; "
            f"status quo fixed at the reported values"
        )
    else:
        purpose = get("purpose", Purpose, "leisure")
        tasks = build_noncommuting_tasks(distance, purpose, mode)
        plan = noncommuting_plan(distance, mode)
        note = f"non-commuting battery: {mode.value} user, {distance:g} km, {purpose.value}"
    mio.save_design(tasks, out)
    mio.save_codebook(plan, note, out)
    mio.write_manifest(out, "design", _config_echo(config))
    print(f"wrote {len(tasks)}-task design to {out}")
    return 0


def cmd_synthesize(args: argparse.Namespace) -> int:
    config = _merge_config(
        args, {"seed": 0, "kind": "noncommute", "individuals": 100}
    )
    get = _config_reader(args, config)
    out = _out_dir(config, get)
    kind = get("kind", DatasetKind)
    n = get("individuals", int)
    if n < 1:
        raise ValidationError("need at least one individual")
    seed = get("seed", int)
    if "params" in config:
        truth = mio.load_params(get("params", Path))
    else:
        truth = presets.bundled_estimates(kind)
    dataset = synthesize_dataset(kind, n, seed, truth)
    mio.save_dataset(dataset, out / "dataset.csv")
    mio.save_params(truth, out / "truth_params.csv")
    inputs = [config["params"]] if "params" in config else []
    mio.write_manifest(out, "synthesize", _config_echo(config), inputs)
    print(
        f"wrote {dataset.n_individuals} individuals, {dataset.n_observations} observations to {out}"
    )
    return 0


def cmd_estimate(args: argparse.Namespace) -> int:
    config = _merge_config(
        args, {"seed": 0, "draws": 1000, "threads": _default_threads()}
    )
    get = _config_reader(args, config)
    out = _out_dir(config, get)
    settings = EstimationSettings(
        n_draws=get("draws", int),
        seed=get("seed", int),
        threads=get("threads", int),
        max_iterations=get("max_iterations", int, 500),
        gradient_tolerance=get("gradient_tolerance", float, 1e-5),
        compute_std_errors=not get("no_std_errors", _json_bool, False),
    )
    dataset = mio.load_dataset(get("data", Path))
    if "spec_file" in config and config["spec_file"]:
        spec = specfile.load_spec(get("spec_file", Path))
    else:
        spec = presets.model_spec(get("kind", DatasetKind, dataset.kind))
    start = mio.load_params(get("start", Path)) if config.get("start") else None
    result = estimate(dataset, spec, start=start, settings=settings)
    mio.save_results(result, spec, out)
    inputs = [config["data"]]
    for key in ("spec_file", "start"):
        if config.get(key):
            inputs.append(config[key])
    mio.write_manifest(out, "estimate", _config_echo(config), inputs)
    print(mio.format_results_text(result, spec))
    if not result.convergence.converged:
        print("estimation did not converge; see results.txt", file=sys.stderr)
        return 3
    return 0


def _scenario_from_cell(
    cell: dict, kind: DatasetKind, seed: int, n_draws: int, where: str
) -> ScenarioDefinition:
    """One scenario from a cell of a scenario file; ``where`` names the cell in errors."""
    try:
        mode = CurrentMode(cell["mode"])
        distance = float(cell["distance_km"])
        overrides = {
            Alternative(alt): dict(fields)
            for alt, fields in dict(cell.get("overrides", {})).items()
        }
        scenario = presets.base_scenario(mode, distance, kind, seed, n_draws, overrides)
        if "persona" in cell:
            p = dict(cell["persona"])
            persona = Persona(
                age_group=AgeGroup(p.get("age_group", "le35")),
                higher_education=bool(p.get("higher_education", True)),
                income_band=IncomeBand(p.get("income_band", "middle")),
                has_children=bool(p.get("has_children", False)),
                current_mode=mode,
            )
            scenario = replace(scenario, persona=persona)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"{where}: {type(exc).__name__}: {exc}") from None
    return scenario


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _merge_config(
        args, {"seed": 0, "draws": 100_000, "scenarios": "noncommute-grid"}
    )
    get = _config_reader(args, config)
    out = _out_dir(config, get)
    seed = get("seed", int)
    n_draws = get("draws", int)
    source = str(config["scenarios"])

    inputs = []
    payload = None
    if source in SCENARIO_PRESETS:
        kind = DatasetKind.COMMUTE if source == "commute-grid" else DatasetKind.NONCOMMUTE
    else:
        try:
            payload = json.loads(Path(source).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{source}: not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise ValidationError(f"{source}: scenario file must hold a JSON object")
        inputs.append(source)
        default_kind = get("kind", DatasetKind, "noncommute")
        try:
            kind = DatasetKind(payload.get("kind", default_kind))
            seed = int(payload.get("seed", seed))
            n_draws = int(payload.get("n_draws", n_draws))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{source}: {type(exc).__name__}: {exc}") from None
    spec = presets.model_spec(kind)

    if config.get("params"):
        params = mio.load_params(get("params", Path))
        inputs.append(config["params"])
    else:
        params = presets.bundled_estimates(kind)

    if payload is None:
        if source == "car-policies":
            scenarios = presets.policy_scenarios(seed, n_draws)
            _write_policies(scenarios, params, spec, out)
        else:
            grid = presets.substitution_grid(kind, seed, n_draws)
            table = substitution_table(grid, params, spec)
            excluded = (
                ["bike 10 km (too few commuting respondents)"]
                if kind is DatasetKind.COMMUTE
                else ["walk 10 km (undefined cell)"]
            )
            mio.save_share_table(table, out, excluded)
    else:
        if "policies" in payload:
            base = _scenario_from_cell(payload["base"], kind, seed, n_draws, f"{source}: base")
            scenarios = {presets.POLICY_BASELINE: base}
            for name, overrides in payload["policies"].items():
                cell = dict(payload["base"])
                cell["overrides"] = overrides
                scenarios[name] = _scenario_from_cell(
                    cell, kind, seed, n_draws, f"{source}: policy {name!r}"
                )
            _write_policies(scenarios, params, spec, out)
        else:
            grid = [
                _scenario_from_cell(cell, kind, seed, n_draws, f"{source}: cell {index}")
                for index, cell in enumerate(payload["cells"])
            ]
            table = substitution_table(grid, params, spec)
            mio.save_share_table(table, out, payload.get("excluded", []))

    mio.write_manifest(out, "simulate", _config_echo(config), inputs)
    print(f"wrote simulation tables to {out}")
    return 0


def _write_policies(scenarios, params, spec, out) -> None:
    shares, deltas = policy_table(scenarios, presets.POLICY_BASELINE, params, spec)
    mio.save_policy_table(shares, deltas, out)


def cmd_vot(args: argparse.Namespace) -> int:
    config = _merge_config(args, {})
    get = _config_reader(args, config)
    if config.get("params"):
        params = mio.load_params(get("params", Path))
        time_coeff = params[get("time_name", str)]
        cost_coeff = params[get("cost_name", str)]
    else:
        time_coeff = get("time_coeff", float)
        cost_coeff = get("cost_coeff", float)
    value = vot(time_coeff, cost_coeff)
    print(f"{value:.1f} euro/hour")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modeswitch",
        description="stated-choice design, estimation and simulation for shared-hub mode switching",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="generate a 27-task choice battery")
    _add_common(p)
    p.add_argument("--kind", choices=[k.value for k in DatasetKind], default=None)
    p.add_argument("--mode", choices=[m.value for m in CurrentMode], required=True)
    p.add_argument("--distance", type=float, required=True)
    p.add_argument("--purpose", choices=["leisure", "shopping"], default=None)
    p.add_argument("--travel-time", dest="travel_time", type=float, default=None)
    p.add_argument("--travel-cost", dest="travel_cost", type=float, default=None)
    p.add_argument("--access-time", dest="access_time", type=float, default=None)
    p.add_argument("--congestion-chance", dest="congestion_chance", type=float, default=None)
    p.add_argument("--congestion-time", dest="congestion_time", type=float, default=None)
    p.add_argument("--parking-search", dest="parking_search", type=float, default=None)
    p.add_argument("--parking-fee", dest="parking_fee", type=float, default=None)
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("synthesize", help="generate a synthetic choice dataset")
    _add_common(p)
    p.add_argument("--kind", choices=[k.value for k in DatasetKind], default=None)
    p.add_argument("--individuals", type=int, default=None)
    p.add_argument("--params", type=str, default=None, help="truth parameter CSV")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("estimate", help="maximum simulated likelihood estimation")
    _add_common(p)
    p.add_argument("--data", type=str, required=True, help="long-format dataset CSV")
    p.add_argument("--kind", choices=[k.value for k in DatasetKind], default=None)
    p.add_argument("--spec-file", dest="spec_file", type=str, default=None)
    p.add_argument("--start", type=str, default=None, help="starting parameter CSV")
    p.add_argument("--no-std-errors", dest="no_std_errors", action="store_true", default=None)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("simulate", help="mode-substitution shares and policy deltas")
    _add_common(p)
    p.add_argument("--kind", choices=[k.value for k in DatasetKind], default=None)
    p.add_argument("--params", type=str, default=None, help="parameter CSV (default: bundled)")
    p.add_argument(
        "--scenarios",
        type=str,
        default=None,
        help=f"scenario JSON file or one of {', '.join(SCENARIO_PRESETS)}",
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("vot", help="value of travel time from two coefficients")
    _add_common(p, with_out=False)
    p.add_argument("--time-coeff", dest="time_coeff", type=float, default=None)
    p.add_argument("--cost-coeff", dest="cost_coeff", type=float, default=None)
    p.add_argument("--params", type=str, default=None)
    p.add_argument("--time-name", dest="time_name", type=str, default=None)
    p.add_argument("--cost-name", dest="cost_name", type=str, default=None)
    p.set_defaults(func=cmd_vot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, SpecificationError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
