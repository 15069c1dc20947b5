"""File formats: long-format dataset CSV, parameter files, reports, manifests.

Everything is plain UTF-8 text. Floats are written with ``repr`` so that a
load/save round trip of any file produced here is byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import json
import platform
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np
import scipy

from . import __version__
from .dataset import ChoiceDataset, Individual, PanelError
from .estimator import EstimationResult
from .model import (
    ALTERNATIVES,
    AgeGroup,
    Alternative,
    AttributeBundle,
    CurrentMode,
    DatasetKind,
    IncomeBand,
    ModelSpec,
    ParameterVector,
    Persona,
    Purpose,
    TaskObservation,
    TripContext,
    ValidationError,
)
from .simulator import ShareTable

_ATTRIBUTE_COLUMNS = (
    "travel_time_min",
    "travel_cost_eur",
    "access_egress_time_min",
    "congestion_chance",
    "congestion_delay",
    "parking_search_time_min",
    "parking_fee_eur",
)

DATASET_COLUMNS = (
    ("individual_id", "task_id", "alt", "available", "chosen")
    + _ATTRIBUTE_COLUMNS
    + ("age_group", "higher_education", "income_band", "has_children",
       "current_mode", "purpose", "distance_km")
)


def _bool(value: bool) -> str:
    return "1" if value else "0"


def save_dataset(dataset: ChoiceDataset, path) -> None:
    """Long format: one row per individual x task x alternative."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(DATASET_COLUMNS)
        for ind in dataset.individuals:
            persona = ind.persona
            mode = persona.current_mode
            mode_label = mode.value if isinstance(mode, CurrentMode) else str(mode)
            for obs in ind.tasks:
                for alt in ALTERNATIVES:
                    bundle = obs.attributes[alt]
                    writer.writerow(
                        (
                            ind.individual_id,
                            obs.task_id,
                            alt.value,
                            _bool(obs.availability[alt]),
                            _bool(obs.chosen is alt),
                        )
                        + tuple(repr(getattr(bundle, c)) for c in _ATTRIBUTE_COLUMNS)
                        + (
                            persona.age_group.value,
                            _bool(persona.higher_education),
                            persona.income_band.value,
                            _bool(persona.has_children),
                            mode_label,
                            obs.context.purpose.value,
                            repr(obs.context.distance_km),
                        )
                    )


def _flag(value: str) -> bool:
    if value not in ("0", "1"):
        raise ValueError(f"expected 0 or 1, got {value!r}")
    return value == "1"


def _parse_row(row: Sequence[str]):
    """Typed fields of one dataset row; a bad field raises ValueError naming it."""
    if len(row) != len(DATASET_COLUMNS):
        raise ValueError(f"expected {len(DATASET_COLUMNS)} fields, got {len(row)}")
    record = dict(zip(DATASET_COLUMNS, row))

    def parse(column, kind):
        try:
            return kind(record[column])
        except ValueError:
            raise ValueError(f"bad {column} {record[column]!r}") from None

    persona = Persona(
        age_group=parse("age_group", AgeGroup),
        higher_education=parse("higher_education", _flag),
        income_band=parse("income_band", IncomeBand),
        has_children=parse("has_children", _flag),
        current_mode=parse("current_mode", CurrentMode),
    )
    return (
        parse("individual_id", int),
        record["task_id"],
        parse("alt", Alternative),
        parse("available", _flag),
        parse("chosen", _flag),
        AttributeBundle(**{c: parse(c, float) for c in _ATTRIBUTE_COLUMNS}),
        persona,
        TripContext(parse("purpose", Purpose), parse("distance_km", float)),
    )


def _numbered_rows(path):
    """(line number, fields) of each data row of a dataset file, header checked."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        if tuple(next(reader, ())) != DATASET_COLUMNS:
            raise ValidationError(f"{path}:1: unexpected dataset header")
        for row in reader:
            yield reader.line_num, row


def load_dataset(path) -> ChoiceDataset:
    """Read a long-format dataset.

    Every defect raises ``ValidationError("path:line: ...")``: a malformed
    row names its own line, a defective task or individual the line of its
    first row.
    """
    individuals: list[Individual] = []
    task_lines: list[list[int]] = []  # first line of each task, per individual
    current: dict | None = None

    def flush(state) -> None:
        tasks = []
        for t in state["tasks"]:
            try:
                tasks.append(TaskObservation(
                    task_id=t["task_id"],
                    context=t["context"],
                    sq_mode=t["sq_mode"],
                    attributes=t["attrs"],
                    availability=t["avail"],
                    chosen=t["chosen"],
                ))
            except ValidationError as exc:
                raise ValidationError(f"{path}:{t['line']}: task {t['task_id']}: {exc}") from None
        try:
            individuals.append(
                Individual(individual_id=state["id"], persona=state["persona"], tasks=tasks)
            )
        except ValidationError as exc:
            raise ValidationError(f"{path}:{state['tasks'][0]['line']}: {exc}") from None
        task_lines.append([t["line"] for t in state["tasks"]])

    for line, row in _numbered_rows(path):
        where = f"{path}:{line}"
        try:
            ind_id, task_id, alt, available, chosen, bundle, persona, context = _parse_row(row)
        except ValueError as exc:
            raise ValidationError(f"{where}: {exc}") from None
        if current is None or current["id"] != ind_id:
            if current is not None:
                flush(current)
            current = {"id": ind_id, "persona": persona, "tasks": []}
        elif persona != current["persona"]:
            raise ValidationError(
                f"{where}: persona differs from earlier rows of individual {ind_id}"
            )
        tasks = current["tasks"]
        # the three alternative rows of a task are consecutive in the file
        if not tasks or tasks[-1]["task_id"] != task_id:
            tasks.append(
                {
                    "task_id": task_id,
                    "line": line,
                    "context": context,
                    "sq_mode": persona.current_mode,
                    "attrs": {},
                    "avail": {},
                    "chosen": None,
                }
            )
        elif context != tasks[-1]["context"]:
            raise ValidationError(
                f"{where}: trip context differs from earlier rows of task {task_id}"
            )
        task = tasks[-1]
        if alt in task["attrs"]:
            raise ValidationError(f"{where}: second {alt.value} row in task {task_id}")
        if chosen and task["chosen"] is not None:
            raise ValidationError(f"{where}: second chosen=1 row in task {task_id}")
        task["attrs"][alt] = bundle
        task["avail"][alt] = available
        if chosen:
            task["chosen"] = alt
    if current is None:
        raise ValidationError(f"{path}:1: no data rows below the header")
    flush(current)

    purposes = {obs.context.purpose for ind in individuals for obs in ind.tasks}
    kind = (
        DatasetKind.COMMUTE if purposes == {Purpose.COMMUTE} else DatasetKind.NONCOMMUTE
    )
    try:
        return ChoiceDataset(kind, tuple(individuals))
    except PanelError as exc:
        lines = task_lines[exc.individual]
        raise ValidationError(f"{path}:{lines[exc.task or 0]}: {exc}") from None


# ---------------------------------------------------------------------------
# Parameter files


def save_params(params: ParameterVector, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("name,value,fixed\n")
        for name in params.names:
            fixed = _bool(name in params.fixed)
            handle.write(f"{name},{params.values[name]!r},{fixed}\n")


def load_params(path) -> ParameterVector:
    values: dict[str, float] = {}
    fixed: set[str] = set()
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != ["name", "value", "fixed"]:
            raise ValidationError(f"{path}:1: unexpected parameter header")
        for row in reader:
            try:
                name, value, flag = row
                values[name] = float(value)
            except ValueError as exc:
                raise ValidationError(f"{path}:{reader.line_num}: {exc}") from None
            if flag == "1":
                fixed.add(name)
    return ParameterVector(values, frozenset(fixed))


# ---------------------------------------------------------------------------
# Estimation reports


def _is_socio(term) -> bool:
    c = term.condition
    return (
        c.age_groups is not None
        or c.income_bands is not None
        or c.higher_education is not None
        or c.has_children is not None
    )


def _report_sections(spec: ModelSpec) -> list[tuple[str, list[str]]]:
    constants, attributes, socio = [], [], []
    seen = set()
    for term in spec.terms:
        if term.coefficient in seen:
            continue
        seen.add(term.coefficient)
        if term.covariate != "const":
            attributes.append(term.coefficient)
        elif _is_socio(term):
            socio.append(term.coefficient)
        else:
            constants.append(term.coefficient)
    constants.extend(spec.sigma_names)
    return [
        ("Alternative specific constants", constants),
        ("Mode attributes", attributes),
        ("Socio-demographic variables", socio),
    ]


def format_results_text(result: EstimationResult, spec: ModelSpec) -> str:
    lines = []
    estimates = result.estimates
    p_values = result.p_values or {}
    for title, names in _report_sections(spec):
        if not names:
            continue
        lines.append(title)
        for name in names:
            value = f"{estimates[name]:.4g}"
            if name in p_values:
                p = f"{p_values[name]:.2f}"
            elif name in estimates.fixed:
                p = "fixed"
            else:
                p = "-"
            lines.append(f"  {name:<28}{value:>10}  {p:>6}")
    if spec.sigma_names:
        lines.append("Spread signs are not identified: compare |sigma| across fits")
    fit = result.fit
    lines.append("Model summary")
    lines.append(f"  {'Null log-likelihood':<28}{fit.null_ll:>10.1f}")
    lines.append(f"  {'Final log-likelihood':<28}{fit.final_ll:>10.1f}")
    lines.append(f"  {'Pseudo rho-square':<28}{fit.rho_square:>10.3f}")
    lines.append(f"  {'Number of parameters':<28}{fit.n_parameters:>10}")
    lines.append(f"  {'Number of observations':<28}{fit.n_observations:>10}")
    lines.append(f"  {'Number of individuals':<28}{fit.n_individuals:>10}")
    conv = result.convergence
    status = "converged" if conv.converged else "NOT converged"
    lines.append(
        f"Convergence: {status} ({conv.iterations} iterations, "
        f"gradient norm {conv.gradient_norm:.2e})"
    )
    if result.std_errors_missing is not None:
        lines.append(f"Standard errors: unavailable ({result.std_errors_missing})")
    return "\n".join(lines) + "\n"


def save_results(result: EstimationResult, spec: ModelSpec, out_dir) -> None:
    out_dir = Path(out_dir)
    (out_dir / "results.txt").write_text(format_results_text(result, spec), encoding="utf-8")
    with open(out_dir / "results.csv", "w", encoding="utf-8", newline="") as handle:
        handle.write("section,name,estimate,std_error,p_value\n")
        se = result.std_errors or {}
        pv = result.p_values or {}
        for title, names in _report_sections(spec):
            for name in names:
                se_s = repr(float(se[name])) if name in se else ""
                pv_s = repr(float(pv[name])) if name in pv else ""
                estimate = repr(float(result.estimates[name]))
                handle.write(f"{title},{name},{estimate},{se_s},{pv_s}\n")
    save_params(result.estimates, out_dir / "estimates.csv")


# ---------------------------------------------------------------------------
# Share and policy tables


def format_share_table_text(table: ShareTable, excluded: Sequence[str] = ()) -> str:
    header = f"{'current mode':<14}{'km':>5}  {'status quo':>11}{'shared EV':>11}{'shared e-bike':>14}"
    lines = [header]
    for row in table.rows:
        shares = row.shares
        lines.append(
            f"{row.current_mode.value:<14}{row.distance_km:>5g}  "
            f"{shares[Alternative.STATUS_QUO]:>10.1f}%{shares[Alternative.SHARED_EV]:>10.1f}%"
            f"{shares[Alternative.SHARED_EBIKE]:>13.1f}%"
        )
    if excluded:
        lines.append("Excluded cells: " + "; ".join(excluded))
    return "\n".join(lines) + "\n"


def save_share_table(table: ShareTable, out_dir, excluded: Sequence[str] = ()) -> None:
    out_dir = Path(out_dir)
    (out_dir / "shares.txt").write_text(
        format_share_table_text(table, excluded), encoding="utf-8"
    )
    with open(out_dir / "shares.csv", "w", encoding="utf-8", newline="") as handle:
        handle.write("current_mode,distance_km,status_quo_pct,shared_ev_pct,shared_ebike_pct\n")
        for row in table.rows:
            handle.write(
                f"{row.current_mode.value},{row.distance_km!r},"
                f"{row.shares[Alternative.STATUS_QUO]:.1f},"
                f"{row.shares[Alternative.SHARED_EV]:.1f},"
                f"{row.shares[Alternative.SHARED_EBIKE]:.1f}\n"
            )
        for cell in excluded:
            handle.write(f"# excluded: {cell}\n")


def format_policy_table_text(
    shares: Mapping[str, Sequence[float]], deltas: Mapping[str, Mapping[Alternative, float]]
) -> str:
    header = (
        f"{'policy':<32}{'status quo':>11}{'shared EV':>11}{'shared e-bike':>14}   delta vs base (pp)"
    )
    lines = [header]
    for name, values in shares.items():
        row = f"{name:<32}{values[0]:>10.1f}%{values[1]:>10.1f}%{values[2]:>13.1f}%"
        if name in deltas:
            d = deltas[name]
            row += (
                f"   {d[Alternative.STATUS_QUO]:+.1f} / "
                f"{d[Alternative.SHARED_EV]:+.1f} / "
                f"{d[Alternative.SHARED_EBIKE]:+.1f}"
            )
        lines.append(row)
    return "\n".join(lines) + "\n"


def save_policy_table(
    shares: Mapping[str, Sequence[float]],
    deltas: Mapping[str, Mapping[Alternative, float]],
    out_dir,
) -> None:
    out_dir = Path(out_dir)
    (out_dir / "policies.txt").write_text(
        format_policy_table_text(shares, deltas), encoding="utf-8"
    )
    with open(out_dir / "policies.csv", "w", encoding="utf-8", newline="") as handle:
        handle.write(
            "policy,status_quo_pct,shared_ev_pct,shared_ebike_pct,"
            "delta_status_quo_pp,delta_shared_ev_pp,delta_shared_ebike_pp\n"
        )
        for name, values in shares.items():
            row = f"{name},{values[0]:.1f},{values[1]:.1f},{values[2]:.1f}"
            if name in deltas:
                d = deltas[name]
                row += (
                    f",{d[Alternative.STATUS_QUO]:.1f}"
                    f",{d[Alternative.SHARED_EV]:.1f}"
                    f",{d[Alternative.SHARED_EBIKE]:.1f}"
                )
            else:
                row += ",,,"
            handle.write(row + "\n")


# ---------------------------------------------------------------------------
# Design files


def save_design(tasks: Sequence[TaskObservation], out_dir) -> None:
    out_dir = Path(out_dir)
    with open(out_dir / "design.csv", "w", encoding="utf-8", newline="") as handle:
        handle.write("task_id,alternative,attribute,value\n")
        for obs in tasks:
            for alt in ALTERNATIVES:
                bundle = obs.attributes[alt]
                for column in _ATTRIBUTE_COLUMNS:
                    handle.write(f"{obs.task_id},{alt.value},{column},{getattr(bundle, column)!r}\n")


def save_codebook(plan, context_note: str, out_dir) -> None:
    out_dir = Path(out_dir)
    lines = [context_note, "", "factors and levels (orthogonal 27-run design):"]
    for name, levels in zip(plan.factors, plan.levels):
        lines.append(f"  {name}: " + ", ".join(f"{lv:g}" for lv in levels))
    lines.append("")
    lines.append("attribute columns in design.csv: " + ", ".join(_ATTRIBUTE_COLUMNS))
    (out_dir / "codebook.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Run manifests


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def write_manifest(out_dir, command: str, config: Mapping, inputs: Iterable = ()) -> None:
    """Record everything needed to reproduce a run."""
    out_dir = Path(out_dir)
    manifest = {
        "command": command,
        "config": dict(config),
        "versions": {
            "modeswitch": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
        "inputs": {str(p): _digest(Path(p)) for p in inputs},
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
