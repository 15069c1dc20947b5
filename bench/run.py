#!/usr/bin/env python3
"""modeswitch benchmark: one named workload, checked outputs, one JSON line.

    python3 bench/run.py --workload estimate --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``. The
last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. See README.md in
this directory for the workloads, the seeds and the metrics.
"""

import time

_PROCESS_T0 = time.perf_counter()  # set-up is timed from here, before any import

import os


def _startup_s() -> float:
    """Seconds from the process's start to now, at the kernel's tick resolution."""
    try:
        with open("/proc/self/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")  # field 22, starttime
        return max(0.0, time.clock_gettime(time.CLOCK_BOOTTIME) - started)
    except (OSError, ValueError, IndexError):
        return 0.0  # no procfs: set-up is timed from the first statement only


_STARTUP_S = _startup_s()  # interpreter start-up before _PROCESS_T0

# The program's thread count is fixed at 1 and stated explicitly: BLAS pools
# are pinned before numpy loads, the CLI gets --threads 1, and the program's
# own thread variable is dropped so it cannot leak in.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)
os.environ.pop("MODESWITCH_THREADS", None)

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS_DIR = BENCH_DIR / "runs"

# Fixed work per round. A run does whole rounds; the round count follows
# only from --seconds (never from measured time), so every run with the same
# arguments does the same work.
ESTIMATE_INDIVIDUALS = 400
ESTIMATE_DRAWS = 1000  # two of the kernel's 500-draw blocks, as in the paper's fits
SCENARIO_DRAWS = 100_000
SWEEP_LEVELS = 3  # levels of the e-bike fee and of the shared-EV tariff per round
NOMINAL_ROUND_S = {"estimate": 60.0, "scenarios": 4.0}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_ROUND_S[workload]))


def sub_seeds(seed: int, tag: int, count: int) -> list:
    import numpy as np

    state = np.random.SeedSequence([seed, tag]).generate_state(count)
    return [int(s) % 2**31 for s in state]


class Stopwatch:
    """Wall time of the timed blocks of a run: (round, kind, seconds) each."""

    def __init__(self):
        self.blocks = []

    @contextlib.contextmanager
    def timed(self, round_index, kind):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.blocks.append((round_index, kind, time.perf_counter() - start))

    @property
    def wall_s(self):
        return sum(seconds for _, _, seconds in self.blocks)

    def round_times(self):
        totals = {}
        for r, _, seconds in self.blocks:
            totals[r] = totals.get(r, 0.0) + seconds
        return [totals[r] for r in sorted(totals)]

    def kind_times(self):
        groups = {}
        for _, kind, seconds in self.blocks:
            groups.setdefault(kind, []).append(seconds)
        return list(groups.values())


def quiet_run_s(wall_s, unit_groups):
    """The run's wall time with every unit of work counted at the lowest decile
    of the times of its group.

    A group holds units of work that repeat unchanged through the run: the
    likelihood evaluations of the fit on ``estimate``; on ``scenarios``, the
    ``simulate`` commands of one kind (a bundled set, a sweep file, a policy
    file), one per round or more, each on fresh seeds. The shared host slows
    everything in this process by up to 1.6x in stretches of one to a few
    seconds, and the share of time in such stretches moves from minute to
    minute, so a minute's wall time moves with it. Interference only adds
    time, and a unit lasts less than a stretch, so the low end of a group's
    times is the unit's cost with those stretches left out. The lowest decile
    holds while a tenth of the units fall outside them, and one freak reading
    cannot set it as it could the minimum. Time outside the units, and a group
    of one unit, count as measured.
    """
    run_s = wall_s
    for times in unit_groups:
        if len(times) > 1:
            d1 = statistics.quantiles(times, n=10, method="inclusive")[0]
            run_s += len(times) * d1 - sum(times)
    return run_s


def run_cli(argv) -> int:
    """``modeswitch <argv>`` in-process; its report text is discarded.

    An exception that escapes the command counts as a failed operation (exit
    code -1) and its traceback goes to standard error; the run goes on.
    """
    from modeswitch import cli

    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main([str(a) for a in argv])
    except Exception:  # noqa: BLE001 - operation boundary: report and count
        traceback.print_exc()
        return -1


# ---------------------------------------------------------------------------
# Workloads. Each has setup(), run(stopwatch) -> (attempted, failed) and
# check() -> list of problems.


class EstimateWorkload:
    """``modeswitch estimate`` with standard errors on synthesized panels.

    Its set-up also runs the synthesizer, the designer's task assignment
    and ``save_dataset``, and the fit loads and compiles the panel, so the
    checks include a save/load round trip of the panel file.

    Sized so that every fit converges. The panel is a quota sample, a
    quarter of the respondents per current mode: with the bundled marginals
    (8 % walkers) a 200-person panel held about 16 walkers, and on 2 of 10
    seeds none of them picked the shared EV at some distance, so the walker
    constants ran off and BFGS stopped unconverged. A spread estimate can
    still land at 0, where the likelihood's kink in |sigma| stops BFGS: 1 of
    18 seeds with 200 quota-sampled people at 1000 draws, 1 of 36 with 400
    people at 600 draws. 400 people at 1000 draws keep the spreads further
    from 0.

    Each fit starts at the truth the panel was synthesized from, as in a
    recovery experiment: from the package's default start the BFGS
    iteration count ranged over 67-101 across seeds, which moves a fit's
    time by more than a regression bound.
    """

    def __init__(self, seed, seconds, workdir):
        self.workdir = workdir
        self.rounds = rounds_for("estimate", seconds)
        seeds = sub_seeds(seed, 1, 2 * self.rounds)
        self.data_seeds, self.draw_seeds = seeds[: self.rounds], seeds[self.rounds:]
        self.synthesized = []  # counts and status-quo availability, per panel
        self.codes = []

    def setup(self):
        from modeswitch import presets, synthesizer
        from modeswitch import io as mio
        from modeswitch.designer import assign_tasks
        from modeswitch.model import Alternative, DatasetKind

        kind = DatasetKind.NONCOMMUTE
        spec, truth = presets.model_spec(kind), presets.bundled_estimates(kind)
        base = presets.population_marginals(kind)
        quota = synthesizer.PopulationMarginals(
            base.age_group, base.higher_education, base.income_band, base.has_children,
            {mode: 1.0 / len(base.current_mode) for mode in base.current_mode},
        )
        batteries = {mode: presets.noncommute_battery(mode) for mode in base.current_mode}
        for r, data_seed in enumerate(self.data_seeds):
            personas = synthesizer.sample_population(ESTIMATE_INDIVIDUALS, quota, data_seed)
            task_sets = [
                assign_tasks(batteries[p.modelled_mode()], kind, seed)
                for p, seed in zip(personas, sub_seeds(data_seed, 4, len(personas)))
            ]
            data = synthesizer.simulate_choices(spec, truth, personas, task_sets, data_seed)
            self.synthesized.append({
                "individuals": data.n_individuals,
                "tasks": data.n_observations,
                "sq_available": [
                    bool(obs.availability[Alternative.STATUS_QUO])
                    and ind.persona.current_mode == obs.sq_mode
                    for ind in data.individuals for obs in ind.tasks
                ],
            })
            (self.workdir / f"data{r}").mkdir()
            mio.save_dataset(data, self.workdir / f"data{r}" / "dataset.csv")
            mio.save_params(truth, self.workdir / f"data{r}" / "truth_params.csv")

    def run(self, stopwatch):
        for r, draw_seed in enumerate(self.draw_seeds):
            data = self.workdir / f"data{r}"
            with stopwatch.timed(r, "fit"):
                self.codes.append(run_cli([
                    "estimate", "--data", data / "dataset.csv",
                    "--start", data / "truth_params.csv", "--kind", "noncommute",
                    "--draws", ESTIMATE_DRAWS, "--seed", draw_seed, "--threads", 1,
                    "--out", self.workdir / f"fit{r}",
                ]))
        return len(self.codes), sum(code != 0 for code in self.codes)

    @staticmethod
    def time_units(timer):
        """The unit is one likelihood-and-gradient evaluation: BFGS and the
        finite-difference Hessian both call it on the same arrays, so every call
        does the same work."""
        from modeswitch import likelihood

        timer.patch_method(likelihood.EvaluationContext, "loglik_and_gradient", "unit")

    @staticmethod
    def unit_times(stopwatch, timer):
        return [[end - start for _, start, end, _, _ in timer.spans]]

    def check(self):
        import numpy as np

        import checks
        from modeswitch import dataset, draws, likelihood, presets
        from modeswitch import io as mio
        from modeswitch.model import DatasetKind

        spec = presets.noncommute_spec()
        truth = presets.bundled_estimates(DatasetKind.NONCOMMUTE)
        start = presets.starting_values(spec)
        problems = []
        for r, (draw_seed, code) in enumerate(zip(self.draw_seeds, self.codes)):
            csv_path = self.workdir / f"data{r}" / "dataset.csv"
            loaded = mio.load_dataset(csv_path)
            compiled = dataset.compile_dataset(loaded, spec)
            again = self.workdir / f"data{r}" / "dataset-again.csv"
            mio.save_dataset(loaded, again)
            problems += [f"panel {r}: {p}" for p in checks.roundtrip_problems(
                csv_path, again, self.synthesized[r], loaded.n_individuals,
                loaded.n_observations, compiled.avail, likelihood.null_loglik(loaded),
            )]
            if code != 0:
                continue  # counted in failed
            fit_dir = self.workdir / f"fit{r}"
            z = draws.standard_normal_mlhs(
                compiled.n_individuals, ESTIMATE_DRAWS, compiled.n_components, draw_seed,
                individual_ids=compiled.individual_ids,
            ).values
            names = compiled.parameter_names
            _, tasks = checks.read_dataset_csv(csv_path)
            problems += [
                f"fit {r}: {p}"
                for p in checks.fit_problems(
                    checks.parse_report((fit_dir / "results.txt").read_text(encoding="utf-8")),
                    checks.read_results_csv(fit_dir / "results.csv"),
                    names,
                    checks.ReferenceLoglik(compiled, z),
                    np.array([truth[n] for n in names]),
                    np.array([start[n] for n in names]),
                    checks.csv_null_loglik(tasks),
                    probe_seed=draw_seed,
                )
            ]
        return problems


class ScenariosWorkload:
    """``modeswitch simulate``: the bundled sets plus seeded sweep files and a policy file.

    Every round takes fresh seeds and fresh sweep levels, so no round
    repeats an earlier one's requests.
    """

    def __init__(self, seed, seconds, workdir):
        self.workdir = workdir
        self.rounds = rounds_for("scenarios", seconds)
        self.seeds = sub_seeds(seed, 2, 5 * self.rounds)
        self.jobs = []  # (round, label, argv, output directory, scenario file or None)
        self.codes = []

    @staticmethod
    def _sweep(levels_seed, seed):
        """Sweep files and a policy file over cost levels and a hub access time drawn
        from the seed: one sweep file per (fee, tariff) pair, each holding every
        defined (mode, distance) cell. All files share the seed, so every cell of a
        round is simulated on the same draws."""
        import numpy as np

        from modeswitch import presets
        from modeswitch.model import Alternative, CurrentMode

        rng = np.random.default_rng(levels_seed)

        def levels(low, high):
            """One level drawn in each of SWEEP_LEVELS equal slices of [low, high), so
            the levels of a round are distinct and ascending."""
            width = (high - low) / SWEEP_LEVELS
            return [round(low + (k + float(u)) * width, 3)
                    for k, u in enumerate(rng.uniform(size=SWEEP_LEVELS))]

        fees, tariffs = levels(0.25, 3.0), levels(0.10, 0.45)
        minutes = round(float(rng.uniform(2.0, 18.0)), 2)
        common = {"kind": "noncommute", "seed": seed, "n_draws": SCENARIO_DRAWS}
        sweeps = []
        for fee in fees:
            for tariff in tariffs:
                cells = []
                for mode in ("car", "pt", "bike", "walk"):
                    for distance in (2.0, 5.0, 10.0):
                        if mode == "walk" and distance == 10.0:
                            continue
                        sev_time = presets.middle_level_attributes(CurrentMode(mode), distance)[
                            Alternative.SHARED_EV
                        ].travel_time_min
                        cells.append({
                            "mode": mode,
                            "distance_km": distance,
                            "overrides": {
                                "sev": {"travel_cost_eur": round(tariff * sev_time, 4),
                                        "access_egress_time_min": minutes},
                                "seb": {"travel_cost_eur": fee,
                                        "access_egress_time_min": minutes},
                            },
                        })
                sweeps.append(dict(common, cells=cells))
        policies = {
            "seb_fee_low": {"seb": {"travel_cost_eur": fees[0]}},
            "hub_access_drawn": {"sev": {"access_egress_time_min": minutes},
                                 "seb": {"access_egress_time_min": minutes}},
            "sev_tariff_high": {"sev": {"travel_cost_eur": round(tariffs[-1] * 20.0, 4)}},
            "pt_fare_up": {"sq": {"travel_cost_eur": 4.5}},
        }
        return sweeps, dict(common, base={"mode": "pt", "distance_km": 10.0}, policies=policies)

    def setup(self):
        for r in range(self.rounds):
            grid_seed, commute_seed, policy_seed, levels_seed, sweep_seed = \
                self.seeds[5 * r:5 * r + 5]
            sweeps, policy = self._sweep(levels_seed, sweep_seed)
            commands = [
                ("noncommute-grid", "noncommute-grid", grid_seed, None),
                ("commute-grid", "commute-grid", commute_seed, None),
                ("car-policies", "car-policies", policy_seed, None),
            ]
            commands += [("sweep", self.workdir / f"sweep-{r}-{k}.json", 0, sweep)
                         for k, sweep in enumerate(sweeps)]
            commands.append(("policy-file", self.workdir / f"policy-{r}.json", 0, policy))
            for label, source, seed, payload in commands:
                if payload is not None:
                    source.write_text(json.dumps(payload), encoding="utf-8")
                out = self.workdir / (source.stem if payload is not None else f"{label}-{r}")
                argv = ["simulate", "--scenarios", source, "--seed", seed,
                        "--draws", SCENARIO_DRAWS, "--threads", 1, "--out", out]
                self.jobs.append((r, label, argv, out, payload))

    @staticmethod
    def _operations(label, payload):
        if payload is None:
            return {"noncommute-grid": 11, "commute-grid": 5, "car-policies": 5}[label]
        return len(payload["cells"]) if "cells" in payload else 1 + len(payload["policies"])

    def run(self, stopwatch):
        for r, label, argv, _, _ in self.jobs:
            with stopwatch.timed(r, label):
                self.codes.append(run_cli(argv))
        ops = [self._operations(label, payload) for _, label, _, _, payload in self.jobs]
        return sum(ops), sum(n for n, code in zip(ops, self.codes) if code != 0)

    @staticmethod
    def time_units(timer):
        """The unit is a command, timed by the stopwatch; each round runs the same
        commands on fresh seeds."""

    @staticmethod
    def unit_times(stopwatch, timer):
        return stopwatch.kind_times()

    def check(self):
        import dataclasses

        import numpy as np

        import checks
        from modeswitch import presets, simulator
        from modeswitch.model import ALTERNATIVES, Alternative, CurrentMode, DatasetKind

        problems = []
        cache = {}

        def model(kind):
            if kind not in cache:
                spec = presets.model_spec(kind)
                params = presets.bundled_estimates(kind)
                sigma = np.array([params[c.name] for c in spec.error_components])
                loadings = np.array([[alt in c.alternatives for c in spec.error_components]
                                     for alt in ALTERNATIVES], dtype=float)
                flat = params.with_values({c.name: 0.0 for c in spec.error_components})
                cache[kind] = (spec, flat, sigma, loadings)
            return cache[kind]

        def utilities(scenario, kind):
            """Utilities relative to the status quo, from zero-spread logit shares."""
            spec, flat, _, _ = model(kind)
            one_draw = dataclasses.replace(scenario, n_draws=1)
            return checks.utilities_from_logit_shares(
                simulator.scenario_probabilities(one_draw, flat, spec)
            )

        def check_rows(label, printed_rows, scenarios, kind):
            """Problems of each printed row: its sum and its quadrature."""
            _, _, sigma, loadings = model(kind)
            if len(printed_rows) != len(scenarios):
                return [f"{label}: {len(printed_rows)} rows for {len(scenarios)} cells"]
            found = []
            for (name, shares), scenario in zip(printed_rows, scenarios):
                v = utilities(scenario, kind)
                found += checks.share_sum_problems(f"{label} {name}", shares)
                found += checks.quadrature_problems(
                    f"{label} {name}", shares, v, sigma, loadings, SCENARIO_DRAWS
                )
            return found

        def cell_scenario(cell, seed, kind):
            overrides = {Alternative(a): f for a, f in cell.get("overrides", {}).items()}
            return presets.base_scenario(
                CurrentMode(cell["mode"]), cell["distance_km"], kind, seed, SCENARIO_DRAWS,
                overrides,
            )

        noncommute, commute = DatasetKind.NONCOMMUTE, DatasetKind.COMMUTE
        swept = {}  # round -> (cells, share rows) of its sweep files, for the cost chains
        for (r, label, argv, out, payload), code in zip(self.jobs, self.codes):
            if code != 0:
                continue
            seed = int(argv[argv.index("--seed") + 1])
            if label in ("noncommute-grid", "commute-grid"):
                kind = noncommute if label == "noncommute-grid" else commute
                rows = checks.read_share_csv(out / "shares.csv")
                if kind is noncommute:
                    problems += checks.paper_problems(rows)
                printed = [(f"{m} {d:g} km", s) for m, d, s in rows]
                problems += check_rows(label, printed, presets.substitution_grid(kind, seed, 1),
                                       kind)
            elif label in ("car-policies", "policy-file"):
                table = checks.read_policy_csv(out / "policies.csv")
                problems += [f"{label}: {p}" for p in checks.policy_problems(table)]
                if label == "car-policies":
                    scenarios = presets.policy_scenarios(seed, 1)
                else:
                    seed = payload["seed"]
                    scenarios = {"base": cell_scenario(payload["base"], seed, noncommute)}
                    for name, overrides in payload["policies"].items():
                        cell = dict(payload["base"], overrides=overrides)
                        scenarios[name] = cell_scenario(cell, seed, noncommute)
                names = list(table)
                if names != list(scenarios):
                    problems.append(f"{label}: rows {names} != scenarios {list(scenarios)}")
                    continue
                problems += check_rows(
                    label, [(n, table[n][0]) for n in names], list(scenarios.values()), noncommute
                )
            else:
                rows = checks.read_share_csv(out / "shares.csv")
                cells = payload["cells"]
                scenarios = [cell_scenario(c, payload["seed"], noncommute) for c in cells]
                printed = [(f"cell {i}", s) for i, (_, _, s) in enumerate(rows)]
                problems += check_rows(out.name, printed, scenarios, noncommute)
                if len(rows) == len(cells):
                    round_cells, round_shares = swept.setdefault(r, ([], []))
                    round_cells += cells
                    round_shares += [s for _, _, s in rows]
        for round_cells, round_shares in swept.values():
            problems += self._monotone(round_cells, round_shares)
        return problems

    @staticmethod
    def _monotone(cells, shares):
        """Own-cost chains of the sweep: one shared mode's cost varies, the rest and
        the draws fixed; the direction comes from the sign of that cost's estimate."""
        import checks
        from modeswitch import presets
        from modeswitch.model import DatasetKind

        estimates = presets.bundled_estimates(DatasetKind.NONCOMMUTE)
        chains = {}
        for cell, row in zip(cells, shares):
            o = cell["overrides"]
            fixed = (cell["mode"], cell["distance_km"], o["sev"]["access_egress_time_min"])
            chains.setdefault(("seb",) + fixed + (o["sev"]["travel_cost_eur"],), []).append(
                (o["seb"]["travel_cost_eur"], row[2]))
            chains.setdefault(("sev",) + fixed + (o["seb"]["travel_cost_eur"],), []).append(
                (o["sev"]["travel_cost_eur"], row[1]))
        problems = []
        for key, chain in chains.items():
            alt, mode = key[0], key[1]
            coefficient = estimates[checks.NONCOMMUTE_OWN_COST_ESTIMATE[(alt, mode)]]
            problems += checks.monotone_problems(f"sweep {key}", chain, coefficient)
        return problems


WORKLOADS = {
    "estimate": EstimateWorkload,
    "scenarios": ScenariosWorkload,
}


# ---------------------------------------------------------------------------
# Tracing


class _OptimizeProxy:
    """Stands in for ``scipy.optimize`` inside the estimator, with a traced ``minimize``."""

    def __init__(self, module, minimize):
        self._module = module
        self.minimize = minimize

    def __getattr__(self, name):
        return getattr(self._module, name)


def _call_key(args, kwargs, _result):
    return hash(repr((args, sorted(kwargs.items()))))


def install_tracing(tracer):
    """Wrap each layer's public functions; the spans carry the notes metrics need."""
    from modeswitch import (cli, dataset, designer, draws, estimator, likelihood, model,
                            simulator, synthesizer)
    from modeswitch import io as mio

    context = likelihood.EvaluationContext
    tracer.patch_method(context, "loglik_and_gradient", "likelihood.loglik_and_gradient",
                        note=lambda a, k, r: a[0].compiled.n_obs * a[0].n_draws)
    tracer.patch_method(context, "__init__", "likelihood.EvaluationContext",
                        note=lambda a, k, r: (a[1].n_obs, a[2].n_draws, a[2].n_dims))
    tracer.patch_function(likelihood, "null_loglik", "likelihood.null_loglik")
    tracer.patch_function(estimator, "estimate", "estimator.estimate",
                          note=lambda a, k, r: r.convergence.iterations)
    tracer.patch_function(estimator, "numerical_hessian", "estimator.numerical_hessian")
    if hasattr(estimator, "optimize"):
        tracer.patch_attribute(estimator, "optimize", _OptimizeProxy(
            estimator.optimize, tracer.wrap("estimator.minimize", estimator.optimize.minimize)))
    tracer.patch_function(draws, "mlhs_uniform", "draws.mlhs_uniform", note=_call_key)
    tracer.patch_function(simulator, "scenario_probabilities", "simulator.scenario_probabilities",
                          note=_call_key)
    for name in ("systematic_utility_sq", "systematic_utility_ehub", "random_utility_offset"):
        tracer.patch_function(model, name, "model.utility")
    tracer.patch_function(synthesizer, "sample_population", "synthesizer.sample_population")
    tracer.patch_function(synthesizer, "simulate_choices", "synthesizer.simulate_choices")
    tracer.patch_function(designer, "assign_tasks", "designer.assign_tasks")
    tracer.patch_function(mio, "save_dataset", "io.save_dataset",
                          note=lambda a, k, r: os.path.getsize(a[1]))
    tracer.patch_function(mio, "load_dataset", "io.load_dataset",
                          note=lambda a, k, r: 3 * r.n_observations)
    tracer.patch_function(mio, "write_manifest", "io.write_manifest")
    tracer.patch_function(dataset, "compile_dataset", "dataset.compile_dataset")
    del cli  # imported so that its module-level bindings are patched too


TRACE_CALIBRATION_CALLS = 20_000


def trace_cost_per_span():
    """Seconds a wrapper adds to one call, measured on a no-op function."""
    from tracer import Tracer

    def noop():
        return None

    wrapped = Tracer().wrap("calibration", noop)
    start = time.perf_counter()
    for _ in range(TRACE_CALIBRATION_CALLS):
        noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(TRACE_CALIBRATION_CALLS):
        wrapped()
    return max(0.0, (time.perf_counter() - start - bare) / TRACE_CALIBRATION_CALLS)


def layer_metrics(spans, run_s, wall_s, cost_per_span):
    """Per-layer metrics from the spans of set-up and run."""
    from tracer import SpanStats

    st = SpanStats(spans)
    MB = 1e6

    def ratio(a, b):
        return a / b if b else 0.0

    eval_name = "likelihood.loglik_and_gradient"
    eval_s = st.total(eval_name)
    contexts = [n for n in st.notes("likelihood.EvaluationContext") if isinstance(n, tuple)]
    mlhs_keys = st.notes("draws.mlhs_uniform")
    scenario_keys = st.notes("simulator.scenario_probabilities")
    load_s = st.total("io.load_dataset")
    minimize = "estimator.minimize"
    m = {
        "likelihood.eval_grad_calls": (st.count(eval_name), "count"),
        "likelihood.eval_grad_s": (eval_s, "s"),
        "likelihood.eval_grad_ms": (1e3 * st.median(eval_name), "ms"),
        "likelihood.obs_draws_per_s": (ratio(sum(st.notes(eval_name)), eval_s), "1/s"),
        "likelihood.context_build_s": (st.total("likelihood.EvaluationContext"), "s"),
        "likelihood.z_obs_mb": (max((o * d * c * 8 / MB for o, d, c in contexts), default=0.0),
                                "MB-computed"),
        "likelihood.prob_cache_mb": (max((o * 3 * d * 8 / MB for o, d, _ in contexts),
                                         default=0.0), "MB-computed"),
        "likelihood.null_loglik_s": (st.total("likelihood.null_loglik"), "s"),
        "estimator.bfgs_iterations": (sum(st.notes("estimator.estimate")), "count"),
        "estimator.optimize_s": (st.total(minimize), "s"),
        "estimator.optimize_self_s": (st.self_time(minimize), "s"),
        "estimator.hessian_s": (st.total("estimator.numerical_hessian"), "s"),
        "estimator.hessian_grad_calls": (st.children_of("estimator.numerical_hessian",
                                                        eval_name), "count"),
        "draws.mlhs_calls": (st.count("draws.mlhs_uniform"), "count"),
        "draws.mlhs_s": (st.total("draws.mlhs_uniform"), "s"),
        "draws.distinct_request_ratio": (ratio(len(set(mlhs_keys)), len(mlhs_keys)), "ratio"),
        "simulator.scenario_calls": (st.count("simulator.scenario_probabilities"), "count"),
        "simulator.distinct_scenario_ratio": (ratio(len(set(scenario_keys)), len(scenario_keys)),
                                              "ratio"),
        "simulator.scenario_s": (st.total("simulator.scenario_probabilities"), "s"),
        "simulator.self_s": (st.self_time("simulator.scenario_probabilities"), "s"),
        "model.utility_calls": (st.count("model.utility"), "count"),
        "model.utility_s": (st.total("model.utility"), "s"),
        "synthesizer.sample_population_s": (st.total("synthesizer.sample_population"), "s"),
        "synthesizer.simulate_choices_s": (st.total("synthesizer.simulate_choices"), "s"),
        "designer.assign_tasks_calls": (st.count("designer.assign_tasks"), "count"),
        "designer.assign_tasks_s": (st.total("designer.assign_tasks"), "s"),
        "io.save_dataset_s": (st.total("io.save_dataset"), "s"),
        "io.load_dataset_s": (load_s, "s"),
        "io.load_rows_per_s": (ratio(sum(st.notes("io.load_dataset")), load_s), "1/s"),
        "io.dataset_mb": (sum(st.notes("io.save_dataset")) / MB, "MB"),
        "dataset.compile_s": (st.total("dataset.compile_dataset"), "s"),
        "cli.manifest_s": (st.total("io.write_manifest"), "s"),
        "trace.overhead_s": (cost_per_span * len(spans), "s"),
        "trace.run_s": (run_s, "s"),
        "trace.wall_s": (wall_s, "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "modeswitch" / "__init__.py").is_file():
        print(f"error: no modeswitch sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))

    from modeswitch import cli  # noqa: F401  (loads numpy and scipy: set-up time)
    from tracer import Tracer

    RUNS_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=RUNS_DIR))
    unit_timer = Tracer()  # times the workload's unit of work, traced or not
    tracer = None
    try:
        workload = WORKLOADS[args.workload](args.seed, args.seconds, workdir)
        workload.time_units(unit_timer)
        if args.trace:
            tracer = Tracer()
            install_tracing(tracer)
        with tracer.span("bench.setup") if tracer else contextlib.nullcontext():
            workload.setup()
        setup_s = _STARTUP_S + time.perf_counter() - _PROCESS_T0

        stopwatch = Stopwatch()
        unit_timer.spans.clear()  # set-up calls are not part of the run
        with tracer.span("bench.run") if tracer else contextlib.nullcontext():
            attempted, failed = workload.run(stopwatch)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        unit_timer.enabled = False
        if tracer:
            tracer.enabled = False
        unit_groups = workload.unit_times(stopwatch, unit_timer)
        run_s = quiet_run_s(stopwatch.wall_s, unit_groups)
        problems = workload.check()
    finally:
        if tracer:
            tracer.unpatch()
        unit_timer.unpatch()
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print("round times (s): " + " ".join(f"{t:.3f}" for t in stopwatch.round_times()),
          file=sys.stderr)
    print(f"wall time {stopwatch.wall_s:.3f} s, run_s {run_s:.3f} s, "
          f"{sum(map(len, unit_groups))} units in {len(unit_groups)} groups", file=sys.stderr)
    if tracer:
        tracer.write(RUNS_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
        metrics = layer_metrics(tracer.spans, run_s, stopwatch.wall_s, trace_cost_per_span())
    else:
        metrics = {
            "run_s": {"value": run_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
