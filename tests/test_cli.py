import hashlib
import json

import pytest

from modeswitch import io as mio
from modeswitch import presets
from modeswitch.cli import main
from modeswitch.model import DatasetKind


def run(args):
    return main([str(a) for a in args])


class TestDesignCommand:
    def test_commute_design_for_bike_reference(self, tmp_path):
        out = tmp_path / "design"
        code = run(
            ["design", "--kind", "commute", "--mode", "bike", "--distance", 5,
             "--travel-time", 20, "--out", out]
        )
        assert code == 0
        lines = (out / "design.csv").read_text().splitlines()
        task_ids = {line.split(",")[0] for line in lines[1:]}
        assert len(task_ids) == 27
        assert (out / "codebook.txt").exists()
        assert (out / "manifest.json").exists()

    def test_same_seed_byte_identical(self, tmp_path):
        args = ["design", "--mode", "car", "--distance", 5, "--purpose", "leisure",
                "--seed", 9]
        run(args + ["--out", tmp_path / "a"])
        run(args + ["--out", tmp_path / "b"])
        assert (tmp_path / "a/design.csv").read_bytes() == (tmp_path / "b/design.csv").read_bytes()

    def test_invalid_grid_is_an_error_exit(self, tmp_path):
        code = run(
            ["design", "--mode", "walk", "--distance", 10, "--out", tmp_path / "x"]
        )
        assert code != 0


class TestSynthesizeCommand:
    def test_row_count_and_truth_file(self, tmp_path):
        out = tmp_path / "synth"
        code = run(
            ["synthesize", "--kind", "commute", "--individuals", 10, "--seed", 4,
             "--out", out]
        )
        assert code == 0
        lines = (out / "dataset.csv").read_text().splitlines()
        assert len(lines) == 1 + 10 * 6 * 3
        truth = mio.load_params(out / "truth_params.csv")
        assert truth == presets.bundled_estimates(DatasetKind.COMMUTE)

    def test_zero_individuals_rejected(self, tmp_path):
        assert run(["synthesize", "--individuals", 0, "--out", tmp_path / "x"]) != 0

    def test_header_matches_documented_order(self, tmp_path):
        out = tmp_path / "synth2"
        run(["synthesize", "--individuals", 2, "--out", out])
        header = (out / "dataset.csv").read_text().splitlines()[0]
        assert header == ",".join(mio.DATASET_COLUMNS)


class TestEstimateCommand:
    def test_null_model_report(self, tmp_path):
        synth = tmp_path / "synth"
        run(["synthesize", "--kind", "commute", "--individuals", 12, "--seed", 1,
             "--out", synth])
        start = presets.starting_values(presets.commute_spec())
        pinned = start.with_fixed(start.names).with_values(
            {name: 0.0 for name in start.names}
        )
        mio.save_params(pinned, tmp_path / "null_start.csv")
        out = tmp_path / "est"
        code = run(
            ["estimate", "--data", synth / "dataset.csv", "--kind", "commute",
             "--start", tmp_path / "null_start.csv", "--draws", 10, "--out", out]
        )
        assert code == 0
        text = (out / "results.txt").read_text()
        assert "Null log-likelihood" in text
        import math

        expected = -12 * 6 * math.log(3)
        assert f"{expected:.1f}" in text

    def test_report_covers_all_parameters(self, tmp_path):
        synth = tmp_path / "synth"
        run(["synthesize", "--kind", "commute", "--individuals", 40, "--seed", 2,
             "--out", synth])
        out = tmp_path / "est"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"max_iterations": 400}))
        code = run(
            ["estimate", "--data", synth / "dataset.csv", "--kind", "commute",
             "--draws", 24, "--seed", 3, "--out", out, "--no-std-errors"]
        )
        assert code in (0, 3)
        rows = (out / "results.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 31
        estimates = mio.load_params(out / "estimates.csv")
        assert len(estimates.names) == 31

    def test_noncommute_report_covers_44_parameters(self, tmp_path):
        synth = tmp_path / "synth"
        run(["synthesize", "--kind", "noncommute", "--individuals", 120, "--seed", 2,
             "--out", synth])
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"max_iterations": 2}))
        out = tmp_path / "est"
        code = run(
            ["estimate", "--config", config, "--data", synth / "dataset.csv",
             "--kind", "noncommute", "--draws", 8, "--seed", 1, "--out", out,
             "--no-std-errors"]
        )
        assert code in (0, 3)
        rows = (out / "results.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 44

    def test_spec_file_round_trip_through_cli(self, tmp_path):
        from modeswitch.specfile import save_spec

        synth = tmp_path / "synth"
        run(["synthesize", "--kind", "commute", "--individuals", 12, "--seed", 5,
             "--out", synth])
        spec_path = tmp_path / "model.spec"
        save_spec(presets.commute_spec(), spec_path)
        out = tmp_path / "est"
        code = run(
            ["estimate", "--data", synth / "dataset.csv", "--spec-file", spec_path,
             "--draws", 8, "--seed", 1, "--out", out, "--no-std-errors"]
        )
        assert code in (0, 3)

    def test_non_convergence_exit_code(self, tmp_path):
        synth = tmp_path / "synth"
        run(["synthesize", "--kind", "commute", "--individuals", 25, "--seed", 6,
             "--out", synth])
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"max_iterations": 1}))
        out = tmp_path / "est"
        code = run(
            ["estimate", "--config", config, "--data", synth / "dataset.csv",
             "--kind", "commute", "--draws", 8, "--out", out, "--no-std-errors"]
        )
        assert code == 3
        assert "NOT converged" in (out / "results.txt").read_text()


class TestSimulateCommand:
    def test_noncommute_grid_preset(self, tmp_path):
        out = tmp_path / "sim"
        code = run(
            ["simulate", "--scenarios", "noncommute-grid", "--draws", 2000,
             "--seed", 0, "--out", out]
        )
        assert code == 0
        rows = [
            line
            for line in (out / "shares.csv").read_text().strip().splitlines()
            if not line.startswith("#")
        ]
        assert len(rows) == 1 + 11
        assert "walk 10 km" in (out / "shares.txt").read_text()

    def test_policy_preset_row_count(self, tmp_path):
        out = tmp_path / "pol"
        code = run(
            ["simulate", "--scenarios", "car-policies", "--draws", 2000, "--out", out]
        )
        assert code == 0
        rows = (out / "policies.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 5  # base plus four policies

    def test_policy_preset_simulates_each_scenario_once(self, tmp_path, monkeypatch):
        from modeswitch import simulator

        calls = []
        original = simulator.scenario_probabilities

        def counted(*args):
            calls.append(args[0])
            return original(*args)

        monkeypatch.setattr(simulator, "scenario_probabilities", counted)
        out = tmp_path / "pol"
        assert run(
            ["simulate", "--scenarios", "car-policies", "--draws", 2000, "--out", out]
        ) == 0
        scenarios = presets.policy_scenarios(0, 2000)
        assert len(calls) == len(scenarios) == 5

        # the table the pairwise policy_delta calls give, byte for byte
        params = presets.bundled_estimates(DatasetKind.NONCOMMUTE)
        spec = presets.model_spec(DatasetKind.NONCOMMUTE)
        base = scenarios[presets.POLICY_BASELINE]
        shares = {
            name: 100.0 * original(s, params, spec) for name, s in scenarios.items()
        }
        deltas = {
            name: simulator.policy_delta(base, s, params, spec)
            for name, s in scenarios.items()
            if name != presets.POLICY_BASELINE
        }
        mio.save_policy_table(shares, deltas, tmp_path)
        assert (out / "policies.csv").read_bytes() == (tmp_path / "policies.csv").read_bytes()

    def test_row_sums(self, tmp_path):
        out = tmp_path / "sim2"
        run(["simulate", "--scenarios", "commute-grid", "--draws", 2000, "--out", out])
        for line in (out / "shares.csv").read_text().strip().splitlines()[1:]:
            if line.startswith("#"):
                continue
            parts = line.split(",")
            assert sum(float(x) for x in parts[2:]) == pytest.approx(100.0, abs=0.1)

    def test_scenario_file(self, tmp_path):
        scenario_file = tmp_path / "cells.json"
        scenario_file.write_text(
            json.dumps(
                {
                    "kind": "noncommute",
                    "seed": 1,
                    "n_draws": 1500,
                    "cells": [
                        {"mode": "car", "distance_km": 5},
                        {"mode": "pt", "distance_km": 2,
                         "overrides": {"seb": {"travel_cost_eur": 0.5}}},
                    ],
                }
            )
        )
        out = tmp_path / "sim3"
        code = run(["simulate", "--scenarios", scenario_file, "--out", out])
        assert code == 0
        rows = (out / "shares.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 2

    def test_estimated_params_feed_simulation(self, tmp_path):
        synth = tmp_path / "synth"
        run(["synthesize", "--kind", "noncommute", "--individuals", 30, "--seed", 8,
             "--out", synth])
        params_path = synth / "truth_params.csv"
        out = tmp_path / "sim4"
        code = run(
            ["simulate", "--params", params_path, "--scenarios", "noncommute-grid",
             "--draws", 1000, "--out", out]
        )
        assert code == 0


SCENARIO_FILE_DEFECTS = {
    "bad mode in a cell": (
        json.dumps({"cells": [{"mode": "car", "distance_km": 5},
                              {"mode": "scooter", "distance_km": 5}]}),
        "cell 1: ValueError: 'scooter' is not a valid CurrentMode",
    ),
    "not JSON": ("mode=car\n", "not valid JSON"),
    "bad kind": (json.dumps({"kind": "x", "cells": []}), "'x' is not a valid DatasetKind"),
}


class TestMalformedInputFiles:
    @pytest.mark.parametrize("defect", sorted(SCENARIO_FILE_DEFECTS))
    def test_scenario_file_defect_names_file(self, defect, tmp_path, capsys):
        text, message = SCENARIO_FILE_DEFECTS[defect]
        path = tmp_path / "cells.json"
        path.write_text(text)
        assert run(["simulate", "--scenarios", path, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and message in err

    @pytest.mark.parametrize("command, flags, config, key", [
        ("design", ["--mode", "car", "--distance", 5], {"kind": "bogus"}, "kind"),
        ("design", ["--mode", "car", "--distance", 5],
         {"kind": "commute", "travel_time": "long"}, "travel_time"),
        ("synthesize", [], {"individuals": "many"}, "individuals"),
        ("synthesize", [], {"out": 7}, "out"),
        ("estimate", ["--data", "unused.csv"], {"draws": "many"}, "draws"),
        ("estimate", ["--data", "unused.csv"], {"gradient_tolerance": [1e-5]},
         "gradient_tolerance"),
        ("estimate", ["--data", "unused.csv"], {"no_std_errors": "false"}, "no_std_errors"),
        ("simulate", [], {"draws": "many"}, "draws"),
        ("simulate", ["--scenarios", "cells.json"], {"kind": "bogus"}, "kind"),
        ("vot", [], {"time_coeff": "slow", "cost_coeff": -0.5}, "time_coeff"),
    ])
    def test_bad_config_value_names_file_and_key(
        self, command, flags, config, key, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cells.json").write_text(json.dumps({"cells": []}))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert run([command, "--config", path] + flags) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: {key}: ")

    def test_config_file_not_json(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("{draws: 10}\n")
        code = run(["simulate", "--config", path, "--draws", 100, "--out", tmp_path / "out"])
        assert code == 2
        assert f"{path}: not valid JSON" in capsys.readouterr().err


# SHA-256 of outputs of the bundled presets: the synthesizer's draw order and
# the scenario engine's arithmetic are pinned to these bytes
PINNED_OUTPUTS = {
    "synthesize noncommute": (
        ["synthesize", "--individuals", 900, "--seed", 1, "--kind", "noncommute"],
        "dataset.csv",
        "7019e10225aa1c66a6c6c5ed93c21aa4f944a380f3c0afd148e03fbdb872db27",
    ),
    "synthesize commute": (
        ["synthesize", "--individuals", 900, "--seed", 1, "--kind", "commute"],
        "dataset.csv",
        "e7ec08eecc1a2fd0f1307870ca00046ac7ae7d09f8b3dabaa338ce7f26c585f3",
    ),
    "simulate noncommute-grid": (
        ["simulate", "--scenarios", "noncommute-grid"],
        "shares.csv",
        "f87e7cbfc986f7146e8154d63dae6fd2ada05e998603fc87b8bad30af27ec68c",
    ),
    "simulate commute-grid": (
        ["simulate", "--scenarios", "commute-grid"],
        "shares.csv",
        "3c1c2b66f3352512f726cc5d75c05aab1600d321231eb664b3021b0a965c7753",
    ),
    "simulate car-policies": (
        ["simulate", "--scenarios", "car-policies"],
        "policies.csv",
        "0ebee97fbe9fefac5c8bff9a912bfec4c06788346d0bd6148848382544994d96",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_OUTPUTS))
def test_pinned_output_bytes(name, tmp_path):
    args, filename, digest = PINNED_OUTPUTS[name]
    assert run(args + ["--out", tmp_path]) == 0
    assert hashlib.sha256((tmp_path / filename).read_bytes()).hexdigest() == digest


class TestThreadDefaults:
    def test_env_var_sets_default_threads(self, monkeypatch):
        from modeswitch.cli import THREADS_ENV_VAR, _default_threads

        monkeypatch.setenv(THREADS_ENV_VAR, "4")
        assert _default_threads() == 4
        monkeypatch.setenv(THREADS_ENV_VAR, "not-a-number")
        assert _default_threads() == 1
        monkeypatch.delenv(THREADS_ENV_VAR)
        assert _default_threads() == 1


class TestVotCommand:
    def test_direct_coefficients(self, capsys):
        assert run(["vot", "--time-coeff", -0.05, "--cost-coeff", -0.47]) == 0
        assert "6.4 euro/hour" in capsys.readouterr().out

    def test_from_params_file(self, tmp_path, capsys):
        path = tmp_path / "params.csv"
        mio.save_params(presets.bundled_estimates(DatasetKind.NONCOMMUTE), path)
        code = run(
            ["vot", "--params", path, "--time-name", "sev_time_car_pt",
             "--cost-name", "sev_cost_pt"]
        )
        assert code == 0
        assert "12.9 euro/hour" in capsys.readouterr().out

    def test_zero_cost_coefficient_fails(self):
        assert run(["vot", "--time-coeff", -0.05, "--cost-coeff", 0]) != 0
