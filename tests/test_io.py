import json
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from modeswitch import io as mio
from modeswitch import presets
from modeswitch.cli import main
from modeswitch.designer import build_commuting_tasks, commuting_plan, ReferenceTrip
from modeswitch.estimator import EstimationSettings, estimate
from modeswitch.model import CurrentMode, DatasetKind, ParameterVector, ValidationError
from modeswitch.simulator import substitution_table
from modeswitch.synthesizer import synthesize_dataset

from conftest import tiny_dataset, tiny_spec


class TestDatasetRoundTrip:
    def test_save_load_save_is_byte_identical(self, tmp_path):
        ds = tiny_dataset(n_individuals=12, n_tasks=3, seed=5)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        mio.save_dataset(ds, first)
        loaded = mio.load_dataset(first)
        mio.save_dataset(loaded, second)
        assert first.read_bytes() == second.read_bytes()

    def test_loaded_dataset_matches_original(self, tmp_path):
        ds = tiny_dataset(n_individuals=6, n_tasks=2, seed=1)
        path = tmp_path / "ds.csv"
        mio.save_dataset(ds, path)
        loaded = mio.load_dataset(path)
        assert loaded.kind is ds.kind
        assert loaded.n_individuals == ds.n_individuals
        assert loaded.n_observations == ds.n_observations
        for a, b in zip(ds.individuals, loaded.individuals):
            assert a.persona == b.persona
            for ta, tb in zip(a.tasks, b.tasks):
                assert ta.chosen is tb.chosen
                assert ta.attributes == tb.attributes

    def test_synthesized_noncommute_round_trip(self, tmp_path):
        truth = presets.bundled_estimates(DatasetKind.NONCOMMUTE)
        ds = synthesize_dataset(DatasetKind.NONCOMMUTE, 15, 3, truth)
        path = tmp_path / "nc.csv"
        mio.save_dataset(ds, path)
        again = tmp_path / "nc2.csv"
        mio.save_dataset(mio.load_dataset(path), again)
        assert path.read_bytes() == again.read_bytes()

    def test_header_mismatch_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("foo,bar\n1,2\n")
        with pytest.raises(ValidationError):
            mio.load_dataset(bad)


def _set(column, value):
    index = mio.DATASET_COLUMNS.index(column)

    def edit(fields):
        fields[index] = value
        return fields

    return edit


# (edits by file line number, line the error names, message fragment); line 1
# is the header and lines 2-4 hold the three alternatives of the first task
DEFECTS = {
    "several chosen rows": (
        {n: _set("chosen", "1") for n in (2, 3, 4)}, 3, "second chosen=1 row"),
    "available not 0/1": ({3: _set("available", "2")}, 3, "bad available '2'"),
    "duplicate alternative": ({3: _set("alt", "sq")}, 3, "second sq row"),
    "bad enum": ({2: _set("current_mode", "scooter")}, 2, "bad current_mode 'scooter'"),
    "bad float": ({4: _set("travel_time_min", "ten")}, 4, "bad travel_time_min 'ten'"),
    "short row": ({3: lambda fields: fields[:-1]}, 3, "expected 19 fields, got 18"),
    "persona differs": ({5: _set("age_group", "ge60")}, 5, "persona differs"),
    "trip context differs": ({3: _set("distance_km", "2.0")}, 3, "trip context differs"),
    # found once a task or an individual is assembled: the line of its first row
    "edited header": ({1: _set("alt", "alternative")}, 1, "unexpected dataset header"),
    "missing alternative row": (
        {4: _set("task_id", "x")}, 2, "exactly the three alternatives"),
    "chosen row unavailable": (
        {2: lambda fields: _set("available", "0")(_set("chosen", "1")(fields)),
         3: _set("chosen", "0"), 4: _set("chosen", "0")}, 2, "is not available"),
    "no chosen row": ({n: _set("chosen", "0") for n in (5, 6, 7)}, 5, "no recorded choice"),
    "duplicate individual id": (
        {n: _set("individual_id", "0") for n in range(14, 20)}, 14, "duplicate individual id 0"),
    "purpose differs from kind": (
        {n: _set("purpose", "commute") for n in (8, 9, 10)}, 8, "does not match dataset kind"),
}


class TestStrictLoading:
    @pytest.mark.parametrize("defect", sorted(DEFECTS))
    def test_defect_names_file_and_line(self, defect, tmp_path, capsys):
        edits, line, message = DEFECTS[defect]
        path = tmp_path / "ds.csv"
        mio.save_dataset(tiny_dataset(n_individuals=3, n_tasks=2, seed=5), path)
        lines = path.read_text().splitlines()
        for number, edit in edits.items():
            lines[number - 1] = ",".join(edit(lines[number - 1].split(",")))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}:{line}: .*{message}"):
            mio.load_dataset(path)
        code = main(["estimate", "--data", str(path), "--out", str(tmp_path / "fit")])
        assert code == 2
        assert f"{path}:{line}:" in capsys.readouterr().err

    def test_header_only_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(",".join(mio.DATASET_COLUMNS) + "\n")
        with pytest.raises(ValidationError, match="no data rows"):
            mio.load_dataset(path)

    def test_bad_parameter_value_names_file_and_line(self, tmp_path):
        path = tmp_path / "params.csv"
        path.write_text("name,value,fixed\na,0.5,0\nb,half,1\n")
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}:3: "):
            mio.load_params(path)
        path.write_text("name,value,fixed\na,0.5\n")
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}:2: "):
            mio.load_params(path)
        path.write_text("")
        with pytest.raises(ValidationError, match="unexpected parameter header"):
            mio.load_params(path)


FIELD_VALUES = st.one_of(
    st.sampled_from(
        ["", "0", "1", "2", "-1", "0.5", "-0.0", "1e999", "nan", "inf", "car", "scooter",
         "sq", "sev", "commute", "leisure", "le35", "missing", "True"]
    ),
    st.text(max_size=6),
)


@pytest.fixture(scope="module")
def saved_panels(tmp_path_factory):
    """Lines of one saved synthetic panel per dataset kind."""
    folder = tmp_path_factory.mktemp("panels")
    panels = {}
    for kind in DatasetKind:
        path = folder / f"{kind.value}.csv"
        mio.save_dataset(synthesize_dataset(kind, 3, 11, presets.bundled_estimates(kind)), path)
        panels[kind] = path.read_text(encoding="utf-8").splitlines()
    return folder, panels


class TestDatasetFileProperties:
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(kind=st.sampled_from(list(DatasetKind)), n=st.integers(1, 4), seed=st.integers(0, 999))
    def test_saved_file_round_trips_byte_for_byte(self, kind, n, seed, tmp_path):
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        mio.save_dataset(synthesize_dataset(kind, n, seed, presets.bundled_estimates(kind)), first)
        mio.save_dataset(mio.load_dataset(first), second)
        assert first.read_bytes() == second.read_bytes()

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(kind=st.sampled_from(list(DatasetKind)), data=st.data(), value=FIELD_VALUES)
    def test_single_field_mutation_loads_or_raises_validation_error(
        self, kind, data, value, saved_panels
    ):
        folder, panels = saved_panels
        lines = list(panels[kind])
        number = data.draw(st.integers(0, len(lines) - 1), label="line index")
        fields = lines[number].split(",")
        fields[data.draw(st.integers(0, len(fields) - 1), label="field index")] = value
        lines[number] = ",".join(fields)
        path = folder / "mutated.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            mio.load_dataset(path)
        except ValidationError as exc:
            assert re.match(f"{re.escape(str(path))}:[0-9]+: ", str(exc)), str(exc)


class TestParamsRoundTrip:
    def test_round_trip(self, tmp_path):
        params = ParameterVector({"a": -1.25, "b": 0.5}, fixed=frozenset({"b"}))
        path = tmp_path / "params.csv"
        mio.save_params(params, path)
        loaded = mio.load_params(path)
        assert loaded == params
        second = tmp_path / "params2.csv"
        mio.save_params(loaded, second)
        assert path.read_bytes() == second.read_bytes()

    def test_bundled_estimates_survive(self, tmp_path):
        params = presets.bundled_estimates(DatasetKind.COMMUTE)
        path = tmp_path / "bundled.csv"
        mio.save_params(params, path)
        assert mio.load_params(path) == params


@pytest.fixture(scope="module")
def small_result():
    spec = tiny_spec(n_components=1)
    ds = tiny_dataset(n_individuals=60, n_tasks=3, spec=spec)
    result = estimate(
        ds, spec, settings=EstimationSettings(n_draws=48, seed=2, draw_block=48)
    )
    return spec, result


class TestReports:
    def test_results_text_sections(self, small_result):
        spec, result = small_result
        text = mio.format_results_text(result, spec)
        assert "Alternative specific constants" in text
        assert "Mode attributes" in text
        assert "Model summary" in text
        assert "Null log-likelihood" in text
        assert "Pseudo rho-square" in text
        assert "Convergence: converged" in text
        assert "Spread signs are not identified: compare |sigma| across fits" in text.splitlines()

    def test_standard_error_line_only_when_missing(self, small_result):
        spec, result = small_result
        assert result.std_errors is not None
        assert "Standard errors" not in mio.format_results_text(result, spec)

    def test_results_csv_writes_plain_floats(self, small_result, tmp_path):
        spec, result = small_result
        mio.save_results(result, spec, tmp_path)
        lines = (tmp_path / "results.csv").read_text().strip().splitlines()
        for line in lines[1:]:
            _, name, estimate, se, p_value = line.split(",")
            assert float(estimate) == result.estimates[name]
            assert float(se) == result.std_errors[name]
            assert float(p_value) == result.p_values[name]

    def test_results_files_written(self, small_result, tmp_path):
        spec, result = small_result
        mio.save_results(result, spec, tmp_path)
        assert (tmp_path / "results.txt").exists()
        lines = (tmp_path / "results.csv").read_text().strip().splitlines()
        assert lines[0] == "section,name,estimate,std_error,p_value"
        assert len(lines) == 1 + len(spec.coefficient_names)
        reloaded = mio.load_params(tmp_path / "estimates.csv")
        assert reloaded == result.estimates

    def test_share_table_emission(self, tmp_path, noncommute_estimates, noncommute_spec):
        grid = presets.substitution_grid(DatasetKind.NONCOMMUTE, seed=0, n_draws=500)
        table = substitution_table(grid, noncommute_estimates, noncommute_spec)
        mio.save_share_table(table, tmp_path, excluded=["walk 10 km (undefined cell)"])
        text = (tmp_path / "shares.txt").read_text()
        assert "Excluded cells: walk 10 km" in text
        lines = (tmp_path / "shares.csv").read_text().strip().splitlines()
        assert len([l for l in lines if not l.startswith("#")]) == 1 + 11

    def test_policy_table_emission(self, tmp_path):
        from modeswitch.model import Alternative

        shares = {"base": [77.0, 11.5, 11.5], "cheaper": [76.0, 11.0, 13.0]}
        deltas = {
            "cheaper": {
                Alternative.STATUS_QUO: -1.0,
                Alternative.SHARED_EV: -0.5,
                Alternative.SHARED_EBIKE: 1.5,
            }
        }
        mio.save_policy_table(shares, deltas, tmp_path)
        lines = (tmp_path / "policies.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("base,77.0")


class TestDesignFiles:
    def test_design_csv_and_codebook(self, tmp_path):
        ref = ReferenceTrip(
            mode=CurrentMode.BIKE, distance_km=5.0, travel_time_min=20.0
        )
        tasks = build_commuting_tasks(ref)
        mio.save_design(tasks, tmp_path)
        mio.save_codebook(commuting_plan(ref), "bike commute battery", tmp_path)
        lines = (tmp_path / "design.csv").read_text().strip().splitlines()
        assert lines[0] == "task_id,alternative,attribute,value"
        assert len(lines) == 1 + 27 * 3 * 7
        codebook = (tmp_path / "codebook.txt").read_text()
        assert "ehub_access" in codebook


class TestManifest:
    def test_manifest_contents(self, tmp_path):
        data = tmp_path / "input.csv"
        data.write_text("name,value,fixed\n")
        mio.write_manifest(tmp_path, "estimate", {"seed": 3, "draws": 100}, [data])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "estimate"
        assert manifest["config"]["seed"] == 3
        assert "modeswitch" in manifest["versions"]
        assert list(manifest["inputs"].values())[0]
