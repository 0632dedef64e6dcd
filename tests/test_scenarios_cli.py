import json
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from pnpfem import (
    BoundarySpec,
    Scenario,
    SolverConfig,
    State,
    builtin_scenario,
    parse_config,
    write_vtk_mesh,
    write_vtk_snapshot,
)
from pnpfem import diagnostics
from pnpfem.cli import main as cli_main
from pnpfem.fespace import averaged_interpolate, nodal_interpolate
from pnpfem.mesh import BOTTOM, MEMBRANE, TOP
from pnpfem.scenarios import (
    BUILTIN_NAMES,
    ConfigError,
    scenario_from_config,
    smooth_n0,
    smooth_p0,
    wave_n0,
    wave_p0,
)

from oracles import read_vtk_point_data


def _ones(x, y):
    return np.ones_like(x)


# every field of each shipped scenario, written out
BUILTINS = {
    "smooth": {
        "mesh_spec": ("square", 40),
        "initial": (smooth_p0, smooth_n0, "averaged"),
        "phi_dirichlet": {}, "p_dirichlet": {}, "k": 1e-3, "T": 0.5,
        "snapshot_times": (0.01, 0.02, 0.04, 0.1, 0.2, 0.5)},
    "channel_uniform": {
        "mesh_spec": ("channel", 0.1), "initial": (_ones, _ones, "nodal"),
        "phi_dirichlet": {BOTTOM: -50.0, TOP: 50.0}, "p_dirichlet": {},
        "k": 1e-2, "T": 1.0, "snapshot_times": (0.01, 0.05, 0.1, 1.0)},
    "channel_wave": {
        "mesh_spec": ("channel", 0.1), "initial": (wave_p0, wave_n0, "nodal"),
        "phi_dirichlet": {BOTTOM: -50.0, TOP: 50.0}, "p_dirichlet": {},
        "k": 1e-2, "T": 1.0, "snapshot_times": (0.1, 0.2, 0.35, 1.0)},
    "channel_selective": {
        "mesh_spec": ("channel", 0.1), "initial": (wave_n0, wave_n0, "nodal"),
        "phi_dirichlet": {BOTTOM: -1.0, TOP: 1.0},
        "p_dirichlet": {MEMBRANE: 1.0}, "k": 1e-2, "T": 10.0,
        "snapshot_times": (1.0, 2.0, 5.0, 10.0)},
}


def assert_fields(sc, name, algorithm, **changed):
    """Check every field of ``sc`` against the built-in ``name`` under
    ``algorithm``, with the fields in ``changed`` replaced."""
    want = {**BUILTINS[name], "output_dir": "out", **changed}
    p0_fn, n0_fn, mode = want["initial"]
    assert sc.name == name
    assert sc.mesh_spec == want["mesh_spec"]
    assert sc.initial[2] == mode
    mesh = sc.make_mesh()
    interpolate = (averaged_interpolate if mode == "averaged"
                   else nodal_interpolate)
    p0, n0 = sc.initial_fields(mesh)
    assert p0.tobytes() == interpolate(p0_fn, mesh).tobytes()
    assert n0.tobytes() == interpolate(n0_fn, mesh).tobytes()
    assert sc.bc.phi_dirichlet == want["phi_dirichlet"]
    assert sc.bc.p_dirichlet == want["p_dirichlet"]
    assert vars(sc.config) == {
        "algorithm": algorithm, "k": want["k"], "T": want["T"], "q": 2.0,
        "picard_residual_tol": 1e-6, "picard_max_iters": 400}
    assert sc.snapshot_times == want["snapshot_times"]
    assert sc.output_dir == want["output_dir"]


class TestBuiltinScenarios:
    def test_names(self):
        assert BUILTIN_NAMES == tuple(BUILTINS)

    @pytest.mark.parametrize("algorithm", [1, 2])
    @pytest.mark.parametrize("name", list(BUILTINS))
    def test_every_field(self, name, algorithm):
        assert_fields(builtin_scenario(name, algorithm=algorithm), name,
                      algorithm)

    @pytest.mark.parametrize("algorithm", [1, 2])
    @pytest.mark.parametrize("raw, changed", [
        # the built-in times that fit the new T and k are kept
        ({"scenario": "channel_wave", "k": 0.05, "T": 0.2},
         {"k": 0.05, "T": 0.2, "snapshot_times": (0.1, 0.2)}),
        ({"scenario": "channel_selective", "mesh": {"cell": 0.5}},
         {"mesh_spec": ("channel", 0.5)}),
        ({"scenario": "channel_uniform", "mesh": {"n": 6}},
         {"mesh_spec": ("square", 6)}),
        ({"mesh": {"n": 6}, "snapshots": [0.3, 0.002]},
         {"mesh_spec": ("square", 6), "snapshot_times": (0.3, 0.002)}),
        ({"scenario": "channel_wave", "mesh": {"cell": 0.5},
          "snapshots": [], "output_dir": "o"},
         {"mesh_spec": ("channel", 0.5), "snapshot_times": (),
          "output_dir": "o"}),
    ])
    def test_every_field_under_overrides(self, raw, changed, algorithm):
        sc = scenario_from_config({**raw, "algorithm": algorithm}, "test")
        assert_fields(sc, raw.get("scenario", "smooth"), algorithm, **changed)

    def test_built_scenarios_share_no_mutable_field(self):
        # a caller may change the scenario it receives in place
        changed = builtin_scenario("channel_selective")
        kept = builtin_scenario("channel_selective")
        changed.config.T = 0.5
        changed.bc.phi_dirichlet[BOTTOM] = 7.0
        changed.bc.p_dirichlet.clear()
        for sc in (kept, builtin_scenario("channel_selective")):
            assert_fields(sc, "channel_selective", 1)

    @pytest.mark.parametrize("name", [["smooth"], 1, None, "Smooth"])
    def test_scenario_that_names_no_builtin_rejected(self, name):
        with pytest.raises(ConfigError, match=re.escape(
                f"test: unknown scenario {name!r}")):
            scenario_from_config({"scenario": name}, "test")

    def test_channel_wave_initial_fronts(self):
        # fronts transition at y = 0.62 (cations) and y = 0.08 (anions)
        sc = builtin_scenario("channel_wave")
        mesh = sc.make_mesh()
        p0, n0 = sc.initial_fields(mesh)
        top = mesh.nodes[:, 1] > 6.5
        bottom = mesh.nodes[:, 1] < 0.01
        assert p0[top].min() > 1.9  # cations stacked against the top
        assert n0[bottom].min() > 1.5  # anions against the bottom
        assert p0[bottom].max() < 0.1
        assert n0[top].max() < 0.1

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            builtin_scenario("bogus")

    def test_snapshot_times_inside_horizon(self):
        with pytest.raises(ValueError, match="snapshot"):
            Scenario("x", ("square", 4),
                     (lambda x, y: x, lambda x, y: x, "nodal"),
                     BoundarySpec(), SolverConfig(T=0.5),
                     snapshot_times=(0.7,))

    @pytest.mark.parametrize("name, steps", [
        ("smooth", 500), ("channel_uniform", 100), ("channel_wave", 100),
        ("channel_selective", 1000)])
    def test_step_counts(self, name, steps):
        for algorithm in (1, 2):
            config = builtin_scenario(name, algorithm=algorithm).config
            assert config.nsteps == config.step_of(config.T) == steps


class TestStepCount:
    # T / k a few ulps off a whole number is on the step grid, and counts
    # its last step; a T between grid points counts the steps that end by T
    @pytest.mark.parametrize("T, k, steps", [
        (0.2999999998, 0.1, 3), (0.3, 0.1, 3), (0.3000000002, 0.1, 3),
        (0.25, 0.1, 2), (0.0, 0.1, 0), (5e-10, 1.0, 0), (0.005, 1e-3, 5),
        (0.02, 0.015, 1), (1e9, 1.0, 10**9)])
    def test_nsteps(self, T, k, steps):
        assert SolverConfig(k=k, T=T).nsteps == steps

    @pytest.mark.parametrize("t, step", [
        (0.2999999998, 3), (0.0, 0), (0.1, 1), (0.15, None), (-0.1, None),
        (0.4, None), (0.3000000002, 3)])
    def test_step_of(self, t, step):
        assert SolverConfig(k=0.1, T=0.3).step_of(t) == step

    def test_the_run_the_check_and_the_snapshots_share_it(self, tmp_path):
        # T lies a few ulps of k below three steps; the snapshot at T was
        # accepted, but the run stopped after two steps and never wrote it
        out = tmp_path / "out"
        payload = {"scenario": "smooth", "mesh": {"n": 4}, "k": 0.1,
                   "T": 0.2999999998, "snapshots": [0.1, 0.2999999998],
                   "output_dir": str(out)}
        assert scenario_from_config(payload, "test").config.nsteps == 3
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        assert cli_main(["--config", str(path)]) == 0
        assert sorted(p.name for p in out.glob("*.vtk")) == [
            "snapshot_t0.1.vtk", "snapshot_t0.3.vtk"]
        rows = diagnostics.read_csv(out / "diagnostics.csv")
        assert len(rows) == 1 + 3


def _scenario(mesh_spec=("square", 4), mode="nodal", **kwargs):
    return Scenario("x", mesh_spec, (lambda x, y: x, lambda x, y: x, mode),
                    BoundarySpec(), SolverConfig(T=0.5), **kwargs)


class TestScenarioValidation:
    @pytest.mark.parametrize("n", [6.9, 1, 0, True, "6", np.nan])
    def test_square_needs_a_whole_n_of_at_least_two(self, n):
        # a fractional size is refused, not truncated
        with pytest.raises(ValueError, match="'mesh.n' must be a whole"):
            _scenario(("square", n))

    @pytest.mark.parametrize("cell", [0.0, -0.5, np.inf, np.nan, True, "0.5"])
    def test_channel_needs_a_positive_finite_cell(self, cell):
        with pytest.raises(ValueError, match="'mesh.cell' must be a finite"):
            _scenario(("channel", cell))

    @pytest.mark.parametrize("spec", [("disk", 4), ("mesh", "square")])
    def test_unknown_mesh_spec_rejected(self, spec):
        with pytest.raises(ValueError, match="unknown mesh spec"):
            _scenario(spec)

    def test_mesh_spec_stored_as_given_kind(self, square8):
        assert _scenario(("square", 6.0)).mesh_spec == ("square", 6)
        assert type(_scenario(("square", 6.0)).mesh_spec[1]) is int
        assert _scenario(("channel", 1)).mesh_spec == ("channel", 1.0)
        assert _scenario(("mesh", square8)).make_mesh() is square8

    def test_unknown_interpolation_mode_rejected(self):
        with pytest.raises(ValueError, match="'initial.mode' must be"):
            _scenario(mode="cubic")

    @pytest.mark.parametrize("out", [5, None, ""])
    def test_output_dir_must_be_a_path(self, out):
        with pytest.raises(ValueError, match="'output_dir' must be"):
            _scenario(output_dir=out)

    @pytest.mark.parametrize("times", [0.5, "0.5", (True,), (-0.1,)])
    def test_snapshots_must_be_a_list_of_times(self, times):
        with pytest.raises(ValueError, match="snapshot"):
            _scenario(snapshot_times=times)


class TestParseConfig:
    def _write(self, tmp_path, payload):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_builtin_with_overrides(self, tmp_path):
        path = self._write(tmp_path, {
            "scenario": "smooth", "algorithm": 2, "k": 0.01, "T": 0.05,
            "mesh": {"n": 6},
        })
        assert_fields(parse_config(path), "smooth", 2, k=0.01, T=0.05,
                      mesh_spec=("square", 6),
                      snapshot_times=(0.01, 0.02, 0.04))

    def test_unknown_key_rejected_with_path(self, tmp_path):
        path = self._write(tmp_path, {"scenario": "smooth", "bogus": 1})
        with pytest.raises(ConfigError, match="bogus"):
            parse_config(path)

    @pytest.mark.parametrize("key", ["picard_increment_tol", "linear_tol"])
    def test_dropped_tolerance_keys_are_unknown(self, tmp_path, key):
        path = self._write(tmp_path, {"scenario": "smooth", key: 1e-12})
        with pytest.raises(ConfigError, match=f"unknown keys.*{key}"):
            parse_config(path)

    def test_nested_unknown_key_rejected(self, tmp_path):
        path = self._write(tmp_path, {"mesh": {"cells": 3}})
        with pytest.raises(ConfigError, match="mesh"):
            parse_config(path)

    def test_nonpositive_timestep_rejected(self, tmp_path):
        path = self._write(tmp_path, {"scenario": "smooth", "k": -1.0})
        with pytest.raises(ConfigError, match="'k'"):
            parse_config(path)

    def test_fractional_counts_rejected(self, tmp_path):
        # each is named in turn, once the ones before it are made whole
        payload = {"scenario": "smooth", "algorithm": 1.5, "mesh": {"n": 6.9},
                   "picard_max_iters": 2.5}
        for key, fix in (("algorithm", lambda: payload.update(algorithm=1)),
                         ("picard_max_iters",
                          lambda: payload.update(picard_max_iters=2)),
                         ("mesh.n", lambda: payload.update(mesh={"n": 6}))):
            with pytest.raises(ConfigError, match=f"'{key}'.*whole"):
                parse_config(self._write(tmp_path, payload))
            fix()
        assert parse_config(self._write(tmp_path, payload)).mesh_spec == (
            "square", 6)

    def test_whole_valued_counts_accepted(self, tmp_path):
        path = self._write(tmp_path, {
            "scenario": "smooth", "algorithm": 2.0, "mesh": {"n": 6.0},
            "picard_max_iters": 3})
        sc = parse_config(path)
        assert sc.config.algorithm == 2 and sc.mesh_spec == ("square", 6)
        assert sc.config.picard_max_iters == 3

    def test_zero_horizon_accepted(self, tmp_path):
        path = self._write(tmp_path, {"scenario": "smooth", "T": 0})
        sc = parse_config(path)
        assert sc.config.T == 0.0
        assert sc.snapshot_times == ()

    def test_detector_exponent_override(self, tmp_path):
        path = self._write(tmp_path, {"scenario": "smooth", "q": 1.0})
        assert parse_config(path).config.q == 1.0

    def test_expression_initial_data(self, tmp_path):
        path = self._write(tmp_path, {
            "scenario": "smooth", "mesh": {"n": 4},
            "initial": {"p0": "1 + 0*x", "n0": "1 + 0*y", "mode": "nodal"},
        })
        sc = parse_config(path)
        mesh = sc.make_mesh()
        p0, n0 = sc.initial_fields(mesh)
        assert np.all(p0 == 1.0)
        assert np.all(n0 == 1.0)

    def test_snapshot_off_step_grid_rejected(self, tmp_path):
        path = self._write(tmp_path, {"scenario": "smooth", "k": 0.01,
                                      "T": 0.05, "snapshots": [0.015]})
        with pytest.raises(ValueError, match="time steps"):
            parse_config(path)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\n  broken\n}")
        with pytest.raises(ConfigError, match="line"):
            parse_config(str(path))

    @pytest.mark.parametrize("payload, key", [
        ({"k": True}, "k"), ({"T": True}, "T"), ({"q": False}, "q"),
        ({"picard_residual_tol": True}, "picard_residual_tol"),
        ({"k": True, "T": True}, "k")])
    def test_bool_reals_rejected(self, tmp_path, payload, key):
        # a JSON bool is not a number, so true is not 1.0
        path = self._write(tmp_path, {"scenario": "smooth", **payload})
        with pytest.raises(ConfigError,
                           match=f"scenario.json: '{key}' must be a finite"):
            parse_config(path)

    @pytest.mark.parametrize("value", [True, "1", [1.0]])
    def test_bad_dirichlet_value_rejected(self, tmp_path, value):
        path = self._write(tmp_path, {
            "scenario": "channel_wave",
            "bc": {"phi_dirichlet": {"bottom": value, "top": 1.0}}})
        with pytest.raises(ConfigError, match="'phi_dirichlet.bottom'"):
            parse_config(path)

    def test_both_mesh_keys_rejected(self, tmp_path):
        # neither mesh kind is preferred over the other
        path = self._write(tmp_path, {"mesh": {"n": 4, "cell": 0.5}})
        with pytest.raises(ConfigError, match="'mesh.n'.*'mesh.cell'"):
            parse_config(path)

    @pytest.mark.parametrize("expr", ["1 +", 5])
    def test_bad_expression_rejected(self, tmp_path, expr):
        path = self._write(tmp_path, {"initial": {"p0": expr}})
        with pytest.raises(ConfigError, match="'initial.p0' must be an"):
            parse_config(path)

    @pytest.mark.parametrize("key, expr, names", [
        ("p0", "foo(x)", "['foo']"), ("n0", "np.exp(y) + z", "['np', 'z']")])
    def test_unknown_expression_names_rejected(self, tmp_path, key, expr,
                                               names):
        path = self._write(tmp_path, {"initial": {key: expr}})
        with pytest.raises(ConfigError, match=re.escape(
                f"'initial.{key}' uses unknown names {names}")):
            parse_config(path)

    @pytest.mark.parametrize("expr", [
        "x.sum() + 0*y", "x.__class__.__name__ and 1.0 + 0*x"])
    def test_attribute_access_rejected(self, tmp_path, expr):
        path = self._write(tmp_path, {"initial": {"p0": expr}})
        with pytest.raises(ConfigError, match=re.escape(
                "'initial.p0' may not use attribute access")):
            parse_config(path)

    def test_names_bound_in_the_expression_accepted(self, tmp_path):
        path = self._write(tmp_path, {"mesh": {"n": 4}, "initial": {
            "p0": "(lambda r: 1 + r * 0)(x)",
            "n0": "where([c > 2 for c in [3]][0], 1 + 0 * y, y)"}})
        sc = parse_config(path)
        p0, n0 = sc.initial_fields(sc.make_mesh())
        assert np.all(p0 == 1.0)
        assert np.all(n0 == 1.0)

    @pytest.mark.parametrize("payload, where", [
        ([1, 2], "the top level"), ({"mesh": 4}, "'mesh'"),
        ({"bc": [1]}, "'bc'"), ({"initial": "x"}, "'initial'")])
    def test_non_object_rejected(self, tmp_path, payload, where):
        with pytest.raises(ConfigError, match=f"{where} must be an object"):
            parse_config(self._write(tmp_path, payload))

    def test_dict_and_file_give_the_same_scenario(self, tmp_path):
        payload = {"scenario": "channel_wave", "algorithm": 2, "k": 0.02,
                   "T": 0.2, "mesh": {"cell": 0.5}, "output_dir": "o"}
        a = parse_config(self._write(tmp_path, payload))
        b = scenario_from_config(payload, "dict")
        for sc in (a, b):
            assert_fields(sc, "channel_wave", 2, k=0.02, T=0.2,
                          mesh_spec=("channel", 0.5),
                          snapshot_times=(0.1, 0.2), output_dir="o")


class TestVtk:
    def test_mesh_file_structure(self, square8, tmp_path):
        path = tmp_path / "mesh.vtk"
        write_vtk_mesh(square8, path)
        text = path.read_text().splitlines()
        assert text[0] == "# vtk DataFile Version 3.0"
        assert "ASCII" in text[2]
        assert "UNSTRUCTURED_GRID" in text[3]
        pts, cells, _ = read_vtk_point_data(path)
        assert len(pts) == square8.num_nodes
        assert len(cells) == square8.num_elements
        assert text.count("5") >= square8.num_elements  # triangle cell type

    def test_snapshot_round_trip(self, square8, rng, tmp_path):
        n = square8.num_nodes
        state = State(rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n),
                      rng.normal(size=n), 0.25)
        path = tmp_path / "snap.vtk"
        write_vtk_snapshot(state, square8, path)
        pts, cells, scalars = read_vtk_point_data(path)
        assert pts == pytest.approx(square8.nodes, abs=1e-15)
        assert set(scalars) == {"p", "n", "phi"}
        assert scalars["p"] == pytest.approx(state.p, abs=1e-15)
        assert scalars["n"] == pytest.approx(state.n, abs=1e-15)
        assert scalars["phi"] == pytest.approx(state.phi, abs=1e-15)

    def test_field_length_mismatch_rejected(self, square8, two_elem_mesh):
        n = square8.num_nodes
        state = State(np.ones(n), np.ones(n), np.zeros(n), 0.0)
        with pytest.raises(ValueError):
            write_vtk_snapshot(state, two_elem_mesh, "/tmp/never.vtk")


class TestCli:
    def _neutral_config(self, tmp_path, **extra):
        payload = {
            "scenario": "smooth", "mesh": {"n": 6}, "k": 0.01, "T": 0.03,
            "initial": {"p0": "1+0*x", "n0": "1+0*x", "mode": "nodal"},
            "output_dir": str(tmp_path / "out"),
        }
        payload.update(extra)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_run_writes_outputs_and_exits_zero(self, tmp_path, capsys):
        cfg = self._neutral_config(tmp_path)
        code = cli_main(["--config", cfg, "--snapshots", "0.02"])
        assert code == 0
        out = tmp_path / "out"
        assert (out / "diagnostics.csv").exists()
        for name in ("mass.svg", "energy.svg", "entropy.svg", "extrema.svg"):
            assert (out / name).exists()
            ET.parse(out / name)  # well-formed XML
        assert (out / "snapshot_t0.02.vtk").exists()
        csv_lines = (out / "diagnostics.csv").read_text().splitlines()
        assert len(csv_lines) == 1 + 1 + 3  # header + initial + steps

    def test_charts_carry_title_and_series_labels(self, tmp_path):
        assert cli_main(["--config", self._neutral_config(tmp_path)]) == 0
        charts = {
            "mass.svg": ("Total mass", "mass p", "mass n"),
            "energy.svg": ("Electrostatic energy", "energy"),
            "entropy.svg": ("Entropy and dissipation", "entropy",
                            "dissipation"),
            "extrema.svg": ("Density extrema", "max p", "min p", "max n",
                            "min n"),
        }
        svg = "{http://www.w3.org/2000/svg}"
        for name, (title, *labels) in charts.items():
            root = ET.parse(tmp_path / "out" / name).getroot()
            texts = [e.text for e in root.iter(svg + "text")]
            assert title in texts, name
            for label in labels:
                assert label in texts, (name, label)
            assert len(list(root.iter(svg + "polyline"))) == len(labels), name

    def test_deterministic_csv(self, tmp_path):
        cfg = self._neutral_config(tmp_path)
        out = tmp_path / "out"
        assert cli_main(["--config", cfg]) == 0
        first = (out / "diagnostics.csv").read_bytes()
        assert cli_main(["--config", cfg]) == 0
        second = (out / "diagnostics.csv").read_bytes()
        assert first == second

    def test_flag_overrides(self, tmp_path):
        cfg = self._neutral_config(tmp_path)
        code = cli_main(["--config", cfg, "--algorithm", "2", "--k", "0.015",
                         "--T", "0.015"])
        assert code == 0
        csv_lines = ((tmp_path / "out") / "diagnostics.csv").read_text()
        assert len(csv_lines.splitlines()) == 1 + 1 + 1

    def test_missing_scenario_is_usage_error(self, capsys):
        assert cli_main([]) == 2

    def test_bad_config_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"bogus": 1}')
        assert cli_main(["--config", str(path)]) == 2

    def test_scenario_flag_runs_builtin(self, tmp_path):
        out = str(tmp_path / "o")
        code = cli_main(["--scenario", "smooth", "--T", "0.002",
                         "--out", out, "--config", ""])
        assert code == 0

    def test_negative_horizon_is_usage_error(self, tmp_path, capsys):
        cfg = self._neutral_config(tmp_path)
        assert cli_main(["--config", cfg, "--T", "-1"]) == 2
        assert not (tmp_path / "out").exists()

    def test_snapshot_beyond_horizon_is_usage_error(self, tmp_path, capsys):
        cfg = self._neutral_config(tmp_path)
        assert cli_main(["--config", cfg, "--snapshots", "5"]) == 2
        assert not (tmp_path / "out").exists()

    def test_snapshot_off_step_grid_is_usage_error(self, tmp_path, capsys):
        cfg = self._neutral_config(tmp_path)
        assert cli_main(["--config", cfg, "--snapshots", "0.015"]) == 2
        assert not (tmp_path / "out").exists()

    def test_zero_horizon_runs_no_step(self, tmp_path, capsys):
        cfg = self._neutral_config(tmp_path)
        assert cli_main(["--config", cfg, "--T", "0"]) == 0
        assert "smooth: 0 steps" in capsys.readouterr().out
        rows = diagnostics.read_csv(tmp_path / "out" / "diagnostics.csv")
        assert [r.t for r in rows] == [0.0]

    def test_divergent_step_exits_3_with_partial_outputs(self, tmp_path,
                                                         capsys):
        # channel_wave under Alg. 2 at k = 0.2 with the potential drop raised
        # a thousandfold: the first step's Picard loop does not converge, so
        # the run fails there and writes the initial row
        path = tmp_path / "divergent.json"
        path.write_text(json.dumps({
            "scenario": "channel_wave", "algorithm": 2,
            "mesh": {"cell": 0.25}, "k": 0.2, "T": 0.4,
            "bc": {"phi_dirichlet": {"bottom": -50000, "top": 50000}},
            "output_dir": str(tmp_path / "out")}))
        assert cli_main(["--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert "after 400 iterations, smallest" in err
        assert "partial outputs written" in err
        rows = diagnostics.read_csv(tmp_path / "out" / "diagnostics.csv")
        assert [r.t for r in rows] == [0.0]

    def test_step_charge_imbalance_exits_3_with_partial_outputs(
            self, tmp_path, capsys):
        # pinned membrane cations under a pure-Neumann potential: step 1
        # breaks electroneutrality, after the initial row was reported
        cfg = self._neutral_config(
            tmp_path, scenario="channel_selective", mesh={"cell": 0.5},
            k=0.05, T=0.1, initial={},
            bc={"phi_dirichlet": {}, "p_dirichlet": {"membrane": 1.0}})
        assert cli_main(["--config", cfg]) == 3
        err = capsys.readouterr().err
        assert "violates electroneutrality" in err
        assert "partial outputs written" in err
        csv_lines = (tmp_path / "out" / "diagnostics.csv").read_text()
        assert len(csv_lines.splitlines()) == 2  # header + initial

    def test_initial_charge_imbalance_is_usage_error(self, tmp_path,
                                                       capsys):
        cfg = self._neutral_config(
            tmp_path, initial={"p0": "2+0*x", "n0": "1+0*x", "mode": "nodal"})
        assert cli_main(["--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "violates electroneutrality" in err
        assert "partial" not in err
        assert not (tmp_path / "out").exists()

    def test_invariant_violation_exits_1_with_outputs(self, tmp_path,
                                                      monkeypatch, capsys):
        from pnpfem.solver import RunResult
        monkeypatch.setattr(RunResult, "flags_ok", lambda self: False)
        assert cli_main(["--config", self._neutral_config(tmp_path)]) == 1
        assert "invariant-violation" in capsys.readouterr().out
        assert (tmp_path / "out" / "diagnostics.csv").exists()

    def test_summary_omits_zero_stagnated_count(self, tmp_path, capsys):
        assert cli_main(["--config", self._neutral_config(tmp_path)]) == 0
        assert "stagnated" not in capsys.readouterr().out

    def test_zero_horizon_config_runs(self, tmp_path, capsys):
        cfg = self._neutral_config(tmp_path, T=0)
        assert cli_main(["--config", cfg]) == 0
        assert "smooth: 0 steps" in capsys.readouterr().out

    @pytest.mark.parametrize("flag, value", [
        ("--T", "inf"), ("--k", "inf"), ("--k", "nan")])
    def test_non_finite_flag_is_usage_error(self, tmp_path, capsys, flag,
                                            value):
        cfg = self._neutral_config(tmp_path)
        assert cli_main(["--config", cfg, flag, value]) == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_overflowing_step_count_flags_are_usage_error(self, tmp_path,
                                                          capsys):
        cfg = self._neutral_config(tmp_path)
        assert cli_main(["--config", cfg, "--T", "1e300", "--k", "1e-10"]) == 2
        assert "T / k must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_overflowing_step_count_config_is_usage_error(self, tmp_path,
                                                           capsys):
        cfg = self._neutral_config(tmp_path, T=1e300, k=1e-10)
        assert cli_main(["--config", cfg]) == 2
        assert "T / k must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("file_scenario", [None, "smooth"])
    def test_scenario_flag_applies_over_a_config(self, tmp_path, capsys,
                                                 file_scenario):
        # flag over file: --scenario picks the built-in under the file
        payload = {"mesh": {"cell": 0.5}, "k": 0.01, "T": 0.01,
                   "output_dir": str(tmp_path / "out")}
        if file_scenario:
            payload["scenario"] = file_scenario
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        assert cli_main(["--scenario", "channel_wave", "--config",
                         str(path)]) == 0
        assert capsys.readouterr().out.startswith("channel_wave: 1 steps")

    def test_given_snapshots_checked_against_the_flags(self, tmp_path,
                                                       capsys):
        # given times are checked against the merged T, never dropped
        cfg = self._neutral_config(tmp_path, snapshots=[0.03])
        assert cli_main(["--config", cfg, "--T", "0.02"]) == 2
        assert "snapshot times [0.03]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_builtin_snapshots_fitted_once_to_the_flags(self, tmp_path):
        # the defaults are fitted to the merged T = 0.02, not to the file's
        # T = 0.01
        cfg = self._neutral_config(tmp_path, T=0.01)
        assert cli_main(["--config", cfg, "--T", "0.02"]) == 0
        assert sorted(p.name for p in (tmp_path / "out").glob("*.vtk")) == [
            "snapshot_t0.01.vtk", "snapshot_t0.02.vtk"]

    def test_builtin_snapshots_shrink_under_a_shorter_horizon(self,
                                                               tmp_path):
        cfg = self._neutral_config(tmp_path)
        assert cli_main(["--config", cfg, "--T", "0.01"]) == 0
        assert [p.name for p in (tmp_path / "out").glob("*.vtk")] == [
            "snapshot_t0.01.vtk"]

    def test_out_flag_overrides_the_file(self, tmp_path):
        cfg = self._neutral_config(tmp_path)
        assert cli_main(["--config", cfg, "--out",
                         str(tmp_path / "flag")]) == 0
        assert (tmp_path / "flag" / "diagnostics.csv").exists()
        assert not (tmp_path / "out").exists()

    def test_non_string_output_dir_is_usage_error(self, tmp_path, capsys,
                                                  monkeypatch):
        # a config error exits 2; 1 is the status of a failed invariant
        monkeypatch.chdir(tmp_path)
        cfg = self._neutral_config(tmp_path, output_dir=5)
        assert cli_main(["--config", cfg]) == 2
        assert "'output_dir' must be" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_unknown_expression_name_is_usage_error(self, tmp_path, capsys,
                                                    monkeypatch):
        # refused with the config, before the output directory is made
        monkeypatch.chdir(tmp_path)
        (tmp_path / "config.json").write_text(json.dumps({
            "mesh": {"n": 6}, "k": 0.01, "T": 0.01,
            "initial": {"p0": "foo(x)"}, "output_dir": "o"}))
        assert cli_main(["--config", "config.json"]) == 2
        assert "'initial.p0' uses unknown names ['foo']" in \
            capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_attribute_access_is_usage_error(self, tmp_path, capsys,
                                             monkeypatch):
        # refused with the config, before the output directory is made
        monkeypatch.chdir(tmp_path)
        (tmp_path / "config.json").write_text(json.dumps({
            "mesh": {"n": 6}, "k": 0.01, "T": 0.01,
            "initial": {"p0": "x.sum() + 0*y"}, "output_dir": "o"}))
        assert cli_main(["--config", "config.json"]) == 2
        assert "'initial.p0' may not use attribute access" in \
            capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_output_path_that_is_a_file_is_usage_error(self, tmp_path,
                                                       capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        cfg = self._neutral_config(tmp_path)
        assert cli_main(["--config", cfg, "--out", str(taken)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "taken" in err
        assert taken.read_text() == ""

    @pytest.mark.filterwarnings("ignore:invalid value encountered in log")
    @pytest.mark.parametrize("mode", ["nodal", "averaged"])
    def test_non_finite_initial_data_is_usage_error(self, tmp_path, capsys,
                                                    mode):
        cfg = self._neutral_config(
            tmp_path, initial={"p0": "log(x - 10)", "mode": mode})
        assert cli_main(["--config", cfg]) == 2
        assert "node 0 (-0.5, -0.5) is not finite" in capsys.readouterr().err

    def test_bool_real_is_usage_error(self, tmp_path, capsys):
        cfg = self._neutral_config(tmp_path, k=True, T=True)
        assert cli_main(["--config", cfg]) == 2
        assert "'k' must be a finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_flag_errors_name_the_flags(self, tmp_path, capsys):
        cfg = self._neutral_config(tmp_path)
        assert cli_main(["--config", cfg, "--q", "-1"]) == 2
        assert "config.json with flags: 'q' must be" in \
            capsys.readouterr().err
        assert cli_main(["--scenario", "smooth", "--q", "-1"]) == 2
        assert "flags: 'q' must be" in capsys.readouterr().err

    @pytest.mark.parametrize("config", [False, True])
    def test_malformed_snapshots_flag_names_it(self, tmp_path, capsys,
                                               monkeypatch, config):
        # refused with the config, before the output directory is made
        monkeypatch.chdir(tmp_path)
        args = (["--config", self._neutral_config(tmp_path)] if config
                else ["--scenario", "smooth", "--T", "0.002"])
        assert cli_main(args + ["--snapshots", "0.001,abc"]) == 2
        source = "config.json with flags" if config else "flags"
        assert (f"{source}: 'snapshots' must be a finite real number, got "
                f"'abc'") in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == (
            ["config.json"] if config else [])

    def test_linear_solve_failure_writes_partial_outputs(
            self, tmp_path, monkeypatch, capsys):
        import pnpfem.solver as solver
        from pnpfem import LinearSolveError
        solve, calls = solver.LaggedFactor.solve, []

        def failing(*args):
            calls.append(args)
            if len(calls) == 5:
                raise LinearSolveError("planted failure")
            return solve(*args)

        monkeypatch.setattr(solver.LaggedFactor, "solve", failing)
        cfg = self._neutral_config(tmp_path)
        assert cli_main(["--config", cfg]) == 3
        assert "planted failure" in capsys.readouterr().err
        # the neutral state takes one sweep (two solves) per step, so the
        # fifth solve fails in step 3, after steps 1 and 2
        rows = diagnostics.read_csv(tmp_path / "out" / "diagnostics.csv")
        assert [r.t for r in rows] == pytest.approx([0.0, 0.01, 0.02])
