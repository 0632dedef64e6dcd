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
from pnpfem.mesh import BOTTOM, MEMBRANE, TOP
from pnpfem.scenarios import ConfigError, scenario_from_config

from oracles import read_vtk_point_data


class TestBuiltinScenarios:
    def test_smooth_parameters(self):
        sc = builtin_scenario("smooth")
        assert sc.config.k == 1e-3
        assert sc.config.T == 0.5
        assert sc.config.q == 2.0
        assert sc.mesh_spec == ("square", 40)
        assert sc.bc.pure_neumann
        assert sc.initial[2] == "averaged"

    def test_channel_uniform_boundary_data(self):
        sc = builtin_scenario("channel_uniform")
        assert sc.bc.phi_dirichlet == {BOTTOM: -50.0, TOP: 50.0}
        assert not sc.bc.p_dirichlet
        assert sc.config.k == 1e-2
        assert sc.config.T == 1.0

    def test_channel_selective_boundary_data(self):
        sc = builtin_scenario("channel_selective")
        assert sc.bc.phi_dirichlet == {BOTTOM: -1.0, TOP: 1.0}
        assert sc.bc.p_dirichlet == {MEMBRANE: 1.0}
        assert sc.config.T == 10.0

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

    def test_algorithm_choice_propagates(self):
        assert builtin_scenario("smooth", algorithm=2).config.algorithm == 2

    def test_snapshot_times_inside_horizon(self):
        with pytest.raises(ValueError, match="snapshot"):
            Scenario("x", ("square", 4),
                     (lambda x, y: x, lambda x, y: x, "nodal"),
                     BoundarySpec(), SolverConfig(T=0.5),
                     snapshot_times=(0.7,))


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
        sc = parse_config(path)
        assert sc.config.algorithm == 2
        assert sc.config.k == 0.01
        assert sc.mesh_spec == ("square", 6)

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
            assert sc.name == "channel_wave" and sc.mesh_spec == (
                "channel", 0.5)
            assert vars(sc.config) == vars(SolverConfig(
                algorithm=2, k=0.02, T=0.2))
            assert sc.snapshot_times == (0.1, 0.2)
            assert sc.output_dir == "o"


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

    def test_summary_counts_stagnated_steps(self, tmp_path, capsys):
        # the smooth data with an unreachable tolerance stagnate each step;
        # the summary counts them and the flags still decide the exit code
        path = tmp_path / "stagnating.json"
        path.write_text(json.dumps({
            "scenario": "smooth", "mesh": {"n": 12}, "k": 1e-3, "T": 2e-3,
            "picard_residual_tol": 1e-300, "picard_max_iters": 200,
            "output_dir": str(tmp_path / "out")}))
        with pytest.warns(RuntimeWarning, match="stagnated"):
            assert cli_main(["--config", str(path)]) == 0
        assert "smooth: 2 steps (2 stagnated), final" in \
            capsys.readouterr().out

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

    def test_linear_solve_failure_writes_partial_outputs(
            self, tmp_path, monkeypatch, capsys):
        import pnpfem.solver as solver
        from pnpfem import LinearSolveError
        solve, calls = solver._solve_linear, []

        def failing(*args):
            calls.append(args)
            if len(calls) == 5:
                raise LinearSolveError("planted failure")
            return solve(*args)

        monkeypatch.setattr(solver, "_solve_linear", failing)
        cfg = self._neutral_config(tmp_path)
        assert cli_main(["--config", cfg]) == 3
        assert "planted failure" in capsys.readouterr().err
        # the neutral state takes one sweep (two solves) per step, so the
        # fifth solve fails in step 3, after steps 1 and 2
        rows = diagnostics.read_csv(tmp_path / "out" / "diagnostics.csv")
        assert [r.t for r in rows] == pytest.approx([0.0, 0.01, 0.02])
