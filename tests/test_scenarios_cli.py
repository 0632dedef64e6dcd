import json
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
from pnpfem.scenarios import ConfigError
from pnpfem.vtk_io import read_vtk_point_data


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

    def test_nested_unknown_key_rejected(self, tmp_path):
        path = self._write(tmp_path, {"mesh": {"cells": 3}})
        with pytest.raises(ConfigError, match="mesh"):
            parse_config(path)

    def test_nonpositive_timestep_rejected(self, tmp_path):
        path = self._write(tmp_path, {"scenario": "smooth", "k": -1.0})
        with pytest.raises(ConfigError, match="'k'"):
            parse_config(path)

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

    def test_seed_flag_accepted(self, tmp_path):
        cfg = self._neutral_config(tmp_path)
        assert cli_main(["--config", cfg, "--seed", "7"]) == 0

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
