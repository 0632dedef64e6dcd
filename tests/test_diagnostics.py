import os
import subprocess
import sys

import numpy as np
import pytest

from pnpfem import (
    build_channel,
    build_equilateral_strip,
    build_unit_square,
    check_acuteness,
    dissipation_Dh,
    energy_electrostatic,
    entropy_Eh,
    entropy_functions,
    extrema,
    mass,
)
from pnpfem.diagnostics import CSV_COLUMNS, StepReport, read_csv, write_csv
from pnpfem.fespace import assemble_stiffness, lumped_mass_vector
from pnpfem.scenarios import smooth_n0, smooth_p0
from pnpfem.fespace import averaged_interpolate


@pytest.fixture(scope="module")
def fns():
    return entropy_functions(0.05)


class TestMass:
    def test_unit_density_on_square(self, square8):
        assert mass(np.ones(square8.num_nodes),
                    lumped_mass_vector(square8)) == pytest.approx(1.0,
                                                                  abs=1e-13)

    def test_unit_density_on_channel(self):
        mesh = build_channel(0.25)
        got = mass(np.ones(mesh.num_nodes), lumped_mass_vector(mesh))
        assert got == pytest.approx(20.0, abs=1e-12)

    def test_smooth_data_electroneutral_within_interp_error(self):
        mesh = build_unit_square(20)
        d = lumped_mass_vector(mesh)
        p0 = averaged_interpolate(smooth_p0, mesh)
        n0 = averaged_interpolate(smooth_n0, mesh)
        assert abs(mass(p0, d) - mass(n0, d)) < 1e-2


class TestEntropy:
    def test_neutral_ground_state_is_zero(self, square8, fns):
        n = square8.num_nodes
        K = assemble_stiffness(square8)
        d = lumped_mass_vector(square8)
        assert entropy_Eh(np.ones(n), np.ones(n), np.zeros(n), d, K,
                          fns) == pytest.approx(0.0, abs=1e-15)

    def test_euler_density_value(self, square8, fns):
        # g0(e) = 1, two species on the unit square
        n = square8.num_nodes
        K = assemble_stiffness(square8)
        d = lumped_mass_vector(square8)
        val = entropy_Eh(np.full(n, np.e), np.full(n, np.e), np.zeros(n), d,
                         K, fns)
        assert val == pytest.approx(2.0, rel=1e-12)

    def test_nonnegative(self, square8, fns, rng):
        n = square8.num_nodes
        K = assemble_stiffness(square8)
        d = lumped_mass_vector(square8)
        for _ in range(20):
            p = rng.uniform(0.0, 3.0, size=n)
            q = rng.uniform(0.0, 3.0, size=n)
            phi = rng.normal(size=n)
            assert entropy_Eh(p, q, phi, d, K, fns) >= 0.0

    def test_negative_density_rejected(self, square8, fns):
        n = square8.num_nodes
        K = assemble_stiffness(square8)
        d = lumped_mass_vector(square8)
        p = np.ones(n)
        p[3] = -1e-3
        with pytest.raises(ValueError):
            entropy_Eh(p, np.ones(n), np.zeros(n), d, K, fns)

    def test_potential_shift_invariance(self, square8, fns, rng):
        n = square8.num_nodes
        K = assemble_stiffness(square8)
        d = lumped_mass_vector(square8)
        p = rng.uniform(0.5, 2.0, size=n)
        q = rng.uniform(0.5, 2.0, size=n)
        phi = rng.normal(size=n)
        a = entropy_Eh(p, q, phi, d, K, fns)
        b = entropy_Eh(p, q, phi + 13.0, d, K, fns)
        assert b == pytest.approx(a, rel=1e-10)


class TestDissipation:
    def test_zero_for_constant_state(self, square8):
        n = square8.num_nodes
        K = assemble_stiffness(square8)
        assert dissipation_Dh(np.full(n, 2.0), np.zeros(n), K,
                              square8) == 0.0

    def test_nonnegative_on_acute_mesh(self, rng):
        mesh = build_equilateral_strip(6, 4, side=0.25)
        K = assemble_stiffness(mesh)
        assert check_acuteness(mesh, K).is_acute
        for _ in range(25):
            rho = rng.uniform(0.1, 4.0, size=mesh.num_nodes)
            phi = rng.normal(size=mesh.num_nodes)
            assert dissipation_Dh(rho, phi, K, mesh) >= -1e-10

    def test_negative_density_rejected(self, square8):
        n = square8.num_nodes
        K = assemble_stiffness(square8)
        rho = np.ones(n)
        rho[0] = -0.5
        with pytest.raises(ValueError):
            dissipation_Dh(rho, np.zeros(n), K, square8)

    def test_matches_pairwise_formula(self, rng):
        # independent dense recomputation of the edge sum
        mesh = build_equilateral_strip(3, 3, side=0.5)
        K = assemble_stiffness(mesh)
        rho = rng.uniform(0.5, 2.0, size=mesh.num_nodes)
        phi = rng.normal(size=mesh.num_nodes)
        total = 0.0
        Kd = K.toarray()
        for i in range(mesh.num_nodes):
            for j in range(i + 1, mesh.num_nodes):
                if Kd[i, j] == 0.0:
                    continue
                drho = rho[j] - rho[i]
                dphi = phi[j] - phi[i]
                if drho != 0.0:
                    s = (np.log(rho[j]) - np.log(rho[i])) / drho
                    total -= (np.sqrt(s) * drho - dphi / np.sqrt(s))**2 * Kd[i, j]
                else:
                    total -= rho[i] * dphi**2 * Kd[i, j]
        got = dissipation_Dh(rho, phi, K, mesh)
        assert got == pytest.approx(total, rel=1e-12)

    def test_zero_density_plateau_stays_finite(self, square8):
        n = square8.num_nodes
        K = assemble_stiffness(square8)
        rho = np.zeros(n)
        rho[:n // 2] = 1.0
        phi = square8.nodes[:, 0].copy()
        val = dissipation_Dh(rho, phi, K, square8)
        assert np.isfinite(val)


class TestExtrema:
    def test_constant_field(self):
        lo, alo, hi, ahi = extrema(np.full(5, 3.0))
        assert lo == hi == 3.0
        assert alo == ahi == 0

    def test_ties_take_lowest_index(self):
        lo, alo, hi, ahi = extrema(np.array([2.0, 1.0, 1.0, 2.0]))
        assert (lo, alo) == (1.0, 1)
        assert (hi, ahi) == (2.0, 0)

    def test_smooth_initial_extrema_in_range(self):
        mesh = build_unit_square(20)
        p0 = averaged_interpolate(smooth_p0, mesh)
        lo, _, hi, _ = extrema(p0)
        assert 0.0 <= lo and hi <= 4.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            extrema(np.array([]))


class TestEnergy:
    def test_constant_potential_zero(self, square8):
        K = assemble_stiffness(square8)
        assert energy_electrostatic(np.full(square8.num_nodes, 4.0),
                                    K) == pytest.approx(0.0, abs=1e-12)

    def test_linear_potential_exact(self, square8):
        # |grad phi|^2 = 1 on the unit square
        K = assemble_stiffness(square8)
        phi = square8.nodes[:, 0].copy()
        assert energy_electrostatic(phi, K) == pytest.approx(0.5, rel=1e-12)


class TestCsvRoundTrip:
    def _sample_reports(self):
        rows = []
        for m in range(4):
            rows.append(StepReport(
                t=m * 0.1, mass_p=1.0 + 1e-17 * m, mass_n=1.0,
                energy_es=0.123456789012345678 * (m + 1),
                entropy=2.0 - 0.1 * m, dissipation=0.3 * m,
                max_p=3.0, min_p=1e-30, max_n=4.0, min_n=0.0,
                picard_iters=m + 1, dmp_ok=1, mass_ok=1,
                entropy_ok=int(m != 2), smallness_ok=1,
            ))
        return rows

    def test_values_round_trip_exactly(self, tmp_path):
        path = tmp_path / "diag.csv"
        reports = self._sample_reports()
        write_csv(path, reports)
        back = read_csv(path)
        assert len(back) == len(reports)
        for a, b in zip(reports, back):
            for col in CSV_COLUMNS:
                assert getattr(a, col) == getattr(b, col)

    def test_header_written(self, tmp_path):
        path = tmp_path / "diag.csv"
        write_csv(path, self._sample_reports())
        header = path.read_text().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)

    def _with_row_changed(self, tmp_path, change):
        path = tmp_path / "diag.csv"
        write_csv(path, self._sample_reports())
        lines = path.read_text().splitlines()
        lines[2] = change(lines[2])
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_truncated_row_names_its_line(self, tmp_path):
        path = self._with_row_changed(
            tmp_path, lambda row: ",".join(row.split(",")[:5]))
        with pytest.raises(ValueError, match="line 3 has 5 fields, the "
                                             "header 15"):
            read_csv(path)

    def test_row_with_extra_fields_names_its_line(self, tmp_path):
        path = self._with_row_changed(tmp_path, lambda row: row + ",1,2")
        with pytest.raises(ValueError, match="line 3 has 17 fields, the "
                                             "header 15"):
            read_csv(path)

    def test_flags_recompute_from_rows(self, tmp_path):
        # flags derived from the persisted columns agree with stored ones
        from pnpfem import BoundarySpec, Scenario, SolverConfig, run
        from pnpfem.scenarios import smooth_n0, smooth_p0
        sc = Scenario("flagcheck", ("square", 8),
                      (smooth_p0, smooth_n0, "averaged"), BoundarySpec(),
                      SolverConfig(algorithm=2, k=1e-3, T=5e-3))
        result = run(sc)
        path = tmp_path / "diag.csv"
        write_csv(path, result.all_reports())
        rows = read_csv(path)
        first = rows[0]
        lo = min(first.min_p, first.min_n)
        hi = max(first.max_p, first.max_n)
        prev_entropy = None
        for row in rows:
            dmp = (min(row.min_p, row.min_n) >= lo - 1e-10
                   and max(row.max_p, row.max_n) <= hi + 1e-10)
            mass_ok = (abs(row.mass_p - first.mass_p)
                       <= 1e-10 * max(abs(first.mass_p), 1.0)
                       and abs(row.mass_n - first.mass_n)
                       <= 1e-10 * max(abs(first.mass_n), 1.0))
            entropy_ok = (prev_entropy is None
                          or row.entropy <= prev_entropy + 1e-8)
            assert row.dmp_ok == int(dmp)
            assert row.mass_ok == int(mass_ok)
            assert row.entropy_ok == int(entropy_ok)
            prev_entropy = row.entropy


_THREADED_DIAGNOSTICS = """
import numpy as np
from pnpfem import (assemble_stiffness, averaged_interpolate, build_unit_square,
                    dissipation_Dh, energy_electrostatic, entropy_Eh,
                    entropy_functions, lumped_mass_vector, mass)
from pnpfem.scenarios import smooth_n0
mesh = build_unit_square(64)
K, d = assemble_stiffness(mesh), lumped_mass_vector(mesh)
rng = np.random.default_rng(6)
p = rng.uniform(0.5, 2.0, size=mesh.num_nodes)
n = averaged_interpolate(smooth_n0, mesh)
phi = rng.normal(size=mesh.num_nodes)
fns = entropy_functions(0.05)
values = (dissipation_Dh(p, phi, K, mesh), entropy_Eh(p, n, phi, d, K, fns),
          energy_electrostatic(phi, K), mass(p, d))
print(" ".join(float.hex(v) for v in values))
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores")
def test_reductions_independent_of_blas_threads():
    # a 1-D BLAS dot sums in an order that follows its thread count; the
    # diagnostics must not, so that diagnostics.csv is bit-reproducible
    import pnpfem
    src = os.path.dirname(os.path.dirname(os.path.abspath(pnpfem.__file__)))
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                   PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", _THREADED_DIAGNOSTICS],
                              env=env, stdout=subprocess.PIPE, text=True,
                              timeout=300, check=True)
        out.append(proc.stdout.split())
    assert out[0] == out[1]
