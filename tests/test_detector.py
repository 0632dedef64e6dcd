import numpy as np
import pytest

from pnpfem import build_sym_stencils, build_unit_square, compute_alpha

from oracles import jump, mean


@pytest.fixture(scope="module")
def grid():
    mesh = build_unit_square(8)
    return mesh, build_sym_stencils(mesh)


def node_at(mesh, gx, gy, n=8):
    return gx * (n + 1) + gy


class TestPairOps:
    def test_constant_field_zero(self, grid):
        mesh, st = grid
        x = np.full(mesh.num_nodes, 4.2)
        i = node_at(mesh, 4, 4)
        j = node_at(mesh, 5, 4)
        assert jump(i, j, x, st) == 0.0
        assert mean(i, j, x, st) == 0.0

    def test_linear_field_cancels_on_uniform_stencil(self, grid):
        # symmetric point of an interior axis pair is the opposite neighbor
        mesh, st = grid
        x = mesh.nodes[:, 0].copy()
        i = node_at(mesh, 4, 4)
        for j in (node_at(mesh, 5, 4), node_at(mesh, 4, 5),
                  node_at(mesh, 5, 5)):
            assert jump(i, j, x, st) == 0.0
        # pairs with a slope along x keep a positive mean
        assert mean(i, node_at(mesh, 5, 4), x, st) > 0.0
        assert mean(i, node_at(mesh, 5, 5), x, st) > 0.0

    def test_strict_max_jump_negative_and_saturated(self, grid):
        mesh, st = grid
        x = np.zeros(mesh.num_nodes)
        i = node_at(mesh, 4, 4)
        x[i] = 1.0
        j = node_at(mesh, 5, 4)
        assert jump(i, j, x, st) < 0
        assert abs(jump(i, j, x, st)) == 2.0 * mean(i, j, x, st)

    def test_sign_flip_negates_jump_keeps_mean(self, grid, rng):
        mesh, st = grid
        x = rng.normal(size=mesh.num_nodes)
        i = node_at(mesh, 3, 5)
        j = node_at(mesh, 4, 5)
        assert jump(i, j, -x, st) == pytest.approx(-jump(i, j, x, st))
        assert mean(i, j, -x, st) == pytest.approx(mean(i, j, x, st))

    def test_mean_dominates_half_jump(self, grid, rng):
        mesh, st = grid
        x = rng.normal(size=mesh.num_nodes)
        for p in range(0, mesh.pair_i.size, 13):
            i, j = int(mesh.pair_i[p]), int(mesh.pair_j[p])
            assert mean(i, j, x, st) >= abs(jump(i, j, x, st)) / 2 - 1e-15


class TestAlpha:
    def test_constant_is_zero(self, grid):
        mesh, st = grid
        a = compute_alpha(np.full(mesh.num_nodes, 7.0), 2.0, mesh, st)
        assert np.all(a == 0.0)

    def test_linear_field_zero_on_interior(self, grid):
        # grid spacing 1/8 is dyadic: the cancellation is exact
        mesh, st = grid
        for field in (mesh.nodes[:, 0], mesh.nodes[:, 1],
                      mesh.nodes @ np.array([2.0, -1.0])):
            a = compute_alpha(field.copy(), 2.0, mesh, st)
            assert np.all(a[~mesh.boundary_mask] == 0.0)

    def test_planted_strict_extrema_saturate(self, grid, rng):
        mesh, st = grid
        x = rng.uniform(1.0, 2.0, size=mesh.num_nodes)
        imax = node_at(mesh, 4, 4)
        imin = node_at(mesh, 2, 6)
        x[imax] = 5.0
        x[imin] = -3.0
        a = compute_alpha(x, 2.0, mesh, st)
        assert a[imax] == 1.0
        assert a[imin] == 1.0

    def test_one_sided_boundary_extremum_saturates(self, grid):
        mesh, st = grid
        x = np.zeros(mesh.num_nodes)
        corner = node_at(mesh, 0, 0)
        x[corner] = 1.0
        a = compute_alpha(x, 2.0, mesh, st)
        assert a[corner] == 1.0

    def test_range_on_random_fields(self, grid, rng):
        mesh, st = grid
        for _ in range(200):
            a = compute_alpha(rng.normal(size=mesh.num_nodes), 2.0, mesh, st)
            assert np.all(a >= 0.0)
            assert np.all(a <= 1.0)

    def test_translation_invariance(self, grid, rng):
        mesh, st = grid
        x = rng.normal(size=mesh.num_nodes)
        a0 = compute_alpha(x, 2.0, mesh, st)
        for c in (1.0, -17.5, 1e4):
            a1 = compute_alpha(x + c, 2.0, mesh, st)
            assert a1 == pytest.approx(a0, abs=1e-8)

    def test_scale_invariance(self, grid, rng):
        mesh, st = grid
        x = rng.normal(size=mesh.num_nodes)
        a0 = compute_alpha(x, 2.0, mesh, st)
        for s in (2.0, -3.0, 1e-4, 1e5):
            a1 = compute_alpha(s * x, 2.0, mesh, st)
            assert a1 == pytest.approx(a0, abs=1e-10)

    def test_exponent_shapes_response(self, grid, rng):
        # larger q weakens sub-extremal responses, never the saturated ones
        mesh, st = grid
        x = rng.normal(size=mesh.num_nodes)
        a1 = compute_alpha(x, 1.0, mesh, st)
        a4 = compute_alpha(x, 4.0, mesh, st)
        assert np.all(a4 <= a1 + 1e-15)

    def test_rejects_nonpositive_q(self, grid):
        mesh, st = grid
        for q in (0.0, float("nan"), float("inf"), True):
            with pytest.raises(ValueError, match="'q'"):
                compute_alpha(np.zeros(mesh.num_nodes), q, mesh, st)
