import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from pnpfem import build_sym_stencils, build_unit_square, compute_alpha
from pnpfem.detector import DENOMINATOR_TOL

import oracles
from oracles import jump, mean

EPS = np.finfo(float).eps


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


class TestJitteredDelaunay:
    @settings(max_examples=30, deadline=None)
    @given(n=hs.integers(3, 20), jitter=hs.floats(0.0, 0.35),
           seed=hs.integers(0, 2**32 - 1),
           c=hs.floats(-1e6, 1e6, allow_subnormal=False))
    @example(n=20, jitter=0.3, seed=1, c=7.3)
    def test_constant_field_is_zero(self, n, jitter, seed, c):
        """A constant field never fires the detector.  Symmetric-point
        values formed from nodal values, w1 x_n1 + w2 x_n2, round an ulp
        away from x_i, and then a constant 7.3 fired it at 335 of the 441
        nodes of the explicit example; slopes formed from the pairs'
        differences are exact zeros."""
        mesh = oracles.jittered_delaunay_mesh(n, jitter, seed)
        st = build_sym_stencils(mesh)
        alpha = compute_alpha(np.full(mesh.num_nodes, c), 2.0, mesh, st)
        assert np.all(alpha == 0.0)

    @settings(max_examples=30, deadline=None)
    @given(n=hs.integers(3, 10), jitter=hs.floats(0.0, 0.35),
           seed=hs.integers(0, 2**32 - 1), offset=hs.floats(-100.0, 100.0),
           q=hs.floats(1.0, 4.0))
    def test_matches_pair_oracle(self, n, jitter, seed, offset, q):
        """alpha_i from the per-pair ``jump`` and ``mean`` of the oracle,
        which evaluates x at the symmetric point from nodal values, while
        the package sums the pairs' differences.  The two slopes s2 of a
        pair then differ by at most 8 eps max|x| / r_sym, so with the
        roundoff of the sums both sums of a node differ by at most err, and
        its alpha by 2 q err / (den - err), wherever both sides take the
        same branch of the tolerance."""
        mesh = oracles.jittered_delaunay_mesh(n, jitter, seed)
        st = build_sym_stencils(mesh)
        rng = np.random.default_rng(seed)
        x = offset + rng.uniform(-1.0, 1.0, size=mesh.num_nodes)
        x[rng.random(mesh.num_nodes) < 0.2] = offset  # ties between pairs
        alpha = compute_alpha(x, q, mesh, st)
        ptr = mesh.pair_ptr
        for i in range(mesh.num_nodes):
            pairs = range(ptr[i], ptr[i + 1])
            num = abs(sum(jump(i, mesh.pair_j[p], x, st) for p in pairs))
            den = sum(2.0 * mean(i, mesh.pair_j[p], x, st) for p in pairs)
            err = 16.0 * EPS * (np.abs(x).max()
                                * np.sum(1.0 / st.r_sym_len[ptr[i]:ptr[i + 1]])
                                + den)
            if den > DENOMINATOR_TOL + err:
                want = min(num / den, 1.0) ** q
                assert abs(alpha[i] - want) <= 2.0 * q * err / (den - err)
            elif den + err <= DENOMINATOR_TOL:
                assert alpha[i] == 0.0

    def test_map_built_once_per_stencil(self, map_builds):
        mesh = oracles.jittered_delaunay_mesh(6, 0.3, 3)
        x = np.random.default_rng(3).normal(size=mesh.num_nodes)
        for st in (build_sym_stencils(mesh), build_sym_stencils(mesh)):
            first = compute_alpha(x, 2.0, mesh, st)
            for _ in range(3):
                assert np.array_equal(compute_alpha(x, 2.0, mesh, st), first)
        assert map_builds == {"drift_map": 0, "sym_map": 2}
