import numpy as np
import pytest

from pnpfem import (
    assemble_drift,
    build_stabilizer_alg1,
    build_stabilizer_alg2,
    compute_alpha,
    entropy_functions,
    star_transport,
    star_transport_vector,
)

import oracles
from oracles import (d2g0, dg0, pair_fluxes_alg1, pair_fluxes_alg2,
                     secant_slope)


@pytest.fixture(scope="module")
def fns():
    return entropy_functions(0.1)


class TestEntropyFunctions:
    def test_derivative_continuous_at_threshold(self, fns):
        eps = fns.epsilon
        upper = np.log(eps)
        lower = eps / eps + np.log(eps) - 1.0
        assert upper == pytest.approx(lower, abs=1e-15)
        assert fns.dg(eps) == pytest.approx(np.log(eps), abs=1e-15)

    def test_entropy_density_vanishes_at_one(self, fns):
        assert fns.g0(1.0) == 0.0
        assert fns.g(1.0) == 0.0

    def test_regularized_branch_value(self, fns):
        # direct evaluation of the quadratic branch at eps/2
        eps = fns.epsilon
        s = eps / 2.0
        expected = (s * s - eps * eps) / (2 * eps) + (np.log(eps) - 1) * s + 1.0
        assert fns.g(s) == pytest.approx(expected, rel=1e-15)

    def test_convexity_samples(self, fns):
        s = np.linspace(-0.5, 3.0, 101)
        g = fns.g(s)
        assert np.all(g[:-2] - 2 * g[1:-1] + g[2:] >= -1e-12)

    def test_entropy_at_zero_by_continuity(self, fns):
        assert fns.g0(0.0) == 1.0

    def test_negative_argument_rejected(self, fns):
        for method in (fns.g0, dg0, d2g0):
            with pytest.raises(ValueError):
                method(-0.1)

    def test_second_derivative(self, fns):
        assert d2g0(4.0) == pytest.approx(0.25)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            entropy_functions(0.0)


class TestPairFluxesAlg1:
    def test_constant_potential(self, square8, square8_ops):
        mesh, M, K = square8, square8_ops["mass"], square8_ops["stiffness"]
        G = assemble_drift(mesh, np.ones(mesh.num_nodes))
        i, j = int(mesh.edge_i[10]), int(mesh.edge_j[10])
        plus, minus = pair_fluxes_alg1(i, j, 1.0, M, K, G)
        assert plus == pytest.approx(M[i, j] + K[i, j], abs=1e-15)
        assert minus == pytest.approx(plus, abs=1e-15)

    def test_sum_cancels_drift(self, square8, square8_ops, rng):
        mesh = square8
        G = assemble_drift(mesh, rng.normal(size=mesh.num_nodes))
        M, K = square8_ops["mass"], square8_ops["stiffness"]
        k = 0.25
        for e in range(0, mesh.edge_i.size, 17):
            i, j = int(mesh.edge_i[e]), int(mesh.edge_j[e])
            plus, minus = pair_fluxes_alg1(i, j, k, M, K, G)
            assert plus + minus == pytest.approx(
                2 * (M[i, j] / k + K[i, j]), rel=1e-13
            )

    def test_two_element_mesh_against_quadrature(self, two_elem_mesh):
        mesh = two_elem_mesh
        phi = mesh.nodes[:, 0].copy()
        from pnpfem import assemble_mass, assemble_stiffness
        M, K = assemble_mass(mesh), assemble_stiffness(mesh)
        G = assemble_drift(mesh, phi)
        Mq = oracles.quad_mass(mesh)
        Kq = oracles.quad_stiffness(mesh)
        Gq = oracles.quad_drift(mesh, phi)
        plus, minus = pair_fluxes_alg1(0, 2, 1.0, M, K, G)  # diagonal edge
        assert plus == pytest.approx(Mq[0, 2] + Kq[0, 2] + Gq[0, 2], abs=1e-13)
        assert minus == pytest.approx(Mq[0, 2] + Kq[0, 2] - Gq[0, 2], abs=1e-13)

    def test_rejects_bad_timestep(self, square8, square8_ops):
        with pytest.raises(ValueError):
            pair_fluxes_alg1(0, 1, 0.0, square8_ops["mass"],
                             square8_ops["stiffness"], square8_ops["mass"])


def _stab_inputs(mesh, stencil, rng):
    x = rng.uniform(0.5, 2.0, size=mesh.num_nodes)
    phi = rng.normal(size=mesh.num_nodes)
    alpha = compute_alpha(x, 2.0, mesh, stencil)
    return x, phi, alpha


class TestStabilizerAlg1:
    def test_graph_laplacian_properties(self, square8, square8_stencil,
                                        square8_ops, rng):
        mesh = square8
        M, K = square8_ops["mass"], square8_ops["stiffness"]
        for sign in (+1, -1):
            x, phi, alpha = _stab_inputs(mesh, square8_stencil, rng)
            G = assemble_drift(mesh, phi)
            B = build_stabilizer_alg1(sign, 0.01, alpha, mesh, M, K, G)
            A = B.matrix
            n = mesh.num_nodes
            assert np.abs(A @ np.ones(n)).max() < 1e-13
            assert np.abs(np.asarray(A.sum(axis=0))).max() < 1e-13
            assert abs(A - A.T).max() < 1e-13
            assert np.all(B.weights >= 0.0)
            xt = rng.normal(size=n)
            assert (B.matrix @ xt) @ np.ones(n) == pytest.approx(0.0, abs=1e-10)
            assert xt @ (A @ xt) >= -1e-12

    def test_zero_alpha_gives_zero_matrix(self, square8, square8_ops, rng):
        mesh = square8
        G = assemble_drift(mesh, rng.normal(size=mesh.num_nodes))
        B = build_stabilizer_alg1(+1, 0.01, np.zeros(mesh.num_nodes), mesh,
                                  square8_ops["mass"],
                                  square8_ops["stiffness"], G)
        assert B.matrix.nnz == 0 or abs(B.matrix).max() == 0.0

    def test_constant_in_kernel(self, square8, square8_stencil, square8_ops,
                                rng):
        mesh = square8
        x, phi, alpha = _stab_inputs(mesh, square8_stencil, rng)
        G = assemble_drift(mesh, phi)
        B = build_stabilizer_alg1(-1, 0.5, alpha, mesh, square8_ops["mass"],
                                  square8_ops["stiffness"], G)
        assert np.abs(B.matrix @ np.full(mesh.num_nodes, 3.3)).max() < 1e-12

    def test_rejects_bad_timestep_and_sign(self, square8, square8_ops):
        mesh, M, K = square8, square8_ops["mass"], square8_ops["stiffness"]
        G = assemble_drift(mesh, np.zeros(mesh.num_nodes))
        alpha = np.ones(mesh.num_nodes)
        for sign, k in ((+1, 0.0), (-1, -0.5), (0, 0.01), (2, 0.01)):
            with pytest.raises(ValueError):
                build_stabilizer_alg1(sign, k, alpha, mesh, M, K, G)

    def test_extremum_activates_incident_edges(self, square8,
                                               square8_stencil, square8_ops):
        mesh = square8
        x = np.ones(mesh.num_nodes)
        i = 4 * 9 + 4
        x[i] = 2.0  # strict interior max
        alpha = compute_alpha(x, 2.0, mesh, square8_stencil)
        assert alpha[i] == 1.0
        G = assemble_drift(mesh, np.zeros(mesh.num_nodes))
        B = build_stabilizer_alg1(+1, 0.01, alpha, mesh, square8_ops["mass"],
                                  square8_ops["stiffness"], G)
        M, K = square8_ops["mass"], square8_ops["stiffness"]
        for e in range(mesh.edge_i.size):
            a, b = int(mesh.edge_i[e]), int(mesh.edge_j[e])
            if i in (a, b):
                f = M[a, b] / 0.01 + K[a, b]
                if f > 0:
                    assert B.weights[e] == pytest.approx(f, rel=1e-13)


class TestSecantSlope:
    def test_equal_values_above_threshold(self, square8, fns):
        x = np.full(square8.num_nodes, 0.7)
        assert secant_slope(0, 1, x, fns) == 0.7

    def test_equal_values_below_threshold(self, square8, fns):
        x = np.full(square8.num_nodes, 0.01)
        assert secant_slope(0, 1, x, fns) == fns.epsilon

    def test_log_branch_value(self, square8, fns):
        x = np.ones(square8.num_nodes)
        x[1] = np.e
        assert secant_slope(0, 1, x, fns) == pytest.approx(np.e - 1.0,
                                                           rel=1e-14)

    def test_symmetry(self, square8, fns, rng):
        x = rng.uniform(0.2, 3.0, size=square8.num_nodes)
        assert secant_slope(0, 1, x, fns) == pytest.approx(
            secant_slope(1, 0, x, fns), rel=1e-14
        )

    def test_nonnegative_for_nonnegative_fields(self, square8, fns, rng):
        x = rng.uniform(0.0, 2.0, size=square8.num_nodes)
        for e in range(0, square8.edge_i.size, 11):
            i, j = int(square8.edge_i[e]), int(square8.edge_j[e])
            assert secant_slope(i, j, x, fns) >= 0.0


class TestStarTransport:
    def test_constant_potential_vanishes(self, square8, square8_ops, fns, rng):
        mesh, K = square8, square8_ops["stiffness"]
        x = rng.uniform(0.5, 2.0, size=mesh.num_nodes)
        xbar = rng.normal(size=mesh.num_nodes)
        phi = np.full(mesh.num_nodes, 2.0)
        assert star_transport(x, phi, xbar, fns, K, mesh) == 0.0

    def test_telescopes_to_diffusion_pairing(self, square8, square8_ops, fns,
                                             rng):
        # testing against the interpolated entropy derivative recovers
        # (grad x, grad phi)
        mesh, K = square8, square8_ops["stiffness"]
        x = rng.uniform(0.5, 3.0, size=mesh.num_nodes)
        phi = rng.normal(size=mesh.num_nodes)
        xbar = np.asarray(fns.dg(x))
        got = star_transport(x, phi, xbar, fns, K, mesh)
        assert got == pytest.approx(x @ (K @ phi), rel=1e-11, abs=1e-11)

    def test_constant_density_scales_potential_pairing(self, square8,
                                                       square8_ops, fns, rng):
        mesh, K = square8, square8_ops["stiffness"]
        c = 1.4
        x = np.full(mesh.num_nodes, c)
        phi = rng.normal(size=mesh.num_nodes)
        xbar = rng.normal(size=mesh.num_nodes)
        got = star_transport(x, phi, xbar, fns, K, mesh)
        assert got == pytest.approx(c * (xbar @ (K @ phi)), rel=1e-12)

    def test_vector_pairs_with_test_function(self, square8, square8_ops, fns,
                                             rng):
        mesh, K = square8, square8_ops["stiffness"]
        x = rng.uniform(0.5, 2.0, size=mesh.num_nodes)
        phi = rng.normal(size=mesh.num_nodes)
        v = star_transport_vector(x, phi, fns, K, mesh)
        xbar = rng.normal(size=mesh.num_nodes)
        assert v @ xbar == pytest.approx(
            star_transport(x, phi, xbar, fns, K, mesh), rel=1e-14
        )
        # testing with a constant sees no transport
        assert v.sum() == pytest.approx(0.0, abs=1e-12)


class TestPairFluxesAlg2:
    def test_equal_values_give_zero(self, square8, square8_ops, fns):
        x = np.ones(square8.num_nodes)
        phi = square8.nodes[:, 1].copy()
        plus, minus = pair_fluxes_alg2(0, 1, x, phi, fns,
                                       square8_ops["stiffness"])
        assert plus == 0.0 and minus == 0.0

    def test_constant_potential_reduces_to_stiffness(self, square8,
                                                     square8_ops, fns, rng):
        mesh, K = square8, square8_ops["stiffness"]
        x = rng.uniform(0.5, 2.0, size=mesh.num_nodes)
        phi = np.full(mesh.num_nodes, -4.0)
        i, j = int(mesh.edge_i[5]), int(mesh.edge_j[5])
        plus, minus = pair_fluxes_alg2(i, j, x, phi, fns, K)
        assert plus == pytest.approx(K[i, j], rel=1e-14)
        assert minus == pytest.approx(K[i, j], rel=1e-14)

    def test_bracket_formula(self, square8, square8_ops, fns):
        mesh, K = square8, square8_ops["stiffness"]
        i, j = int(mesh.edge_i[3]), int(mesh.edge_j[3])
        x = np.ones(mesh.num_nodes)
        x[j] = np.e
        phi = np.zeros(mesh.num_nodes)
        phi[j] = 1.0  # dphi = 1 on this pair
        bracket = 1.0 - 1.0 / (np.e - 1.0)
        plus, minus = pair_fluxes_alg2(i, j, x, phi, fns, K)
        assert plus == pytest.approx((1 + bracket) * K[i, j], rel=1e-13)
        assert minus == pytest.approx((1 - bracket) * K[i, j], rel=1e-13)


class TestStabilizerAlg2:
    def test_graph_laplacian_properties(self, square8, square8_stencil,
                                        square8_ops, rng):
        mesh, K = square8, square8_ops["stiffness"]
        for sign in (+1, -1):
            x, phi, alpha = _stab_inputs(mesh, square8_stencil, rng)
            B = build_stabilizer_alg2(sign, x, phi, alpha,
                                      entropy_functions(0.25), K, mesh)
            A = B.matrix
            n = mesh.num_nodes
            assert np.abs(A @ np.ones(n)).max() < 1e-13
            assert abs(A - A.T).max() < 1e-13
            assert np.all(B.weights >= 0.0)
            xt = rng.normal(size=n)
            assert (A @ xt) @ np.ones(n) == pytest.approx(0.0, abs=1e-10)
            assert xt @ (A @ xt) == pytest.approx(
                B.weights @ (xt[mesh.edge_j] - xt[mesh.edge_i]) ** 2,
                rel=1e-12, abs=1e-12,
            )

    def test_rejects_bad_sign(self, square8, square8_ops, fns):
        x = np.ones(square8.num_nodes)
        for sign in (0, 2):
            with pytest.raises(ValueError):
                build_stabilizer_alg2(sign, x, x, x, fns,
                                      square8_ops["stiffness"], square8)

    def test_zero_alpha_gives_zero_matrix(self, square8, square8_ops, fns,
                                          rng):
        mesh = square8
        x = rng.uniform(0.5, 2.0, size=mesh.num_nodes)
        phi = rng.normal(size=mesh.num_nodes)
        B = build_stabilizer_alg2(+1, x, phi, np.zeros(mesh.num_nodes), fns,
                                  square8_ops["stiffness"], mesh)
        assert abs(B.matrix).max() == 0.0
