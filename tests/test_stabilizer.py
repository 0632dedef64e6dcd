import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pnpfem import (
    Assemblies,
    BoundarySpec,
    SolverConfig,
    State,
    assemble_drift,
    assemble_mass,
    assemble_stiffness,
    build_stabilizer_alg1,
    build_stabilizer_alg2,
    build_sym_stencils,
    compute_alpha,
    entropy_functions,
    star_transport,
    star_transport_vector,
)
from pnpfem.scenarios import scenario_from_config
from pnpfem.solver import _StepContext, run
from pnpfem.stabilizer import Alg2Edges, transport_matrix

import oracles
from oracles import (d2g0, dg0, g, pair_fluxes_alg1, pair_fluxes_alg2,
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
        assert g(1.0, fns.epsilon) == 0.0

    def test_regularized_branch_value(self, fns):
        # the quadratic branch takes the exact density's value at eps, and
        # the package's dg is the slope of the reference density on both
        # branches
        eps, h = fns.epsilon, 1e-6
        assert g(eps, eps) == pytest.approx(fns.g0(eps), rel=1e-15)
        for s in (eps / 2.0, 2.0 * eps, 1.5):
            slope = (g(s + h, eps) - g(s - h, eps)) / (2.0 * h)
            assert fns.dg(s) == pytest.approx(slope, rel=1e-7)

    def test_convexity_samples(self, fns):
        s = np.linspace(-0.5, 3.0, 101)
        gs = np.array([g(x, fns.epsilon) for x in s])
        assert np.all(gs[:-2] - 2 * gs[1:-1] + gs[2:] >= -1e-12)

    def test_entropy_at_zero_by_continuity(self, fns):
        assert fns.g0(0.0) == 1.0

    def test_negative_argument_rejected(self, fns):
        for method in (fns.g0, dg0, d2g0):
            with pytest.raises(ValueError):
                method(-0.1)

    def test_second_derivative(self, fns):
        assert d2g0(4.0) == pytest.approx(0.25)

    def test_rejects_bad_epsilon(self):
        for epsilon in (0.0, float("nan"), float("inf"), True):
            with pytest.raises(ValueError, match="'epsilon'"):
                entropy_functions(epsilon)


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
        for k in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="'timestep'"):
                build_stabilizer_alg1(+1, k, alpha, mesh, M, K, G)

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


class TestUpwindTransport:
    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(3, 10), jitter=st.floats(0.0, 0.35),
           seed=st.integers(0, 2**32 - 1), field=st.floats(0.1, 100.0),
           k=st.floats(1e-3, 1.0))
    # a nearly cocircular edge whose K_ij is roundoff
    @example(n=4, jitter=1e-14, seed=138, field=1.0, k=1.0)
    def test_split_on_jittered_delaunay(self, n, jitter, seed, field, k):
        """The transport matrix T of each species, stepped from the upwind
        one toward the Jacobian: every off-diagonal of A is at most
        max(the upwind split's, 0), with no tolerance, T's columns sum to
        zero, T x plus the remainder is the transport, T is the edge-by-edge
        oracle's, whose step lies in [0, 1], the remainder of an edge with
        the whole step and both ends above epsilon vanishes to roundoff,
        and the Alg. 2 residual is the one with the transport all in b."""
        mesh = oracles.jittered_delaunay_mesh(n, jitter, seed)
        fns = entropy_functions(1e-8)
        asm = Assemblies(mesh, build_sym_stencils(mesh), BoundarySpec(), fns)
        K, N = asm.stiffness, mesh.num_nodes
        rng = np.random.default_rng(seed)
        p_old, n_old, p, n = rng.uniform(0.01, 3.0, size=(4, N))
        phi = field * rng.normal(size=N)
        ctx = _StepContext(State(p_old, n_old, phi, 0.0),
                           SolverConfig(algorithm=2, k=k), asm)
        _, _, ((A_p, b_p), (A_n, b_n)), _ = ctx.residual_parts(
            np.concatenate([p, n]), (phi, ctx.iterate_part(p, n, phi)))
        a_p = compute_alpha(p, 2.0, mesh, asm.stencil)
        a_n = compute_alpha(n, 2.0, mesh, asm.stencil)
        kij = K.data[mesh.edge_slots]
        for sign, x, alpha, A in ((+1, p, a_p, A_p), (-1, n, a_n, A_n)):
            edges = Alg2Edges.of(x, phi, fns, K, mesh)
            B = build_stabilizer_alg2(sign, x, phi, alpha, fns, K, mesh,
                                      edges=edges)
            values, Tx = transport_matrix(sign, edges, B.weights)
            T = mesh.csr(values)
            scale = abs(T).max()
            # the upwind split's entries of A at (i, j) and (j, i)
            sig, off = sign * edges.s, kij - B.weights
            upwind = (off + np.minimum(sig, 0.0), off + np.minimum(-sig, 0.0))
            for slots, bound in zip((mesh.edge_slots, mesh.edge_slots_t),
                                    upwind):
                assert np.all(A[slots] <= np.maximum(bound, 0.0))
                assert np.all(A[slots][kij <= 0.0] <= 0.0)
            assert np.abs(T.sum(axis=0)).max() <= 1e-13 * scale
            assert np.abs(Tx - T @ x).max() <= 1e-13 * scale * x.max()
            T_loop, _, lam = oracles.loop_transport_matrix(
                sign, x, phi, B.matrix, K, fns, mesh)
            assert abs(T - T_loop).max() <= 1e-12 * scale
            assert all(0.0 <= step <= 1.0 for step in lam.values())
            # the remainder s tau - (c_i x_i + c_j x_j) of each edge
            r = np.zeros(N)
            for (i, j), step in lam.items():
                s = (phi[j] - phi[i]) * K[i, j]
                rest = (s * oracles.secant_slope(i, j, x, fns)
                        - (-T[j, i] * x[i] + T[i, j] * x[j]))
                r[i] += rest
                r[j] -= rest
                if step == 1.0 and min(x[i], x[j]) > fns.epsilon:
                    # the partials lose digits as the ends draw together
                    big = max(x[i], x[j])
                    gap = abs(x[j] - x[i])
                    conditioning = 1.0 + (big / gap if gap else 0.0)
                    assert abs(rest) <= 1e-13 * abs(s) * big * conditioning
            v = star_transport_vector(x, phi, fns, K, mesh)
            assert np.abs(T @ x + r - v).max() <= 1e-12 * scale * x.max()
        (r_p, r_n), terms = oracles.coo_residual(
            2, k, mesh, fns, p_old, n_old, p, n, phi, a_p, a_n,
            asm.p_fixed, asm.p_fixed_values)
        got = np.concatenate([mesh.csr(A_p) @ p - b_p,
                              mesh.csr(A_n) @ n - b_n])
        scale = max(np.abs(t).max() for t in terms)
        assert np.abs(got - np.concatenate([r_p, r_n])).max() <= 1e-12 * scale

    def test_wave_systems_keep_their_signs(self, monkeypatch):
        """On the wave, channel_wave under Alg. 2 at cell 0.25, the step is
        partial on some edges and whole on others at the start, and every
        off-diagonal of every A_p and A_n that its first three steps build
        is at most zero, with no tolerance."""
        sc = scenario_from_config({
            "scenario": "channel_wave", "algorithm": 2,
            "mesh": {"cell": 0.25}, "k": 0.01, "T": 0.03}, "test")
        mesh = sc.make_mesh()
        fns = entropy_functions(1e-8)
        asm = Assemblies(mesh, build_sym_stencils(mesh), sc.bc, fns)
        p, n = sc.initial_fields(mesh)
        phi = asm.poisson.solve(p - n)
        K = asm.stiffness
        for sign, x in ((+1, p), (-1, n)):
            alpha = compute_alpha(x, sc.config.q, mesh, asm.stencil)
            B = build_stabilizer_alg2(sign, x, phi, alpha, fns, K, mesh)
            lam = oracles.loop_transport_matrix(sign, x, phi, B.matrix, K,
                                                fns, mesh)[2]
            assert min(lam.values()) < 0.5 and max(lam.values()) == 1.0
        largest, build = [], _StepContext.iterate_part

        def recorded(self, *args):
            part = build(self, *args)
            for A, _ in part:
                off = A.copy()
                off[mesh.diag_slots] = -np.inf
                largest.append(off.max())
            return part

        monkeypatch.setattr(_StepContext, "iterate_part", recorded)
        assert len(run(sc).reports) == 3
        assert len(largest) > 20 and max(largest) <= 0.0

    def test_rejects_bad_sign(self, square8, square8_ops, fns):
        x = np.ones(square8.num_nodes)
        edges = Alg2Edges.of(x, x, fns, square8_ops["stiffness"], square8)
        for sign in (0, 2):
            with pytest.raises(ValueError):
                transport_matrix(sign, edges, np.zeros(square8.edge_i.size))


class TestSaturatedAlg1Systems:
    @pytest.mark.parametrize("seed", range(1, 6))
    @pytest.mark.parametrize("k", [1e-3, 1e-2])
    def test_no_positive_off_diagonal_where_alpha_is_one(self, seed, k,
                                                         monkeypatch):
        """With the detector saturated at 1 on every node, Alg. 1's A_p and
        A_n have no positive off-diagonal entry, with no tolerance: the
        builder's couplings f_ij and f_ji are the unstabilized systems' own
        entries, bit for bit (the M-matrix property behind the DMP:
        Barrenechea, John & Knobloch, SIAM J. Numer. Anal. 54, 2016)."""
        import pnpfem.solver as solver
        import pnpfem.stabilizer as stabilizer
        mesh = oracles.jittered_delaunay_mesh(12, 0.3, seed)
        asm = Assemblies(mesh, build_sym_stencils(mesh), BoundarySpec(),
                         entropy_functions(1e-8))
        N = mesh.num_nodes
        rng = np.random.default_rng(seed)
        p, n = rng.uniform(0.5, 2.0, size=(2, N))
        phi = 10.0 * rng.normal(size=N)
        ctx = _StepContext(State(p, n, phi, 0.0),
                           SolverConfig(algorithm=1, k=k), asm)
        # alpha = 0 leaves the systems unstabilized
        monkeypatch.setattr(solver, "compute_alpha",
                            lambda x, *args: np.zeros(N))
        (bare_p, _), (bare_n, _) = ctx.iterate_part(p, n, phi)
        couplings, build = [], stabilizer._stabilizer

        def recorded(alpha, f_ij, f_ji, mesh):
            couplings.append((f_ij, f_ji))
            return build(alpha, f_ij, f_ji, mesh)

        monkeypatch.setattr(stabilizer, "_stabilizer", recorded)
        monkeypatch.setattr(solver, "compute_alpha",
                            lambda x, *args: np.ones(N))
        (A_p, _), (A_n, _) = ctx.iterate_part(p, n, phi)
        assert len(couplings) == 2
        for A, bare, (f_ij, f_ji) in zip((A_p, A_n), (bare_p, bare_n),
                                         couplings):
            assert np.array_equal(f_ij, bare[mesh.edge_slots])
            assert np.array_equal(f_ji, bare[mesh.edge_slots_t])
            assert max(f_ij.max(), f_ji.max()) > 0.0
            off = A.copy()
            off[mesh.diag_slots] = 0.0
            assert off.max() <= 0.0


class TestJitteredDelaunayProperties:
    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(3, 12), jitter=st.floats(0.0, 0.35),
           seed=st.integers(0, 2**32 - 1), q=st.floats(0.5, 4.0))
    def test_detector_in_unit_interval(self, n, jitter, seed, q):
        mesh = oracles.jittered_delaunay_mesh(n, jitter, seed)
        stencil = build_sym_stencils(mesh)
        rng = np.random.default_rng(seed)
        x, y = mesh.nodes.T
        for field in (rng.uniform(0.0, 3.0, size=mesh.num_nodes),
                      np.tanh(10.0 * (x + y - 1.0)),
                      np.where(rng.random(mesh.num_nodes) < 0.2, 1.0, 0.0)):
            alpha = compute_alpha(field, q, mesh, stencil)
            assert alpha.min() >= 0.0 and alpha.max() <= 1.0

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(3, 12), jitter=st.floats(0.0, 0.35),
           seed=st.integers(0, 2**32 - 1), k=st.floats(1e-3, 1.0),
           field=st.floats(0.1, 100.0))
    def test_stabilizers_are_graph_laplacians(self, n, jitter, seed, k,
                                              field):
        """Both schemes' stabilizers, for either sign, are symmetric, have
        zero row sums and nonnegative weights, and are positive
        semidefinite."""
        mesh = oracles.jittered_delaunay_mesh(n, jitter, seed)
        stencil = build_sym_stencils(mesh)
        rng = np.random.default_rng(seed)
        N = mesh.num_nodes
        x = rng.uniform(0.01, 3.0, size=N)
        phi = field * rng.normal(size=N)
        alpha = compute_alpha(x, 2.0, mesh, stencil)
        M, K = assemble_mass(mesh), assemble_stiffness(mesh)
        G = assemble_drift(mesh, phi)
        fns = entropy_functions(1e-8)
        for sign in (+1, -1):
            for B in (build_stabilizer_alg1(sign, k, alpha, mesh, M, K, G),
                      build_stabilizer_alg2(sign, x, phi, alpha, fns, K,
                                            mesh)):
                A = B.matrix.toarray()
                scale = np.abs(A).sum(axis=1).max()
                assert np.all(B.weights >= 0.0)
                assert np.array_equal(A, A.T)
                assert np.abs(A.sum(axis=1)).max() <= 1e-13 * scale
                assert np.linalg.eigvalsh(A).min() >= -1e-12 * scale
