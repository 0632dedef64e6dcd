import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pnpfem import (
    Assemblies,
    BoundarySpec,
    ElectroneutralityError,
    LinearSolveError,
    PoissonSolver,
    Scenario,
    SolverConfig,
    State,
    StepError,
    build_channel,
    build_sym_stencils,
    build_unit_square,
    entropy_functions,
    picard_step_alg1,
    picard_step_alg2,
    run,
)
from pnpfem import diagnostics
from pnpfem.fespace import assemble_stiffness, lumped_mass_vector
from pnpfem.mesh import BOTTOM, INTERIOR, OTHER_BOUNDARY, TOP, Mesh
from pnpfem.scenarios import (
    builtin_scenario, scenario_from_config, smooth_n0, smooth_p0, wave_n0,
    wave_p0)
from pnpfem.solver import (
    ANDERSON_DEPTH,
    DMP_TOL,
    EPSILON,
    LINEAR_TOL,
    RELAXATION,
    LaggedFactor,
    SolvePlan,
    _StepContext,
    _anderson_mix,
)

import oracles


def uniform_scenario(algorithm, k=1e-2, T=0.05, n=8):
    return Scenario(
        "neutral", ("square", n),
        (lambda x, y: np.ones_like(x), lambda x, y: np.ones_like(x), "nodal"),
        BoundarySpec(),
        SolverConfig(algorithm=algorithm, k=k, T=T),
    )


def smooth_scenario(algorithm, k=1e-3, T=5e-3, n=12):
    return Scenario(
        "smooth-small", ("square", n), (smooth_p0, smooth_n0, "averaged"),
        BoundarySpec(), SolverConfig(algorithm=algorithm, k=k, T=T),
    )


def first_state(sc):
    """The assemblies and initial state of a scenario, as ``run`` builds
    them, with the initial density range."""
    mesh = sc.make_mesh()
    p0, n0 = sc.initial_fields(mesh)
    asm = Assemblies(mesh, build_sym_stencils(mesh), sc.bc,
                     entropy_functions(EPSILON))
    bounds = (min(p0.min(), n0.min()), max(p0.max(), n0.max()))
    return asm, State(p0, n0, asm.poisson.solve(p0 - n0), 0.0), bounds


def unreachable_tolerance(sc, max_iters):
    sc.config.picard_residual_tol = 1e-300
    sc.config.picard_max_iters = max_iters
    return sc


class TestPoisson:
    def test_balanced_charge_gives_zero_potential(self, square8):
        K = assemble_stiffness(square8)
        d = lumped_mass_vector(square8)
        phi = PoissonSolver(square8, K, d, BoundarySpec(), SolvePlan(square8)
                            ).solve(np.zeros(square8.num_nodes))
        assert np.abs(phi).max() == 0.0

    def test_zero_mean_and_equation(self, square8, rng):
        K = assemble_stiffness(square8)
        d = lumped_mass_vector(square8)
        rho = rng.normal(size=square8.num_nodes)
        rho -= (d @ rho) / d.sum()
        phi = PoissonSolver(square8, K, d, BoundarySpec(), SolvePlan(square8)
                            ).solve(rho)
        assert d @ phi == pytest.approx(0.0, abs=1e-10)
        assert np.abs(K @ phi - d * rho).max() < 1e-11

    def test_common_shift_leaves_potential_unchanged(self, square8, rng):
        K = assemble_stiffness(square8)
        d = lumped_mass_vector(square8)
        p = rng.uniform(1.0, 2.0, size=square8.num_nodes)
        n = p + rng.normal(scale=0.1, size=square8.num_nodes)
        n -= (d @ (n - p)) / d.sum()
        poisson = PoissonSolver(square8, K, d, BoundarySpec(),
                                SolvePlan(square8))
        base = poisson.solve(p - n)
        shifted = poisson.solve((p + 5.0) - (n + 5.0))
        assert shifted == pytest.approx(base, abs=1e-12)

    def test_electroneutrality_violation_raises(self, square8):
        K = assemble_stiffness(square8)
        d = lumped_mass_vector(square8)
        with pytest.raises(ElectroneutralityError):
            PoissonSolver(square8, K, d, BoundarySpec(), SolvePlan(square8)
                          ).solve(np.ones(square8.num_nodes))

    # (mesh, Dirichlet data, charge): the channel's plates at -+50 with no
    # charge, and a jittered Delaunay mesh held at 2 with a random charge
    DIRICHLET_CASES = {
        "channel": (lambda: build_channel(0.5), {BOTTOM: -50.0, TOP: 50.0},
                    lambda n: np.zeros(n)),
        "delaunay": (lambda: oracles.jittered_delaunay_mesh(10, 0.3, seed=7),
                     {OTHER_BOUNDARY: 2.0},
                     lambda n: np.random.default_rng(5).normal(size=n)),
    }

    @pytest.mark.parametrize("where", sorted(DIRICHLET_CASES))
    def test_dirichlet_matches_reduced_system_oracle(self, where):
        make_mesh, values, charge = self.DIRICHLET_CASES[where]
        mesh = make_mesh()
        K = assemble_stiffness(mesh)
        d = lumped_mass_vector(mesh)
        rho = charge(mesh.num_nodes)
        bc = BoundarySpec(phi_dirichlet=values)
        phi = PoissonSolver(mesh, K, d, bc, SolvePlan(mesh)).solve(rho)
        # independent dense solve of the constrained system
        A = K.toarray().copy()
        b = d * rho
        for tag, val in values.items():
            for i in mesh.nodes_with_tag(tag):
                A[i, :] = 0.0
                A[i, i] = 1.0
                b[i] = val
        expected = np.linalg.solve(A, b)
        assert phi == pytest.approx(expected, abs=1e-9)
        for tag, val in values.items():
            assert np.all(phi[mesh.nodes_with_tag(tag)] == val)

    def test_unknown_tag_rejected(self, square8):
        K = assemble_stiffness(square8)
        d = lumped_mass_vector(square8)
        with pytest.raises(ValueError, match="membrane"):
            PoissonSolver(square8, K, d,
                          BoundarySpec(phi_dirichlet={"membrane": 1.0}),
                          SolvePlan(square8)
                          ).solve(np.zeros(square8.num_nodes))

    @pytest.mark.parametrize("phi_dirichlet", [{}, {BOTTOM: -1.0, TOP: 1.0}])
    def test_nan_charge_fails_the_backward_error_gate(self, phi_dirichlet):
        mesh = build_channel(0.5)
        poisson = PoissonSolver(mesh, assemble_stiffness(mesh),
                                lumped_mass_vector(mesh),
                                BoundarySpec(phi_dirichlet=phi_dirichlet),
                                SolvePlan(mesh))
        rho = np.zeros(mesh.num_nodes)
        rho[np.flatnonzero(~mesh.boundary_mask)[0]] = np.nan
        with pytest.raises(LinearSolveError, match="potential"):
            poisson.solve(rho)


class TestSteps:
    @pytest.mark.parametrize("algorithm", [1, 2])
    def test_uniform_neutral_state_is_fixed_point(self, algorithm):
        sc = uniform_scenario(algorithm)
        mesh = sc.make_mesh()
        st = build_sym_stencils(mesh)
        p0, n0 = sc.initial_fields(mesh)
        asm = Assemblies(mesh, st, sc.bc, entropy_functions(0.5))
        state = State(p0, n0, asm.poisson.solve(p0 - n0), 0.0)
        step = picard_step_alg1 if algorithm == 1 else picard_step_alg2
        new, iters, hist, _ = step(state, sc.config, asm)
        assert iters == 1 and hist[-1] <= sc.config.picard_residual_tol
        assert np.abs(new.p - 1.0).max() < 1e-12
        assert np.abs(new.n - 1.0).max() < 1e-12
        assert np.abs(new.phi).max() < 1e-12

    @pytest.mark.parametrize("algorithm", [1, 2])
    def test_smooth_first_step_converges(self, algorithm):
        sc = smooth_scenario(algorithm)
        mesh = sc.make_mesh()
        st = build_sym_stencils(mesh)
        p0, n0 = sc.initial_fields(mesh)
        asm = Assemblies(mesh, st, sc.bc, entropy_functions(EPSILON))
        state = State(p0, n0, asm.poisson.solve(p0 - n0), 0.0)
        step = picard_step_alg1 if algorithm == 1 else picard_step_alg2
        new, iters, hist, _ = step(state, sc.config, asm)
        assert hist[-1] <= 1e-6 and len(hist) == iters + 1

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(3, 12), jitter=st.floats(0.0, 0.35),
           seed=st.integers(0, 2**32 - 1), drop=st.floats(0.0, 10.0))
    def test_alg1_step_conserves_masses_on_jittered_delaunay(self, n, jitter,
                                                             seed, drop):
        # the potential at -drop on the bottom side and drop on the top
        base = oracles.jittered_delaunay_mesh(n, jitter, seed)
        y = base.nodes[:, 1]
        tags = np.select([~base.boundary_mask, y == 0.0, y == 1.0],
                         [INTERIOR, BOTTOM, TOP], OTHER_BOUNDARY)
        mesh = Mesh(base.nodes, base.elements, tags)
        asm = Assemblies(mesh, build_sym_stencils(mesh),
                         BoundarySpec(phi_dirichlet={BOTTOM: -drop,
                                                     TOP: drop}),
                         entropy_functions(EPSILON))
        rng = np.random.default_rng(seed)
        (cp, cn), xy = rng.uniform(0.2, 0.8, size=(2, 2)), mesh.nodes
        p0 = 1.0 + 0.5 * np.exp(-30.0 * ((xy - cp) ** 2).sum(axis=1))
        n0 = 1.0 + 0.5 * np.exp(-30.0 * ((xy - cn) ** 2).sum(axis=1))
        state = State(p0, n0, asm.poisson.solve(p0 - n0), 0.0)
        new, *_ = picard_step_alg1(state, SolverConfig(algorithm=1, k=1e-3),
                                   asm)
        assert asm.d @ new.p == pytest.approx(asm.d @ p0, rel=1e-11)
        assert asm.d @ new.n == pytest.approx(asm.d @ n0, rel=1e-11)

    @pytest.mark.parametrize("algorithm", [1, 2])
    def test_mass_preserved_by_one_step(self, algorithm):
        sc = smooth_scenario(algorithm)
        mesh = sc.make_mesh()
        st = build_sym_stencils(mesh)
        p0, n0 = sc.initial_fields(mesh)
        asm = Assemblies(mesh, st, sc.bc, entropy_functions(EPSILON))
        state = State(p0, n0, asm.poisson.solve(p0 - n0), 0.0)
        step = picard_step_alg1 if algorithm == 1 else picard_step_alg2
        new, *_ = step(state, sc.config, asm)
        assert asm.d @ new.p == pytest.approx(asm.d @ p0, rel=1e-11)
        assert asm.d @ new.n == pytest.approx(asm.d @ n0, rel=1e-11)

    def test_converged_residual_reproducible_from_scratch(self):
        sc = smooth_scenario(1)
        mesh = sc.make_mesh()
        st = build_sym_stencils(mesh)
        p0, n0 = sc.initial_fields(mesh)
        asm = Assemblies(mesh, st, sc.bc, entropy_functions(1e-8))
        state = State(p0, n0, asm.poisson.solve(p0 - n0), 0.0)
        new, iters, hist, _ = picard_step_alg1(state, sc.config, asm)
        from pnpfem.solver import _StepContext
        ctx = _StepContext(state, sc.config, asm)
        res, r, _, (phi, _) = ctx.residual_parts(
            np.concatenate([new.p, new.n]))
        assert res == np.abs(r).max()
        assert res == pytest.approx(hist[-1], abs=1e-12)
        # the new state carries the potential of its own iterate
        assert np.array_equal(phi, new.phi)

    def test_alg2_single_step_entropy_decreases_on_acute_mesh(self, rng):
        from pnpfem import build_equilateral_strip, check_acuteness, entropy_Eh
        mesh = build_equilateral_strip(8, 8, side=0.125)
        st = build_sym_stencils(mesh)
        cx, cy = mesh.nodes.mean(axis=0)
        p0 = 2.0 + 1.5 * np.exp(-40 * ((mesh.nodes[:, 0] - cx - 0.2) ** 2
                                       + (mesh.nodes[:, 1] - cy) ** 2))
        n0 = 2.0 + 1.5 * np.exp(-40 * ((mesh.nodes[:, 0] - cx + 0.2) ** 2
                                       + (mesh.nodes[:, 1] - cy) ** 2))
        bc = BoundarySpec()
        fns = entropy_functions(1.0)
        asm = Assemblies(mesh, st, bc, fns)
        assert check_acuteness(mesh, asm.stiffness).is_acute
        state = State(p0, n0, asm.poisson.solve(p0 - n0), 0.0)
        config = SolverConfig(algorithm=2, k=1e-3, T=1e-3)
        new, *_ = picard_step_alg2(state, config, asm)
        e0 = entropy_Eh(state.p, state.n, state.phi, asm.d, asm.stiffness, fns)
        e1 = entropy_Eh(new.p, new.n, new.phi, asm.d, asm.stiffness, fns)
        assert e1 <= e0 + 1e-8
        lo = min(p0.min(), n0.min())
        hi = max(p0.max(), n0.max())
        assert new.p.min() >= lo - 1e-10 and new.p.max() <= hi + 1e-10
        assert new.n.min() >= lo - 1e-10 and new.n.max() <= hi + 1e-10

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           k=st.sampled_from([0.01, 1.0, 10.0]))
    def test_alg2_entropy_decays_on_strictly_acute_strips(self, seed, k):
        """Five Alg. 2 steps on a jittered strictly acute strip keep every
        in-force flag, the entropy law among them, at any step size.

        Each density is random at every node, times a random exponential
        ramp across the strip, so that the charges separate on its scale
        and the potential drives them.  The lumped charges balance: that is
        the compatibility condition of the pure-Neumann potential, which
        the entropy theorem assumes.  With a net charge ``PoissonSolver``
        projects the mean away, a case still open in ROADMAP.md (item 2(a)).
        """
        from pnpfem import check_acuteness
        mesh = oracles.jittered_equilateral_strip(8, 0.08, seed)
        assume(check_acuteness(mesh, assemble_stiffness(mesh)).is_acute)
        rng = np.random.default_rng(seed)
        xy = mesh.nodes - mesh.nodes.mean(axis=0)
        p0, n0 = (rng.uniform(0.1, 3.0, mesh.num_nodes)
                  * np.exp(xy @ rng.uniform(-4.0, 4.0, 2)) for _ in range(2))
        d = lumped_mass_vector(mesh)
        n0 *= (d @ p0) / (d @ n0)
        result = run(Scenario(
            "strip", ("mesh", mesh), (lambda x, y: p0, lambda x, y: n0,
                                      "nodal"),
            BoundarySpec(), SolverConfig(algorithm=2, k=k, T=5 * k)))
        assert len(result.all_reports()) == 1 + 5
        assert result.in_force["entropy_ok"]
        assert result.flags_ok()

    @pytest.mark.parametrize("algorithm", [1, 2])
    def test_roundoff_floor_raises_step_error(self, algorithm):
        # past roundoff the residual of the 8 x 8 smooth step sits at a
        # floor that a tolerance of 1e-300 cannot reach: the step fails, and
        # its message tells the floor from a divergence by the smallest
        # residual
        sc = unreachable_tolerance(smooth_scenario(algorithm, n=8), 100)
        asm, state, _ = first_state(sc)
        step = picard_step_alg1 if algorithm == 1 else picard_step_alg2
        with pytest.raises(StepError) as err:
            step(state, sc.config, asm)
        hist = err.value.residual_history
        assert len(hist) == 101 and min(hist) < 1e-10
        assert f"residual {hist[-1]:g} after 100 iterations" in str(err.value)
        assert f"smallest {min(hist):g}" in str(err.value)

    def test_unreachable_tolerance_raises_step_error(self):
        sc = unreachable_tolerance(smooth_scenario(1), 3)
        mesh = sc.make_mesh()
        st = build_sym_stencils(mesh)
        p0, n0 = sc.initial_fields(mesh)
        asm = Assemblies(mesh, st, sc.bc, entropy_functions(1e-8))
        state = State(p0, n0, asm.poisson.solve(p0 - n0), 0.0)
        with pytest.raises(StepError) as err:
            picard_step_alg1(state, sc.config, asm)
        assert len(err.value.residual_history) == 4


class TestRun:
    def test_zero_steps_returns_initial_report(self):
        sc = uniform_scenario(1, k=0.1, T=0.05)
        result = run(sc)
        assert result.reports == []
        assert result.all_reports() == [result.initial_report]
        assert result.initial_report.t == 0.0
        assert result.state.t == 0.0

    def test_report_count_matches_steps(self):
        sc = uniform_scenario(1, k=0.01, T=0.05)
        result = run(sc)
        assert len(result.reports) == 5
        assert result.reports[-1].t == pytest.approx(0.05)
        assert len(result.all_reports()) == 6

    @pytest.mark.parametrize("algorithm", [1, 2])
    def test_stationarity_of_neutral_state(self, algorithm):
        sc = uniform_scenario(algorithm, k=1e-2, T=0.5)  # 50 steps
        result = run(sc)
        assert len(result.reports) == 50
        assert np.abs(result.state.p - 1.0).max() < 1e-10
        assert np.abs(result.state.n - 1.0).max() < 1e-10
        assert result.flags_ok()

    def test_smallness_warning_emitted(self):
        sc = smooth_scenario(1, k=0.5, T=0.5, n=8)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run(sc)
        assert any("not small" in str(w.message) for w in caught)

    def test_no_smallness_warning_under_algorithm_2(self):
        # the premise 1 - k (hi - lo) > 0 belongs to algorithm 1; an Alg. 2
        # run that breaks it keeps its smallness_ok column at 0, unwarned
        sc = scenario_from_config({
            "scenario": "channel_wave", "algorithm": 2,
            "mesh": {"cell": 0.25}, "k": 1.0, "T": 1.0}, "test")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run(sc)
        assert len(result.reports) == 1
        assert not any(r.smallness_ok for r in result.all_reports())
        assert result.flags_ok()

    def test_step_error_carries_partial_result(self):
        sc = unreachable_tolerance(smooth_scenario(1, k=1e-3, T=3e-3), 2)
        with pytest.raises(StepError) as err:
            run(sc)
        assert hasattr(err.value, "partial")
        assert err.value.partial.reports == []

    def test_step_charge_imbalance_carries_partial_result(self):
        # pinned membrane cations under a pure-Neumann potential: the first
        # step's iterate loses the balance of the initial data
        sc = scenario_from_config({
            "scenario": "channel_selective", "mesh": {"cell": 0.5},
            "k": 0.05, "T": 0.1,
            "bc": {"phi_dirichlet": {}, "p_dirichlet": {"membrane": 1.0}}},
            "test")
        steps = []
        with pytest.raises(ElectroneutralityError) as err:
            run(sc, on_step=lambda m, s: steps.append(m))
        assert steps == [0]
        assert err.value.partial.reports == []

    def test_singular_density_system_carries_partial_result(self,
                                                            monkeypatch):
        # from step 3 on, the anion system has a zero row: a real singular
        # matrix reaches the factorization
        import pnpfem.solver as solver
        residual_parts, steps = solver._StepContext.residual_parts, []

        def with_zero_row(ctx, z, built=None):
            res, r, systems, built = residual_parts(ctx, z, built)
            if len(steps) > 2:
                ptr = ctx.asm.mesh.pattern_indptr
                systems[1][0][ptr[5]:ptr[6]] = 0.0
            return res, r, systems, built

        monkeypatch.setattr(solver._StepContext, "residual_parts",
                            with_zero_row)
        sc = uniform_scenario(1, k=0.01, T=0.05)
        with pytest.raises(LinearSolveError, match="singular") as err:
            run(sc, on_step=lambda m, s: steps.append(m))
        assert len(err.value.partial.reports) == 2
        # the partial result ends at the last accepted step
        assert err.value.partial.state.t == pytest.approx(0.02, rel=1e-12)

    def test_singular_potential_system_raises_linear_solve_error(self):
        # two disconnected triangles under pure Neumann data: grounding
        # node 0 leaves the second triangle's potential undetermined
        mesh = Mesh([[0, 0], [1, 0], [0, 1], [3, 0], [4, 0], [3, 1]],
                    [[0, 1, 2], [3, 4, 5]])
        ones = lambda x, y: np.ones_like(x)
        sc = Scenario("split", ("mesh", mesh), (ones, ones, "nodal"),
                      BoundarySpec(), SolverConfig(k=1e-2, T=2e-2))
        with pytest.raises(LinearSolveError, match="singular") as err:
            run(sc)
        assert err.traceback[-1].name == "factor"
        assert isinstance(err.value.__cause__, RuntimeError)

    def test_divergent_step_raises_with_partial_result(self):
        # channel_wave under Alg. 2 at k = 0.2 with the potential drop raised
        # a thousandfold: the first step's Picard loop does not converge (its
        # residual climbs to 9e4 and is still 0.096 after 400 iterations),
        # no iterate reaches the tolerance, and the run fails there instead
        # of keeping one; at -5000 and 5000 the first step converges in 220
        # iterations and the second fails
        sc = scenario_from_config({
            "scenario": "channel_wave", "algorithm": 2,
            "mesh": {"cell": 0.25}, "k": 0.2, "T": 0.4,
            "bc": {"phi_dirichlet": {"bottom": -50000, "top": 50000}}},
            "test")
        with pytest.raises(StepError) as err:
            run(sc)
        hist = err.value.residual_history
        assert err.value.partial.reports == []
        assert len(hist) == sc.config.picard_max_iters + 1
        assert min(hist) > sc.config.picard_residual_tol
        assert f"smallest {min(hist):g}" in str(err.value)

    @pytest.mark.parametrize("k", [0.02, 0.05, 0.2, 1, 5])
    def test_channel_wave_alg2_converges_at_large_steps(self, k):
        # with the transport all in b, the first step failed at k = 0.05
        # (smallest residual 2.4e-5) and k = 0.2 (5.63), and k = 0.02 took
        # 22-23 iterations a step; the upwind matrix in A took 13-15,
        # 18-20 and 17-27
        sc = scenario_from_config({
            "scenario": "channel_wave", "algorithm": 2,
            "mesh": {"cell": 0.25}, "k": k, "T": 5 * k}, "test")
        result = run(sc)
        assert len(result.reports) == 5
        assert max(rep.picard_iters for rep in result.reports) <= 30
        # the 5-step totals are 56, 59, 65, 57 and 42 with the transport
        # matrix stepped toward the Jacobian, 70, 94, 102, 92 and 82 with the
        # upwind matrix alone; each bound lies between the two
        most = {0.02: 63, 0.05: 76, 0.2: 83, 1: 74, 5: 62}[k]
        assert sum(rep.picard_iters for rep in result.reports) <= most
        assert result.flags_ok()

    @pytest.mark.parametrize("algorithm", [1, 2])
    def test_every_returned_step_meets_the_tolerance(self, algorithm,
                                                     monkeypatch):
        import pnpfem.solver as solver
        name = f"picard_step_alg{algorithm}"
        step, histories = getattr(solver, name), []

        def recorded(*args):
            out = step(*args)
            histories.append(out[2])
            return out

        monkeypatch.setattr(solver, name, recorded)
        sc = smooth_scenario(algorithm)
        result = run(sc)
        assert len(histories) == len(result.reports) == 5
        assert all(hist[-1] <= sc.config.picard_residual_tol
                   for hist in histories)

    def test_on_step_callback_sees_every_state(self):
        seen = []
        sc = uniform_scenario(2, k=0.01, T=0.03)
        run(sc, on_step=lambda m, s: seen.append((m, s.t)))
        assert [m for m, _ in seen] == [0, 1, 2, 3]

    def test_state_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            State(np.array([1.0, np.nan]), np.ones(2), np.zeros(2), 0.0)


class TestRunResultFlags:
    def test_in_force_violation_detected(self):
        sc = uniform_scenario(1, k=0.01, T=0.02)
        result = run(sc)
        assert result.flags_ok()
        # a violated in-force flag trips the check; out-of-force ones do not
        result.reports[-1].dmp_ok = 0
        assert not result.flags_ok()
        result.in_force["dmp_ok"] = False
        assert result.flags_ok()

    @pytest.mark.parametrize("kind,algorithm", [
        ("strip", 2), ("floored square", 1), ("floored square", 2)])
    def test_one_epsilon_for_isolated_data(self, kind, algorithm,
                                           monkeypatch):
        # isolated data far above EPSILON: the rows at EPSILON equal those
        # at half the initial minimum, which no iterate falls below
        import pnpfem.solver as solver
        from pnpfem import build_equilateral_strip
        if kind == "strip":
            mesh = build_equilateral_strip(8, 8, side=0.125)
            cx, cy = mesh.nodes.mean(axis=0)
            hump = lambda x, y, s: 2.0 + 1.5 * np.exp(
                -60 * ((x - cx - s) ** 2 + (y - cy) ** 2))
            shape = ("mesh", mesh)
            initial = (lambda x, y: hump(x, y, 0.25),
                       lambda x, y: hump(x, y, -0.25))
        else:
            shape = ("square", 16)
            initial = (lambda x, y: smooth_p0(x, y) + 1e-4,
                       lambda x, y: smooth_n0(x, y) + 1e-4)
        sc = Scenario(kind, shape, initial + ("averaged",), BoundarySpec(),
                      SolverConfig(algorithm=algorithm, k=1e-3, T=2e-2))
        p0, n0 = sc.initial_fields(sc.make_mesh())
        half_min = 0.5 * min(p0.min(), n0.min())
        assert half_min > 1e3 * EPSILON

        def rows():
            return [rep.row() for rep in run(sc).all_reports()]

        at_epsilon = rows()
        monkeypatch.setattr(solver, "EPSILON", half_min)
        assert rows() == at_epsilon


class TestConfigValidation:
    def test_rejects_bad_algorithm(self):
        with pytest.raises(ValueError):
            SolverConfig(algorithm=3)

    def test_rejects_bad_timestep(self):
        with pytest.raises(ValueError):
            SolverConfig(k=0.0)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            SolverConfig(picard_residual_tol=-1.0)

    @pytest.mark.parametrize("name", ["picard_increment_tol", "linear_tol"])
    def test_dropped_fields_are_rejected(self, name):
        with pytest.raises(TypeError, match=name):
            SolverConfig(**{name: 1e-12})

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    @pytest.mark.parametrize("name", [
        "k", "T", "q", "picard_residual_tol"])
    def test_rejects_non_finite_values(self, name, value):
        with pytest.raises(ValueError, match=name):
            SolverConfig(**{name: value})

    def test_rejects_overflowing_step_count(self):
        with pytest.raises(ValueError, match="T / k must be finite"):
            SolverConfig(k=1e-10, T=1e300)

    def test_rejects_zero_picard_iterations(self):
        with pytest.raises(ValueError, match="picard_max_iters"):
            SolverConfig(picard_max_iters=0)

    @pytest.mark.parametrize("value", [1.5, True, "1", np.inf])
    def test_rejects_non_whole_algorithm(self, value):
        with pytest.raises(ValueError, match="'algorithm' must be a whole"):
            SolverConfig(algorithm=value)

    @pytest.mark.parametrize("value", [2.5, True, "3", np.inf, np.nan])
    def test_rejects_non_whole_picard_iterations(self, value):
        with pytest.raises(ValueError,
                           match="'picard_max_iters' must be a whole"):
            SolverConfig(picard_max_iters=value)

    def test_whole_valued_counts_stored_as_int(self):
        cfg = SolverConfig(algorithm=2.0, picard_max_iters=np.int64(3))
        assert type(cfg.algorithm) is int and cfg.algorithm == 2
        assert type(cfg.picard_max_iters) is int and cfg.picard_max_iters == 3

    @pytest.mark.parametrize("value", [True, False, "0.1", None, [0.1]])
    @pytest.mark.parametrize("name", [
        "k", "T", "q", "picard_residual_tol"])
    def test_rejects_bools_and_non_numbers_for_reals(self, name, value):
        with pytest.raises(ValueError, match=f"'{name}' must be a finite"):
            SolverConfig(**{name: value})

    def test_reals_stored_as_float(self):
        cfg = SolverConfig(k=np.float32(0.5), T=1, q=np.int64(3))
        assert (type(cfg.k), type(cfg.T), type(cfg.q)) == (float,) * 3
        assert (cfg.k, cfg.T, cfg.q) == (0.5, 1.0, 3.0)


class TestBoundarySpecValidation:
    @pytest.mark.parametrize("value", [True, "1.0", None, np.nan, np.inf])
    @pytest.mark.parametrize("name", ["phi_dirichlet", "p_dirichlet"])
    def test_rejects_non_real_values_when_built(self, name, value):
        with pytest.raises(ValueError, match=f"'{name}.bottom' must be a"):
            BoundarySpec(**{name: {BOTTOM: value}})

    @pytest.mark.parametrize("value", [[-1.0, 1.0], "bottom", 5])
    def test_rejects_a_non_mapping(self, value):
        with pytest.raises(ValueError, match="'phi_dirichlet' must map"):
            BoundarySpec(phi_dirichlet=value)

    @pytest.mark.parametrize("phi, p, isolated", [
        ({}, {}, True), ({BOTTOM: 1.0}, {}, False), ({}, {TOP: 1.0}, False)])
    def test_isolated_means_no_dirichlet_data(self, phi, p, isolated):
        assert BoundarySpec(phi, p).isolated is isolated

    def test_values_stored_as_float(self):
        bc = BoundarySpec(phi_dirichlet={BOTTOM: -1, TOP: np.float32(2.0)})
        assert bc.phi_dirichlet == {BOTTOM: -1.0, TOP: 2.0}
        assert all(type(v) is float for v in bc.phi_dirichlet.values())


class TestSolvePlan:
    def test_singular_system_raises_linear_solve_error(self):
        mesh = build_unit_square(4)
        plan = SolvePlan(mesh)
        data = np.full(mesh.pattern_nnz, -1.0)
        data[mesh.diag_slots] = 8.0
        data[mesh.pattern_indptr[7]:mesh.pattern_indptr[8]] = 0.0
        with pytest.raises(LinearSolveError, match="singular") as err:
            LaggedFactor(plan).solve(data, np.ones(mesh.num_nodes))
        assert isinstance(err.value.__cause__, RuntimeError)

    def test_nan_right_side_fails_the_backward_error_gate(self):
        mesh = build_unit_square(4)
        plan = SolvePlan(mesh)
        data = np.full(mesh.pattern_nnz, -1.0)
        data[mesh.diag_slots] = 8.0
        b = np.ones(mesh.num_nodes)
        b[3] = np.nan
        with pytest.raises(LinearSolveError, match="density"):
            LaggedFactor(plan).solve(data, b)

    def test_factor_raises_linear_solve_error_on_singular_data(self):
        mesh = build_unit_square(4)
        plan = SolvePlan(mesh)
        data = np.full(mesh.pattern_nnz, -1.0)
        data[mesh.diag_slots] = 8.0
        data[mesh.pattern_indptr[7]:mesh.pattern_indptr[8]] = 0.0
        with pytest.raises(LinearSolveError, match="exactly singular"):
            plan.factor(data)

    @pytest.mark.parametrize("ratio, passes", [(0.5, True), (2.0, False)])
    def test_backward_error_gate_is_1e3_linear_tol(self, ratio, passes):
        mesh = build_unit_square(4)
        plan = SolvePlan(mesh)
        data = np.full(mesh.pattern_nnz, -1.0)
        data[mesh.diag_slots] = 8.0
        A = mesh.csr(data)
        x = np.linspace(1.0, 2.0, mesh.num_nodes)
        b = A @ x
        scale = float((abs(A) @ x).max() + np.abs(b).max())
        b[0] += ratio * 1e3 * LINEAR_TOL * scale
        if passes:
            assert oracles.check_solve(mesh, data, x, b, "density") is x
        else:
            with pytest.raises(LinearSolveError, match="density"):
                oracles.check_solve(mesh, data, x, b, "density")

    @pytest.mark.parametrize("what", ["potential", "density"])
    def test_one_bound_gates_every_solve(self, what, rng, monkeypatch):
        # below any roundoff backward error, the one bound trips both solves
        import pnpfem.solver as solver
        monkeypatch.setattr(solver, "LINEAR_TOL", 1e-300)
        mesh = build_unit_square(4)
        plan = SolvePlan(mesh)
        rho = rng.normal(size=mesh.num_nodes)
        with pytest.raises(LinearSolveError, match=what):
            if what == "potential":
                d = lumped_mass_vector(mesh)
                rho -= (d @ rho) / d.sum()
                PoissonSolver(mesh, assemble_stiffness(mesh), d,
                              BoundarySpec(), plan).solve(rho)
            else:
                data = np.full(mesh.pattern_nnz, -1.0)
                data[mesh.diag_slots] = 8.0
                LaggedFactor(plan).solve(data, rho)

    def test_potential_factor_takes_the_diagonal_pivots(self):
        # with SuperLU's default threshold of 1.0 this factor swaps 24 rows
        # off the diagonal and stores 1977 nonzeros, past the planned fill
        mesh = oracles.jittered_delaunay_mesh(10, 0.3, 7)
        bc = BoundarySpec(phi_dirichlet={OTHER_BOUNDARY: 2.0})
        poisson = PoissonSolver(mesh, assemble_stiffness(mesh),
                                lumped_mass_vector(mesh), bc, SolvePlan(mesh))
        lu = poisson._lu
        assert np.array_equal(lu.perm_r, np.arange(mesh.num_nodes))
        assert lu.nnz == 1814

    def test_plan_keeps_the_ordering_with_less_fill(self):
        # neither ordering wins everywhere: the plan's factor of the
        # pattern's structure has the smaller fill of the two, and the
        # square and the channel that the benchmark factors pick different
        # ones
        import scipy.sparse.linalg as spla
        picked = []
        for mesh in (build_unit_square(16), build_channel(0.25)):
            plan = SolvePlan(mesh)
            data = np.full(mesh.pattern_nnz, -1.0)
            data[mesh.diag_slots] = np.diff(mesh.pattern_indptr)
            structure = mesh.csr(data).tocsc()
            fills = {}
            for spec in SolvePlan._ORDERINGS:
                lu = spla.splu(structure, permc_spec=spec,
                               options=SolvePlan._OPTIONS)
                fills[spec] = lu.nnz
                if np.array_equal(np.argsort(lu.perm_c), plan.perm):
                    picked.append(spec)
            assert plan.factor(data).nnz == min(fills.values())
        assert len(picked) == 2 and picked[0] != picked[1]


def density_systems(where, algorithm, k=1e-3):
    """The assemblies, a step context and the state of the first step of
    the smooth data on the 16x16 square, or of the channel run with the
    0.5 cell: ``channel_selective`` (Alg. 1) or ``channel_wave`` (Alg. 2)."""
    if where == "square":
        sc = smooth_scenario(algorithm, k=k, n=16)
    else:
        sc = builtin_scenario("channel_selective" if algorithm == 1
                              else "channel_wave", algorithm=algorithm)
        sc.mesh_spec = ("channel", 0.5)
    asm, state, bounds = first_state(sc)
    return sc, asm, _StepContext(state, sc.config, asm), state, bounds


class Counted:
    """Counts the calls of ``SolvePlan.factor`` and ``SolvePlan.solve``."""

    def __init__(self, monkeypatch):
        self.factor = self.solve = 0
        for attr in ("factor", "solve"):
            monkeypatch.setattr(SolvePlan, attr,
                                self._counted(attr, getattr(SolvePlan, attr)))

    def _counted(self, attr, fn):
        def wrapper(*args):
            setattr(self, attr, getattr(self, attr) + 1)
            return fn(*args)
        return wrapper


class CountedLU:
    """A SuperLU factor whose triangular solves are counted."""

    def __init__(self, lu):
        self.lu, self.solves = lu, 0

    def solve(self, b):
        self.solves += 1
        return self.lu.solve(b)


def start_systems(ctx, state, phi=None):
    """The density systems of ``ctx`` at the state's densities, with its
    potential or ``phi``."""
    phi = state.phi if phi is None else phi
    part = ctx.iterate_part(state.p, state.n, phi)
    z = np.concatenate([state.p, state.n])
    return ctx.residual_parts(z, (phi, part))[2]


def backward_error(asm, A, x, b):
    return oracles.backward_error(asm.mesh, A, x, b)[0]


class TestLaggedFactor:
    def test_nearby_matrices_reuse_one_factor(self, monkeypatch):
        _, asm, ctx, state, _ = density_systems("square", 1)
        counted = Counted(monkeypatch)
        lagged = LaggedFactor(asm.solve_plan)
        kept = None
        for j in range(6):
            (A, b), _ = start_systems(ctx, state,
                                      (1.0 + 0.02 * j) * state.phi)
            x = lagged.solve(A, b)
            assert oracles.check_solve(asm.mesh, A, x, b, "density") is x
            # the corrections stop at LINEAR_TOL, not at the gate
            assert backward_error(asm, A, x, b) <= LINEAR_TOL
            kept = kept or lagged.lu
            assert lagged.lu is kept
        assert counted.factor == 1
        assert counted.solve > 6

    @pytest.mark.parametrize("far", ["opposite drift", "k x 100"])
    def test_far_matrix_refactors(self, far, monkeypatch):
        _, asm, ctx, state, _ = density_systems("square", 1)
        (A, b), (A_n, b_n) = start_systems(ctx, state)
        if far == "k x 100":
            _, _, far_ctx, _, _ = density_systems("square", 1, k=0.1)
            (A_n, b_n), _ = start_systems(far_ctx, state)
        lagged = LaggedFactor(asm.solve_plan)
        lagged.solve(A, b)
        kept = lagged.lu
        counted = Counted(monkeypatch)
        x = lagged.solve(A_n, b_n)
        assert counted.factor == 1 and lagged.lu is not kept
        assert oracles.check_solve(asm.mesh, A_n, x, b_n, "density") is x

    def test_non_contracting_correction_refactors_at_once(self,
                                                          monkeypatch):
        # with the factor of A kept, a correction for 3 A doubles the
        # backward error: the first correction refactors, and the remaining
        # budget is not spent
        _, asm, ctx, state, _ = density_systems("square", 1)
        (A, b), _ = start_systems(ctx, state)
        lagged = LaggedFactor(asm.solve_plan)
        lagged.solve(A, b)
        counted = Counted(monkeypatch)
        A3 = 3.0 * A
        x = lagged.solve(A3, b)
        # the kept factor's solve, one correction, the new factor's solve
        assert (counted.factor, counted.solve) == (1, 3)
        assert backward_error(asm, A3, x, b) <= LINEAR_TOL

    def test_warm_start_that_does_not_contract_refactors(self, monkeypatch):
        # the same solve for 3 A, started from A's solution x0: the kept
        # factor's start is -x0 and its correction 3 x0, which the error
        # refuses as well; the new factor restarts from x0
        _, asm, ctx, state, _ = density_systems("square", 1)
        (A, b), _ = start_systems(ctx, state)
        lagged = LaggedFactor(asm.solve_plan)
        x0 = lagged.solve(A, b)
        kept = lagged.lu
        counted = Counted(monkeypatch)
        A3 = 3.0 * A
        x = lagged.solve(A3, b, x0, asm.mesh.matvec(A3, x0) - b)
        assert (counted.factor, counted.solve) == (1, 3)
        assert lagged.lu is not kept
        assert backward_error(asm, A3, x, b) <= LINEAR_TOL

    def test_start_at_the_solution_takes_no_correction(self):
        # a kept factor of a nearby matrix, and the solve started from the
        # solution itself: the start's own solve is the only one
        _, asm, ctx, state, _ = density_systems("square", 1)
        lagged = LaggedFactor(asm.solve_plan)
        lagged.solve(*start_systems(ctx, state, 1.02 * state.phi)[0])
        (A, b), _ = start_systems(ctx, state)
        x0 = oracles.direct_solve(asm.solve_plan, A, b)
        lagged.lu = counted = CountedLU(lagged.lu)
        x = lagged.solve(A, b, x0, asm.mesh.matvec(A, x0) - b)
        assert counted.solves == 1 and lagged.lu is counted
        assert backward_error(asm, A, x, b) <= LINEAR_TOL
        # a start far from the solution takes corrections on the same factor
        lagged.solve(A, b)
        assert counted.solves > 2 and lagged.lu is counted

    def test_default_start_is_the_cold_solve(self):
        # from zero, x0 - LU^-1 (A x0 - b) = LU^-1 b bit for bit, since
        # negation is exact: a sequence of solves that keeps, corrects and
        # refactors gives the pre-warm-start answers and factors
        _, asm, ctx, state, _ = density_systems("square", 1)
        _, _, far_ctx, _, _ = density_systems("square", 1, k=0.1)
        warm, cold = (LaggedFactor(asm.solve_plan) for _ in range(2))
        systems = [start_systems(ctx, state, (1.0 + 0.05 * j) * state.phi)
                   for j in range(4)] + [start_systems(far_ctx, state)]
        factors = []
        for (A, b), _ in systems:
            x = warm.solve(A, b)
            assert np.array_equal(x, oracles.cold_lagged_solve(cold, A, b))
            factors.append(warm.lu)
        # kept over the nearby systems, refactored for the far one
        assert [f is factors[0] for f in factors] == [True] * 4 + [False]

    @pytest.mark.parametrize("kept", [False, True])
    def test_singular_matrix_raises_with_or_without_kept_factor(self, kept):
        _, asm, ctx, state, _ = density_systems("square", 1)
        (A, b), _ = start_systems(ctx, state)
        lagged = LaggedFactor(asm.solve_plan)
        if kept:
            lagged.solve(A, b)
        singular = A.copy()
        ptr = asm.mesh.pattern_indptr
        singular[ptr[40]:ptr[41]] = 0.0
        with pytest.raises(LinearSolveError, match="singular"):
            lagged.solve(singular, b)
        # the old factor was released before the failed factorization
        assert lagged.lu is None

    @pytest.mark.parametrize("where, algorithm", [
        ("square", 1), ("square", 2), ("channel", 1), ("channel", 2)])
    def test_picard_step_matches_direct_solves(self, where, algorithm,
                                               monkeypatch):
        # the second step, whose solves start from the factors the first
        # step kept, against the same step with every system factored
        sc, asm, _, state, bounds = density_systems(where, algorithm)
        step = picard_step_alg1 if algorithm == 1 else picard_step_alg2
        state, *_ = step(state, sc.config, asm, bounds)
        lagged, lagged_iters, *_ = step(state, sc.config, asm, bounds)
        monkeypatch.setattr(LaggedFactor, "solve", lambda self, A, b, *start:
                            oracles.direct_solve(self.plan, A, b))
        direct, direct_iters, *_ = step(state, sc.config, asm, bounds)
        assert lagged_iters == direct_iters
        for field in ("p", "n", "phi"):
            assert np.abs(getattr(lagged, field)
                          - getattr(direct, field)).max() <= 1e-9

    def test_run_factors_far_fewer_times_than_it_solves(self, monkeypatch):
        # measured: 14 factorizations (the potential's and 13 density
        # ones) for the 118 density solves of these 10 steps
        counted = Counted(monkeypatch)
        solves = []
        solve = LaggedFactor.solve

        def counted_solve(self, *args):
            solves.append(1)
            return solve(self, *args)

        monkeypatch.setattr(LaggedFactor, "solve", counted_solve)
        result = run(smooth_scenario(1, k=1e-3, T=1e-2, n=16))
        assert len(result.reports) == 10
        assert len(solves) >= 100
        assert counted.factor <= len(solves) // 5


class TestCoefficientReuse:
    @pytest.mark.parametrize("algorithm", [1, 2])
    def test_sweeps_build_no_coefficients(self, algorithm, monkeypatch):
        # every residual builds the detector of both species once; a sweep
        # from the same iterate reuses them, so it adds no detector call
        import pnpfem.solver as solver
        from pnpfem.scenarios import builtin_scenario
        sc = builtin_scenario("channel_selective", algorithm=algorithm)
        sc.mesh_spec = ("channel", 0.5)
        mesh = sc.make_mesh()
        p0, n0 = sc.initial_fields(mesh)
        asm = Assemblies(mesh, build_sym_stencils(mesh), sc.bc,
                         entropy_functions(1e-8))
        state = State(p0, n0, asm.poisson.solve(p0 - n0), 0.0)
        calls = {"alpha": 0, "residual": 0, "sweep": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(solver, "compute_alpha",
                            counted("alpha", solver.compute_alpha))
        for key, attr in (("residual", "residual_parts"),
                          ("sweep", "linearized_solve")):
            monkeypatch.setattr(solver._StepContext, attr,
                                counted(key, getattr(solver._StepContext,
                                                     attr)))
        step = picard_step_alg1 if algorithm == 1 else picard_step_alg2
        _, iters, *_ = step(state, sc.config, asm)
        assert calls["sweep"] == iters >= 2
        assert calls["alpha"] == 2 * calls["residual"]

    @pytest.mark.parametrize("algorithm", [1, 2])
    def test_run_builds_each_map_once(self, algorithm, map_builds):
        """A run builds the detector's map once, and the drift's once under
        Alg. 1 and never under Alg. 2, however many iterates it evaluates."""
        from pnpfem.scenarios import builtin_scenario
        sc = builtin_scenario("channel_selective", algorithm=algorithm)
        sc.mesh_spec = ("channel", 0.5)
        sc.config.T = 3 * sc.config.k
        result = run(sc)
        assert sum(r.picard_iters for r in result.reports) > 3
        assert map_builds == {"drift_map": 2 - algorithm, "sym_map": 1}


class TestCarry:
    @pytest.mark.parametrize("where, algorithm", [
        ("square", 1), ("channel", 2), ("channel", 1)])
    def test_carried_evaluation_equals_a_fresh_one(self, where, algorithm):
        # the smooth square under Alg. 1, channel_wave under Alg. 2 and the
        # pinned cations of channel_selective under Alg. 1: after one step,
        # the next step's evaluation from the carry equals a fresh one at
        # the new state, array for array
        sc, asm, _, state, bounds = density_systems(where, algorithm)
        step = picard_step_alg1 if algorithm == 1 else picard_step_alg2
        new, _, _, (z, carried) = step(state, sc.config, asm, bounds)
        assert np.array_equal(z, np.concatenate([new.p, new.n]))
        assert np.array_equal(carried[0], new.phi)
        assert carried[0] is not new.phi  # its own copy
        ctx = _StepContext(new, sc.config, asm)
        res, r, ((A_p, b_p), (A_n, b_n)), (phi, _) = ctx.residual_parts(z)
        c_res, c_r, ((cA_p, cb_p), (cA_n, cb_n)), c_built = (
            ctx.residual_parts(z, carried))
        assert c_built is carried
        assert res == c_res
        for fresh, kept in ((phi, carried[0]), (A_p.data, cA_p.data),
                            (A_n.data, cA_n.data), (b_p, cb_p), (b_n, cb_n),
                            (r, c_r)):
            assert np.array_equal(fresh, kept)
        if algorithm == 1 and where == "channel":
            assert asm.p_fixed.size > 0
            assert np.array_equal(cb_p[asm.p_fixed], asm.p_fixed_values)
            assert np.array_equal(c_r[asm.p_fixed],
                                  new.p[asm.p_fixed] - asm.p_fixed_values)

    @pytest.mark.parametrize("algorithm", [1, 2])
    def test_only_a_carried_start_skips_the_build(self, algorithm,
                                                  monkeypatch):
        # a step with no carry, a run's first, solves the potential and
        # builds the iterate part at its start; a carried step only at its
        # trials
        import pnpfem.solver as solver
        calls = {"potential": 0, "build": 0, "evaluation": 0}

        def counted(key, fn):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)
            return wrapper

        for key, owner, attr in (
                ("potential", solver.PoissonSolver, "solve"),
                ("build", solver._StepContext, "iterate_part"),
                ("evaluation", solver._StepContext, "residual_parts")):
            monkeypatch.setattr(owner, attr,
                                counted(key, getattr(owner, attr)))
        sc = smooth_scenario(algorithm)
        asm, state, bounds = first_state(sc)
        step = picard_step_alg1 if algorithm == 1 else picard_step_alg2
        for carried in (False, True):
            calls.update(potential=0, build=0, evaluation=0)
            state, _, _, carry = step(state, sc.config, asm, bounds,
                                      carry if carried else None)
            assert calls["evaluation"] >= 2
            assert (calls["potential"] == calls["build"]
                    == calls["evaluation"] - carried)

    @pytest.mark.parametrize("name, algorithm", [
        ("channel_selective", 1), ("channel_wave", 2)])
    @pytest.mark.parametrize("edit", [False, True])
    def test_run_equals_a_run_without_carries(self, name, algorithm, edit,
                                              tmp_path, monkeypatch):
        # a run's diagnostics are byte for byte those of a run whose steps
        # never receive a carry, also when on_step scales state.p in place
        # after step 2: the start of step 3 is then not the carried iterate
        import pnpfem.solver as solver
        sc = builtin_scenario(name, algorithm=algorithm)
        sc.mesh_spec = ("channel", 0.5)
        sc.config.T = 4 * sc.config.k

        def on_step(m, state):
            if edit and m == 2:
                state.p *= 1.01

        def diagnostics_and_state(path):
            result = run(sc, on_step=on_step)
            assert len(result.reports) == 4
            diagnostics.write_csv(path, result.all_reports())
            return path.read_bytes(), result.state

        carried, carried_state = diagnostics_and_state(tmp_path / "a.csv")
        step_name = f"picard_step_alg{algorithm}"
        step = getattr(solver, step_name)
        monkeypatch.setattr(solver, step_name,
                            lambda state, config, asm, bounds, carry:
                            step(state, config, asm, bounds))
        fresh, fresh_state = diagnostics_and_state(tmp_path / "b.csv")
        assert carried == fresh
        for field in ("p", "n", "phi"):
            assert np.array_equal(getattr(carried_state, field),
                                  getattr(fresh_state, field))


class TestSpeciesSwap:
    # (mesh, potential data, k, steps): the pure-Neumann square, and the
    # channel with the +-50 drop of channel_wave
    CASES = {
        "square": (("square", 16), {}, 1e-3, 5),
        "channel": (("channel", 0.25), {BOTTOM: -50.0, TOP: 50.0}, 1e-2, 10),
    }

    @pytest.mark.parametrize("where", sorted(CASES))
    @pytest.mark.parametrize("algorithm", [1, 2])
    def test_swapped_species_give_the_mirrored_run(self, algorithm, where):
        """The two densities obey one equation with opposite charge signs:
        the run from (n0, p0) with the potential data -g is the run from
        (p0, n0) with g, with p and n swapped and phi negated, taking the
        same Picard iterations at every step.  The two runs' arithmetic
        differs only in roundoff, and each step is solved to a residual of
        picard_residual_tol, so the states must agree to that tolerance."""
        mesh_spec, g, k, steps = self.CASES[where]
        data = ((smooth_p0, smooth_n0) if where == "square"
                else (wave_p0, wave_n0))
        config = SolverConfig(algorithm=algorithm, k=k, T=steps * k)

        def result(sign):
            first, second = data[::sign]
            return run(Scenario(
                "swap", mesh_spec, (first, second, "nodal"),
                BoundarySpec(phi_dirichlet={tag: sign * value
                                            for tag, value in g.items()}),
                config))

        ref, swapped = result(+1), result(-1)
        assert len(ref.reports) == steps
        assert ([rep.picard_iters for rep in swapped.reports]
                == [rep.picard_iters for rep in ref.reports])
        tol = config.picard_residual_tol
        for mirrored, field in ((swapped.state.n, ref.state.p),
                                (swapped.state.p, ref.state.n),
                                (-swapped.state.phi, ref.state.phi)):
            assert np.abs(mirrored - field).max() <= tol


class TestAnderson:
    @pytest.mark.parametrize("dim", range(1, ANDERSON_DEPTH + 1))
    def test_affine_contraction_reaches_fixed_point(self, dim, rng):
        # with as many differences as dimensions, the least-squares fit is
        # exact and the mix of an affine map is its fixed point
        M = rng.normal(size=(dim, dim))
        M *= 0.9 / np.linalg.norm(M, 2)
        c = rng.normal(size=dim)
        fixed = np.linalg.solve(np.eye(dim) - M, c)
        z, pairs = rng.normal(size=dim), []
        for _ in range(dim + 1):
            pairs = pairs[-ANDERSON_DEPTH:] + [(z, M @ z + c)]
            z = _anderson_mix(pairs) if len(pairs) > 1 else pairs[-1][1]
        assert np.abs(z - fixed).max() <= 1e-12 * max(np.abs(fixed).max(),
                                                       1.0)

    @pytest.mark.parametrize("poison", [False, True, "sweep"])
    def test_out_of_bounds_mix_restarts_the_history(self, poison,
                                                    monkeypatch):
        # poisoned, the first mix (True) or the first sweep ("sweep") is
        # pushed below the bounds: the step's own bound check must refuse it
        # before its residual is evaluated, restart the history from the
        # latest sweep, take the relaxed sweep where the sweep was refused
        # and sweep next from the systems built there, and still converge
        # in bounds; unpoisoned, the second mix extends the history
        import pnpfem.solver as solver
        sc = smooth_scenario(2)
        asm, state, (lo, hi) = first_state(sc)
        mix, sizes, evaluated, swept = solver._anderson_mix, [], [], []
        built_at = []  # (systems, z) of each residual evaluation

        def recorded_mix(pairs):
            sizes.append(len(pairs))
            z = mix(pairs)
            if poison is True and len(sizes) == 1:
                z = z.copy()
                z[0] = lo - 1e-6
            return z

        residual_parts = solver._StepContext.residual_parts
        linearized_solve = solver._StepContext.linearized_solve

        def recorded_residual(ctx, z, *carried):
            evaluated.append(z[0])
            parts = residual_parts(ctx, z, *carried)
            built_at.append((parts[2], z))
            return parts

        def recorded_sweep(ctx, systems, *start):
            # the iterate whose systems are solved
            swept.append(next(z for s, z in built_at if s is systems))
            g = linearized_solve(ctx, systems, *start)
            if poison == "sweep" and len(swept) == 1:
                g[0] = lo - 1e-6
            return g

        monkeypatch.setattr(solver, "_anderson_mix", recorded_mix)
        monkeypatch.setattr(solver._StepContext, "residual_parts",
                            recorded_residual)
        monkeypatch.setattr(solver._StepContext, "linearized_solve",
                            recorded_sweep)
        new, _, hist, _ = picard_step_alg2(state, sc.config, asm,
                                           (lo, hi))
        assert sizes[:2] == ([2, 2] if poison is True else [2, 3])
        assert lo - 1e-6 not in evaluated
        if poison == "sweep":
            p0 = state.p[0]
            assert swept[1][0] == p0 + RELAXATION * (lo - 1e-6 - p0)
            assert evaluated[1] == swept[1][0]
        assert hist[-1] <= 1e-6
        for x in (new.p, new.n):
            assert lo - DMP_TOL <= x.min() and x.max() <= hi + DMP_TOL

    def test_small_square_converges_inside_the_bounds(self):
        # trials of the first smooth step on the 8x8 square leave the bounds
        # on the way to a fixed point inside them; the refused trials must
        # neither slow the step to a crawl (a line search took 113
        # iterations here) nor let it stop outside the bounds
        sc = builtin_scenario("smooth", algorithm=1)
        sc.mesh_spec = ("square", 8)
        sc.config.T = sc.config.k
        result = run(sc)
        assert len(result.reports) == 1
        assert result.reports[0].picard_iters <= 20
        assert result.flags_ok()

    def test_residual_evaluations_per_iteration(self, monkeypatch):
        # a step evaluates the residual once at its start and at most twice
        # per iteration: at the trial and, if that is refused, at the
        # relaxed sweep
        import pnpfem.solver as solver
        sc = builtin_scenario("channel_wave", algorithm=2)
        sc.config.T = 2 * sc.config.k
        residual_parts, calls = solver._StepContext.residual_parts, []

        def counted(ctx, *args):
            calls.append(None)
            return residual_parts(ctx, *args)

        monkeypatch.setattr(solver._StepContext, "residual_parts", counted)
        result = run(sc)
        steps = len(result.reports)
        iterations = sum(rep.picard_iters for rep in result.reports)
        assert steps == 2
        assert len(calls) <= steps + 2 * iterations

    @pytest.mark.parametrize("name, in_force", [
        ("smooth", True), ("channel_uniform", False)])
    def test_run_passes_bounds_where_dmp_is_in_force(self, name, in_force,
                                                     monkeypatch):
        import pnpfem.solver as solver
        from pnpfem.scenarios import builtin_scenario
        sc = builtin_scenario(name, algorithm=1)
        sc.mesh_spec = ("square", 6) if name == "smooth" else ("channel", 0.5)
        sc.config.T = 2 * sc.config.k
        step, seen = solver.picard_step_alg1, []

        def recorded(state, config, asm, bounds, carry):
            seen.append(bounds)
            return step(state, config, asm, bounds, carry)

        monkeypatch.setattr(solver, "picard_step_alg1", recorded)
        result = run(sc)
        assert result.in_force["dmp_ok"] == in_force
        assert seen == [result.bounds if in_force else None] * 2

    def test_channel_wave_iterations(self):
        # the unaccelerated loop takes 203 iterations over these 10 steps
        from pnpfem.scenarios import builtin_scenario
        sc = builtin_scenario("channel_wave", algorithm=2)
        sc.mesh_spec = ("channel", 0.5)
        sc.config.T = 0.1
        result = run(sc)
        assert len(result.reports) == 10
        assert sum(rep.picard_iters for rep in result.reports) <= 140
        assert result.flags_ok()
