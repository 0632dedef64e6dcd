import warnings

import numpy as np
import pytest

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
    backtracking_search,
    build_channel,
    build_sym_stencils,
    build_unit_square,
    entropy_functions,
    picard_step_alg1,
    picard_step_alg2,
    run,
)
from pnpfem.fespace import assemble_stiffness, lumped_mass_vector
from pnpfem.mesh import BOTTOM, TOP
from pnpfem.scenarios import smooth_n0, smooth_p0
from pnpfem.solver import (
    ANDERSON_DEPTH,
    DMP_TOL,
    STAGNATION_WINDOW,
    SolvePlan,
    _anderson_mix,
    _solve_linear,
    epsilon_for_scenario,
)


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
                     entropy_functions(epsilon_for_scenario(p0, n0, sc.bc)))
    bounds = (min(p0.min(), n0.min()), max(p0.max(), n0.max()))
    return asm, State(p0, n0, asm.poisson.solve(p0 - n0), 0.0), bounds


def unreachable_tolerance(sc, max_iters):
    sc.config.picard_residual_tol = 1e-300
    sc.config.picard_increment_tol = 1e-300
    sc.config.picard_max_iters = max_iters
    return sc


class TestPoisson:
    def test_balanced_charge_gives_zero_potential(self, square8):
        K = assemble_stiffness(square8)
        d = lumped_mass_vector(square8)
        phi = PoissonSolver(square8, K, d, BoundarySpec()).solve(
            np.zeros(square8.num_nodes))
        assert np.abs(phi).max() == 0.0

    def test_zero_mean_and_equation(self, square8, rng):
        K = assemble_stiffness(square8)
        d = lumped_mass_vector(square8)
        rho = rng.normal(size=square8.num_nodes)
        rho -= (d @ rho) / d.sum()
        phi = PoissonSolver(square8, K, d, BoundarySpec()).solve(rho)
        assert d @ phi == pytest.approx(0.0, abs=1e-10)
        assert np.abs(K @ phi - d * rho).max() < 1e-11

    def test_common_shift_leaves_potential_unchanged(self, square8, rng):
        K = assemble_stiffness(square8)
        d = lumped_mass_vector(square8)
        p = rng.uniform(1.0, 2.0, size=square8.num_nodes)
        n = p + rng.normal(scale=0.1, size=square8.num_nodes)
        n -= (d @ (n - p)) / d.sum()
        base = PoissonSolver(square8, K, d, BoundarySpec()).solve(p - n)
        shifted = PoissonSolver(square8, K, d, BoundarySpec()).solve(
            (p + 5.0) - (n + 5.0))
        assert shifted == pytest.approx(base, abs=1e-12)

    def test_electroneutrality_violation_raises(self, square8):
        K = assemble_stiffness(square8)
        d = lumped_mass_vector(square8)
        with pytest.raises(ElectroneutralityError):
            PoissonSolver(square8, K, d, BoundarySpec()).solve(
                np.ones(square8.num_nodes))

    def test_dirichlet_matches_reduced_system_oracle(self):
        mesh = build_channel(0.5)
        K = assemble_stiffness(mesh)
        d = lumped_mass_vector(mesh)
        bc = BoundarySpec(phi_dirichlet={BOTTOM: -50.0, TOP: 50.0})
        phi = PoissonSolver(mesh, K, d, bc).solve(np.zeros(mesh.num_nodes))
        # independent dense solve of the constrained system
        A = K.toarray().copy()
        b = np.zeros(mesh.num_nodes)
        for tag, val in ((BOTTOM, -50.0), (TOP, 50.0)):
            for i in mesh.nodes_with_tag(tag):
                A[i, :] = 0.0
                A[i, i] = 1.0
                b[i] = val
        expected = np.linalg.solve(A, b)
        assert phi == pytest.approx(expected, abs=1e-9)
        bottom = mesh.nodes_with_tag(BOTTOM)
        assert np.all(phi[bottom] == -50.0)

    def test_unknown_tag_rejected(self, square8):
        K = assemble_stiffness(square8)
        d = lumped_mass_vector(square8)
        with pytest.raises(ValueError, match="membrane"):
            PoissonSolver(square8, K, d,
                          BoundarySpec(phi_dirichlet={"membrane": 1.0})
                          ).solve(np.zeros(square8.num_nodes))


class TestBacktracking:
    def test_full_step_when_it_reduces(self):
        residual = lambda z: float(np.abs(z).max())
        prev = np.array([1.0, -1.0])
        cand = np.array([0.1, 0.2])
        accepted, theta, res, flag = backtracking_search(prev, cand, residual)
        assert theta == 1.0
        assert not flag
        assert accepted == pytest.approx(cand)

    def test_damped_step_for_overshooting_candidate(self):
        # scalar residual with a minimum near the previous iterate
        residual = lambda z: float(abs(z[0] - 0.1))
        prev = np.array([0.0])
        cand = np.array([1.0])
        accepted, theta, res, flag = backtracking_search(prev, cand, residual)
        assert theta < 1.0
        assert res < residual(prev)
        assert not flag

    def test_identical_candidate_flags_no_decrease(self):
        residual = lambda z: 1.0
        prev = np.array([2.0, 3.0])
        accepted, theta, res, flag = backtracking_search(prev, prev.copy(),
                                                         residual)
        assert flag
        assert accepted == pytest.approx(prev)

    def test_no_decrease_returns_most_damped(self):
        residual = lambda z: 1.0 + float(np.abs(z).max())
        prev = np.zeros(2)
        cand = np.ones(2)
        accepted, theta, res, flag = backtracking_search(
            prev, cand, residual, shrink=0.5, max_halvings=4)
        assert flag
        assert theta == pytest.approx(0.5**4)
        assert accepted == pytest.approx(prev + 0.5**4 * (cand - prev))

    def test_good_enough_shortcut(self):
        calls = []

        def residual(z):
            calls.append(z.copy())
            return 1e-9

        prev, cand = np.zeros(1), np.ones(1)
        accepted, theta, res, flag = backtracking_search(
            prev, cand, residual, prev_residual=0.0, good_enough=1e-6)
        assert theta == 1.0
        assert not flag
        assert len(calls) == 1


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
        new, iters, hist, reason, _ = step(state, sc.config, sc.bc, asm)
        assert iters == 1 and reason == "converged"
        assert np.abs(new.p - 1.0).max() < 1e-12
        assert np.abs(new.n - 1.0).max() < 1e-12
        assert np.abs(new.phi).max() < 1e-12

    @pytest.mark.parametrize("algorithm", [1, 2])
    def test_smooth_first_step_converges(self, algorithm):
        sc = smooth_scenario(algorithm)
        mesh = sc.make_mesh()
        st = build_sym_stencils(mesh)
        p0, n0 = sc.initial_fields(mesh)
        from pnpfem.solver import epsilon_for_scenario
        asm = Assemblies(mesh, st, sc.bc,
                         entropy_functions(epsilon_for_scenario(p0, n0, sc.bc)))
        state = State(p0, n0, asm.poisson.solve(p0 - n0), 0.0)
        step = picard_step_alg1 if algorithm == 1 else picard_step_alg2
        new, iters, hist, reason, res = step(state, sc.config, sc.bc, asm)
        assert hist[-1] <= 1e-6
        assert reason == "converged" and res == hist[-1]

    @pytest.mark.parametrize("algorithm", [1, 2])
    def test_mass_preserved_by_one_step(self, algorithm):
        sc = smooth_scenario(algorithm)
        mesh = sc.make_mesh()
        st = build_sym_stencils(mesh)
        p0, n0 = sc.initial_fields(mesh)
        from pnpfem.solver import epsilon_for_scenario
        asm = Assemblies(mesh, st, sc.bc,
                         entropy_functions(epsilon_for_scenario(p0, n0, sc.bc)))
        state = State(p0, n0, asm.poisson.solve(p0 - n0), 0.0)
        step = picard_step_alg1 if algorithm == 1 else picard_step_alg2
        new, *_ = step(state, sc.config, sc.bc, asm)
        assert asm.d @ new.p == pytest.approx(asm.d @ p0, rel=1e-11)
        assert asm.d @ new.n == pytest.approx(asm.d @ n0, rel=1e-11)

    def test_converged_residual_reproducible_from_scratch(self):
        sc = smooth_scenario(1)
        mesh = sc.make_mesh()
        st = build_sym_stencils(mesh)
        p0, n0 = sc.initial_fields(mesh)
        asm = Assemblies(mesh, st, sc.bc, entropy_functions(1e-8))
        state = State(p0, n0, asm.poisson.solve(p0 - n0), 0.0)
        new, iters, hist, *_ = picard_step_alg1(state, sc.config, sc.bc, asm)
        from pnpfem.solver import _StepContext, _stack
        ctx = _StepContext(state, sc.config, asm)
        res = ctx.residual_norm(_stack(new.p, new.n))
        assert res == pytest.approx(hist[-1], abs=1e-12)

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
        new, *_ = picard_step_alg2(state, config, bc, asm)
        e0 = entropy_Eh(state.p, state.n, state.phi, asm.d, asm.stiffness, fns)
        e1 = entropy_Eh(new.p, new.n, new.phi, asm.d, asm.stiffness, fns)
        assert e1 <= e0 + 1e-8
        lo = min(p0.min(), n0.min())
        hi = max(p0.max(), n0.max())
        assert new.p.min() >= lo - 1e-10 and new.p.max() <= hi + 1e-10
        assert new.n.min() >= lo - 1e-10 and new.n.max() <= hi + 1e-10

    def test_stagnation_exit_returns_best_iterate(self):
        # past roundoff the residual of the 8 x 8 smooth step sits at a
        # floor, so the loop ends at the stagnation exit, not at max_iters
        sc = unreachable_tolerance(smooth_scenario(1, n=8), 200)
        asm, state, _ = first_state(sc)
        new, iters, hist, reason, res = picard_step_alg1(
            state, sc.config, sc.bc, asm)
        assert reason == "stagnated" and iters < 200
        assert res == min(hist) and len(hist) == iters + 1
        assert iters - hist.index(res) == STAGNATION_WINDOW
        from pnpfem.solver import _StepContext, _stack
        ctx = _StepContext(state, sc.config, asm)
        assert ctx.residual_norm(_stack(new.p, new.n)) == res

    def test_unreachable_tolerance_raises_step_error(self):
        sc = unreachable_tolerance(smooth_scenario(1), 3)
        mesh = sc.make_mesh()
        st = build_sym_stencils(mesh)
        p0, n0 = sc.initial_fields(mesh)
        asm = Assemblies(mesh, st, sc.bc, entropy_functions(1e-8))
        state = State(p0, n0, asm.poisson.solve(p0 - n0), 0.0)
        with pytest.raises(StepError) as err:
            picard_step_alg1(state, sc.config, sc.bc, asm)
        assert len(err.value.residual_history) == 4


class TestRun:
    def test_zero_steps_returns_initial_report(self):
        sc = uniform_scenario(1, k=0.1, T=0.05)
        result = run(sc)
        assert len(result.reports) == 1
        assert result.reports[0].t == 0.0
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

    def test_step_error_carries_partial_result(self):
        sc = unreachable_tolerance(smooth_scenario(1, k=1e-3, T=3e-3), 2)
        with pytest.raises(StepError) as err:
            run(sc)
        assert hasattr(err.value, "partial")
        assert err.value.partial.reports == []

    def test_singular_density_system_carries_partial_result(self,
                                                            monkeypatch):
        # from step 3 on, the anion system has a zero row: a real singular
        # matrix reaches the factorization
        import pnpfem.solver as solver
        systems, steps = solver._StepContext.systems, []

        def with_zero_row(ctx, p, n, phi):
            A_p, b_p, A_n, b_n = systems(ctx, p, n, phi)
            if len(steps) > 2:
                A_n.data[A_n.indptr[5]:A_n.indptr[6]] = 0.0
            return A_p, b_p, A_n, b_n

        monkeypatch.setattr(solver._StepContext, "systems", with_zero_row)
        sc = uniform_scenario(1, k=0.01, T=0.05)
        with pytest.raises(LinearSolveError, match="singular") as err:
            run(sc, on_step=lambda m, s: steps.append(m))
        assert len(err.value.partial.reports) == 2

    def test_stagnated_step_is_recorded_and_warned(self):
        sc = unreachable_tolerance(smooth_scenario(1, T=2e-3), 200)
        with pytest.warns(RuntimeWarning, match="stagnated") as caught:
            result = run(sc)
        assert result.stagnated_steps == [1, 2]
        assert sum("stagnated" in str(w.message) for w in caught) == 2
        assert len(result.reports) == 2 and result.flags_ok()

    def test_converged_run_has_no_stagnated_steps(self):
        assert run(smooth_scenario(2)).stagnated_steps == []

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

    def test_epsilon_policy(self):
        from pnpfem import epsilon_for_scenario
        p0 = np.full(4, 1.0)
        n0 = np.full(4, 2.0)
        assert epsilon_for_scenario(p0, n0, BoundarySpec()) == 0.5
        driven = BoundarySpec(phi_dirichlet={BOTTOM: -1.0})
        assert epsilon_for_scenario(p0, n0, driven) == 1e-8
        assert epsilon_for_scenario(np.zeros(4), n0, BoundarySpec()) == 1e-8


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

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    @pytest.mark.parametrize("name", [
        "k", "T", "q", "picard_residual_tol", "picard_increment_tol",
        "linear_tol"])
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
        "k", "T", "q", "picard_residual_tol", "picard_increment_tol",
        "linear_tol"])
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
            _solve_linear(plan, mesh.csr(data), np.ones(mesh.num_nodes),
                          1e-12)
        assert isinstance(err.value.__cause__, RuntimeError)


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
        _, iters, *_ = step(state, sc.config, sc.bc, asm)
        assert calls["sweep"] == iters >= 2
        assert calls["alpha"] == 2 * calls["residual"]


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

    @pytest.mark.parametrize("poison", [False, True])
    def test_out_of_bounds_mix_restarts_the_history(self, poison,
                                                    monkeypatch):
        # poisoned, the first mix is pushed below the bounds: the step's
        # own bound check must refuse it before its residual is evaluated,
        # restart the history from the latest sweep and still converge in
        # bounds; unpoisoned, the second mix extends the history
        import pnpfem.solver as solver
        sc = smooth_scenario(2)
        asm, state, (lo, hi) = first_state(sc)
        mix, sizes, evaluated = solver._anderson_mix, [], []

        def recorded_mix(pairs):
            sizes.append(len(pairs))
            z = mix(pairs)
            if poison and len(sizes) == 1:
                z = z.copy()
                z[0] = lo - 1e-6
            return z

        residual_parts = solver._StepContext.residual_parts

        def recorded_residual(ctx, p, n):
            evaluated.append(p[0])
            return residual_parts(ctx, p, n)

        monkeypatch.setattr(solver, "_anderson_mix", recorded_mix)
        monkeypatch.setattr(solver._StepContext, "residual_parts",
                            recorded_residual)
        new, _, hist, reason, _ = picard_step_alg2(state, sc.config, sc.bc,
                                                   asm, (lo, hi))
        assert sizes[:2] == ([2, 2] if poison else [2, 3])
        assert lo - 1e-6 not in evaluated
        assert reason == "converged" and hist[-1] <= 1e-6
        for x in (new.p, new.n):
            assert lo - DMP_TOL <= x.min() and x.max() <= hi + DMP_TOL

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

        def recorded(state, config, bc, asm, bounds):
            seen.append(bounds)
            return step(state, config, bc, asm, bounds)

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
        assert result.flags_ok() and result.stagnated_steps == []
