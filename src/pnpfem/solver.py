"""Coupled implicit time stepping for the two stabilized ion-transport schemes.

Each step runs a fixed-point (Picard) loop over the block system for the two
ion densities and the electric potential.  Within one sweep the densities are
solved with coefficients frozen at the previous iterate; Anderson mixing of
the recent sweeps, or else a backtracking line search, picks the density
update, and the potential is recomputed from the accepted densities.
Algorithm 1 uses the consistent mass matrix, an implicit drift matrix and
matrix-coupling stabilization; algorithm 2 uses the lumped mass, the
explicit edge-based transport term and entropy-secant stabilization.
"""

import numbers
import warnings

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .detector import compute_alpha
from .fespace import (
    assemble_drift,
    assemble_mass,
    assemble_stiffness,
    lumped_mass_vector,
)
from .stabilizer import (
    build_stabilizer_alg1,
    build_stabilizer_alg2,
    entropy_functions,
    star_transport_vector,
)
from . import diagnostics, mesh as meshmod

EPSILON_FLOOR = 1e-8
ELECTRONEUTRALITY_TOL = 1e-2
POISSON_LINEAR_TOL = 1e-12
DMP_TOL = 1e-10
MASS_DRIFT_TOL = 1e-10
ENTROPY_STEP_TOL = 1e-8
# the Picard line search tries the step lengths shrink^j, j = 0..halvings; a
# step whose best residual has not improved for the window keeps that iterate
LINE_SEARCH_SHRINK = 0.5
LINE_SEARCH_HALVINGS = 30
STAGNATION_WINDOW = 50
# Anderson mixing uses up to this many differences of consecutive sweeps
ANDERSON_DEPTH = 5


class ElectroneutralityError(ValueError):
    """Pure-Neumann potential solve with an unbalanced total charge."""


class LinearSolveError(RuntimeError):
    """A linear system failed to reach the requested residual."""


class StepError(RuntimeError):
    """A time step failed to converge; carries the residual history."""

    def __init__(self, message, residual_history):
        super().__init__(message)
        self.residual_history = residual_history


class State:
    """Solver state: cation density p, anion density n, potential phi, time t."""

    def __init__(self, p, n, phi, t):
        self.p = np.asarray(p, dtype=float)
        self.n = np.asarray(n, dtype=float)
        self.phi = np.asarray(phi, dtype=float)
        self.t = float(t)
        for name in ("p", "n", "phi"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"non-finite values in state field {name}")


def _whole(name, value, minimum=1):
    """``value`` as an int of at least ``minimum``; a bool, a fraction, a
    non-number or a smaller value is refused."""
    whole = (isinstance(value, numbers.Integral)
             and not isinstance(value, bool)
             or isinstance(value, float) and value.is_integer())
    if not (whole and value >= minimum):
        raise ValueError(f"{name!r} must be a whole number of at least "
                         f"{minimum}, got {value!r}")
    return int(value)


def _real(name, value, kind="positive"):
    """``value`` as a finite float that is, by ``kind``, positive,
    nonnegative or any real; a bool or a non-number is refused."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not np.isfinite(value)
            or kind == "positive" and value <= 0
            or kind == "nonnegative" and value < 0):
        raise ValueError(f"{name!r} must be a finite {kind} number, got "
                         f"{value!r}")
    return float(value)


class SolverConfig:
    """Time stepping and nonlinear-iteration parameters.

    ``linear_tol`` bounds the backward error of the density solves.
    """

    def __init__(self, algorithm=1, k=1e-3, T=0.5, q=2.0,
                 picard_residual_tol=1e-6, picard_increment_tol=1e-16,
                 picard_max_iters=400, linear_tol=1e-12):
        self.algorithm = _whole("algorithm", algorithm)
        if self.algorithm not in (1, 2):
            raise ValueError(f"'algorithm' must be 1 or 2, got {algorithm}")
        self.k = _real("k", k)
        self.T = _real("T", T, "nonnegative")
        if not np.isfinite(self.T / self.k):
            raise ValueError(f"the step count T / k must be finite, got "
                             f"T={T:g}, k={k:g}")
        self.q = _real("q", q)
        self.picard_residual_tol = _real("picard_residual_tol",
                                         picard_residual_tol)
        self.picard_increment_tol = _real("picard_increment_tol",
                                          picard_increment_tol)
        self.picard_max_iters = _whole("picard_max_iters", picard_max_iters)
        self.linear_tol = _real("linear_tol", linear_tol)


def _tag_values(name, values):
    """A boundary tag -> value dict with float values; a non-dict or a value
    that is not a finite real number is refused."""
    if not isinstance(values, dict):
        raise ValueError(f"{name!r} must map boundary tags to numbers, got "
                         f"{values!r}")
    return {tag: _real(f"{name}.{tag}", value, "real")
            for tag, value in values.items()}


class BoundarySpec:
    """Dirichlet data by boundary tag; everything else is natural Neumann.

    ``phi_dirichlet`` maps tags to potential values (empty = pure Neumann,
    zero-mean potential); ``p_dirichlet`` optionally pins the cation density
    on tagged nodes.
    """

    def __init__(self, phi_dirichlet=None, p_dirichlet=None):
        self.phi_dirichlet = _tag_values("phi_dirichlet", phi_dirichlet or {})
        self.p_dirichlet = _tag_values("p_dirichlet", p_dirichlet or {})

    @property
    def pure_neumann(self):
        return not self.phi_dirichlet

    def tagged_nodes(self, mesh, tag_values):
        nodes, values = [], []
        for tag, value in tag_values.items():
            idx = mesh.nodes_with_tag(tag)
            if idx.size == 0:
                raise ValueError(f"boundary tag {tag!r} matches no mesh node")
            nodes.append(idx)
            values.append(np.full(idx.size, float(value)))
        if not nodes:
            return np.zeros(0, dtype=np.int64), np.zeros(0)
        return np.concatenate(nodes), np.concatenate(values)


class PoissonSolver:
    """Prefactorized potential solver for a fixed mesh and boundary spec.

    Pure-Neumann problems are compatible only for a balanced total charge;
    the residual charge mean is projected out of the right side (interpolated
    initial data balance only approximately) and the solution is shifted to
    zero mean.  Dirichlet values are imposed strongly.  ``lumped`` is the
    lumped mass vector.
    """

    def __init__(self, mesh, stiffness, lumped, bc):
        self.mesh = mesh
        self.stiffness = stiffness.tocsr()
        self._abs_stiffness = abs(self.stiffness)  # for the backward error
        self.d = np.asarray(lumped, dtype=float)
        self.area = float(self.d.sum())

        fixed, values = bc.tagged_nodes(mesh, bc.phi_dirichlet)
        self.pure_neumann = fixed.size == 0
        if self.pure_neumann:
            # ground node 0; the projected right side makes this consistent
            fixed, values = np.zeros(1, dtype=np.int64), np.zeros(1)
        self.fixed = fixed
        self.fixed_values = values
        mask = np.ones(mesh.num_nodes, dtype=bool)
        mask[fixed] = False
        self.free = free = np.flatnonzero(mask)
        # the backward error covers the whole system when it is singular,
        # else the rows that are solved for
        self._checked_rows = slice(None) if self.pure_neumann else free
        K = self.stiffness
        self._lu = spla.splu(K[free][:, free].tocsc())
        self._K_fc = K[free][:, fixed].tocsr()

    def solve(self, rho_diff):
        """Potential for a given charge difference p - n."""
        rho_diff = np.asarray(rho_diff, dtype=float)
        b = self.d * rho_diff
        if self.pure_neumann:
            total = b.sum()
            if abs(total) > ELECTRONEUTRALITY_TOL * self.area:
                raise ElectroneutralityError(
                    f"total charge {total:g} violates electroneutrality "
                    f"(tolerance {ELECTRONEUTRALITY_TOL:g} x area)"
                )
            b = b - (total / self.area) * self.d
        phi = np.zeros(self.mesh.num_nodes)
        phi[self.fixed] = self.fixed_values
        rhs = b[self.free] - self._K_fc @ self.fixed_values
        phi[self.free] = self._lu.solve(rhs)
        if self.pure_neumann:
            phi -= diagnostics.dot(self.d, phi) / self.area
        resid = (self.stiffness @ phi - b)[self._checked_rows]
        scale = float((self._abs_stiffness @ np.abs(phi)).max(initial=0.0)
                      + np.abs(b).max(initial=0.0))
        err = np.abs(resid).max(initial=0.0) / max(scale, 1.0)
        if not np.isfinite(err) or err > 1e3 * POISSON_LINEAR_TOL:
            raise LinearSolveError(
                f"potential solve backward error {err:g} exceeds tolerance"
            )
        return phi


class SolvePlan:
    """A fill-reducing solve of the matrices on a mesh's P1 pattern.

    The pattern is fixed per mesh, so its symmetric ordering ``perm`` is
    found once, from the structure alone, and each matrix is factored as
    ``P A P^T`` with no further ordering: entry (i, j) of the permuted matrix
    is ``A[perm[i], perm[j]]``.  Its CSC values are ``A.data[gather]`` on the
    fixed ``indices`` and ``indptr``; explicit zeros stay in, so the symbolic
    structure does not change between matrices.  SuperLU keeps its partial
    pivoting.
    """

    _OPTIONS = dict(SymmetricMode=True)
    _ORDERINGS = ("MMD_AT_PLUS_A", "COLAMD")

    def __init__(self, mesh):
        n = mesh.num_nodes
        self.rows = np.repeat(np.arange(n), np.diff(mesh.pattern_indptr))
        self.cols = mesh.pattern_indices
        # a diagonally dominant matrix on the pattern is nonsingular, and
        # with diagonal pivots its ordering and fill depend on the structure
        # alone; neither ordering wins on every mesh (minimum degree on the
        # square, COLAMD on the channel), so the one with less fill is kept
        data = np.full(mesh.pattern_nnz, -1.0)
        data[mesh.diag_slots] = np.diff(mesh.pattern_indptr)
        structure = mesh.csr(data).tocsc()

        def fill_and_order(spec):
            # the copy lets the factors go before the next ordering is tried
            lu = spla.splu(structure, permc_spec=spec, options=self._OPTIONS)
            return lu.nnz, lu.perm_c.copy()

        _, new = min(map(fill_and_order, self._ORDERINGS),
                     key=lambda fill_order: fill_order[0])
        # new[i] is the permuted index of node i
        self.perm = np.argsort(new)
        # the permuted matrix's entries in CSC order: by column, then row
        rows, cols = new[self.rows], new[self.cols]
        self.gather = np.lexsort((rows, cols))
        self.indices = rows[self.gather].astype(np.intc)
        self.indptr = np.zeros(n + 1, dtype=np.intc)
        np.cumsum(np.bincount(cols, minlength=n), out=self.indptr[1:])

    def factor(self, data):
        """SuperLU factors of ``P A P^T`` for the values ``data`` of A."""
        n = self.perm.size
        M = sp.csc_matrix((data[self.gather], self.indices, self.indptr),
                          shape=(n, n))
        return spla.splu(M, permc_spec="NATURAL", options=self._OPTIONS)

    def abs_matvec(self, data, x):
        """|A| |x| for the values ``data`` of A on the pattern."""
        return np.bincount(self.rows,
                           weights=np.abs(data) * np.abs(x)[self.cols],
                           minlength=self.perm.size)


class Assemblies:
    """Mesh-bound operators shared by every step of a run."""

    def __init__(self, mesh, stencil, bc, fns):
        self.mesh = mesh
        self.stencil = stencil
        self.bc = bc
        self.fns = fns
        self.mass = assemble_mass(mesh)
        self.d = lumped_mass_vector(mesh)
        self.stiffness = assemble_stiffness(mesh)
        self.poisson = PoissonSolver(mesh, self.stiffness, self.d, bc)
        self.solve_plan = SolvePlan(mesh)
        self.p_fixed, self.p_fixed_values = bc.tagged_nodes(mesh, bc.p_dirichlet)
        self._p_row_slots = np.flatnonzero(np.isin(self.solve_plan.rows,
                                                   self.p_fixed))

    def impose_p_rows(self, A, b):
        """Replace pinned cation rows by identity rows with the pinned value.

        ``A`` holds the values of a matrix on the mesh's P1 pattern and is
        changed in place.
        """
        if not self.p_fixed.size:
            return A, b
        A[self._p_row_slots] = 0.0
        A[self.mesh.diag_slots[self.p_fixed]] = 1.0
        b = b.copy()
        b[self.p_fixed] = self.p_fixed_values
        return A, b


def epsilon_for_scenario(p0, n0, bc):
    """Regularization threshold adapted to the boundary conditions.

    Isolated (pure-Neumann) runs keep the bounds of the initial data, so the
    threshold can sit below the initial minimum and the regularized branch
    never activates: it is half the smallest initial density, which is
    strictly below that minimum whenever the minimum is positive.  Driven
    runs (any Dirichlet data) push densities below the initial minimum
    toward zero; there the threshold must be tiny, or the max(value,
    epsilon) floor of the transport secant keeps extracting mass from an
    emptied wall node and makes it negative.  Both are floored, because
    saturated initial data can reach exactly zero in floating point.
    """
    if bc.pure_neumann and not bc.p_dirichlet:
        m = 0.5 * min(float(np.min(p0)), float(np.min(n0)))
        return max(m, EPSILON_FLOOR)
    return EPSILON_FLOOR


def backtracking_search(prev, candidate, residual_fn,
                        shrink=LINE_SEARCH_SHRINK,
                        max_halvings=LINE_SEARCH_HALVINGS,
                        prev_residual=None, good_enough=None):
    """Damped update selection between a previous iterate and a candidate.

    Tries theta in {1, shrink, shrink^2, ...} and returns
    ``prev + theta (candidate - prev)`` for the first theta whose residual is
    below ``good_enough`` or strictly below the residual at ``prev``.  If no
    theta reduces the residual, the most-damped iterate is returned with the
    no-decrease flag set.

    Returns
    -------
    (accepted, theta, residual, no_decrease)
    """
    prev = np.asarray(prev, dtype=float)
    candidate = np.asarray(candidate, dtype=float)
    r_prev = residual_fn(prev) if prev_residual is None else prev_residual
    if np.array_equal(candidate, prev):
        return prev.copy(), 1.0, r_prev, True
    direction = candidate - prev
    theta = 1.0
    trial, r = prev, r_prev
    for _ in range(max_halvings + 1):
        trial = prev + theta * direction
        r = residual_fn(trial)
        if (good_enough is not None and r <= good_enough) or r < r_prev:
            return trial, theta, r, False
        theta *= shrink
    return trial, theta / shrink, r, True


def _anderson_mix(pairs):
    """Anderson mix of sweep pairs (z_j, G(z_j)), oldest first.

    With f = G(z) - z and the differences dF, dG of consecutive pairs, the
    mix is G(z_k) - dG gamma, where gamma minimizes ||f_k - dF gamma||_2
    (Walker & Ni, SIAM J. Numer. Anal. 49, 2011).  On an affine map whose
    dimension is at most the number of differences, it is the fixed point.
    """
    z, g = (np.array(column) for column in zip(*pairs))
    f = g - z
    gamma = np.linalg.lstsq(np.diff(f, axis=0).T, f[-1], rcond=None)[0]
    return g[-1] - gamma @ np.diff(g, axis=0)


def _admissible(z, bounds):
    """Finite, and within ``bounds`` up to DMP_TOL unless they are None."""
    if not np.all(np.isfinite(z)):
        return False
    if bounds is None:
        return True
    lo, hi = bounds
    return bool(z.min() >= lo - DMP_TOL and z.max() <= hi + DMP_TOL)


def _stack(p, n):
    return np.concatenate([p, n])


def _unstack(z, n_nodes):
    return z[:n_nodes], z[n_nodes:]


def _solve_linear(plan, A, b, linear_tol):
    """Solve with the CSR matrix ``A`` on the mesh's P1 pattern."""
    try:
        lu = plan.factor(A.data)
    except RuntimeError as err:  # SuperLU: "Factor is exactly singular"
        raise LinearSolveError(f"density solve failed: {err}") from err
    x = np.empty_like(b)
    x[plan.perm] = lu.solve(b[plan.perm])
    resid = float(np.abs(A @ x - b).max(initial=0.0))
    scale = float(plan.abs_matvec(A.data, x).max(initial=0.0)
                  + np.abs(b).max(initial=0.0))
    err = resid / max(scale, np.finfo(float).tiny)
    if not np.isfinite(err) or err > 1e3 * linear_tol:
        raise LinearSolveError(
            f"density solve backward error {err:g} exceeds tolerance")
    return x


class _StepContext:
    """One time step's per-iterate systems A(z) z = b(z), z = (p, n).

    ``systems`` is the only description of either scheme.  The residual is
    A(z) z - b(z) of the systems built at z, which it keeps, and a sweep
    from z solves those same systems.
    """

    def __init__(self, state, config, asm):
        self.asm = asm
        self.config = config
        self.k = k = config.k
        self._kept = None  # (p, n, phi, systems) of the last residual
        # step-constant parts of A and b: every matrix here is on the mesh's
        # P1 pattern, so sums of matrices are sums of their values; dividing
        # by k multiplies by 1/k, as scipy does for a sparse matrix
        K = asm.stiffness.data
        if config.algorithm == 1:
            self._A_base = asm.mass.data * (1.0 / k) + K
            self._b_old = (asm.mass @ state.p / k, asm.mass @ state.n / k)
        else:
            self._A_base = K.copy()
            self._A_base[asm.mesh.diag_slots] += asm.d * (1.0 / k)
            self._b_old = (asm.d * state.p / k, asm.d * state.n / k)

    def systems(self, p, n, phi):
        """The two density systems with coefficients frozen at (p, n, phi).

        Algorithm 1: (M/k + K +- G + B) x = M x_old / k, with the drift G
        of phi.  Algorithm 2: (D/k + K + B) x = D x_old / k -+ v(x, phi),
        with the edge transport v.  B is each species' stabilizer, + is the
        cation sign, and pinned cation rows are identity rows.

        Returns (A_p, b_p, A_n, b_n), each A a CSR matrix on the mesh's P1
        pattern.
        """
        asm, cfg, k = self.asm, self.config, self.k
        mesh, K = asm.mesh, asm.stiffness
        a_p = compute_alpha(p, cfg.q, mesh, asm.stencil)
        a_n = compute_alpha(n, cfg.q, mesh, asm.stencil)
        b_p, b_n = self._b_old
        if cfg.algorithm == 1:
            G = assemble_drift(mesh, phi)
            Bp = build_stabilizer_alg1(+1, k, a_p, mesh, asm.mass, K, G)
            Bn = build_stabilizer_alg1(-1, k, a_n, mesh, asm.mass, K, G)
            A_p = self._A_base + G.data + Bp.matrix.data
            A_n = self._A_base - G.data + Bn.matrix.data
        else:
            Bp = build_stabilizer_alg2(+1, p, phi, a_p, asm.fns, K, mesh)
            Bn = build_stabilizer_alg2(-1, n, phi, a_n, asm.fns, K, mesh)
            A_p = self._A_base + Bp.matrix.data
            A_n = self._A_base + Bn.matrix.data
            b_p = b_p - star_transport_vector(p, phi, asm.fns, K, mesh)
            b_n = b_n + star_transport_vector(n, phi, asm.fns, K, mesh)
        A_p, b_p = asm.impose_p_rows(A_p, b_p)
        return mesh.csr(A_p), b_p, mesh.csr(A_n), b_n

    def residual_parts(self, p, n):
        """Self-consistent residual A(z) z - b(z): the potential is
        recomputed from (p, n) and the systems are built there, so the value
        vanishes only at a true fixed point of the step."""
        phi = self.asm.poisson.solve(p - n)
        A_p, b_p, A_n, b_n = systems = self.systems(p, n, phi)
        self._kept = (p, n, phi, systems)
        return phi, _stack(A_p @ p - b_p, A_n @ n - b_n)

    def residual_norm(self, z):
        p, n = _unstack(z, self.asm.mesh.num_nodes)
        _, r = self.residual_parts(p, n)
        return float(np.abs(r).max())

    @property
    def phi(self):
        """The potential of the last residual's iterate."""
        return self._kept[2]

    def linearized_solve(self, z):
        """One block sweep: solve the systems built at the iterate z."""
        p, n = _unstack(z, self.asm.mesh.num_nodes)
        kept = self._kept
        if kept is None or not (np.array_equal(kept[0], p)
                                and np.array_equal(kept[1], n)):
            self.residual_parts(p, n)
        A_p, b_p, A_n, b_n = self._kept[3]
        plan, tol = self.asm.solve_plan, self.config.linear_tol
        return _stack(_solve_linear(plan, A_p, b_p, tol),
                      _solve_linear(plan, A_n, b_n, tol))


def _picard_step(state, config, bc, asm, bounds=None):
    """One implicit step: the Picard loop from ``state``.

    ``bounds`` is the (lo, hi) range that the discrete maximum principle
    keeps the densities in, or None where it is not in force.

    Returns (new_state, iterations, residual_history, reason, residual),
    where ``reason`` is "converged" (residual tolerance met), "increment"
    (increment tolerance met) or "stagnated" (no new best residual in
    ``STAGNATION_WINDOW`` iterations; the best iterate is returned), and
    ``residual`` is that of the returned state.
    """
    ctx = _StepContext(state, config, asm)
    n_nodes = asm.mesh.num_nodes
    z = _stack(state.p, state.n)
    res = ctx.residual_norm(z)
    history = [res]

    # Each sweep's pair (z, G(z)) joins the Anderson history, and the mix
    # of that history is taken when it is finite, within the bounds and
    # lowers the residual.  Otherwise the history restarts from the latest
    # pair and a backtracking search between z and G(z) picks the iterate.
    # The residual is not monotone along the fixed-point path, so a strict
    # descent search can jam short of the tolerance, and the undamped map can
    # enter a two-cycle.  When the search jams, iterate with a constant
    # relaxation factor (which breaks oscillatory cycles), without mixing,
    # until the residual falls below the jam level, then search again.
    # Near-flat density plateaus can pin the self-consistent residual at a
    # noise floor (the detector reacts to roundoff ripples); the stagnation
    # exit then keeps the best iterate instead of aborting the run.
    pairs = []
    jam_res = None
    best_res, best_it = res, 0
    best = (z, ctx.phi)
    for it in range(1, config.picard_max_iters + 1):
        candidate = ctx.linearized_solve(z)
        pairs = pairs[-ANDERSON_DEPTH:] + [(z, candidate)]
        z_new = None
        if jam_res is not None:
            pairs = pairs[-1:]
            z_new = z + LINE_SEARCH_SHRINK * (candidate - z)
            res = ctx.residual_norm(z_new)
            if res < jam_res:
                jam_res = None
        elif len(pairs) > 1:
            mixed = _anderson_mix(pairs)
            if _admissible(mixed, bounds):
                res = ctx.residual_norm(mixed)
                if res < history[-1]:
                    z_new = mixed
        if z_new is None:
            pairs = pairs[-1:]
            z_new, _theta, res, no_decrease = backtracking_search(
                z, candidate, ctx.residual_norm,
                prev_residual=history[-1],
                good_enough=config.picard_residual_tol,
            )
            if no_decrease and not np.array_equal(candidate, z):
                jam_res = history[-1]
                z_new = z + LINE_SEARCH_SHRINK * (candidate - z)
                res = ctx.residual_norm(z_new)
        # each branch above ends with the residual kept at z_new
        increment = float(np.sqrt(diagnostics.dot(z_new - z, z_new - z)))
        z = z_new
        history.append(res)
        if res < best_res:
            best_res, best_it = res, it
            best = (z, ctx.phi)
        if res <= config.picard_residual_tol:
            reason, phi = "converged", ctx.phi
        elif increment <= config.picard_increment_tol:
            reason, phi = "increment", ctx.phi
        elif it - best_it >= STAGNATION_WINDOW:
            reason, res, (z, phi) = "stagnated", best_res, best
        else:
            continue
        p_new, n_new = _unstack(z, n_nodes)
        new_state = State(p_new, n_new, phi, state.t + config.k)
        return new_state, it, history, reason, res
    raise StepError(
        f"fixed-point loop failed at t={state.t + config.k:g}: "
        f"residual {history[-1]:g} after {len(history) - 1} iterations",
        history,
    )


def picard_step_alg1(state, config, bc, asm, bounds=None):
    """Advance one step with the consistent-mass, implicit-drift scheme; see
    ``_picard_step`` for ``bounds`` and the returned tuple."""
    if config.algorithm != 1:
        raise ValueError("config.algorithm must be 1")
    return _picard_step(state, config, bc, asm, bounds)


def picard_step_alg2(state, config, bc, asm, bounds=None):
    """Advance one step with the lumped-mass, edge-transport scheme; see
    ``_picard_step`` for ``bounds`` and the returned tuple."""
    if config.algorithm != 2:
        raise ValueError("config.algorithm must be 2")
    return _picard_step(state, config, bc, asm, bounds)


class RunResult:
    """Outcome of a scenario run.

    ``reports`` has one entry per executed step (or the initial report alone
    when no step fits in [0, T]); ``initial_report`` is always available.
    ``in_force`` records which invariant flags the scenario's theory
    guarantees, for strict exit checking.  ``stagnated_steps`` lists the
    indices of the steps that ended at the stagnation exit.
    """

    def __init__(self, reports, initial_report, state, mesh, asm, bounds,
                 in_force, stagnated_steps):
        self.reports = reports
        self.initial_report = initial_report
        self.state = state
        self.mesh = mesh
        self.assemblies = asm
        self.bounds = bounds
        self.in_force = in_force
        self.stagnated_steps = list(stagnated_steps)

    def all_reports(self):
        if self.reports and self.reports[0] is self.initial_report:
            return list(self.reports)
        return [self.initial_report] + list(self.reports)

    def flags_ok(self):
        """True when every in-force flag holds on every report."""
        for rep in self.all_reports():
            for name, active in self.in_force.items():
                if active and not getattr(rep, name):
                    return False
        return True


def _make_report(state, asm, fns, bounds, mass0, prev_entropy, picard_iters,
                 smallness_ok):
    """Diagnostics row for one state.  Entropy and dissipation are evaluated
    with negative density entries clamped to zero (bound violations still
    show in the raw extrema columns and the dmp flag)."""
    lo, hi = bounds
    mass_p = diagnostics.mass(state.p, asm.d)
    mass_n = diagnostics.mass(state.n, asm.d)
    p = np.maximum(state.p, 0.0)
    n = np.maximum(state.n, 0.0)
    entropy = diagnostics.entropy_Eh(p, n, state.phi, asm.d, asm.stiffness, fns)
    dissip = (
        diagnostics.dissipation_Dh(p, state.phi, asm.stiffness, fns, asm.mesh)
        + diagnostics.dissipation_Dh(n, state.phi, asm.stiffness, fns, asm.mesh)
    )
    min_p, _, max_p, _ = diagnostics.extrema(state.p)
    min_n, _, max_n, _ = diagnostics.extrema(state.n)
    dmp_ok = (
        min(min_p, min_n) >= lo - DMP_TOL and max(max_p, max_n) <= hi + DMP_TOL
    )
    mass_ok = True
    mass0_p, mass0_n = mass0
    if not asm.p_fixed.size:
        mass_ok = abs(mass_p - mass0_p) <= MASS_DRIFT_TOL * max(abs(mass0_p), 1.0)
    mass_ok = mass_ok and (
        abs(mass_n - mass0_n) <= MASS_DRIFT_TOL * max(abs(mass0_n), 1.0)
    )
    entropy_ok = (
        True if prev_entropy is None else entropy <= prev_entropy + ENTROPY_STEP_TOL
    )
    return diagnostics.StepReport(
        t=state.t, mass_p=mass_p, mass_n=mass_n,
        energy_es=diagnostics.energy_electrostatic(state.phi, asm.stiffness),
        entropy=entropy, dissipation=dissip,
        max_p=max_p, min_p=min_p, max_n=max_n, min_n=min_n,
        picard_iters=picard_iters,
        dmp_ok=dmp_ok, mass_ok=mass_ok, entropy_ok=entropy_ok,
        smallness_ok=smallness_ok,
    )


def run(scenario, on_step=None):
    """Execute a scenario: build the problem, march in time, collect reports.

    ``on_step(step_index, state)`` is invoked for the initial state (index 0)
    and after every accepted step.  A step that ends at the stagnation exit
    is kept, listed on ``stagnated_steps`` and reported with a
    ``RuntimeWarning``.  Step failures abort the run; the raised
    ``StepError`` or ``LinearSolveError`` carries the partial ``RunResult``
    on its ``partial`` attribute so outputs can be flushed.
    """
    mesh = scenario.make_mesh()
    stencil = meshmod.build_sym_stencils(mesh)
    p0, n0 = scenario.initial_fields(mesh)
    fns = entropy_functions(epsilon_for_scenario(p0, n0, scenario.bc))
    asm = Assemblies(mesh, stencil, scenario.bc, fns)
    config = scenario.config
    phi0 = asm.poisson.solve(p0 - n0)
    state = State(p0, n0, phi0, 0.0)

    lo = min(float(p0.min()), float(n0.min()))
    hi = max(float(p0.max()), float(n0.max()))
    smallness_ok = 1.0 - config.k * (hi - lo) > 0.0
    if not smallness_ok:
        warnings.warn(
            f"time step k={config.k:g} is not small against the initial "
            f"range {hi - lo:g}; the bound-preservation premise of "
            f"algorithm 1 fails",
            RuntimeWarning,
        )

    mass0 = (diagnostics.mass(p0, asm.d), diagnostics.mass(n0, asm.d))
    initial_report = _make_report(
        state, asm, fns, (lo, hi), mass0, None, 0, smallness_ok
    )
    acute = meshmod.check_acuteness(mesh, asm.stiffness).is_acute
    in_force = {
        "dmp_ok": scenario.bc.pure_neumann and not asm.p_fixed.size,
        "mass_ok": True,
        "entropy_ok": (
            config.algorithm == 2 and acute and scenario.bc.pure_neumann
            and not asm.p_fixed.size
        ),
        "smallness_ok": False,  # warned about, never enforced
    }

    if on_step is not None:
        on_step(0, state)

    nsteps = int(np.floor(config.T / config.k + 1e-9))
    reports, stagnated = [], []
    prev_entropy = initial_report.entropy
    step = picard_step_alg1 if config.algorithm == 1 else picard_step_alg2
    dmp_bounds = (lo, hi) if in_force["dmp_ok"] else None
    for m in range(1, nsteps + 1):
        try:
            state, iters, _history, reason, res = step(
                state, config, scenario.bc, asm, dmp_bounds)
        except (StepError, LinearSolveError) as err:
            err.partial = RunResult(reports, initial_report, state, mesh, asm,
                                    (lo, hi), in_force, stagnated)
            raise
        if reason == "stagnated":
            stagnated.append(m)
            warnings.warn(
                f"step {m} (t={state.t:g}) stagnated after {iters} "
                f"iterations at residual {res:g}, above "
                f"picard_residual_tol={config.picard_residual_tol:g}; its "
                f"best iterate is kept",
                RuntimeWarning,
            )
        rep = _make_report(state, asm, fns, (lo, hi), mass0, prev_entropy,
                           iters, smallness_ok)
        prev_entropy = rep.entropy
        reports.append(rep)
        if on_step is not None:
            on_step(m, state)
    return RunResult(reports or [initial_report], initial_report, state, mesh,
                     asm, (lo, hi), in_force, stagnated)
