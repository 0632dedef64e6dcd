"""Coupled implicit time stepping for the two stabilized ion-transport schemes.

Each step runs a fixed-point (Picard) loop over the block system for the two
ion densities and the electric potential.  Within one sweep the densities are
solved with coefficients frozen at the previous iterate; the next iterate is
the Anderson mix of the recent sweeps if it is admissible and lowers the
residual, else the relaxed sweep, and the potential is recomputed from it.
A step either meets its residual tolerance or raises ``StepError``.
Algorithm 1 uses the consistent mass matrix, an implicit drift matrix and
matrix-coupling stabilization; algorithm 2 uses the lumped mass, the
edge-based transport term and entropy-secant stabilization.  Its transport
enters the sweep as a matrix on the new iterate, with the rest of the term
lagged, so that both schemes' matrices carry their drift; the matrix takes
the largest step from the upwind one toward the transport's Jacobian that
keeps the system's off-diagonals nonpositive.
"""

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
    Alg2Edges,
    build_stabilizer_alg1,
    build_stabilizer_alg2,
    entropy_functions,
    star_transport_vector,
    transport_matrix,
)
from . import diagnostics, mesh as meshmod
from .mesh import _real, _whole

# the regularization threshold of the entropy derivative, below which dg is
# linear, for every run
EPSILON = 1e-8
ELECTRONEUTRALITY_TOL = 1e-2
# the backward-error bound of every linear solve
LINEAR_TOL = 1e-12
# a kept density factor is refactored when its corrections do not contract,
# or when their contraction forecasts more than this many to reach LINEAR_TOL
LAGGED_CORRECTIONS = 6
DMP_TOL = 1e-10
MASS_DRIFT_TOL = 1e-10
ENTROPY_STEP_TOL = 1e-8
# a refused Picard trial is replaced by z + RELAXATION (G(z) - z)
RELAXATION = 0.5
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


class SolverConfig:
    """Time stepping and nonlinear-iteration parameters."""

    def __init__(self, algorithm=1, k=1e-3, T=0.5, q=2.0,
                 picard_residual_tol=1e-6, picard_max_iters=400):
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
        self.picard_max_iters = _whole("picard_max_iters", picard_max_iters)

    @property
    def nsteps(self):
        """The steps of a run: all that end by T, to 1e-9 relative and at
        most half a step, the tolerance of ``step_of``."""
        m = self.T / self.k
        return int(np.floor(m + min(1e-9 * max(m, 1.0), 0.5)))

    def step_of(self, t):
        """The step of a run that ends at time t, 0 at its start, or None
        when t is off the step grid, to 1e-9 relative, or past the last."""
        m = t / self.k
        step = round(m)
        on_grid = abs(m - step) <= 1e-9 * max(m, 1.0)
        return step if on_grid and 0 <= step <= self.nsteps else None


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

    @property
    def isolated(self):
        """No Dirichlet potential and no pinned cations."""
        return self.pure_neumann and not self.p_dirichlet

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


class SolvePlan:
    """A fill-reducing solve of the matrices on a mesh's P1 pattern.

    The pattern is fixed per mesh, so its symmetric ordering ``perm`` is
    found once, from the structure alone, and each matrix is factored as
    ``P A P^T`` with no further ordering: entry (i, j) of the permuted matrix
    is ``A[perm[i], perm[j]]``.  Its CSC values are A's pattern values at
    ``gather``, on the fixed ``indices`` and ``indptr``; explicit zeros stay
    in, so the symbolic structure does not change between matrices.  SuperLU
    keeps its partial pivoting, but takes the diagonal pivot while it is at
    least a tenth of its column's largest entry, so the planned fill holds.
    """

    _OPTIONS = dict(SymmetricMode=True, DiagPivotThresh=0.1)
    _ORDERINGS = ("MMD_AT_PLUS_A", "COLAMD")

    def __init__(self, mesh):
        n = mesh.num_nodes
        self.mesh = mesh
        self.rows = np.repeat(np.arange(n), np.diff(mesh.pattern_indptr))
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
        rows, cols = new[self.rows], new[mesh.pattern_indices]
        self.gather = np.lexsort((rows, cols))
        self.indices = rows[self.gather].astype(np.intc)
        self.indptr = np.zeros(n + 1, dtype=np.intc)
        np.cumsum(np.bincount(cols, minlength=n), out=self.indptr[1:])

    def factor(self, data):
        """SuperLU factors of ``P A P^T`` for the values ``data`` of A; an
        exactly singular A raises ``LinearSolveError``."""
        n = self.perm.size
        M = sp.csc_matrix((data[self.gather], self.indices, self.indptr),
                          shape=(n, n))
        try:
            return spla.splu(M, permc_spec="NATURAL", options=self._OPTIONS)
        except RuntimeError as err:  # SuperLU: "Factor is exactly singular"
            raise LinearSolveError(f"LU factorization failed: {err}") from err

    def solve(self, lu, b):
        """x with A x = b, for the factors ``lu`` of ``P A P^T``."""
        x = np.empty_like(b)
        x[self.perm] = lu.solve(b[self.perm])
        return x

    def identity_rows(self, nodes):
        """A function that makes ``nodes`` identity rows: it zeroes their
        slots in the values of a matrix on the pattern, in place, puts 1 on
        their diagonal and returns the values.  The slots are found once."""
        slots = np.flatnonzero(np.isin(self.rows, nodes))
        diag = self.mesh.diag_slots[nodes]

        def impose(data):
            data[slots] = 0.0
            data[diag] = 1.0
            return data

        return impose


def _backward_error(mesh, A, abs_A, x, b, b_max):
    """(err, r): the residual r = b - A x and the backward error
    ||r|| / max(||A| |x|| + b_max, tiny) in the max norm, for the values
    ``A`` on the mesh's P1 pattern, ``abs_A`` = |A| and b_max = ||b||."""
    r = b - mesh.matvec(A, x)
    scale = float(mesh.matvec(abs_A, np.abs(x)).max(initial=0.0) + b_max)
    return float(np.abs(r).max(initial=0.0)) / max(scale,
                                                   np.finfo(float).tiny), r


def _gate(x, err, what):
    """``x`` if its backward error ``err`` is at most 1e3 ``LINEAR_TOL``;
    else a ``LinearSolveError`` that names ``what``."""
    if not np.isfinite(err) or err > 1e3 * LINEAR_TOL:
        raise LinearSolveError(
            f"{what} solve backward error {err:g} exceeds tolerance")
    return x


class LaggedFactor:
    """One species' density solves, with one SuperLU factor kept between
    them.

    Each system ``A x = b`` is solved with the kept factor, of an earlier
    and nearby matrix, from a start x0 that the caller has at hand, such as
    the Picard iterate: ``x = x0 - LU^-1 (A x0 - b)``.  It is corrected by
    ``x += LU^-1 (b - A x)`` until its backward error is at most
    ``LINEAR_TOL`` (iterative refinement with a stale factor: Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002, ch. 12,
    inside an inexact Picard loop: Dembo, Eisenstat & Steihaug, SIAM J.
    Numer. Anal. 19, 1982).  When a correction does not contract the
    error, or its contraction forecasts more than ``LAGGED_CORRECTIONS``
    corrections in all, the current matrix is factored and kept instead; a
    fresh factor is corrected while that pays.  The old factor is released
    before the new one is built, so a refactor never holds two factors,
    which would raise the peak memory.  Every answer ends at ``_gate``, 1e3
    ``LINEAR_TOL``.
    """

    def __init__(self, plan):
        self.plan = plan
        self.lu = None

    def solve(self, A, b, x0=None, r0=None):
        """x with A x = b, for the values ``A`` of a matrix on the plan's
        pattern, started from ``x0``, given with its residual ``r0`` = A x0
        - b, or by default from zero: the first solution is x0 - LU^-1 r0,
        and a refactor restarts from it.  From zero this is LU^-1 b, as
        negation is exact."""
        if x0 is None:
            x0, r0 = 0.0, -b
        plan, abs_A, b_max = self.plan, np.abs(A), np.abs(b).max(initial=0.0)
        while True:
            fresh = self.lu is None
            if fresh:
                self.lu = plan.factor(A)
            x = x0 - plan.solve(self.lu, r0)
            err, r = _backward_error(plan.mesh, A, abs_A, x, b, b_max)
            corrections = 0
            while not err <= LINEAR_TOL:
                x_new = x + plan.solve(self.lu, r)
                err_new, r_new = _backward_error(plan.mesh, A, abs_A, x_new,
                                                 b, b_max)
                corrections += 1
                rho = err_new / err
                if rho < 1.0:
                    x, err, r = x_new, err_new, r_new
                    # the corrections in all if each contracts by rho
                    if (err <= LINEAR_TOL or corrections + np.log(
                            LINEAR_TOL / err) / np.log(rho)
                            <= LAGGED_CORRECTIONS):
                        continue
                break
            if fresh or err <= LINEAR_TOL:
                return _gate(x, err, "density")
            # the kept factor goes before the current matrix is factored
            self.lu = None


class PoissonSolver:
    """Prefactorized potential solver for a fixed mesh and boundary spec.

    Pure-Neumann problems are compatible only for a balanced total charge;
    the residual charge mean is projected out of the right side (interpolated
    initial data balance only approximately), node 0 is grounded and the
    solution is shifted to zero mean.  Dirichlet values are imposed
    strongly.  The fixed nodes are identity rows of the ``stiffness`` values
    on the P1 pattern, factored once with ``plan``; ``lumped`` is the lumped
    mass vector; backward errors are taken on kept pattern values.
    """

    def __init__(self, mesh, stiffness, lumped, bc, plan):
        K = mesh.pattern_values(stiffness)
        self.d = np.asarray(lumped, dtype=float)
        self.area = float(self.d.sum())
        self.plan = plan

        fixed, values = bc.tagged_nodes(mesh, bc.phi_dirichlet)
        self.pure_neumann = fixed.size == 0
        if self.pure_neumann:
            # ground node 0; the projected right side makes this consistent
            fixed, values = np.zeros(1, dtype=np.int64), np.zeros(1)
        self.fixed, self.fixed_values = fixed, values
        data = plan.identity_rows(fixed)(K.copy())
        self._lu = plan.factor(data)
        # the system the backward error is taken on: the singular K itself,
        # on every row, for a pure-Neumann potential after its mean shift
        self._A = K if self.pure_neumann else data
        self._abs_A = np.abs(self._A)

    def solve(self, rho_diff):
        """Potential for a given charge difference p - n."""
        b = self.d * np.asarray(rho_diff, dtype=float)
        if self.pure_neumann:
            total = b.sum()
            if abs(total) > ELECTRONEUTRALITY_TOL * self.area:
                raise ElectroneutralityError(
                    f"total charge {total:g} violates electroneutrality "
                    f"(tolerance {ELECTRONEUTRALITY_TOL:g} x area)")
            b = b - (total / self.area) * self.d
        rhs = b.copy()
        rhs[self.fixed] = self.fixed_values
        phi = self.plan.solve(self._lu, rhs)
        # a pivoting row swap can leave a fixed value a roundoff off
        phi[self.fixed] = self.fixed_values
        if self.pure_neumann:
            phi -= diagnostics.dot(self.d, phi) / self.area
            rhs = b
        err = _backward_error(self.plan.mesh, self._A, self._abs_A, phi, rhs,
                              np.abs(rhs).max(initial=0.0))[0]
        return _gate(phi, err, "potential")


class Assemblies:
    """Mesh-bound operators shared by every step of a run."""

    def __init__(self, mesh, stencil, bc, fns):
        self.mesh = mesh
        self.stencil = stencil
        self.fns = fns
        self.mass = assemble_mass(mesh)
        self.d = lumped_mass_vector(mesh)
        self.stiffness = assemble_stiffness(mesh)
        self.solve_plan = SolvePlan(mesh)
        self.poisson = PoissonSolver(mesh, self.stiffness, self.d, bc,
                                     self.solve_plan)
        self.p_fixed, self.p_fixed_values = bc.tagged_nodes(mesh, bc.p_dirichlet)
        self.pin_p_rows = self.solve_plan.identity_rows(self.p_fixed)
        # one kept factor per species, cation first
        self.density_factors = (LaggedFactor(self.solve_plan),
                                LaggedFactor(self.solve_plan))


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


class _StepContext:
    """One time step's per-iterate systems A(z) z = b(z), z = (p, n).

    ``iterate_part`` and ``residual_parts`` are the only description of
    either scheme: A and the part c of b = b_old + c depend on the iterate,
    b_old only on the step's start, and a sweep from z solves exactly the
    systems whose residual ``residual_parts`` returned at z.
    """

    def __init__(self, state, config, asm):
        self.asm = asm
        self.config = config
        self.k = k = config.k
        # step-constant parts of A and b: every matrix here is on the mesh's
        # P1 pattern, so sums of matrices are sums of their values; dividing
        # by k multiplies by 1/k, as scipy does for a sparse matrix
        K = asm.stiffness.data
        if config.algorithm == 1:
            self._A_base = asm.mass.data * (1.0 / k) + K
            self._b_old = [asm.mesh.matvec(asm.mass.data, x) / k
                           for x in (state.p, state.n)]
        else:
            self._A_base = K.copy()
            self._A_base[asm.mesh.diag_slots] += asm.d * (1.0 / k)
            self._b_old = [asm.d * x / k for x in (state.p, state.n)]
            self._kij = K[asm.mesh.edge_slots]
        # a pinned cation row takes its value from c alone
        self._b_old[0][asm.p_fixed] = 0.0

    def iterate_part(self, p, n, phi):
        """The parts of the two density systems that depend on the iterate:
        A and c of b = b_old + c, with coefficients frozen at (p, n, phi).

        Algorithm 1: A = M/k + K +- G + B, with the drift G of phi, and
        c = 0; b_old = M x_old / k.  Algorithm 2: A = D/k + K + B +- T and
        c = -+ r, where the edge transport v(x, phi) is split into a matrix
        T(x, phi) and the lagged remainder r = v - T x, so that A(z) z -
        b(z) is the scheme's residual with v in full; b_old = D x_old / k.
        T steps from the upwind matrix toward the Jacobian of v as far as
        the off-diagonals of K + B +- T stay nonpositive (or, where the
        upwind one is positive, no larger), with the weights of B built
        first (``transport_matrix``).  B is each species' stabilizer, + is
        the cation sign, and pinned cation rows are identity rows of A with
        their values in c.

        Returns [(A_p, c_p), (A_n, c_n)], each A the values of its matrix on
        the mesh's P1 pattern.
        """
        asm, cfg, k = self.asm, self.config, self.k
        mesh, K, fns = asm.mesh, asm.stiffness, asm.fns
        if cfg.algorithm == 1:
            G = assemble_drift(mesh, phi)
        else:
            # the potential's edge drive, shared by both species
            s = (phi[mesh.edge_j] - phi[mesh.edge_i]) * self._kij

        # one species' system: a function frees its temporaries before the
        # next species is built, where a loop body would hold them
        def system(sign, x):
            alpha = compute_alpha(x, cfg.q, mesh, asm.stencil)
            if cfg.algorithm == 1:
                B = build_stabilizer_alg1(sign, k, alpha, mesh, asm.mass, K, G)
                return ((self._A_base + G.data if sign > 0
                         else self._A_base - G.data) + B.values,
                        np.zeros(mesh.num_nodes))
            e = Alg2Edges(x, s, self._kij, fns, mesh)
            B = build_stabilizer_alg2(sign, x, phi, alpha, fns, K, mesh,
                                      edges=e)
            T, Tx = transport_matrix(sign, e, B.weights)
            v = star_transport_vector(x, phi, fns, K, mesh, edges=e)
            return self._A_base + B.values + sign * T, -sign * (v - Tx)

        systems = [system(sign, x) for sign, x in ((+1, p), (-1, n))]
        if asm.p_fixed.size:
            A_p, c_p = systems[0]
            asm.pin_p_rows(A_p)
            c_p[asm.p_fixed] = asm.p_fixed_values
        return systems

    def residual_parts(self, z, built=None):
        """(res, r, systems, built) at the stacked iterate z = (p, n).

        ``built`` is (phi, part): phi solved from p - n and ``iterate_part``
        at (p, n, phi), or the ``built`` of this same iterate when one is
        given, as a carry is.  ``systems`` is [(A_p, b_p), (A_n, b_n)], and
        r = A(z) z - b(z), stacked as z is, with max norm res, vanishes only
        at a fixed point."""
        mesh = self.asm.mesh
        p, n = xs = z.reshape(2, -1)
        if built is None:
            phi = self.asm.poisson.solve(p - n)
            built = phi, self.iterate_part(p, n, phi)
        systems = [(A, b_old + c)
                   for (A, c), b_old in zip(built[1], self._b_old)]
        r = np.concatenate([mesh.matvec(A, x) - b
                            for (A, b), x in zip(systems, xs)])
        return float(np.abs(r).max()), r, systems, built

    def linearized_solve(self, systems, z, r):
        """One block sweep from the iterate z: the stacked solutions of
        exactly ``systems``, the [(A, b)] pairs that ``residual_parts``
        returned at z with their residual r.  Each species' solve keeps its
        own factor and starts from z's values of that species, with the
        matching half of r as its start's residual."""
        return np.concatenate([
            lu.solve(A, b, x, r_x) for lu, (A, b), x, r_x in zip(
                self.asm.density_factors, systems, z.reshape(2, -1),
                r.reshape(2, -1))])


def _picard_step(state, config, asm, bounds=None, carry=None):
    """One implicit step: the Picard loop from ``state``.

    Each iterate z is held with the residual, potential, iterate part and
    systems of one ``residual_parts`` call at z; the sweep G(z) solves those
    systems, from z.  Each iteration's trial is the Anderson mix of the kept
    sweep pairs (z, G(z)), or G(z) itself while one pair is kept.  It is
    taken if it is ``_admissible`` and its residual is below the previous
    one or at most ``picard_residual_tol``; otherwise the history restarts
    from the latest pair and the iterate is z + ``RELAXATION`` (G(z) - z).
    ``bounds`` is the (lo, hi) range that the discrete maximum principle
    keeps the densities in, or None where it is not in force.

    ``carry`` is what the previous step of the same run returned last: the
    stacked iterate it ended on and the (phi, part) pair of its last
    evaluation there.  The potential and iterate part depend on z alone, so
    while ``state`` holds that iterate exactly, the first evaluation takes
    them as given and builds only b and r; a start that differs, as after an
    in-place edit of the state, is evaluated afresh.

    Returns (new_state, iterations, residual_history, carry) once the
    residual is at most ``picard_residual_tol``; the returned ``carry`` is
    the next step's, with its own copies of the iterate and the potential.
    A loop that reaches ``picard_max_iters`` raises ``StepError``, whose
    message names the last and the smallest residual: a smallest residual
    at roundoff marks a tolerance below the roundoff floor, a large one a
    map that diverges.
    """
    ctx = _StepContext(state, config, asm)
    z = np.concatenate([state.p, state.n])
    carried = (carry[1] if carry is not None and np.array_equal(carry[0], z)
               else None)
    res, r, systems, built = ctx.residual_parts(z, carried)
    history = [res]

    # The residual is not monotone along the fixed-point path, so a refused
    # trial is relaxed, not searched along; relaxing also breaks the
    # two-cycles of the undamped map.
    pairs = []
    for it in range(1, config.picard_max_iters + 1):
        sweep = ctx.linearized_solve(systems, z, r)
        pairs = pairs[-ANDERSON_DEPTH:] + [(z, sweep)]
        trial = _anderson_mix(pairs) if len(pairs) > 1 else sweep
        at = (ctx.residual_parts(trial) if _admissible(trial, bounds)
              else (np.inf, None, None, None))
        if not (at[0] < history[-1] or at[0] <= config.picard_residual_tol):
            pairs = pairs[-1:]
            trial = z + RELAXATION * (sweep - z)
            at = ctx.residual_parts(trial)
        z, (res, r, systems, built) = trial, at
        history.append(res)
        if res <= config.picard_residual_tol:
            phi, part = built
            new_state = State(*z.reshape(2, -1), phi, state.t + config.k)
            return new_state, it, history, (z.copy(), (phi.copy(), part))
    raise StepError(f"fixed-point loop failed at t={state.t + config.k:g}: "
                    f"residual {history[-1]:g} after {it} iterations, "
                    f"smallest {min(history):g}, picard_residual_tol "
                    f"{config.picard_residual_tol:g}", history)


def picard_step_alg1(state, config, asm, bounds=None, carry=None):
    """Advance one step with the consistent-mass, implicit-drift scheme; see
    ``_picard_step`` for ``bounds``, ``carry`` and the returned tuple."""
    if config.algorithm != 1:
        raise ValueError("config.algorithm must be 1")
    return _picard_step(state, config, asm, bounds, carry)


def picard_step_alg2(state, config, asm, bounds=None, carry=None):
    """Advance one step with the lumped-mass, edge-transport scheme; see
    ``_picard_step`` for ``bounds``, ``carry`` and the returned tuple."""
    if config.algorithm != 2:
        raise ValueError("config.algorithm must be 2")
    return _picard_step(state, config, asm, bounds, carry)


class RunResult:
    """Outcome of a scenario run.

    ``reports`` has one entry per executed step, each of which met
    ``picard_residual_tol``, and is empty when no step fits in [0, T];
    ``initial_report`` is always available, and ``all_reports()`` puts it
    first.
    ``in_force`` records which invariant flags the scenario's theory
    guarantees, for strict exit checking.
    """

    def __init__(self, reports, initial_report, state, mesh, asm, bounds,
                 in_force):
        self.reports = reports
        self.initial_report = initial_report
        self.state = state
        self.mesh = mesh
        self.assemblies = asm
        self.bounds = bounds
        self.in_force = in_force

    def all_reports(self):
        return [self.initial_report] + self.reports

    def flags_ok(self):
        """True when every in-force flag holds on every report."""
        return all(getattr(rep, name) for rep in self.all_reports()
                   for name, active in self.in_force.items() if active)


def _make_report(state, asm, bounds, mass0, prev_entropy, picard_iters,
                 smallness_ok):
    """Diagnostics row for one state.  Entropy and dissipation are evaluated
    with negative density entries clamped to zero (bound violations still
    show in the raw extrema columns and the dmp flag)."""
    lo, hi = bounds
    mass_p = diagnostics.mass(state.p, asm.d)
    mass_n = diagnostics.mass(state.n, asm.d)
    p = np.maximum(state.p, 0.0)
    n = np.maximum(state.n, 0.0)
    entropy = diagnostics.entropy_Eh(p, n, state.phi, asm.d, asm.stiffness,
                                    asm.fns)
    dissip = (
        diagnostics.dissipation_Dh(p, state.phi, asm.stiffness, asm.mesh)
        + diagnostics.dissipation_Dh(n, state.phi, asm.stiffness, asm.mesh)
    )
    min_p, _, max_p, _ = diagnostics.extrema(state.p)
    min_n, _, max_n, _ = diagnostics.extrema(state.n)
    dmp_ok = (min(min_p, min_n) >= lo - DMP_TOL
              and max(max_p, max_n) <= hi + DMP_TOL)

    def kept(m, m0):
        return abs(m - m0) <= MASS_DRIFT_TOL * max(abs(m0), 1.0)

    # pinned cations take mass through the membrane
    mass_ok = ((asm.p_fixed.size > 0 or kept(mass_p, mass0[0]))
               and kept(mass_n, mass0[1]))
    entropy_ok = (prev_entropy is None
                  or entropy <= prev_entropy + ENTROPY_STEP_TOL)
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
    and after every accepted step, each of which met
    ``picard_residual_tol``.  Step failures abort the run; the
    ``StepError``, ``LinearSolveError`` or ``ElectroneutralityError`` raised
    by a step carries the partial ``RunResult`` on its ``partial`` attribute
    so outputs can be flushed.
    """
    mesh = scenario.make_mesh()
    stencil = meshmod.build_sym_stencils(mesh)
    p0, n0 = scenario.initial_fields(mesh)
    asm = Assemblies(mesh, stencil, scenario.bc, entropy_functions(EPSILON))
    config = scenario.config
    phi0 = asm.poisson.solve(p0 - n0)
    state = State(p0, n0, phi0, 0.0)

    lo = min(float(p0.min()), float(n0.min()))
    hi = max(float(p0.max()), float(n0.max()))
    smallness_ok = 1.0 - config.k * (hi - lo) > 0.0
    if config.algorithm == 1 and not smallness_ok:
        warnings.warn(
            f"time step k={config.k:g} is not small against the initial "
            f"range {hi - lo:g}; the bound-preservation premise of "
            f"algorithm 1 fails",
            RuntimeWarning,
        )

    mass0 = (diagnostics.mass(p0, asm.d), diagnostics.mass(n0, asm.d))
    initial_report = _make_report(state, asm, (lo, hi), mass0, None, 0,
                                  smallness_ok)
    acute = meshmod.check_acuteness(mesh, asm.stiffness).is_acute
    in_force = {
        "dmp_ok": scenario.bc.isolated,
        "mass_ok": True,
        "entropy_ok": config.algorithm == 2 and acute and scenario.bc.isolated,
        "smallness_ok": False,  # warned about under Alg. 1, never enforced
    }

    if on_step is not None:
        on_step(0, state)

    result = RunResult([], initial_report, state, mesh, asm, (lo, hi),
                       in_force)
    prev_entropy = initial_report.entropy
    step = picard_step_alg1 if config.algorithm == 1 else picard_step_alg2
    dmp_bounds = (lo, hi) if in_force["dmp_ok"] else None
    carry = None
    for m in range(1, config.nsteps + 1):
        try:
            state, iters, _history, carry = step(state, config, asm,
                                                 dmp_bounds, carry)
        except (StepError, LinearSolveError, ElectroneutralityError) as err:
            err.partial = result
            raise
        rep = _make_report(state, asm, (lo, hi), mass0, prev_entropy, iters,
                           smallness_ok)
        prev_entropy = rep.entropy
        result.reports.append(rep)
        result.state = state
        if on_step is not None:
            on_step(m, state)
    return result
