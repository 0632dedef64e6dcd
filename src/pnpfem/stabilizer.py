"""Edge-based nonlinear stabilizers and the entropy-consistent transport form.

Both stabilizers are symmetric graph Laplacians with nonnegative edge
weights, so they conserve mass (zero row and column sums) and are positive
semidefinite.  The weights combine the shock detector with per-pair flux
coefficients: matrix couplings for the first scheme, regularized-entropy
secants for the second.
"""

import numpy as np

from .mesh import _real


class EntropyFunctions:
    """Entropy density x log x - x + 1 and the derivative of its quadratic
    regularization below a threshold epsilon.

    ``dg`` is the regularized derivative (continuous at epsilon, both
    branches giving log epsilon); ``g0`` is the exact density, defined for
    nonnegative arguments only, with g0(0) = 1 by continuity.  The scheme
    never evaluates the regularized density; ``tests/oracles.py`` holds it.
    """

    def __init__(self, epsilon):
        self.epsilon = _real("epsilon", epsilon)
        self._log_eps = np.log(self.epsilon)

    def dg(self, s):
        s = np.asarray(s, dtype=float)
        hi = s > self.epsilon
        sh = np.where(hi, s, 1.0)
        return np.where(hi, np.log(sh), s / self.epsilon + self._log_eps - 1.0)

    def g0(self, s):
        if np.any(np.asarray(s) < 0):
            raise ValueError("entropy density requires nonnegative arguments")
        s = np.asarray(s, dtype=float)
        pos = s > 0.0
        sp_ = np.where(pos, s, 1.0)
        return np.where(pos, sp_ * np.log(sp_) - sp_ + 1.0, 1.0)


def entropy_functions(epsilon):
    """Build the entropy function family for a regularization threshold."""
    return EntropyFunctions(epsilon)


class StabilizerMatrix:
    """A symmetric graph-Laplacian stabilizer on the mesh's P1 pattern.

    ``weights`` are the nonnegative coefficients of the mesh's unordered
    edges (``mesh.edge_i``, ``mesh.edge_j``); ``values`` are the matrix
    entries in the pattern's slot order, which the march adds into its
    systems.  ``matrix`` builds the CSR matrix each time it is read.
    """

    def __init__(self, weights, values, mesh):
        self.weights = weights
        self.values = values
        self._mesh = mesh

    @property
    def matrix(self):
        return self._mesh.csr(self.values)


def _zero_column_sums(a_ij, a_ji, mesh):
    """Values on the P1 pattern of the matrix with a_ij at (i, j) and a_ji
    at (j, i) of each edge i < j, and the diagonal that makes every column
    sum to zero."""
    data = np.zeros(mesh.pattern_nnz)
    data[mesh.edge_slots] = a_ij
    data[mesh.edge_slots_t] = a_ji
    data[mesh.diag_slots] = -np.bincount(
        mesh.edge_ends, weights=np.concatenate([a_ji, a_ij]),
        minlength=mesh.num_nodes)
    return data


def _stabilizer(alpha, f_ij, f_ji, mesh):
    """Edge (i, j) gets weight max(alpha_i f_ij, alpha_j f_ji, 0); the
    matrix has -w on both entries of each edge and the incident weight sums
    on the diagonal."""
    a = np.asarray(alpha, dtype=float)
    w = np.maximum(np.maximum(a[mesh.edge_i] * f_ij, a[mesh.edge_j] * f_ji),
                   0.0)
    return StabilizerMatrix(w, _zero_column_sums(-w, -w, mesh), mesh)


def build_stabilizer_alg1(sign, timestep, alpha, mesh, mass, stiffness, drift):
    """Graph-Laplacian stabilizer with matrix-coupling edge weights.

    Edge (i, j) gets weight max(alpha_i f_ij, alpha_j f_ji, 0) where
    f_ij = M_ij/k + K_ij + sign G_ij is the entry of the cation (+1) or
    anion (-1) system, in the march's arithmetic, so that alpha = 1 cancels
    it exactly where it is positive; the diagonal accumulates the incident
    weights.  ``alpha`` and ``drift`` must come from the same transported
    field and potential.
    """
    timestep = _real("timestep", timestep)
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    F = (mesh.pattern_values(mass) * (1.0 / timestep)
         + mesh.pattern_values(stiffness) + sign * mesh.pattern_values(drift))
    return _stabilizer(alpha, F[mesh.edge_slots], F[mesh.edge_slots_t], mesh)


class Alg2Edges:
    """The per-edge quantities of one density x under a potential phi that
    the Alg. 2 stabilizer, the transport and its upwind split share.

    On the mesh's unordered edges i < j: ``kij`` = K_ij, the drive
    ``s`` = (phi_j - phi_i) K_ij, the end values ``xi`` and ``xj``,
    ``dx`` = x_j - x_i, ``ddg`` = dg(x_j) - dg(x_i), and ``distinct``, the
    mask of pairs where both differ; pairs whose entropy-derivative
    difference underflows are treated as equal-valued.  ``kij`` and ``s``
    depend on the potential alone, so both species of one build can share
    them.
    """

    def __init__(self, x, s, kij, fns, mesh):
        x = np.asarray(x, dtype=float)
        self.s = s
        self.kij = kij
        self.fns = fns
        self.mesh = mesh
        dg = np.asarray(fns.dg(x))
        ei, ej = mesh.edge_i, mesh.edge_j
        self.xi, self.xj = x[ei], x[ej]
        self.dx = self.xj - self.xi
        self.ddg = dg[ej] - dg[ei]
        self.distinct = (self.dx != 0.0) & (self.ddg != 0.0)

    @classmethod
    def of(cls, x, phi, fns, stiffness, mesh):
        """The edge quantities of x under phi, from the stiffness matrix."""
        phi = np.asarray(phi, dtype=float)
        kij = mesh.pattern_values(stiffness)[mesh.edge_slots]
        return cls(x, (phi[mesh.edge_j] - phi[mesh.edge_i]) * kij, kij, fns,
                   mesh)


def _edge_sum(w, mesh):
    """Per node: the flow w of each edge enters i and leaves j."""
    return np.bincount(mesh.edge_ends, weights=np.concatenate([w, -w]),
                       minlength=mesh.num_nodes)


def star_transport_vector(x, phi, fns, stiffness, mesh, edges=None):
    """Edge-based transport term as a vector v with v . xbar equal to the
    transport form of (x, phi) tested against xbar.

    Per unordered adjacent pair, the flow tau * dphi * K_ij enters node i
    positively and node j negatively, with the secant slope
    tau = (x_j - x_i) / (dg(x_j) - dg(x_i)) for distinct values, else
    max(x_i, epsilon).  Testing with a constant gives zero, and testing
    with the interpolated entropy derivative of x telescopes to the plain
    diffusion pairing of x and phi.  ``edges``, the ``Alg2Edges`` of these
    arguments, saves computing them again.
    """
    e = edges or Alg2Edges.of(x, phi, fns, stiffness, mesh)
    tau = np.where(
        e.distinct,
        np.divide(e.dx, np.where(e.distinct, e.ddg, 1.0)),
        np.maximum(e.xi, e.fns.epsilon),
    )
    return _edge_sum(tau * e.s, e.mesh)


def star_transport(x, phi, xbar, fns, stiffness, mesh):
    """Value of the edge-based transport form tested against xbar."""
    v = star_transport_vector(x, phi, fns, stiffness, mesh)
    return float(v @ np.asarray(xbar, dtype=float))


def upwind_transport(sign, edges):
    """(values, T x): the upwind transport matrix T of one species on the
    mesh's P1 pattern, and its product with the species' density x.

    T carries the flow s_ij (theta x_i + (1 - theta) x_j) of each edge into
    node i and out of node j, the transport's flow with the upwind value in
    place of the secant mean (Scharfetter & Gummel, IEEE Trans. Electron
    Devices 16, 1969).  theta = 1 where sign s_ij > 0, else 0, with sign +1
    for the cation and -1 for the anion, so every off-diagonal entry of
    sign T is nonpositive; every column of T sums to zero.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    e, mesh = edges, edges.mesh
    into_i = np.where(sign * e.s > 0.0, e.s, 0.0)  # s theta, x_i's factor
    into_j = e.s - into_i                          # s (1 - theta), x_j's
    return (_zero_column_sums(into_j, -into_i, mesh),
            _edge_sum(into_i * e.xi + into_j * e.xj, mesh))


def build_stabilizer_alg2(sign, x, phi, alpha, fns, stiffness, mesh,
                          edges=None):
    """Graph-Laplacian stabilizer with entropy-secant edge weights.

    The coupling of the directed pair (i, j) is zero when x_j equals x_i,
    otherwise (1 + sign dphi (1/(dg_j - dg_i) - max(x_i, eps)/(x_j - x_i)))
    K_ij; the weights then follow as for ``build_stabilizer_alg1``.
    ``edges``, the ``Alg2Edges`` of x, phi, fns and stiffness, saves
    computing them again.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    e = edges or Alg2Edges.of(x, phi, fns, stiffness, mesh)
    distinct = e.distinct
    safe_dx = np.where(distinct, e.dx, 1.0)
    inv_slope = 1.0 / np.where(distinct, e.ddg, 1.0)
    f_ij, f_ji = (
        np.where(distinct, e.kij + sign * e.s * (
            inv_slope - np.maximum(x_end, e.fns.epsilon) / safe_dx), 0.0)
        for x_end in (e.xi, e.xj))
    return _stabilizer(alpha, f_ij, f_ji, e.mesh)
