"""Edge-based nonlinear stabilizers and the entropy-consistent transport form.

Both stabilizers are symmetric graph Laplacians with nonnegative edge
weights, so they conserve mass (zero row and column sums) and are positive
semidefinite.  The weights combine the shock detector with per-pair flux
coefficients: matrix couplings for the first scheme, regularized-entropy
secants for the second.
"""

import numpy as np


class EntropyFunctions:
    """Entropy density x log x - x + 1 and the derivative of its quadratic
    regularization below a threshold epsilon.

    ``dg`` is the regularized derivative (continuous at epsilon, both
    branches giving log epsilon); ``g0`` is the exact density, defined for
    nonnegative arguments only, with g0(0) = 1 by continuity.  The scheme
    never evaluates the regularized density; ``tests/oracles.py`` holds it.
    """

    def __init__(self, epsilon):
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        self.epsilon = float(epsilon)
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


def _stabilizer(alpha, f_ij, f_ji, mesh):
    """Edge (i, j) gets weight max(alpha_i f_ij, alpha_j f_ji, 0); the
    matrix has -w on both entries of each edge and the incident weight sums
    on the diagonal."""
    a = np.asarray(alpha, dtype=float)
    w = np.maximum(np.maximum(a[mesh.edge_i] * f_ij, a[mesh.edge_j] * f_ji),
                   0.0)
    data = np.zeros(mesh.pattern_nnz)
    data[mesh.edge_slots] = -w
    data[mesh.edge_slots_t] = -w
    data[mesh.diag_slots] = np.bincount(
        mesh.edge_ends, weights=np.concatenate([w, w]),
        minlength=mesh.num_nodes)
    return StabilizerMatrix(w, data, mesh)


def build_stabilizer_alg1(sign, timestep, alpha, mesh, mass, stiffness, drift):
    """Graph-Laplacian stabilizer with matrix-coupling edge weights.

    Edge (i, j) gets weight max(alpha_i f_ij, alpha_j f_ji, 0) where
    f_ij = M_ij/k + K_ij + sign G_ij is the system coupling seen by the
    cation (+1) or anion (-1) equation; the diagonal accumulates the
    incident weights.  ``alpha`` and ``drift`` must come from the same
    transported field and potential.
    """
    if timestep <= 0:
        raise ValueError(f"timestep must be positive, got {timestep}")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    base = mesh.edge_entries(mass) / timestep + mesh.edge_entries(stiffness)
    f_ij = base + sign * mesh.edge_entries(drift)
    f_ji = base + sign * mesh.edge_entries(drift, transposed=True)
    return _stabilizer(alpha, f_ij, f_ji, mesh)


def _edge_differences(x, fns, mesh):
    """Per edge: x_j - x_i, dg(x_j) - dg(x_i), and the mask of pairs where
    both differ.  Pairs whose entropy-derivative difference underflows are
    treated as equal-valued."""
    dg = np.asarray(fns.dg(x))
    ei, ej = mesh.edge_i, mesh.edge_j
    dx = x[ej] - x[ei]
    ddg = dg[ej] - dg[ei]
    return dx, ddg, (dx != 0.0) & (ddg != 0.0)


def star_transport_vector(x, phi, fns, stiffness, mesh):
    """Edge-based transport term as a vector v with v . xbar equal to the
    transport form of (x, phi) tested against xbar.

    Per unordered adjacent pair, the flow tau * dphi * K_ij enters node i
    positively and node j negatively, with the secant slope
    tau = (x_j - x_i) / (dg(x_j) - dg(x_i)) for distinct values, else
    max(x_i, epsilon).  Testing with a constant gives zero, and testing
    with the interpolated entropy derivative of x telescopes to the plain
    diffusion pairing of x and phi.
    """
    x = np.asarray(x, dtype=float)
    phi = np.asarray(phi, dtype=float)
    ei, ej = mesh.edge_i, mesh.edge_j
    dx, ddg, distinct = _edge_differences(x, fns, mesh)
    tau = np.where(
        distinct,
        np.divide(dx, np.where(distinct, ddg, 1.0)),
        np.maximum(x[ei], fns.epsilon),
    )
    w = tau * (phi[ej] - phi[ei]) * mesh.edge_entries(stiffness)
    return np.bincount(mesh.edge_ends, weights=np.concatenate([w, -w]),
                       minlength=mesh.num_nodes)


def star_transport(x, phi, xbar, fns, stiffness, mesh):
    """Value of the edge-based transport form tested against xbar."""
    v = star_transport_vector(x, phi, fns, stiffness, mesh)
    return float(v @ np.asarray(xbar, dtype=float))


def build_stabilizer_alg2(sign, x, phi, alpha, fns, stiffness, mesh):
    """Graph-Laplacian stabilizer with entropy-secant edge weights.

    The coupling of the directed pair (i, j) is zero when x_j equals x_i,
    otherwise (1 + sign dphi (1/(dg_j - dg_i) - max(x_i, eps)/(x_j - x_i)))
    K_ij; the weights then follow as for ``build_stabilizer_alg1``.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    x = np.asarray(x, dtype=float)
    phi = np.asarray(phi, dtype=float)
    ei, ej = mesh.edge_i, mesh.edge_j
    dx, ddg, distinct = _edge_differences(x, fns, mesh)
    safe_dx = np.where(distinct, dx, 1.0)
    inv_slope = 1.0 / np.where(distinct, ddg, 1.0)
    dphi = phi[ej] - phi[ei]
    kij = mesh.edge_entries(stiffness)
    f_ij, f_ji = (
        np.where(distinct, (1.0 + sign * dphi * (
            inv_slope - np.maximum(x[e], fns.epsilon) / safe_dx)) * kij, 0.0)
        for e in (ei, ej))
    return _stabilizer(alpha, f_ij, f_ji, mesh)
