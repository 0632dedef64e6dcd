"""Edge-based nonlinear stabilizers and the entropy-consistent transport form.

Both stabilizers are symmetric graph Laplacians with nonnegative edge
weights, so they conserve mass (zero row and column sums) and are positive
semidefinite.  The weights combine the shock detector with per-pair flux
coefficients: matrix couplings for the first scheme, regularized-entropy
secants for the second.
"""

import numpy as np


class EntropyFunctions:
    """Entropy density x log x - x + 1, its derivative, and the quadratic
    regularization of both below a threshold epsilon.

    ``g``/``dg`` are the regularized pair (dg is continuous at epsilon, both
    branches giving log epsilon); ``g0``/``dg0``/``d2g0`` are the exact pair,
    defined for nonnegative arguments only, with g0(0) = 1 by continuity.
    """

    def __init__(self, epsilon):
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        self.epsilon = float(epsilon)
        self._log_eps = np.log(self.epsilon)

    def g(self, s):
        s = np.asarray(s, dtype=float)
        eps = self.epsilon
        low = (s * s - eps * eps) / (2.0 * eps) + (self._log_eps - 1.0) * s + 1.0
        hi = s > eps
        sh = np.where(hi, s, 1.0)
        return np.where(hi, sh * np.log(sh) - sh + 1.0, low)

    def dg(self, s):
        s = np.asarray(s, dtype=float)
        hi = s > self.epsilon
        sh = np.where(hi, s, 1.0)
        return np.where(hi, np.log(sh), s / self.epsilon + self._log_eps - 1.0)

    def _check_nonnegative(self, s):
        if np.any(np.asarray(s) < 0):
            raise ValueError("entropy density requires nonnegative arguments")

    def g0(self, s):
        self._check_nonnegative(s)
        s = np.asarray(s, dtype=float)
        pos = s > 0.0
        sp_ = np.where(pos, s, 1.0)
        return np.where(pos, sp_ * np.log(sp_) - sp_ + 1.0, 1.0)

    def dg0(self, s):
        self._check_nonnegative(s)
        with np.errstate(divide="ignore"):
            return np.log(np.asarray(s, dtype=float))

    def d2g0(self, s):
        self._check_nonnegative(s)
        with np.errstate(divide="ignore"):
            return 1.0 / np.asarray(s, dtype=float)


def entropy_functions(epsilon):
    """Build the entropy function family for a regularization threshold."""
    return EntropyFunctions(epsilon)


class StabilizerMatrix:
    """A symmetric graph-Laplacian stabilizer with its edge weights.

    ``matrix`` acts on nodal fields; ``edge_i``/``edge_j``/``weights`` list
    the unordered adjacent pairs and their nonnegative coefficients.
    """

    def __init__(self, matrix, edge_i, edge_j, weights):
        self.matrix = matrix
        self.edge_i = edge_i
        self.edge_j = edge_j
        self.weights = weights

    def __matmul__(self, x):
        return self.matrix @ x


def _graph_laplacian(mesh, w):
    """Pattern matrix with -w on both entries of each edge and the incident
    weight sums on the diagonal."""
    data = np.zeros(mesh.pattern_nnz)
    data[mesh.edge_slots] = -w
    data[mesh.edge_slots_t] = -w
    data[mesh.diag_slots] = np.bincount(
        mesh.edge_ends, weights=np.concatenate([w, w]),
        minlength=mesh.num_nodes)
    return mesh.csr(data)


def pair_fluxes_alg1(i, j, timestep, mass, stiffness, drift):
    """Matrix-coupling flux coefficients of the directed pair (i, j).

    Returns (plus, minus) = M_ij/k + K_ij +- G_ij, the off-diagonal system
    couplings seen by the cation (+) and anion (-) equations.
    """
    if timestep <= 0:
        raise ValueError(f"timestep must be positive, got {timestep}")
    base = mass[i, j] / timestep + stiffness[i, j]
    g = drift[i, j]
    return float(base + g), float(base - g)


def build_stabilizer_alg1(sign, timestep, alpha, mesh, mass, stiffness, drift):
    """Graph-Laplacian stabilizer with matrix-coupling edge weights.

    Edge (i, j) gets weight max(alpha_i f_ij, alpha_j f_ji, 0) where f is the
    sign-dependent system coupling of ``pair_fluxes_alg1``; the diagonal
    accumulates the incident weights.  ``alpha`` and ``drift`` must come from
    the same transported field and potential.
    """
    if timestep <= 0:
        raise ValueError(f"timestep must be positive, got {timestep}")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    ei, ej = mesh.edge_i, mesh.edge_j
    base = mesh.edge_entries(mass) / timestep + mesh.edge_entries(stiffness)
    f_ij = base + sign * mesh.edge_entries(drift)
    f_ji = base + sign * mesh.edge_entries(drift, transposed=True)
    a = np.asarray(alpha, dtype=float)
    w = np.maximum(np.maximum(a[ei] * f_ij, a[ej] * f_ji), 0.0)
    return StabilizerMatrix(_graph_laplacian(mesh, w), ei, ej, w)


def secant_slope(i, j, x, fns):
    """Secant slope of x against the regularized entropy derivative.

    (x_j - x_i) / (dg(x_j) - dg(x_i)) for distinct values, else
    max(x_i, epsilon); nonnegative whenever x is.
    """
    x = np.asarray(x, dtype=float)
    tau, _, _ = _edge_secants(x, fns, np.array([i]), np.array([j]))
    return float(tau[0])


def _edge_secants(x, fns, ei, ej):
    """Per-edge secant slopes; pairs whose entropy-derivative difference
    underflows are treated as equal-valued (the secant limit is the value)."""
    xi, xj = x[ei], x[ej]
    dx = xj - xi
    ddg = np.asarray(fns.dg(xj) - fns.dg(xi))
    distinct = (dx != 0.0) & (ddg != 0.0)
    tau = np.where(
        distinct,
        np.divide(dx, np.where(distinct, ddg, 1.0)),
        np.maximum(xi, fns.epsilon),
    )
    return tau, dx, distinct


def star_transport_vector(x, phi, fns, stiffness, mesh):
    """Edge-based transport term as a vector v with v . xbar equal to the
    transport form of (x, phi) tested against xbar.

    Per unordered adjacent pair, the flow tau * dphi * K_ij enters node i
    positively and node j negatively, so testing with a constant gives zero
    and testing with the interpolated entropy derivative of x telescopes to
    the plain diffusion pairing of x and phi.
    """
    x = np.asarray(x, dtype=float)
    phi = np.asarray(phi, dtype=float)
    ei, ej = mesh.edge_i, mesh.edge_j
    tau, _, _ = _edge_secants(x, fns, ei, ej)
    dphi = phi[ej] - phi[ei]
    w = tau * dphi * mesh.edge_entries(stiffness)
    return np.bincount(mesh.edge_ends, weights=np.concatenate([w, -w]),
                       minlength=mesh.num_nodes)


def star_transport(x, phi, xbar, fns, stiffness, mesh):
    """Value of the edge-based transport form tested against xbar."""
    v = star_transport_vector(x, phi, fns, stiffness, mesh)
    return float(v @ np.asarray(xbar, dtype=float))


def pair_fluxes_alg2(i, j, x, phi, fns, stiffness):
    """Entropy-secant flux coefficients of the directed pair (i, j).

    Zero when x_j equals x_i; otherwise
    (1 +- dphi (1/(dg_j - dg_i) - max(x_i, eps)/(x_j - x_i))) K_ij,
    returned as (plus, minus).
    """
    x = np.asarray(x, dtype=float)
    phi = np.asarray(phi, dtype=float)
    ei, ej = np.array([i]), np.array([j])
    kij = np.array([stiffness[i, j]])
    f_plus, _ = _alg2_flux_edges(x, phi, fns, kij, ei, ej, sign=+1)
    f_minus, _ = _alg2_flux_edges(x, phi, fns, kij, ei, ej, sign=-1)
    return float(f_plus[0]), float(f_minus[0])


def _alg2_flux_edges(x, phi, fns, kij, ei, ej, sign=+1):
    xi, xj = x[ei], x[ej]
    dx = xj - xi
    ddg = np.asarray(fns.dg(xj) - fns.dg(xi))
    distinct = (dx != 0.0) & (ddg != 0.0)
    safe_dx = np.where(distinct, dx, 1.0)
    inv_slope = 1.0 / np.where(distinct, ddg, 1.0)
    dphi = phi[ej] - phi[ei]
    f_ij = (1.0 + sign * dphi * (inv_slope - np.maximum(xi, fns.epsilon) / safe_dx)) * kij
    f_ji = (1.0 + sign * dphi * (inv_slope - np.maximum(xj, fns.epsilon) / safe_dx)) * kij
    return np.where(distinct, f_ij, 0.0), np.where(distinct, f_ji, 0.0)


def build_stabilizer_alg2(sign, x, phi, alpha, fns, stiffness, mesh):
    """Graph-Laplacian stabilizer with entropy-secant edge weights."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    x = np.asarray(x, dtype=float)
    phi = np.asarray(phi, dtype=float)
    ei, ej = mesh.edge_i, mesh.edge_j
    f_ij, f_ji = _alg2_flux_edges(x, phi, fns, mesh.edge_entries(stiffness),
                                  ei, ej, sign)
    a = np.asarray(alpha, dtype=float)
    w = np.maximum(np.maximum(a[ei] * f_ij, a[ej] * f_ji), 0.0)
    return StabilizerMatrix(_graph_laplacian(mesh, w), ei, ej, w)
