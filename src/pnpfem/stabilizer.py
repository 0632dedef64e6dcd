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
        self.weights, self.values, self._mesh = weights, values, mesh

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
    the Alg. 2 stabilizer, the transport and its matrix share.

    On the mesh's unordered edges i < j: ``kij`` = K_ij, the drive
    ``s`` = (phi_j - phi_i) K_ij, the end values ``ends`` = (x_i, x_j)
    as two rows and their floors ``floors`` = max(ends, epsilon), ``dx`` =
    x_j - x_i, ``ddg`` = dg(x_j) - dg(x_i), and ``distinct``, the mask of
    pairs where both differ; pairs whose entropy-derivative difference
    underflows are treated as equal-valued.
    On distinct pairs ``inv_ddg`` = 1 / ddg and the secant slope ``tau`` =
    dx / ddg, the logarithmic mean above epsilon; elsewhere inv_ddg = 1 and
    tau = max(x_i, epsilon).  ``kij`` and ``s`` depend on the potential
    alone, so both species of one build can share them.
    """

    def __init__(self, x, s, kij, fns, mesh):
        x = np.asarray(x, dtype=float)
        self.s = s
        self.kij = kij
        self.fns = fns
        self.mesh = mesh
        shape = (2, mesh.edge_i.size)
        self.ends = x[mesh.edge_ends].reshape(shape)
        self.floors = np.maximum(self.ends, fns.epsilon)
        dg = np.asarray(fns.dg(x))[mesh.edge_ends].reshape(shape)
        self.dx = self.ends[1] - self.ends[0]
        self.ddg = dg[1] - dg[0]
        self.distinct = (self.dx != 0.0) & (self.ddg != 0.0)
        safe_ddg = np.where(self.distinct, self.ddg, 1.0)
        self.inv_ddg = 1.0 / safe_ddg
        self.tau = np.where(self.distinct, self.dx / safe_ddg,
                            self.floors[0])

    @classmethod
    def of(cls, x, phi, fns, stiffness, mesh):
        """The edge quantities of x under phi, from the stiffness matrix."""
        phi = np.asarray(phi, dtype=float)
        kij = mesh.pattern_values(stiffness)[mesh.edge_slots]
        return cls(x, (phi[mesh.edge_j] - phi[mesh.edge_i]) * kij, kij, fns,
                   mesh)


# the rows of an edge's two off-diagonal entries of a transport matrix
_ROW_SIGNS = np.array([[1.0], [-1.0]])
_TINY = np.finfo(float).tiny


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
    return _edge_sum(e.tau * e.s, e.mesh)


def star_transport(x, phi, xbar, fns, stiffness, mesh):
    """Value of the edge-based transport form tested against xbar."""
    v = star_transport_vector(x, phi, fns, stiffness, mesh)
    return float(v @ np.asarray(xbar, dtype=float))


def transport_matrix(sign, edges, weights):
    """(values, T x): the transport matrix T of one species on the mesh's
    P1 pattern, and its product with the species' density x.

    T replaces each edge's transport flow s tau(x_i, x_j), which enters
    node i and leaves node j, by a linear flow c_i x_i + c_j x_j, so every
    column of T sums to zero.  The coefficients c = up + lambda (jac - up)
    step from the upwind ones, (s, 0) where sign s > 0 and (0, s) elsewhere
    (Scharfetter & Gummel, IEEE Trans. Electron Devices 16, 1969), toward
    the partials jac of s tau, the Jacobian of the logarithmic-mean flow
    (Bessemoulin-Chatard, Numer. Math. 121, 2012); tau is 1-homogeneous
    above epsilon, so at lambda = 1 the linear flow there is s tau itself.
    The Jacobian puts an off-diagonal of the wrong sign on every driven
    edge, so each edge's lambda in [0, 1] is the largest that keeps both
    of its off-diagonals K_ij - w + sign T in the species' system at most
    max(their upwind values, 0), with the stabilizer ``weights`` w on the
    mesh's edges.  Each entry of sign T is clipped at -(K_ij - w), the
    negated float that the system adds it to, so roundoff leaves no
    positive off-diagonal.  ``edges`` are the species' ``Alg2Edges``; sign
    is +1 for the cation and -1 for the anion.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    e = edges
    # two rows per edge: the entries of sign T at (i, j), sign c_j, and at
    # (j, i), -sign c_i; S holds sign s with each row's sign
    S = e.s * (sign * _ROW_SIGNS)
    # the partials of tau by x_j and by x_i, (1 - tau / max(x_j, eps)) / ddg
    # and (tau / max(x_i, eps) - 1) / ddg; on equal ends 1/2 each above eps
    # and 0 below
    d = (1.0 - e.tau / e.floors[::-1]) * e.inv_ddg
    d[1] *= -1.0
    d = np.where(e.distinct, d, np.where(e.ends[0] > e.fns.epsilon, 0.5, 0.0))
    up = np.minimum(S, 0.0)
    # each entry's cap: -(K_ij - w), or its upwind value where that is larger
    cap = np.maximum(weights - e.kij, up)
    rise = S * d - up
    # each row bounds lambda by room / rise where rise > room; adding the
    # smallest normal float to both keeps out 0 / 0 on the edges where
    # neither entry moves, without the slow arithmetic of a subnormal
    room = cap - up + _TINY
    ratio = room / np.maximum(rise + _TINY, room)
    lam = np.minimum(ratio[0], ratio[1])
    y = np.minimum(up + lam * rise, cap) * sign
    flows = y * e.ends[::-1]
    return (_zero_column_sums(y[0], y[1], e.mesh),
            _edge_sum(flows[0] - flows[1], e.mesh))


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
    f_ij, f_ji = np.where(distinct, e.kij + sign * e.s * (
        e.inv_ddg - e.floors / safe_dx), 0.0)
    return _stabilizer(alpha, f_ij, f_ji, e.mesh)
