"""Independent brute-force oracles used to freeze expected test values.

Everything here deliberately avoids the package's closed-form assembly
paths: basis gradients come from solving a local 3x3 Vandermonde system and
integrals from quadrature, so agreement with the package is a real check.
"""

import numpy as np
import scipy.sparse as sp

from pnpfem import mesh as meshmod
from pnpfem.solver import (
    LAGGED_CORRECTIONS, LINEAR_TOL, _backward_error, _gate)
from pnpfem.mesh import (
    BOTTOM, INTERIOR, MEMBRANE, OTHER_BOUNDARY, TOP, Mesh)

# degree-5 rule on the reference triangle (barycentric points, weights
# summing to one); transcribed independently from standard tables
_S15 = 15.0**0.5
_QPTS = [
    (1 / 3, 1 / 3, 1 / 3, 9 / 40),
    ((6 + _S15) / 21, (6 + _S15) / 21, (9 - 2 * _S15) / 21, (155 + _S15) / 1200),
    ((6 + _S15) / 21, (9 - 2 * _S15) / 21, (6 + _S15) / 21, (155 + _S15) / 1200),
    ((9 - 2 * _S15) / 21, (6 + _S15) / 21, (6 + _S15) / 21, (155 + _S15) / 1200),
    ((6 - _S15) / 21, (6 - _S15) / 21, (9 + 2 * _S15) / 21, (155 - _S15) / 1200),
    ((6 - _S15) / 21, (9 + 2 * _S15) / 21, (6 - _S15) / 21, (155 - _S15) / 1200),
    ((9 + 2 * _S15) / 21, (6 - _S15) / 21, (6 - _S15) / 21, (155 - _S15) / 1200),
]


def hat_gradients(tri_coords):
    """Gradients of the three hat functions from the plane equations.

    Solves [1 x y] a = e_k for each vertex k; the linear coefficients are
    the gradient.
    """
    V = np.column_stack([np.ones(3), tri_coords[:, 0], tri_coords[:, 1]])
    coeffs = np.linalg.solve(V, np.eye(3))
    return coeffs[1:, :].T  # row k: gradient of hat k


def triangle_area(tri_coords):
    a, b, c = tri_coords
    u, v = b - a, c - a
    return 0.5 * abs(u[0] * v[1] - u[1] * v[0])


def quad_points(tri_coords):
    """Physical quadrature points and weights (weights include the area)."""
    area = triangle_area(tri_coords)
    pts, ws = [], []
    for l1, l2, l3, w in _QPTS:
        pts.append(l1 * tri_coords[0] + l2 * tri_coords[1] + l3 * tri_coords[2])
        ws.append(w * area)
    return np.array(pts), np.array(ws)


def quad_assemble(mesh, integrand):
    """Assemble a matrix entrywise by quadrature.

    ``integrand(e, a, b, pts)`` returns the values of the (a, b) local
    integrand of element e at physical points ``pts``.
    """
    n = mesh.num_nodes
    A = np.zeros((n, n))
    for e in range(mesh.num_elements):
        tri = mesh.elements[e]
        coords = mesh.nodes[tri]
        pts, ws = quad_points(coords)
        for a in range(3):
            for b in range(3):
                A[tri[a], tri[b]] += ws @ integrand(e, a, b, coords, pts)
    return A


def _hat_values(coords, pts):
    V = np.column_stack([np.ones(3), coords[:, 0], coords[:, 1]])
    coeffs = np.linalg.solve(V, np.eye(3))  # column k: plane of hat k
    P = np.column_stack([np.ones(len(pts)), pts[:, 0], pts[:, 1]])
    return P @ coeffs  # (npts, 3)


def quad_mass(mesh):
    def integrand(e, a, b, coords, pts):
        vals = _hat_values(coords, pts)
        return vals[:, a] * vals[:, b]

    return quad_assemble(mesh, integrand)


def quad_stiffness(mesh):
    def integrand(e, a, b, coords, pts):
        g = hat_gradients(coords)
        return np.full(len(pts), g[a] @ g[b])

    return quad_assemble(mesh, integrand)


def quad_drift(mesh, phi):
    def integrand(e, a, b, coords, pts):
        g = hat_gradients(coords)
        gphi = sum(phi[mesh.elements[e][k]] * g[k] for k in range(3))
        vals = _hat_values(coords, pts)
        # row = test function a, trial hat b weights the potential transport
        return vals[:, b] * (gphi @ g[a])

    return quad_assemble(mesh, integrand)


def element_stars(mesh):
    """Sorted nodes of each node's element star, the node itself included,
    from a loop over the triangles."""
    stars = [set() for _ in range(mesh.num_nodes)]
    for tri in mesh.elements.tolist():
        for a in tri:
            stars[a].update(tri)
    return [np.array(sorted(star)) for star in stars]


def loop_lumped_mass_vector(mesh):
    """Hat-function integrals, one third of each element area added to its
    vertices one vertex column at a time."""
    d = np.zeros(mesh.num_nodes)
    share = mesh.areas / 3.0
    for a in range(3):
        np.add.at(d, mesh.elements[:, a], share)
    return d


def loop_designated_elements(mesh):
    """The smallest index of an element adjacent to each node, from a loop
    over the elements in reverse order."""
    first = np.full(mesh.num_nodes, -1, dtype=np.int64)
    for e in range(mesh.num_elements - 1, -1, -1):
        first[mesh.elements[e]] = e
    return first


def eval_p1(mesh, x, point):
    """Evaluate a nodal field at a point by locating a containing element."""
    for e in range(mesh.num_elements):
        coords = mesh.nodes[mesh.elements[e]]
        V = np.column_stack([np.ones(3), coords[:, 0], coords[:, 1]])
        lam = np.linalg.solve(V.T, np.array([1.0, point[0], point[1]]))
        if np.all(lam >= -1e-10):
            return float(lam @ x[mesh.elements[e]])
    raise ValueError(f"point {point} not inside any element")


def segment_hit(p0, d, a, b):
    """Ray p0 + t d against closed segment [a, b]; returns t or None.

    Solving p0 + t d = a + s e with e = b - a by Cramer's rule gives
    t = cross(w, e)/cross(d, e) and s = cross(w, d)/cross(d, e), w = a - p0.
    """
    e = b - a
    denom = d[0] * e[1] - d[1] * e[0]
    if abs(denom) < 1e-15:
        return None
    w = a - p0
    t = (w[0] * e[1] - w[1] * e[0]) / denom
    s = (w[0] * d[1] - w[1] * d[0]) / denom
    if t > 1e-12 and -1e-12 <= s <= 1 + 1e-12:
        return t
    return None


def exhaustive_sym_point(mesh, i, j):
    """All macroelement-boundary intersections of the pair (i, j) ray.

    Returns (t, point) of the nearest far-edge crossing, or None when the
    ray leaves the domain immediately (boundary fallback applies).
    """
    p0 = mesh.nodes[i]
    d = mesh.nodes[i] - mesh.nodes[j]
    hits = []
    for e in range(mesh.num_elements):
        tri = list(mesh.elements[e])
        if i not in tri:
            continue
        others = [v for v in tri if v != i]
        t = segment_hit(p0, d, mesh.nodes[others[0]], mesh.nodes[others[1]])
        if t is not None:
            hits.append(t)
    if not hits:
        return None
    t = min(hits)
    return t, p0 + t * d


def loop_sym_stencils(mesh):
    """The symmetric-node stencil of a mesh, one pair and one far edge at a
    time: the reference for ``pnpfem.mesh.build_sym_stencils``.

    For each directed pair (i, j) the ray from node j through node i is
    intersected with the far edges of the star of i (the element edges
    opposite to i).  Boundary pairs whose ray exits the domain immediately
    fall back to the one-sided rule.

    Raises
    ------
    StencilError
        If an interior node's ray hits no far edge (degenerate geometry).
    """
    npairs = mesh.pair_i.size
    sym_nodes = np.zeros((npairs, 2), dtype=np.int64)
    sym_weights = np.zeros((npairs, 2))
    sym_points = np.zeros((npairs, 2))
    r_len = np.zeros(npairs)
    r_sym_len = np.zeros(npairs)
    one_sided = np.zeros(npairs, dtype=bool)

    # far edges per node: edges (u, v) opposite i in elements containing i
    far_edges = [[] for _ in range(mesh.num_nodes)]
    for (u, v, w) in mesh.elements:
        far_edges[u].append((v, w))
        far_edges[v].append((w, u))
        far_edges[w].append((u, v))

    pts = mesh.nodes
    for p in range(npairs):
        i, j = int(mesh.pair_i[p]), int(mesh.pair_j[p])
        ai, aj = pts[i], pts[j]
        d = ai - aj
        rij = np.linalg.norm(d)
        r_len[p] = rij

        best_t, best = np.inf, None
        for (u, v) in far_edges[i]:
            e = pts[v] - pts[u]
            denom = d[0] * e[1] - d[1] * e[0]
            if abs(denom) < 1e-14 * max(rij, 1.0) * np.linalg.norm(e):
                continue
            w = pts[u] - ai
            t = (w[0] * e[1] - w[1] * e[0]) / denom
            s = (w[0] * d[1] - w[1] * d[0]) / denom
            if t > 1e-12 and -1e-12 <= s <= 1.0 + 1e-12 and t < best_t:
                best_t, best = t, (u, v, min(max(s, 0.0), 1.0))

        if best is None:
            if not mesh.boundary_mask[i]:
                raise meshmod.StencilError(
                    f"no symmetric point for interior pair ({i}, {j})"
                )
            sym_nodes[p] = (j, j)
            sym_weights[p] = (1.0, 0.0)
            sym_points[p] = aj
            r_sym_len[p] = rij
            one_sided[p] = True
        else:
            u, v, s = best
            point = ai + best_t * d
            sym_nodes[p] = (u, v)
            sym_weights[p] = (1.0 - s, s)
            sym_points[p] = point
            r_sym_len[p] = np.linalg.norm(point - ai)

    return meshmod.SymmetricStencil(
        mesh, sym_nodes, sym_weights, sym_points, r_len, r_sym_len, one_sided
    )


# --- scalar reference formulas -----------------------------------------------
# One pair or one value at a time, straight from the definitions.  The package
# evaluates these quantities for every pair at once inside its operators
# (``compute_alpha``, the stabilizers, ``star_transport_vector``).


def pair_index(mesh, i, j):
    """Index of the directed pair (i, j) in the mesh's pair arrays."""
    hits = np.flatnonzero((mesh.pair_i == i) & (mesh.pair_j == j))
    if hits.size != 1:
        raise KeyError(f"node {j} is not a neighbor of node {i}")
    return int(hits[0])


def _pair_slopes(i, j, x, stencil):
    """Slopes of x from node i through node j and through the symmetric
    point of j."""
    p = pair_index(stencil.mesh, i, j)
    x = np.asarray(x, dtype=float)
    (n1, n2), (w1, w2) = stencil.sym_nodes[p], stencil.sym_weights[p]
    x_sym = w1 * x[n1] + w2 * x[n2]
    return ((x[j] - x[i]) / stencil.r_len[p],
            (x_sym - x[i]) / stencil.r_sym_len[p])


def jump(i, j, x, stencil):
    """Directional slope jump of the pair (i, j): both slopes added."""
    s1, s2 = _pair_slopes(i, j, x, stencil)
    return float(s1 + s2)


def mean(i, j, x, stencil):
    """Directional slope mean of the pair (i, j): half-sum of magnitudes."""
    s1, s2 = _pair_slopes(i, j, x, stencil)
    return float(0.5 * (abs(s1) + abs(s2)))


def pair_fluxes_alg1(i, j, timestep, mass, stiffness, drift):
    """(plus, minus) = M_ij/k + K_ij +- G_ij, the off-diagonal system
    couplings of the directed pair (i, j) seen by the cation (+) and anion
    (-) equations."""
    if timestep <= 0:
        raise ValueError(f"timestep must be positive, got {timestep}")
    base = mass[i, j] / timestep + stiffness[i, j]
    return float(base + drift[i, j]), float(base - drift[i, j])


def secant_slope(i, j, x, fns):
    """(x_j - x_i) / (dg(x_j) - dg(x_i)) for distinct values (x_j != x_i and
    a nonzero dg difference), else max(x_i, epsilon)."""
    xi, xj = float(x[i]), float(x[j])
    ddg = float(fns.dg(xj) - fns.dg(xi))
    if xj != xi and ddg != 0.0:
        return (xj - xi) / ddg
    return max(xi, fns.epsilon)


def pair_fluxes_alg2(i, j, x, phi, fns, stiffness):
    """Entropy-secant flux coefficients (plus, minus) of the directed pair
    (i, j): zero for equal values, else
    (1 +- dphi (1/(dg_j - dg_i) - max(x_i, eps)/(x_j - x_i))) K_ij."""
    xi, xj = float(x[i]), float(x[j])
    ddg = float(fns.dg(xj) - fns.dg(xi))
    if xj == xi or ddg == 0.0:
        return 0.0, 0.0
    bracket = (phi[j] - phi[i]) * (1.0 / ddg - max(xi, fns.epsilon)
                                   / (xj - xi))
    kij = stiffness[i, j]
    return float((1.0 + bracket) * kij), float((1.0 - bracket) * kij)


def _nonnegative(s):
    s = np.asarray(s, dtype=float)
    if np.any(s < 0):
        raise ValueError("entropy density requires nonnegative arguments")
    return s


def g(s, eps):
    """Regularized entropy density at a scalar s: s log s - s + 1 above the
    threshold eps, and below it the quadratic that meets that branch at eps
    with the same value and slope."""
    if s > eps:
        return s * np.log(s) - s + 1.0
    return (s * s - eps * eps) / (2.0 * eps) + (np.log(eps) - 1.0) * s + 1.0


def dg0(s):
    """Exact entropy derivative log s, for nonnegative s."""
    with np.errstate(divide="ignore"):
        return np.log(_nonnegative(s))


def d2g0(s):
    """Exact entropy second derivative 1/s, for nonnegative s."""
    with np.errstate(divide="ignore"):
        return 1.0 / _nonnegative(s)


# --- general sparse assembly -------------------------------------------------
# The package writes every operator straight into the values of one CSR
# pattern per mesh.  These are the same operators built the general way:
# coordinate triplets summed by ``tocsr`` and entries read by CSR fancy
# indexing, with no knowledge of the pattern.


def coo_accumulate(mesh, local):
    """Sum (M, 3, 3) local matrices through coordinate triplets."""
    tri = mesh.elements
    n = mesh.num_nodes
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def coo_mass(mesh):
    local = np.full((mesh.num_elements, 3, 3), 1.0)
    local[:, [0, 1, 2], [0, 1, 2]] = 2.0
    return coo_accumulate(mesh, local * mesh.areas[:, None, None] / 12.0)


def coo_stiffness(mesh):
    g = np.array([hat_gradients(mesh.nodes[t]) for t in mesh.elements])
    local = np.einsum("eax,ebx->eab", g, g) * mesh.areas[:, None, None]
    return coo_accumulate(mesh, local)


def coo_drift(mesh, phi):
    g = np.array([hat_gradients(mesh.nodes[t]) for t in mesh.elements])
    gphi = np.einsum("ea,eax->ex", phi[mesh.elements], g)
    row_val = np.einsum("ex,eax->ea", gphi, g) * (mesh.areas[:, None] / 3.0)
    return coo_accumulate(mesh, np.repeat(row_val[:, :, None], 3, axis=2))


def coo_graph_laplacian(n, edge_i, edge_j, w):
    rows = np.concatenate([edge_i, edge_j, edge_i, edge_j])
    cols = np.concatenate([edge_i, edge_j, edge_j, edge_i])
    vals = np.concatenate([w, w, -w, -w])
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def _entries(matrix, rows, cols):
    return np.asarray(matrix[rows, cols]).ravel()


def coo_stabilizer_alg1(sign, k, alpha, mesh, mass, stiffness, drift):
    ei, ej = mesh.edge_i, mesh.edge_j
    base = _entries(mass, ei, ej) / k + _entries(stiffness, ei, ej)
    f_ij = base + sign * _entries(drift, ei, ej)
    f_ji = base + sign * _entries(drift, ej, ei)
    w = np.maximum(np.maximum(alpha[ei] * f_ij, alpha[ej] * f_ji), 0.0)
    return coo_graph_laplacian(mesh.num_nodes, ei, ej, w)


def _secants(x, fns, ei, ej):
    xi, xj = x[ei], x[ej]
    dx = xj - xi
    ddg = np.asarray(fns.dg(xj) - fns.dg(xi))
    distinct = (dx != 0.0) & (ddg != 0.0)
    return xi, xj, dx, ddg, distinct


def coo_stabilizer_alg2(sign, x, phi, alpha, fns, stiffness, mesh):
    ei, ej = mesh.edge_i, mesh.edge_j
    xi, xj, dx, ddg, distinct = _secants(x, fns, ei, ej)
    safe_dx = np.where(distinct, dx, 1.0)
    inv_slope = 1.0 / np.where(distinct, ddg, 1.0)
    dphi = phi[ej] - phi[ei]
    kij = _entries(stiffness, ei, ej)
    f = [(1.0 + sign * dphi * (inv_slope - np.maximum(xa, fns.epsilon)
                                / safe_dx)) * kij for xa in (xi, xj)]
    f_ij, f_ji = (np.where(distinct, fa, 0.0) for fa in f)
    w = np.maximum(np.maximum(alpha[ei] * f_ij, alpha[ej] * f_ji), 0.0)
    return coo_graph_laplacian(mesh.num_nodes, ei, ej, w)


def coo_star_transport_vector(x, phi, fns, stiffness, mesh):
    ei, ej = mesh.edge_i, mesh.edge_j
    xi, _, dx, ddg, distinct = _secants(x, fns, ei, ej)
    tau = np.where(distinct, np.divide(dx, np.where(distinct, ddg, 1.0)),
                   np.maximum(xi, fns.epsilon))
    w = tau * (phi[ej] - phi[ei]) * _entries(stiffness, ei, ej)
    v = np.zeros(x.size)
    np.add.at(v, ei, w)
    np.add.at(v, ej, -w)
    return v


def loop_transport_matrix(sign, x, phi, stabilizer, stiffness, fns, mesh):
    """(T, T x, lam): one species' Alg. 2 transport matrix, edge by edge from
    the elements, its product with x, and the step lam of each edge (i, j),
    i < j, as a dict.

    The flow c_i x_i + c_j x_j of each edge, with s = (phi_j - phi_i) K_ij,
    enters node i and leaves node j.  c = up + lam (jac - up): the upwind
    coefficients up are (s, 0) where sign s > 0, else (0, s); jac is s times
    the partials of the secant slope tau, (tau / max(x_i, eps) - 1) / ddg
    and (1 - tau / max(x_j, eps)) / ddg for distinct values, else 1/2 each
    above eps and 0 below.  lam in [0, 1] is the largest that keeps both
    off-diagonals of K + stabilizer + sign T at most max(their upwind
    values, 0)."""
    n = mesh.num_nodes
    K, B = stiffness.tolil(), stabilizer.tolil()
    T = sp.lil_matrix((n, n))
    Tx = np.zeros(n)
    lam = {}
    eps = fns.epsilon
    edges = {tuple(sorted((int(tri[a]), int(tri[(a + 1) % 3]))))
             for tri in mesh.elements for a in range(3)}
    for i, j in sorted(edges):
        s = (phi[j] - phi[i]) * K[i, j]
        xi, xj = float(x[i]), float(x[j])
        tau = secant_slope(i, j, x, fns)
        ddg = float(fns.dg(xj) - fns.dg(xi))
        if xj != xi and ddg != 0.0:
            dtau = ((tau / max(xi, eps) - 1.0) / ddg,
                    (1.0 - tau / max(xj, eps)) / ddg)
        else:
            dtau = (0.5, 0.5) if xi > eps else (0.0, 0.0)
        up = (s, 0.0) if sign * s > 0.0 else (0.0, s)
        jac = (s * dtau[0], s * dtau[1])
        # the entries of sign T at (i, j) and (j, i), upwind and Jacobian,
        # each added to the off-diagonal K_ij - w_ij of the system
        off = K[i, j] + B[i, j]
        step = 1.0
        for at_up, at_jac in ((sign * up[1], sign * jac[1]),
                              (-sign * up[0], -sign * jac[0])):
            # the room bound - upwind is 0 or -upwind, exact in floats, so
            # roundoff cannot turn it, and the step, negative
            upwind = off + at_up
            bound = max(upwind, 0.0)
            if off + at_jac > bound:
                step = min(step, (bound - upwind) / (at_jac - at_up))
        c_i, c_j = (u + step * (v - u) for u, v in zip(up, jac))
        T[i, i] += c_i
        T[i, j] += c_j
        T[j, i] -= c_i
        T[j, j] -= c_j
        flow = c_i * xi + c_j * xj
        Tx[i] += flow
        Tx[j] -= flow
        lam[(i, j)] = step
    return T.tocsr(), Tx, lam


def coo_pinned_rows(A, fixed):
    """A with the rows of the fixed nodes replaced by identity rows, by
    multiplying with diagonal row masks."""
    n = A.shape[0]
    keep = np.ones(n)
    keep[fixed] = 0.0
    return sp.diags(keep, format="csr") @ A + sp.diags(1.0 - keep,
                                                       format="csr")


def coo_residual(algorithm, k, mesh, fns, p_old, n_old, p, n, phi,
                 alpha_p, alpha_n, fixed, fixed_values):
    """One step's residual of either scheme, summed term by term.

    Algorithm 1: M (x - x_old)/k + K x +- G x + B x; algorithm 2:
    D (x - x_old)/k + K x +- v(x) + B x, with D the row sums of M and v the
    edge transport; + for the cations.  Pinned cation rows give p - value.
    Returns ((r_p, r_n), terms) with every summand listed in ``terms``.
    """
    M, K = coo_mass(mesh), coo_stiffness(mesh)
    G = coo_drift(mesh, phi)
    d = np.asarray(M.sum(axis=1)).ravel()
    parts = []
    for sign, x, x_old, alpha in ((+1, p, p_old, alpha_p),
                                  (-1, n, n_old, alpha_n)):
        if algorithm == 1:
            B = coo_stabilizer_alg1(sign, k, alpha, mesh, M, K, G)
            parts.append([M @ (x - x_old) / k, K @ x, sign * (G @ x), B @ x])
        else:
            B = coo_stabilizer_alg2(sign, x, phi, alpha, fns, K, mesh)
            v = coo_star_transport_vector(x, phi, fns, K, mesh)
            parts.append([d * (x - x_old) / k, K @ x, sign * v, B @ x])
    r_p, r_n = (sum(terms) for terms in parts)
    r_p[fixed] = p[fixed] - fixed_values
    return (r_p, r_n), parts[0] + parts[1]


def backward_error(mesh, A, x, b):
    """(err, r) of ``_backward_error`` for the values ``A`` on the mesh's P1
    pattern, with |A| and ||b|| taken here."""
    return _backward_error(mesh, A, np.abs(A), x, b,
                           np.abs(b).max(initial=0.0))


def check_solve(mesh, A, x, b, what):
    """``x`` through the solver's backward-error gate, for the values ``A``
    on the mesh's P1 pattern."""
    return _gate(x, backward_error(mesh, A, x, b)[0], what)


def direct_solve(plan, A, b):
    """A density solve with no kept factor: ``A``, the values of a matrix on
    the P1 pattern, is factored afresh, solved once and gated."""
    x = plan.solve(plan.factor(A), b)
    return check_solve(plan.mesh, A, x, b, "density")


def cold_lagged_solve(lagged, A, b):
    """``LaggedFactor.solve`` as it was before the warm start: every solve,
    and every restart after a refactor, begins at LU^-1 b.  It keeps its
    factor on ``lagged``, as the method does."""
    plan = lagged.plan
    fresh = lagged.lu is None
    if fresh:
        lagged.lu = plan.factor(A)
    x = plan.solve(lagged.lu, b)
    err, r = backward_error(plan.mesh, A, x, b)
    corrections = 0
    while not err <= LINEAR_TOL:
        x_new = x + plan.solve(lagged.lu, r)
        err_new, r_new = backward_error(plan.mesh, A, x_new, b)
        corrections += 1
        rho = err_new / err
        if rho < 1.0:
            x, err, r = x_new, err_new, r_new
            if err <= LINEAR_TOL:
                break
            if (corrections + np.log(LINEAR_TOL / err) / np.log(rho)
                    <= LAGGED_CORRECTIONS):
                continue
        if fresh:
            break
        lagged.lu = None
        lagged.lu = plan.factor(A)
        fresh, corrections = True, 0
        x = plan.solve(lagged.lu, b)
        err, r = backward_error(plan.mesh, A, x, b)
    return _gate(x, err, "density")


# The per-cell loops that built the three structured meshes: the builders
# of pnpfem.mesh must give equal nodes, elements and tags.
def loop_unit_square(n, offset=(-0.5, -0.5)):
    """Structured triangulation of a unit square by n x n cells.

    Each cell is split along its southwest-northeast diagonal, so interior
    nodes have six neighbors.  The default offset centers the square at the
    origin.

    Parameters
    ----------
    n : int
        Subdivisions per side; must be >= 2.
    offset : pair of float
        Coordinates of the lower-left corner.

    Returns
    -------
    Mesh
        (n+1)^2 nodes, 2 n^2 elements, boundary tagged ``other_boundary``.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    ox, oy = float(offset[0]), float(offset[1])
    xs = ox + np.arange(n + 1) / n
    ys = oy + np.arange(n + 1) / n
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    def vid(i, j):
        return i * (n + 1) + j

    elements = []
    for i in range(n):
        for j in range(n):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            elements.append([v00, v10, v11])
            elements.append([v00, v11, v01])
    return Mesh(nodes, np.array(elements))


def loop_channel(cell):
    """Structured triangulation of the I-shaped channel domain.

    The domain is the union of a bottom reservoir [-2,2]x[0,1.5], a channel
    [-1,1]x[1.5,5.5] and a top reservoir [-2,2]x[5.5,7].  Boundary nodes are
    tagged ``bottom`` (y=0), ``top`` (y=7), ``membrane`` (the channel walls
    x=+-1, 1.5<=y<=5.5) and ``other_boundary`` elsewhere.

    Parameters
    ----------
    cell : float
        Grid spacing; must divide 0.5 so the corners land on grid points.
    """
    m = 0.5 / cell
    mi = int(round(m))
    if mi < 1 or abs(m - mi) > 1e-9 * m:
        raise ValueError(f"cell={cell!r} does not divide the geometry unit 0.5")
    m = mi
    ncx, ncy = 8 * m, 14 * m  # bounding box in cells: [-2,2] x [0,7]

    def cell_included(ci, cj):
        if 3 * m <= cj < 11 * m:
            return 2 * m <= ci < 6 * m
        return True

    node_id = {}
    nodes = []
    grid_pos = []

    def vid(gi, gj):
        key = (gi, gj)
        if key not in node_id:
            node_id[key] = len(nodes)
            nodes.append((-2.0 + 4.0 * (gi / ncx), 7.0 * (gj / ncy)))
            grid_pos.append(key)
        return node_id[key]

    elements = []
    for ci in range(ncx):
        for cj in range(ncy):
            if not cell_included(ci, cj):
                continue
            v00, v10 = vid(ci, cj), vid(ci + 1, cj)
            v01, v11 = vid(ci, cj + 1), vid(ci + 1, cj + 1)
            elements.append([v00, v10, v11])
            elements.append([v00, v11, v01])

    mesh = Mesh(np.array(nodes), np.array(elements))
    tags = np.full(mesh.num_nodes, INTERIOR, dtype=object)
    for k, (gi, gj) in enumerate(grid_pos):
        if not mesh.boundary_mask[k]:
            continue
        if gj == 0:
            tags[k] = BOTTOM
        elif gj == ncy:
            tags[k] = TOP
        elif gi in (2 * m, 6 * m) and 3 * m <= gj <= 11 * m:
            tags[k] = MEMBRANE
        else:
            tags[k] = OTHER_BOUNDARY
    mesh.boundary_tags = tags
    return mesh


def loop_equilateral_strip(nx, ny, side=1.0):
    """Sheared-rectangle (parallelogram) mesh of exactly equilateral triangles.

    Row j is shifted right by j*side/2, which makes every triangle
    equilateral and the assembled stiffness matrix strictly acute; this is
    the mesh used to exercise the discrete entropy law.

    Parameters
    ----------
    nx, ny : int
        Cells along the base and the height.
    side : float
        Triangle side length.
    """
    if nx < 1 or ny < 1:
        raise ValueError("nx and ny must be >= 1")
    a = float(side)
    hrow = a * np.sqrt(3.0) / 2.0
    nodes = []
    for i in range(nx + 1):
        for j in range(ny + 1):
            nodes.append((i * a + 0.5 * a * j, j * hrow))

    def vid(i, j):
        return i * (ny + 1) + j

    elements = []
    for i in range(nx):
        for j in range(ny):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            # split along the short diagonal of the sheared cell
            elements.append([v00, v10, v01])
            elements.append([v10, v11, v01])
    return Mesh(np.array(nodes), np.array(elements))


def jittered_delaunay_mesh(n, jitter, seed):
    """Delaunay triangulation of an (n+1) x (n+1) grid of the unit square
    whose interior points are moved by up to ``jitter`` cells."""
    from scipy.spatial import Delaunay

    rng = np.random.default_rng(seed)
    xs = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel()])
    inner = (pts > 0.0).all(axis=1) & (pts < 1.0).all(axis=1)
    pts[inner] += rng.uniform(-jitter, jitter, size=(inner.sum(), 2)) / n
    tri = Delaunay(pts).simplices.copy()
    a, b, c = (pts[tri[:, k]] for k in range(3))
    cw = ((b - a)[:, 0] * (c - a)[:, 1] - (b - a)[:, 1] * (c - a)[:, 0]) < 0
    tri[cw] = tri[cw][:, [0, 2, 1]]
    return Mesh(pts, tri)


def jittered_equilateral_strip(n, jitter, seed, side=0.125):
    """``build_equilateral_strip(n, n, side)`` whose interior nodes are moved
    by up to ``jitter`` sides in each coordinate."""
    base = meshmod.build_equilateral_strip(n, n, side=side)
    rng = np.random.default_rng(seed)
    nodes = base.nodes.copy()
    inner = ~base.boundary_mask
    nodes[inner] += rng.uniform(-jitter, jitter,
                                size=(inner.sum(), 2)) * side
    return Mesh(nodes, base.elements)



def fan_mesh(valence):
    """Triangles fanned around one interior node at the origin, whose
    ``valence`` neighbors are evenly spaced on the unit circle: at even
    valence every ray from a neighbor through the center passes through the
    opposite neighbor."""
    angle = 2.0 * np.pi * np.arange(valence) / valence
    nodes = np.vstack([[0.0, 0.0],
                       np.column_stack([np.cos(angle), np.sin(angle)])])
    rim = np.arange(1, valence + 1)
    return Mesh(nodes, np.column_stack([np.zeros_like(rim), rim,
                                        np.roll(rim, -1)]))

def boundary_mask(mesh):
    """Nodes on an element edge that no other element shares, found by
    counting each sorted element edge over all elements."""
    tri = mesh.elements
    edges = np.sort(
        np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]]),
        axis=1)
    _, inverse, counts = np.unique(edges, axis=0, return_inverse=True,
                                   return_counts=True)
    mask = np.zeros(mesh.num_nodes, dtype=bool)
    mask[edges[counts[inverse.ravel()] == 1].ravel()] = True
    return mask


def read_vtk_point_data(path):
    """Parse points and point scalars back from a legacy ASCII file, for
    round trips through the VTK writers.

    Returns (points, cells, {name: values}).
    """
    with open(path, "r", encoding="ascii") as f:
        tokens = f.read().split()
    idx = tokens.index("POINTS")
    npts = int(tokens[idx + 1])
    coords = np.array(tokens[idx + 3: idx + 3 + 3 * npts], dtype=float)
    points = coords.reshape(npts, 3)[:, :2]
    idx = tokens.index("CELLS")
    ncells = int(tokens[idx + 1])
    raw = np.array(tokens[idx + 3: idx + 3 + 4 * ncells], dtype=int)
    cells = raw.reshape(ncells, 4)[:, 1:]
    scalars = {}
    pos = 0
    while True:
        try:
            pos = tokens.index("SCALARS", pos) + 1
        except ValueError:
            break
        name = tokens[pos]
        start = tokens.index("default", pos) + 1
        scalars[name] = np.array(tokens[start: start + npts], dtype=float)
        pos = start
    return points, cells, scalars
