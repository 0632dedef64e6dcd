"""P1 finite element machinery: matrix assembly, interpolation, quadrature.

Fields are plain 1D numpy arrays with one value per mesh node; matrices are
scipy CSR on the mesh's P1 pattern.  All element integrals here are exact
for the polynomial degrees involved (the closed-form local matrices of
linear elements).  The drift, assembled at every Picard iterate of Algorithm
1, is a run-constant map on the mesh (``Mesh.drift_map``) times the potential.
"""

import numpy as np

# degree-5 Gauss rule on the reference triangle, barycentric coordinates and
# weights normalized to sum to 1; positive weights keep element means inside
# the data range
_SQ15 = np.sqrt(15.0)
_A1 = (6.0 + _SQ15) / 21.0
_A2 = (6.0 - _SQ15) / 21.0
TRI_QUAD_BARY = np.array(
    [
        [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
        [_A1, _A1, 1.0 - 2.0 * _A1],
        [_A1, 1.0 - 2.0 * _A1, _A1],
        [1.0 - 2.0 * _A1, _A1, _A1],
        [_A2, _A2, 1.0 - 2.0 * _A2],
        [_A2, 1.0 - 2.0 * _A2, _A2],
        [1.0 - 2.0 * _A2, _A2, _A2],
    ]
)
TRI_QUAD_WEIGHTS = np.array(
    [9.0 / 40.0]
    + [(155.0 + _SQ15) / 1200.0] * 3
    + [(155.0 - _SQ15) / 1200.0] * 3
)


def _accumulate(mesh, local):
    """Sum (M, 3, 3) local matrices into a CSR matrix on the P1 pattern."""
    data = np.bincount(mesh.element_slots.ravel(), weights=local.ravel(),
                       minlength=mesh.pattern_nnz)
    return mesh.csr(data)


def assemble_mass(mesh):
    """Consistent mass matrix, local block A/12 * (2 on diag, 1 off diag)."""
    local = np.full((mesh.num_elements, 3, 3), 1.0)
    local[:, [0, 1, 2], [0, 1, 2]] = 2.0
    local *= mesh.areas[:, None, None] / 12.0
    return _accumulate(mesh, local)


def lumped_mass_vector(mesh):
    """Integrals of the hat functions as a vector: one third of the star area."""
    return np.bincount(mesh.elements.T.ravel(),
                       weights=np.tile(mesh.areas / 3.0, 3),
                       minlength=mesh.num_nodes)


def assemble_stiffness(mesh):
    """Stiffness matrix K_ij = (grad phi_j, grad phi_i); K 1 = 0."""
    g = mesh.gradients
    local = np.einsum("eax,ebx->eab", g, g) * mesh.areas[:, None, None]
    return _accumulate(mesh, local)


def assemble_drift(mesh, phi):
    """Drift matrix G_ij = (phi_j grad(phi_h) . grad phi_i) for a potential.

    The potential gradient is constant per element and the remaining hat
    integral is A/3, so the integration is exact.  G's values are linear in
    phi: ``mesh.drift_map @ phi``, whose map is built once per mesh.
    """
    return mesh.csr(mesh.drift_map @ np.asarray(phi, dtype=float))


def _finite(vals, mesh):
    """``vals``; raises ``ValueError`` naming the first node at which an
    interpolated value is not finite."""
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise ValueError(f"interpolated value at node {bad[0]} "
                         f"{tuple(mesh.nodes[bad[0]].tolist())} is not finite")
    return vals


def nodal_interpolate(f, mesh):
    """Nodal interpolation: evaluate f(x, y) at every node.

    Raises ``ValueError`` naming the first node at which f is not finite.
    """
    vals = np.asarray(
        f(mesh.nodes[:, 0], mesh.nodes[:, 1]), dtype=float
    )
    return _finite(np.broadcast_to(vals, (mesh.num_nodes,)).copy(), mesh)


def designated_elements(mesh):
    """The element assigned to each node for averaged interpolation.

    Deterministic choice: the adjacent element with the smallest index.
    """
    first = np.full(mesh.num_nodes, mesh.num_elements, dtype=np.int64)
    np.minimum.at(first, mesh.elements,
                  np.arange(mesh.num_elements)[:, None])
    return first


def averaged_interpolate(f, mesh):
    """Bound-preserving averaged interpolation.

    Node i receives the mean of f over its designated adjacent element,
    computed with the positive-weight degree-5 rule, so every nodal value
    stays within the range of f.  Raises ``ValueError`` naming the first
    node whose mean is not finite.
    """
    elems = designated_elements(mesh)
    tri = mesh.elements[elems]
    p0, p1, p2 = (mesh.nodes[tri[:, a]] for a in range(3))
    vals = np.zeros(mesh.num_nodes)
    for lam, w in zip(TRI_QUAD_BARY, TRI_QUAD_WEIGHTS):
        q = lam[0] * p0 + lam[1] * p1 + lam[2] * p2
        vals += w * np.asarray(f(q[:, 0], q[:, 1]), dtype=float)
    return _finite(vals, mesh)
