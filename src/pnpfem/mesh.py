"""2D triangular meshes: structured builders, adjacency, symmetric-node stencils.

Meshes are immutable after construction.  Node neighborhoods ("macroelements")
are the vertex stars used by the shock detector, and the symmetric-node
stencil records, for every directed neighbor pair (i, j), the point where the
ray from node j through node i leaves the star of i.
"""

import collections
import functools
import numbers

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

INTERIOR = "interior"
BOTTOM = "bottom"
TOP = "top"
MEMBRANE = "membrane"
OTHER_BOUNDARY = "other_boundary"

ACUTENESS_TOL = 1e-14


class StencilError(RuntimeError):
    """Raised when a symmetric point cannot be constructed for a node pair."""


def _cross2(u, v):
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


class Mesh:
    """Conforming triangulation with counterclockwise elements.

    Parameters
    ----------
    nodes : (N, 2) array
        Node coordinates.
    elements : (M, 3) int array
        Node indices per triangle, counterclockwise.  Every node must belong
        to an element.
    boundary_tags : (N,) array of str, optional
        Tag per node; exactly the nodes off the boundary carry
        ``"interior"``, or ``ValueError`` names the first node that breaks
        this.  If omitted, all boundary nodes are tagged
        ``"other_boundary"``.

    Attributes
    ----------
    pair_i, pair_j : int arrays
        Directed neighbor pairs (j != i), grouped by i; ``pair_ptr`` holds
        the CSR-style offsets of each node's group.
    h : float
        Maximum element diameter.
    gradients : (M, 3, 2) array
        ``gradients[e, a]`` is the constant gradient of the hat function of
        local vertex a on element e.
    pattern_indptr, pattern_indices : int arrays
        The P1 sparsity pattern: sorted CSR structure of all node pairs that
        share an element, diagonal included.  Every assembled operator is
        stored on it, and the slot maps below index its ``data``.
    element_slots : (M, 3, 3) int array
        Slot of the entry coupling local vertices a and b of element e.
    diag_slots, transpose_slots : int arrays
        Slot of each diagonal entry, and of the transposed entry of each slot.
    edge_slots, edge_slots_t : int arrays
        Slots of the (i, j) and (j, i) entries of each unordered edge.
    edge_ends : int array
        ``edge_i`` followed by ``edge_j``, for per-node sums over edges.
    """

    def __init__(self, nodes, elements, boundary_tags=None):
        self.nodes = np.ascontiguousarray(nodes, dtype=float)
        self.elements = np.ascontiguousarray(elements, dtype=np.int64)
        if self.nodes.ndim != 2 or self.nodes.shape[1] != 2:
            raise ValueError("nodes must be an (N, 2) array")
        if self.elements.ndim != 2 or self.elements.shape[1] != 3:
            raise ValueError("elements must be an (M, 3) array")
        finite = np.isfinite(self.nodes).all(axis=1)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise ValueError(f"node {bad} has non-finite coordinates "
                             f"{self.nodes[bad].tolist()}")
        outside = (self.elements < 0) | (self.elements >= self.num_nodes)
        if outside.any():
            bad = int(np.flatnonzero(outside.any(axis=1))[0])
            raise ValueError(f"element {bad} has node indices "
                             f"{self.elements[bad].tolist()} outside "
                             f"[0, {self.num_nodes})")
        uses = np.bincount(self.elements.ravel(), minlength=self.num_nodes)
        if not uses.all():
            raise ValueError(f"node {int(np.argmin(uses))} belongs to no "
                             f"element")

        p0 = self.nodes[self.elements[:, 0]]
        p1 = self.nodes[self.elements[:, 1]]
        p2 = self.nodes[self.elements[:, 2]]
        self.areas = 0.5 * _cross2(p1 - p0, p2 - p0)
        if np.any(self.areas <= 0.0):
            bad = int(np.argmin(self.areas))
            raise ValueError(
                f"element {bad} has non-positive signed area {self.areas[bad]:g}"
            )
        edge_len = np.stack(
            [
                np.linalg.norm(p1 - p0, axis=1),
                np.linalg.norm(p2 - p1, axis=1),
                np.linalg.norm(p0 - p2, axis=1),
            ]
        )
        self.h = float(edge_len.max())
        two_a = 2.0 * self.areas
        self.gradients = np.empty((self.num_elements, 3, 2))
        # grad lambda_a = rot90(opposite edge) / (2 A), edges taken CCW
        for a, (q, r) in enumerate(((p1, p2), (p2, p0), (p0, p1))):
            e = r - q
            self.gradients[:, a, 0] = -e[:, 1] / two_a
            self.gradients[:, a, 1] = e[:, 0] / two_a

        self._build_adjacency()

        if boundary_tags is None:
            tags = np.full(self.num_nodes, INTERIOR, dtype=object)
            tags[self.boundary_mask] = OTHER_BOUNDARY
            self.boundary_tags = tags
        else:
            self.boundary_tags = np.asarray(boundary_tags, dtype=object)
            if self.boundary_tags.shape != (self.num_nodes,):
                raise ValueError("boundary_tags must have one entry per node")
            bad = (self.boundary_tags == INTERIOR) == self.boundary_mask
            if bad.any():
                i = int(np.argmax(bad))
                raise ValueError(
                    f"node {i} is tagged {self.boundary_tags[i]!r}, but "
                    f"exactly the nodes off the boundary are {INTERIOR!r}")

    @property
    def num_nodes(self):
        return self.nodes.shape[0]

    @property
    def num_elements(self):
        return self.elements.shape[0]

    def _build_adjacency(self):
        tri = self.elements
        n = self.num_nodes
        # every vertex of a triangle is adjacent to every vertex of it; entry
        # (3a + b) M + e couples local vertices a and b of element e
        rows = np.concatenate([tri[:, a] for a in range(3) for _ in range(3)])
        cols = np.concatenate([tri[:, b] for _ in range(3) for b in range(3)])
        order = np.lexsort((cols, rows))
        rows, cols = rows[order], cols[order]
        keep = np.ones(rows.size, dtype=bool)
        keep[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        slot = np.empty(rows.size, dtype=np.int64)
        slot[order] = np.cumsum(keep) - 1
        rows, cols = rows[keep], cols[keep]

        counts = np.bincount(rows, minlength=n)
        ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=ptr[1:])

        # the P1 sparsity pattern (sorted CSR, diagonal included) and the
        # slots of the entries every assembled operator writes
        idx = np.int32 if rows.size < 2**31 else np.int64
        self.pattern_indptr = ptr.astype(idx)
        self.pattern_indices = cols.astype(idx)
        # shared by every matrix on the pattern: no in-place change of one
        # may alter the others
        self.pattern_indptr.flags.writeable = False
        self.pattern_indices.flags.writeable = False
        self.element_slots = slot.reshape(9, -1).T.reshape(-1, 3, 3)
        keys = rows * n + cols
        self.transpose_slots = np.searchsorted(keys, cols * n + rows)
        self.diag_slots = np.flatnonzero(rows == cols)

        off = cols != rows
        self.pair_i = rows[off].copy()
        self.pair_j = cols[off].copy()
        # every pattern row holds its diagonal, one entry that is no pair
        self.pair_ptr = ptr - np.arange(n + 1)

        # unordered adjacent pairs (i < j), used by edge-based operators,
        # with the slots of their (i, j) and (j, i) entries
        und = self.pair_i < self.pair_j
        self.edge_i = self.pair_i[und].copy()
        self.edge_j = self.pair_j[und].copy()
        self.edge_slots = np.flatnonzero(off)[und]
        self.edge_slots_t = self.transpose_slots[self.edge_slots]
        self.edge_ends = np.concatenate([self.edge_i, self.edge_j])

        # a boundary edge is one that only one element uses
        one_element = np.bincount(slot)[self.edge_slots] == 1
        self.boundary_mask = np.zeros(n, dtype=bool)
        self.boundary_mask[self.edge_ends[np.tile(one_element, 2)]] = True

    @property
    def pattern_nnz(self):
        return self.pattern_indices.size

    @functools.cached_property
    def drift_map(self):
        """(nnz x N) map, built on first use, from a potential to its drift
        matrix's values on the pattern: row a of G on element e, A_e/3 grad
        lambda_a . grad phi_h, is added into ``element_slots[e, a]``."""
        g, m = self.gradients, self.num_elements
        ptr = np.arange(0, 9 * m + 1, 3)
        rows = np.einsum("eax,ebx,e->eab", g, g, self.areas / 3.0)
        element_map = sp.csr_matrix(
            (rows.ravel(), np.repeat(self.elements, 3, axis=0).ravel(), ptr),
            shape=(3 * m, self.num_nodes))
        slot_map = sp.csr_matrix((np.ones(9 * m), self.element_slots.ravel(),
                                  ptr), shape=(3 * m, self.pattern_nnz)).T
        return (slot_map @ element_map).tocsr()

    def csr(self, data):
        """CSR matrix with the given values on the P1 pattern."""
        n = self.num_nodes
        return sp.csr_matrix(
            (data, self.pattern_indices, self.pattern_indptr), shape=(n, n))

    def matvec(self, values, x):
        """A x for the values of A on the P1 pattern, by the compiled kernel
        that ``csr(values) @ x`` runs, so the two agree bit for bit."""
        n = self.num_nodes
        if np.shape(values) != (self.pattern_nnz,) or np.shape(x) != (n,):
            raise ValueError("matvec takes values on the P1 pattern and x")
        y = np.zeros(n)
        _sparsetools.csr_matvec(n, n, self.pattern_indptr,
                                self.pattern_indices, values, x, y)
        return y

    def pattern_values(self, matrix):
        """The ``data`` of a CSR matrix on this mesh's P1 pattern, which the
        slot maps index directly; any other matrix raises ``ValueError``.
        One from ``csr`` is known by its shared, read-only index arrays."""
        n, ptr, ind = self.num_nodes, self.pattern_indptr, self.pattern_indices
        if not (sp.issparse(matrix) and matrix.format == "csr"
                and matrix.shape == (n, n)
                and (matrix.indptr is ptr and matrix.indices.base is ind
                     and matrix.indices.dtype == ind.dtype
                     and matrix.indices.strides == ind.strides
                     and matrix.indices.shape == ind.shape
                     or np.array_equal(matrix.indptr, ptr)
                     and np.array_equal(matrix.indices, ind))):
            raise ValueError("matrix is not stored on the mesh's P1 pattern")
        return matrix.data

    def nodes_with_tag(self, tag):
        """Indices of all nodes carrying the given boundary tag."""
        return np.flatnonzero(self.boundary_tags == tag)

    def total_area(self):
        return float(self.areas.sum())


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


def _split_cells(ci, cj, vid, short_diagonal=False):
    """Two counterclockwise triangles per cell (ci[c], cj[c]), cell by cell,
    with ``vid[gi, gj]`` the node at grid point (gi, gj).  A cell is split
    along its southwest-northeast diagonal, or with ``short_diagonal`` along
    the other one, the short diagonal of a cell sheared to the right."""
    v00, v10 = vid[ci, cj], vid[ci + 1, cj]
    v01, v11 = vid[ci, cj + 1], vid[ci + 1, cj + 1]
    if short_diagonal:
        pair = (v00, v10, v01), (v10, v11, v01)
    else:
        pair = (v00, v10, v11), (v00, v11, v01)
    return np.array(pair).transpose(2, 0, 1).reshape(-1, 3)


def build_unit_square(n):
    """Structured triangulation of the unit square [-0.5,0.5]^2 by n x n cells.

    Each cell is split along its southwest-northeast diagonal, so interior
    nodes have six neighbors.  Node (i, j) is number i (n+1) + j.

    Parameters
    ----------
    n : int
        Subdivisions per side; must be a whole number >= 2.

    Returns
    -------
    Mesh
        (n+1)^2 nodes, 2 n^2 elements, boundary tagged ``other_boundary``.
    """
    n = _whole("n", n, minimum=2)
    xs = -0.5 + np.arange(n + 1) / n
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    nodes = np.column_stack([X.ravel(), Y.ravel()])
    ci, cj = np.divmod(np.arange(n * n), n)
    vid = np.arange((n + 1) ** 2).reshape(n + 1, n + 1)
    return Mesh(nodes, _split_cells(ci, cj, vid))


def build_channel(cell):
    """Structured triangulation of the I-shaped channel domain.

    The domain is the union of a bottom reservoir [-2,2]x[0,1.5], a channel
    [-1,1]x[1.5,5.5] and a top reservoir [-2,2]x[5.5,7].  Boundary nodes are
    tagged ``bottom`` (y=0), ``top`` (y=7), ``membrane`` (the channel walls
    x=+-1, 1.5<=y<=5.5) and ``other_boundary`` elsewhere.  Nodes are
    numbered by first appearance among the corners (lower left, lower right,
    upper left, upper right) of the cells, column by column.

    Parameters
    ----------
    cell : float
        Grid spacing; must divide 0.5 so the corners land on grid points.
    """
    m = 0.5 / _real("cell", cell)
    mi = int(round(m))
    if mi < 1 or abs(m - mi) > 1e-9 * m:
        raise ValueError(f"cell={cell!r} does not divide the geometry unit 0.5")
    m = mi
    ncx, ncy = 8 * m, 14 * m  # bounding box in cells: [-2,2] x [0,7]
    inside = np.ones((ncx, ncy), dtype=bool)
    inside[:2 * m, 3 * m:11 * m] = inside[6 * m:, 3 * m:11 * m] = False
    ci, cj = np.nonzero(inside)
    corners = (ci * (ncy + 1) + cj)[:, None] + [0, ncy + 1, 1, ncy + 2]
    grid, first = np.unique(corners, return_index=True)
    grid = grid[np.argsort(first)]
    vid = np.full((ncx + 1, ncy + 1), -1)
    vid.flat[grid] = np.arange(grid.size)
    gi, gj = np.divmod(grid, ncy + 1)
    nodes = np.column_stack([-2.0 + 4.0 * (gi / ncx), 7.0 * (gj / ncy)])

    # a grid point is on the boundary iff one of its four cells is missing
    cells = np.pad(inside, 1)
    full = cells[:-1, :-1] & cells[1:, :-1] & cells[:-1, 1:] & cells[1:, 1:]
    wall = ((gi == 2 * m) | (gi == 6 * m)) & (3 * m <= gj) & (gj <= 11 * m)
    tags = np.select([full[gi, gj], gj == 0, gj == ncy, wall],
                     [INTERIOR, BOTTOM, TOP, MEMBRANE], OTHER_BOUNDARY)
    return Mesh(nodes, _split_cells(ci, cj, vid), tags)


def build_equilateral_strip(nx, ny, side=1.0):
    """Sheared-rectangle (parallelogram) mesh of exactly equilateral triangles.

    Row j is shifted right by j*side/2, which makes every triangle
    equilateral and the assembled stiffness matrix strictly acute; this is
    the mesh used to exercise the discrete entropy law.  Node (i, j) is
    number i (ny+1) + j.

    Parameters
    ----------
    nx, ny : int
        Cells along the base and the height; whole numbers >= 1.
    side : float
        Triangle side length; must be positive.
    """
    nx, ny = _whole("nx", nx), _whole("ny", ny)
    a = _real("side", side)
    gi, gj = np.divmod(np.arange((nx + 1) * (ny + 1)), ny + 1)
    nodes = np.column_stack([gi * a + 0.5 * a * gj,
                             gj * (a * np.sqrt(3.0) / 2.0)])
    ci, cj = np.divmod(np.arange(nx * ny), ny)
    vid = np.arange((nx + 1) * (ny + 1)).reshape(nx + 1, ny + 1)
    return Mesh(nodes, _split_cells(ci, cj, vid, short_diagonal=True))


class SymmetricStencil:
    """Symmetric-node data for every directed neighbor pair of a mesh.

    For pair index p (aligned with ``mesh.pair_i``/``mesh.pair_j``):

    - ``sym_nodes[p]`` and ``sym_weights[p]`` give the two endpoint nodes of
      the star-boundary edge containing the symmetric point and the convex
      weights such that a nodal field evaluates there as
      ``w1*x[n1] + w2*x[n2]``;
    - ``r_len[p]`` and ``r_sym_len[p]`` are the distances from node i to
      node j and to the symmetric point;
    - ``one_sided[p]`` marks boundary pairs where the ray leaves the domain
      immediately; these duplicate the pair's own difference
      (``x_sym := x_j``, ``r_sym := r``).
    """

    def __init__(self, mesh, sym_nodes, sym_weights, sym_points, r_len,
                 r_sym_len, one_sided):
        self.mesh = mesh
        self.sym_nodes = sym_nodes
        self.sym_weights = sym_weights
        self.sym_points = sym_points
        self.r_len = r_len
        self.r_sym_len = r_sym_len
        self.one_sided = one_sided

    @functools.cached_property
    def sym_map(self):
        """(pairs x pairs) map, built on first use, from every pair's
        difference ``x_j - x_i`` to ``x_sym - x_i``, a weighted sum of the
        differences of i's pairs to the ends of the symmetric point's edge
        (or to j, one-sided): a constant field maps to exact zeros."""
        mesh, n = self.mesh, self.mesh.num_nodes
        keys = mesh.pair_i * n + mesh.pair_j
        cols = np.searchsorted(keys, mesh.pair_i[:, None] * n + self.sym_nodes)
        return sp.csr_matrix((self.sym_weights.ravel(), cols.ravel(),
                              np.arange(0, cols.size + 1, 2)),
                             shape=(keys.size, keys.size))


def _lengths(v):
    """Euclidean length of each row of an (n, 2) array.

    The stacked product reaches the same BLAS dot product as
    ``np.linalg.norm`` of one row, so the lengths are bit-equal to it;
    ``sqrt(x*x + y*y)``, ``einsum`` and ``norm(axis=1)`` can each differ by
    one ulp.
    """
    return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])


def build_sym_stencils(mesh):
    """Construct the symmetric-node stencil of a mesh.

    For each directed pair (i, j) the ray from node j through node i is
    intersected with the far edges of the star of i (the element edges
    opposite to i); the nearest crossing is taken, the first in element
    order on a tie.  Boundary pairs whose ray exits the domain immediately
    fall back to the one-sided rule.

    The far edges are scanned rank by rank, as the one-pair loop of the
    reference does: rank r tests the r-th far edge of every pair whose node
    has one, for all those pairs at once.

    Raises
    ------
    StencilError
        If an interior node's ray hits no far edge (degenerate geometry);
        the first such pair in pair order is named.
    """
    pts = mesh.nodes
    pair_i, pair_j = mesh.pair_i, mesh.pair_j
    npairs = pair_i.size
    d = pts[pair_i] - pts[pair_j]
    r_len = _lengths(d)
    parallel_scale = 1e-14 * np.maximum(r_len, 1.0)
    # every pair starts one-sided; the pairs whose ray hits a far edge are
    # overwritten below
    sym_nodes = np.column_stack([pair_j, pair_j])
    sym_weights = np.tile([1.0, 0.0], (npairs, 1))
    sym_points = pts[pair_j]
    r_sym_len = r_len.copy()
    one_sided = np.ones(npairs, dtype=bool)

    # far edges per node: the edge (u, v) opposite node i in each element
    # containing i, in ascending element order
    tri = mesh.elements
    apex = tri.ravel()
    order = np.argsort(apex, kind="stable")
    far_u = tri[:, [1, 2, 0]].ravel()[order]
    far_v = tri[:, [2, 0, 1]].ravel()[order]
    far_ptr = np.zeros(mesh.num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(apex, minlength=mesh.num_nodes), out=far_ptr[1:])
    far_e = pts[far_v] - pts[far_u]
    far_len = _lengths(far_e)

    # rank r holds far edge far_ptr[i] + r of every pair whose node i has
    # one; the strict "t < best_t" keeps the first edge in element order on
    # a tie
    nfar = (far_ptr[1:] - far_ptr[:-1])[pair_i]
    best_t = np.full(npairs, np.inf)
    best_f, best_s = np.zeros(npairs, dtype=np.int64), np.zeros(npairs)
    live = np.arange(npairs)
    for r in range(int(nfar.max())):
        live = live[nfar[live] > r]
        i = pair_i[live]
        f = far_ptr[i] + r
        dc, e = d[live], far_e[f]
        denom = dc[:, 0] * e[:, 1] - dc[:, 1] * e[:, 0]
        parallel = np.abs(denom) < parallel_scale[live] * far_len[f]
        denom[parallel] = 1.0
        w = pts[far_u[f]] - pts[i]
        t = (w[:, 0] * e[:, 1] - w[:, 1] * e[:, 0]) / denom
        s = (w[:, 0] * dc[:, 1] - w[:, 1] * dc[:, 0]) / denom
        hit = (~parallel & (t > 1e-12) & (t < best_t[live])
               & (s >= -1e-12) & (s <= 1.0 + 1e-12))
        q = live[hit]
        best_t[q], best_f[q], best_s[q] = t[hit], f[hit], s[hit]

    found = best_t < np.inf
    bad = np.flatnonzero(~found & ~mesh.boundary_mask[pair_i])
    if bad.size:
        p = int(bad[0])
        raise StencilError(
            f"no symmetric point for interior pair "
            f"({int(pair_i[p])}, {int(pair_j[p])})"
        )

    p = np.flatnonzero(found)
    f, s = best_f[p], best_s[p]
    s = np.where(s < 0.0, 0.0, np.where(s > 1.0, 1.0, s))
    point = pts[pair_i[p]] + best_t[p, None] * d[p]
    sym_nodes[p] = np.column_stack([far_u[f], far_v[f]])
    sym_weights[p] = np.column_stack([1.0 - s, s])
    sym_points[p] = point
    r_sym_len[p] = _lengths(point - pts[pair_i[p]])
    one_sided[p] = False

    return SymmetricStencil(
        mesh, sym_nodes, sym_weights, sym_points, r_len, r_sym_len, one_sided
    )


# the result of the strict-acuteness check of an assembled stiffness matrix
AcutenessReport = collections.namedtuple(
    "AcutenessReport", ("is_acute", "c_ang", "worst_pair"))


def check_acuteness(mesh, stiffness):
    """Check that all off-diagonal stiffness couplings are strictly negative.

    The mesh is strictly acute when (grad phi_i, grad phi_j) <= -c for every
    adjacent pair i != j; the report carries c (from the worst pair).
    """
    vals = mesh.pattern_values(stiffness)[mesh.edge_slots]
    worst = int(np.argmax(vals))
    worst_pair = (int(mesh.edge_i[worst]), int(mesh.edge_j[worst]))
    max_entry = float(vals[worst])
    return AcutenessReport(max_entry <= -ACUTENESS_TOL, -max_entry, worst_pair)
