"""Shock detector: per-node extremum indicator in [0, 1].

The detector compares, over all neighbors j of node i, directional slopes
taken through j and through the symmetric point of j on the star boundary.
At a strict local extremum every slope pair has one sign, the ratio of jump
to mean magnitudes is exactly one and the detector saturates at 1; smooth
data make the jumps cancel and drive it to 0.
"""

import numpy as np

from .mesh import _real

DENOMINATOR_TOL = 1e-14


def compute_alpha(x, q, mesh, stencil):
    """Detector values for a nodal field.

    alpha_i = [ |sum_j jump_ij| / sum_j 2 mean_ij ]^q when the denominator
    exceeds an absolute tolerance, else 0; the ratio is clamped to [0, 1]
    before exponentiation to absorb roundoff.  Both slopes of a pair come
    from the pairs' differences x_j - x_i, through ``stencil.sym_map``
    (built once per stencil), so a constant field gives exact zeros.

    Parameters
    ----------
    x : (N,) array
        Nodal field.
    q : float
        Positive exponent (2 in all shipped scenarios).

    Returns
    -------
    (N,) array of values in [0, 1].
    """
    q = _real("q", q)
    # per directed pair (i, j), the slopes s1 = (x_j - x_i)/r through j and
    # s2 = (x_sym - x_i)/r_sym through its symmetric point: jump_ij = s1 + s2
    # and 2 mean_ij = |s1| + |s2|
    x = np.asarray(x, dtype=float)
    d = x[mesh.pair_j] - x[mesh.pair_i]
    s1 = d / stencil.r_len
    s2 = (stencil.sym_map @ d) / stencil.r_sym_len
    jumps = s1 + s2
    two_means = np.abs(s1) + np.abs(s2)
    ptr = mesh.pair_ptr
    num = np.abs(np.add.reduceat(jumps, ptr[:-1]))
    den = np.add.reduceat(two_means, ptr[:-1])
    alpha = np.zeros(mesh.num_nodes)
    ok = den > DENOMINATOR_TOL
    ratio = np.clip(num[ok] / den[ok], 0.0, 1.0)
    alpha[ok] = ratio**q
    return alpha
