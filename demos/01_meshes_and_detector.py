"""Meshes, symmetric-node stencils, and the shock detector.

Walks through the three mesh builders, shows what the symmetric-node
stencil stores, and demonstrates how the detector responds to smooth
fields versus planted extrema.
"""

import numpy as np

from pnpfem import (
    build_channel,
    build_equilateral_strip,
    build_sym_stencils,
    build_unit_square,
    check_acuteness,
    assemble_stiffness,
    compute_alpha,
    write_vtk_mesh,
)

# ---------------------------------------------------------------- meshes
square = build_unit_square(8)
print(f"unit square: {square.num_nodes} nodes, {square.num_elements} "
      f"triangles, h = {square.h:.4f}, area = {square.total_area():.3f}")

channel = build_channel(0.25)
print(f"channel:     {channel.num_nodes} nodes, area = "
      f"{channel.total_area():.1f} (reservoirs + channel)")
for tag in ("bottom", "top", "membrane"):
    print(f"  {tag:9s} nodes: {len(channel.nodes_with_tag(tag))}")

strip = build_equilateral_strip(6, 4, side=0.25)
report = check_acuteness(strip, assemble_stiffness(strip))
print(f"equilateral strip acute: {report.is_acute}, margin "
      f"c_ang = {report.c_ang:.4f}")
print(f"structured square acute: "
      f"{check_acuteness(square, assemble_stiffness(square)).is_acute} "
      f"(right angles give zero couplings)")

write_vtk_mesh(channel, "channel_mesh.vtk")
print("wrote channel_mesh.vtk")

# --------------------------------------------------------------- stencil
stencil = build_sym_stencils(square)
i = 4 * 9 + 4                      # center node
j = 5 * 9 + 4                      # +x neighbor
p = int(np.flatnonzero((square.pair_i == i) & (square.pair_j == j))[0])
print(f"\npair ({i}, {j}): symmetric point {stencil.sym_points[p]}, "
      f"endpoint nodes {stencil.sym_nodes[p]}, weights "
      f"{stencil.sym_weights[p]}")

# -------------------------------------------------------------- detector
x = square.nodes[:, 0].copy()      # linear field: transparent to detector
alpha = compute_alpha(x, 2.0, square, stencil)
print(f"\nlinear field: max interior alpha = "
      f"{alpha[~square.boundary_mask].max():.1e}")

x = np.ones(square.num_nodes)
x[i] = 2.0                         # strict extremum: saturates exactly
alpha = compute_alpha(x, 2.0, square, stencil)
print(f"planted spike: alpha at the spike = {alpha[i]} (exactly 1)")

rng = np.random.default_rng(7)
alpha = compute_alpha(rng.normal(size=square.num_nodes), 2.0, square, stencil)
print(f"random noise:  alpha range [{alpha.min():.3f}, {alpha.max():.3f}], "
      f"{np.count_nonzero(alpha > 0.99)} saturated nodes")
