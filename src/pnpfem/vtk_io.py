"""Legacy ASCII VTK output for meshes and solution snapshots."""

_HEADER = "# vtk DataFile Version 3.0"


def _write_grid(f, mesh, title):
    f.write(f"{_HEADER}\n{title}\nASCII\nDATASET UNSTRUCTURED_GRID\n")
    f.write(f"POINTS {mesh.num_nodes} double\n")
    for x, y in mesh.nodes:
        f.write(f"{x:.17g} {y:.17g} 0\n")
    m = mesh.num_elements
    f.write(f"CELLS {m} {4 * m}\n")
    for a, b, c in mesh.elements:
        f.write(f"3 {a} {b} {c}\n")
    f.write(f"CELL_TYPES {m}\n")
    f.write("5\n" * m)


def write_vtk_mesh(mesh, path, title="mesh"):
    """Write a mesh as a legacy ASCII unstructured grid (triangle cells)."""
    with open(path, "w", encoding="ascii", newline="\n") as f:
        _write_grid(f, mesh, title)


def write_vtk_snapshot(state, mesh, path, title="snapshot"):
    """Write a solution snapshot with point scalars p, n and phi."""
    for name in ("p", "n", "phi"):
        field = getattr(state, name)
        if len(field) != mesh.num_nodes:
            raise ValueError(f"field {name} does not match the mesh")
    with open(path, "w", encoding="ascii", newline="\n") as f:
        _write_grid(f, mesh, f"{title} t={state.t:.17g}")
        f.write(f"POINT_DATA {mesh.num_nodes}\n")
        for name in ("p", "n", "phi"):
            f.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            for v in getattr(state, name):
                f.write(f"{v:.17g}\n")
