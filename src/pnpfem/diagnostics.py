"""Per-step physics diagnostics: masses, energies, entropy, dissipation.

The CSV schema written here is the package's stable external interface; one
row per step, full double precision, flags as 0/1 so rows recompute
identically after a round trip.
"""

import numpy as np

CSV_COLUMNS = (
    "t", "mass_p", "mass_n", "energy_es", "entropy", "dissipation",
    "max_p", "min_p", "max_n", "min_n", "picard_iters",
    "dmp_ok", "mass_ok", "entropy_ok", "smallness_ok",
)

_INT_COLUMNS = {"picard_iters", "dmp_ok", "mass_ok", "entropy_ok", "smallness_ok"}


class StepReport:
    """Diagnostics of one accepted time step."""

    __slots__ = CSV_COLUMNS

    def __init__(self, **kw):
        for name in CSV_COLUMNS:
            setattr(self, name, kw.pop(name))
        if kw:
            raise TypeError(f"unexpected fields: {sorted(kw)}")

    def row(self):
        return [getattr(self, name) for name in CSV_COLUMNS]

    def __repr__(self):
        body = ", ".join(f"{k}={getattr(self, k)!r}" for k in CSV_COLUMNS)
        return f"StepReport({body})"


def dot(a, b):
    """Inner product of two vectors by numpy's own reduction.

    A 1-D ``@`` goes to BLAS, whose summation order follows its thread
    count; this order does not, so the diagnostics are bit-reproducible.
    """
    return float(np.add.reduce(a * b))


def mass(x, lumped):
    """Total mass of a nodal field: sum of D_ii x_i (= its exact integral)."""
    return dot(np.asarray(lumped, dtype=float), np.asarray(x, dtype=float))


def energy_electrostatic(phi, stiffness):
    """Electrostatic energy: half the squared gradient norm of the potential."""
    phi = np.asarray(phi, dtype=float)
    return 0.5 * dot(phi, stiffness @ phi)


def entropy_Eh(p, n, phi, lumped, stiffness, fns):
    """Discrete entropy: lumped integrals of g0(p) and g0(n) plus the
    electrostatic energy.

    Raises ``ValueError`` for negative density entries, which signal a bound
    violation upstream.
    """
    p = np.asarray(p, dtype=float)
    n = np.asarray(n, dtype=float)
    if np.any(p < 0) or np.any(n < 0):
        raise ValueError("entropy requires nonnegative densities")
    d = np.asarray(lumped, dtype=float)
    return dot(d, fns.g0(p) + fns.g0(n)) + energy_electrostatic(phi, stiffness)


def dissipation_Dh(rho, phi, stiffness, mesh):
    """Edge-based entropy dissipation of one species against the potential.

    Pairs with distinct density values contribute
    -|s^{1/2} drho - s^{-1/2} dphi|^2 K_ij with s the secant slope of the
    entropy derivative; equal-value pairs contribute -rho_i (dphi)^2 K_ij.
    Nonnegative on strictly acute meshes.  Zero densities are floored at the
    smallest positive normal double so reports stay finite.
    """
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0):
        raise ValueError("dissipation requires nonnegative densities")
    phi = np.asarray(phi, dtype=float)
    ei, ej = mesh.edge_i, mesh.edge_j
    ri = np.maximum(rho[ei], np.finfo(float).tiny)
    rj = np.maximum(rho[ej], np.finfo(float).tiny)
    drho = rj - ri
    dlog = np.log(rj) - np.log(ri)
    dphi = phi[ej] - phi[ei]
    kij = mesh.pattern_values(stiffness)[mesh.edge_slots]
    # pairs whose log difference underflows behave as equal-valued pairs
    distinct = (drho != 0.0) & (dlog != 0.0)
    s = np.where(distinct, dlog, 1.0) / np.where(distinct, drho, 1.0)
    if np.any(s[distinct] <= 0):
        raise RuntimeError("nonpositive entropy secant for distinct densities")
    rs = np.sqrt(np.abs(s))
    sq = (rs * drho - dphi / rs) ** 2
    contrib = np.where(distinct, sq, ri * dphi**2)
    return -dot(contrib, kij)


def extrema(x):
    """(min, argmin, max, argmax) of a nodal field; ties take the lowest index."""
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise ValueError("extrema of an empty field")
    amin, amax = int(np.argmin(x)), int(np.argmax(x))
    return float(x[amin]), amin, float(x[amax]), amax


def _format(name, value):
    if name in _INT_COLUMNS:
        return str(int(value))
    return format(float(value), ".17g")


def write_csv(path, reports):
    """Write step reports to CSV with the mandatory header row."""
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.write(",".join(CSV_COLUMNS) + "\n")
        for rep in reports:
            f.write(",".join(_format(c, v)
                             for c, v in zip(CSV_COLUMNS, rep.row())) + "\n")


def read_csv(path):
    """Read a diagnostics CSV back into StepReport objects.

    Raises ``ValueError`` for an unexpected header and, naming its line, for
    a row whose field count differs from the header's.
    """
    with open(path, "r", encoding="ascii") as f:
        header = f.readline().strip().split(",")
        if tuple(header) != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV header {header}")
        reports = []
        for lineno, line in enumerate(f, start=2):
            if not line.strip():
                continue
            parts = line.strip().split(",")
            if len(parts) != len(CSV_COLUMNS):
                raise ValueError(f"{path}: line {lineno} has {len(parts)} "
                                 f"fields, the header {len(CSV_COLUMNS)}")
            kw = {}
            for name, raw in zip(CSV_COLUMNS, parts):
                kw[name] = int(raw) if name in _INT_COLUMNS else float(raw)
            reports.append(StepReport(**kw))
    return reports
