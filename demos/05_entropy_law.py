"""The discrete entropy law on a strictly acute mesh.

The entropy-consistent scheme (algorithm 2) guarantees a nonincreasing
discrete entropy when every stiffness coupling is strictly negative.  The
sheared-rectangle mesh of exactly equilateral triangles satisfies that
condition; this script verifies it and tracks the entropy decay.  It ends
with the invariant flags in force and how many reports fail each: the
discrete maximum principle (``dmp_ok``) fails on some of them, by less than
1e-4, which the ROADMAP lists as open.
"""

import numpy as np

from pnpfem import (
    BoundarySpec,
    Scenario,
    SolverConfig,
    assemble_stiffness,
    build_equilateral_strip,
    check_acuteness,
    run,
)

mesh = build_equilateral_strip(8, 8, side=0.125)
report = check_acuteness(mesh, assemble_stiffness(mesh))
print(f"mesh: {mesh.num_nodes} nodes, strictly acute: {report.is_acute}, "
      f"worst coupling margin {report.c_ang:.4f}")

cx, cy = mesh.nodes.mean(axis=0)
p0 = lambda x, y: 2.0 + 1.5 * np.exp(-60 * ((x - cx - 0.25)**2 + (y - cy)**2))
n0 = lambda x, y: 2.0 + 1.5 * np.exp(-60 * ((x - cx + 0.25)**2 + (y - cy)**2))

scenario = Scenario(
    "entropy-demo", ("mesh", mesh), (p0, n0, "averaged"),
    BoundarySpec(), SolverConfig(algorithm=2, k=1e-3, T=0.1),
)
result = run(scenario)

entropies = [result.initial_report.entropy] + \
    [r.entropy for r in result.reports]
diffs = np.diff(entropies)
print(f"{len(result.reports)} steps: entropy {entropies[0]:.6f} -> "
      f"{entropies[-1]:.6f}")
print(f"largest per-step increase: {diffs.max():.2e} (law allows none)")
print(f"dissipation stays nonnegative: "
      f"{all(r.dissipation >= -1e-10 for r in result.reports)}")

mark = len(entropies) // 5
for m in range(0, len(entropies), mark):
    bar = "#" * int(50 * (entropies[m] - entropies[-1])
                    / (entropies[0] - entropies[-1] + 1e-30))
    print(f"  t={m * scenario.config.k:5.3f}  E={entropies[m]:.6f} {bar}")

# the invariant flags that the scheme's theory puts in force for this run
reports = result.all_reports()
print(f"in-force flags hold on every report: {result.flags_ok()}")
for name, active in result.in_force.items():
    if active:
        failed = sum(not getattr(r, name) for r in reports)
        print(f"  {name}: fails on {failed} of {len(reports)} reports")
lo, hi = result.bounds
low = min(min(r.min_p, r.min_n) for r in reports)
print(f"  lowest density {low:.6f}, {lo - low:.1e} below the initial "
      f"minimum {lo:.6f}")
