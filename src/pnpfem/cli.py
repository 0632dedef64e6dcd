"""Command-line front end: run a scenario and write CSV/VTK/SVG outputs."""

import argparse
import os
import sys

from . import diagnostics, svgplot
from .scenarios import (
    BUILTIN_NAMES,
    ConfigError,
    read_config,
    scenario_from_config,
)
from .solver import LinearSolveError, StepError, run
from .vtk_io import write_vtk_snapshot


def build_parser():
    p = argparse.ArgumentParser(
        prog="pnpfem",
        description="Run a stabilized ion-transport scenario and write "
        "diagnostics (CSV), snapshots (VTK) and charts (SVG).",
    )
    p.add_argument("--scenario", choices=BUILTIN_NAMES,
                   help="built-in scenario name")
    p.add_argument("--config", help="JSON config file (overrides a built-in)")
    p.add_argument("--algorithm", type=int, choices=(1, 2),
                   help="stabilization scheme")
    p.add_argument("--k", type=float, help="time step")
    p.add_argument("--T", type=float, help="final time")
    p.add_argument("--q", type=float, help="shock detector exponent")
    p.add_argument("--out", help="output directory (default: scenario value)")
    p.add_argument("--snapshots",
                   help="comma-separated times for VTK snapshots")
    p.add_argument("--no-strict", action="store_true",
                   help="exit 0 even when an in-force invariant flag fails")
    return p


def _load_scenario(args):
    """The scenario of the config file, or of the built-in ``--scenario``
    names, with each given flag merged over it as the config key of the same
    meaning, on a mesh built once for the run and its snapshots."""
    if not (args.config or args.scenario):
        raise ConfigError("one of --scenario or --config is required")
    flags = {"scenario": args.scenario, "algorithm": args.algorithm,
             "k": args.k, "T": args.T, "q": args.q, "output_dir": args.out}
    if args.snapshots is not None:
        flags["snapshots"] = [float(t) for t in args.snapshots.split(",")
                              if t.strip()]
    flags = {key: value for key, value in flags.items() if value is not None}
    raw = read_config(args.config) if args.config else {}
    source = (f"{args.config} with flags" if args.config and flags
              else args.config or "flags")
    scenario = scenario_from_config({**raw, **flags}, source)
    scenario.mesh_spec = ("mesh", scenario.make_mesh())
    return scenario


def _write_outputs(outdir, result):
    reports = result.all_reports()
    csv_path = os.path.join(outdir, "diagnostics.csv")
    diagnostics.write_csv(csv_path, reports)

    ts = [r.t for r in reports]
    svgplot.write_line_chart(
        os.path.join(outdir, "mass.svg"), "Total mass", "t",
        [("mass p", ts, [r.mass_p for r in reports]),
         ("mass n", ts, [r.mass_n for r in reports])],
    )
    svgplot.write_line_chart(
        os.path.join(outdir, "energy.svg"), "Electrostatic energy", "t",
        [("energy", ts, [r.energy_es for r in reports])],
    )
    svgplot.write_line_chart(
        os.path.join(outdir, "entropy.svg"), "Entropy and dissipation", "t",
        [("entropy", ts, [r.entropy for r in reports]),
         ("dissipation", ts, [r.dissipation for r in reports])],
    )
    svgplot.write_line_chart(
        os.path.join(outdir, "extrema.svg"), "Density extrema", "t",
        [("max p", ts, [r.max_p for r in reports]),
         ("min p", ts, [r.min_p for r in reports]),
         ("max n", ts, [r.max_n for r in reports]),
         ("min n", ts, [r.min_n for r in reports])],
    )
    return csv_path


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        scenario = _load_scenario(args)
    except (ConfigError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    outdir = scenario.output_dir
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    k = scenario.config.k
    snapshot_steps = {int(round(t / k)): t for t in scenario.snapshot_times}
    mesh = scenario.make_mesh()

    def on_step(m, state):
        if m in snapshot_steps:
            name = f"snapshot_t{snapshot_steps[m]:g}.vtk"
            write_vtk_snapshot(state, mesh, os.path.join(outdir, name),
                               title=scenario.name)

    try:
        result = run(scenario, on_step=on_step)
    except (StepError, LinearSolveError) as err:
        print(f"error: {err}", file=sys.stderr)
        partial = getattr(err, "partial", None)
        if partial is not None:
            _write_outputs(outdir, partial)
            print(f"partial outputs written to {outdir}", file=sys.stderr)
        return 3
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    csv_path = _write_outputs(outdir, result)
    ok = result.flags_ok()
    status = "ok" if ok else "invariant-violation"
    stagnated = len(result.stagnated_steps)
    print(f"{scenario.name}: {len(result.all_reports()) - 1} steps"
          + (f" ({stagnated} stagnated)" if stagnated else "")
          + f", final t={result.state.t:g}, {status}; wrote {csv_path}")
    if not ok and not args.no_strict:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
