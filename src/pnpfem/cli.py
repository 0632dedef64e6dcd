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
    p.add_argument("--out", dest="output_dir",
                   help="output directory (default: scenario value)")
    p.add_argument("--snapshots",
                   help="comma-separated times for VTK snapshots")
    return p


def _time(text):
    """``text`` as a float, or as given for the config check to refuse."""
    try:
        return float(text)
    except ValueError:
        return text


def _load_scenario(args):
    """The scenario of the config file, or of the built-in ``--scenario``
    names, with each given flag merged over it as the config key of the same
    meaning, on a mesh built once for the run and its snapshots."""
    if not (args.config or args.scenario):
        raise ConfigError("one of --scenario or --config is required")
    flags = {key: value for key, value in vars(args).items()
             if value is not None and key != "config"}
    if "snapshots" in flags:
        flags["snapshots"] = [_time(t) for t in flags["snapshots"].split(",")
                              if t.strip()]
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

    # (file, title, ((series label, report column), ...)) per chart
    charts = (
        ("mass.svg", "Total mass",
         (("mass p", "mass_p"), ("mass n", "mass_n"))),
        ("energy.svg", "Electrostatic energy", (("energy", "energy_es"),)),
        ("entropy.svg", "Entropy and dissipation",
         (("entropy", "entropy"), ("dissipation", "dissipation"))),
        ("extrema.svg", "Density extrema",
         (("max p", "max_p"), ("min p", "min_p"), ("max n", "max_n"),
          ("min n", "min_n"))),
    )
    ts = [r.t for r in reports]
    for name, title, series in charts:
        svgplot.write_line_chart(
            os.path.join(outdir, name), title, "t",
            [(label, ts, [getattr(r, column) for r in reports])
             for label, column in series])
    return csv_path


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        scenario = _load_scenario(args)
    except (ConfigError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    outdir = scenario.output_dir
    snapshot_steps = {scenario.config.step_of(t): t
                      for t in scenario.snapshot_times}
    mesh = scenario.make_mesh()

    def on_step(m, state):
        # the initial state has passed the checks of run
        if m == 0:
            os.makedirs(outdir, exist_ok=True)
        if m in snapshot_steps:
            name = f"snapshot_t{snapshot_steps[m]:g}.vtk"
            write_vtk_snapshot(state, mesh, os.path.join(outdir, name),
                               title=scenario.name)

    try:
        result = run(scenario, on_step=on_step)
    except (StepError, LinearSolveError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        # only an error raised by a step carries the completed steps
        partial = getattr(err, "partial", None)
        if partial is None:
            return 2 if isinstance(err, (ValueError, OSError)) else 3
        _write_outputs(outdir, partial)
        print(f"partial outputs written to {outdir}", file=sys.stderr)
        return 3

    csv_path = _write_outputs(outdir, result)
    ok = result.flags_ok()
    status = "ok" if ok else "invariant-violation"
    print(f"{scenario.name}: {len(result.all_reports()) - 1} steps, "
          f"final t={result.state.t:g}, {status}; wrote {csv_path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
