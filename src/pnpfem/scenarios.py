"""Scenario definitions: meshes, initial data, boundary data, run parameters.

Four built-in experiments are shipped:

- ``smooth``: unit square, two positive-ion humps against one negative-ion
  hump, isolated (pure Neumann), relaxation toward equilibrium;
- ``channel_uniform``: I-shaped channel, uniformly distributed ions driven by
  a +-50 potential drop between the top and bottom walls;
- ``channel_wave``: the same channel with the ions initially stacked against
  opposite walls, producing two crossing waves;
- ``channel_selective``: the wave data with the cation density pinned to 1 on
  the membrane walls and a +-1 potential drop.

Configs are JSON; any file key overrides the named built-in's value.
"""

import json
import math

import numpy as np

from . import mesh as meshmod
from .fespace import averaged_interpolate, nodal_interpolate
from .solver import BoundarySpec, SolverConfig

BUILTIN_NAMES = ("smooth", "channel_uniform", "channel_wave", "channel_selective")

_EXPR_NAMESPACE = {
    name: getattr(np, name)
    for name in (
        "tanh", "exp", "sqrt", "sin", "cos", "log", "abs", "minimum", "maximum",
        "pi", "where",
    )
}


def smooth_p0(x, y):
    """Two positive-ion humps of heights about 1 and 3 on a zero background."""
    r1 = np.sqrt((x + 0.25) ** 2 + y**2)
    r2 = np.sqrt((x - 0.25) ** 2 + y**2)
    return (
        0.5 * np.tanh((1.0 - 10.0 * r1) / 0.1)
        + 1.5 * np.tanh((1.0 - 10.0 * r2) / 0.1)
        + 2.0
    )


def smooth_n0(x, y):
    """One negative-ion hump of height about 4 at the origin."""
    r = np.sqrt(x**2 + y**2)
    return 2.0 * (np.tanh((1.0 - 10.0 * r) / 0.1) + 1.0)


def wave_p0(x, y):
    """Cation front stacked against the top wall of the channel."""
    return np.tanh(10.0 * y - 6.2) + 1.0


def wave_n0(x, y):
    """Anion front stacked against the bottom wall of the channel."""
    return -np.tanh(10.0 * y - 0.8) + 1.0


def _on_step_grid(t, k):
    """True when t is a whole number of time steps k, to 1e-9 relative."""
    m = t / k
    return abs(m - round(m)) <= 1e-9 * max(m, 1.0)


def fitting_snapshots(times, config):
    """The snapshot times inside the horizon and on the step grid of a
    config: built-in defaults shrink with an overridden T or k."""
    return tuple(t for t in times
                 if t <= config.T and _on_step_grid(t, config.k))


class Scenario:
    """A full problem description consumed by ``solver.run``."""

    def __init__(self, name, mesh_spec, initial, bc, config,
                 output_dir="out", snapshot_times=()):
        self.name = name
        # ("square", n) | ("channel", cell) | ("mesh", prebuilt Mesh)
        self.mesh_spec = mesh_spec
        self.initial = initial              # (p0, n0, mode), mode nodal|averaged
        self.bc = bc
        self.config = config
        self.output_dir = output_dir
        self.snapshot_times = tuple(float(t) for t in snapshot_times)
        bad = [t for t in self.snapshot_times if not 0.0 <= t <= config.T]
        if bad:
            raise ValueError(f"snapshot times {bad} outside [0, T={config.T}]")
        bad = [t for t in self.snapshot_times
               if not _on_step_grid(t, config.k)]
        if bad:
            raise ValueError(f"snapshot times {bad} are not whole numbers of "
                             f"time steps k={config.k}")

    def make_mesh(self):
        kind, arg = self.mesh_spec
        if kind == "square":
            return meshmod.build_unit_square(int(arg))
        if kind == "channel":
            return meshmod.build_channel(float(arg))
        if kind == "mesh":
            return arg
        raise ValueError(f"unknown mesh spec {kind!r}")

    def initial_fields(self, mesh):
        p0_fn, n0_fn, mode = self.initial
        if mode == "averaged":
            return averaged_interpolate(p0_fn, mesh), averaged_interpolate(n0_fn, mesh)
        if mode == "nodal":
            return nodal_interpolate(p0_fn, mesh), nodal_interpolate(n0_fn, mesh)
        raise ValueError(f"unknown interpolation mode {mode!r}")


def builtin_scenario(name, algorithm=1):
    """A shipped experiment with its reference parameters.

    Raises ``ValueError`` for unknown names.
    """
    if name == "smooth":
        return Scenario(
            name,
            ("square", 40),
            (smooth_p0, smooth_n0, "averaged"),
            BoundarySpec(),
            SolverConfig(algorithm=algorithm, k=1e-3, T=0.5),
            snapshot_times=(0.01, 0.02, 0.04, 0.1, 0.2, 0.5),
        )
    if name == "channel_uniform":
        return Scenario(
            name,
            ("channel", 0.1),
            (lambda x, y: np.ones_like(x), lambda x, y: np.ones_like(x), "nodal"),
            BoundarySpec(phi_dirichlet={meshmod.BOTTOM: -50.0, meshmod.TOP: 50.0}),
            SolverConfig(algorithm=algorithm, k=1e-2, T=1.0),
            snapshot_times=(0.01, 0.05, 0.1, 1.0),
        )
    if name == "channel_wave":
        return Scenario(
            name,
            ("channel", 0.1),
            (wave_p0, wave_n0, "nodal"),
            BoundarySpec(phi_dirichlet={meshmod.BOTTOM: -50.0, meshmod.TOP: 50.0}),
            SolverConfig(algorithm=algorithm, k=1e-2, T=1.0),
            snapshot_times=(0.1, 0.2, 0.35, 1.0),
        )
    if name == "channel_selective":
        # both species start as the bottom front: the anion wave then climbs
        # the channel while the membrane feeds cations into it, so the cation
        # mass grows from the first step on
        return Scenario(
            name,
            ("channel", 0.1),
            (wave_n0, wave_n0, "nodal"),
            BoundarySpec(
                phi_dirichlet={meshmod.BOTTOM: -1.0, meshmod.TOP: 1.0},
                p_dirichlet={meshmod.MEMBRANE: 1.0},
            ),
            SolverConfig(algorithm=algorithm, k=1e-2, T=10.0),
            snapshot_times=(1.0, 2.0, 5.0, 10.0),
        )
    raise ValueError(f"unknown scenario {name!r}; choose from {BUILTIN_NAMES}")


class ConfigError(ValueError):
    """A scenario config failed validation; the message names the key."""


_CONFIG_KEYS = {
    "scenario", "algorithm", "k", "T", "q", "mesh", "initial", "bc",
    "output_dir", "snapshots", "picard_residual_tol", "picard_increment_tol",
    "picard_max_iters", "linear_tol",
}
_MESH_KEYS = {"n", "cell"}
_INITIAL_KEYS = {"p0", "n0", "mode"}
_BC_KEYS = {"phi_dirichlet", "p_dirichlet"}


def _compile_expression(expr, key):
    code = compile(expr, f"<config:{key}>", "eval")

    def fn(x, y):
        ns = dict(_EXPR_NAMESPACE)
        ns.update(x=x, y=y)
        out = eval(code, {"__builtins__": {}}, ns)
        return np.broadcast_to(np.asarray(out, dtype=float), np.shape(x))

    return fn


def parse_config(path):
    """Load a JSON scenario config, starting from a built-in and overriding.

    Unknown keys are rejected with their key path; all solver fields are
    defaultable.  Initial data may be replaced by expressions in x and y.
    """
    with open(path, "r", encoding="utf-8") as f:
        try:
            raw = json.load(f)
        except json.JSONDecodeError as err:
            raise ConfigError(f"{path}: invalid JSON at line {err.lineno}: "
                              f"{err.msg}") from err
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")

    name = raw.get("scenario", "smooth")
    algorithm = int(raw.get("algorithm", 1))
    scenario = builtin_scenario(name, algorithm)

    def positive(key, value, zero_ok=False):
        if not (isinstance(value, (int, float)) and math.isfinite(value)
                and (value > 0 or zero_ok and value == 0)):
            kind = "nonnegative" if zero_ok else "positive"
            raise ConfigError(f"{path}: key {key!r} must be a {kind} number, "
                              f"got {value!r}")
        return float(value)

    overrides = {key: positive(key, raw[key], zero_ok=key == "T")
                 for key in ("k", "T", "q", "picard_residual_tol",
                             "picard_increment_tol", "linear_tol")
                 if key in raw}
    if "picard_max_iters" in raw:
        overrides["picard_max_iters"] = int(positive("picard_max_iters",
                                                     raw["picard_max_iters"]))
    try:
        cfg = SolverConfig(**{**vars(scenario.config), **overrides})
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from err

    mesh_spec = scenario.mesh_spec
    if "mesh" in raw:
        m = raw["mesh"]
        unknown = set(m) - _MESH_KEYS
        if unknown:
            raise ConfigError(f"{path}: unknown keys under 'mesh': "
                              f"{sorted(unknown)}")
        if "n" in m:
            mesh_spec = ("square", int(positive("mesh.n", m["n"])))
        if "cell" in m:
            mesh_spec = ("channel", positive("mesh.cell", m["cell"]))

    initial = scenario.initial
    if "initial" in raw:
        ini = raw["initial"]
        unknown = set(ini) - _INITIAL_KEYS
        if unknown:
            raise ConfigError(f"{path}: unknown keys under 'initial': "
                              f"{sorted(unknown)}")
        p0 = (_compile_expression(ini["p0"], "initial.p0")
              if "p0" in ini else initial[0])
        n0 = (_compile_expression(ini["n0"], "initial.n0")
              if "n0" in ini else initial[1])
        mode = ini.get("mode", initial[2])
        if mode not in ("nodal", "averaged"):
            raise ConfigError(f"{path}: key 'initial.mode' must be 'nodal' or "
                              f"'averaged', got {mode!r}")
        initial = (p0, n0, mode)

    bc = scenario.bc
    if "bc" in raw:
        b = raw["bc"]
        unknown = set(b) - _BC_KEYS
        if unknown:
            raise ConfigError(f"{path}: unknown keys under 'bc': "
                              f"{sorted(unknown)}")
        bc = BoundarySpec(
            phi_dirichlet=b.get("phi_dirichlet", bc.phi_dirichlet),
            p_dirichlet=b.get("p_dirichlet", bc.p_dirichlet),
        )

    return Scenario(
        name, mesh_spec, initial, bc, cfg,
        output_dir=raw.get("output_dir", scenario.output_dir),
        snapshot_times=raw.get(
            "snapshots", fitting_snapshots(scenario.snapshot_times, cfg)),
    )
