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

import ast
import json
import os

import numpy as np

from . import mesh as meshmod
from .fespace import averaged_interpolate, nodal_interpolate
from .mesh import _whole
from .solver import BoundarySpec, SolverConfig, _real

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


def _fits(t, config):
    """True when t lies in [0, T] and is a whole number of time steps k, to
    1e-9 relative."""
    m = t / config.k
    return 0 <= t <= config.T and abs(m - round(m)) <= 1e-9 * max(m, 1.0)


class Scenario:
    """A full problem description consumed by ``solver.run``.

    The constructor checks each value it stores, and names it by its config
    key: ``mesh_spec`` is ``("square", n)`` for a whole ``mesh.n >= 2``,
    ``("channel", cell)`` for a positive ``mesh.cell``, or ``("mesh",
    Mesh)``; ``initial`` is ``(p0, n0, mode)`` with ``initial.mode`` nodal
    or averaged; the snapshot times lie in [0, T] on the step grid.
    """

    def __init__(self, name, mesh_spec, initial, bc, config,
                 output_dir="out", snapshot_times=()):
        kind, arg = mesh_spec
        if kind == "square":
            mesh_spec = (kind, _whole("mesh.n", arg, minimum=2))
        elif kind == "channel":
            mesh_spec = (kind, _real("mesh.cell", arg))
        elif not (kind == "mesh" and isinstance(arg, meshmod.Mesh)):
            raise ValueError(f"unknown mesh spec {mesh_spec!r}")
        if initial[2] not in ("nodal", "averaged"):
            raise ValueError(f"'initial.mode' must be 'nodal' or 'averaged', "
                             f"got {initial[2]!r}")
        if not isinstance(output_dir, (str, os.PathLike)) or not output_dir:
            raise ValueError(f"'output_dir' must be a nonempty path, got "
                             f"{output_dir!r}")
        if not isinstance(snapshot_times, (list, tuple)):
            raise ValueError(f"'snapshots' must be a list of times, got "
                             f"{snapshot_times!r}")
        self.name = name
        self.mesh_spec = mesh_spec
        self.initial = initial
        self.bc = bc
        self.config = config
        self.output_dir = output_dir
        self.snapshot_times = tuple(_real("snapshots", t, "real")
                                    for t in snapshot_times)
        bad = [t for t in self.snapshot_times if not _fits(t, config)]
        if bad:
            raise ValueError(f"snapshot times {bad} must lie in [0, "
                             f"T={config.T}] on the grid of time steps "
                             f"k={config.k}")

    def make_mesh(self):
        kind, arg = self.mesh_spec
        if kind == "square":
            return meshmod.build_unit_square(arg)
        if kind == "channel":
            return meshmod.build_channel(arg)
        return arg

    def initial_fields(self, mesh):
        p0_fn, n0_fn, mode = self.initial
        interpolate = (averaged_interpolate if mode == "averaged"
                       else nodal_interpolate)
        return interpolate(p0_fn, mesh), interpolate(n0_fn, mesh)


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
    "output_dir", "snapshots", "picard_residual_tol", "picard_max_iters",
}
_MESH_KEYS = {"n", "cell"}
_INITIAL_KEYS = {"p0", "n0", "mode"}
_BC_KEYS = {"phi_dirichlet", "p_dirichlet"}


def _compile_expression(expr, key):
    """A function of (x, y) that evaluates the config expression ``expr``.

    Raises ``ValueError`` naming ``key`` if ``expr`` does not parse, if it
    reads a name outside ``_EXPR_NAMESPACE``, x and y that it does not bind
    itself (in a comprehension or a lambda), or if it uses attribute access,
    which reaches past the namespace (``x.__class__``).
    """
    try:
        tree = ast.parse(expr, f"<config:{key}>", "eval")
    except (SyntaxError, TypeError) as err:
        raise ValueError(f"{key!r} must be an expression in x and y, got "
                         f"{expr!r}") from err
    nodes = list(ast.walk(tree))
    bound = {node.id for node in nodes if isinstance(node, ast.Name)
             and not isinstance(node.ctx, ast.Load)}
    bound |= {node.arg for node in nodes if isinstance(node, ast.arg)}
    unknown = {node.id for node in nodes if isinstance(node, ast.Name)
               } - bound - set(_EXPR_NAMESPACE) - {"x", "y"}
    if unknown:
        raise ValueError(f"{key!r} uses unknown names {sorted(unknown)}; "
                         f"it may use x, y and {sorted(_EXPR_NAMESPACE)}")
    if any(isinstance(node, ast.Attribute) for node in nodes):
        raise ValueError(f"{key!r} may not use attribute access, got "
                         f"{expr!r}")
    code = compile(tree, f"<config:{key}>", "eval")

    def fn(x, y):
        out = eval(code, {"__builtins__": {}},
                   {**_EXPR_NAMESPACE, "x": x, "y": y})
        return np.broadcast_to(np.asarray(out, dtype=float), np.shape(x))

    return fn


def _section(value, allowed, where, source):
    """``value`` once it is checked to be an object with no key outside
    ``allowed``; ``where`` names it in the ``ConfigError``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{source}: {where} must be an object")
    unknown = set(value) - allowed
    if unknown:
        raise ConfigError(f"{source}: unknown keys under {where}: "
                          f"{sorted(unknown)}")
    return value


def scenario_from_config(raw, source):
    """The scenario that a dict of config keys describes: the built-in that
    ``scenario`` names (``smooth`` if none), with each given key overriding
    its value.  Built-in snapshot times are kept where they fit the final
    ``T`` and ``k``; given ones are checked.

    The constructors validate the values; their errors, and unknown keys,
    raise ``ConfigError`` naming ``source`` and the key.  Initial data may
    be replaced by expressions in x and y.
    """
    _section(raw, _CONFIG_KEYS, "the top level", source)
    mesh = _section(raw.get("mesh", {}), _MESH_KEYS, "'mesh'", source)
    if len(mesh) > 1:
        raise ConfigError(f"{source}: give one of 'mesh.n' (square) and "
                          f"'mesh.cell' (channel), not both")
    ini = _section(raw.get("initial", {}), _INITIAL_KEYS, "'initial'", source)
    b = _section(raw.get("bc", {}), _BC_KEYS, "'bc'", source)
    try:
        base = builtin_scenario(raw.get("scenario", "smooth"))
        config = SolverConfig(**{key: raw.get(key, value)
                                 for key, value in vars(base.config).items()})
        p0, n0, mode = base.initial
        return Scenario(
            base.name,
            ("square", mesh["n"]) if "n" in mesh
            else ("channel", mesh["cell"]) if "cell" in mesh
            else base.mesh_spec,
            (_compile_expression(ini["p0"], "initial.p0") if "p0" in ini
             else p0,
             _compile_expression(ini["n0"], "initial.n0") if "n0" in ini
             else n0,
             ini.get("mode", mode)),
            BoundarySpec(b.get("phi_dirichlet", base.bc.phi_dirichlet),
                         b.get("p_dirichlet", base.bc.p_dirichlet)),
            config,
            output_dir=raw.get("output_dir", base.output_dir),
            snapshot_times=raw.get("snapshots", [
                t for t in base.snapshot_times if _fits(t, config)]),
        )
    except ValueError as err:
        raise ConfigError(f"{source}: {err}") from err


def read_config(path):
    """The config dict of a JSON file, its keys checked but not its values."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            raw = json.load(f)
        except json.JSONDecodeError as err:
            raise ConfigError(f"{path}: invalid JSON at line {err.lineno}: "
                              f"{err.msg}") from err
    return _section(raw, _CONFIG_KEYS, "the top level", path)


def parse_config(path):
    """The scenario of a JSON config file; see ``scenario_from_config``."""
    return scenario_from_config(read_config(path), path)
