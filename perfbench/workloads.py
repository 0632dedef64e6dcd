"""The benchmark's workloads: shipped scenarios at fixed sizes and horizons.

Each workload builds a ``pnpfem.Scenario`` from a seed.  Seed 0 is the
shipped initial data; any other seed shifts the fronts or humps by an
offset drawn from the seed and smaller than one mesh cell, so the solver
sees new but equally hard inputs and only the generated initial data.
"""

import numpy as np

from pnpfem import BoundarySpec, Scenario, SolverConfig, builtin_scenario
from pnpfem.scenarios import smooth_n0, smooth_p0, wave_n0, wave_p0

# Largest seed offset as a share of the mesh cell.  The channel fronts are
# under-resolved, so a wider shift moves them across nodes and makes the
# Picard iteration count, and with it every timing, vary more from seed to
# seed.
OFFSET_CELLS = 0.05


def seed_offset(seed, cell):
    """(dx, dy) for a seed: zero for seed 0, else within OFFSET_CELLS cells."""
    if seed == 0:
        return 0.0, 0.0
    u = np.random.default_rng(seed).uniform(-1.0, 1.0, size=2)
    dx, dy = OFFSET_CELLS * cell * u
    return float(dx), float(dy)


def _shifted(f, dx, dy):
    return lambda x, y: f(x - dx, y - dy)


def smooth_a1_n64(seed, T):
    h = 1.0 / 64
    dx, dy = seed_offset(seed, h)
    return Scenario(
        "smooth-a1-n64", ("square", 64),
        (_shifted(smooth_p0, dx, dy), _shifted(smooth_n0, dx, dy), "averaged"),
        BoundarySpec(), SolverConfig(algorithm=1, k=1e-3, T=T),
    )


def _channel(name, builtin, algorithm, p0, n0, seed, T):
    cell = 0.25
    _, dy = seed_offset(seed, cell)  # the fronts vary in y only
    sc = builtin_scenario(builtin, algorithm=algorithm)
    sc.config.T = T
    return Scenario(
        name, ("channel", cell),
        (_shifted(p0, 0.0, dy), _shifted(n0, 0.0, dy), sc.initial[2]),
        sc.bc, sc.config,
    )


def wave_a2_c025(seed, T):
    return _channel("wave-a2-c025", "channel_wave", 2, wave_p0, wave_n0,
                    seed, T)


def selective_a1_c025(seed, T):
    # both species start as the bottom front, as in the shipped scenario
    return _channel("selective-a1-c025", "channel_selective", 1, wave_n0,
                    wave_n0, seed, T)


class Workload:
    """A named scenario family with its horizon and the reason it is run.

    Horizons are short enough that several marches fit in one run, whose
    median is steadier than one long march on a shared machine, and long
    enough to hold each workload's hard steps: the 125-iteration step 10 of
    the wave, and the 3-iteration start of the smooth relaxation.  Past
    step 30 the wave's iteration count depends on the seed by several
    per cent.
    """

    def __init__(self, name, build, horizon, why):
        self.name = name
        self.build = build
        self.horizon = horizon
        self.why = why

    def scenario(self, seed, T=None):
        return self.build(seed, self.horizon if T is None else T)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "smooth-a1-n64", smooth_a1_n64, 0.05,
            "4225-node square, Alg. 1, pure Neumann: few Picard iterations, "
            "LU fill-in and per-iterate assembly carry the march; the "
            "stencil build carries set-up",
        ),
        Workload(
            "wave-a2-c025", wave_a2_c025, 0.3,
            "373-node channel, Alg. 2, phi=+-50, fronts crossing: many "
            "Picard iterations, so per-call overhead, the line search and "
            "the Alg. 2 stabilizer and transport dominate; no drift",
        ),
        Workload(
            "selective-a1-c025", selective_a1_c025, 0.5,
            "373-node channel, Alg. 1, pinned membrane cations, phi=+-1: "
            "drift assembly, the Alg. 1 stabilizer and LU share the march, "
            "through the pinned-row path",
        ),
    )
}
