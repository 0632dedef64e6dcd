"""Stabilized P1 finite element solvers for Poisson-Nernst-Planck systems.

Two implicit Euler discretizations of the coupled ion-transport/potential
system, both stabilized by a nodal shock detector driving a graph-Laplacian
artificial diffusion operator.  The first preserves the discrete maximum and
minimum principles and total ion masses; the second additionally satisfies a
discrete entropy law on strictly acute meshes.
"""

from .mesh import (
    Mesh,
    StencilError,
    SymmetricStencil,
    build_channel,
    build_equilateral_strip,
    build_sym_stencils,
    build_unit_square,
    check_acuteness,
)
from .fespace import (
    assemble_drift,
    assemble_mass,
    assemble_stiffness,
    averaged_interpolate,
    lumped_mass_vector,
    nodal_interpolate,
)
from .detector import compute_alpha
from .stabilizer import (
    EntropyFunctions,
    StabilizerMatrix,
    build_stabilizer_alg1,
    build_stabilizer_alg2,
    entropy_functions,
    star_transport,
    star_transport_vector,
)
from .solver import (
    Assemblies,
    BoundarySpec,
    ElectroneutralityError,
    LinearSolveError,
    PoissonSolver,
    RunResult,
    SolverConfig,
    State,
    StepError,
    picard_step_alg1,
    picard_step_alg2,
    run,
)
from .diagnostics import (
    StepReport,
    dissipation_Dh,
    energy_electrostatic,
    entropy_Eh,
    extrema,
    mass,
)
from .scenarios import Scenario, builtin_scenario, parse_config
from .vtk_io import write_vtk_mesh, write_vtk_snapshot

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
