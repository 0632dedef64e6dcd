import functools
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from pnpfem import (
    SymmetricStencil,
    assemble_mass,
    assemble_stiffness,
    build_sym_stencils,
    build_unit_square,
    lumped_mass_vector,
    Mesh,
)


@pytest.fixture(scope="session")
def square4():
    return build_unit_square(4)


@pytest.fixture(scope="session")
def square8():
    return build_unit_square(8)


@pytest.fixture(scope="session")
def square8_stencil(square8):
    return build_sym_stencils(square8)


@pytest.fixture(scope="session")
def two_elem_mesh():
    """Unit square split into two triangles along the SW-NE diagonal."""
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    elements = np.array([[0, 1, 2], [0, 2, 3]])
    return Mesh(nodes, elements)


@pytest.fixture(scope="session")
def square8_ops(square8):
    return {
        "mass": assemble_mass(square8),
        "stiffness": assemble_stiffness(square8),
        "lumped": lumped_mass_vector(square8),
    }


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture()
def map_builds(monkeypatch):
    """Counts of the builds of the run-constant maps ``Mesh.drift_map`` and
    ``SymmetricStencil.sym_map`` from here on, by name; objects that built
    theirs before keep them."""
    counts = {"drift_map": 0, "sym_map": 0}

    def counted(cls, name):
        build = getattr(cls, name).func

        def wrapper(self):
            counts[name] += 1
            return build(self)
        prop = functools.cached_property(wrapper)
        prop.__set_name__(cls, name)
        monkeypatch.setattr(cls, name, prop)

    counted(Mesh, "drift_map")
    counted(SymmetricStencil, "sym_map")
    return counts
