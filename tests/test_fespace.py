import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pnpfem import (
    Mesh,
    assemble_drift,
    assemble_mass,
    assemble_stiffness,
    averaged_interpolate,
    build_channel,
    build_sym_stencils,
    build_unit_square,
    lumped_mass_vector,
    nodal_interpolate,
)
from pnpfem.fespace import designated_elements
from pnpfem.scenarios import smooth_n0, smooth_p0

import oracles


@pytest.fixture(scope="module")
def single_triangle():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return Mesh(nodes, np.array([[0, 1, 2]]))


class TestMass:
    def test_single_triangle_exact_entries(self, single_triangle):
        # area 1/2: diagonal A/6 = 1/12, off-diagonal A/12 = 1/24
        M = assemble_mass(single_triangle).toarray()
        assert M == pytest.approx(
            np.full((3, 3), 1 / 24) + np.eye(3) / 24, abs=1e-15
        )

    def test_row_sums_give_area(self, square8, square8_ops):
        M = square8_ops["mass"]
        assert M.sum() == pytest.approx(1.0, abs=1e-13)
        assert np.asarray(M.sum(axis=1)).ravel() == pytest.approx(
            lumped_mass_vector(square8), abs=1e-15
        )

    def test_symmetric(self, square8_ops):
        M = square8_ops["mass"]
        assert abs(M - M.T).max() < 1e-14

    def test_matches_quadrature_oracle(self, two_elem_mesh, square4):
        for mesh in (two_elem_mesh, square4):
            M = assemble_mass(mesh).toarray()
            assert np.abs(M - oracles.quad_mass(mesh)).max() < 1e-13

    def test_matvec_against_oracle(self, square4, rng):
        M = assemble_mass(square4)
        Mq = oracles.quad_mass(square4)
        x = rng.normal(size=square4.num_nodes)
        assert M @ x == pytest.approx(Mq @ x, abs=1e-13)


class TestLumpedMass:
    def test_trace_is_area(self, square8):
        assert lumped_mass_vector(square8).sum() == pytest.approx(1.0,
                                                                  abs=1e-13)

    def test_positive(self, square8):
        assert np.all(lumped_mass_vector(square8) > 0)

    def test_lumped_pairing_of_one_matches_consistent(self, square8, rng):
        # (x, 1)_h equals (x, 1): both are the exact integral of x
        M = assemble_mass(square8)
        d = lumped_mass_vector(square8)
        x = rng.normal(size=square8.num_nodes)
        assert d @ x == pytest.approx((M @ x).sum(), abs=1e-13)


class TestStiffness:
    def test_kills_constants(self, square8_ops):
        K = square8_ops["stiffness"]
        n = K.shape[0]
        assert np.abs(K @ np.ones(n)).max() < 1e-13

    def test_unit_right_triangle_cotangent_entries(self, single_triangle):
        K = assemble_stiffness(single_triangle).toarray()
        expected = np.array([
            [1.0, -0.5, -0.5],
            [-0.5, 0.5, 0.0],
            [-0.5, 0.0, 0.5],
        ])
        assert K == pytest.approx(expected, abs=1e-15)

    def test_positive_semidefinite(self, square8_ops, rng):
        K = square8_ops["stiffness"]
        for _ in range(100):
            x = rng.normal(size=K.shape[0])
            assert x @ (K @ x) >= -1e-12

    def test_matches_quadrature_oracle(self, two_elem_mesh, square4):
        for mesh in (two_elem_mesh, square4):
            K = assemble_stiffness(mesh).toarray()
            assert np.abs(K - oracles.quad_stiffness(mesh)).max() < 1e-12


class TestDrift:
    def test_constant_potential_gives_zero(self, square8, rng):
        G = assemble_drift(square8, np.full(square8.num_nodes, 3.7))
        assert abs(G).max() < 1e-14

    def test_row_sum_identity(self, square8, square8_ops, rng):
        # summing trial hats reproduces the stiffness action on the potential
        phi = rng.normal(size=square8.num_nodes)
        G = assemble_drift(square8, phi)
        K = square8_ops["stiffness"]
        assert np.asarray(G.sum(axis=1)).ravel() == pytest.approx(
            K @ phi, abs=1e-13
        )

    def test_matches_quadrature_oracle(self, two_elem_mesh, rng):
        phi = rng.normal(size=two_elem_mesh.num_nodes)
        G = assemble_drift(two_elem_mesh, phi).toarray()
        assert np.abs(G - oracles.quad_drift(two_elem_mesh, phi)).max() < 1e-13

    def test_matches_quadrature_oracle_square(self, square4, rng):
        phi = rng.normal(size=square4.num_nodes)
        G = assemble_drift(square4, phi).toarray()
        assert np.abs(G - oracles.quad_drift(square4, phi)).max() < 1e-13

    def test_mass_column_identity(self, square4, rng):
        # column sums vanish: transport cannot create or destroy mass
        phi = rng.normal(size=square4.num_nodes)
        G = assemble_drift(square4, phi)
        assert np.abs(np.asarray(G.sum(axis=0))).max() < 1e-13


class TestDriftOnJitteredDelaunay:
    """Roundoff is measured in units of eps max|phi| max|K_ij|: an entry of
    G sums A_e/3 grad lambda_a . grad lambda_c phi_c over the elements at
    the entry, and each term is at most max|K_ij| max|phi| / 3 in size.
    Over 40 meshes the drift and the oracle differed by at most 1.6
    units.  A product that underflows errs by up to the smallest subnormal
    number instead, in absolute terms (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., 2002, sec. 2.1), so each unit bound adds
    one of those."""

    ROUNDOFF_UNITS = 16.0

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(3, 12), jitter=st.floats(0.0, 0.35),
           seed=st.integers(0, 2**32 - 1), size=st.floats(-3.0, 3.0),
           a=st.floats(-5.0, 5.0), b=st.floats(-5.0, 5.0))
    @example(n=3, jitter=0.0, seed=0, size=0.0, a=0.0, b=5e-324)
    def test_matches_oracle_and_is_linear(self, n, jitter, seed, size, a,
                                          b):
        mesh = oracles.jittered_delaunay_mesh(n, jitter, seed)
        rng = np.random.default_rng(seed)
        phi, psi = 10.0**size * rng.uniform(-1.0, 1.0,
                                            size=(2, mesh.num_nodes))
        unit = np.finfo(float).eps * abs(assemble_stiffness(mesh)).max()
        tiny = np.finfo(float).smallest_subnormal
        G = assemble_drift(mesh, phi)
        assert (abs(G - oracles.coo_drift(mesh, phi)).max()
                <= self.ROUNDOFF_UNITS * (unit * np.abs(phi).max() + tiny))
        combined = assemble_drift(mesh, a * phi + b * psi)
        assert (abs(combined - (a * G + b * assemble_drift(mesh, psi))).max()
                <= self.ROUNDOFF_UNITS * (unit * (np.abs(a * phi)
                                                  + np.abs(b * psi)).max()
                                          + tiny))

    def test_map_built_once_per_mesh(self, map_builds, rng):
        meshes = [oracles.jittered_delaunay_mesh(6, 0.3, 4) for _ in range(2)]
        for mesh in meshes:
            phi = rng.normal(size=mesh.num_nodes)
            first = assemble_drift(mesh, phi)
            for _ in range(3):
                assert (assemble_drift(mesh, phi) != first).nnz == 0
        build_sym_stencils(meshes[0])
        assert map_builds == {"drift_map": 2, "sym_map": 0}


class TestNodalInterpolation:
    def test_constant(self, square8):
        v = nodal_interpolate(lambda x, y: np.full_like(x, 2.5), square8)
        assert np.all(v == 2.5)

    def test_linear_reproduction(self, square8):
        v = nodal_interpolate(lambda x, y: x + y, square8)
        assert v == pytest.approx(square8.nodes.sum(axis=1), abs=1e-15)

    def test_smooth_datum_at_node(self):
        mesh = build_unit_square(4)
        v = nodal_interpolate(smooth_p0, mesh)
        i = int(np.argmin(np.abs(mesh.nodes[:, 0] - 0.25)
                          + np.abs(mesh.nodes[:, 1])))
        assert mesh.nodes[i] == pytest.approx([0.25, 0.0])
        expected = (0.5 * np.tanh((1 - 10 * 0.5) / 0.1)
                    + 1.5 * np.tanh(1 / 0.1) + 2.0)
        assert v[i] == pytest.approx(expected, rel=1e-15)

    def test_nonfinite_raises_with_node(self, square8):
        def f(x, y):
            out = np.asarray(x, dtype=float).copy()
            out[3] = np.inf
            return out

        with pytest.raises(ValueError,
                           match=r"node 3 \(-0\.5, -0\.125\) is not finite"):
            nodal_interpolate(f, square8)


class TestAveragedInterpolation:
    def test_constant(self, square8):
        v = averaged_interpolate(lambda x, y: np.full_like(x, 1.25), square8)
        assert v == pytest.approx(np.full(square8.num_nodes, 1.25), abs=1e-14)

    def test_linear_on_single_triangle_gives_centroid_value(
            self, single_triangle):
        v = averaged_interpolate(lambda x, y: x, single_triangle)
        # mean of x over the triangle is the centroid abscissa
        assert v == pytest.approx(np.full(3, 1.0 / 3.0), abs=1e-14)

    def test_nonfinite_raises_with_node(self, square8):
        # log(x - 10) is NaN on the whole square: node 0 is named first
        with pytest.raises(ValueError,
                           match=r"node 0 \(-0\.5, -0\.5\) is not finite"), \
                np.errstate(invalid="ignore"):
            averaged_interpolate(lambda x, y: np.log(x - 10), square8)

    def test_smooth_data_stay_in_range(self, square8):
        v = averaged_interpolate(smooth_n0, square8)
        assert np.all(v >= 0.0)
        assert np.all(v <= 4.0)

    def test_bounds_for_random_smooth_fields(self, square8, rng):
        for _ in range(10):
            a, b, c = rng.normal(size=3)
            f = lambda x, y: np.sin(a * x + b * y) + c * x * y
            v = averaged_interpolate(f, square8)
            xs = np.linspace(-0.5, 0.5, 200)
            X, Y = np.meshgrid(xs, xs)
            sampled = f(X, Y)
            assert v.min() >= sampled.min() - 1e-6
            assert v.max() <= sampled.max() + 1e-6

    def test_mean_matches_exact_integral_oracle(self, two_elem_mesh):
        # quadratic integrand, integrated exactly by the degree-5 rule
        f = lambda x, y: x * y + x**2
        v = averaged_interpolate(f, two_elem_mesh)
        elems = designated_elements(two_elem_mesh)
        for i in range(two_elem_mesh.num_nodes):
            coords = two_elem_mesh.nodes[two_elem_mesh.elements[elems[i]]]
            pts, ws = oracles.quad_points(coords)
            expected = (ws @ f(pts[:, 0], pts[:, 1])) / ws.sum()
            assert v[i] == pytest.approx(expected, rel=1e-13)


# the 64x64 square and the cell-0.1 channel, sizes the march runs on, and a
# jittered Delaunay mesh whose element order follows no grid
SETUP_MESHES = {
    "square64": lambda: build_unit_square(64),
    "channel": lambda: build_channel(0.1),
    "delaunay": lambda: oracles.jittered_delaunay_mesh(20, 0.3, 1),
}


@pytest.mark.parametrize("where", sorted(SETUP_MESHES))
def test_setup_vectors_match_the_element_loops(where):
    mesh = SETUP_MESHES[where]()
    assert np.array_equal(lumped_mass_vector(mesh),
                          oracles.loop_lumped_mass_vector(mesh))
    assert np.array_equal(designated_elements(mesh),
                          oracles.loop_designated_elements(mesh))
