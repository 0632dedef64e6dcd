import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnpfem import (
    Mesh,
    assemble_stiffness,
    build_channel,
    build_equilateral_strip,
    build_sym_stencils,
    build_unit_square,
    check_acuteness,
)
from pnpfem import mesh as meshmod
from pnpfem.mesh import BOTTOM, MEMBRANE, OTHER_BOUNDARY, TOP, StencilError

import oracles


def _pattern_row(m, i):
    """The nodes of row i of the P1 pattern."""
    return m.pattern_indices[m.pattern_indptr[i]:m.pattern_indptr[i + 1]]


class TestUnitSquare:
    def test_counts_n2(self):
        m = build_unit_square(2)
        assert m.num_nodes == 9
        assert m.num_elements == 8

    def test_mesh_size_n40(self):
        m = build_unit_square(40)
        assert m.h == pytest.approx(np.sqrt(2.0) / 40, rel=1e-14)
        # matches the reported value of about 0.035
        assert round(m.h, 3) == 0.035

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            build_unit_square(1)

    def test_interior_neighbor_count_n3(self):
        # structured diagonal split: six neighbors plus the node itself
        m = build_unit_square(3)
        interior = [i for i in range(m.num_nodes) if not m.boundary_mask[i]]
        assert interior
        for i in interior:
            assert len(_pattern_row(m, i)) == 7

    def test_area_and_positivity(self):
        m = build_unit_square(5)
        assert m.total_area() == pytest.approx(1.0, abs=1e-12)
        assert np.all(m.areas > 0)

    def test_neighbor_symmetry(self, square4):
        m = square4
        for i in range(m.num_nodes):
            for j in _pattern_row(m, i):
                assert i in _pattern_row(m, j)

    def test_neighbors_match_element_stars(self, square4):
        m = square4
        for i, star in enumerate(oracles.element_stars(m)):
            assert np.array_equal(_pattern_row(m, i), star)


class TestChannel:
    def test_tags_partition_boundary(self):
        m = build_channel(0.5)
        boundary = np.flatnonzero(m.boundary_mask)
        tags = m.boundary_tags[boundary]
        assert set(tags) == {BOTTOM, TOP, MEMBRANE, OTHER_BOUNDARY}
        interior = np.flatnonzero(~m.boundary_mask)
        assert all(t == "interior" for t in m.boundary_tags[interior])

    def test_node_count_matches_rectangle_enumeration(self):
        # three rectangles minus the doubly counted interface segments
        cell = 0.25
        per = lambda w, h: (round(w / cell) + 1) * (round(h / cell) + 1)
        expected = per(4, 1.5) + per(2, 4) + per(4, 1.5) - 2 * (round(2 / cell) + 1)
        m = build_channel(cell)
        assert m.num_nodes == expected

    def test_area(self):
        # 4*1.5 + 2*4 + 4*1.5
        m = build_channel(0.25)
        assert m.total_area() == pytest.approx(20.0, abs=1e-12)

    def test_mesh_size_same_order_as_reference(self):
        m = build_channel(0.1)
        assert m.h == pytest.approx(0.1 * np.sqrt(2.0), rel=1e-12)
        assert 0.5 < m.h / 0.121854 < 1.5

    def test_tag_geometry(self):
        m = build_channel(0.25)
        for i in m.nodes_with_tag(BOTTOM):
            assert m.nodes[i, 1] == 0.0
        for i in m.nodes_with_tag(TOP):
            assert m.nodes[i, 1] == 7.0
        for i in m.nodes_with_tag(MEMBRANE):
            assert abs(m.nodes[i, 0]) == pytest.approx(1.0, abs=1e-12)
            assert 1.5 - 1e-12 <= m.nodes[i, 1] <= 5.5 + 1e-12

    def test_rejects_bad_cell(self):
        with pytest.raises(ValueError):
            build_channel(0.3)


MESH_FIELDS = ("nodes", "elements", "boundary_tags")


def assert_mesh_matches_loop(got, want):
    for name in MESH_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


class TestBuildersMatchLoops:
    @pytest.mark.parametrize("n", [2, 3, 8, 64])
    def test_unit_square(self, n):
        assert_mesh_matches_loop(build_unit_square(n),
                                 oracles.loop_unit_square(n))

    @pytest.mark.parametrize("cell", [0.5, 0.25, 0.5 / 3, 0.1, 0.05])
    def test_channel(self, cell):
        assert_mesh_matches_loop(build_channel(cell),
                                 oracles.loop_channel(cell))

    @pytest.mark.parametrize("args", [(1, 1), (10, 7), (8, 8, 0.125),
                                      (3, 9, 2.0)])
    def test_equilateral_strip(self, args):
        assert_mesh_matches_loop(build_equilateral_strip(*args),
                                 oracles.loop_equilateral_strip(*args))

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 24), m=st.integers(1, 6),
           nx=st.integers(1, 12), ny=st.integers(1, 12))
    def test_equal_over_sizes(self, n, m, nx, ny):
        assert_mesh_matches_loop(build_unit_square(n),
                                 oracles.loop_unit_square(n))
        assert_mesh_matches_loop(build_channel(0.5 / m),
                                 oracles.loop_channel(0.5 / m))
        assert_mesh_matches_loop(build_equilateral_strip(nx, ny),
                                 oracles.loop_equilateral_strip(nx, ny))


@pytest.mark.parametrize("build, args", [
    (build_unit_square, (2.5,)),
    (build_equilateral_strip, (2.5, 3)),
], ids=["square", "strip"])
def test_builders_reject_non_whole_counts(build, args):
    with pytest.raises(ValueError, match="must be a whole number"):
        build(*args)


@pytest.mark.parametrize("make", [
    lambda: oracles.jittered_delaunay_mesh(10, 0.3, seed=7),
    lambda: oracles.jittered_delaunay_mesh(12, 0.45, seed=3),
    lambda: build_equilateral_strip(6, 5),
    lambda: build_channel(0.25),
], ids=["delaunay-10", "delaunay-12", "strip", "channel"])
def test_boundary_mask_matches_element_edge_count(make):
    m = make()
    assert np.array_equal(m.boundary_mask, oracles.boundary_mask(m))


class TestSymmetricStencil:
    def test_axis_pair_hits_opposite_neighbor(self, square8, square8_stencil):
        m, st = square8, square8_stencil
        # interior node: (4,4) in grid coords
        i = 4 * 9 + 4
        j = 5 * 9 + 4  # +x neighbor
        p = oracles.pair_index(m, i, j)
        opposite = 3 * 9 + 4
        w = st.sym_weights[p]
        nodes = st.sym_nodes[p]
        k = int(np.argmax(w))
        assert w[k] == pytest.approx(1.0, abs=1e-12)
        assert nodes[k] == opposite
        assert st.r_sym_len[p] == pytest.approx(st.r_len[p], rel=1e-12)

    def test_collinearity(self, square8, square8_stencil):
        m, st = square8, square8_stencil
        for p in range(m.pair_i.size):
            i, j = m.pair_i[p], m.pair_j[p]
            d = m.nodes[i] - m.nodes[j]
            v = st.sym_points[p] - m.nodes[i]
            assert abs(d[0] * v[1] - d[1] * v[0]) < 1e-12

    def test_matches_exhaustive_intersection_oracle(self, square8,
                                                    square8_stencil):
        m, st = square8, square8_stencil
        for p in range(0, m.pair_i.size, 7):
            i, j = int(m.pair_i[p]), int(m.pair_j[p])
            hit = oracles.exhaustive_sym_point(m, i, j)
            if hit is None:
                assert st.one_sided[p]
            else:
                t, point = hit
                assert not st.one_sided[p]
                assert st.sym_points[p] == pytest.approx(point, abs=1e-12)

    def test_diagonal_neighbor_interior_n3(self):
        m = build_unit_square(3)
        st = build_sym_stencils(m)
        i = 1 * 4 + 1  # interior node of the n=3 grid
        j = 2 * 4 + 2  # +x+y diagonal neighbor
        p = oracles.pair_index(m, i, j)
        assert st.r_sym_len[p] > 0
        hit = oracles.exhaustive_sym_point(m, i, j)
        assert hit is not None
        assert st.sym_points[p] == pytest.approx(hit[1], abs=1e-12)

    def test_field_evaluation_matches_barycentric(self, square8,
                                                  square8_stencil, rng):
        m, st = square8, square8_stencil
        x = rng.normal(size=m.num_nodes)
        vals = st.eval_at_sym(x)
        for p in range(0, m.pair_i.size, 11):
            if st.one_sided[p]:
                continue
            direct = oracles.eval_p1(m, x, st.sym_points[p])
            assert vals[p] == pytest.approx(direct, abs=1e-12)

    def test_weights_convex(self, square8_stencil):
        w = square8_stencil.sym_weights
        assert np.all(w >= -1e-12)
        assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)

    def test_boundary_fallback_duplicates_pair(self, square4):
        st = build_sym_stencils(square4)
        m = square4
        # corner node 0 with its diagonal neighbor: ray exits immediately
        corner = 0
        diag = m.pair_j[m.pair_ptr[corner]:m.pair_ptr[corner + 1]]
        found = False
        for j in diag:
            p = oracles.pair_index(m, corner, int(j))
            if st.one_sided[p]:
                found = True
                assert st.r_sym_len[p] == st.r_len[p]
                assert set(st.sym_nodes[p]) == {int(j)}
        assert found


STENCIL_FIELDS = ("sym_nodes", "sym_weights", "sym_points", "r_len",
                  "r_sym_len", "one_sided")


def assert_stencil_matches_loop(m):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = build_sym_stencils(m)
    want = oracles.loop_sym_stencils(m)
    for name in STENCIL_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


class TestStencilMatchesLoop:
    @pytest.mark.parametrize("make", [
        lambda: build_unit_square(4),
        lambda: build_unit_square(8),
        lambda: build_unit_square(64),
        lambda: build_channel(0.5),
        lambda: build_channel(0.25),
        lambda: build_equilateral_strip(10, 7),
        lambda: oracles.jittered_delaunay_mesh(32, 0.35, seed=0),
        lambda: oracles.jittered_delaunay_mesh(12, 0.45, seed=3),
        lambda: oracles.jittered_delaunay_mesh(20, 0.2, seed=5),
    ], ids=["square-4", "square-8", "square-64", "channel-0.5",
            "channel-0.25", "strip", "delaunay-32", "delaunay-12",
            "delaunay-20"])
    def test_equal_arrays(self, make):
        assert_stencil_matches_loop(make())

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(3, 12), jitter=st.floats(0.0, 0.35),
           seed=st.integers(0, 2**32 - 1))
    def test_equal_arrays_on_jittered_delaunay(self, n, jitter, seed):
        assert_stencil_matches_loop(
            oracles.jittered_delaunay_mesh(n, jitter, seed))

    def test_equal_arrays_across_small_blocks(self, monkeypatch):
        # blocks of a few candidates split one node's pairs between blocks
        monkeypatch.setattr(meshmod, "STENCIL_BLOCK", 5)
        assert_stencil_matches_loop(
            oracles.jittered_delaunay_mesh(6, 0.3, seed=11))

    def test_stencil_error_names_first_failing_pair(self):
        # corner 0 has a one-sided pair; as an interior node it has none
        messages = []
        for build in (build_sym_stencils, oracles.loop_sym_stencils):
            m = build_unit_square(4)
            m.boundary_mask[0] = False
            with pytest.raises(StencilError, match="interior pair") as err:
                build(m)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert "(0, " in messages[0]


class TestAcuteness:
    def test_structured_square_not_acute(self, square4):
        K = assemble_stiffness(square4)
        rep = check_acuteness(square4, K)
        assert not rep.is_acute
        assert abs(rep.c_ang) < 1e-12  # right angles give zero couplings

    def test_equilateral_strip_acute(self):
        m = build_equilateral_strip(3, 2, side=0.5)
        rep = check_acuteness(m, assemble_stiffness(m))
        assert rep.is_acute
        # every coupling of an equilateral pair is at least 1/(2 sqrt 3)
        assert rep.c_ang == pytest.approx(1.0 / (2.0 * np.sqrt(3.0)), rel=1e-12)

    def test_two_element_equilateral_hand_mesh(self):
        h = np.sqrt(3.0) / 2.0
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, h], [1.5, h]])
        elements = np.array([[0, 1, 2], [1, 3, 2]])
        m = Mesh(nodes, elements)
        rep = check_acuteness(m, assemble_stiffness(m))
        assert rep.is_acute

    def test_obtuse_triangle_positive_coupling(self):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.1]])
        m = Mesh(nodes, np.array([[0, 1, 2]]))
        K = assemble_stiffness(m).toarray()
        assert K[0, 1] > 0  # cotangent of the obtuse angle flips the sign
        assert not check_acuteness(m, assemble_stiffness(m)).is_acute


class TestMeshValidation:
    def test_rejects_clockwise_element(self):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="area"):
            Mesh(nodes, np.array([[0, 2, 1]]))

    def test_rejects_node_in_no_element(self):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="node 3 belongs to no element"):
            Mesh(nodes, np.array([[0, 1, 2]]))

    @pytest.mark.parametrize("bad", [4, -1])
    def test_rejects_out_of_range_node_index(self, bad):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match=r"element 1 .* outside \[0, 4\)"):
            Mesh(nodes, np.array([[0, 1, 2], [1, 3, bad]]))

    def test_rejects_interior_node_with_boundary_tag(self):
        m = build_unit_square(2)
        tags = m.boundary_tags.copy()
        tags[4] = BOTTOM
        with pytest.raises(ValueError, match="node 4 is tagged 'bottom'"):
            Mesh(m.nodes, m.elements, tags)

    def test_equilateral_strip_area(self):
        m = build_equilateral_strip(4, 4, side=0.25)
        expected = 32 * (np.sqrt(3.0) / 4.0) * 0.25**2
        assert m.total_area() == pytest.approx(expected, abs=1e-14)
