"""Operators written into the per-mesh P1 pattern against general sparse
assembly (coordinate triplets, CSR fancy indexing, row-mask products)."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from pnpfem import (
    Assemblies,
    BoundarySpec,
    Mesh,
    SolverConfig,
    State,
    assemble_drift,
    assemble_mass,
    assemble_stiffness,
    build_channel,
    build_stabilizer_alg1,
    build_stabilizer_alg2,
    build_sym_stencils,
    build_unit_square,
    check_acuteness,
    compute_alpha,
    dissipation_Dh,
    entropy_functions,
    star_transport_vector,
)
from pnpfem.mesh import BOTTOM, MEMBRANE, TOP
from pnpfem.solver import _StepContext, _solve_linear

import oracles

REL = 1e-14


def _close(got, expected):
    """Agreement to REL relative to the largest expected magnitude."""
    got = got.toarray() if hasattr(got, "toarray") else np.asarray(got)
    expected = (expected.toarray() if hasattr(expected, "toarray")
                else np.asarray(expected))
    scale = max(np.abs(expected).max(), np.finfo(float).tiny)
    return np.abs(got - expected).max() <= REL * scale


def _on_the_pattern(B, mesh):
    """The stabilizer's values are its matrix's entries on the P1 pattern."""
    A = B.matrix
    return (np.array_equal(A.indptr, mesh.pattern_indptr)
            and np.array_equal(A.indices, mesh.pattern_indices)
            and np.array_equal(B.values, A.data))


MESHES = {
    "square": lambda: build_unit_square(8),
    "channel": lambda: build_channel(0.5),
    "delaunay": lambda: oracles.jittered_delaunay_mesh(10, 0.3, seed=7),
}


@pytest.fixture(scope="module", params=sorted(MESHES))
def case(request):
    mesh = MESHES[request.param]()
    rng = np.random.default_rng(20240817)
    n = mesh.num_nodes
    x = rng.uniform(0.5, 2.0, size=n)
    phi = rng.normal(size=n)
    return {
        "mesh": mesh,
        "stencil": build_sym_stencils(mesh),
        "M": assemble_mass(mesh),
        "K": assemble_stiffness(mesh),
        "x": x,
        "phi": phi,
        "fns": entropy_functions(0.3),
    }


def test_pattern_is_the_node_adjacency(case):
    mesh = case["mesh"]
    A = mesh.csr(np.ones(mesh.pattern_nnz))
    assert A.has_canonical_format
    for i, star in enumerate(oracles.element_stars(mesh)):
        assert np.array_equal(A.indices[A.indptr[i]:A.indptr[i + 1]], star)
    rows = np.repeat(np.arange(mesh.num_nodes), np.diff(mesh.pattern_indptr))
    cols = mesh.pattern_indices
    assert np.array_equal(rows[mesh.transpose_slots], cols)
    assert np.array_equal(cols[mesh.transpose_slots], rows)
    assert np.array_equal(rows[mesh.edge_slots], mesh.edge_i)
    assert np.array_equal(cols[mesh.edge_slots], mesh.edge_j)
    assert np.array_equal(rows[mesh.edge_slots_t], mesh.edge_j)
    assert np.array_equal(rows[mesh.diag_slots], cols[mesh.diag_slots])
    tri = mesh.elements
    slots = mesh.element_slots
    assert np.array_equal(rows[slots], np.repeat(tri[:, :, None], 3, axis=2))
    assert np.array_equal(cols[slots], np.repeat(tri[:, None, :], 3, axis=1))


# the channel with its membrane cation rows pinned, as in channel_selective
PLAN_CASES = {
    "square": (MESHES["square"], BoundarySpec()),
    "channel": (MESHES["channel"],
                BoundarySpec(phi_dirichlet={BOTTOM: -1.0, TOP: 1.0},
                             p_dirichlet={MEMBRANE: 1.0})),
    "delaunay": (MESHES["delaunay"], BoundarySpec()),
}


@pytest.mark.parametrize("where", sorted(PLAN_CASES))
def test_solve_plan_against_spsolve(where):
    make_mesh, bc = PLAN_CASES[where]
    mesh = make_mesh()
    asm = Assemblies(mesh, build_sym_stencils(mesh), bc,
                     entropy_functions(1e-8))
    plan, n = asm.solve_plan, mesh.num_nodes
    assert np.array_equal(np.sort(plan.perm), np.arange(n))
    # nonsymmetric values; a third of the diagonal is zero, so the
    # factorization has to pivot off the diagonal
    rng = np.random.default_rng(13)
    data = rng.normal(size=mesh.pattern_nnz)
    data[mesh.diag_slots[::3]] = 0.0
    data = asm.pin_p_rows(data)
    b = rng.normal(size=n)
    assert (asm.p_fixed.size > 0) == (where == "channel")

    expected = mesh.csr(data)[plan.perm][:, plan.perm].tocsc()
    assert expected.nnz == mesh.pattern_nnz
    assert np.array_equal(plan.indptr, expected.indptr)
    assert np.array_equal(plan.indices, expected.indices)
    assert np.array_equal(data[plan.gather], expected.data)

    A = mesh.csr(data)
    x = _solve_linear(plan, A, b)
    x_ref = spla.spsolve(A.tocsc(), b)
    assert np.abs(x - x_ref).max() <= 1e-12 * np.abs(x_ref).max()


def test_pattern_arrays_are_shared_read_only(case):
    mesh = case["mesh"]
    A = mesh.csr(np.zeros(mesh.pattern_nnz))
    with pytest.raises(ValueError):
        A.eliminate_zeros()
    assert mesh.pattern_indptr[-1] == mesh.pattern_nnz


def test_matrix_off_the_pattern_rejected(case):
    mesh, M, K = case["mesh"], case["M"], case["K"]
    with pytest.raises(ValueError, match="pattern"):
        mesh.edge_entries(M.tocoo())
    pruned = K.copy()
    pruned.data[mesh.edge_slots[0]] = 0.0
    pruned.eliminate_zeros()
    with pytest.raises(ValueError, match="pattern"):
        mesh.edge_entries(pruned)
    assert np.array_equal(mesh.edge_entries(K),
                          np.asarray(K[mesh.edge_i, mesh.edge_j]).ravel())


# every public function that reads the pattern slots of a matrix argument,
# called with X in the place of that argument
PATTERN_READERS = {
    "alg1_mass": lambda c, X: build_stabilizer_alg1(
        +1, 0.01, c["alpha"], c["mesh"], X, c["K"], c["G"]),
    "alg1_stiffness": lambda c, X: build_stabilizer_alg1(
        +1, 0.01, c["alpha"], c["mesh"], c["M"], X, c["G"]),
    "alg1_drift": lambda c, X: build_stabilizer_alg1(
        +1, 0.01, c["alpha"], c["mesh"], c["M"], c["K"], X),
    "alg2": lambda c, X: build_stabilizer_alg2(
        +1, c["x"], c["phi"], c["alpha"], c["fns"], X, c["mesh"]),
    "transport": lambda c, X: star_transport_vector(
        c["x"], c["phi"], c["fns"], X, c["mesh"]),
    "dissipation": lambda c, X: dissipation_Dh(
        c["x"], c["phi"], X, c["fns"], c["mesh"]),
    "acuteness": lambda c, X: check_acuteness(c["mesh"], X),
}


@pytest.mark.parametrize("reader", sorted(PATTERN_READERS))
def test_pruned_matrix_rejected_by_every_reader(case, reader):
    mesh, K = case["mesh"], case["K"]
    c = dict(case, alpha=np.ones(mesh.num_nodes),
             G=assemble_drift(mesh, case["phi"]))
    read = PATTERN_READERS[reader]
    read(c, K)  # the stiffness itself is on the pattern
    pruned = K.copy()
    pruned.data[mesh.edge_slots[0]] = 0.0
    pruned.eliminate_zeros()
    with pytest.raises(ValueError, match="pattern"):
        read(c, pruned)


def test_mass_stiffness_drift(case):
    mesh, phi = case["mesh"], case["phi"]
    assert _close(case["M"], oracles.coo_mass(mesh))
    assert _close(case["K"], oracles.coo_stiffness(mesh))
    assert _close(assemble_drift(mesh, phi), oracles.coo_drift(mesh, phi))


@pytest.mark.parametrize("sign", [+1, -1])
def test_stabilizer_alg1(case, sign):
    mesh, M, K = case["mesh"], case["M"], case["K"]
    alpha = compute_alpha(case["x"], 2.0, mesh, case["stencil"])
    assert alpha.max() > 0.0
    G = assemble_drift(mesh, case["phi"])
    B = build_stabilizer_alg1(sign, 0.01, alpha, mesh, M, K, G)
    assert _close(B.matrix, oracles.coo_stabilizer_alg1(
        sign, 0.01, alpha, mesh, M, K, G))
    assert _on_the_pattern(B, mesh)


def _with_underflowing_pairs(case):
    """The case's x with nodes 4m at 1e3 and nodes 4m + 1 at the next double
    above: adjacent such pairs differ in x but not in dg(x) = log x, so they
    take the equal-value branch of the secant."""
    x = case["x"].copy()
    x[::4] = 1e3
    x[1::4] = np.nextafter(1e3, 2e3)
    mesh = case["mesh"]
    _, _, dx, ddg, distinct = oracles._secants(x, case["fns"], mesh.edge_i,
                                               mesh.edge_j)
    assert np.any((dx != 0.0) & (ddg == 0.0)) and np.any(distinct)
    return x


@pytest.mark.parametrize("sign", [+1, -1])
def test_stabilizer_alg2(case, sign):
    mesh, K, x, phi = case["mesh"], case["K"], case["x"], case["phi"]
    alpha = compute_alpha(x, 2.0, mesh, case["stencil"])
    B = build_stabilizer_alg2(sign, x, phi, alpha, case["fns"], K, mesh)
    expected = oracles.coo_stabilizer_alg2(sign, x, phi, alpha, case["fns"],
                                           K, mesh)
    assert abs(expected).max() > 0.0
    assert _close(B.matrix, expected)
    assert _on_the_pattern(B, mesh)
    x = _with_underflowing_pairs(case)
    alpha = compute_alpha(x, 2.0, mesh, case["stencil"])
    B = build_stabilizer_alg2(sign, x, phi, alpha, case["fns"], K, mesh)
    expected = oracles.coo_stabilizer_alg2(sign, x, phi, alpha, case["fns"],
                                           K, mesh)
    assert abs(expected).max() > 0.0
    assert _close(B.matrix, expected)
    assert _on_the_pattern(B, mesh)


def test_star_transport_vector(case):
    mesh, K, x, phi = case["mesh"], case["K"], case["x"], case["phi"]
    x = x.copy()
    x[1::2] = x[:-1:2]  # equal-valued pairs take the other branch
    got = star_transport_vector(x, phi, case["fns"], K, mesh)
    expected = oracles.coo_star_transport_vector(x, phi, case["fns"], K, mesh)
    assert _close(got, expected)
    x = _with_underflowing_pairs(case)
    got = star_transport_vector(x, phi, case["fns"], K, mesh)
    expected = oracles.coo_star_transport_vector(x, phi, case["fns"], K, mesh)
    assert _close(got, expected)


@pytest.mark.parametrize("algorithm", [1, 2])
def test_pinned_row_systems(algorithm):
    mesh = build_channel(0.5)
    bc = BoundarySpec(phi_dirichlet={BOTTOM: -1.0, TOP: 1.0},
                      p_dirichlet={MEMBRANE: 1.0})
    fns = entropy_functions(1e-8)
    asm = Assemblies(mesh, build_sym_stencils(mesh), bc, fns)
    assert asm.p_fixed.size > 0
    rng = np.random.default_rng(11)
    p = rng.uniform(0.5, 2.0, size=mesh.num_nodes)
    n = rng.uniform(0.5, 2.0, size=mesh.num_nodes)
    phi = asm.poisson.solve(p - n)
    k = 0.01
    config = SolverConfig(algorithm=algorithm, k=k)
    ctx = _StepContext(State(p, n, phi, 0.0), config, asm)
    A_p, b_p, A_n, b_n = ctx.systems(p, n, phi)

    M, K = asm.mass, asm.stiffness
    a_p = compute_alpha(p, config.q, mesh, asm.stencil)
    a_n = compute_alpha(n, config.q, mesh, asm.stencil)
    if algorithm == 1:
        G = assemble_drift(mesh, phi)
        base = M / k + K
        Bp = oracles.coo_stabilizer_alg1(+1, k, a_p, mesh, M, K, G)
        Bn = oracles.coo_stabilizer_alg1(-1, k, a_n, mesh, M, K, G)
        exp_p, exp_n = base + G + Bp, base - G + Bn
        exp_b_p = M @ p / k
    else:
        base = oracles.sp.diags(asm.d / k) + K
        exp_p = base + oracles.coo_stabilizer_alg2(+1, p, phi, a_p, fns, K,
                                                   mesh)
        exp_n = base + oracles.coo_stabilizer_alg2(-1, n, phi, a_n, fns, K,
                                                   mesh)
        exp_b_p = asm.d * p / k - oracles.coo_star_transport_vector(
            p, phi, fns, K, mesh)
    exp_p = oracles.coo_pinned_rows(exp_p, asm.p_fixed)
    assert _close(A_p, exp_p)
    assert _close(A_n, exp_n)
    exp_b_p[asm.p_fixed] = 1.0
    assert _close(b_p, exp_b_p)


# the pinned-row channel under the +-50 drop of channel_wave, which makes the
# Alg. 2 stabilizer active; the Delaunay square's potential is too weak for it
RESIDUAL_CASES = {
    "channel": (lambda: build_channel(0.5),
                BoundarySpec(phi_dirichlet={BOTTOM: -50.0, TOP: 50.0},
                             p_dirichlet={MEMBRANE: 1.0})),
    "delaunay": (MESHES["delaunay"], BoundarySpec()),
}


@pytest.mark.parametrize("where", sorted(RESIDUAL_CASES))
@pytest.mark.parametrize("algorithm", [1, 2])
def test_residual_matches_term_by_term_oracle(algorithm, where):
    make_mesh, bc = RESIDUAL_CASES[where]
    mesh = make_mesh()
    fns = entropy_functions(1e-8)
    asm = Assemblies(mesh, build_sym_stencils(mesh), bc, fns)
    rng = np.random.default_rng(5)
    p_old, n_old, p, n = rng.uniform(0.5, 2.0, size=(4, mesh.num_nodes))
    if bc.pure_neumann:
        n += (asm.d @ (p - n)) / asm.d.sum()  # a balanced total charge
    config = SolverConfig(algorithm=algorithm, k=0.01)
    ctx = _StepContext(State(p_old, n_old, np.zeros(mesh.num_nodes), 0.0),
                       config, asm)
    phi, r = ctx.residual_parts(p, n)

    a_p = compute_alpha(p, config.q, mesh, asm.stencil)
    a_n = compute_alpha(n, config.q, mesh, asm.stencil)
    (r_p, r_n), terms = oracles.coo_residual(
        algorithm, config.k, mesh, fns, p_old, n_old, p, n, phi, a_p, a_n,
        asm.p_fixed, asm.p_fixed_values)
    stabilized = min(np.abs(B).max() for B in terms[3::4]) > 0.0
    assert stabilized or (algorithm, where) == (2, "delaunay")
    scale = max(np.abs(t).max() for t in terms)
    assert np.abs(r - np.concatenate([r_p, r_n])).max() <= 1e-12 * scale


@pytest.mark.parametrize("algorithm, wrapped", [(1, 3), (2, 2)])
def test_systems_wrap_only_drift_and_results(monkeypatch, algorithm, wrapped):
    """One coefficient build makes CSR matrices of the two density systems
    and, under Alg. 1, of the drift; the stabilizers hand over values."""
    make_mesh, bc = RESIDUAL_CASES["channel"]
    mesh = make_mesh()
    asm = Assemblies(mesh, build_sym_stencils(mesh), bc,
                     entropy_functions(1e-8))
    rng = np.random.default_rng(5)
    p, n = rng.uniform(0.5, 2.0, size=(2, mesh.num_nodes))
    phi = asm.poisson.solve(p - n)
    ctx = _StepContext(State(p, n, phi, 0.0),
                       SolverConfig(algorithm=algorithm, k=0.01), asm)
    calls = []
    csr = Mesh.csr
    monkeypatch.setattr(Mesh, "csr",
                        lambda self, data: calls.append(1) or csr(self, data))
    A_p, _, A_n, _ = ctx.systems(p, n, phi)
    assert len(calls) == wrapped
    for A in (A_p, A_n):
        assert A.format == "csr"
        assert np.array_equal(A.indptr, mesh.pattern_indptr)
        assert np.array_equal(A.indices, mesh.pattern_indices)
