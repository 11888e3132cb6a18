import numpy as np
import pytest
import scipy.sparse as sp

from eddyopt import discretize
from eddyopt.discretize import (
    CACHE_ENTRIES,
    ProblemConfig,
    SpaceOperators,
    TimeGrid,
    assemble_mass,
    build_mesh,
    build_operators,
    lowrank_desired,
    sample_desired_state,
)
from eddyopt.lacore import NotSpdError, sparse_spd_factorize

from oracles import mass_matrix_quadrature


def _reference_triangle_mesh():
    from eddyopt.discretize import Mesh2D

    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return Mesh2D(nodes, np.array([[0, 1, 2]]), np.sqrt(2.0))


# ---------------------------------------------------------------------------
# mesh


def test_mesh_counts_single_cell():
    mesh = build_mesh(1)
    assert mesh.n_nodes == 4
    assert mesh.triangles.shape == (2, 3)


def test_mesh_counts_two_cells():
    mesh = build_mesh(2)
    assert mesh.n_nodes == 9
    assert mesh.triangles.shape == (8, 3)
    assert mesh.h == pytest.approx(np.sqrt(2.0) / 2.0)


def _cell_loop_triangles(cells):
    """The cell-by-cell construction of the mesh's triangles, kept as the reference."""
    nside = cells + 1
    tris = []
    for j in range(cells):
        for i in range(cells):
            v00 = j * nside + i
            v11 = v00 + nside + 1
            tris += [(v00, v00 + 1, v11), (v00, v11, v00 + nside)]
    return np.array(tris, dtype=np.int64)


@pytest.mark.parametrize("cells", [1, 3, 7, 30, 54])
def test_mesh_triangles_match_the_cell_loop(cells):
    triangles = build_mesh(cells).triangles
    assert triangles.dtype == np.int64
    np.testing.assert_array_equal(triangles, _cell_loop_triangles(cells))


def test_mesh_two_cells_triangles():
    # row by row, each cell split along its diagonal, lower-right triangle first
    expected = [[0, 1, 4], [0, 4, 3], [1, 2, 5], [1, 5, 4],
                [3, 4, 7], [3, 7, 6], [4, 5, 8], [4, 8, 7]]
    triangles = build_mesh(2).triangles
    assert triangles.dtype == np.int64
    np.testing.assert_array_equal(triangles, np.array(expected))


@pytest.mark.parametrize("cells", [1, 3, 7])
def test_mesh_total_area_is_one(cells):
    mesh = build_mesh(cells)
    p = mesh.nodes[mesh.triangles]
    areas = 0.5 * (
        (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
        - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])
    )
    assert np.all(areas > 0)
    assert np.sum(areas) == pytest.approx(1.0, abs=1e-13)


def test_mesh_interior_edges_shared_twice():
    mesh = build_mesh(3)
    from collections import Counter

    edges = Counter()
    for tri in mesh.triangles:
        for a, b in ((0, 1), (1, 2), (2, 0)):
            edges[frozenset((tri[a], tri[b]))] += 1
    assert set(edges.values()) <= {1, 2}
    assert sum(1 for v in edges.values() if v == 2) > 0


# ---------------------------------------------------------------------------
# mass matrix


def test_mass_reference_triangle_element():
    mesh = _reference_triangle_mesh()
    m = assemble_mass(mesh).toarray()
    expected = (np.ones((3, 3)) + np.eye(3)) / 24.0
    assert np.allclose(m, expected, atol=1e-15)


@pytest.mark.parametrize("cells", [2, 5])
def test_mass_entry_sum_is_domain_area(cells):
    m = assemble_mass(build_mesh(cells))
    assert m.sum() == pytest.approx(1.0, abs=1e-12)


def test_mass_matches_quadrature_oracle():
    mesh = build_mesh(4)
    m = assemble_mass(mesh).toarray()
    m_oracle = mass_matrix_quadrature(mesh)
    assert np.max(np.abs(m - m_oracle)) <= 1e-14


def test_mass_is_spd():
    m = assemble_mass(build_mesh(6))
    assert (abs(m - m.T) > 0).nnz == 0
    assert np.all(m.diagonal() > 0)
    eigs = np.linalg.eigvalsh(m.toarray())
    assert eigs.min() > 0
    sparse_spd_factorize(m)  # must not raise
    # solve against apply round trip: M x = M 1 gives the ones vector
    f = sparse_spd_factorize(m)
    ones = np.ones(m.shape[0])
    assert np.linalg.norm(f.solve(m @ ones) - ones) <= 1e-12


# ---------------------------------------------------------------------------
# stiffness matrix


def _stiffness(mesh, nu=1.0, eps_reg=0.0):
    """The stiffness of build_operators, by default without the elliptic term."""
    config = ProblemConfig(sigma=1.0, beta=1.0, nu=nu, eps_reg=eps_reg)
    return build_operators(mesh, config).stiffness


def test_stiffness_reference_triangle_element():
    k = _stiffness(_reference_triangle_mesh()).toarray()
    expected = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
    assert np.allclose(k, expected, atol=1e-15)


def test_stiffness_rowsums_vanish_without_regularization():
    k = _stiffness(build_mesh(5))
    assert np.max(np.abs(k @ np.ones(k.shape[0]))) <= 1e-13


def test_stiffness_scales_linearly_in_diffusion_coefficient():
    mesh = build_mesh(4)
    k1 = _stiffness(mesh)
    k3 = _stiffness(mesh, nu=3.0)
    assert np.max(np.abs((k3 - 3.0 * k1).toarray())) <= 1e-13


def test_stiffness_regularized_is_pd():
    mesh = build_mesh(5)
    k = _stiffness(mesh, eps_reg=1e-3)
    eigs = np.linalg.eigvalsh(k.toarray())
    assert eigs.min() > 0
    k0 = _stiffness(mesh)
    eigs0 = np.linalg.eigvalsh(k0.toarray())
    assert eigs0.min() >= -1e-12  # PSD with nullspace


def test_poisson_manufactured_convergence():
    # -div(grad u) + u = f with u = cos(pi x) cos(pi y); homogeneous
    # natural boundary conditions hold, so errors must drop at second order
    errs = []
    for cells in (8, 16, 32):
        mesh = build_mesh(cells)
        k = _stiffness(mesh)
        m = assemble_mass(mesh)
        x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
        exact = np.cos(np.pi * x) * np.cos(np.pi * y)
        f = (2.0 * np.pi**2 + 1.0) * exact
        u = sparse_spd_factorize((k + m).tocsr()).solve(m @ f)
        err = u - exact
        errs.append(np.sqrt(err @ (m @ err)))
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(rates > 1.7)


# ---------------------------------------------------------------------------
# desired state


def test_desired_state_example_values():
    mesh = build_mesh(4)
    grid = TimeGrid(3)
    yd = sample_desired_state("ex1", mesh, grid)
    assert yd.shape == (25, 3)
    idx = np.where((mesh.nodes[:, 0] == 0.75) & (mesh.nodes[:, 1] == 0.25))[0][0]
    assert yd[idx, 0] == pytest.approx(-1.0, abs=1e-12)
    idx2 = np.where((mesh.nodes[:, 0] == 0.25) & (mesh.nodes[:, 1] == 0.75))[0][0]
    assert yd[idx2, 0] == 0.0


def test_desired_state_vanishes_on_closed_upper_triangle():
    mesh = build_mesh(6)
    yd = sample_desired_state("ex1", mesh, TimeGrid(2))
    upper = mesh.nodes[:, 0] <= mesh.nodes[:, 1]
    assert np.all(yd[upper] == 0.0)


def test_desired_state_time_constant_is_rank_one():
    mesh = build_mesh(3)
    yd = sample_desired_state("ex1", mesh, TimeGrid(5))
    assert np.linalg.matrix_rank(yd) == 1


def test_desired_state_second_example_and_unknown_name():
    mesh = build_mesh(3)
    grid = TimeGrid(2)
    yd = sample_desired_state("ex2", mesh, grid)
    mid = np.where((mesh.nodes[:, 0] == 0.5) & (mesh.nodes[:, 1] == 0.5))[0]
    if mid.size:
        assert yd[mid[0], 0] == pytest.approx(1.0)
    # tables enter through the CLI's --yd-file, not here
    for name in ("nope", "file"):
        with pytest.raises(ValueError, match="unknown desired-state example"):
            sample_desired_state(name, mesh, grid)


# ---------------------------------------------------------------------------
# low-rank compression of the target


def test_lowrank_desired_rank_one_exact():
    rng = np.random.default_rng(0)
    yd = np.outer(rng.standard_normal(10), rng.standard_normal(4))
    lr = lowrank_desired(yd, 1e-12)
    assert lr.rank == 1
    assert np.linalg.norm(lr.to_dense() - yd) <= 1e-12 * np.linalg.norm(yd)


def test_lowrank_desired_zero_input():
    lr = lowrank_desired(np.zeros((6, 3)), 1e-10)
    assert lr.rank == 0
    assert np.array_equal(lr.to_dense(), np.zeros((6, 3)))


def test_lowrank_desired_rank_three_against_svd_oracle():
    rng = np.random.default_rng(8)
    yd = rng.standard_normal((30, 3)) @ rng.standard_normal((3, 12))
    lr = lowrank_desired(yd, 1e-10)
    assert lr.rank == 3
    assert np.linalg.norm(lr.to_dense() - yd) <= 1e-10 * np.linalg.norm(yd)


# ---------------------------------------------------------------------------
# config validation


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        ProblemConfig(sigma=1.0, beta=0.0)
    with pytest.raises(ValueError):
        ProblemConfig(sigma=-1.0, beta=1.0)
    with pytest.raises(ValueError):
        ProblemConfig(sigma=1.0, beta=1.0, eps_reg=-1e-3)
    with pytest.raises(ValueError):
        TimeGrid(0)


@pytest.mark.parametrize("field", ["sigma", "beta", "nu", "eps_reg", "shift", "tol", "trunc_tol"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_config_rejects_non_finite_values(field, value):
    # NaN slips through every range check, and tol = inf certifies any residual
    settings = {"sigma": 1.0, "beta": 1.0, field: value}
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        ProblemConfig(**settings)


def test_config_defaults_and_shift_rule():
    cfg = ProblemConfig(sigma=1.0, beta=1e-4, nu=2.0)
    assert cfg.eps_reg == pytest.approx(2e-6)
    assert cfg.stiffness_is_pd
    assert cfg.resolve_shift() == 0.0
    bare = ProblemConfig(sigma=1.0, beta=1e-4, nu=2.0, eps_reg=0.0)
    assert not bare.stiffness_is_pd
    assert bare.resolve_shift() == 2.0
    pinned = ProblemConfig(sigma=1.0, beta=1e-4, shift=0.5)
    assert pinned.resolve_shift() == 0.5


def test_space_operators_size_is_that_of_the_mass():
    mesh = build_mesh(3)
    m = assemble_mass(mesh)
    k = _stiffness(mesh)
    assert SpaceOperators(m, k).n == m.shape[0] == mesh.n_nodes


# ---------------------------------------------------------------------------
# the store of shifted factors and spaces


def test_shifted_factors_are_evicted_least_recently_used(monkeypatch):
    ops = build_operators(build_mesh(4), ProblemConfig(sigma=1.0, beta=1.0))
    calls = []
    factorize = discretize.sparse_spd_factorize

    def spy(a):
        calls.append(a)
        return factorize(a)

    monkeypatch.setattr(discretize, "sparse_spd_factorize", spy)
    rhs = np.random.default_rng(0).standard_normal((ops.n, 3))
    first = ops.shifted_factor(0.5).solve(rhs)
    for k in range(100):
        ops.shifted_factor(1.0 + k)
        assert len(ops._store) <= CACHE_ENTRIES
    assert len(calls) == 101
    ops.shifted_factor(100.0)  # among the most recent: still kept
    assert len(calls) == 101
    # the first shift was evicted long ago: it is factored again, to the same bits
    np.testing.assert_array_equal(ops.shifted_factor(0.5).solve(rhs), first)
    assert len(calls) == 102
    assert len(ops._store) == CACHE_ENTRIES


def test_shifted_factor_of_an_indefinite_stiffness_says_what_to_change():
    eye = sp.identity(4, format="csr")
    ops = SpaceOperators(eye, -eye)
    with pytest.raises(NotSpdError) as err:
        ops.shifted_factor(0.0)
    assert "shift" in str(err.value)
    # the kernel's own reason survives the re-raise
    assert "the pivot of row" in str(err.value)
