import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from eddyopt.discretize import (
    ProblemConfig,
    SpaceOperators,
    TimeGrid,
    build_mesh,
    build_operators,
    lowrank_desired,
    sample_desired_state,
)
from eddyopt import skpik
from eddyopt.lacore import (
    LowRankMatrix,
    StagnationError,
    SylvesterConditionError,
    real_schur,
    truncated_svd,
    truncation_rank,
)
from eddyopt.reformulate import (
    assemble_kkt_dense,
    build_B,
    build_sylvester_problem,
    extract_solution,
    solve_kkt_dense,
    time_coefficients,
    time_difference_matrix,
)
from eddyopt.skpik import (
    PHASES,
    STAGNATION_FACTOR,
    STAGNATION_LEVEL,
    STAGNATION_WINDOW,
    TimeSideSolver,
    factored_residual,
    skpik_init,
    skpik_solve,
    skpik_sweep,
    truncation_residuals,
)

from oracles import kron_sylvester_solve


def _identity_ops(n):
    eye = sp.identity(n, format="csr")
    return SpaceOperators(eye, eye, n)


def _problem(ops, config, grid, yd, rhs_tol=1e-14):
    return build_sylvester_problem(ops, config, grid, lowrank_desired(yd, rhs_tol))


def _mesh_problem(cells=2, m_t=2, sigma=1.0, beta=1.0, **kw):
    mesh = build_mesh(cells)
    config = ProblemConfig(sigma=sigma, beta=beta, **kw)
    grid = TimeGrid(m_t)
    ops = build_operators(mesh, config)
    yd = sample_desired_state("ex1", mesh, grid)
    return ops, config, grid, yd


def _dense_a(ops, shift):
    return np.linalg.solve(ops.mass.toarray(), ops.stiffness.toarray()) + shift * np.eye(ops.n)


# ---------------------------------------------------------------------------
# initialization


def test_init_scalar_space_deflates_to_dimension_one():
    ops = _identity_ops(1)
    config = ProblemConfig(sigma=1.0, beta=1.0, reg_kind=0, shift=0.0)
    grid = TimeGrid(1)
    problem = _problem(ops, config, grid, np.array([[2.0]]))
    state = skpik_init(problem)
    assert state.dims[0] == 1
    assert np.allclose(np.abs(state.basis), [[1.0]])


def test_init_identity_operator_keeps_only_rhs_span():
    ops = _identity_ops(6)
    config = ProblemConfig(sigma=1.0, beta=1.0, reg_kind=0, shift=0.0)
    grid = TimeGrid(2)
    rng = np.random.default_rng(5)
    yd = np.linalg.qr(rng.standard_normal((6, 2)))[0]
    problem = _problem(ops, config, grid, yd)
    state = skpik_init(problem)
    # the inverse images coincide with the seed block for the identity map
    assert state.dims[0] == problem.r1.shape[1]


def test_init_span_contains_rhs_factor():
    ops, config, grid, yd = _mesh_problem(cells=3, m_t=3, sigma=0.5, beta=0.01)
    problem = _problem(ops, config, grid, yd)
    state = skpik_init(problem)
    u = state.basis
    assert np.linalg.norm(problem.r1 - u @ (u.T @ problem.r1)) <= 1e-12
    assert np.linalg.norm(u.T @ u - np.eye(u.shape[1])) <= 1e-12


# ---------------------------------------------------------------------------
# factored residual


def test_factored_residual_zero_candidate_is_one():
    ops, config, grid, yd = _mesh_problem()
    problem = _problem(ops, config, grid, yd)
    res = factored_residual(np.zeros((ops.n, 0)), np.zeros((2 * grid.m_t, 0)), problem)
    assert res == 1.0


def test_factored_residual_exact_solution_is_tiny():
    ops, config, grid, yd = _mesh_problem(cells=1, m_t=2, sigma=1.0, beta=0.5)
    problem = _problem(ops, config, grid, yd)
    a_dense = _dense_a(ops, problem.shift)
    x = kron_sylvester_solve(a_dense, problem.b_matrix.toarray(), problem.r1 @ problem.r2.T)
    u_, s_, vt_ = np.linalg.svd(x, full_matrices=False)
    res = factored_residual(u_ * s_, vt_.T, problem)
    assert res <= 1e-12


def test_factored_residual_matches_naive_dense_evaluation():
    rng = np.random.default_rng(2)
    ops, config, grid, yd = _mesh_problem(cells=4, m_t=4, sigma=0.7, beta=0.04)
    problem = _problem(ops, config, grid, yd)
    a_dense = _dense_a(ops, problem.shift)
    b_dense = problem.b_matrix.toarray()
    r_dense = problem.r1 @ problem.r2.T
    for _ in range(4):
        x1 = rng.standard_normal((ops.n, 8))
        x2 = rng.standard_normal((2 * grid.m_t, 8))
        fast = factored_residual(x1, x2, problem)
        dense = np.linalg.norm(
            a_dense @ (x1 @ x2.T) + (x1 @ x2.T) @ b_dense - r_dense
        ) / np.linalg.norm(r_dense)
        assert abs(fast - dense) <= 1e-13 * dense


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_scalar_closed_form_first_sweep_exact():
    # one spatial unknown, one time step: the spaces close immediately and
    # the first sweep hits the exact solution (0.1, 0.3) * target
    ops = _identity_ops(1)
    ops = SpaceOperators(ops.mass, sp.csr_matrix(np.array([[2.0]])), 1)
    config = ProblemConfig(sigma=1.0, beta=1.0, reg_kind=0, shift=0.0)
    grid = TimeGrid(1)
    target = 3.0
    problem = _problem(ops, config, grid, np.array([[target]]))
    state = skpik_init(problem)
    skpik_sweep(state, problem)
    x = state.basis @ state.z
    assert np.allclose(x, [[0.1 * target, 0.3 * target]], atol=1e-12)
    assert state.residual_history[-1] <= 1e-12
    # oracle: the vectorized solve of the same equation
    a_dense = _dense_a(ops, 0.0)
    x_oracle = kron_sylvester_solve(
        a_dense, problem.b_matrix.toarray(), problem.r1 @ problem.r2.T
    )
    assert np.allclose(x, x_oracle, atol=1e-13)


def test_sweep_raises_on_exhausted_spaces():
    # identity operators on a single unknown: both spaces close at once
    ops = _identity_ops(1)
    config = ProblemConfig(sigma=1.0, beta=1.0, reg_kind=0, shift=0.0)
    grid = TimeGrid(1)
    problem = _problem(ops, config, grid, np.array([[1.0]]))
    state = skpik_init(problem)
    skpik_sweep(state, problem)  # solves exactly on the full space
    assert state.residual_history[-1] <= 1e-12
    with pytest.raises(StagnationError):
        skpik_sweep(state, problem)


def test_zero_rhs_returns_zero_factors_no_sweeps():
    ops, config, grid, _ = _mesh_problem()
    problem = _problem(ops, config, grid, np.zeros((ops.n, grid.m_t)))
    x, report = skpik_solve(problem)
    assert x.rank == 0
    assert report.iterations == 0
    assert report.converged
    assert report.absolute_residual
    assert report.extra["stop_reason"] == "converged"


@pytest.mark.parametrize(
    "cells, m_t, sigma, beta",
    [(2, 2, 1.0, 1.0), (3, 3, 0.5, 0.01), (4, 5, 1e-4, 1e-6), (5, 4, 1e4, 1e-3)],
)
def test_recorded_history_matches_dense_residual(cells, m_t, sigma, beta):
    # the projected residual recorded per sweep is the true residual of U z
    ops, config, grid, yd = _mesh_problem(cells=cells, m_t=m_t, sigma=sigma, beta=beta)
    problem = _problem(ops, config, grid, yd)
    a_dense = _dense_a(ops, problem.shift)
    b_dense = problem.b_matrix.toarray()
    r_dense = problem.r1 @ problem.r2.T
    state = skpik_init(problem)
    for _ in range(4):
        try:
            skpik_sweep(state, problem)
        except StagnationError:
            break
        x = state.basis @ state.z
        dense = np.linalg.norm(a_dense @ x + x @ b_dense - r_dense) / np.linalg.norm(r_dense)
        assert abs(state.residual_history[-1] - dense) <= 1e-13


def test_sweep_galerkin_orthogonality_and_nesting():
    ops, config, grid, yd = _mesh_problem(cells=3, m_t=4, sigma=1.0, beta=1e-3)
    problem = _problem(ops, config, grid, yd)
    a_dense = _dense_a(ops, problem.shift)
    b_dense = problem.b_matrix.toarray()
    r_dense = problem.r1 @ problem.r2.T
    state = skpik_init(problem)
    prev_u = state.basis.copy()
    for _ in range(3):
        skpik_sweep(state, problem)
        u = state.basis
        assert np.linalg.norm(u.T @ u - np.eye(u.shape[1])) <= 1e-10
        xt = u @ state.z
        projected = u.T @ (a_dense @ xt + xt @ b_dense - r_dense)
        assert np.linalg.norm(projected) <= 1e-10 * np.linalg.norm(r_dense)
        # nesting: the previous space sits inside the new one
        assert np.linalg.norm(prev_u - u @ (u.T @ prev_u)) <= 1e-12
        prev_u = u.copy()


def test_subspace_growth_bound():
    ops, config, grid, yd = _mesh_problem(cells=4, m_t=8, sigma=1.0, beta=1e-4)
    problem = _problem(ops, config, grid, yd)
    r = problem.r1.shape[1]
    state = skpik_init(problem)
    assert state.dims[0] <= 2 * r
    for m in range(1, 5):
        skpik_sweep(state, problem)
        assert state.dims[0] <= 2 * r * (m + 1)


# ---------------------------------------------------------------------------
# full solves


def test_solve_identity_operator_converges_fast():
    ops = _identity_ops(12)
    config = ProblemConfig(sigma=1.0, beta=1.0, reg_kind=0, shift=0.0)
    grid = TimeGrid(1)
    rng = np.random.default_rng(8)
    yd = rng.standard_normal((12, 1))
    problem = _problem(ops, config, grid, yd)
    x, report = skpik_solve(problem, tol=1e-10, trunc_tol=1e-13)
    assert report.converged
    assert report.iterations <= 2
    a_dense = np.eye(12)
    x_oracle = kron_sylvester_solve(
        a_dense, problem.b_matrix.toarray(), problem.r1 @ problem.r2.T
    )
    assert np.linalg.norm(x.to_dense() - x_oracle) <= 1e-9 * np.linalg.norm(x_oracle)


def test_solve_matches_dense_oracle_tiny():
    ops, config, grid, yd = _mesh_problem(cells=4, m_t=4, sigma=1.0, beta=1e-2)
    problem = _problem(ops, config, grid, yd, rhs_tol=1e-12)
    x, report = skpik_solve(problem, tol=1e-8, trunc_tol=1e-12)
    assert report.converged
    y, u, lam = extract_solution(x, config.beta)
    y_o, u_o, lam_o = solve_kkt_dense(
        assemble_kkt_dense(ops, config, grid, yd), config.beta
    )
    assert np.linalg.norm(y.to_dense() - y_o) <= 1e-6 * np.linalg.norm(y_o)
    assert np.linalg.norm(u.to_dense() - u_o) <= 1e-6 * np.linalg.norm(u_o)
    assert np.linalg.norm(lam.to_dense() - lam_o) <= 1e-6 * np.linalg.norm(lam_o)


def test_solve_exactness_when_spaces_fill_up():
    ops, config, grid, yd = _mesh_problem(cells=1, m_t=1, sigma=2.0, beta=0.5)
    problem = _problem(ops, config, grid, yd)
    x, report = skpik_solve(problem, tol=1e-12, trunc_tol=1e-14, max_sweeps=50)
    a_dense = _dense_a(ops, problem.shift)
    x_oracle = kron_sylvester_solve(
        a_dense, problem.b_matrix.toarray(), problem.r1 @ problem.r2.T
    )
    assert np.linalg.norm(x.to_dense() - x_oracle) <= 1e-10 * np.linalg.norm(x_oracle)


def test_solve_shift_invariance():
    base = _mesh_problem(cells=2, m_t=2, sigma=1.0, beta=0.1, shift=0.0, eps_reg=1e-2)
    shifted = _mesh_problem(cells=2, m_t=2, sigma=1.0, beta=0.1, shift=2.0, eps_reg=1e-2)
    xs = []
    for ops, config, grid, yd in (base, shifted):
        problem = _problem(ops, config, grid, yd)
        x, report = skpik_solve(problem, tol=1e-10, trunc_tol=1e-13)
        assert report.converged
        xs.append(x.to_dense())
    assert np.linalg.norm(xs[0] - xs[1]) <= 1e-8 * np.linalg.norm(xs[0])


def test_solve_nonconvergence_flag_on_sweep_budget():
    ops, config, grid, yd = _mesh_problem(cells=4, m_t=8, sigma=1e-4, beta=1e-6)
    problem = _problem(ops, config, grid, yd)
    x, report = skpik_solve(problem, tol=1e-12, trunc_tol=1e-14, max_sweeps=1)
    assert not report.converged
    assert report.iterations == 1
    assert report.residual > 0
    assert report.extra["stop_reason"] == "max_sweeps"


def test_solve_rejects_empty_sweep_budget():
    ops, config, grid, yd = _mesh_problem()
    problem = _problem(ops, config, grid, yd)
    with pytest.raises(ValueError, match="max_sweeps"):
        skpik_solve(problem, max_sweeps=0)


def test_solve_stop_reason_stagnation():
    # below the attainable accuracy that eps_reg sets on a 289-node mesh the
    # residual creeps: without the stop this runs 144 sweeps until the space closes
    ops, config, grid, yd = _mesh_problem(cells=16, m_t=20, sigma=1.0, beta=1e-4)
    problem = _problem(ops, config, grid, yd, rhs_tol=config.trunc_tol)
    x, report = skpik_solve(problem, tol=1e-12, trunc_tol=config.trunc_tol)
    assert report.extra["stop_reason"] == "stagnation"
    assert not report.converged
    assert report.iterations <= 40
    history = report.residual_history
    assert history[-1] * STAGNATION_FACTOR > history[-1 - STAGNATION_WINDOW]
    assert abs(report.residual - factored_residual(x.left, x.right, problem)) <= 1e-14


def test_solve_plateau_above_stagnation_level_is_not_cut():
    # a rank-3 target on the 3025-node mesh: the residual holds near 1.5e-6
    # for about 20 sweeps and then converges; the stall lies above
    # STAGNATION_LEVEL, so it must not be taken for stagnation
    cells, m_t = 54, 50
    mesh = build_mesh(cells)
    config = ProblemConfig(sigma=1e-4, beta=1e-2)
    ops = build_operators(mesh, config)
    x1, x2 = mesh.nodes[:, 0], mesh.nodes[:, 1]
    t = np.arange(1, m_t + 1) / m_t
    modes = [(1, 1), (2, 1), (1, 3)]
    yd = sum(
        np.outer(np.sin(k * np.pi * x1) * np.sin(l * np.pi * x2), np.cos((j + 1) * np.pi * t + phi))
        for j, ((k, l), phi) in enumerate(zip(modes, (0.4, 1.3, 2.2)))
    )
    problem = _problem(ops, config, TimeGrid(m_t), yd, rhs_tol=config.trunc_tol)
    _, report = skpik_solve(problem, config.tol, config.trunc_tol)
    assert report.converged and report.extra["stop_reason"] == "converged"
    history = report.residual_history
    stalled = [
        k
        for k in range(STAGNATION_WINDOW, len(history))
        if history[k] * STAGNATION_FACTOR > history[k - STAGNATION_WINDOW]
    ]
    assert stalled and min(history[k] for k in stalled) > STAGNATION_LEVEL


def test_solve_stop_reason_space_exhausted():
    # a 4-node mesh: the left space closes within a few sweeps, and a
    # tolerance below rounding level cannot be met on it
    ops, config, grid, yd = _mesh_problem(cells=1, m_t=2, sigma=1.0, beta=0.5)
    problem = _problem(ops, config, grid, yd)
    x, report = skpik_solve(problem, tol=1e-30, trunc_tol=1e-14, max_sweeps=50)
    assert not report.converged
    assert report.extra["stop_reason"] == "space_exhausted"
    assert report.iterations < 50
    assert report.subspace[0] <= ops.n
    assert abs(report.residual - factored_residual(x.left, x.right, problem)) <= 1e-14


def test_report_fields_consistent():
    ops, config, grid, yd = _mesh_problem(cells=3, m_t=4, sigma=1.0, beta=1e-2)
    problem = _problem(ops, config, grid, yd)
    x, report = skpik_solve(problem, tol=1e-8, trunc_tol=1e-12)
    assert report.converged
    assert report.extra["stop_reason"] == "converged"
    assert report.residual <= 1e-8
    assert report.rank == x.rank
    assert report.subspace == (report.subspace[0], 2 * grid.m_t)
    assert report.subspace[0] > 0
    # the reported residual is exactly the factored residual of the stored x
    assert abs(report.residual - factored_residual(x.left, x.right, problem)) <= 1e-14
    assert len(report.residual_history) == report.iterations


def test_report_phases_cover_the_solve():
    ops, config, grid, yd = _mesh_problem(cells=3, m_t=4, sigma=1.0, beta=1e-2)
    problem = _problem(ops, config, grid, yd)
    _, report = skpik_solve(problem, tol=1e-8)
    phases = report.extra["phases"]
    assert tuple(phases) == PHASES
    assert all(v >= 0.0 for v in phases.values())
    assert phases["extend"] > 0.0 and phases["certify"] > 0.0
    assert sum(phases.values()) <= report.seconds


def test_extended_basis_grows_in_place():
    # U and A U are views of column-major buffers, and each prefix holds what
    # a sweep on its leading columns needs, computed from those columns alone
    ops, config, grid, yd = _mesh_problem(cells=4, m_t=3, sigma=1.0, beta=1e-2)
    problem = _problem(ops, config, grid, yd)
    state = skpik_init(problem)
    space = state.space
    prefixes = [space.prefix(j, problem, state.phases) for j in range(7)]
    u = space.basis
    assert u.base is not None and space.image.base is not None
    assert u.flags.f_contiguous and space.image.flags.f_contiguous
    dims = [p.dim for p in prefixes]
    assert dims == sorted(dims) and dims[-1] == space.dim
    assert np.linalg.norm(u.T @ u - np.eye(space.dim)) <= 1e-12
    np.testing.assert_allclose(space.image, problem.apply_a(u), rtol=0, atol=1e-12)
    for prefix in prefixes:
        uk = u[:, : prefix.dim]
        a_uk = problem.apply_a(uk)
        np.testing.assert_allclose(prefix.t_a, uk.T @ a_uk, rtol=0, atol=1e-12)
        q, schur = prefix.schur
        np.testing.assert_allclose(q @ schur @ q.T, prefix.t_a, rtol=0, atol=1e-10)
        rest = a_uk - uk @ prefix.t_a  # (I - U U^T) A U of this prefix
        np.testing.assert_allclose(prefix.r.T @ prefix.r, rest.T @ rest, rtol=0, atol=1e-9)


# ---------------------------------------------------------------------------
# one extended space per operator set, shift and target range

# on 16 nodes at tol 1e-12 some points converge and some exhaust the space
_SHARED_CELLS, _SHARED_TOL = 3, 1e-12
_SHARED_POINTS = [
    (m_t, sigma, beta) for m_t in (1, 4) for sigma in (0.0, 1.0, 1e4) for beta in (1e-2, 1e-8)
]


def _shared_solve(ops, point):
    m_t, sigma, beta = point
    config = ProblemConfig(sigma=sigma, beta=beta)
    yd = sample_desired_state("ex1", build_mesh(_SHARED_CELLS), TimeGrid(m_t))
    problem = build_sylvester_problem(
        ops, config, TimeGrid(m_t), lowrank_desired(yd, config.trunc_tol)
    )
    return skpik_solve(problem, _SHARED_TOL, config.trunc_tol)


def _fresh_ops():
    return build_operators(build_mesh(_SHARED_CELLS), ProblemConfig(sigma=1.0, beta=1.0))


_FRESH = {}


def _fresh_solve(point):
    if point not in _FRESH:
        _FRESH[point] = _shared_solve(_fresh_ops(), point)
    return _FRESH[point]


@settings(max_examples=25, deadline=None)
@given(points=st.permutations(_SHARED_POINTS).flatmap(
    lambda order: st.integers(1, len(order)).map(lambda k: order[:k])
))
def test_shared_space_solves_match_fresh_operators_bit_for_bit(points):
    ops = _fresh_ops()
    for point in points:
        x, report = _shared_solve(ops, point)
        x_ref, ref = _fresh_solve(point)
        assert report.residual_history == ref.residual_history, point
        assert (report.iterations, report.rank, report.residual) == (
            ref.iterations, ref.rank, ref.residual
        ), point
        assert report.extra["stop_reason"] == ref.extra["stop_reason"]
        np.testing.assert_array_equal(x.left, x_ref.left)
        np.testing.assert_array_equal(x.right, x_ref.right)


def test_shared_space_survives_eviction(monkeypatch):
    # with room for one entry the factor and the spaces evict each other all
    # the time; each is rebuilt to the same bits
    monkeypatch.setattr("eddyopt.discretize.CACHE_ENTRIES", 1)
    ops = _fresh_ops()
    for point in _SHARED_POINTS[::-1]:
        x, report = _shared_solve(ops, point)
        x_ref, ref = _fresh_solve(point)
        assert report.residual_history == ref.residual_history, point
        np.testing.assert_array_equal(x.left, x_ref.left)
        np.testing.assert_array_equal(x.right, x_ref.right)
    assert len(ops._store) == 1


def test_second_solve_of_a_group_reuses_the_space():
    # the first point needs the most sweeps; the others run on its prefixes
    mesh = build_mesh(4)
    ops = build_operators(mesh, ProblemConfig(sigma=1.0, beta=1.0))
    grid = TimeGrid(5)
    yd = sample_desired_state("ex1", mesh, grid)
    columns, reports = [], []
    for sigma, beta in ((1e-4, 1e-2), (1.0, 1e-2), (1e4, 1e-6)):
        config = ProblemConfig(sigma=sigma, beta=beta)
        problem = build_sylvester_problem(ops, config, grid, lowrank_desired(yd, config.trunc_tol))
        count = {"a": 0, "a_inv": 0}

        def counted(key, fn):
            def apply(v):
                count[key] += v.shape[1]
                return fn(v)

            return apply

        problem.apply_a = counted("a", problem.apply_a)
        problem.apply_a_inv = counted("a_inv", problem.apply_a_inv)
        _, report = skpik_solve(problem, config.tol, config.trunc_tol)
        assert report.converged
        columns.append(count)
        reports.append(report)
    assert reports[0].iterations >= max(r.iterations for r in reports[1:])
    assert columns[0]["a_inv"] > 0
    for count, report in zip(columns[1:], reports[1:]):
        assert count["a_inv"] == 0
        # A is applied only to certify the returned factors
        assert count["a"] == report.rank
        phases = report.extra["phases"]
        assert phases["extend"] == phases["project"] == phases["residual"] == 0.0
        assert phases["time_side"] > 0.0


# ---------------------------------------------------------------------------
# rank rule: the smallest rank up to the cap that certifies tol


def _replay(problem, sweeps):
    """The state skpik_solve ends in after the given number of sweeps."""
    state = skpik_init(problem)
    for _ in range(sweeps):
        skpik_sweep(state, problem)
    return state


def _block_error_ok(s, qt, k, m_t, tol):
    """Does truncating the SVD s, qt to rank k keep both time blocks within tol?"""
    for block in (slice(0, m_t), slice(m_t, 2 * m_t)):
        share = s * np.linalg.norm(qt[:, block], axis=1)
        if np.linalg.norm(share[k:]) > tol * np.linalg.norm(share):
            return False
    return True


@pytest.mark.parametrize(
    "cells, m_t, sigma, beta",
    [(2, 2, 1.0, 1.0), (3, 3, 0.5, 0.01), (4, 5, 1e-4, 1e-6), (5, 4, 1e4, 1e-3)],
)
def test_truncation_residuals_match_dense_residual(cells, m_t, sigma, beta):
    # the projected residual of every truncation U z_k is its true residual
    ops, config, grid, yd = _mesh_problem(cells=cells, m_t=m_t, sigma=sigma, beta=beta)
    problem = _problem(ops, config, grid, yd)
    a_dense = _dense_a(ops, problem.shift)
    b_dense = problem.b_matrix.toarray()
    r_dense = problem.r1 @ problem.r2.T
    state = skpik_init(problem)
    for _ in range(3):
        try:
            skpik_sweep(state, problem)
        except StagnationError:
            break
        p, s, qt = np.linalg.svd(state.z, full_matrices=False)
        projected = list(truncation_residuals(state, problem, p, s, qt))
        assert len(projected) == s.size
        for k, res in enumerate(projected, 1):
            x = state.basis @ (p[:, :k] * s[:k]) @ qt[:k]
            dense = np.linalg.norm(a_dense @ x + x @ b_dense - r_dense) / np.linalg.norm(r_dense)
            assert abs(res - dense) <= 1e-13
        # at full rank the truncation is the iterate, whose residual the history holds
        assert abs(projected[-1] - state.residual_history[-1]) <= 1e-13


@settings(max_examples=40, deadline=None)
@given(
    cells=st.integers(2, 4),
    sigma=st.sampled_from([0.0, 1e-4, 1.0, 1e4]),
    log_beta=st.floats(-8.0, -2.0),
    m_t=st.integers(1, 20),
)
def test_rank_rule_property(cells, sigma, log_beta, m_t):
    tol, trunc_tol = 1e-6, 1e-10
    ops, config, grid, yd = _mesh_problem(cells=cells, m_t=m_t, sigma=sigma, beta=10.0**log_beta)
    problem = _problem(ops, config, grid, yd)
    x, report = skpik_solve(problem, tol, trunc_tol)
    state = _replay(problem, report.iterations)
    p, s, qt = np.linalg.svd(state.z, full_matrices=False)
    k_cap = truncation_rank(s, trunc_tol)
    k = report.rank
    assert k <= k_cap
    if report.converged:
        assert report.residual <= tol
        assert abs(report.residual - factored_residual(x.left, x.right, problem)) <= 1e-14
    if report.converged and k < k_cap:
        # the scan's rank was certified: it meets tol, and k - 1 does not
        projected = list(truncation_residuals(state, problem, p[:, :k], s[:k], qt[:k]))
        assert projected[-1] <= tol and _block_error_ok(s, qt, k, m_t, tol)
        if k > 1:
            assert projected[-2] > tol or not _block_error_ok(s, qt, k - 1, m_t, tol)


def test_rank_rule_keeps_sweeps_and_stop_reasons_of_the_cap_rule(monkeypatch):
    cases = [
        (cells, m_t, sigma, beta, tol, max_sweeps)
        for cells, m_t in ((4, 4), (6, 8))
        for sigma in (1e-4, 1.0, 1e4)
        for beta in (1e-2, 1e-6)
        for tol, max_sweeps in ((1e-6, 500), (1e-10, 6))
    ]

    def solve_all():
        out = []
        for cells, m_t, sigma, beta, tol, max_sweeps in cases:
            ops, config, grid, yd = _mesh_problem(cells=cells, m_t=m_t, sigma=sigma, beta=beta)
            problem = _problem(ops, config, grid, yd)
            out.append(skpik_solve(problem, tol, 1e-10, max_sweeps)[1])
        return out

    reports = solve_all()

    def cap_compress(state, problem, tol, trunc_tol):
        x = truncated_svd(LowRankMatrix(state.basis, state.z.T), trunc_tol)
        return x, factored_residual(x.left, x.right, problem)

    monkeypatch.setattr(skpik, "_compress", cap_compress)
    capped = solve_all()
    assert {r.extra["stop_reason"] for r in reports} >= {"converged", "max_sweeps"}
    for r, c in zip(reports, capped):
        assert r.iterations == c.iterations
        assert r.extra["stop_reason"] == c.extra["stop_reason"]
        assert r.residual_history == c.residual_history
        assert r.converged == c.converged
        assert r.rank <= c.rank
    assert sum(r.rank for r in reports) < sum(c.rank for c in capped)


# ---------------------------------------------------------------------------
# exact time-side solve


def _shifted_b(sigma, m_t, beta, shift):
    b = build_B(sigma, 1.0 / m_t, beta, m_t)
    return (b - shift * sp.identity(2 * m_t)).tocsr()


def _time_side(sigma, m_t, beta, shift):
    return TimeSideSolver(*time_coefficients(sigma, 1.0 / m_t, beta), shift, m_t)


@pytest.mark.parametrize(
    "m_t, sigma, beta, shift",
    [(1, 1.0, 0.5, 0.0), (1, 0.0, 1e-2, 0.7), (5, 1.0, 1e-2, 0.0), (12, 0.3, 1e-4, 1.5)],
)
def test_time_side_solve_matches_kronecker_oracle(m_t, sigma, beta, shift):
    rng = np.random.default_rng(m_t)
    # quasi-triangular part with the complex-conjugate pair 2 +- 0.5i, conjugated
    # by a random orthogonal matrix so the Schur form has to be computed
    t = np.diag([2.0, 2.0, 5.0, 0.8, 11.0])
    t[0, 1], t[1, 0] = 0.5, -0.5
    t += np.triu(rng.standard_normal((5, 5)), 2)
    q = np.linalg.qr(rng.standard_normal((5, 5)))[0]
    t = q @ t @ q.T + shift * np.eye(5)
    b = _shifted_b(sigma, m_t, beta, shift)
    c = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 2 * m_t))
    solver = _time_side(sigma, m_t, beta, shift)
    z = solver.solve(real_schur(t), c)
    assert z.dtype == np.float64
    z_oracle = kron_sylvester_solve(t, b.toarray(), c)
    assert np.linalg.norm(z - z_oracle) <= 1e-12 * np.linalg.norm(z_oracle)


@st.composite
def _ritz_pairs_matrix(draw):
    """A random t with 1-2 complex-conjugate Ritz pairs and 0-2 real values, Re > 0."""
    pairs = draw(st.integers(1, 2))
    reals = draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = []
    for _ in range(pairs):
        re = 10.0 ** rng.uniform(-1, 1)
        up, down = 10.0 ** rng.uniform(-1, 1, 2)  # eigenvalues re +- i sqrt(up down)
        blocks.append(np.array([[re, up], [-down, re]]))
    blocks += [np.array([[10.0 ** rng.uniform(-1, 1)]]) for _ in range(reals)]
    t = scipy.linalg.block_diag(*blocks)
    k = t.shape[0]
    t += np.triu(rng.standard_normal((k, k)), 2)
    q = np.linalg.qr(rng.standard_normal((k, k)))[0]
    return q @ t @ q.T


@settings(max_examples=150, deadline=None)
@given(
    t=_ritz_pairs_matrix(),
    sigma=st.sampled_from([0.0, 1e-4, 1.0, 1e4]),
    log_beta=st.floats(-8.0, 0.0),
    m_t=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_time_side_property_matches_kronecker_oracle(t, sigma, log_beta, m_t, seed):
    b = build_B(sigma, 1.0 / m_t, 10.0**log_beta, m_t)
    c = np.random.default_rng(seed).standard_normal((t.shape[0], 2 * m_t))
    z = _time_side(sigma, m_t, 10.0**log_beta, 0.0).solve(real_schur(t), c)
    z_oracle = kron_sylvester_solve(t, b.toarray(), c)
    assert np.linalg.norm(z - z_oracle) <= 1e-10 * np.linalg.norm(z_oracle)


def test_time_side_solve_on_projected_operator_with_complex_ritz_pair():
    # after six sweeps on this shifted problem, U^T A U has a complex pair
    ops, config, grid, yd = _mesh_problem(
        cells=6, m_t=4, sigma=1.0, beta=1e-2, shift=1.0, eps_reg=1e-2
    )
    problem = _problem(ops, config, grid, yd)
    state = skpik_init(problem)
    for _ in range(6):
        skpik_sweep(state, problem)
    assert np.abs(np.linalg.eigvals(state.prefix.t_a).imag).max() > 1.0
    c = state.r1_proj @ problem.r2.T
    z = state.time_side.solve(state.prefix.schur, c)
    z_oracle = kron_sylvester_solve(state.prefix.t_a, problem.b_matrix.toarray(), c)
    assert np.linalg.norm(z - z_oracle) <= 1e-12 * np.linalg.norm(z_oracle)


def test_time_side_reduction_gives_two_tridiagonal_blocks():
    # the system of order 2 m_t that one shift solves is
    # diag(L^T L + w^2 I, L L^T + w^2 I) with L = (theta - shift) I + g C
    m_t, sigma, beta, shift, theta = 6, 1.0, 1e-4, 0.3, 2.5
    solver = _time_side(sigma, m_t, beta, shift)
    g, w = time_coefficients(sigma, 1.0 / m_t, beta)
    p = theta - shift + g
    tri = np.diag(solver.diag + p * p) + np.diag(p * solver.off, 1) + np.diag(p * solver.off, -1)
    ell = (theta - shift) * np.eye(m_t) + g * time_difference_matrix(m_t).toarray()
    expected = scipy.linalg.block_diag(
        ell.T @ ell + w * w * np.eye(m_t), ell @ ell.T + w * w * np.eye(m_t)
    )
    assert np.allclose(tri, expected, rtol=1e-14, atol=0.0)
    assert solver.off[m_t - 1] == 0.0


@pytest.mark.parametrize("sigma", [1e-4, 1.0, 1e4])
@pytest.mark.parametrize("beta", [1e-2, 1e-8])
def test_time_side_extreme_coefficients_match_dense_solve(sigma, beta):
    # the desk's largest time grid and its extreme sigma and beta, over the
    # range of Ritz values the desk sees: the reduction squares the
    # conditioning of L, and still meets 1e-10 against a direct solve
    m_t = 400
    rng = np.random.default_rng(3)
    solver = _time_side(sigma, m_t, beta, 0.0)
    bt = build_B(sigma, 1.0 / m_t, beta, m_t).toarray().T
    for theta in np.logspace(-6, 5, 12):
        f = rng.standard_normal(2 * m_t)
        x = solver.solve(real_schur(np.array([[theta]])), f[None])[0]
        ref = np.linalg.solve(theta * np.eye(2 * m_t) + bt, f)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref), theta


def test_time_side_singular_shift_raises():
    # sigma = 0, beta = 1: B^T - 0.5 I has eigenvalues -0.5 +- i, which the
    # Ritz pair 0.5 -+ i of t cancels exactly
    solver = _time_side(0.0, 1, 1.0, 0.5)
    t = np.array([[0.5, 1.0], [-1.0, 0.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the solver raises from LAPACK's info, no numpy warning
        with pytest.raises(SylvesterConditionError):
            solver.solve(real_schur(t), np.ones((2, 2)))


def test_sweep_galerkin_condition_holds_on_whole_time_axis():
    ops, config, grid, yd = _mesh_problem(cells=3, m_t=6, sigma=1.0, beta=1e-2)
    problem = _problem(ops, config, grid, yd)
    a_dense = _dense_a(ops, problem.shift)
    b_dense = problem.b_matrix.toarray()
    r_dense = problem.r1 @ problem.r2.T
    state = skpik_init(problem)
    for _ in range(2):
        skpik_sweep(state, problem)
        u = state.basis
        xt = u @ state.z
        projected = u.T @ (a_dense @ xt + xt @ b_dense - r_dense)
        assert np.linalg.norm(projected) <= 1e-10 * np.linalg.norm(r_dense)


def test_sweep_count_robust_to_time_step():
    # the desk point of acceptance criterion 06 on a 9 x 9 node mesh: the
    # sweep count depends on the space operator, not on the time step
    mesh = build_mesh(8)
    config = ProblemConfig(sigma=1.0, beta=1e-2)
    ops = build_operators(mesh, config)
    sweeps = []
    for m_t in (100, 200, 400):
        grid = TimeGrid(m_t)
        yd = sample_desired_state("ex1", mesh, grid)
        problem = build_sylvester_problem(
            ops, config, grid, lowrank_desired(yd, config.trunc_tol)
        )
        _, report = skpik_solve(problem, config.tol, config.trunc_tol, config.max_it)
        assert report.converged
        sweeps.append(report.iterations)
    for coarse, fine in zip(sweeps, sweeps[1:]):
        assert abs(fine - coarse) <= 0.25 * coarse, sweeps
