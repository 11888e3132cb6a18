import itertools
import math
import tracemalloc
from unittest import mock

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
from eddyopt import lacore, skpik
from eddyopt.lacore import (
    LowRankMatrix,
    StagnationError,
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
    POLE_WINDOW,
    SEARCH_STRIDE,
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
    return SpaceOperators(eye, eye)


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
    config = ProblemConfig(sigma=1.0, beta=1.0, eps_reg=0.0, shift=0.0)
    grid = TimeGrid(1)
    problem = _problem(ops, config, grid, np.array([[2.0]]))
    state = skpik_init(problem)
    assert state.dims[0] == 1
    assert np.allclose(np.abs(state.basis), [[1.0]])


def test_init_identity_operator_keeps_only_rhs_span():
    ops = _identity_ops(6)
    config = ProblemConfig(sigma=1.0, beta=1.0, eps_reg=0.0, shift=0.0)
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
    """A rank-0 candidate leaves R1 R2^T as the residual: exactly 1, or 0 for a zero target.

    The general path stacks (-R1, R2), whose QR factors are those of
    (R1, R2) up to exact sign flips, so the ratio has no rounding.
    """
    cases = itertools.product((2, 8), (3, 50), (1e-4, 1.0, 1e4), (1e-2, 1e-6))
    for cells, m_t, sigma, beta in cases:
        ops, config, grid, yd = _mesh_problem(cells=cells, m_t=m_t, sigma=sigma, beta=beta)
        empty = (np.zeros((ops.n, 0)), np.zeros((2 * grid.m_t, 0)))
        assert factored_residual(*empty, _problem(ops, config, grid, yd)) == 1.0
        zero = _problem(ops, config, grid, np.zeros_like(yd))
        assert factored_residual(*empty, zero) == 0.0


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
    ops = SpaceOperators(ops.mass, sp.csr_matrix(np.array([[2.0]])))
    config = ProblemConfig(sigma=1.0, beta=1.0, eps_reg=0.0, shift=0.0)
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
    config = ProblemConfig(sigma=1.0, beta=1.0, eps_reg=0.0, shift=0.0)
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


def _row_block_factors(monkeypatch, rows):
    """Make the residual QR take blocks of ``rows`` rows; returns the (n, dim) of each call."""
    calls = []

    def spy(a, q, core):
        calls.append(a.shape)
        return lacore.residual_factor(a, q, core)

    monkeypatch.setattr(lacore, "QR_BLOCK_ROWS", rows)
    monkeypatch.setattr(skpik, "residual_factor", spy)
    return calls


def _spans_partial_blocks_and_a_wide_prefix(calls, rows):
    n = calls[0][0]
    return n > 2 * rows and n % rows and max(dim for _, dim in calls) > rows


@pytest.mark.parametrize(
    "cells, m_t, sigma, beta", [(3, 3, 0.5, 0.01), (4, 5, 1e-4, 1e-6), (5, 4, 1e4, 1e-3)]
)
def test_recorded_history_matches_dense_residual_on_row_blocks(monkeypatch, cells, m_t, sigma, beta):
    # n = 16, 25 and 36 rows in blocks of 7, the last one partial, and
    # prefixes wider than a block
    calls = _row_block_factors(monkeypatch, 7)
    test_recorded_history_matches_dense_residual(cells, m_t, sigma, beta)
    assert _spans_partial_blocks_and_a_wide_prefix(calls, 7), calls


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
        projected = (ops.mass @ u).T @ (a_dense @ xt + xt @ b_dense - r_dense)
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
    config = ProblemConfig(sigma=1.0, beta=1.0, eps_reg=0.0, shift=0.0)
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


@pytest.mark.parametrize("setting", ["tol", "trunc_tol"])
def test_solve_rejects_nan_tolerances(setting):
    # unchecked, tol = NaN sweeps until the space closes and trunc_tol = NaN
    # returns a rank-0 "solution"
    ops, config, grid, yd = _mesh_problem()
    problem = _problem(ops, config, grid, yd)
    with pytest.raises(ValueError, match=setting):
        skpik_solve(problem, **{setting: np.nan})


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


def _plateau_problem(m_t=50):
    """A rank-3 target on the 3025-node mesh, on which the extended Krylov space stalls."""
    mesh = build_mesh(54)
    config = ProblemConfig(sigma=1e-4, beta=1e-2)
    ops = build_operators(mesh, config)
    x1, x2 = mesh.nodes[:, 0], mesh.nodes[:, 1]
    t = np.arange(1, m_t + 1) / m_t
    modes = [(1, 1), (2, 1), (1, 3)]
    yd = sum(
        np.outer(np.sin(k * np.pi * x1) * np.sin(l * np.pi * x2), np.cos((j + 1) * np.pi * t + phi))
        for j, ((k, l), phi) in enumerate(zip(modes, (0.4, 1.3, 2.2)))
    )
    return _problem(ops, config, TimeGrid(m_t), yd, rhs_tol=config.trunc_tol), config


def test_solve_plateau_above_stagnation_level_is_not_cut():
    # on the extended Krylov space the residual holds near 2e-6 for about 20
    # sweeps; the stall lies above STAGNATION_LEVEL, so it must not be taken
    # for stagnation: the solve moves to the space with a pole at w instead
    problem, config = _plateau_problem()
    _, report = skpik_solve(problem, config.tol, config.trunc_tol)
    assert report.converged and report.extra["stop_reason"] == "converged"
    assert report.extra["pole"] == problem.w
    # the plateau, from a scan of the extended Krylov space without a pole
    history = _scan(problem, 24)
    stalled = [
        k
        for k in range(STAGNATION_WINDOW, len(history))
        if history[k] * STAGNATION_FACTOR > history[k - STAGNATION_WINDOW]
    ]
    assert stalled and min(history[k] for k in stalled) > STAGNATION_LEVEL
    # no prefix of the scan meets tol; the pole space does in fewer sweeps
    assert min(history) > config.tol and report.iterations < len(history)


def test_pole_switch_is_the_same_for_every_search_stride():
    # the switch is decided at sweeps 2 POLE_WINDOW, 3 POLE_WINDOW, ..., which a
    # scan of every prefix and the stride search both evaluate
    problem, config = _plateau_problem()
    _, report = skpik_solve(problem, config.tol, config.trunc_tol)
    with mock.patch.object(skpik, "SEARCH_STRIDE", 1):
        fresh, _ = _plateau_problem()
        _, ref = skpik_solve(fresh, config.tol, config.trunc_tol)
    switched_at = report.extra["switched_at"]
    assert switched_at is not None and switched_at % POLE_WINDOW == 0
    assert switched_at == ref.extra["switched_at"]
    assert (report.iterations, report.rank, report.residual) == (
        ref.iterations, ref.rank, ref.residual
    )


def test_pole_space_is_orthonormal_and_projects_exactly():
    # U holds the forward, inverse and pole blocks; T, M_a and K_a are its
    # projections of A, M and K_s
    ops, config, grid, yd = _mesh_problem(cells=6, m_t=3, sigma=1.0, beta=1e-2)
    problem = _problem(ops, config, grid, yd)
    state = skpik_init(problem, pole=problem.w)
    space = state.space
    assert space.pole == problem.w
    space.grow(4, problem, state.phases)
    u = space.basis
    assert not space.closed and space.dims[0] == 3 * problem.seed.shape[1]
    assert np.linalg.norm(u.T @ u - np.eye(space.dim)) <= 1e-13
    k_s = (ops.stiffness + problem.shift * ops.mass).toarray()
    np.testing.assert_allclose(space.image, problem.apply_a(u), rtol=0, atol=1e-12)
    np.testing.assert_allclose(space.t, u.T @ _dense_a(ops, problem.shift) @ u, rtol=0, atol=1e-12)
    np.testing.assert_allclose(space.m_a, u.T @ (ops.mass @ u), rtol=0, atol=1e-12)
    np.testing.assert_allclose(space.k_a, u.T @ k_s @ u, rtol=0, atol=1e-12)
    # the pole block of prefix 0 spans (A + w I)^{-1} R1 with the rest
    a_pole = _dense_a(ops, problem.shift) + problem.w * np.eye(ops.n)
    resolvent = np.linalg.solve(a_pole, problem.r1)
    outside = resolvent - u[:, : space.dims[0]] @ (u[:, : space.dims[0]].T @ resolvent)
    assert np.linalg.norm(outside) <= 1e-12 * np.linalg.norm(resolvent)


def test_pole_space_closes_once_its_pole_block_deflates():
    # on 9 nodes the pole space fills an invariant subspace of A and closes
    # with all three blocks empty; it stays open while its pole block holds
    # columns, even with the other two blocks empty
    ops, config, grid, yd = _mesh_problem(cells=2, m_t=2, sigma=1.0, beta=1e-2)
    problem = _problem(ops, config, grid, yd)
    state = skpik_init(problem, pole=problem.w)
    space = state.space
    last = space.grow(50, problem, state.phases)
    assert space.closed and last < 50 and space.dims[last] == space.dim <= ops.n
    assert space.block_inv.shape[1] == space.block_pole.shape[1] == 0
    u = space.basis
    a_u = _dense_a(ops, problem.shift) @ u
    assert np.linalg.norm(a_u - u @ (u.T @ a_u)) <= 1e-12 * np.linalg.norm(a_u)
    space.block_pole = problem.seed
    assert not space.closed


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


def test_solve_certifies_each_iterate_once(monkeypatch):
    # on 4 nodes sweep 1 passes tol, its certificate fails, and the space
    # closes on it: the iterate is compressed and certified once
    ops, config, grid, _ = _mesh_problem(cells=1, m_t=2, sigma=1e-4, beta=1e-6)
    yd = sample_desired_state("ex2", build_mesh(1), grid)
    yd = yd + 0.3 * np.outer(np.arange(ops.n) % 3, np.linspace(0.0, 1.0, grid.m_t))
    tol = 1e-13
    compress = skpik._compress
    calls = []

    def spy(state, *args):
        calls.append((state.sweeps, state.z.tobytes()))
        return compress(state, *args)

    monkeypatch.setattr(skpik, "_compress", spy)
    problem = _problem(ops, config, grid, yd, rhs_tol=config.trunc_tol)
    x, report = skpik_solve(problem, tol, config.trunc_tol, max_sweeps=60)
    assert report.extra["stop_reason"] == "space_exhausted"
    assert report.residual_history[-1] <= tol < report.residual
    assert len(calls) == len(set(calls)) == len({sweep for sweep, _ in calls})
    # the same iterate, compressed once as the last sweep allowed
    calls.clear()
    fresh = _problem(*_mesh_problem(cells=1, m_t=2, sigma=1e-4, beta=1e-6)[:3], yd,
                     rhs_tol=config.trunc_tol)
    x_ref, ref = skpik_solve(fresh, tol, config.trunc_tol, max_sweeps=report.iterations)
    assert ref.extra["stop_reason"] == "max_sweeps" and len(calls) == 1
    assert (report.iterations, report.rank, report.residual) == (
        ref.iterations, ref.rank, ref.residual
    )
    np.testing.assert_array_equal(x.left, x_ref.left)


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
    # each sweep's T_a, M_a, K_a and U^T R1, copied before the space grows past it
    nested = []
    for _ in range(6):
        skpik_sweep(state, problem)
        dim = state.dims[0]
        blocks = (space.t_a(state.prefix), space.m_a[:dim, :dim], space.k_a[:dim, :dim])
        nested.append([b.copy() for b in blocks] + [state.r1_proj[:dim].copy()])
    prefixes = [space.prefix(j, problem, state.phases) for j in range(7)]
    k_s = ops.stiffness + problem.shift * ops.mass
    u = space.basis
    assert u.base is not None and space.image.base is not None
    assert u.flags.f_contiguous and space.image.flags.f_contiguous
    dims = [space.dims[i] for i in prefixes]
    assert dims == sorted(dims) and dims[-1] == space.dim
    assert np.linalg.norm(u.T @ u - np.eye(space.dim)) <= 1e-12
    np.testing.assert_allclose(space.image, problem.apply_a(u), rtol=0, atol=1e-12)
    for i in prefixes:
        uk = u[:, : space.dims[i]]
        a_uk = problem.apply_a(uk)
        t_a = space.t_a(i)
        np.testing.assert_allclose(t_a, uk.T @ a_uk, rtol=0, atol=1e-12)
        dim = space.dims[i]
        m_a, k_a = space.m_a[:dim, :dim], space.k_a[:dim, :dim]
        np.testing.assert_allclose(m_a, uk.T @ (ops.mass @ uk), rtol=0, atol=1e-12)
        np.testing.assert_allclose(k_a, uk.T @ (k_s @ uk), rtol=0, atol=1e-12)
        lam, q = space.eig[i]
        np.testing.assert_allclose(q.T @ m_a @ q, np.eye(dim), rtol=0, atol=1e-10)
        np.testing.assert_allclose(q.T @ k_a @ q, np.diag(lam), rtol=0, atol=1e-10)
        rest = a_uk - uk @ t_a  # (I - U U^T) A U of this prefix
        r = space.r[i]
        np.testing.assert_allclose(r.T @ r, rest.T @ rest, rtol=0, atol=1e-9)
    # a prefix's T_a, M_a, K_a and U^T R1 are the leading blocks of the last prefix's
    *last, r1_last = nested[-1]
    for *mats, r1_proj in nested:
        dim = r1_proj.shape[0]
        for mat, mat_last in zip(mats, last):
            assert np.array_equal(mat, mat_last[:dim, :dim])
        assert np.array_equal(r1_proj, r1_last[:dim])


def test_extended_basis_grows_in_place_on_row_blocks(monkeypatch):
    # n = 25 rows in blocks of 7, 7, 7 and 4, with prefixes wider than a block
    calls = _row_block_factors(monkeypatch, 7)
    test_extended_basis_grows_in_place()
    assert _spans_partial_blocks_and_a_wide_prefix(calls, 7), calls


def test_prefix_residual_factor_holds_one_row_block():
    # the residual QR of a prefix holds one block of QR_BLOCK_ROWS rows and the
    # stacked triangles, not the n x dim table (I - U U^T) A U and its copies
    ops, config, grid, yd = _mesh_problem(cells=100, m_t=4, sigma=1.0, beta=1e-2)
    problem = _problem(ops, config, grid, yd)
    state = skpik_init(problem)
    space = state.space
    j = 0
    while space.dims[space.grow(j, problem, state.phases)] < 40:
        j += 1
    n, dim = ops.n, space.dims[j]  # 10201 rows: ten blocks of at most 1024
    assert n >= 961
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        space.prefix(j, problem, state.phases)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start <= n * dim * 8 / 3


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
    # the first point needs the most sweeps; the others run on its prefixes,
    # and a second run of the group finds every prefix it sweeps factored
    mesh = build_mesh(4)
    ops = build_operators(mesh, ProblemConfig(sigma=1.0, beta=1.0))
    grid = TimeGrid(5)
    yd = sample_desired_state("ex1", mesh, grid)
    columns, reports = [], []
    points = ((1e-4, 1e-2), (1.0, 1e-2), (1e4, 1e-6))
    for sigma, beta in points * 2:
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
        assert report.extra["phases"]["extend"] == 0.0
        assert report.extra["phases"]["time_side"] > 0.0
    for report in reports[len(points) :]:
        phases = report.extra["phases"]
        assert phases["extend"] == phases["project"] == phases["residual"] == 0.0


# ---------------------------------------------------------------------------
# the search for the first prefix that meets the tolerance


def _scan(problem, sweeps):
    """h(1), ..., h(sweeps) from a sweep of every prefix, cut where the space closes."""
    state = skpik_init(problem)
    for _ in range(sweeps):
        try:
            skpik_sweep(state, problem)
        except StagnationError:
            break
    return state.residual_history


@settings(max_examples=60, deadline=None)
@given(
    cells=st.integers(3, 8),
    m_t=st.integers(1, 20),
    sigma=st.sampled_from([0.0, 1e-4, 1.0, 1e4]),
    log_beta=st.floats(-8.0, -2.0),
    tol=st.sampled_from([1e-6, 1e-9]),
)
def test_prefix_search_matches_a_sweep_of_every_prefix(cells, m_t, sigma, log_beta, tol):
    ops, config, grid, yd = _mesh_problem(cells=cells, m_t=m_t, sigma=sigma, beta=10.0**log_beta)
    problem = _problem(ops, config, grid, yd)
    x, report = skpik_solve(problem, tol, config.trunc_tol)
    history, sweeps = report.residual_history, report.iterations
    assert len(history) == sweeps and not math.isnan(history[-1])
    if report.converged:
        # J passes, and J - 1 fails, or passed and its compressed iterate failed the certificate
        assert history[-1] <= tol
        if sweeps > 1 and history[-2] <= tol:
            state = _replay(problem, sweeps - 1)
            assert skpik._compress(state, problem, tol, config.trunc_tol)[1] > tol
    # the reference sweeps every prefix, on operators of its own
    with mock.patch.object(skpik, "SEARCH_STRIDE", 1):
        fresh = _mesh_problem(cells=cells, m_t=m_t, sigma=sigma, beta=10.0**log_beta)
        x_ref, ref = skpik_solve(_problem(*fresh), tol, config.trunc_tol)
    scan = _scan(problem, ref.iterations + SEARCH_STRIDE)
    assert ref.residual_history == scan[: ref.iterations]
    for h, h_ref in zip(history, scan):
        assert math.isnan(h) or h == h_ref
    # the search lands where the scan does when h stays at or below its target
    # from the first crossing up to the stride point after it
    target = max(tol, STAGNATION_LEVEL)
    first = next((j for j, h in enumerate(scan, 1) if h <= target), None)
    if first is not None:
        stride_point = -(-first // SEARCH_STRIDE) * SEARCH_STRIDE
        if any(h > target for h in scan[first - 1 : stride_point]):
            return
    assert (report.iterations, report.rank, report.residual) == (
        ref.iterations, ref.rank, ref.residual
    )
    assert report.extra["stop_reason"] == ref.extra["stop_reason"]
    np.testing.assert_array_equal(x.left, x_ref.left)
    np.testing.assert_array_equal(x.right, x_ref.right)


def test_prefix_search_skips_prefixes_and_evaluates_the_stagnation_window():
    # the 289-node stagnation case: the search skips prefixes on its way down,
    # and the stop rule reads h(J - STAGNATION_WINDOW), swept on demand
    ops, config, grid, yd = _mesh_problem(cells=16, m_t=20, sigma=1.0, beta=1e-4)
    problem = _problem(ops, config, grid, yd, rhs_tol=config.trunc_tol)
    _, report = skpik_solve(problem, tol=1e-12, trunc_tol=config.trunc_tol)
    history = report.residual_history
    assert report.extra["stop_reason"] == "stagnation"
    assert any(math.isnan(h) for h in history)
    assert not math.isnan(history[-1 - STAGNATION_WINDOW])
    with mock.patch.object(skpik, "SEARCH_STRIDE", 1):
        _, ref = skpik_solve(problem, tol=1e-12, trunc_tol=config.trunc_tol)
    assert (report.iterations, report.rank, report.residual) == (
        ref.iterations, ref.rank, ref.residual
    )
    assert all(math.isnan(h) or h == h_ref for h, h_ref in zip(history, ref.residual_history))
    # a state put straight on the stop sweep sweeps the skipped h(J - STAGNATION_WINDOW)
    state = skpik_init(problem)
    j, back = ref.iterations, ref.iterations - STAGNATION_WINDOW
    skpik._move(state, j, skpik._evaluate(state, problem, j))
    assert math.isnan(state.residual_history[back - 1])
    assert skpik._stagnated(state, problem)
    assert state.residual_history[back - 1] == ref.residual_history[back - 1]


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
    [
        (2, 2, 1.0, 1.0),
        (3, 3, 0.5, 0.01),
        (4, 5, 1e-4, 1e-6),
        (5, 4, 1e4, 1e-3),
        (2, 5, 1.0, 1e-2),  # k = dim: the stacks are wider than their 2 dim rows
    ],
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
    # Ritz values from the shift itself up to 11 above it, all rows in one solve
    rng = np.random.default_rng(m_t)
    lam = shift + np.array([0.0, 0.8, 2.0, 5.0, 11.0])
    b = _shifted_b(sigma, m_t, beta, shift)
    c = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 2 * m_t))
    z = _time_side(sigma, m_t, beta, shift).solve(lam, c)
    assert z.dtype == np.float64
    z_oracle = kron_sylvester_solve(np.diag(lam), b.toarray(), c)
    assert np.linalg.norm(z - z_oracle) <= 1e-12 * np.linalg.norm(z_oracle)


@settings(max_examples=150, deadline=None)
@given(
    lam=st.lists(
        st.one_of(st.just(0.0), st.floats(-1.0, 1.0).map(lambda e: 10.0**e)),
        min_size=1,
        max_size=6,
    ),
    sigma=st.sampled_from([0.0, 1e-4, 1.0, 1e4]),
    log_beta=st.floats(-8.0, 0.0),
    m_t=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_time_side_property_matches_kronecker_oracle(lam, sigma, log_beta, m_t, seed):
    b = build_B(sigma, 1.0 / m_t, 10.0**log_beta, m_t)
    c = np.random.default_rng(seed).standard_normal((len(lam), 2 * m_t))
    z = _time_side(sigma, m_t, 10.0**log_beta, 0.0).solve(np.array(lam), c)
    z_oracle = kron_sylvester_solve(np.diag(lam), b.toarray(), c)
    assert np.linalg.norm(z - z_oracle) <= 1e-10 * np.linalg.norm(z_oracle)


@pytest.mark.parametrize("eps_reg", [0.0, 1e-6])
def test_swept_prefixes_have_real_ritz_values_at_or_above_the_shift(eps_reg):
    # eps_reg = 0 takes the default shift nu, eps_reg > 0 the shift 0; either
    # way K + shift M is positive definite, and so is every time-side system.
    # At eps_reg = 0 the constant mode spans the kernel of K, and its Ritz
    # value is the shift up to rounding (1 - 2.3e-13 here)
    ops, config, grid, yd = _mesh_problem(cells=6, m_t=4, sigma=1.0, beta=1e-2, eps_reg=eps_reg)
    problem = _problem(ops, config, grid, yd)
    assert problem.shift == (0.0 if eps_reg else config.nu)
    state = skpik_init(problem)
    for _ in range(6):
        skpik_sweep(state, problem)
    assert sorted(state.space.eig) == list(range(1, 7))
    for lam, _ in state.space.eig.values():
        assert lam.dtype == np.float64
        assert lam.min() >= problem.shift - 1e-12 * lam.max()


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
    thetas = np.logspace(-6, 5, 12)
    f = rng.standard_normal((thetas.size, 2 * m_t))
    for theta, x, rhs in zip(thetas, solver.solve(thetas, f), f):
        ref = np.linalg.solve(theta * np.eye(2 * m_t) + bt, rhs)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref), theta


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
        projected = (ops.mass @ u).T @ (a_dense @ xt + xt @ b_dense - r_dense)
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
