import ast
import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from eddyopt.discretize import (
    ProblemConfig,
    SpaceOperators,
    TimeGrid,
    build_mesh,
    build_operators,
    lowrank_desired,
    sample_desired_state,
)
import eddyopt.lacore as lacore
import eddyopt.reformulate as reformulate
from eddyopt.baselines import fminres_solve, lrminres_solve
from eddyopt.lacore import LowRankMatrix, NotSpdError
from eddyopt.reformulate import (
    assemble_kkt_dense,
    assemble_kkt_dense3,
    build_B,
    build_rhs,
    build_sylvester_problem,
    extract_solution,
    solve_kkt_dense,
    time_coefficients,
    time_difference_matrix,
    unvec,
    vec,
)
from eddyopt.skpik import factored_residual, skpik_solve

from oracles import kron_sylvester_solve, solve_kkt2


def _identity_ops(n):
    eye = sp.identity(n, format="csr")
    return SpaceOperators(eye, eye)


def _small_problem(cells=2, m_t=2, sigma=1.0, beta=1.0, **kw):
    mesh = build_mesh(cells)
    config = ProblemConfig(sigma=sigma, beta=beta, **kw)
    grid = TimeGrid(m_t)
    ops = build_operators(mesh, config)
    yd = sample_desired_state("ex1", mesh, grid)
    return ops, config, grid, yd


# ---------------------------------------------------------------------------
# the time-coupling matrix


def test_build_B_single_step():
    b = build_B(1.0, 1.0, 1.0, 1).toarray()
    assert np.allclose(b, [[1.0, 1.0], [-1.0, 1.0]])


def test_build_B_two_steps_explicit():
    b = build_B(2.0, 0.5, 4.0, 2).toarray()
    expected = np.array(
        [
            [4.0, -4.0, 0.5, 0.0],
            [0.0, 4.0, 0.0, 0.5],
            [-0.5, 0.0, 4.0, 0.0],
            [0.0, -0.5, -4.0, 4.0],
        ]
    )
    assert np.array_equal(b, expected)


@pytest.mark.parametrize("m_t", [1, 3, 16, 64])
def test_build_B_symmetric_part_positive_definite(m_t):
    sigma, tau = 0.7, 1.0 / m_t
    b = build_B(sigma, tau, 2.0, m_t).toarray()
    sym = 0.5 * (b + b.T)
    c = time_difference_matrix(m_t).toarray()
    blk = (sigma / tau) * 0.5 * (c + c.T)
    expected = np.block(
        [[blk, np.zeros_like(blk)], [np.zeros_like(blk), blk]]
    )
    assert np.allclose(sym, expected, atol=1e-14)
    assert np.linalg.eigvalsh(sym).min() > 0


def test_build_B_sigma_zero_with_shift():
    m_t, beta, s = 3, 4.0, 0.25
    b = build_B(0.0, 0.1, beta, m_t)
    shifted = (b - s * sp.identity(2 * m_t)).toarray()
    w = 1.0 / np.sqrt(beta)
    eye = np.eye(m_t)
    expected = np.block([[-s * eye, w * eye], [-w * eye, -s * eye]])
    assert np.array_equal(shifted, expected)


def _dense_B(sigma, tau, beta, m_t):
    g, w = sigma / tau, 1.0 / np.sqrt(beta)
    c = np.eye(m_t) - np.eye(m_t, k=-1)
    eye = np.eye(m_t)
    return np.block([[g * c.T, w * eye], [-w * eye, g * c]])


@pytest.mark.parametrize("sigma", [0.0, 1e-4, 1.0, 1e4])
@pytest.mark.parametrize("m_t", [1, 2, 3, 17])
def test_build_B_matches_block_form_in_canonical_csr(m_t, sigma):
    tau, beta = 1.0 / m_t, 1e-2
    b = build_B(sigma, tau, beta, m_t)
    assert b.format == "csr"
    assert b.has_sorted_indices
    assert np.all(b.data != 0)
    assert b.nnz == (2 * m_t if sigma == 0 else 6 * m_t - 2)
    assert np.array_equal(b.toarray(), _dense_B(sigma, tau, beta, m_t))


@pytest.mark.parametrize("m_t", [0, -1])
def test_build_B_rejects_an_empty_time_grid(m_t):
    with pytest.raises(ValueError, match="m_t must be at least 1"):
        build_B(1.0, 1.0, 1.0, m_t)


@pytest.mark.parametrize("sigma", [0.0, 1.0])
def test_problem_time_coupling_is_the_shifted_block_form(sigma):
    ops, config, grid, yd = _small_problem(m_t=3, sigma=sigma, beta=1e-2, shift=0.5)
    problem = build_sylvester_problem(ops, config, grid, lowrank_desired(yd, 1e-14))
    b = problem.b_matrix
    assert b.format == "csr"
    expected = _dense_B(sigma, grid.tau, config.beta, grid.m_t) - 0.5 * np.eye(2 * grid.m_t)
    assert np.array_equal(b.toarray(), expected)


# ---------------------------------------------------------------------------
# right-hand side factors


def test_build_rhs_direct_substitution():
    v = np.array([[1.0], [2.0], [3.0]])
    y2 = np.array([[5.0], [7.0]])
    r1, r2 = build_rhs(v, y2, 4.0)
    assert np.allclose(r1, v / 2.0)
    assert np.allclose(r2, [[0.0], [0.0], [5.0], [7.0]])


def test_build_rhs_zero_target():
    r1, r2 = build_rhs(np.zeros((4, 0)), np.zeros((3, 0)), 1.0)
    assert r1.shape == (4, 0) and r2.shape == (6, 0)


def test_build_rhs_reconstruction_oracle():
    rng = np.random.default_rng(1)
    y1 = rng.standard_normal((8, 3))
    y2 = rng.standard_normal((5, 3))
    beta = 0.3
    r1, r2 = build_rhs(y1, y2, beta)
    dense = r1 @ r2.T
    expected = np.hstack([np.zeros((8, 5)), (y1 @ y2.T) / np.sqrt(beta)])
    assert np.linalg.norm(dense - expected) <= 1e-14 * np.linalg.norm(expected)
    with pytest.raises(ValueError):
        build_rhs(y1, y2[:, :2], beta)


# ---------------------------------------------------------------------------
# the space operator A and its inverse


def _problem_on(ops, shift):
    """The Sylvester problem on ``ops`` with this shift, one time step and a rank-one target."""
    target = LowRankMatrix(np.ones((ops.n, 1)), np.ones((1, 1)))
    config = ProblemConfig(sigma=1.0, beta=1.0, shift=shift)
    return build_sylvester_problem(ops, config, TimeGrid(1), target)


def test_a_ops_identity():
    problem = _problem_on(_identity_ops(4), 0.0)
    apply_a, apply_a_inv = problem.apply_a, problem.apply_a_inv
    v = np.arange(4.0)
    assert np.allclose(apply_a(v), v)
    assert np.allclose(apply_a_inv(v), v)


def test_a_ops_scalar_shift():
    ops = SpaceOperators(sp.csr_matrix(2.0 * np.eye(3)), sp.csr_matrix(4.0 * np.eye(3)))
    problem = _problem_on(ops, 1.0)
    apply_a, apply_a_inv = problem.apply_a, problem.apply_a_inv
    v = np.array([1.0, -2.0, 0.5])
    assert np.allclose(apply_a(v), 3.0 * v)
    assert np.allclose(apply_a_inv(v), v / 3.0)


def test_a_ops_composition_on_p1_operators():
    ops, config, grid, _ = _small_problem(cells=4)
    problem = _problem_on(ops, 0.5)
    apply_a, apply_a_inv = problem.apply_a, problem.apply_a_inv
    rng = np.random.default_rng(6)
    v = rng.standard_normal(ops.n)
    assert np.linalg.norm(apply_a_inv(apply_a(v)) - v) <= 1e-12 * np.linalg.norm(v)
    # block application matches columnwise application
    block = rng.standard_normal((ops.n, 3))
    together = apply_a(block)
    for j in range(3):
        assert np.allclose(together[:, j], apply_a(block[:, j]))


def test_a_ops_rejects_indefinite_shifted_stiffness():
    n = 4
    ops = SpaceOperators(sp.identity(n, format="csr"), sp.csr_matrix(-np.eye(n)))
    with pytest.raises(NotSpdError) as err:
        _problem_on(ops, 0.0)
    assert "shift" in str(err.value)
    # the kernel's own reason survives the re-raise
    assert "the pivot of row" in str(err.value)


def _spy_spd_factorizations(monkeypatch):
    """Record the matrix of every sparse_spd_factorize call, in every eddyopt module."""
    original = lacore.sparse_spd_factorize
    calls = []

    def spy(a):
        calls.append(a)
        return original(a)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "eddyopt" and getattr(module, "sparse_spd_factorize", None) is original:
            monkeypatch.setattr(module, "sparse_spd_factorize", spy)
    return calls


def test_space_side_factorizes_mass_and_stiffness_once(monkeypatch):
    ops, config, grid, yd = _small_problem(cells=3, m_t=3, sigma=1.0, beta=1e-2)
    yd_lr = lowrank_desired(yd, 1e-12)
    calls = _spy_spd_factorizations(monkeypatch)
    build_sylvester_problem(ops, config, grid, yd_lr)
    build_sylvester_problem(ops, ProblemConfig(sigma=1e-4, beta=1e-6), grid, yd_lr)
    lrminres_solve(ops, config, grid, yd_lr)
    fminres_solve(ops, config, grid, yd)
    assert sum(a is ops.mass for a in calls) == 1
    assert sum(a is ops.stiffness for a in calls) == 1
    # the third is K + (g + w) M, the Schur factor both baselines share at one point
    assert len(calls) == 3


def test_baselines_share_one_schur_factor_per_point(monkeypatch):
    ops, config, grid, yd = _small_problem(cells=3, m_t=3, sigma=1.0, beta=1e-2)
    yd_lr = lowrank_desired(yd, 1e-12)
    # M and the Sylvester problem's K + sM are factored before the spy starts
    ops.mass_factor
    ops.shifted_factor(config.resolve_shift())
    calls = _spy_spd_factorizations(monkeypatch)
    lrminres_solve(ops, config, grid, yd_lr)
    fminres_solve(ops, config, grid, yd)
    g, w = time_coefficients(config.sigma, grid.tau, config.beta)
    assert len(calls) == 1
    assert np.array_equal(calls[0].toarray(), (ops.stiffness + (g + w) * ops.mass).toarray())
    other = ProblemConfig(sigma=1.0, beta=1e-4)
    lrminres_solve(ops, other, grid, yd_lr)
    fminres_solve(ops, other, grid, yd)
    assert len(calls) == 2


def _calls(tree, name):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called == name:
                yield node


def _src_trees():
    for path in sorted((Path(__file__).parents[1] / "src" / "eddyopt").glob("*.py")):
        yield path.name, ast.parse(path.read_text())


def _calls_in_src(name):
    """Module file names under src/eddyopt that call ``name``, as a bare name or an attribute."""
    return {file for file, tree in _src_trees() if any(_calls(tree, name))}


def _functions_calling(name):
    """'module.py:function' for every function under src/eddyopt whose body calls ``name``."""
    return {
        f"{file}:{node.name}"
        for file, tree in _src_trees()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(_calls(node, name))
    }


def test_only_the_space_side_and_the_problem_builder_factorize():
    # SpaceOperators (discretize) owns every SPD factorization; b_lu is the one LU
    assert _calls_in_src("sparse_spd_factorize") == {"discretize.py"}
    assert _calls_in_src("sparse_lu_factorize") == {"reformulate.py"}
    # SuperLU serves the nonsymmetric LU alone; the band Cholesky kernel stays in lacore
    assert _calls_in_src("splu") == {"lacore.py"}
    assert _functions_calling("splu") == {"lacore.py:sparse_lu_factorize"}
    assert _calls_in_src("dpbtrf") == {"lacore.py"}
    assert _calls_in_src("dpbtrs") == {"lacore.py"}


def test_lacore_has_one_factorization_type():
    # SparseFactorization is the band Cholesky; B's LU is SciPy's SuperLU, not a lacore class
    tree = dict(_src_trees())["lacore.py"]
    solvers = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(isinstance(item, ast.FunctionDef) and item.name == "solve" for item in node.body)
    ]
    assert [node.name for node in solvers] == ["SparseFactorization"]
    inside = len(list(_calls(solvers[0], "dpbtrs")))
    assert inside >= 1
    assert len(list(_calls(tree, "dpbtrs"))) == inside


def test_only_lacore_runs_a_qr():
    # np.linalg.qr and scipy.linalg.qr: every residual norm and factor comes from lacore
    assert _calls_in_src("qr") == {"lacore.py"}


def test_space_side_factorizes_once_per_shift(monkeypatch):
    ops, config, grid, yd = _small_problem(cells=3, m_t=3)
    yd_lr = lowrank_desired(yd, 1e-12)
    build_sylvester_problem(ops, config, grid, yd_lr)
    calls = _spy_spd_factorizations(monkeypatch)
    shifted = ProblemConfig(sigma=1.0, beta=1.0, shift=0.5)
    for _ in range(2):
        problem = build_sylvester_problem(ops, shifted, grid, yd_lr)
    assert len(calls) == 1
    v = np.random.default_rng(1).standard_normal(ops.n)
    k_shifted = (ops.stiffness + 0.5 * ops.mass).toarray()
    assert np.allclose(k_shifted @ problem.apply_a_inv(v), ops.mass @ v)


# ---------------------------------------------------------------------------
# dense optimality systems


def test_kkt_dense_is_symmetric():
    ops, config, grid, yd = _small_problem()
    kkt = assemble_kkt_dense(ops, config, grid, yd)
    assert np.array_equal(kkt.matrix, kkt.matrix.T)


def test_kkt_dense_scalar_instance():
    ops = _identity_ops(1)
    config = ProblemConfig(sigma=1.0, beta=1.0, eps_reg=0.0)
    grid = TimeGrid(1)
    yd = np.array([[1.0]])
    kkt = assemble_kkt_dense(ops, config, grid, yd)
    assert np.allclose(kkt.matrix, [[1.0, 2.0], [2.0, -1.0]])
    assert np.allclose(kkt.rhs, [1.0, 0.0])


def test_kkt_dense_guard():
    ops = _identity_ops(200)
    config = ProblemConfig(sigma=1.0, beta=1.0, eps_reg=0.0)
    grid = TimeGrid(50)
    with pytest.raises(ValueError):
        assemble_kkt_dense(ops, config, grid, np.zeros((200, 50)))


def test_kkt_dense_matches_independent_oracle():
    ops, config, grid, yd = _small_problem(m_t=3, sigma=0.8, beta=1e-2)
    kkt = assemble_kkt_dense(ops, config, grid, yd)
    y, u, lam = solve_kkt_dense(kkt, config.beta)
    y_o, u_o, lam_o = solve_kkt2(
        ops.mass.toarray(), ops.stiffness.toarray(), config.sigma,
        grid.tau, config.beta, yd,
    )
    assert np.linalg.norm(y - y_o) <= 1e-10 * np.linalg.norm(y_o)
    assert np.linalg.norm(u - u_o) <= 1e-10 * np.linalg.norm(u_o)
    assert np.linalg.norm(lam - lam_o) <= 1e-10 * np.linalg.norm(lam_o)


def test_three_block_elimination_matches_two_block():
    ops, config, grid, yd = _small_problem(m_t=2, sigma=0.5, beta=0.1)
    y2, u2, lam2 = solve_kkt_dense(assemble_kkt_dense(ops, config, grid, yd), config.beta)
    y3, u3, lam3 = solve_kkt_dense(assemble_kkt_dense3(ops, config, grid, yd))
    assert np.linalg.norm(y3 - y2) <= 1e-10 * np.linalg.norm(y2)
    assert np.linalg.norm(u3 - u2) <= 1e-10 * np.linalg.norm(u2)
    assert np.linalg.norm(lam3 - lam2) <= 1e-10 * np.linalg.norm(lam2)
    assert np.linalg.norm(u3 - lam3 / config.beta) <= 1e-10 * np.linalg.norm(u3)


def test_sylvester_solution_maps_to_kkt_solution():
    ops, config, grid, yd = _small_problem(cells=2, m_t=2, sigma=1.0, beta=0.25)
    yd_lr = lowrank_desired(yd, 1e-14)
    problem = build_sylvester_problem(ops, config, grid, yd_lr)
    a_dense = (
        np.linalg.solve(ops.mass.toarray(), ops.stiffness.toarray())
        + problem.shift * np.eye(ops.n)
    )
    x = kron_sylvester_solve(a_dense, problem.b_matrix.toarray(), problem.r1 @ problem.r2.T)
    y_ref, u_ref, lam_ref = solve_kkt_dense(
        assemble_kkt_dense(ops, config, grid, yd), config.beta
    )
    sb = np.sqrt(config.beta)
    assert np.linalg.norm(x[:, : grid.m_t] - y_ref) <= 1e-10 * np.linalg.norm(y_ref)
    assert np.linalg.norm(sb * x[:, grid.m_t :] - lam_ref) <= 1e-10 * np.linalg.norm(lam_ref)


# ---------------------------------------------------------------------------
# problem assembly invariants


def test_problem_scaling_invariance():
    ops, config, grid, yd = _small_problem(cells=2, m_t=2, sigma=0.3, beta=0.5)
    yd_lr = lowrank_desired(yd, 1e-14)
    p1 = build_sylvester_problem(ops, config, grid, yd_lr)
    scaled = SpaceOperators((7.0 * ops.mass).tocsr(), (7.0 * ops.stiffness).tocsr())
    p2 = build_sylvester_problem(scaled, config, grid, yd_lr)
    a1 = np.linalg.solve(ops.mass.toarray(), ops.stiffness.toarray())
    x1 = kron_sylvester_solve(
        a1 + p1.shift * np.eye(ops.n), p1.b_matrix.toarray(), p1.r1 @ p1.r2.T
    )
    a2 = np.linalg.solve(scaled.mass.toarray(), scaled.stiffness.toarray())
    x2 = kron_sylvester_solve(
        a2 + p2.shift * np.eye(ops.n), p2.b_matrix.toarray(), p2.r1 @ p2.r2.T
    )
    assert np.linalg.norm(x1 - x2) <= 1e-12 * np.linalg.norm(x1)


def test_problem_unique_solvability_on_tiny_instance():
    # the shift keeps the inverse map well conditioned for the identity check
    ops, config, grid, yd = _small_problem(cells=1, m_t=2, sigma=1.0, beta=0.5, shift=1.0)
    yd_lr = lowrank_desired(yd, 1e-14)
    problem = build_sylvester_problem(ops, config, grid, yd_lr)
    a_dense = (
        np.linalg.solve(ops.mass.toarray(), ops.stiffness.toarray())
        + problem.shift * np.eye(ops.n)
    )
    big = np.kron(np.eye(2 * grid.m_t), a_dense) + np.kron(
        problem.b_matrix.toarray().T, np.eye(ops.n)
    )
    assert np.linalg.matrix_rank(big) == big.shape[0]
    # invariants carried by the problem object
    assert np.all(problem.r2[: grid.m_t] == 0.0)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(ops.n)
    assert np.linalg.norm(problem.apply_a_inv(problem.apply_a(v)) - v) <= 1e-10


def test_problem_rhs_norm_is_computed_once_per_problem(monkeypatch):
    ops, config, grid, yd = _small_problem(cells=2, m_t=3, sigma=1.0, beta=1e-2)
    problem = build_sylvester_problem(ops, config, grid, lowrank_desired(yd, 1e-14))
    calls = []

    def counted(x):
        calls.append(x.rank)
        return lacore.lowrank_norm(x)

    monkeypatch.setattr(reformulate, "lowrank_norm", counted)
    _, report = skpik_solve(problem, tol=1e-10)
    assert report.converged
    assert problem.rhs_norm == pytest.approx(np.linalg.norm(problem.r1 @ problem.r2.T), rel=1e-14)
    assert len(calls) == 1
    # a replaced right-hand side gets its own norm, not the cached one
    doubled = dataclasses.replace(problem, r2=2.0 * problem.r2)
    assert doubled.rhs_norm == pytest.approx(2.0 * problem.rhs_norm, rel=1e-14)
    assert len(calls) == 2


def test_problem_build_and_solves_never_factor_B(monkeypatch):
    def refuse(_):
        raise AssertionError("B was factored")

    monkeypatch.setattr(reformulate, "sparse_lu_factorize", refuse)
    ops, config, grid, yd = _small_problem(cells=3, m_t=4, sigma=1.0, beta=1e-2)
    yd_lr = lowrank_desired(yd, config.trunc_tol)
    problem = build_sylvester_problem(ops, config, grid, yd_lr)
    x, report = skpik_solve(problem, config.tol, config.trunc_tol, config.max_it)
    assert report.converged
    assert factored_residual(x.left, x.right, problem) == report.residual
    _, baseline = lrminres_solve(ops, config, grid, yd_lr)
    assert baseline.converged


def test_problem_factors_B_on_first_access_only(monkeypatch):
    ops, config, grid, yd = _small_problem(cells=2, m_t=5, sigma=1.0, beta=1e-2, shift=0.5)
    problem = build_sylvester_problem(ops, config, grid, lowrank_desired(yd, 1e-12))
    calls = []

    def counted(b):
        calls.append(b.shape)
        return lacore.sparse_lu_factorize(b)

    monkeypatch.setattr(reformulate, "sparse_lu_factorize", counted)
    rhs = np.random.default_rng(3).standard_normal((2 * grid.m_t, 2))
    x = problem.b_lu.solve(rhs)
    assert problem.b_lu.solve(rhs).tobytes() == x.tobytes()
    assert calls == [(2 * grid.m_t, 2 * grid.m_t)]
    dense = np.linalg.solve(problem.b_matrix.toarray(), rhs)
    assert np.linalg.norm(x - dense) <= 1e-12 * np.linalg.norm(dense)


@pytest.mark.parametrize("sigma", [0.0, 1.0, 1e4])
@pytest.mark.parametrize("shift", [None, 0.5])
def test_problem_B_transpose_products_keep_the_bits_of_B(sigma, shift):
    ops, config, grid, yd = _small_problem(m_t=7, sigma=sigma, beta=1e-2, shift=shift)
    problem = build_sylvester_problem(ops, config, grid, lowrank_desired(yd, 1e-12))
    assert problem.b_transpose is problem.b_transpose
    rng = np.random.default_rng(11)
    for rows in (1, 4, 9):
        z = rng.standard_normal((rows, 2 * grid.m_t))
        assert (problem.b_transpose @ z.T).T.tobytes() == (z @ problem.b_matrix).tobytes()
        x = rng.standard_normal((2 * grid.m_t, rows))
        assert (problem.b_transpose @ x).tobytes() == (problem.b_matrix.T @ x).tobytes()


def test_problem_warns_for_tiny_beta():
    ops, config, grid, yd = _small_problem(cells=1, m_t=1, sigma=1.0, beta=1e-13)
    yd_lr = lowrank_desired(yd, 1e-14)
    with pytest.warns(UserWarning):
        build_sylvester_problem(ops, config, grid, yd_lr)


# ---------------------------------------------------------------------------
# solution extraction


def test_extract_solution_unit_beta():
    rng = np.random.default_rng(3)
    x = LowRankMatrix(rng.standard_normal((5, 2)), rng.standard_normal((8, 2)))
    y, u, lam = extract_solution(x, 1.0)
    dense = x.to_dense()
    assert np.allclose(u.to_dense(), dense[:, 4:])
    assert np.allclose(y.to_dense(), dense[:, :4])


def test_extract_solution_scaling():
    x = LowRankMatrix(np.array([[1.0]]), np.array([[1.0], [2.0]]))
    y, u, lam = extract_solution(x, 4.0)
    assert np.allclose(lam.to_dense(), [[4.0]])
    assert np.allclose(u.to_dense(), [[1.0]])
    assert np.allclose(y.to_dense(), [[1.0]])


def test_extract_solution_rejects_odd_columns():
    x = LowRankMatrix(np.zeros((3, 1)), np.zeros((5, 1)))
    with pytest.raises(ValueError):
        extract_solution(x, 1.0)


def test_extract_solution_satisfies_state_equation():
    ops, config, grid, yd = _small_problem(cells=2, m_t=2, sigma=1.0, beta=0.5)
    yd_lr = lowrank_desired(yd, 1e-14)
    problem = build_sylvester_problem(ops, config, grid, yd_lr)
    a_dense = (
        np.linalg.solve(ops.mass.toarray(), ops.stiffness.toarray())
        + problem.shift * np.eye(ops.n)
    )
    x_dense = kron_sylvester_solve(
        a_dense, problem.b_matrix.toarray(), problem.r1 @ problem.r2.T
    )
    # refactor the dense solution and extract the trajectories
    u_, s_, vt_ = np.linalg.svd(x_dense, full_matrices=False)
    keep = s_ > 1e-13 * s_[0]
    x_lr = LowRankMatrix(u_[:, keep] * s_[keep], vt_[keep].T.copy())
    y, u, lam = extract_solution(x_lr, config.beta)
    c = time_difference_matrix(grid.m_t).toarray()
    mm = np.kron(np.eye(grid.m_t), ops.mass.toarray())
    nsig = np.kron(np.eye(grid.m_t), grid.tau * ops.stiffness.toarray()) + np.kron(
        c, config.sigma * ops.mass.toarray()
    )
    res = nsig @ vec(y.to_dense()) - grid.tau * (mm @ vec(u.to_dense()))
    assert np.linalg.norm(res) <= 1e-8 * np.linalg.norm(grid.tau * (mm @ vec(u.to_dense())))
