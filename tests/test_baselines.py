import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import eddyopt.baselines as baselines
from eddyopt.baselines import (
    LowRankVector,
    _block_axpy,
    _block_inner,
    apply_schur_hat_inv,
    build_schur_hat,
    combined_solution_factors,
    fminres_solve,
    lowrank_axpy_truncate,
    lowrank_inner,
    lowrank_norm,
    lrminres_solve,
)
from eddyopt.discretize import (
    ProblemConfig,
    SpaceOperators,
    TimeGrid,
    build_mesh,
    build_operators,
    lowrank_desired,
    sample_desired_state,
)
from eddyopt.lacore import (
    LowRankMatrix,
    factor_cores,
    sparse_lu_factorize,
    sparse_spd_factorize,
    truncated_svd,
    truncation_rank,
)
from eddyopt.reformulate import (
    assemble_kkt_dense,
    build_sylvester_problem,
    solve_kkt_dense,
    vec,
)
from eddyopt.skpik import factored_residual

from oracles import dense_schur_hat, solve_kkt2


def _identity_ops(n):
    eye = sp.identity(n, format="csr")
    return SpaceOperators(eye, eye)


def _mesh_setup(cells=2, m_t=2, sigma=1.0, beta=1.0, **kw):
    mesh = build_mesh(cells)
    config = ProblemConfig(sigma=sigma, beta=beta, **kw)
    grid = TimeGrid(m_t)
    ops = build_operators(mesh, config)
    yd = sample_desired_state("ex1", mesh, grid)
    return ops, config, grid, yd


def _random_lr(rng, n, m, k):
    return LowRankMatrix(rng.standard_normal((n, k)), rng.standard_normal((m, k)))


# ---------------------------------------------------------------------------
# Schur complement approximation


def test_schur_hat_scalar_case():
    ops = _identity_ops(3)
    config = ProblemConfig(sigma=0.0, beta=1.0, eps_reg=0.0)
    grid = TimeGrid(1)
    v = np.array([1.0, -2.0, 4.0])
    out = apply_schur_hat_inv(v, ops, config, grid)
    assert np.allclose(out, v / 4.0)


@pytest.mark.parametrize(
    "m_t,cells,sigma,beta",
    [(1, 2, 0.5, 0.1), (4, 2, 2.0, 1e-3), (4, 2, 0.0, 1e-3), (4, 2, 1e4, 1e-3)],
)
def test_schur_hat_matches_dense_oracle(m_t, cells, sigma, beta):
    ops, config, grid, _ = _mesh_setup(cells=cells, m_t=m_t, sigma=sigma, beta=beta)
    shat = dense_schur_hat(
        ops.mass.toarray(), ops.stiffness.toarray(), config.sigma,
        grid.tau, config.beta, grid.m_t,
    )
    rng = np.random.default_rng(4)
    v = rng.standard_normal(ops.n * grid.m_t)
    fast = apply_schur_hat_inv(v, ops, config, grid)
    oracle = np.linalg.solve(shat, v)
    tol = 1e-12 if m_t == 1 else 1e-10
    assert np.linalg.norm(fast - oracle) <= tol * np.linalg.norm(oracle)


@pytest.mark.parametrize("k", [1, 3, 6])
def test_schur_hat_serves_any_number_of_slices(k):
    # built at m_t = 4, applied to k slices: the approximation of k steps
    ops, config, grid, _ = _mesh_setup(cells=2, m_t=4, sigma=2.0, beta=1e-3)
    shat = dense_schur_hat(
        ops.mass.toarray(), ops.stiffness.toarray(), config.sigma, grid.tau, config.beta, k
    )
    v = np.random.default_rng(5).standard_normal((ops.n, k))
    out = build_schur_hat(ops, config, grid).solve_mat(v)
    oracle = np.linalg.solve(shat, vec(v)).reshape((ops.n, k), order="F")
    assert np.linalg.norm(out - oracle) <= 1e-10 * np.linalg.norm(oracle)


def test_schur_hat_apply_then_inverse_roundtrip():
    ops, config, grid, _ = _mesh_setup(cells=2, m_t=3, sigma=1.0, beta=0.01)
    shat_dense = dense_schur_hat(
        ops.mass.toarray(), ops.stiffness.toarray(), config.sigma,
        grid.tau, config.beta, grid.m_t,
    )
    hat = build_schur_hat(ops, config, grid)
    rng = np.random.default_rng(9)
    v = rng.standard_normal(ops.n * grid.m_t)
    back = hat.solve_vec(shat_dense @ v)
    assert np.linalg.norm(back - v) <= 1e-10 * np.linalg.norm(v)


# ---------------------------------------------------------------------------
# low-rank vector arithmetic


def test_axpy_alpha_zero_truncates_only():
    rng = np.random.default_rng(0)
    x = LowRankVector(_random_lr(rng, 10, 4, 2), _random_lr(rng, 10, 4, 3))
    y = LowRankVector(_random_lr(rng, 10, 4, 2), _random_lr(rng, 10, 4, 2))
    out = lowrank_axpy_truncate(x, y, 0.0, 1e-12, 10)
    assert np.linalg.norm(out.yblk.to_dense() - x.yblk.to_dense()) <= 1e-11 * lowrank_norm(x.yblk)
    assert np.linalg.norm(out.lblk.to_dense() - x.lblk.to_dense()) <= 1e-11 * lowrank_norm(x.lblk)


def test_axpy_exact_cancellation_gives_rank_zero():
    rng = np.random.default_rng(1)
    x = LowRankVector(_random_lr(rng, 8, 3, 2), _random_lr(rng, 8, 3, 2))
    minus = LowRankVector(
        LowRankMatrix(x.yblk.left.copy(), -0.5 * x.yblk.right),
        LowRankMatrix(x.lblk.left.copy(), -0.5 * x.lblk.right),
    )
    out = lowrank_axpy_truncate(x, minus, 2.0, 1e-10, 10)
    assert out.yblk.rank == 0
    assert out.lblk.rank == 0


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 4),
    st.integers(0, 4),
    # near underflow (|alpha| ~ 1e-300) the QR of alpha*y loses its relative accuracy
    st.one_of(st.just(0.0), st.floats(1e-6, 3.0), st.floats(-3.0, -1e-6)),
    st.sampled_from([0.0, 1e-10, 1e-3]),
)
def test_block_axpy_scale_from_truncation_cores(seed, kx, ky, alpha, trunc):
    rng = np.random.default_rng(seed)
    x, y = _random_lr(rng, 12, 6, kx), _random_lr(rng, 12, 6, ky)
    combined = LowRankMatrix(np.hstack([x.left, y.left]), np.hstack([x.right, alpha * y.right]))
    if combined.rank:
        # the cancellation scale ||x|| + |alpha| ||y|| read off the truncation's QR
        _, cl, _, cr = factor_cores(combined)
        from_cores = np.linalg.norm(cl[:, :kx] @ cr[:, :kx].T) + np.linalg.norm(
            cl[:, kx:] @ cr[:, kx:].T
        )
        direct = lowrank_norm(x) + abs(alpha) * lowrank_norm(y)
        assert abs(from_cores - direct) <= 1e-12 * direct
    out = _block_axpy(x, y, alpha, trunc, 3)
    ref = truncated_svd(combined, trunc, 3)
    assert np.array_equal(out.left, ref.left) and np.array_equal(out.right, ref.right)
    assert _block_axpy(x, x, -1.0, trunc, 3).rank == 0


def test_axpy_reconstruction_error_within_tolerance():
    rng = np.random.default_rng(2)
    for trunc in (1e-10, 1e-4):
        x = LowRankVector(_random_lr(rng, 30, 8, 3), _random_lr(rng, 30, 8, 3))
        y = LowRankVector(_random_lr(rng, 30, 8, 2), _random_lr(rng, 30, 8, 2))
        alpha = 0.7
        out = lowrank_axpy_truncate(x, y, alpha, trunc, None)
        for blk, xb, yb in (("y", x.yblk, y.yblk), ("l", x.lblk, y.lblk)):
            target = xb.to_dense() + alpha * yb.to_dense()
            got = (out.yblk if blk == "y" else out.lblk).to_dense()
            assert np.linalg.norm(got - target) <= trunc * np.linalg.norm(target) + 1e-14


def test_axpy_rank_cap():
    rng = np.random.default_rng(3)
    x = LowRankVector(_random_lr(rng, 20, 10, 6), _random_lr(rng, 20, 10, 6))
    y = LowRankVector(_random_lr(rng, 20, 10, 6), _random_lr(rng, 20, 10, 6))
    out = lowrank_axpy_truncate(x, y, 1.0, 0.0, 4)
    assert out.yblk.rank <= 4 and out.lblk.rank <= 4


def test_lowrank_inner_matches_dense():
    rng = np.random.default_rng(4)
    x = LowRankVector(_random_lr(rng, 12, 5, 3), _random_lr(rng, 12, 5, 2))
    y = LowRankVector(_random_lr(rng, 12, 5, 2), _random_lr(rng, 12, 5, 4))
    dense = float(
        np.sum(x.yblk.to_dense() * y.yblk.to_dense())
        + np.sum(x.lblk.to_dense() * y.lblk.to_dense())
    )
    assert abs(lowrank_inner(x, y) - dense) <= 1e-12 * max(1.0, abs(dense))


# ---------------------------------------------------------------------------
# low-rank MINRES


def test_lrminres_zero_target():
    ops, config, grid, _ = _mesh_setup()
    z, report = lrminres_solve(ops, config, grid, LowRankMatrix.zero(ops.n, grid.m_t))
    assert report.converged
    assert report.iterations == 0
    assert lowrank_norm(z.yblk) == 0.0
    assert report.extra["stop_reason"] == "converged"
    # MINRES stops at beta_1 = 0 and the rank-0 candidate certifies at 0, absolutely
    assert report.residual == 0.0
    assert report.rank == 0
    assert report.extra["solution"].shape == (ops.n, 2 * grid.m_t)
    assert report.absolute_residual


def test_lrminres_matches_dense_oracle_tiny():
    ops, config, grid, yd = _mesh_setup(cells=4, m_t=4, sigma=1.0, beta=1e-2, tol=1e-6)
    yd_lr = lowrank_desired(yd, 1e-12)
    z, report = lrminres_solve(ops, config, grid, yd_lr)
    assert report.converged
    assert report.extra["stop_reason"] == "converged"
    assert report.residual <= 1e-6
    y_o, u_o, lam_o = solve_kkt2(
        ops.mass.toarray(), ops.stiffness.toarray(), config.sigma,
        grid.tau, config.beta, yd,
    )
    y_got = z.yblk.to_dense()
    lam_scaled = z.lblk.to_dense()  # stores multiplier / sqrt(beta)
    assert np.linalg.norm(y_got - y_o) <= 1e-5 * np.linalg.norm(y_o)
    assert np.linalg.norm(np.sqrt(config.beta) * lam_scaled - lam_o) <= 1e-5 * np.linalg.norm(lam_o)


def test_lrminres_stop_reason_max_it():
    ops, config, grid, yd = _mesh_setup(cells=4, m_t=4, sigma=1.0, beta=1e-2, tol=1e-6, max_it=1)
    yd_lr = lowrank_desired(yd, 1e-12)
    _, report = lrminres_solve(ops, config, grid, yd_lr)
    assert not report.converged
    assert report.iterations == 1
    assert report.extra["stop_reason"] == "max_it"


def test_lrminres_stop_reason_krylov_exhausted():
    # one unknown and one time step: the Krylov space has dimension two,
    # and a tolerance below rounding level cannot be certified on it
    config = ProblemConfig(sigma=1.0, beta=1.0, eps_reg=0.0, shift=0.0, tol=1e-30)
    grid = TimeGrid(1)
    yd_lr = lowrank_desired(np.ones((1, 1)), 1e-14)
    _, report = lrminres_solve(_identity_ops(1), config, grid, yd_lr)
    assert not report.converged
    assert report.iterations == 2
    assert report.residual <= 1e-14
    assert report.extra["stop_reason"] == "krylov_exhausted"


def test_lrminres_truncation_free_matches_dense_minres_iterates(monkeypatch):
    monkeypatch.setattr(baselines, "RANK_CAP", None)
    ops, config, grid, yd = _mesh_setup(cells=4, m_t=4, sigma=1.0, beta=1e-2)
    yd_lr = lowrank_desired(yd, 0.0)
    n, m_t = ops.n, grid.m_t

    # dense run of the same recurrence on the assembled system, snapshotting
    # every iterate through the stop hook
    from eddyopt.baselines import _minres, build_schur_hat as _bsh
    from eddyopt.lacore import sparse_spd_factorize

    kkt = assemble_kkt_dense(ops, config, grid, yd)
    m_fact = sparse_spd_factorize(ops.mass)
    schur = _bsh(ops, config, grid)
    tau, beta = grid.tau, config.beta

    def dense_prec(v):
        out = np.empty_like(v)
        half = n * m_t
        out[:half] = vec(m_fact.solve(v[:half].reshape((n, m_t), order="F"))) / tau
        out[half:] = schur.solve_vec(v[half:]) / beta
        return out

    dense_iters = []
    _minres(
        kkt.rhs,
        lambda v: kkt.matrix @ v,
        dense_prec,
        lambda a, b: float(a @ b),
        lambda a, b, c: a + c * b,
        lambda a, c: c * a,
        lambda: np.zeros(2 * n * m_t),
        0.0,
        15,
        stop_fn=lambda x, r: dense_iters.append(x.copy()) or False,
    )

    for k in (1, 3, 8, 15):
        exact = dataclasses.replace(config, tol=1e-30, trunc_tol=0.0, max_it=k)
        z, report = lrminres_solve(ops, exact, grid, yd_lr)
        full = np.concatenate([vec(z.yblk.to_dense()), vec(z.lblk.to_dense())])
        ref = dense_iters[k - 1]
        assert np.linalg.norm(full - ref) <= 1e-10 * max(np.linalg.norm(ref), 1e-30)


def test_lrminres_favorable_corner_converges_with_truncation():
    ops, config, grid, yd = _mesh_setup(cells=6, m_t=8, sigma=1e-4, beta=1e-8, tol=1e-6)
    yd_lr = lowrank_desired(yd, 1e-10)
    z, report = lrminres_solve(ops, config, grid, yd_lr)
    assert report.converged
    assert report.residual <= 1e-6


def _minimality_setup():
    ops, config, grid, yd = _mesh_setup(cells=6, m_t=8, sigma=1.0, beta=1e-2)
    yd_lr = lowrank_desired(yd, config.trunc_tol)
    return ops, config, grid, yd_lr, build_sylvester_problem(ops, config, grid, yd_lr)


def _capped_solve(monkeypatch, ops, config, grid, yd_lr):
    """lrminres with its best candidate returned at the trunc_tol rank, uncompressed."""
    with monkeypatch.context() as patch:
        patch.setattr(baselines, "_compress", lambda xc, res, *args: (xc, res))
        return lrminres_solve(ops, config, grid, yd_lr)[1]


def test_lrminres_stores_the_smallest_certified_rank(monkeypatch):
    ops, config, grid, yd_lr, problem = _minimality_setup()
    tol, m_t = config.tol, grid.m_t
    _, report = lrminres_solve(ops, config, grid, yd_lr)
    capped = _capped_solve(monkeypatch, ops, config, grid, yd_lr)
    x = report.extra["solution"]
    k = x.rank
    assert report.converged and report.rank == k
    assert report.iterations == capped.iterations
    assert report.residual_history == capped.residual_history
    assert 1 < k < capped.rank
    assert report.residual == factored_residual(x.left, x.right, problem) <= tol
    # the left factor is orthonormal, so the right columns carry s
    s = np.linalg.norm(x.right, axis=0)
    qt = (x.right / s).T
    blocks_ok = all(
        truncation_rank(s * np.linalg.norm(qt[:, half], axis=1), tol) <= k - 1
        for half in (slice(0, m_t), slice(m_t, 2 * m_t))
    )
    below = factored_residual(x.left[:, : k - 1], x.right[:, : k - 1], problem)
    assert below > tol or not blocks_ok


def test_truncation_residuals_match_factored_residual_of_each_truncation(monkeypatch):
    ops, config, grid, yd_lr, problem = _minimality_setup()
    xc = _capped_solve(monkeypatch, ops, config, grid, yd_lr).extra["solution"]
    assert xc.rank > 5
    residuals = baselines._truncation_residuals(xc.left, xc.right, problem)
    assert len(residuals) == xc.rank
    for k, res in enumerate(residuals, 1):
        certified = factored_residual(xc.left[:, :k], xc.right[:, :k], problem)
        # both are relative to ||R1 R2^T||_F
        assert abs(res - certified) <= 1e-12
    assert baselines._truncation_residuals(xc.left[:, :0], xc.right[:, :0], problem) == []


def test_lrminres_report_phases_cover_the_solve():
    ops, config, grid, yd_lr, _ = _minimality_setup()
    _, report = lrminres_solve(ops, config, grid, yd_lr)
    phases = report.extra["phases"]
    assert tuple(phases) == ("precondition", "compress", "certify", "minres")
    assert all(v > 0.0 for v in phases.values())
    assert sum(phases.values()) == pytest.approx(report.seconds, rel=1e-9)


# ---------------------------------------------------------------------------
# rank zero through the general paths

_EMPTY = LowRankMatrix.zero(6, 4)
_X = LowRankMatrix(np.arange(12.0).reshape(6, 2), np.arange(1.0, 9.0).reshape(4, 2))
_SPD = sp.diags(np.arange(1.0, 7.0), format="csr")


def _factors(x):
    return [x.left, x.right]


@pytest.mark.parametrize(
    "compute,expected",
    [
        pytest.param(lambda: [lowrank_norm(_EMPTY)], [0.0], id="lowrank_norm"),
        pytest.param(
            lambda: _factors(truncated_svd(_EMPTY, 1e-10)), _factors(_EMPTY), id="truncated_svd"
        ),
        pytest.param(
            lambda: [_block_inner(_EMPTY, _X), _block_inner(_X, _EMPTY)], [0.0, 0.0],
            id="block_inner",
        ),
        pytest.param(
            lambda: _factors(_block_axpy(_EMPTY, _EMPTY, 2.0, 1e-10, 10)), _factors(_EMPTY),
            id="block_axpy",
        ),
        pytest.param(
            lambda: [sparse_spd_factorize(_SPD).solve(np.zeros((6, 0)))], [np.zeros((6, 0))],
            id="cholesky_solve",
        ),
        pytest.param(
            lambda: [sparse_lu_factorize(_SPD).solve(np.zeros((6, 0)))], [np.zeros((6, 0))],
            id="lu_solve",
        ),
        pytest.param(
            lambda: list(combined_solution_factors(LowRankVector(_X, _EMPTY))),
            [_X.left, np.vstack([_X.right, np.zeros((4, 2))])],
            id="combined_empty_multiplier",
        ),
        pytest.param(
            lambda: list(combined_solution_factors(LowRankVector(_EMPTY, _X))),
            [_X.left, np.vstack([np.zeros((4, 2)), _X.right])],
            id="combined_empty_state",
        ),
    ],
)
def test_rank_zero_inputs_take_the_general_paths(compute, expected):
    got = compute()
    assert len(got) == len(expected)
    for value, want in zip(got, expected):
        assert np.shape(value) == np.shape(want)
        assert np.asarray(value).dtype == np.float64
        np.testing.assert_array_equal(value, want)


# ---------------------------------------------------------------------------
# sequential per-step MINRES


def test_fminres_single_step_matches_dense_oracle():
    ops, config, grid, yd = _mesh_setup(cells=4, m_t=1, sigma=1.0, beta=1e-2, tol=1e-10)
    y, report = fminres_solve(ops, config, grid, yd)
    assert report.converged
    assert report.extra["stop_reason"] == "converged"
    y_o, u_o, _ = solve_kkt2(
        ops.mass.toarray(), ops.stiffness.toarray(), config.sigma,
        grid.tau, config.beta, yd,
    )
    assert np.linalg.norm(y - y_o) <= 1e-6 * np.linalg.norm(y_o)
    assert np.linalg.norm(report.extra["control"] - u_o) <= 1e-6 * np.linalg.norm(u_o)


def test_fminres_reports_a_missed_step_instead_of_raising():
    # one MINRES iteration cannot meet tol: the march stops at the first step
    ops, config, grid, yd = _mesh_setup(cells=4, m_t=4, sigma=1.0, beta=1e-2, max_it=1)
    y, report = fminres_solve(ops, config, grid, yd)
    assert not report.converged
    assert report.extra["stop_reason"] == "max_it"
    assert report.extra["step_iterations"] == [1]
    assert report.iterations == 1.0
    assert report.residual > config.tol
    assert y.shape == (ops.n, grid.m_t)
    assert np.linalg.norm(y[:, 0]) > 0.0
    assert not y[:, 1:].any() and not report.extra["multiplier"][:, 1:].any()
    assert np.isfinite(report.extra["coupled_residual"])


def test_fminres_report_phases_cover_the_solve():
    ops, config, grid, yd = _mesh_setup(cells=3, m_t=3, sigma=1.0, beta=1e-2)
    _, report = fminres_solve(ops, config, grid, yd)
    phases = report.extra["phases"]
    assert tuple(phases) == ("precondition", "minres")
    assert all(v > 0.0 for v in phases.values())
    assert sum(phases.values()) == pytest.approx(report.seconds, rel=1e-9)


def test_fminres_zero_target_zero_trajectory():
    ops, config, grid, _ = _mesh_setup(cells=2, m_t=3)
    y, report = fminres_solve(ops, config, grid, np.zeros((ops.n, 3)))
    assert np.array_equal(y, np.zeros_like(y))
    assert report.iterations == 0.0
    # every step stops MINRES at beta_1 = 0 with the zero vector
    assert report.extra["step_iterations"] == [0] * grid.m_t
    assert report.residual == 0.0


def test_fminres_reports_mean_iterations():
    ops, config, grid, yd = _mesh_setup(cells=3, m_t=4, sigma=2.0, beta=1e-2, tol=1e-8)
    y, report = fminres_solve(ops, config, grid, yd)
    counts = report.extra["step_iterations"]
    assert len(counts) == grid.m_t
    assert report.iterations == pytest.approx(np.mean(counts))
    assert np.mean([3, 5]) == 4.0  # the reported statistic is the plain mean


@pytest.mark.parametrize("m_t", [1, 20])
def test_fminres_reports_coupled_residual(m_t):
    # one step is the coupled problem; over 20 steps the ignored backward
    # coupling shows in the residual although every step converged
    ops, config, grid, yd = _mesh_setup(cells=8, m_t=m_t, sigma=1.0, beta=1e-2)
    y, report = fminres_solve(ops, config, grid, yd)
    assert report.converged and report.extra["stop_reason"] == "converged"
    coupled = report.extra["coupled_residual"]
    if m_t == 1:
        assert coupled <= 100 * config.tol
    else:
        assert coupled > 1e-2
    # the value of the factored residual of [Y | Lambda/sqrt(beta)], up to rounding
    problem = build_sylvester_problem(ops, config, grid, LowRankMatrix(yd, np.eye(m_t)))
    x = np.hstack([y, report.extra["multiplier"] / np.sqrt(config.beta)])
    assert coupled == pytest.approx(factored_residual(x, np.eye(2 * m_t), problem), rel=1e-12)


def test_fminres_zero_target_has_zero_coupled_residual():
    ops, config, grid, _ = _mesh_setup(cells=2, m_t=3)
    _, report = fminres_solve(ops, config, grid, np.zeros((ops.n, 3)))
    assert report.extra["coupled_residual"] == 0.0


def test_minres_history_monotone_in_preconditioner_norm():
    from eddyopt.baselines import _minres, build_schur_hat
    from eddyopt.lacore import sparse_spd_factorize

    ops, config, grid, yd = _mesh_setup(cells=3, m_t=1, sigma=1.0, beta=1e-2)
    n = ops.n
    tau, beta = grid.tau, config.beta
    nmat = (config.sigma * ops.mass + tau * ops.stiffness).tocsr()
    a_step = sp.bmat(
        [
            [tau * ops.mass, None, nmat.T],
            [None, tau * beta * ops.mass, -tau * ops.mass],
            [nmat, -tau * ops.mass, None],
        ],
        format="csr",
    )
    m_fact = sparse_spd_factorize(ops.mass)
    nhat_fact = sparse_spd_factorize((nmat + (tau / np.sqrt(beta)) * ops.mass).tocsr())

    def prec(v):
        out = np.empty_like(v)
        out[:n] = m_fact.solve(v[:n]) / tau
        out[n : 2 * n] = m_fact.solve(v[n : 2 * n]) / (tau * beta)
        out[2 * n :] = tau * nhat_fact.solve(ops.mass @ nhat_fact.solve(v[2 * n :]))
        return out

    rhs = np.concatenate([tau * (ops.mass @ yd[:, 0]), np.zeros(2 * n)])
    _, history, _, reason = _minres(
        rhs,
        lambda v: a_step @ v,
        prec,
        lambda a, b: float(a @ b),
        lambda a, b, c: a + c * b,
        lambda a, c: c * a,
        lambda: np.zeros(3 * n),
        1e-10,
        200,
    )
    assert reason == "converged"
    assert all(b <= a * (1 + 1e-14) for a, b in zip(history, history[1:]))


def test_fminres_per_step_saddle_symmetric():
    ops, config, grid, _ = _mesh_setup(cells=2, m_t=1, sigma=0.5, beta=0.1)
    tau = grid.tau
    sigma = config.sigma
    nmat = (sigma * ops.mass + tau * ops.stiffness).tocsr()
    a_step = sp.bmat(
        [
            [tau * ops.mass, None, nmat.T],
            [None, tau * config.beta * ops.mass, -tau * ops.mass],
            [nmat, -tau * ops.mass, None],
        ]
    ).toarray()
    assert np.allclose(a_step, a_step.T)
