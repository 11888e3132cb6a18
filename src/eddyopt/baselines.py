"""Comparison solvers for the coupled space-time optimality system.

``lrminres_solve`` runs preconditioned MINRES on the symmetric reduced
two-block system with every iterate kept in low-rank factored form and
truncated after each linear combination.  ``fminres_solve`` marches the
per-time-step saddle systems forward with full-vector preconditioned
MINRES.  Both share one MINRES recurrence parameterized over the vector
representation, which is what makes the truncation-free low-rank run
reproduce the dense run iterate for iterate, and both precondition with
:class:`SchurHatApprox`, the matching Schur approximation of Pearson,
Stoll and Wathen.

Both take their settings (tol, trunc_tol, max_it) from the
:class:`~eddyopt.discretize.ProblemConfig` only, and report a miss of
tol in the :class:`~eddyopt.skpik.SolveReport` (``converged`` false, and
``extra["stop_reason"]``) instead of raising.  lrminres stores its
certified solution at the smallest rank that the rank rule it shares
with skpik, :func:`~eddyopt.lacore.certified_truncation`, certifies.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .discretize import ProblemConfig, SpaceOperators, TimeGrid
from .lacore import (
    LinAlgFailure,
    LowRankMatrix,
    SparseFactorization,
    certified_truncation,
    factor_cores,
    lowrank_from_dense,
    lowrank_norm,
    truncate_cores,
    truncated_svd,
)
from .reformulate import (
    SylvesterProblem,
    build_B,
    build_sylvester_problem,
    time_coefficients,
    time_difference_matrix,
)
from .skpik import SolveReport, _phase, factored_residual

__all__ = [
    "LowRankVector",
    "SchurHatApprox",
    "lowrank_axpy_truncate",
    "lowrank_inner",
    "lowrank_norm",
    "build_schur_hat",
    "apply_schur_hat_inv",
    "lrminres_solve",
    "fminres_solve",
    "combined_solution_factors",
]

_EPS = np.finfo(float).eps

# lrminres truncates each block of every iterate to at most this rank (None: no cap);
# its preconditioner's output is truncated by trunc_tol alone
RANK_CAP = 50


@dataclass(frozen=True)
class LowRankVector:
    """Block iterate of the reduced system in factored form.

    ``yblk`` represents the state trajectory, ``lblk`` the scaled
    multiplier trajectory; both are n-by-m_t matrices stored as skinny
    factor products.
    """

    yblk: LowRankMatrix
    lblk: LowRankMatrix

    @classmethod
    def zero(cls, n: int, m_t: int) -> "LowRankVector":
        return cls(LowRankMatrix.zero(n, m_t), LowRankMatrix.zero(n, m_t))


def _block_inner(a: LowRankMatrix, b: LowRankMatrix) -> float:
    return float(np.sum((a.left.T @ b.left) * (a.right.T @ b.right)))


def lowrank_inner(x: LowRankVector, y: LowRankVector) -> float:
    """Euclidean inner product of two block iterates, factor-side only."""
    return _block_inner(x.yblk, y.yblk) + _block_inner(x.lblk, y.lblk)


def _block_axpy(
    x: LowRankMatrix, y: LowRankMatrix, alpha: float, trunc_tol: float, k_max
) -> LowRankMatrix:
    """x + alpha*y through the steps of :func:`truncated_svd` with a rank cap, plus zero detection.

    A result whose total mass is at round-off level relative to the
    inputs that formed it, ||x||_F + |alpha| ||y||_F, is an exact
    cancellation and collapses to rank zero.  Both norms come from the
    triangular factors of the truncation's own QR.
    """
    combined = LowRankMatrix(
        np.hstack([x.left, y.left]), np.hstack([x.right, alpha * y.right])
    )
    cores = factor_cores(combined)
    _, cl, _, cr = cores
    k = x.rank
    scale = np.linalg.norm(cl[:, :k] @ cr[:, :k].T) + np.linalg.norm(cl[:, k:] @ cr[:, k:].T)
    out = truncate_cores(cores, trunc_tol, k_max)
    # the left factor is orthonormal, so the right one carries the norm
    if np.linalg.norm(out.right) <= 64.0 * _EPS * scale:
        return LowRankMatrix.zero(*combined.shape)
    return out


def lowrank_axpy_truncate(
    x: LowRankVector, y: LowRankVector, alpha: float, trunc_tol: float, k_max: int | None
) -> LowRankVector:
    """Represent x + alpha*y blockwise with SVD truncation and a rank cap."""
    return LowRankVector(
        _block_axpy(x.yblk, y.yblk, alpha, trunc_tol, k_max),
        _block_axpy(x.lblk, y.lblk, alpha, trunc_tol, k_max),
    )


def _lr_scale(x: LowRankVector, c: float) -> LowRankVector:
    return LowRankVector(
        LowRankMatrix(x.yblk.left, c * x.yblk.right),
        LowRankMatrix(x.lblk.left, c * x.lblk.right),
    )


def combined_solution_factors(z: LowRankVector) -> tuple[np.ndarray, np.ndarray]:
    """Stack the two blocks into factors of the n-by-2m_t solution matrix."""
    x1 = np.hstack([z.yblk.left, z.lblk.left])
    return x1, scipy.linalg.block_diag(z.yblk.right, z.lblk.right)


# ---------------------------------------------------------------------------
# Schur complement approximation


@dataclass
class SchurHatApprox:
    """Matching-type approximation of the coupled Schur complement.

    (1/tau) * Nhat M_block^{-1} Nhat^T, Nhat block lower bidiagonal in
    time with D = sigma*M + tau*K + (tau/sqrt(beta))*M on the diagonal and
    -sigma*M below it.  D = tau*F with F = K + (g + w)*M, (g, w) from
    :func:`~eddyopt.reformulate.time_coefficients`; the object holds the
    factorization of F and applies the inverse exactly by two
    substitution sweeps with it.  It serves any number of time slices:
    a block of k slices gets the approximation of k steps.
    """

    mass: sp.csr_matrix
    factor: SparseFactorization
    g: float
    tau: float

    def solve_mat(self, v: np.ndarray) -> np.ndarray:
        """Apply the inverse to an n-by-k block of k time slices."""
        v = np.asarray(v, dtype=float)
        w = np.empty_like(v)
        w[:, 0] = self.factor.solve(v[:, 0])
        for j in range(1, v.shape[1]):
            w[:, j] = self.factor.solve(v[:, j] + self.g * (self.mass @ w[:, j - 1]))
        u = self.mass @ w
        z = np.empty_like(v)
        z[:, -1] = self.factor.solve(u[:, -1])
        for j in range(v.shape[1] - 2, -1, -1):
            z[:, j] = self.factor.solve(u[:, j] + self.g * (self.mass @ z[:, j + 1]))
        return z / self.tau

    def solve_vec(self, v: np.ndarray) -> np.ndarray:
        n = self.mass.shape[0]
        mat = np.asarray(v, dtype=float).reshape((n, -1), order="F")
        return self.solve_mat(mat).reshape(-1, order="F")


def build_schur_hat(ops: SpaceOperators, config: ProblemConfig, grid: TimeGrid) -> SchurHatApprox:
    """The approximation at this point, on the factorization of K + (g + w)*M that ``ops`` keeps."""
    g, w = time_coefficients(config.sigma, grid.tau, config.beta)
    return SchurHatApprox(ops.mass, ops.shifted_factor(g + w), g, grid.tau)


def apply_schur_hat_inv(
    v: np.ndarray, ops: SpaceOperators, config: ProblemConfig, grid: TimeGrid
) -> np.ndarray:
    """One-shot inverse application; the factorization comes from ``ops``."""
    return build_schur_hat(ops, config, grid).solve_vec(v)


# ---------------------------------------------------------------------------
# shared MINRES recurrence


def _minres(b, apply_op, apply_prec, inner, add, scale, zero, tol, max_it, stop_fn=None):
    """Preconditioned MINRES over an abstract vector representation.

    ``add(x, y, a)`` must return x + a*y, ``scale(x, c)`` returns c*x,
    ``zero()`` the zero vector.  Convergence uses the preconditioner-norm
    residual estimate unless ``stop_fn(x, relres)`` takes over.  Returns
    (x, history, iterations, stop reason), the reason being
    ``"converged"``, ``"krylov_exhausted"`` (the Lanczos weight beta
    reached 0 first) or ``"max_it"``.
    """
    x = zero()
    r1 = b
    y = apply_prec(r1)
    beta1_sq = inner(r1, y)
    if beta1_sq < 0:
        raise LinAlgFailure("preconditioner is not positive definite")
    beta1 = np.sqrt(beta1_sq)
    history: list[float] = []
    if beta1 == 0.0:
        return x, history, 0, "converged"
    oldb = 0.0
    beta = beta1
    dbar = 0.0
    epsln = 0.0
    phibar = beta1
    cs = -1.0
    sn = 0.0
    w = zero()
    w2 = zero()
    r2 = r1
    reason = "max_it"
    itn = 0
    while itn < max_it:
        itn += 1
        v = scale(y, 1.0 / beta)
        y = apply_op(v)
        if itn >= 2:
            y = add(y, r1, -beta / oldb)
        alfa = inner(v, y)
        y = add(y, r2, -alfa / beta)
        r1 = r2
        r2 = y
        y = apply_prec(r2)
        oldb = beta
        beta_sq = inner(r2, y)
        if beta_sq < 0:
            # truncation noise can push the tiny Lanczos weight negative
            beta_sq = 0.0
        beta = np.sqrt(beta_sq)
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = max(np.hypot(gbar, beta), 1e-300)
        cs = gbar / gamma
        sn = beta / gamma
        phi = cs * phibar
        phibar = sn * phibar
        w1 = w2
        w2 = w
        w = scale(add(add(v, w1, -oldeps), w2, -delta), 1.0 / gamma)
        x = add(x, w, phi)
        relres = phibar / beta1
        history.append(relres)
        done = relres <= tol if stop_fn is None else stop_fn(x, relres)
        if done:
            reason = "converged"
            break
        if beta == 0.0:
            reason = "krylov_exhausted"
            break
    return x, history, itn, reason


# ---------------------------------------------------------------------------
# low-rank MINRES on the reduced two-block system


class _CoupledOperator:
    """The symmetric reduced-system operator acting on factored blocks."""

    def __init__(self, ops: SpaceOperators, config: ProblemConfig, grid: TimeGrid):
        self.mass = ops.mass
        self.stiffness = ops.stiffness
        self.cmat = time_difference_matrix(grid.m_t).tocsr()
        self.tau = grid.tau
        self.sb = np.sqrt(config.beta)
        self.sigma = config.sigma

    def apply(self, z: LowRankVector) -> LowRankVector:
        tau, sb, sig = self.tau, self.sb, self.sigma
        y1, y2 = z.yblk.left, z.yblk.right
        l1, l2 = z.lblk.left, z.lblk.right
        top_left = [tau * (self.mass @ y1), sb * tau * (self.stiffness @ l1)]
        top_right = [y2, l2]
        bot_left = [sb * tau * (self.stiffness @ y1), -tau * (self.mass @ l1)]
        bot_right = [y2, l2]
        if sig != 0.0:
            top_left.append(sb * sig * (self.mass @ l1))
            top_right.append(self.cmat.T @ l2)
            bot_left.insert(1, sb * sig * (self.mass @ y1))
            bot_right.insert(1, self.cmat @ y2)
        return LowRankVector(
            LowRankMatrix(np.hstack(top_left), np.hstack(top_right)),
            LowRankMatrix(np.hstack(bot_left), np.hstack(bot_right)),
        )


def _truncation_residuals(x1: np.ndarray, x2: np.ndarray, problem: SylvesterProblem) -> list[float]:
    """Relative residuals of the truncations of x1 x2^T to rank 1, 2, ..., from one QR per side.

    With a_j, b_j the columns of x1, x2 and p the width of R1, the
    residual of the rank-k truncation is the product of the leading
    p + 2k columns of the stacks [-R1, A a_1, a_1, A a_2, a_2, ...] and
    [R2, b_1, B^T b_1, b_2, B^T b_2, ...].  Leading columns of a stack are
    its Q times the leading columns of its triangular factor, so one QR
    per stack serves every k: A is applied once, and each rank costs one
    product of two small triangles.
    """
    p, k = problem.r1.shape[1], x1.shape[1]
    left = np.empty((problem.n, p + 2 * k))
    right = np.empty((2 * problem.m_t, p + 2 * k))
    left[:, :p], right[:, :p] = -problem.r1, problem.r2
    left[:, p::2], left[:, p + 1 :: 2] = problem.apply_a(x1), x1
    right[:, p::2], right[:, p + 1 :: 2] = x2, problem.b_transpose @ x2
    cl = np.linalg.qr(left, mode="r")
    cr = np.linalg.qr(right, mode="r")
    den = problem.rhs_norm or 1.0
    return [
        float(np.linalg.norm(cl[:c, :c] @ cr[:c, :c].T)) / den
        for c in range(p + 2, p + 2 * k + 1, 2)
    ]


def _compress(
    xc: LowRankMatrix, res: float, problem: SylvesterProblem, tol: float, phases: dict[str, float]
) -> tuple[LowRankMatrix, float]:
    """Truncate the certified candidate xc by :func:`~eddyopt.lacore.certified_truncation`.

    xc is in SVD form already: its left factor is orthonormal and its
    right columns are v_j s_j.  It is the ``trunc_tol`` truncation of
    its iterate, so the rule's cap is its whole rank (rule tolerance 0),
    whose certificate ``res`` is known.  The rule scans the residuals of
    :func:`_truncation_residuals`, and only the rank it picks is
    certified anew by :func:`factored_residual`.
    """

    def certify(k: int) -> tuple[LowRankMatrix, float]:
        if k == xc.rank:
            return xc, res
        x = LowRankMatrix(xc.left[:, :k].copy(), xc.right[:, :k].copy())
        with _phase(phases, "certify", within="compress"):
            return x, factored_residual(x.left, x.right, problem)

    with _phase(phases, "compress"):
        s = np.linalg.norm(xc.right, axis=0)
        return certified_truncation(
            s,
            (xc.right / s).T,
            tol,
            0.0,
            lambda k: _truncation_residuals(xc.left[:, :k], xc.right[:, :k], problem),
            certify,
        )


def lrminres_solve(
    ops: SpaceOperators,
    config: ProblemConfig,
    grid: TimeGrid,
    yd_lowrank: LowRankMatrix,
) -> tuple[LowRankVector, SolveReport]:
    """Low-rank preconditioned MINRES on the reduced optimality system.

    The preconditioner is block diagonal: the scaled mass block and the
    matching Schur complement approximation of this system (the
    two-block Schur complement is beta times the three-block one, which
    the scaling below accounts for).  Every iterate is truncated at
    ``config.trunc_tol`` and to at most ``RANK_CAP`` per block.
    Convergence is certified on the factored residual of the candidate
    solution, the iterate's two blocks recompressed at ``trunc_tol``;
    only the best candidate certified is kept.  A candidate that meets
    ``config.tol`` is stored, as ``extra["solution"]``, at the smallest
    rank that the rank rule shared with skpik,
    :func:`~eddyopt.lacore.certified_truncation`, certifies (see
    :func:`_compress`); the reported residual is that rank's certificate.
    When no candidate meets ``config.tol`` within ``config.max_it``
    iterations, the best one is stored as it is, and the report has
    ``converged`` false and ``extra["stop_reason"]`` ``"max_it"`` or
    ``"krylov_exhausted"``.  A zero target stops MINRES at 0 iterations,
    and its rank-0 candidate certifies with absolute residual 0.
    ``extra["phases"]`` holds the seconds spent in ``precondition``
    (``apply_prec``: the mass solve, the Schur sweeps and their
    compression), ``compress`` (the rank rule), ``certify`` (every
    :func:`factored_residual` call) and ``minres`` (the rest).
    """
    tol, trunc_tol = config.tol, config.trunc_tol
    start = time.perf_counter()
    phases = dict.fromkeys(("precondition", "compress", "certify", "minres"), 0.0)
    n, m_t = ops.n, grid.m_t
    tau = grid.tau
    problem = build_sylvester_problem(ops, config, grid, yd_lowrank)
    op = _CoupledOperator(ops, config, grid)
    m_fact = ops.mass_factor
    schur = build_schur_hat(ops, config, grid)
    beta = config.beta

    def apply_prec(z: LowRankVector) -> LowRankVector:
        with _phase(phases, "precondition"):
            top = LowRankMatrix(m_fact.solve(z.yblk.left) / tau, z.yblk.right.copy())
            if z.lblk.rank == 0:
                bottom = z.lblk
            else:
                bottom = lowrank_from_dense(schur.solve_mat(z.lblk.to_dense()) / beta, trunc_tol)
            return LowRankVector(top, bottom)

    rhs = LowRankVector(
        LowRankMatrix(tau * (ops.mass @ yd_lowrank.left), yd_lowrank.right.copy()),
        LowRankMatrix.zero(n, m_t),
    )

    xc, res = None, np.inf

    def certify(zx: LowRankVector) -> float:
        """Certify the recompressed candidate of zx, and keep it if it is the best so far."""
        nonlocal xc, res
        candidate = truncated_svd(LowRankMatrix(*combined_solution_factors(zx)), trunc_tol)
        with _phase(phases, "certify"):
            candidate_res = factored_residual(candidate.left, candidate.right, problem)
        if xc is None or candidate_res < res:
            xc, res = candidate, candidate_res
        return candidate_res

    z, history, itn, reason = _minres(
        rhs,
        op.apply,
        apply_prec,
        lowrank_inner,
        lambda x, y, a: lowrank_axpy_truncate(x, y, a, trunc_tol, RANK_CAP),
        _lr_scale,
        lambda: LowRankVector.zero(n, m_t),
        tol,
        config.max_it,
        stop_fn=lambda zx, relres: relres <= tol and certify(zx) <= tol,
    )
    if xc is None:
        certify(z)
    if res <= tol:  # the last candidate can certify after the MINRES estimate missed
        reason = "converged"
        xc, res = _compress(xc, res, problem, tol, phases)
    seconds = time.perf_counter() - start
    phases["minres"] = seconds - sum(phases.values())
    report = SolveReport(
        method="lrminres",
        converged=res <= tol,
        iterations=itn,
        residual=res,
        rank=xc.rank,
        seconds=seconds,
        residual_history=history,
        absolute_residual=problem.rhs_norm == 0.0,
        extra={"solution": xc, "stop_reason": reason, "phases": phases},
    )
    return z, report


# ---------------------------------------------------------------------------
# sequential per-time-step MINRES


def _coupled_residual(
    ops: SpaceOperators, config: ProblemConfig, grid: TimeGrid, yd: np.ndarray, x: np.ndarray
) -> float:
    """||A X + X B - [0 | Yd/sqrt(beta)]||_F / ||Yd/sqrt(beta)||_F for a dense X.

    A = M^{-1} K and B is :func:`~eddyopt.reformulate.build_B`, unshifted:
    a shift adds and takes away the same s X.  X B and A X are each
    formed whole, A X by one band solve of all 2 m_t columns.  The norm is
    absolute when Yd is zero.
    """
    m_t = grid.m_t
    scale = 1.0 / np.sqrt(config.beta)
    res = np.asarray(x @ build_B(config.sigma, grid.tau, config.beta, m_t))
    res += ops.mass_factor.solve(ops.stiffness @ x)
    res[:, m_t:] -= scale * yd
    rhs_norm = scale * float(np.linalg.norm(yd))
    res_norm = float(np.linalg.norm(res))
    return res_norm / rhs_norm if rhs_norm else res_norm


def fminres_solve(
    ops: SpaceOperators,
    config: ProblemConfig,
    grid: TimeGrid,
    yd: np.ndarray,
) -> tuple[np.ndarray, SolveReport]:
    """March the per-step saddle systems forward in time.

    Each step solves a 3n-by-3n symmetric saddle system for (state,
    control, multiplier) with full-vector MINRES preconditioned by the
    block diagonal of the scaled mass blocks and the one-step
    :class:`SchurHatApprox`.  For a single time step this coincides with
    the coupled problem; for more steps it is a cheap heuristic that
    ignores the backward-in-time coupling of the multiplier.  Reported
    iterations are the mean per-step count.  ``converged`` refers to
    the per-step solves only, each run to ``config.tol`` in at most
    ``config.max_it`` iterations.  The march stops at the first step
    that misses tol: the report then has ``converged`` false, that
    step's MINRES reason as ``extra["stop_reason"]`` and the iterations
    of the steps run so far, and the trajectories hold those steps (the
    missed one included) and zeros after them.
    ``extra["coupled_residual"]`` is the relative residual of
    [Y | Lambda/sqrt(beta)] on the coupled Sylvester equation
    A X + X B = R1 R2^T.  A step with a zero right-hand side stops
    MINRES at 0 iterations with the zero vector, so a zero target gives
    zero trajectories and 0 iterations per step.  ``extra["phases"]``
    holds the seconds spent in ``precondition`` (``apply_prec``: the mass
    solves and the one-step Schur sweeps) and ``minres`` (the rest).
    """
    start = time.perf_counter()
    phases = dict.fromkeys(("precondition", "minres"), 0.0)
    yd = np.asarray(yd, dtype=float)
    n, m_t = ops.n, grid.m_t
    if yd.shape != (n, m_t):
        raise ValueError(f"desired state has shape {yd.shape}, expected ({n}, {m_t})")
    tau = grid.tau
    beta = config.beta
    sigma = config.sigma
    mass = ops.mass
    nmat = (sigma * mass + tau * ops.stiffness).tocsr()
    a_step = sp.bmat(
        [
            [tau * mass, None, nmat.T],
            [None, tau * beta * mass, -tau * mass],
            [nmat, -tau * mass, None],
        ],
        format="csr",
    )
    m_fact = ops.mass_factor
    schur = build_schur_hat(ops, config, grid)

    def apply_prec(v: np.ndarray) -> np.ndarray:
        with _phase(phases, "precondition"):
            out = np.empty_like(v)
            out[:n] = m_fact.solve(v[:n]) / tau
            out[n : 2 * n] = m_fact.solve(v[n : 2 * n]) / (tau * beta)
            out[2 * n :] = schur.solve_vec(v[2 * n :])
            return out

    y_traj = np.zeros((n, m_t))
    u_traj = np.zeros((n, m_t))
    lam_traj = np.zeros((n, m_t))
    counts = []
    final_res = []
    y_prev = np.zeros(n)
    reason = "converged"
    for step in range(m_t):
        rhs = np.concatenate([tau * (mass @ yd[:, step]), np.zeros(n), sigma * (mass @ y_prev)])
        x, history, itn, reason = _minres(
            rhs,
            lambda v: a_step @ v,
            apply_prec,
            lambda a, b: float(a @ b),
            lambda a, b, c: a + c * b,
            lambda a, c: c * a,
            lambda: np.zeros(3 * n),
            config.tol,
            config.max_it,
        )
        y_traj[:, step] = x[:n]
        u_traj[:, step] = x[n : 2 * n]
        lam_traj[:, step] = x[2 * n :]
        y_prev = y_traj[:, step]
        counts.append(itn)
        final_res.append(history[-1] if history else 0.0)
        if reason != "converged":
            break
    # the per-step solves ignore the backward coupling, so measure it on the whole system
    coupled = _coupled_residual(
        ops, config, grid, yd, np.hstack([y_traj, lam_traj / np.sqrt(beta)])
    )
    seconds = time.perf_counter() - start
    phases["minres"] = seconds - phases["precondition"]
    report = SolveReport(
        method="fminres",
        converged=reason == "converged",
        iterations=float(np.mean(counts)) if counts else 0.0,
        residual=float(np.max(final_res)) if final_res else 0.0,
        rank=0,
        seconds=seconds,
        residual_history=final_res,
        extra={
            "stop_reason": reason,
            "coupled_residual": coupled,
            "step_iterations": counts,
            "control": u_traj,
            "multiplier": lam_traj,
            "phases": phases,
        },
    )
    return y_traj, report
