"""Comparison solvers for the coupled space-time optimality system.

``lrminres_solve`` runs preconditioned MINRES on the symmetric reduced
two-block system with every iterate kept in low-rank factored form and
truncated after each linear combination.  ``fminres_solve`` marches the
per-time-step saddle systems forward with full-vector preconditioned
MINRES.  Both share one MINRES recurrence parameterized over the vector
representation, which is what makes the truncation-free low-rank run
reproduce the dense run iterate for iterate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .discretize import ProblemConfig, SpaceOperators, TimeGrid
from .lacore import (
    LinAlgFailure,
    LowRankMatrix,
    lowrank_norm,
    sparse_spd_factorize,
    truncated_svd,
)
from .reformulate import build_sylvester_problem, time_difference_matrix
from .skpik import SolveReport, factored_residual

__all__ = [
    "LowRankVector",
    "SchurHatApprox",
    "FminresStepError",
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


class FminresStepError(LinAlgFailure):
    """A per-time-step solve failed to converge; carries the step index."""

    def __init__(self, step: int, relres: float):
        super().__init__(
            f"per-step solve did not converge at time step {step} "
            f"(relative residual {relres:.3e})"
        )
        self.step = step


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
    if a.rank == 0 or b.rank == 0:
        return 0.0
    return float(np.sum((a.left.T @ b.left) * (a.right.T @ b.right)))


def lowrank_inner(x: LowRankVector, y: LowRankVector) -> float:
    """Euclidean inner product of two block iterates, factor-side only."""
    return _block_inner(x.yblk, y.yblk) + _block_inner(x.lblk, y.lblk)


def _block_axpy(
    x: LowRankMatrix, y: LowRankMatrix, alpha: float, trunc_tol: float, k_max
) -> LowRankMatrix:
    """x + alpha*y through :func:`truncated_svd` with a rank cap, plus zero detection.

    A result whose total mass is at round-off level relative to the
    inputs that formed it is an exact cancellation and collapses to rank
    zero.
    """
    scale = lowrank_norm(x) + abs(alpha) * lowrank_norm(y)
    combined = LowRankMatrix(
        np.hstack([x.left, y.left]), np.hstack([x.right, alpha * y.right])
    )
    out = truncated_svd(combined, trunc_tol, k_max)
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
    k1, k2 = z.yblk.rank, z.lblk.rank
    m_t = z.yblk.right.shape[0]
    x1 = np.hstack([z.yblk.left, z.lblk.left])
    x2 = np.zeros((2 * m_t, k1 + k2))
    x2[:m_t, :k1] = z.yblk.right
    x2[m_t:, k1:] = z.lblk.right
    return x1, x2


# ---------------------------------------------------------------------------
# Schur complement approximation


@dataclass
class SchurHatApprox:
    """Matching-type approximation of the coupled Schur complement.

    Stores the factorization of the per-step diagonal block
    D = sigma*M + tau*K + (tau/sqrt(beta))*M; the approximation itself is
    (1/tau) * Nhat M_block^{-1} Nhat^T with Nhat block lower bidiagonal
    in time, so its inverse applies exactly by two substitution sweeps.
    """

    mass: sp.csr_matrix
    d_fact: object
    sigma: float
    tau: float
    m_t: int

    def solve_mat(self, v: np.ndarray) -> np.ndarray:
        """Apply the inverse to an n-by-m_t block of time slices."""
        v = np.asarray(v, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if v.shape[1] != self.m_t:
            raise ValueError(f"expected {self.m_t} time slices, got {v.shape[1]}")
        w = np.empty_like(v)
        w[:, 0] = self.d_fact.solve(v[:, 0])
        for j in range(1, self.m_t):
            w[:, j] = self.d_fact.solve(v[:, j] + self.sigma * (self.mass @ w[:, j - 1]))
        u = self.mass @ w
        z = np.empty_like(v)
        z[:, -1] = self.d_fact.solve(u[:, -1])
        for j in range(self.m_t - 2, -1, -1):
            z[:, j] = self.d_fact.solve(u[:, j] + self.sigma * (self.mass @ z[:, j + 1]))
        return self.tau * z

    def solve_vec(self, v: np.ndarray) -> np.ndarray:
        n = self.mass.shape[0]
        mat = np.asarray(v, dtype=float).reshape((n, self.m_t), order="F")
        return self.solve_mat(mat).reshape(-1, order="F")


def build_schur_hat(ops: SpaceOperators, config: ProblemConfig, grid: TimeGrid) -> SchurHatApprox:
    sigma = config.effective_sigma
    tau = grid.tau
    d = (sigma * ops.mass + tau * ops.stiffness + (tau / np.sqrt(config.beta)) * ops.mass).tocsr()
    return SchurHatApprox(ops.mass, sparse_spd_factorize(d), sigma, tau, grid.m_t)


def apply_schur_hat_inv(
    v: np.ndarray, ops: SpaceOperators, config: ProblemConfig, grid: TimeGrid
) -> np.ndarray:
    """One-shot inverse application (factorizes on every call)."""
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
        self.sigma = config.effective_sigma

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


def lrminres_solve(
    ops: SpaceOperators,
    config: ProblemConfig,
    grid: TimeGrid,
    yd_lowrank: LowRankMatrix,
    tol: float | None = None,
    k_max: int | None = 50,
    trunc_tol: float | None = None,
    max_it: int | None = None,
) -> tuple[LowRankVector, SolveReport]:
    """Low-rank preconditioned MINRES on the reduced optimality system.

    The preconditioner is block diagonal: the scaled mass block and the
    matching Schur complement approximation of this system (the
    two-block Schur complement is beta times the three-block one, which
    the scaling below accounts for).  Convergence is certified on the
    factored residual of the recompressed candidate solution.
    """
    tol = config.tol if tol is None else tol
    trunc_tol = config.trunc_tol if trunc_tol is None else trunc_tol
    max_it = config.max_it if max_it is None else max_it
    if tol <= 0:
        raise ValueError("tol must be positive")
    start = time.perf_counter()
    n, m_t = ops.n, grid.m_t
    tau = grid.tau

    if lowrank_norm(yd_lowrank) == 0.0:
        report = SolveReport(
            method="lrminres",
            converged=True,
            iterations=0,
            residual=0.0,
            rank=0,
            seconds=time.perf_counter() - start,
            absolute_residual=True,
            extra={"solution": LowRankMatrix.zero(n, 2 * m_t), "stop_reason": "converged"},
        )
        return LowRankVector.zero(n, m_t), report

    problem = build_sylvester_problem(ops, config, grid, yd_lowrank)
    op = _CoupledOperator(ops, config, grid)
    m_fact = ops.mass_factor
    schur = build_schur_hat(ops, config, grid)
    beta = config.beta

    def apply_prec(z: LowRankVector) -> LowRankVector:
        top = LowRankMatrix(m_fact.solve(z.yblk.left) / tau, z.yblk.right.copy())
        if z.lblk.rank == 0:
            bottom = z.lblk
        else:
            dense = schur.solve_mat(z.lblk.to_dense()) / beta
            bottom = truncated_svd(LowRankMatrix(dense, np.eye(m_t)), trunc_tol, k_max)
        return LowRankVector(top, bottom)

    rhs = LowRankVector(
        LowRankMatrix(tau * (ops.mass @ yd_lowrank.left), yd_lowrank.right.copy()),
        LowRankMatrix.zero(n, m_t),
    )

    best: dict = {"x": None, "res": np.inf}

    def stop_fn(zx: LowRankVector, relres: float) -> bool:
        if relres > tol:
            return False
        candidate = truncated_svd(LowRankMatrix(*combined_solution_factors(zx)), trunc_tol)
        res = factored_residual(candidate.left, candidate.right, problem)
        if res < best["res"]:
            best.update(x=candidate, res=res)
        return res <= tol

    z, history, itn, reason = _minres(
        rhs,
        op.apply,
        apply_prec,
        lowrank_inner,
        lambda x, y, a: lowrank_axpy_truncate(x, y, a, trunc_tol, k_max),
        _lr_scale,
        lambda: LowRankVector.zero(n, m_t),
        tol,
        max_it,
        stop_fn=stop_fn,
    )
    if best["x"] is None:
        xc = truncated_svd(LowRankMatrix(*combined_solution_factors(z)), trunc_tol)
        res = factored_residual(xc.left, xc.right, problem)
    else:
        xc, res = best["x"], best["res"]
    if res <= tol:  # the last candidate can certify after the MINRES estimate missed
        reason = "converged"
    report = SolveReport(
        method="lrminres",
        converged=res <= tol,
        iterations=itn,
        residual=res,
        rank=xc.rank,
        seconds=time.perf_counter() - start,
        residual_history=history,
        extra={"solution": xc, "stop_reason": reason},
    )
    return z, report


# ---------------------------------------------------------------------------
# sequential per-time-step MINRES


def fminres_solve(
    ops: SpaceOperators,
    config: ProblemConfig,
    grid: TimeGrid,
    yd: np.ndarray,
    tol: float | None = None,
    max_it: int | None = None,
) -> tuple[np.ndarray, SolveReport]:
    """March the per-step saddle systems forward in time.

    Each step solves a 3n-by-3n symmetric saddle system for (state,
    control, multiplier) with full-vector MINRES preconditioned by the
    block diagonal of the scaled mass blocks and the per-step matching
    Schur approximation.  For a single time step this coincides with the
    coupled problem; for more steps it is a cheap heuristic that ignores
    the backward-in-time coupling of the multiplier.  Reported
    iterations are the mean per-step count.  ``converged`` refers to
    the per-step solves only; ``extra["coupled_residual"]`` is the
    relative residual of [Y | Lambda/sqrt(beta)] on the coupled
    Sylvester equation, evaluated by :func:`factored_residual`.
    """
    tol = config.tol if tol is None else tol
    max_it = config.max_it if max_it is None else max_it
    if tol <= 0:
        raise ValueError("tol must be positive")
    start = time.perf_counter()
    yd = np.asarray(yd, dtype=float)
    n, m_t = ops.n, grid.m_t
    if yd.shape != (n, m_t):
        raise ValueError(f"desired state has shape {yd.shape}, expected ({n}, {m_t})")
    tau = grid.tau
    beta = config.beta
    sigma = config.effective_sigma
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
    nhat_fact = build_schur_hat(ops, config, grid).d_fact

    def apply_prec(v: np.ndarray) -> np.ndarray:
        out = np.empty_like(v)
        out[:n] = m_fact.solve(v[:n]) / tau
        out[n : 2 * n] = m_fact.solve(v[n : 2 * n]) / (tau * beta)
        out[2 * n :] = tau * nhat_fact.solve(mass @ nhat_fact.solve(v[2 * n :]))
        return out

    y_traj = np.zeros((n, m_t))
    u_traj = np.zeros((n, m_t))
    lam_traj = np.zeros((n, m_t))
    counts = []
    final_res = []
    y_prev = np.zeros(n)
    for step in range(m_t):
        rhs = np.concatenate([tau * (mass @ yd[:, step]), np.zeros(n), sigma * (mass @ y_prev)])
        if np.linalg.norm(rhs) == 0.0:
            counts.append(0)
            final_res.append(0.0)
            continue
        x, history, itn, reason = _minres(
            rhs,
            lambda v: a_step @ v,
            apply_prec,
            lambda a, b: float(a @ b),
            lambda a, b, c: a + c * b,
            lambda a, c: c * a,
            lambda: np.zeros(3 * n),
            tol,
            max_it,
        )
        if reason != "converged":
            raise FminresStepError(step + 1, history[-1] if history else np.inf)
        y_traj[:, step] = x[:n]
        u_traj[:, step] = x[n : 2 * n]
        lam_traj[:, step] = x[2 * n :]
        y_prev = y_traj[:, step]
        counts.append(itn)
        final_res.append(history[-1] if history else 0.0)
    # the per-step solves ignore the backward coupling, so measure it on the whole system
    problem = build_sylvester_problem(ops, config, grid, LowRankMatrix(yd, np.eye(m_t)))
    coupled = factored_residual(
        np.hstack([y_traj, lam_traj / np.sqrt(beta)]), np.eye(2 * m_t), problem
    )
    report = SolveReport(
        method="fminres",
        converged=True,
        iterations=float(np.mean(counts)) if counts else 0.0,
        residual=float(np.max(final_res)) if final_res else 0.0,
        rank=0,
        seconds=time.perf_counter() - start,
        residual_history=final_res,
        extra={
            "stop_reason": "converged",
            "coupled_residual": coupled,
            "step_iterations": counts,
            "control": u_traj,
            "multiplier": lam_traj,
        },
    )
    return y_traj, report
