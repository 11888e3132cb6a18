"""Extended-Krylov solver in space, exact in time, for the Sylvester equation.

Only the large space operator A is projected: the left space is grown
from the left right-hand-side factor with A and its inverse, and its
image A U is kept so that A is applied once per basis column.  The
projected equation T_a Z + Z B = (U^T R1) R2^T keeps the small, sparse
time coupling B whole and is solved exactly: one shifted system
(theta I + B^T) per Ritz value theta of T_a = U^T A U, which reduces to
two symmetric tridiagonal systems of order m_t.  So the sweep count
does not grow with the number of time steps.  The iterate is X = U Z.
Every sweep monitors the projected residual of the Galerkin iterate,
(I - U U^T) A U Z, from quantities the sweep already holds, so the full
solution matrix is never formed.  The final iterate is
recompressed by a truncated SVD of its factors, and only those returned
factors are certified by :func:`factored_residual`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dptsv, zgtsv

from .lacore import (
    LowRankMatrix,
    StagnationError,
    SylvesterConditionError,
    lowrank_norm,
    mgs_orthonormalize,
    real_schur,
    truncated_svd,
)
from .reformulate import SylvesterProblem

__all__ = [
    "SolveReport",
    "KpikState",
    "TimeSideSolver",
    "skpik_init",
    "skpik_sweep",
    "skpik_solve",
    "factored_residual",
]

# skpik stops as stagnated once the projected residual, below
# STAGNATION_LEVEL, has fallen by less than STAGNATION_FACTOR over the last
# STAGNATION_WINDOW sweeps.  Higher up, such a stall can be a plateau that
# ends: a rank-3 target on the 3025-node mesh holds 1.4e-6 for 22 sweeps,
# then converges.  Below sqrt(eps) the stalls measured were all floors.
STAGNATION_FACTOR = 2.0
STAGNATION_WINDOW = 10
STAGNATION_LEVEL = float(np.sqrt(np.finfo(float).eps))


@dataclass
class SolveReport:
    """Outcome of one solver run."""

    method: str
    converged: bool
    iterations: float
    residual: float
    rank: int
    seconds: float
    residual_history: list[float] = field(default_factory=list)
    subspace: tuple[int, int] | None = None
    absolute_residual: bool = False  # set when the right-hand side is zero
    extra: dict = field(default_factory=dict)


class _ExtendedBasis:
    """The extended Krylov space of the space operator.

    Keeps an orthonormal basis U with its image A U, together with the
    two seed blocks that the next extension advances: the forward block
    is mapped by the operator, the inverse block by its inverse.  The
    forward block is a column block of U, so its image is read from the
    cached A U instead of being computed again.  Either block may
    deflate to nothing; once both are empty the space is closed.
    """

    def __init__(self, apply_fwd: Callable, apply_inv: Callable, seed: np.ndarray):
        self.apply_fwd = apply_fwd
        self.apply_inv = apply_inv
        q_fwd = mgs_orthonormalize(seed)
        if q_fwd.shape[1] == 0:
            raise StagnationError("right-hand-side factor deflated to an empty basis")
        q_inv = mgs_orthonormalize(apply_inv(q_fwd), against=q_fwd)
        self.basis = np.hstack([q_fwd, q_inv])
        self.image = apply_fwd(self.basis)
        self.fwd_cols = slice(0, q_fwd.shape[1])
        self.block_inv = q_inv

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def closed(self) -> bool:
        return self.fwd_cols.start == self.fwd_cols.stop and self.block_inv.shape[1] == 0

    def extend(self) -> np.ndarray:
        """Advance the seed blocks; returns the newly added orthonormal columns."""
        n = self.basis.shape[0]
        if self.closed:
            return np.zeros((n, 0))
        if self.fwd_cols.start < self.fwd_cols.stop:
            q_fwd = mgs_orthonormalize(self.image[:, self.fwd_cols], against=self.basis)
        else:
            q_fwd = np.zeros((n, 0))
        if self.block_inv.shape[1]:
            q_inv = mgs_orthonormalize(
                self.apply_inv(self.block_inv),
                against=np.hstack([self.basis, q_fwd]),
            )
        else:
            q_inv = np.zeros((n, 0))
        new = np.hstack([q_fwd, q_inv])
        self.fwd_cols = slice(self.dim, self.dim + q_fwd.shape[1])
        self.block_inv = q_inv
        if new.shape[1]:
            self.basis = np.hstack([self.basis, new])
            self.image = np.hstack([self.image, self.apply_fwd(new)])
        return new


class TimeSideSolver:
    """Exact solver for T Z + Z B = C with a small dense T and the time coupling B.

    B = [[g C^T, w I], [-w I, g C]] - shift I is the matrix of
    :func:`~eddyopt.reformulate.build_B`, with the state steps first and
    the multiplier steps second, C the backward-difference matrix of
    ``m_t`` steps, g = sigma/tau and w = 1/sqrt(beta) > 0.  The solver is
    built from these four numbers, not from B.  For a shift theta let
    L = (theta - shift) I + g C, which is lower bidiagonal.  The system
    (theta I + B^T) [a; b] = [f1; f2] reads L a - w b = f1 and
    w a + L^T b = f2; eliminating one block in each leaves

        (L^T L + w^2 I) a = L^T f1 + w f2,
        (L L^T + w^2 I) b = L f2 - w f1,

    two symmetric tridiagonal systems, positive definite for real theta.
    Both are solved by one LAPACK ``dptsv`` of order 2 m_t whose
    off-diagonal entry between the two halves is zero.  A complex theta
    gives complex symmetric systems, solved by ``zgtsv``.  The reduced
    systems are singular exactly when theta I + B^T is.  The reduction
    squares the conditioning of L, which costs about two digits against
    a solve with theta I + B^T itself.
    """

    def __init__(self, g: float, w: float, shift: float, m_t: int):
        if m_t < 1:
            raise ValueError("m_t must be at least 1")
        self.g, self.w, self.shift, self.m_t = float(g), float(w), float(shift), m_t
        # the diagonals less their (theta - shift + g)^2 part: L^T L adds g^2
        # on every step but the last, L L^T on every step but the first
        tail = np.full(m_t, self.g * self.g)
        tail[-1] = 0.0
        self.diag = np.concatenate([tail, tail[::-1]]) + self.w * self.w
        # the off-diagonals, -g (theta - shift + g), divided by that factor
        self.off = np.full(2 * m_t - 1, -self.g)
        self.off[m_t - 1] = 0.0

    def _shifted_solve(self, theta, f: np.ndarray) -> np.ndarray:
        """Solve (theta I + B^T) x = f through the two reduced systems."""
        m, g, w = self.m_t, self.g, self.w
        p = theta - self.shift + g  # the diagonal of L
        rhs = p * f
        rhs[:m] += w * f[m:]
        rhs[m:] -= w * f[:m]
        rhs[: m - 1] -= g * f[1:m]
        rhs[m + 1 :] -= g * f[m:-1]
        if np.iscomplexobj(rhs):
            off = p * self.off
            _, _, _, x, info = zgtsv(off, self.diag + p * p, off, rhs, overwrite_b=1)
        else:
            _, _, x, info = dptsv(
                self.diag + p * p, p * self.off, rhs, overwrite_d=1, overwrite_e=1, overwrite_b=1
            )
        if info != 0 or not np.isfinite(x).all():
            raise SylvesterConditionError(
                f"singular Sylvester pair: eigenvalue {theta:.6g} of the left "
                f"coefficient cancels an eigenvalue of the time coupling"
            )
        return x

    def solve(self, t: np.ndarray, c: np.ndarray) -> np.ndarray:
        """Return the real Z with t Z + Z B = c.

        t is brought to real Schur form q s q^T and the rows of q^T Z are
        found from the last upwards, one shifted solve per 1x1 block.  A
        2x2 block holds a complex-conjugate pair (mu, conj mu); its two
        rows are 2 Re(v zeta), with v the eigenvector for mu and zeta
        from one complex solve with (mu I + B^T).  Raises
        :class:`SylvesterConditionError` when a shifted system is singular.
        """
        t = np.asarray(t, dtype=float)
        c = np.asarray(c, dtype=float)
        if c.shape != (t.shape[0], 2 * self.m_t):
            raise ValueError(
                f"right-hand side shape {c.shape} does not match "
                f"({t.shape[0]}, {2 * self.m_t})"
            )
        q, s = real_schur(t)
        f = q.T @ c
        z = np.zeros_like(f)
        hi = s.shape[0]
        while hi > 0:
            lo = hi - 2 if hi >= 2 and s[hi - 1, hi - 2] != 0.0 else hi - 1
            rhs = f[lo:hi] - s[lo:hi, hi:] @ z[hi:]
            if hi - lo == 1:
                z[lo] = self._shifted_solve(s[lo, lo], rhs[0])
            else:
                mu, v = np.linalg.eig(s[lo:hi, lo:hi])
                zeta = self._shifted_solve(mu[0], np.linalg.solve(v, rhs)[0])
                z[lo:hi] = 2.0 * np.real(np.outer(v[:, 0], zeta))
            hi = lo
        return q @ z


@dataclass
class KpikState:
    """Workspace of the projection iteration.

    Holds the left extended Krylov basis U, which caches its image A U,
    with the projected operator t_a = U^T A U and the projected
    right-hand-side factor U^T R1; the time-side solver; the norm of
    R1 R2^T; and the solution z of the projected equation, so that the
    iterate is X = U z.  The history of projected residuals, relative to
    the norm of R1 R2^T, sits next to them.
    """

    left: _ExtendedBasis
    time_side: TimeSideSolver
    t_a: np.ndarray
    r1_proj: np.ndarray
    rhs_norm: float
    z: np.ndarray | None = None
    sweeps: int = 0
    residual_history: list[float] = field(default_factory=list)

    @property
    def dims(self) -> tuple[int, int]:
        """(dim U, 2 m_t): the time side is the whole axis."""
        return (self.left.dim, 2 * self.time_side.m_t)


def factored_residual(x1: np.ndarray, x2: np.ndarray, problem: SylvesterProblem) -> float:
    """Relative Frobenius residual of a factored candidate solution.

    Evaluates || A x1 x2^T + x1 x2^T B - R1 R2^T ||_F / || R1 R2^T ||_F
    through skinny QR factors of the stacked slim blocks, never forming
    an n-by-2m_t matrix.  When the right-hand side is zero the absolute
    norm is returned instead.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if x1.ndim == 1:
        x1 = x1[:, None]
    if x2.ndim == 1:
        x2 = x2[:, None]
    den = lowrank_norm(LowRankMatrix(problem.r1, problem.r2))
    if x1.shape[1] == 0 or x2.shape[1] == 0:
        return 1.0 if den > 0 else 0.0
    left_parts = [problem.apply_a(x1), x1]
    right_parts = [x2, problem.b_matrix.T @ x2]
    if problem.r1.shape[1]:
        left_parts.append(-problem.r1)
        right_parts.append(problem.r2)
    num = lowrank_norm(LowRankMatrix(np.column_stack(left_parts), np.column_stack(right_parts)))
    if den == 0.0:
        return num
    return num / den


def skpik_init(problem: SylvesterProblem) -> KpikState:
    """Seed the extended Krylov basis and the projected data.

    The left basis spans the orthonormalized [R1, A^{-1} R1], with
    dependent directions deflated.
    """
    if problem.r1.shape[1] == 0:
        raise ValueError("the right-hand side has rank zero; nothing to iterate on")
    left = _ExtendedBasis(problem.apply_a, problem.apply_a_inv, problem.r1)
    return KpikState(
        left=left,
        time_side=TimeSideSolver(problem.g, problem.w, problem.shift, problem.m_t),
        t_a=left.basis.T @ left.image,
        r1_proj=left.basis.T @ problem.r1,
        rhs_norm=lowrank_norm(LowRankMatrix(problem.r1, problem.r2)),
    )


def skpik_sweep(state: KpikState, problem: SylvesterProblem) -> KpikState:
    """One sweep: extend the left basis, solve the projected equation, record.

    The projected equation T_a Z + Z B = (U^T R1) R2^T is solved exactly
    in time, so the Galerkin condition U^T R = 0 holds on the whole time
    axis and the residual of X = U z is (I - U U^T) A U z.  Its norm is
    recorded relative to that of R1 R2^T.  Raises
    :class:`StagnationError` when the left space has closed after a
    projected solution already exists, since no further progress is
    possible.
    """
    left = state.left
    u_old, a_old = left.basis, left.image
    u_new = left.extend()
    if u_new.shape[1] == 0 and state.z is not None:
        raise StagnationError("the extended Krylov space is exhausted without convergence")
    if u_new.shape[1]:
        a_new = left.image[:, u_old.shape[1] :]
        state.t_a = np.block([[state.t_a, u_old.T @ a_new], [u_new.T @ a_old, u_new.T @ a_new]])
        state.r1_proj = np.vstack([state.r1_proj, u_new.T @ problem.r1])

    state.z = state.time_side.solve(state.t_a, state.r1_proj @ problem.r2.T)
    # relies on R1 in range(U): R1 is the seed block, up to the 1e-12 deflation tolerance
    r = np.linalg.qr(left.image - left.basis @ state.t_a, mode="r")
    res = float(np.linalg.norm(r @ state.z))
    state.residual_history.append(res / state.rhs_norm if state.rhs_norm else res)
    state.sweeps += 1
    return state


def skpik_solve(
    problem: SylvesterProblem,
    tol: float = 1e-6,
    trunc_tol: float = 1e-10,
    max_sweeps: int = 500,
) -> tuple[LowRankMatrix, SolveReport]:
    """Run the projection iteration until the certified residual meets tol.

    Each sweep monitors the projected residual.  Once it passes the
    tolerance, the iterate is compressed by
    :func:`~eddyopt.lacore.truncated_svd` with relative tail ``trunc_tol``
    and :func:`factored_residual` certifies the compressed factors; if
    they fail, sweeping continues.  Sweeping stops early once the
    projected residual is below ``STAGNATION_LEVEL`` (sqrt(eps)) and has
    fallen by less than ``STAGNATION_FACTOR`` over the last
    ``STAGNATION_WINDOW`` sweeps: there the residual has reached the
    attainable accuracy that the conditioning of A sets (see README),
    and more sweeps only grow the basis.  On stagnation, on hitting
    ``max_sweeps`` or on a closed space the last iterate is compressed
    and certified the same way, and the converged flag reflects its
    certified residual; there is no silent success.
    ``extra["stop_reason"]`` is ``"converged"``, ``"stagnation"``,
    ``"max_sweeps"`` or ``"space_exhausted"``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be at least 1")
    start = time.perf_counter()
    if lowrank_norm(LowRankMatrix(problem.r1, problem.r2)) == 0.0:
        x = LowRankMatrix.zero(problem.n, 2 * problem.m_t)
        report = SolveReport(
            method="skpik",
            converged=True,
            iterations=0,
            residual=0.0,
            rank=0,
            seconds=time.perf_counter() - start,
            residual_history=[],
            subspace=(0, 0),
            absolute_residual=True,
            extra={"stop_reason": "converged"},
        )
        return x, report

    state = skpik_init(problem)
    history = state.residual_history
    while True:
        try:
            skpik_sweep(state, problem)
            exhausted = False
        except StagnationError:
            exhausted = True
        stagnated = (
            not exhausted
            and len(history) > STAGNATION_WINDOW
            and history[-1] <= STAGNATION_LEVEL
            and history[-1] * STAGNATION_FACTOR > history[-1 - STAGNATION_WINDOW]
        )
        last = exhausted or stagnated or state.sweeps == max_sweeps
        if last or history[-1] <= tol:
            x = truncated_svd(LowRankMatrix(state.left.basis, state.z.T), trunc_tol)
            res = factored_residual(x.left, x.right, problem)
            if res <= tol or last:
                break
    if res <= tol:
        stop_reason = "converged"
    elif exhausted:
        stop_reason = "space_exhausted"
    else:
        stop_reason = "stagnation" if stagnated else "max_sweeps"
    report = SolveReport(
        method="skpik",
        converged=res <= tol,
        iterations=state.sweeps,
        residual=res,
        rank=x.rank,
        seconds=time.perf_counter() - start,
        residual_history=list(history),
        subspace=state.dims,
        extra={"stop_reason": stop_reason},
    )
    return x, report
