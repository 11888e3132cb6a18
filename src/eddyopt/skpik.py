"""Extended-Krylov solver in space, exact in time, for the Sylvester equation.

Only the large space operator A is projected: the left space is grown
from the left right-hand-side factor with A and its inverse.  The
projected equation T_a Z + Z B = (U^T R1) R2^T keeps the small, sparse
time coupling B whole and is solved exactly by one shifted banded
system (theta I + B^T) per Ritz value theta of T_a = U^T A U, so the
sweep count does not grow with the number of time steps.  The iterate
is X = U Z.  Every sweep monitors the projected residual of the Galerkin
iterate, (I - U U^T) A U Z, from quantities the sweep already holds, so
the full solution matrix is never formed.  The final iterate is
recompressed by a truncated SVD of its factors, and only those returned
factors are certified by :func:`factored_residual`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg
import scipy.sparse as sp

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

    Keeps an orthonormal basis together with the two seed blocks that
    the next extension advances: one block is mapped forward by the
    operator, the other by its inverse.  Either block may deflate to
    nothing; once both are empty the space is closed.
    """

    def __init__(self, apply_fwd: Callable, apply_inv: Callable, seed: np.ndarray):
        self.apply_fwd = apply_fwd
        self.apply_inv = apply_inv
        q_fwd = mgs_orthonormalize(seed)
        if q_fwd.shape[1] == 0:
            raise StagnationError("right-hand-side factor deflated to an empty basis")
        q_inv = mgs_orthonormalize(apply_inv(q_fwd), against=q_fwd)
        self.basis = np.hstack([q_fwd, q_inv])
        self.block_fwd = q_fwd
        self.block_inv = q_inv

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def closed(self) -> bool:
        return self.block_fwd.shape[1] == 0 and self.block_inv.shape[1] == 0

    def extend(self) -> np.ndarray:
        """Advance the seed blocks; returns the newly added orthonormal columns."""
        n = self.basis.shape[0]
        if self.closed:
            return np.zeros((n, 0))
        if self.block_fwd.shape[1]:
            q_fwd = mgs_orthonormalize(self.apply_fwd(self.block_fwd), against=self.basis)
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
        self.block_fwd = q_fwd
        self.block_inv = q_inv
        if new.shape[1]:
            self.basis = np.hstack([self.basis, new])
        return new


class TimeSideSolver:
    """Exact solver for T Z + Z B = C with a small dense T and the sparse B.

    B has 2 m_t rows, the state steps first and the multiplier steps
    second.  Interleaving the two (state step t, then multiplier step
    t) makes the time coupling banded with bandwidth 2, so each shifted
    system (theta I + B^T) is one LAPACK band solve of O(m_t) cost.
    The bandwidth is read off the permuted matrix, so any B of even
    order is solved correctly, only more slowly when it is not banded.
    """

    def __init__(self, b_matrix: sp.spmatrix):
        size = b_matrix.shape[0]
        if b_matrix.shape != (size, size) or size % 2:
            raise ValueError(f"time coupling of shape {b_matrix.shape} is not 2 m_t square")
        m_t = size // 2
        self.perm = np.empty(size, dtype=int)
        self.perm[0::2] = np.arange(m_t)
        self.perm[1::2] = m_t + np.arange(m_t)
        bt = sp.csr_matrix(b_matrix.T)[self.perm][:, self.perm].tocoo()
        offset = bt.row - bt.col
        self.kl = int(offset.max(initial=0))
        self.ku = int(-offset.min(initial=0))
        # LAPACK band storage: A[i, j] at ab[kl + ku + i - j, j], with kl
        # extra leading rows for the fill-in of partial pivoting
        self.ab = np.zeros((2 * self.kl + self.ku + 1, size))
        self.ab[self.kl + self.ku + offset, bt.col] = bt.data

    def _shifted_solve(self, theta, rhs: np.ndarray) -> np.ndarray:
        """Solve (theta I + B^T) x = rhs in the interleaved ordering."""
        dtype = np.result_type(theta, rhs, self.ab)
        ab = self.ab.astype(dtype)
        ab[self.kl + self.ku] += theta
        gbsv, = scipy.linalg.get_lapack_funcs(("gbsv",), (ab,))
        _, _, x, info = gbsv(
            self.kl, self.ku, ab, rhs.astype(dtype)[:, None], overwrite_ab=1, overwrite_b=1
        )
        if info > 0 or not np.isfinite(x).all():
            raise SylvesterConditionError(
                f"singular Sylvester pair: eigenvalue {theta:.6g} of the left "
                f"coefficient cancels an eigenvalue of the time coupling"
            )
        return x[:, 0]

    def solve(self, t: np.ndarray, c: np.ndarray) -> np.ndarray:
        """Return the real Z with t Z + Z B = c.

        t is brought to real Schur form q s q^T and the rows of q^T Z are
        found from the last upwards, one shifted band solve per 1x1
        block.  A 2x2 block holds a complex-conjugate pair (mu, conj mu);
        its two rows are 2 Re(v zeta), with v the eigenvector for mu and
        zeta from one complex solve with (mu I + B^T).  Raises
        :class:`SylvesterConditionError` when a shifted system is singular.
        """
        t = np.asarray(t, dtype=float)
        c = np.asarray(c, dtype=float)
        if c.shape != (t.shape[0], self.perm.size):
            raise ValueError(
                f"right-hand side shape {c.shape} does not match "
                f"({t.shape[0]}, {self.perm.size})"
            )
        q, s = real_schur(t)
        f = (q.T @ c)[:, self.perm]
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
        out = np.empty_like(z)
        out[:, self.perm] = z
        return q @ out


@dataclass
class KpikState:
    """Workspace of the projection iteration.

    Holds the left extended Krylov basis U with the projected operator
    t_a = U^T A U, its cached image A U and the projected right-hand-side
    factor U^T R1; the time-side solver; the norm of R1 R2^T; and the
    solution z of the projected equation, so that the iterate is
    X = U z.  The history of projected residuals, relative to the norm
    of R1 R2^T, sits next to them.
    """

    left: _ExtendedBasis
    time_side: TimeSideSolver
    t_a: np.ndarray
    r1_proj: np.ndarray
    a_on_basis: np.ndarray
    rhs_norm: float
    z: np.ndarray | None = None
    sweeps: int = 0
    residual_history: list[float] = field(default_factory=list)

    @property
    def dims(self) -> tuple[int, int]:
        """(dim U, 2 m_t): the time side is the whole axis."""
        return (self.left.dim, self.time_side.perm.size)


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
    a_on_basis = problem.apply_a(left.basis)
    return KpikState(
        left=left,
        time_side=TimeSideSolver(problem.b_matrix),
        t_a=left.basis.T @ a_on_basis,
        r1_proj=left.basis.T @ problem.r1,
        a_on_basis=a_on_basis,
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
    u_old = state.left.basis
    u_new = state.left.extend()
    if u_new.shape[1] == 0 and state.z is not None:
        raise StagnationError("the extended Krylov space is exhausted without convergence")
    if u_new.shape[1]:
        a_new = problem.apply_a(u_new)
        state.t_a = np.block(
            [[state.t_a, u_old.T @ a_new], [u_new.T @ state.a_on_basis, u_new.T @ a_new]]
        )
        state.a_on_basis = np.hstack([state.a_on_basis, a_new])
        state.r1_proj = np.vstack([state.r1_proj, u_new.T @ problem.r1])

    state.z = state.time_side.solve(state.t_a, state.r1_proj @ problem.r2.T)
    # relies on R1 in range(U): R1 is the seed block, up to the 1e-12 deflation tolerance
    r = np.linalg.qr(state.a_on_basis - state.left.basis @ state.t_a, mode="r")
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
    they fail, sweeping continues.  On hitting ``max_sweeps`` or a
    closed space the last iterate is compressed and certified the same
    way, and the converged flag reflects its certified residual; there
    is no silent success.  ``extra["stop_reason"]`` is ``"converged"``,
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
    while True:
        try:
            skpik_sweep(state, problem)
            exhausted = False
        except StagnationError:
            exhausted = True
        last = exhausted or state.sweeps == max_sweeps
        if last or state.residual_history[-1] <= tol:
            x = truncated_svd(LowRankMatrix(state.left.basis, state.z.T), trunc_tol)
            res = factored_residual(x.left, x.right, problem)
            if res <= tol or last:
                break
    if res <= tol:
        stop_reason = "converged"
    else:
        stop_reason = "space_exhausted" if exhausted else "max_sweeps"
    report = SolveReport(
        method="skpik",
        converged=res <= tol,
        iterations=state.sweeps,
        residual=res,
        rank=x.rank,
        seconds=time.perf_counter() - start,
        residual_history=list(state.residual_history),
        subspace=state.dims,
        extra={"stop_reason": stop_reason},
    )
    return x, report
