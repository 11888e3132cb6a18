"""From the coupled optimality system to a Sylvester matrix equation.

The all-at-once first-order optimality conditions of the discretized
tracking problem reduce, after eliminating the control, to a symmetric
two-by-two block system.  Splitting off the stiffness part and scaling
turns that system into a Sylvester equation

    A X + X B = R1 R2^T,

where A acts in space (mass-preconditioned stiffness), B is a small
2 m_t x 2 m_t matrix coupling the time steps of state and multiplier,
and the right-hand side inherits the low rank of the target state.  An
optional spectral shift moves the pair to (A + sI, B - sI) without
changing the solution.  Dense assemblies of the optimality systems are
provided as verification oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .discretize import ProblemConfig, SpaceOperators, TimeGrid
from .lacore import (
    LowRankMatrix,
    lowrank_norm,
    mgs_orthonormalize,
    sparse_lu_factorize,
)

__all__ = [
    "SylvesterProblem",
    "KktSystem",
    "time_difference_matrix",
    "time_coefficients",
    "build_B",
    "build_rhs",
    "build_sylvester_problem",
    "assemble_kkt_dense",
    "assemble_kkt_dense3",
    "solve_kkt_dense",
    "extract_solution",
    "vec",
    "unvec",
]

# refuse to assemble dense oracle systems beyond this many matrix entries
DENSE_GUARD_ENTRIES = 4_000_000


def vec(a: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(a).reshape(-1, order="F")


def unvec(v: np.ndarray, n: int, m: int) -> np.ndarray:
    return np.asarray(v).reshape((n, m), order="F")


def time_difference_matrix(m_t: int) -> sp.csr_matrix:
    """Lower bidiagonal backward-difference matrix (1 on, -1 below the diagonal)."""
    if m_t < 1:
        raise ValueError("m_t must be at least 1")
    return (
        sp.identity(m_t, format="csr")
        - sp.diags([np.ones(m_t - 1)], [-1], shape=(m_t, m_t), format="csr")
    ).tocsr()


def time_coefficients(sigma: float, tau: float, beta: float) -> tuple[float, float]:
    """The two scalars of the time coupling: (g, w) = (sigma/tau, 1/sqrt(beta))."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    if beta <= 0:
        raise ValueError("beta must be positive")
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    return sigma / tau, 1.0 / np.sqrt(beta)


def build_B(sigma: float, tau: float, beta: float, m_t: int) -> sp.csr_matrix:
    """Time-coupling matrix pairing the state and multiplier column blocks.

    Block form [[g C^T, w I], [-w I, g C]] with C the backward-difference
    matrix and (g, w) from :func:`time_coefficients`; its symmetric part
    is positive definite whenever sigma > 0.  Built in one call from its
    six diagonals, in canonical CSR form (sorted indices, no stored
    zeros, so sigma = 0 stores 2 m_t entries).
    """
    g, w = time_coefficients(sigma, tau, beta)
    if m_t < 1:
        raise ValueError("m_t must be at least 1")
    j = np.arange(m_t)
    k = j[:-1]
    rows = np.concatenate([j, m_t + j, k, m_t + k + 1, j, m_t + j])
    cols = np.concatenate([j, m_t + j, k + 1, m_t + k, m_t + j, j])
    vals = np.repeat([g, g, -g, -g, w, -w], [m_t, m_t, m_t - 1, m_t - 1, m_t, m_t])
    b = sp.csr_matrix((vals, (rows, cols)), shape=(2 * m_t, 2 * m_t))
    b.eliminate_zeros()
    b.sort_indices()
    return b


def build_rhs(y1: np.ndarray, y2: np.ndarray, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Low-rank right-hand-side factors from the factored target state.

    Returns (R1, R2) with R1 = Y1 / sqrt(beta) and R2 stacking a zero
    state block over Y2, so R1 R2^T = [0 | Yd / sqrt(beta)].
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    if y1.ndim != 2 or y2.ndim != 2 or y1.shape[1] != y2.shape[1]:
        raise ValueError(
            f"factor shapes {y1.shape} and {y2.shape} do not share a rank dimension"
        )
    r1 = y1 / np.sqrt(beta)
    r2 = np.vstack([np.zeros_like(y2), y2])
    return r1, r2


@dataclass
class SylvesterProblem:
    """Shifted operator form of A X + X B = R1 R2^T.

    The methods ``apply_a`` and ``apply_a_inv`` apply the shifted space
    operator A = M^{-1}(K + shift*M) and its inverse over the factors of
    ``ops``, and ``apply_resolvent`` applies (A + pole*I)^{-1} over the
    factor of K + (shift + pole)*M that ``ops`` keeps; the solver's pole
    space calls it, so the benchmark's column counts of ``apply_a_inv``
    leave it out.  ``b_matrix`` is the shifted time coupling
    B - shift*I, and ``g`` = sigma/tau and ``w`` = 1/sqrt(beta) are the
    coefficients it was built from.  ``seed`` is the orthonormal basis
    ``mgs_orthonormalize(Y1)`` of the range of R1 = Y1/sqrt(beta): it
    does not depend on beta, so every problem on ``ops`` with the same
    shift and target range shares one extended Krylov space, and with
    the same w one pole space, which ``ops`` keeps.  ``rhs_norm`` is
    ||R1 R2^T||_F, computed once per object; :func:`dataclasses.replace`
    makes a new object, which computes its own.  ``b_transpose`` is the
    CSC view B^T, made once per object so that products with B build no
    sparse object per call.  No solver uses ``b_lu``, SciPy's ``SuperLU``
    factorization of ``b_matrix``; it is computed on first access only,
    and stays because the benchmark's tracer wraps it, until the next
    change to the benchmark.  The object is immutable in use; the spaces
    it shares grow as solves ask for them, so solves on one ``ops`` must
    not run in concurrent threads.
    """

    n: int
    m_t: int
    b_matrix: sp.csr_matrix
    r1: np.ndarray
    r2: np.ndarray
    shift: float
    g: float
    w: float
    ops: SpaceOperators
    seed: np.ndarray

    def apply_a(self, v: np.ndarray) -> np.ndarray:
        """M^{-1}(K + shift*M) v."""
        out = self.ops.mass_factor.solve(self.ops.stiffness @ v)
        return out + self.shift * v if self.shift else out

    def apply_a_inv(self, v: np.ndarray) -> np.ndarray:
        """(K + shift*M)^{-1} M v."""
        return self.apply_resolvent(v, 0.0)

    def apply_resolvent(self, v: np.ndarray, pole: float) -> np.ndarray:
        """(A + pole*I)^{-1} v = (K + (shift + pole)*M)^{-1} M v, for a real pole >= 0."""
        return self.ops.shifted_factor(self.shift + pole).solve(self.ops.mass @ v)

    @cached_property
    def rhs_norm(self) -> float:
        """||R1 R2^T||_F, computed on first use and kept."""
        return lowrank_norm(LowRankMatrix(self.r1, self.r2))

    @cached_property
    def b_transpose(self) -> sp.csc_matrix:
        """B^T as the CSC view of ``b_matrix``: B^T v, and z B as (B^T z^T)^T."""
        return self.b_matrix.T

    @cached_property
    def b_lu(self) -> sp.linalg.SuperLU:
        """SciPy's ``SuperLU`` of ``b_matrix``, computed on first access."""
        return sparse_lu_factorize(self.b_matrix)


def build_sylvester_problem(
    ops: SpaceOperators,
    config: ProblemConfig,
    grid: TimeGrid,
    yd_lowrank: LowRankMatrix,
) -> SylvesterProblem:
    """Assemble the shifted Sylvester problem for the given data.

    The shift follows the config (explicit value, or zero when the
    stiffness is already positive definite).  M and K + shift*M are
    factored here, so an operator that is not SPD fails before a solve.
    Small control costs are flagged because the column scaling
    degenerates as beta -> 0.
    """
    if config.beta < 1e-12:
        import warnings

        warnings.warn(
            f"beta = {config.beta:.3e} is extremely small; the scaled system "
            "is close to singular column scaling",
            stacklevel=2,
        )
    shift = config.resolve_shift()
    ops.mass_factor
    ops.shifted_factor(shift)
    g, w = time_coefficients(config.sigma, grid.tau, config.beta)
    b = build_B(config.sigma, grid.tau, config.beta, grid.m_t)
    if shift:
        b = (b - shift * sp.identity(2 * grid.m_t, format="csr")).tocsr()
    r1, r2 = build_rhs(yd_lowrank.left, yd_lowrank.right, config.beta)
    if r1.shape[0] != ops.n:
        raise ValueError(f"target factor has {r1.shape[0]} rows, expected {ops.n}")
    if r2.shape[0] != 2 * grid.m_t:
        raise ValueError(
            f"target factor has {yd_lowrank.right.shape[0]} time rows, expected {grid.m_t}"
        )
    return SylvesterProblem(
        n=ops.n,
        m_t=grid.m_t,
        b_matrix=b,
        r1=r1,
        r2=r2,
        shift=shift,
        g=g,
        w=w,
        ops=ops,
        seed=mgs_orthonormalize(yd_lowrank.left),
    )


@dataclass
class KktSystem:
    """Dense optimality system kept for verification at small sizes."""

    matrix: np.ndarray
    rhs: np.ndarray
    n: int
    m_t: int
    blocks: int  # 2 (reduced) or 3 (full)


def _dense_pieces(ops: SpaceOperators, config: ProblemConfig, grid: TimeGrid):
    m = ops.mass.toarray()
    k = ops.stiffness.toarray()
    c = time_difference_matrix(grid.m_t).toarray()
    eye = np.eye(grid.m_t)
    mm = np.kron(eye, m)
    nsig = np.kron(eye, grid.tau * k) + np.kron(c, config.sigma * m)
    return mm, nsig


def _guard(size: int):
    if size * size > DENSE_GUARD_ENTRIES:
        raise ValueError(
            f"dense oracle system would hold {size * size} entries "
            f"(limit {DENSE_GUARD_ENTRIES}); use a smaller instance"
        )


def assemble_kkt_dense(
    ops: SpaceOperators, config: ProblemConfig, grid: TimeGrid, yd: np.ndarray
) -> KktSystem:
    """Dense reduced two-block optimality system (symmetric saddle form)."""
    n, m_t = ops.n, grid.m_t
    _guard(2 * n * m_t)
    mm, nsig = _dense_pieces(ops, config, grid)
    sb = np.sqrt(config.beta)
    tau = grid.tau
    mat = np.block([[tau * mm, sb * nsig.T], [sb * nsig, -tau * mm]])
    rhs = np.concatenate([tau * (mm @ vec(yd)), np.zeros(n * m_t)])
    return KktSystem(mat, rhs, n, m_t, blocks=2)


def assemble_kkt_dense3(
    ops: SpaceOperators, config: ProblemConfig, grid: TimeGrid, yd: np.ndarray
) -> KktSystem:
    """Dense three-block optimality system in (state, control, multiplier)."""
    n, m_t = ops.n, grid.m_t
    _guard(3 * n * m_t)
    mm, nsig = _dense_pieces(ops, config, grid)
    tau = grid.tau
    z = np.zeros((n * m_t, n * m_t))
    mat = np.block(
        [
            [tau * mm, z, nsig.T],
            [z, tau * config.beta * mm, -tau * mm],
            [nsig, -tau * mm, z],
        ]
    )
    rhs = np.concatenate([tau * (mm @ vec(yd)), np.zeros(2 * n * m_t)])
    return KktSystem(mat, rhs, n, m_t, blocks=3)


def solve_kkt_dense(
    kkt: KktSystem, beta: float | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Direct solve of a dense optimality system.

    Returns the (Y, U, Lambda) trajectories as n-by-m_t matrices.  The
    reduced two-block form stores the scaled multiplier, so recovering
    (U, Lambda) needs the ``beta`` that built the system.
    """
    z = np.linalg.solve(kkt.matrix, kkt.rhs)
    n, m_t = kkt.n, kkt.m_t
    nm = n * m_t
    if kkt.blocks == 3:
        y = unvec(z[:nm], n, m_t)
        u = unvec(z[nm : 2 * nm], n, m_t)
        lam = unvec(z[2 * nm :], n, m_t)
        return y, u, lam
    if beta is None:
        raise ValueError("the reduced two-block system needs beta to unscale")
    y = unvec(z[:nm], n, m_t)
    lam = np.sqrt(beta) * unvec(z[nm:], n, m_t)
    return y, lam / beta, lam


def extract_solution(
    x: LowRankMatrix, beta: float
) -> tuple[LowRankMatrix, LowRankMatrix, LowRankMatrix]:
    """Split the stacked Sylvester solution into (Y, U, Lambda) factors.

    The solution stores [Y | Lambda/sqrt(beta)] column blocks; only the
    right factor is sliced and scaled, the left factor is shared.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    rows = x.right.shape[0]
    if rows % 2 != 0:
        raise ValueError(f"right factor has {rows} rows; expected an even count")
    m_t = rows // 2
    sb = np.sqrt(beta)
    y = LowRankMatrix(x.left, x.right[:m_t].copy())
    lam = LowRankMatrix(x.left, sb * x.right[m_t:])
    u = LowRankMatrix(x.left, x.right[m_t:] / sb)
    return y, u, lam
