"""Extended-Krylov solver in space, exact in time, for the Sylvester equation.

Only the large space operator A is projected: the left space is grown
from the left right-hand-side factor with A and its inverse, and its
image A U is kept so that A is applied once per basis column.  A does
not depend on sigma, beta or the time grid, so the space is shared: the
operators keep one :class:`ExtendedSpace` per shift and target range,
and every solve runs its sweeps on prefixes of it.  The
projected equation T_a Z + Z B = (U^T R1) R2^T keeps the small, sparse
time coupling B whole and is solved exactly: one shifted system
(theta I + B^T) per Ritz value theta of T_a = U^T A U, which reduces to
two symmetric tridiagonal systems of order m_t.  So the sweep count
does not grow with the number of time steps.  The iterate is X = U Z.
Every sweep monitors the projected residual of the Galerkin iterate,
(I - U U^T) A U Z, from quantities the sweep already holds, so the full
solution matrix is never formed.  The final iterate is truncated to
the smallest rank whose projected residual meets the tolerance, found
from the SVD of Z and small matrices alone; the truncation must also
keep the state and the multiplier each within the tolerance.  Only the
returned factors are certified by :func:`factored_residual`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np
from scipy.linalg.lapack import dptsv, zgtsv

from .lacore import (
    LowRankMatrix,
    StagnationError,
    SylvesterConditionError,
    lowrank_norm,
    mgs_orthonormalize,
    real_schur,
    truncation_rank,
)
from .reformulate import SylvesterProblem

__all__ = [
    "SolveReport",
    "ExtendedSpace",
    "KpikState",
    "TimeSideSolver",
    "skpik_init",
    "skpik_sweep",
    "skpik_solve",
    "factored_residual",
    "truncation_residuals",
]

# skpik stops as stagnated once the projected residual, below
# STAGNATION_LEVEL, has fallen by less than STAGNATION_FACTOR over the last
# STAGNATION_WINDOW sweeps.  Higher up, such a stall can be a plateau that
# ends: a rank-3 target on the 3025-node mesh holds 1.4e-6 for 22 sweeps,
# then converges.  Below sqrt(eps) the stalls measured were all floors.
STAGNATION_FACTOR = 2.0
STAGNATION_WINDOW = 10
STAGNATION_LEVEL = float(np.sqrt(np.finfo(float).eps))

# the keys of skpik's extra["phases"]: seconds per stage of the solve
PHASES = ("extend", "project", "time_side", "residual", "compress", "certify")


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


@dataclass(frozen=True)
class _Prefix:
    """What a sweep on the first ``dim`` columns U of an extended space needs.

    t_a = U^T A U with its real Schur form (q, s), and the triangular
    factor r of (I - U U^T) A U.  Each is computed from these columns
    alone, once, when they join the space, so a prefix is the same
    however far the space has grown since.
    """

    dim: int
    t_a: np.ndarray
    schur: tuple[np.ndarray, np.ndarray]
    r: np.ndarray


class ExtendedSpace:
    """The extended Krylov space of the space operator A from one seed.

    Keeps an orthonormal basis U with its image A U, together with the
    two seed blocks that the next extension advances: the forward block
    is mapped by the operator, the inverse block by its inverse.  The
    forward block is a column block of U, so its image is read from the
    cached A U instead of being computed again.  Either block may
    deflate to nothing; once both are empty the space is closed.

    ``prefix(j)`` is the space after j extensions (j = 0 is the seed and
    its inverse image), grown lazily one block at a time.  A depends on
    neither sigma nor beta nor the time grid, so every problem on one
    operator set with the same shift and seed runs on prefixes of one
    space, and its first columns are a function of (operators, shift,
    seed, j) only.  U and A U live in column-major buffers whose
    capacity doubles when it runs out: a prefix of them is laid out the
    same at any capacity, so the products a solve forms with it do not
    change bits with the growth history.
    """

    def __init__(self, seed: np.ndarray):
        if seed.shape[1] == 0:
            raise StagnationError("right-hand-side factor deflated to an empty basis")
        self.seed = seed
        self.dim = 0
        self._basis = np.empty((seed.shape[0], 0), order="F")
        self._image = np.empty((seed.shape[0], 0), order="F")
        # the seed is the first forward block and the first block to invert
        self.fwd_cols = slice(0, 0)
        self.block_inv = seed
        self.prefixes: list[_Prefix] = []

    @property
    def basis(self) -> np.ndarray:
        return self._basis[:, : self.dim]

    @property
    def image(self) -> np.ndarray:
        return self._image[:, : self.dim]

    @property
    def closed(self) -> bool:
        fwd_empty = self.fwd_cols.start == self.fwd_cols.stop
        return self.dim > 0 and fwd_empty and self.block_inv.shape[1] == 0

    def _append(self, cols: np.ndarray) -> None:
        """Append orthonormal columns to U; their image is filled in by the caller."""
        end = self.dim + cols.shape[1]
        if end > self._basis.shape[1]:
            capacity = max(end, 2 * self._basis.shape[1])
            for name in ("_basis", "_image"):
                grown = np.empty((cols.shape[0], capacity), order="F")
                grown[:, : self.dim] = getattr(self, name)[:, : self.dim]
                setattr(self, name, grown)
        self._basis[:, self.dim : end] = cols
        self.dim = end

    def _extend(self, problem: SylvesterProblem) -> None:
        """Advance the seed blocks with the problem's operator and its inverse."""
        start = self.dim
        if start == 0:
            self._append(self.seed)
        elif self.fwd_cols.start < self.fwd_cols.stop:
            self._append(mgs_orthonormalize(self.image[:, self.fwd_cols], against=self.basis))
        self.fwd_cols = slice(start, self.dim)
        if self.block_inv.shape[1]:
            inverse = problem.apply_a_inv(self.block_inv)
            self.block_inv = mgs_orthonormalize(inverse, against=self.basis)
            self._append(self.block_inv)
        if self.dim > start:
            self._image[:, start : self.dim] = problem.apply_a(self._basis[:, start : self.dim])

    def prefix(self, j: int, problem: SylvesterProblem, phases: dict[str, float]) -> _Prefix:
        """The space after j extensions, grown with the problem's operator if need be.

        The growth is charged to ``phases`` of the caller: the sparse
        solves and Gram-Schmidt to ``extend``, the new block of t_a and
        its Schur form to ``project``, the QR of (I - U U^T) A U to
        ``residual``.  Once the space is closed every further prefix is
        the last one.
        """
        while len(self.prefixes) <= j and not self.closed:
            start = self.dim
            with _phase(phases, "extend"):
                self._extend(problem)
            if self.dim == start:  # closed: nothing new to project
                self.prefixes.append(self.prefixes[-1])
                continue
            with _phase(phases, "project"):
                u_new, a_new = self.basis[:, start:], self.image[:, start:]
                if self.prefixes:
                    u_old, a_old = self.basis[:, :start], self.image[:, :start]
                    t_a = np.block(
                        [
                            [self.prefixes[-1].t_a, u_old.T @ a_new],
                            [u_new.T @ a_old, u_new.T @ a_new],
                        ]
                    )
                else:
                    t_a = u_new.T @ a_new
                schur = real_schur(t_a)
            with _phase(phases, "residual"):
                r = np.linalg.qr(self.image - self.basis @ t_a, mode="r")
            self.prefixes.append(_Prefix(self.dim, t_a, schur, r))
        return self.prefixes[min(j, len(self.prefixes) - 1)]


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

    def solve(self, schur: tuple[np.ndarray, np.ndarray], c: np.ndarray) -> np.ndarray:
        """Return the real Z with t Z + Z B = c, given the real Schur form (q, s) of t.

        t = q s q^T (see :func:`~eddyopt.lacore.real_schur`), and the rows
        of q^T Z are found from the last upwards, one shifted solve per
        1x1 block of s.  A 2x2 block holds a complex-conjugate pair
        (mu, conj mu); its two rows are 2 Re(v zeta), with v the
        eigenvector for mu and zeta from one complex solve with
        (mu I + B^T).  Raises :class:`SylvesterConditionError` when a
        shifted system is singular.
        """
        q, s = schur
        c = np.asarray(c, dtype=float)
        if c.shape != (s.shape[0], 2 * self.m_t):
            raise ValueError(
                f"right-hand side shape {c.shape} does not match "
                f"({s.shape[0]}, {2 * self.m_t})"
            )
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

    Holds the shared extended space and the prefix U of it that the
    last sweep ran on, with its t_a = U^T A U and the triangular factor
    r of (I - U U^T) A U; the projected right-hand-side factor
    U^T R1; the time-side solver; the norm of R1 R2^T; and the solution
    z of the projected equation, so that the iterate is X = U z.  The
    residual of any U z' is U (t_a z' + z' B - (U^T R1) R2^T) plus a part
    of norm ||r z'||_F orthogonal to U.  The history of projected
    residuals, relative to the norm of R1 R2^T, and the seconds spent per
    phase sit next to them.
    """

    space: ExtendedSpace
    prefix: _Prefix
    time_side: TimeSideSolver
    r1_proj: np.ndarray
    rhs_norm: float
    phases: dict[str, float]
    z: np.ndarray | None = None
    sweeps: int = 0
    residual_history: list[float] = field(default_factory=list)

    @property
    def basis(self) -> np.ndarray:
        return self.space.basis[:, : self.prefix.dim]

    @property
    def dims(self) -> tuple[int, int]:
        """(dim U, 2 m_t): the time side is the whole axis."""
        return (self.prefix.dim, 2 * self.time_side.m_t)


@contextmanager
def _phase(phases: dict[str, float], name: str):
    """Add the seconds spent in the block to ``phases[name]``."""
    start = time.perf_counter()
    try:
        yield
    finally:
        phases[name] += time.perf_counter() - start


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
    """Start on the seed prefix of the shared space: the orthonormalized [R1, A^{-1} R1].

    Dependent directions are deflated.  The space is the one the
    problem's operators keep for its shift and seed; if the prefix is not
    yet grown, growing it is charged to the new state's phases.
    """
    if problem.r1.shape[1] == 0:
        raise ValueError("the right-hand side has rank zero; nothing to iterate on")
    phases = dict.fromkeys(PHASES, 0.0)
    key = ("extended space", problem.shift, problem.seed.shape, problem.seed.tobytes())
    space = problem.ops.cached(key, lambda: ExtendedSpace(problem.seed))
    prefix = space.prefix(0, problem, phases)
    with _phase(phases, "time_side"):
        r1_proj = space.basis[:, : prefix.dim].T @ problem.r1
    return KpikState(
        space=space,
        prefix=prefix,
        time_side=TimeSideSolver(problem.g, problem.w, problem.shift, problem.m_t),
        r1_proj=r1_proj,
        rhs_norm=lowrank_norm(LowRankMatrix(problem.r1, problem.r2)),
        phases=phases,
    )


def skpik_sweep(state: KpikState, problem: SylvesterProblem) -> KpikState:
    """One sweep: move to the next prefix of the space, solve the projected equation, record.

    The projected equation T_a Z + Z B = (U^T R1) R2^T is solved exactly
    in time, so the Galerkin condition U^T R = 0 holds on the whole time
    axis and the residual of X = U z is (I - U U^T) A U z.  Its norm is
    recorded relative to that of R1 R2^T.  The prefix's t_a, Schur form
    and r are the space's; only U^T R1, the time side and the residual
    norm are this problem's own work, charged to ``time_side``.  Raises
    :class:`StagnationError` when the space has closed after a projected
    solution already exists, since no further progress is possible.
    """
    old = state.prefix.dim
    state.prefix = prefix = state.space.prefix(state.sweeps + 1, problem, state.phases)
    if prefix.dim == old and state.z is not None:
        raise StagnationError("the extended Krylov space is exhausted without convergence")
    with _phase(state.phases, "time_side"):
        if prefix.dim > old:
            u_new = state.space.basis[:, old : prefix.dim]
            state.r1_proj = np.vstack([state.r1_proj, u_new.T @ problem.r1])
        state.z = state.time_side.solve(prefix.schur, state.r1_proj @ problem.r2.T)
        # relies on R1 in range(U): R1 spans the seed, up to the 1e-12 deflation tolerance
        res = float(np.linalg.norm(prefix.r @ state.z))
    state.residual_history.append(res / state.rhs_norm if state.rhs_norm else res)
    state.sweeps += 1
    return state


def truncation_residuals(
    state: KpikState, problem: SylvesterProblem, p: np.ndarray, s: np.ndarray, qt: np.ndarray
) -> Iterator[float]:
    """Relative residuals of U z_k for k = 1, 2, ..., len(s), without n-sized work.

    z_k = p[:, :k] diag(s[:k]) qt[:k] are the truncations of the SVD
    z = p diag(s) qt of the current projected solution.  Each U z_k lies
    in range(U), so its squared residual is ||e_k||_F^2 + ||r z_k||_F^2
    with e_k = t_a z_k + z_k B - (U^T R1) R2^T (see :class:`KpikState`).
    Both terms change by one rank-one step from k - 1 to k.
    """
    e = -(state.r1_proj @ problem.r2.T)
    lead = (state.prefix.t_a @ p) * s  # t_a p_j s_j
    trail = (problem.b_matrix.T @ qt.T) * s  # B^T q_j s_j, so z_k B adds p_j (B^T q_j s_j)^T
    outside = np.cumsum((np.linalg.norm(state.prefix.r @ p, axis=0) * s) ** 2)
    for j in range(s.size):
        e += np.outer(lead[:, j], qt[j]) + np.outer(p[:, j], trail[:, j])
        res = float(np.sqrt(np.sum(e * e) + outside[j]))
        yield res / state.rhs_norm if state.rhs_norm else res


def _compress(
    state: KpikState, problem: SylvesterProblem, tol: float, trunc_tol: float
) -> tuple[LowRankMatrix, float]:
    """The smallest truncation of U z that certifies tol, else the one the cap rule keeps.

    U is orthonormal, so (U p) diag(s) qt is an SVD of U z.  The cap
    k_cap is the rank that :func:`~eddyopt.lacore.truncation_rank` keeps
    at ``trunc_tol`` on s.  The returned rank k is the smallest k <= k_cap
    that meets tol twice: the projected residual of the truncation, and
    the part it drops from each time block (state, multiplier), which is
    the same rule at tol on the share s_j ||qt[j, block]|| of each
    triplet in that block.  The residual alone lets a block much smaller
    than the other lose all its digits: on the 9-node mesh at sigma = 1e4
    the state is 1e-3 of X, and rank 2 meets a residual of 1e-8 with
    the state off by 2.7e-6.  Rank k is certified by
    :func:`factored_residual`; if no rank meets both, or its certificate
    fails, rank k_cap is certified.  Returns the factors and their
    certified residual.
    """
    phases = state.phases
    m_t = state.time_side.m_t
    with _phase(phases, "compress"):
        p, s, qt = np.linalg.svd(state.z, full_matrices=False)
        k_cap = truncation_rank(s, trunc_tol)
        k_blocks = max(
            truncation_rank(s * np.linalg.norm(qt[:, block], axis=1), tol)
            for block in (slice(0, m_t), slice(m_t, 2 * m_t))
        )
        p, s, qt = p[:, :k_cap], s[:k_cap], qt[:k_cap]
        residuals = truncation_residuals(state, problem, p, s, qt)
        k_min = next(
            (k for k, res in enumerate(residuals, 1) if k >= k_blocks and res <= tol), k_cap
        )
    for k in sorted({k_min, k_cap}):
        with _phase(phases, "compress"):
            x = LowRankMatrix(state.basis @ p[:, :k], qt[:k].T * s[:k])
        with _phase(phases, "certify"):
            res = factored_residual(x.left, x.right, problem)
        if res <= tol:
            break
    return x, res


def skpik_solve(
    problem: SylvesterProblem,
    tol: float = 1e-6,
    trunc_tol: float = 1e-10,
    max_sweeps: int = 500,
) -> tuple[LowRankMatrix, SolveReport]:
    """Run the projection iteration until the certified residual meets tol.

    Each sweep monitors the projected residual.  Once it passes the
    tolerance, the iterate U z is compressed to the smallest rank whose
    projected residual meets tol and which changes the state and the
    multiplier block each by at most tol, relative; that rank is no
    larger than the one :func:`~eddyopt.lacore.truncation_rank` keeps at
    relative tail ``trunc_tol`` (the cap).  :func:`factored_residual`
    certifies the compressed factors.  If they fail, the cap's factors
    are certified, and if those fail too, sweeping continues.  Sweeping stops early once
    the projected residual is below ``STAGNATION_LEVEL`` (sqrt(eps)) and
    has fallen by less than ``STAGNATION_FACTOR`` over the last
    ``STAGNATION_WINDOW`` sweeps: there the residual has reached the
    attainable accuracy that the conditioning of A sets (see README),
    and more sweeps only grow the basis.  On stagnation, on hitting
    ``max_sweeps`` or on a closed space the last iterate is compressed
    and certified the same way, and the converged flag reflects its
    certified residual; there is no silent success.
    ``extra["stop_reason"]`` is ``"converged"``, ``"stagnation"``,
    ``"max_sweeps"`` or ``"space_exhausted"``; ``extra["phases"]`` holds
    the seconds spent in each of ``PHASES``.  ``extend``, ``project`` and
    ``residual`` count only the growth of the shared space that this
    solve caused (see :meth:`ExtendedSpace.prefix`), and are 0 when every
    prefix it ran on was grown before.
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
            extra={"stop_reason": "converged", "phases": dict.fromkeys(PHASES, 0.0)},
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
            x, res = _compress(state, problem, tol, trunc_tol)
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
        extra={"stop_reason": stop_reason, "phases": dict(state.phases)},
    )
    return x, report
