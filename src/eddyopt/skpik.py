"""Extended-Krylov solver in space, exact in time, for the Sylvester equation.

Only the large space operator A = M^{-1} K_s is projected: the left
space is grown from the left right-hand-side factor with A and its
inverse, and its image A U is kept so that A is applied once per basis
column.  A does not depend on sigma, beta or the time grid, so the
space is shared: the operators keep one :class:`ExtendedSpace` per
shift and target range, and every solve runs its sweeps on prefixes of
it.  A solve whose residual stalls above its target restarts once on
the space that also grows with (A + w I)^{-1}, a real pole at
w = 1/sqrt(beta) next to the time coupling's spectrum, kept per shift,
w and target range.  The Galerkin condition (M U)^T R = 0 gives the
projected equation K_a Z + M_a Z B = M_a (U^T R1) R2^T, with K_a = U^T K_s U and
M_a = U^T M U both positive definite.  It keeps the small, sparse time
coupling B whole and is solved exactly: the eigenvectors of the pencil
(K_a, M_a) split it into one shifted system (lambda I + B^T) per real
Ritz value lambda, all solved in one call as symmetric tridiagonal
systems of order m_t.  So the sweep count does not grow with the number
of time steps.  The iterate is X = U Z.  Every sweep monitors its
residual from small matrices the space already holds, so the full
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

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dptsv

from .discretize import ProblemConfig
from .lacore import (
    LinAlgFailure,
    LowRankMatrix,
    StagnationError,
    certified_truncation,
    lowrank_norm,
    lowrank_norms,
    mgs_orthonormalize,
    residual_factor,
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
    "stack_residuals",
    "truncation_residuals",
]

# skpik stops as stagnated once the projected residual, below
# STAGNATION_LEVEL, has fallen by less than STAGNATION_FACTOR over the last
# STAGNATION_WINDOW sweeps.  Higher up, such a stall can be a plateau that
# ends: a rank-3 target on the 3025-node mesh (mT = 200, sigma = 1e-4,
# beta = 1e-2) holds about 3e-6 from sweep 4 to sweep 24 of the extended
# Krylov space and meets 1e-6 at sweep 31; such a stall moves the solve to
# the pole space instead (POLE_WINDOW).  Below sqrt(eps) the stalls
# measured were all floors.
STAGNATION_FACTOR = 2.0
STAGNATION_WINDOW = 10
STAGNATION_LEVEL = float(np.sqrt(np.finfo(float).eps))

# skpik_solve looks for the first prefix whose projected residual meets
# max(tol, STAGNATION_LEVEL) by sweeping every SEARCH_STRIDE-th prefix and
# bisecting the last stride; from there it sweeps one prefix at a time.
SEARCH_STRIDE = 4

# skpik_solve restarts once on the space with a real pole at w = 1/sqrt(beta)
# when its search stalls: at a sweep 2 POLE_WINDOW, 3 POLE_WINDOW, ... that
# misses the search's target, with the projected residual down by less than
# STAGNATION_FACTOR over the POLE_WINDOW sweeps before.  SEARCH_STRIDE
# divides it, so the stride search and a scan of every prefix check the
# same sweeps.  Windows of 8 and 10 leave the plateau later.
POLE_WINDOW = 4

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


class ExtendedSpace:
    """The extended Krylov space of the space operator A from one seed,
    with an optional real pole p >= 0.

    Keeps an orthonormal basis U with its image A U, together with the
    seed blocks that the next extension advances: the forward block is
    mapped by the operator, the inverse block by its inverse, and with a
    pole the pole block by (A + p I)^{-1} = (K_s + p M)^{-1} M, over the
    SPD factor of K + (shift + p) M that the operators keep.  The
    forward block is a column block of U, so its image is read from the
    cached A U instead of being computed again.  Any block may deflate to
    nothing; once all are empty the space is closed.

    Prefix j is the space after j extensions (j = 0 is the seed, its
    inverse image and, with a pole, its image under (A + p I)^{-1}),
    grown lazily one block at a time; a closed space has
    no prefix past its last.  ``dims[j]`` is its dimension.  On all of U
    the space keeps T = U^T A U (``t``), M_a = U^T M U (``m_a``) and
    K_a = U^T M A U = U^T K_s U (``k_a``); each grows by one block row
    and one block column per extension, so a prefix's matrices are their
    leading blocks (:meth:`t_a`).  ``eig[j]``, the eigenvalues and
    M_a-orthonormal eigenvectors of the pencil (K_a, M_a), and ``r[j]``,
    a square triangular factor of (I - U U^T) A U on prefix j (its R up
    to row signs, so ||r z|| is the norm of that block times z), are
    filled in when a sweep first runs on the prefix (see :meth:`prefix`).
    Each is computed from the prefix's columns alone, once, so a prefix
    is the same however far the space has grown since and whichever
    solve first ran on it.  A depends on
    neither sigma nor beta nor the time grid, so every problem on one
    operator set with the same shift, pole and seed runs on prefixes of
    one space, and its first columns are a function of (operators,
    shift, pole, seed, j) only.  U and A U live in column-major buffers
    whose capacity doubles when it runs out: a prefix of them is laid out the
    same at any capacity, so the products a solve forms with it do not
    change bits with the growth history.
    """

    def __init__(self, seed: np.ndarray, pole: float | None = None):
        if seed.shape[1] == 0:
            raise StagnationError("right-hand-side factor deflated to an empty basis")
        self.seed = seed
        self.pole = pole
        self.dim = 0
        self._basis = np.empty((seed.shape[0], 0), order="F")
        self._image = np.empty((seed.shape[0], 0), order="F")
        # the seed is the first forward block and the first block to invert,
        # with the pole's resolvent too when there is a pole
        self.fwd_cols = slice(0, 0)
        self.block_inv = seed
        self.block_pole = seed if pole is not None else seed[:, :0]
        self.dims: list[int] = []
        self.t = np.empty((0, 0))
        self.m_a = np.empty((0, 0))
        self.k_a = np.empty((0, 0))
        self.eig: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.r: dict[int, np.ndarray] = {}

    @property
    def basis(self) -> np.ndarray:
        return self._basis[:, : self.dim]

    @property
    def image(self) -> np.ndarray:
        return self._image[:, : self.dim]

    @property
    def closed(self) -> bool:
        fwd_empty = self.fwd_cols.start == self.fwd_cols.stop
        others_empty = self.block_inv.shape[1] == self.block_pole.shape[1] == 0
        return self.dim > 0 and fwd_empty and others_empty

    def t_a(self, j: int) -> np.ndarray:
        """U^T A U on prefix j: the leading block of ``t``."""
        dim = self.dims[j]
        return self.t[:dim, :dim]

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
        """Advance the seed blocks with the operator, its inverse and the pole's resolvent."""
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
        if self.block_pole.shape[1]:
            solved = problem.apply_resolvent(self.block_pole, self.pole)
            self.block_pole = mgs_orthonormalize(solved, against=self.basis)
            self._append(self.block_pole)
        if self.dim > start:
            self._image[:, start : self.dim] = problem.apply_a(self._basis[:, start : self.dim])

    def grow(self, j: int, problem: SylvesterProblem, phases: dict[str, float]) -> int:
        """Grow the space to j extensions with the problem's operator if need be.

        Returns the index of the prefix reached: j, or the last prefix if
        the space closed before j.  The sparse solves, Gram-Schmidt and
        the new block rows and columns of t, m_a and k_a are charged to
        ``phases["extend"]`` of the caller.  M and K_s are symmetric, so M
        is applied to the new columns only: U_old^T K_s u_new = (A U_old)^T M u_new.
        """
        while len(self.dims) <= j and not self.closed:
            start = self.dim
            with _phase(phases, "extend"):
                self._extend(problem)
                if self.dim == start:  # closed: nothing new to project
                    break
                u_old, a_old = self.basis[:, :start], self.image[:, :start]
                u_new, a_new = self.basis[:, start:], self.image[:, start:]
                m_new = problem.ops.mass @ u_new
                self.t = np.block([[self.t, u_old.T @ a_new], [u_new.T @ a_old, u_new.T @ a_new]])
                self.m_a = _bordered(self.m_a, u_old.T @ m_new, u_new.T @ m_new)
                self.k_a = _bordered(self.k_a, a_old.T @ m_new, m_new.T @ a_new)
            self.dims.append(self.dim)
        return min(j, len(self.dims) - 1)

    def prefix(self, j: int, problem: SylvesterProblem, phases: dict[str, float]) -> int:
        """Index j (the last prefix once closed), with the prefix made ready for a sweep.

        Grows the space as :meth:`grow` does.  The first request for a
        prefix computes the eigenpairs of its (K_a, M_a), charged to
        ``project``, and the triangular factor of its (I - U U^T) A U,
        charged to ``residual``; later requests, from any solve, reuse
        them.  The factor comes from
        :func:`~eddyopt.lacore.residual_factor`, a QR by row blocks of
        ``QR_BLOCK_ROWS`` that never forms the n-by-dim table.
        """
        i = self.grow(j, problem, phases)
        if i not in self.eig:
            dim = self.dims[i]
            with _phase(phases, "project"):
                self.eig[i] = scipy.linalg.eigh(self.k_a[:dim, :dim], self.m_a[:dim, :dim])
            with _phase(phases, "residual"):
                self.r[i] = residual_factor(self.image[:, :dim], self.basis[:, :dim], self.t_a(i))
        return i


def _bordered(a: np.ndarray, col: np.ndarray, corner: np.ndarray) -> np.ndarray:
    """The symmetric matrix a bordered by the block column col and the block corner."""
    return np.block([[a, col], [col.T, corner]])


class TimeSideSolver:
    """Exact solver for diag(lam) Z + Z B = F with real lam and the time coupling B.

    B = [[g C^T, w I], [-w I, g C]] - shift I is the matrix of
    :func:`~eddyopt.reformulate.build_B`, with the state steps first and
    the multiplier steps second, C the backward-difference matrix of
    ``m_t`` steps, g = sigma/tau and w = 1/sqrt(beta) > 0.  The solver is
    built from these four numbers, not from B.  Row i of Z solves
    (theta I + B^T) z = f with theta = lam[i].  Let
    L = (theta - shift) I + g C, which is lower bidiagonal.  The system
    (theta I + B^T) [a; b] = [f1; f2] reads L a - w b = f1 and
    w a + L^T b = f2; eliminating one block in each leaves

        (L^T L + w^2 I) a = L^T f1 + w f2,
        (L L^T + w^2 I) b = L f2 - w f1,

    two symmetric tridiagonal systems, positive definite for every real
    theta since w > 0.  The systems of all rows are solved by one LAPACK
    ``dptsv`` whose off-diagonal entries between the two halves of a row,
    and between consecutive rows, are zero.  The reduction squares the
    conditioning of L, which costs about two digits against a solve with
    theta I + B^T itself.
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

    def solve(self, lam: np.ndarray, f: np.ndarray) -> np.ndarray:
        """Return Z with diag(lam) Z + Z B = f, row i from (lam[i] I + B^T) z_i = f_i.

        Raises :class:`~eddyopt.lacore.LinAlgFailure` if LAPACK reports a
        failure or the solution is not finite.
        """
        lam = np.asarray(lam, dtype=float)
        f = np.asarray(f, dtype=float)
        m, g, w = self.m_t, self.g, self.w
        if f.shape != (lam.size, 2 * m):
            raise ValueError(
                f"right-hand side shape {f.shape} does not match ({lam.size}, {2 * m})"
            )
        p = (lam - self.shift + g)[:, None]  # the diagonal of each row's L
        rhs = p * f
        rhs[:, :m] += w * f[:, m:]
        rhs[:, m:] -= w * f[:, :m]
        rhs[:, : m - 1] -= g * f[:, 1:m]
        rhs[:, m + 1 :] -= g * f[:, m:-1]
        diag = (self.diag + p * p).ravel()
        off = (p * np.append(self.off, 0.0)).ravel()[:-1]  # rows do not couple
        _, _, z, info = dptsv(diag, off, rhs.ravel(), overwrite_d=1, overwrite_e=1, overwrite_b=1)
        if info != 0 or not np.isfinite(z).all():
            raise LinAlgFailure(
                f"time-side solve on a space of dimension {lam.size} failed "
                f"(LAPACK dptsv info {info})"
            )
        return z.reshape(f.shape)


@dataclass
class KpikState:
    """Workspace of the projection iteration.

    Holds the shared extended space, on whose prefix U the state sits;
    the projected right-hand-side factor U^T R1 of the largest prefix
    evaluated, whose leading rows serve every smaller one; the time-side
    solver; and the solution z of the projected equation, so that the
    iterate is X = U z.  With T_a and r the space's for the prefix, and
    R1 in range(U), the residual of any U z' is
    U (T_a z' + z' B - (U^T R1) R2^T) plus the part
    (I - U U^T) A U z' = W r z' orthogonal to U, with W r a QR of that
    block, so its norm is ||r z'||_F.  The state sits on sweep ``sweeps``.
    The history of projected residuals, relative to the problem's
    ``rhs_norm``, holds entry j for sweep j, NaN where no sweep j ran;
    the seconds spent per phase sit next to it.
    """

    space: ExtendedSpace
    time_side: TimeSideSolver
    r1_proj: np.ndarray
    phases: dict[str, float]
    z: np.ndarray | None = None
    sweeps: int = 0
    residual_history: list[float] = field(default_factory=list)

    @property
    def prefix(self) -> int:
        """Index of the prefix the state sits on: ``sweeps``, capped at the last prefix."""
        return min(self.sweeps, len(self.space.dims) - 1)

    @property
    def basis(self) -> np.ndarray:
        return self.space.basis[:, : self.space.dims[self.prefix]]

    @property
    def dims(self) -> tuple[int, int]:
        """(dim U, 2 m_t): the time side is the whole axis."""
        return (self.space.dims[self.prefix], 2 * self.time_side.m_t)


@contextmanager
def _phase(phases: dict[str, float], name: str, within: str | None = None):
    """Add the seconds spent in the block to ``phases[name]``.

    A block nested in the block of phase ``within`` takes its seconds out
    of that phase, so that no second is counted twice.
    """
    start = time.perf_counter()
    try:
        yield
    finally:
        spent = time.perf_counter() - start
        phases[name] += spent
        if within is not None:
            phases[within] -= spent


def factored_residual(x1: np.ndarray, x2: np.ndarray, problem: SylvesterProblem) -> float:
    """Relative Frobenius residual of a factored candidate solution.

    Evaluates || A x1 x2^T + x1 x2^T B - R1 R2^T ||_F / || R1 R2^T ||_F
    through skinny QR factors of the stacked slim blocks, never forming
    an n-by-2m_t matrix.  x1 and x2 are 2-D, with one column per rank.
    The denominator is the problem's ``rhs_norm``; when it is zero the
    absolute norm is returned instead.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    den = problem.rhs_norm
    left = np.column_stack([problem.apply_a(x1), x1, -problem.r1])
    right = np.column_stack([x2, problem.b_transpose @ x2, problem.r2])
    num = lowrank_norm(LowRankMatrix(left, right))
    return num / den if den else num


def skpik_init(problem: SylvesterProblem, pole: float | None = None) -> KpikState:
    """Start on the seed prefix of the shared space: the orthonormalized [R1, A^{-1} R1],
    followed by (A + pole I)^{-1} R1 when a pole is given.

    Dependent directions are deflated.  The space is the one the
    problem's operators keep for its shift, pole and seed; if the prefix
    is not yet grown, growing it is charged to the new state's phases.
    """
    if problem.r1.shape[1] == 0:
        raise ValueError("the right-hand side has rank zero; nothing to iterate on")
    phases = dict.fromkeys(PHASES, 0.0)
    seed = problem.seed
    key = ("extended space", problem.shift, pole, seed.shape, seed.tobytes())
    space = problem.ops.cached(key, lambda: ExtendedSpace(seed, pole))
    dim = space.dims[space.grow(0, problem, phases)]
    with _phase(phases, "time_side"):
        r1_proj = space.basis[:, :dim].T @ problem.r1
    return KpikState(
        space=space,
        time_side=TimeSideSolver(problem.g, problem.w, problem.shift, problem.m_t),
        r1_proj=r1_proj,
        phases=phases,
    )


def _evaluate(state: KpikState, problem: SylvesterProblem, j: int) -> np.ndarray:
    """Solve the projected equation on prefix j and record its residual as sweep j.

    Returns the solution z on prefix j (the last one if the space closed
    before j), without moving the state there.  U^T R1 gains one product
    per block of the space that it lacks, so its leading rows have the
    same bits whichever prefixes were evaluated before.  With the
    prefix's eigenpairs (lam, q), z = q zhat, where the rows of zhat
    decouple: diag(lam) zhat + zhat B = q^T M_a (U^T R1) R2^T.  Only
    U^T R1, the time side and the residual norm are this problem's own
    work, charged to ``time_side``.
    """
    space = state.space
    i = space.prefix(j, problem, state.phases)
    dims = space.dims
    dim = dims[i]
    with _phase(state.phases, "time_side"):
        while (lo := len(state.r1_proj)) < dim:
            cols = slice(lo, dims[dims.index(lo) + 1])
            state.r1_proj = np.vstack([state.r1_proj, space.basis[:, cols].T @ problem.r1])
        # U^T M R1 = M_a U^T R1 and the residual norm both rely on R1 in range(U):
        # R1 spans the seed, up to the 1e-12 deflation tolerance
        r1_proj = state.r1_proj[:dim]
        lam, q = space.eig[i]
        z = q @ state.time_side.solve(lam, (q.T @ (space.m_a[:dim, :dim] @ r1_proj)) @ problem.r2.T)
        inside = space.t_a(i) @ z + (problem.b_transpose @ z.T).T - r1_proj @ problem.r2.T
        res = float(np.hypot(np.linalg.norm(inside), np.linalg.norm(space.r[i] @ z)))
    history = state.residual_history
    history.extend([np.nan] * (j - len(history)))
    history[j - 1] = res / problem.rhs_norm if problem.rhs_norm else res
    return z


def _move(state: KpikState, j: int, z: np.ndarray) -> None:
    """Put the state on sweep j, with the solution z that :func:`_evaluate` found there."""
    state.z, state.sweeps = z, j


def _exhausted(state: KpikState, problem: SylvesterProblem) -> bool:
    """Has the space closed on the state's prefix?  Grows it to the next sweep if need be."""
    return state.space.grow(state.sweeps + 1, problem, state.phases) == state.prefix


def skpik_sweep(state: KpikState, problem: SylvesterProblem) -> KpikState:
    """One sweep: move to the next prefix of the space, solve the projected equation, record.

    The projected equation K_a Z + M_a Z B = M_a (U^T R1) R2^T is solved
    exactly in time, so the Galerkin condition (M U)^T R = 0 holds on the
    whole time axis.  The residual of X = U z is recorded relative to the
    norm of R1 R2^T (see :class:`KpikState`).  The prefix's matrices,
    eigenpairs and r are the space's (see :func:`_evaluate`).  Raises
    :class:`StagnationError` when the space has closed after a projected
    solution already exists, since no further progress is possible.
    """
    if state.z is not None and _exhausted(state, problem):
        raise StagnationError("the extended Krylov space is exhausted without convergence")
    j = state.sweeps + 1
    _move(state, j, _evaluate(state, problem, j))
    return state


def _search(
    state: KpikState, problem: SylvesterProblem, target: float, max_sweeps: int
) -> int | None:
    """Sweep to the first prefix whose projected residual meets ``target``.

    Sweeps prefixes SEARCH_STRIDE, 2 SEARCH_STRIDE, ..., capped at
    ``max_sweeps`` and at the last prefix of a closed space, until one
    meets ``target``, then bisects the last stride down to the prefix j
    that meets it while j - 1 does not (or j = 1).  The state ends on j,
    or on the cap if no prefix up to it meets ``target``.  A scan of
    every prefix ends on the same j whenever the residual stays at or
    below ``target`` from its first crossing up to the stride point after
    it; else j may lie later.  Which prefixes are evaluated depends only
    on this problem's residuals and on where the space closes, never on
    how far the shared space has already grown.

    On a space without a pole, a stride point that misses ``target``
    and has stalled (see :func:`_stalled`) ends the search there, and its
    sweep is returned; else None is.
    """
    lo = 0
    while True:
        cap = min(lo + SEARCH_STRIDE, max_sweeps)
        hi = max(1, state.space.grow(cap, problem, state.phases))
        if hi == lo:  # the state sits on the cap
            return None
        _move(state, hi, _evaluate(state, problem, hi))
        if state.residual_history[hi - 1] <= target:
            break
        if state.space.pole is None and _stalled(state, problem):
            return hi
        lo = hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        z = _evaluate(state, problem, mid)
        if state.residual_history[mid - 1] <= target:
            hi = mid
            _move(state, mid, z)
        else:
            lo = mid
    return None


def _flat(state: KpikState, problem: SylvesterProblem, window: int) -> bool:
    """Has the residual fallen by less than STAGNATION_FACTOR over the last ``window``
    sweeps?  A prefix the search skipped is evaluated."""
    j, history = state.sweeps, state.residual_history
    back = j - window
    if np.isnan(history[back - 1]):
        _evaluate(state, problem, back)
    return history[j - 1] * STAGNATION_FACTOR > history[back - 1]


def _stagnated(state: KpikState, problem: SylvesterProblem) -> bool:
    """Has the residual, below STAGNATION_LEVEL, fallen by less than STAGNATION_FACTOR
    over the last STAGNATION_WINDOW sweeps?"""
    j, history = state.sweeps, state.residual_history
    if j <= STAGNATION_WINDOW or history[j - 1] > STAGNATION_LEVEL:
        return False
    return _flat(state, problem, STAGNATION_WINDOW)


def _stalled(state: KpikState, problem: SylvesterProblem) -> bool:
    """Is the state on sweep 2 POLE_WINDOW, 3 POLE_WINDOW, ..., with a residual that
    has fallen by less than STAGNATION_FACTOR over the last POLE_WINDOW sweeps?"""
    j = state.sweeps
    return j % POLE_WINDOW == 0 and j >= 2 * POLE_WINDOW and _flat(state, problem, POLE_WINDOW)


def stack_residuals(
    r1: np.ndarray, a_x1: np.ndarray, x1: np.ndarray, x2: np.ndarray, problem: SylvesterProblem
) -> list[float]:
    """Relative residuals of the truncations of x1 x2^T to rank 1, 2, ..., from one QR per side.

    x1, ``r1`` = R1 and ``a_x1`` = A x1 are in one orthonormal basis.
    With a_j, b_j the columns of x1, x2 and p the width of R1, the rank-k
    residual is the product of the leading p + 2k columns of
    [-R1, A a_1, a_1, A a_2, ...] and [R2, b_1, B^T b_1, b_2, ...]; their
    norms come from :func:`~eddyopt.lacore.lowrank_norms`.
    """
    p, k = r1.shape[1], x1.shape[1]
    left = np.empty((len(x1), p + 2 * k))
    right = np.empty((2 * problem.m_t, p + 2 * k))
    left[:, :p], right[:, :p] = -r1, problem.r2
    left[:, p::2], left[:, p + 1 :: 2] = a_x1, x1
    right[:, p::2], right[:, p + 1 :: 2] = x2, problem.b_transpose @ x2
    den = problem.rhs_norm or 1.0
    norms = lowrank_norms(LowRankMatrix(left, right), range(p + 2, p + 2 * k + 1, 2))
    return [res / den for res in norms]


def truncation_residuals(
    state: KpikState, problem: SylvesterProblem, p: np.ndarray, s: np.ndarray, qt: np.ndarray
) -> list[float]:
    """Relative residuals of U z_k for k = 1, 2, ..., len(s), without n-sized work.

    z_k = p[:, :k] diag(s[:k]) qt[:k] are the truncations of the SVD
    z = p diag(s) qt of the current projected solution.  A U = U T_a + W r
    and R1 = U (U^T R1) (see :class:`KpikState`), so
    :func:`stack_residuals` scans them in the 2 dim coordinates of the
    unformed [U, W]: R1 as [U^T R1; 0], A U p as [T_a p; r p], U p as [p; 0].
    """
    space, i = state.space, state.prefix
    r1_proj = state.r1_proj[: space.dims[i]]
    return stack_residuals(
        np.vstack([r1_proj, np.zeros_like(r1_proj)]),
        np.vstack([space.t_a(i) @ p, space.r[i] @ p]),
        np.vstack([p, np.zeros_like(p)]),
        qt.T * s,
        problem,
    )


def _compress(
    state: KpikState, problem: SylvesterProblem, tol: float, trunc_tol: float
) -> tuple[LowRankMatrix, float]:
    """Truncate U z by the rank rule it shares with lrminres.

    The rule is :func:`~eddyopt.lacore.certified_truncation`.  U is
    orthonormal, so (U p) diag(s) qt is an SVD of U z, and the rule scans
    the projected residuals of :func:`truncation_residuals`.  On the
    9-node mesh at sigma = 1e4 the state is 1e-3 of X, and rank 2 meets a
    residual of 1e-8 with the state off by 2.7e-6: the rule's block rank
    keeps it.  The ranks tried are certified by :func:`factored_residual`.
    Returns the factors and their certified residual.
    """
    phases = state.phases

    def certify(k: int) -> tuple[LowRankMatrix, float]:
        x = LowRankMatrix(state.basis @ p[:, :k], qt[:k].T * s[:k])
        with _phase(phases, "certify", within="compress"):
            return x, factored_residual(x.left, x.right, problem)

    with _phase(phases, "compress"):
        p, s, qt = np.linalg.svd(state.z, full_matrices=False)
        return certified_truncation(
            s,
            qt,
            tol,
            trunc_tol,
            lambda k: truncation_residuals(state, problem, p[:, :k], s[:k], qt[:k]),
            certify,
        )


def skpik_solve(
    problem: SylvesterProblem,
    tol: float = ProblemConfig.tol,
    trunc_tol: float = ProblemConfig.trunc_tol,
    max_sweeps: int = ProblemConfig.max_it,
) -> tuple[LowRankMatrix, SolveReport]:
    """Run the projection iteration until the certified residual meets tol.

    Each sweep j solves the projected equation on prefix j of the shared
    space and monitors its projected residual h(j).  The first prefix
    whose h meets max(tol, ``STAGNATION_LEVEL``) is searched for, not
    scanned for: prefixes ``SEARCH_STRIDE``, 2 ``SEARCH_STRIDE``, ... are
    swept until one meets it, and the last stride is bisected down to the
    prefix J whose predecessor fails (see :func:`_search`).  If the
    search meets a sweep 2 ``POLE_WINDOW``, 3 ``POLE_WINDOW``, ... that
    misses its target with h down by less than ``STAGNATION_FACTOR``
    over the ``POLE_WINDOW`` sweeps before, the solve restarts once, on
    the space with the pole w = 1/sqrt(beta) (see
    :class:`ExtendedSpace`), and searches again there; the decision
    rests on this solve's residuals at fixed sweeps only, so the pole
    space is shared by every solve that switches on the same operators,
    shift, w and seed.  From J on sweeps go one prefix at a time.  Once
    h passes the
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
    certified residual; there is no silent success.  Whenever h falls
    below the search's target at its first crossing and stays there up
    to the next stride point, every stop decision is the one a sweep of
    every prefix makes, with the same bits.

    ``iterations`` is the sweep count J, and ``residual_history`` holds
    h(1), ..., h(J) with NaN for the sweeps the search skipped; both, and
    ``subspace``, describe the space the solve ended on.
    ``extra["stop_reason"]`` is ``"converged"``, ``"stagnation"``,
    ``"max_sweeps"`` or ``"space_exhausted"``; ``extra["pole"]`` is w
    when the solve switched to the pole space and None otherwise, and
    ``extra["switched_at"]`` the sweep of the extended Krylov space at
    which it switched, or None.  ``extra["phases"]`` holds the seconds
    spent in each of ``PHASES``, on both spaces of a solve that switched.
    ``extend`` counts only the growth of the shared spaces that this
    solve caused, and ``project`` and ``residual`` the eigenproblems and
    QRs of the prefixes this solve was the first to sweep on (see
    :meth:`ExtendedSpace.prefix`); each is 0 when another solve did that
    work before.
    """
    if not tol > 0:  # written so that NaN fails too
        raise ValueError(f"tol must be positive, got {tol}")
    if not trunc_tol >= 0:
        raise ValueError(f"trunc_tol must be nonnegative, got {trunc_tol}")
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be at least 1")
    start = time.perf_counter()
    if problem.rhs_norm == 0.0:
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
            extra={
                "stop_reason": "converged",
                "phases": dict.fromkeys(PHASES, 0.0),
                "pole": None,
                "switched_at": None,
            },
        )
        return x, report

    target = max(tol, STAGNATION_LEVEL)
    state = skpik_init(problem)
    switched_at = _search(state, problem, target, max_sweeps)
    if switched_at is not None:
        phases = state.phases
        state = skpik_init(problem, pole=problem.w)
        for name, seconds in phases.items():
            state.phases[name] += seconds
        _search(state, problem, target, max_sweeps)
    history = state.residual_history
    exhausted = False
    while True:
        stagnated = _stagnated(state, problem)
        last = stagnated or state.sweeps == max_sweeps
        passed = history[state.sweeps - 1] <= tol
        if last or passed:
            x, res = _compress(state, problem, tol, trunc_tol)
            if res <= tol or last:
                break
        # asked only now, since it may grow the space by the next sweep's block
        exhausted = _exhausted(state, problem)
        if exhausted:
            if not passed:
                x, res = _compress(state, problem, tol, trunc_tol)
            break
        skpik_sweep(state, problem)
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
        residual_history=history[: state.sweeps],
        subspace=state.dims,
        extra={
            "stop_reason": stop_reason,
            "phases": dict(state.phases),
            "pole": state.space.pole,
            "switched_at": switched_at,
        },
    )
    return x, report
