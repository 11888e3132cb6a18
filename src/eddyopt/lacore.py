"""Dense and sparse linear-algebra kernels shared by the solvers.

Block Gram-Schmidt with deflation, the one truncation rule and the
low-rank solvers' rank rule built on it, the Frobenius norms of the
leading columns of factored matrices, the norm and the triangular
factor of a tall residual A - Q core walked by row blocks (every QR of
the package), rank-adaptive compression of a dense table, real Schur
form, a dense Sylvester solve (Bartels-Stewart by LAPACK ``trsyl``; a
refused pair is named by the eigenvalues of numpy's ``eigvals``), two
sparse factorizations, and Matrix Market I/O (one header check and one
body parser for coordinate and array files).  Rank-zero factors (n x 0)
take the general paths: numpy's QR and SVD and the sparse solves return
empty or zero results on them.  SPD matrices are factored by band
Cholesky after a reverse Cuthill-McKee ordering, which suits operators
of small bandwidth such as those of 2-D meshes: that is the one
factorization type, :class:`SparseFactorization`.  The one nonsymmetric
matrix, the time coupling B, by SciPy's SuperLU, returned unwrapped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.linalg.blas
import scipy.linalg.lapack
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import reverse_cuthill_mckee

__all__ = [
    "LinAlgFailure",
    "NotSpdError",
    "SingularMatrixError",
    "SylvesterConditionError",
    "StagnationError",
    "MatrixMarketError",
    "LowRankMatrix",
    "mgs_orthonormalize",
    "lowrank_norm",
    "lowrank_norms",
    "truncation_rank",
    "certified_truncation",
    "truncated_svd",
    "factor_cores",
    "truncate_cores",
    "residual_factor",
    "lowrank_from_dense",
    "real_schur",
    "solve_sylvester_dense",
    "SparseFactorization",
    "sparse_spd_factorize",
    "sparse_lu_factorize",
    "mm_read",
    "mm_write",
    "mm_read_dense",
    "mm_write_dense",
]

# drop a column when its post-projection norm falls below this fraction
# of its original norm
DEFLATION_RTOL = 1e-12

# solve_sylvester_dense refuses a solution whose relative residual exceeds this
SYLVESTER_RESIDUAL_RTOL = 1e-8

# columns of the first random test block of the range finder; each round doubles it
RANGE_BLOCK = 8
# the range finder stops once its residual is this fraction of the allowed error
RANGE_BUDGET_FRACTION = 0.1
# a range wider than this fraction of min(n, m) is not cheaper than the exact path
RANGE_CAP_FRACTION = 0.25
# bytes of the row block in which the range finder takes its residual norm: cache-sized
RESIDUAL_BLOCK_BYTES = 256 * 1024
# rows of the blocks in which residual_factor factors every table: about five times
# the widest prefix a cli-file solve reaches (198 columns), so the stacked triangles
# add about 2 dim / (3 QR_BLOCK_ROWS) = 13 % to the flops of one QR there
QR_BLOCK_ROWS = 1024


class LinAlgFailure(RuntimeError):
    """A factorization or solve could not be completed."""


class NotSpdError(LinAlgFailure):
    """The matrix handed to an SPD factorization is not positive definite."""


class SingularMatrixError(LinAlgFailure):
    """The matrix handed to an LU factorization is singular."""


class SylvesterConditionError(LinAlgFailure):
    """The two Sylvester coefficients have (nearly) cancelling eigenvalues."""


class StagnationError(LinAlgFailure):
    """An iteration deflated to an empty update and cannot make progress."""


class MatrixMarketError(ValueError):
    """Malformed Matrix Market input; the message carries the line number."""


@dataclass(frozen=True)
class LowRankMatrix:
    """A matrix stored as ``left @ right.T`` with skinny factors.

    ``left`` is (n, r), ``right`` is (m, r); the represented value is
    n-by-m of rank at most r.  Rank zero (empty factors) represents the
    zero matrix.
    """

    left: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        if self.left.ndim != 2 or self.right.ndim != 2:
            raise ValueError("low-rank factors must be 2-D arrays")
        if self.left.shape[1] != self.right.shape[1]:
            raise ValueError(
                f"factor ranks differ: {self.left.shape[1]} vs {self.right.shape[1]}"
            )

    @property
    def shape(self) -> tuple[int, int]:
        return (self.left.shape[0], self.right.shape[0])

    @property
    def rank(self) -> int:
        return self.left.shape[1]

    def to_dense(self) -> np.ndarray:
        return self.left @ self.right.T

    @classmethod
    def zero(cls, n: int, m: int) -> "LowRankMatrix":
        return cls(np.zeros((n, 0)), np.zeros((m, 0)))


def mgs_orthonormalize(block, against=None):
    """Orthonormalize the columns of ``block`` by modified Gram-Schmidt.

    Columns are first orthogonalized against the orthonormal columns of
    ``against`` (if given) and then against the previously accepted
    columns; a second full pass is always applied.  A column whose norm
    after projection is below ``DEFLATION_RTOL`` times its original norm is
    dropped.  Returns a matrix with orthonormal columns spanning the
    surviving directions; it has zero columns if everything deflated.
    """
    block = np.asarray(block, dtype=float)
    if block.ndim == 1:
        block = block[:, None]
    n = block.shape[0]
    # n x 0 columns project out exact zeros
    against = np.zeros((n, 0)) if against is None else np.asarray(against, dtype=float)
    kept: list[np.ndarray] = []
    for j in range(block.shape[1]):
        v = block[:, j].copy()
        pre = np.linalg.norm(v)
        if pre == 0.0 or not np.isfinite(pre):
            continue
        for _ in range(2):
            v -= against @ (against.T @ v)
            for q in kept:
                v -= q * (q @ v)
        nrm = np.linalg.norm(v)
        if nrm < DEFLATION_RTOL * pre:
            continue
        kept.append(v / nrm)
    if not kept:
        return np.zeros((n, 0))
    return np.column_stack(kept)


def lowrank_norms(x: LowRankMatrix, widths) -> list[float]:
    """Frobenius norms of x.left[:, :c] x.right[:, :c]^T for each c in ``widths``.

    The leading c columns of a factor are its Q times those of its R, so
    one QR per factor serves every c; the slice [:c, :c] also keeps the
    leading columns of a trapezoidal R, of a factor wider than tall.
    """
    c1 = np.linalg.qr(x.left, mode="r")
    c2 = np.linalg.qr(x.right, mode="r")
    return [float(np.linalg.norm(c1[:c, :c] @ c2[:c, :c].T)) for c in widths]


def lowrank_norm(x: LowRankMatrix) -> float:
    """Frobenius norm of the represented matrix: :func:`lowrank_norms` at the full width."""
    return lowrank_norms(x, [x.rank])[0]


def truncation_rank(s: np.ndarray, rtol: float) -> int:
    """The one truncation rule: the smallest k with ||s[k:]||_2 <= rtol ||s||_2.

    For the singular values ``s`` of X, in decreasing order, the rank-k
    truncation X_k then satisfies ||X - X_k||_F <= rtol ||X||_F;
    ``rtol = 0`` keeps every nonzero value.  Any nonnegative ``s`` is
    taken in the order given: entries are dropped from the end.
    """
    if not rtol >= 0:  # written so that NaN fails too
        raise ValueError(f"truncation tolerance must be nonnegative, got {rtol}")
    if s.size == 0:
        return 0
    # tail[k] = ||s[k:]||_2, accumulated by hypot so it neither over- nor underflows
    tail = np.hypot.accumulate(s[::-1])[::-1]
    return int(np.count_nonzero(tail > rtol * tail[0]))


def certified_truncation(s, qt, tol: float, trunc_tol: float, residuals, certify):
    """The one rank rule of the low-rank solvers: the smallest truncation that certifies tol.

    ``s`` and ``qt`` are the singular values and the right singular
    vectors (as rows) of a candidate X = P diag(s) qt, whose columns are
    the time axis: the state steps in the first half, the multiplier
    steps in the second.  The cap k_cap is :func:`truncation_rank` at
    ``trunc_tol`` on s.  The block rank k_blocks is the larger of the two
    ranks the same rule keeps at ``tol`` on each half's share
    s_j ||qt[j, half]|| of the triplets, so the truncation changes the
    state and the multiplier each by at most tol, relative: the residual
    alone lets a block much smaller than the other lose all its digits.
    ``residuals(k_cap)`` yields the relative residuals of the truncations
    of rank 1, 2, ..., k_cap, and k_min is the first k >= k_blocks whose
    residual meets tol (k_cap if none does).  ``certify(k)`` returns the
    rank-k factors and their certified residual.  Rank k_min is
    certified, and rank k_cap if that certificate fails.  Returns the
    factors and the residual of the last rank certified.
    """
    k_cap = truncation_rank(s, trunc_tol)
    half = qt.shape[1] // 2
    k_blocks = max(
        truncation_rank(s * np.linalg.norm(qt[:, block], axis=1), tol)
        for block in (slice(0, half), slice(half, 2 * half))
    )
    k_min = next(
        (k for k, res in enumerate(residuals(k_cap), 1) if k >= k_blocks and res <= tol), k_cap
    )
    for k in sorted({k_min, k_cap}):
        x, res = certify(k)
        if res <= tol:
            break
    return x, res


def truncated_svd(x: LowRankMatrix, rtol: float, max_rank: int | None = None) -> LowRankMatrix:
    """Recompress a factored matrix to the smallest rank within ``rtol``.

    Skinny QR of both factors followed by an SVD of the small core,
    truncated by :func:`truncation_rank`.  ``max_rank`` caps k after the
    rule.  The returned left factor has orthonormal columns and the
    scale lives in the right factor.
    """
    if rtol < 0:
        raise ValueError("truncation tolerance must be nonnegative")
    return truncate_cores(factor_cores(x), rtol, max_rank)


def factor_cores(x: LowRankMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Skinny QR of both factors: (ql, cl, qr, cr) with left = ql cl, right = qr cr.

    The first step of :func:`truncated_svd`.  x = ql (cl cr^T) qr^T with
    orthonormal ql and qr, so the Frobenius norm of any column slice of
    the factors, x.left[:, s] x.right[:, s]^T, is that of cl[:, s] cr[:, s]^T.
    """
    ql, cl = np.linalg.qr(x.left)
    qr_, cr = np.linalg.qr(x.right)
    return ql, cl, qr_, cr


def truncate_cores(cores, rtol: float, max_rank: int | None = None) -> LowRankMatrix:
    """The second step of :func:`truncated_svd`: SVD of cl cr^T, truncated by the one rule."""
    ql, cl, qr_, cr = cores
    u, s, vt = np.linalg.svd(cl @ cr.T)
    k = truncation_rank(s, rtol)
    if max_rank is not None:
        k = min(k, max_rank)
    return LowRankMatrix(ql @ u[:, :k], qr_ @ (vt[:k].T * s[:k]))


def _residual_blocks(a: np.ndarray, q: np.ndarray, core: np.ndarray):
    """Yield (lo, block): the rows lo, lo + 1, ... of A - Q core, ``RESIDUAL_BLOCK_BYTES`` at a time.

    Each block is formed in one small C-ordered buffer, which the next
    block overwrites, so the n-by-m residual is never written.  A block
    is formed as ``a - q @ core`` forms the whole, a C-ordered product
    less A's rows, so it rounds as that does, up to the last bits that
    the product's row partition moves.  For a one-column Q the buffer
    takes A's rows and one BLAS rank-one update ``dger`` subtracts
    q core from them, which beats a matmul of inner size one; the
    buffer's transpose is the column-major m-by-rows matrix that
    ``dger`` updates in place.
    """
    n, m = a.shape
    rows = max(1, RESIDUAL_BLOCK_BYTES // (8 * m))
    work = np.empty((min(rows, n), m))
    for lo in range(0, n, rows):
        blk = work[: min(rows, n - lo)]
        if q.shape[1] == 1:
            np.copyto(blk, a[lo : lo + rows])
            scipy.linalg.blas.dger(-1.0, core[0], q[lo : lo + rows, 0], a=blk.T, overwrite_a=1)
        else:
            np.matmul(q[lo : lo + rows], core, out=blk)
            np.subtract(a[lo : lo + rows], blk, out=blk)
        yield lo, blk


def _residual_norm(a: np.ndarray, q: np.ndarray, core: np.ndarray) -> float:
    """||A - Q core||_F, summed over the row blocks of :func:`_residual_blocks`."""
    total = 0.0
    for _, blk in _residual_blocks(a, q, core):
        flat = blk.ravel()
        total += float(flat @ flat)
    return float(np.sqrt(total))


def residual_factor(a: np.ndarray, q: np.ndarray, core: np.ndarray) -> np.ndarray:
    """The square triangular factor R of the QR of A - Q core, by row blocks.

    A tall-skinny QR (Demmel, Grigori, Hoemmen & Langou 2012, SIAM J.
    Sci. Comput. 34): each block of ``QR_BLOCK_ROWS`` rows is gathered
    from :func:`_residual_blocks` into one column-major buffer and
    factored there in place, and the triangles of the blocks, stacked,
    are factored once more; a lone triangle comes back bit for bit.  The
    result is the R of one QR up to the signs of its rows, so R^T R and
    ||R z|| are those of A - Q core.  One block, one buffer of
    ``_residual_blocks`` and the stack are held, never the n-by-m
    residual.
    """
    n, m = a.shape
    rows = QR_BLOCK_ROWS
    starts = range(0, n, rows)
    work = np.empty(min(rows, n) * m)
    stack = np.empty((sum(min(rows, n - lo, m) for lo in starts), m), order="F")
    top = 0
    for lo in starts:
        blk = work[: min(rows, n - lo) * m].reshape((-1, m), order="F")
        r = _r_in_place(_gather_residual(blk, a[lo : lo + rows], q[lo : lo + rows], core))
        stack[top : top + len(r)] = r
        top += len(r)
    return _r_in_place(stack)


def _gather_residual(out: np.ndarray, a: np.ndarray, q: np.ndarray, core: np.ndarray) -> np.ndarray:
    """Write A - Q core into ``out`` from the row blocks of :func:`_residual_blocks`.

    A function of its own, so that the generator's buffer is released
    on return, before the next block allocates its own.
    """
    for lo, blk in _residual_blocks(a, q, core):
        out[lo : lo + len(blk)] = blk
    return out


def _r_in_place(a: np.ndarray) -> np.ndarray:
    """The R, min(rows, columns) high, of a column-major ``a``, which LAPACK overwrites."""
    return scipy.linalg.qr(a, overwrite_a=True, mode="raw", check_finite=False)[1]


def lowrank_from_dense(a, rtol: float) -> LowRankMatrix:
    """Compress a dense table to the smallest rank within ``rtol``, at a cost set by its rank.

    Returns factors with ||A - L R^T||_F <= rtol ||A||_F, the bound of
    :func:`truncated_svd`, which also supplies the rule.  An adaptive
    randomized range finder (Halko, Martinsson & Tropp 2011, SIAM Rev.
    53) grows an orthonormal Q by Gaussian blocks of doubling width
    until the residual E = A - Q Q^T A meets a tenth of the allowed
    error, or a block deflates to nothing.  Q Q^T A is then truncated
    with the error budget E leaves over; since E is orthogonal to
    range(Q) the two errors add in squares.  The Gaussian draws come
    from a fixed seed, so repeated calls return identical factors.  The
    norm of E is summed over cache-sized row blocks, so a round that
    meets the bound writes no table.  Only a round that sketches E forms
    it explicitly, anew in one n-by-m work buffer allocated by the first
    such round: the calls hold one table beyond A, which is only read,
    only when a further round runs.  ``rtol = 0``, finite tables whose
    norm overflows and tables whose range would pass a quarter of
    min(n, m) columns before meeting the bound take the exact path,
    ``truncated_svd(LowRankMatrix(a, I), rtol)``.  A NaN or infinite
    entry raises ValueError naming its (row, column).
    """
    if rtol < 0:
        raise ValueError("truncation tolerance must be nonnegative")
    a = np.asarray(a, dtype=float)
    n, m = a.shape
    norm_a = float(np.linalg.norm(a))
    if norm_a == 0.0:
        return LowRankMatrix.zero(n, m)
    if not np.isfinite(norm_a) and not np.isfinite(a).all():
        row, col = np.argwhere(~np.isfinite(a))[0]
        raise ValueError(f"table has a non-finite entry {a[row, col]} at ({row}, {col})")
    if rtol == 0.0 or not np.isfinite(norm_a):
        return truncated_svd(LowRankMatrix(a, np.eye(m)), rtol)
    allowed = rtol * norm_a
    rng = np.random.default_rng(0)
    q = np.zeros((n, 0))
    resid, resid_norm = a, norm_a
    buf = None
    width = RANGE_BLOCK
    while resid_norm > RANGE_BUDGET_FRACTION * allowed:
        if q.shape[1] + width > RANGE_CAP_FRACTION * min(n, m):
            break
        if q.shape[1]:
            if buf is None:
                buf = np.empty((n, m))
            # formed anew each round: a downdated residual drifts at the level checked here
            resid = np.subtract(a, np.matmul(q, core, out=buf), out=buf)
        block = mgs_orthonormalize(resid @ rng.standard_normal((m, width)), against=q)
        if block.shape[1] == 0:
            break
        q = np.hstack([q, block])
        core = q.T @ a
        resid_norm = _residual_norm(a, q, core)
        width *= 2
    if resid_norm > allowed:  # capped, or deflated short of the bound
        return truncated_svd(LowRankMatrix(a, np.eye(m)), rtol)
    if q.shape[1] == 0:  # the allowed error is at least ||A||_F
        return LowRankMatrix.zero(n, m)
    left_over = np.sqrt((allowed - resid_norm) * (allowed + resid_norm))
    return truncated_svd(LowRankMatrix(q, core.T), left_over / np.linalg.norm(core))


def real_schur(a):
    """Real Schur form: returns (q, t) with a = q t q^T.

    q is orthogonal and t quasi-upper-triangular with 1x1 and 2x2
    diagonal blocks.  A non-converged QR iteration raises explicitly.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    try:
        t, q = scipy.linalg.schur(a, output="real")
    except scipy.linalg.LinAlgError as exc:
        raise LinAlgFailure(f"Schur decomposition failed to converge: {exc}") from exc
    return q, t


def _collision_error(ra, rb, detail):
    """The error naming the eigenvalues of the Schur factors ra, rb whose sum is nearest 0."""
    la_, lb = np.linalg.eigvals(ra), np.linalg.eigvals(rb)
    gap = np.abs(la_[:, None] + lb[None, :])
    i, j = np.unravel_index(np.argmin(gap), gap.shape)
    return SylvesterConditionError(
        f"singular Sylvester pair: eigenvalue {la_[i]:.6g} of the left "
        f"coefficient nearly cancels eigenvalue {lb[j]:.6g} of the right "
        f"one (gap {gap[i, j]:.3e}); {detail}"
    )


def solve_sylvester_dense(ta, tb, c):
    """Solve ``ta @ Y + Y @ tb.T = c`` for dense Y by Bartels-Stewart.

    Both coefficients are brought to real Schur form and the
    quasi-triangular equation is solved by back-substitution.  Raises
    :class:`SylvesterConditionError` naming the near-common eigenvalue
    when the spectra of ``ta`` and ``-tb`` (nearly) intersect.  The
    triangular solve flags only an intersection at rounding level, while
    a near one already spoils the solution, so the residual is checked
    as well: it must stay within ``SYLVESTER_RESIDUAL_RTOL`` of
    ``||c||_F``.
    """
    ta = np.asarray(ta, dtype=float)
    tb = np.asarray(tb, dtype=float)
    c = np.asarray(c, dtype=float)
    if c.shape != (ta.shape[0], tb.shape[0]):
        raise ValueError(
            f"right-hand side shape {c.shape} does not match "
            f"({ta.shape[0]}, {tb.shape[0]})"
        )
    if c.size == 0:
        return np.zeros(c.shape)
    qa, ra = real_schur(ta)
    qb, rb = real_schur(tb)
    f = np.asfortranarray(qa.T @ c @ qb)
    trsyl, = scipy.linalg.get_lapack_funcs(("trsyl",), (ra, rb, f))
    y, scale, info = trsyl(ra, rb, f, tranb="T")
    if info < 0:
        raise LinAlgFailure(f"illegal argument {-info} in the triangular solve")
    if info == 1 or scale != 1.0:
        raise _collision_error(ra, rb, f"triangular solve scaled by {scale:.3e}")
    if not np.isfinite(y).all():
        raise _collision_error(ra, rb, "non-finite solution")
    y = qa @ y @ qb.T
    resid = np.linalg.norm(ta @ y + y @ tb.T - c)
    c_norm = np.linalg.norm(c)
    if not resid <= SYLVESTER_RESIDUAL_RTOL * c_norm:
        raise _collision_error(
            ra, rb, f"solution residual {resid:.3e} against ||c||_F = {c_norm:.3e}"
        )
    return y


@dataclass(frozen=True)
class SparseFactorization:
    """A band Cholesky factorization A = P^T U^T U P; ``solve`` applies A^{-1}.

    ``order`` is the symmetric ordering P, ``inverse`` its inverse and
    ``band`` the LAPACK upper band storage of U, the factor of the
    reordered matrix, (kd + 1) x n in Fortran order.  Plain arrays, so
    the factor pickles.
    """

    order: np.ndarray
    inverse: np.ndarray
    band: np.ndarray

    def solve(self, b) -> np.ndarray:
        b, n = np.asarray(b, dtype=float), len(self.order)
        if b.shape[0] != n:
            raise ValueError(f"right-hand side has {b.shape[0]} rows, expected {n}")
        x, _ = scipy.linalg.lapack.dpbtrs(self.band, b[self.order], overwrite_b=1)
        return x[self.inverse]


def sparse_spd_factorize(a) -> SparseFactorization:
    """Factorize a symmetric positive definite sparse matrix by band Cholesky.

    The matrix is checked for symmetry, reordered by reverse
    Cuthill-McKee (Cuthill & McKee 1969) and its upper band is factored
    by LAPACK ``dpbtrf``; a solve is one gather, one ``dpbtrs`` and one
    scatter.  The band holds n (kd + 1) doubles, kd the bandwidth after
    reordering, so the kernel serves matrices whose ordering keeps kd
    small: on the 2-D meshes that ``eddyopt generate`` writes kd is about
    sqrt(n) (kd = 31 at n = 961, 55 at n = 3025).  Raises
    :class:`NotSpdError` naming the largest asymmetry |a_ij - a_ji| and
    its (i, j) when it exceeds 64 eps max|a_ij|, or the original row of
    the first pivot that is not positive.
    """
    a = sp.csr_matrix(a)
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValueError("matrix must be square")
    asym = (a - a.T).tocoo()
    if asym.nnz:
        worst = int(np.argmax(np.abs(asym.data)))
        gap = abs(asym.data[worst])
        if gap > 64.0 * np.finfo(float).eps * abs(a).max():
            i, j = asym.row[worst], asym.col[worst]
            raise NotSpdError(
                f"matrix is not symmetric: |a_ij - a_ji| = {gap:.6g} at (i, j) = ({i}, {j})"
            )
    order = reverse_cuthill_mckee(a, symmetric_mode=True)
    entries = a.tocoo()
    entries.sum_duplicates()
    inverse = np.argsort(order)
    rows, cols = inverse[entries.row], inverse[entries.col]
    upper = cols >= rows
    rows, cols = rows[upper], cols[upper]
    kd = int(np.max(cols - rows, initial=0))
    band = np.zeros((kd + 1, n), order="F")
    band[kd + rows - cols, cols] = entries.data[upper]
    band, info = scipy.linalg.lapack.dpbtrf(band, overwrite_ab=1)
    if info > 0:
        raise NotSpdError(
            f"matrix is not SPD: the pivot of row {order[info - 1]} is not positive"
        )
    return SparseFactorization(order, inverse, band)


def sparse_lu_factorize(a) -> spla.SuperLU:
    """Factorize a square nonsingular sparse matrix by LU with partial pivoting.

    Returns SciPy's ``SuperLU`` itself; its ``solve(b, trans="T")`` solves
    with the transpose.
    """
    a = sp.csc_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    try:
        return spla.splu(a)
    except RuntimeError as exc:
        raise SingularMatrixError(f"matrix is singular: {exc}") from exc


# ---------------------------------------------------------------------------
# Matrix Market I/O (coordinate format for sparse, array format for dense)

_BANNER = "%%MatrixMarket"

# entry lines formatted by one % template: a few thousand bound the text held at once
MM_WRITE_CHUNK = 4096


def _mm_write(path, fmt: str, sizes, line: str, columns) -> None:
    """Write a general real Matrix Market file: banner, size line, then the entry lines.

    Entry i is ``line`` filled from item i of each of the 1-D arrays
    ``columns``.  They are formatted as Python numbers, one % template
    per chunk of ``MM_WRITE_CHUNK`` entries.
    """
    with open(path, "w") as fh:
        fh.write(f"{_BANNER} matrix {fmt} real general\n{' '.join(map(str, sizes))}\n")
        for lo in range(0, len(columns[0]), MM_WRITE_CHUNK):
            parts = [col[lo : lo + MM_WRITE_CHUNK].tolist() for col in columns]
            flat = parts[0] if len(parts) == 1 else [v for entry in zip(*parts) for v in entry]
            fh.write((line * len(parts[0])) % tuple(flat))


def mm_write(path, a) -> None:
    """Write a sparse matrix in Matrix Market coordinate format.

    Values are written with 17 significant digits so a subsequent
    :func:`mm_read` reproduces them exactly.
    """
    a = sp.coo_matrix(a)
    rows, cols = a.row.astype(np.int64) + 1, a.col.astype(np.int64) + 1
    _mm_write(path, "coordinate", (*a.shape, a.nnz), "%d %d %.16e\n", (rows, cols, a.data))


def _mm_fail(lineno: int, msg: str):
    raise MatrixMarketError(f"line {lineno}: {msg}")


def _mm_header(path, fmt: str) -> tuple[list[str], int, list[int], str]:
    """Read a real Matrix Market file of format ``fmt`` and check its header.

    Returns (lines, start, sizes, symmetry); the entries are ``lines[start:]``.
    Array files must be general, symmetric coordinate files square.
    """
    with open(path) as fh:
        lines = fh.readlines()
    if not lines:
        _mm_fail(1, "empty file")
    symmetries = ("general", "symmetric") if fmt == "coordinate" else ("general",)
    banner = lines[0].split()
    if len(banner) != 5 or banner[0] != _BANNER:
        _mm_fail(1, f"expected banner '{_BANNER} matrix {fmt} real {'|'.join(symmetries)}'")
    _, obj, kind, field, symmetry = (tok.lower() for tok in banner)
    if obj != "matrix":
        _mm_fail(1, f"unsupported object {obj!r}")
    if kind != fmt:
        _mm_fail(1, f"unsupported format {kind!r} (only {fmt!r})")
    if field != "real":
        _mm_fail(1, f"unsupported field {field!r} (only 'real')")
    if symmetry not in symmetries:
        _mm_fail(1, f"unsupported symmetry {symmetry!r}")

    idx = 1
    while idx < len(lines) and (lines[idx].startswith("%") or lines[idx].isspace()):
        idx += 1
    if idx == len(lines):
        _mm_fail(len(lines), "missing size line")
    form = "rows cols nnz" if fmt == "coordinate" else "rows cols"
    parts = lines[idx].split()
    if len(parts) != len(form.split()):
        _mm_fail(idx + 1, f"size line must be '{form}'")
    try:
        sizes = [int(p) for p in parts]
    except ValueError:
        _mm_fail(idx + 1, f"size line '{form}' must hold integers")
    if min(sizes) < 0:
        _mm_fail(idx + 1, "negative dimension")
    if symmetry == "symmetric" and sizes[0] != sizes[1]:
        _mm_fail(idx + 1, "symmetric matrix must be square")
    return lines, idx + 1, sizes, symmetry


def _mm_entries(lines, start: int, form: str, count: int, bounds=()) -> np.ndarray:
    """The ``count`` entry lines of ``lines[start:]`` as a float table, one row per line.

    ``form`` names the words of an entry, the value last; the indices
    before it must be integers in 1..``bounds``.  Blank lines are skipped
    and the rest is parsed by one ``np.loadtxt`` call.  Only when the
    parse, the count or an index fails are the lines walked one by one,
    to name the first bad line.
    """
    width = len(form.split())
    texts = [text for text in lines[start:] if not text.isspace()]
    try:
        table = np.loadtxt(texts, comments=None, ndmin=2) if texts else np.empty((0, width))
        index = table[:, :-1]
        valid = (index == np.floor(index)) & (1 <= index) & (index <= bounds)
        if table.shape == (count, width) and valid.all():
            return table
    except ValueError:
        pass
    seen = 0
    for lineno, text in enumerate(lines[start:], start + 1):
        words = text.split()
        if not words:
            continue
        if seen == count:
            _mm_fail(lineno, f"more than the declared {count} entries")
        seen += 1
        if len(words) != width:
            _mm_fail(lineno, f"entry must be '{form}'")
        try:
            index = [float(w) for w in words[:-1]]
            if not all(i.is_integer() for i in index):
                raise ValueError
        except ValueError:
            _mm_fail(lineno, "row/column indices must be integers")
        try:
            float(words[-1])
        except ValueError:
            _mm_fail(lineno, f"value {words[-1]!r} is not a real number")
        for name, i, b in zip(("row", "column"), index, bounds):
            if not 1 <= i <= b:
                _mm_fail(lineno, f"{name} index {int(i)} outside 1..{b} (indices are 1-based)")
    if seen != count:
        _mm_fail(len(lines), f"expected {count} entries, found {seen}")
    # every word passed Python's float() but not numpy's parser, e.g. '1_0'
    _mm_fail(start, "entries below hold numbers outside plain decimal notation")


def mm_read(path) -> sp.csr_matrix:
    """Read a real coordinate Matrix Market file into CSR storage.

    Symmetric files are expanded to full storage.  Malformed input
    raises :class:`MatrixMarketError` naming the first offending line.
    """
    lines, start, (nrows, ncols, nnz), symmetry = _mm_header(path, "coordinate")
    table = _mm_entries(lines, start, "row col value", nnz, (nrows, ncols))
    if symmetry == "symmetric":  # mirror the off-diagonal entries
        table = np.vstack([table, table[table[:, 0] != table[:, 1]][:, [1, 0, 2]]])
    rows, cols = (table[:, :2].astype(np.int64) - 1).T
    out = sp.coo_matrix((table[:, 2], (rows, cols)), shape=(nrows, ncols)).tocsr()
    out.sort_indices()
    return out


def mm_write_dense(path, a) -> None:
    """Write a dense matrix in Matrix Market array format (column-major)."""
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    _mm_write(path, "array", a.shape, "%.16e\n", (a.reshape(-1, order="F"),))


def mm_read_dense(path) -> np.ndarray:
    """Read a dense matrix in general Matrix Market array format (errors as :func:`mm_read`)."""
    lines, start, (nrows, ncols), _ = _mm_header(path, "array")
    return _mm_entries(lines, start, "value", nrows * ncols).reshape((nrows, ncols), order="F")
