"""Dense and sparse linear-algebra kernels shared by the solvers.

Block Gram-Schmidt with deflation, the one truncation rule and the
Frobenius norm of factored matrices, rank-adaptive compression of a
dense table, real Schur form, a dense Sylvester solve, sparse SPD/LU
factorizations behind one interface, and Matrix Market I/O.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

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
    "truncated_svd",
    "lowrank_from_dense",
    "real_schur",
    "quasi_triangular_eigenvalues",
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


def mgs_orthonormalize(block, against=None, drop_tol: float = DEFLATION_RTOL):
    """Orthonormalize the columns of ``block`` by modified Gram-Schmidt.

    Columns are first orthogonalized against the orthonormal columns of
    ``against`` (if given) and then against the previously accepted
    columns; a second full pass is always applied.  A column whose norm
    after projection is below ``drop_tol`` times its original norm is
    dropped.  Returns a matrix with orthonormal columns spanning the
    surviving directions; it has zero columns if everything deflated.
    """
    block = np.asarray(block, dtype=float)
    if block.ndim == 1:
        block = block[:, None]
    n = block.shape[0]
    if against is not None:
        against = np.asarray(against, dtype=float)
        if against.shape[1] == 0:
            against = None
    kept: list[np.ndarray] = []
    for j in range(block.shape[1]):
        v = block[:, j].copy()
        pre = np.linalg.norm(v)
        if pre == 0.0 or not np.isfinite(pre):
            continue
        for _ in range(2):
            if against is not None:
                v -= against @ (against.T @ v)
            for q in kept:
                v -= q * (q @ v)
        nrm = np.linalg.norm(v)
        if nrm < drop_tol * pre:
            continue
        kept.append(v / nrm)
    if not kept:
        return np.zeros((n, 0))
    return np.column_stack(kept)


def lowrank_norm(x: LowRankMatrix) -> float:
    """Frobenius norm of the represented matrix, computed from the factors."""
    if x.rank == 0:
        return 0.0
    c1 = np.linalg.qr(x.left, mode="r")
    c2 = np.linalg.qr(x.right, mode="r")
    return float(np.linalg.norm(c1 @ c2.T))


def truncated_svd(x: LowRankMatrix, rtol: float, max_rank: int | None = None) -> LowRankMatrix:
    """Recompress a factored matrix to the smallest rank within ``rtol``.

    Skinny QR of both factors followed by an SVD of the small core.  The
    rule keeps the smallest rank k whose discarded tail satisfies
    ||s[k:]||_2 <= rtol ||s||_2, so that ||X - X_k||_F <= rtol ||X||_F;
    ``rtol = 0`` keeps every nonzero singular value.  ``max_rank`` caps
    k after the rule.  The returned left factor has orthonormal columns
    and the scale lives in the right factor.
    """
    if rtol < 0:
        raise ValueError("truncation tolerance must be nonnegative")
    if x.rank == 0:
        return x
    ql, cl = np.linalg.qr(x.left)
    qr_, cr = np.linalg.qr(x.right)
    u, s, vt = np.linalg.svd(cl @ cr.T)
    # tail[k] = ||s[k:]||_2, accumulated by hypot so it neither over- nor underflows
    tail = np.hypot.accumulate(s[::-1])[::-1]
    k = int(np.count_nonzero(tail > rtol * tail[0]))
    if max_rank is not None:
        k = min(k, max_rank)
    return LowRankMatrix(ql @ u[:, :k], qr_ @ (vt[:k].T * s[:k]))


def lowrank_from_dense(a, rtol: float) -> LowRankMatrix:
    """Compress a dense table to the smallest rank within ``rtol``, at a cost set by its rank.

    Returns factors with ||A - L R^T||_F <= rtol ||A||_F, the bound of
    :func:`truncated_svd`, which also supplies the rule.  An adaptive
    randomized range finder (Halko, Martinsson & Tropp 2011, SIAM Rev.
    53) grows an orthonormal Q by Gaussian blocks of doubling width
    until the explicitly formed E = A - Q Q^T A meets a tenth of the
    allowed error, or a block deflates to nothing.  Q Q^T A is then
    truncated with the error budget E leaves over; since E is
    orthogonal to range(Q) the two errors add in squares.  The Gaussian
    draws come from a fixed seed, so repeated calls return identical
    factors.  ``rtol = 0``, non-finite tables and tables whose range
    would pass a quarter of min(n, m) columns before meeting the bound
    take the exact path, ``truncated_svd(LowRankMatrix(a, I), rtol)``.
    """
    if rtol < 0:
        raise ValueError("truncation tolerance must be nonnegative")
    a = np.asarray(a, dtype=float)
    n, m = a.shape
    norm_a = float(np.linalg.norm(a))
    if norm_a == 0.0:
        return LowRankMatrix.zero(n, m)
    if rtol == 0.0 or not np.isfinite(norm_a):
        return truncated_svd(LowRankMatrix(a, np.eye(m)), rtol)
    allowed = rtol * norm_a
    rng = np.random.default_rng(0)
    q = np.zeros((n, 0))
    resid, resid_norm = a, norm_a
    width = RANGE_BLOCK
    while resid_norm > RANGE_BUDGET_FRACTION * allowed:
        if q.shape[1] + width > RANGE_CAP_FRACTION * min(n, m):
            break
        block = mgs_orthonormalize(resid @ rng.standard_normal((m, width)), against=q)
        if block.shape[1] == 0:
            break
        q = np.hstack([q, block])
        core = q.T @ a
        # formed anew each round: a downdated residual drifts at the level checked here
        resid = a - q @ core
        resid_norm = float(np.linalg.norm(resid))
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


def quasi_triangular_eigenvalues(t, tol=0.0):
    """Eigenvalues read off the 1x1 / 2x2 diagonal blocks of a Schur factor."""
    t = np.asarray(t, dtype=float)
    n = t.shape[0]
    eigs = []
    i = 0
    while i < n:
        if i == n - 1 or abs(t[i + 1, i]) <= tol:
            eigs.append(complex(t[i, i]))
            i += 1
        else:
            tr = t[i, i] + t[i + 1, i + 1]
            det = t[i, i] * t[i + 1, i + 1] - t[i, i + 1] * t[i + 1, i]
            root = np.sqrt(complex(tr * tr / 4.0 - det))
            eigs.append(tr / 2.0 + root)
            eigs.append(tr / 2.0 - root)
            i += 2
    return np.array(eigs)


def _nearest_eigen_collision(ra, rb):
    la_ = quasi_triangular_eigenvalues(ra)
    lb = quasi_triangular_eigenvalues(rb)
    gap = np.abs(la_[:, None] + lb[None, :])
    i, j = np.unravel_index(np.argmin(gap), gap.shape)
    return la_[i], lb[j], gap[i, j]


def _collision_error(ra, rb, detail):
    lam_a, lam_b, gap = _nearest_eigen_collision(ra, rb)
    return SylvesterConditionError(
        f"singular Sylvester pair: eigenvalue {lam_a:.6g} of the left "
        f"coefficient nearly cancels eigenvalue {lam_b:.6g} of the right "
        f"one (gap {gap:.3e}); {detail}"
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


@dataclass
class SparseFactorization:
    """Handle for a factorized sparse matrix; ``solve`` applies the inverse."""

    kind: str  # "cholesky" | "lu"
    n: int
    _lu: spla.SuperLU

    @property
    def permutation(self):
        """Fill-reducing column ordering used by the factorization."""
        return self._lu.perm_c

    def solve(self, b, trans: str = "N"):
        b = np.asarray(b, dtype=float)
        if b.shape[0] != self.n:
            raise ValueError(f"right-hand side has {b.shape[0]} rows, expected {self.n}")
        if b.ndim == 2 and b.shape[1] == 0:
            return np.zeros_like(b)
        return self._lu.solve(b, trans=trans)


def sparse_spd_factorize(a) -> SparseFactorization:
    """Factorize a symmetric positive definite sparse matrix.

    Uses symmetric-mode elimination with a fill-reducing symmetric
    ordering and no numerical pivoting, so the pivot sequence stays on
    the diagonal: a non-positive pivot certifies that the matrix is not
    SPD and raises :class:`NotSpdError`.
    """
    a = sp.csc_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    try:
        lu = spla.splu(
            a,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options=dict(SymmetricMode=True),
        )
    except RuntimeError as exc:
        raise NotSpdError(f"matrix is not SPD: {exc}") from exc
    pivots = lu.U.diagonal()
    if pivots.size and pivots.min() <= 0.0:
        raise NotSpdError(
            f"matrix is not SPD: nonpositive pivot {pivots.min():.6g} encountered"
        )
    return SparseFactorization("cholesky", a.shape[0], lu)


def sparse_lu_factorize(a) -> SparseFactorization:
    """Factorize a square nonsingular sparse matrix by LU with partial pivoting."""
    a = sp.csc_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    try:
        lu = spla.splu(a)
    except RuntimeError as exc:
        raise SingularMatrixError(f"matrix is singular: {exc}") from exc
    return SparseFactorization("lu", a.shape[0], lu)


# ---------------------------------------------------------------------------
# Matrix Market I/O (coordinate format for sparse, array format for dense)

_BANNER = "%%MatrixMarket"


def mm_write(path, a) -> None:
    """Write a sparse matrix in Matrix Market coordinate format.

    Values are written with 17 significant digits so a subsequent
    :func:`mm_read` reproduces them exactly.
    """
    a = sp.coo_matrix(a)
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write(f"{a.shape[0]} {a.shape[1]} {a.nnz}\n")
        for i, j, v in zip(a.row, a.col, a.data):
            fh.write(f"{i + 1} {j + 1} {v:.16e}\n")


def _mm_fail(lineno: int, msg: str):
    raise MatrixMarketError(f"line {lineno}: {msg}")


def mm_read(path) -> sp.csr_matrix:
    """Read a real coordinate Matrix Market file into CSR storage.

    Symmetric files are expanded to full storage.  Malformed input
    raises :class:`MatrixMarketError` with the offending line number.
    """
    with open(path) as fh:
        lines = fh.readlines()
    if not lines:
        raise MatrixMarketError("line 1: empty file")
    banner = lines[0].split()
    if len(banner) != 5 or banner[0] != _BANNER:
        _mm_fail(1, "expected banner '%%MatrixMarket matrix coordinate real <symmetry>'")
    _, obj, fmt, field, symmetry = (tok.lower() for tok in banner)
    if obj != "matrix":
        _mm_fail(1, f"unsupported object {obj!r}")
    if fmt != "coordinate":
        _mm_fail(1, f"unsupported format {fmt!r} (only 'coordinate')")
    if field != "real":
        _mm_fail(1, f"unsupported field {field!r} (only 'real')")
    if symmetry not in ("general", "symmetric"):
        _mm_fail(1, f"unsupported symmetry {symmetry!r}")

    idx = 1
    while idx < len(lines) and (lines[idx].startswith("%") or not lines[idx].strip()):
        idx += 1
    if idx == len(lines):
        _mm_fail(len(lines), "missing size line")
    parts = lines[idx].split()
    if len(parts) != 3:
        _mm_fail(idx + 1, "size line must be 'rows cols nnz'")
    try:
        nrows, ncols, nnz = (int(p) for p in parts)
    except ValueError:
        _mm_fail(idx + 1, "size line must hold three integers")
    if nrows < 0 or ncols < 0 or nnz < 0:
        _mm_fail(idx + 1, "negative dimension")
    if symmetry == "symmetric" and nrows != ncols:
        _mm_fail(idx + 1, "symmetric matrix must be square")

    rows = np.empty(nnz, dtype=np.int64)
    cols = np.empty(nnz, dtype=np.int64)
    vals = np.empty(nnz, dtype=float)
    count = 0
    for lineno in range(idx + 1, len(lines)):
        text = lines[lineno].strip()
        if not text:
            continue
        if count >= nnz:
            _mm_fail(lineno + 1, f"more than the declared {nnz} entries")
        parts = text.split()
        if len(parts) != 3:
            _mm_fail(lineno + 1, "entry must be 'row col value'")
        try:
            i = int(parts[0])
            j = int(parts[1])
        except ValueError:
            _mm_fail(lineno + 1, "row/column indices must be integers")
        try:
            v = float(parts[2])
        except ValueError:
            _mm_fail(lineno + 1, f"value {parts[2]!r} is not a real number")
        if not (1 <= i <= nrows):
            _mm_fail(lineno + 1, f"row index {i} outside 1..{nrows} (indices are 1-based)")
        if not (1 <= j <= ncols):
            _mm_fail(lineno + 1, f"column index {j} outside 1..{ncols} (indices are 1-based)")
        rows[count] = i - 1
        cols[count] = j - 1
        vals[count] = v
        count += 1
    if count != nnz:
        _mm_fail(len(lines), f"expected {nnz} entries, found {count}")

    if symmetry == "symmetric":
        off = rows != cols
        rows, cols = (
            np.concatenate([rows, cols[off]]),
            np.concatenate([cols, rows[off]]),
        )
        vals = np.concatenate([vals, vals[off]])
    out = sp.coo_matrix((vals, (rows, cols)), shape=(nrows, ncols)).tocsr()
    out.sort_indices()
    return out


def mm_write_dense(path, a) -> None:
    """Write a dense matrix in Matrix Market array format (column-major)."""
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix array real general\n")
        fh.write(f"{a.shape[0]} {a.shape[1]}\n")
        for v in a.reshape(-1, order="F"):
            fh.write(f"{v:.16e}\n")


def mm_read_dense(path) -> np.ndarray:
    """Read a dense matrix written in Matrix Market array format."""
    with open(path) as fh:
        lines = fh.readlines()
    if not lines:
        raise MatrixMarketError("line 1: empty file")
    banner = lines[0].split()
    if len(banner) != 5 or banner[0] != _BANNER or banner[2].lower() != "array":
        _mm_fail(1, "expected banner '%%MatrixMarket matrix array real general'")
    if banner[3].lower() != "real":
        _mm_fail(1, f"unsupported field {banner[3]!r} (only 'real')")
    idx = 1
    while idx < len(lines) and (lines[idx].startswith("%") or not lines[idx].strip()):
        idx += 1
    if idx == len(lines):
        _mm_fail(len(lines), "missing size line")
    parts = lines[idx].split()
    if len(parts) != 2:
        _mm_fail(idx + 1, "size line must be 'rows cols'")
    nrows, ncols = int(parts[0]), int(parts[1])
    vals = []
    for lineno in range(idx + 1, len(lines)):
        text = lines[lineno].strip()
        if not text:
            continue
        try:
            vals.append(float(text))
        except ValueError:
            _mm_fail(lineno + 1, f"value {text!r} is not a real number")
    if len(vals) != nrows * ncols:
        _mm_fail(len(lines), f"expected {nrows * ncols} values, found {len(vals)}")
    return np.array(vals).reshape((nrows, ncols), order="F")
