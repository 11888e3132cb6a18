import pickle
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from eddyopt import lacore
from eddyopt.lacore import (
    LowRankMatrix,
    MatrixMarketError,
    NotSpdError,
    SingularMatrixError,
    SylvesterConditionError,
    certified_truncation,
    lowrank_from_dense,
    lowrank_norm,
    lowrank_norms,
    mgs_orthonormalize,
    mm_read,
    mm_read_dense,
    mm_write,
    mm_write_dense,
    real_schur,
    residual_factor,
    solve_sylvester_dense,
    sparse_lu_factorize,
    sparse_spd_factorize,
    truncated_svd,
    truncation_rank,
)

from eddyopt.discretize import TimeGrid, build_mesh, sample_desired_state

from oracles import (
    kron_sylvester_solve,
    lowrank_from_dense_full_residual,
    power_eigs_symmetric,
    quasi_triangular_eigs,
)


# ---------------------------------------------------------------------------
# modified Gram-Schmidt


def test_mgs_identity_columns_untouched():
    q = mgs_orthonormalize(np.eye(2))
    assert np.allclose(q, np.eye(2))


def test_mgs_hand_example():
    block = np.array([[1.0, 1.0], [0.0, 1.0]])
    q = mgs_orthonormalize(block)
    assert np.allclose(q[:, 0], [1.0, 0.0])
    assert np.allclose(np.abs(q[:, 1]), [0.0, 1.0])


def test_mgs_random_block_against_reorthogonalization_oracle():
    rng = np.random.default_rng(7)
    block = rng.standard_normal((50, 4))
    q = mgs_orthonormalize(block)
    assert q.shape == (50, 4)
    assert np.linalg.norm(q.T @ q - np.eye(4)) <= 1e-12
    # oracle: run the orthonormalization twice; spans must agree
    q2 = mgs_orthonormalize(mgs_orthonormalize(block))
    p1 = q @ q.T
    p2 = q2 @ q2.T
    assert np.linalg.norm(p1 - p2) <= 1e-12
    # the block itself is reproduced by the projector
    assert np.linalg.norm(block - p1 @ block) <= 1e-12 * np.linalg.norm(block)


def test_mgs_respects_existing_basis():
    rng = np.random.default_rng(3)
    against = mgs_orthonormalize(rng.standard_normal((30, 5)))
    q = mgs_orthonormalize(rng.standard_normal((30, 3)), against=against)
    assert np.linalg.norm(against.T @ q) <= 1e-12
    assert np.linalg.norm(q.T @ q - np.eye(3)) <= 1e-12


def test_mgs_deflates_dependent_columns():
    v = np.array([[1.0], [2.0], [0.0]])
    block = np.hstack([v, 2 * v, v])
    q = mgs_orthonormalize(block)
    assert q.shape[1] == 1
    # everything already spanned -> empty result
    empty = mgs_orthonormalize(v, against=q)
    assert empty.shape == (3, 0)


def test_mgs_zero_column_dropped():
    block = np.zeros((4, 2))
    block[:, 1] = [0.0, 1.0, 0.0, 0.0]
    q = mgs_orthonormalize(block)
    assert q.shape[1] == 1


@pytest.mark.parametrize("seed,shape", [(0, (40, 6)), (1, (25, 10)), (2, (60, 3))])
def test_mgs_invariants_random(seed, shape):
    rng = np.random.default_rng(seed)
    block = rng.standard_normal(shape)
    q = mgs_orthonormalize(block)
    assert np.linalg.norm(q.T @ q - np.eye(q.shape[1])) <= 1e-10
    kept = block - q @ (q.T @ block)
    assert np.linalg.norm(kept) <= 1e-10 * np.linalg.norm(block)


@st.composite
def _spanned_block(draw):
    """(against, block, r): r random directions scaled over six decades.

    ``against`` is an orthonormal basis of the first a directions, and
    ``block`` holds the other r - a directions followed by exact linear
    combinations of all r, scaled copies and zero columns.
    """
    n = draw(st.integers(1, 16))
    r = draw(st.integers(0, min(n, 5)))
    a = draw(st.integers(0, r))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.standard_normal((n, r)) * 10.0 ** rng.uniform(-3.0, 3.0, r)
    extra = [base @ rng.standard_normal((r, draw(st.integers(0, 3))))]
    if r:
        extra.append(-2.5 * base[:, rng.integers(r, size=draw(st.integers(0, 2)))])
    extra.append(np.zeros((n, draw(st.integers(0, 2)))))
    dependent = np.hstack(extra)
    dependent = dependent[:, rng.permutation(dependent.shape[1])]
    against = np.linalg.qr(base[:, :a])[0] if a else None
    return against, np.hstack([base[:, a:], dependent]), r


@settings(max_examples=200, deadline=None)
@given(case=_spanned_block())
def test_mgs_property_orthonormal_spanning_and_deflating(case):
    against, block, r = case
    q = mgs_orthonormalize(block, against=against)
    # dependent columns are dropped: exactly the new directions survive
    a = 0 if against is None else against.shape[1]
    assert q.shape == (block.shape[0], r - a)
    assert np.linalg.norm(q.T @ q - np.eye(r - a)) <= 1e-12
    full = q if against is None else np.hstack([against, q])
    if against is not None:
        assert np.linalg.norm(against.T @ q) <= 1e-12
    # the span of the result (with ``against``) contains every input column
    outside = block - full @ (full.T @ block)
    assert np.linalg.norm(outside) <= 1e-12 * max(np.linalg.norm(block), 1e-300)


# ---------------------------------------------------------------------------
# truncated SVD of factored matrices


def test_truncated_svd_rank_one_identity_case():
    x = LowRankMatrix(np.array([[1.0], [0.0]]), np.array([[1.0], [0.0]]))
    out = truncated_svd(x, 1e-10)
    assert out.rank == 1
    assert np.allclose(out.to_dense(), x.to_dense())


def test_truncated_svd_drops_small_singular_value():
    # two orthogonal rank-one terms with singular values 1 and 1e-12
    left = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    right = np.array([[1.0, 0.0], [0.0, 1e-12]])
    out = truncated_svd(LowRankMatrix(left, right), 1e-10)
    assert out.rank == 1
    assert np.linalg.norm(out.to_dense() - left[:, :1] @ right[:, :1].T) <= 1e-12


def test_truncated_svd_against_dense_svd_oracle():
    rng = np.random.default_rng(11)
    x = LowRankMatrix(rng.standard_normal((50, 5)), rng.standard_normal((40, 5)))
    out = truncated_svd(x, 1e-10)
    dense = x.to_dense()
    # oracle: singular values of the explicitly formed matrix
    s_oracle = np.linalg.svd(dense, compute_uv=False)
    assert out.rank == int(np.count_nonzero(s_oracle >= 1e-10)) == 5
    assert np.linalg.norm(out.to_dense() - dense) <= 1e-10
    # left factor orthonormal
    assert np.linalg.norm(out.left.T @ out.left - np.eye(out.rank)) <= 1e-12


def test_truncated_svd_threshold_is_relative():
    rng = np.random.default_rng(5)
    u = np.linalg.qr(rng.standard_normal((20, 4)))[0]
    v = np.linalg.qr(rng.standard_normal((15, 4)))[0]
    svals = np.array([3.0, 1.0, 1e-7, 1e-13])
    for scale in (1.0, 1e-12, 1e12):
        out = truncated_svd(LowRankMatrix(u * (scale * svals), v), 1e-10)
        assert out.rank == 3
        assert np.allclose(np.linalg.norm(out.right, axis=0), scale * svals[:3])


@st.composite
def _factored(draw):
    """A random factored matrix whose column scales span fourteen decades."""
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 12))
    r = draw(st.integers(1, 6))
    exps = draw(st.lists(st.integers(-14, 0), min_size=r, max_size=r))
    zeros = draw(st.lists(st.booleans(), min_size=r, max_size=r))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scales = np.where(zeros, 0.0, 10.0 ** np.array(exps, dtype=float))
    return LowRankMatrix(rng.standard_normal((n, r)) * scales, rng.standard_normal((m, r)))


@st.composite
def _prefix_factors(draw):
    """Random factors of n and m rows and r columns: tall, square or wide, r = 0 included."""
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 8))
    r = draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return LowRankMatrix(rng.standard_normal((n, r)), rng.standard_normal((m, r)))


@settings(max_examples=200, deadline=None)
@given(x=_prefix_factors())
def test_lowrank_norms_match_the_dense_leading_products(x):
    widths = range(x.rank + 1)  # width 0 included
    norms = lowrank_norms(x, widths)
    assert len(norms) == len(widths)
    for c, norm in zip(widths, norms):
        left, right = x.left[:, :c], x.right[:, :c]
        dense = np.linalg.norm(left @ right.T)
        assert abs(norm - dense) <= 1e-13 * np.linalg.norm(left) * np.linalg.norm(right)
    # the full width is lowrank_norm
    assert lowrank_norm(x) == norms[-1]


_rtols = st.sampled_from([0.0, 1e-14, 1e-10, 1e-6, 1e-3, 0.1, 0.5])


@settings(max_examples=200, deadline=None)
@given(x=_factored(), rtol=_rtols)
def test_truncated_svd_rule_is_minimal_within_bound(x, rtol):
    out = truncated_svd(x, rtol)
    dense = x.to_dense()
    s = np.linalg.svd(dense, compute_uv=False)
    total = np.linalg.norm(s)
    slack = 1e-12 * total
    # error bound: ||X - X_k||_F <= rtol ||X||_F
    assert np.linalg.norm(dense - out.to_dense()) <= rtol * total + slack
    # minimality: rank k - 1 breaks the bound
    if out.rank > 0:
        assert np.linalg.norm(s[out.rank - 1 :]) > rtol * total - slack
    # orthonormal left factor
    assert np.linalg.norm(out.left.T @ out.left - np.eye(out.rank)) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(x=_factored(), rtol=_rtols, cap=st.integers(0, 6))
def test_truncated_svd_max_rank_caps_the_rule(x, rtol, cap):
    free = truncated_svd(x, rtol)
    capped = truncated_svd(x, rtol, max_rank=cap)
    assert capped.rank == min(free.rank, cap)
    assert np.allclose(capped.to_dense(), free.left[:, :cap] @ free.right[:, :cap].T)


@settings(max_examples=100, deadline=None)
@given(x=_factored(), rtol=_rtols, power=st.integers(-40, 40))
def test_truncated_svd_rank_is_scale_invariant(x, rtol, power):
    scaled = LowRankMatrix(x.left * 2.0**power, x.right)
    assert truncated_svd(scaled, rtol).rank == truncated_svd(x, rtol).rank


@given(
    n=st.integers(0, 6), m=st.integers(0, 6), rtol=_rtols,
    cap=st.none() | st.integers(0, 3),
)
def test_truncated_svd_rank_zero_passthrough(n, m, rtol, cap):
    out = truncated_svd(LowRankMatrix.zero(n, m), rtol, cap)
    assert out.rank == 0 and out.shape == (n, m)


@given(
    # entries above 1e-100, so that the norms below do not underflow
    w=st.lists(st.floats(1e-100, 1e3) | st.just(0.0), min_size=0, max_size=12).map(np.array),
    rtol=_rtols,
)
def test_truncation_rank_is_the_smallest_k_within_bound_in_any_order(w, rtol):
    # the rule drops entries from the end, whatever their order
    k = truncation_rank(w, rtol)
    assert 0 <= k <= w.size
    total = np.linalg.norm(w)
    assert np.linalg.norm(w[k:]) <= rtol * total * (1 + 1e-12)
    if k > 0:
        assert np.linalg.norm(w[k - 1 :]) > rtol * total * (1 - 1e-12)


def test_truncation_rank_rejects_negative_tolerance():
    with pytest.raises(ValueError):
        truncation_rank(np.ones(3), -1e-3)


def test_truncation_rank_rejects_nan_tolerance():
    # a NaN rtol would keep rank 0: every comparison with it is false
    with pytest.raises(ValueError):
        truncation_rank(np.ones(3), np.nan)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rank=st.integers(0, 8),
    m_t=st.integers(1, 6),
    tol=st.sampled_from([1e-6, 1e-3, 0.3]),
    trunc_tol=st.sampled_from([0.0, 1e-8, 1e-2]),
    honest=st.booleans(),
)
def test_certified_truncation_property(seed, rank, m_t, tol, trunc_tol, honest):
    # a random SVD-form candidate P diag(s) qt on 2 m_t time columns, with a
    # synthetic residual per rank; an honest certificate repeats that
    # residual, a dishonest one fails every rank but the cap
    rng = np.random.default_rng(seed)
    rank = min(rank, 2 * m_t)
    p = np.linalg.qr(rng.standard_normal((12, rank)))[0]
    qt = np.linalg.qr(rng.standard_normal((2 * m_t, rank)))[0].T
    s = np.sort(10.0 ** rng.uniform(-9.0, 0.0, rank))[::-1]
    table = 10.0 ** rng.uniform(-8.0, 0.0, rank)
    k_cap = truncation_rank(s, trunc_tol)
    k_blocks = max(
        truncation_rank(s * np.linalg.norm(qt[:, half], axis=1), tol)
        for half in (slice(0, m_t), slice(m_t, 2 * m_t))
    )
    asked, certified = [], []

    def residuals(k):
        asked.append(k)
        return iter(table[:k])

    def certify(k):
        res = table[k - 1] if k else 1.0
        if not honest and k != k_cap:
            res = 2.0 * tol
        certified.append((k, res))
        return LowRankMatrix(p[:, :k], qt[:k].T * s[:k]), res

    x, res = certified_truncation(s, qt, tol, trunc_tol, residuals, certify)
    k = x.rank
    assert asked == [k_cap]
    assert k <= k_cap and len(certified) <= 2 and certified[-1] == (k, res)
    if not honest:
        assert k == k_cap
    elif res <= tol:
        assert k >= min(k_blocks, k_cap)
        # every rank from the block rank up to k - 1 misses tol
        assert all(table[j - 1] > tol for j in range(max(1, k_blocks), k))


# ---------------------------------------------------------------------------
# rank-adaptive compression of dense tables


def _exact(a, rtol):
    return truncated_svd(LowRankMatrix(a, np.eye(a.shape[1])), rtol)


def _same_factors(x, y):
    return np.array_equal(x.left, y.left) and np.array_equal(x.right, y.right)


def _planted(rng, n, m, svals):
    u = np.linalg.qr(rng.standard_normal((n, len(svals))))[0]
    v = np.linalg.qr(rng.standard_normal((m, len(svals))))[0]
    return (u * svals) @ v.T


@st.composite
def _planted_table(draw):
    """A table with a planted spectrum spanning twelve decades, at scale 2^p."""
    n = draw(st.integers(1, 150))
    m = draw(st.integers(1, 120))
    r = draw(st.integers(0, min(n, m, 40)))
    exps = draw(st.lists(st.floats(-12.0, 0.0), min_size=r, max_size=r))
    power = draw(st.integers(-40, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _planted(rng, n, m, 2.0**power * 10.0 ** np.sort(exps)[::-1])


@settings(max_examples=150, deadline=None)
@given(a=_planted_table(), rtol=_rtols)
def test_lowrank_from_dense_error_within_bound(a, rtol):
    out = lowrank_from_dense(a, rtol)
    total = np.linalg.norm(a)
    assert out.shape == a.shape
    assert np.linalg.norm(a - out.to_dense()) <= rtol * total + 1e-12 * total
    assert np.linalg.norm(out.left.T @ out.left - np.eye(out.rank)) <= 1e-12


@pytest.mark.parametrize("ratio", [0.6, 0.75, 0.9])
def test_lowrank_from_dense_bound_is_tight_on_smooth_spectra(ratio):
    # with no gap the truncation spends the whole budget E leaves over, so
    # an error budget that ignored E would break the bound at some rtol
    rng = np.random.default_rng(int(100 * ratio))
    a = _planted(rng, 240, 200, ratio ** np.arange(200))
    total = np.linalg.norm(a)
    for rtol in np.geomspace(1e-9, 1e-1, 60):
        out = lowrank_from_dense(a, rtol)
        assert np.linalg.norm(a - out.to_dense()) <= rtol * total * (1.0 + 1e-12)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(40, 200),
    m=st.integers(40, 160),
    lead=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=10),
    tail=st.integers(0, 20),
    threshold=st.sampled_from([-10, -6, -3]),
    power=st.integers(-40, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_lowrank_from_dense_rank_matches_exact_across_a_gap(
    n, m, lead, tail, threshold, power, seed
):
    # leading values at least 10^2 sqrt(k) rtol, the tail's norm at most
    # 10^-2 rtol, and ||A|| >= 1 at scale 1, so both paths cut at one rank
    rng = np.random.default_rng(seed)
    k = len(lead)
    tail = min(tail, min(n, m) - k)
    lead_vals = 10.0 ** ((threshold + 2.0 + np.log10(k) / 2.0) * np.array(lead))
    tail_vals = 10.0 ** (threshold - 2.0 - 6.0 * rng.random(tail)) / np.sqrt(max(tail, 1))
    svals = np.concatenate([[1.0], lead_vals, tail_vals])[: min(n, m)]
    a = _planted(rng, n, m, 2.0**power * svals)
    rtol = 10.0**threshold
    assert lowrank_from_dense(a, rtol).rank == _exact(a, rtol).rank


@pytest.mark.parametrize("seed, rank", [(0, 1), (1, 3), (2, 20)])
def test_lowrank_from_dense_repeats_bit_for_bit(seed, rank):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((300, rank)) @ rng.standard_normal((rank, 200))
    first = lowrank_from_dense(a, 1e-10)
    assert first.rank == rank
    assert _same_factors(first, lowrank_from_dense(a, 1e-10))


def test_lowrank_from_dense_rtol_zero_is_the_exact_path():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((120, 3)) @ rng.standard_normal((3, 80))
    assert _same_factors(lowrank_from_dense(a, 0.0), _exact(a, 0.0))


@pytest.mark.parametrize("shape", [(300, 120), (120, 300), (60, 50), (7, 5)])
def test_lowrank_from_dense_full_rank_is_the_exact_path(shape):
    a = np.random.default_rng(5).standard_normal(shape)
    out = lowrank_from_dense(a, 1e-10)
    assert out.rank == min(shape)
    assert _same_factors(out, _exact(a, 1e-10))


@pytest.mark.parametrize("shape", [(0, 4), (4, 0), (1, 1), (5, 7), (400, 300)])
def test_lowrank_from_dense_zero_table_has_rank_zero(shape):
    out = lowrank_from_dense(np.zeros(shape), 1e-10)
    assert out.rank == 0 and out.shape == shape


def test_lowrank_from_dense_one_by_one():
    out = lowrank_from_dense(np.array([[-3.0]]), 1e-10)
    assert out.rank == 1
    assert out.to_dense()[0, 0] == pytest.approx(-3.0, rel=1e-15)
    assert _same_factors(out, _exact(np.array([[-3.0]]), 1e-10))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_lowrank_from_dense_names_the_first_non_finite_entry(bad):
    a = np.ones((6, 4))
    a[2, 1] = bad
    a[4, 3] = np.nan
    with pytest.raises(ValueError, match=r"non-finite entry .* at \(2, 1\)"):
        lowrank_from_dense(a, 1e-10)


def test_lowrank_from_dense_finite_table_with_overflowing_norm_is_the_exact_path():
    rng = np.random.default_rng(6)
    a = 1e200 * np.outer(rng.standard_normal(30), rng.standard_normal(20))
    with np.errstate(over="ignore"):
        assert not np.isfinite(np.linalg.norm(a))
        out = lowrank_from_dense(a, 1e-10)
        assert _same_factors(out, _exact(a, 1e-10))
    assert out.rank == 1


def test_lowrank_from_dense_rejects_negative_tolerance():
    with pytest.raises(ValueError):
        lowrank_from_dense(np.ones((3, 3)), -1e-3)


def _halving_table():
    """400 x 300 with singular values 0.5^k: at rtol 1e-12 the range finder
    sketches blocks of width 8, 16 and 32, so its work buffer is reused."""
    return _planted(np.random.default_rng(7), 400, 300, 0.5 ** np.arange(300))


def test_lowrank_from_dense_reuses_its_buffer_and_leaves_the_input_alone():
    a = _halving_table()
    before = a.copy()
    with mock.patch.object(lacore, "mgs_orthonormalize", wraps=mgs_orthonormalize) as spy:
        out = lowrank_from_dense(a, 1e-12)
    assert [c.args[0].shape[1] for c in spy.call_args_list] == [8, 16, 32]
    assert out.rank < 56  # the captured range, not the exact path
    assert a.tobytes() == before.tobytes()
    assert not np.shares_memory(out.left, a) and not np.shares_memory(out.right, a)


@pytest.mark.parametrize("layout", ["fortran", "strided"])
def test_lowrank_from_dense_reads_any_layout_as_its_contiguous_copy(layout):
    a = _halving_table()
    if layout == "fortran":
        view = np.asfortranarray(a)
    else:
        base = np.zeros((2 * a.shape[0], 3 * a.shape[1]))
        base[::2, ::3] = a
        view = base[::2, ::3]
    before = view.copy()
    out = lowrank_from_dense(view, 1e-12)
    assert _same_factors(out, lowrank_from_dense(a, 1e-12))
    assert np.array_equal(view, before)
    assert not np.shares_memory(out.left, view) and not np.shares_memory(out.right, view)


def _block_rows(m):
    """Rows of one block of the range finder's residual norm, for a table of m columns."""
    return lacore.RESIDUAL_BLOCK_BYTES // (8 * m)


def _rank_one_table():
    """3025 x 400 ex1 target: one round, a one-column range."""
    return sample_desired_state("ex1", build_mesh(54), TimeGrid(400))


def _block_tables():
    """Tables whose rows end inside the residual norm's first or a later row block.

    The short one is captured by one round, the ragged one by rounds of
    widths 8, 16 and 32.
    """
    rng = np.random.default_rng(5)
    short = _planted(rng, _block_rows(60) // 2, 60, [1.0, 0.5, 0.25, 0.1, 0.01])
    ragged = _planted(rng, 2 * _block_rows(240) + 37, 240, 0.5 ** np.arange(240))
    return {"short": short, "ragged": ragged}


def _desk_case(example, cells, m_t):
    return lambda: sample_desired_state(example, build_mesh(cells), TimeGrid(m_t))


_RANGE_CASES = {
    **{
        f"{ex}-{cells}-{m_t}": _desk_case(ex, cells, m_t)
        for ex in ("ex1", "ex2")
        for cells in (30, 54)
        for m_t in (100, 200, 400)
    },
    "halving": _halving_table,
    "capped": lambda: np.random.default_rng(9).standard_normal((200, 120)),
    "short": lambda: _block_tables()["short"],
    "ragged": lambda: _block_tables()["ragged"],
    "halving-fortran": lambda: np.asfortranarray(_halving_table()),
    "halving-strided": lambda: np.repeat(_halving_table(), 2, axis=1)[::3, ::2],
    "rank-one-fortran": lambda: np.asfortranarray(_rank_one_table()),
    "rank-one-strided": lambda: np.repeat(_rank_one_table(), 3, axis=0)[::3, ::2],
}


@pytest.mark.parametrize("case", list(_RANGE_CASES))
def test_lowrank_from_dense_matches_the_loop_that_forms_every_residual(case):
    a = _RANGE_CASES[case]()
    before = a.tobytes()
    out = lowrank_from_dense(a, 1e-10)
    ref = lowrank_from_dense_full_residual(a, 1e-10)
    assert out.left.shape == ref.left.shape
    assert out.left.tobytes() == ref.left.tobytes()
    assert out.right.tobytes() == ref.right.tobytes()
    assert a.tobytes() == before
    assert not np.shares_memory(out.left, a) and not np.shares_memory(out.right, a)


def test_lowrank_from_dense_block_cases_end_inside_a_block_and_run_their_rounds():
    tables = _block_tables()
    assert tables["short"].shape[0] < _block_rows(60)
    assert tables["ragged"].shape[0] % _block_rows(240) != 0
    for name, widths in (("short", [8]), ("ragged", [8, 16, 32])):
        with mock.patch.object(lacore, "mgs_orthonormalize", wraps=mgs_orthonormalize) as spy:
            out = lowrank_from_dense(tables[name], 1e-10)
        assert [c.args[0].shape[1] for c in spy.call_args_list] == widths
        assert out.rank < sum(widths)  # the captured range, not the exact path
    rng = np.random.default_rng(13)
    for a in tables.values():
        for cols in (1, 6):  # the elementwise and the matmul block
            q = np.linalg.qr(rng.standard_normal((a.shape[0], cols)))[0]
            core = q.T @ a
            full = np.linalg.norm(a - q @ core)
            assert lacore._residual_norm(a, q, core) == pytest.approx(full, rel=1e-13)


def test_lowrank_from_dense_writes_no_table_when_the_first_round_meets_the_bound():
    a = _rank_one_table()
    lowrank_from_dense(a, 1e-10)
    tracemalloc.start()
    try:
        out = lowrank_from_dense(a, 1e-10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.rank == 1
    # one residual table would be 9.7 MB
    assert peak - out.left.nbytes - out.right.nbytes < 2 * 2**20


@pytest.mark.parametrize("example", ["ex1", "ex2"])
def test_lowrank_from_dense_builtin_targets_are_rank_one(example):
    yd = sample_desired_state(example, build_mesh(54), TimeGrid(400))
    assert yd.shape == (3025, 400)
    out = lowrank_from_dense(yd, 1e-10)
    assert out.rank == 1
    assert np.linalg.norm(yd - out.to_dense()) <= 1e-10 * np.linalg.norm(yd)


# ---------------------------------------------------------------------------
# real Schur


def test_real_schur_diagonal_input():
    a = np.diag([3.0, 1.0, 2.0])
    q, t = real_schur(a)
    assert np.allclose(sorted(np.diag(t)), [1.0, 2.0, 3.0])
    assert np.allclose(np.abs(q) @ np.ones(3), np.ones(3))  # signed permutation
    assert np.linalg.norm(q @ t @ q.T - a) <= 1e-13


def test_real_schur_rotation_block():
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    q, t = real_schur(a)
    eigs = quasi_triangular_eigs(t)
    assert np.allclose(sorted(eigs.imag), [-1.0, 1.0], atol=1e-12)
    assert np.allclose(eigs.real, 0.0, atol=1e-12)


def test_real_schur_random_residual_and_eigenvalues():
    rng = np.random.default_rng(23)
    a = rng.standard_normal((10, 10))
    q, t = real_schur(a)
    assert np.linalg.norm(q @ t @ q.T - a) <= 1e-12 * np.linalg.norm(a)
    assert np.linalg.norm(q.T @ q - np.eye(10)) <= 1e-13
    # eigenvalue agreement on a symmetric instance, against a power-iteration
    # oracle with deflation
    s = rng.standard_normal((10, 10))
    s = 0.5 * (s + s.T)
    qs, ts = real_schur(s)
    eigs_schur = np.sort(quasi_triangular_eigs(ts).real)
    eigs_oracle = power_eigs_symmetric(s, rng)
    assert np.allclose(eigs_schur, eigs_oracle, atol=1e-8)


def test_real_schur_rejects_nonfinite():
    with pytest.raises(ValueError):
        real_schur(np.array([[np.nan, 0.0], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# dense Sylvester solve


def test_sylvester_scalar():
    y = solve_sylvester_dense(np.array([[2.0]]), np.array([[3.0]]), np.array([[10.0]]))
    assert np.allclose(y, [[2.0]])


def test_sylvester_identity_pair():
    rng = np.random.default_rng(4)
    c = rng.standard_normal((2, 2))
    y = solve_sylvester_dense(np.eye(2), np.eye(2), c)
    assert np.allclose(y, c / 2.0)


def test_sylvester_matches_kronecker_oracle():
    rng = np.random.default_rng(9)
    ta = rng.standard_normal((8, 8)) + 4.0 * np.eye(8)
    tb = rng.standard_normal((6, 6)) + 4.0 * np.eye(6)
    c = rng.standard_normal((8, 6))
    y = solve_sylvester_dense(ta, tb, c)
    y_oracle = kron_sylvester_solve(ta, tb.T, c)
    assert np.linalg.norm(y - y_oracle) <= 1e-10 * np.linalg.norm(y_oracle)
    resid = ta @ y + y @ tb.T - c
    assert np.linalg.norm(resid) <= 1e-12 * (
        (np.linalg.norm(ta) + np.linalg.norm(tb)) * np.linalg.norm(y)
    )


def test_sylvester_detects_spectral_collision():
    with pytest.raises(SylvesterConditionError) as err:
        solve_sylvester_dense(np.array([[1.0]]), np.array([[-1.0]]), np.array([[1.0]]))
    assert "eigenvalue" in str(err.value)


def test_sylvester_collision_message_names_the_pair_and_gap():
    with pytest.raises(SylvesterConditionError) as err:
        solve_sylvester_dense(np.array([[1.0]]), np.array([[-1.0]]), np.array([[1.0]]))
    msg = str(err.value)
    assert "eigenvalue 1 of the left coefficient" in msg
    assert "eigenvalue -1 of the right one (gap 0.000e+00)" in msg


def test_sylvester_random_sweep_against_oracle():
    rng = np.random.default_rng(12)
    for _ in range(25):
        n = int(rng.integers(1, 13))
        m = int(rng.integers(1, 11))
        ta = rng.standard_normal((n, n))
        ta += (np.linalg.norm(ta) + 1.0) * np.eye(n)
        tb = rng.standard_normal((m, m))
        tb += (np.linalg.norm(tb) + 1.0) * np.eye(m)
        c = rng.standard_normal((n, m))
        y = solve_sylvester_dense(ta, tb, c)
        y_oracle = kron_sylvester_solve(ta, tb.T, c)
        assert np.linalg.norm(y - y_oracle) <= 1e-10 * max(1.0, np.linalg.norm(y_oracle))


@st.composite
def _colliding_pair(draw):
    """(ta, tb, gap exponent): eigenvalue lam of ta meets -lam (1 + delta) of tb.

    delta is +-10^-e for e in 0..16, or exactly 0 when e is 17.  The
    colliding pair is real or complex-conjugate; the other eigenvalues are
    random, and both matrices are mildly non-normal and hidden behind
    random orthogonal similarities.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    e = draw(st.integers(0, 17))
    delta = 0.0 if e == 17 else draw(st.sampled_from([-1.0, 1.0])) * 10.0**-e
    lam = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** rng.uniform(-1, 1)
    if draw(st.booleans()):
        im = 10.0 ** rng.uniform(-1, 1)
        blocks_a = [np.array([[lam, im], [-im, lam]])]
        blocks_b = [-(1.0 + delta) * np.array([[lam, im], [-im, lam]])]
    else:
        blocks_a, blocks_b = [np.array([[lam]])], [np.array([[-(1.0 + delta) * lam]])]

    def hide(blocks, extra):
        signs = rng.choice([-1.0, 1.0], extra)
        blocks = blocks + [np.array([[v]]) for v in signs * 10.0 ** rng.uniform(-1, 1, extra)]
        t = scipy.linalg.block_diag(*blocks)
        k = t.shape[0]
        t += 0.3 * np.triu(rng.standard_normal((k, k)), 2)
        q = np.linalg.qr(rng.standard_normal((k, k)))[0]
        return q @ t @ q.T

    ta = hide(blocks_a, draw(st.integers(0, 4)))
    tb = hide(blocks_b, draw(st.integers(0, 4)))
    return ta, tb, e


@settings(max_examples=300, deadline=None)
@given(pair=_colliding_pair(), seed=st.integers(0, 2**32 - 1))
def test_sylvester_near_spectral_collision_raises_or_is_accurate(pair, seed):
    ta, tb, e = pair
    c = np.random.default_rng(seed).standard_normal((ta.shape[0], tb.shape[0]))
    try:
        y = solve_sylvester_dense(ta, tb, c)
    except SylvesterConditionError as exc:
        assert "eigenvalue" in str(exc)
        assert e > 0, "a gap as wide as the eigenvalue itself must not be refused"
        return
    assert np.linalg.norm(ta @ y + y @ tb.T - c) <= 1e-8 * np.linalg.norm(c)


# ---------------------------------------------------------------------------
# sparse factorizations


def test_spd_scalar_factor():
    f = sparse_spd_factorize(sp.csr_matrix(np.array([[4.0]])))
    assert np.allclose(f.solve(np.array([8.0])), [2.0])


def test_spd_tridiagonal_against_dense_oracle():
    n = 5
    a = sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]).tocsr()
    f = sparse_spd_factorize(a)
    rng = np.random.default_rng(2)
    b = rng.standard_normal(n)
    x = f.solve(b)
    x_oracle = np.linalg.solve(a.toarray(), b)
    assert np.linalg.norm(x - x_oracle) <= 1e-12 * np.linalg.norm(x_oracle)


def test_spd_rejects_indefinite_and_singular():
    with pytest.raises(NotSpdError):
        sparse_spd_factorize(sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]])))
    with pytest.raises(NotSpdError):
        sparse_spd_factorize(sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]])))


def test_spd_rejects_asymmetric_naming_the_largest_gap():
    n = 5
    a = sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]).tolil()
    a[1, 2] *= 1.5
    with pytest.raises(NotSpdError, match=r"not symmetric.* 0\.5 at \(i, j\) = \(1, 2\)"):
        sparse_spd_factorize(a.tocsr())
    # rounding-level asymmetry, as in summed imported matrices, is accepted
    a[1, 2] = -1.0 * (1.0 + 8 * np.finfo(float).eps)
    sparse_spd_factorize(a.tocsr())


def _random_sparse_spd(draw, n):
    """A diagonally dominant SPD matrix with a random pattern, under a random symmetric permutation."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.floats(0.0, 0.5))
    off = sp.random(n, n, density=density, random_state=rng, data_rvs=rng.standard_normal)
    off = sp.triu(off, k=1)
    off = off + off.T
    dominance = np.asarray(abs(off).sum(axis=1)).ravel()
    a = (off + sp.diags(dominance + rng.uniform(0.1, 10.0, n))).tocsr()
    perm = rng.permutation(n)
    return a[perm][:, perm].tocsr(), rng


@st.composite
def _spd_cases(draw):
    n = draw(st.integers(1, 60))
    a, rng = _random_sparse_spd(draw, n)
    return a, rng.standard_normal((n, draw(st.integers(1, 4)))), int(rng.integers(n))


@settings(max_examples=150, deadline=None)
@given(_spd_cases())
def test_spd_band_cholesky_property(case):
    a, b, row = case
    f = sparse_spd_factorize(a)
    x = f.solve(b)
    a_norm = np.linalg.norm(a.toarray())
    for j in range(b.shape[1]):
        single = f.solve(b[:, j])
        # dpbtrs solves column by column, so a block solve is the single solves
        assert np.array_equal(x[:, j], single)
        assert np.linalg.norm(a @ single - b[:, j]) <= 1e-12 * a_norm * np.linalg.norm(single)
    assert np.array_equal(pickle.loads(pickle.dumps(f)).solve(b), x)
    # a negative diagonal entry: the leading block without it is still dominant,
    # so the pivot of exactly that row is the first to fail
    indefinite = a.tolil()
    indefinite[row, row] = -1.0
    with pytest.raises(NotSpdError, match=rf"pivot of row {row} is not positive"):
        sparse_spd_factorize(indefinite.tocsr())


def test_lu_identity_roundtrip():
    f = sparse_lu_factorize(sp.identity(4, format="csr"))
    b = np.arange(4.0)
    assert np.allclose(f.solve(b), b)


def test_lu_time_coupling_matrix_against_dense_oracle():
    # the 4x4 coupling matrix for two time steps, sigma=2, tau=0.5, beta=4
    b_mat = np.array(
        [
            [4.0, -4.0, 0.5, 0.0],
            [0.0, 4.0, 0.0, 0.5],
            [-0.5, 0.0, 4.0, 0.0],
            [0.0, -0.5, -4.0, 4.0],
        ]
    )
    f = sparse_lu_factorize(sp.csr_matrix(b_mat))
    e1 = np.zeros(4)
    e1[0] = 1.0
    x = f.solve(e1)
    assert np.linalg.norm(x - np.linalg.solve(b_mat, e1)) <= 1e-12
    xt = f.solve(e1, trans="T")
    assert np.linalg.norm(xt - np.linalg.solve(b_mat.T, e1)) <= 1e-12


def test_lu_detects_singular():
    with pytest.raises(SingularMatrixError):
        sparse_lu_factorize(sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]])))


def test_factorization_solve_residual_invariant():
    rng = np.random.default_rng(21)
    n = 40
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    spd = q @ np.diag(rng.uniform(0.5, 5.0, n)) @ q.T
    spd = sp.csr_matrix(0.5 * (spd + spd.T))
    f = sparse_spd_factorize(spd)
    for _ in range(3):
        b = rng.standard_normal(n)
        assert np.linalg.norm(spd @ f.solve(b) - b) <= 1e-10 * np.linalg.norm(b)
    gen = sp.csr_matrix(rng.standard_normal((n, n)) + n * np.eye(n))
    g = sparse_lu_factorize(gen)
    b = rng.standard_normal(n)
    assert np.linalg.norm(gen @ g.solve(b) - b) <= 1e-10 * np.linalg.norm(b)


# ---------------------------------------------------------------------------
# Matrix Market I/O


def test_mm_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(13)
    a = sp.random(10, 10, density=0.3, random_state=np.random.RandomState(13), format="csr")
    a.data = rng.standard_normal(a.nnz)
    path = tmp_path / "a.mtx"
    mm_write(path, a)
    back = mm_read(path)
    assert back.shape == a.shape
    assert np.array_equal(back.indptr, a.indptr)
    assert np.array_equal(back.indices, a.indices)
    assert np.array_equal(back.data, a.data)  # exact round trip


def test_mm_symmetric_expansion(tmp_path):
    # lower-triangle storage expands to the full symmetric matrix
    path = tmp_path / "sym.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "2 2 3\n"
        "1 1 2.0\n"
        "2 1 1.0\n"
        "2 2 2.0\n"
    )
    a = mm_read(path).toarray()
    assert np.allclose(a, [[2.0, 1.0], [1.0, 2.0]])
    # entries absent from the file stay zero (standard coordinate semantics)
    path.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "2 2 2\n"
        "1 1 2.0\n"
        "2 1 1.0\n"
    )
    a = mm_read(path).toarray()
    assert np.allclose(a, [[2.0, 1.0], [1.0, 0.0]])


def test_mm_rejects_zero_based_index(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 1\n"
        "0 1 1.0\n"
    )
    with pytest.raises(MatrixMarketError) as err:
        mm_read(path)
    assert "line 3" in str(err.value)


def test_mm_rejects_bad_header_and_field(tmp_path):
    path = tmp_path / "h.mtx"
    path.write_text("not a banner\n1 1 0\n")
    with pytest.raises(MatrixMarketError):
        mm_read(path)
    path.write_text(
        "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1.0 0.0\n"
    )
    with pytest.raises(MatrixMarketError) as err:
        mm_read(path)
    assert "complex" in str(err.value)
    # a malformed size line names its line in both readers
    for fmt, size, reader in (
        ("coordinate", "2 x 1", mm_read),
        ("coordinate", "-1 -2 0", mm_read),
        ("array", "2 x", mm_read_dense),
        ("array", "-1 -2", mm_read_dense),
    ):
        path.write_text(f"%%MatrixMarket matrix {fmt} real general\n% comment\n{size}\n")
        with pytest.raises(MatrixMarketError) as err:
            reader(path)
        assert str(err.value).startswith("line 3: "), (size, str(err.value))


def test_mm_rejects_out_of_bounds_and_nonreal(tmp_path):
    path = tmp_path / "oob.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n"
    )
    with pytest.raises(MatrixMarketError) as err:
        mm_read(path)
    assert "line 3" in str(err.value)
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 abc\n"
    )
    with pytest.raises(MatrixMarketError):
        mm_read(path)


_COORD = "%%MatrixMarket matrix coordinate real general\n"
_ARRAY = "%%MatrixMarket matrix array real general\n"


@pytest.mark.parametrize(
    "reader, text, message",
    [
        (mm_read, _COORD + "2 2 2\n1 1 1.0\n1.5 1 1.0\n",
         "line 4: row/column indices must be integers"),
        (mm_read, _COORD + "2 2 2\n\n1 1 1.0\n\n1 3 1.0\n",
         "line 6: column index 3 outside 1..2 (indices are 1-based)"),
        (mm_read, _COORD + "2 2 1\n1 1 1.0\n2 2 2.0\n",
         "line 4: more than the declared 1 entries"),
        (mm_read, _COORD + "2 2 3\n1 1 1.0\n2 2 2.0\n\n",
         "line 5: expected 3 entries, found 2"),
        (mm_read, _COORD + "2 2 2\n1 1 1.0\n2 2\n",
         "line 4: entry must be 'row col value'"),
        # two defects whose word counts cancel: the first one is named
        (mm_read, _COORD + "2 2 2\n1 1\n1 1 1 1.0\n",
         "line 3: entry must be 'row col value'"),
        (mm_read, _COORD + "2 2 1\n1 1 1_0\n",
         "line 2: entries below hold numbers outside plain decimal notation"),
        (mm_read, "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 1\n",
         "line 1: unsupported field 'pattern' (only 'real')"),
        (mm_read_dense, _ARRAY + "2 1\n1.0 2.0\n3.0\n",
         "line 3: entry must be 'value'"),
        (mm_read_dense, _ARRAY + "2 1\n1.0\nabc\n",
         "line 4: value 'abc' is not a real number"),
        (mm_read_dense, _ARRAY + "1 1\n1.0\n2.0\n",
         "line 4: more than the declared 1 entries"),
        (mm_read_dense, "%%MatrixMarket matrix array real symmetric\n2 2\n1.0\n2.0\n3.0\n",
         "line 1: unsupported symmetry 'symmetric'"),
        (mm_read_dense, "%%MatrixMarket matrix array pattern general\n1 1\n1.0\n",
         "line 1: unsupported field 'pattern' (only 'real')"),
    ],
)
def test_mm_rejects_a_malformed_line_by_number(tmp_path, reader, text, message):
    path = tmp_path / "bad.mtx"
    path.write_text(text)
    with pytest.raises(MatrixMarketError) as err:
        reader(path)
    assert str(err.value) == message


def test_mm_writers_text(tmp_path):
    path = tmp_path / "a.mtx"
    mm_write(path, sp.csr_matrix([[1.0, 0.0], [0.1, -2.5]]))
    assert path.read_text() == (
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 3\n"
        "1 1 1.0000000000000000e+00\n"
        "2 1 1.0000000000000001e-01\n"
        "2 2 -2.5000000000000000e+00\n"
    )
    mm_write_dense(path, np.array([[1.0, 0.1], [-3.0, 2e-300]]))
    assert path.read_text() == (
        "%%MatrixMarket matrix array real general\n"
        "2 2\n"
        "1.0000000000000000e+00\n"
        "-3.0000000000000000e+00\n"
        "1.0000000000000001e-01\n"
        "2.0000000000000001e-300\n"
    )


def _mm_lines_formatted_one_by_one(a, coordinate):
    """The entry lines as the writers formatted them one numpy scalar at a time."""
    if coordinate:
        a = sp.coo_matrix(a)
        lines = (f"{i + 1} {j + 1} {v:.16e}\n" for i, j, v in zip(a.row, a.col, a.data))
    else:
        a = np.asarray(a, dtype=float)
        lines = (f"{v:.16e}\n" for v in a.reshape(-1, order="F"))
    return "".join(lines)


_SPECIAL_VALUES = np.array(
    [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
     np.inf, -np.inf, np.nan, 1.0, -3.0, 2.0**53, 1e22, 0.1, 1.0 / 3.0]
)


def _mm_writer_cases():
    rng = np.random.default_rng(23)
    sparse = sp.random(300, 200, density=0.1, random_state=4, format="coo")
    sparse.data[: _SPECIAL_VALUES.size] = _SPECIAL_VALUES
    return {
        "special": (_SPECIAL_VALUES[:, None], False),
        "integral": (np.arange(-50.0, 50.0).reshape(20, 5), False),
        "factor": (rng.standard_normal((3025, 21)), False),
        "sparse": (sparse, True),
    }


@pytest.mark.parametrize("case", ["special", "integral", "factor", "sparse"])
def test_mm_writers_format_every_value_as_one_by_one(tmp_path, case):
    a, coordinate = _mm_writer_cases()[case]
    path = tmp_path / "a.mtx"
    (mm_write if coordinate else mm_write_dense)(path, a)
    body = path.read_text().split("\n", 2)[2]
    assert body == _mm_lines_formatted_one_by_one(a, coordinate)
    if case in ("factor", "sparse"):  # several chunks, the last one partial
        assert body.count("\n") > lacore.MM_WRITE_CHUNK


def test_mm_dense_roundtrip(tmp_path):
    rng = np.random.default_rng(17)
    a = rng.standard_normal((7, 3))
    path = tmp_path / "d.mtx"
    mm_write_dense(path, a)
    back = mm_read_dense(path)
    assert np.array_equal(back, a)


_reals = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def _sparse(draw, symmetric=False):
    rows = draw(st.integers(0, 7))
    cols = rows if symmetric else draw(st.integers(0, 7))
    dense = np.zeros((rows, cols))
    for i in range(rows):
        for j in range(i + 1 if symmetric else cols):
            if draw(st.booleans()):
                dense[i, j] = draw(_reals)
    if symmetric:
        dense = np.tril(dense) + np.tril(dense, -1).T
    return dense


@settings(max_examples=100, deadline=None)
@given(dense=_sparse())
def test_mm_property_general_roundtrip_is_exact(tmp_path_factory, dense):
    path = tmp_path_factory.mktemp("mm") / "a.mtx"
    mm_write(path, sp.csr_matrix(dense))
    back = mm_read(path)
    assert back.shape == dense.shape
    assert np.array_equal(back.toarray(), dense)


@settings(max_examples=100, deadline=None)
@given(dense=_sparse(symmetric=True))
def test_mm_property_symmetric_file_expands_and_roundtrips(tmp_path_factory, dense):
    # lower-triangle storage, as other tools write symmetric operators
    low = sp.coo_matrix(np.tril(dense))
    path = tmp_path_factory.mktemp("mm") / "sym.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        f"{dense.shape[0]} {dense.shape[1]} {low.nnz}\n"
        + "".join(f"{i + 1} {j + 1} {float(v)!r}\n" for i, j, v in zip(low.row, low.col, low.data))
    )
    full = mm_read(path)
    assert np.array_equal(full.toarray(), dense)
    # the expanded matrix goes back out as a general file and reads the same
    mm_write(path, full)
    assert np.array_equal(mm_read(path).toarray(), dense)


@settings(max_examples=100, deadline=None)
@given(
    dense=st.integers(0, 6).flatmap(
        lambda rows: st.integers(0, 6).flatmap(
            lambda cols: st.lists(_reals, min_size=rows * cols, max_size=rows * cols).map(
                lambda vals: np.array(vals, dtype=float).reshape((rows, cols))
            )
        )
    )
)
def test_mm_property_dense_roundtrip_is_exact(tmp_path_factory, dense):
    path = tmp_path_factory.mktemp("mm") / "d.mtx"
    mm_write_dense(path, dense)
    back = mm_read_dense(path)
    assert back.shape == dense.shape
    assert np.array_equal(back, dense)


@pytest.mark.parametrize(
    "n, m, rows",
    [
        (25, 6, 7),  # 4 blocks, the last of 4 rows
        (25, 12, 7),  # wider than a block has rows
        (30, 5, 10),  # 3 full blocks
        (6, 6, 2),  # square, every block wider than its rows
    ],
)
def test_residual_factor_by_row_blocks_matches_one_qr(monkeypatch, n, m, rows):
    rng = np.random.default_rng(n + m)
    q = np.asfortranarray(np.linalg.qr(rng.standard_normal((n, m)))[0])
    a = np.asfortranarray(rng.standard_normal((n, m)))
    core = rng.standard_normal((m + 3, m + 3))[:m, :m]  # a leading block, as skpik passes
    rest = a - q @ core
    monkeypatch.setattr(lacore, "QR_BLOCK_ROWS", rows)
    r = residual_factor(a, q, core)
    assert r.shape == (m, m)
    assert np.array_equal(r, np.triu(r))
    np.testing.assert_allclose(r.T @ r, rest.T @ rest, rtol=0, atol=1e-12 * np.sum(rest * rest))
    # one block: the single QR of the whole residual, bit for bit
    monkeypatch.setattr(lacore, "QR_BLOCK_ROWS", n)
    assert np.array_equal(residual_factor(a, q, core), np.linalg.qr(rest, mode="r"))
