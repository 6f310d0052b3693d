"""Property tests for the rank, kernel and subspace arithmetic in ``linalg``.

Matrices are built as U·diag(s)·Vᵀ with orthonormal U and V and singular
values s in [0.1, 10], so their rank is known by construction and sits far
from the rank threshold.  Hypothesis draws the shapes, the ranks, the
singular values and the seed of the orthonormal factors.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from geoconn.linalg import intersection_dim, rank_kernel, spans_whole_space  # noqa: E402

singular_values = st.floats(0.1, 10.0)


def orthonormal(rng, rows, cols):
    """``rows``-by-``cols`` matrix with orthonormal columns."""
    return np.linalg.qr(rng.standard_normal((rows, cols)))[0]


def compose(left, s, cols, rng):
    """left·diag(s)·Vᵀ with V a random ``cols``-by-len(s) orthonormal matrix."""
    return left @ np.diag(s) @ orthonormal(rng, cols, len(s)).T


@st.composite
def known_rank(draw):
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 5))
    r = draw(st.integers(0, min(m, n)))
    s = draw(st.lists(singular_values, min_size=r, max_size=r))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return compose(orthonormal(rng, m, r), s, n, rng), r


@st.composite
def subspace_pair(draw):
    """Two spanning sets built on chosen vectors of one orthonormal basis of R^m.

    Returns ``(u, v, m, shared)`` where ``shared`` is the number of basis
    vectors in both spans, so dim(span u ∩ span v) = shared.
    """
    m = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    basis = orthonormal(rng, m, m)
    members = []
    mats = []
    for _ in range(2):
        chosen = draw(st.lists(st.booleans(), min_size=m, max_size=m))
        idx = [i for i in range(m) if chosen[i]]
        cols = draw(st.integers(max(1, len(idx)), 6))
        s = draw(st.lists(singular_values, min_size=len(idx), max_size=len(idx)))
        members.append(set(idx))
        mats.append(compose(basis[:, idx], s, cols, rng))
    return mats[0], mats[1], m, len(members[0] & members[1])


def rank(mat):
    return rank_kernel(mat)[0]


@given(known_rank())
def test_rank_matches_construction(case):
    mat, r = case
    assert rank(mat) == r


@given(known_rank())
def test_rank_plus_nullity_is_column_count(case):
    mat, _ = case
    r, kernel = rank_kernel(mat)
    assert kernel.shape == (mat.shape[1], mat.shape[1] - r)


@given(known_rank())
def test_kernel_orthonormal_and_annihilated(case):
    mat, _ = case
    _, kernel = rank_kernel(mat)
    assert np.allclose(kernel.T @ kernel, np.eye(kernel.shape[1]), rtol=0.0, atol=1e-12)
    assert np.max(np.abs(mat @ kernel), initial=0.0) < 1e-12 * max(1.0, np.abs(mat).max())


@given(known_rank(), st.sampled_from([1e-6, 1e6]))
def test_rank_invariant_under_scaling(case, factor):
    mat, r = case
    assert rank(mat * factor) == r


@given(subspace_pair())
def test_intersection_dim_by_rank_arithmetic(case):
    u, v, _, shared = case
    expected = rank(u) + rank(v) - rank(np.hstack([u, v]))
    assert intersection_dim(u, v) == expected == shared


@given(subspace_pair())
def test_spans_whole_space_iff_joint_rank_is_dimension(case):
    u, v, m, _ = case
    assert spans_whole_space(u, v, m) == (rank(np.hstack([u, v])) == m)
