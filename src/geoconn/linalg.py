"""Rank, kernel and subspace arithmetic for small dense matrices, by SVD.

The numerical rank is the number of singular values above ``rel_tol`` times
the largest one (zero for the zero matrix).  The column span is spanned by
the leading left singular vectors and the kernel by the trailing right ones,
both orthonormal by construction (Golub and Van Loan, *Matrix Computations*,
sections 2.4 and 6.4).
"""

from __future__ import annotations

import numpy as np

from .defaults import RANK_REL_TOL


def _bases(mat, rel_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases ``(span, kernel)`` of the column space and the kernel of ``mat``."""
    a = np.asarray(mat, dtype=float)
    if a.ndim != 2:
        raise ValueError("expected a matrix")
    left, s, vt = np.linalg.svd(a)
    rank = int(np.count_nonzero(s > rel_tol * s[0])) if s.size else 0
    return left[:, :rank], vt[rank:].T


def rank_kernel(mat: np.ndarray, rel_tol: float = RANK_REL_TOL) -> tuple[int, np.ndarray]:
    """Numerical rank and orthonormal kernel basis, shape ``(cols, cols - rank)``."""
    span, kernel = _bases(mat, rel_tol)
    return span.shape[1], kernel


def intersection_dim(u: np.ndarray, v: np.ndarray, rel_tol: float = RANK_REL_TOL) -> int:
    """dim(span(u) ∩ span(v)) by rank arithmetic on orthonormal bases of the spans."""
    ub, vb = _bases(u, rel_tol)[0], _bases(v, rel_tol)[0]
    return ub.shape[1] + vb.shape[1] - _bases(np.hstack([ub, vb]), rel_tol)[0].shape[1]


def spans_whole_space(u: np.ndarray, v: np.ndarray, dim: int, rel_tol: float = RANK_REL_TOL) -> bool:
    """Whether the columns of ``u`` and ``v`` together span R^dim."""
    joint = np.hstack([_bases(u, rel_tol)[0], _bases(v, rel_tol)[0]])
    return _bases(joint, rel_tol)[0].shape[1] == dim
