"""Dense GF(2) linear algebra on numpy uint8 arrays (values 0/1).

Elimination pivots on the leftmost available column, so reduced forms are
deterministic and two matrices span the same row space iff their reduced
forms are identical arrays.  `rref_stack` is the one elimination routine:
it reduces a matrix under a whole stack of column orders at once (the
ordered-statistics decoder passes reliability orders), and `rref` is its
natural-order case.  `all_codewords` is the one row-span enumerator: the
exhaustive ML decoder, the minimum-distance search and the low-weight dual
search all read the codebook it builds.
"""
from __future__ import annotations

import numpy as np

__all__ = ["DimensionTooLargeError", "rref_stack", "rref", "rank",
           "nullspace", "row_space_contains", "row_spaces_equal",
           "all_codewords"]


class DimensionTooLargeError(ValueError):
    """Row count exceeds the codebook enumeration limit."""


def rref_stack(M: np.ndarray, orders) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row-echelon forms of M under each column order in a stack.

    orders is an (F, n) stack of permutations of M's n columns.  Copy f
    visits the columns in the order orders[f]: each pivot step takes the
    first visited column with a 1 in the rows not yet pivoted, uses the
    lowest such row as the pivot row (swapped up into place) and clears the
    column in every other row.  The F copies are column permutations of one
    matrix, so they share its rank and take their pivot steps in lockstep.

    Returns (R, pivots): R is the (F, rank, n) stack of reduced forms, in
    M's own column positions, and pivots is the (F, rank) array of pivot
    columns in pivot order.
    """
    A0 = np.asarray(M, dtype=np.uint8) & 1
    if A0.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    rows, cols = A0.shape
    orders = np.asarray(orders, dtype=np.int64)
    if orders.ndim != 2 or orders.shape[1] != cols or not len(orders):
        raise ValueError(f"orders must have shape (F, {cols}) with F >= 1, "
                         f"got {orders.shape}")
    if (np.sort(orders, axis=1) != np.arange(cols)).any():
        raise ValueError("every order must be a permutation of the columns")
    F = orders.shape[0]
    A = np.repeat(A0[None], F, axis=0)
    f = np.arange(F)
    visit = orders + (f * cols)[:, None]     # flat indices into an (F, n) array
    steps = []
    for r in range(min(rows, cols)):
        live = A[:, r:, :].any(axis=1).ravel()[visit]   # in visiting order
        i = live.argmax(axis=1)
        if not live[0, i[0]]:
            break
        c = orders[f, i]
        col = A[f, :, c]
        p = r + col[:, r:].argmax(axis=1)
        pivot_row = A[f, p]
        A[f, p] = A[f, r]
        A[f, r] = pivot_row
        col[f, p] = col[:, r]
        col[:, r] = 0
        A ^= col[:, :, None] & pivot_row[:, None, :]
        steps.append(c)
    rank_ = len(steps)
    return A[:, :rank_], np.array(steps, dtype=np.int64).reshape(rank_, F).T


def rref(M: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form over GF(2), pivoting on the leftmost column.

    Returns (R, pivot_cols) where R holds only the nonzero rows.
    """
    cols = np.asarray(M).shape[-1] if np.ndim(M) == 2 else 0
    R, pivots = rref_stack(M, np.arange(cols)[None, :])
    return R[0], pivots[0].tolist()


def rank(M: np.ndarray) -> int:
    return rref(M)[0].shape[0]


def nullspace(M: np.ndarray) -> np.ndarray:
    """Basis (rows) of {v : M v^T = 0 over GF(2)}."""
    R, pivots = rref(M)
    cols = R.shape[1]
    is_free = np.ones(cols, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    basis = np.zeros((len(free), cols), dtype=np.uint8)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = R[:, free].T
    return basis


def row_space_contains(M: np.ndarray, v: np.ndarray) -> bool:
    """True iff v lies in the GF(2) row space of M."""
    R, pivots = rref(M)
    w = (np.asarray(v, dtype=np.uint8) & 1).copy()
    for row, p in zip(R, pivots):
        if w[p]:
            w ^= row
    return not w.any()


def row_spaces_equal(A: np.ndarray, B: np.ndarray) -> bool:
    Ra, _ = rref(A)
    Rb, _ = rref(B)
    return Ra.shape == Rb.shape and np.array_equal(Ra, Rb)


def all_codewords(G: np.ndarray) -> np.ndarray:
    """The full 2^k row span of a k-row G, one word per row (k <= 20).

    Row index read as a bit mask selects the G rows summed into that word,
    so a rank-deficient G lists some words more than once.
    """
    G = np.asarray(G, dtype=np.uint8)
    k, n = G.shape
    if k > 20:
        raise DimensionTooLargeError(f"k={k} too large to enumerate")
    out = np.zeros((1 << k, n), dtype=np.uint8)
    for i in range(k):
        step = 1 << i
        out[step:2 * step] = out[:step] ^ G[i]
    return out
