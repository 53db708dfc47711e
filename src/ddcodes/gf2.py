"""Dense GF(2) linear algebra on numpy uint8 arrays (values 0/1).

A row space has one reduced row-echelon form under each column order, so
two matrices span the same row space iff their natural-order reduced forms
are identical arrays.  `rref_stack` is the one elimination routine: one
Gauss-Jordan pass over the rows reduces a matrix under a whole stack of
column orders (the ordered-statistics decoder passes reliability orders),
and `rref` is its natural-order case.  `all_codewords` is the one row-span
enumerator: the exhaustive ML decoder, the minimum-distance search and the
low-weight dual search all read the codebook it builds.
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

    orders is an (F, n) stack of permutations of M's n columns; copy f
    visits the columns in the order orders[f].  One Gauss-Jordan pass takes
    M's rows in order.  Row i, cleared by then in every earlier pivot
    column, is zero iff it depends on rows 0..i-1, whatever the column
    order, so every copy skips the same rows (a zero row stays zero, so one
    scan skips a run of them).  Otherwise its pivot is its first visited 1,
    and one XOR clears that column in every other row.  Each pivot leads a
    word of the row space, so the pivots are those of the reduced form, and
    the kept rows sorted by pivot position are the unique reduced
    row-echelon form of M under orders[f].

    Returns (R, pivots): R is the (F, rank, n) uint8 stack of reduced
    forms, in M's own column positions, and pivots is the (F, rank) int64
    array of pivot columns in visiting order.
    """
    A0 = np.asarray(M, dtype=np.uint8) & 1
    if A0.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    rows, cols = A0.shape
    orders = np.asarray(orders, dtype=np.int64)
    if orders.ndim != 2 or orders.shape[1] != cols or not len(orders):
        raise ValueError(f"orders must have shape (F, {cols}) with F >= 1, "
                         f"got {orders.shape}")
    F = len(orders)
    f = np.arange(F)
    # key[f, c] = cols - position of c in orders[f]: argmax(row * key) is a
    # row's first visited 1, and an order that is no permutation leaves a 0
    key = np.zeros((F, cols), dtype=np.min_scalar_type(cols))
    if ((orders >= 0) & (orders < cols)).all():
        key[f[:, None], orders] = np.arange(cols, 0, -1)
    if not key.all():
        raise ValueError("every order must be a permutation of the columns")
    A = np.repeat(A0[None], F, axis=0)
    kept, steps = [], []
    i = 0
    while i < rows and cols:        # argmax needs a column to scan
        hit = A[:, i] * key
        c = hit.argmax(axis=1)
        if not hit[0, c[0]]:
            live = np.flatnonzero(A[0, i:].any(axis=1))
            i += live[0] if len(live) else rows
            continue
        col = A[f, :, c]
        col[:, i] = 0
        A ^= col[:, :, None] & A[:, i, None, :]
        kept.append(i)
        steps.append(c)
        i += 1
    pivots = np.array(steps, dtype=np.int64).reshape(len(kept), F).T
    by_position = np.argsort(key[f[:, None], pivots], axis=1)[:, ::-1]
    R = A[f[:, None], np.array(kept, dtype=np.intp)[by_position]]
    return R, np.take_along_axis(pivots, by_position, axis=1)


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
    """True iff v lies in the GF(2) row space of M; ValueError unless v is
    a vector of M's length."""
    R, pivots = rref(M)
    w = np.asarray(v, dtype=np.uint8) & 1
    if w.shape != (R.shape[1],):
        raise ValueError(f"vector of shape {w.shape} for a matrix of "
                         f"{R.shape[1]} columns")
    # the one word of R's span that agrees with w on the pivot columns
    return np.array_equal(w[pivots] @ R % 2, w)


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
