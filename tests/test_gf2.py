"""Tests for dense GF(2) linear algebra helpers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddcodes.cyclic import code_from_generator
from ddcodes.gf2 import (
    nullspace,
    rank,
    row_space_contains,
    row_spaces_equal,
    rref,
    rref_stack,
)
from ddcodes.gf2m import GF2m


def _random_matrix(rng, rows, cols):
    return rng.integers(0, 2, size=(rows, cols)).astype(np.uint8)


def _span(M):
    """All XOR combinations of the rows (small matrices only)."""
    out = {0}
    n = M.shape[1]
    for row in M:
        word = int("".join(map(str, row.tolist())), 2) if n else 0
        out |= {w ^ word for w in out}
    return out


def test_rref_known_matrix():
    M = np.array([[1, 1, 0, 1],
                  [0, 1, 1, 0],
                  [1, 0, 1, 1]], dtype=np.uint8)
    R, pivots = rref(M)
    assert pivots == [0, 1]
    assert R[:2].tolist() == [[1, 0, 1, 1], [0, 1, 1, 0]]
    assert not R[2:].any()
    assert rank(M) == 2


def test_rank_matches_span_size():
    rng = np.random.default_rng(19)
    for _ in range(50):
        M = _random_matrix(rng, int(rng.integers(1, 7)), int(rng.integers(1, 9)))
        assert 1 << rank(M) == len(_span(M))


def test_rank_transpose_invariant():
    rng = np.random.default_rng(23)
    for _ in range(50):
        M = _random_matrix(rng, int(rng.integers(1, 10)), int(rng.integers(1, 10)))
        assert rank(M) == rank(M.T)


def test_nullspace_is_orthogonal_complement():
    rng = np.random.default_rng(29)
    for _ in range(40):
        M = _random_matrix(rng, int(rng.integers(1, 8)), int(rng.integers(2, 12)))
        N = nullspace(M)
        assert N.shape[0] == M.shape[1] - rank(M)
        if N.size:
            assert not ((M @ N.T) % 2).any()
            assert rank(N) == N.shape[0]


def test_row_space_contains():
    rng = np.random.default_rng(31)
    for _ in range(40):
        M = _random_matrix(rng, 5, 10)
        coeffs = rng.integers(0, 2, size=5).astype(np.uint8)
        v = (coeffs @ M) % 2
        assert row_space_contains(M, v.astype(np.uint8))
    # a vector outside the span of a rank-deficient matrix
    M = np.zeros((2, 4), dtype=np.uint8)
    M[0, 0] = 1
    assert not row_space_contains(M, np.array([0, 1, 0, 0], dtype=np.uint8))


def test_row_spaces_equal_under_row_operations():
    rng = np.random.default_rng(37)
    for _ in range(40):
        M = _random_matrix(rng, 4, 9)
        B = M.copy()
        B[0] ^= B[1]
        B = B[rng.permutation(4)]
        assert row_spaces_equal(M, B)
        C = B.copy()
        C[2] ^= 1  # flip a whole row's bits: usually leaves the span
        if rank(np.vstack([M, C])) != rank(M):
            assert not row_spaces_equal(M, C)


def _rref_loop(M):
    """Reference: column-by-column Gauss-Jordan over GF(2), leftmost pivot
    column, lowest available row as pivot row (the original loop)."""
    A = (np.asarray(M, dtype=np.uint8) & 1).copy()
    rows, cols = A.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        hit = np.nonzero(A[r:, c])[0]
        if hit.size == 0:
            continue
        p = r + hit[0]
        if p != r:
            A[[r, p]] = A[[p, r]]
        others = np.nonzero(A[:, c])[0]
        others = others[others != r]
        A[others] ^= A[r]
        pivots.append(c)
        r += 1
    return A[:r], pivots


@st.composite
def _matrices(draw):
    """0/1 matrices of up to 40 rows and 140 columns, so widths cross 64 and
    128: random, sparse, all-zero, repeated (every row a combination of the
    first two), interleaved (rows that depend on earlier rows placed before
    independent ones) and zero-led (leading zero rows), plus zero-row and
    zero-column shapes."""
    rows = draw(st.integers(0, 40))
    cols = draw(st.integers(0, 140))
    kind = draw(st.sampled_from(["random", "sparse", "zero", "repeated",
                                 "interleaved", "zero-led"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = {"sparse": 0.15, "zero": 0.0}.get(kind, 0.5)
    M = (rng.random((rows, cols)) < density).astype(np.uint8)
    if kind == "repeated" and rows >= 2:
        coeffs = rng.integers(0, 2, size=(rows, 2)).astype(np.uint8)
        M = (coeffs @ M[:2]) % 2
    elif kind == "interleaved":
        for i in range(1, rows):
            if rng.random() < 0.4:
                coeffs = rng.integers(0, 2, size=i).astype(np.uint8)
                M[i] = (coeffs @ M[:i]) % 2
    elif kind == "zero-led":
        M[:int(rng.integers(0, rows + 1))] = 0
    return M


@settings(max_examples=400, deadline=None)
@given(_matrices())
def test_rref_matches_reference_loop(M):
    R, pivots = rref(M)
    R_ref, pivots_ref = _rref_loop(M)
    assert R.dtype == np.uint8
    assert np.array_equal(R, R_ref)
    assert pivots == pivots_ref


@settings(max_examples=400, deadline=None)
@given(_matrices(), st.sampled_from([1, 3, 32]), st.integers(0, 2**32 - 1))
def test_rref_stack_matches_reference_per_order(M, F, seed):
    """Copy f is the reference reduction of M with its columns visited in
    orders[f], scattered back to M's own column positions."""
    cols = M.shape[1]
    orders = np.argsort(np.random.default_rng(seed).random((F, cols)), axis=1)
    R, pivots = rref_stack(M, orders)
    assert R.shape == (F, rank(M), cols)
    assert pivots.shape == (F, rank(M))
    for f in range(F):
        Rp, piv = _rref_loop(M[:, orders[f]])
        expected = np.zeros_like(Rp)
        expected[:, orders[f]] = Rp
        assert np.array_equal(R[f], expected)
        assert pivots[f].tolist() == orders[f][piv].tolist()


def test_rref_stack_rejects_bad_orders():
    M = np.eye(3, dtype=np.uint8)
    for bad in ([[0, 0, 1]], [[0, 1, 3]], [[0, -1, 2]], [[0, 1, 2], [2, 2, 0]]):
        with pytest.raises(ValueError, match="permutation"):
            rref_stack(M, bad)
    with pytest.raises(ValueError, match="shape"):
        rref_stack(M, [0, 1, 2])
    with pytest.raises(ValueError, match="shape"):
        rref_stack(M, np.zeros((0, 3), dtype=np.int64))


@pytest.mark.parametrize("shape", [(0, 0), (0, 5), (3, 0), (1, 0)])
@pytest.mark.parametrize("F", [1, 3, 32])
def test_rref_stack_of_an_empty_matrix(shape, F):
    """A matrix without rows or columns has rank 0 under every order."""
    cols = shape[1]
    orders = np.tile(np.arange(cols), (F, 1))
    R, pivots = rref_stack(np.zeros(shape, dtype=np.uint8), orders)
    assert R.shape == (F, 0, cols) and R.dtype == np.uint8
    assert pivots.shape == (F, 0) and pivots.dtype == np.int64


def test_row_space_contains_rejects_wrong_length_vectors():
    """A vector of another length used to get an answer: True here."""
    with pytest.raises(ValueError, match=r"vector of shape \(7,\) for a "
                                         r"matrix of 4 columns"):
        row_space_contains(np.zeros((2, 4), dtype=np.uint8), np.zeros(7))
    with pytest.raises(ValueError, match="matrix of 4 columns"):
        row_space_contains(np.eye(4, dtype=np.uint8), np.zeros((1, 4)))


def test_nullspace_pinned_on_16_7_code():
    """Exact dual basis of the (16,7) code 0x1D1, row for row."""
    spec = code_from_generator(GF2m(4), 0x1D1)
    expected = np.array([[int(b) for b in row] for row in [
        "1100111100000000",
        "0110100010000000",
        "0011010001000000",
        "0001101000100000",
        "1100001000010000",
        "0110111000001000",
        "1111100000000100",
        "1011110000000010",
        "1001111000000001",
    ]], dtype=np.uint8)
    N = nullspace(spec.G)
    assert N.dtype == np.uint8
    assert np.array_equal(N, expected)
