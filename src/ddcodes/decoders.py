"""Component soft-decision decoders: sum-product, ordered statistics, exact ML.

These are the inner engines the derivative decoders call on each derivative
LLR vector.  All of them consume log-likelihood ratios with the convention
L > 0 favoring bit 0 and magnitudes clipped to +-30.

Every decoder has one shape: `spa_batch_decoder`, `osd_batch_decoder` and
`mld_batch_decoder` build a closure over a fixed code that maps a finite
(F, n) stack of LLR vectors (one per derivative direction, or one frame) to
`(bits, iterations, converged)` with shapes (F, n), (F,), (F,), and raises
`ValueError("LLR input ...")` for any other input.  The SPA and OSD closures
call the two stack engines `spa_decode_batch` and `osd_decode` through this
module's globals, so a wrapper installed on either name sees every call.
Each closure also carries `codeword_iterations`: the iteration count it
returns for a row whose hard decision is already a codeword of its code,
min(max_iter, 1) for SPA and 1 for OSD and ML.  The derivative loop reads
it to return a frame whose channel hard decision is a codeword without
calling the closure; a closure without the attribute is always called.
`spa_decode_batch` updates one work block per call: a row whose hard
decision satisfies every check leaves the block, so later iterations touch
only the rows still live, and every row decodes exactly as it would alone.
Every syndrome is one matmul against a dense transpose of H built once per H.
`osd_decode` systematizes the whole stack in a single GF(2) elimination
(`gf2.rref_stack`) rather than one elimination per vector.  It then scores
every reprocessing candidate without building it: the correlations come
from exact sign products, extended one flip weight at a time by a batched
matmul, and only each row's winner is built.  A row where another screened
score lies within the rounding tolerance of the best is rescored exactly
as direct scoring does, by dot products over its full candidate list, so
the decoded words, and the rule that a tie goes to the earliest candidate,
are those of direct scoring bit for bit.  The ML closure
and `mld_exhaustive` score the codebook that `gf2.all_codewords` lists;
`mld_exhaustive` decodes one vector and stays as an independent reference
for the ML closure.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .gf2 import all_codewords, rref_stack
from .gf2m import _is_int
from .parity import SparseParityMatrix

__all__ = [
    "LLR_CLIP", "RankDeficientError",
    "spa_decode_batch",
    "osd_decode", "mld_exhaustive",
    "spa_batch_decoder", "osd_batch_decoder", "mld_batch_decoder",
]

LLR_CLIP = 30.0
_ATANH_LIM = 1.0 - 1e-12


class RankDeficientError(ValueError):
    """Generator matrix rank is below its row count."""


def spa_decode_batch(H: SparseParityMatrix, L: np.ndarray, max_iter: int = 20):
    """Flooding sum-product decoding of a (batch, n) stack of LLR vectors.

    Check updates use the exact tanh rule; the per-check leave-one-out
    products come from prefix/suffix cumulative products over the live
    rows, so zero messages need no special casing.  A frame stops
    contributing once its hard decision satisfies every check: its row
    leaves the work block, and its iteration count is the first iteration
    where that held.  Non-converged frames report max_iter and the
    final-posterior hard decision (the channel hard decision if max_iter is
    0).  The check table is H's padded `idx`/`mask`, built with H; a matrix
    with no checks returns the hard decision, converged at iteration 1.

    Returns (bits, iterations, converged) with shapes (batch, n), (batch,),
    (batch,).  Raises TypeError unless H is a SparseParityMatrix, and
    ValueError unless L is a finite (batch, n) stack and max_iter an
    integer >= 0.
    """
    max_iter = _nonnegative_int(max_iter, "SPA iteration cap")
    _check_parity_matrix(H)
    idx, mask, n = H.idx, H.mask, H.n
    L = _checked_llrs(L, n, batch=True)
    B = L.shape[0]
    Lc = np.clip(L, -LLR_CLIP, LLR_CLIP)
    out = (Lc < 0).astype(np.uint8)
    iters = np.full(B, max_iter, dtype=np.int64)
    conv = np.zeros(B, dtype=bool)
    if not max_iter:
        return out, iters, conv
    flat = _bincount_offsets(H, B)
    pad = ~mask
    # One (B, R, deg) work block per call, updated in place: with fresh
    # temporaries every iteration, the time per call depended on how far
    # earlier frees had raised the C allocator's heap trim threshold.  t
    # holds tanh of half the variable-to-check messages; left and right the
    # leave-one-out prefix and suffix products; r the check-to-variable
    # messages.  The a rows still live sit at the front, `rows` maps them to
    # their frames, and each iteration works on the [:a] views.  Every row
    # keeps its own slot's bincount offsets and summation order, so dropping
    # the others changes none of its bits.  mode="clip" keeps np.take from
    # buffering `out`; every index is in range.
    rows = np.arange(B)
    a = B
    t, left, right, r = np.empty((4, a) + idx.shape)
    np.take(np.tanh(Lc * 0.5), idx, axis=1, out=t, mode="clip")
    np.copyto(t, 1.0, where=pad)
    for it in range(1, max_iter + 1):
        ta, la, ra, rr = t[:a], left[:a], right[:a], r[:a]
        la[..., :1] = ra[..., -1:] = 1.0
        np.cumprod(ta[..., :-1], axis=-1, out=la[..., 1:])
        np.cumprod(ta[..., :0:-1], axis=-1, out=ra[..., -2::-1])
        np.multiply(la, ra, out=rr)
        np.arctanh(np.clip(rr, -_ATANH_LIM, _ATANH_LIM, out=rr), out=rr)
        rr *= 2
        np.copyto(rr, 0.0, where=pad)
        tot = np.bincount(flat[:a].ravel(), weights=rr.ravel(),
                          minlength=a * n).reshape(a, n)
        post = Lc + tot
        hard = (post < 0).astype(np.uint8)
        live = _failing_rows(H, hard)
        a = np.count_nonzero(live)
        if a < len(rows):
            # Converged rows leave the block; the live rows' r moves to the
            # front of the free left block, whose edge entries the next
            # iteration resets.
            done = rows[~live]
            out[done] = hard[~live]
            iters[done] = it
            conv[done] = True
            rows, Lc, post = rows[live], Lc[live], post[live]
            rr = np.take(rr, np.flatnonzero(live), axis=0, out=left[:a],
                         mode="clip")
        if not a or it == max_iter:
            break
        # The next messages, for live rows only: t takes post - r at each edge.
        ta = t[:a]
        np.take(post, idx, axis=1, out=ta, mode="clip")
        np.clip(np.subtract(ta, rr, out=ta), -LLR_CLIP, LLR_CLIP, out=ta)
        np.tanh(np.multiply(ta, 0.5, out=ta), out=ta)
        np.copyto(ta, 1.0, where=pad)
    out[rows] = post < 0
    return out, iters, conv


def _check_parity_matrix(H) -> None:
    """TypeError unless H is a SparseParityMatrix."""
    if not isinstance(H, SparseParityMatrix):
        raise TypeError(f"SPA needs a SparseParityMatrix, got "
                        f"{type(H).__name__}")


@lru_cache(maxsize=8)
def _dense_checks(H: SparseParityMatrix) -> np.ndarray:
    """Read-only C-ordered (n, R) float64 transpose of H, built once per H."""
    HT = np.ascontiguousarray(H.to_dense().T, dtype=np.float64)
    HT.setflags(write=False)
    return HT


def _failing_rows(H: SparseParityMatrix, hard: np.ndarray) -> np.ndarray:
    """(a,) mask of the rows of an (a, n) 0/1 stack that fail some check of H.

    One float64 matmul counts each check's ones; the counts are integers
    below 2^53, so their parity is exact.  (A float remainder would cost
    several times the matmul; the integer cast is cheap.)
    """
    counts = np.matmul(hard, _dense_checks(H))
    return (counts.astype(np.int64) & 1).any(axis=1)


@lru_cache(maxsize=8)
def _bincount_offsets(H: SparseParityMatrix, B: int) -> np.ndarray:
    """Read-only (B, R, deg) flat bincount indices of spa_decode_batch for a
    B-row stack: slot j's check table shifted by j * n.  Built once per
    (H, B); the live rows of an iteration use the [:a] view."""
    flat = H.idx[None, :, :] + (np.arange(B) * H.n)[:, None, None]
    flat.setflags(write=False)
    return flat


def _checked_llrs(L, n: int, batch: bool) -> np.ndarray:
    """L as float64: one length-n vector, or an (F, n) stack if batch.

    Raises ValueError for any other shape and for NaN or infinite values,
    which would otherwise decode to arbitrary words.
    """
    L = np.asarray(L, dtype=np.float64)
    if L.ndim != 1 + batch or L.shape[-1] != n:
        want = f"(F, {n})" if batch else f"({n},)"
        raise ValueError(f"LLR input has shape {L.shape}, expected {want}")
    if not np.isfinite(L).all():
        raise ValueError("LLR input holds NaN or infinite values")
    return L


def _reliability_bases(G: np.ndarray, L: np.ndarray):
    """Systematize G on the most reliable basis of every row of L at once.

    Each row's positions are sorted by falling |L|, ties to the lower index,
    and one rref_stack call reduces G under all these orders: the kept
    (pivot) columns of row d are the first independent positions of its
    order, and they form a scattered identity in its reduced G.  Returns
    (systematic, basis_positions) with shapes (F, k, n) and (F, k).  Raises
    RankDeficientError if G's rank is below its row count.
    """
    k = G.shape[0]
    orders = np.argsort(-np.abs(L), axis=1, kind="stable")
    M, pivots = rref_stack(G, orders)
    if M.shape[1] < k:
        raise RankDeficientError(f"generator rank {M.shape[1]} below row count {k}")
    return M, pivots


@lru_cache(maxsize=None)
def _flip_tables(k: int, order: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """(prefix, last) tables of the basis-flip sets of weight 1..min(order, k).

    Weight w lists the w-subsets J of range(k) in lexicographic order; entry
    i of that list is J = (weight w-1 set prefix[i]) + {last[i]}, where
    last[i] exceeds every index of the prefix set (weight 0 is the empty set).
    """
    tables = []
    top = np.array([-1])                       # largest index of each set
    for _ in range(min(order, k)):
        prefix, last = np.nonzero(np.arange(k) > top[:, None])
        for a in (prefix, last):
            a.setflags(write=False)
        tables.append((prefix, last))
        top = last
    return tuple(tables)


def _nonnegative_int(value, what: str) -> int:
    """value as an int; ValueError naming `what` unless it is an integer
    >= 0 (not a bool)."""
    if not _is_int(value) or value < 0:
        raise ValueError(f"{what} must be an integer >= 0, got {value!r}")
    return int(value)


def _candidates(M: np.ndarray, c0: np.ndarray, tables) -> np.ndarray:
    """Every reprocessing candidate of each row, in generation order: the
    hard-decision re-encoding c0, then c0 ^ XOR M[J] by weight, lexicographic
    in J within a weight.  Shapes (F, k, n), (F, n) -> (F, N, n)."""
    pats = [np.zeros((M.shape[0], 1, M.shape[2]), dtype=np.uint8)]
    for prefix, last in tables:
        pats.append(pats[-1][:, prefix] ^ M[:, last])
    return np.concatenate(pats, axis=1) ^ c0[:, None, :]


def _screened_scores(M: np.ndarray, c0: np.ndarray, L: np.ndarray, tables):
    """Correlations (1 - 2c) . L[d] of every candidate _candidates lists,
    computed from sign products without building the candidates.

    With s0 = (1 - 2 c0) L[d] and sigma = 1 - 2M, candidate J scores
    sum_i s0_i prod_{j in J} sigma_ji.  One batched matmul per flip weight
    scores every (weight w-1 set, next index) pair; the (prefix, last) table
    picks the weight-w sets out of them, in order, and extends the products
    to weight w.  Every product is exact, so each score, like the direct
    dot product of that candidate, lies within (n-1) u sum|L[d]| of the true
    correlation (u the unit roundoff).  Returns the (F, N) scores and the
    per-row tolerance tol = 4 n eps sum|L[d]|, at least twice that bound
    for both sums together.
    """
    F, k, n = M.shape
    # +-1 in int8, then one cast: mixed uint8/float64 arithmetic is ~10x slower
    sigma = (1 - 2 * M.view(np.int8)).astype(np.float64)
    R = ((1.0 - 2.0 * c0) * L)[:, None, :]      # products of the weight-0 set
    scores = [R.sum(axis=2)]
    for w, (prefix, last) in enumerate(tables, start=1):
        S = np.matmul(R, sigma.transpose(0, 2, 1))
        scores.append(S.reshape(F, -1)[:, prefix * k + last])
        if w < len(tables):
            R = R[:, prefix] * sigma[:, last]
    tol = 4 * n * np.finfo(np.float64).eps * np.abs(L).sum(axis=1)
    return np.concatenate(scores, axis=1), tol


def osd_decode(G: np.ndarray, L, order: int) -> np.ndarray:
    """Ordered statistics decoding of reprocessing depth `order`, per row of
    an (F, n) LLR stack; returns the (F, n) uint8 decoded words.

    One rref_stack call systematizes G on every row's most reliable basis.
    Row d then considers its hard decision re-encoded on that basis, c0, and
    every candidate c0 ^ XOR_{j in J} M_j for a set J of at most `order`
    basis rows, and keeps the candidate with the highest correlation
    (1 - 2c) . L[d]; correlation ties resolve to the earliest candidate,
    with J ordered by size, then lexicographically.

    Candidates are screened without being built (_screened_scores).  A row
    whose screened maximum is the only score within tol of it has the same
    unique maximum under the direct sums (1 - 2c) @ L[d], and only that
    winner is built.  Any other row (a near or exact tie) builds its full
    candidate list and scores it with (1 - 2c) @ L[d], the direct sum over
    all candidates, so every word equals that of direct scoring bit for bit.

    Raises ValueError unless L is a finite (F, n) stack and order an integer
    >= 0, and RankDeficientError if G's rank is below its row count.
    """
    order = _nonnegative_int(order, "OSD order")
    G = np.asarray(G, dtype=np.uint8)
    L = _checked_llrs(L, G.shape[1], batch=True)
    M, pivots = _reliability_bases(G, L)
    F = M.shape[0]
    tables = _flip_tables(M.shape[1], order)
    hard = (L < 0).astype(np.uint8)
    flips = np.take_along_axis(hard, pivots, axis=1)
    c0 = np.bitwise_xor.reduce(M * flips[:, :, None], axis=1)

    scores, tol = _screened_scores(M, c0, L, tables)
    f = np.arange(F)
    best = np.argmax(scores, axis=1)
    top = scores[f, best]
    clear = np.isfinite(top) & ((scores >= (top - tol)[:, None]).sum(axis=1) == 1)

    # walk each clear winner back through the tables, largest index of J first
    sizes = [1] + [len(last) for _, last in tables]
    starts = np.cumsum(sizes) - sizes
    weight = np.searchsorted(starts, best, side="right") - 1
    pos = best - starts[weight]
    bits = c0.copy()
    for w in range(len(tables), 0, -1):
        rows = f[clear & (weight >= w)]
        prefix, last = tables[w - 1]
        bits[rows] ^= M[rows, last[pos[rows]]]
        pos[rows] = prefix[pos[rows]]

    rows = np.flatnonzero(~clear)
    if len(rows):
        cands = _candidates(M[rows], c0[rows], tables)
        for cands_d, d in zip(cands, rows):
            bits[d] = cands_d[np.argmax((1.0 - 2.0 * cands_d) @ L[d])]
    return bits


def mld_exhaustive(G: np.ndarray, L) -> np.ndarray:
    """Correlation-maximizing codeword over the entire codebook (k <= 20).

    Ties resolve to the lexicographically smallest message, which is the
    lowest codebook index under the bit-mask message convention.  Raises
    ValueError unless L is a finite vector of length n.
    """
    C = all_codewords(G)
    L = _checked_llrs(L, C.shape[1], batch=False)
    scores = (1.0 - 2.0 * C.astype(np.float64)) @ L
    return C[np.argmax(scores)]


def spa_batch_decoder(H: SparseParityMatrix, max_iter: int = 20):
    """Batch-decoder closure over a fixed parity-check matrix: each call is
    spa_decode_batch(H, Ld, max_iter).  Raises TypeError unless H is a
    SparseParityMatrix, and ValueError unless max_iter is an integer >= 0."""
    max_iter = _nonnegative_int(max_iter, "SPA iteration cap")
    _check_parity_matrix(H)

    def decode(Ld: np.ndarray):
        return spa_decode_batch(H, Ld, max_iter)
    decode.codeword_iterations = min(max_iter, 1)
    return decode


def osd_batch_decoder(G: np.ndarray, order: int):
    """Batch-decoder closure over a fixed generator matrix.

    Each call is one osd_decode(G, Ld, order) on the whole (F, n) stack,
    reported as converged in one iteration.  Raises ValueError unless order
    is an integer >= 0.
    """
    order = _nonnegative_int(order, "OSD order")
    G = np.asarray(G, dtype=np.uint8)

    def decode(Ld: np.ndarray):
        bits = osd_decode(G, Ld, order)
        ones = np.ones(bits.shape[0], dtype=np.int64)
        return bits, ones, ones.astype(bool)
    decode.codeword_iterations = 1
    return decode


def mld_batch_decoder(G: np.ndarray):
    """Batch-decoder closure enumerating a fixed codebook once.

    Row d of the output is mld_exhaustive(G, Ld[d]), reported as converged
    in one iteration.  Every stack is scored in Fortran order, the order the
    derivative loop hands it over in: the matmul rounds near-tied scores
    differently for the two layouts, and a C-ordered copy of a stack could
    decode to another word.  Raises ValueError unless Ld is a finite (F, n)
    stack.
    """
    C = all_codewords(G)
    S = 1.0 - 2.0 * C.astype(np.float64)

    def decode(Ld: np.ndarray):
        Ld = np.asfortranarray(_checked_llrs(Ld, C.shape[1], batch=True))
        best = np.argmax(S @ Ld.T, axis=0)
        ones = np.ones(Ld.shape[0], dtype=np.int64)
        return C[best], ones, ones.astype(bool)
    decode.codeword_iterations = 1
    return decode
