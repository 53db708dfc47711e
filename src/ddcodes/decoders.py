"""Component soft-decision decoders: sum-product, ordered statistics, exact ML.

These are the inner engines the derivative decoders call on each derivative
LLR vector.  All of them consume log-likelihood ratios with the convention
L > 0 favoring bit 0.  SPA clips them to +-LLR_CLIP (30); ML and OSD
correlate them as given, so a sum of n finite LLRs must stay finite.

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
(`gf2.rref_stack`, one pass over G's rows for all the reliability orders)
rather than one elimination per vector.  It then scores every
reprocessing candidate without building it: the correlations come from
exact sign products.  A flip set J of weight >= 2 extends a smaller set J'
by an index above max J'; the J' are grouped by their largest index into
a few blocks, each one product and one batched matmul, and a plan cached
per weight puts the scores in candidate order (`_score_blocks`).
One cached table names each candidate's flip set (`_flip_set_table`), and
the stack's winners are built in one gather over it.
Peak memory matters here: the C allocator can hand a large freed block
back to the kernel, and then every frame that builds one pays the page
faults for it again, so a block's size comes from a byte budget shared
over the stack's rows.  A row where another screened score lies within the
rounding tolerance of the best is rescored exactly as direct scoring does,
by dot products over its full candidate list, one row at a time, so the
decoded words, and the rule that a tie goes to the earliest candidate, are
those of direct scoring bit for bit.  The ML closure and `mld_exhaustive`
score the codebook that `gf2.all_codewords` lists; `mld_exhaustive`
decodes one vector and stays as an independent reference for the ML
closure.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations

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
def _flip_set_table(k: int, order: int) -> np.ndarray:
    """Read-only (N, w) table of the basis-flip sets J of range(k) with at
    most w = min(order, k) indices, by size, then lexicographically: the
    order of the reprocessing candidates and of _screened_scores.  Each row
    lists J in increasing order, padded with k."""
    w = min(order, k)
    sets = np.array([J + (k,) * (w - size) for size in range(w + 1)
                     for J in combinations(range(k), size)],
                    dtype=np.min_scalar_type(k))
    sets.setflags(write=False)
    return sets


def _nonnegative_int(value, what: str) -> int:
    """value as an int; ValueError naming `what` unless it is an integer
    >= 0 (not a bool)."""
    if not _is_int(value) or value < 0:
        raise ValueError(f"{what} must be an integer >= 0, got {value!r}")
    return int(value)


def _candidates(Mz: np.ndarray, c0: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """Every reprocessing candidate of one row, in generation order:
    c0 ^ XOR Mz[J] for each flip set J of `sets`, whose padding index k
    picks Mz's zero last row.  Shapes (k + 1, n), (n,), (N, w) -> (N, n)."""
    cands = np.tile(c0, (len(sets), 1))
    for col in sets.T:
        cands ^= Mz[col]
    return cands


# Bytes of one block of product rows, shared over the rows of the stack:
# 128 rows of (w-1)-sets for one frame of eBCH(128,36), 4 for a stack of 32.
_BLOCK_BYTES = 1 << 17


@lru_cache(maxsize=None)
def _score_blocks(k: int, w: int, rows: int) -> tuple:
    """Read-only plan of _screened_scores for the w-subsets of range(k),
    w >= 2: the (w-1)-subsets J' with max J' < k - 1, by max J', in blocks
    of at most `rows`.

    A block is (heads, lo, src, dest): heads is the (w-1, b) index table
    of its b sets J', and lo = 1 + the smallest max J' in it.  Entry (i, c)
    of the block's (b, k - lo) score matrix scores J'_i + (lo + c,); the
    entries with lo + c > max J'_i, at flat positions src, are the flip
    sets at rows dest of _flip_set_table.
    """
    place = {tuple(J): i
             for i, J in enumerate(_flip_set_table(k, w).tolist())}
    heads = np.array([J + (top,) for top in range(w - 2, k - 1)
                      for J in combinations(range(top), w - 2)],
                     dtype=np.intp).reshape(-1, w - 1)
    blocks = []
    for start in range(0, len(heads), rows):
        block = heads[start:start + rows]
        lo = int(block[0, -1]) + 1
        keep = np.arange(lo, k) > block[:, -1:]
        i, c = np.nonzero(keep)
        sets = np.column_stack([block[i], lo + c]).tolist()
        tables = (block.T.copy(), np.flatnonzero(keep),
                  np.array([place[tuple(J)] for J in sets], dtype=np.intp))
        for t in tables:
            t.setflags(write=False)
        blocks.append((tables[0], lo) + tables[1:])
    return tuple(blocks)


def _screened_scores(M: np.ndarray, c0: np.ndarray, L: np.ndarray, w: int):
    """Correlations (1 - 2c) . L[d] of every candidate of at most w flips,
    in _flip_set_table order, from sign products without building any.

    With s0 = (1 - 2 c0) L[d] and sigma = 1 - 2M, candidate J scores
    sum_i s0_i prod_{j in J} sigma_ji.  Weight 0 is one reduction and
    weight 1 one matmul.  A set J of weight v >= 2 is J' + (c,) with c >
    max J', and scores as the row s0 * prod_{j in J'} sigma_j times
    sigma_c.  The J' are taken in a few blocks by max J' (_score_blocks):
    each block is one product, its rows gathered from s0 * sigma and
    multiplied by the other rows of J', and one matmul against the columns
    of sigma above the block; its entries with c > max J' go to their
    places in the flip set order.  One block takes _BLOCK_BYTES for the
    whole stack, rows rounded down to a power of two so that stacks of any
    height share a few cached plans: a larger temporary would go back to
    the kernel when freed and be faulted in again on every call.  Every
    product is an exact +-s0, so each score, like the direct dot product of
    that candidate, lies within (n-1) u sum|L[d]| of the true correlation
    (u the unit roundoff).  Returns the (F, N) scores and the per-row
    tolerance tol = 4 n eps sum|L[d]|, at least twice that bound for both
    sums together.
    """
    F, k, n = M.shape
    # +-1 in int8, then one cast for the matmuls: mixed uint8/float64
    # arithmetic is ~10x slower.  The product blocks take their signs from
    # the int8 table: gathered as float64, they would double a block's
    # memory to save a fifth of its product time.
    sign = 1 - 2 * M.view(np.int8)
    sigma = sign.astype(np.float64)
    sigT = sigma.transpose(0, 2, 1)
    s0 = (1.0 - 2.0 * c0) * L
    scores = np.empty((F, len(_flip_set_table(k, w))))
    scores[:, 0] = s0.sum(axis=1)
    if w:
        np.matmul(s0[:, None, :], sigT, out=scores[:, None, 1:k + 1])
    if w >= 2:
        T = sigma * s0[:, None, :]
        rows = 1 << (max(1, _BLOCK_BYTES // (8 * n * F)).bit_length() - 1)
        block = np.empty((F, rows, n))
    for v in range(2, w + 1):
        for heads, lo, src, dest in _score_blocks(k, v, rows):
            # mode="clip" keeps np.take from buffering `out`; every index
            # is in range
            prod = block[:, :heads.shape[1]]
            np.take(T, heads[-1], axis=1, out=prod, mode="clip")
            for h in heads[:-1]:
                prod *= np.take(sign, h, axis=1)
            scores[:, dest] = np.take(
                np.matmul(prod, sigT[:, :, lo:]).reshape(F, -1), src, axis=1)
    tol = 4 * n * np.finfo(np.float64).eps * np.abs(L).sum(axis=1)
    return scores, tol


def osd_decode(G: np.ndarray, L, order: int) -> np.ndarray:
    """Ordered statistics decoding of reprocessing depth `order`, per row of
    an (F, n) LLR stack; returns the (F, n) uint8 decoded words.

    One rref_stack call systematizes G on every row's most reliable basis.
    Row d then considers its hard decision re-encoded on that basis, c0, and
    every candidate c0 ^ XOR_{j in J} M_j for a set J of at most `order`
    basis rows, and keeps the candidate with the highest correlation
    (1 - 2c) . L[d]; correlation ties resolve to the earliest candidate,
    with J ordered by size, then lexicographically.

    Candidate i flips the rows in row i of _flip_set_table(k, order), whose
    padding k picks a zero row appended to M.  Candidates are screened
    without being built (_screened_scores).  A row whose screened maximum
    is the only score within tol of it has the same unique maximum under
    the direct sums (1 - 2c) @ L[d], and only that winner is built, in one
    gather for the stack.  Any other row (a near or exact tie) builds its
    full candidate list, one row at a time, and scores it with the direct
    sums (1 - 2c) @ L[d], so every word equals that of direct scoring bit
    for bit.

    An empty (0, n) stack decodes to a (0, n) array.  Raises ValueError
    unless L is a finite (F, n) stack and order an integer >= 0, and
    RankDeficientError if G's rank is below its row count (F >= 1).
    """
    order = _nonnegative_int(order, "OSD order")
    G = np.asarray(G, dtype=np.uint8)
    L = _checked_llrs(L, G.shape[1], batch=True)
    if not len(L):
        return np.zeros(L.shape, dtype=np.uint8)
    M, pivots = _reliability_bases(G, L)
    F, k, n = M.shape
    sets = _flip_set_table(k, order)
    hard = (L < 0).astype(np.uint8)
    flips = np.take_along_axis(hard, pivots, axis=1)
    c0 = np.bitwise_xor.reduce(M * flips[:, :, None], axis=1)

    scores, tol = _screened_scores(M, c0, L, sets.shape[1])
    f = np.arange(F)
    best = np.argmax(scores, axis=1)
    top = scores[f, best]
    clear = np.isfinite(top) & ((scores >= (top - tol)[:, None]).sum(axis=1) == 1)

    # row k of Mz is zero, so the padding index k flips nothing
    Mz = np.concatenate([M, np.zeros((F, 1, n), dtype=np.uint8)], axis=1)
    bits = c0 ^ np.bitwise_xor.reduce(Mz[f[:, None], sets[best]], axis=1)
    # one row at a time: a tied stack's lists together take rows * N * n bytes
    for d in np.flatnonzero(~clear):
        cands = _candidates(Mz[d], c0[d], sets)
        bits[d] = cands[np.argmax((1.0 - 2.0 * cands) @ L[d])]
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
