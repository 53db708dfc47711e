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
module's globals, so a wrapper installed on either name sees every call;
`osd_decode` systematizes the whole stack in a single GF(2) elimination
(`gf2.rref_stack`) rather than one elimination per vector.  The ML closure
and `mld_exhaustive` score the codebook that `gf2.all_codewords` lists;
`mld_exhaustive` decodes one vector and stays as an independent reference
for the ML closure.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np

from .gf2 import all_codewords, rref_stack
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
    products come from prefix/suffix cumulative products so zero messages
    need no special casing.  A frame stops contributing once its hard
    decision satisfies every check; its iteration count is the first
    iteration where that held.  Non-converged frames report max_iter and the
    final-posterior hard decision (the channel hard decision if max_iter is
    0).  The check table is H's padded `idx`/`mask`, built with H; a matrix
    with no checks returns the hard decision, converged at iteration 1.

    Returns (bits, iterations, converged) with shapes (batch, n), (batch,),
    (batch,).  Raises ValueError unless L is a finite (batch, n) stack.
    """
    idx, mask, n = H.idx, H.mask, H.n
    L = _checked_llrs(L, n, batch=True)
    B = L.shape[0]
    Lc = np.clip(L, -LLR_CLIP, LLR_CLIP)
    q = Lc[:, idx]                                       # (B, R, deg)
    out = np.empty((B, n), dtype=np.uint8)
    iters = np.full(B, max_iter, dtype=np.int64)
    conv = np.zeros(B, dtype=bool)
    flat = idx[None, :, :] + (np.arange(B) * n)[:, None, None]
    post = Lc
    for it in range(1, max_iter + 1):
        t = np.tanh(q / 2)
        t = np.where(mask, t, 1.0)
        c = np.cumprod(t, axis=-1)
        left = np.ones_like(t)
        left[..., 1:] = c[..., :-1]
        rs = np.cumprod(t[..., ::-1], axis=-1)[..., ::-1]
        right = np.ones_like(t)
        right[..., :-1] = rs[..., 1:]
        r = 2 * np.arctanh(np.clip(left * right, -_ATANH_LIM, _ATANH_LIM))
        r = np.where(mask, r, 0.0)
        tot = np.bincount(flat.ravel(), weights=r.ravel(),
                          minlength=B * n).reshape(B, n)
        post = Lc + tot
        q = np.clip(post[:, idx] - r, -LLR_CLIP, LLR_CLIP)
        hard = (post < 0).astype(np.uint8)
        synd = np.where(mask, hard[:, idx], 0).sum(axis=-1) % 2
        ok = ~synd.any(axis=-1)
        newly = ok & ~conv
        out[newly] = hard[newly]
        iters[newly] = it
        conv |= newly
        if conv.all():
            break
    out[~conv] = post[~conv] < 0
    return out, iters, conv


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
def _flip_sets(k: int, order: int) -> tuple[np.ndarray, ...]:
    """Index tables of the basis-flip patterns of weight 2..order, in
    lexicographic order (weight 1 is the reduced generator itself)."""
    tables = []
    for w in range(2, min(order, k) + 1):
        I = np.array(list(combinations(range(k), w)), dtype=np.int64)
        I.setflags(write=False)
        tables.append(I)
    return tuple(tables)


def osd_decode(G: np.ndarray, L, order: int) -> np.ndarray:
    """Ordered statistics decoding of reprocessing depth `order`, per row of
    an (F, n) LLR stack; returns the (F, n) uint8 decoded words.

    One rref_stack call systematizes G on every row's most reliable basis.
    Row d then re-encodes its hard decision on that basis and every pattern
    of at most `order` basis-bit flips, and keeps the candidate with the
    highest correlation sum (1 - 2c) . L[d]; correlation ties resolve to the
    earliest-generated candidate.  Raises ValueError unless L is a finite
    (F, n) stack, and RankDeficientError if G's rank is below its row count.
    """
    G = np.asarray(G, dtype=np.uint8)
    L = _checked_llrs(L, G.shape[1], batch=True)
    M, pivots = _reliability_bases(G, L)
    F, k, n = M.shape
    hard = (L < 0).astype(np.uint8)
    flips = np.take_along_axis(hard, pivots, axis=1)
    c0 = np.bitwise_xor.reduce(M * flips[:, :, None], axis=1)
    pats = [np.zeros((F, 1, n), dtype=np.uint8)]
    if order >= 1:
        pats.append(M)
    for I in _flip_sets(k, order):
        acc = M[:, I[:, 0]]
        for col in range(1, I.shape[1]):
            acc = acc ^ M[:, I[:, col]]
        pats.append(acc)
    cands = np.concatenate(pats, axis=1) ^ c0[:, None, :]
    bits = np.empty((F, n), dtype=np.uint8)
    for d in range(F):
        scores = (1.0 - 2.0 * cands[d]) @ L[d]
        bits[d] = cands[d, np.argmax(scores)]
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
    spa_decode_batch(H, Ld, max_iter)."""
    def decode(Ld: np.ndarray):
        return spa_decode_batch(H, Ld, max_iter)
    return decode


def osd_batch_decoder(G: np.ndarray, order: int):
    """Batch-decoder closure over a fixed generator matrix.

    Each call is one osd_decode(G, Ld, order) on the whole (F, n) stack,
    reported as converged in one iteration.
    """
    G = np.asarray(G, dtype=np.uint8)

    def decode(Ld: np.ndarray):
        bits = osd_decode(G, Ld, order)
        ones = np.ones(bits.shape[0], dtype=np.int64)
        return bits, ones, ones.astype(bool)
    return decode


def mld_batch_decoder(G: np.ndarray):
    """Batch-decoder closure enumerating a fixed codebook once.

    Row d of the output is mld_exhaustive(G, Ld[d]), reported as converged
    in one iteration.  Raises ValueError unless Ld is a finite (F, n) stack.
    """
    C = all_codewords(G)
    S = 1.0 - 2.0 * C.astype(np.float64)

    def decode(Ld: np.ndarray):
        Ld = _checked_llrs(Ld, C.shape[1], batch=True)
        best = np.argmax(S @ Ld.T, axis=0)
        ones = np.ones(Ld.shape[0], dtype=np.int64)
        return C[best], ones, ones.astype(bool)
    return decode
