"""Tests for the sum-product, ordered-statistics, and exact-ML decoders."""

from __future__ import annotations

import hashlib
import resource
import tracemalloc
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import ddcodes.decoders
from ddcodes.cyclic import (code_from_exponents, code_from_generator, ebch_code,
                             rm_exponent_set)
from ddcodes.ddcodec import (DirectionSet, _loop_plan, boxplus,
                             minimal_transversal)
from ddcodes.decoders import (
    LLR_CLIP,
    RankDeficientError,
    _candidates,
    _checked_llrs,
    _flip_set_table,
    _reliability_bases,
    _score_blocks,
    _screened_scores,
    all_codewords,
    mld_batch_decoder,
    mld_exhaustive,
    osd_batch_decoder,
    osd_decode,
    spa_batch_decoder,
    spa_decode_batch,
)
from ddcodes.derivative import dd_code, minimal_dd_basis
from ddcodes.gf2 import nullspace, rank
from ddcodes.gf2m import GF2m, field_for_length
from ddcodes.parity import (SparseParityMatrix, dual_orbit_parity_matrix,
                            eg_line_parity_matrix)
from ddcodes.sim import ChannelConfig, _dd_parity_matrix, transmit


@pytest.fixture(scope="module")
def rm24():
    """The (16, 11) second-order code with its 30 weight-8 checks."""
    spec = code_from_exponents(GF2m(4), rm_exponent_set(2, 4).members)
    H = dual_orbit_parity_matrix(spec, 8)
    return spec, H


def _noisy_llrs(rng, word, sigma2):
    symbols = 1.0 - 2.0 * word
    y = symbols + rng.normal(0.0, np.sqrt(sigma2), size=word.shape)
    return 2.0 * y / sigma2


def test_spa_noiseless_converges_immediately(rm24):
    spec, H = rm24
    rng = np.random.default_rng(163)
    words = (rng.integers(0, 2, size=(20, spec.k)).astype(np.uint8) @ spec.G) % 2
    L = 10.0 * (1.0 - 2.0 * words)
    bits, iters, conv = spa_decode_batch(H, L)
    assert np.array_equal(bits, words)
    assert conv.all()
    assert set(iters.tolist()) == {1}


def test_spa_corrects_single_flips(rm24):
    spec, H = rm24
    rng = np.random.default_rng(167)
    for _ in range(50):
        word = (rng.integers(0, 2, size=spec.k).astype(np.uint8) @ spec.G) % 2
        L = 8.0 * (1.0 - 2.0 * word)
        pos = int(rng.integers(0, 16))
        L[pos] = -0.5 * L[pos]  # one weakly wrong position
        bits, iters, conv = spa_decode_batch(H, L[None])
        assert conv[0]
        assert np.array_equal(bits[0], word)


def test_spa_all_zero_llrs_give_zero_word(rm24):
    # erased input: the hard decision is the all-zero codeword immediately
    spec, H = rm24
    bits, iters, conv = spa_decode_batch(H, np.zeros((1, 16)), max_iter=7)
    assert conv[0]
    assert iters[0] == 1
    assert not bits[0].any()


def test_spa_reports_non_convergence(rm24):
    spec, H = rm24
    L = np.random.default_rng(0).normal(0.0, 2.0, size=(1, 16))
    bits, iters, conv = spa_decode_batch(H, L, max_iter=2)
    assert not conv[0]
    assert iters[0] == 2  # sentinel: the budget, not a success iteration
    # the same frame stays unsatisfied with a much larger budget
    _, iters50, conv50 = spa_decode_batch(H, L, max_iter=50)
    assert not conv50[0]
    assert iters50[0] == 50


def test_spa_single_parity_check_is_exact():
    """One check: the posterior is the channel LLR plus the leave-one-out
    combination of the others, so hard decisions must match that formula."""
    H = SparseParityMatrix(5, [[0, 1, 2, 3, 4]])
    rng = np.random.default_rng(173)
    for _ in range(200):
        L = rng.normal(0.0, 4.0, size=5)
        bits = spa_decode_batch(H, L[None], max_iter=1)[0][0]
        for i in range(5):
            ext = None
            for j in range(5):
                if j != i:
                    ext = L[j] if ext is None else float(boxplus(ext, L[j]))
            want = 0 if L[i] + ext >= 0 else 1
            if abs(L[i] + ext) > 1e-9:
                assert bits[i] == want


def test_spa_extreme_llrs_stay_finite(rm24):
    spec, H = rm24
    L = np.full((1, 16), 1e9)
    bits, iters, conv = spa_decode_batch(H, L)
    assert conv[0]
    assert np.array_equal(bits[0], np.zeros(16, dtype=np.uint8))


def test_spa_batch_matches_single(rm24):
    spec, H = rm24
    rng = np.random.default_rng(179)
    L = rng.normal(0.0, 3.0, size=(10, 16))
    bits, iters, conv = spa_decode_batch(H, L, max_iter=10)
    for b in range(10):
        sb, si, sc = spa_decode_batch(H, L[b][None], max_iter=10)
        assert np.array_equal(sb[0], bits[b])
        assert sc[0] == conv[b]
        assert si[0] == iters[b]


def test_spa_offsets_are_built_once_per_matrix_and_height(rm24):
    """The bincount offsets depend only on H and the stack height: repeat
    calls reuse one read-only table, and a new height gets its own."""
    spec, H = rm24
    offsets = ddcodes.decoders._bincount_offsets
    L = np.random.default_rng(193).normal(0.0, 3.0, size=(6, 16))
    first = spa_decode_batch(H, L, max_iter=10)
    table = offsets(H, 6)
    again = spa_decode_batch(H, L, max_iter=10)
    assert offsets(H, 6) is table and not table.flags.writeable
    assert table.shape == (6,) + H.idx.shape
    assert np.array_equal(table, H.idx[None] + 16 * np.arange(6)[:, None, None])
    for a, b in zip(first, again):
        assert np.array_equal(a, b)
    assert offsets(H, 2) is not table


def test_osd_workspace_properties():
    spec = code_from_generator(GF2m(4), 0x1D1)
    rng = np.random.default_rng(181)
    for _ in range(50):
        L = rng.normal(0.0, 3.0, size=16)
        M, pivots = _reliability_bases(spec.G, L[None])
        systematic, basis = M[0], pivots[0]
        k = spec.k
        assert len(basis) == k
        # basis columns of the reduced generator form a scattered identity
        sub = systematic[:, basis]
        assert np.array_equal(sub, np.eye(k, dtype=np.uint8))
        # basis positions appear in reliability order and are maximal:
        # no skipped position may be independent of the ones kept before it
        rel = np.abs(L)
        kept = []
        for c in sorted(range(16), key=lambda c: (-rel[c], c)):
            if c in basis:
                kept.append(c)
            else:
                assert rank(spec.G[:, kept + [c]]) == len(kept)
        assert kept == list(basis)


def test_osd_workspace_rejects_rank_deficient():
    G = np.array([[1, 0, 1, 0], [1, 0, 1, 0]], dtype=np.uint8)
    with pytest.raises(RankDeficientError):
        osd_decode(G, np.ones((1, 4)), 0)


def test_osd_order0_recovers_clean_words():
    spec = code_from_generator(GF2m(4), 0x1D1)
    rng = np.random.default_rng(191)
    for _ in range(50):
        word = (rng.integers(0, 2, size=spec.k).astype(np.uint8) @ spec.G) % 2
        L = 6.0 * (1.0 - 2.0 * word)
        assert np.array_equal(osd_decode(spec.G, L[None], 0)[0], word)


def test_osd_full_order_equals_mld():
    """Flipping every basis subset enumerates the whole code."""
    spec = code_from_exponents(GF2m(4), rm_exponent_set(1, 4).members)  # k = 5
    rng = np.random.default_rng(193)
    for _ in range(300):
        word = (rng.integers(0, 2, size=5).astype(np.uint8) @ spec.G) % 2
        L = _noisy_llrs(rng, word, sigma2=1.2)
        assert np.array_equal(osd_decode(spec.G, L[None], 5)[0],
                              mld_exhaustive(spec.G, L))


def test_osd_order_improves_correlation():
    spec = code_from_generator(GF2m(4), 0x1D1)
    rng = np.random.default_rng(197)
    def corr(c, L):
        return float((1.0 - 2.0 * c) @ L)
    for _ in range(100):
        word = (rng.integers(0, 2, size=7).astype(np.uint8) @ spec.G) % 2
        L = _noisy_llrs(rng, word, sigma2=1.5)
        c0, c1, c2 = (corr(osd_decode(spec.G, L[None], order)[0], L)
                      for order in (0, 1, 2))
        assert c0 <= c1 + 1e-9 <= c2 + 2e-9


def test_mld_matches_brute_force():
    spec = code_from_exponents(GF2m(4), rm_exponent_set(1, 4).members)
    rng = np.random.default_rng(199)
    words = all_codewords(spec.G)
    for _ in range(100):
        L = rng.normal(0.0, 2.0, size=16)
        best = max(words, key=lambda c: float((1.0 - 2.0 * c) @ L))
        got = mld_exhaustive(spec.G, L)
        assert float((1.0 - 2.0 * got) @ L) == pytest.approx(
            float((1.0 - 2.0 * best) @ L))


def test_all_codewords_enumeration():
    spec = code_from_generator(GF2m(4), 0x1D1)
    words = all_codewords(spec.G)
    assert words.shape == (128, 16)
    assert len({tuple(w) for w in words}) == 128
    # row index is the message: bit i of the index selects generator row i
    for i in range(7):
        assert np.array_equal(words[1 << i], spec.G[i])
    assert np.array_equal(words[0b1010001],
                          spec.G[0] ^ spec.G[4] ^ spec.G[6])


def test_batch_decoder_factories(rm24):
    spec, H = rm24
    rng = np.random.default_rng(211)
    words = (rng.integers(0, 2, size=(8, spec.k)).astype(np.uint8) @ spec.G) % 2
    L = 9.0 * (1.0 - 2.0 * words)
    for factory in (spa_batch_decoder(H), osd_batch_decoder(spec.G, 1),
                    mld_batch_decoder(spec.G)):
        bits, iters, conv = factory(L)
        assert np.array_equal(bits, words)
        assert bits.dtype == np.uint8
        assert iters.shape == conv.shape == (8,)
        assert conv.all()


def _osd_workspace_loop(G, L):
    """Reference: the original one-vector greedy Gauss-Jordan over the
    reliability-sorted columns; returns (order, systematic, basis)."""
    M = np.asarray(G, dtype=np.uint8).copy()
    k = M.shape[0]
    cols = np.argsort(-np.abs(L), kind="stable")
    piv = []
    r = 0
    for c in cols:
        nz = np.nonzero(M[r:, c])[0]
        if len(nz) == 0:
            continue
        p = r + nz[0]
        if p != r:
            M[[r, p]] = M[[p, r]]
        for i in np.nonzero(M[:, c])[0]:
            if i != r:
                M[i] ^= M[r]
        piv.append(int(c))
        r += 1
        if r == k:
            break
    assert r == k
    return cols, M, np.array(piv, dtype=np.int64)


def _osd_decode_reference(G, L, order):
    """Reference: the original one-vector OSD on the reference workspace."""
    _, M, basis = _osd_workspace_loop(G, L)
    k, n = M.shape
    hard = (L < 0).astype(np.uint8)
    sel = np.nonzero(hard[basis])[0]
    c0 = M[sel].sum(axis=0) % 2 if len(sel) else np.zeros(n, dtype=np.uint8)
    pats = [np.zeros((1, n), dtype=np.uint8)]
    for w in range(1, min(order, k) + 1):
        I = np.array(list(combinations(range(k), w)))
        acc = M[I[:, 0]]
        for col in range(1, w):
            acc = acc ^ M[I[:, col]]
        pats.append(acc)
    cands = np.concatenate(pats) ^ c0[None, :]
    scores = (1.0 - 2.0 * cands) @ L
    return cands[np.argmax(scores)].astype(np.uint8)


_FIELD16 = GF2m(4)
_SPEC16 = code_from_generator(_FIELD16, 0x1D1)
_GENERATORS = {"(16,7)": _SPEC16.G,
               "minimal-basis": minimal_dd_basis(_SPEC16, 1).basis,
               "RM(1,4)": code_from_exponents(_FIELD16, rm_exponent_set(1, 4).members).G}


_SPEC128 = code_from_generator(GF2m(7), 0xCCC3CDB5487A24FA5F3A3DD)
# Generators past length 16, for block scoring: k = 16; the
# (14, 64) punctured minimal basis the minimal loop of eBCH(128,36) decodes
# on; and k = 2 and k = 1, where the pair block is one pair or never built.
_WIDE_GENERATORS = {
    "eBCH(32,16)": ebch_code(GF2m(5), 16).G,
    "punctured-minimal-128": minimal_dd_basis(_SPEC128, 1).basis[
        :, minimal_transversal(GF2m(7))[0]],
    "k=2": _GENERATORS["RM(1,4)"][:2],
    "k=1": np.ones((1, 16), dtype=np.uint8),
}
_ALL_GENERATORS = {**_GENERATORS, **_WIDE_GENERATORS}


@st.composite
def _tied_llrs(draw, rows, n=16):
    """(rows, n) LLR stacks full of reliability ties: magnitudes from a
    few repeated values or coarsely rounded, and, as in derivative words,
    often equal values at both positions of each direction-1 pair."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        L = rng.choice([0.25, 0.5, 1.0, 3.0], size=(rows, n)) \
            * rng.choice([-1.0, 1.0], size=(rows, n))
    else:
        L = np.round(rng.normal(0.0, 2.0, size=(rows, n)))
    if draw(st.booleans()):
        perm = field_for_length(n).pair_permutation(1)
        L = L[:, np.minimum(np.arange(n), perm)]
    return L


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_GENERATORS)), _tied_llrs(1))
def test_osd_workspace_matches_reference_loop(name, L):
    G = _GENERATORS[name]
    systematic, pivots = _reliability_bases(G, L)
    _, M, basis = _osd_workspace_loop(G, L[0])
    assert np.array_equal(systematic[0], M)
    assert np.array_equal(pivots[0], basis)
    assert systematic.dtype == np.uint8


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_GENERATORS)), st.sampled_from([1, 32]),
       st.integers(0, 3), st.data())
def test_osd_batch_matches_reference_per_row(name, F, order, data):
    G = _GENERATORS[name]
    L = data.draw(_tied_llrs(F))
    bits, iters, conv = osd_batch_decoder(G, order)(L)
    assert bits.shape == (F, 16) and bits.dtype == np.uint8
    for d in range(F):
        assert np.array_equal(bits[d], _osd_decode_reference(G, L[d], order))


def test_osd_batch_matches_reference_on_128_minimal_basis():
    """The (128,36) minimal basis with a 32-vector stack of derivative words."""
    field = GF2m(7)
    spec = code_from_generator(field, 0xCCC3CDB5487A24FA5F3A3DD)
    G = minimal_dd_basis(spec, 1).basis
    rng = np.random.default_rng(223)
    L = np.round(rng.normal(0.0, 2.0, size=(32, 128)), 1)
    L = boxplus(L, L[:, field.pair_permutation(1)])
    bits, _, _ = osd_batch_decoder(G, 1)(L)
    for d in range(32):
        assert np.array_equal(bits[d], _osd_decode_reference(G, L[d], 1))


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_osd_batch_rows_equal_osd_decode(order):
    rng = np.random.default_rng(227 + order)
    L = np.round(rng.normal(0.0, 2.0, size=(32, 16)), 1)
    bits, iters, conv = osd_batch_decoder(_SPEC16.G, order)(L)
    for d in range(32):
        assert np.array_equal(bits[d], osd_decode(_SPEC16.G, L[d][None], order)[0])
    assert iters.tolist() == [1] * 32 and conv.all()


def test_osd_batch_eliminates_once_per_stack(monkeypatch):
    calls = []
    real = ddcodes.decoders.rref_stack

    def counting(M, orders):
        calls.append(np.shape(orders))
        return real(M, orders)
    monkeypatch.setattr(ddcodes.decoders, "rref_stack", counting)
    decode = osd_batch_decoder(_SPEC16.G, 2)
    decode(np.random.default_rng(229).normal(0.0, 2.0, size=(32, 16)))
    assert calls == [(32, 16)]


@pytest.mark.parametrize("k", range(9))
def test_flip_set_table_lists_combinations_by_weight(k):
    for order in range(k + 2):
        sets = _flip_set_table(k, order)
        w = min(order, k)
        want = [J + (k,) * (w - size) for size in range(w + 1)
                for J in combinations(range(k), size)]
        assert sets.shape == (len(want), w)
        assert sets.dtype == np.min_scalar_type(k)
        assert [tuple(map(int, J)) for J in sets] == want
        assert not sets.flags.writeable


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


def _osd_decode_direct(G: np.ndarray, L, order: int) -> np.ndarray:
    """Reference: osd_decode as it was before screening, building every
    candidate and scoring each row with (1 - 2 * cands[d]) @ L[d]."""
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


@st.composite
def _osd_llrs(draw, rows, n=16):
    """(rows, n) stacks: tied (both kinds of _tied_llrs), Gaussian, or
    ties between magnitudes that binary floats cannot hold exactly, so
    equal correlations can round apart in different summation orders."""
    kind = draw(st.sampled_from(["tied", "gaussian", "decimal"]))
    if kind == "tied":
        return draw(_tied_llrs(rows, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "gaussian":
        return rng.normal(0.0, 2.0, size=(rows, n))
    return rng.choice([0.1, 0.2, 0.3, 0.7], size=(rows, n)) \
        * rng.choice([-1.0, 1.0], size=(rows, n))


def _osd_orders(k):
    """Orders 0..4, and k and k + 1 (every flip set) where k <= 7 keeps the
    direct candidate lists small."""
    orders = st.integers(0, 4)
    return orders | st.sampled_from([k, k + 1]) if k <= 7 else orders


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_ALL_GENERATORS)), st.sampled_from([1, 32]),
       st.data())
def test_osd_screening_matches_direct_scoring(name, F, data):
    G = _ALL_GENERATORS[name]
    order = data.draw(_osd_orders(len(G)), label="order")
    L = data.draw(_osd_llrs(F, G.shape[1]))
    bits = osd_decode(G, L, order)
    assert bits.dtype == np.uint8
    assert np.array_equal(bits, _osd_decode_direct(G, L, order))


def _osd3_128_frames(count, seed):
    """Gaussian frames of the (128,36) eBCH code of the order-3 OSD
    benchmark, at 1 dB rather than its 4 dB: with seed 241, 22 of 50 frames
    are won by a candidate of flip weight 2 or 3, against none at 4 dB."""
    spec = _SPEC128
    rng = np.random.default_rng(seed)
    sigma2 = 1.0 / (2.0 * spec.k / spec.n * 10.0 ** 0.1)
    L = np.empty((count, spec.n))
    for f in range(count):
        word = rng.integers(0, 2, size=spec.k).astype(np.uint8) @ spec.G % 2
        y = 1.0 - 2.0 * word + np.sqrt(sigma2) * rng.standard_normal(spec.n)
        L[f] = 2.0 * y / sigma2
    return spec.G, L


def test_osd3_on_128_matches_direct_scoring():
    G, L = _osd3_128_frames(50, 241)
    for d in range(len(L)):
        assert np.array_equal(osd_decode(G, L[d:d + 1], 3),
                              _osd_decode_direct(G, L[d:d + 1], 3))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(_ALL_GENERATORS)), st.data())
def test_screened_scores_lie_within_tolerance_of_direct_scores(name, data):
    G = _ALL_GENERATORS[name]
    order = data.draw(_osd_orders(len(G)), label="order")
    L = data.draw(_osd_llrs(8, G.shape[1]))
    M, pivots = _reliability_bases(G, L)
    flips = np.take_along_axis((L < 0).astype(np.uint8), pivots, axis=1)
    c0 = np.bitwise_xor.reduce(M * flips[:, :, None], axis=1)
    sets = _flip_set_table(M.shape[1], order)
    scores, tol = _screened_scores(M, c0, L, sets.shape[1])
    n = G.shape[1]
    assert np.array_equal(tol, 4 * n * np.finfo(float).eps * np.abs(L).sum(axis=1))
    Mz = np.pad(M, ((0, 0), (0, 1), (0, 0)))
    for d in range(len(L)):
        cands = _candidates(Mz[d], c0[d], sets)
        assert scores[d].shape == cands.shape[:1]
        direct = (1.0 - 2.0 * cands) @ L[d]
        assert (np.abs(scores[d] - direct) <= tol[d]).all()


def test_osd3_on_128_peak_memory_stays_small():
    """One order-3 frame of eBCH(128,36), with no near tie, peaks at most
    512 KB of traced memory once the index tables are cached.  A block of
    products for every (pair, next index) takes about 2 MB, and the
    allocator returns such a block to the kernel after every frame."""
    G, L = _osd3_128_frames(1, 241)
    osd_decode(G, L, 3)
    tracemalloc.start()
    try:
        osd_decode(G, L, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 512 * 1024


def test_osd3_on_128_stack_peak_memory_stays_at_the_recursion_peak():
    """A 32-row order-3 stack of eBCH(128,36) peaks no higher than the
    5,378,816 bytes of traced memory the recursion over the smallest flip
    index took: the product blocks share one byte budget over the rows."""
    G, L = _osd3_128_frames(32, 241)
    osd_decode(G, L, 3)
    tracemalloc.start()
    try:
        osd_decode(G, L, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5_378_816


def test_osd3_on_128_frames_fault_in_no_pages_once_warm():
    """Once warm, order-3 frames of eBCH(128,36) reuse the memory they
    freed: 300 frames add under one minor page fault per frame.  A decoder
    that gives a large block back to the kernel after every frame pays for
    its pages again on the next (about 394 faults per frame)."""
    G, L = _osd3_128_frames(50, 241)
    for d in range(len(L)):
        osd_decode(G, L[d:d + 1], 3)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for i in range(300):
        osd_decode(G, L[i % 50:i % 50 + 1], 3)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults / 300 < 1


@pytest.mark.parametrize("k", range(2, 10))
@pytest.mark.parametrize("rows", [1, 2, 3, 4, 128])
def test_score_blocks_place_every_flip_set_once(k, rows):
    """Entry (i, c) of a block scores heads[:, i] + (lo + c,); its kept
    entries are the w-sets extending their J' upward, each w-set once, at
    its row of _flip_set_table."""
    for w in range(2, min(k, 4) + 1):
        sets = _flip_set_table(k, w)
        first = sum(comb(k, v) for v in range(w))
        seen = []
        tops = []
        for heads, lo, src, dest in _score_blocks(k, w, rows):
            assert heads.shape[0] == w - 1 and 1 <= heads.shape[1] <= rows
            assert lo == heads[-1].min() + 1
            assert not (heads.flags.writeable or src.flags.writeable
                        or dest.flags.writeable)
            i, c = np.divmod(src, k - lo)
            assert (lo + c > heads[-1, i]).all()
            got = np.column_stack([heads[:, i].T, lo + c])
            assert np.array_equal(sets[dest], got)
            seen.append(dest)
            tops.append(heads[-1])
        assert (sorted(np.concatenate(seen).tolist())
                == list(range(first, first + comb(k, w))))
        tops = np.concatenate(tops)
        assert (np.diff(tops) >= 0).all() and tops.max() == k - 2


# Stacks whose flip sets span several scoring blocks: eBCH(128,36) at order
# 3 (blocks of 128 pairs for one frame, 32 for 3 rows, 4 for 32); the
# punctured minimal basis, k = 14, at orders 2-4 (256, 32 and 8 sets per
# block); and k <= 3, where a block is a few sets or there is none.
_BLOCK_CASES = (
    [("eBCH(128,36)", 3, F) for F in (1, 3, 32)]
    + [("punctured-minimal-128", order, F) for order in (2, 3, 4)
       for F in (1, 8, 32)]
    + [(name, order, F) for name in ("k=1", "k=2", "k=3")
       for order in (2, 3, 4) for F in (1, 32)])
_BLOCK_GENERATORS = {**_ALL_GENERATORS, "eBCH(128,36)": _SPEC128.G,
                     "k=3": _GENERATORS["RM(1,4)"][:3]}


@pytest.mark.parametrize("name, order, F", _BLOCK_CASES)
@pytest.mark.parametrize("kind", ["gaussian", "tied"])
def test_block_scores_lie_within_tolerance_and_decode_as_direct(
        name, order, F, kind):
    G = _BLOCK_GENERATORS[name]
    n = G.shape[1]
    rng = np.random.default_rng(sum(map(ord, name)) + 31 * order + F)
    if kind == "gaussian":
        L = rng.normal(0.0, 2.0, size=(F, n))
    else:
        L = np.round(rng.normal(0.0, 2.0, size=(F, n)))
    M, pivots = _reliability_bases(G, L)
    flips = np.take_along_axis((L < 0).astype(np.uint8), pivots, axis=1)
    c0 = np.bitwise_xor.reduce(M * flips[:, :, None], axis=1)
    sets = _flip_set_table(M.shape[1], order)
    scores, tol = _screened_scores(M, c0, L, sets.shape[1])
    Mz = np.pad(M, ((0, 0), (0, 1), (0, 0)))
    for d in range(F):
        direct = (1.0 - 2.0 * _candidates(Mz[d], c0[d], sets)) @ L[d]
        assert (np.abs(scores[d] - direct) <= tol[d]).all()
    assert np.array_equal(osd_decode(G, L, order),
                          _osd_decode_direct(G, L, order))


def test_osd_fallback_runs_only_on_near_ties(monkeypatch):
    rows = []
    real = ddcodes.decoders._candidates

    def counting(Mz, c0, sets):
        rows.append(1)                  # one call per tied row
        return real(Mz, c0, sets)
    monkeypatch.setattr(ddcodes.decoders, "_candidates", counting)
    G, L = _osd3_128_frames(50, 241)
    for d in range(len(L)):
        osd_decode(G, L[d:d + 1], 3)
    assert rows == []
    # +-1 LLRs with half of a minimum-weight word's support negative: that
    # word and the zero word tie exactly at correlation n - d
    spec = _SPEC16
    word = next(w for w in all_codewords(spec.G) if w.sum() == 6)
    L = np.ones(16)
    L[np.flatnonzero(word)[:3]] = -1.0
    got = osd_decode(spec.G, L[None], 2)
    assert sum(rows) >= 1
    assert np.array_equal(got, _osd_decode_direct(spec.G, L[None], 2))
    assert float((1.0 - 2.0 * got[0]) @ L) == 16 - 6


@pytest.mark.parametrize("order", [-1, 2.5, "3", None, True])
def test_osd_rejects_invalid_orders(order):
    with pytest.raises(ValueError, match="OSD order"):
        osd_decode(_SPEC16.G, np.ones((1, 16)), order)
    with pytest.raises(ValueError, match="OSD order"):
        osd_batch_decoder(_SPEC16.G, order)


@pytest.mark.parametrize("cap", [-2, -1, 2.5, "3", None, True])
def test_spa_rejects_invalid_iteration_caps(cap):
    """spa_decode_batch(H, L, -2) used to report iterations [-2, -2]."""
    with pytest.raises(ValueError, match="SPA iteration cap must be an "
                                         "integer >= 0, got"):
        spa_decode_batch(_H16, np.ones((2, 16)), cap)
    with pytest.raises(ValueError, match="SPA iteration cap"):
        spa_batch_decoder(_H16, cap)


@pytest.mark.parametrize("H", [np.eye(3), _SPEC16.check_matrix, None],
                         ids=["eye", "dense H", "None"])
def test_spa_rejects_a_matrix_that_is_not_sparse(H):
    """spa_batch_decoder(np.eye(3)) used to build, and its first call raised
    AttributeError: 'numpy.ndarray' object has no attribute 'idx'."""
    with pytest.raises(TypeError, match="SPA needs a SparseParityMatrix, got"):
        spa_batch_decoder(H)
    for cap in (0, 5):
        with pytest.raises(TypeError, match="SparseParityMatrix"):
            spa_decode_batch(H, np.zeros((1, 3)), cap)


def test_spa_accepts_numpy_integer_and_zero_caps():
    L = np.random.default_rng(253).normal(0.0, 2.0, size=(4, 16))
    for got, want in zip(spa_decode_batch(_H16, L, np.int64(3)),
                         spa_decode_batch(_H16, L, 3)):
        assert np.array_equal(got, want)
    bits, iters, conv = spa_batch_decoder(_H16, 0)(L)
    assert np.array_equal(bits, (L < 0).astype(np.uint8))
    assert iters.tolist() == [0] * 4 and not conv.any()


def test_osd_accepts_numpy_integer_orders():
    L = np.random.default_rng(251).normal(0.0, 2.0, size=(4, 16))
    assert np.array_equal(osd_decode(_SPEC16.G, L, np.int64(2)),
                          osd_decode(_SPEC16.G, L, 2))


_BAD_LLRS = {
    "wrong length": np.ones(15),
    "all nan": np.full(16, np.nan),
    "nan": np.where(np.arange(16) == 3, np.nan, 1.0),
    "+inf": np.where(np.arange(16) == 5, np.inf, -1.0),
    "-inf": np.where(np.arange(16) == 0, -np.inf, 1.0),
    "mixed inf": np.where(np.arange(16) % 2, np.inf, -np.inf),
}
_H16 = SparseParityMatrix.from_dense(_SPEC16.check_matrix)
_CLOSURES = {
    "spa_batch_decoder": spa_batch_decoder(_H16),
    "osd_batch_decoder": osd_batch_decoder(_SPEC16.G, 1),
    "mld_batch_decoder": mld_batch_decoder(_SPEC16.G),
}


def _two_rows(L):
    return np.vstack([np.ones_like(L), L])


# Every decoder entry point.  Closures and stack engines get the bad vector
# as the second row of a 2-row stack; mld_exhaustive, the one-vector
# reference, gets it alone.
_ENTRY_POINTS = {
    **{name: lambda L, f=f: f(_two_rows(L)) for name, f in _CLOSURES.items()},
    "spa_decode_batch": lambda L: spa_decode_batch(_H16, _two_rows(L)),
    "osd_decode": lambda L: osd_decode(_SPEC16.G, _two_rows(L), 1),
    "mld_exhaustive": lambda L: mld_exhaustive(_SPEC16.G, L),
}


@pytest.mark.parametrize("entry", ["osd_batch_decoder", "osd_decode"])
@pytest.mark.parametrize("case", sorted(_BAD_LLRS))
def test_osd_entry_points_reject_bad_llrs(entry, case):
    with pytest.raises(ValueError, match="LLR input"):
        _ENTRY_POINTS[entry](_BAD_LLRS[case])


@pytest.mark.parametrize("entry", sorted(set(_ENTRY_POINTS) - {
    "osd_batch_decoder", "osd_decode"}))
@pytest.mark.parametrize("case", sorted(_BAD_LLRS))
def test_spa_and_ml_entry_points_reject_bad_llrs(entry, case):
    """NaN used to decode to the zero word (SPA reporting convergence), and
    a short vector raised an unrelated shape error."""
    with pytest.raises(ValueError, match="LLR input"):
        _ENTRY_POINTS[entry](_BAD_LLRS[case])


def test_osd_decode_takes_a_stack():
    with pytest.raises(ValueError, match="LLR input"):
        osd_decode(_SPEC16.G, np.ones(16), 1)


@pytest.mark.parametrize("F", [5, 0])
@pytest.mark.parametrize("name", sorted(_CLOSURES))
def test_closures_return_the_stack_contract(name, F):
    """An empty stack used to make the OSD closure raise from rref_stack."""
    L = np.random.default_rng(233).normal(0.0, 2.0, size=(F, 16))
    bits, iters, conv = _CLOSURES[name](L)
    assert bits.shape == (F, 16) and bits.dtype == np.uint8
    assert iters.shape == (F,) and np.issubdtype(iters.dtype, np.integer)
    assert conv.shape == (F,) and conv.dtype == bool


def test_osd_closure_makes_one_engine_call_per_stack(monkeypatch):
    calls = []
    real = ddcodes.decoders.osd_decode

    def counting(G, L, order):
        calls.append(L)
        return real(G, L, order)
    monkeypatch.setattr(ddcodes.decoders, "osd_decode", counting)
    L = np.random.default_rng(239).normal(0.0, 2.0, size=(32, 16))
    osd_batch_decoder(_SPEC16.G, 1)(L)
    assert len(calls) == 1 and calls[0] is L


def test_spa_without_checks_returns_the_hard_decision():
    """A matrix with no checks used to raise a bare ValueError from max()
    on an empty sequence; every hard decision satisfies it."""
    H = SparseParityMatrix(16, [])
    L = np.random.default_rng(191).normal(0.0, 2.0, size=(3, 16))
    bits, iters, conv = spa_decode_batch(H, L)
    assert np.array_equal(bits, (L < 0).astype(np.uint8))
    assert iters.tolist() == [1, 1, 1]
    assert conv.all()
    one, iters1, conv1 = spa_decode_batch(H, L[:1])
    assert np.array_equal(one, bits[:1]) and (conv1[0], iters1[0]) == (True, 1)


def _spa_decode_batch_reference(H, L, max_iter=20):
    """spa_decode_batch as it was before the check table moved onto
    SparseParityMatrix: the table is rebuilt from per-check position lists
    on every call."""
    rows = [r[m].tolist() for r, m in zip(H.idx, H.mask)]
    n = H.n
    L = np.atleast_2d(np.asarray(L, dtype=np.float64))
    B = L.shape[0]
    R = len(rows)
    deg = max(len(r) for r in rows)
    idx = np.zeros((R, deg), dtype=np.int64)
    mask = np.zeros((R, deg), dtype=bool)
    for i, rw in enumerate(rows):
        idx[i, :len(rw)] = rw
        mask[i, :len(rw)] = True
    Lc = np.clip(L, -LLR_CLIP, LLR_CLIP)
    q = Lc[:, idx]
    out = (Lc < 0).astype(np.uint8)
    iters = np.full(B, max_iter, dtype=np.int64)
    conv = np.zeros(B, dtype=bool)
    done = np.zeros(B, dtype=bool)
    flat = idx[None, :, :] + (np.arange(B) * n)[:, None, None]
    tot = np.zeros((B, n))
    lim = ddcodes.decoders._ATANH_LIM
    for it in range(1, max_iter + 1):
        t = np.tanh(q / 2)
        t = np.where(mask, t, 1.0)
        c = np.cumprod(t, axis=-1)
        left = np.ones_like(t)
        left[..., 1:] = c[..., :-1]
        rs = np.cumprod(t[..., ::-1], axis=-1)[..., ::-1]
        right = np.ones_like(t)
        right[..., :-1] = rs[..., 1:]
        r = 2 * np.arctanh(np.clip(left * right, -lim, lim))
        r = np.where(mask, r, 0.0)
        tot = np.bincount(flat.ravel(), weights=r.ravel(),
                          minlength=B * n).reshape(B, n)
        post = Lc + tot
        q = np.clip(post[:, idx] - r, -LLR_CLIP, LLR_CLIP)
        hard = (post < 0).astype(np.uint8)
        synd = np.where(mask, hard[:, idx], 0).sum(axis=-1) % 2
        ok = ~synd.any(axis=-1)
        newly = ok & ~done
        out[newly] = hard[newly]
        iters[newly] = it
        conv |= newly
        done |= newly
        if done.all():
            break
    if not done.all():
        post = Lc + tot
        out[~done] = (post[~done] < 0).astype(np.uint8)
    return out, iters, conv


_SPA_MATRICES = {
    "EG(2,4) lines": eg_line_parity_matrix(2, 2),
    "EG(2,8) lines": eg_line_parity_matrix(2, 3),
    "RM(2,4) dual orbit": dual_orbit_parity_matrix(
        code_from_exponents(_FIELD16, rm_exponent_set(2, 4).members), 8),
    "irregular": SparseParityMatrix(6, [[0, 1, 2], [3, 4], [0, 5]]),
    "weight-one and empty checks": SparseParityMatrix(6, [[2], [], [0, 5]]),
}
# repeated magnitudes, erasures and saturated values, as derivative words have
_SPA_LLRS = st.one_of(
    st.sampled_from([0.0, 0.5, -0.5, 1.25, -1.25, 30.0, -30.0]),
    st.floats(-35.0, 35.0, allow_nan=False))


@pytest.mark.parametrize("name", sorted(_SPA_MATRICES) + ["no checks"])
def test_spa_syndrome_equals_the_padded_table_reduction(name):
    """_failing_rows (one matmul against the dense transpose) flags exactly
    the rows that the XOR reduction over the padded check table flags; with
    no checks it flags none, so every row converges at iteration 1."""
    H = _SPA_MATRICES.get(name, SparseParityMatrix(16, []))
    rng = np.random.default_rng(257)
    for a in (1, 2, 7, 63):
        hard = rng.integers(0, 2, size=(a, H.n), dtype=np.uint8)
        want = np.bitwise_xor.reduce(hard[:, H.idx] & H.mask, axis=-1)
        got = ddcodes.decoders._failing_rows(H, hard)
        assert got.shape == (a,) and got.dtype == bool
        assert np.array_equal(got, want.any(axis=-1))
        assert H.num_checks or not got.any()


def test_spa_dense_checks_are_built_once_per_matrix(monkeypatch):
    """The dense transpose depends only on H: repeat calls reuse one
    read-only table, built by one to_dense call, and a new H gets its own."""
    builds = []
    to_dense = SparseParityMatrix.to_dense

    def counting(self):
        builds.append(self)
        return to_dense(self)
    monkeypatch.setattr(SparseParityMatrix, "to_dense", counting)
    H = SparseParityMatrix(6, [[0, 1, 2], [3, 4], [0, 5]])
    L = np.random.default_rng(263).normal(0.0, 2.0, size=(4, 6))
    first = spa_decode_batch(H, L, 10)
    table = ddcodes.decoders._dense_checks(H)
    again = spa_decode_batch(H, L, 10)
    assert builds == [H]
    assert ddcodes.decoders._dense_checks(H) is table
    assert not table.flags.writeable and table.dtype == np.float64
    assert np.array_equal(table, to_dense(H).T)
    for x, y in zip(first, again):
        assert np.array_equal(x, y)
    other = SparseParityMatrix(6, [[0, 1, 2], [3, 4], [0, 5]])
    assert ddcodes.decoders._dense_checks(other) is not table


@settings(max_examples=120, deadline=None)
@given(name=st.sampled_from(sorted(_SPA_MATRICES)), data=st.data())
def test_spa_batch_matches_per_call_table_reference(name, data):
    """Reading the table built with H gives exactly the bits, iteration
    counts and convergence flags of rebuilding it on every call."""
    H = _SPA_MATRICES[name]
    F = data.draw(st.integers(1, 8))
    L = data.draw(arrays(np.float64, (F, H.n), elements=_SPA_LLRS))
    max_iter = data.draw(st.integers(0, 20))
    bits, iters, conv = spa_decode_batch(H, L, max_iter)
    ref_bits, ref_iters, ref_conv = _spa_decode_batch_reference(H, L, max_iter)
    assert np.array_equal(bits, ref_bits)
    assert np.array_equal(iters, ref_iters)
    assert np.array_equal(conv, ref_conv)


_SPA_NULLSPACES = {name: nullspace(H.to_dense())
                   for name, H in _SPA_MATRICES.items()}


@st.composite
def _spa_mixed_stacks(draw, name):
    """A shuffled (F, n) stack for _SPA_MATRICES[name] whose rows converge
    at different iterations or never: one strong codeword (iteration 1),
    codewords under drawn noise (later or never), and arbitrary LLR rows
    (mostly never)."""
    N = _SPA_NULLSPACES[name]
    n = N.shape[1]

    def signs():
        msg = draw(arrays(np.uint8, len(N), elements=st.integers(0, 1)))
        return 1.0 - 2.0 * (msg @ N % 2)
    rows = [8.0 * signs()]
    for _ in range(draw(st.integers(0, 4))):
        scale = draw(st.sampled_from([0.5, 1.0, 2.0, 4.0]))
        noise = draw(arrays(np.float64, n, elements=st.floats(-6.0, 6.0)))
        rows.append(scale * signs() + noise)
    for _ in range(draw(st.integers(1, 3))):
        rows.append(draw(arrays(np.float64, n, elements=_SPA_LLRS)))
    return np.array(draw(st.permutations(rows)))


def _spa_rows_checked(H, L, max_iter):
    """spa_decode_batch(H, L, max_iter), after asserting that it equals the
    cumprod reference and, row by row, the one-row calls."""
    res = spa_decode_batch(H, L, max_iter)
    for got, want in zip(res, _spa_decode_batch_reference(H, L, max_iter)):
        assert np.array_equal(got, want)
    for d in range(len(L)):
        for got, want in zip(spa_decode_batch(H, L[d:d + 1], max_iter), res):
            assert np.array_equal(got[0], want[d])
    return res


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(_SPA_MATRICES)),
       max_iter=st.integers(0, 20), data=st.data())
def test_spa_rows_do_not_depend_on_the_rest_of_the_stack(name, max_iter, data):
    """Rows leave the work block as they converge; no row's bits, iteration
    count or flag may depend on which other rows share its stack."""
    _, iters, conv = _spa_rows_checked(_SPA_MATRICES[name],
                                       data.draw(_spa_mixed_stacks(name)),
                                       max_iter)
    event(f"iterations of converged rows: {sorted(set(iters[conv].tolist()))}")
    event(f"rows never converged: {int((~conv).sum()) > 0}")


# magnitudes of hard-decision codeword rows: erasures, a subnormal where
# tanh(x/2) underflows products to zero, the clip value and beyond it
_SPA_EDGE_MAGNITUDES = st.one_of(
    st.sampled_from([0.0, 1e-310, 5e-324, 0.5, 30.0, 35.0]),
    st.floats(0.0, 35.0))


@st.composite
def _spa_passing_rows(draw, name):
    """An LLR row for _SPA_MATRICES[name] whose hard decision L < 0 is a
    codeword: positions of bit 0 get +m or -0.0, positions of bit 1 get -m
    with m > 0."""
    N = _SPA_NULLSPACES[name]
    msg = draw(arrays(np.uint8, len(N), elements=st.integers(0, 1)))
    word = msg @ N % 2
    mags = draw(arrays(np.float64, N.shape[1], elements=_SPA_EDGE_MAGNITUDES))
    neg_zero = draw(arrays(bool, N.shape[1]))
    L = np.where(word == 1, -np.maximum(mags, 1e-310),
                 np.where((mags == 0) & neg_zero, -0.0, mags))
    assert np.array_equal(L < 0, word == 1)
    return L


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(_SPA_MATRICES)),
       max_iter=st.integers(0, 20), data=st.data())
def test_spa_rows_passing_every_check_report_what_the_first_update_gives(
        name, max_iter, data):
    """Rows whose channel hard decision is a codeword report what the first
    update gives them: their hard decision at iteration 1, converged
    (iteration 0, not converged, with no iterations).  Every row, passing
    or not, equals the cumprod reference and its one-row call."""
    H = _SPA_MATRICES[name]
    passing = [data.draw(_spa_passing_rows(name))
               for _ in range(data.draw(st.integers(1, 4)))]
    others = [data.draw(arrays(np.float64, H.n, elements=_SPA_LLRS))
              for _ in range(data.draw(st.integers(0, 3)))]
    order = data.draw(st.permutations(range(len(passing) + len(others))))
    L = np.array(passing + others)[order]
    bits, iters, conv = _spa_rows_checked(H, L, max_iter)
    ok = np.array(order) < len(passing)
    assert np.array_equal(bits[ok], (L[ok] < 0).astype(np.uint8))
    assert iters[ok].tolist() == [min(max_iter, 1)] * len(passing)
    assert conv[ok].tolist() == [max_iter > 0] * len(passing)


# sha256 of the four stacks below, as the dd-spa decoder handed them to
# spa_decode_batch before the derivative loop returned codeword frames
# without an inner call (frame 0 is one).
_EBCH64_STACKS_SHA256 = \
    "bbb151fe50a47c112fdcbf51868bbaca9fca445a9ce8db1cfe1538fad47b26e8"


@pytest.fixture(scope="module")
def ebch64_spa_stacks():
    """The first inner SPA stack (63 derivative rows) of four dd-spa frames
    of eBCH(64, 45) `0x782cf` at 5 dB, drawn as criterion 12 draws them
    (seed 12), and formed as the cyclic loop forms its first stack: the
    box-plus of L over the pairs of every direction.  Frames 0, 3, 15 and 56
    reach per-call maxima of 1, 2 and 5 iterations and the 20-iteration
    cap."""
    spec = code_from_generator(field_for_length(64), 0x782CF)
    H = _dd_parity_matrix(spec)
    _, _, _, at, at_partner, _ = _loop_plan(
        spec, DirectionSet.all_of(spec.field), "cyclic")
    ch = ChannelConfig(5.0, spec.k / spec.n)
    rng = np.random.default_rng(12)
    stacks = []
    for f in range(57):
        msg = rng.integers(0, 2, size=spec.k, dtype=np.uint8)
        L = transmit(msg @ spec.G % 2, ch, rng)
        if f in (0, 3, 15, 56):
            stacks.append((H, boxplus(L[at], L[at_partner])))
    digest = hashlib.sha256(b"".join(Ld.tobytes() for _, Ld in stacks))
    assert digest.hexdigest() == _EBCH64_STACKS_SHA256
    return stacks


def test_spa_rows_match_reference_on_recorded_ebch64_stacks(ebch64_spa_stacks):
    maxima = []
    for H, L in ebch64_spa_stacks:
        assert L.shape == (63, 64)
        _, iters, conv = _spa_rows_checked(H, L, 20)
        maxima.append((int(iters.max()), bool(conv.all())))
    assert maxima[:3] == [(1, True), (2, True), (5, True)]
    assert maxima[3] == (20, False)


_SPA_CODES = {
    "RM(2,4), dual orbit": (code_from_exponents(
        _FIELD16, rm_exponent_set(2, 4).members).G,
        _SPA_MATRICES["RM(2,4) dual orbit"]),
    "RM(1,4), EG(2,4) lines": (_GENERATORS["RM(1,4)"],
                               _SPA_MATRICES["EG(2,4) lines"]),
}
_CODEWORD_DECODERS = {
    **{f"spa {name}": (G, spa_batch_decoder(H))
       for name, (G, H) in _SPA_CODES.items()},
    **{f"osd{order} {name}": (G, osd_batch_decoder(G, order))
       for name, G in _GENERATORS.items() for order in (0, 1, 2)},
    **{f"mld {name}": (G, mld_batch_decoder(G))
       for name, G in _GENERATORS.items()},
}


@settings(max_examples=120, deadline=None)
@given(name=st.sampled_from(sorted(_CODEWORD_DECODERS)), data=st.data())
def test_batch_decoders_return_codewords_unchanged(name, data):
    """A stack of +-8 LLRs of codewords decodes to those codewords, in one
    iteration, converged."""
    G, decode = _CODEWORD_DECODERS[name]
    F = data.draw(st.integers(1, 6))
    msgs = data.draw(arrays(np.uint8, (F, G.shape[0]),
                            elements=st.integers(0, 1)))
    words = msgs @ G % 2
    bits, iters, conv = decode(8.0 * (1.0 - 2.0 * words))
    assert np.array_equal(bits, words)
    assert iters.tolist() == [1] * F
    assert conv.all()


@pytest.mark.parametrize("build, tally", [
    (lambda spec, H: spa_batch_decoder(H, 0), 0),
    (lambda spec, H: spa_batch_decoder(H, 1), 1),
    (lambda spec, H: spa_batch_decoder(H, 20), 1),
    (lambda spec, H: osd_batch_decoder(spec.G, 0), 1),
    (lambda spec, H: osd_batch_decoder(spec.G, 2), 1),
    (lambda spec, H: mld_batch_decoder(spec.G), 1),
], ids=["spa0", "spa1", "spa20", "osd0", "osd2", "ml"])
def test_closures_state_the_tally_of_a_codeword_row(rm24, build, tally):
    """codeword_iterations is the count each closure returns for a row
    whose hard decision is already a codeword: the derivative loop reports
    it for every direction of a frame it returns before any inner call."""
    spec, H = rm24
    decode = build(spec, H)
    assert decode.codeword_iterations == tally
    rng = np.random.default_rng(331)
    words = rng.integers(0, 2, size=(6, spec.k), dtype=np.uint8) @ spec.G % 2
    L = rng.uniform(0.5, 30.0, size=words.shape) * (1.0 - 2.0 * words)
    bits, iters, conv = decode(L)
    assert np.array_equal(bits, words)
    assert iters.tolist() == [tally] * len(words)
    assert conv.tolist() == [tally > 0] * len(words)


def test_ml_closure_words_do_not_depend_on_the_stack_layout():
    """A near-tied derivative stack of the (16, 7) cyclic loop (exact zeros
    and pairs of opposite LLRs) decoded to another word from a C-ordered
    copy than from the F-ordered stack the loop hands over.  Both copies,
    and each row alone, now decode alike."""
    spec = code_from_generator(GF2m(4), 0x1D1)
    decode = mld_batch_decoder(dd_code(spec).G)
    L = np.array([0.5, 0.5, 0.0, 0.0, -2.0, 0.0, -0.5, 0.0, 0.0, 0.0, 0.0,
                  0.5, 0.5, -0.5, 0.0, 1.0])
    _, _, _, at, at_partner, _ = _loop_plan(
        spec, DirectionSet.random_subset(spec.field, 2, 0), "cyclic")
    Ld = boxplus(L[at], L[at_partner])
    rng = np.random.default_rng(337)
    grid = rng.choice([0.0, 0.5, -0.5, 1.25, -1.25, 2.0], size=(40, 16))
    for stack in (Ld, boxplus(grid, grid[:, ::-1])):
        words = decode(np.asfortranarray(stack))[0]
        assert np.array_equal(decode(np.ascontiguousarray(stack))[0], words)
        for d, row in enumerate(stack):
            assert np.array_equal(decode(row[None])[0][0], words[d])
