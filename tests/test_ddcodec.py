"""Tests for soft derivative combination, voting, and the decoding loops."""

from __future__ import annotations

import numpy as np
import pytest

import ddcodes.cyclic
from ddcodes.cyclic import code_from_generator, cyclic_shift, is_member
from ddcodes.ddcodec import (
    DecodeReport,
    DirectionSet,
    boxplus,
    dd_decode_cyclic,
    dd_decode_minimal,
    derivative_llr,
    flop_account,
    get_vote,
    pair_transversal,
)
from ddcodes.decoders import mld_batch_decoder, mld_exhaustive
from ddcodes.derivative import (
    ZeroDirectionError,
    da_code,
    dd_code,
    derivative_codeword,
    minimal_dd_basis,
)
from ddcodes.gf2 import nullspace
from ddcodes.gf2m import GF2m
from ddcodes.parity import dual_orbit_parity_matrix


@pytest.fixture(scope="module")
def f16():
    return GF2m(4)


@pytest.fixture(scope="module")
def ex_code(f16):
    return code_from_generator(f16, 0x1D1)


def _random_codeword(rng, spec):
    coeffs = rng.integers(0, 2, size=spec.k).astype(np.uint8)
    return (coeffs @ spec.G) % 2


def _noisy_llrs(rng, word, sigma2):
    symbols = 1.0 - 2.0 * word
    y = symbols + rng.normal(0.0, np.sqrt(sigma2), size=word.shape)
    return 2.0 * y / sigma2


def test_boxplus_reference_values():
    assert float(boxplus(2.0, 2.0)) == pytest.approx(
        2.0 * np.arctanh(np.tanh(1.0) ** 2))
    assert float(boxplus(2.0, 2.0)) == pytest.approx(1.3250027473578643)
    # saturated disagreement stays finite and well away from the clip
    sat = float(boxplus(30.0, -30.0))
    assert -30.0 < sat < -27.0
    assert sat == pytest.approx(-28.3242, abs=1e-3)


def test_boxplus_algebra():
    rng = np.random.default_rng(223)
    a = rng.normal(0.0, 5.0, size=500)
    b = rng.normal(0.0, 5.0, size=500)
    ab = boxplus(a, b)
    assert np.allclose(ab, boxplus(b, a))
    assert np.all(np.sign(ab) == np.sign(a) * np.sign(b))
    assert np.all(np.abs(ab) <= np.minimum(np.abs(a), np.abs(b)) + 1e-12)
    # a certain bit passes the other LLR through (nearly)
    assert float(boxplus(25.0, 1.5)) == pytest.approx(1.5, abs=1e-6)
    # an erased bit erases the combination
    assert float(boxplus(0.0, 3.7)) == 0.0


def test_derivative_llr_pairs(ex_code, f16):
    rng = np.random.default_rng(227)
    for _ in range(100):
        L = rng.normal(0.0, 4.0, size=16)
        beta = int(rng.integers(1, 16))
        Ld = derivative_llr(L, beta, f16)
        perm = f16.pair_permutation(beta)
        assert np.allclose(Ld, Ld[perm])
        assert np.allclose(Ld, boxplus(L, L[perm]))
    with pytest.raises(ZeroDirectionError):
        derivative_llr(np.zeros(16), 0, f16)


def test_derivative_llr_noiseless_signs(ex_code, f16):
    rng = np.random.default_rng(229)
    for _ in range(100):
        word = _random_codeword(rng, ex_code)
        beta = int(rng.integers(1, 16))
        L = 7.0 * (1.0 - 2.0 * word)
        Ld = derivative_llr(L, beta, f16)
        assert np.array_equal((Ld < 0).astype(np.uint8),
                              derivative_codeword(word, beta, f16))


def test_vote_roundtrip_on_clean_words(ex_code, f16):
    rng = np.random.default_rng(233)
    for _ in range(100):
        word = _random_codeword(rng, ex_code)
        beta = int(rng.integers(1, 16))
        L = 5.0 * (1.0 - 2.0 * word)
        truth = derivative_codeword(word, beta, f16)
        # a correct derivative makes every partner vouch for its pair:
        # the vote reproduces the position's own LLR exactly
        assert np.allclose(get_vote(L, truth, beta, f16), L)


def test_direction_sets(f16):
    allb = DirectionSet.all_of(f16)
    assert len(allb) == 15
    assert allb.mode == "all"
    assert list(allb) == [int(x) for x in f16.antilog]
    assert allb.exponents(f16) == list(range(15))
    sub = DirectionSet.random_subset(f16, 6, seed=9)
    assert len(sub) == 6
    assert len(set(sub.elements)) == 6
    assert 0 not in sub.elements
    assert sub.elements == DirectionSet.random_subset(f16, 6, seed=9).elements
    exps = sub.exponents(f16)
    assert exps == sorted(exps)
    with pytest.raises(ValueError):
        DirectionSet.random_subset(f16, 16, seed=1)
    with pytest.raises(ValueError):
        DirectionSet((3, 3), "dup")
    with pytest.raises(ZeroDirectionError):
        DirectionSet((0, 1), "zero")


def test_flop_account_values():
    assert flop_account(1.03, 256, 32, 13912.0) == 500728
    assert flop_account(1.02, 256, 255, 13912.0) == 3951439
    assert flop_account(1, 16, 15, 0.0) == 1200
    report = DecodeReport(np.zeros(16, np.uint8), 2, True, 0,
                          np.zeros((2, 15), np.int64))
    assert flop_account(report, 16, 15, 0.0) == 2400


@pytest.fixture(scope="module")
def inner_mld(ex_code):
    return mld_batch_decoder(dd_code(ex_code).G)


@pytest.fixture(scope="module")
def inner_minimal_mld(ex_code):
    return mld_batch_decoder(minimal_dd_basis(ex_code, 1).basis)


def test_cyclic_loop_noiseless(ex_code, inner_mld):
    rng = np.random.default_rng(239)
    for _ in range(20):
        word = _random_codeword(rng, ex_code)
        L = 6.0 * (1.0 - 2.0 * word)
        report = dd_decode_cyclic(L, ex_code, inner_mld)
        assert np.array_equal(report.bits, word)
        assert report.converged
        assert report.iterations == 1
        assert report.flops == flop_account(1, 16, 15, 0.0)
        assert report.inner_iterations.shape == (1, 15)
        assert report.avg_inner_iterations == 1.0


def test_cyclic_loop_corrects_weak_positions(ex_code, inner_mld):
    rng = np.random.default_rng(241)
    fixed = 0
    for _ in range(50):
        word = _random_codeword(rng, ex_code)
        L = 6.0 * (1.0 - 2.0 * word)
        pos = int(rng.integers(0, 16))
        L[pos] *= -0.2  # one weakly wrong position
        report = dd_decode_cyclic(L, ex_code, inner_mld)
        if report.converged and np.array_equal(report.bits, word):
            fixed += 1
    assert fixed >= 45  # a single weak flip is nearly always repaired


def test_cyclic_loop_outputs_codewords_when_converged(ex_code, inner_mld):
    rng = np.random.default_rng(251)
    for _ in range(60):
        word = _random_codeword(rng, ex_code)
        L = _noisy_llrs(rng, word, sigma2=0.5)
        report = dd_decode_cyclic(L, ex_code, inner_mld, N_max=3)
        if report.converged:
            assert is_member(ex_code, report.bits)
        assert 1 <= report.iterations <= 3
        assert report.inner_iterations.shape == (report.iterations, 15)


def test_cyclic_loop_accepts_explicit_checks(ex_code, inner_mld):
    H = dual_orbit_parity_matrix(ex_code, 6)
    rng = np.random.default_rng(257)
    word = _random_codeword(rng, ex_code)
    L = 6.0 * (1.0 - 2.0 * word)
    report = dd_decode_cyclic(L, ex_code, inner_mld, H=H)
    assert report.converged and np.array_equal(report.bits, word)


def test_outer_check_matrix_is_computed_once_per_code(f16, inner_mld,
                                                     monkeypatch):
    """Without H the loops check against spec.check_matrix: the dual basis
    is computed on the first decode only, kept read-only, and decodes as an
    explicit H does."""
    calls = []

    def counting(M):
        calls.append(np.shape(M))
        return nullspace(M)
    monkeypatch.setattr(ddcodes.cyclic, "nullspace", counting)
    spec = code_from_generator(f16, 0x1D1)
    rng = np.random.default_rng(263)
    frames = [_noisy_llrs(rng, _random_codeword(rng, spec), sigma2=0.8)
              for _ in range(2)]
    reports = [dd_decode_cyclic(L, spec, inner_mld) for L in frames]
    assert calls == [spec.G.shape]
    assert not spec.check_matrix.flags.writeable
    H = nullspace(spec.G)
    for L, rep in zip(frames, reports):
        explicit = dd_decode_cyclic(L, spec, inner_mld, H=H)
        assert np.array_equal(rep.bits, explicit.bits)
        assert (rep.iterations, rep.converged) == \
            (explicit.iterations, explicit.converged)


def test_cyclic_loop_reports_flops_with_omega(ex_code, inner_mld):
    word = np.zeros(16)
    L = 6.0 * (1.0 - 2.0 * word)
    report = dd_decode_cyclic(L, ex_code, inner_mld, omega=100.0)
    assert report.flops == flop_account(report.iterations, 16, 15, 100.0)


def test_cyclic_loop_fixes_every_ascendant_word(ex_code, inner_mld):
    """Every word of A(D(C)) is a fixed point of the loop with an exact inner
    decoder: its hard derivatives are codewords of D(C), so each vote keeps
    its sign.  For the (16, 7) code A(D(C)) = RM(2, 4) is larger than C, and
    its 1920 words outside C never pass C's checks."""
    asc = da_code(dd_code(ex_code))
    msgs = (np.arange(1 << asc.k)[:, None] >> np.arange(asc.k)) & 1
    words = (msgs @ asc.G) % 2
    outside = [w for w in words if not is_member(ex_code, w)]
    assert len(outside) == (1 << asc.k) - (1 << ex_code.k) == 1920
    for word in outside:
        report = dd_decode_cyclic(6.0 * (1.0 - 2.0 * word), ex_code, inner_mld,
                                  N_max=3)
        assert np.array_equal(report.bits, word)
        assert not report.converged
        assert report.iterations == 3


def test_minimal_loop_noiseless(ex_code, inner_minimal_mld):
    rng = np.random.default_rng(263)
    for _ in range(20):
        word = _random_codeword(rng, ex_code)
        L = 6.0 * (1.0 - 2.0 * word)
        report = dd_decode_minimal(L, ex_code, inner_minimal_mld)
        assert np.array_equal(report.bits, word)
        assert report.converged
        assert report.iterations == 1


def test_minimal_loop_matches_per_direction_decoding(ex_code, f16):
    """The shift-and-reuse loop must equal decoding each direction's own
    minimal descendant directly (one outer iteration, no early exit)."""
    rng = np.random.default_rng(269)
    bases = {b: minimal_dd_basis(ex_code, b).basis for b in range(1, 16)}
    decoder = mld_batch_decoder(bases[f16.alpha_pow(0)])
    agree = 0
    for _ in range(50):
        word = _random_codeword(rng, ex_code)
        L = _noisy_llrs(rng, word, sigma2=0.8)
        report = dd_decode_minimal(L, ex_code, decoder, N_max=1)
        # direct per-direction reference
        votes = np.zeros((15, 16))
        for d, e in enumerate(range(15)):
            beta = f16.alpha_pow(e)
            Ld = derivative_llr(L, beta, f16)
            a_hat = mld_exhaustive(bases[beta], Ld)
            votes[d] = get_vote(L, a_hat, beta, f16)
        L_ref = votes.mean(axis=0)
        assert np.array_equal(report.bits, (L_ref < 0).astype(np.uint8))
        agree += 1
    assert agree == 50


def test_minimal_loop_shift_identity(ex_code, f16):
    """Shifting the LLR vector turns a direction-alpha^b problem into a
    direction-alpha^0 problem, exactly, at the LLR level."""
    rng = np.random.default_rng(271)
    for _ in range(50):
        L = rng.normal(0.0, 3.0, size=16)
        b = int(rng.integers(1, 15))
        beta = f16.alpha_pow(b)
        Ls = L[f16.shift_index(b)]
        lhs = derivative_llr(L, beta, f16)[f16.shift_index(b)]
        rhs = derivative_llr(Ls, 1, f16)
        assert np.allclose(lhs, rhs)


def test_pair_transversal_structure(f16):
    T, slot = pair_transversal(f16)
    assert len(T) == 8
    elems = [f16.elem_at_pos[p] for p in T]
    assert elems == [0, 2, 4, 6, 8, 10, 12, 14]
    for i, p in enumerate(T):
        assert slot[p] == i
        partner = f16.pos_of_elem[f16.elem_at_pos[p] ^ 1]
        assert slot[partner] == i
    # expanding a transversal word puts each value at both pair positions
    w = np.arange(8)
    full = w[slot]
    perm = f16.pair_permutation(1)
    assert np.array_equal(full, full[perm])


def test_minimal_loop_transversal_equivalence(ex_code, f16):
    """Half-length decoding through the transversal changes nothing."""
    rng = np.random.default_rng(277)
    basis = minimal_dd_basis(ex_code, 1).basis
    T, slot = pair_transversal(f16)
    full_dec = mld_batch_decoder(basis)
    half_dec = mld_batch_decoder(basis[:, T])
    for _ in range(40):
        word = _random_codeword(rng, ex_code)
        L = _noisy_llrs(rng, word, sigma2=0.9)
        rf = dd_decode_minimal(L, ex_code, full_dec, N_max=2)
        rh = dd_decode_minimal(L, ex_code, half_dec, N_max=2,
                               transversal=(T, slot))
        assert np.array_equal(rf.bits, rh.bits)
        assert rf.iterations == rh.iterations
        assert rf.converged == rh.converged


def test_loops_match_exhaustive_decoding_at_high_snr(ex_code, inner_mld,
                                                     inner_minimal_mld):
    """At mild noise both loops should track full-code MLD almost always."""
    rng = np.random.default_rng(281)
    agree_cyc = agree_min = 0
    trials = 60
    for _ in range(trials):
        word = _random_codeword(rng, ex_code)
        L = _noisy_llrs(rng, word, sigma2=0.35)
        ml = mld_exhaustive(ex_code.G, L)
        rc = dd_decode_cyclic(L, ex_code, inner_mld)
        rm = dd_decode_minimal(L, ex_code, inner_minimal_mld)
        agree_cyc += int(np.array_equal(rc.bits, ml))
        agree_min += int(np.array_equal(rm.bits, ml))
    assert agree_cyc >= trials - 3
    assert agree_min >= trials - 3
