"""Tests for soft derivative combination, voting, and the decoding loops."""

from __future__ import annotations

import functools
import hashlib

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import ddcodes.cyclic
import ddcodes.ddcodec
from ddcodes.cyclic import (code_from_exponents, code_from_generator,
                            cyclic_shift, ebch_code, is_member,
                            rm_exponent_set)
from ddcodes.ddcodec import (
    DirectionSet,
    boxplus,
    dd_decode_cyclic,
    dd_decode_minimal,
    fixed_space_dimension,
    flop_account,
    minimal_transversal,
)
from ddcodes.decoders import (LLR_CLIP, _ATANH_LIM, _reliability_bases,
                              mld_batch_decoder, mld_exhaustive,
                              osd_batch_decoder, spa_batch_decoder)
from ddcodes.derivative import (
    ZeroDirectionError,
    check_equivalence_shift,
    da_code,
    dd_code,
    derivative_codeword,
    minimal_dd_basis,
)
from ddcodes.gf2 import nullspace, rank, row_spaces_equal, rref
from ddcodes.gf2m import GF2m, coset_closure
from ddcodes.parity import SparseParityMatrix
from ddcodes.sim import ChannelConfig, _dd_parity_matrix, transmit


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
    # the atanh argument's limit bounds every output inside the input clip,
    # so the output is not clipped again
    bound = 2 * np.arctanh(_ATANH_LIM)
    assert bound < LLR_CLIP
    for a, b in [(1e300, 1e300), (1e300, -1e300), (-1e300, 1e300), (-1e300, -1e300)]:
        assert abs(float(boxplus(a, b))) == bound


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


# finite LLRs beyond the +-30 clip; nonzero ones stay above 1e-100 so the
# product of the two tanh factors cannot underflow to zero
_BOXPLUS_LLRS = st.floats(-40.0, 40.0, allow_nan=False)
_NONZERO_LLRS = _BOXPLUS_LLRS.filter(lambda x: abs(x) >= 1e-100)


@settings(max_examples=500, deadline=None)
@given(a=_BOXPLUS_LLRS, b=_BOXPLUS_LLRS)
def test_boxplus_symmetric_and_no_more_certain_than_either(a, b):
    ab = float(boxplus(a, b))
    assert ab == float(boxplus(b, a))
    assert abs(ab) <= min(abs(a), abs(b)) + 1e-9


@settings(max_examples=500, deadline=None)
@given(a=_NONZERO_LLRS, b=_NONZERO_LLRS)
def test_boxplus_sign_is_product_of_signs(a, b):
    assert np.sign(boxplus(a, b)) == np.sign(a) * np.sign(b)


@given(a=_BOXPLUS_LLRS)
def test_boxplus_with_an_erasure_is_zero(a):
    assert float(boxplus(0.0, a)) == 0.0
    assert float(boxplus(a, 0.0)) == 0.0


def _recording(decoder):
    """The batch decoder, keeping each stack it is handed in .seen."""
    def decode(Ld):
        decode.seen.append(np.array(Ld))
        return decoder(Ld)
    decode.seen = []
    return decode


def test_derivative_llr_pairs(ex_code, f16, inner_mld):
    """Row d of the cyclic loop's inner stack is the derivative LLR vector
    boxplus(L, L[pair(B[d])]) bit for bit, though the loop takes tanh once
    per position, so both positions of a pair hold it."""
    rng = np.random.default_rng(227)
    for _ in range(100):
        L = rng.normal(0.0, 4.0, size=16)
        inner = _recording(inner_mld)
        dd_decode_cyclic(L, ex_code, inner, N_max=1)
        (Ld,) = inner.seen
        for d, beta in enumerate(DirectionSet.all_of(f16)):
            perm = f16.pair_permutation(beta)
            assert np.array_equal(Ld[d], Ld[d][perm])
            assert np.array_equal(Ld[d], boxplus(L, L[perm]))


def test_derivative_llr_noiseless_signs(ex_code, f16, inner_mld):
    rng = np.random.default_rng(229)
    for _ in range(100):
        word = _random_codeword(rng, ex_code)
        inner = _recording(inner_mld)
        dd_decode_cyclic(7.0 * (1.0 - 2.0 * word), ex_code, inner, N_max=1)
        (Ld,) = inner.seen
        for d, beta in enumerate(DirectionSet.all_of(f16)):
            assert np.array_equal((Ld[d] < 0).astype(np.uint8),
                                  derivative_codeword(word, beta, f16))


def test_vote_roundtrip_on_clean_words(ex_code, inner_mld):
    """A correct derivative makes every partner vouch for its pair, so the
    averaged votes reproduce the LLRs they came from.  On a clean word of
    A(D(C)) outside C the exact inner decoder returns the true derivatives,
    and every iteration hands it the same stack."""
    asc = da_code(dd_code(ex_code))
    rng = np.random.default_rng(233)
    for _ in range(100):
        word = _random_codeword(rng, asc)
        if is_member(ex_code, word):
            continue
        inner = _recording(inner_mld)
        report = dd_decode_cyclic(5.0 * (1.0 - 2.0 * word), ex_code, inner,
                                  N_max=3)
        assert not report.converged
        first, *rest = inner.seen
        assert len(rest) == 2
        for Ld in rest:
            assert np.allclose(Ld, first)


def test_direction_sets(f16):
    allb = DirectionSet.all_of(f16)
    assert len(allb) == 15
    assert list(allb) == [int(x) for x in f16.antilog]
    assert f16.log[list(allb)].tolist() == list(range(15))
    sub = DirectionSet.random_subset(f16, 6, seed=9)
    assert len(sub) == 6
    assert len(set(sub.elements)) == 6
    assert 0 not in sub.elements
    assert sub.elements == DirectionSet.random_subset(f16, 6, seed=9).elements
    exps = f16.log[list(sub)].tolist()
    assert exps == sorted(exps)
    with pytest.raises(ValueError):
        DirectionSet.random_subset(f16, 16, seed=1)
    with pytest.raises(ValueError):
        DirectionSet((3, 3))
    with pytest.raises(ZeroDirectionError):
        DirectionSet((0, 1))
    assert DirectionSet([4, 2]).elements == (4, 2)   # the order given
    for raw in ([1, 2], np.array([1, 2]), (np.int8(1), 2)):
        built = DirectionSet(raw)
        assert built == DirectionSet((1, 2))
        assert hash(built) == hash(DirectionSet((1, 2)))
        assert all(type(b) is int for b in built)
    with pytest.raises(ValueError, match="a direction set must hold at "
                                         "least one direction"):
        DirectionSet(())
    # a bool used to pass as 0 or 1: (True, 2) built (1, 2), and
    # [False, 1] raised ZeroDirectionError
    for bad in (3, [1.0, 2.0], ["1"], [None], (True, 2), [False, 1]):
        with pytest.raises(TypeError, match="directions must be integers"):
            DirectionSet(bad)


@pytest.mark.parametrize("k", [True, 6.0, 2.5, "6", None, np.float64(6.0)])
def test_random_subset_rejects_a_k_that_is_not_an_integer(f16, k):
    with pytest.raises(ValueError, match="cannot draw .* of 15 directions"):
        DirectionSet.random_subset(f16, k, seed=9)


@pytest.mark.parametrize("seed", [-1, True, 1.5, "3", None])
def test_random_subset_rejects_a_seed_that_is_not_a_nonnegative_integer(
        f16, seed):
    with pytest.raises(ValueError, match=f"direction seed must be an integer "
                                         f">= 0, got {seed!r}"):
        DirectionSet.random_subset(f16, 6, seed)


def test_a_draw_of_every_direction_is_the_full_set(f16):
    """A label once told the two apart, so they built the same direction
    maps twice."""
    assert DirectionSet.random_subset(f16, 15, seed=4) == DirectionSet.all_of(f16)


def test_random_subset_accepts_numpy_integers(f16):
    assert DirectionSet.random_subset(f16, np.int64(6), seed=9).elements \
        == DirectionSet.random_subset(f16, 6, seed=9).elements


def test_flop_account_values():
    assert flop_account(1.03, 256, 32, 13912.0) == 500728
    assert flop_account(1.02, 256, 255, 13912.0) == 3951439
    assert flop_account(1, 16, 15, 0.0) == 1200


@pytest.fixture(scope="module")
def inner_mld(ex_code):
    return mld_batch_decoder(dd_code(ex_code).G)


@pytest.fixture(scope="module")
def inner_minimal_mld(ex_code, f16):
    T, _ = minimal_transversal(f16)
    return mld_batch_decoder(minimal_dd_basis(ex_code, 1).basis[:, T])


def test_cyclic_loop_noiseless(ex_code, inner_mld):
    rng = np.random.default_rng(239)
    for _ in range(20):
        word = _random_codeword(rng, ex_code)
        L = 6.0 * (1.0 - 2.0 * word)
        report = dd_decode_cyclic(L, ex_code, inner_mld)
        assert np.array_equal(report.bits, word)
        assert report.converged
        assert report.iterations == 1
        assert report.inner_iterations.shape == (1, 15)
        assert (report.inner_iterations == 1).all()


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


@pytest.mark.parametrize("kind", ["cyclic", "minimal"])
def test_outer_check_matrix_is_computed_once_per_code(f16, inner_mld,
                                                     inner_minimal_mld, kind,
                                                     monkeypatch):
    """The loop checks against a matrix built from C's dual basis and one
    check matrix of the inner code, the descendant's (cyclic) or the
    punctured direction-1 minimal descendant's (minimal): each is computed
    on the first decode only, and C's is kept read-only."""
    calls, inner_calls = [], []

    def counting(M, calls):
        calls.append(np.shape(M))
        return nullspace(M)
    monkeypatch.setattr(ddcodes.cyclic, "nullspace",
                        functools.partial(counting, calls=calls))
    monkeypatch.setattr(ddcodes.ddcodec, "nullspace",
                        functools.partial(counting, calls=inner_calls))
    loop, inner = ((dd_decode_cyclic, inner_mld) if kind == "cyclic"
                   else (dd_decode_minimal, inner_minimal_mld))
    spec = code_from_generator(f16, 0x1D1)
    rng = np.random.default_rng(263)
    frames = [_noisy_llrs(rng, _random_codeword(rng, spec), sigma2=0.8)
              for _ in range(2)]
    loop(frames[0], spec, inner)
    outer = [spec.G.shape] + ([dd_code(spec).G.shape] if kind == "cyclic"
                              else [])
    assert sorted(calls) == sorted(outer)
    assert len(inner_calls) == (kind == "minimal")
    calls.clear()
    inner_calls.clear()
    loop(frames[1], spec, inner)
    assert calls == inner_calls == []
    assert not spec.check_matrix.flags.writeable


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
    T, _ = minimal_transversal(f16)
    decoder = mld_batch_decoder(bases[f16.alpha_pow(0)][:, T])
    agree = 0
    for _ in range(50):
        word = _random_codeword(rng, ex_code)
        L = _noisy_llrs(rng, word, sigma2=0.8)
        report = dd_decode_minimal(L, ex_code, decoder, N_max=1)
        # direct per-direction reference
        votes = np.zeros((15, 16))
        for d, e in enumerate(range(15)):
            beta = f16.alpha_pow(e)
            Lp = L[f16.pair_permutation(beta)]
            a_hat = mld_exhaustive(bases[beta], boxplus(L, Lp))
            votes[d] = (1.0 - 2.0 * a_hat) * Lp
        L_ref = votes.mean(axis=0)
        assert np.array_equal(report.bits, (L_ref < 0).astype(np.uint8))
        agree += 1
    assert agree == 50


_SHIFT_FIELDS = {16: GF2m(4), 32: GF2m(5)}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_SHIFT_FIELDS)), st.data())
def test_minimal_loop_shift_identity(n, data):
    """Shifting a word b places turns its direction-alpha^b derivative into
    the direction-alpha^0 derivative of the shifted word, exactly: bit for
    bit, and value for value at the LLR level, for every b."""
    field = _SHIFT_FIELDS[n]
    b = data.draw(st.integers(0, field.n - 1), label="b")
    word = data.draw(arrays(np.uint8, n, elements=st.integers(0, 1)))
    L = data.draw(arrays(np.float64, n, elements=_BOXPLUS_LLRS))
    assert check_equivalence_shift(word, b, field)
    shift = field.shift_index(b)
    Ls = L[shift]
    lhs = boxplus(L, L[field.pair_permutation(field.alpha_pow(b))])[shift]
    assert np.array_equal(lhs, boxplus(Ls, Ls[field.pair_permutation(1)]))


@pytest.mark.parametrize("field", [GF2m(4), GF2m(5), GF2m(7)],
                         ids=lambda f: f"m={f.m}")
def test_minimal_transversal_is_one_position_per_pair(field):
    """T holds the smaller position of each pair {x, x + 1} in ascending
    order, and slot names every position's pair."""
    T, slot = minimal_transversal(field)
    partner = field.pair_permutation(1)
    assert len(T) == field.size // 2
    assert (np.diff(T) > 0).all() and (T < partner[T]).all()
    assert np.array_equal(np.sort(np.concatenate([T, partner[T]])),
                          np.arange(field.size))
    assert np.array_equal(slot[T], np.arange(len(T)))
    assert np.array_equal(slot[partner], slot)


def _ebch128():
    return code_from_generator(GF2m(7), 0xCCC3CDB5487A24FA5F3A3DD)


_PUNCTURE_CODES = {
    "(16,7)": lambda: code_from_generator(GF2m(4), 0x1D1),
    "RM(2,5)": lambda: code_from_exponents(GF2m(5),
                                           rm_exponent_set(2, 5).members),
    "eBCH(128,36)": _ebch128,
}


def _pair_constant_stacks(field, rng):
    """Half-length LLR stacks with many repeated magnitudes (and two where
    every |L| is equal), for the punctured and the full-length sort."""
    h = field.size // 2
    few = rng.choice([0.5, 1.25, 2.0], size=(12, h)) * rng.choice([-1, 1], (12, h))
    equal = 1.5 * rng.choice([-1.0, 1.0], size=(2, h))
    return np.concatenate([few, equal, np.zeros((1, h)),
                           np.round(rng.normal(0.0, 2.0, size=(8, h)), 1)])


@pytest.mark.parametrize("name", sorted(_PUNCTURE_CODES))
def test_punctured_reliability_bases_pick_the_same_pairs(name):
    """On a pair-constant stack, the most reliable basis of the punctured
    minimal basis is the full basis's, pair for pair, ties included: the
    full-length stable sort visits each pair's smaller position first, and
    the other one is a repeated column."""
    spec = _PUNCTURE_CODES[name]()
    T, slot = minimal_transversal(spec.field)
    basis = minimal_dd_basis(spec, 1).basis
    Lh = _pair_constant_stacks(spec.field, np.random.default_rng(307))
    M_full, piv_full = _reliability_bases(basis, Lh[:, slot])
    M_half, piv_half = _reliability_bases(basis[:, T], Lh)
    assert np.array_equal(T[piv_half], piv_full)
    assert np.array_equal(M_half, M_full[:, :, T])


def _recorded_frames(spec, seed, frames=12):
    """Seeded BPSK/AWGN frames of random codewords, half at 4 dB, half at 2."""
    rng = np.random.default_rng(seed)
    out = []
    for f in range(frames):
        ch = ChannelConfig(4.0 if f < frames // 2 else 2.0, spec.k / spec.n)
        out.append(transmit(_random_codeword(rng, spec), ch, rng))
    return out


@pytest.mark.parametrize("inner", ["ml", "osd1"])
@pytest.mark.parametrize("name", sorted(_PUNCTURE_CODES))
def test_half_length_minimal_loop_matches_full_length_reference(name, inner):
    """dd_decode_minimal with an inner decoder on the punctured basis gives
    the bits, iteration counts and flags of the full-length reference loop
    with the same kind of decoder on the whole minimal basis."""
    spec = _PUNCTURE_CODES[name]()
    T, _ = minimal_transversal(spec.field)
    basis = minimal_dd_basis(spec, 1).basis
    make = mld_batch_decoder if inner == "ml" else (
        lambda G: osd_batch_decoder(G, 1))
    half, full = make(basis[:, T]), make(basis)
    B = (DirectionSet.all_of(spec.field) if spec.n < 128
         else DirectionSet.random_subset(spec.field, 32, 2024))
    for L in _recorded_frames(spec, 311):
        rep = dd_decode_minimal(L, spec, half, B, N_max=4)
        bits, it, converged, tallies = _reference_minimal(L, spec, full, B, 4)
        assert np.array_equal(rep.bits, bits)
        assert (rep.iterations, rep.converged) == (it, converged)
        assert np.array_equal(rep.inner_iterations, tallies)


# sha256 of the reports of both loops with an ML inner decoder on seeded
# frames, recorded before the loop returned frames whose channel hard
# decision is already a codeword without an inner call, before it took tanh
# once per position, and before the ML closure scored every stack in Fortran
# order: none of these changed a bit, count or flag.  The cyclic case is the
# dd-ml-16 benchmark call.
_DD_ML_DIGESTS = {
    ("cyclic", "(16,7)", 3, (5.0, 3.0, 1.0), 400):
        "9f4adc2866e0eb1f14a8e8339af509a64854cc9b789eb53fcc8af86f4bac9841",
    ("minimal", "(16,7)", 4, (5.0, 3.0, 1.0), 400):
        "14c1ae75c2517dc04b7d842000327703a499cf81f98013120b46d6db08d4bcc6",
    ("minimal", "RM(2,5)", 4, (5.0, 3.0, 1.0), 200):
        "8304f70945cf48922bf8ad58efa3b0308bec3bfbb202d1db4f56be6c689e30d9",
}


@pytest.mark.parametrize("case", sorted(_DD_ML_DIGESTS),
                         ids=lambda c: f"{c[0]}-{c[1]}")
def test_dd_ml_output_is_frozen(case):
    """Bits, outer iterations, inner tallies and flags of each loop with an
    ML decoder for its descendant, on every direction: (kind, code, N_max,
    Eb/N0 points, frames per point)."""
    kind, name, N_max, snrs, frames = case
    spec = _PUNCTURE_CODES[name]()
    T, _ = minimal_transversal(spec.field)
    inner = mld_batch_decoder(dd_code(spec).G if kind == "cyclic"
                              else minimal_dd_basis(spec, 1).basis[:, T])
    B = DirectionSet.all_of(spec.field)
    digest = hashlib.sha256()
    rng = np.random.default_rng(20261019)
    for snr in snrs:
        ch = ChannelConfig(snr, spec.k / spec.n)
        for _ in range(frames):
            msg = rng.integers(0, 2, size=spec.k, dtype=np.uint8)
            rep = _LOOPS[kind][0](transmit(msg @ spec.G % 2, ch, rng), spec,
                                  inner, B, N_max)
            digest.update(np.asarray(rep.bits, dtype=np.uint8).tobytes())
            digest.update(np.array([rep.iterations, rep.converged],
                                   dtype=np.int64).tobytes())
            digest.update(rep.inner_iterations.astype(np.int64).tobytes())
    assert digest.hexdigest() == _DD_ML_DIGESTS[case]


@pytest.mark.parametrize("kind", ["cyclic", "minimal"])
def test_loops_reject_inner_bits_of_the_wrong_shape(kind, ex_code, f16):
    """A minimal loop handed a full-length decoder, or a cyclic loop handed
    a half-length one, used to vote with misread bits."""
    size = 16 if kind == "minimal" else 8

    def wrong(Ld):
        ones = np.ones(len(Ld), dtype=np.int64)
        return np.zeros((len(Ld), size), dtype=np.uint8), ones, ones > 0
    loop = dd_decode_minimal if kind == "minimal" else dd_decode_cyclic
    want = 8 if kind == "minimal" else 16
    with pytest.raises(ValueError, match=rf"inner decoder returned bits of "
                                         rf"shape \(15, {size}\) for a stack "
                                         rf"of shape \(15, {want}\)"):
        loop(np.ones(16), ex_code, wrong)


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


def _reference_cyclic(L, spec, dd_decoder, B, N_max):
    """The cyclic loop as it was written before the merge, kept as reference."""
    field = spec.field
    L = np.asarray(L, dtype=np.float64)
    Hd = spec.check_matrix.astype(np.int64)
    perms = np.stack([field.pair_permutation(b) for b in B.elements])
    Lcur = L.copy()
    hard = (Lcur < 0).astype(np.uint8)
    inner_tallies = []
    converged = False
    it = 0
    for it in range(1, N_max + 1):
        Lp = Lcur[perms]
        Ld = boxplus(Lcur[None, :], Lp)
        bits, inner_its, _ = dd_decoder(Ld)
        inner_tallies.append(np.asarray(inner_its, dtype=np.int64))
        votes = (1.0 - 2.0 * bits.astype(np.float64)) * Lp
        Lcur = votes.mean(axis=0)
        hard = (Lcur < 0).astype(np.uint8)
        if not (Hd @ hard % 2).any():
            converged = True
            break
    return hard, it, converged, np.stack(inner_tallies)


def _reference_minimal(L, spec, mdd_decoder, B, N_max):
    """The minimal loop as it was written before the merge, kept as reference."""
    field = spec.field
    L = np.asarray(L, dtype=np.float64)
    Hd = spec.check_matrix.astype(np.int64)
    shifts = [e if e > 0 else field.n for e in field.log[list(B)]]
    sidx = np.stack([field.shift_index(b) for b in shifts])
    perm1 = field.pair_permutation(1)
    Lcur = L.copy()
    hard = (Lcur < 0).astype(np.uint8)
    inner_tallies = []
    converged = False
    it = 0
    for it in range(1, N_max + 1):
        Ls = Lcur[sidx]
        Lp = Ls[:, perm1]
        Ld = boxplus(Ls, Lp)
        bits, inner_its, _ = mdd_decoder(Ld)
        inner_tallies.append(np.asarray(inner_its, dtype=np.int64))
        votes_shifted = (1.0 - 2.0 * bits.astype(np.float64)) * Lp
        # C order, so mean(axis=0) adds the directions one by one in B's
        # order, as the loop does: numpy sums an F-ordered array pairwise,
        # and a vote sum that cancels to 0 can round to either sign.
        votes = np.zeros(votes_shifted.shape)
        np.put_along_axis(votes, sidx, votes_shifted, axis=1)
        Lcur = votes.mean(axis=0)
        hard = (Lcur < 0).astype(np.uint8)
        if not (Hd @ hard % 2).any():
            converged = True
            break
    return hard, it, converged, np.stack(inner_tallies)


def _loop_cases():
    """(spec, kind, inner name) -> batch decoder, for two fields; the
    minimal kind's decoders work on the punctured minimal basis."""
    specs = {"(16,7)": code_from_generator(GF2m(4), 0x1D1),
             "RM(2,5)": code_from_exponents(GF2m(5),
                                            rm_exponent_set(2, 5).members)}
    cases = {}
    for name, spec in specs.items():
        T, _ = minimal_transversal(spec.field)
        inner_codes = {"cyclic": dd_code(spec).G,
                       "minimal": minimal_dd_basis(spec, 1).basis[:, T]}
        for kind, G in inner_codes.items():
            cases[name, kind, "ml"] = (spec, mld_batch_decoder(G))
            cases[name, kind, "osd1"] = (spec, osd_batch_decoder(G, 1))
    return cases


def _reference_minimal_punctured(L, spec, mdd_decoder, B, N_max):
    """_reference_minimal with a decoder for the punctured minimal basis:
    each full-length stack is cut to T, and the bits expand through slot."""
    T, slot = minimal_transversal(spec.field)

    def full_length(Ld):
        bits, its, conv = mdd_decoder(Ld[:, T])
        return bits[:, slot], its, conv
    return _reference_minimal(L, spec, full_length, B, N_max)


_LOOP_CASES = _loop_cases()
_LOOPS = {"cyclic": (dd_decode_cyclic, _reference_cyclic),
          "minimal": (dd_decode_minimal, _reference_minimal_punctured)}
# repeated magnitudes, erasures and saturated values, as derivative words have
_LLR_VALUES = st.one_of(
    st.sampled_from([0.0, 0.5, -0.5, 1.25, -1.25, 30.0, -30.0]),
    st.floats(-35.0, 35.0, allow_nan=False))


@settings(max_examples=150, deadline=None)
@given(case=st.sampled_from(sorted(_LOOP_CASES)), data=st.data())
def test_merged_loop_matches_reference_loops(case, data):
    """Both public loops give exactly the bits, iteration counts,
    convergence flags and inner tallies of the two loops they replaced."""
    name, kind, _ = case
    spec, inner = _LOOP_CASES[case]
    field = spec.field
    L = np.array(data.draw(st.lists(_LLR_VALUES, min_size=spec.n,
                                    max_size=spec.n)))
    if data.draw(st.booleans()):
        # a codeword's signs with a few flips, so that some loops converge
        msg = np.array(data.draw(st.lists(st.integers(0, 1), min_size=spec.k,
                                          max_size=spec.k)), dtype=np.uint8)
        flips = list(data.draw(st.sets(st.integers(0, spec.n - 1),
                                       max_size=3)))
        L = np.abs(L) * (1.0 - 2.0 * (msg @ spec.G % 2))
        L[flips] *= -1.0
    if data.draw(st.booleans()):
        B = DirectionSet.all_of(field)
    else:
        B = DirectionSet.random_subset(
            field, data.draw(st.integers(1, field.n)),
            data.draw(st.integers(0, 2**16)))
    N_max = data.draw(st.integers(1, 4))
    loop, reference = _LOOPS[kind]
    rep = loop(L, spec, inner, B, N_max)
    bits, it, converged, tallies = reference(L, spec, inner, B, N_max)
    assert np.array_equal(rep.bits, bits)
    assert (rep.iterations, rep.converged) == (it, converged)
    assert np.array_equal(rep.inner_iterations, tallies)


def _count_builds(monkeypatch):
    """A list that records every pair permutation, shift index and full
    direction set built from here on."""
    calls = []
    for attr in ("pair_permutation", "shift_index"):
        real = getattr(GF2m, attr)

        def counting(self, x, real=real, attr=attr):
            calls.append(attr)
            return real(self, x)
        monkeypatch.setattr(GF2m, attr, counting)
    real_all_of = DirectionSet.all_of.__func__

    def all_of(cls, field):
        calls.append("all_of")
        return real_all_of(cls, field)
    monkeypatch.setattr(DirectionSet, "all_of", classmethod(all_of))
    return calls


@pytest.mark.parametrize("kind", sorted(_LOOPS))
def test_direction_maps_are_built_once_per_field_and_set(kind, monkeypatch):
    """A second decode with the same (code, B) builds nothing, and no array
    of the cached plan can be written."""
    field = GF2m(4)
    spec = code_from_generator(field, 0x1D1)
    T, _ = minimal_transversal(field)
    inner = mld_batch_decoder(dd_code(spec).G if kind == "cyclic"
                              else minimal_dd_basis(spec, 1).basis[:, T])
    calls = _count_builds(monkeypatch)
    loop = _LOOPS[kind][0]
    rng = np.random.default_rng(283)
    B = DirectionSet.random_subset(field, 6, seed=4)
    L = _noisy_llrs(rng, _random_codeword(rng, spec), sigma2=0.8)
    loop(L, spec, inner, B)
    # minimal: a shift per direction, and minimal_transversal's direction 1
    assert len(calls) == (6 if kind == "cyclic" else 13)
    calls.clear()
    loop(L, spec, inner, DirectionSet.random_subset(field, 6, seed=4))
    loop(_noisy_llrs(rng, _random_codeword(rng, spec), 0.8), spec, inner, B)
    assert calls == []
    H, _, *maps = ddcodes.ddcodec._loop_plan(spec, B, kind)
    for a in (H, *maps):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 0


@pytest.mark.parametrize("kind", sorted(_LOOPS))
def test_all_directions_are_built_once_per_field(kind, monkeypatch, ex_code,
                                                 inner_mld, inner_minimal_mld):
    """B=None used to rebuild DirectionSet.all_of(field) on every call; two
    such calls now build nothing and decode as the explicit full set does."""
    field = ex_code.field
    inner = inner_mld if kind == "cyclic" else inner_minimal_mld
    loop = _LOOPS[kind][0]
    rng = np.random.default_rng(293)
    frames = [_noisy_llrs(rng, _random_codeword(rng, ex_code), sigma2=0.8)
              for _ in range(8)]
    explicit = [loop(L, ex_code, inner, DirectionSet.all_of(field))
                for L in frames]
    loop(frames[0], ex_code, inner)
    built = []
    real = DirectionSet.all_of.__func__

    def counting(cls, field):
        built.append(field)
        return real(cls, field)
    monkeypatch.setattr(DirectionSet, "all_of", classmethod(counting))
    for _ in range(2):
        for L, want in zip(frames, explicit):
            _same_report(loop(L, ex_code, inner), want)
    assert built == []
    assert fixed_space_dimension(ex_code, kind=kind) == fixed_space_dimension(
        ex_code, DirectionSet.all_of(field), kind)


@pytest.mark.parametrize("kind", sorted(_LOOPS))
def test_a_decode_makes_one_plan_lookup(kind, monkeypatch, ex_code, inner_mld,
                                        inner_minimal_mld):
    """After a first B=None decode, more decodes (one a codeword that exits
    before any inner call) and fixed_space_dimension build nothing, and
    each is one hit of the plan's cache."""
    inner = inner_mld if kind == "cyclic" else inner_minimal_mld
    loop = _LOOPS[kind][0]
    rng = np.random.default_rng(307)
    frames = [_noisy_llrs(rng, _random_codeword(rng, ex_code), sigma2=0.8)
              for _ in range(4)]
    frames.append(8.0 * (1.0 - 2.0 * _random_codeword(rng, ex_code)))
    loop(frames[0], ex_code, inner)
    calls = _count_builds(monkeypatch)
    info = ddcodes.ddcodec._build_loop_plan.cache_info
    before = info()
    for i, L in enumerate(frames, 1):
        loop(L, ex_code, inner)
        assert info().hits == before.hits + i
    fixed_space_dimension(ex_code, kind=kind)
    assert info().hits == before.hits + len(frames) + 1
    assert info().misses == before.misses
    assert calls == []


_BAD_LLRS = {
    "wrong length": np.ones(15),
    "all nan": np.full(16, np.nan),
    "nan": np.where(np.arange(16) == 3, np.nan, 1.0),
    "+inf": np.where(np.arange(16) == 5, np.inf, -1.0),
    "-inf": np.where(np.arange(16) == 0, -np.inf, 1.0),
}


@pytest.mark.parametrize("kind", sorted(_LOOPS))
@pytest.mark.parametrize("case", sorted(_BAD_LLRS))
def test_loops_reject_bad_llrs(kind, case, ex_code, inner_mld,
                               inner_minimal_mld):
    """NaN used to "converge" to the zero word, a short vector raised a bare
    IndexError, and an infinite value reached the votes unclipped."""
    inner = inner_mld if kind == "cyclic" else inner_minimal_mld
    with pytest.raises(ValueError, match="LLR input"):
        _LOOPS[kind][0](_BAD_LLRS[case], ex_code, inner)


@pytest.mark.parametrize("kind", sorted(_LOOPS))
@pytest.mark.parametrize("N_max", [-1, 2.5, True, "3"])
def test_loops_reject_bad_iteration_caps(kind, N_max, ex_code, inner_mld,
                                         inner_minimal_mld):
    """-1 used to return the channel hard decision at iteration 0, 2.5 a
    bare TypeError, and True counted as one iteration."""
    inner = inner_mld if kind == "cyclic" else inner_minimal_mld
    with pytest.raises(ValueError, match=f"N_max must be an integer >= 0, "
                                         f"got {N_max!r}"):
        _LOOPS[kind][0](np.ones(16), ex_code, inner, N_max=N_max)


@pytest.mark.parametrize("kind", sorted(_LOOPS))
@pytest.mark.parametrize("B", [[1, 2, 4], (1, 2)])
def test_loops_reject_directions_that_are_not_a_direction_set(
        kind, B, ex_code, inner_mld, inner_minimal_mld):
    """A list used to raise "unhashable type" and a tuple an AttributeError."""
    inner = inner_mld if kind == "cyclic" else inner_minimal_mld
    with pytest.raises(TypeError, match=f"B must be a DirectionSet or None, "
                                        f"got {type(B).__name__}"):
        _LOOPS[kind][0](np.r_[-1.0, np.ones(15)], ex_code, inner, B=B)


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(sorted(_LOOP_CASES)), data=st.data())
def test_loops_return_codewords_unchanged(case, data):
    """+-8 LLRs of a codeword come back as that codeword after one outer
    iteration: every derivative is a codeword of the inner code, so every
    vote repeats its position's own LLR."""
    _, kind, _ = case
    spec, inner = _LOOP_CASES[case]
    msg = np.array(data.draw(st.lists(st.integers(0, 1), min_size=spec.k,
                                      max_size=spec.k)), dtype=np.uint8)
    word = msg @ spec.G % 2
    rep = _LOOPS[kind][0](8.0 * (1.0 - 2.0 * word), spec, inner)
    assert np.array_equal(rep.bits, word)
    assert (rep.iterations, rep.converged) == (1, True)


def _exit_cases():
    """_LOOP_CASES plus SPA inner decoders with caps 0 and 20: the cyclic
    kind on the dd-spa parity matrix, the minimal kind on the checks of the
    punctured minimal basis."""
    cases = dict(_LOOP_CASES)
    for (name, kind, inner), (spec, _) in _LOOP_CASES.items():
        if inner != "ml":
            continue
        if kind == "cyclic":
            H = _dd_parity_matrix(spec)
        else:
            T, _ = minimal_transversal(spec.field)
            H = SparseParityMatrix.from_dense(
                nullspace(minimal_dd_basis(spec, 1).basis[:, T]))
        for cap in (0, 20):
            cases[name, kind, f"spa{cap}"] = (spec, spa_batch_decoder(H, cap))
    return cases


_EXIT_CASES = _exit_cases()
_FLOOR = ddcodes.ddcodec._EXIT_FLOOR
# magnitudes at and above the floor, and below it: underflowing box-plus
# values and erasures of either sign
_ABOVE_FLOOR = [30.0, 30.0, 30.0, 2.5, 1e-3, _FLOOR, np.nextafter(_FLOOR, 1.0)]
_BELOW_FLOOR = [np.nextafter(_FLOOR, 0.0), 1e-10, 1e-15, 1e-20, 1e-40, 5e-324,
                0.0, -0.0]


def _counting(decoder):
    """The batch decoder, counting its calls in .calls; functools.wraps
    copies its codeword_iterations."""
    @functools.wraps(decoder)
    def decode(Ld):
        decode.calls += 1
        return decoder(Ld)
    decode.calls = 0
    return decode


def _same_report(rep, other):
    assert np.array_equal(rep.bits, other.bits)
    assert (rep.iterations, rep.converged) == (other.iterations,
                                               other.converged)
    assert np.array_equal(rep.inner_iterations, other.inner_iterations)
    assert rep.inner_iterations.dtype == other.inner_iterations.dtype


@settings(max_examples=400, deadline=None)
@given(case=st.sampled_from(sorted(_EXIT_CASES)), data=st.data())
def test_codeword_frames_leave_before_any_inner_call(case, data):
    """A frame whose channel hard decision passes every check of C, with
    every |L| at or above the floor and N_max >= 1, makes no inner call and
    reports its hard decision, iteration 1, converged, and the decoder's
    codeword_iterations for every direction (0 for SPA with cap 0).  Every
    frame gets the report of the reference loops, which have no exit, and
    of the loop through a wrapper without the attribute."""
    _, kind, _ = case
    spec, inner = _EXIT_CASES[case]
    msg = np.array(data.draw(st.lists(st.integers(0, 1), min_size=spec.k,
                                      max_size=spec.k)), dtype=np.uint8)
    pool = _ABOVE_FLOOR + (_BELOW_FLOOR if data.draw(st.booleans()) else [])
    mags = np.array(data.draw(st.lists(st.sampled_from(pool),
                                       min_size=spec.n, max_size=spec.n)))
    L = mags * (1.0 - 2.0 * (msg @ spec.G % 2))
    flips = list(data.draw(st.sets(st.integers(0, spec.n - 1), max_size=1)))
    L[flips] *= -1.0
    field = spec.field
    if data.draw(st.booleans()):
        B = DirectionSet.all_of(field)
    else:
        B = DirectionSet.random_subset(
            field, data.draw(st.integers(1, field.n)),
            data.draw(st.integers(0, 2**16)))
    N_max = data.draw(st.integers(0, 4))
    loop, reference = _LOOPS[kind]
    counted = _counting(inner)
    rep = loop(L, spec, counted, B, N_max)
    # the loop itself without the exit: a wrapper without the attribute
    _same_report(rep, loop(L, spec, _recording(inner), B, N_max))
    hard = (L < 0).astype(np.uint8)
    exits = (N_max >= 1 and not (spec.check_matrix @ hard % 2).any()
             and np.abs(L).min() >= _FLOOR)
    assert (counted.calls == 0) == (exits or N_max == 0)
    if N_max:
        bits, it, converged, tallies = reference(L, spec, inner, B, N_max)
        assert np.array_equal(rep.bits, bits)
        assert (rep.iterations, rep.converged) == (it, converged)
        assert np.array_equal(rep.inner_iterations, tallies)
    if exits:
        assert np.array_equal(rep.bits, hard)
        assert (rep.iterations, rep.converged) == (1, True)
        assert rep.inner_iterations.tolist() == [
            [inner.codeword_iterations] * len(B)]
    event(f"exit {exits}")


@pytest.mark.parametrize("kind", sorted(_LOOPS))
def test_decoders_without_the_attribute_run_the_loop(kind, ex_code, inner_mld,
                                                     inner_minimal_mld):
    """An inner decoder that does not state codeword_iterations, such as a
    recording wrapper, is called on a clean codeword frame, and the report
    is the one the exit gives."""
    inner = inner_mld if kind == "cyclic" else inner_minimal_mld
    word = ex_code.G[0]
    L = 8.0 * (1.0 - 2.0 * word)
    recorded = _recording(inner)
    rep = _LOOPS[kind][0](L, ex_code, recorded)
    assert len(recorded.seen) == 1
    assert np.array_equal(rep.bits, word)
    assert (rep.iterations, rep.converged) == (1, True)
    assert (rep.inner_iterations == 1).all()


@pytest.mark.parametrize("tiny, exits", [(1e-20, False), (1e-3, True)])
def test_ml_correlation_ties_keep_tiny_codeword_frames_in_the_loop(
        ex_code, inner_mld, tiny, exits):
    """Row 0 of the (16, 7) generator with magnitude 30 on the even positions
    and `tiny` on the odd ones.  At 1e-20 the ML correlations of two
    descendant codewords round to a tie, argmax takes the earlier one, and
    the loop without the exit leaves the codeword, unconverged after three
    iterations.  The floor keeps that frame in the loop; at 1e-3 it exits
    with the report the loop gives."""
    word = ex_code.G[0]
    L = np.where(np.arange(16) % 2 == 0, 30.0, tiny) * (1.0 - 2.0 * word)
    B = DirectionSet.all_of(ex_code.field)
    bits, it, converged, tallies = _reference_cyclic(L, ex_code, inner_mld,
                                                     B, 3)
    assert np.array_equal(bits, word) == exits
    assert converged == exits
    counted = _counting(inner_mld)
    rep = dd_decode_cyclic(L, ex_code, counted, B, 3)
    assert (counted.calls == 0) == exits
    _same_report(rep, dd_decode_cyclic(L, ex_code, _recording(inner_mld), B, 3))
    assert np.array_equal(rep.bits, bits)
    assert (rep.iterations, rep.converged) == (it, converged)
    assert np.array_equal(rep.inner_iterations, tallies)


def _fixed_words_by_enumeration(spec, kind):
    """The words h of length 16 whose derivative in every direction beta is
    a codeword of the inner code: D(C) for the cyclic loop, the span of
    minimal_dd_basis(spec, beta) for the minimal one."""
    field = spec.field
    words = ((np.arange(1 << 16)[:, None] >> np.arange(16)) & 1).astype(np.uint8)
    fixed = np.ones(len(words), dtype=bool)
    for beta in DirectionSet.all_of(field):
        G_in = (dd_code(spec).G if kind == "cyclic"
                else minimal_dd_basis(spec, beta).basis)
        D = words ^ words[:, field.pair_permutation(beta)]
        fixed &= ~(D.astype(np.int64) @ nullspace(G_in).T % 2).any(axis=1)
    return words[fixed]


_F16_FIXED_DIMS = {"eBCH(16,5)": (lambda: ebch_code(GF2m(4), 5), 5, 5),
                   "(16,7) 0x1d1": (lambda: code_from_generator(GF2m(4), 0x1D1),
                                    11, 7),
                   "eBCH(16,11)": (lambda: ebch_code(GF2m(4), 11), 11, 11)}


@pytest.mark.parametrize("name", sorted(_F16_FIXED_DIMS))
def test_fixed_space_dimension_matches_enumeration(name):
    """Counted over all 2^16 words: the fixed words of each loop form a
    space of the dimension fixed_space_dimension gives (cyclic, minimal)."""
    make, *dims = _F16_FIXED_DIMS[name]
    spec = make()
    for kind, dim in zip(("cyclic", "minimal"), dims):
        words = _fixed_words_by_enumeration(spec, kind)
        assert len(words) == 1 << dim
        assert fixed_space_dimension(spec, kind=kind) == dim
        H, r, *_ = ddcodes.ddcodec._loop_plan(
            spec, DirectionSet.all_of(spec.field), kind)
        assert not (words.astype(np.int64) @ H[:r].T % 2).any()


@pytest.mark.parametrize("k, cyclic, minimal", [(11, 16, 16), (16, 16, 16),
                                                (21, 26, 21), (26, 26, 26)])
def test_fixed_space_dimensions_of_the_length_32_ebch_codes(k, cyclic,
                                                            minimal):
    spec = ebch_code(GF2m(5), k)
    assert fixed_space_dimension(spec) == cyclic
    assert fixed_space_dimension(spec, None, "minimal") == minimal


def _ebch_codes(ms):
    for m in ms:
        field = GF2m(m)
        n = field.n
        dims = {n - len(coset_closure(range(1, d), n)) for d in range(2, n + 1)}
        for k in sorted(dims - {1}):
            yield ebch_code(field, k)


@pytest.mark.parametrize("spec", list(_ebch_codes((4, 5, 6))), ids=repr)
def test_cyclic_fixed_space_is_the_derivative_ascendant(spec):
    """Over all directions, the cyclic loop's fixed space is A(D(C)), and
    the loop's matrix is a check matrix of C with that space's checks
    first."""
    H, r, *_ = ddcodes.ddcodec._loop_plan(
        spec, DirectionSet.all_of(spec.field), "cyclic")
    assert not H.flags.writeable
    assert len(H) == spec.n - spec.k
    assert not (spec.G.astype(np.int64) @ H.T % 2).any()
    assert rank(H) == len(H)
    assert row_spaces_equal(nullspace(H[:r]), da_code(dd_code(spec)).G)


def _reference_fixed_space_checks(spec, B, kind):
    """The fixed-space check matrix built as the first builder did: one
    full-length inner check matrix per direction (the minimal one by its
    own null space), and the whole stack eliminated after each direction."""
    n, dual = spec.n, spec.n - spec.k
    R, pivots = np.zeros((0, n), dtype=np.uint8), []
    for beta in B:
        P = spec.field.pair_permutation(beta)
        H_in = (dd_code(spec).check_matrix if kind == "cyclic"
                else nullspace(spec.G ^ spec.G[:, P]))
        R, pivots = rref(np.vstack([R, H_in ^ H_in[:, P]]))
        if len(R) == dual:
            return spec.check_matrix, dual
    # uint8 wraps mod 256, so the matmul keeps the parity of each sum
    rest = spec.check_matrix ^ (spec.check_matrix[:, pivots] @ R % 2)
    return np.vstack([R, rref(rest)[0]]), len(R)


@pytest.mark.parametrize(
    "spec", [code_from_generator(GF2m(4), 0x1D1), *_ebch_codes((4, 5, 6))],
    ids=repr)
def test_fixed_space_checks_match_the_per_direction_construction(spec):
    """One inner check matrix carried into every direction, with each block
    reduced before elimination, gives the same (H, r) as a per-direction
    construction, for both kinds on all directions and two subsets."""
    field = spec.field
    for B in (DirectionSet.all_of(field),
              DirectionSet.random_subset(field, 3, seed=5),
              DirectionSet.random_subset(field, field.n // 2, seed=6)):
        for kind in ("cyclic", "minimal"):
            H, r, *_ = ddcodes.ddcodec._loop_plan(spec, B, kind)
            H_ref, r_ref = _reference_fixed_space_checks(spec, B, kind)
            assert r == r_ref
            assert np.array_equal(H, H_ref)


def test_fixed_space_dimension_rejects_bad_arguments(ex_code):
    """Checked before the plan's cache is reached, which would raise
    "unhashable type" for a list and cache a plan for an unknown kind."""
    cached = ddcodes.ddcodec._build_loop_plan.cache_info().currsize
    for kind in ("ml", "bad"):
        with pytest.raises(ValueError, match=f"kind must be 'cyclic' or "
                                             f"'minimal', got '{kind}'"):
            fixed_space_dimension(ex_code, kind=kind)
    with pytest.raises(TypeError, match="B must be a DirectionSet or None, "
                                        "got list"):
        fixed_space_dimension(ex_code, [1, 2])
    assert ddcodes.ddcodec._build_loop_plan.cache_info().currsize == cached


def _stall_cases():
    """Codes whose loop has a fixed space larger than C, with ML, OSD-1 and
    SPA inner decoders (caps 0 and 20): (code, kind, inner) -> (spec,
    decoder)."""
    specs = {"(16,7)": code_from_generator(GF2m(4), 0x1D1),
             "eBCH(32,21)": ebch_code(GF2m(5), 21),
             "eBCH(32,11)": ebch_code(GF2m(5), 11)}
    cases = {}
    for name, kinds in (("(16,7)", ["cyclic"]), ("eBCH(32,21)", ["cyclic"]),
                        ("eBCH(32,11)", ["cyclic", "minimal"])):
        spec = specs[name]
        T, _ = minimal_transversal(spec.field)
        for kind in kinds:
            if kind == "cyclic":
                G, H = dd_code(spec).G, _dd_parity_matrix(spec)
            else:
                G = minimal_dd_basis(spec, 1).basis[:, T]
                H = SparseParityMatrix.from_dense(nullspace(G))
            cases[name, kind, "ml"] = (spec, mld_batch_decoder(G))
            cases[name, kind, "osd1"] = (spec, osd_batch_decoder(G, 1))
            for cap in (0, 20):
                cases[name, kind, f"spa{cap}"] = (spec,
                                                  spa_batch_decoder(H, cap))
    return cases


_STALL_CASES = _stall_cases()
# the floor, its neighbour above and two larger magnitudes
_STALL_ABOVE = [30.0, 2.5, _FLOOR, np.nextafter(_FLOOR, 1.0)]


def _in_fixed_space(spec, kind, B, h):
    """Whether every derivative of h in B is a codeword of the inner code,
    tested direction by direction on the inner code's own checks."""
    for beta in B:
        G_in = (dd_code(spec).G if kind == "cyclic"
                else minimal_dd_basis(spec, beta).basis)
        d = h ^ h[spec.field.pair_permutation(beta)]
        if (nullspace(G_in).astype(np.int64) @ d % 2).any():
            return False
    return True


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from(sorted(_STALL_CASES)), data=st.data())
def test_fixed_space_exit_matches_the_reference_loops(case, data):
    """Frames on words of the loop's fixed space outside C, at magnitudes
    around the floor, above it and far below it, some with a flipped
    position or two: each loop
    gives the bits, iteration count, flag and inner tallies of the
    reference loop, which has no exit.  A frame whose channel hard decision
    lies in the fixed space outside C, at or above the floor, makes no
    inner call."""
    _, kind, _ = case
    spec, inner = _STALL_CASES[case]
    field = spec.field
    if data.draw(st.booleans()):
        B = DirectionSet.all_of(field)
    else:
        B = DirectionSet.random_subset(
            field, data.draw(st.integers(1, field.n)),
            data.draw(st.integers(0, 2**16)))
    H, r, *_ = ddcodes.ddcodec._loop_plan(
        spec, DirectionSet.all_of(field), kind)
    basis = nullspace(H[:r])
    coeffs = np.array(data.draw(st.lists(st.integers(0, 1),
                                         min_size=len(basis),
                                         max_size=len(basis))), dtype=np.uint8)
    word = coeffs @ basis % 2
    pool = _STALL_ABOVE + (_BELOW_FLOOR if data.draw(st.booleans()) else [])
    mags = np.array(data.draw(st.lists(st.sampled_from(pool),
                                       min_size=spec.n, max_size=spec.n)))
    L = mags * (1.0 - 2.0 * word)
    if data.draw(st.booleans()):
        L[list(data.draw(st.sets(st.integers(0, spec.n - 1), min_size=1,
                                 max_size=2)))] *= -1.0
    N_max = data.draw(st.integers(0, 4))
    loop, reference = _LOOPS[kind]
    counted = _counting(inner)
    rep = loop(L, spec, counted, B, N_max)
    hard = (L < 0).astype(np.uint8)
    in_code = not (spec.check_matrix @ hard % 2).any()
    stalled = (not in_code and np.abs(L).min() >= _FLOOR
               and _in_fixed_space(spec, kind, B, hard))
    if stalled:
        assert counted.calls == 0
    if N_max:
        bits, it, converged, tallies = reference(L, spec, inner, B, N_max)
    else:
        bits, it, converged, tallies = hard, 0, False, np.zeros((0, len(B)))
    assert np.array_equal(rep.bits, bits)
    assert (rep.iterations, rep.converged) == (it, converged)
    assert np.array_equal(rep.inner_iterations, tallies)
    assert rep.inner_iterations.dtype == np.int64
    event("exit before any inner call" if stalled
          else "exit after an inner call" if counted.calls < it
          else "no exit")


@pytest.mark.parametrize("tiny, exits", [(1e-20, False), (1e-3, True)])
def test_ml_correlation_ties_keep_tiny_stalled_frames_in_the_loop(
        ex_code, inner_mld, tiny, exits):
    """Row 1 of the A(D(C)) generator, a word outside the (16, 7) code,
    with magnitude 30 on the even positions and `tiny` on the odd ones.  At
    1e-20 ML correlation ties take the loop off that word, and it converges
    to a codeword at iteration 2; the floor keeps the frame in the loop.  At
    1e-3 it leaves before any inner call with the report the loop gives: the
    word, N_max, unconverged."""
    word = da_code(dd_code(ex_code)).G[1]
    assert not is_member(ex_code, word)
    L = np.where(np.arange(16) % 2 == 0, 30.0, tiny) * (1.0 - 2.0 * word)
    B = DirectionSet.all_of(ex_code.field)
    bits, it, converged, tallies = _reference_cyclic(L, ex_code, inner_mld,
                                                     B, 3)
    assert (np.array_equal(bits, word), it, converged) == (
        (True, 3, False) if exits else (False, 2, True))
    counted = _counting(inner_mld)
    rep = dd_decode_cyclic(L, ex_code, counted, B, 3)
    assert (counted.calls == 0) == exits
    assert np.array_equal(rep.bits, bits)
    assert (rep.iterations, rep.converged) == (it, converged)
    assert np.array_equal(rep.inner_iterations, tallies)


@pytest.mark.parametrize("cap", [0, 20])
def test_frames_that_reach_the_fixed_space_leave_it_at_once(ex_code, cap):
    """A word of A(D(C)) outside the (16, 7) code at magnitude 2.5, one
    position at 1e-20: below the floor, so the loop makes its first inner
    call.  The votes lift every |L| above the floor, and the loop leaves
    after that one call with the rows the two it skipped would give: SPA's
    codeword_iterations, 0 with cap 0 and 1 with cap 20."""
    word = da_code(dd_code(ex_code)).G[1]
    L = np.where(np.arange(16) == 3, 1e-20, 2.5) * (1.0 - 2.0 * word)
    inner = spa_batch_decoder(_dd_parity_matrix(ex_code), cap)
    B = DirectionSet.all_of(ex_code.field)
    counted = _counting(inner)
    rep = dd_decode_cyclic(L, ex_code, counted, B, 3)
    assert counted.calls == 1
    assert np.array_equal(rep.bits, word)
    assert (rep.iterations, rep.converged) == (3, False)
    assert rep.inner_iterations.tolist() == [[min(cap, 1)] * 15] * 3
    bits, it, converged, tallies = _reference_cyclic(L, ex_code, inner, B, 3)
    assert np.array_equal(rep.bits, bits)
    assert (rep.iterations, rep.converged) == (it, converged)
    assert np.array_equal(rep.inner_iterations, tallies)
