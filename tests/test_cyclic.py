"""Tests for spectra, exponent sets, extended cyclic codes, and bounds."""

from __future__ import annotations

import math

import numpy as np
import pytest

from ddcodes.cyclic import (
    CodeSpec,
    DimensionTooLargeError,
    ExponentSet,
    NonBinaryResultError,
    NotADivisorError,
    NotClosedUnderDoublingError,
    anf_coefficients,
    bch_bound,
    code_from_exponents,
    code_from_generator,
    cyclic_shift,
    ebch_code,
    exponent_set_from_generator,
    extend_cyclic,
    generator_from_exponent_set,
    is_member,
    min_distance_exhaustive,
    ms_evaluate,
    ms_transform,
    rm_exponent_set,
    rm_membership,
)
from ddcodes.derivative import cyclic_dd
from ddcodes.gf2 import rank
from ddcodes.gf2m import GF2m, coset_closure, cyclotomic_coset


EX_GEN = 0x1D1  # 1 + x^4 + x^6 + x^7 + x^8 over GF(16)


@pytest.fixture(scope="module")
def f16():
    return GF2m(4)


@pytest.fixture(scope="module")
def ex_code(f16):
    return code_from_generator(f16, EX_GEN)


def _spectrum_oracle(word, field):
    """A_j = a(alpha^{-j}) evaluated term by term."""
    n = len(word)
    out = []
    for j in range(n):
        acc = 0
        for i, bit in enumerate(word):
            if bit:
                acc ^= field.alpha_pow((-j * i) % n)
        out.append(acc)
    return out


def _random_codeword(rng, spec):
    coeffs = rng.integers(0, 2, size=spec.k).astype(np.uint8)
    return (coeffs @ spec.G) % 2


def test_exponent_set_validation():
    S = ExponentSet(15, {0, 1, 2, 4, 5, 8, 10})
    assert S.dimension == 7
    assert S.representatives() == [0, 1, 5]
    with pytest.raises(NotClosedUnderDoublingError):
        ExponentSet(15, {1})
    # members are residues mod n
    assert ExponentSet(15, {15}).members == frozenset({0})


def test_exponent_set_from_generator(f16):
    S = exponent_set_from_generator(EX_GEN, f16)
    assert S.members == frozenset({0, 1, 2, 4, 5, 8, 10})
    with pytest.raises(NotADivisorError):
        exponent_set_from_generator(0b101, f16)  # (x+1)^2 does not divide x^15-1


def _every_coset_closed_set(n):
    """Every doubling-closed subset of [n]: each union of cyclotomic cosets."""
    cosets = sorted({cyclotomic_coset(s, n) for s in range(n)}, key=min)
    for mask in range(1 << len(cosets)):
        yield ExponentSet(n, set().union(
            *(c for i, c in enumerate(cosets) if (mask >> i) & 1)))


def test_generator_roundtrip(f16):
    S = exponent_set_from_generator(EX_GEN, f16)
    assert generator_from_exponent_set(S, f16) == EX_GEN
    # roundtrip from every coset-closed subset of the fields with n = 7, 15,
    # 31, and from every eBCH code and its descendant with n = 63, 127, 255
    sets = [(GF2m(m), S) for m in (3, 4, 5)
            for S in _every_coset_closed_set((1 << m) - 1)]
    for m in (6, 7, 8):
        field = GF2m(m)
        n = field.n
        for k in sorted({n - len(coset_closure(range(1, d), n))
                         for d in range(2, n + 1)}):
            S = ebch_code(field, k).exponents
            sets += [(field, S), (field, cyclic_dd(S))]
    for field, S in sets:
        g = generator_from_exponent_set(S, field)
        assert g.bit_length() - 1 == field.n - S.dimension
        assert exponent_set_from_generator(g, field).members == S.members


def test_generator_matrix_structure(ex_code):
    G = ex_code.G
    assert G.shape == (7, 16)
    assert rank(G) == 7
    for row in G:
        assert is_member(ex_code, row)
        assert row.sum() % 2 == 0  # extension bit completes the parity


def test_ms_transform_matches_direct_evaluation(f16):
    rng = np.random.default_rng(43)
    for m in (3, 4, 6):
        field = GF2m(m)
        for _ in range(20):
            word = rng.integers(0, 2, size=field.n).astype(np.uint8)
            assert ms_transform(word, field) == _spectrum_oracle(word, field)


def test_ms_conjugacy_symmetry(f16):
    rng = np.random.default_rng(47)
    for _ in range(100):
        word = rng.integers(0, 2, size=15).astype(np.uint8)
        A = ms_transform(word, f16)
        for j in range(15):
            assert A[(2 * j) % 15] == f16.mul(A[j], A[j])


def test_ms_inversion_roundtrip():
    rng = np.random.default_rng(53)
    for m in (3, 4, 5):
        field = GF2m(m)
        for _ in range(50):
            word = rng.integers(0, 2, size=field.n).astype(np.uint8)
            back = ms_evaluate(ms_transform(word, field), field, extended=True)
            assert np.array_equal(back[1:], word)
            assert back[0] == word.sum() % 2  # extension bit is A_0


def test_ms_evaluate_rejects_non_binary_spectra(f16):
    # A_1 = alpha without A_2 = alpha^2 breaks the conjugacy constraint
    spectrum = [0] * 15
    spectrum[1] = f16.alpha_pow(1)
    with pytest.raises(NonBinaryResultError):
        ms_evaluate(spectrum, f16)


def test_ms_transform_follows_the_given_field():
    """The spectrum depends on the primitive polynomial, so the field is
    always passed: over x^4 + x^3 + 1 it differs from the default field's."""
    rng = np.random.default_rng(59)
    other = GF2m(4, 0b11001)
    word = rng.integers(0, 2, size=15).astype(np.uint8)
    A = ms_transform(word, other)
    assert A == _spectrum_oracle(word, other)
    assert A != ms_transform(word, GF2m(4))
    assert np.array_equal(ms_evaluate(A, other)[1:], word)


def test_ms_shift_theorem(f16):
    """Cyclic left shift by b multiplies the j-th coefficient by alpha^{bj}."""
    rng = np.random.default_rng(61)
    for _ in range(50):
        word = rng.integers(0, 2, size=15).astype(np.uint8)
        b = int(rng.integers(0, 15))
        A = ms_transform(word, f16)
        shifted = np.roll(word, -b)
        A_shift = ms_transform(shifted, f16)
        for j in range(15):
            assert A_shift[j] == f16.mul(f16.alpha_pow(b * j), A[j])


def test_codeword_spectrum_support(ex_code):
    rng = np.random.default_rng(67)
    S = ex_code.exponents.members
    for _ in range(100):
        word = _random_codeword(rng, ex_code)
        A = ms_transform(word[1:], ex_code.field)
        assert {j for j, v in enumerate(A) if v} <= S
        assert word[0] == A[0]


def test_extend_and_shift():
    word = np.arange(7) % 2
    ext = extend_cyclic(word)
    assert ext[0] == word.sum() % 2
    assert np.array_equal(ext[1:], word)
    ext2 = cyclic_shift(ext, 3)
    assert ext2[0] == ext[0]
    assert np.array_equal(ext2[1:], np.roll(ext[1:], -3))
    assert np.array_equal(cyclic_shift(cyclic_shift(ext, 3), -3), ext)
    assert np.array_equal(cyclic_shift(ext, 7), ext)


def test_shifted_codewords_stay_in_code(ex_code):
    rng = np.random.default_rng(71)
    for _ in range(50):
        word = extend_cyclic(_random_codeword(rng, ex_code)[1:])
        b = int(rng.integers(0, 15))
        assert is_member(ex_code, cyclic_shift(word, b))


def test_is_member_rejects_near_codewords(ex_code):
    rng = np.random.default_rng(73)
    for _ in range(50):
        word = _random_codeword(rng, ex_code)
        pos = int(rng.integers(0, 16))
        bad = word.copy()
        bad[pos] ^= 1
        assert not is_member(ex_code, bad)  # distance 6 > 1


def test_subcode_inclusion(f16, ex_code):
    # the first-order length-16 code's exponent set is inside the example's
    sub = code_from_exponents(f16, rm_exponent_set(1, 4).members)
    rng = np.random.default_rng(79)
    for _ in range(30):
        word = _random_codeword(rng, sub)
        assert is_member(ex_code, word)


def test_bch_bound_values(f16):
    assert bch_bound(ExponentSet(15, {0, 1, 2, 4, 5, 8, 10})) == 6
    assert bch_bound(ExponentSet(15, {0, 1, 2, 4, 5, 8, 10}), extended=False) == 5
    assert bch_bound(ExponentSet(15, {0})) == 16  # repetition
    assert bch_bound(ExponentSet(15, set(range(15)))) == 1  # nothing absent
    f64 = GF2m(6)
    assert bch_bound(ebch_code(f64, 45).exponents) == 8
    assert bch_bound(ebch_code(f64, 24).exponents) == 16


def test_min_distance_values(f16, ex_code):
    assert min_distance_exhaustive(ex_code) == 6
    rm14 = code_from_exponents(f16, rm_exponent_set(1, 4).members)
    assert min_distance_exhaustive(rm14) == 8
    with pytest.raises(DimensionTooLargeError):
        min_distance_exhaustive(ebch_code(GF2m(6), 45))


def test_min_distance_accepts_matrices():
    G = np.array([[1, 1, 1, 1, 0, 0],
                  [0, 0, 1, 1, 1, 1]], dtype=np.uint8)
    assert min_distance_exhaustive(G) == 4


def test_min_distance_skips_zero_words_of_dependent_rows(ex_code):
    G = ex_code.G
    repeated = np.vstack([G, G[3]])
    zero_row = np.vstack([G[:2], np.zeros_like(G[:1]), G[2:]])
    assert min_distance_exhaustive(repeated) == 6
    assert min_distance_exhaustive(zero_row) == 6
    assert min_distance_exhaustive(np.vstack([G[0], G[0]])) == G[0].sum()
    # no nonzero word at all: reported as the length plus one
    assert min_distance_exhaustive(np.zeros((2, 16), dtype=np.uint8)) == 17


def test_ebch_construction(f16):
    spec = ebch_code(f16, 7)
    assert spec.gen_poly == EX_GEN
    assert spec.k == 7
    f64 = GF2m(6)
    assert ebch_code(f64, 45).k == 45
    assert ebch_code(f64, 24).k == 24
    with pytest.raises(ValueError):
        ebch_code(f16, 6)  # no narrow-sense code of that dimension


def test_bch_bound_never_exceeds_true_distance(f16):
    """The bound must stay below the exhaustive distance on every small code."""
    f8 = GF2m(3)
    for field in (f8, f16):
        cosets = []
        seen = set()
        for s in range(field.n):
            c = coset_closure({s}, field.n)
            if c not in cosets:
                cosets.append(c)
        for mask in range(1, 1 << len(cosets)):
            members = set()
            for i, c in enumerate(cosets):
                if (mask >> i) & 1:
                    members |= c
            if not 0 < len(members) <= 12:
                continue
            spec = code_from_exponents(field, members)
            assert bch_bound(spec.exponents) <= min_distance_exhaustive(spec)


def test_rm_exponent_sets():
    S = rm_exponent_set(1, 4)
    assert S.members == frozenset({0, 1, 2, 4, 8})
    for m in range(2, 7):
        for r in range(m):
            size = sum(math.comb(m, i) for i in range(r + 1))
            assert rm_exponent_set(r, m).dimension == size
    with pytest.raises(ValueError):
        rm_exponent_set(4, 4)
    with pytest.raises(ValueError):
        rm_exponent_set(-1, 4)


def test_anf_roundtrip_and_membership():
    rng = np.random.default_rng(83)
    for m in (3, 4, 5):
        size = 1 << m
        for _ in range(50):
            table = rng.integers(0, 2, size=size).astype(np.uint8)
            # the Moebius transform is an involution
            assert np.array_equal(anf_coefficients(anf_coefficients(table)), table)
    # a function with a degree-r monomial is order r but not order r-1
    for m in (4, 5):
        size = 1 << m
        for r in range(1, m):
            coeffs = np.zeros(size, dtype=np.uint8)
            coeffs[(1 << r) - 1] = 1  # monomial of exactly r variables
            table = anf_coefficients(coeffs)
            assert rm_membership(table, r)
            assert not rm_membership(table, r - 1)


def test_codewords_of_weight_formula_codes_are_low_degree():
    """Words with spectrum support in {wt <= r} are degree-r truth tables."""
    rng = np.random.default_rng(89)
    f16 = GF2m(4)
    for r in (1, 2, 3):
        spec = code_from_exponents(f16, rm_exponent_set(r, 4).members)
        for _ in range(30):
            word = (rng.integers(0, 2, size=spec.k).astype(np.uint8) @ spec.G) % 2
            # reorder positions by field element to obtain a truth table
            table = np.empty(16, dtype=np.uint8)
            table[f16.elem_at_pos] = word
            assert rm_membership(table, r)


def test_exponent_set_rejects_non_integer_lengths_and_members():
    for n in (0, -15, 15.0, True, "15"):
        with pytest.raises(ValueError, match="length n=.* is not an integer >= 1"):
            ExponentSet(n, [])
    # a bool is not an integer: True would otherwise be read as the member 1
    with pytest.raises(ValueError, match="exponent True is not an integer"):
        ExponentSet(15, [True, 2, 4, 8])
    # 1.5 must not be truncated to 1 and then blamed on the missing 2
    with pytest.raises(ValueError, match="exponent 1.5 is not an integer"):
        ExponentSet(15, [1.5])
    with pytest.raises(ValueError, match="exponent 1.0 is not an integer"):
        ExponentSet(15, np.array([1.0, 2.0, 4.0, 8.0]))
    assert ExponentSet(np.int64(15), [np.int32(1), 2, 4, 8]).members == {1, 2, 4, 8}


def test_exponent_set_equality_hash_and_immutability():
    from_list = ExponentSet(15, [1, 2, 4, 8])
    from_set = ExponentSet(15, {8, 4, 2, 1})
    from_residues = ExponentSet(15, [16, 2, 19, 8])   # 16 = 1, 19 = 4 mod 15
    assert from_list == from_set == from_residues
    assert len({hash(from_list), hash(from_set), hash(from_residues)}) == 1
    assert len({from_list, from_set, from_residues}) == 1
    assert from_list != ExponentSet(31, [1, 2, 4, 8, 16])
    assert from_list != ExponentSet(15, [1, 2, 4, 8, 0])
    assert repr(from_residues) == "ExponentSet(n=15, k=4, reps=[1])"
    assert list(from_residues) == [1, 2, 4, 8] and len(from_residues) == 4
    assert 16 in from_residues and 3 not in from_residues
    with pytest.raises(AttributeError):
        from_list.n = 31
    with pytest.raises(AttributeError):
        from_list.members = frozenset()


def test_ebch_code_rejects_dimensions_outside_0_to_n(f16):
    # a negative k used to search designed distances forever
    for k in (-1, -2, 16, True, 7.0, "7"):
        with pytest.raises(ValueError, match=r"dimension k=.* is not an integer in 0\.\.15"):
            ebch_code(f16, k)
    assert ebch_code(f16, np.int64(7)).gen_poly == EX_GEN


def test_code_from_exponents_rejects_a_set_of_another_length(f16):
    # used to build a (16, 1) code whose exponent set had length 7
    with pytest.raises(ValueError, match="length 7 .* length 15"):
        code_from_exponents(f16, ExponentSet(7, [0]))
    with pytest.raises(ValueError, match="length 31 .* length 15"):
        generator_from_exponent_set(ExponentSet(31, [0]), f16)


def test_ms_routines_reject_values_outside_their_alphabet(f16, ex_code):
    zero = [0] * 15
    for A, bad in ((16, "16"), (1.5, "1.5"), (-1, "-1"), (True, "True")):
        for j in (0, 3):
            spectrum = zero[:j] + [A] + zero[j + 1:]
            with pytest.raises(ValueError, match=rf"A_{j} = {bad} is not an integer in 0\.\.15"):
                ms_evaluate(spectrum, f16)
    for v in (2, -1, 0.5):
        word = zero[:4] + [v] + zero[5:]
        with pytest.raises(ValueError, match="cyclic word is not binary: a_4 = "):
            ms_transform(word, f16)
    # a 2 used to be read as a 1, giving the all-ones spectrum
    with pytest.raises(ValueError, match="a_0 = 2"):
        ms_transform([2] + zero[1:], f16)
    # is_member answers False, not an error, for every such word
    row = ex_code.G[0].astype(np.int64)
    one = int(np.flatnonzero(row[1:])[0]) + 1
    assert is_member(ex_code, row)
    for v in (2, 3, -1, 0.5, 1.5):
        word = row.astype(float)
        word[one] = v
        assert not is_member(ex_code, word)
        assert not is_member(ex_code, list(word))
    assert not is_member(ex_code, row[:15])


def _bch_search_dimensions(n):
    """{k: zero set} of the narrow-sense BCH codes of length n, from the
    closure of 1..d-1 at each designed distance d."""
    out = {}
    for d in range(2, n + 2):
        zeros = coset_closure(range(1, d), n)
        out.setdefault(n - len(zeros), zeros)
    return out


def test_ebch_code_matches_the_closure_search_for_every_k():
    for m in range(2, 10):
        field = GF2m(m)
        n = field.n
        found = _bch_search_dimensions(n)
        for k in range(-2, n + 2):
            if k not in found:
                with pytest.raises(ValueError):
                    ebch_code(field, k)
                continue
            S = ExponentSet(n, set(range(n)) - {(-z) % n for z in found[k]})
            spec = ebch_code(field, k)
            assert spec.k == k and spec.exponents == S
            assert spec.gen_poly == generator_from_exponent_set(S, field)
            assert spec.gen_poly.bit_length() - 1 == n - k


def _ref_bch_bound(S, extended=True):
    """The run-by-run walk over the absent exponents."""
    n = S.n
    absent = set(range(n)) - S.members
    if not absent:
        return 1
    best = 0
    for start in absent:
        if (start - 1) % n in absent:
            continue
        run = 1
        x = start
        while (x + 1) % n in absent:
            run += 1
            x = (x + 1) % n
        best = max(best, run)
    if best == 0:
        return n + 1
    delta = best + 1
    if extended and delta % 2 == 1:
        delta += 1
    return delta


def test_bch_bound_matches_the_run_walk():
    sets = [S for m in (3, 4, 5) for S in _every_coset_closed_set((1 << m) - 1)]
    rng = np.random.default_rng(97)
    for m in (6, 7):
        n = (1 << m) - 1
        cosets = sorted({cyclotomic_coset(s, n) for s in range(n)}, key=min)
        sets += [ExponentSet(n, []), ExponentSet(n, range(n))]
        for _ in range(200):
            keep = rng.integers(0, 2, size=len(cosets))
            sets.append(ExponentSet(n, set().union(
                *(c for c, b in zip(cosets, keep) if b))))
    assert len(sets) == 8 + 32 + 128 + 2 * 202
    for S in sets:
        for extended in (True, False):
            assert bch_bound(S, extended) == _ref_bch_bound(S, extended)
    for n in (7, 127):
        assert bch_bound(ExponentSet(n, range(n))) == 1
        assert bch_bound(ExponentSet(n, [])) == n + 1
