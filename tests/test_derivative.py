"""Tests for derivative descendants, ascendants, and codeword derivatives."""

from __future__ import annotations

import numpy as np
import pytest

from ddcodes.cyclic import (
    CodeSpec,
    ExponentSet,
    code_from_exponents,
    code_from_generator,
    cyclic_shift,
    is_member,
    min_distance_exhaustive,
    rm_exponent_set,
    rm_membership,
)
from ddcodes.derivative import (
    ZeroDirectionError,
    check_equivalence_shift,
    covered_set,
    cyclic_da,
    cyclic_dd,
    da_code,
    dd_code,
    derivative_codeword,
    derivative_rows,
    minimal_dd_basis,
    rm_projection,
    stacked_derivative_rank,
)
from ddcodes.gf2 import rank, row_space_contains, row_spaces_equal
from ddcodes.gf2m import GF2m, coset_closure, cyclotomic_coset


@pytest.fixture(scope="module")
def f16():
    return GF2m(4)


@pytest.fixture(scope="module")
def ex_code(f16):
    return code_from_generator(f16, 0x1D1)


def _cosets(n):
    """The cyclotomic cosets of [n], in order of their least members."""
    return sorted({cyclotomic_coset(s, n) for s in range(n)}, key=min)


def _every_coset_closed_set(n):
    cosets = _cosets(n)
    for mask in range(1 << len(cosets)):
        yield ExponentSet(n, set().union(
            *(c for i, c in enumerate(cosets) if (mask >> i) & 1)))


def _random_coset_closed_sets(rng, n, count):
    """Random nonempty doubling-closed subsets of [n]."""
    cosets = _cosets(n)
    out = []
    for _ in range(count):
        members = set()
        for c in cosets:
            if rng.random() < 0.5:
                members |= c
        if members:
            out.append(ExponentSet(n, members))
    return out


def _proper_submasks(s):
    if s == 0:
        return  # zero covers nothing but itself
    u = (s - 1) & s
    while True:
        yield u
        if u == 0:
            return
        u = (u - 1) & s


def _dd_oracle(S):
    """Descendant set by direct submask enumeration over every member."""
    members = set()
    for s in S.members:
        for u in _proper_submasks(s):
            members |= cyclotomic_coset(u, S.n)
    return members


def _da_oracle(S):
    """Ascendant set: every proper submask's coset must lie inside S."""
    members = set()
    for s in range(S.n):
        if all(cyclotomic_coset(u, S.n) <= S.members
               for u in _proper_submasks(s)):
            members.add(s)
    return members


def _random_codeword(rng, spec):
    coeffs = rng.integers(0, 2, size=spec.k).astype(np.uint8)
    return (coeffs @ spec.G) % 2


def _derivative_oracle(word, beta, field):
    """d(x) = a(x) + a(x + beta) evaluated pointwise."""
    out = np.empty(field.size, dtype=np.uint8)
    for pos in range(field.size):
        x = field.elem_at_pos[pos]
        out[pos] = word[pos] ^ word[field.pos_of_elem[x ^ beta]]
    return out


def test_covered_set_values():
    cs = covered_set(13)
    assert cs == frozenset({0, 1, 4, 5, 8, 9, 12})
    assert isinstance(cs, frozenset)
    assert 13 not in cs  # proper covering excludes s itself
    assert covered_set(0) == frozenset()


def test_covered_set_sizes():
    # a weight-w integer has 2^w - 1 proper submasks
    for s in (1, 3, 7, 21, 42, 63):
        assert len(covered_set(s)) == (1 << s.bit_count()) - 1


def test_cyclic_dd_example(ex_code):
    S_D = cyclic_dd(ex_code.exponents)
    assert S_D.members == frozenset({0, 1, 2, 4, 8})
    assert S_D.members == rm_exponent_set(1, 4).members


def test_dd_da_match_brute_force():
    rng = np.random.default_rng(97)
    for n in (15, 63):
        for S in _random_coset_closed_sets(rng, n, 25):
            assert cyclic_dd(S).members == _dd_oracle(S)
            assert cyclic_da(S).members == _da_oracle(S)
    for n in (7, 15, 31):
        for S in _every_coset_closed_set(n):
            assert cyclic_dd(S).members == _dd_oracle(S)
            assert cyclic_da(S).members == _da_oracle(S)


def test_dd_da_adjunction():
    rng = np.random.default_rng(101)
    for S in _random_coset_closed_sets(rng, 63, 40):
        assert cyclic_dd(cyclic_da(S)).members <= S.members
        assert S.members <= cyclic_da(cyclic_dd(S)).members


def test_dd_da_monotone():
    rng = np.random.default_rng(103)
    sets = _random_coset_closed_sets(rng, 63, 40)
    for S in sets:
        for T in sets:
            if S.members <= T.members:
                assert cyclic_dd(S).members <= cyclic_dd(T).members
                assert cyclic_da(S).members <= cyclic_da(T).members


def test_dd_da_code_wrappers(ex_code):
    dd = dd_code(ex_code)
    assert dd.exponents == cyclic_dd(ex_code.exponents)
    assert dd.k == 5
    da = da_code(ex_code)
    assert da.exponents == cyclic_da(ex_code.exponents)
    # every derivative of a codeword lies in the descendant, so the
    # original code lies inside the ascendant of the descendant
    assert ex_code.exponents.members <= cyclic_da(dd.exponents).members


def test_derivative_matches_pointwise_definition(ex_code, f16):
    rng = np.random.default_rng(107)
    for _ in range(100):
        word = _random_codeword(rng, ex_code)
        beta = int(rng.integers(1, 16))
        assert np.array_equal(
            derivative_codeword(word, beta, f16),
            _derivative_oracle(word, beta, f16))


def test_derivative_linearity(ex_code, f16):
    rng = np.random.default_rng(109)
    for _ in range(50):
        a = _random_codeword(rng, ex_code)
        b = _random_codeword(rng, ex_code)
        beta = int(rng.integers(1, 16))
        assert np.array_equal(
            derivative_codeword((a + b) % 2, beta, f16),
            derivative_codeword(a, beta, f16) ^ derivative_codeword(b, beta, f16))


def test_second_derivative_vanishes(ex_code, f16):
    rng = np.random.default_rng(113)
    for _ in range(100):
        word = _random_codeword(rng, ex_code)
        beta = int(rng.integers(1, 16))
        d2 = derivative_codeword(derivative_codeword(word, beta, f16), beta, f16)
        assert not d2.any()


def test_derivative_pair_constancy(ex_code, f16):
    rng = np.random.default_rng(127)
    for _ in range(100):
        word = _random_codeword(rng, ex_code)
        beta = int(rng.integers(1, 16))
        d = derivative_codeword(word, beta, f16)
        perm = f16.pair_permutation(beta)
        assert np.array_equal(d, d[perm])


def test_derivatives_live_in_descendant(ex_code, f16):
    dd = dd_code(ex_code)
    rng = np.random.default_rng(131)
    for _ in range(200):
        word = _random_codeword(rng, ex_code)
        beta = int(rng.integers(1, 16))
        assert is_member(dd, derivative_codeword(word, beta, f16))


def test_zero_direction_rejected(ex_code, f16):
    word = ex_code.G[0]
    with pytest.raises(ZeroDirectionError):
        derivative_codeword(word, 0, f16)


def test_derivative_rows(ex_code, f16):
    rows = derivative_rows(f16, ex_code.G, 3)
    assert rows.shape == ex_code.G.shape
    for r, row in enumerate(ex_code.G):
        assert np.array_equal(rows[r], derivative_codeword(row, 3, f16))


@pytest.mark.parametrize("length", [8, 15, 17, 32])
def test_wrong_length_words_are_named(length, f16):
    """Shorter words used to raise a bare IndexError and longer ones a numpy
    broadcast error."""
    message = f"words of length {length} do not fit the 16 positions of"
    word = np.zeros(length, dtype=np.uint8)
    calls = [lambda: derivative_rows(f16, np.zeros((3, length)), 3),
             lambda: derivative_codeword(word, 3, f16),
             lambda: rm_projection(word, 3, f16),
             lambda: check_equivalence_shift(word, 2, f16)]
    if length in (8, 32):
        # a CodeSpec whose generator rows come from another field
        other = code_from_exponents(GF2m(length.bit_length() - 1), [0])
        spec = CodeSpec(f16, other.exponents, other.gen_poly, other.G)
        calls += [lambda: minimal_dd_basis(spec, 1),
                  lambda: stacked_derivative_rank(spec)]
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()


def test_derivative_rows_rejects_a_single_word(f16):
    """A vector used to raise a bare IndexError."""
    with pytest.raises(ValueError, match=r"expected a matrix of words, "
                                         r"got shape \(16,\)"):
        derivative_rows(f16, np.zeros(16), 3)


def test_minimal_basis_spans_all_derivatives(ex_code, f16):
    rng = np.random.default_rng(137)
    for beta in (1, 2, 7, 15):
        mb = minimal_dd_basis(ex_code, beta)
        assert mb.direction == beta
        assert mb.rank == rank(mb.basis) == mb.basis.shape[0]
        assert row_spaces_equal(mb.basis, derivative_rows(f16, ex_code.G, beta))
        for _ in range(50):
            word = _random_codeword(rng, ex_code)
            assert row_space_contains(mb.basis, derivative_codeword(word, beta, f16))


def test_minimal_basis_rank_three(ex_code):
    for beta in range(1, 16):
        assert minimal_dd_basis(ex_code, beta).rank == 3


def test_minimal_spaces_sum_to_descendant(ex_code, f16):
    """The one-direction derivative spaces together span the descendant."""
    assert stacked_derivative_rank(ex_code) == dd_code(ex_code).k
    rng = np.random.default_rng(139)
    for S in _random_coset_closed_sets(rng, 15, 15):
        spec = code_from_exponents(f16, S.members)
        assert stacked_derivative_rank(spec) == cyclic_dd(S).dimension


def test_minimal_basis_min_distance(ex_code):
    assert min_distance_exhaustive(minimal_dd_basis(ex_code, 1).basis) == 8


def test_direction_equivalence_by_shifting(ex_code, f16):
    """Shifting turns the derivative in alpha^b into the derivative in alpha^0."""
    rng = np.random.default_rng(149)
    for _ in range(100):
        word = _random_codeword(rng, ex_code)
        b = int(rng.integers(0, 15))
        assert check_equivalence_shift(word, b, f16)
    # the identity, spelled out for one case
    b = 3
    word = _random_codeword(rng, ex_code)
    lhs = cyclic_shift(derivative_codeword(word, f16.alpha_pow(b), f16), b)
    rhs = derivative_codeword(cyclic_shift(word, b), 1, f16)
    assert np.array_equal(lhs, rhs)


def test_rm_projection_drops_degree(f16):
    rng = np.random.default_rng(151)
    for m in (4, 5):
        field = GF2m(m)
        for r in (1, 2, 3):
            if r >= m:
                continue
            spec = code_from_exponents(field, rm_exponent_set(r, m).members)
            for _ in range(40):
                word = _random_codeword(rng, spec)
                beta = int(rng.integers(1, field.size))
                proj = rm_projection(word, beta, field)
                assert proj.shape == (field.size // 2,)
                assert rm_membership(proj, r - 1)


def test_rm_projection_samples_one_point_per_pair(f16):
    rng = np.random.default_rng(157)
    spec = code_from_exponents(f16, rm_exponent_set(2, 4).members)
    for _ in range(50):
        word = _random_codeword(rng, spec)
        beta = int(rng.integers(1, 16))
        d = derivative_codeword(word, beta, f16)
        proj = rm_projection(word, beta, f16)
        for idx in range(8):
            h = 0
            for i in range(3):
                if (idx >> i) & 1:
                    h ^= f16.alpha_pow(i + 1)
            x = f16.mul(beta, h)
            assert proj[idx] == d[f16.pos_of_elem[x]]
