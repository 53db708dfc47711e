"""Tests for GF(2^m) arithmetic, position maps, and cyclotomic cosets."""

from __future__ import annotations

import numpy as np
import pytest

from ddcodes.gf2m import (
    DEFAULT_PRIMITIVE_POLYS,
    GF2m,
    NonPrimitivePolynomialError,
    coset_closure,
    coset_representatives,
    cyclotomic_coset,
    field_for_length,
)


def _clmul(a: int, b: int) -> int:
    """Carry-less product of two GF(2)[x] polynomials given as bitmasks."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    return acc


def _polymod(a: int, mod: int) -> int:
    """Remainder of a modulo mod over GF(2)[x]."""
    dm = mod.bit_length() - 1
    while a.bit_length() - 1 >= dm:
        a ^= mod << (a.bit_length() - 1 - dm)
    return a


def _slow_mul(a: int, b: int, prim_poly: int) -> int:
    return _polymod(_clmul(a, b), prim_poly)


def test_gf16_antilog_table():
    field = GF2m(4)
    expected = [1, 2, 4, 8, 3, 6, 12, 11, 5, 10, 7, 14, 15, 13, 9]
    assert field.antilog.tolist() == expected
    assert field.n == 15
    assert field.size == 16


def test_log_antilog_roundtrip():
    for m in range(2, 9):
        field = GF2m(m)
        for e in range(field.n):
            assert field.log[field.antilog[e]] == e
        assert sorted(field.antilog.tolist()) == list(range(1, field.size))


def test_mul_matches_polynomial_arithmetic():
    rng = np.random.default_rng(7)
    for m in (3, 4, 6, 8):
        field = GF2m(m)
        for _ in range(200):
            a = int(rng.integers(0, field.size))
            b = int(rng.integers(0, field.size))
            assert field.mul(a, b) == _slow_mul(a, b, field.prim_poly)


def test_inverse_and_power():
    field = GF2m(6)
    rng = np.random.default_rng(11)
    for _ in range(200):
        a = int(rng.integers(1, field.size))
        assert field.mul(a, field.inv(a)) == 1
        e = int(rng.integers(-20, 80))
        # a^e by repeated multiplication
        acc = 1
        for _ in range(e % field.n):
            acc = field.mul(acc, a)
        assert field.pow(a, e) == acc
    assert field.pow(0, 0) == 1
    assert field.pow(0, 5) == 0
    with pytest.raises(ZeroDivisionError):
        field.inv(0)
    with pytest.raises(ZeroDivisionError):
        field.pow(0, -1)


def test_alpha_pow_wraps():
    field = GF2m(4)
    assert field.alpha_pow(0) == 1
    assert field.alpha_pow(1) == 2
    assert field.alpha_pow(15) == 1
    assert field.alpha_pow(-1) == field.alpha_pow(14)


def test_rejects_non_primitive_polynomials():
    # x^4 + x^3 + x^2 + x + 1 is irreducible but has order 5, not 15
    with pytest.raises(NonPrimitivePolynomialError):
        GF2m(4, 0b11111)
    # x^4 + x^2 + 1 = (x^2 + x + 1)^2 is reducible
    with pytest.raises(NonPrimitivePolynomialError):
        GF2m(4, 0b10101)
    with pytest.raises(ValueError):
        GF2m(4, 0b101)  # wrong degree


def test_default_polys_are_primitive():
    for m, poly in DEFAULT_PRIMITIVE_POLYS.items():
        if m > 12:
            continue  # table-building cost grows with 2^m
        field = GF2m(m)
        assert field.prim_poly == poly


def test_position_maps():
    field = GF2m(4)
    assert field.elem_at_pos[0] == 0
    for e in range(field.n):
        assert field.elem_at_pos[1 + e] == field.alpha_pow(e)
    for pos in range(field.size):
        assert field.pos_of_elem[field.elem_at_pos[pos]] == pos


def test_pair_permutation_swaps_pairs():
    field = GF2m(4)
    rng = np.random.default_rng(5)
    for _ in range(30):
        beta = int(rng.integers(1, 16))
        perm = field.pair_permutation(beta)
        # involution without fixed points
        assert np.array_equal(perm[perm], np.arange(16))
        assert not np.any(perm == np.arange(16))
        for pos in range(16):
            x = field.elem_at_pos[pos]
            assert field.elem_at_pos[perm[pos]] == x ^ beta
    with pytest.raises(ValueError):
        field.pair_permutation(0)
    with pytest.raises(ValueError):
        field.pair_permutation(16)


@pytest.mark.parametrize("field", [GF2m(4), GF2m(4, 0b11001), GF2m(5)],
                         ids=repr)
def test_pair_transversal_structure(field):
    half = field.size // 2
    for beta in range(1, field.size):
        T, slot = field.pair_transversal(beta)
        perm = field.pair_permutation(beta)
        assert T.shape == (half,) and slot.shape == (field.size,)
        # T[i] holds beta * 2i, one position of each pair
        assert all(field.elem_at_pos[p] == field.mul(beta, 2 * i)
                   for i, p in enumerate(T))
        assert np.array_equal(np.sort(np.concatenate((T, perm[T]))),
                              np.arange(field.size))
        assert np.array_equal(slot[T], np.arange(half))
        assert np.array_equal(slot[perm], slot)
        # expanding a transversal word puts each value at both pair positions
        full = np.arange(half)[slot]
        assert np.array_equal(full, full[perm])
    T, _ = field.pair_transversal(1)
    assert field.elem_at_pos[T].tolist() == list(range(0, field.size, 2))
    for beta in (0, field.size):
        with pytest.raises(ValueError, match=f"beta={beta} is not a nonzero "
                                             f"field element"):
            field.pair_transversal(beta)


@pytest.mark.parametrize("beta", [True, False, 2.0, 1.5, "3", None,
                                  np.float64(2.0), np.bool_(True)])
def test_pair_maps_reject_a_beta_that_is_not_an_integer(beta):
    """True used to act as beta = 1, and 2.0 failed inside numpy's
    bitwise_xor instead of naming the bad element."""
    field = GF2m(4)
    for method in (field.pair_permutation, field.pair_transversal):
        with pytest.raises(ValueError, match="is not a nonzero field element"):
            method(beta)


def test_pair_maps_accept_numpy_integers():
    field = GF2m(4)
    for beta in (np.int64(5), np.uint8(5), np.int32(5)):
        assert np.array_equal(field.pair_permutation(beta),
                              field.pair_permutation(5))
        for got, want in zip(field.pair_transversal(beta),
                             field.pair_transversal(5)):
            assert np.array_equal(got, want)


def test_shift_index_rolls_cyclic_part():
    field = GF2m(3)
    word = np.array([9, 0, 1, 2, 3, 4, 5, 6])
    shifted = word[field.shift_index(2)]
    assert shifted.tolist() == [9, 2, 3, 4, 5, 6, 0, 1]
    assert np.array_equal(word[field.shift_index(7)], word)
    assert np.array_equal(word[field.shift_index(0)], word)


def test_field_for_length():
    assert field_for_length(16).m == 4
    assert field_for_length(64).m == 6
    with pytest.raises(ValueError):
        field_for_length(12)
    with pytest.raises(ValueError):
        field_for_length(2)


def test_cyclotomic_cosets():
    assert cyclotomic_coset(1, 15) == frozenset({1, 2, 4, 8})
    assert cyclotomic_coset(5, 15) == frozenset({5, 10})
    assert cyclotomic_coset(0, 15) == frozenset({0})
    S = {0, 1, 2, 4, 5, 8, 10}
    assert coset_closure(S, 15) == frozenset(S)
    assert coset_representatives(S, 15) == frozenset({0, 1, 5})
    # closure of a non-closed set adds the missing conjugates
    assert coset_closure({3}, 15) == frozenset({3, 6, 12, 9})


def test_coset_partition():
    n = 63
    seen = set()
    for s in range(n):
        seen |= cyclotomic_coset(s, n)
    assert seen == set(range(n))
    # distinct representatives index disjoint cosets
    reps = coset_representatives(range(n), n)
    total = sum(len(cyclotomic_coset(r, n)) for r in reps)
    assert total == n
