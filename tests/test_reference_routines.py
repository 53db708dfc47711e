"""The codebook-walk and spectrum routines against independent reference copies.

`min_distance_exhaustive`, `exponent_set_from_generator`,
`dual_orbit_parity_matrix` and the generator-matrix builder all read the
codebook from `gf2.all_codewords` or the spectrum from `ms_transform`.  The
references below compute the same results their own way: a Gray-code walk
over Python-int words, term-by-term polynomial evaluation at each
alpha^{-j}, a packed-lane span table decoded bit by bit, and one np.roll
per generator row.  Every extended cyclic code of lengths 8 and 16 is
compared, plus a fixed sample of length-32 codes with n - k <= 20.
`ms_evaluate` is compared with its original per-(position, term) loop on
the same codes and on a few length-64 codes.
"""
from __future__ import annotations

import numpy as np
import pytest

from ddcodes.cyclic import (NonBinaryResultError, code_from_exponents,
                            exponent_set_from_generator,
                            min_distance_exhaustive, ms_evaluate, ms_transform)
from ddcodes.gf2m import GF2m, coset_closure, coset_representatives
from ddcodes.parity import EmptyParityMatrixError, dual_orbit_parity_matrix


def _ref_min_distance(G) -> int:
    rows = [sum(int(b) << i for i, b in enumerate(r)) for r in G]
    best = G.shape[1] + 1
    word = prev = 0
    for t in range(1, 1 << len(rows)):
        gray = t ^ (t >> 1)
        word ^= rows[(gray ^ prev).bit_length() - 1]
        prev = gray
        if 0 < word.bit_count() < best:
            best = word.bit_count()
    return best


def _ref_exponent_set(gen_poly: int, field: GF2m) -> frozenset[int]:
    members = set()
    for j in range(field.n):
        e = int(field.log[field.alpha_pow(-j)])
        acc = 0
        for i in range(gen_poly.bit_length()):
            if (gen_poly >> i) & 1:
                acc ^= int(field.antilog[(e * i) % field.n])
        if acc:
            members.add(j)
    return frozenset(members)


def _ref_generator_matrix(field: GF2m, gen_poly: int) -> np.ndarray:
    n = field.n
    k = n - (gen_poly.bit_length() - 1)
    gc = np.array([(gen_poly >> i) & 1 for i in range(n)], dtype=np.uint8)
    G = np.zeros((k, field.size), dtype=np.uint8)
    for r in range(k):
        cyc = np.roll(gc, r)
        G[r, 0] = cyc.sum() % 2
        G[r, 1:] = cyc
    return G


def _ref_dual_orbit_rows(spec, max_row_weight: int):
    """Sorted position lists of the nonzero dual words of weight <= limit,
    or None if there are none."""
    D = spec.check_matrix
    r, n = D.shape
    lanes = (n + 63) // 64
    packed = np.zeros((r, lanes), dtype=np.uint64)
    for j in range(n):
        packed[:, j // 64] |= D[:, j].astype(np.uint64) << np.uint64(j % 64)

    def span_table(rows):
        out = np.zeros((1, lanes), dtype=np.uint64)
        for row in rows:
            out = np.vstack([out, out ^ row])
        return out

    half_a = span_table(packed[:15])
    rows = []
    for b in span_table(packed[15:]):
        words = half_a ^ b
        weights = np.bitwise_count(words).sum(axis=1)
        for word in words[(weights > 0) & (weights <= max_row_weight)]:
            positions = []
            for lane in range(lanes):
                v = int(word[lane])
                while v:
                    low = v & -v
                    positions.append(64 * lane + low.bit_length() - 1)
                    v ^= low
            rows.append(positions)
    return sorted(rows) or None


def _ref_ms_evaluate(spectrum, extended, field: GF2m) -> np.ndarray:
    """The original evaluation: one field.mul and alpha_pow per term."""
    spec = list(spectrum)
    n = field.n
    support = [(j, A) for j, A in enumerate(spec) if A]
    vals = []
    for i in range(n):
        acc = 0
        for j, A in support:
            acc ^= field.mul(A, field.alpha_pow(i * j))
        if acc > 1:
            raise NonBinaryResultError(f"A(alpha^{i}) = {acc} is not in GF(2)")
        vals.append(acc)
    if not extended:
        return np.array(vals, dtype=np.uint8)
    ext = spec[0]
    if ext > 1:
        raise NonBinaryResultError(f"A(0) = {ext} is not in GF(2)")
    return np.array([ext] + vals, dtype=np.uint8)


def _outcome(fn, *args):
    try:
        return fn(*args).tolist()
    except NonBinaryResultError as e:
        return str(e)


def _every_code(field: GF2m):
    """One CodeSpec per union of cyclotomic cosets, in mask order."""
    reps = sorted(coset_representatives(range(field.n), field.n))
    for mask in range(1 << len(reps)):
        chosen = [s for i, s in enumerate(reps) if (mask >> i) & 1]
        yield code_from_exponents(field, coset_closure(chosen, field.n))


def _length32_sample():
    codes = [c for c in _every_code(GF2m(5)) if 12 <= c.k <= 20]
    return codes[::7]


CODES = list(_every_code(GF2m(3))) + list(_every_code(GF2m(4))) + _length32_sample()


def test_code_list_covers_lengths_8_16_and_a_length_32_sample():
    lengths = [c.n for c in CODES]
    assert lengths.count(8) == 8 and lengths.count(16) == 32
    assert 5 <= lengths.count(32) <= 10
    assert all(32 - c.k <= 20 for c in CODES if c.n == 32)


@pytest.mark.parametrize("spec", CODES, ids=repr)
def test_spectrum_and_codebook_routines_match_references(spec):
    field = spec.field
    assert (exponent_set_from_generator(spec.gen_poly, field).members
            == _ref_exponent_set(spec.gen_poly, field) == spec.exponents.members)
    assert np.array_equal(spec.G, _ref_generator_matrix(field, spec.gen_poly))
    assert spec.G.dtype == np.uint8
    assert min_distance_exhaustive(spec) == _ref_min_distance(spec.G)
    for limit in (4, 8):
        want = _ref_dual_orbit_rows(spec, limit)
        if want is None:
            with pytest.raises(EmptyParityMatrixError):
                dual_orbit_parity_matrix(spec, limit)
        else:
            assert dual_orbit_parity_matrix(spec, limit).rows == want


def _length64_sample():
    codes = _every_code(GF2m(6))
    return [next(codes) for _ in range(40)][9::10]


@pytest.mark.parametrize("spec", CODES + _length64_sample(), ids=repr)
def test_ms_evaluate_matches_reference_loop(spec):
    """Spectra of codewords evaluate to the same words; spectra with A_0 or
    one other coefficient replaced by a non-binary element raise the same
    NonBinaryResultError message, naming the same first position."""
    field = spec.field
    rng = np.random.default_rng(spec.n + spec.k)
    msgs = rng.integers(0, 2, size=(4, spec.k), dtype=np.uint8)
    spectra = [ms_transform(w[1:], field) for w in msgs @ spec.G % 2]
    for A in list(spectra):
        for j in (0, int(rng.integers(1, field.n))):
            bad = list(A)
            bad[j] = int(rng.integers(2, field.size))
            spectra.append(bad)
    for A in spectra:
        for extended in (True, False):
            assert (_outcome(ms_evaluate, A, extended, field)
                    == _outcome(_ref_ms_evaluate, A, extended, field))
