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
the same codes and on a few length-64 codes.  Both MS routines sum their
terms in blocks of 64; every eBCH generator polynomial of lengths 128 and
256 and a few dense random words, most with 64 terms or more, are compared
with the per-term references and round-tripped.

The parity-check producers build their padded check tables with array
operations.  The list-based `SparseParityMatrix` constructor, `from_dense`,
the frozenset line builder and the per-check alist writer they replaced
are kept below; the tables must be identical, row order included, and the
alist text byte-identical.  The line builder that deduplicated and ordered
every (point, direction) line with np.unique(..., axis=0), which imports
numpy.ma, is kept too, and compared the same way.

The β-pair transversal comes from `GF2m.pair_transversal`, built with array
operations.  The per-element loops it replaced are kept below: the
direction-1 transversal and slot map, and `rm_projection`'s walk over β·H
with one `field.mul` per point.  Positions, slots and projections must be
identical for every direction of every field with m = 2..9 and of a field
with a non-default primitive polynomial.  `sim._dd_parity_matrix` is
compared with its earlier version, which tried the pair geometry for every
code, on every eBCH and Reed-Muller code with m = 4..7.
"""
from __future__ import annotations

import numpy as np
import pytest

from ddcodes.cyclic import (NonBinaryResultError, code_from_exponents,
                            ebch_code, exponent_set_from_generator,
                            extend_cyclic, min_distance_exhaustive,
                            ms_evaluate, ms_transform, rm_exponent_set)
from ddcodes.derivative import dd_code, rm_projection
from ddcodes.gf2m import GF2m, coset_closure, coset_representatives
from ddcodes.parity import (EmptyParityMatrixError, SparseParityMatrix,
                            dual_orbit_parity_matrix, eg_line_parity_matrix,
                            is_orthogonal_to, read_alist, write_alist)
from ddcodes.sim import _dd_parity_matrix


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


class _RefSparseParityMatrix:
    """The list-based constructor: per-check sorted lists, then the table."""

    def __init__(self, n: int, rows):
        self.n = n
        self.rows = [sorted(int(i) for i in r) for r in rows]
        for r in self.rows:
            if r and not 0 <= r[0] <= r[-1] < n:
                raise ValueError("check position out of range")
        deg = max(map(len, self.rows), default=0)
        self.idx = np.zeros((len(self.rows), deg), dtype=np.int64)
        self.mask = np.arange(deg) < np.array([len(r) for r in self.rows],
                                              dtype=np.int64)[:, None]
        self.idx[self.mask] = [i for r in self.rows for i in r]
        repeats = (np.diff(self.idx, axis=1) == 0) & self.mask[:, 1:]
        if repeats.any():
            i, j = np.argwhere(repeats)[0]
            raise ValueError(f"check {i} repeats position {self.idx[i, j]}")

    @classmethod
    def from_dense(cls, H):
        H = np.asarray(H)
        return cls(H.shape[1], [list(np.nonzero(r)[0]) for r in H])


def _ref_eg_line_parity_matrix(mu_dims: int, subfield_bits: int):
    """One frozenset per (direction, point), with its own mu = 1 branch."""
    m = mu_dims * subfield_bits
    field = GF2m(m)
    if mu_dims == 1:
        return _RefSparseParityMatrix(field.size, [range(field.size)])
    q = 1 << subfield_bits
    step = field.n // (q - 1)
    subfield = [0] + [int(field.antilog[(i * step) % field.n]) for i in range(q - 1)]
    lines = set()
    for b_exp in range(field.n):
        b = int(field.antilog[b_exp])
        through_zero = frozenset(field.mul(s, b) for s in subfield)
        for a in range(field.size):
            lines.add(frozenset(a ^ p for p in through_zero))
    rows = sorted(sorted(field.pos_of_elem[e] for e in line) for line in lines)
    return _RefSparseParityMatrix(field.size, rows)


def _ref_unique_eg_lines(mu_dims: int, subfield_bits: int):
    """Every line once per point on it, deduplicated by np.unique."""
    field = GF2m(mu_dims * subfield_bits)
    q = 1 << subfield_bits
    step = field.n // (q - 1)
    through_zero = np.pad(field.antilog[np.arange(step)[:, None]
                                        + step * np.arange(q - 1)], ((0, 0), (1, 0)))
    on_lines = np.arange(field.size)[:, None, None] ^ through_zero
    lines = np.unique(np.sort(field.pos_of_elem[on_lines], axis=-1).reshape(-1, q),
                      axis=0)
    return _RefSparseParityMatrix(field.size, lines.tolist())


def _ref_write_alist(path, H) -> None:
    """The per-check alist writer."""
    cols = [[] for _ in range(H.n)]
    for i, r in enumerate(H.rows):
        for j in r:
            cols[j].append(i)
    col_w = [len(cn) for cn in cols]
    row_w = [len(r) for r in H.rows]
    max_c, max_r = max(col_w, default=0), max(row_w, default=0)
    lines = [
        f"{H.n} {len(H.rows)}",
        f"{max_c} {max_r}",
        " ".join(map(str, col_w)),
        " ".join(map(str, row_w)),
    ]
    for cn in cols:
        ids = [i + 1 for i in cn] + [0] * (max_c - len(cn))
        lines.append(" ".join(map(str, ids)))
    for r in H.rows:
        ids = [j + 1 for j in r] + [0] * (max_r - len(r))
        lines.append(" ".join(map(str, ids)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _assert_same_checks(H, ref, tmp_path):
    """Identical tables, byte-identical alist text, and the reference's
    file reads back as the reference's table."""
    assert H.n == ref.n
    for got, want in ((H.idx, ref.idx), (H.mask, ref.mask)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
    write_alist(tmp_path / "new.alist", H)
    _ref_write_alist(tmp_path / "ref.alist", ref)
    assert ((tmp_path / "new.alist").read_bytes()
            == (tmp_path / "ref.alist").read_bytes())
    back = read_alist(tmp_path / "ref.alist")
    assert back.n == ref.n
    assert np.array_equal(back.idx, ref.idx) and np.array_equal(back.mask, ref.mask)


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
def test_spectrum_and_codebook_routines_match_references(spec, tmp_path):
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
            _assert_same_checks(dual_orbit_parity_matrix(spec, limit),
                                _RefSparseParityMatrix(spec.n, want), tmp_path)


@pytest.mark.parametrize("spec", CODES, ids=repr)
def test_from_dense_matches_reference(spec, tmp_path):
    _assert_same_checks(SparseParityMatrix.from_dense(spec.check_matrix),
                        _RefSparseParityMatrix.from_dense(spec.check_matrix),
                        tmp_path)


_GEOMETRIES = [(mu, s) for mu in range(1, 9) for s in range(1, 9)
               if mu * s <= 8]


def test_geometry_list_covers_every_product_up_to_8():
    assert len(_GEOMETRIES) == 20
    assert {mu * s for mu, s in _GEOMETRIES} == set(range(1, 9))


@pytest.mark.parametrize("mu, s", _GEOMETRIES)
def test_eg_lines_match_reference(mu, s, tmp_path):
    """EG(1, 2) has m = 1, which no field supports; every builder says so."""
    refs = (_ref_eg_line_parity_matrix, _ref_unique_eg_lines)
    if mu * s == 1:
        for build in (eg_line_parity_matrix,) + refs:
            with pytest.raises(ValueError, match="m=1 out of supported range"):
                build(mu, s)
        return
    for ref in refs:
        _assert_same_checks(eg_line_parity_matrix(mu, s), ref(mu, s), tmp_path)


_LITERALS = {
    "unsorted checks": (6, [[2, 0, 1], [4, 3], [5, 0]]),
    "sets and ranges": (8, [{7, 1, 4}, range(3), (6, 5)]),
    "a check without positions": (5, [[0, 4], [], [3]]),
    "every check empty": (4, [[], []]),
    "no checks": (16, []),
}


@pytest.mark.parametrize("name", sorted(_LITERALS))
def test_list_constructor_matches_reference(name, tmp_path):
    n, rows = _LITERALS[name]
    _assert_same_checks(SparseParityMatrix(n, rows),
                        _RefSparseParityMatrix(n, rows), tmp_path)


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
            assert (_outcome(ms_evaluate, A, field, extended)
                    == _outcome(_ref_ms_evaluate, A, extended, field))


def _ref_pair_transversal(field: GF2m):
    """The direction-1 transversal and slot map, one element at a time."""
    T = np.array([field.pos_of_elem[e] for e in range(0, field.size, 2)],
                 dtype=np.int64)
    slot = np.zeros(field.size, dtype=np.int64)
    for i, p in enumerate(T):
        slot[p] = i
        slot[field.pos_of_elem[field.elem_at_pos[p] ^ 1]] = i
    return T, slot


def _ref_projection_walk(field: GF2m, beta: int) -> list[int]:
    """rm_projection's walk over beta*H: point idx is beta times the sum of
    alpha^(i+1) over the bits i of idx, one field.mul per point."""
    t = field.m - 1
    out = []
    for idx in range(1 << t):
        h = 0
        for i in range(t):
            if (idx >> i) & 1:
                h ^= field.alpha_pow(i + 1)
        out.append(int(field.pos_of_elem[field.mul(beta, h)]))
    return out


_TRANSVERSAL_FIELDS = [GF2m(m) for m in range(2, 10)] + [GF2m(4, 0b11001)]


@pytest.mark.parametrize("field", _TRANSVERSAL_FIELDS, ids=repr)
def test_pair_transversal_matches_reference_loops(field):
    for got, want in zip(field.pair_transversal(1), _ref_pair_transversal(field)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    rng = np.random.default_rng(field.size + field.prim_poly)
    for beta in range(1, field.size):
        T, slot = field.pair_transversal(beta)
        walk = _ref_projection_walk(field, beta)
        assert T.tolist() == walk
        # the direction-1 slot loop, run on beta's pairs
        ref_slot = np.zeros(field.size, dtype=np.int64)
        for i, p in enumerate(walk):
            ref_slot[p] = i
            ref_slot[field.pos_of_elem[field.elem_at_pos[p] ^ beta]] = i
        assert slot.dtype == ref_slot.dtype and np.array_equal(slot, ref_slot)
        # the projection: a pointwise derivative read along the walk
        word = rng.integers(0, 2, size=field.size, dtype=np.uint8)
        d = [word[p] ^ word[field.pos_of_elem[field.elem_at_pos[p] ^ beta]]
             for p in range(field.size)]
        got = rm_projection(word, beta, field)
        assert got.dtype == np.uint8 and got.tolist() == [d[p] for p in walk]


def _ref_dd_parity_matrix(spec) -> SparseParityMatrix:
    """The descendant's checks, trying the pair geometry for every code."""
    descendant = dd_code(spec)
    m = spec.field.m
    for s in range(1, m):
        if m % s:
            continue
        mu = m // s
        if mu < 2:
            continue
        H = eg_line_parity_matrix(mu, s)
        if is_orthogonal_to(H, descendant.G):
            return H
    return SparseParityMatrix.from_dense(descendant.check_matrix)


def _ebch_and_rm_codes():
    """Every eBCH and RM(r, m) code for m = 4..7, each code once."""
    codes = {}
    for m in range(4, 8):
        field = GF2m(m)
        n = field.n
        dims = {n - len(coset_closure(range(1, d), n)) for d in range(2, n + 1)}
        for spec in ([ebch_code(field, k) for k in sorted(dims)]
                     + [code_from_exponents(field, rm_exponent_set(r, m))
                        for r in range(m)]):
            codes.setdefault((m, spec.exponents.members), spec)
    return list(codes.values())


@pytest.mark.parametrize("spec", _ebch_and_rm_codes(), ids=repr)
def test_dd_parity_matrix_matches_reference(spec):
    got, want = _dd_parity_matrix(spec), _ref_dd_parity_matrix(spec)
    assert got.n == want.n
    for a, b in ((got.idx, want.idx), (got.mask, want.mask)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def _ref_spectrum(word, field: GF2m) -> list[int]:
    """A_j = a(alpha^{-j}): one alpha_pow per (j, nonzero position)."""
    support = np.flatnonzero(word).tolist()
    out = []
    for j in range(field.n):
        acc = 0
        for i in support:
            acc ^= field.alpha_pow(-i * j)
        out.append(acc)
    return out


def _block_crossing_words(m: int):
    """Every eBCH generator polynomial of length 2^m as a cyclic word, and
    two dense random words."""
    field = GF2m(m)
    n = field.n
    dims = {n - len(coset_closure(range(1, d), n)) for d in range(2, n + 1)}
    gens = [ebch_code(field, k).gen_poly for k in sorted(dims)]
    words = [np.array([(g >> i) & 1 for i in range(n)], dtype=np.uint8) for g in gens]
    rng = np.random.default_rng(m)
    return field, words + list((rng.random((2, n)) < 0.75).astype(np.uint8))


@pytest.mark.parametrize("m", (7, 8))
def test_ms_routines_match_references_across_term_blocks(m):
    """Spectra match the per-term reference and evaluate back to the word.
    Against the per-(position, term) loop, which costs n x terms field
    multiplications, ms_evaluate is compared on the valid spectra with the
    fewest and the most terms above one block, and on every spectrum of more
    than one block with a coefficient made non-binary (the loop stops at the
    first non-binary position)."""
    field, words = _block_crossing_words(m)
    spectra = [ms_transform(w, field) for w in words]
    for w, A in zip(words, spectra):
        assert A == _ref_spectrum(w, field)
        assert np.array_equal(ms_evaluate(A, field, extended=False), w)
        assert np.array_equal(ms_evaluate(A, field), extend_cyclic(w))
    assert sum(np.count_nonzero(w) > 64 for w in words) >= 3
    crossing = [A for A in spectra if np.count_nonzero(A) > 64]
    assert len(crossing) >= len(spectra) // 3
    rng = np.random.default_rng(m)
    checked = [min(crossing, key=np.count_nonzero), max(crossing, key=np.count_nonzero)]
    for A in crossing:
        bad = list(A)
        bad[int(rng.integers(0, field.n))] = int(rng.integers(2, field.size))
        checked.append(bad)
    for A in checked:
        for extended in (True, False):
            assert (_outcome(ms_evaluate, A, field, extended)
                    == _outcome(_ref_ms_evaluate, A, extended, field))
