"""Tests for geometry-line and dual-codeword parity-check matrices."""

from __future__ import annotations

import numpy as np
import pytest

from ddcodes.cyclic import code_from_exponents, code_from_generator, rm_exponent_set
from ddcodes.decoders import all_codewords
from ddcodes.derivative import dd_code
from ddcodes.gf2 import nullspace, rank, row_space_contains
from ddcodes.gf2m import GF2m
from ddcodes.parity import (
    DualTooLargeError,
    EmptyParityMatrixError,
    InvalidGeometryError,
    SparseParityMatrix,
    dual_orbit_parity_matrix,
    eg_line_parity_matrix,
    is_orthogonal_to,
    read_alist,
    write_alist,
)


def _rows(H):
    """Each check's positions as a list, read from the check table."""
    return [r[m].tolist() for r, m in zip(H.idx, H.mask)]


def _line_counts(mu, q):
    """Points and lines of the affine geometry of dimension mu over GF(q)."""
    points = q ** mu
    lines = q ** (mu - 1) * (q ** mu - 1) // (q - 1)
    return points, lines


def test_sparse_matrix_basics():
    H = SparseParityMatrix(5, [[0, 1], [4, 3, 2]])
    assert H.n == 5
    assert H.num_checks == 2
    assert H.row_weights().tolist() == [2, 3]
    assert H.col_weights().tolist() == [1, 1, 1, 1, 1]
    dense = H.to_dense()
    assert dense.tolist() == [[1, 1, 0, 0, 0], [0, 0, 1, 1, 1]]
    back = SparseParityMatrix.from_dense(dense)
    assert back.to_dense().tolist() == dense.tolist()


def test_eg_line_matrix_shapes():
    for mu, s in ((2, 2), (2, 3), (3, 2)):
        q = 1 << s
        points, lines = _line_counts(mu, q)
        H = eg_line_parity_matrix(mu, s)
        assert (H.n, H.num_checks) == (points, lines)
        assert set(H.row_weights().tolist()) == {q}
        assert set(H.col_weights().tolist()) == {(q ** mu - 1) // (q - 1)}


def test_eg_lines_are_distinct_and_consistent():
    H = eg_line_parity_matrix(2, 3)
    rows = {frozenset(r) for r in _rows(H)}
    assert len(rows) == H.num_checks
    # two distinct points determine exactly one line
    dense = H.to_dense()
    together = dense.T.astype(np.int64) @ dense.astype(np.int64)
    off_diag = together[~np.eye(H.n, dtype=bool)]
    assert set(off_diag.tolist()) == {1}


def test_eg_matrix_ranks():
    # the null space of the line matrix is the geometry code
    assert rank(eg_line_parity_matrix(2, 2).to_dense()) == 9
    assert rank(eg_line_parity_matrix(2, 3).to_dense()) == 27
    assert rank(eg_line_parity_matrix(3, 2).to_dense()) == 51


def test_eg_single_dimension_is_one_line():
    H = eg_line_parity_matrix(1, 3)
    assert H.num_checks == 1
    assert H.row_weights().tolist() == [8]


def test_eg_rejects_bad_geometry():
    with pytest.raises(InvalidGeometryError):
        eg_line_parity_matrix(0, 2)
    with pytest.raises(InvalidGeometryError):
        eg_line_parity_matrix(2, 0)


def test_eg_checks_descendant_codes():
    f64 = GF2m(6)
    spec24 = code_from_generator(f64, 0xF69AC20921)
    dd13 = dd_code(spec24)
    H = eg_line_parity_matrix(3, 2)
    assert (spec24.k, dd13.k) == (24, 13)
    assert is_orthogonal_to(H, dd13.G)
    # and a code it does not check
    assert not is_orthogonal_to(H, spec24.G)
    spec45 = code_from_generator(f64, 0x782CF)
    dd34 = dd_code(spec45)
    assert (spec45.k, dd34.k) == (45, 34)
    assert is_orthogonal_to(eg_line_parity_matrix(2, 3), dd34.G)


def test_dual_basis_matrix():
    f16 = GF2m(4)
    spec = code_from_generator(f16, 0x1D1)
    H = spec.check_matrix
    assert H.shape == (16 - 7, 16)
    assert rank(H) == 9
    assert not ((H @ spec.G.T) % 2).any()


def test_dual_orbit_rows_are_low_weight_dual_words():
    f16 = GF2m(4)
    spec = code_from_exponents(f16, rm_exponent_set(2, 4).members)  # (16, 11)
    H = dual_orbit_parity_matrix(spec, 8)
    assert H.num_checks == 30
    assert set(H.row_weights().tolist()) == {8}
    assert is_orthogonal_to(H, spec.G)
    # cross-check against the complete dual enumeration
    dual = nullspace(spec.G)
    words = all_codewords(dual)
    expected = {tuple(w) for w in words if w.sum() == 8}
    assert {tuple(r) for r in H.to_dense()} == expected
    assert len(expected) == 30


def test_dual_orbit_empty_below_min_weight():
    f16 = GF2m(4)
    spec = code_from_exponents(f16, rm_exponent_set(2, 4).members)
    with pytest.raises(EmptyParityMatrixError):
        dual_orbit_parity_matrix(spec, 7)


def test_dual_orbit_rejects_large_duals():
    f64 = GF2m(6)
    spec = code_from_generator(f64, 0xF69AC20921)
    dd = dd_code(spec)  # dimension 13, dual dimension 51
    with pytest.raises(DualTooLargeError):
        dual_orbit_parity_matrix(dd, 4)


def test_dual_orbit_finds_geometry_rows():
    """Weight-4 dual words of the (16, 7) geometry code are its 20 lines."""
    f16 = GF2m(4)
    H_eg = eg_line_parity_matrix(2, 2)
    G = nullspace(H_eg.to_dense())
    # recover the code spec through its spectrum support
    from ddcodes.cyclic import ms_transform
    members = set()
    for row in G:
        A = ms_transform(row[1:], f16)
        members |= {j for j, v in enumerate(A) if v}
    spec = code_from_exponents(f16, members)
    assert spec.k == 7
    H = dual_orbit_parity_matrix(spec, 4)
    assert {frozenset(r) for r in _rows(H)} == {frozenset(r) for r in _rows(H_eg)}


def test_alist_roundtrip(tmp_path):
    H = eg_line_parity_matrix(2, 2)
    path = tmp_path / "eg.alist"
    write_alist(path, H)
    back = read_alist(path)
    assert back.n == H.n
    assert back.num_checks == H.num_checks
    assert back.to_dense().tolist() == H.to_dense().tolist()
    # header sanity: n, m, then max weights
    first = path.read_text().split("\n")[0].split()
    assert first == ["16", "20"]


@pytest.mark.parametrize("rows, message", [
    ([[0, 0, 1]], "check 0 repeats position 0"),
    ([[1, 2], [2, 0, 2]], "check 1 repeats position 2"),
    ([[1, 3]], "check position out of range"),
    ([[0], [-1, 2]], "check position out of range"),
])
def test_repeated_position_is_rejected(rows, message):
    with pytest.raises(ValueError, match=message):
        SparseParityMatrix(3, rows)
    # padding after a short row is not a repeat
    assert SparseParityMatrix(3, [[0], [0, 1, 2]]).row_weights().tolist() == [1, 3]


def test_alist_with_repeated_position_is_rejected(tmp_path):
    path = tmp_path / "repeat.alist"
    path.write_text("3 1\n2 3\n1 1 0\n3\n1 0\n2 0\n0 0\n1 1 2\n")
    with pytest.raises(ValueError, match="check 0 repeats position 0"):
        read_alist(path)


def _alist(tmp_path, text):
    path = tmp_path / "h.alist"
    path.write_text(text)
    return path


_GOOD_ALIST = "4 3\n2 2\n1 2 1 2\n2 2 2\n1 0\n1 2\n3 0\n2 3\n1 2\n2 4\n3 4\n"


def test_hand_written_alist_reads(tmp_path):
    H = read_alist(_alist(tmp_path, _GOOD_ALIST))
    assert H.to_dense().tolist() == [[1, 1, 0, 0], [0, 1, 0, 1], [0, 0, 1, 1]]


_BAD_ALISTS = {
    "empty": ("", "alist header section is truncated or negative"),
    "header only": ("4 3\n", "alist header section is truncated or negative"),
    "no column weights": ("4 3\n2 2\n1 2\n",
                          "alist column weight section is truncated"),
    "no row weights": ("4 3\n2 2\n1 2 1 2\n2 2\n",
                       "alist row weight section is truncated"),
    "short column lists": (_GOOD_ALIST.split("\n3 0")[0],
                           "alist column list section is truncated"),
    "short row lists": (_GOOD_ALIST[:-4],
                        "alist row list section is truncated"),
    "negative size": ("4 -3\n2 2\n", "alist header section is truncated or negative"),
    "row weight": (_GOOD_ALIST.replace("\n2 2 2\n", "\n2 1 2\n"),
                   "alist row weight section disagrees with the row lists"),
    "column moved": (_GOOD_ALIST.replace("\n3 0\n2 3\n", "\n2 0\n3 3\n"),
                     "alist column section contradicts the row lists"),
    "column out of range": (_GOOD_ALIST.replace("\n3 0\n", "\n4 0\n"),
                            "alist column section contradicts the row lists"),
    "column weight": (_GOOD_ALIST.replace("\n1 2 1 2\n", "\n2 1 1 2\n"),
                      "alist column section contradicts the row lists"),
}


@pytest.mark.parametrize("name", sorted(_BAD_ALISTS))
def test_bad_alist_is_named(name, tmp_path):
    """Each fault raises ValueError naming the file and the section; the
    reader used to raise a bare StopIteration on a short file and ignore
    the column section."""
    text, message = _BAD_ALISTS[name]
    path = _alist(tmp_path, text)
    with pytest.raises(ValueError) as err:
        read_alist(path)
    assert str(err.value) == f"{path}: {message}"


@pytest.mark.parametrize("text, message", [
    (_GOOD_ALIST.replace("\n2 4\n", "\n2 5\n"), "check position out of range"),
    (_GOOD_ALIST.replace("\n2 4\n", "\n2 2\n"), "check 1 repeats position 1"),
    ("4 3\n2 x\n", "invalid literal for int()"),
])
def test_alist_with_bad_row_lists_is_rejected(text, message, tmp_path):
    with pytest.raises(ValueError, match=message):
        read_alist(_alist(tmp_path, text))


def test_orthogonality_needs_equal_lengths():
    H = eg_line_parity_matrix(2, 2)
    with pytest.raises(ValueError, match="generator rows have length 15, "
                                         "parity checks have length 16"):
        is_orthogonal_to(H, np.zeros((3, 15), dtype=np.uint8))


@pytest.mark.parametrize("H", [eg_line_parity_matrix(2, 2),
                               SparseParityMatrix(6, [[0, 1, 2], [3, 4], [0, 5]])],
                         ids=["EG(2,4) lines", "irregular"])
def test_orthogonality_agrees_with_the_dense_product(H):
    """Single words count as one-row generator matrices; padding entries
    never count as positions."""
    words = np.random.default_rng(17).integers(0, 2, size=(200, H.n),
                                               dtype=np.uint8)
    dense = H.to_dense().astype(int)
    for w in words:
        assert is_orthogonal_to(H, w) == (not (dense @ w % 2).any())
        assert is_orthogonal_to(H, [w, w]) == is_orthogonal_to(H, w)
    assert is_orthogonal_to(SparseParityMatrix(H.n, []), words)


def test_alist_irregular_roundtrip(tmp_path):
    H = SparseParityMatrix(6, [[0, 1, 2], [3, 4], [0, 5]])
    path = tmp_path / "h.alist"
    write_alist(path, H)
    back = read_alist(path)
    assert back.to_dense().tolist() == H.to_dense().tolist()


def _to_dense_loop(H):
    """The row loop to_dense used to run, kept as reference."""
    D = np.zeros((H.num_checks, H.n), dtype=np.uint8)
    for i, r in enumerate(_rows(H)):
        D[i, r] = 1
    return D


def _col_weights_loop(H):
    """The row loop col_weights used to run, kept as reference."""
    w = np.zeros(H.n, dtype=int)
    for r in _rows(H):
        w[r] += 1
    return w


def _irregular_from_alist(tmp_path):
    path = tmp_path / "irregular.alist"
    write_alist(path, SparseParityMatrix(6, [[0, 1, 2], [3, 4], [0, 5]]))
    return read_alist(path)


_TABLE_MATRICES = {
    "EG(2,4) lines": lambda _: eg_line_parity_matrix(2, 2),
    "EG(2,8) lines": lambda _: eg_line_parity_matrix(2, 3),
    "EG(3,4) lines": lambda _: eg_line_parity_matrix(3, 2),
    "RM(2,4) dual orbit": lambda _: dual_orbit_parity_matrix(
        code_from_exponents(GF2m(4), rm_exponent_set(2, 4).members), 8),
    "irregular alist": _irregular_from_alist,
    "check-free": lambda _: SparseParityMatrix(16, []),
}


@pytest.mark.parametrize("name", sorted(_TABLE_MATRICES))
def test_check_table_reproduces_rows(name, tmp_path):
    """idx/mask hold every check's positions in increasing order, real
    entries first, padding 0, width the largest row weight; neither array
    can be written."""
    H = _TABLE_MATRICES[name](tmp_path)
    weights = H.mask.sum(axis=1)
    assert H.idx.shape == H.mask.shape == (H.num_checks, weights.max(initial=0))
    assert H.idx.dtype == np.int64 and H.mask.dtype == bool
    assert np.array_equal(H.mask, np.arange(H.mask.shape[1]) < weights[:, None])
    assert not H.idx[~H.mask].any()
    assert ((np.diff(H.idx, axis=1) > 0) | ~H.mask[:, 1:]).all()
    for a in (H.idx, H.mask):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0


@pytest.mark.parametrize("name", sorted(_TABLE_MATRICES))
def test_dense_and_weights_match_row_loops(name, tmp_path):
    H = _TABLE_MATRICES[name](tmp_path)
    dense = H.to_dense()
    assert dense.dtype == np.uint8
    assert np.array_equal(dense, _to_dense_loop(H))
    assert H.row_weights().tolist() == [len(r) for r in _rows(H)]
    assert H.col_weights().tolist() == _col_weights_loop(H).tolist()
