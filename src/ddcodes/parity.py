"""Parity-check matrices: Euclidean-geometry line incidences and dual searches.

Redundant, low-weight parity-check matrices drive the message-passing
decoders.  Viewing GF(2^(c*t)) as a t-dimensional space over GF(2^c), every
line {a + s*b : s in the subfield} yields a weight-2^c check; the incidence
matrix of all distinct lines is regular in both directions.  For codes
without that geometric structure, low-weight dual codewords found by a
meet-in-the-middle search serve the same purpose.  A matrix is stored only
as one read-only padded table, built with array operations and read as is
by the sum-product decoder: row i of `idx` holds check i's positions in
increasing order, and `mask` marks the real entries.
"""
from __future__ import annotations

from itertools import chain

import numpy as np

from .cyclic import CodeSpec
from .gf2 import all_codewords
from .gf2m import GF2m, _is_int

__all__ = [
    "SparseParityMatrix", "InvalidGeometryError", "DualTooLargeError",
    "EmptyParityMatrixError",
    "eg_line_parity_matrix", "dual_orbit_parity_matrix", "is_orthogonal_to",
    "write_alist", "read_alist",
]


class InvalidGeometryError(ValueError):
    """Euclidean-geometry dimensions do not describe a point set."""


class DualTooLargeError(ValueError):
    """Dual dimension exceeds the exhaustive low-weight search limit."""


class EmptyParityMatrixError(ValueError):
    """No dual codeword meets the requested weight limit."""


class SparseParityMatrix:
    """A binary parity-check matrix of length n, stored as the (checks, max
    row weight) table `idx`, `mask` of the module docstring, built from one
    position list per check.  A position outside 0..n-1 or repeated in a
    check, or one that is not an integer (a bool is not one), raises
    ValueError."""

    def __init__(self, n: int, rows):
        rows = list(rows)
        bad = [p for p in chain.from_iterable(rows) if not _is_int(p)]
        if bad:
            raise ValueError(f"check position {bad[0]!r} is not an integer")
        self._store(n, np.fromiter(map(len, rows), np.int64, len(rows)),
                    np.fromiter(chain.from_iterable(rows), np.int64))

    @classmethod
    def _from_lists(cls, n: int, weights: np.ndarray, positions: np.ndarray):
        """The matrix whose check i takes the next weights[i] positions."""
        H = cls.__new__(cls)
        H._store(n, weights, positions)
        return H

    def _store(self, n: int, weights: np.ndarray, positions: np.ndarray) -> None:
        if ((positions < 0) | (positions >= n)).any():
            raise ValueError("check position out of range")
        self.n = n
        self.mask = np.arange(weights.max(initial=0)) < weights[:, None]
        self.idx = np.full(self.mask.shape, n, dtype=np.int64)
        self.idx[self.mask] = positions
        self.idx.sort(axis=1)  # padding n sorts last
        self.idx[~self.mask] = 0
        repeats = (np.diff(self.idx, axis=1) == 0) & self.mask[:, 1:]
        if repeats.any():
            i, j = np.argwhere(repeats)[0]
            raise ValueError(f"check {i} repeats position {self.idx[i, j]}")
        self.idx.setflags(write=False)
        self.mask.setflags(write=False)

    @property
    def num_checks(self) -> int:
        return len(self.idx)

    def row_weights(self) -> np.ndarray:
        return self.mask.sum(axis=1, dtype=int)

    def col_weights(self) -> np.ndarray:
        return np.bincount(self.idx[self.mask], minlength=self.n)

    def to_dense(self) -> np.ndarray:
        H = np.zeros((self.num_checks, self.n), dtype=np.uint8)
        H[np.nonzero(self.mask)[0], self.idx[self.mask]] = 1
        return H

    @classmethod
    def from_dense(cls, H) -> "SparseParityMatrix":
        H = np.asarray(H)
        rows, cols = np.nonzero(H)
        return cls._from_lists(H.shape[1], np.bincount(rows, minlength=len(H)), cols)

    def __repr__(self):
        return f"SparseParityMatrix({self.num_checks}x{self.n})"


def eg_line_parity_matrix(mu_dims: int, subfield_bits: int) -> SparseParityMatrix:
    """Incidence matrix of all lines of the geometry EG(mu, q), q = 2^subfield_bits.

    Points are the 2^(mu * subfield_bits) elements of the extension field in
    extended-coordinate order (position 0 is the zero element).  For mu >= 2
    there are q^(mu-1) * (q^mu - 1) / (q - 1) lines of q points each, and
    each point lies on (q^mu - 1)/(q - 1) lines; the one-dimensional
    geometry has the single line containing every point.  Checks come in
    lexicographic order.
    """
    if mu_dims < 1 or subfield_bits < 1:
        raise InvalidGeometryError(
            f"EG({mu_dims}, 2^{subfield_bits}) is not a geometry")
    field = GF2m(mu_dims * subfield_bits)
    q = 1 << subfield_bits
    # alpha^step generates the subfield's units, so the line through 0 in
    # direction alpha^j is {0, alpha^(j + i*step)}; j < step meets each once
    step = field.n // (q - 1)
    through_zero = np.pad(field.antilog[np.arange(step)[:, None]
                                        + step * np.arange(q - 1)], ((0, 0), (1, 0)))
    on_lines = np.arange(field.size)[:, None, None] ^ through_zero  # elements
    lines = np.unique(np.sort(field.pos_of_elem[on_lines], axis=-1).reshape(-1, q),
                      axis=0)
    return SparseParityMatrix._from_lists(field.size, np.full(len(lines), q),
                                          lines.ravel())


def dual_orbit_parity_matrix(spec: CodeSpec, max_row_weight: int) -> SparseParityMatrix:
    """All dual codewords of weight <= max_row_weight, as parity checks.

    Enumerates the full dual space meet-in-the-middle: all_codewords lists
    the spans of the first 15 and the remaining dual basis rows, packed to
    uint64 lanes, and each word of the second half is added to every word
    of the first.  That stays practical up to dual dimension 30
    (DualTooLargeError above it).  The rows come out sorted, and the result
    is closed under the extension-fixing cyclic shifts because the dual of
    an extended cyclic code is invariant under them.
    """
    D = spec.check_matrix
    r, n = D.shape
    if r > 30:
        raise DualTooLargeError(f"dual dimension {r} too large for exhaustive search")

    def lanes(rows: np.ndarray) -> np.ndarray:
        # rows padded to whole lanes, so the flat bit stream packs row by row
        words = all_codewords(np.pad(rows, ((0, 0), (0, -n % 64))))
        return np.packbits(words).view(np.uint64).reshape(len(words), -1)

    half_a, half_b = lanes(D[:15]), lanes(D[15:])
    hits = []
    for b in half_b:
        words = half_a ^ b
        weights = np.bitwise_count(words).sum(axis=1)
        hits.append(words[(weights > 0) & (weights <= max_row_weight)])
    hits = np.concatenate(hits)
    if not len(hits):
        raise EmptyParityMatrixError(
            f"no dual codeword has weight <= {max_row_weight}")
    H = SparseParityMatrix.from_dense(
        np.unpackbits(hits.view(np.uint8), axis=1, count=n))
    # sorted as lists: padding below every position puts a list first
    key = np.unique(np.where(H.mask, H.idx, -1), axis=0)
    return SparseParityMatrix._from_lists(n, (key >= 0).sum(axis=1), key[key >= 0])


def is_orthogonal_to(H: SparseParityMatrix, G) -> bool:
    """True iff every check annihilates every generator row (ValueError
    unless G's rows have length H.n)."""
    G = np.atleast_2d(np.asarray(G, dtype=np.uint8))
    if G.shape[-1] != H.n:
        raise ValueError(f"generator rows have length {G.shape[-1]}, "
                         f"parity checks have length {H.n}")
    return not np.bitwise_xor.reduce(G[..., H.idx] & H.mask, axis=-1).any()


def write_alist(path, H: SparseParityMatrix) -> None:
    """Write a parity-check matrix in the standard alist text format."""
    T = SparseParityMatrix.from_dense(H.to_dense().T)  # each column's checks
    with open(path, "w") as fh:
        for section in ([[H.n, H.num_checks]], [[T.idx.shape[1], H.idx.shape[1]]],
                        [T.row_weights()], [H.row_weights()],
                        np.where(T.mask, T.idx + 1, 0),
                        np.where(H.mask, H.idx + 1, 0)):
            np.savetxt(fh, section, fmt="%d")


def read_alist(path) -> SparseParityMatrix:
    """Read a parity-check matrix from an alist file; ValueError names the
    file and the section of a truncated or self-contradictory file."""
    with open(path) as fh:
        tokens = np.array(fh.read().split(), dtype=np.int64)
    if len(tokens) < 4 or tokens[:4].min() < 0:
        raise ValueError(f"{path}: alist header section is truncated or negative")
    n, m, max_c, max_r = map(int, tokens[:4])
    sections, at = [], 4
    for name, size in (("column weight", n), ("row weight", m),
                       ("column list", n * max_c), ("row list", m * max_r)):
        if at + size > len(tokens):
            raise ValueError(f"{path}: alist {name} section is truncated")
        sections.append(tokens[at:at + size])
        at += size
    col_w, row_w, cols, rows = sections
    rows, cols = rows.reshape(m, max_r), cols.reshape(n, max_c)
    if not np.array_equal(row_w, (rows != 0).sum(axis=1)):
        raise ValueError(f"{path}: alist row weight section disagrees with the "
                         f"row lists")
    H = SparseParityMatrix._from_lists(n, row_w, rows[rows != 0] - 1)
    # each (check, position) pair as one key, from either section
    listed = np.sort((cols[cols != 0] - 1) * n + np.nonzero(cols)[0])
    stored = np.sort(np.nonzero(H.mask)[0] * n + H.idx[H.mask])
    if not (np.array_equal(col_w, H.col_weights())
            and np.array_equal(listed, stored)):
        raise ValueError(f"{path}: alist column section contradicts the row lists")
    return H
