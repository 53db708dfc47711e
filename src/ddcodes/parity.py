"""Parity-check matrices: Euclidean-geometry line incidences and dual searches.

Redundant, low-weight parity-check matrices drive the message-passing
decoders.  Viewing GF(2^(c*t)) as a t-dimensional space over GF(2^c), every
line {a + s*b : s in the subfield} yields a weight-2^c check; the incidence
matrix of all distinct lines is regular in both directions.  For codes
without that geometric structure, low-weight dual codewords found by a
meet-in-the-middle search serve the same purpose.
"""
from __future__ import annotations

import numpy as np

from .cyclic import CodeSpec
from .gf2 import all_codewords
from .gf2m import GF2m

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
    """A binary parity-check matrix stored as per-check position lists.

    `source` records how the matrix was built ("eg-lines", "dual-orbit",
    "file", or empty for ad hoc construction).  The same checks are also
    kept as a padded table, built once and read-only: row i of the
    (checks, max row weight) arrays `idx` and `mask` holds check i's
    positions, and `mask` marks the entries that are real, not padding.
    A check that lists a position twice raises ValueError.
    """

    def __init__(self, n: int, rows, source: str = ""):
        self.n = n
        self.source = source
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
        self.idx.setflags(write=False)
        self.mask.setflags(write=False)

    @property
    def num_checks(self) -> int:
        return len(self.rows)

    def row_weights(self) -> np.ndarray:
        return self.mask.sum(axis=1, dtype=int)

    def col_weights(self) -> np.ndarray:
        return self.to_dense().sum(axis=0, dtype=int)

    def to_dense(self) -> np.ndarray:
        H = np.zeros((len(self.rows), self.n), dtype=np.uint8)
        H[np.nonzero(self.mask)[0], self.idx[self.mask]] = 1
        return H

    @classmethod
    def from_dense(cls, H) -> "SparseParityMatrix":
        H = np.asarray(H)
        return cls(H.shape[1], [list(np.nonzero(r)[0]) for r in H])

    def __repr__(self):
        return f"SparseParityMatrix({self.num_checks}x{self.n})"


def eg_line_parity_matrix(mu_dims: int, subfield_bits: int) -> SparseParityMatrix:
    """Incidence matrix of all lines of the geometry EG(mu, q), q = 2^subfield_bits.

    Points are the 2^(mu * subfield_bits) elements of the extension field in
    extended-coordinate order (position 0 is the zero element).  For mu >= 2
    there are q^(mu-1) * (q^mu - 1) / (q - 1) lines of q points each, and
    each point lies on (q^mu - 1)/(q - 1) lines; the one-dimensional
    geometry has the single line containing every point.
    """
    if mu_dims < 1 or subfield_bits < 1:
        raise InvalidGeometryError(
            f"EG({mu_dims}, 2^{subfield_bits}) is not a geometry")
    m = mu_dims * subfield_bits
    field = GF2m(m)
    if mu_dims == 1:
        return SparseParityMatrix(field.size, [range(field.size)], source="eg-lines")
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
    return SparseParityMatrix(field.size, rows, source="eg-lines")


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
    bits = np.unpackbits(hits.view(np.uint8), axis=1, count=n)
    rows = sorted(np.flatnonzero(w).tolist() for w in bits)
    return SparseParityMatrix(spec.n, rows, source="dual-orbit")


def is_orthogonal_to(H: SparseParityMatrix, G) -> bool:
    """True iff every check annihilates every generator row."""
    G = np.asarray(G, dtype=np.uint8)
    return not ((H.to_dense().astype(int) @ G.T.astype(int)) % 2).any()


def write_alist(path, H: SparseParityMatrix) -> None:
    """Write a parity-check matrix in the standard alist text format."""
    cols = [[] for _ in range(H.n)]
    for i, r in enumerate(H.rows):
        for j in r:
            cols[j].append(i)
    col_w = [len(cn) for cn in cols]
    row_w = [len(r) for r in H.rows]
    max_c, max_r = max(col_w, default=0), max(row_w, default=0)
    lines = [
        f"{H.n} {H.num_checks}",
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


def read_alist(path) -> SparseParityMatrix:
    """Read a parity-check matrix from an alist file."""
    with open(path) as fh:
        tokens = fh.read().split()
    it = iter(tokens)
    n, m = int(next(it)), int(next(it))
    max_c, max_r = int(next(it)), int(next(it))
    col_w = [int(next(it)) for _ in range(n)]
    row_w = [int(next(it)) for _ in range(m)]
    del col_w
    for _ in range(n * max_c):
        next(it)
    rows = []
    for w in row_w:
        ids = [int(next(it)) for _ in range(max_r)]
        rows.append([j - 1 for j in ids if j > 0])
        if len(rows[-1]) != w:
            raise ValueError("row weight disagrees with its index list")
    return SparseParityMatrix(n, rows, source="file")
