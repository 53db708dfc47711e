"""Arithmetic in GF(2^m) via log/antilog tables, plus cyclotomic-coset helpers.

Elements are stored as integers whose bit i is the coefficient of x^i in the
polynomial-basis representation, so 0b0011 = 1 + x.  A field is built from a
primitive polynomial (same bit convention, degree-m bit included); the
multiplicative group is then the powers of x.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "GF2m",
    "NonPrimitivePolynomialError",
    "DEFAULT_PRIMITIVE_POLYS",
    "field_for_length",
    "cyclotomic_coset",
    "coset_closure",
    "coset_representatives",
]

# One conventional primitive polynomial per extension degree.  Construction
# re-checks primitivity, so a bad entry would fail loudly rather than corrupt
# arithmetic.
DEFAULT_PRIMITIVE_POLYS = {
    2: 0b111,
    3: 0b1011,
    4: 0b10011,            # x^4 + x + 1
    5: 0b100101,
    6: 0b1000011,          # x^6 + x + 1
    7: 0b10001001,
    8: 0b100011101,        # x^8 + x^4 + x^3 + x^2 + 1
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
    14: 0b100010001000011,
    15: 0b1000000000000011,
    16: 0b10001000000001011,
}


def _is_int(v) -> bool:
    """True for an int or numpy integer; a bool is not one."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


class NonPrimitivePolynomialError(ValueError):
    """The given polynomial does not generate the full multiplicative group."""


class GF2m:
    """GF(2^m) with log/antilog tables and the extended position ordering.

    Positions index the length-2^m extended coordinate set: position 0 holds
    the zero field element (the "infinity" evaluation point) and position
    1 + e holds alpha^e for e in 0..n-1, n = 2^m - 1.
    """

    def __init__(self, m: int, prim_poly: int | None = None):
        if not 2 <= m <= 16:
            raise ValueError(f"m={m} out of supported range 2..16")
        if prim_poly is None:
            prim_poly = DEFAULT_PRIMITIVE_POLYS[m]
        if prim_poly.bit_length() != m + 1:
            raise NonPrimitivePolynomialError(
                f"polynomial {prim_poly:#x} does not have degree {m}")
        self.m = m
        self.n = (1 << m) - 1
        self.size = 1 << m
        self.prim_poly = prim_poly

        antilog = np.zeros(self.n, dtype=np.int64)
        x = 1
        for i in range(self.n):
            antilog[i] = x
            x <<= 1
            if x >> m:
                x ^= prim_poly
        if x != 1 or len(set(antilog.tolist())) != self.n:
            raise NonPrimitivePolynomialError(
                f"{prim_poly:#x} is not primitive over GF(2) for m={m}")
        self.antilog = antilog
        log = np.full(self.size, -1, dtype=np.int64)
        log[antilog] = np.arange(self.n)
        self.log = log

        # extended position ordering: [0, alpha^0, alpha^1, ..., alpha^{n-1}]
        self.elem_at_pos = np.concatenate(([0], antilog))
        pos = np.zeros(self.size, dtype=np.int64)
        pos[self.elem_at_pos] = np.arange(self.size)
        self.pos_of_elem = pos

    def __repr__(self):
        return f"GF2m(m={self.m}, prim_poly={self.prim_poly:#x})"

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self.antilog[(self.log[a] + self.log[b]) % self.n])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return int(self.antilog[(-self.log[a]) % self.n])

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("0 to a negative power")
            return 0 if e else 1
        return int(self.antilog[(self.log[a] * e) % self.n])

    def alpha_pow(self, e: int) -> int:
        """alpha^e (e taken mod n)."""
        return int(self.antilog[e % self.n])

    def pair_permutation(self, beta: int) -> np.ndarray:
        """Permutation p of extended positions with p[pos of x] = pos of x + beta.

        An involution: the positions of x and x + beta swap.  beta must be
        an int or numpy integer (a bool is not one).
        """
        if not _is_int(beta) or not 0 < beta < self.size:
            raise ValueError(f"beta={beta} is not a nonzero field element")
        return self.pos_of_elem[self.elem_at_pos ^ beta]

    def pair_transversal(self, beta: int) -> tuple[np.ndarray, np.ndarray]:
        """One position per pair {x, x + beta}, and each position's slot.

        Returns (T, slot): T[i] is the position of beta * 2i.  The even
        elements 2i span alpha^1 .. alpha^(m-1), a hyperplane missing 1, so
        their beta-multiples meet every pair exactly once; for beta = 1, T
        lists the even elements in ascending order.  slot[p] is the index in
        T of p's pair, so expanding a transversal word w to full length is
        w[slot].  Raises pair_permutation's ValueError for a bad beta.
        """
        partner = self.pair_permutation(beta)
        h = np.arange(0, self.size, 2)
        logs = (self.log[beta] + self.log[h]) % self.n   # log[0] = -1: masked
        T = self.pos_of_elem[np.where(h > 0, self.antilog[logs], 0)]
        slot = np.empty(self.size, dtype=np.int64)
        slot[T] = slot[partner[T]] = np.arange(len(T))
        return T, slot

    def shift_index(self, b: int) -> np.ndarray:
        """Index array s with out = word[s] the b-fold left cyclic shift.

        Shifting acts on the cyclic part only (position 1+i receives the value
        from position 1 + (i+b mod n)); the extension position is fixed.
        """
        idx = np.zeros(self.size, dtype=np.int64)
        idx[1:] = 1 + (np.arange(self.n) + b) % self.n
        return idx


def field_for_length(num_positions: int, prim_poly: int | None = None) -> GF2m:
    """Field whose extended coordinate set has the given size 2^m."""
    m = num_positions.bit_length() - 1
    if num_positions != 1 << m or m < 2:
        raise ValueError(f"{num_positions} is not a valid extended length 2^m")
    return GF2m(m, prim_poly)


def cyclotomic_coset(s: int, n: int) -> frozenset[int]:
    """Orbit of s under doubling mod n."""
    out = set()
    x = s % n
    while x not in out:
        out.add(x)
        x = (2 * x) % n
    return frozenset(out)


def coset_closure(S, n: int) -> frozenset[int]:
    out = set()
    for s in S:
        out |= cyclotomic_coset(s, n)
    return frozenset(out)


def coset_representatives(S, n: int) -> frozenset[int]:
    """Smallest member of each cyclotomic coset meeting S."""
    return frozenset(min(cyclotomic_coset(s, n)) for s in S)
