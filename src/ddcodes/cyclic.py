"""Extended binary cyclic codes described by Mattson-Solomon exponent sets.

A cyclic code of length n = 2^m - 1 with generator g is recorded by its
exponent set S = {j : g(alpha^{-j}) != 0}; |S| is the dimension.  Every
codeword is the evaluation vector of its MS polynomial A(z) (spectrum
supported on S), and the extended code prepends the evaluation at 0, which
equals the overall parity A_0.  Coordinates follow the GF2m position order:
position 0 is the zero element, position 1 + e is alpha^e.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gf2 import DimensionTooLargeError, all_codewords, nullspace
from .gf2m import GF2m, coset_closure, coset_representatives

__all__ = [
    "ExponentSet", "CodeSpec",
    "NotClosedUnderDoublingError", "NonBinaryResultError",
    "NotADivisorError", "DimensionTooLargeError",
    "exponent_set_from_generator", "generator_from_exponent_set",
    "code_from_generator", "code_from_exponents", "ebch_code",
    "ms_transform", "ms_evaluate", "extend_cyclic",
    "cyclic_shift", "is_member", "bch_bound", "min_distance_exhaustive",
    "rm_exponent_set", "anf_coefficients", "rm_membership",
]


class NotClosedUnderDoublingError(ValueError):
    pass


class NonBinaryResultError(ValueError):
    """MS evaluation left GF(2): the spectrum violates the conjugacy constraint."""


class NotADivisorError(ValueError):
    """Polynomial is not a divisor of x^n - 1."""


class ExponentSet:
    """A doubling-closed subset of [n] = {0, ..., n-1}."""

    def __init__(self, n: int, members):
        self.n = n
        self.members = frozenset(int(j) % n for j in members)
        for j in self.members:
            if (2 * j) % n not in self.members:
                raise NotClosedUnderDoublingError(
                    f"{j} in S but {(2 * j) % n} = 2*{j} mod {n} is not")

    @property
    def dimension(self) -> int:
        return len(self.members)

    def representatives(self) -> list[int]:
        return sorted(coset_representatives(self.members, self.n))

    def __contains__(self, j: int) -> bool:
        return j % self.n in self.members

    def __eq__(self, other) -> bool:
        return (isinstance(other, ExponentSet)
                and self.n == other.n and self.members == other.members)

    def __hash__(self):
        return hash((self.n, self.members))

    def __iter__(self):
        return iter(sorted(self.members))

    def __len__(self):
        return len(self.members)

    def __repr__(self):
        return f"ExponentSet(n={self.n}, k={self.dimension}, reps={self.representatives()})"


@dataclass(frozen=True, eq=False)
class CodeSpec:
    """An extended cyclic code: field, exponent set, generator, generator matrix."""
    field: GF2m
    exponents: ExponentSet
    gen_poly: int
    G: np.ndarray

    @property
    def n(self) -> int:
        return self.field.size

    @property
    def k(self) -> int:
        return self.exponents.dimension

    @cached_property
    def check_matrix(self) -> np.ndarray:
        """Dense (n - k) x n parity-check matrix: the dual basis of G.

        Computed on first use and then kept, read-only, for the life of the
        spec; the derivative loops test convergence against it.
        """
        H = nullspace(self.G)
        H.setflags(write=False)
        return H

    def __repr__(self):
        return f"CodeSpec(({self.n},{self.k}), reps={self.exponents.representatives()})"


def _poly_mod(a: int, b: int) -> int:
    """a mod b in GF(2)[x], polynomials packed as ints (bit i is x^i); b != 0."""
    db = b.bit_length()
    while a.bit_length() >= db:
        a ^= b << (a.bit_length() - db)
    return a


def exponent_set_from_generator(gen_poly: int, field: GF2m) -> ExponentSet:
    """S = {j : g(alpha^{-j}) != 0}, the support of g's spectrum.

    Requires g | x^n - 1.  The spectrum is ms_transform of g reduced mod
    x^n - 1, which changes no value at an n-th root of unity and lets
    g = x^n - 1 itself give the zero code.
    """
    n = field.n
    xn1 = (1 << n) | 1
    if gen_poly <= 0 or _poly_mod(xn1, gen_poly):
        raise NotADivisorError(f"{gen_poly:#x} does not divide x^{n} - 1")
    g = _poly_mod(gen_poly, xn1)
    spectrum = ms_transform([(g >> i) & 1 for i in range(n)], field)
    S = ExponentSet(n, np.flatnonzero(spectrum))
    assert S.dimension == n - (gen_poly.bit_length() - 1)
    return S


def generator_from_exponent_set(S: ExponentSet, field: GF2m) -> int:
    """g(x) = gcd(e(x), x^n - 1), packed as a bitmask.

    The idempotent e has S's indicator as spectrum, e(alpha^{-j}) = [j in S],
    so its zeros among the n-th roots of unity are exactly the roots of g.
    """
    n = field.n
    e = ms_evaluate([int(j in S.members) for j in range(n)], field, extended=False)
    a, b = (1 << n) | 1, sum(1 << int(i) for i in np.flatnonzero(e))
    while b:
        a, b = b, _poly_mod(a, b)
    return a


def _build_generator_matrix(field: GF2m, gen_poly: int) -> np.ndarray:
    """k x 2^m extended generator matrix; row r extends x^r * g(x)."""
    n = field.n
    k = n - (gen_poly.bit_length() - 1)
    gc = np.array([(gen_poly >> i) & 1 for i in range(n)], dtype=np.uint8)
    return extend_cyclic(gc[(np.arange(n) - np.arange(k)[:, None]) % n])


def code_from_generator(field: GF2m, gen_poly: int) -> CodeSpec:
    S = exponent_set_from_generator(gen_poly, field)
    return CodeSpec(field, S, gen_poly, _build_generator_matrix(field, gen_poly))


def code_from_exponents(field: GF2m, members) -> CodeSpec:
    S = members if isinstance(members, ExponentSet) else ExponentSet(field.n, members)
    g = generator_from_exponent_set(S, field)
    return CodeSpec(field, S, g, _build_generator_matrix(field, g))


def ebch_code(field: GF2m, k: int) -> CodeSpec:
    """Extended narrow-sense BCH code of dimension k (zeros alpha^1..alpha^{d-1})."""
    n = field.n
    delta = 2
    while True:
        zeros = coset_closure(range(1, delta), n)
        dim = n - len(zeros)
        if dim == k:
            break
        if dim < k:
            raise ValueError(f"no narrow-sense BCH code of dimension {k} for n={n}")
        delta += 1
    S = ExponentSet(n, set(range(n)) - {(-z) % n for z in zeros})
    return code_from_exponents(field, S)


def ms_transform(cyclic_word, field: GF2m) -> list[int]:
    """Spectrum [A_j] of a length-n binary word, A_j = a(alpha^{-j})."""
    a = np.asarray(cyclic_word, dtype=np.uint8)
    if a.shape != (field.n,):
        raise ValueError(f"expected length {field.n} cyclic word")
    neg_j = -np.arange(field.n)
    out = np.zeros(field.n, dtype=np.int64)
    for i in np.flatnonzero(a):
        out ^= field.antilog[neg_j * i % field.n]
    return out.tolist()


def ms_evaluate(spectrum, field: GF2m, extended: bool = True) -> np.ndarray:
    """Evaluate a spectrum back to a codeword: a_i = A(alpha^i), extension = A(0).

    Raises NonBinaryResultError if any evaluation leaves {0, 1}, which happens
    exactly when the spectrum violates A_{2j} = A_j^2.
    """
    spec = list(spectrum)
    n = field.n
    if len(spec) != n:
        raise ValueError(f"expected {n} spectral coefficients")
    i = np.arange(n)
    vals = np.zeros(n, dtype=np.int64)
    for j, A in enumerate(spec):
        if A:
            vals ^= field.antilog[(field.log[A] + i * j) % n]
    bad = np.flatnonzero(vals > 1)
    if len(bad):
        first = bad[0]
        raise NonBinaryResultError(
            f"A(alpha^{first}) = {vals[first]} is not in GF(2)")
    if not extended:
        return vals.astype(np.uint8)
    ext = spec[0]
    if ext > 1:
        raise NonBinaryResultError(f"A(0) = {ext} is not in GF(2)")
    return np.concatenate(([ext], vals)).astype(np.uint8)


def extend_cyclic(cyclic_word) -> np.ndarray:
    """Prepend the overall parity (the MS coefficient A_0) to a cyclic word,
    or to each row of a stack of them."""
    a = np.asarray(cyclic_word, dtype=np.uint8)
    return np.concatenate((np.bitwise_xor.reduce(a, axis=-1, keepdims=True), a),
                          axis=-1)


def cyclic_shift(word, b: int) -> np.ndarray:
    """b-fold cyclic shift of an extended word; the extension position is fixed.

    out[1 + i] = word[1 + (i + b) mod n]; negative b shifts the other way.
    """
    w = np.asarray(word)
    n = len(w) - 1
    out = w.copy()
    out[1:] = np.roll(w[1:], -b % n)
    return out


def is_member(spec: CodeSpec, word) -> bool:
    """Spectrum support inside S plus the extension bit matching A_0."""
    w = np.asarray(word, dtype=np.uint8)
    if w.shape != (spec.n,):
        return False
    spectrum = ms_transform(w[1:], spec.field)
    for j, A in enumerate(spectrum):
        if A and j not in spec.exponents.members:
            return False
    return int(w[0]) == spectrum[0]


def bch_bound(S: ExponentSet, extended: bool = True) -> int:
    """Consecutive-missing-exponent minimum-distance bound.

    The cyclic-code bound is (longest circular run of integers absent from S)
    plus one.  For the extended code an odd bound improves by one: odd-weight
    words gain the parity bit and even-weight words already exceed an odd
    bound.  The degenerate full code (nothing absent) reports 1.
    """
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
    if best == 0:          # everything absent: zero code, bound is vacuous
        return n + 1
    delta = best + 1
    if extended and delta % 2 == 1:
        delta += 1
    return delta


def min_distance_exhaustive(code) -> int:
    """Exact minimum distance: the least nonzero weight in all_codewords(G).

    Accepts a CodeSpec or any binary generator matrix with k <= 20 rows
    (DimensionTooLargeError otherwise); zero words from dependent rows are
    skipped, and a code with no nonzero word reports its length plus one.
    The codebook takes 2^k * n bytes.
    """
    G = code.G if isinstance(code, CodeSpec) else np.asarray(code, dtype=np.uint8)
    weights = np.count_nonzero(all_codewords(G), axis=1)
    return int(weights[weights > 0].min(initial=G.shape[1] + 1))


def rm_exponent_set(r: int, m: int) -> ExponentSet:
    """Exponent set {j in [n] : weight of j's binary expansion <= r}.

    Valid for 0 <= r < m.  The order-m code of length 2^m is the full
    space, which contains odd-weight words and therefore has no
    extension-bit (overall parity) representation; the weight formula
    would silently alias the order-(m-1) set, so r = m is rejected.
    """
    if not 0 <= r < m:
        raise ValueError(f"order r={r} out of range 0..{m - 1}")
    n = (1 << m) - 1
    return ExponentSet(n, [j for j in range(n) if j.bit_count() <= r])


def anf_coefficients(values) -> np.ndarray:
    """Moebius transform of a Boolean function given as a 2^t truth table."""
    f = np.asarray(values, dtype=np.uint8).copy()
    t = f.shape[0].bit_length() - 1
    if f.shape[0] != 1 << t:
        raise ValueError("truth table length must be a power of two")
    for j in range(t):
        step = 1 << j
        mask = (np.arange(1 << t) & step).astype(bool)
        f[mask] ^= f[np.arange(1 << t)[mask] ^ step]
    return f


def rm_membership(values, r: int) -> bool:
    """True iff the truth table is a Boolean polynomial of degree <= r."""
    coeffs = anf_coefficients(values)
    idx = np.nonzero(coeffs)[0]
    return all(int(u).bit_count() <= r for u in idx)
