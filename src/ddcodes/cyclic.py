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
from .gf2m import GF2m, _is_int, coset_representatives, cyclotomic_coset

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


@dataclass(frozen=True)
class ExponentSet:
    """A doubling-closed subset of [n] = {0, ..., n-1}.

    Members are integers read mod n (16 is 1 when n = 15).  An n that is not
    an integer >= 1 or a member that is not an integer (a bool is not one)
    raises ValueError; a set not closed under j -> 2j mod n raises
    NotClosedUnderDoublingError.  Instances are immutable and hashable:
    equal n and members make equal sets, however the members were given.
    """
    n: int
    members: frozenset[int]

    def __post_init__(self):
        n = self.n
        if not _is_int(n) or n < 1:
            raise ValueError(f"exponent set length n={n} is not an integer >= 1")
        members = list(self.members)
        for kind in set(map(type, members)):   # as _is_int, once per type
            if kind is bool or not issubclass(kind, (int, np.integer)):
                bad = next(j for j in members if type(j) is kind)
                raise ValueError(f"exponent {bad} is not an integer")
        members = frozenset(int(j) % n for j in members)
        for j in members:
            if (2 * j) % n not in members:
                raise NotClosedUnderDoublingError(
                    f"{j} in S but {(2 * j) % n} = 2*{j} mod {n} is not")
        object.__setattr__(self, "members", members)

    @property
    def dimension(self) -> int:
        return len(self.members)

    def representatives(self) -> list[int]:
        return sorted(coset_representatives(self.members, self.n))

    def __contains__(self, j: int) -> bool:
        return j % self.n in self.members

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

    Requires g | x^n - 1.  The spectrum is the MS transform of g reduced
    mod x^n - 1, which changes no value at an n-th root of unity and lets
    g = x^n - 1 itself give the zero code.
    """
    n = field.n
    xn1 = (1 << n) | 1
    if gen_poly <= 0 or _poly_mod(xn1, gen_poly):
        raise NotADivisorError(f"{gen_poly:#x} does not divide x^{n} - 1")
    g = _poly_mod(gen_poly, xn1)
    spectrum = _power_sums(np.array([(g >> i) & 1 for i in range(n)]), field, -1)
    S = ExponentSet(n, np.flatnonzero(spectrum))
    assert S.dimension == n - (gen_poly.bit_length() - 1)
    return S


def generator_from_exponent_set(S: ExponentSet, field: GF2m) -> int:
    """g(x) = gcd(e(x), x^n - 1), packed as a bitmask.

    The idempotent e has S's indicator as spectrum, e(alpha^{-j}) = [j in S],
    so its zeros among the n-th roots of unity are exactly the roots of g.
    An indicator of a doubling-closed set meets the conjugacy constraint, so
    e is binary.  Raises ValueError, naming both lengths, if S.n is not the
    field's n.
    """
    n = field.n
    if S.n != n:
        raise ValueError(f"exponent set of length {S.n} does not fit a field of length {n}")
    indicator = np.zeros(n, dtype=np.int64)
    indicator[list(S.members)] = 1
    e = _power_sums(indicator, field, 1)
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
    """Extended narrow-sense BCH code of dimension k (zeros alpha^1..alpha^{d-1}).

    The zero set grows by the cyclotomic coset of each designed distance's
    new zero, alpha^{d-1}, until the dimension n - |zeros| reaches k.
    Raises ValueError if k is not an integer in 0..n, or if no designed
    distance gives dimension k.
    """
    n = field.n
    if not _is_int(k) or not 0 <= k <= n:
        raise ValueError(f"dimension k={k} is not an integer in 0..{n}")
    zeros = set()
    for z in range(1, n + 1):
        zeros |= cyclotomic_coset(z, n)
        if n - len(zeros) <= k:
            break
    if n - len(zeros) != k:
        raise ValueError(f"no narrow-sense BCH code of dimension {k} for n={n}")
    S = ExponentSet(n, set(range(n)) - {(-z) % n for z in zeros})
    return code_from_exponents(field, S)


_TERMS_PER_BLOCK = 64


def _power_sums(coeffs: np.ndarray, field: GF2m, sign: int) -> np.ndarray:
    """[sum_i c_i alpha^(sign*i*j) for j in 0..n-1] for field elements c_i.

    The nonzero terms are summed a block at a time, so the work array is
    _TERMS_PER_BLOCK x n whatever the number of terms.
    """
    n = field.n
    terms = np.flatnonzero(coeffs)
    logs = field.log[coeffs[terms]]
    j = np.arange(n)
    out = np.zeros(n, dtype=np.int64)
    for b in range(0, len(terms), _TERMS_PER_BLOCK):
        i = terms[b:b + _TERMS_PER_BLOCK, None]
        e = (logs[b:b + _TERMS_PER_BLOCK, None] + sign * i * j) % n
        out ^= np.bitwise_xor.reduce(field.antilog[e], axis=0)
    return out


def ms_transform(cyclic_word, field: GF2m) -> list[int]:
    """Spectrum [A_j] of a length-n binary word, A_j = a(alpha^{-j}).

    Raises ValueError if the word is not of length n or holds a value other
    than 0 and 1.
    """
    a = np.asarray(cyclic_word)
    if a.shape != (field.n,):
        raise ValueError(f"expected length {field.n} cyclic word")
    bad = np.flatnonzero((a != 0) & (a != 1))
    if len(bad):
        raise ValueError(f"cyclic word is not binary: a_{bad[0]} = {a[bad[0]]}")
    return _power_sums(a.astype(np.uint8), field, -1).tolist()


def ms_evaluate(spectrum, field: GF2m, extended: bool = True) -> np.ndarray:
    """Evaluate a spectrum back to a codeword: a_i = A(alpha^i), extension = A(0).

    Raises ValueError if there are not n coefficients or one of them is not
    an integer in 0..2^m - 1 (the first such is named), and
    NonBinaryResultError if any evaluation leaves {0, 1}, which happens
    exactly when the spectrum violates A_{2j} = A_j^2.
    """
    spec = list(spectrum)
    n = field.n
    if len(spec) != n:
        raise ValueError(f"expected {n} spectral coefficients")
    for j, A in enumerate(spec):
        if not (_is_int(A) and 0 <= A < field.size):
            raise ValueError(f"spectral coefficient A_{j} = {A} is not an "
                             f"integer in 0..{field.size - 1}")
    vals = _power_sums(np.array(spec, dtype=np.int64), field, 1)
    bad = np.flatnonzero(vals > 1)
    if len(bad):
        raise NonBinaryResultError(f"A(alpha^{bad[0]}) = {vals[bad[0]]} is not in GF(2)")
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
    w = np.asarray(word)
    if w.shape != (spec.n,) or ((w != 0) & (w != 1)).any():
        return False
    spectrum = ms_transform(w[1:], spec.field)
    return (int(w[0]) == spectrum[0]
            and all(j in spec.exponents.members for j, A in enumerate(spectrum) if A))


def bch_bound(S: ExponentSet, extended: bool = True) -> int:
    """Consecutive-missing-exponent minimum-distance bound.

    The cyclic-code bound is (longest circular run of integers absent from S)
    plus one.  For the extended code an odd bound improves by one: odd-weight
    words gain the parity bit and even-weight words already exceed an odd
    bound.  The run plus one is the largest gap between successive members
    of S read around the circle.  The degenerate full code (nothing absent)
    reports 1, and the zero code (everything absent) n + 1.
    """
    n = S.n
    if len(S) == n:
        return 1
    if not S.members:
        return n + 1
    present = sorted(S.members)
    delta = int(np.diff(present + [present[0] + n]).max())
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
