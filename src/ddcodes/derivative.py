"""Derivative descendants and ascendants of extended cyclic codes.

The derivative of a word a in direction beta is (D_beta a)(x) = a(x + beta)
+ a(x); it is constant on every pair {x, x + beta}.  Applied to an extended
cyclic code C the derivatives in all nonzero directions span one code D(C),
the derivative descendant, whose exponent set follows from S_C by
binary-covering calculus.  The derivative ascendant A(C) is the largest
extended cyclic code whose descendant stays inside C.  The derivatives in a
single fixed direction span a possibly smaller subspace, the minimal
descendant, which has no exponent-set description but a computable basis.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cyclic import CodeSpec, ExponentSet, code_from_exponents, cyclic_shift
from .gf2 import rank, rref
from .gf2m import GF2m, coset_closure, field_for_length

__all__ = [
    "CoveredSet", "MinimalDdBasis", "ZeroDirectionError",
    "covered_set", "cyclic_dd", "cyclic_da", "dd_code", "da_code",
    "derivative_codeword", "derivative_rows", "minimal_dd_basis",
    "stacked_derivative_rank", "check_equivalence_shift", "rm_projection",
]


class ZeroDirectionError(ValueError):
    """Derivatives require a nonzero direction element."""


@dataclass(frozen=True)
class CoveredSet:
    """P(s): every integer whose binary expansion is a proper subset of s's."""
    s: int
    members: frozenset[int]

    def __iter__(self):
        return iter(sorted(self.members))

    def __len__(self):
        return len(self.members)

    def __contains__(self, u):
        return u in self.members


@dataclass(frozen=True, eq=False)
class MinimalDdBasis:
    """Reduced generator matrix of the derivatives of C in one direction."""
    direction: int
    basis: np.ndarray

    @property
    def rank(self) -> int:
        return self.basis.shape[0]


def covered_set(s: int) -> CoveredSet:
    """All proper submasks of s; empty for s = 0, size 2^wt(s) - 1 otherwise."""
    subs = set()
    u = s
    while u:
        u = (u - 1) & s
        subs.add(u)
    return CoveredSet(s, frozenset(subs))


def cyclic_dd(S: ExponentSet) -> ExponentSet:
    """Exponent set of the derivative descendant: union of closures of P(s)."""
    members: set[int] = set()
    for s in S.representatives():
        members |= coset_closure(covered_set(s).members, S.n)
    return ExponentSet(S.n, members)


def cyclic_da(S: ExponentSet) -> ExponentSet:
    """Exponent set of the derivative ascendant: {s : cc(P(s)) subset of S}."""
    n = S.n
    members = [s for s in range(n)
               if coset_closure(covered_set(s).members, n) <= S.members]
    return ExponentSet(n, members)


def dd_code(spec: CodeSpec) -> CodeSpec:
    return code_from_exponents(spec.field, cyclic_dd(spec.exponents))


def da_code(spec: CodeSpec) -> CodeSpec:
    return code_from_exponents(spec.field, cyclic_da(spec.exponents))


def derivative_codeword(a, beta: int, field: GF2m | None = None) -> np.ndarray:
    """(D_beta a)_x = a_{x + beta} + a_x on extended coordinates.

    The field defaults to the conventional one for len(a) = 2^m.
    """
    w = np.asarray(a, dtype=np.uint8)
    if field is None:
        field = field_for_length(w.shape[0])
    return derivative_rows(field, w[None], beta)[0]


def derivative_rows(field: GF2m, G: np.ndarray, beta: int) -> np.ndarray:
    """Row-wise derivative of a generator matrix."""
    if beta == 0:
        raise ZeroDirectionError("derivative direction must be nonzero")
    G = np.asarray(G, dtype=np.uint8)
    perm = field.pair_permutation(beta)
    return G[:, perm] ^ G


def minimal_dd_basis(spec: CodeSpec, beta: int) -> MinimalDdBasis:
    """Reduced basis of {D_beta a : a in C}, the single-direction descendant.

    Its rank can be strictly below the cyclic descendant's dimension; the
    cyclic descendant is the joint span over all directions.
    """
    D = derivative_rows(spec.field, spec.G, beta)
    R, pivots = rref(D)
    return MinimalDdBasis(int(beta), R[:len(pivots)].copy())


def stacked_derivative_rank(spec: CodeSpec, betas=None) -> int:
    """Rank of the derivatives of C taken jointly over the given directions."""
    field = spec.field
    if betas is None:
        betas = [int(field.antilog[e]) for e in range(field.n)]
    stacked = np.vstack([derivative_rows(field, spec.G, b) for b in betas])
    return rank(stacked)


def check_equivalence_shift(a, b: int, field: GF2m | None = None) -> bool:
    """Shift/derivative interchange: shifting direction alpha^b into alpha^0.

    Checks that the b-fold cyclic shift of (D_{alpha^b} a) equals
    D_{alpha^0} applied to the b-fold cyclic shift of a.  Holds for every
    word, which is what lets one decoder for the alpha^0 descendant serve
    all directions.
    """
    w = np.asarray(a, dtype=np.uint8)
    if field is None:
        field = field_for_length(w.shape[0])
    d_dir = derivative_codeword(w, field.alpha_pow(b), field)
    lhs = cyclic_shift(d_dir, b)
    rhs = derivative_codeword(cyclic_shift(w, b), field.alpha_pow(0), field)
    return bool(np.array_equal(lhs, rhs))


def rm_projection(a, beta: int, field: GF2m | None = None) -> np.ndarray:
    """Derivative in direction beta read on the transversal beta * H.

    H is the span of alpha^1 .. alpha^(m-1) (a hyperplane missing alpha^0),
    so beta*H meets every pair {x, x + beta} exactly once.  The result is a
    2^(m-1) truth table indexed by coordinates over that basis; for a word
    in the length-2^m Reed-Muller code of order r it is a Boolean polynomial
    of degree at most r - 1 (checkable with rm_membership).
    """
    w = np.asarray(a, dtype=np.uint8)
    if field is None:
        field = field_for_length(w.shape[0])
    if beta == 0:
        raise ZeroDirectionError("derivative direction must be nonzero")
    d = derivative_codeword(w, beta, field)
    t = field.m - 1
    out = np.zeros(1 << t, dtype=np.uint8)
    for idx in range(1 << t):
        h = 0
        for i in range(t):
            if (idx >> i) & 1:
                h ^= field.alpha_pow(i + 1)
        out[idx] = d[field.pos_of_elem[field.mul(beta, h)]]
    return out
