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
from .gf2m import GF2m

__all__ = [
    "MinimalDdBasis", "ZeroDirectionError",
    "covered_set", "cyclic_dd", "cyclic_da", "dd_code", "da_code",
    "derivative_codeword", "derivative_rows", "minimal_dd_basis",
    "stacked_derivative_rank", "check_equivalence_shift", "rm_projection",
]


class ZeroDirectionError(ValueError):
    """Derivatives require a nonzero direction element."""


@dataclass(frozen=True, eq=False)
class MinimalDdBasis:
    """Reduced generator matrix of the derivatives of C in one direction."""
    direction: int
    basis: np.ndarray

    @property
    def rank(self) -> int:
        return self.basis.shape[0]


def covered_set(s: int) -> frozenset[int]:
    """P(s): every integer whose binary expansion is a proper subset of s's.

    Empty for s = 0, of size 2^wt(s) - 1 otherwise.
    """
    subs = set()
    u = s
    while u:
        u = (u - 1) & s
        subs.add(u)
    return frozenset(subs)


def cyclic_dd(S: ExponentSet) -> ExponentSet:
    """Exponent set of the derivative descendant: the union of P(s), s in S.

    Doubling mod 2^m - 1 rotates s's m bits and so maps P(s) onto P(2s): the
    union over a doubling-closed S is closed without a closure pass.
    """
    return ExponentSet(S.n, frozenset().union(*map(covered_set, S.members)))


def cyclic_da(S: ExponentSet) -> ExponentSet:
    """Exponent set of the derivative ascendant: {s : P(s) subset of S}.

    P(s) inside the closed S puts P(s)'s closure there too, and doubling maps
    P(s) onto P(2s), so the result is closed without a closure pass.
    """
    return ExponentSet(S.n, [s for s in range(S.n) if covered_set(s) <= S.members])


def dd_code(spec: CodeSpec) -> CodeSpec:
    return code_from_exponents(spec.field, cyclic_dd(spec.exponents))


def da_code(spec: CodeSpec) -> CodeSpec:
    return code_from_exponents(spec.field, cyclic_da(spec.exponents))


def derivative_codeword(a, beta: int, field: GF2m) -> np.ndarray:
    """(D_beta a)_x = a_{x + beta} + a_x on the field's extended coordinates."""
    return derivative_rows(field, np.asarray(a, dtype=np.uint8)[None], beta)[0]


def derivative_rows(field: GF2m, G: np.ndarray, beta: int) -> np.ndarray:
    """Row-wise derivative of a generator matrix.

    Raises ValueError unless G is a matrix whose rows have the field's 2^m
    positions.
    """
    if beta == 0:
        raise ZeroDirectionError("derivative direction must be nonzero")
    G = np.asarray(G, dtype=np.uint8)
    if G.ndim != 2:
        raise ValueError(f"expected a matrix of words, got shape {G.shape}")
    if G.shape[1] != field.size:
        raise ValueError(f"words of length {G.shape[1]} do not fit the "
                         f"{field.size} positions of {field}")
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


def check_equivalence_shift(a, b: int, field: GF2m) -> bool:
    """Shift/derivative interchange: shifting direction alpha^b into alpha^0.

    Checks that the b-fold cyclic shift of (D_{alpha^b} a) equals
    D_{alpha^0} applied to the b-fold cyclic shift of a.  Holds for every
    word, which is what lets one decoder for the alpha^0 descendant serve
    all directions.
    """
    w = np.asarray(a, dtype=np.uint8)
    d_dir = derivative_codeword(w, field.alpha_pow(b), field)
    lhs = cyclic_shift(d_dir, b)
    rhs = derivative_codeword(cyclic_shift(w, b), field.alpha_pow(0), field)
    return bool(np.array_equal(lhs, rhs))


def rm_projection(a, beta: int, field: GF2m) -> np.ndarray:
    """Derivative in direction beta read on the transversal beta * H.

    H is the span of alpha^1 .. alpha^(m-1) (a hyperplane missing alpha^0),
    so beta*H meets every pair {x, x + beta} exactly once; its positions
    are `field.pair_transversal(beta)`.  The result is a 2^(m-1) truth
    table indexed by coordinates over that basis; for a word in the
    length-2^m Reed-Muller code of order r it is a Boolean polynomial of
    degree at most r - 1 (checkable with rm_membership).
    """
    d = derivative_codeword(a, beta, field)
    return d[field.pair_transversal(beta)[0]]
