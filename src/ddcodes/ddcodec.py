"""Derivative decoding: soft derivative combination, voting, and the loop.

A derivative decoder never decodes the outer code directly.  Each iteration
it forms, for every direction beta in a chosen set B, the LLR vector of the
derivative word (box-plus of the received LLRs over each pair {x, x+beta}),
hands it to a decoder for the (much smaller) descendant code, and converts
the decoded derivative back into per-position soft votes on the original
word.  The votes are averaged across directions to give the next LLR
vector, and the loop stops as soon as the hard decision is a codeword of the
outer code C, tested against C's cached parity-check matrix
`spec.check_matrix`.

The loop forms the box-plus with `boxplus`'s own operations but takes tanh
once per position, not once per pair member, and averages the votes with
the reduction `ndarray.mean` runs, without its call overhead; both give
`boxplus`'s and `mean`'s values bit for bit.  A frame whose channel hard
decision is already a codeword of C, with every |L| at or above a fixed
floor (`_EXIT_FLOOR`, 1e-4), leaves before any inner call with the report
the first iteration would give it, when the inner decoder states its
`codeword_iterations` as the closures of `ddcodes.decoders` do.  The floor
keeps an exact inner decoder's correlation scores apart from rounding;
`_derivative_loop` derives it.

One loop serves both decoders of the paper; they differ only in the index
maps that carry the derivative words into the inner decoder and its bits
back, built once per (field, B).  `dd_decode_cyclic` decodes every
direction in the common cyclic descendant, so its maps are the identity.
`dd_decode_minimal` reuses one decoder for the direction-1 minimal
descendant: its maps cyclically shift each direction's problem into
direction 1 and shift the bits back.  A direction-1 derivative is constant
on every pair {x, x + 1}, so the minimal loop forms it only on one position
per pair (`minimal_transversal`), and its inner decoder works on the
descendant punctured to those 2^(m-1) positions.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cyclic import CodeSpec
from .decoders import LLR_CLIP, _ATANH_LIM, _checked_llrs, _nonnegative_int
from .derivative import ZeroDirectionError
from .gf2m import GF2m, _is_int

__all__ = [
    "DirectionSet", "DecodeReport", "boxplus",
    "dd_decode_cyclic", "dd_decode_minimal", "minimal_transversal",
    "flop_account",
]


# Smallest |L| at which a frame whose channel hard decision is a codeword
# leaves the derivative loop before any inner call (see _derivative_loop).
_EXIT_FLOOR = 1e-4


def boxplus(a, b) -> np.ndarray:
    """LLR of the XOR of two bits with LLRs a and b (exact tanh rule).

    Inputs are clipped to +-30 and the atanh argument is kept away from
    +-1, so saturated inputs stay finite: boxplus(30, -30) is about -28.3,
    not -30.  This is the reference for the derivative loop, which runs
    the same operations with tanh taken once per position and must match
    it bit for bit.
    """
    a = np.clip(np.asarray(a, dtype=np.float64), -LLR_CLIP, LLR_CLIP)
    b = np.clip(np.asarray(b, dtype=np.float64), -LLR_CLIP, LLR_CLIP)
    p = np.tanh(a / 2) * np.tanh(b / 2)
    p = np.clip(p, -_ATANH_LIM, _ATANH_LIM)
    return np.clip(2 * np.arctanh(p), -LLR_CLIP, LLR_CLIP)


@dataclass(frozen=True)
class DirectionSet:
    """An ordered, duplicate-free set of nonzero derivative directions.

    Elements are kept in ascending order of their discrete log, which fixes
    the summation order of the voting average and so keeps runs
    bit-reproducible.
    """
    elements: tuple[int, ...]

    @classmethod
    def all_of(cls, field: GF2m) -> "DirectionSet":
        return cls(tuple(int(x) for x in field.antilog))

    @classmethod
    def random_subset(cls, field: GF2m, k: int, seed: int) -> "DirectionSet":
        """k distinct directions drawn once from a seeded generator; k and
        seed are ints or numpy integers (a bool is not one), seed >= 0."""
        if not _is_int(k) or not 1 <= k <= field.n:
            raise ValueError(f"cannot draw {k} of {field.n} directions")
        seed = _nonnegative_int(seed, "direction seed")
        rng = np.random.default_rng(seed)
        exps = np.sort(rng.choice(field.n, size=k, replace=False))
        return cls(tuple(int(field.antilog[e]) for e in exps))

    def exponents(self, field: GF2m) -> list[int]:
        return [int(field.log[b]) for b in self.elements]

    def __post_init__(self):
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("duplicate directions")
        if 0 in self.elements:
            raise ZeroDirectionError("0 is not a direction")

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


@dataclass(eq=False)
class DecodeReport:
    """Outcome of one derivative-decoding call; every field is measured."""
    bits: np.ndarray
    iterations: int
    converged: bool
    inner_iterations: np.ndarray   # (iterations, |B|) inner-decoder tallies


def minimal_transversal(field: GF2m) -> tuple[np.ndarray, np.ndarray]:
    """Where the minimal loop decodes: one position per pair {x, x + 1}.

    Returns (T, slot): T lists the smaller position of each pair in
    ascending order, 2^(m-1) of them, and slot[p] is the index in T of p's
    pair, so a word w on T expands to full length as w[slot].  The inner
    decoder of `dd_decode_minimal` works on the direction-1 minimal
    descendant punctured to T, `minimal_dd_basis(spec, 1).basis[:, T]`.
    Ascending order keeps the stable reliability sort of a punctured word in
    the order the full-length sort gives its pairs, ties included.  (This is
    not `field.pair_transversal(1)`, which lists the pairs in field-element
    order.)
    """
    partner = field.pair_permutation(1)
    positions = np.arange(field.size)
    T = np.flatnonzero(positions < partner)
    return T, np.searchsorted(T, np.minimum(positions, partner))


@lru_cache(maxsize=32)
def _direction_maps(field: GF2m, B: DirectionSet, kind: str):
    """Read-only index maps of the derivative loop for one (field, direction
    set, kind), built on first use.

    partner[d] is the pair permutation of direction B[d] on the original
    positions, shape (|B|, 2^m).  The inner decoder sees an (|B|, h) stack:
    its entry (d, i) is the derivative LLR boxplus(L[at], L[at_partner]) of
    the pair {at[d, i], at_partner[d, i]} of direction B[d].  from_inner
    holds flat indices into the raveled (|B|, h) inner bits, row offsets
    included, so np.take(bits, from_inner) is the (|B|, 2^m) stack of
    decoded derivative bits on the original positions.

    For the "cyclic" kind h = 2^m and every map but partner is the
    identity.  For the "minimal" kind row d is the shift by the discrete log
    b of B[d]: the b-shifted derivative in direction alpha^b is the
    direction-1 derivative of the b-shifted word, which is constant on the
    pairs {y, y + 1}.  So h = 2^(m-1): with (T, slot) =
    minimal_transversal(field), slot i of row d sits at the b-shifted
    position of T[i], and position x takes the bit of its b-shifted
    position's pair.
    """
    partner = np.stack([field.pair_permutation(b) for b in B.elements])
    positions = np.arange(field.size)
    if kind == "cyclic":
        shifts = np.broadcast_to(positions, partner.shape)
        T = slot = positions
    else:
        shifts = np.stack([field.shift_index(e) for e in B.exponents(field)])
        T, slot = minimal_transversal(field)
    at = shifts[:, T]
    at_partner = np.take_along_axis(partner, at, axis=1)
    from_inner = slot[np.argsort(shifts, axis=1)] + len(T) * np.arange(len(B))[:, None]
    maps = (partner, at, at_partner, from_inner)
    for a in maps:
        a.setflags(write=False)
    return maps


def _derivative_loop(L, spec: CodeSpec, decoder, B: DirectionSet | None,
                     N_max: int, kind: str) -> DecodeReport:
    """The derivative loop of both public decoders; `kind` picks the maps.

    Per iteration, for each direction beta in B and position x with
    partner p = x + beta, on the running LLR vector L: the derivative LLR
    at x is boxplus(L[x], L[p]), the same for both positions of the pair;
    and the decoded derivative bit a_hat[x] votes (1 - 2 * a_hat[x]) * L[p]
    on x, since a correct derivative bit says whether x agrees with its
    partner.  The next L is the mean vote over B.  Raises ValueError if the
    decoder's bits do not have the shape of the stack it was handed.

    The box-plus is formed as `boxplus` forms it, with the same operations
    in the same order, but tanh is taken once per position: t = tanh(clip(L)
    / 2) on the 2^m positions, then clip(2 atanh(clip(t[x] t[p]))) on every
    pair.  The mean vote is the reduction `ndarray.mean` performs, then one
    division by |B|.  Both give the values `boxplus` and `mean` give, bit
    for bit.

    A frame whose channel hard decision h already passes every check of C
    leaves before any inner call when N_max >= 1, min |L| >= _EXIT_FLOOR,
    and the decoder states its `codeword_iterations` (as the closures of
    `ddcodes.decoders` do).  It reports h, converged at iteration 1, with
    that tally for every direction: exactly what the first iteration gives
    it.  Every derivative hard decision D_beta h is then a codeword of the
    descendant, and each box-plus has its sign, so the inner decoder
    returns D_beta h (SPA because its first update flips no bit, ML and
    OSD because D_beta h has the largest correlation), and every vote
    (1 - 2 D_beta h[x]) L[x + beta] has the sign of h[x].  A decoder
    without the attribute, such as a recording wrapper, runs the loop.

    The floor keeps the inner decoder's scores apart.  With |L| >= f,
    every |box-plus| is at least about f^2 / 2, so D_beta h beats any other
    codeword's correlation by at least f^2.  Each n-term correlation of
    values up to 30 is rounded by up to about n^2 * 30 * 2^-53, so the gap
    survives rounding when f > n * 6e-8: 1.5e-5 at n = 256, and below
    1e-4 up to n of about 1700.  Without a floor the exit is not exact:
    codeword-sign frames of magnitudes 30 and 1e-20 on (16, 7) leave the
    codeword under ML, because two correlations round to a tie and argmax
    takes the earlier codeword.
    """
    field = spec.field
    L = _checked_llrs(L, spec.n, batch=False)
    N_max = _nonnegative_int(N_max, "N_max")
    if B is None:
        B = DirectionSet.all_of(field)
    elif not isinstance(B, DirectionSet):
        raise TypeError(f"B must be a DirectionSet or None, got "
                        f"{type(B).__name__}")
    H = spec.check_matrix
    hard = (L < 0).astype(np.uint8)
    tally = getattr(decoder, "codeword_iterations", None)
    # uint8 wraps mod 256, so H @ hard % 2 is the exact syndrome
    if (N_max and tally is not None and not (H @ hard % 2).any()
            and np.abs(L).min() >= _EXIT_FLOOR):
        return DecodeReport(hard, 1, True,
                            np.full((1, len(B)), tally, dtype=np.int64))
    partner, at, at_partner, from_inner = _direction_maps(field, B, kind)
    Lcur = L
    inner_tallies = []
    converged = False
    it = 0
    for it in range(1, N_max + 1):
        t = np.tanh(np.clip(Lcur, -LLR_CLIP, LLR_CLIP) * 0.5)
        Ld = np.multiply(t[at], t[at_partner])
        np.clip(Ld, -_ATANH_LIM, _ATANH_LIM, out=Ld)
        np.arctanh(Ld, out=Ld)
        Ld *= 2
        np.clip(Ld, -LLR_CLIP, LLR_CLIP, out=Ld)
        bits, inner_its, _ = decoder(Ld)
        if np.shape(bits) != Ld.shape:
            raise ValueError(f"inner decoder returned bits of shape "
                             f"{np.shape(bits)} for a stack of shape {Ld.shape}")
        inner_tallies.append(np.asarray(inner_its, dtype=np.int64))
        bits = np.take(bits, from_inner)        # (|B|, 2^m), original positions
        votes = (1.0 - 2.0 * bits.astype(np.float64)) * Lcur[partner]
        Lcur = np.add.reduce(votes, axis=0) / len(B)
        hard = (Lcur < 0).astype(np.uint8)
        if not (H @ hard % 2).any():
            converged = True
            break
    tallies = np.stack(inner_tallies) if inner_tallies else np.zeros((0, len(B)), dtype=np.int64)
    return DecodeReport(hard, it, converged, tallies)


def dd_decode_cyclic(L, spec: CodeSpec, dd_decoder, B: DirectionSet | None = None,
                     N_max: int = 3) -> DecodeReport:
    """Derivative decoding with every direction decoded in the cyclic descendant.

    dd_decoder is a batch decoder for the cyclic descendant code: it maps a
    (|B|, 2^m) stack of derivative LLR vectors to (bits, iterations,
    converged).  Per outer iteration the derivative of the running LLR
    vector is decoded in every direction, the soft votes are averaged into
    the new LLR vector, and the loop exits early once the hard decision
    passes every check of `spec.check_matrix`.  A frame whose channel hard
    decision already passes them, with min |L| >= 1e-4 and N_max >= 1,
    returns before any inner call if dd_decoder has a `codeword_iterations`
    attribute, with the report the first iteration gives (see
    `_derivative_loop`).  Raises ValueError unless L is a finite vector of
    length 2^m and N_max an integer >= 0, and TypeError unless B is None or
    a DirectionSet.

    With an exact inner decoder, any hard decision that lies in the
    derivative ascendant A(D(C)) is a fixed point of the loop: its
    derivatives are codewords of D(C), so every vote keeps its sign.
    Near-ML output is therefore expected only when C = A(D(C)), as for the
    Reed-Muller codes; otherwise the loop can stall on a word of A(D(C))
    outside C and exit at N_max unconverged.
    """
    return _derivative_loop(L, spec, dd_decoder, B, N_max, "cyclic")


def dd_decode_minimal(L, spec: CodeSpec, mdd_decoder, B: DirectionSet | None = None,
                      N_max: int = 4) -> DecodeReport:
    """Derivative decoding through one decoder for the direction-1 descendant.

    For a direction alpha^b, shifting the problem b places turns it into a
    direction-alpha^0 problem: the derivative of the b-shifted LLR vector in
    direction 1 is decoded by mdd_decoder, and shifting its bits b places
    back aligns the votes with the original word.  That derivative is
    constant on the pairs {y, y + 1}, so it is formed and decoded only on
    the positions T = minimal_transversal(spec.field)[0], one per pair:
    mdd_decoder is a batch decoder for the direction-1 minimal descendant
    punctured to T, for example
    osd_batch_decoder(minimal_dd_basis(spec, 1).basis[:, T], 1).  It maps
    an (|B|, 2^(m-1)) stack of derivative LLR vectors to (bits, iterations,
    converged), and each decoded bit is expanded back to both positions of
    its pair.  All directions in B are processed each iteration in one
    batch, and the loop exits early once the hard decision passes every
    check of `spec.check_matrix`; a frame whose channel hard decision
    passes them leaves before any inner call, as in `dd_decode_cyclic`.
    Raises ValueError unless L is a finite vector of length 2^m and N_max
    an integer >= 0, and if mdd_decoder's bits do not have the shape of its
    input stack (a decoder for the full-length descendant, say); raises
    TypeError unless B is None or a DirectionSet.
    """
    return _derivative_loop(L, spec, mdd_decoder, B, N_max, "minimal")


def flop_account(iterations: float, n: int, num_directions: int,
                 omega: float) -> int:
    """Closed-form flop estimate: iterations * |B| * (5n + omega).

    An estimate, not a measurement: per iteration each direction is assumed
    to cost 4n for the derivative combination plus n for its share of the
    voting average, plus one descendant decode at an assumed omega flops.
    This is the paper's complexity count; no decoder or simulation reads
    it.  The iteration count may be fractional (e.g. averaged); the result
    rounds to the nearest integer.
    """
    return int(round(iterations * num_directions * (5.0 * n + omega)))
