"""Derivative decoding: soft derivative combination, voting, and the loop.

A derivative decoder never decodes the outer code directly.  Each iteration
it forms, for every direction beta in a chosen set B, the LLR vector of the
derivative word (box-plus of the received LLRs over each pair {x, x+beta}),
hands it to a decoder for the (much smaller) inner code, and converts the
decoded derivative back into per-position soft votes on the original word.
The votes are averaged across directions to give the next LLR vector, and
the loop stops as soon as the hard decision is a codeword of the outer code
C.

One loop, `_derivative_loop`, serves both decoders of the paper; its
docstring states when a frame leaves early, why that exit is exact, and the
floor on |L| it needs.  The decoders differ only in the one code they
decode in, which `inner_generator` names, and in the index maps that carry
the derivative words into the inner decoder and its bits back.  Every
cyclic descendant of C is the same code D(C), so `dd_decode_cyclic` decodes
every direction in it and its maps are the identity.  The minimal
descendants of all directions are equivalent codes, so `dd_decode_minimal`
shifts each direction's problem into direction 1 and decodes it in that
direction's minimal descendant, punctured to one position per pair
{x, x + 1}, since the derivative is constant on each pair.  The maps and a
check matrix of C form the loop's plan, built on the first decode and then
cached, one per (code, direction set, kind) (`_build_loop_plan`).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .cyclic import CodeSpec
from .decoders import LLR_CLIP, _ATANH_LIM, _checked_llrs, _nonnegative_int
from .derivative import ZeroDirectionError, dd_code, minimal_dd_basis
from .gf2 import nullspace, rref
from .gf2m import GF2m, _is_int

__all__ = [
    "DirectionSet", "DecodeReport", "boxplus",
    "dd_decode_cyclic", "dd_decode_minimal", "inner_generator",
    "fixed_space_dimension", "flop_account",
]


# Smallest |L| at which a frame whose hard decision lies in the loop's fixed
# space leaves the derivative loop without further inner calls (see
# _derivative_loop).
_EXIT_FLOOR = 1e-4


def boxplus(a, b) -> np.ndarray:
    """LLR of the XOR of two bits with LLRs a and b (exact tanh rule).

    Inputs are clipped to +-30 and the atanh argument is kept away from
    +-1, so saturated inputs stay finite: boxplus(30, -30) is about -28.3,
    not -30.  Every output is at most 2 atanh(1 - 1e-12) = 28.32 in
    magnitude, inside +-30, so the output needs no clip.  This is the
    reference for the derivative loop, which runs the same operations with
    tanh taken once per position and must match it bit for bit.
    """
    a = np.clip(np.asarray(a, dtype=np.float64), -LLR_CLIP, LLR_CLIP)
    b = np.clip(np.asarray(b, dtype=np.float64), -LLR_CLIP, LLR_CLIP)
    p = np.tanh(a / 2) * np.tanh(b / 2)
    p = np.clip(p, -_ATANH_LIM, _ATANH_LIM)
    return 2 * np.arctanh(p)


@dataclass(frozen=True)
class DirectionSet:
    """An ordered, duplicate-free, nonempty set of nonzero directions.

    The constructor keeps its integers (numpy ones too; a bool is not one)
    as a tuple of ints in the order given; `all_of` and `random_subset`
    give ascending order of the discrete log.  The order fixes the
    summation order of the voting average and so keeps runs
    bit-reproducible.
    """
    elements: tuple[int, ...]

    @classmethod
    def all_of(cls, field: GF2m) -> "DirectionSet":
        return cls(tuple(field.antilog.tolist()))

    @classmethod
    def random_subset(cls, field: GF2m, k: int, seed: int) -> "DirectionSet":
        """k distinct directions drawn once from a seeded generator; k and
        seed are ints or numpy integers (a bool is not one), seed >= 0."""
        if not _is_int(k) or not 1 <= k <= field.n:
            raise ValueError(f"cannot draw {k} of {field.n} directions")
        seed = _nonnegative_int(seed, "direction seed")
        rng = np.random.default_rng(seed)
        exps = np.sort(rng.choice(field.n, size=k, replace=False))
        return cls(field.antilog[exps])

    def __post_init__(self):
        try:
            elements = tuple(self.elements)
            if not all(map(_is_int, elements)):
                raise TypeError
        except TypeError:
            raise TypeError(f"directions must be integers, got "
                            f"{self.elements!r}") from None
        object.__setattr__(self, "elements", tuple(map(int, elements)))
        if not self.elements:
            raise ValueError("a direction set must hold at least one direction")
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("duplicate directions")
        if 0 in self.elements:
            raise ZeroDirectionError("0 is not a direction")

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


class DecodeReport(NamedTuple):
    """One decoded frame, bits first, as the loops and every closure of
    `sim.build_decoder` return it; every field is measured."""
    bits: np.ndarray
    iterations: int
    converged: bool
    inner_iterations: np.ndarray   # (iterations, |B|) inner-decoder tallies


def _minimal_transversal(field: GF2m) -> tuple[np.ndarray, np.ndarray]:
    """Where the minimal loop decodes: one position per pair {x, x + 1}.

    Returns (T, slot): T lists the smaller position of each pair in
    ascending order, 2^(m-1) of them, and slot[p] is the index in T of p's
    pair, so a word w on T expands to full length as w[slot].  Ascending
    order keeps the stable reliability sort of a punctured word in the
    order the full-length sort gives its pairs, ties included.  (This is
    not `field.pair_transversal(1)`, which lists the pairs in field-element
    order.)
    """
    partner = field.pair_permutation(1)
    positions = np.arange(field.size)
    T = np.flatnonzero(positions < partner)
    return T, np.searchsorted(T, np.minimum(positions, partner))


def _check_kind(kind: str) -> None:
    if kind not in ("cyclic", "minimal"):
        raise ValueError(f"kind must be 'cyclic' or 'minimal', got {kind!r}")


def inner_generator(spec: CodeSpec, kind: str) -> np.ndarray:
    """Generator matrix of the one code the derivative loop of `kind`
    decodes in; build the loop's inner decoder on it.  Read-only, and
    built once per (spec, kind): the loop plan, `sim.build_decoder` and the
    descendant's EG-line checks share it.

    "cyclic": the generator of the cyclic derivative descendant D(C), the
    span of C's derivatives over all directions, of length 2^m.
    "minimal": the reduced basis of the direction-1 minimal descendant
    (`minimal_dd_basis(spec, 1)`) punctured to the positions where the
    minimal loop decodes, the smaller position of each pair {x, x + 1} in
    ascending order, of length 2^(m-1).  Raises ValueError for any other
    kind.
    """
    _check_kind(kind)
    return _build_inner_generator(spec, kind)


@lru_cache(maxsize=32)
def _build_inner_generator(spec: CodeSpec, kind: str) -> np.ndarray:
    if kind == "cyclic":
        G = dd_code(spec).G
    else:
        G = minimal_dd_basis(spec, 1).basis[:, _minimal_transversal(spec.field)[0]]
    G.setflags(write=False)
    return G


@lru_cache(maxsize=32)
def _build_loop_plan(spec: CodeSpec, B: DirectionSet | None, kind: str):
    """The read-only plan of the derivative loop for one (spec, direction
    set, kind), B = None for all directions, built on first use:
    (H, r, partner, at, at_partner, from_inner).

    partner[d] is the pair permutation of direction B[d] on the original
    positions, shape (|B|, 2^m).  The inner decoder sees an (|B|, h) stack:
    its entry (d, i) is the derivative LLR boxplus(L[at], L[at_partner]) of
    the pair {at[d, i], at_partner[d, i]} of direction B[d].  from_inner
    holds flat indices into the raveled (|B|, h) inner bits, row offsets
    included, so np.take(bits, from_inner) is the (|B|, 2^m) stack of
    decoded derivative bits on the original positions.

    The inner code is `inner_generator(spec, kind)`, with check matrix
    H_in.  For the "cyclic" kind h = 2^m and every map but partner is the
    identity.  For the "minimal" kind row d is the shift by the discrete
    log b of B[d]: the b-shifted derivative in direction alpha^b is the
    direction-1 derivative of the b-shifted word, which is constant on the
    pairs {y, y + 1}.  So h = 2^(m-1): with (T, slot) =
    _minimal_transversal(field), slot i of row d sits at the b-shifted
    position of T[i], and position x takes the bit of its b-shifted
    position's pair.  C's shift invariance makes H_in check every d.

    H is a check matrix of C whose first r rows span the dual of the loop's
    fixed space Fix = {h : every derivative of h over B lies in the inner
    code}.  Direction d's block carries H_in to both at[d] and
    at_partner[d], and Fix is the null space of the blocks; every block row
    lies in C's dual, so C is inside Fix.  Each block is reduced against
    the rows kept so far and eliminated only if it does not reduce to zero.
    Once the rank reaches n - k, Fix = C and H is `spec.check_matrix` with
    r = n - k; otherwise the kept rows come first, and C's checks reduced
    against them complete H to a basis of C's dual.
    """
    field = spec.field
    B = DirectionSet.all_of(field) if B is None else B
    partner = np.stack([field.pair_permutation(b) for b in B])
    if kind == "cyclic":
        T = slot = np.arange(field.size)
        shifts = np.broadcast_to(T, partner.shape)
    else:
        shifts = np.stack([field.shift_index(field.log[b]) for b in B])
        T, slot = _minimal_transversal(field)
    H_in = nullspace(inner_generator(spec, kind))
    at = shifts[:, T]
    at_partner = np.take_along_axis(partner, at, axis=1)
    from_inner = slot[np.argsort(shifts, axis=1)] + len(T) * np.arange(len(B))[:, None]
    n, dual = spec.n, spec.n - spec.k
    R, pivots = np.zeros((0, n), dtype=np.uint8), []

    def reduced(M):
        # exact: every sum is at most n < 2^24, and float32 runs on BLAS
        carry = M[:, pivots].astype(np.float32) @ R.astype(np.float32)
        return M ^ (carry.astype(np.int32) & 1).astype(np.uint8)

    for d in range(len(B)):
        K = np.zeros((len(H_in), n), dtype=np.uint8)
        K[:, at[d]] = H_in
        K[:, at_partner[d]] ^= H_in
        K = reduced(K)
        if K.any():
            R, pivots = rref(np.vstack([R, K]))
            if len(R) == dual:
                H = spec.check_matrix
                break
    else:
        H = np.vstack([R, rref(reduced(spec.check_matrix))[0]])
    for a in (H, partner, at, at_partner, from_inner):
        a.setflags(write=False)
    return H, len(R), partner, at, at_partner, from_inner


def _loop_plan(spec: CodeSpec, B, kind: str):
    """`_build_loop_plan` after checking kind and B, which the cache cannot:
    it would raise "unhashable type" for a list B."""
    _check_kind(kind)
    if B is not None and not isinstance(B, DirectionSet):
        raise TypeError(f"B must be a DirectionSet or None, got "
                        f"{type(B).__name__}")
    return _build_loop_plan(spec, B, kind)


def fixed_space_dimension(spec: CodeSpec, B: DirectionSet | None = None,
                          kind: str = "cyclic") -> int:
    """Dimension of the words the derivative loop of `kind` cannot leave.

    With an exact inner decoder, a hard decision h whose derivative in
    every direction of B (all directions for None) is a codeword of the
    inner code (`inner_generator(spec, kind)`) is a fixed point of the
    loop: every vote keeps h's sign.
    These words form a space Fix that contains C; for the "cyclic" kind
    over all directions it is the derivative ascendant A(D(C)), and for the
    "minimal" kind it is the intersection over B of C + K_beta, with K_beta
    the words constant on every beta-pair.  Where this exceeds spec.k, the
    loop can stall on words outside C.  It is read from the loop's cached
    plan, the one the loop checks against, so the two cannot disagree, and
    shares that plan with the loop's decodes.  Raises ValueError for
    an unknown kind and TypeError unless B is None or a DirectionSet.
    """
    return spec.n - _loop_plan(spec, B, kind)[1]


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
    / 2) on the 2^m positions, then 2 atanh(clip(t[x] t[p])) on every pair.
    The mean vote is the reduction `ndarray.mean` performs, then one
    division by |B|.  Both give the values `boxplus` and `mean` give, bit
    for bit.

    The loop leaves at its fixed space.  Fix is the space of words h whose
    derivative hard decision D_beta h is a codeword of the inner code in
    every direction of B (`_build_loop_plan`, `fixed_space_dimension`);
    it contains C.  Each hard decision h, the channel's at iteration 0
    included, gets one syndrome against a check matrix of C whose first r
    rows check Fix, tested in one place.  After an iteration a zero
    syndrome means h is in C: converged.  At N_max the loop stops.  Else,
    if the first r rows are zero, min |L| >= _EXIT_FLOOR and the decoder
    states its `codeword_iterations` (as the closures of `ddcodes.decoders`
    do), the loop returns what the remaining iterations give, tallies of
    that count included: for h in C (only the channel hard decision) the
    first iteration's (h, 1, converged), before any inner call; for h in
    Fix outside C, (h, N_max, unconverged).  A decoder without the
    attribute, such as a recording wrapper, runs every iteration.  Where
    Fix = C (r = n - k) the test is the one syndrome check of C.

    Why the exit is exact: for h in Fix every D_beta h is a codeword of the
    inner code, and each box-plus has its sign, so the inner decoder
    returns D_beta h with its `codeword_iterations` (SPA because its first
    update flips no bit, ML and OSD because D_beta h has the largest
    correlation).  Every vote (1 - 2 D_beta h[x]) L[x + beta] then has the
    sign of h[x] and the magnitude |L[x + beta]|, so the next hard decision
    is h again, and the argument repeats up to N_max.

    The floor keeps the inner decoder's scores apart.  With |L| >= f,
    every |box-plus| is at least about f^2 / 2, so D_beta h beats any other
    codeword's correlation by at least f^2.  Each n-term correlation of
    values up to 30 is rounded by up to about n^2 * 30 * 2^-53, so the gap
    survives rounding when f > n * 6e-8: 1.5e-5 at n = 256, and below
    1e-4 up to n of about 1700.  The skipped iterations keep that margin.
    Each new |L[x]| is the mean of |B| <= n magnitudes |L[x + beta]| >= f
    whose votes all have one sign, so the sum cancels nothing and rounds
    by a relative error below n * 2^-53, the division by |B| adds one more
    rounding, and after N_max iterations |L| >= f (1 - N_max * n * 2^-53):
    above 0.999 f whenever N_max * n < 2^43, so the mean vote cannot bring
    |L| near the n * 6e-8 limit.  Without a floor the exit is not exact:
    on (16, 7) under ML, frames of magnitudes 30 and 1e-20 leave a codeword
    of C, and leave a word of Fix outside C for a codeword, because two
    correlations round to a tie and argmax takes the earlier codeword.
    """
    L = _checked_llrs(L, spec.n, batch=False)
    N_max = _nonnegative_int(N_max, "N_max")
    H, r, partner, at, at_partner, from_inner = _loop_plan(spec, B, kind)
    tally = getattr(decoder, "codeword_iterations", None)
    tallies = np.empty((N_max, len(partner)), dtype=np.int64)
    for it in range(N_max + 1):
        hard = (L < 0).astype(np.uint8)
        # uint8 wraps mod 256, so H @ hard % 2 is the exact syndrome
        s = H @ hard % 2
        if it and not s.any():
            return DecodeReport(hard, it, True, tallies[:it])
        if it == N_max:
            break
        if (tally is not None and not s[:r].any()
                and np.abs(L).min() >= _EXIT_FLOOR):
            end = N_max if s.any() else 1
            tallies[it:end] = tally
            return DecodeReport(hard, end, not s.any(), tallies[:end])
        t = np.tanh(np.clip(L, -LLR_CLIP, LLR_CLIP) * 0.5)
        Ld = np.multiply(t[at], t[at_partner])
        np.clip(Ld, -_ATANH_LIM, _ATANH_LIM, out=Ld)
        np.arctanh(Ld, out=Ld)
        Ld *= 2
        bits, tallies[it], _ = decoder(Ld)
        if np.shape(bits) != Ld.shape:
            raise ValueError(f"inner decoder returned bits of shape "
                             f"{np.shape(bits)} for a stack of shape {Ld.shape}")
        bits = np.take(bits, from_inner)        # (|B|, 2^m), original positions
        votes = (1.0 - 2.0 * bits.astype(np.float64)) * L[partner]
        L = np.add.reduce(votes, axis=0) / len(partner)
    return DecodeReport(hard, N_max, False, tallies)


def dd_decode_cyclic(L, spec: CodeSpec, dd_decoder, B: DirectionSet | None = None,
                     N_max: int = 3) -> DecodeReport:
    """Derivative decoding with every direction decoded in the cyclic descendant.

    dd_decoder is a batch decoder for `inner_generator(spec, "cyclic")`,
    the generator of D(C): it maps a (|B|, 2^m) stack of derivative LLR
    vectors to (bits, iterations, converged).  Per outer iteration the
    derivative of the running LLR vector is decoded in every direction of
    B (all directions for None), the soft votes are averaged into the new
    LLR vector, and the loop stops once the hard decision is a codeword of
    C, or at N_max.  It can also leave early, at a codeword or at a word of
    its fixed space outside C (`fixed_space_dimension(spec, B)`), under the
    conditions and with the reports that `_derivative_loop` gives.  Over
    all directions that space is the derivative ascendant A(D(C)), so
    near-ML output is expected only when C = A(D(C)), as for the
    Reed-Muller codes.  Raises ValueError unless L is a finite vector of
    length 2^m and N_max an integer >= 0, and TypeError unless B is None or
    a DirectionSet.
    """
    return _derivative_loop(L, spec, dd_decoder, B, N_max, "cyclic")


def dd_decode_minimal(L, spec: CodeSpec, mdd_decoder, B: DirectionSet | None = None,
                      N_max: int = 4) -> DecodeReport:
    """Derivative decoding through one decoder for the direction-1 descendant.

    For a direction alpha^b, shifting the problem b places turns it into a
    direction-alpha^0 problem: the derivative of the b-shifted LLR vector in
    direction 1 is decoded by mdd_decoder, and shifting its bits b places
    back aligns the votes with the original word.  That derivative is
    constant on the pairs {y, y + 1}, so it is formed and decoded on one
    position per pair: mdd_decoder is a batch decoder for
    `inner_generator(spec, "minimal")`, for example
    osd_batch_decoder(inner_generator(spec, "minimal"), 1).  It maps an
    (|B|, 2^(m-1)) stack of derivative LLR vectors to (bits, iterations,
    converged), and each decoded bit is expanded back to both positions of
    its pair.  The loop stops, and leaves early at its fixed space
    (`fixed_space_dimension(spec, B, "minimal")`), as `dd_decode_cyclic`
    does.  Raises ValueError unless L is a finite vector of length 2^m and
    N_max an integer >= 0, and if mdd_decoder's bits do not have the shape
    of its input stack (a decoder for the full-length descendant, say);
    raises TypeError unless B is None or a DirectionSet.
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
