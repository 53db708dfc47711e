"""Acceptance gate: thirteen pinned criteria covering the whole package.

Each test prints one `criterion NN PASS|FAIL - ...` line (visible under
`pytest -s`, and in the failure report otherwise) and then asserts.  All
tolerances are pinned inline.  Reference vectors and matrices are frozen
byte-for-byte; Monte-Carlo criteria use fixed seeds and frame budgets.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from ddcodes.cyclic import (bch_bound, code_from_exponents, code_from_generator,
                            cyclic_shift, ebch_code, is_member,
                            min_distance_exhaustive, ms_transform,
                            rm_exponent_set, rm_membership)
from ddcodes.ddcodec import DirectionSet, dd_decode_cyclic, flop_account
from ddcodes.decoders import mld_batch_decoder, mld_exhaustive
from ddcodes.derivative import (check_equivalence_shift, cyclic_da, cyclic_dd,
                                da_code, dd_code, derivative_codeword,
                                derivative_rows, minimal_dd_basis,
                                rm_projection, stacked_derivative_rank)
from ddcodes.gf2 import nullspace
from ddcodes.gf2m import field_for_length
from ddcodes.parity import eg_line_parity_matrix, is_orthogonal_to
from ddcodes.sim import (ChannelConfig, SimConfig, build_decoder,
                         run_monte_carlo, transmit)

F16 = field_for_length(16)
F64 = field_for_length(64)


def _bits(text: str) -> np.ndarray:
    return np.array([int(c) for c in text], dtype=np.uint8)


def _mat(rows: list[str]) -> np.ndarray:
    return np.stack([_bits(r) for r in rows])


def _check(failures: list[str], ok: bool, msg: str) -> None:
    if not ok:
        failures.append(msg)


def _report(num: int, desc: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {num:02d} {status} - {desc}")
    assert not failures, f"criterion {num:02d}: " + "; ".join(failures)


def test_criterion_01():
    """(16, 7) code from generator 0x1D1: exponent set and representatives."""
    failures: list[str] = []
    spec = code_from_generator(F16, 0x1D1)
    S = spec.exponents
    _check(failures, S.members == frozenset({0, 1, 2, 4, 5, 8, 10}),
           f"exponent set {sorted(S.members)}")
    _check(failures, S.representatives() == [0, 1, 5],
           f"representatives {S.representatives()}")
    _check(failures, spec.k == 7, f"dimension {spec.k}")
    _report(1, "(16,7) exponent set {0,1,2,4,5,8,10}, representatives {0,1,5}, k=7",
            failures)


def test_criterion_02():
    """Cyclic derivative descendant of the (16, 7) code is the (16, 5) code."""
    failures: list[str] = []
    spec = code_from_generator(F16, 0x1D1)
    dd = dd_code(spec)
    _check(failures, dd.exponents.members == frozenset({0, 1, 2, 4, 8}),
           f"descendant exponents {sorted(dd.exponents.members)}")
    _check(failures,
           dd.exponents.members == rm_exponent_set(1, 4).members,
           "descendant is not the first-order weight-formula set")
    d = min_distance_exhaustive(dd)
    _check(failures, d == 8, f"descendant distance {d}")
    _report(2, "descendant exponents {0,1,2,4,8} (first-order set), distance 8",
            failures)


def test_criterion_03():
    """Frozen (16, 7) matrices: generator, per-row derivatives, reduced basis,
    and two derivative vectors tied together by the shift identity."""
    failures: list[str] = []
    spec = code_from_generator(F16, 0x1D1)
    G_ref = _mat(["1100010111000000",
                  "1010001011100000",
                  "1001000101110000",
                  "1000100010111000",
                  "1000010001011100",
                  "1000001000101110",
                  "1000000100010111"])
    _check(failures, np.array_equal(spec.G, G_ref), "generator matrix differs")
    D_ref = _mat(["0011010111100010",
                  "1111011001010000",
                  "1100001110110010",
                  "1100101000011101",
                  "1111011001010000",
                  "1100001110110010",
                  "1100101000011101"])
    _check(failures, np.array_equal(derivative_rows(F16, spec.G, 1), D_ref),
           "derivative rows in direction 1 differ")
    B_ref = _mat(["1100001110110010",
                  "0011010111100010",
                  "0000100110101111"])
    mb = minimal_dd_basis(spec, 1)
    _check(failures, mb.rank == 3, f"basis rank {mb.rank}")
    _check(failures, np.array_equal(mb.basis, B_ref), "reduced basis differs")
    d = min_distance_exhaustive(mb.basis)
    _check(failures, d == 8, f"minimal-descendant distance {d}")
    a = _bits("1010001011100000")
    d_alpha = derivative_codeword(a, F16.antilog[1], F16)
    _check(failures, np.array_equal(d_alpha, _bits("0001101011110001")),
           "derivative in direction alpha differs")
    shifted = cyclic_shift(d_alpha, 1)
    _check(failures, np.array_equal(shifted, _bits("0011010111100010")),
           "shifted derivative differs")
    a1 = cyclic_shift(a, 1)
    _check(failures,
           np.array_equal(shifted, derivative_codeword(a1, 1, F16)),
           "shift identity broken")
    _check(failures, check_equivalence_shift(a, 1, F16),
           "equivalence-shift check failed")
    _report(3, "frozen generator/derivative/basis matrices and shift identity",
            failures)


def test_criterion_04():
    """Length-64 codes: representative sets, descendant dimensions, and the
    descendant of the (64, 45) code inside the (64, 37) geometry code."""
    failures: list[str] = []
    c24 = code_from_generator(F64, 0xF69AC20921)
    _check(failures, c24.exponents.representatives() == [0, 1, 3, 5, 9, 21],
           f"(64,24) representatives {c24.exponents.representatives()}")
    dd24 = dd_code(c24)
    _check(failures, dd24.exponents.representatives() == [0, 1, 5],
           f"(64,24) descendant representatives {dd24.exponents.representatives()}")
    _check(failures, dd24.k == 13, f"(64,24) descendant dimension {dd24.k}")
    c45 = code_from_generator(F64, 0x782CF)
    _check(failures,
           c45.exponents.representatives() == [0, 1, 3, 5, 7, 9, 11, 13, 21, 27],
           f"(64,45) representatives {c45.exponents.representatives()}")
    dd45 = dd_code(c45)
    _check(failures,
           dd45.exponents.representatives() == [0, 1, 3, 5, 9, 11, 13],
           f"(64,45) descendant representatives {dd45.exponents.representatives()}")
    _check(failures, dd45.k == 34, f"(64,45) descendant dimension {dd45.k}")
    # exponent set of the code checked by the planar line-incidence matrix:
    # union of the spectrum supports of a basis of its null space
    H = eg_line_parity_matrix(2, 3)
    basis = nullspace(H.to_dense())
    S_eg: set[int] = set()
    for row in basis:
        A = ms_transform(row[1:], F64)
        S_eg |= {j for j, v in enumerate(A) if v != 0}
    _check(failures, len(S_eg) == 37, f"geometry-code exponent count {len(S_eg)}")
    _check(failures, basis.shape[0] == 37,
           f"geometry-code dimension {basis.shape[0]}")
    _check(failures, dd45.exponents.members <= S_eg,
           "descendant exponents not inside the geometry code's")
    _report(4, "(64,24)/(64,45) representative sets; descendant (64,34) lies in "
               "the (64,37) geometry code", failures)


def test_criterion_05():
    """Descendant dimensions, single-direction ranks, and distance bounds for
    three larger codes built by dimension."""
    failures: list[str] = []
    f128 = field_for_length(128)
    f256 = field_for_length(256)
    table = [(f128, 36, 22, 14, (32, 48)),
             (f256, 37, 25, 16, (92, 96)),
             (f256, 79, 45, 31, (56, 64))]
    for field, k, k_d, k_d1, bch_pair in table:
        spec = ebch_code(field, k)
        dd = dd_code(spec)
        label = f"({spec.n},{k})"
        _check(failures, dd.k == k_d, f"{label} descendant dim {dd.k} != {k_d}")
        rank = minimal_dd_basis(spec, 1).rank
        _check(failures, rank == k_d1,
               f"{label} single-direction rank {rank} != {k_d1}")
        pair = (bch_bound(spec.exponents), bch_bound(dd.exponents))
        _check(failures, pair == bch_pair,
               f"{label} distance bounds {pair} != {bch_pair}")
    _report(5, "(128,36)/(256,37)/(256,79): descendant dims 22/25/45, "
               "ranks 14/16/31, bounds (32,48)/(92,96)/(56,64)", failures)


def test_criterion_06():
    """Cyclic derivative ascendant of the (256, 175) code."""
    failures: list[str] = []
    f256 = field_for_length(256)
    spec = code_from_generator(f256, 0x11377F7700FA55335BA55)
    _check(failures, spec.k == 175, f"dimension {spec.k}")
    da = da_code(spec)
    _check(failures, da.k == 191, f"ascendant dimension {da.k}")
    _check(failures, da.gen_poly == 0x19ACCC1AE68A0CEFF,
           f"ascendant generator {da.gen_poly:#x}")
    _report(6, "(256,175) ascendant is (256,191) with generator "
               "0x19accc1ae68a0ceff", failures)


def test_criterion_07():
    """Line-incidence parity matrices: shapes, weights, orthogonality."""
    failures: list[str] = []
    H1 = eg_line_parity_matrix(3, 2)
    _check(failures, (H1.num_checks, H1.n) == (336, 64),
           f"3-dim geometry shape {(H1.num_checks, H1.n)}")
    _check(failures, np.all(H1.row_weights() == 4), "row weights differ from 4")
    _check(failures, np.all(H1.col_weights() == 21),
           "column weights differ from 21")
    dd13 = dd_code(code_from_generator(F64, 0xF69AC20921))
    _check(failures, dd13.k == 13, f"descendant dimension {dd13.k}")
    _check(failures, is_orthogonal_to(H1, dd13.G),
           "lines not orthogonal to the (64,13) descendant")
    H2 = eg_line_parity_matrix(2, 4)
    _check(failures, (H2.num_checks, H2.n) == (272, 256),
           f"planar geometry shape {(H2.num_checks, H2.n)}")
    _check(failures, np.all(H2.row_weights() == 16),
           "row weights differ from 16")
    _check(failures, np.all(H2.col_weights() == 17),
           "column weights differ from 17")
    _report(7, "line matrices 336x64 (4/21, orthogonal to (64,13)) and "
               "272x256 (16/17)", failures)


def test_criterion_08():
    """Weight-formula family: descendant/ascendant laws with dimension and
    distance identities, for orders 1 <= r < m <= 6.

    The order-m set of length 2^m is not representable with an extension
    bit (the full space contains odd-weight words), so r = m is rejected
    by construction and the ascendant law is checked against the weight
    formula itself, which saturates correctly at r = m - 1.
    """
    failures: list[str] = []
    for m in range(2, 7):
        n = (1 << m) - 1
        field = field_for_length(1 << m)
        for r in range(1, m):
            S = rm_exponent_set(r, m)
            down = cyclic_dd(S)
            _check(failures, down.members == rm_exponent_set(r - 1, m).members,
                   f"descendant law fails at r={r} m={m}")
            dim_down = sum(math.comb(m, i) for i in range(r))
            _check(failures, len(down.members) == dim_down,
                   f"descendant dimension at r={r} m={m}: {len(down.members)}")
            up = cyclic_da(S)
            target = {j for j in range(n) if j.bit_count() <= r + 1}
            _check(failures, up.members == frozenset(target),
                   f"ascendant law fails at r={r} m={m}")
            _check(failures, len(up.members) == len(target),
                   f"ascendant dimension at r={r} m={m}")
            if r <= m - 2:
                dim_up = sum(math.comb(m, i) for i in range(r + 2))
                _check(failures, len(up.members) == dim_up,
                       f"ascendant closed-form dimension at r={r} m={m}")
                _check(failures, bch_bound(S) == 1 << (m - r),
                       f"distance bound at r={r} m={m}: {bch_bound(S)}")
            _check(failures, bch_bound(down) == 1 << (m - r + 1),
                   f"descendant distance bound at r={r} m={m}: {bch_bound(down)}")
            # doubled distance, verified exhaustively where feasible
            if len(S.members) <= 16:
                d = min_distance_exhaustive(code_from_exponents(field, S.members))
                _check(failures, d == 1 << (m - r),
                       f"distance at r={r} m={m}: {d}")
            if 1 <= len(down.members) <= 16:
                d = min_distance_exhaustive(
                    code_from_exponents(field, down.members))
                _check(failures, d == 1 << (m - r + 1),
                       f"descendant distance at r={r} m={m}: {d}")
    for m in (2, 4, 6):
        with pytest.raises(ValueError):
            rm_exponent_set(m, m)
    _report(8, "order-r family laws, dimensions, and doubled distances for "
               "1 <= r < m <= 6; r = m rejected", failures)


def test_criterion_09():
    """Closed-form flop counts reproduce two frozen values exactly."""
    failures: list[str] = []
    got1 = flop_account(1.03, 256, 32, 13912.0)
    _check(failures, got1 == 500728, f"32-direction count {got1}")
    got2 = flop_account(1.02, 256, 255, 13912.0)
    _check(failures, got2 == 3951439, f"255-direction count {got2}")
    _report(9, "flop counts 500728 and 3951439 reproduced exactly", failures)


def test_criterion_10():
    """Derivative decoding of eBCH(16, 11) with an exhaustive inner decoder,
    against exhaustive maximum-likelihood decoding of the code itself: 10^4
    frames at 3 dB, required within a factor 2 in BLER.

    The paper's near-ML claim is for extended cyclic codes that equal the
    derivative ascendant of their descendant, C = A(D(C)).  With an exact
    inner decoder every word of A(D(C)) is a fixed point of the loop, so the
    loop decodes A(D(C)); the criterion asserts that precondition first.
    """
    failures: list[str] = []
    frames = 10_000
    spec = ebch_code(F16, 11)
    dd = dd_code(spec)
    _check(failures, da_code(dd).exponents == spec.exponents,
           "eBCH(16, 11) is not the derivative ascendant of its descendant")
    inner = mld_batch_decoder(dd.G)
    B = DirectionSet.all_of(F16)
    ch = ChannelConfig(3.0, spec.k / spec.n)
    rng = np.random.default_rng(20260822)
    errors_dd = errors_mld = 0
    for _ in range(frames):
        msg = rng.integers(0, 2, size=spec.k, dtype=np.uint8)
        word = (msg @ spec.G) % 2
        L = transmit(word, ch, rng)
        if np.any(mld_exhaustive(spec.G, L) != word):
            errors_mld += 1
        rep = dd_decode_cyclic(L, spec, inner, B, N_max=3)
        if np.any(rep.bits != word):
            errors_dd += 1
    bler_dd = errors_dd / frames
    bler_mld = errors_mld / frames
    _check(failures, bler_dd <= 2.0 * bler_mld,
           f"derivative BLER {bler_dd:.4f} exceeds twice the "
           f"maximum-likelihood BLER {bler_mld:.4f}")
    _report(10, f"eBCH(16, 11) = A(D(C)): derivative vs maximum-likelihood "
                f"BLER at 3 dB over 10^4 frames (measured {bler_dd:.4f} vs "
                f"{bler_mld:.4f})", failures)


def test_criterion_11():
    """Six invariants, each over >= 10^3 seeded random draws, zero failures:
    vanishing second derivative, pair constancy, descendant membership,
    shift identity, stacked-rank equality, and projection membership."""
    failures: list[str] = []
    spec = code_from_generator(F16, 0x1D1)
    dd = dd_code(spec)
    draws = 1000

    def _words(seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        msgs = rng.integers(0, 2, size=(draws, spec.k), dtype=np.uint8)
        return (msgs @ spec.G) % 2

    def _betas(seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return np.array(F16.antilog)[rng.integers(0, F16.n, size=draws)]

    bad = 0
    for a, beta in zip(_words(11), _betas(12)):
        d = derivative_codeword(a, int(beta), F16)
        if np.any(derivative_codeword(d, int(beta), F16)):
            bad += 1
    _check(failures, bad == 0, f"second derivative nonzero in {bad} draws")

    bad = 0
    for a, beta in zip(_words(21), _betas(22)):
        d = derivative_codeword(a, int(beta), F16)
        if not np.array_equal(d, d[F16.pair_permutation(int(beta))]):
            bad += 1
    _check(failures, bad == 0, f"pair constancy broken in {bad} draws")

    bad = 0
    for a, beta in zip(_words(31), _betas(32)):
        if not is_member(dd, derivative_codeword(a, int(beta), F16)):
            bad += 1
    _check(failures, bad == 0, f"descendant membership broken in {bad} draws")

    rng = np.random.default_rng(42)
    bad = 0
    for a in _words(41):
        b = int(rng.integers(0, F16.n))
        lhs = cyclic_shift(derivative_codeword(a, F16.antilog[b], F16), b)
        rhs = derivative_codeword(cyclic_shift(a, b), 1, F16)
        if not np.array_equal(lhs, rhs):
            bad += 1
    _check(failures, bad == 0, f"shift identity broken in {bad} draws")

    rng = np.random.default_rng(51)
    cosets = []
    seen: set[int] = set()
    for s in range(F16.n):
        if s not in seen:
            coset = set()
            j = s
            while j not in coset:
                coset.add(j)
                j = (2 * j) % F16.n
            cosets.append(frozenset(coset))
            seen |= coset
    bad = 0
    for _ in range(draws):
        pick = [c for c in cosets if rng.random() < 0.5]
        members = set().union(*pick) if pick else {0}
        sub = code_from_exponents(F16, members)
        if stacked_derivative_rank(sub) != len(cyclic_dd(sub.exponents).members):
            bad += 1
    _check(failures, bad == 0, f"stacked-rank equality broken in {bad} draws")

    combos = []
    for m in (4, 5):
        field = field_for_length(1 << m)
        for r in (1, 2, 3):
            S = rm_exponent_set(r, m)
            combos.append((field, r, code_from_exponents(field, S.members)))
    rng = np.random.default_rng(61)
    bad = 0
    for i in range(draws):
        field, r, rm_spec = combos[i % len(combos)]
        msg = rng.integers(0, 2, size=rm_spec.k, dtype=np.uint8)
        a = (msg @ rm_spec.G) % 2
        beta = int(field.antilog[rng.integers(0, field.n)])
        if not rm_membership(rm_projection(a, beta, field), r - 1):
            bad += 1
    _check(failures, bad == 0, f"projection membership broken in {bad} draws")

    _report(11, "six invariant suites, 1000 seeded draws each, zero failures",
            failures)


def test_criterion_12():
    """(64, 45) code, derivative decoding with an iterative inner decoder at
    5 dB over 10^4 frames: converged fraction > 0.99, average inner
    iterations in 1.16 +/- 0.15, average outer iterations in 1.00 +/- 0.05."""
    failures: list[str] = []
    frames = 10_000
    spec = ebch_code(F64, 45)
    cfg = SimConfig(n=64, gen_poly_hex=hex(spec.gen_poly), algo="dd-spa")
    decode = build_decoder(cfg, spec)
    ch = ChannelConfig(5.0, spec.k / spec.n)
    rng = np.random.default_rng(12)
    conv = dd_sum = inner_sum = inner_calls = 0
    for _ in range(frames):
        msg = rng.integers(0, 2, size=spec.k, dtype=np.uint8)
        word = (msg @ spec.G) % 2
        L = transmit(word, ch, rng)
        rep = decode(L)
        conv += bool(rep.converged)
        dd_sum += rep.iterations
        inner_sum += int(rep.inner_iterations.sum())
        inner_calls += rep.inner_iterations.size
    conv_frac = conv / frames
    avg_inner = inner_sum / inner_calls
    avg_dd = dd_sum / frames
    _check(failures, conv_frac > 0.99, f"converged fraction {conv_frac:.4f}")
    _check(failures, 1.01 <= avg_inner <= 1.31,
           f"average inner iterations {avg_inner:.3f}")
    _check(failures, 0.95 <= avg_dd <= 1.05,
           f"average outer iterations {avg_dd:.3f}")
    _report(12, f"(64,45) at 5 dB: converged {conv_frac:.4f}, inner "
                f"{avg_inner:.3f}, outer {avg_dd:.3f}", failures)


def test_criterion_13():
    """(128, 36) at 4 dB, 5000 frames per decoder: 32-direction derivative
    decoding with order-1 reprocessing beats (within two binomial standard
    errors) order-3 reprocessing alone."""
    failures: list[str] = []
    spec = ebch_code(field_for_length(128), 36)
    common = dict(n=128, gen_poly_hex=hex(spec.gen_poly), ebn0_db=[4.0],
                  max_frames=5000, max_frame_errors=5000, seed=42)
    p_osd = run_monte_carlo(SimConfig(algo="osd", order=3, **common)).points[0]
    p_dd = run_monte_carlo(SimConfig(algo="dd-osd", order=1,
                                     directions="k:32:2024", n_max=4,
                                     **common)).points[0]
    se = math.sqrt(p_dd.bler * (1 - p_dd.bler) / p_dd.frames
                   + p_osd.bler * (1 - p_osd.bler) / p_osd.frames)
    _check(failures, p_dd.bler <= p_osd.bler + 2 * se,
           f"derivative+order-1 BLER {p_dd.bler:.5f} not within two standard "
           f"errors of order-3 BLER {p_osd.bler:.5f} (se {se:.5f})")
    _report(13, f"(128,36) at 4 dB: derivative+order-1 {p_dd.bler:.5f} vs "
                f"order-3 {p_osd.bler:.5f}", failures)
