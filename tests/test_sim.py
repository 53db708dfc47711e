"""Tests for the channel model, Monte-Carlo harness, and config round-trips."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ddcodes.decoders
import ddcodes.sim
from ddcodes.cyclic import code_from_generator, ebch_code
from ddcodes.ddcodec import (DecodeReport, dd_decode_cyclic, dd_decode_minimal,
                             minimal_transversal)
from ddcodes.decoders import (all_codewords, mld_exhaustive,
                              osd_batch_decoder, osd_decode, spa_batch_decoder,
                              spa_decode_batch)
from ddcodes.derivative import da_code, dd_code, minimal_dd_basis
from ddcodes.gf2m import GF2m, field_for_length
from ddcodes.parity import SparseParityMatrix
from ddcodes.sim import (
    ChannelConfig,
    ConfigError,
    SimConfig,
    build_decoder,
    load_config,
    run_monte_carlo,
    save_config,
    transmit,
    write_results,
)


def test_noise_variance_formula():
    cfg = ChannelConfig(3.0, 7.0 / 16.0)
    expected = 1.0 / (2.0 * (7.0 / 16.0) * 10.0 ** 0.3)
    assert cfg.sigma2 == pytest.approx(expected)
    # higher SNR, lower noise
    assert ChannelConfig(6.0, 0.5).sigma2 < ChannelConfig(3.0, 0.5).sigma2
    with pytest.raises(ConfigError):
        ChannelConfig(3.0, 0.0).sigma2


def test_transmit_statistics():
    cfg = ChannelConfig(2.0, 0.5)
    sigma2 = cfg.sigma2
    rng = np.random.default_rng(283)
    L = transmit(np.zeros(100_000), cfg, rng)
    # L = 2y/sigma^2 with y ~ N(+1, sigma^2): mean 2/sigma^2, var 4/sigma^2
    mean, var = 2.0 / sigma2, 4.0 / sigma2
    assert L.mean() == pytest.approx(mean, abs=5 * np.sqrt(var / 1e5))
    assert L.var() == pytest.approx(var, rel=0.05)
    # sign flips with the transmitted bit
    L1 = transmit(np.ones(100_000), cfg, np.random.default_rng(283))
    assert L1.mean() == pytest.approx(-mean, abs=5 * np.sqrt(var / 1e5))


def test_transmit_is_deterministic_per_seed():
    cfg = ChannelConfig(1.0, 0.4)
    a = np.zeros(64)
    L1 = transmit(a, cfg, np.random.default_rng(5))
    L2 = transmit(a, cfg, np.random.default_rng(5))
    assert np.array_equal(L1, L2)
    L3 = transmit(a, cfg, np.random.default_rng(6))
    assert not np.array_equal(L1, L3)


def _base_config(**kw):
    base = dict(n=16, gen_poly_hex="1d1", algo="mld", ebn0_db=[3.0],
                max_frames=300, max_frame_errors=50, seed=11)
    base.update(kw)
    return SimConfig(**base)


@pytest.mark.parametrize("field, value", [
    ("directions", 5), ("n", "16"), ("n", 17), ("ebn0_db", 3.0),
    ("noiseless", "false"), ("all_zero", 1), ("order", True),
])
def test_a_bad_field_is_named_where_the_config_is_built(field, value):
    """Built in Python, these used to pass unchecked: directions=5 and
    n="16" ended in AttributeError, ebn0_db=3.0 in TypeError, and
    noiseless="false" and all_zero=1 ran as true."""
    with pytest.raises(ConfigError, match=re.escape(f"field {field!r} must be ")
                       + ".*" + re.escape(f", got {value!r}")):
        SimConfig(**{"n": 16, "gen_poly_hex": "1d1", "algo": "mld",
                     field: value})


def test_a_config_is_frozen_and_replace_checks_it_again():
    cfg = _base_config()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.seed = 2
    assert dataclasses.replace(cfg, seed=2).seed == 2
    with pytest.raises(ConfigError, match="field 'seed' must be an integer "
                                          ">= 0, got -1"):
        dataclasses.replace(cfg, seed=-1)


@pytest.mark.parametrize("algo", ["mld", "osd"])
def test_an_overflowing_snr_fails_before_the_first_frame(algo, monkeypatch):
    """At 3080.1 dB on the (16, 7) code, 2/sigma^2 is finite but ML and OSD
    correlations of the LLRs overflowed, and every frame was lost.  Now the
    point is a ConfigError before any frame is drawn; 1000 dB decodes."""
    point = run_monte_carlo(_base_config(algo=algo, ebn0_db=[1000.0],
                                         max_frames=20)).points[0]
    assert (point.frames, point.frame_errors) == (20, 0)
    drawn = []
    monkeypatch.setattr(ddcodes.sim, "transmit", lambda *a: drawn.append(a))
    with pytest.raises(ConfigError, match="field 'ebn0_db' must be an Eb/N0 "
                                          ".*, got 3080.1"):
        run_monte_carlo(_base_config(algo=algo, ebn0_db=[3.0, 3080.1]))
    assert drawn == []


def test_noiseless_run_is_error_free():
    result = run_monte_carlo(_base_config(noiseless=True, max_frames=50))
    point = result.points[0]
    assert point.frames == 50
    assert point.frame_errors == 0
    assert point.bler == 0.0
    assert point.bit_errors == 0


def test_runs_are_reproducible():
    cfg = _base_config(ebn0_db=[1.0, 3.0])
    p1 = run_monte_carlo(cfg).points
    p2 = run_monte_carlo(cfg).points
    assert [vars(a) for a in p1] == [vars(b) for b in p2]
    p3 = run_monte_carlo(_base_config(ebn0_db=[1.0, 3.0], seed=12)).points
    assert [vars(a) for a in p1] != [vars(c) for c in p3]


@pytest.mark.parametrize("workers", [2, 3])
def test_workers_above_one_are_a_named_error(workers):
    """The field only split the random stream; it no longer does anything."""
    with pytest.raises(ConfigError, match=f"field 'workers' must be an "
                                          f"integer <= 1 .*, got {workers}"):
        run_monte_carlo(_base_config(workers=workers, ebn0_db=[1.0]))


@pytest.mark.parametrize("field, value", [
    ("max_frames", 0), ("max_frames", -5), ("max_frames", 2.0),
    ("max_frame_errors", 0), ("max_frame_errors", True),
])
def test_bad_frame_budgets_are_a_named_error(field, value):
    """0 and -5 used to report a point of zero frames at BLER 0; 2.0 and True
    are not integers."""
    with pytest.raises(ConfigError, match=f"field '{field}' must be an "
                                          f"integer >= 1, got {value!r}"):
        run_monte_carlo(_base_config(**{field: value}))


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_bad_seed_is_a_named_error(seed):
    """-1 used to reach numpy, whose message names neither the field nor the
    value; 1.5 raised SeedSequence's TypeError; True ran as seed 1."""
    with pytest.raises(ConfigError, match=re.escape(
            f"field 'seed' must be an integer >= 0, got {seed!r}")):
        run_monte_carlo(_base_config(seed=seed))


@pytest.mark.parametrize("ebn0", [-math.inf, math.inf, math.nan,
                                  -4000.0, -3100.0, 3080.1, 3081.0, 3090.0,
                                  4000])
def test_non_finite_snr_is_a_named_error(ebn0):
    """-inf used to raise a bare ZeroDivisionError, and inf and NaN an LLR
    error that did not name the field.  A finite point can still leave the
    channel unrepresentable at rate 7/16: at -4000 dB sigma^2 raised
    ZeroDivisionError, at 3090 and 4000 dB OverflowError; at -3100 dB it is
    infinite and the LLRs NaN; at 3081 dB 2/sigma^2 is infinite, and at
    3080.1 dB a correlation of the 16 LLRs overflows."""
    with pytest.raises(ConfigError, match=r"field 'ebn0_db' must be .*, got "
                                          r".*" + re.escape(repr(ebn0))):
        run_monte_carlo(_base_config(ebn0_db=[3.0, ebn0]))


def test_non_finite_snr_from_json_is_a_named_error(tmp_path):
    """json.load reads NaN and Infinity, so load_config passes them on."""
    path = tmp_path / "nan.json"
    path.write_text('{"n": 16, "gen_poly_hex": "1d1", "algo": "mld", '
                    '"ebn0_db": [NaN]}')
    with pytest.raises(ConfigError, match="field 'ebn0_db'"):
        run_monte_carlo(load_config(path))


def test_workers_below_one_mean_one_substream():
    """Saved configs with "workers": 0 replay as the default single stream."""
    one = run_monte_carlo(_base_config(ebn0_db=[1.0])).points[0]
    assert SimConfig(n=16, gen_poly_hex="1d1", algo="mld").workers == 1
    for workers in (0, -2):
        point = run_monte_carlo(_base_config(workers=workers,
                                             ebn0_db=[1.0])).points[0]
        assert vars(point) == vars(one)


def test_error_budget_stops_early():
    point = run_monte_carlo(_base_config(
        ebn0_db=[-2.0], max_frames=5000, max_frame_errors=25)).points[0]
    assert point.frame_errors >= 25
    assert point.frames < 5000
    assert point.bler == point.frame_errors / point.frames
    assert point.bit_errors >= point.frame_errors


def test_bler_decreases_with_snr():
    result = run_monte_carlo(_base_config(
        ebn0_db=[-2.0, 4.0], max_frames=400, max_frame_errors=400))
    lo, hi = result.points
    assert lo.bler > hi.bler


def test_all_zero_codeword_option():
    point = run_monte_carlo(_base_config(
        all_zero=True, ebn0_db=[0.0], max_frames=300,
        max_frame_errors=300)).points[0]
    ref = run_monte_carlo(_base_config(
        ebn0_db=[0.0], max_frames=300, max_frame_errors=300)).points[0]
    # decoding a linear code: the zero word behaves like any other
    assert point.frames == ref.frames == 300
    assert abs(point.bler - ref.bler) < 0.15


def test_dd_run_reports_iterations():
    cfg = _base_config(algo="dd-spa", noiseless=True, max_frames=20)
    point = run_monte_carlo(cfg).points[0]
    assert point.frame_errors == 0
    assert point.avg_dd_iters == 1.0
    assert point.avg_inner_iters >= 1.0


def test_dd_direction_subset():
    cfg = _base_config(algo="dd-osd", directions="k:4:7", noiseless=True,
                       max_frames=10, n_max=4)
    point = run_monte_carlo(cfg).points[0]
    assert point.frame_errors == 0
    with pytest.raises(ConfigError):
        run_monte_carlo(_base_config(algo="dd-spa", directions="bogus",
                                     max_frames=5))


def _digest_counts(rep):
    """The four numbers per frame the frozen digests hash, in the order they
    were recorded in: outer iterations, inner iteration sum, inner rows and
    converged."""
    return [rep.iterations, int(rep.inner_iterations.sum()),
            rep.inner_iterations.size, rep.converged]


# sha256 of build_decoder("dd-osd") output on seeded frames, recorded when
# the inner decoder still worked on the full-length minimal basis: moving it
# to the pair transversal changed no bit, count or flag.
_DD_OSD_DIGESTS = {
    (128, "0xccc3cdb5487a24fa5f3a3dd", 1, "k:32:2024", 4, (4.0, 2.0), 30):
        "008118baf846a02d9dd5a1f20f77c5d4374447c47da6017be7063fd679067a12",
    (16, "0x1d1", 2, "all", 3, (3.0, 1.0), 40):
        "fecb1322c640db1d6112c1f3bc54372cbaea655a1d98fc8afe9f3e51f58acff2",
}


@pytest.mark.parametrize("case", sorted(_DD_OSD_DIGESTS), ids=lambda c: f"n={c[0]}")
def test_dd_osd_output_is_frozen(case):
    """Bits, outer iterations, inner tallies and flags of the dd-osd decoder
    on fixed frames: (n, generator, order, directions, N_max, Eb/N0 points,
    frames per point)."""
    n, gen, order, directions, n_max, snrs, frames = case
    spec = code_from_generator(field_for_length(n), int(gen, 16))
    decode = build_decoder(SimConfig(n=n, gen_poly_hex=gen, algo="dd-osd",
                                     order=order, directions=directions,
                                     n_max=n_max), spec)
    digest = hashlib.sha256()
    rng = np.random.default_rng(20261019)
    for snr in snrs:
        ch = ChannelConfig(snr, spec.k / spec.n)
        for _ in range(frames):
            msg = rng.integers(0, 2, size=spec.k, dtype=np.uint8)
            rep = decode(transmit(msg @ spec.G % 2, ch, rng))
            digest.update(np.asarray(rep.bits, dtype=np.uint8).tobytes())
            digest.update(np.array(_digest_counts(rep),
                                   dtype=np.int64).tobytes())
    assert digest.hexdigest() == _DD_OSD_DIGESTS[case]


# sha256 of build_decoder output on seeded frames of the eBCH(128,36) code for
# the two OSD benchmark calls (dd-osd-128 and osd3-128), recorded while
# gf2.rref_stack still eliminated column by column with row swaps: the
# row-order elimination changed no bit, count or flag.
_EBCH128_OSD_DIGESTS = {
    ("dd-osd", 1, "k:32:2024", 4, (4.0, 2.5), 150):
        "57a45817bfe006a41974406b653f4684a1e438cc72123810e01f8b7e05e3767f",
    ("osd", 3, "all", 3, (4.0, 2.5), 100):
        "bffd5fb44ef12bebc710590b4cc51dbc06e1737b51ffdb24abb61ed1a4b3c46c",
}


@pytest.mark.parametrize("case", sorted(_EBCH128_OSD_DIGESTS),
                         ids=lambda c: f"{c[0]}-{c[1]}")
def test_ebch128_osd_output_is_frozen(case):
    """Bits, outer iterations, inner tallies and flags of the dd-osd and
    plain OSD decoders of eBCH(128,36), configured as the benchmark calls
    them, on fixed frames: (algo, order, directions, N_max, Eb/N0 points,
    frames per point)."""
    algo, order, directions, n_max, snrs, frames = case
    gen = "0xccc3cdb5487a24fa5f3a3dd"
    spec = code_from_generator(field_for_length(128), int(gen, 16))
    decode = build_decoder(SimConfig(n=128, gen_poly_hex=gen, algo=algo,
                                     order=order, directions=directions,
                                     n_max=n_max), spec)
    digest = hashlib.sha256()
    rng = np.random.default_rng(20261020)
    for snr in snrs:
        ch = ChannelConfig(snr, spec.k / spec.n)
        for _ in range(frames):
            msg = rng.integers(0, 2, size=spec.k, dtype=np.uint8)
            rep = decode(transmit(msg @ spec.G % 2, ch, rng))
            digest.update(np.asarray(rep.bits, dtype=np.uint8).tobytes())
            digest.update(np.array(_digest_counts(rep),
                                   dtype=np.int64).tobytes())
    assert digest.hexdigest() == _EBCH128_OSD_DIGESTS[case]


# sha256 of build_decoder("dd-spa") output on seeded frames, and of the
# per-row iteration counts and flags of every inner SPA call made for a frame
# whose channel hard decision fails a check of C and whose output does not
# lie in the loop's fixed space A(D(C)) outside C.  The outputs digest was
# recorded before the derivative loop returned frames whose hard decision
# lies in C or in that fixed space without calling SPA, and before SPA rows
# whose channel hard decision passes every check left ahead of the first
# update: no exit changed a bit, count or flag.  The SPA-call digest was
# recorded with the fixed-space frames left out, before that exit.
_DD_SPA_DIGESTS = {
    (64, "0x782cf", (5.0, 3.0), 150): (
        "57a6bce2429d43d0a80123d66e466665fecfda408bb2978efeef3ac1ce8d57f6",
        "f293ffbfbab4fbbc17f2ac510626342a3890c61b247bcb1d3001edade0e5b098"),
    (16, "0x1d1", (3.0, 1.0), 40): (
        "e835204318540a3489df6bab97f4dbbe9f83208301fd997354903d1070e01a09",
        "c915f044d287412d4a2ca31e9345a2ccea6434216d18ad7175bb51b872c1423e"),
}


def test_dd_spa_set_up_leaves_numpy_ma_unloaded():
    """Building the all-direction decoders the benchmark runs, in a fresh
    interpreter, imports neither numpy.ma nor numpy.random: dd-spa on
    eBCH(64,45), order-3 OSD on eBCH(128,36), and ML on the descendant of
    the (16, 7) code 0x1d1 over every direction.  numpy imports both lazily
    (np.unique(..., axis=0) the first, np.random the second), each taking
    about 10 ms or more in a fresh process; the set-ups take 0.5-1.8 ms."""
    script = "\n".join([
        "import sys",
        "from ddcodes.cyclic import code_from_generator",
        "from ddcodes.ddcodec import DirectionSet",
        "from ddcodes.decoders import mld_batch_decoder",
        "from ddcodes.derivative import dd_code",
        "from ddcodes.gf2m import field_for_length",
        "from ddcodes.sim import SimConfig, build_decoder",
        "def loaded():",
        "    print('numpy.ma' in sys.modules, 'numpy.random' in sys.modules)",
        "spec = code_from_generator(field_for_length(64), 0x782cf)",
        "build_decoder(SimConfig(n=64, gen_poly_hex='0x782cf', algo='dd-spa'), spec)",
        "loaded()",
        "gen = '0xccc3cdb5487a24fa5f3a3dd'",
        "spec = code_from_generator(field_for_length(128), int(gen, 16))",
        "build_decoder(SimConfig(n=128, gen_poly_hex=gen, algo='osd', order=3), spec)",
        "loaded()",
        "spec = code_from_generator(field_for_length(16), 0x1d1)",
        "mld_batch_decoder(dd_code(spec).G)",
        "DirectionSet.all_of(spec.field)",
        "loaded()",
    ])
    src = str(Path(ddcodes.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.splitlines() == ["False False"] * 3


@pytest.mark.parametrize("case", sorted(_DD_SPA_DIGESTS), ids=lambda c: f"n={c[0]}")
def test_dd_spa_output_is_frozen(case, monkeypatch):
    """Bits, outer iterations, inner tallies and flags of the dd-spa decoder
    on fixed frames, and the per-row iteration counts and flags of every
    inner SPA call of the frames whose channel hard decision is not a
    codeword and whose output is not a word of A(D(C)) outside C, where the
    loop stops calling SPA: (n, generator, Eb/N0 points, frames per point)."""
    n, gen, snrs, frames = case
    spec = code_from_generator(field_for_length(n), int(gen, 16))
    fixed = da_code(dd_code(spec)).check_matrix
    decode = build_decoder(SimConfig(n=n, gen_poly_hex=gen, algo="dd-spa"),
                           spec)
    outputs, spa_calls = hashlib.sha256(), hashlib.sha256()
    real = ddcodes.decoders.spa_decode_batch
    frame_calls = []

    def recording(H, L, max_iter=20):
        bits, iters, conv = real(H, L, max_iter)
        frame_calls.append(iters.astype(np.int64).tobytes())
        frame_calls.append(conv.astype(np.uint8).tobytes())
        return bits, iters, conv
    monkeypatch.setattr(ddcodes.decoders, "spa_decode_batch", recording)
    rng = np.random.default_rng(20261019)
    for snr in snrs:
        ch = ChannelConfig(snr, spec.k / spec.n)
        for _ in range(frames):
            msg = rng.integers(0, 2, size=spec.k, dtype=np.uint8)
            L = transmit(msg @ spec.G % 2, ch, rng)
            frame_calls.clear()
            rep = decode(L)
            bits = rep.bits
            outputs.update(np.asarray(bits, dtype=np.uint8).tobytes())
            outputs.update(np.array(_digest_counts(rep),
                                    dtype=np.int64).tobytes())
            stalled = (not (fixed @ bits % 2).any()
                       and (spec.check_matrix @ bits % 2).any())
            if (spec.check_matrix @ (L < 0).astype(np.uint8) % 2).any() \
                    and not stalled:
                for chunk in frame_calls:
                    spa_calls.update(chunk)
    assert (outputs.hexdigest(), spa_calls.hexdigest()) == _DD_SPA_DIGESTS[case]


@pytest.mark.parametrize("directions", ["k:abc:1", "k:4:", "k:4:7:1",
                                        "k:2.5:7"])
def test_unparsable_directions_are_named(directions):
    """Non-integer counts and seeds used to raise int()'s own message."""
    with pytest.raises(ConfigError, match=r"field 'directions' must be .*, "
                                          f"got '{directions}'"):
        _base_config(directions=directions)


@pytest.mark.parametrize("gen", ["zz", "0x", "", 0x1D1])
def test_bad_generator_is_a_named_error(gen):
    """A bad hex string used to raise int()'s own message, which names
    neither the field nor the value."""
    with pytest.raises(ConfigError, match=f"field 'gen_poly_hex' must be a "
                                          f"hex string, got {gen!r}"):
        run_monte_carlo(_base_config(gen_poly_hex=gen))


def test_negative_direction_seed_is_a_named_error():
    """The seed used to reach numpy, whose message names neither the seed
    nor its value."""
    with pytest.raises(ValueError, match="field 'directions' must be .*seed "
                                         ">= 0, got 'k:3:-1'"):
        run_monte_carlo(_base_config(algo="dd-osd", directions="k:3:-1"))


def test_decoder_contracts():
    spec = code_from_generator(GF2m(4), 0x1D1)
    word = np.zeros(16)
    L = 8.0 * (1.0 - 2.0 * word)
    for algo in ("mld", "osd", "spa", "dd-spa", "dd-osd"):
        decode = build_decoder(_base_config(algo=algo), spec)
        rep = decode(L)
        assert isinstance(rep, DecodeReport) and rep[0] is rep.bits, algo
        assert np.array_equal(rep.bits, word), algo
        assert rep.iterations >= 1 and rep.inner_iterations.size >= 1
        assert rep.converged is True
        if not algo.startswith("dd-"):
            assert rep.iterations == 1
            assert rep.inner_iterations.shape == (1, 1)


@pytest.mark.parametrize("algo, directions", [("dd-spa", "all"),
                                               ("dd-osd", "k:6:5")])
def test_dd_closures_return_the_loop_report(algo, directions):
    """A dd-* closure returns, field for field, what its derivative loop
    returns when called directly on the same frame."""
    spec = code_from_generator(GF2m(4), 0x1D1)
    cfg = _base_config(algo=algo, directions=directions, order=2, n_max=4)
    decode = build_decoder(cfg, spec)
    B = ddcodes.sim._parse_directions(directions, spec.field)
    if algo == "dd-spa":
        loop = dd_decode_cyclic
        inner = spa_batch_decoder(ddcodes.sim._dd_parity_matrix(spec),
                                  cfg.inner_max_iter)
    else:
        loop = dd_decode_minimal
        T, _ = minimal_transversal(spec.field)
        inner = osd_batch_decoder(minimal_dd_basis(spec, 1).basis[:, T], 2)
    rng = np.random.default_rng(2025)
    ch = ChannelConfig(1.0, spec.k / spec.n)
    iterations = set()
    for _ in range(40):
        msg = rng.integers(0, 2, size=spec.k, dtype=np.uint8)
        L = transmit(msg @ spec.G % 2, ch, rng)
        rep, ref = decode(L), loop(L, spec, inner, B, cfg.n_max)
        assert type(rep) is DecodeReport
        assert np.array_equal(rep.bits, ref.bits)
        assert rep.bits.dtype == ref.bits.dtype
        assert (rep.iterations, rep.converged) == (ref.iterations,
                                                   ref.converged)
        assert np.array_equal(rep.inner_iterations, ref.inner_iterations)
        assert rep.inner_iterations.dtype == ref.inner_iterations.dtype
        iterations.add(rep.iterations)
    assert len(iterations) > 1


def test_unknown_algo_rejected():
    spec = code_from_generator(GF2m(4), 0x1D1)
    with pytest.raises(ConfigError):
        build_decoder(_base_config(algo="turbo"), spec)


@pytest.mark.parametrize("algo", ["osd", "dd-osd", "spa", "dd-spa", "mld"])
@pytest.mark.parametrize("order", [-1, 2.5])
def test_invalid_osd_order_rejected(algo, order):
    with pytest.raises(ValueError, match=f"field 'order' must be an integer "
                                         f">= 0, got {order}"):
        run_monte_carlo(_base_config(algo=algo, order=order, max_frames=1))


@pytest.mark.parametrize("algo", ["osd", "dd-osd", "spa", "dd-spa", "mld"])
def test_directions_are_checked_for_every_algorithm(algo):
    """A baseline, which takes no derivatives, used to accept any value."""
    with pytest.raises(ConfigError, match="field 'directions' must be .*, "
                                          "got 'bogus'"):
        run_monte_carlo(_base_config(algo=algo, directions="bogus",
                                     max_frames=1))
    with pytest.raises(ValueError, match="cannot draw 99 of 15 directions"):
        run_monte_carlo(_base_config(algo=algo, directions="k:99:1",
                                     max_frames=1))


def test_an_empty_sweep_is_a_named_error():
    """It used to return no points, and simulate wrote a header-only CSV."""
    with pytest.raises(ConfigError, match=r"field 'ebn0_db' must be a "
                                          r"non-empty list of finite numbers, "
                                          r"got \[\]"):
        run_monte_carlo(_base_config(ebn0_db=[]))


@pytest.mark.parametrize("algo", ["spa", "dd-spa", "mld"])
@pytest.mark.parametrize("field, value", [("inner_max_iter", -1),
                                          ("n_max", -3), ("n_max", 1.5)])
def test_invalid_iteration_caps_rejected(algo, field, value):
    spec = code_from_generator(GF2m(4), 0x1D1)
    with pytest.raises(ValueError, match=f"field '{field}' must be an integer "
                                         f">= 0, got {value}"):
        build_decoder(_base_config(algo=algo, **{field: value}), spec)


@pytest.mark.parametrize("algo", ["spa", "dd-spa"])
def test_zero_iteration_caps_return_the_hard_decision(algo):
    spec = code_from_generator(GF2m(4), 0x1D1)
    decode = build_decoder(_base_config(algo=algo, inner_max_iter=0, n_max=0),
                           spec)
    L = np.random.default_rng(29).normal(0.0, 2.0, size=16)
    assert np.array_equal(decode(L).bits, (L < 0).astype(np.uint8))


def test_mld_dimension_guard():
    spec = code_from_generator(GF2m(6), 0x782CF)  # k = 45
    with pytest.raises(ConfigError):
        build_decoder(_base_config(algo="mld"), spec)


def _per_frame_engine_decoder(cfg, spec):
    """The baseline decode closures as they were: one engine call per frame
    on the vector itself, the mld codebook enumerated per frame."""
    one = np.ones((1, 1), dtype=np.int64)
    if cfg.algo == "mld":
        return lambda L: DecodeReport(mld_exhaustive(spec.G, L), 1, True, one)
    if cfg.algo == "osd":
        return lambda L: DecodeReport(osd_decode(spec.G, L[None], cfg.order)[0],
                                      1, True, one)
    H = SparseParityMatrix.from_dense(spec.check_matrix)

    def decode(L):
        bits, its, conv = spa_decode_batch(H, L[None], cfg.inner_max_iter)
        return DecodeReport(bits[0], 1, bool(conv[0]), its[:, None])
    return decode


def _assert_points_match_per_frame_engines(algo, n, k, monkeypatch):
    spec = ebch_code(field_for_length(n), k)
    cfg = _base_config(algo=algo, n=n, gen_poly_hex=f"{spec.gen_poly:x}",
                       ebn0_db=[1.0, 3.0], max_frames=200,
                       max_frame_errors=200)
    points = run_monte_carlo(cfg).points
    assert any(p.frame_errors for p in points)
    monkeypatch.setattr(ddcodes.sim, "build_decoder", _per_frame_engine_decoder)
    assert run_monte_carlo(cfg).points == points


_BASELINE_CODES = [(16, 7), (16, 11), (32, 11)]


@pytest.mark.parametrize("n, k", _BASELINE_CODES)
def test_mld_points_match_per_frame_enumeration(n, k, monkeypatch):
    _assert_points_match_per_frame_engines("mld", n, k, monkeypatch)


@pytest.mark.parametrize("n, k", _BASELINE_CODES)
@pytest.mark.parametrize("algo", ["spa", "osd"])
def test_spa_and_osd_points_match_per_frame_engines(algo, n, k, monkeypatch):
    _assert_points_match_per_frame_engines(algo, n, k, monkeypatch)


@pytest.mark.parametrize("algo, engine", [("osd", "osd_decode"),
                                          ("spa", "spa_decode_batch")])
def test_baseline_frame_makes_one_engine_call(algo, engine, monkeypatch):
    """The closures reach the engines through the decoders module, so a
    wrapper installed on either name sees every baseline frame."""
    calls = []
    real = getattr(ddcodes.decoders, engine)

    def counting(M, L, *args):
        calls.append(L.shape)
        return real(M, L, *args)
    monkeypatch.setattr(ddcodes.decoders, engine, counting)
    decode = build_decoder(_base_config(algo=algo),
                           code_from_generator(GF2m(4), 0x1D1))
    decode(np.random.default_rng(241).normal(0.0, 2.0, size=16))
    assert calls == [(1, 16)]


def test_mld_enumerates_the_codebook_once(monkeypatch):
    calls = []

    def counting(G):
        calls.append(np.shape(G))
        return all_codewords(G)
    monkeypatch.setattr(ddcodes.decoders, "all_codewords", counting)
    spec = code_from_generator(GF2m(4), 0x1D1)
    decode = build_decoder(_base_config(), spec)
    rng = np.random.default_rng(293)
    for _ in range(5):
        decode(rng.normal(0.0, 2.0, size=16))
    assert calls == [(7, 16)]


@pytest.mark.parametrize("L", [np.full(16, np.nan), np.ones(15),
                               np.where(np.arange(16) == 2, np.inf, 1.0)])
def test_mld_rejects_bad_llrs(L):
    decode = build_decoder(_base_config(), code_from_generator(GF2m(4), 0x1D1))
    with pytest.raises(ValueError, match="LLR input"):
        decode(L)


def test_results_csv(tmp_path):
    result = run_monte_carlo(_base_config(
        ebn0_db=[1.0, 2.0], max_frames=50, max_frame_errors=50))
    path = tmp_path / "out.csv"
    write_results(result, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "ebn0_db,frames,frame_errors,bler,avg_dd_iters,avg_inner_iters"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == 1.0
    assert int(first[1]) == 50


def test_config_roundtrip(tmp_path):
    cfg = _base_config(algo="dd-spa", directions="k:8:3")
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_config_is_hashable_and_its_sweep_immutable():
    """A list of Eb/N0 points is stored as a tuple once checked: hash(cfg)
    raised TypeError on the list, and appending to it skipped the check."""
    cfg = _base_config(ebn0_db=[1.0, 3.0])
    assert cfg.ebn0_db == (1.0, 3.0)
    assert hash(cfg) == hash(_base_config(ebn0_db=(1.0, 3.0)))
    with pytest.raises(AttributeError):
        cfg.ebn0_db.append(True)
    assert dataclasses.replace(cfg, seed=2).ebn0_db == (1.0, 3.0)


def test_config_saved_with_omega_decodes_the_same(tmp_path):
    """Every config saved while SimConfig had the assumed-cost field omega
    carries it; such a config loads and gives the same points."""
    cfg = _base_config(algo="dd-osd", directions="k:8:3", ebn0_db=[1.0, 3.0],
                       max_frames=40, max_frame_errors=40)
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    raw = json.loads(path.read_text())
    assert "omega" not in raw
    path.write_text(json.dumps({**raw, "omega": 250.0}))
    old = load_config(path)
    assert old == cfg
    assert run_monte_carlo(old).points == run_monte_carlo(cfg).points


def test_config_schema_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 16, "algo": "mld"}')
    with pytest.raises(ConfigError, match="gen_poly_hex"):
        load_config(path)
    path.write_text('{"n": 16, "gen_poly_hex": "1d1", "algo": "mld", "turbo": 1}')
    with pytest.raises(ConfigError, match="turbo"):
        load_config(path)
    path.write_text("not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(path)
    path.write_text("5")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(path)


@pytest.mark.parametrize("field, value, want, got", [
    ("ebn0_db", "3.0", "a non-empty list of finite numbers", "3.0"),
    ("max_frames", '"10"', "an integer >= 1", "'10'"),
    ("seed", "true", "an integer >= 0", "True"),
])
def test_config_rejects_wrong_typed_field(tmp_path, field, value, want, got):
    path = tmp_path / "bad.json"
    path.write_text(f'{{"n": 16, "gen_poly_hex": "1d1", "algo": "mld", "{field}": {value}}}')
    with pytest.raises(ConfigError, match=re.escape(
            f"{path}: field '{field}' must be {want}, got {got}")):
        load_config(path)


def test_config_accepts_integers_for_float_fields(tmp_path):
    path = tmp_path / "ok.json"
    path.write_text('{"n": 16, "gen_poly_hex": "1d1", "algo": "mld", '
                    '"ebn0_db": [1, 2.5], "noiseless": true}')
    cfg = load_config(path)
    assert cfg.ebn0_db == (1, 2.5) and cfg.noiseless is True
