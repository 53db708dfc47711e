"""Tests for the channel model, Monte-Carlo harness, and config round-trips."""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

import ddcodes.decoders
import ddcodes.sim
from ddcodes.cyclic import code_from_generator, ebch_code
from ddcodes.decoders import (all_codewords, mld_exhaustive, osd_decode,
                              spa_decode_batch)
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
    with pytest.raises(ConfigError, match=f"field 'workers' was removed .*"
                                          f"got workers={workers}"):
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


@pytest.mark.parametrize("ebn0", [-math.inf, math.inf, math.nan])
def test_non_finite_snr_is_a_named_error(ebn0):
    """-inf used to raise a bare ZeroDivisionError, and inf and NaN an LLR
    error that did not name the field."""
    with pytest.raises(ConfigError, match="field 'ebn0_db' must hold finite "
                                          "numbers"):
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


def test_dd_run_reports_direction_flops():
    cfg = _base_config(algo="dd-spa", noiseless=True, max_frames=20,
                       omega=100.0)
    point = run_monte_carlo(cfg).points[0]
    assert point.frame_errors == 0
    assert point.avg_dd_iters == 1.0
    # 1 outer iteration, 15 directions, 5n + omega per direction
    assert point.flops_est == 15 * (5 * 16 + 100)
    assert point.avg_inner_iters >= 1.0


def test_dd_direction_subset():
    cfg = _base_config(algo="dd-osd", directions="k:4:7", noiseless=True,
                       max_frames=10, n_max=4)
    point = run_monte_carlo(cfg).points[0]
    assert point.frame_errors == 0
    with pytest.raises(ConfigError):
        run_monte_carlo(_base_config(algo="dd-spa", directions="bogus",
                                     max_frames=5))


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
            bits, its, inner_sum, rows, conv = decode(
                transmit(msg @ spec.G % 2, ch, rng))
            digest.update(np.asarray(bits, dtype=np.uint8).tobytes())
            digest.update(np.array([its, inner_sum, rows, conv],
                                   dtype=np.int64).tobytes())
    assert digest.hexdigest() == _DD_OSD_DIGESTS[case]


# sha256 of build_decoder("dd-spa") output on seeded frames, and of the
# per-row iteration counts and flags of every inner SPA call made for a frame
# whose channel hard decision fails a check of C.  Both were recorded before
# the derivative loop returned frames whose channel hard decision is already
# a codeword without calling SPA, and before SPA rows whose channel hard
# decision passes every check left ahead of the first update: neither exit
# changed a bit, count or flag.
_DD_SPA_DIGESTS = {
    (64, "0x782cf", (5.0, 3.0), 150): (
        "57a6bce2429d43d0a80123d66e466665fecfda408bb2978efeef3ac1ce8d57f6",
        "f293ffbfbab4fbbc17f2ac510626342a3890c61b247bcb1d3001edade0e5b098"),
    (16, "0x1d1", (3.0, 1.0), 40): (
        "e835204318540a3489df6bab97f4dbbe9f83208301fd997354903d1070e01a09",
        "64df45c08e86e5877ca27f18e96c15bd4e23c287e6724045a0147c25bbe36d2f"),
}


@pytest.mark.parametrize("case", sorted(_DD_SPA_DIGESTS), ids=lambda c: f"n={c[0]}")
def test_dd_spa_output_is_frozen(case, monkeypatch):
    """Bits, outer iterations, inner tallies and flags of the dd-spa decoder
    on fixed frames, and the per-row iteration counts and flags of every
    inner SPA call of the frames whose channel hard decision is not a
    codeword: (n, generator, Eb/N0 points, frames per point)."""
    n, gen, snrs, frames = case
    spec = code_from_generator(field_for_length(n), int(gen, 16))
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
            bits, its, inner_sum, rows, conv = decode(L)
            outputs.update(np.asarray(bits, dtype=np.uint8).tobytes())
            outputs.update(np.array([its, inner_sum, rows, conv],
                                    dtype=np.int64).tobytes())
            if (spec.check_matrix @ (L < 0).astype(np.uint8) % 2).any():
                for chunk in frame_calls:
                    spa_calls.update(chunk)
    assert (outputs.hexdigest(), spa_calls.hexdigest()) == _DD_SPA_DIGESTS[case]


@pytest.mark.parametrize("directions", ["k:abc:1", "k:4:", "k:4:7:1",
                                        "k:2.5:7"])
def test_unparsable_directions_are_named(directions):
    """Non-integer counts and seeds used to raise int()'s own message."""
    with pytest.raises(ConfigError, match=f"cannot parse directions "
                                          f"'{directions}'"):
        ddcodes.sim._parse_directions(directions, GF2m(4))


def test_decoder_contracts():
    spec = code_from_generator(GF2m(4), 0x1D1)
    word = np.zeros(16)
    L = 8.0 * (1.0 - 2.0 * word)
    for algo in ("mld", "osd", "spa", "dd-spa", "dd-osd"):
        decode = build_decoder(_base_config(algo=algo), spec)
        bits, dd_its, inner_sum, inner_calls, conv = decode(L)
        assert np.array_equal(bits, word), algo
        assert dd_its >= 1 and inner_calls >= 1 and conv


def test_unknown_algo_rejected():
    spec = code_from_generator(GF2m(4), 0x1D1)
    with pytest.raises(ConfigError):
        build_decoder(_base_config(algo="turbo"), spec)


@pytest.mark.parametrize("algo", ["osd", "dd-osd"])
@pytest.mark.parametrize("order", [-1, 2.5])
def test_invalid_osd_order_rejected(algo, order):
    with pytest.raises(ValueError, match="OSD order"):
        run_monte_carlo(_base_config(algo=algo, order=order, max_frames=1))


@pytest.mark.parametrize("algo", ["spa", "dd-spa", "mld"])
@pytest.mark.parametrize("field, value", [("inner_max_iter", -1),
                                          ("n_max", -3), ("n_max", 1.5)])
def test_invalid_iteration_caps_rejected(algo, field, value):
    spec = code_from_generator(GF2m(4), 0x1D1)
    with pytest.raises(ValueError, match=f"{field} must be an integer >= 0, "
                                         f"got {value}"):
        build_decoder(_base_config(algo=algo, **{field: value}), spec)


@pytest.mark.parametrize("algo", ["spa", "dd-spa"])
def test_zero_iteration_caps_return_the_hard_decision(algo):
    spec = code_from_generator(GF2m(4), 0x1D1)
    decode = build_decoder(_base_config(algo=algo, inner_max_iter=0, n_max=0),
                           spec)
    L = np.random.default_rng(29).normal(0.0, 2.0, size=16)
    assert np.array_equal(decode(L)[0], (L < 0).astype(np.uint8))


def test_mld_dimension_guard():
    spec = code_from_generator(GF2m(6), 0x782CF)  # k = 45
    with pytest.raises(ConfigError):
        build_decoder(_base_config(algo="mld"), spec)


def _per_frame_engine_decoder(cfg, spec):
    """The baseline decode closures as they were: one engine call per frame
    on the vector itself, the mld codebook enumerated per frame."""
    if cfg.algo == "mld":
        return lambda L: (mld_exhaustive(spec.G, L), 1, 1, 1, True)
    if cfg.algo == "osd":
        return lambda L: (osd_decode(spec.G, L[None], cfg.order)[0],
                          1, 1, 1, True)
    H = SparseParityMatrix.from_dense(spec.check_matrix)

    def decode(L):
        bits, its, conv = spa_decode_batch(H, L[None], cfg.inner_max_iter)
        return bits[0], 1, int(its[0]), 1, bool(conv[0])
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
    assert lines[0] == "ebn0_db,frames,frame_errors,bler,avg_dd_iters,avg_inner_iters,flops_est"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == 1.0
    assert int(first[1]) == 50


def test_config_roundtrip(tmp_path):
    cfg = _base_config(algo="dd-spa", directions="k:8:3", omega=250.0)
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    assert load_config(path) == cfg


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


@pytest.mark.parametrize("field, value, want", [
    ("ebn0_db", "3.0", "a list of numbers"),
    ("max_frames", '"10"', "an integer"),
    ("seed", "true", "an integer"),
])
def test_config_rejects_wrong_typed_field(tmp_path, field, value, want):
    path = tmp_path / "bad.json"
    path.write_text(f'{{"n": 16, "gen_poly_hex": "1d1", "algo": "mld", "{field}": {value}}}')
    with pytest.raises(ConfigError, match=f"field '{field}' must be {want}, got {value}"):
        load_config(path)


def test_config_accepts_integers_for_float_fields(tmp_path):
    path = tmp_path / "ok.json"
    path.write_text('{"n": 16, "gen_poly_hex": "1d1", "algo": "mld", '
                    '"ebn0_db": [1, 2.5], "omega": 3, "noiseless": true}')
    cfg = load_config(path)
    assert cfg.ebn0_db == [1, 2.5] and cfg.omega == 3 and cfg.noiseless is True
