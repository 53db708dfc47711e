"""AWGN/BPSK channel, Monte-Carlo block-error-rate harness, config and CSV I/O.

Every frame is drawn from one random-number substream spawned from the
seed, and frames are decoded one after another in one process, so a result
depends only on the seed.
"""
from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import asdict, dataclass

import numpy as np

from .cyclic import CodeSpec, code_from_generator
from .ddcodec import (DecodeReport, DirectionSet, dd_decode_cyclic,
                      dd_decode_minimal, minimal_transversal)
from .decoders import (_checked_llrs, mld_batch_decoder, osd_batch_decoder,
                       spa_batch_decoder)
from .derivative import dd_code, minimal_dd_basis
from .gf2m import GF2m, _is_int, field_for_length
from .parity import SparseParityMatrix, eg_line_parity_matrix, is_orthogonal_to

__all__ = [
    "ChannelConfig", "SimConfig", "SimPoint", "SimResult", "ConfigError",
    "transmit", "build_decoder", "run_monte_carlo",
    "write_results", "save_config", "load_config",
]

ALGOS = ("dd-spa", "dd-osd", "osd", "spa", "mld")


class ConfigError(ValueError):
    pass


def _is_finite(v) -> bool:
    """True for an integer or a finite float; a bool is neither."""
    return _is_int(v) or (isinstance(v, (float, np.floating))
                          and math.isfinite(v))


def _int_from(low: int):
    return f"an integer >= {low}", lambda v: _is_int(v) and v >= low


def _matching(pattern: str):
    """Test for a string that pattern matches as a whole.  The pattern is
    compiled here, at import, not in the first config a process builds."""
    compiled = re.compile(pattern)
    return lambda v: isinstance(v, str) and compiled.fullmatch(v) is not None


_BOOL = ("true or false", lambda v: isinstance(v, bool))

# field -> (what its value must be, test for it); a config's __post_init__
# raises ConfigError for the first field, in this order, that fails its test
_SIM_RULES = {
    "n": ("a power of two from 4 to 65536",
          lambda v: _is_int(v) and 4 <= v <= 1 << 16 and not v & (v - 1)),
    "gen_poly_hex": ("a hex string", _matching("(0[xX])?[0-9a-fA-F]+")),
    "algo": (f"one of {', '.join(ALGOS)}", _matching("|".join(ALGOS))),
    "ebn0_db": ("a non-empty list of finite numbers",
                lambda v: isinstance(v, (list, tuple)) and len(v) > 0
                and all(map(_is_finite, v))),
    "directions": ("'all' or 'k:<count>:<seed>' with integers count and "
                   "seed >= 0", _matching("all|k:[0-9]+:[0-9]+")),
    "order": _int_from(0),
    "inner_max_iter": _int_from(0),
    "n_max": _int_from(0),
    "max_frames": _int_from(1),
    "max_frame_errors": _int_from(1),
    "seed": _int_from(0),
    "workers": ("an integer <= 1 (the field was removed: frames come from "
                "one random stream)", lambda v: _is_int(v) and v <= 1),
    "all_zero": _BOOL,
    "noiseless": _BOOL,
}
_CHANNEL_RULES = {
    "ebn0_db": ("a finite number", _is_finite),
    "rate": ("a number in (0, 1]", lambda v: _is_finite(v) and 0 < v <= 1),
}


def _check_fields(cfg, rules: dict) -> None:
    for name, (what, fits) in rules.items():
        value = getattr(cfg, name)
        if not fits(value):
            raise ConfigError(f"field {name!r} must be {what}, got {value!r}")


@dataclass(frozen=True)
class ChannelConfig:
    """Binary-input AWGN channel at a given Eb/N0 and code rate.

    Building one raises ConfigError unless ebn0_db is a finite number, rate
    lies in (0, 1], and sigma^2 and 2^18/sigma^2 are finite and positive:
    LLRs are 2y/sigma^2 with |y| < 2 at any sigma^2 that small, so a
    correlation of n <= 2^16 of them stays finite.
    """
    ebn0_db: float
    rate: float

    def __post_init__(self):
        _check_fields(self, _CHANNEL_RULES)
        try:
            sigma2 = self.sigma2
        except (OverflowError, ZeroDivisionError):
            sigma2 = 0.0
        if not (0.0 < sigma2 < math.inf and 2.0 ** 18 / sigma2 < math.inf):
            raise ConfigError(f"field 'ebn0_db' must be an Eb/N0 at which "
                              f"sigma^2 > 0 and 2^18/sigma^2 are finite at "
                              f"rate {self.rate!r}, got {self.ebn0_db!r}")

    @property
    def sigma2(self) -> float:
        return 1.0 / (2.0 * self.rate * 10.0 ** (self.ebn0_db / 10.0))


def transmit(a, cfg: ChannelConfig, rng: np.random.Generator) -> np.ndarray:
    """BPSK-modulate (0 -> +1), add noise, return channel LLRs 2y/sigma^2."""
    a = np.asarray(a, dtype=np.float64)
    sigma2 = cfg.sigma2
    y = (1.0 - 2.0 * a) + np.sqrt(sigma2) * rng.standard_normal(a.shape[0])
    return 2.0 * y / sigma2


@dataclass(frozen=True)
class SimConfig:
    """One simulation campaign: code, decoder, SNR sweep, stopping rules.

    Every field is checked when the config is built, in Python or by
    load_config from JSON, and again by dataclasses.replace: a value that
    breaks its rule in _SIM_RULES raises ConfigError("field '<name>' must
    be ..., got <repr>").  Three checks need the code and wait for it:
    build_decoder checks the direction count against the code's field and
    that mld has k <= 20, and run_monte_carlo builds a ChannelConfig at the
    code's rate for every Eb/N0 point before the first frame.

    `workers` was removed; it only dealt frames to random substreams.  The
    field stays so that configs passing workers=1 still load: values <= 1
    all draw from the one substream.  load_config drops the removed field
    `omega`.  A checked ebn0_db list is stored as a tuple, so a config
    stays frozen and hashes.
    """
    n: int                      # extended block length 2^m
    gen_poly_hex: str           # generator polynomial, bit i = coeff of x^i
    algo: str                   # one of ALGOS
    ebn0_db: tuple[float, ...] = (3.0,)
    directions: str = "all"     # "all" or "k:<count>:<seed>"
    order: int = 1              # OSD reprocessing depth
    inner_max_iter: int = 20    # SPA iteration cap
    n_max: int = 3              # outer derivative-decoding iteration cap
    max_frames: int = 1000
    max_frame_errors: int = 100
    seed: int = 1
    workers: int = 1            # removed; only values <= 1 are accepted
    all_zero: bool = False      # transmit the zero codeword instead of random
    noiseless: bool = False     # saturated correct-sign LLRs (sanity runs)

    def __post_init__(self):
        _check_fields(self, _SIM_RULES)
        object.__setattr__(self, "ebn0_db", tuple(self.ebn0_db))


@dataclass
class SimPoint:
    ebn0_db: float
    frames: int
    frame_errors: int
    bit_errors: int
    bler: float
    avg_dd_iters: float
    avg_inner_iters: float


@dataclass
class SimResult:
    config: SimConfig
    points: list[SimPoint]


def _parse_directions(spec_str: str, field: GF2m) -> DirectionSet:
    """The set a checked `directions` value names; random_subset raises
    ValueError for a count outside 1..field.n."""
    if spec_str == "all":
        return DirectionSet.all_of(field)
    k, seed = map(int, spec_str[2:].split(":"))
    return DirectionSet.random_subset(field, k, seed)


def _dd_parity_matrix(spec: CodeSpec) -> SparseParityMatrix:
    """Low-weight checks for the cyclic descendant: EG lines when they fit.

    Tries every factorization of m as mu * s with mu >= 2; a line matrix is
    used only if it verifies orthogonal to the descendant's generator.
    Falls back to the dense dual basis.  The s = 1 lines are all point
    pairs, whose weight-2 checks admit only codes inside the repetition
    code, so they are tried only for a descendant of dimension <= 1.
    """
    descendant = dd_code(spec)
    m = spec.field.m
    for s in range(1 if descendant.k <= 1 else 2, m):
        if m % s:
            continue
        mu = m // s
        if mu < 2:
            continue
        H = eg_line_parity_matrix(mu, s)
        if is_orthogonal_to(H, descendant.G):
            return H
    return SparseParityMatrix.from_dense(descendant.check_matrix)


def build_decoder(cfg: SimConfig, spec: CodeSpec):
    """Per-frame decode closure: L -> DecodeReport.

    The baselines `mld`, `osd` and `spa` build the batch-decoder closure
    for the outer code and decode each frame as a one-row stack (one
    iteration, a (1, 1) tally); the `dd-*` algorithms return the report of
    a derivative loop around a closure for the descendant.
    Every algorithm raises ValueError("LLR input ...") unless L is a finite
    vector of length n.  cfg checked its fields when it was built; building
    the decoder checks what needs the code, whether or not the algorithm
    reads it: the direction count must fit the code's field (ValueError),
    and mld needs k <= 20 (ConfigError).
    """
    field = spec.field
    B = _parse_directions(cfg.directions, field)
    if cfg.algo in ("mld", "osd", "spa"):
        if cfg.algo == "mld":
            if spec.k > 20:
                raise ConfigError(f"mld needs k <= 20, got {spec.k}")
            batch = mld_batch_decoder(spec.G)
        elif cfg.algo == "osd":
            batch = osd_batch_decoder(spec.G, cfg.order)
        else:
            batch = spa_batch_decoder(
                SparseParityMatrix.from_dense(spec.check_matrix),
                cfg.inner_max_iter)

        def decode(L):
            # checked as a vector first, so a bad shape is named as passed
            bits, its, conv = batch(_checked_llrs(L, spec.n, batch=False)[None])
            return DecodeReport(bits[0], 1, bool(conv[0]), its[:, None])
        return decode

    cyclic = cfg.algo == "dd-spa"
    if cyclic:
        inner = spa_batch_decoder(_dd_parity_matrix(spec), cfg.inner_max_iter)
    else:
        # dd-osd: one OSD engine on the direction-1 minimal descendant,
        # punctured to the positions where the minimal loop decodes
        T, _ = minimal_transversal(field)
        inner = osd_batch_decoder(minimal_dd_basis(spec, 1).basis[:, T], cfg.order)

    def decode(L):
        # looked up per call, so a wrapper installed after set-up is seen
        loop = dd_decode_cyclic if cyclic else dd_decode_minimal
        return loop(L, spec, inner, B, cfg.n_max)
    return decode


def run_monte_carlo(cfg: SimConfig) -> SimResult:
    """Simulate every SNR point until max_frames or max_frame_errors.

    Builds the code, the channel of every point at the code's rate and the
    decoder before the first frame, so a point at which ChannelConfig
    rejects the channel raises its ConfigError naming `ebn0_db`.
    """
    spec = code_from_generator(field_for_length(cfg.n),
                               int(cfg.gen_poly_hex, 16))
    chans = [ChannelConfig(ebn0, spec.k / spec.n) for ebn0 in cfg.ebn0_db]
    decode = build_decoder(cfg, spec)
    points = []
    for chan in chans:
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
        frames = frame_errors = bit_errors = 0
        dd_iters_sum = 0
        inner_sum = inner_calls = 0
        while frames < cfg.max_frames and frame_errors < cfg.max_frame_errors:
            if cfg.all_zero:
                msg = np.zeros(spec.k, dtype=np.uint8)
            else:
                msg = rng.integers(0, 2, size=spec.k).astype(np.uint8)
            a = msg @ spec.G % 2
            if cfg.noiseless:
                L = (1.0 - 2.0 * a) * 60.0
            else:
                L = transmit(a, chan, rng)
            rep = decode(L)
            frames += 1
            dd_iters_sum += rep.iterations
            inner_sum += int(rep.inner_iterations.sum())
            inner_calls += rep.inner_iterations.size
            if not np.array_equal(rep.bits, a):
                frame_errors += 1
                bit_errors += int((rep.bits ^ a).sum())
        avg_dd = dd_iters_sum / frames
        avg_inner = inner_sum / inner_calls if inner_calls else 0.0
        points.append(SimPoint(chan.ebn0_db, frames, frame_errors, bit_errors,
                               frame_errors / frames, avg_dd, avg_inner))
    return SimResult(cfg, points)


CSV_COLUMNS = ["ebn0_db", "frames", "frame_errors", "bler",
               "avg_dd_iters", "avg_inner_iters"]


def write_results(result: SimResult, path) -> None:
    """One CSV row per SNR point, fixed column set."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        for p in result.points:
            w.writerow([p.ebn0_db, p.frames, p.frame_errors,
                        f"{p.bler:.6g}", f"{p.avg_dd_iters:.4f}",
                        f"{p.avg_inner_iters:.4f}"])


def save_config(cfg: SimConfig, path) -> None:
    with open(path, "w") as fh:
        json.dump(asdict(cfg), fh, indent=2)
        fh.write("\n")


def load_config(path) -> SimConfig:
    """JSON mirror of SimConfig.  A missing or unknown field, and any
    ConfigError SimConfig raises, is a ConfigError that names the file."""
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: not valid JSON ({e})") from e
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a JSON object of fields")
    raw.pop("omega", None)      # removed, but every older saved config has it
    for name in ("n", "gen_poly_hex", "algo"):
        if name not in raw:
            raise ConfigError(f"{path}: missing required field {name!r}")
    unknown = set(raw) - set(SimConfig.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"{path}: unknown field(s) {sorted(unknown)}")
    try:
        return SimConfig(**raw)
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from e
