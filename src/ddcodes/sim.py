"""AWGN/BPSK channel, Monte-Carlo block-error-rate harness, config and CSV I/O.

Every frame is drawn from one random-number substream spawned from the
seed, and frames are decoded one after another in one process, so a result
depends only on the seed.
"""
from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field as dc_field

import numpy as np

from .cyclic import CodeSpec, code_from_generator
from .ddcodec import (DirectionSet, dd_decode_cyclic, dd_decode_minimal,
                      flop_account, minimal_transversal)
from .decoders import (_checked_llrs, _nonnegative_int, mld_batch_decoder,
                       osd_batch_decoder, spa_batch_decoder)
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


@dataclass(frozen=True)
class ChannelConfig:
    """Binary-input AWGN channel at a given Eb/N0 and code rate."""
    ebn0_db: float
    rate: float

    @property
    def sigma2(self) -> float:
        if self.rate <= 0:
            raise ConfigError("rate must be positive")
        return 1.0 / (2.0 * self.rate * 10.0 ** (self.ebn0_db / 10.0))


def transmit(a, cfg: ChannelConfig, rng: np.random.Generator) -> np.ndarray:
    """BPSK-modulate (0 -> +1), add noise, return channel LLRs 2y/sigma^2."""
    a = np.asarray(a, dtype=np.float64)
    sigma2 = cfg.sigma2
    y = (1.0 - 2.0 * a) + np.sqrt(sigma2) * rng.standard_normal(a.shape[0])
    return 2.0 * y / sigma2


@dataclass
class SimConfig:
    """One simulation campaign: code, decoder, SNR sweep, stopping rules.

    `workers` was removed; it only dealt frames to random substreams.  The
    field stays so that configs passing workers=1 still load: values <= 1
    all draw from the one substream, and run_monte_carlo raises
    ConfigError for more.
    """
    n: int                      # extended block length 2^m
    gen_poly_hex: str           # generator polynomial, bit i = coeff of x^i
    algo: str                   # one of ALGOS
    ebn0_db: list[float] = dc_field(default_factory=lambda: [3.0])
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
    omega: float = 0.0          # assumed per-call inner-decoder flops


@dataclass
class SimPoint:
    ebn0_db: float
    frames: int
    frame_errors: int
    bit_errors: int
    bler: float
    avg_dd_iters: float
    avg_inner_iters: float
    flops_est: int


@dataclass
class SimResult:
    config: SimConfig
    points: list[SimPoint]


def _parse_directions(spec_str: str, field: GF2m) -> DirectionSet:
    if spec_str == "all":
        return DirectionSet.all_of(field)
    parts = spec_str.split(":")
    if len(parts) == 3 and parts[0] == "k":
        try:
            k, seed = int(parts[1]), int(parts[2])
        except ValueError:
            pass
        else:
            return DirectionSet.random_subset(field, k, seed)
    raise ConfigError(f"cannot parse directions {spec_str!r} (use all | k:<n>:<seed>)")


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
    """Per-frame decode closure: L -> (bits, dd_iters, inner_sum, inner_calls, converged).

    The baselines `mld`, `osd` and `spa` build the batch-decoder closure
    for the outer code and decode each frame as a one-row stack; the `dd-*`
    algorithms run a derivative loop around a closure for the descendant.
    Every algorithm raises ValueError("LLR input ...") unless L is a finite
    vector of length n.  Building raises ValueError unless inner_max_iter
    and n_max are integers >= 0.
    """
    field = spec.field
    if cfg.algo not in ALGOS:
        raise ConfigError(f"unknown algo {cfg.algo!r}")
    _nonnegative_int(cfg.inner_max_iter, "inner_max_iter")
    _nonnegative_int(cfg.n_max, "n_max")
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
            return bits[0], 1, int(its[0]), 1, bool(conv[0])
        return decode

    B = _parse_directions(cfg.directions, field)
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
        rep = loop(L, spec, inner, B, cfg.n_max)
        return (rep.bits, rep.iterations, int(rep.inner_iterations.sum()),
                rep.inner_iterations.size, rep.converged)
    return decode


def run_monte_carlo(cfg: SimConfig) -> SimResult:
    """Simulate every SNR point until max_frames or max_frame_errors.

    Raises ConfigError naming the field if `workers` is above 1, or unless
    max_frames and max_frame_errors are integers >= 1 and ebn0_db is finite.
    """
    if cfg.workers > 1:
        raise ConfigError(f"field 'workers' was removed (frames come from one "
                          f"random stream); got workers={cfg.workers}")
    for name in ("max_frames", "max_frame_errors"):
        value = getattr(cfg, name)
        if not _is_int(value) or value < 1:
            raise ConfigError(f"field {name!r} must be an integer >= 1, "
                              f"got {value!r}")
    if not all(_is_number(v) and np.isfinite(v) for v in cfg.ebn0_db):
        raise ConfigError(f"field 'ebn0_db' must hold finite numbers, "
                          f"got {cfg.ebn0_db!r}")
    field = field_for_length(cfg.n)
    spec = code_from_generator(field, int(cfg.gen_poly_hex, 16))
    decode = build_decoder(cfg, spec)
    num_dirs = 0
    if cfg.algo.startswith("dd-"):
        num_dirs = len(_parse_directions(cfg.directions, field))
    points = []
    for ebn0 in cfg.ebn0_db:
        chan = ChannelConfig(ebn0, spec.k / spec.n)
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
            bits, dd_its, isum, icalls, _ = decode(L)
            frames += 1
            dd_iters_sum += dd_its
            inner_sum += isum
            inner_calls += icalls
            if not np.array_equal(bits, a):
                frame_errors += 1
                bit_errors += int((bits ^ a).sum())
        avg_dd = dd_iters_sum / frames
        avg_inner = inner_sum / inner_calls if inner_calls else 0.0
        flops = flop_account(avg_dd, spec.n, num_dirs, cfg.omega) if num_dirs else 0
        points.append(SimPoint(ebn0, frames, frame_errors, bit_errors,
                               frame_errors / frames, avg_dd, avg_inner, flops))
    return SimResult(cfg, points)


CSV_COLUMNS = ["ebn0_db", "frames", "frame_errors", "bler",
               "avg_dd_iters", "avg_inner_iters", "flops_est"]


def write_results(result: SimResult, path) -> None:
    """One CSV row per SNR point, fixed column set."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        for p in result.points:
            w.writerow([p.ebn0_db, p.frames, p.frame_errors,
                        f"{p.bler:.6g}", f"{p.avg_dd_iters:.4f}",
                        f"{p.avg_inner_iters:.4f}", p.flops_est])


def save_config(cfg: SimConfig, path) -> None:
    with open(path, "w") as fh:
        json.dump(asdict(cfg), fh, indent=2)
        fh.write("\n")


def _is_number(v) -> bool:
    return _is_int(v) or isinstance(v, (float, np.floating))


# SimConfig annotation -> (what a JSON value must be, test for it)
_JSON_TYPES = {
    "int": ("an integer", lambda v: _is_number(v) and isinstance(v, int)),
    "float": ("a number", _is_number),
    "str": ("a string", lambda v: isinstance(v, str)),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "list[float]": ("a list of numbers",
                    lambda v: isinstance(v, list) and all(map(_is_number, v))),
}


def load_config(path) -> SimConfig:
    """JSON mirror of SimConfig; missing, unknown and wrong-typed fields are
    named errors."""
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: not valid JSON ({e})") from e
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a JSON object of fields")
    fields = SimConfig.__dataclass_fields__
    required = {"n", "gen_poly_hex", "algo"}
    for name in required:
        if name not in raw:
            raise ConfigError(f"{path}: missing required field {name!r}")
    unknown = set(raw) - set(fields)
    if unknown:
        raise ConfigError(f"{path}: unknown field(s) {sorted(unknown)}")
    for name, value in raw.items():
        what, fits = _JSON_TYPES[fields[name].type]
        if not fits(value):
            raise ConfigError(f"{path}: field {name!r} must be {what}, "
                              f"got {json.dumps(value)}")
    return SimConfig(**raw)
