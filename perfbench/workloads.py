"""The four pinned decoding workloads: set-up, frame generation, decode call.

Every workload is a scenario the acceptance gate already pins.  Set-up runs
the same steps as `ddcodes.sim.run_monte_carlo` (field, code, decoder
construction); the frame generator repeats that function's channel formula
and random-number order with one worker, so the benchmark can hand the
decoder nothing but LLR vectors.

All ddcodes names are looked up as module attributes at call time
(`ddcodes.sim.build_decoder`, not an imported name), so a tracer that swaps
a module attribute sees the benchmark's own calls too.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import ddcodes.ddcodec
import ddcodes.decoders
import ddcodes.derivative
import ddcodes.cyclic
import ddcodes.gf2m
import ddcodes.sim


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int
    gen_poly_hex: str
    ebn0_db: float
    algo: str                # a ddcodes.sim algorithm, or "dd-ml" (no SimConfig)
    pool: int                # frames per seed; quality metrics and digest cover them
    order: int = 1
    directions: str = "all"
    n_max: int = 3

    def sim_config(self, seed: int = 1) -> "ddcodes.sim.SimConfig":
        """The SimConfig run_monte_carlo would get; workers pinned to 1."""
        return ddcodes.sim.SimConfig(
            n=self.n, gen_poly_hex=self.gen_poly_hex, algo=self.algo,
            ebn0_db=[self.ebn0_db], directions=self.directions,
            order=self.order, n_max=self.n_max, seed=seed, workers=1)


# Pool sizes: at least 1000 frames, and small enough that a 25 s run on a
# 2-CPU x86 host decodes the whole pool at least once while timing.  The
# quality shares are exact for a seed but vary from seed to seed; dd-ml-16,
# the one workload with many failing frames, gets a pool large enough that
# their spread over ten seeds (0.002-0.004 of the median) stays near a third
# of the 0.01 bound BENCHMARK.json gives them.
WORKLOADS = {w.name: w for w in [
    Workload("dd-spa-64",
             "criterion 12: SPA inner decoder over 63 directions, no per-frame "
             "GF(2) elimination; stresses decoders.spa_decode_batch",
             n=64, gen_poly_hex="0x782cf", ebn0_db=5.0, algo="dd-spa",
             pool=2500),
    Workload("dd-osd-128",
             "criterion 13: order-1 OSD on the minimal descendant, 32 "
             "directions; osd_workspace elimination dominates",
             n=128, gen_poly_hex="0xccc3cdb5487a24fa5f3a3dd", ebn0_db=4.0,
             algo="dd-osd", order=1, directions="k:32:2024", n_max=4,
             pool=2400),
    Workload("osd3-128",
             "criterion 13 baseline: plain order-3 OSD, no derivative loop; "
             "reprocessing dominates, so elimination work should not move it",
             n=128, gen_poly_hex="0xccc3cdb5487a24fa5f3a3dd", ebn0_db=4.0,
             algo="osd", order=3, pool=1100),
    Workload("dd-ml-16",
             "criterion 10 call pattern: ML inner decoder, no H; per-frame "
             "fixed cost and the only workload where frames exit at N_max",
             n=16, gen_poly_hex="0x1d1", ebn0_db=3.0, algo="dd-ml",
             pool=60000),
]}


class DerivativeMl:
    """The README / criterion-10 call: dd_decode_cyclic with an ML inner
    decoder for the descendant, every direction, N_max 3 and no H.

    The inner decoder is an attribute so a tracer can wrap it.
    """

    def __init__(self, spec, n_max: int):
        self.spec = spec
        self.n_max = n_max
        self.inner = ddcodes.decoders.mld_batch_decoder(
            ddcodes.derivative.dd_code(spec).G)
        self.directions = ddcodes.ddcodec.DirectionSet.all_of(spec.field)

    def __call__(self, L):
        rep = ddcodes.ddcodec.dd_decode_cyclic(L, self.spec, self.inner,
                                               self.directions, self.n_max)
        return (rep.bits, rep.iterations, int(rep.inner_iterations.sum()),
                rep.inner_iterations.size, rep.converged)


def set_up(w: Workload):
    """Field, code and decoder, as run_monte_carlo builds them.

    Returns (spec, decode); decode maps an LLR vector to build_decoder's
    tuple (bits, outer iterations, inner iteration sum, inner rows,
    converged).
    """
    field = ddcodes.gf2m.field_for_length(w.n)
    spec = ddcodes.cyclic.code_from_generator(field, int(w.gen_poly_hex, 16))
    if w.algo == "dd-ml":
        return spec, DerivativeMl(spec, w.n_max)
    return spec, ddcodes.sim.build_decoder(w.sim_config(), spec)


def generate_frames(w: Workload, spec, seed: int, count: int):
    """(messages, codewords, LLRs) for `count` frames of seed `seed`.

    Same stream as run_monte_carlo(SimConfig(seed=seed, workers=1)): one
    substream spawned from the seed, and per frame the message bits first,
    then the channel noise.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    rate = spec.k / spec.n
    sigma2 = 1.0 / (2.0 * rate * 10.0 ** (w.ebn0_db / 10.0))
    G = spec.G
    msgs = np.empty((count, spec.k), dtype=np.uint8)
    words = np.empty((count, spec.n), dtype=np.uint8)
    llrs = np.empty((count, spec.n), dtype=np.float64)
    for f in range(count):
        msg = rng.integers(0, 2, size=spec.k).astype(np.uint8)
        a = msg @ G % 2
        y = (1.0 - 2.0 * a.astype(np.float64)) \
            + np.sqrt(sigma2) * rng.standard_normal(spec.n)
        msgs[f], words[f], llrs[f] = msg, a, 2.0 * y / sigma2
    return msgs, words, llrs
