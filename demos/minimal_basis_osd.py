"""Decoding in the minimal per-direction descendant with re-encoding.

The derivatives of a code in one fixed direction span a small exact
subspace.  Its basis is computed once; every direction then reuses it
after a cyclic shift, because all the per-direction subspaces are shift
equivalent.  Derivatives are constant on pairs {x, x + beta}, so one
coordinate per pair (a pair transversal) carries a whole derivative word:
the inner OSD decoder works on the basis punctured to the n/2 positions
`minimal_transversal` lists, and its bits expand back to both positions of
each pair.
"""

from __future__ import annotations

import numpy as np

from ddcodes.cyclic import code_from_generator
from ddcodes.ddcodec import dd_decode_minimal, minimal_transversal
from ddcodes.decoders import osd_batch_decoder
from ddcodes.derivative import minimal_dd_basis
from ddcodes.gf2m import field_for_length
from ddcodes.sim import ChannelConfig, transmit


def main() -> None:
    field = field_for_length(16)
    spec = code_from_generator(field, 0x1D1)
    mb = minimal_dd_basis(spec, 1)
    print(f"minimal descendant in direction 1: rank {mb.rank}")
    for row in mb.basis:
        print("  " + "".join(map(str, row)))

    transversal, _ = minimal_transversal(field)
    print(f"one coordinate per pair: positions {transversal.tolist()}")
    for row in mb.basis[:, transversal]:
        print("  " + "".join(map(str, row)))

    inner = osd_batch_decoder(mb.basis[:, transversal], order=1)
    rng = np.random.default_rng(9)
    channel = ChannelConfig(ebn0_db=3.0, rate=spec.k / spec.n)
    frames = 200
    errors = 0
    for _ in range(frames):
        word = (rng.integers(0, 2, size=spec.k, dtype=np.uint8) @ spec.G) % 2
        report = dd_decode_minimal(transmit(word, channel, rng), spec, inner)
        errors += int(np.any(report.bits != word))
    print(f"{frames} frames at 3 dB: {errors} frame errors "
          f"(BLER {errors / frames:.3f})")


if __name__ == "__main__":
    main()
