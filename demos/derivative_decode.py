"""One noisy frame through the derivative decoder, step by step.

The received LLR vector is differentiated in every direction with the
box-plus rule, each derivative is decoded in the (smaller) descendant code
by belief propagation, and the decoded derivatives vote on the original
bits.  The loop repeats until the hard decision is a codeword.
"""

from __future__ import annotations

import numpy as np

from ddcodes.cyclic import code_from_generator, is_member
from ddcodes.ddcodec import DirectionSet, boxplus, dd_decode_cyclic
from ddcodes.decoders import spa_batch_decoder
from ddcodes.gf2m import field_for_length
from ddcodes.parity import eg_line_parity_matrix
from ddcodes.sim import ChannelConfig, transmit


def main() -> None:
    field = field_for_length(16)
    spec = code_from_generator(field, 0x1D1)
    rng = np.random.default_rng(8)
    word = (rng.integers(0, 2, size=spec.k, dtype=np.uint8) @ spec.G) % 2

    channel = ChannelConfig(ebn0_db=3.0, rate=spec.k / spec.n)
    L = transmit(word, channel, rng)
    hard = (L < 0).astype(np.uint8)
    print(f"sent     : {''.join(map(str, word))}")
    print(f"hard rx  : {''.join(map(str, hard))}   "
          f"({int(np.sum(hard != word))} bit errors, "
          f"codeword: {is_member(spec, hard)})")

    beta = int(field.antilog[0])
    dL = boxplus(L, L[field.pair_permutation(beta)])
    print(f"derivative LLRs in direction {beta}: "
          f"{np.array2string(dL[:8], precision=2)} ...")

    # the descendant is checked by the 20 lines of the 4-point plane
    inner = spa_batch_decoder(eg_line_parity_matrix(2, 2), max_iter=20)
    report = dd_decode_cyclic(L, spec, inner, DirectionSet.all_of(field))
    print(f"decoded  : {''.join(map(str, report.bits))}   "
          f"(converged={report.converged} after {report.iterations} "
          f"outer iteration(s))")
    print(f"matches the sent word: {np.array_equal(report.bits, word)}")


if __name__ == "__main__":
    main()
