"""Small Monte-Carlo block-error-rate sweep, printed as CSV.

Runs the (64, 45) code under derivative decoding with a belief-propagation
inner decoder across a short SNR sweep, alongside plain belief propagation
on the same parity-check matrix for contrast.  Frame budgets are kept small
so the demo finishes in seconds; the command-line tool runs the same
machinery from a JSON config.
"""

from __future__ import annotations

from ddcodes.cyclic import ebch_code
from ddcodes.gf2m import field_for_length
from ddcodes.sim import CSV_COLUMNS, SimConfig, run_monte_carlo


def main() -> None:
    spec = ebch_code(field_for_length(64), 45)
    print(f"code ({spec.n}, {spec.k}), generator {spec.gen_poly:#x}")
    for algo in ("dd-spa", "spa"):
        cfg = SimConfig(n=64, gen_poly_hex=hex(spec.gen_poly), algo=algo,
                        ebn0_db=[3.0, 4.0, 5.0], max_frames=400,
                        max_frame_errors=100, seed=1)
        result = run_monte_carlo(cfg)
        print(f"--- {algo}")
        print(",".join(CSV_COLUMNS))
        for p in result.points:
            print(f"{p.ebn0_db:g},{p.frames},{p.frame_errors},{p.bler:.6g},"
                  f"{p.avg_dd_iters:.4f},{p.avg_inner_iters:.4f}")


if __name__ == "__main__":
    main()
