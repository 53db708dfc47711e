"""Command-line front end: code inspection, decoding, simulation, H matrices.

Codes are named on the command line as `<n>:<gen-hex>` where n = 2^m is the
extended block length and gen-hex packs the generator polynomial with bit i
as the coefficient of x^i (e.g. `64:0x782CF`).
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from .cyclic import CodeSpec, bch_bound, code_from_generator
from .ddcodec import fixed_space_dimension
from .derivative import da_code, dd_code
from .gf2m import field_for_length
from .parity import (dual_orbit_parity_matrix, eg_line_parity_matrix,
                     is_orthogonal_to, read_alist, write_alist)
from .sim import (ALGOS, ConfigError, SimConfig, build_decoder, load_config,
                  run_monte_carlo, write_results)

__all__ = ["main"]


def _parse_code(text: str) -> CodeSpec:
    try:
        n_str, gen_str = text.split(":", maxsplit=1)
        n = int(n_str)
        gen = int(gen_str, 16)
    except ValueError as e:
        raise ConfigError(f"cannot parse code {text!r}; expected <n>:<gen-hex>") from e
    return code_from_generator(field_for_length(n), gen)


def _print_code_lines(label: str, spec: CodeSpec) -> None:
    S = spec.exponents
    print(f"{label}: ({spec.n}, {spec.k})")
    print(f"  gen_poly = {spec.gen_poly:#x}")
    print(f"  exponent_set = {sorted(S.members)}")
    print(f"  representatives = {S.representatives()}")
    print(f"  bch_bound = {bch_bound(S)}")


def _cmd_code(args) -> int:
    field = field_for_length(args.n, args.prim_poly)
    spec = code_from_generator(field, args.gen)
    _print_code_lines("code", spec)
    if args.which == "info":
        for kind in ("cyclic", "minimal"):
            print(f"  fixed_space_dim ({kind} loop, all directions) = "
                  f"{fixed_space_dimension(spec, kind=kind)}")
    elif args.which == "dd":
        _print_code_lines("cyclic derivative descendant", dd_code(spec))
    elif args.which == "da":
        _print_code_lines("cyclic derivative ascendant", da_code(spec))
    return 0


def _cmd_decode(args) -> int:
    spec = _parse_code(args.code)
    L = np.loadtxt(args.llr_in, dtype=np.float64).reshape(-1)
    # a flag left out is absent from args, so SimConfig's default applies
    settings = {k: v for k, v in vars(args).items()
                if k in SimConfig.__dataclass_fields__}
    cfg = SimConfig(n=spec.n, gen_poly_hex=hex(spec.gen_poly), **settings)
    rep = build_decoder(cfg, spec)(L)
    line = " ".join(str(int(b)) for b in rep.bits)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(line + "\n")
    else:
        print(line)
    print(f"converged = {rep.converged}", file=sys.stderr)
    return 0


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    result = run_monte_carlo(cfg)
    write_results(result, args.out)
    for p in result.points:
        print(f"ebn0 {p.ebn0_db:g} dB: {p.frame_errors}/{p.frames} frame errors, "
              f"bler {p.bler:.3g}")
    return 0


def _cmd_hmatrix(args) -> int:
    if args.which == "eg":
        H = eg_line_parity_matrix(args.mu, args.subfield_bits)
        write_alist(args.alist, H)
        print(f"wrote {H.num_checks}x{H.n} line-incidence matrix to {args.alist}")
        return 0
    if args.which == "dual-orbit":
        spec = _parse_code(args.code)
        H = dual_orbit_parity_matrix(spec, args.max_weight)
        write_alist(args.alist, H)
        print(f"wrote {H.num_checks}x{H.n} dual-codeword matrix to {args.alist}")
        return 0
    # check: orthogonality of an alist matrix against a code
    H = read_alist(args.alist)
    spec = _parse_code(args.code)
    ok = is_orthogonal_to(H, spec.G)
    if H.num_checks:
        rw, cw = H.row_weights(), H.col_weights()
        print(f"{H.num_checks}x{H.n}, row weight {rw.min()}..{rw.max()}, "
              f"column weight {cw.min()}..{cw.max()}")
    else:
        print(f"0x{H.n}, no checks")
    print("orthogonal to code" if ok else "NOT orthogonal to code")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ddcodes",
                                description="Derivative decoding of extended cyclic codes")
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("code", help="inspect a code and its derivative relatives")
    subc = pc.add_subparsers(dest="which", required=True)
    for name, help_text in [("info", "exponent set, dimension, distance "
                                     "bound, derivative loops' fixed spaces"),
                            ("dd", "cyclic derivative descendant"),
                            ("da", "cyclic derivative ascendant")]:
        pci = subc.add_parser(name, help=help_text)
        pci.add_argument("--n", type=int, required=True,
                         help="extended block length 2^m")
        pci.add_argument("--gen-hex", dest="gen", type=lambda s: int(s, 16),
                         required=True, help="generator polynomial (hex)")
        pci.add_argument("--prim-poly", type=lambda s: int(s, 16), default=None,
                         help="primitive polynomial override (hex)")
        pci.set_defaults(func=_cmd_code)

    pd = sub.add_parser("decode", help="decode one LLR vector",
                        argument_default=argparse.SUPPRESS)
    pd.add_argument("--code", required=True, help="<n>:<gen-hex>")
    pd.add_argument("--algo", required=True, choices=ALGOS)
    pd.add_argument("--directions", help="all | k:<count>:<seed>")
    pd.add_argument("--max-iter", dest="n_max", type=int, metavar="MAX_ITER",
                    help="outer derivative-decoding iterations (dd-*)")
    pd.add_argument("--inner-max-iter", type=int,
                    help="SPA iterations (spa, dd-spa)")
    pd.add_argument("--order", type=int, help="OSD depth")
    pd.add_argument("--llr-in", required=True,
                    help="whitespace-separated LLR values")
    pd.add_argument("--out", default=None, help="write bits here instead of stdout")
    pd.set_defaults(func=_cmd_decode)

    ps = sub.add_parser("simulate", help="Monte-Carlo BLER sweep")
    ps.add_argument("--config", required=True, help="JSON simulation config")
    ps.add_argument("--out", required=True, help="CSV output path")
    ps.set_defaults(func=_cmd_simulate)

    ph = sub.add_parser("hmatrix", help="build or verify parity-check matrices")
    subh = ph.add_subparsers(dest="which", required=True)
    phe = subh.add_parser("eg", help="Euclidean-geometry line incidences")
    phe.add_argument("--mu", type=int, required=True, help="geometry dimension")
    phe.add_argument("--subfield-bits", type=int, required=True,
                     help="s with subfield GF(2^s)")
    phe.add_argument("--alist", required=True, help="output alist path")
    phe.set_defaults(func=_cmd_hmatrix)
    phd = subh.add_parser("dual-orbit", help="low-weight dual codewords")
    phd.add_argument("--code", required=True, help="<n>:<gen-hex>")
    phd.add_argument("--max-weight", type=int, required=True)
    phd.add_argument("--alist", required=True, help="output alist path")
    phd.set_defaults(func=_cmd_hmatrix)
    phk = subh.add_parser("check", help="verify an alist matrix against a code")
    phk.add_argument("--alist", required=True, help="alist path to check")
    phk.add_argument("--code", required=True, help="<n>:<gen-hex>")
    phk.set_defaults(func=_cmd_hmatrix)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
