"""End-to-end tests driving the command-line interface."""

from __future__ import annotations

import json

import numpy as np
import pytest

import ddcodes.cli
from ddcodes.cli import main
from ddcodes.cyclic import code_from_generator
from ddcodes.gf2m import GF2m
from ddcodes.sim import SimConfig, build_decoder


def test_code_info(capsys):
    assert main(["code", "info", "--n", "16", "--gen-hex", "1d1"]) == 0
    out = capsys.readouterr().out
    assert "(16, 7)" in out
    assert "0x1d1" in out
    assert "[0, 1, 2, 4, 5, 8, 10]" in out
    assert "representatives = [0, 1, 5]" in out
    assert "bch_bound = 6" in out
    assert "  fixed_space_dim (cyclic loop, all directions) = 11\n" in out
    assert "  fixed_space_dim (minimal loop, all directions) = 7\n" in out
    assert "  inner_code (cyclic loop) = (16, 5)\n" in out
    assert "  inner_code (minimal loop) = (8, 3)\n" in out


def test_code_dd(capsys):
    assert main(["code", "dd", "--n", "16", "--gen-hex", "1d1"]) == 0
    out = capsys.readouterr().out
    assert "cyclic derivative descendant: (16, 5)" in out
    assert "[0, 1, 2, 4, 8]" in out


def test_code_da(capsys):
    assert main(["code", "da", "--n", "256", "--gen-hex",
                 "11377F7700FA55335BA55"]) == 0
    out = capsys.readouterr().out
    assert "cyclic derivative ascendant: (256, 191)" in out
    assert "0x19accc1ae68a0ceff" in out


def test_code_prim_poly_override(capsys):
    # 0x13 = x^4 + x + 1 is the default; an explicit value must be accepted
    assert main(["code", "info", "--n", "16", "--gen-hex", "1d1",
                 "--prim-poly", "13"]) == 0
    assert "(16, 7)" in capsys.readouterr().out


def test_decode_roundtrip(tmp_path, capsys):
    rng = np.random.default_rng(307)
    from ddcodes.cyclic import code_from_generator
    from ddcodes.gf2m import GF2m
    spec = code_from_generator(GF2m(4), 0x1D1)
    word = (rng.integers(0, 2, size=7).astype(np.uint8) @ spec.G) % 2
    L = 6.0 * (1.0 - 2.0 * word)
    llr_path = tmp_path / "llrs.txt"
    np.savetxt(llr_path, L)
    out_path = tmp_path / "bits.txt"
    rc = main(["decode", "--code", "16:1d1", "--algo", "dd-osd",
               "--llr-in", str(llr_path), "--out", str(out_path)])
    assert rc == 0
    bits = np.array(out_path.read_text().split(), dtype=np.uint8)
    assert np.array_equal(bits, word)
    assert "converged = True" in capsys.readouterr().err


def test_decode_to_stdout(tmp_path, capsys):
    llr_path = tmp_path / "llrs.txt"
    np.savetxt(llr_path, 9.0 * np.ones(16))
    rc = main(["decode", "--code", "16:1d1", "--algo", "mld",
               "--llr-in", str(llr_path)])
    assert rc == 0
    out = capsys.readouterr().out.strip()
    assert out.split() == ["0"] * 16


_ALGOS = ["dd-spa", "dd-osd", "osd", "spa", "mld"]


@pytest.mark.parametrize("algo", _ALGOS)
def test_decode_defaults_are_the_sim_config_defaults(tmp_path, capsys,
                                                     monkeypatch, algo):
    """Without --max-iter, --inner-max-iter, --order or --directions,
    decode builds and runs the decoder of SimConfig(n, gen, algo)."""
    built = []

    def recording(cfg, spec):
        built.append(cfg)
        return build_decoder(cfg, spec)
    monkeypatch.setattr(ddcodes.cli, "build_decoder", recording)
    llr_path = tmp_path / "llrs.txt"
    np.savetxt(llr_path, np.random.default_rng(331).normal(1.0, 1.5, size=16))
    assert main(["decode", "--code", "16:1d1", "--algo", algo,
                 "--llr-in", str(llr_path)]) == 0
    cfg = SimConfig(n=16, gen_poly_hex="0x1d1", algo=algo)
    assert built == [cfg]
    rep = build_decoder(cfg, code_from_generator(GF2m(4), 0x1D1))(
        np.loadtxt(llr_path))
    assert capsys.readouterr().out.split() == [str(b) for b in rep.bits]


def test_decode_nan_llr_is_reported(tmp_path, capsys):
    llr_path = tmp_path / "llrs.txt"
    np.savetxt(llr_path, np.where(np.arange(16) == 4, np.nan, 2.0))
    for algo in _ALGOS:
        rc = main(["decode", "--code", "16:1d1", "--algo", algo,
                   "--llr-in", str(llr_path)])
        assert rc == 2, algo
        assert "error: LLR input holds NaN" in capsys.readouterr().err, algo


def test_decode_length_mismatch(tmp_path, capsys):
    llr_path = tmp_path / "llrs.txt"
    np.savetxt(llr_path, np.ones(10))
    for algo in _ALGOS:
        rc = main(["decode", "--code", "16:1d1", "--algo", algo,
                   "--llr-in", str(llr_path)])
        assert rc == 2, algo
        err = capsys.readouterr().err
        assert "error: LLR input has shape (10,), expected (16,)" in err, algo


@pytest.mark.parametrize("algo", ["osd", "dd-osd", "spa", "dd-spa", "mld"])
def test_decode_negative_osd_order(tmp_path, capsys, algo):
    """An algorithm that does not read the order used to accept any."""
    llr_path = tmp_path / "llrs.txt"
    np.savetxt(llr_path, np.ones(16))
    rc = main(["decode", "--code", "16:1d1", "--algo", algo, "--order", "-1",
               "--llr-in", str(llr_path)])
    assert rc == 2
    assert ("error: field 'order' must be an integer >= 0, got -1"
            in capsys.readouterr().err)


def test_simulate(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "n": 16, "gen_poly_hex": "1d1", "algo": "mld",
        "ebn0_db": [2.0], "max_frames": 60, "max_frame_errors": 60,
        "seed": 3}))
    csv_path = tmp_path / "out.csv"
    assert main(["simulate", "--config", str(cfg_path),
                 "--out", str(csv_path)]) == 0
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0].startswith("ebn0_db,frames,")
    assert len(lines) == 2
    assert "frame errors" in capsys.readouterr().out


def test_simulate_bad_config(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n": 16, "algo": "mld"}))
    rc = main(["simulate", "--config", str(cfg_path),
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "gen_poly_hex" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("ebn0_db", 3.0),
                                          ("max_frames", "10")])
def test_simulate_wrong_typed_field(tmp_path, capsys, field, value):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n": 16, "gen_poly_hex": "1d1",
                                    "algo": "mld", field: value}))
    rc = main(["simulate", "--config", str(cfg_path),
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert f"error: {cfg_path}: field '{field}' must be" in capsys.readouterr().err


def test_hmatrix_eg_and_check(tmp_path, capsys):
    alist = tmp_path / "eg.alist"
    assert main(["hmatrix", "eg", "--mu", "3", "--subfield-bits", "2",
                 "--alist", str(alist)]) == 0
    assert "336x64" in capsys.readouterr().out
    # the (64, 24) code's descendant is checked by these lines
    rc = main(["hmatrix", "check", "--alist", str(alist),
               "--code", "64:73a2d428e9425"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "orthogonal to code" in out
    # the parent code itself is not
    rc = main(["hmatrix", "check", "--alist", str(alist),
               "--code", "64:F69AC20921"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "NOT orthogonal" in out


def _eg16_text(tmp_path):
    alist = tmp_path / "eg16.alist"
    assert main(["hmatrix", "eg", "--mu", "2", "--subfield-bits", "2",
                 "--alist", str(alist)]) == 0
    return alist.read_text()


def test_hmatrix_check_eg16(tmp_path, capsys):
    """The (16, 7) code 0x1D1 is the geometry code of EG(2, 4)'s lines."""
    _eg16_text(tmp_path)
    assert main(["hmatrix", "check", "--alist", str(tmp_path / "eg16.alist"),
                 "--code", "16:1d1"]) == 0
    assert "20x16, row weight 4..4, column weight 5..5" in capsys.readouterr().out


def test_hmatrix_check_without_checks(tmp_path, capsys):
    """No checks are vacuously orthogonal to every code; the summary used to
    fail on the minimum of the empty row weights."""
    alist = tmp_path / "empty.alist"
    alist.write_text("16 0\n0 0\n" + " ".join(["0"] * 16) + "\n")
    assert main(["hmatrix", "check", "--alist", str(alist),
                 "--code", "16:1d1"]) == 0
    out = capsys.readouterr().out
    assert out == "0x16, no checks\northogonal to code\n"


_BAD_CHECKS = {
    "empty file": (lambda text: "", "16:1d1",
                   "alist header section is truncated"),
    "truncated file": (lambda text: text[:len(text) // 2], "16:1d1",
                       "alist column list section is truncated"),
    "column lists contradict rows": (
        # columns 0 and 1 swap their check lists; the rows stay
        lambda text: "\n".join(
            (lines := text.split("\n"))[:4] + [lines[5], lines[4]] + lines[6:]),
        "16:1d1", "alist column section contradicts the row lists"),
    "code of another length": (lambda text: text, "32:0x3b",
                               "generator rows have length 32, "
                               "parity checks have length 16"),
}


@pytest.mark.parametrize("name", sorted(_BAD_CHECKS))
def test_hmatrix_check_names_bad_input(name, tmp_path, capsys):
    edit, code, message = _BAD_CHECKS[name]
    bad = tmp_path / "bad.alist"
    bad.write_text(edit(_eg16_text(tmp_path)))
    capsys.readouterr()
    rc = main(["hmatrix", "check", "--alist", str(bad), "--code", code])
    assert rc == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("algo", ["mld", "osd", "spa"])
def test_decode_checks_the_directions_of_every_algorithm(tmp_path, capsys,
                                                         algo):
    """An algorithm that does not read the directions used to accept any."""
    llr_path = tmp_path / "llrs.txt"
    np.savetxt(llr_path, np.ones(16))
    rc = main(["decode", "--code", "16:1d1", "--algo", algo, "--directions",
               "k:99:1", "--llr-in", str(llr_path)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: cannot draw 99 of 15 directions" in captured.err


def test_simulate_an_empty_sweep_is_an_error(tmp_path, capsys):
    """An empty ebn0_db list used to exit 0 with a header-only CSV."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n": 16, "gen_poly_hex": "1d1",
                                    "algo": "mld", "ebn0_db": []}))
    csv_path = tmp_path / "out.csv"
    rc = main(["simulate", "--config", str(cfg_path), "--out", str(csv_path)])
    assert rc == 2
    assert (f"error: {cfg_path}: field 'ebn0_db' must be a non-empty list of "
            f"finite numbers, got []") in capsys.readouterr().err
    assert not csv_path.exists()


def test_decode_negative_spa_iteration_cap(tmp_path, capsys):
    """The cap used to run zero iterations and print a word."""
    llr_path = tmp_path / "llrs.txt"
    np.savetxt(llr_path, np.ones(16))
    rc = main(["decode", "--code", "16:1d1", "--algo", "spa",
               "--inner-max-iter", "-3", "--llr-in", str(llr_path)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("error: field 'inner_max_iter' must be an integer >= 0, got -3"
            in captured.err)


def test_decode_spa_reads_the_inner_iteration_cap(tmp_path, capsys):
    """--inner-max-iter used to be ignored for spa, whose cap came from
    --max-iter: a zero cap still decoded and reported convergence."""
    L = np.full(16, 4.0)
    L[3] = -0.5
    llr_path = tmp_path / "llrs.txt"
    np.savetxt(llr_path, L)
    rc = main(["decode", "--code", "16:1d1", "--algo", "spa",
               "--inner-max-iter", "0", "--llr-in", str(llr_path)])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out.split() == ["1" if i == 3 else "0" for i in range(16)]
    assert "converged = False" in captured.err


def test_hmatrix_dual_orbit(tmp_path, capsys):
    alist = tmp_path / "d.alist"
    assert main(["hmatrix", "dual-orbit", "--code", "16:1d1",
                 "--max-weight", "6", "--alist", str(alist)]) == 0
    out = capsys.readouterr().out
    assert "x16 dual-codeword matrix" in out
    assert alist.exists()


def test_unparseable_code_argument(tmp_path, capsys):
    llr_path = tmp_path / "llrs.txt"
    np.savetxt(llr_path, np.ones(16))
    rc = main(["decode", "--code", "16-1d1", "--algo", "mld",
               "--llr-in", str(llr_path)])
    assert rc == 2
    assert "expected <n>:<gen-hex>" in capsys.readouterr().err


def test_missing_file_is_reported(capsys):
    rc = main(["simulate", "--config", "/does/not/exist.json",
               "--out", "/tmp/x.csv"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
