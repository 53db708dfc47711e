"""Tests of the decoding benchmark itself.

    python3 -m pytest -q perfbench/tests
"""
import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import ddcodes.cyclic
import ddcodes.gf2m
import ddcodes.sim
import run
import tracing
import workloads
from conftest import BENCH

ROOT = BENCH.parent
SIM_WORKLOADS = ["dd-spa-64", "dd-osd-128", "osd3-128"]


def bench(monkeypatch, capsys, tmp_path, name, seconds, trace, pool=None,
          seed=5):
    """Run the benchmark in this process (pool shrunk when given); return
    its exit code, its stdout and the parsed last line."""
    if pool is not None:
        monkeypatch.setitem(workloads.WORKLOADS, name, dataclasses.replace(
            workloads.WORKLOADS[name], pool=pool))
    monkeypatch.setattr(run, "SPANS_DIR", tmp_path)
    code = run.main(["--workload", name, "--seed", str(seed), "--seconds",
                     str(seconds), "--trace", str(trace)])
    out = capsys.readouterr().out
    return code, out, json.loads(out.strip().splitlines()[-1])


def declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_pinned_codes_are_the_criteria_codes():
    for name, n, k in [("dd-spa-64", 64, 45), ("dd-osd-128", 128, 36),
                       ("osd3-128", 128, 36)]:
        spec = ddcodes.cyclic.ebch_code(ddcodes.gf2m.field_for_length(n), k)
        assert int(workloads.WORKLOADS[name].gen_poly_hex, 16) == spec.gen_poly


@pytest.mark.parametrize("name", SIM_WORKLOADS)
@pytest.mark.parametrize("ebn0_db", [None, 0.5])
def test_frames_match_run_monte_carlo(name, ebn0_db):
    """Same frame stream as run_monte_carlo with one worker, so the same
    frame errors; at 0.5 dB there are errors to count."""
    w = workloads.WORKLOADS[name]
    if ebn0_db is not None:
        w = dataclasses.replace(w, ebn0_db=ebn0_db)
    frames, seed = 25, 7
    cfg = dataclasses.replace(w.sim_config(seed), max_frames=frames,
                              max_frame_errors=frames)
    expected = ddcodes.sim.run_monte_carlo(cfg).points[0].frame_errors
    spec, decode = workloads.set_up(w)
    _, words, llrs = workloads.generate_frames(w, spec, seed, frames)
    errors = sum(not np.array_equal(decode(L)[0], a)
                 for L, a in zip(llrs, words))
    assert errors == expected
    if ebn0_db is not None:
        assert errors > 0


def test_self_time_partitions_the_frame():
    w = workloads.WORKLOADS["dd-ml-16"]
    spec, decode = workloads.set_up(w)
    _, _, llrs = workloads.generate_frames(w, spec, 3, 20)
    tracer = tracing.Tracer()
    traced = tracer.wrap(decode, "frame")
    with tracer:
        tracer.patch(decode, "inner", "decoders.mld")
        for L in llrs:
            traced(L)
    assert decode.inner.__name__ == "decode"          # restored
    S = tracer.summary()
    assert S["frame"]["calls"] == 20
    assert S["gf2.nullspace"]["calls"] == 20
    assert S["gf2m.pair_permutation"]["calls"] == 20 * 15
    assert sum(s["self_ms"] for s in S.values()) == \
        pytest.approx(S["frame"]["busy_ms"], rel=1e-9)
    assert all(s["self_ms"] >= 0 for s in S.values())


def test_checker_counts_bad_words():
    w = workloads.WORKLOADS["osd3-128"]
    spec, _ = workloads.set_up(w)
    H = run.verified_parity_matrix(spec)
    _, words, llrs = workloads.generate_frames(w, spec, 1, 3)
    checker = run.Checker(w, spec, H, words)
    checker.call(lambda L: (words[0],), 0, llrs[0])
    checker.call(lambda L: (words[0][:-1],), 1, llrs[1])
    checker.call(lambda L: (words[2] ^ np.eye(spec.n, dtype=np.uint8)[0],),
                 2, llrs[2])
    checker.call(lambda L: (words[1],), 0, llrs[0])
    checker.call(lambda L: 1 / 0, 1, llrs[1])
    assert checker.attempted == 5
    assert checker.failed == 4
    assert set(checker.problems) == {
        "malformed word", "OSD output is not a codeword",
        "different word on a repeated decode",
        "raised ZeroDivisionError: division by zero"}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_end_to_end(name, monkeypatch, capsys, tmp_path):
    code, out, res = bench(monkeypatch, capsys, tmp_path, name, 0.3, 0,
                           pool=12)
    assert code == 0, out
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["failed"] == 0 and res["attempted"] >= 12
    assert {k: v["unit"] for k, v in res["metrics"].items()} == \
        declared("end_to_end")
    assert all(v["value"] > 0 for v in res["metrics"].values())
    assert "bits_sha256" in out


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_traced(name, monkeypatch, capsys, tmp_path):
    code, out, res = bench(monkeypatch, capsys, tmp_path, name, 0.5, 1,
                           pool=12)
    assert code == 0, out
    assert res["correct"] is True and res["failed"] == 0
    assert {k: v["unit"] for k, v in res["metrics"].items()} == \
        declared("per_layer")
    lines = (tmp_path / f"{name}.spans.jsonl").read_text().splitlines()
    spans = [json.loads(line) for line in lines]
    frames = [s for s in spans if s["name"] == "frame"]
    assert frames and all(s["parent"] == -1 for s in frames)
    assert all(s["start_ns"] <= s["end_ns"] for s in spans)
    assert all(spans[s["parent"]]["start_ns"] <= s["start_ns"]
               for s in spans if s["parent"] >= 0)


def test_traced_dd_spa_64_in_criterion_12_bands(monkeypatch, capsys,
                                                tmp_path):
    _, _, res = bench(monkeypatch, capsys, tmp_path, "dd-spa-64", 4, 1,
                      seed=12)
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert 1.01 <= m["decoders.spa.iters_mean"] <= 1.31
    assert 0.95 <= m["ddcodec.outer_iters_mean"] <= 1.05
    assert m["decoders.spa.converged_share"] > 0.9


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "dd-ml-16", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], capture_output=True, text=True,
                          timeout=170, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
