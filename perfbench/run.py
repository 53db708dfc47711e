"""Decoding benchmark for ddcodes.

    python3 perfbench/run.py --workload dd-spa-64 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Closed loop, one process, one thread: each frame is decoded only after the
previous one returned.  Frames are BPSK/AWGN LLR vectors generated from
--seed before timing starts (see workloads.py); the timed loop cycles
through that pool for --seconds and then decodes any pool frame it did not
reach, so quality metrics and the output digest cover the same frames
whatever the machine speed.  Times are scaled by the host slowdown measured
alongside them (speed.py); the unscaled figures are printed too.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer split from a traced run (tracing.py), and
every span is written to <workload>.spans.jsonl at the checkout root.  With
--workload all the last line combines every workload's result, its metrics
keyed by workload.
Every decoded word is checked (binary, length n, identical on every decode
of the same frame; a codeword for plain OSD) and the run exits 1 if any
check failed.  Set-up is timed in fresh processes (--probe-setup).
"""
from __future__ import annotations

import os
import sys

# Pinned before numpy loads: BLAS/OpenMP pools would compete for the two
# shared cores, and DDCODES_WORKERS would change the frame stream.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("DDCODES_WORKERS", None)

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROBES = 7
WARMUP_FRAMES = 5
SPEED_EVERY_S = 0.1
SPANS_DIR = HERE.parent


def _import_program() -> None:
    """Put the checkout's src/ first on sys.path; refuse any other ddcodes."""
    if not (SRC / "ddcodes" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ddcodes sources at {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import ddcodes
    if Path(ddcodes.__file__).resolve().parent != (SRC / "ddcodes").resolve():
        sys.exit(f"perfbench: imported ddcodes from {ddcodes.__file__}, "
                 f"not from {SRC}")


def gf2_rank(M) -> int:
    """GF(2) rank by elimination on Python-int rows (independent of ddcodes)."""
    pivots: dict[int, int] = {}
    for row in M:
        v = int("".join(str(int(b)) for b in row) or "0", 2)
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return len(pivots)


def verified_parity_matrix(spec):
    """ddcodes' dual basis of G, accepted only if it is a full parity matrix."""
    import ddcodes.gf2
    G = spec.G
    H = ddcodes.gf2.nullspace(G).astype(np.int64)
    n, k = spec.n, spec.k
    if (G.astype(np.int64) @ H.T % 2).any():
        raise RuntimeError("parity matrix is not orthogonal to G")
    if gf2_rank(G) != k or gf2_rank(H) != n - k:
        raise RuntimeError(f"rank(G)={gf2_rank(G)}, rank(H)={gf2_rank(H)}; "
                           f"expected {k} and {n - k}")
    return H


class Checker:
    """Decodes pool frames, checks every output and keeps the first one."""

    def __init__(self, w, spec, H, words):
        self.H = H
        self.n = spec.n
        self.words = words
        self.must_be_codeword = w.algo == "osd"
        self.first = np.zeros_like(words)
        self.seen = np.zeros(len(words), dtype=bool)
        self.attempted = 0
        self.failed = 0
        self.problems: dict[str, int] = {}

    def _fail(self, why: str) -> None:
        self.failed += 1
        self.problems[why] = self.problems.get(why, 0) + 1

    def call(self, decode, i: int, L) -> float | None:
        """Decode pool frame i; return its CPU seconds, None if it raised.

        CPU time of the process, not wall time: the decoder runs in this one
        thread, and wall time would add the moments other tenants' processes
        held the CPU, which are 2-8% of decodes on a busy shared host.
        """
        self.attempted += 1
        t0 = process_time()
        try:
            result = decode(L)
        except Exception as e:  # counted as a failed operation, run goes on
            self._fail(f"raised {type(e).__name__}: {e}")
            return None
        dt = process_time() - t0
        self._check(i, result[0])
        return dt

    def _check(self, i: int, bits) -> None:
        b = np.asarray(bits)
        if (b.shape != (self.n,) or b.dtype.kind not in "biu"
                or not ((b == 0) | (b == 1)).all()):
            self._fail("malformed word")
            return
        b = b.astype(np.uint8)
        if not self.seen[i]:
            self.first[i] = b
            self.seen[i] = True
        elif not np.array_equal(b, self.first[i]):
            self._fail("different word on a repeated decode")
        if self.must_be_codeword and (self.H @ b % 2).any():
            self._fail("OSD output is not a codeword")

    def finish(self, decode, llrs) -> None:
        """Decode every pool frame the timed loop did not reach."""
        for i in np.nonzero(~self.seen)[0]:
            self.call(decode, int(i), llrs[i])

    def quality(self) -> dict[str, float]:
        ok = (self.first == self.words).all(axis=1)
        codeword = ~(self.first.astype(np.int64) @ self.H.T % 2).any(axis=1)
        return {"bler": float(1.0 - ok.mean()),
                "bler_unconverged": float(1.0 - codeword.mean()),
                "bler_wrong_codeword": float((codeword & ~ok).mean())}

    def digest(self) -> str:
        return hashlib.sha256(np.packbits(self.first).tobytes()).hexdigest()


def probe_setup(name: str, traced: bool) -> None:
    """Child-process body: one cold set-up, printed as a JSON line."""
    import workloads
    w = workloads.WORKLOADS[name]
    if not traced:
        import speed
        t0 = process_time()
        workloads.set_up(w)
        raw = process_time() - t0
        meter = speed.Speedometer()
        meter.slowdown()                                  # warm the kernels
        slowdown = statistics.median(meter.slowdown() for _ in range(3))
        print(json.dumps({"setup_s": raw / slowdown, "raw_s": raw}))
        return
    import tracing
    tracer = tracing.Tracer()
    with tracer:
        workloads.set_up(w)
    layers = {}
    for span, s in tracer.summary().items():
        layer = span.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + s["self_ms"]
    print(json.dumps({"layers_ms": layers}))


def run_probes(name: str, traced: bool) -> list[dict]:
    out = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
               name, "--trace", str(int(traced))]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def frame_latencies(checker, decode, llrs, seconds: float):
    """Closed loop over the pool, pass after pass, for `seconds`.

    Every SPEED_EVERY_S the reference workload (speed.py) is timed between
    two frames; each decode time is divided by the geometric mean of the
    host slowdowns measured just before and just after it.  Returns the
    scaled and the raw milliseconds of every decode that returned, and the
    median slowdown.
    """
    import speed
    meter = speed.Speedometer()
    P = len(llrs)
    times, window, slowdowns = [], [], [meter.slowdown()]
    t_end = perf_counter() + seconds
    next_sample = perf_counter() + SPEED_EVERY_S
    while (now := perf_counter()) < t_end:
        if now >= next_sample:
            slowdowns.append(meter.slowdown())
            next_sample = now + SPEED_EVERY_S
        i = len(times) % P
        dt = checker.call(decode, i, llrs[i])
        times.append(np.nan if dt is None else dt * 1e3)
        window.append(len(slowdowns) - 1)
    slowdowns.append(meter.slowdown())
    f = np.array(slowdowns)
    window = np.array(window, dtype=np.int64)
    raw = np.array(times)
    ok = ~np.isnan(raw)
    scaled = raw / np.sqrt(f[window] * f[window + 1])
    return scaled[ok], raw[ok], float(np.median(f))


def end_to_end(w, decode, checker, llrs, seconds: float):
    probes = run_probes(w.name, False)
    setup = statistics.median(p["setup_s"] for p in probes)
    ms, raw, slowdown = frame_latencies(checker, decode, llrs, seconds)
    checker.finish(decode, llrs)
    p50, p99 = np.percentile(ms, [50, 99])
    q = checker.quality()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    beyond = int((ms > p99).sum())
    notes = {"frame_ms_p50": f"{len(ms)} decodes",
             "frame_ms_p99": f"{len(ms)} decodes, {beyond} beyond",
             "frames_per_s": "1000 / mean frame latency",
             "setup_s": f"median of {SETUP_PROBES} fresh processes"}
    metrics = {
        "frames_per_s": (1e3 / ms.mean(), "1/s"),
        "frame_ms_p50": (float(p50), "ms"),
        "frame_ms_p99": (float(p99), "ms"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "frame_success_share": (1.0 - q["bler"], "share"),
        "codeword_share": (1.0 - q["bler_unconverged"], "share"),
    }
    raw50, raw99 = np.percentile(raw, [50, 99])
    report = [f"host slowdown {slowdown:.4g} (median); unscaled: frame ms "
              f"p50 {raw50:.4g}, p99 {raw99:.4g}, frames/s "
              f"{1e3 / raw.mean():.4g}, setup s "
              f"{statistics.median(p['raw_s'] for p in probes):.4g}"]
    report += [f"{name} {value:.6g} share  (pool of {len(llrs)} frames)"
               for name, value in q.items()]
    report.append(f"bits_sha256 {checker.digest()}  (decoded pool, in frame "
                  f"order)")
    return metrics, notes, report


def per_layer(w, decode, checker, llrs, seconds: float):
    """Traced run: set-up split from traced probes, then paired blocks.

    Each block decodes the same pool frames untraced and traced (in
    alternating order), so the overhead ratio compares equal work taken
    at nearly the same time.
    """
    import tracing
    probes = run_probes(w.name, True)
    tracer = tracing.Tracer()
    spa = {"rows": 0, "iters": 0, "converged": 0}
    loop = {"iters": 0, "unconverged": 0, "rows": 0}

    def count_spa(result):
        _, iters, conv = result
        spa["rows"] += len(iters)
        spa["iters"] += int(iters.sum())
        spa["converged"] += int(conv.sum())

    def count_loop(rep):
        loop["iters"] += rep.iterations
        loop["unconverged"] += not rep.converged
        loop["rows"] += rep.inner_iterations.size

    tracer.on_return("decoders.spa_decode_batch", count_spa)
    tracer.on_return("ddcodec.dd_decode_cyclic", count_loop)
    tracer.on_return("ddcodec.dd_decode_minimal", count_loop)
    traced_decode = tracer.wrap(decode, "frame")

    P = len(llrs)
    first = perf_counter()
    checker.call(decode, 0, llrs[0])
    per_frame_s = max(perf_counter() - first, 1e-4)
    block = max(1, int(0.25 / per_frame_s))
    plain_s = traced_s = 0.0
    start = 0
    t_end = perf_counter() + seconds
    while perf_counter() < t_end:
        idx = [(start + j) % P for j in range(block)]
        order = (False, True) if (start // block) % 2 == 0 else (True, False)
        for traced in order:
            total = 0.0
            if traced:
                tracer.install()
                if hasattr(decode, "inner"):
                    tracer.patch(decode, "inner", "decoders.mld")
                fn = traced_decode
            else:
                fn = decode
            try:
                for i in idx:
                    dt = checker.call(fn, i, llrs[i])
                    total += dt or 0.0
            finally:
                tracer.uninstall()
            if traced:
                traced_s += total
            else:
                plain_s += total
        start += block
    tracer.write_spans(SPANS_DIR / f"{w.name}.spans.jsonl")

    S = tracer.summary()
    frames = max(S.get("frame", {}).get("calls", 0), 1)

    def get(span, key):
        return S.get(span, {}).get(key, 0) / frames

    metrics = {
        "decoders.osd_workspace.calls_per_frame":
            (get("decoders.osd_workspace", "calls"), "calls/frame"),
        "decoders.osd_workspace.busy_ms_per_frame":
            (get("decoders.osd_workspace", "busy_ms"), "ms/frame"),
        "decoders.osd_reprocess.busy_ms_per_frame":
            (get("decoders.osd_decode", "self_ms"), "ms/frame"),
        "decoders.spa.busy_ms_per_frame":
            (get("decoders.spa_decode_batch", "busy_ms"), "ms/frame"),
        "decoders.spa.iters_mean":
            (spa["iters"] / spa["rows"] if spa["rows"] else 0.0, "iters"),
        "decoders.spa.converged_share":
            (spa["converged"] / spa["rows"] if spa["rows"] else 0.0, "share"),
        "decoders.mld.busy_ms_per_frame":
            (get("decoders.mld", "busy_ms"), "ms/frame"),
        "gf2.nullspace.calls_per_frame":
            (get("gf2.nullspace", "calls"), "calls/frame"),
        "gf2.nullspace.busy_ms_per_frame":
            (get("gf2.nullspace", "busy_ms"), "ms/frame"),
        "gf2m.pair_permutation.calls_per_frame":
            (get("gf2m.pair_permutation", "calls"), "calls/frame"),
        "gf2m.shift_index.calls_per_frame":
            (get("gf2m.shift_index", "calls"), "calls/frame"),
        "ddcodec.boxplus.calls_per_frame":
            (get("ddcodec.boxplus", "calls"), "calls/frame"),
        "ddcodec.boxplus.busy_ms_per_frame":
            (get("ddcodec.boxplus", "busy_ms"), "ms/frame"),
        "ddcodec.loop.self_ms_per_frame":
            (get("ddcodec.dd_decode_cyclic", "self_ms")
             + get("ddcodec.dd_decode_minimal", "self_ms"), "ms/frame"),
        "ddcodec.outer_iters_mean":
            (loop["iters"] / frames, "iters"),
        "ddcodec.nmax_exit_share": (loop["unconverged"] / frames, "share"),
        "ddcodec.inner_rows_per_frame": (loop["rows"] / frames, "rows/frame"),
        "frame.traced_ms_per_frame": (get("frame", "busy_ms"), "ms/frame"),
        "trace.overhead_share":
            (traced_s / plain_s - 1.0 if plain_s else 0.0, "share"),
    }
    for layer in ("gf2m", "cyclic", "derivative", "parity", "gf2", "decoders"):
        metrics[f"setup.{layer}_ms"] = (statistics.median(
            p["layers_ms"].get(layer, 0.0) for p in probes), "ms")
    notes = {"trace.overhead_share": "traced over untraced decode time, "
                                     "same frames"}
    top = sorted(S.items(), key=lambda kv: -kv[1]["self_ms"])[:6]
    report = [f"traced frames {S.get('frame', {}).get('calls', 0)}; largest "
              f"self times, ms/frame: " + ", ".join(
                  f"{name} {s['self_ms'] / frames:.4g}" for name, s in top)]
    return metrics, notes, report


def run_workload(args) -> int:
    import workloads
    w = workloads.WORKLOADS[args.workload]
    spec, decode = workloads.set_up(w)
    H = verified_parity_matrix(spec)
    _, words, llrs = workloads.generate_frames(w, spec, args.seed, w.pool)
    checker = Checker(w, spec, H, words)
    for i in range(min(WARMUP_FRAMES, w.pool)):
        checker.call(decode, i, llrs[i])
    if args.trace:
        metrics, notes, report = per_layer(w, decode, checker, llrs,
                                           args.seconds)
    else:
        metrics, notes, report = end_to_end(w, decode, checker, llrs,
                                            args.seconds)

    print(f"workload {w.name} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace} pool {w.pool}")
    for name, (value, unit) in metrics.items():
        extra = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {value:.6g} {unit}{extra}")
    for line in report:
        print(line)
    for why, count in checker.problems.items():
        print(f"FAILED {count}x: {why}")
    # An untraced run must have decoded the whole pool (quality, digest).
    correct = checker.failed == 0 and (args.trace == 1
                                       or bool(checker.seen.all()))
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, each in its own process, one after another; then one
    JSON line with the summed counts and each workload's metrics."""
    import workloads
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        try:
            res = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            res = {"correct": False, "attempted": 0, "failed": 0,
                   "metrics": {}}
        combined["correct"] &= res["correct"] and proc.returncode == 0
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"][name] = res["metrics"]
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    help="workload name, or 'all' (default)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    _import_program()
    if args.probe_setup:
        probe_setup(args.probe_setup, bool(args.trace))
        return 0
    import workloads
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from "
                 f"{', '.join(workloads.WORKLOADS)} or all")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
