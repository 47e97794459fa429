"""One repetition of a workload in a fresh interpreter.

Usage: python3 perfbench/worker.py WORKLOAD SEED WORKDIR [--trace] [--tiny]

Imports wptsim from the checkout's src/, sets the workload up, prints
``READY`` when set-up is done (run.py times set-up up to that line), runs
the main call once and prints one JSON object with the main call's wall
time, the process's peak resident memory, the output digests and check
results and, with --trace, the per-layer metrics.  A fixed calibration
computation is timed before set-up, while memory use is still low, and
after the main call.  Exits non-zero if anything raises.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def calibrate() -> float:
    """Seconds this process takes for a fixed computation that uses no wptsim.

    It mixes the kinds of work the workloads do: interpreted loops, building,
    sorting and formatting rows, many numpy calls on tiny arrays, and vector
    operations on large ones.  The machine's speed drifts by tens of percent
    over minutes when other tenants load it, and this time drifts with it,
    so run.py divides the workload's times by it.
    """
    import numpy as np
    small = np.exp(1j * np.arange(8.0))
    gains = np.exp(1j * np.arange(32.0)).reshape(4, 8)
    weights = 0.1 * np.conj(gains)
    large = np.exp(1j * np.linspace(0.0, 10.0, 10_000))
    start = perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i
    for _ in range(5):
        rows = [("LIMITED", i % 4, i % 8, f"L{i % 15}", i) for i in range(1_000)]
        rows.sort(key=lambda r: (r[1], r[2], r[3], r[4]))
        acc += len("\n".join(f"{r[0]},{r[1]},{format(r[4] * 1.37e-9, '.6g')}"
                             for r in rows))
    for _ in range(2_000):
        acc += float(np.sum(np.abs(small) ** 2))
    for _ in range(750):
        tones = np.sum(gains * weights, axis=0)
        acc += bool(np.all(np.isfinite(tones.view(float))))
        acc += float(np.sum(np.abs(np.convolve(tones, tones)) ** 2))
    for _ in range(125):
        large = np.exp(1j * np.angle(large * large))
    return perf_counter() - start


def layer_metrics(tracer, result: dict) -> dict:
    """Per-layer counts and self times from one traced repetition."""
    spans = tracer.by_name()

    def calls(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[0] for n in names)

    def total_s(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_s(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[2] for n in names)

    def layer(prefix):
        return [n for n in spans if n.startswith(prefix + ".")]

    frames = tracer.frame_counts()
    codes = tracer.adc_codes
    evals = frames["codeword_evals"]
    smf_in_training = tracer.child_calls("strategies.smf_weights",
                                         "codebook.train_lloyd")
    return {
        "waveform.effective_tones.calls": calls("waveform.effective_tones"),
        "waveform.effective_tones.self_s": self_s("waveform.effective_tones"),
        "waveform.waveform_moments.calls": calls("waveform.waveform_moments"),
        "waveform.waveform_moments.self_s": self_s("waveform.waveform_moments"),
        "waveform.papr.calls": calls("waveform.papr"),
        "waveform.papr.self_s": self_s("waveform.papr"),
        "rectenna.dc_power_moment.self_s": self_s("rectenna.dc_power_moment"),
        "rectenna.dc_power_table.self_s": self_s("rectenna.dc_power_table"),
        "rectenna.adc_readings": len(codes),
        "rectenna.adc_zero_codes": sum(1 for c in codes if c == 0),
        "rectenna.table_clamps": tracer.table_clamps,
        "protocol.frames": frames["frames"],
        "protocol.codeword_evals": evals,
        "protocol.unique_eval_ratio":
            frames["unique_pairs"] / evals if evals else 0.0,
        "protocol.run_frame.self_s": self_s("protocol.run_frame"),
        "protocol.feedback_lost": frames["feedback_lost"],
        "protocol.tied_frames": frames["tied_frames"],
        "channel.realizations": calls("channel.frequency_response"),
        "channel.self_s": self_s(*layer("channel")),
        "rng.streams": calls("rng.stream"),
        "rng.self_s": self_s(*layer("rng")),
        "strategies.calls": calls(*layer("strategies")),
        "strategies.self_s": self_s(*layer("strategies")),
        "codebook.build_s": total_s(*layer("codebook")),
        "codebook.lloyd_iterations": result.get("iterations", 0),
        "codebook.iteration_s": result.get("iteration_s", 0.0),
        # training seeds K codewords with SMF; later SMF calls re-seed
        "codebook.reseeds":
            max(0, smf_in_training - result.get("k", 0)),
        "campaign.self_s": self_s("campaign.run_campaign"),
        "campaign.summarize_s": total_s("campaign.summarize"),
        "campaign.detail_bytes": result.get("detail_bytes", 0),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload")
    ap.add_argument("seed", type=int)
    ap.add_argument("workdir")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    import numpy
    import wptsim
    if not os.path.abspath(wptsim.__file__).startswith(SRC + os.sep):
        raise ImportError(f"wptsim imported from {wptsim.__file__}, not {SRC}")
    import spans
    import workloads

    before = calibrate()
    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        prepared = workloads.prepare(args.workload, args.seed, args.workdir,
                                     tiny=args.tiny)
        print("READY", flush=True)
        start = perf_counter()
        output = prepared.main()
        wall = perf_counter() - start
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        if tracer is not None:
            tracer.uninstall()

    after = calibrate()
    result = prepared.check(output)
    result.update(wall_s=wall, calibration_s=0.5 * (before + after),
                  calibration_before_s=before,
                  peak_rss_mb=peak_kib / 1024.0,
                  items=prepared.items(result),
                  versions={"numpy": numpy.__version__,
                            "wptsim": wptsim.__version__})
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, result)
        result["errors"] += prepared.check_layers(result["layers"])
        result["unwrapped"] = tracer.skipped
        tracer.save(os.path.join(args.workdir, "spans.npz"))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
