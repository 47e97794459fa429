"""Run one wptsim benchmark workload and print its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload campaign-joint --seed 1 \
        --seconds 30 --trace 0

Each repetition runs in a fresh interpreter (perfbench/worker.py), one at a
time, until --seconds have been spent (at least three repetitions).  With
--trace 0 every repetition is untraced and the run reports the end-to-end
metrics; with --trace 1 untraced and traced repetitions alternate and the
run reports the per-layer metrics, including the tracing overhead.  Every
repetition's output is checked; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Metric names and units come from BENCHMARK.json.  See perfbench/README.md.

Times are reported in reference seconds: each repetition's measured times
are multiplied by REFERENCE_CALIBRATION_S over the time the same process
took for worker.calibrate() around its main call.  On a shared machine
whose speed drifts by tens of percent from one minute to the next, this
cancels the drift, which a median over repetitions cannot.  The report
prints the measured medians as well.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("campaign-joint", "lloyd-m4n8k64", "campaign-table")
DEFAULT_SEED = 20260818

# no repetition starts after LAUNCH_LIMIT_S and a repetition still running
# at KILL_AFTER_S is killed, so a run ends well inside three minutes
LAUNCH_LIMIT_S = 120.0
KILL_AFTER_S = 165.0
# worker.calibrate()'s typical time on the 2-core Xeon the benchmark was
# defined on; a reference second is the time that machine takes for
# 1/REFERENCE_CALIBRATION_S calibrations
REFERENCE_CALIBRATION_S = 0.09
# numpy's BLAS would otherwise start a thread per core
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}


def machine_info() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "commit": git_commit()}


def git_commit() -> str:
    """HEAD of the checkout's own .git, without searching parent folders."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_rep(workload: str, seed: int, workdir: str, traced: bool,
            tiny: bool, kill_at: float) -> dict:
    """One repetition in a fresh interpreter; times set-up up to READY."""
    cmd = [sys.executable, WORKER, workload, str(seed), workdir]
    cmd += ["--trace"] * traced + ["--tiny"] * tiny
    env = dict(os.environ, **SINGLE_THREAD)
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=env,
                            text=True)
    timer = threading.Timer(max(1.0, kill_at - start), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready = perf_counter()
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    lines = rest.strip().splitlines()
    if first.strip() != "READY" or code != 0 or not lines:
        return {"traced": traced, "errors": [f"worker exited with {code}"]}
    result = json.loads(lines[-1])
    # the worker's first calibration ran inside this interval
    result.update(traced=traced,
                  setup_s=ready - start - result["calibration_before_s"])
    return result


def check_reps(workload: str, seed: int, reps: list, expected: dict,
               tiny: bool) -> None:
    """Add to each repetition's errors what the output checks find.

    Every repetition must reproduce the first good one byte for byte,
    traced or not.  Where expected.json records the seed, the output must
    also match it: campaign digests exactly, Lloyd's final objective and
    held-out gap within a relative tolerance.
    """
    recorded = {} if tiny else \
        expected["workloads"].get(workload, {}).get(str(seed))
    good = [r for r in reps if not r["errors"]]
    if recorded and "objective" not in recorded:
        reference = recorded
    else:
        reference = good[0]["digest"] if good else None
    tol = expected["lloyd_rel_tol"]
    low, high = expected["lloyd_heldout_gap_db_range"]
    for r in good:
        if r["digest"] != reference:
            r["errors"].append("output bytes differ from the reference")
        if workload != "lloyd-m4n8k64" or tiny:
            continue
        if recorded:
            for key in ("objective", "heldout_gap_db"):
                if abs(r[key] - recorded[key]) > tol[key] * abs(recorded[key]):
                    r["errors"].append(f"{key} {r[key]!r} is not within "
                                       f"{tol[key]} of {recorded[key]!r}")
        elif not low <= r["heldout_gap_db"] <= high:
            r["errors"].append(f"held-out gap {r['heldout_gap_db']} dB "
                               f"outside [{low}, {high}]")


def scale(rep: dict) -> float:
    """Factor from a repetition's measured seconds to reference seconds."""
    return REFERENCE_CALIBRATION_S / rep["calibration_s"]


def layer_values(spec: list, traced: list) -> dict:
    """Per-layer metrics: times are medians, counts must repeat exactly."""
    values = {}
    for metric in spec:
        name = metric["name"]
        if name == "trace.overhead_s":
            continue
        samples = [r["layers"][name] for r in traced]
        if metric["unit"] == "s":
            values[name] = statistics.median(
                v * scale(r) for r, v in zip(traced, samples))
            continue
        values[name] = samples[0]
        for r, v in zip(traced, samples):
            if v != samples[0]:
                r["errors"].append(f"{name} is {v}, first traced run "
                                   f"read {samples[0]}")
    return values


def describe(samples: list) -> str:
    if len(samples) < 2:
        return f"n={len(samples)}"
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return f"median of n={len(samples)}, quartiles {q1:.6g} .. {q3:.6g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test sizes; recorded outputs are not checked")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "wptsim", "__init__.py")):
        print(f"error: no wptsim sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    workdir = os.path.join(HERE, "_work", args.workload)

    info = machine_info()
    print(f"# workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# machine: " + " ".join(f"{k}={v}" for k, v in info.items()))

    start = perf_counter()
    min_reps = 4 if args.trace else 3
    reps: list = []
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        reps.append(run_rep(args.workload, args.seed, workdir, traced,
                            args.tiny, start + KILL_AFTER_S))
        elapsed = perf_counter() - start
        if elapsed > LAUNCH_LIMIT_S or (
                len(reps) >= min_reps
                and elapsed + 0.5 * elapsed / len(reps) > args.seconds):
            break

    check_reps(args.workload, args.seed, reps, expected, args.tiny)
    plain = [r for r in reps if not r["traced"] and not r["errors"]]
    traced = [r for r in reps if r["traced"] and not r["errors"]]
    layers = layer_values(bench["per_layer"], traced) \
        if args.trace and traced else {}
    if plain:
        versions = plain[0]["versions"]
        print(f"# versions: numpy={versions['numpy']} "
              f"wptsim={versions['wptsim']}")

    samples = {
        "wall_s": [r["wall_s"] * scale(r) for r in plain],
        "setup_s": [r["setup_s"] * scale(r) for r in plain],
        "items_per_s": [r["items"] / (r["wall_s"] * scale(r)) for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    if args.trace and plain and traced:
        layers["trace.overhead_s"] = (
            statistics.median(r["wall_s"] * scale(r) for r in traced)
            - statistics.median(samples["wall_s"]))

    failed = sum(1 for r in reps if r["errors"])
    for i, r in enumerate(reps):
        for err in r["errors"]:
            print(f"run {i} ({'traced' if r['traced'] else 'untraced'}): "
                  f"{err}", file=sys.stderr)
    for target in sorted({t for r in traced for t in r["unwrapped"]}):
        print(f"# not traced, no longer present: {target}")

    metrics = {}
    if args.trace:
        for metric in bench["per_layer"]:
            if metric["name"] in layers:
                metrics[metric["name"]] = {"value": layers[metric["name"]],
                                           "unit": metric["unit"]}
    else:
        for metric in bench["end_to_end"]:
            if samples[metric["name"]]:
                metrics[metric["name"]] = {
                    "value": statistics.median(samples[metric["name"]]),
                    "unit": metric["unit"]}

    print("# end-to-end (untraced runs; times in reference seconds)")
    for metric in bench["end_to_end"]:
        values = samples[metric["name"]]
        if values:
            print(f"{metric['name']:34s} {statistics.median(values):.6g} "
                  f"{metric['unit']}  ({describe(values)})")
    if plain:
        for key in ("wall_s", "setup_s", "calibration_s"):
            measured = [r[key] for r in plain]
            print(f"# measured {key}: median {statistics.median(measured):.6g}"
                  " s, runs " + " ".join(f"{v:.4g}" for v in measured))
    print(f"{'error_rate':34s} {failed / len(reps):.6g}  "
          f"({failed} of {len(reps)} runs failed)")
    if plain and "rows" in plain[0]:
        print(f"{'frames_per_s':34s} "
              f"{statistics.median(samples['items_per_s']):.6g}  "
              f"({plain[0]['rows']} detail rows per run)")
    if plain and "heldout_gap_db" in plain[0]:
        print(f"{'heldout_gap_db':34s} {plain[0]['heldout_gap_db']:.6g}  "
              f"(best of K={plain[0]['k']} vs SMF, held-out channels)")
    if layers:
        print(f"# per layer (traced runs, n={len(traced)}; "
              f"times in reference seconds)")
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        for name, value in layers.items():
            print(f"{name:34s} {value:.6g} {units[name]}")

    complete = len(metrics) == len(
        bench["per_layer"] if args.trace else bench["end_to_end"])
    print(json.dumps({"correct": failed == 0 and complete,
                      "attempted": len(reps), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
