"""Record the reference outputs that run.py checks against.

Usage (from the root of a checkout):

    python3 perfbench/record.py [SEED ...]

Runs every workload once per seed (the default seed and 0-15 unless seeds
are given) and rewrites perfbench/expected.json with the campaign output
digests and Lloyd's final objective and held-out gap.  At the default seed
campaign-joint must reproduce the committed out/figure-joint CSVs, whose
digests are recorded as its reference; the script refuses to record if it
does not.  Re-run it only when a change to wptsim's outputs is intended and
explained.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from time import perf_counter

from run import DEFAULT_SEED, HERE, ROOT, WORKLOADS, run_rep

GOLDEN = os.path.join(ROOT, "out", "figure-joint")


def golden_digest() -> dict:
    digest = {}
    for name in ("detail", "summary"):
        with open(os.path.join(GOLDEN, f"{name}.csv"), "rb") as fh:
            digest[name] = hashlib.sha256(fh.read()).hexdigest()
    return digest


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    seeds = [int(s) for s in argv] or [DEFAULT_SEED, *range(16)]
    path = os.path.join(HERE, "expected.json")
    with open(path, encoding="utf-8") as fh:
        expected = json.load(fh)
    for workload in WORKLOADS:
        table = expected["workloads"].setdefault(workload, {})
        workdir = os.path.join(HERE, "_work", workload)
        for seed in seeds:
            rep = run_rep(workload, seed, workdir, traced=False, tiny=False,
                          kill_at=perf_counter() + 600.0)
            if rep["errors"]:
                print(f"{workload} seed {seed}: {rep['errors']}",
                      file=sys.stderr)
                return 1
            if workload == "lloyd-m4n8k64":
                table[str(seed)] = {"objective": rep["objective"],
                                    "heldout_gap_db": rep["heldout_gap_db"]}
            else:
                table[str(seed)] = rep["digest"]
            if workload == "campaign-joint" and seed == DEFAULT_SEED \
                    and rep["digest"] != golden_digest():
                print("campaign-joint does not reproduce out/figure-joint",
                      file=sys.stderr)
                return 1
            print(workload, seed, table[str(seed)], flush=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
