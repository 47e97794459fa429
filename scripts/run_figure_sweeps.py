#!/usr/bin/env python3
"""Run the standard sweeps and print the ALL-location gain tables.

Writes out/<name>/detail.csv and summary.csv for each sweep in
wptsim.FIGURES (figure-bf, figure-wf, figure-joint).  The printed tables
are the ALL rows only; per-location rows stay in the CSVs.

Usage: python3 scripts/run_figure_sweeps.py [--seed S]
"""

import argparse
import csv
import sys

from wptsim import ALL_LOCATIONS, FIGURES, figure_config, run_campaign


def print_all_rows(summary_path):
    with open(summary_path, newline="", encoding="ascii") as fh:
        rows = [r for r in csv.DictReader(fh) if r["location"] == ALL_LOCATIONS]
    width = max(len(r["strategy"]) for r in rows)
    for r in rows:
        print(f"  {r['strategy']:<{width}}  M={r['M']} N={r['N']} "
              f"K={r['K']:>2}  {float(r['p_dc_mean_w']):.4e} W  "
              f"{float(r['gain_db']):+8.4f} dB")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=None)
    args = ap.parse_args(argv)
    for name in FIGURES:
        config = figure_config(name, seed=args.seed)
        detail, summary = run_campaign(config)
        print(f"{name}: wrote {detail} and {summary}")
        print_all_rows(summary)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
