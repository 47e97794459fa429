"""Command line front end.

Subcommands:
    simulate  run a campaign from a config file
    codebook  write a campaign's codebook for one (M, N, K) to a file
    oracle    self-check closed-form moments against time-domain averaging
    sweep     run one of the pre-canned figure campaigns

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from . import rng as rngmod
from .campaign import (FIGURES, CampaignConfig, codebooks, figure_config,
                       load_config, run_campaign)
from .channel import ChannelModelParams, frequency_response, sample_taps
from .codebook import save_codebook
from .errors import WptsimError
from .timedomain import moments_by_averaging
from .waveform import ToneGrid, radiated_power, tone_moments


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wptsim",
        description="multi-sine multi-antenna WPT simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a campaign from a config file")
    sim.add_argument("--config", required=True, help="campaign config file")
    sim.add_argument("--out", default=None,
                     help="output directory (overrides the config)")

    cb = sub.add_parser(
        "codebook", help="write the campaign's codebook for one (M, N, K)")
    cb.add_argument("--out", required=True, help="codebook file to write")
    cb.add_argument("--config", default=None,
                    help="campaign config file (default: the built-in "
                         "campaign defaults)")
    cb.add_argument("--antennas", type=int, default=4, metavar="M")
    cb.add_argument("--tones", type=int, default=8, metavar="N")
    cb.add_argument("--size", type=int, default=64, metavar="K")

    orc = sub.add_parser("oracle",
                         help="numerical self-checks of the closed forms")
    orcsub = orc.add_subparsers(dest="oracle_command", required=True)
    mom = orcsub.add_parser(
        "moments",
        help="closed-form moments vs time-domain averaging")
    mom.add_argument("--seed", type=int, default=0)
    mom.add_argument("--cases", type=_positive_int, default=100)

    swp = sub.add_parser("sweep", help="run a pre-canned figure campaign")
    swp.add_argument("name", choices=tuple(FIGURES))
    swp.add_argument("--out", default=None,
                     help="output directory (default out/<name>)")
    swp.add_argument("--seed", type=int, default=None)
    return parser


def _run(config, out) -> int:
    detail, summary = run_campaign(config, out_dir=out)
    print(f"wrote {detail}")
    print(f"wrote {summary}")
    return 0


def _cmd_codebook(args) -> int:
    """Write the config's (M, N, K) book; every other setting is a key."""
    config = load_config(args.config) if args.config else CampaignConfig()
    config = replace(config, antenna_counts=(args.antennas,),
                     tone_counts=(args.tones,), codebook_sizes=(args.size,))
    book = codebooks(config, args.antennas,
                     config.tone_grid(args.tones))[args.size]
    save_codebook(book, args.out)
    print(f"wrote {args.out} (M={book.m_antennas}, N={book.n_tones}, "
          f"K={book.k_codewords})")
    return 0


def oracle_moment_errors(seed: int, cases: int) -> tuple[float, float]:
    """Worst relative errors (m2, m4) of the closed forms over random cases.

    Case i draws its tone and antenna counts, a commensurate carrier, a
    channel and weights at a random power budget from the stream (seed,
    ORACLE, i), then compares ``tone_moments``, the kernel every codeword
    sweep runs, with the time averages of
    ``timedomain.moments_by_averaging``.
    """
    worst_m2 = 0.0
    worst_m4 = 0.0
    for case in range(cases):
        gen = rngmod.stream(seed, rngmod.ORACLE, case)
        n = int(gen.integers(1, 9))
        m = int(gen.integers(1, 5))
        bandwidth = 10e6
        delta_f = bandwidth / n
        carrier = int(gen.integers(16, 257)) * delta_f
        grid = ToneGrid.centered(carrier, bandwidth, n)
        params = ChannelModelParams(
            n_taps=int(gen.integers(1, 9)), tap_spacing_s=100e-9,
            pdp_decay=0.7, pathloss_db=float(gen.uniform(0.0, 30.0)),
            seed=0)
        taps = sample_taps(params, m, gen)
        gains = frequency_response(taps, params, grid)
        raw = gen.normal(size=(m, n)) + 1j * gen.normal(size=(m, n))
        power = float(gen.uniform(0.5, 4.0))
        raw *= np.sqrt(power / radiated_power(raw))
        a = np.sum(gains * raw, axis=0)
        m2, m4 = tone_moments(a)
        ref2, ref4 = moments_by_averaging(a, grid)
        worst_m2 = max(worst_m2, abs(m2 - ref2) / ref2)
        worst_m4 = max(worst_m4, abs(m4 - ref4) / ref4)
    return worst_m2, worst_m4


def _cmd_oracle_moments(args) -> int:
    worst_m2, worst_m4 = oracle_moment_errors(args.seed, args.cases)
    ok = worst_m2 < 1e-6 and worst_m4 < 1e-6
    status = "PASS" if ok else "FAIL"
    print(f"{status}: {args.cases} cases, max relative error "
          f"m2={worst_m2:.3e}, m4={worst_m4:.3e} (tolerance 1e-6)")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return _run(load_config(args.config), args.out)
        if args.command == "codebook":
            return _cmd_codebook(args)
        if args.command == "oracle":
            return _cmd_oracle_moments(args)
        return _run(figure_config(args.name, seed=args.seed), args.out)
    except (WptsimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
