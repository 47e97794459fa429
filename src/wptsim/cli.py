"""Command line front end.

Subcommands:
    simulate  run a campaign from a config file
    codebook  generate (gen) or train (train) a codebook file
    oracle    self-check closed-form moments against time-domain averaging
    sweep     run one of the pre-canned figure campaigns

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import rng as rngmod
from .campaign import figure_config, load_config, run_campaign
from .channel import (ChannelModelParams, ChannelRealization,
                      frequency_response, realize_channel, sample_taps)
from .codebook import gen_nested, gen_random, save_codebook, train_lloyd
from .errors import WptsimError
from .rectenna import DiodeMomentModel
from .timedomain import moments_by_averaging
from .waveform import (ToneGrid, WaveformWeights, effective_tones,
                       waveform_moments)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wptsim",
        description="multi-sine multi-antenna WPT simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a campaign from a config file")
    sim.add_argument("--config", required=True, help="campaign config file")
    sim.add_argument("--out", default=None,
                     help="output directory (overrides the config)")

    cb = sub.add_parser("codebook", help="generate or train a codebook file")
    cbsub = cb.add_subparsers(dest="codebook_command", required=True)

    def grid_args(p):
        p.add_argument("--out", required=True, help="codebook file to write")
        p.add_argument("--antennas", type=int, default=4, metavar="M")
        p.add_argument("--tones", type=int, default=8, metavar="N")
        p.add_argument("--size", type=int, default=64, metavar="K")
        p.add_argument("--power", type=float, default=2.0,
                       help="transmit power budget in watts")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--center-frequency-hz", type=float, default=2.4e9)
        p.add_argument("--bandwidth-hz", type=float, default=10e6)

    gen = cbsub.add_parser("gen", help="random or nested random codebook")
    grid_args(gen)
    gen.add_argument("--method", choices=("nested", "random"),
                     default="nested")

    train = cbsub.add_parser("train", help="iteratively trained codebook")
    grid_args(train)
    train.add_argument("--channels", type=int, default=1000,
                       help="training channel realizations")
    train.add_argument("--iters", type=int, default=30)
    train.add_argument("--taps", type=int, default=8)
    train.add_argument("--tap-spacing-s", type=float, default=100e-9)
    train.add_argument("--pdp-decay", type=float, default=0.7)
    train.add_argument("--pathloss-db", type=float, default=60.0)
    train.add_argument("--k2", type=float, default=0.17)
    train.add_argument("--k4", type=float, default=19.1)

    orc = sub.add_parser("oracle",
                         help="numerical self-checks of the closed forms")
    orcsub = orc.add_subparsers(dest="oracle_command", required=True)
    mom = orcsub.add_parser(
        "moments",
        help="closed-form moments vs time-domain averaging")
    mom.add_argument("--seed", type=int, default=0)
    mom.add_argument("--cases", type=int, default=100)

    swp = sub.add_parser("sweep", help="run a pre-canned figure campaign")
    swp.add_argument("name", choices=("figure-bf", "figure-wf",
                                      "figure-joint"))
    swp.add_argument("--out", default=None,
                     help="output directory (default out/<name>)")
    swp.add_argument("--seed", type=int, default=None)
    return parser


def _cmd_simulate(args) -> int:
    config = load_config(args.config)
    detail, summary = run_campaign(config, out_dir=args.out)
    print(f"wrote {detail}")
    print(f"wrote {summary}")
    return 0


def _cmd_codebook(args) -> int:
    grid = ToneGrid.centered(args.center_frequency_hz, args.bandwidth_hz,
                             args.tones)
    gen = rngmod.stream(args.seed, rngmod.CODEBOOK, args.antennas, args.tones)
    if args.codebook_command == "gen":
        if args.method == "nested":
            book = gen_nested(args.antennas, grid, args.power, args.size, gen)
        else:
            book = gen_random(args.antennas, grid, args.power, args.size, gen)
    else:
        params = ChannelModelParams(
            n_taps=args.taps, tap_spacing_s=args.tap_spacing_s,
            pdp_decay=args.pdp_decay, pathloss_db=args.pathloss_db,
            seed=rngmod.derive_seed(args.seed, rngmod.TRAINING,
                                    args.antennas, args.tones))
        channels = [realize_channel(params, args.antennas, grid, frame=i)
                    for i in range(args.channels)]
        model = DiodeMomentModel(k2=args.k2, k4=args.k4)
        book = train_lloyd(channels, args.size, model, iters=args.iters,
                           rng=rngmod.stream(args.seed, rngmod.TRAINING,
                                             args.antennas, args.tones,
                                             args.size),
                           power=args.power)
    save_codebook(book, args.out)
    print(f"wrote {args.out} (M={book.m_antennas}, N={book.n_tones}, "
          f"K={book.k_codewords})")
    return 0


def oracle_moment_errors(seed: int, cases: int) -> tuple[float, float]:
    """Worst relative errors (m2, m4) of the closed forms over random cases.

    Case i draws its tone and antenna counts, a commensurate carrier, a
    channel and weights at a random power budget from the stream (seed,
    ORACLE, i), then compares ``waveform_moments`` with the time averages
    of ``timedomain.moments_by_averaging``.
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
        channel = ChannelRealization(m_antennas=m, grid=grid, gains=gains)
        raw = gen.normal(size=(m, n)) + 1j * gen.normal(size=(m, n))
        power = float(gen.uniform(0.5, 4.0))
        raw *= np.sqrt(2.0 * power / np.sum(np.abs(raw) ** 2))
        weights = WaveformWeights(m_antennas=m, n_tones=n, weights=raw,
                                  power_budget=power)
        tones = effective_tones(channel, weights)
        m2, m4 = waveform_moments(tones, grid)
        ref2, ref4 = moments_by_averaging(tones, grid)
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


def _cmd_sweep(args) -> int:
    config = figure_config(args.name, seed=args.seed)
    detail, summary = run_campaign(config, out_dir=args.out)
    print(f"wrote {detail}")
    print(f"wrote {summary}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "codebook":
            return _cmd_codebook(args)
        if args.command == "oracle":
            return _cmd_oracle_moments(args)
        return _cmd_sweep(args)
    except (WptsimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
