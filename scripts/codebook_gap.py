#!/usr/bin/env python3
"""Trained-codebook loss versus codebook size, next to its proven ceiling.

Trains Lloyd codebooks for K = 2 .. 64 on one channel ensemble (M=4, N=8
by default).  For each K it prints, in dB against the scaled matched filter
(SMF) with cubic emphasis: the mean best-of-K dc power on the held-out
channels, the same on the training channels, and the ceiling C(K) that no
K-entry codebook can exceed on average (wptsim.dc_ceiling; the proof is in
docs/covering_bound.md).  The held-out gap stays below C(K) up to the
sampling error of the held-out mean.  The training gap can exceed it,
because the book is fitted to those very channels.

Usage: python3 scripts/codebook_gap.py [--antennas M] [--tones N]
       [--train 1000] [--held 500] [--iters 30] [--seed 42]
"""

import argparse
import sys

import numpy as np

from wptsim import (ChannelModelParams, DiodeMomentModel, SmfParams, ToneGrid,
                    dc_ceiling, feedback_bits, realize_channel, smf_weights,
                    stream, train_lloyd)
from wptsim.waveform import tone_moments
import wptsim.rng as rngmod


def draw_channels(seed, count, m, grid, base):
    params = ChannelModelParams(pathloss_db=60.0, seed=seed)
    return [realize_channel(params, m, grid, frame=base + i)
            for i in range(count)]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--antennas", type=int, default=4)
    ap.add_argument("--tones", type=int, default=8)
    ap.add_argument("--train", type=int, default=1000)
    ap.add_argument("--held", type=int, default=500)
    ap.add_argument("--iters", type=int, default=30)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args(argv)

    grid = ToneGrid.centered(2.4e9, 10e6, args.tones)
    model = DiodeMomentModel()
    power = 2.0
    # held-out channels come first so that --train leaves them unchanged
    held = draw_channels(args.seed, args.held, args.antennas, grid, 0)
    train = draw_channels(args.seed, args.train, args.antennas, grid,
                          args.held)

    smf = SmfParams(beta=3.0, power_budget=power)

    def dc(gains, weights):
        """dc power of (..., M, N) weights on (..., M, N) gains."""
        return model.dc(*tone_moments(np.sum(gains * weights, axis=-2)))

    def smf_dc(channels, gains):
        weights = np.stack([smf_weights(c, smf).weights for c in channels])
        return np.mean(dc(gains, weights))

    def best_dc(gains, book):
        # (channels, codewords, M, N): each channel's best codeword
        return np.mean(dc(gains[:, None], book.weights).max(axis=1))

    held_gains, train_gains = (np.stack([c.gains for c in channels])
                               for channels in (held, train))
    dc_smf = smf_dc(held, held_gains)
    dc_smf_train = smf_dc(train, train_gains)
    family = ChannelModelParams(pathloss_db=60.0)
    print(f"M={args.antennas} N={args.tones}, {args.train} training / "
          f"{args.held} held-out channels; gaps in dB against SMF")
    print(f"  matched-filter reference: {dc_smf:.4e} W")
    for k in (2, 4, 8, 16, 32, 64):
        book = train_lloyd(train, k, model, iters=args.iters,
                           rng=stream(args.seed, rngmod.TRAINING, k),
                           power=power)
        gap = 10.0 * np.log10(best_dc(held_gains, book) / dc_smf)
        train_gap = 10.0 * np.log10(best_dc(train_gains, book)
                                    / dc_smf_train)
        ceiling = dc_ceiling(family, args.antennas, grid, k, model, power)
        print(f"  K={k:>2} ({feedback_bits(k)} bits): "
              f"held-out {gap:+7.3f}  training {train_gap:+7.3f}  "
              f"ceiling C(K) {10.0 * np.log10(ceiling / dc_smf):+7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
