#!/usr/bin/env python3
"""Layer timing of the moment kernel; writes BENCH_kernel.json.

Layer rows, on random complex amplitudes and channel gains:

* ``waveform.tone_moments`` for N in {1, 2, 4, 8} tones and a batch of C in
  {1, 64, 192, 1000} waveforms.  C = 1 is one waveform of shape (N,), as
  ``waveform_moments`` passes it; 192 is one campaign session's sweep
  (3 frames x 64 codewords); 1000 is one Lloyd column.
* ``codebook._dc_and_grad`` at M=4, N=8 on one segment of 1000 channels,
  the step Lloyd's UPDATE repeats.
* ``codebook._assign``, Lloyd's pruned ASSIGN, at M=4, N=8, K=64 on 1000
  channels drawn with ``realize_channel`` at 60 dB and at 0 dB pathloss,
  against SMF codewords of 64 of those channels (as ``train_lloyd``
  starts).  ``full_matrix_us`` times the unpruned (C, K) dc matrix and
  its argmax that ASSIGN replaces; ``pairs_per_channel`` counts the pairs
  that reach the exact m4 evaluation, out of K.
* ``protocol.run_session``: one location's LIMITED sessions at M=4, N=8
  over F=3 fades, for the nested books K in {2, ..., 64}, as
  ``run_campaign`` runs them.  ``per_k_sweep_us`` lets each K's session
  sweep its own book; ``median_us`` sweeps the K_max book once and hands
  each K its columns.
* ``campaign.up_frames``: one location's open-loop UP frames and tap
  draws at figure-joint's (M, N) points, M in {1, 2, 4} x N in
  {1, 2, 4, 8}, over F=3 fades, next to the location's sweep of the
  K_max=64 nested book that both ways run.  ``per_frame_us`` draws the
  taps at every (M, N) and evaluates UP frame by frame; ``median_us``
  draws each fade's taps once at the largest M and reads UP from a
  column of the shared sweep, as ``run_campaign`` does.
* ``waveform.papr`` for N in {1, 8, 16} tones at oversampling 32, on
  random amplitudes: ``median_us`` is one ``papr`` call on the cached
  phasor matrix, ``table_us`` one ``rectenna.dc_power_table`` call on a
  small efficiency table, and ``build_ms`` one cold build of the matrix
  by ``waveform._phasors`` (timed once per --repeat, with the cache
  cleared), whose ``tracemalloc`` peak ``build_peak_mb`` is set against
  the matrix's own ``matrix_mb``.

Each row is the median over --repeat timings of --number calls, in
microseconds per call.  The file's header names the numpy and Python
versions, since the kernel's speed and its summation order both come from
numpy.

Usage: python3 scripts/bench_kernel.py [--out BENCH_kernel.json]
       [--repeat 15] [--number 20] [--seed 7]
"""

import argparse
import itertools
import json
import platform
import statistics
import sys
import tracemalloc
from timeit import Timer

import numpy as np

from wptsim import (ChannelModelParams, ChannelRealization, Codebook,
                    DiodeMomentModel, EffectiveTones, EfficiencyTableModel,
                    FrameConfig, LinkModel, SmfParams, ToneGrid, codebook,
                    dc_power_table, effective_tones, frequency_response,
                    gen_nested, papr, realize_channel, received_rf_power,
                    rng, run_session, sample_taps, smf_weights, up_weights)
from wptsim import waveform
from wptsim.campaign import _columns, _sweep_book
from wptsim.codebook import _amplitudes, _assign, _dc_and_grad, _sphere
from wptsim.protocol import _dc_power, _sweep
from wptsim.waveform import tone_moments

TONES = (1, 2, 4, 8)
BATCHES = (1, 64, 192, 1000)
PATHLOSS_DB = (60.0, 0.0)
SESSION_SIZES = (2, 4, 8, 16, 32, 64)
SESSION_FRAMES = 3
CAMPAIGN_ANTENNAS = (1, 2, 4)
CAMPAIGN_TONES = (1, 2, 4, 8)
PAPR_TONES = (1, 8, 16)
PAPR_OVERSAMPLING = 32


def complex_normal(gen, shape):
    return gen.standard_normal(shape) + 1j * gen.standard_normal(shape)


def median_us(fn, repeat, number):
    runs = Timer(fn).repeat(repeat=repeat, number=number)
    return 1e6 * statistics.median(runs) / number


def _exact_pairs(gains, words, model):
    # the rows _assign hands to the fourth moment, counted on one call
    count = []
    real = codebook.fourth_moment
    codebook.fourth_moment = lambda a: count.append(len(a)) or real(a)
    try:
        _assign(gains, words, model)
    finally:
        codebook.fourth_moment = real
    return sum(count)


def _session_row(grid, model, seed, repeat, number):
    m, f = 4, SESSION_FRAMES
    fades = [realize_channel(ChannelModelParams(seed=seed), m, grid,
                             frame=i) for i in range(f)]
    full = gen_nested(m, grid, 2.0, max(SESSION_SIZES),
                      rng.stream(seed, rng.CODEBOOK))
    books = {k: full.prefix(k) for k in SESSION_SIZES}
    sweep_book, columns = _sweep_book(books)
    link = LinkModel()

    def sessions(shared):
        swept = _sweep(sweep_book, fades, model) if shared else None
        for k, book in books.items():
            run_session(FrameConfig(k_codewords=k), book, fades.__getitem__,
                        model, None, link, f,
                        rng.stream(seed, rng.SESSION, k),
                        _columns(swept, columns[k]) if shared else None)

    return {"layer": "protocol.run_session", "m_antennas": m,
            "n_tones": grid.n_tones, "frames": f,
            "k_sizes": list(SESSION_SIZES),
            "per_k_sweep_us": median_us(lambda: sessions(False), repeat,
                                        number),
            "median_us": median_us(lambda: sessions(True), repeat, number)}


def _campaign_row(model, seed, repeat, number):
    f, power = SESSION_FRAMES, 2.0
    params = ChannelModelParams(seed=seed)
    points = []
    for m, n in itertools.product(CAMPAIGN_ANTENNAS, CAMPAIGN_TONES):
        grid = ToneGrid.centered(2.4e9, 10e6, n)
        full = gen_nested(m, grid, power, max(SESSION_SIZES),
                          rng.stream(seed, rng.CODEBOOK, m, n))
        up = Codebook(k_codewords=1, entries=(up_weights(m, grid, power),))
        points.append((m, grid, full,
                       _sweep_book({max(SESSION_SIZES): full, "UP": up})))

    def draw(m):
        return [sample_taps(params, m, rng.stream(seed, rng.TAPS, fade))
                for fade in range(f)]

    def fades(m, grid, taps):
        return [ChannelRealization(
                    m_antennas=m, grid=grid,
                    gains=frequency_response(t[:m], params, grid))
                for t in taps]

    def per_frame():
        for m, grid, full, _ in points:
            channels = fades(m, grid, draw(m))
            _sweep(full, channels, model)
            for ch in channels:
                tones = effective_tones(ch, up_weights(m, grid, power))
                _dc_power(model, tones, grid)
                received_rf_power(tones)

    def shared():
        taps = draw(max(CAMPAIGN_ANTENNAS))
        for m, grid, _, (book, columns) in points:
            col = columns["UP"].start
            swept = _sweep(book, fades(m, grid, taps), model)
            [(dcs[col], p_rfs[col]) for dcs, p_rfs in swept]

    return {"layer": "campaign.up_frames",
            "antenna_counts": list(CAMPAIGN_ANTENNAS),
            "tone_counts": list(CAMPAIGN_TONES), "frames": f,
            "per_frame_us": median_us(per_frame, repeat, number),
            "median_us": median_us(shared, repeat, number)}


def _papr_row(n, gen, repeat, number):
    grid = ToneGrid.centered(2.4e9, 10e6, n)
    # amplitudes near -30 dBm received, inside the table's power axis
    tones = EffectiveTones(1e-3 * complex_normal(gen, n))
    table = EfficiencyTableModel(
        p_dbm=np.array([-60.0, -40.0, -20.0, 0.0]),
        papr_axis=np.array([1.0, 4.0, 16.0, 32.0]),
        eta=np.linspace(0.05, 0.6, 16).reshape(4, 4))

    def build():
        waveform._phasor_cache.clear()
        return waveform._phasors(grid, PAPR_OVERSAMPLING)

    build_s = Timer(build).repeat(repeat=repeat, number=1)
    waveform._phasor_cache.clear()
    tracemalloc.start()
    try:
        e = waveform._phasors(grid, PAPR_OVERSAMPLING)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"layer": "waveform.papr", "n_tones": n,
            "oversampling": PAPR_OVERSAMPLING,
            "build_ms": 1e3 * statistics.median(build_s),
            "build_peak_mb": peak / 1e6, "matrix_mb": e.nbytes / 1e6,
            "median_us": median_us(
                lambda: papr(tones, grid, PAPR_OVERSAMPLING), repeat,
                number),
            "table_us": median_us(lambda: dc_power_table(table, tones, grid),
                                  repeat, number)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="BENCH_kernel.json")
    ap.add_argument("--repeat", type=int, default=15)
    ap.add_argument("--number", type=int, default=20)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)
    if args.repeat < 1 or args.number < 1:
        ap.error("--repeat and --number must be >= 1")

    gen = np.random.default_rng(args.seed)
    rows = []
    for n in TONES:
        for c in BATCHES:
            a = complex_normal(gen, (n,) if c == 1 else (c, n))
            rows.append({"layer": "waveform.tone_moments", "n_tones": n,
                         "batch": c,
                         "median_us": median_us(lambda: tone_moments(a),
                                                args.repeat, args.number)})
    m, n, c = 4, 8, 1000
    gains = complex_normal(gen, (c, m, n))
    words = _sphere(complex_normal(gen, (1, m, n)), 1.0)
    bounds = np.array([[0, c]])
    model = DiodeMomentModel()
    rows.append({"layer": "codebook._dc_and_grad", "m_antennas": m,
                 "n_tones": n, "batch": c,
                 "median_us": median_us(
                     lambda: _dc_and_grad(gains, words, bounds, model),
                     args.repeat, args.number)})
    k = 64
    grid = ToneGrid.centered(2.4e9, 10e6, n)
    smf = SmfParams(beta=3.0, power_budget=2.0)
    for pathloss_db in PATHLOSS_DB:
        params = ChannelModelParams(pathloss_db=pathloss_db, seed=args.seed)
        channels = [realize_channel(params, m, grid, frame=i)
                    for i in range(c)]
        gains = np.stack([ch.gains for ch in channels])
        words = [smf_weights(channels[int(i)], smf).weights
                 for i in gen.choice(c, size=k, replace=False)]

        def full_matrix():
            dc = np.column_stack([model.dc(*tone_moments(
                _amplitudes(gains, w))) for w in words])
            return np.argmax(dc, axis=1)

        rows.append({"layer": "codebook._assign", "m_antennas": m,
                     "n_tones": n, "k_codewords": k, "batch": c,
                     "pathloss_db": pathloss_db,
                     "pairs_per_channel": _exact_pairs(gains, words, model)
                     / c,
                     "full_matrix_us": median_us(full_matrix, args.repeat,
                                                 args.number),
                     "median_us": median_us(
                         lambda: _assign(gains, words, model),
                         args.repeat, args.number)})
    rows.append(_session_row(grid, model, args.seed, args.repeat,
                             args.number))
    rows.append(_campaign_row(model, args.seed, args.repeat, args.number))
    rows.extend(_papr_row(n, gen, args.repeat, args.number)
                for n in PAPR_TONES)

    report = {"benchmark": "kernel", "numpy": np.__version__,
              "python": platform.python_version(),
              "platform": platform.platform(), "seed": args.seed,
              "repeat": args.repeat, "number": args.number, "rows": rows}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"# numpy {report['numpy']}, Python {report['python']}")
    for row in rows:
        shape = " ".join(f"{key}={row[name]}" for key, name in (
            ("M", "m_antennas"), ("N", "n_tones"), ("C", "batch"),
            ("F", "frames")) if name in row)
        line = f"{row['layer']:<24} {shape:<18} {row['median_us']:10.1f} us"
        if "pathloss_db" in row:
            line += (f"  at {row['pathloss_db']:g} dB: full matrix "
                     f"{row['full_matrix_us']:.1f} us, "
                     f"{row['pairs_per_channel']:.2f} of "
                     f"{row['k_codewords']} pairs exact")
        if "per_k_sweep_us" in row:
            line += f"  (sweep per K: {row['per_k_sweep_us']:.1f} us)"
        if "per_frame_us" in row:
            line += f"  (UP per frame: {row['per_frame_us']:.1f} us)"
        if "build_ms" in row:
            line += (f"  (build {row['build_ms']:.2f} ms, peak "
                     f"{row['build_peak_mb']:.2f} of {row['matrix_mb']:.2f}"
                     f" MB; dc_power_table {row['table_us']:.1f} us)")
        print(line)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
