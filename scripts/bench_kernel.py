#!/usr/bin/env python3
"""Layer timing of the moment kernel; writes BENCH_kernel.json.

Layer rows, on random complex amplitudes and channel gains:

* ``waveform.tone_moments`` for N in {1, 2, 4, 8} tones and a batch of C in
  {1, 64, 192, 1000} waveforms.  C = 1 is one waveform of shape (N,), as
  ``waveform_moments`` passes it; 192 is one campaign session's sweep
  (3 frames x 64 codewords); 1000 is one Lloyd column.  ``peak_mb`` is
  the ``tracemalloc`` peak of one call.
* ``codebook._dc_and_grad`` at M=4, N=8 on one segment of 1000 channels,
  the step Lloyd's UPDATE repeats: the segment's mean dc, every row's dc
  and the gradient.  ``peak_mb`` is the ``tracemalloc`` peak of one call.
* ``codebook._assign``, Lloyd's pruned ASSIGN, at M=4, N=8, K=64 on 1000
  channels drawn with ``realize_channel`` at 60 dB and at 0 dB pathloss,
  against SMF codewords of 64 of those channels (as ``train_lloyd``
  starts).  ``full_matrix_us`` times the unpruned (C, K) dc matrix and
  its argmax that ASSIGN replaces; ``screen_us`` times ASSIGN's BLAS
  screen alone, block by block as ASSIGN runs it; ``pairs_per_channel``
  counts the pairs that reach the exact m4 evaluation, out of K, each
  channel's seeded pair (the one the screen ranks first) included.
* ``codebook.train_iteration``: one Lloyd iteration on the 60 dB
  ``_assign`` inputs, from their first ASSIGN: the UPDATE of every
  non-empty cluster with each channel's dc on its updated codeword
  (``codebook._update``), then the ASSIGN that starts from those known
  pairs.  ``exact_pairs`` counts the pairs that iteration evaluates
  exactly outside the UPDATE; ``minor_faults`` is the minor page faults
  per iteration, read with ``getrusage(RUSAGE_SELF)`` around the timed
  calls.
* ``protocol.run_session``: the LIMITED sessions of figure-joint's M=4,
  N=8 point on its default seed's channels (15 locations x 3 fades),
  for the nested books K in {2, ..., 64}, as ``run_campaign`` runs them
  on a lossless link with no ADC: one batched call per K over every
  location's session, with no session stream.  ``per_k_sweep_us``
  sweeps each K's own book, whose row 0 is UP's codeword, with
  ``campaign._point_sweep`` and then runs that K's sessions on UP's
  column and the book's; ``median_us`` sweeps the K_max book once per
  fade draw over every location and hands each K UP's column and its
  own, as ``run_campaign`` does; ``with_streams_us`` runs the
  ``median_us`` calls with one ``rng.stream`` per session, as a lossy
  link or a noisy ADC needs.
* ``channel.realize_channel`` at M=4, N=8: one channel's tap stream,
  tap draw and frequency response, as Lloyd's training set is drawn.
* ``campaign.summarize`` on the 4,320 rows of figure-joint's detail file
  at its default seed, p_dc_w read back from its text, writing the
  summary CSV; ``batch`` is the row count.  ``blocks_us`` writes the same
  summary from the campaign's 96 sweep-point blocks, as ``run_campaign``
  does: each block's per-location groups of its formatted p_dc values,
  read back with ``float``, through the aggregation ``summarize`` runs.
* ``campaign.write_csv``: figure-joint's summary and detail CSVs, at its
  default seed, written from its 96 sweep-point blocks as
  ``run_campaign`` writes them: each p_dc formatted once, the summary
  from the blocks, then the detail file block by block.  ``batch`` is
  the row count, ``blocks`` the block count.
* ``strategies.smf_weights``: SMF's evaluation at figure-joint's M=4,
  N=8 point on its default seed's 45 channels (15 locations x 3 fades):
  the weights, the received tones, the moment rectifier's dc and the RF
  power.  ``median_us`` rates the 45 channels as one stack, one call of
  each function, as ``run_campaign`` does; ``per_channel_us`` calls each
  function once per channel.
* ``campaign.point_channels``: figure-joint's M=4, N=8 point's 45 fades
  (15 locations x 3 draws) from its default seed's taps.  ``median_us``
  is ``campaign._point_channels``, one stacked ``frequency_response``
  call whose (locations, draws, M, N) gains ``run_campaign`` sweeps and
  rates SMF on; ``per_fade_us`` calls ``frequency_response`` once per
  fade.
* ``campaign.table_point``: the M=2, N=8 point of the benchmark's
  ``campaign-table`` sweep (2 locations x 2 fades at the default seed,
  nested books K in {2, 4}) on a synthetic efficiency table: the sweep
  of its K_max book, UP's codeword first, once per fade draw, plus SMF
  rated on the stack of its fades, as ``run_campaign`` rates them.
  ``papr_calls`` counts the RF-sampled ``papr`` calls of one point and
  ``papr_us`` is their time within it.
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
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import tracemalloc
from time import perf_counter
from timeit import Timer

import numpy as np

from wptsim import (ChannelModelParams, ChannelRealization, DiodeMomentModel,
                    EffectiveTones, EfficiencyTableModel, FrameConfig,
                    LinkModel, SmfParams, ToneGrid, codebook, dc_power_table,
                    effective_tones, frequency_response, gen_nested,
                    make_locations, papr, realize_channel,
                    received_rf_power, rng, run_session, smf_weights)
from wptsim import campaign, rectenna, waveform
from wptsim.codebook import _amplitudes, _assign, _dc_and_grad, _sphere
from wptsim.protocol import _dc_power
from wptsim.waveform import tone_moments

TONES = (1, 2, 4, 8)
BATCHES = (1, 64, 192, 1000)
PATHLOSS_DB = (60.0, 0.0)
SESSION_SIZES = (2, 4, 8, 16, 32, 64)
PAPR_TONES = (1, 8, 16)
PAPR_OVERSAMPLING = 32


def complex_normal(gen, shape):
    return gen.standard_normal(shape) + 1j * gen.standard_normal(shape)


def median_us(fn, repeat, number):
    runs = Timer(fn).repeat(repeat=repeat, number=number)
    return 1e6 * statistics.median(runs) / number


def peak_mb(fn):
    """The tracemalloc peak of one call of fn, in MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def _exact_pairs(fn):
    # the rows codebook's exact pair evaluation hands to the fourth moment,
    # counted on one call of fn
    count = []
    real = codebook.fourth_moment
    codebook.fourth_moment = lambda a: count.append(len(a)) or real(a)
    try:
        fn()
    finally:
        codebook.fourth_moment = real
    return sum(count)


def _iteration_row(gains, words, model, power, repeat, number):
    assign, _ = _assign(gains, words, model)

    def iteration():
        updated, fresh = codebook._update(gains, words, assign, model, power)
        return _assign(gains, updated, model, (assign, fresh))

    k, m, n = words.shape
    exact_pairs = _exact_pairs(iteration)
    # a large temporary that glibc hands back to the kernel on free is
    # faulted in again on the next call; the timing alone does not say so
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    median = median_us(iteration, repeat, number)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    return {"layer": "codebook.train_iteration", "m_antennas": m,
            "n_tones": n, "k_codewords": k, "batch": len(gains),
            "exact_pairs": exact_pairs,
            "minor_faults": faults / (repeat * number),
            "median_us": median}


def _point_taps():
    """figure-joint's config and every location's taps (15 x 3 draws)."""
    config = campaign.figure_config("figure-joint")
    locations = make_locations(
        config.n_locations, config.seed, config.channel_template,
        (config.pathloss_db_min, config.pathloss_db_max))
    return config, campaign._taps(config, locations)


def _point_stack(m, n):
    """figure-joint's (M, N) point: its grid and its (locations, draws,
    M, N) stack of fades, as run_campaign builds them."""
    config, taps = _point_taps()
    grid = config.tone_grid(n)
    return grid, campaign._point_channels(config, taps, m, grid)


def _session_row(model, seed, repeat, number):
    m = 4
    grid, stack = _point_stack(m, 8)
    # figure-joint draws a fade per frame
    locations, frames = stack.gains.shape[:2]
    full = gen_nested(m, grid, 2.0, max(SESSION_SIZES),
                      rng.stream(seed, rng.CODEBOOK))
    books = {k: full.prefix(k) for k in SESSION_SIZES}
    timing, link = FrameConfig(), LinkModel()

    def sessions(shared, streams=False):
        if shared:
            dcs, p_rfs = campaign._point_sweep(full, stack, frames, model)
        for k, book in books.items():
            if not shared:
                dcs, p_rfs = campaign._point_sweep(book, stack, frames,
                                                   model)
            take = np.r_[0, :k]
            run_session(timing, (dcs[..., take], p_rfs[..., take]), None,
                        link, [rng.stream(seed, rng.SESSION, k, s)
                               if streams else None
                               for s in range(locations)])

    return {"layer": "protocol.run_session", "m_antennas": m,
            "n_tones": grid.n_tones, "sessions": locations,
            "frames": frames, "k_sizes": list(SESSION_SIZES),
            "per_k_sweep_us": median_us(lambda: sessions(False), repeat,
                                        number),
            "with_streams_us": median_us(lambda: sessions(True, True),
                                         repeat, number),
            "median_us": median_us(lambda: sessions(True), repeat, number)}


def _channel_row(grid, seed, repeat, number):
    params, m = ChannelModelParams(seed=seed), 4
    return {"layer": "channel.realize_channel", "m_antennas": m,
            "n_tones": grid.n_tones,
            "median_us": median_us(lambda: realize_channel(params, m, grid),
                                   repeat, number)}


def _p_dc_texts(blocks):
    # each block's p_dc column formatted once, as run_campaign formats it
    return [list(map(campaign._FLOAT.__mod__, columns[0].ravel().tolist()))
            for _, columns in blocks]


def _summarize_row(index, blocks, repeat, number):
    # the detail file's rows, p_dc_w read back from its text
    p_dcs = _p_dc_texts(blocks)
    rows = [point + (label, frame, float(text))
            for (point, _), texts in zip(blocks, p_dcs)
            for label, frame, text in zip(*index, texts)]
    with tempfile.TemporaryDirectory() as out:
        path = os.path.join(out, "summary.csv")
        return {"layer": "campaign.summarize", "batch": len(rows),
                "median_us": median_us(
                    lambda: campaign.summarize(rows, path), repeat, number),
                "blocks_us": median_us(
                    lambda: campaign._summarize(
                        campaign._block_groups(index, blocks, p_dcs), path),
                    repeat, number)}


def _write_csv_row(index, blocks, repeat, number):
    with tempfile.TemporaryDirectory() as out:
        detail = os.path.join(out, "detail.csv")
        summary = os.path.join(out, "summary.csv")

        def write():
            p_dcs = _p_dc_texts(blocks)
            campaign._summarize(campaign._block_groups(index, blocks, p_dcs),
                                summary)
            campaign._write_detail(detail, index, blocks, p_dcs)

        return {"layer": "campaign.write_csv",
                "batch": sum(columns[0].size for _, columns in blocks),
                "blocks": len(blocks),
                "median_us": median_us(write, repeat, number)}


def _point_channels_row(repeat, number):
    m, n = 4, 8
    config, taps = _point_taps()
    grid, params = config.tone_grid(n), config.channel_template

    def per_fade():
        return [ChannelRealization(grid=grid, gains=frequency_response(
                    t[:m], params, grid)) for draws in taps for t in draws]

    return {"layer": "campaign.point_channels", "m_antennas": m,
            "n_tones": n, "batch": taps.shape[0] * taps.shape[1],
            "per_fade_us": median_us(per_fade, repeat, number),
            "median_us": median_us(
                lambda: campaign._point_channels(config, taps, m, grid),
                repeat, number)}


def _smf_row(model, repeat, number):
    m = 4
    grid, stack = _point_stack(m, 8)
    fades = [ChannelRealization(grid=grid, gains=gains)
             for gains in stack.gains.reshape(-1, m, grid.n_tones)]
    smf = SmfParams(power_budget=campaign.figure_config(
        "figure-joint").transmit_power_w)

    def rate(channel):
        tones = effective_tones(channel, smf_weights(channel, smf))
        return _dc_power(model, tones, grid), received_rf_power(tones)

    return {"layer": "strategies.smf_weights", "m_antennas": m,
            "n_tones": grid.n_tones, "batch": len(fades),
            "per_channel_us": median_us(lambda: [rate(ch) for ch in fades],
                                        repeat, number),
            "median_us": median_us(lambda: rate(stack), repeat, number)}


def _table_point_row(repeat, number):
    m, n = 2, 8
    with tempfile.TemporaryDirectory() as out:
        # efficiency rising with power and with PAPR, over every power
        # and PAPR the point queries
        path = os.path.join(out, "efficiency.csv")
        lines = ["p_dbm,papr,eta"]
        for p_dbm in (-300.0, -150.0, -100.0, -60.0, -30.0, 0.0, 30.0):
            for q in (1.0, 2.0, 4.0, 8.0, 16.0, 24.0):
                eta = 0.7 / (1.0 + np.exp(-(p_dbm + 30.0 + 3.0 * np.log2(q))
                                          / 6.0))
                lines.append(f"{p_dbm!r},{q!r},{float(eta)!r}")
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
        config = campaign.CampaignConfig(
            antenna_counts=(1, 2), tone_counts=(1, 8), codebook_sizes=(2, 4),
            n_locations=2, frames_per_location=2, rectifier_model="table",
            table_path=path, adc_enabled=True,
            link_delivery_probability=0.8)
        model = campaign._rect_model(config)
    locations = make_locations(
        config.n_locations, config.seed, config.channel_template,
        (config.pathloss_db_min, config.pathloss_db_max))
    grid = config.tone_grid(n)
    sweep, _ = campaign._books(config, m, grid)
    stack = campaign._point_channels(
        config, campaign._taps(config, locations), m, grid)
    smf = SmfParams(power_budget=config.transmit_power_w)

    def point():
        campaign._point_sweep(sweep, stack, config.frames_per_location,
                              model)
        tones = effective_tones(stack, smf_weights(stack, smf))
        return _dc_power(model, tones, grid), received_rf_power(tones)

    # papr's calls and time in one warm point (the first builds the
    # phasor matrix), through the name dc_power_table resolves
    point()
    spans, real = [], rectenna.papr

    def timed(*args):
        start = perf_counter()
        try:
            return real(*args)
        finally:
            spans.append(perf_counter() - start)

    rectenna.papr = timed
    try:
        point()
    finally:
        rectenna.papr = real
    return {"layer": "campaign.table_point", "m_antennas": m, "n_tones": n,
            "batch": stack.gains[..., 0, 0].size,
            "k_codewords": sweep.k_codewords,
            "papr_calls": len(spans), "papr_us": 1e6 * sum(spans),
            "median_us": median_us(point, repeat, number)}


def _papr_row(n, gen, repeat, number):
    grid = ToneGrid.centered(2.4e9, 10e6, n)
    # amplitudes near -30 dBm received, inside the table's power axis
    tones = EffectiveTones(1e-3 * complex_normal(gen, n))
    table = EfficiencyTableModel(
        p_dbm=np.array([-60.0, -40.0, -20.0, 0.0]),
        papr_axis=np.array([1.0, 4.0, 16.0, 32.0]),
        eta=np.linspace(0.05, 0.6, 16).reshape(4, 4))

    def build():
        waveform._phasors.cache_clear()
        return waveform._phasors(grid, PAPR_OVERSAMPLING)

    build_s = Timer(build).repeat(repeat=repeat, number=1)
    build_peak_mb = peak_mb(build)
    e = waveform._phasors(grid, PAPR_OVERSAMPLING)
    return {"layer": "waveform.papr", "n_tones": n,
            "oversampling": PAPR_OVERSAMPLING,
            "build_ms": 1e3 * statistics.median(build_s),
            "build_peak_mb": build_peak_mb, "matrix_mb": e.nbytes / 1e6,
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
                         "peak_mb": peak_mb(lambda: tone_moments(a)),
                         "median_us": median_us(lambda: tone_moments(a),
                                                args.repeat, args.number)})
    m, n, c = 4, 8, 1000
    gains = complex_normal(gen, (c, m, n))
    words = _sphere(complex_normal(gen, (1, m, n)), 1.0)
    bounds = np.array([[0, c]])
    model = DiodeMomentModel()
    rows.append({"layer": "codebook._dc_and_grad", "m_antennas": m,
                 "n_tones": n, "batch": c,
                 "peak_mb": peak_mb(
                     lambda: _dc_and_grad(gains, words, bounds, model)),
                 "median_us": median_us(
                     lambda: _dc_and_grad(gains, words, bounds, model),
                     args.repeat, args.number)})
    k, power = 64, 2.0
    grid = ToneGrid.centered(2.4e9, 10e6, n)
    smf = SmfParams(power_budget=power)
    inputs = {}
    for pathloss_db in PATHLOSS_DB:
        params = ChannelModelParams(pathloss_db=pathloss_db, seed=args.seed)
        channels = [realize_channel(params, m, grid, frame=i)
                    for i in range(c)]
        gains = np.stack([ch.gains for ch in channels])
        words = [smf_weights(channels[int(i)], smf).weights
                 for i in gen.choice(c, size=k, replace=False)]
        stack, block = np.stack(words), codebook._ASSIGN_BLOCK
        inputs[pathloss_db] = gains, stack

        def full_matrix():
            dc = np.column_stack([model.dc(*tone_moments(
                _amplitudes(gains, w))) for w in words])
            return np.argmax(dc, axis=1)

        rows.append({"layer": "codebook._assign", "m_antennas": m,
                     "n_tones": n, "k_codewords": k, "batch": c,
                     "pathloss_db": pathloss_db,
                     "pairs_per_channel": _exact_pairs(
                         lambda: _assign(gains, words, model)) / c,
                     "full_matrix_us": median_us(full_matrix, args.repeat,
                                                 args.number),
                     "screen_us": median_us(
                         lambda: [codebook._screen(gains[s:s + block], stack)
                                  for s in range(0, c, block)],
                         args.repeat, args.number),
                     "median_us": median_us(
                         lambda: _assign(gains, words, model),
                         args.repeat, args.number)})
    rows.append(_iteration_row(*inputs[60.0], model, power, args.repeat,
                               args.number))
    rows.append(_session_row(model, args.seed, args.repeat, args.number))
    rows.append(_channel_row(grid, args.seed, args.repeat, args.number))
    config = campaign.figure_config("figure-joint")
    index, blocks = campaign._detail_rows(config,
                                          campaign._rect_model(config))
    rows.append(_summarize_row(index, blocks, args.repeat, args.number))
    rows.append(_write_csv_row(index, blocks, args.repeat, args.number))
    rows.append(_smf_row(model, args.repeat, args.number))
    rows.append(_point_channels_row(args.repeat, args.number))
    rows.append(_table_point_row(args.repeat, args.number))
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
                     f"{row['full_matrix_us']:.1f} us, screen "
                     f"{row['screen_us']:.1f} us, "
                     f"{row['pairs_per_channel']:.2f} of "
                     f"{row['k_codewords']} pairs exact")
        if "peak_mb" in row:
            line += f"  (peak {row['peak_mb']:.2f} MB)"
        if "exact_pairs" in row:
            line += (f"  ({row['exact_pairs']} exact pairs, "
                     f"{row['minor_faults']:.0f} minor faults)")
        if "papr_calls" in row:
            line += (f"  ({row['papr_calls']} papr calls, "
                     f"{row['papr_us']:.1f} us)")
        if "blocks_us" in row:
            line += f"  (from blocks: {row['blocks_us']:.1f} us)"
        if "per_fade_us" in row:
            line += f"  (per fade: {row['per_fade_us']:.1f} us)"
        if "per_channel_us" in row:
            line += f"  (per channel: {row['per_channel_us']:.1f} us)"
        if "per_k_sweep_us" in row:
            line += (f"  (sweep per K: {row['per_k_sweep_us']:.1f} us; "
                     f"with streams: {row['with_streams_us']:.1f} us)")
        if "build_ms" in row:
            line += (f"  (build {row['build_ms']:.2f} ms, peak "
                     f"{row['build_peak_mb']:.2f} of {row['matrix_mb']:.2f}"
                     f" MB; dc_power_table {row['table_us']:.1f} us)")
        print(line)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
