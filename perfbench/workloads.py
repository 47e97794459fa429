"""The benchmark's workloads: set-up from a seed, the main call, the checks.

``prepare(name, seed, workdir)`` draws or writes every input the workload
needs and returns the main call (a public wptsim entry point, looked up on
its module at call time so a tracer can wrap it) together with a check that
digests the output.  wptsim must already be importable.

Sizes are fixed per workload so that every seed does the same amount of
work; ``tiny`` shrinks them for the self-test.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import statistics
from time import perf_counter
from typing import Callable

import numpy as np

# Lloyd training: M=4, N=8, K=64 on 1000 channels.  Training stops early
# once the assignment is stable, after anywhere from 15 to 30 alternations
# depending on the seed, so the alternations are capped at 12 to give every
# seed the same amount of work.
LLOYD = {"m": 4, "n": 8, "k": 64, "train": 1000, "held": 500, "iters": 12}
LLOYD_TINY = {"m": 2, "n": 2, "k": 4, "train": 40, "held": 20, "iters": 3}
POWER_W = 2.0


@dataclasses.dataclass
class Prepared:
    """A workload ready to run: its main call and the check of its result."""

    main: Callable[[], object]
    check: Callable[[object], dict]
    #: work items the main call completes (frames, or channel-iterations)
    items: Callable[[dict], int]
    #: errors found in the per-layer metrics of a traced run
    check_layers: Callable[[dict], list] = lambda layers: []


def prepare(name: str, seed: int, workdir: str, tiny: bool = False) -> Prepared:
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    os.makedirs(workdir, exist_ok=True)
    if name == "campaign-joint":
        return _campaign_joint(seed, workdir, tiny)
    if name == "campaign-table":
        return _campaign_table(seed, workdir, tiny)
    if name == "lloyd-m4n8k64":
        return _lloyd(seed, workdir, tiny)
    raise ValueError(f"unknown workload {name!r}")


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# campaigns

def _run_campaign(config, workdir: str):
    from wptsim import campaign
    return campaign.run_campaign(config, out_dir=os.path.join(workdir, "out"),
                                 jobs=1)


def _expected_rows(config) -> int:
    per_point = config.n_locations * config.frames_per_location
    points = sum(len(config.codebook_sizes) if s == "LIMITED" else 1
                 for s in config.strategies)
    return (points * len(config.antenna_counts) * len(config.tone_counts)
            * per_point)


def _check_campaign(config, paths) -> dict:
    from wptsim import campaign
    detail_path, summary_path = paths
    with open(detail_path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    errors = []
    if not lines or lines[0] != campaign.DETAIL_HEADER:
        errors.append("detail.csv header")
    rows = len(lines) - 1
    if rows != _expected_rows(config):
        errors.append(f"detail.csv has {rows} rows, expected "
                      f"{_expected_rows(config)}")
    return {"digest": {"detail": sha256(detail_path),
                       "summary": sha256(summary_path)},
            "rows": rows, "detail_bytes": os.path.getsize(detail_path),
            "errors": errors, "detail_lines": lines}


def _campaign_joint(seed: int, workdir: str, tiny: bool) -> Prepared:
    """The figure-joint sweep: moment rectifier, nested codebooks."""
    from wptsim import campaign
    config = campaign.figure_config("figure-joint", seed=seed)
    if tiny:
        config = dataclasses.replace(
            config, antenna_counts=(1, 2), tone_counts=(1, 2),
            codebook_sizes=(2, 4), n_locations=2, frames_per_location=2)

    def check(paths):
        out = _check_campaign(config, paths)
        del out["detail_lines"]
        return out
    return Prepared(main=lambda: _run_campaign(config, workdir), check=check,
                    items=lambda result: result["rows"])


# The synthetic efficiency table spans every power and PAPR the table
# campaign can query, so no lookup clamps: PAPR lies in [1, 2N] and the
# power axis reaches far below the deepest fade.
TABLE_P_DBM = np.concatenate([[-300.0, -200.0, -150.0, -120.0],
                              np.arange(-100.0, 25.0, 5.0)])
TABLE_PAPR = np.array([1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0])


def write_table(path, seed: int) -> None:
    """A rectifier efficiency table drawn from the seed, as wptsim reads it.

    Efficiency is a logistic curve in input power whose knee moves to lower
    power as PAPR grows (the multi-sine gain), with seed-drawn shape
    parameters and a few percent of seed-drawn ripple.
    """
    gen = np.random.default_rng([seed, 0x7AB1E])
    eta_max = gen.uniform(0.55, 0.8)
    knee_dbm = gen.uniform(-35.0, -25.0)
    width_db = gen.uniform(4.0, 8.0)
    papr_shift_db = gen.uniform(2.0, 5.0)
    p = TABLE_P_DBM[:, None]
    q = TABLE_PAPR[None, :]
    x = (p - knee_dbm + papr_shift_db * np.log2(q)) / width_db
    eta = eta_max / (1.0 + np.exp(-x))
    eta = np.clip(eta * (1.0 + 0.05 * gen.uniform(-1.0, 1.0, eta.shape)),
                  0.0, 1.0)
    lines = ["p_dbm,papr,eta"]
    for i, p_val in enumerate(TABLE_P_DBM):
        for j, q_val in enumerate(TABLE_PAPR):
            lines.append(f"{float(p_val)!r},{float(q_val)!r},{float(eta[i, j])!r}")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _campaign_table(seed: int, workdir: str, tiny: bool) -> Prepared:
    """A reduced sweep on the table rectifier with the ADC and a lossy link.

    RF-sampled PAPR at N=8 dominates its time; the moment kernel is not on
    its path.  Two frames per location exercise the previous-codeword
    fallback after a lost feedback message.
    """
    from wptsim import campaign
    table_path = os.path.join(workdir, "efficiency.csv")
    write_table(table_path, seed)
    config = campaign.CampaignConfig(
        antenna_counts=(1, 2), tone_counts=(1, 2) if tiny else (1, 8),
        codebook_sizes=(2, 4), n_locations=1 if tiny else 2,
        frames_per_location=2, seed=seed, rectifier_model="table",
        table_path=table_path, adc_enabled=True,
        link_delivery_probability=0.8)

    def check(paths):
        out = _check_campaign(config, paths)
        lines = out.pop("detail_lines")
        # an ADC that reads code 0 everywhere ties every frame, and the
        # lowest-index tie-break then turns LIMITED into UP
        selected = {line.split(",")[8] for line in lines[1:]
                    if line.startswith("LIMITED,")}
        if selected <= {"1"}:
            out["errors"].append("every LIMITED frame selected codeword 1")
        return out

    def check_layers(layers):
        errors = []
        if layers["rectenna.table_clamps"]:
            errors.append(f"{layers['rectenna.table_clamps']} table lookups "
                          f"clamped; the table does not cover the workload")
        if layers["rectenna.adc_zero_codes"] == layers["rectenna.adc_readings"]:
            errors.append("every ADC reading is code 0")
        return errors
    return Prepared(main=lambda: _run_campaign(config, workdir), check=check,
                    items=lambda result: result["rows"],
                    check_layers=check_layers)


# ---------------------------------------------------------------------------
# Lloyd training

def dc_from_tones(a: np.ndarray, model) -> np.ndarray:
    """Moment-model dc power of effective tones a (..., N), shape (...).

    Written independently of wptsim's kernels, as the reference the
    held-out check uses: m4 = (3/8) sum_k |c_k|^2 for the autoconvolution
    c of the tones, summed through Parseval over an FFT of length 2N-1,
    which holds the whole linear autoconvolution.
    """
    length = 2 * a.shape[-1] - 1
    spectrum = np.fft.fft(a, length, axis=-1)
    m2 = 0.5 * np.sum(np.abs(a) ** 2, axis=-1)
    m4 = 0.375 * np.sum(np.abs(spectrum) ** 4, axis=-1) / length
    z = model.k2 * m2 + model.k4 * m4
    return model.alpha * z * z


def _lloyd(seed: int, workdir: str, tiny: bool) -> Prepared:
    """train_lloyd at M=4, N=8, K=64 on channels drawn with realize_channel."""
    from wptsim import channel, codebook, rectenna, strategies, waveform
    from wptsim import rng as rngmod
    size = LLOYD_TINY if tiny else LLOYD
    grid = waveform.ToneGrid.centered(2.4e9, 10e6, size["n"])
    params = channel.ChannelModelParams(pathloss_db=60.0, seed=seed)
    training = [channel.realize_channel(params, size["m"], grid, frame=i)
                for i in range(size["train"])]
    model = rectenna.DiodeMomentModel()
    gen = rngmod.stream(seed, rngmod.TRAINING)
    marks: list = []

    def on_iteration(iteration, objective):
        marks.append((perf_counter(), objective))

    def main():
        marks.append((perf_counter(), None))
        return codebook.train_lloyd(training, size["k"], model,
                                    iters=size["iters"], rng=gen,
                                    power=POWER_W, on_iteration=on_iteration)

    def check(book) -> dict:
        errors = []
        path = os.path.join(workdir, "codebook.cb")
        codebook.save_codebook(book, path)
        weights = np.stack([e.weights for e in book.entries])
        power = 0.5 * np.sum(np.abs(weights) ** 2, axis=(1, 2))
        if book.k_codewords != size["k"] or \
                np.any(np.abs(power - POWER_W) > 1e-9 * POWER_W):
            errors.append("codewords off the power sphere")
        objectives = [obj for _, obj in marks[1:]]
        if not 1 <= len(objectives) <= size["iters"]:
            errors.append(f"{len(objectives)} iterations reported")
        if any(b < a * (1.0 - 1e-12) for a, b in zip(objectives,
                                                       objectives[1:])):
            errors.append("training objective decreased")
        # held-out channels: frames after the training set's
        held = [channel.realize_channel(params, size["m"], grid,
                                        frame=size["train"] + i)
                for i in range(size["held"])]
        gains = np.stack([c.gains for c in held])
        smf = strategies.SmfParams(beta=3.0, power_budget=POWER_W)
        smf_w = np.stack([strategies.smf_weights(c, smf).weights
                          for c in held])
        best = dc_from_tones(np.einsum("cmn,kmn->ckn", gains, weights),
                             model).max(axis=1).mean()
        ref = dc_from_tones(np.einsum("cmn,cmn->cn", gains, smf_w),
                            model).mean()
        times = [t for t, _ in marks]
        return {"digest": {"codebook": sha256(path)},
                "iterations": len(objectives),
                "objective": objectives[-1] if objectives else None,
                "heldout_gap_db": float(10.0 * np.log10(best / ref)),
                "iteration_s": statistics.median(
                    [b - a for a, b in zip(times, times[1:])] or [0.0]),
                "k": size["k"], "train": size["train"], "errors": errors}
    return Prepared(main=main, check=check,
                    items=lambda result: result["train"] * result["iterations"])
