"""Self-test of the benchmark at tiny sizes: python3 -m pytest -q perfbench"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_tracer_wraps_and_restores():
    originals = {(m, a): getattr(importlib.import_module(m), a)
                 for _, m, a in spans.TARGETS}
    with spans.Tracer() as tracer:
        for (module, attr), fn in originals.items():
            wrapped = getattr(importlib.import_module(module), attr)
            assert wrapped is not fn and wrapped.__wrapped__ is fn
        from wptsim import rng
        rng.stream(1, 2)
    assert tracer.skipped == []
    for (module, attr), fn in originals.items():
        assert getattr(importlib.import_module(module), attr) is fn
    assert tracer.by_name()["rng.stream"][0] == 1


def test_self_time_excludes_children():
    tracer = spans.Tracer(targets=())
    outer = tracer._wrap(lambda: inner(), "outer")
    inner = tracer._wrap(lambda: sum(range(10000)), "inner")
    outer()
    by_name = tracer.by_name()
    calls, total, own = by_name["outer"]
    assert calls == 1
    assert own == pytest.approx(total - by_name["inner"][1])


def test_reference_dc_matches_wptsim():
    from wptsim import (ChannelModelParams, DiodeMomentModel, ToneGrid,
                        dc_power_moment, effective_tones, gen_random,
                        realize_channel, stream)
    grid = ToneGrid.centered(2.4e9, 10e6, 8)
    model = DiodeMomentModel()
    params = ChannelModelParams(pathloss_db=0.0, seed=5)
    channels = [realize_channel(params, 3, grid, frame=i) for i in range(4)]
    book = gen_random(3, grid, 2.0, 5, stream(5, 4))
    gains = np.stack([c.gains for c in channels])
    weights = np.stack([e.weights for e in book.entries])
    ours = workloads.dc_from_tones(
        np.einsum("cmn,kmn->ckn", gains, weights), model)
    theirs = [[dc_power_moment(model, effective_tones(c, e), grid)
               for e in book.entries] for c in channels]
    np.testing.assert_allclose(ours, theirs, rtol=1e-12)


def test_golden_digest_is_the_committed_csvs():
    golden = os.path.join(ROOT, "out", "figure-joint")
    if not os.path.isdir(golden):
        pytest.skip("checkout holds no out/figure-joint")
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        recorded = json.load(fh)["workloads"]["campaign-joint"]
    for name in ("detail", "summary"):
        with open(os.path.join(golden, f"{name}.csv"), "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        assert recorded[str(run.DEFAULT_SEED)][name] == digest


def test_table_covers_the_papr_range(tmp_path):
    path = tmp_path / "eta.csv"
    workloads.write_table(path, 3)
    from wptsim import EfficiencyTableModel
    table = EfficiencyTableModel.from_csv(path)
    assert table.papr_axis[0] <= 1.0 and table.papr_axis[-1] >= 2 * 8
    assert np.all((table.eta >= 0) & (table.eta <= 1))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_reports_end_to_end_metrics(workload):
    result = result_of(bench("--workload", workload, "--seed", "3",
                             "--seconds", "0", "--trace", "0", "--tiny"))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 3
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_reports_every_layer(workload):
    result = result_of(bench("--workload", workload, "--seed", "3",
                             "--seconds", "0", "--trace", "1", "--tiny"))
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in BENCH["per_layer"]}
    if workload == "campaign-table":
        assert metrics["waveform.papr.calls"]["value"] > 0
        assert metrics["rectenna.table_clamps"]["value"] == 0
        assert metrics["rectenna.adc_zero_codes"]["value"] < \
            metrics["rectenna.adc_readings"]["value"]
    elif workload == "campaign-joint":
        assert metrics["waveform.waveform_moments.calls"]["value"] > 0
        assert metrics["protocol.unique_eval_ratio"]["value"] < 1
    else:
        assert metrics["codebook.lloyd_iterations"]["value"] == 3
        assert metrics["protocol.frames"]["value"] == 0


def test_output_mismatch_fails_the_run(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    expected_path = tmp_path / "perfbench" / "expected.json"
    expected = json.loads(expected_path.read_text())
    expected["workloads"]["campaign-joint"]["3"] = {"detail": "0",
                                                    "summary": "0"}
    expected_path.write_text(json.dumps(expected))
    result = result_of(bench("--workload", "campaign-joint", "--seed", "3",
                             "--seconds", "0", "--trace", "0",
                             cwd=tmp_path))
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("--workload", "campaign-joint", "--seed", "1", "--seconds",
                 "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
