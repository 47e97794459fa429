"""Span tracer that wraps wptsim's public functions from outside the package.

Each target is a (module, attribute) pair naming the place where a caller
resolves the function at call time, e.g. ``wptsim.protocol.effective_tones``
is the name ``protocol.run_frame`` looks up.  While the tracer is installed
every call through such a name records one span: name, start, end and the
index of the enclosing span (-1 at the top).  Spans live in compact arrays
in memory and are written out once, after the run.  ``uninstall`` puts the
original functions back and checks that it did.

A few boundaries also feed event counters (ADC readings, table clamps,
frames); the arguments and results they need are kept by reference and
digested after the run, so the counting adds no time inside a span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from time import perf_counter

import numpy as np

# (span name, module, attribute).  A function imported into several modules
# is wrapped in each of them under one span name.
TARGETS = (
    ("campaign.run_campaign", "wptsim.campaign", "run_campaign"),
    ("campaign.summarize", "wptsim.campaign", "summarize"),
    ("protocol.run_session", "wptsim.campaign", "run_session"),
    ("protocol.run_frame", "wptsim.protocol", "run_frame"),
    ("rectenna.dc_power_moment", "wptsim.protocol", "dc_power_moment"),
    ("rectenna.dc_power_table", "wptsim.protocol", "dc_power_table"),
    ("rectenna.measure_dc", "wptsim.protocol", "measure_dc"),
    ("waveform.effective_tones", "wptsim.protocol", "effective_tones"),
    ("waveform.effective_tones", "wptsim.campaign", "effective_tones"),
    ("waveform.received_rf_power", "wptsim.protocol", "received_rf_power"),
    ("waveform.received_rf_power", "wptsim.campaign", "received_rf_power"),
    ("waveform.received_rf_power", "wptsim.rectenna", "received_rf_power"),
    ("waveform.waveform_moments", "wptsim.rectenna", "waveform_moments"),
    ("waveform.papr", "wptsim.rectenna", "papr"),
    ("strategies.up_weights", "wptsim.campaign", "up_weights"),
    ("strategies.up_weights", "wptsim.codebook", "up_weights"),
    ("strategies.smf_weights", "wptsim.campaign", "smf_weights"),
    ("strategies.smf_weights", "wptsim.codebook", "smf_weights"),
    ("strategies.select_codeword", "wptsim.protocol", "select_codeword"),
    ("strategies.feedback_bits", "wptsim.protocol", "feedback_bits"),
    ("codebook.gen_nested", "wptsim.campaign", "gen_nested"),
    ("codebook.gen_random", "wptsim.campaign", "gen_random"),
    ("codebook.train_lloyd", "wptsim.campaign", "train_lloyd"),
    ("codebook.train_lloyd", "wptsim.codebook", "train_lloyd"),
    ("channel.make_locations", "wptsim.campaign", "make_locations"),
    ("channel.sample_taps", "wptsim.campaign", "sample_taps"),
    ("channel.frequency_response", "wptsim.campaign", "frequency_response"),
    ("channel.realize_channel", "wptsim.channel", "realize_channel"),
    ("channel.sample_taps", "wptsim.channel", "sample_taps"),
    ("channel.frequency_response", "wptsim.channel", "frequency_response"),
    ("rng.stream", "wptsim.rng", "stream"),
    ("rng.derive_seed", "wptsim.rng", "derive_seed"),
)


class Tracer:
    """Install span wrappers on TARGETS; restore them on uninstall."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self._patched: list[tuple] = []
        self.skipped: list[str] = []
        # raw material for the event counters, digested after the run
        self.frames: list[tuple] = []
        self.adc_codes = array("q")
        self.table_clamps = 0

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def install(self) -> None:
        for span, module_name, attr in self.targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                # the program no longer resolves this name here; say so
                # rather than fail, so a refactor keeps the benchmark usable
                self.skipped.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, span))
            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)
            if getattr(module, attr) is not original:
                raise RuntimeError(f"could not restore {module.__name__}.{attr}")

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, span: str):
        nid = self._name_id(span)
        stack, name_ids, parents = self._stack, self.name_ids, self.parents
        starts, ends = self.starts, self.ends
        call = fn
        if span == "rectenna.dc_power_table":
            call = self._table_with_diag(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return call(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        if span == "protocol.run_frame":
            signature = inspect.signature(fn)
            frames = self.frames

            @functools.wraps(fn)
            def frame_observed(*args, **kwargs):
                report = traced(*args, **kwargs)
                frames.append((signature, args, kwargs, report))
                return report
            return frame_observed
        if span == "rectenna.measure_dc":
            codes = self.adc_codes

            @functools.wraps(fn)
            def adc_observed(*args, **kwargs):
                reading = traced(*args, **kwargs)
                codes.append(reading[0])
                return reading
            return adc_observed
        return traced

    def _table_with_diag(self, fn):
        # the campaign passes no TableDiagnostics; supply one so clamped
        # queries are counted.  The flags do not feed back into the result.
        from wptsim.rectenna import TableDiagnostics

        def table(*args, **kwargs):
            if len(args) > 4 or kwargs.get("diag") is not None:
                return fn(*args, **kwargs)
            diag = TableDiagnostics()
            result = fn(*args, diag=diag, **kwargs)
            if diag.clamped:
                self.table_clamps += 1
            return result
        return table

    # ------------------------------------------------------------------
    # after the run

    def span_arrays(self) -> dict:
        """Spans as numpy arrays: name index, parent index, start, end."""
        return {"name_id": np.array(self.name_ids, dtype=np.int32),
                "parent": np.array(self.parents, dtype=np.int32),
                "start": np.array(self.starts, dtype=np.float64),
                "end": np.array(self.ends, dtype=np.float64)}

    def by_name(self) -> dict:
        """{span name: (calls, total seconds, self seconds)}.

        Self time is a span's duration minus the durations of its direct
        children, so each traced second is counted once.
        """
        s = self.span_arrays()
        dur = s["end"] - s["start"]
        has_parent = s["parent"] >= 0
        child = np.bincount(s["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(s["name_id"], minlength=k)
        total = np.bincount(s["name_id"], weights=dur, minlength=k)
        own_by = np.bincount(s["name_id"], weights=own, minlength=k)
        return {name: (int(calls[i]), float(total[i]), float(own_by[i]))
                for i, name in enumerate(self.names)}

    def child_calls(self, child: str, parent: str) -> int:
        """Spans named ``child`` whose direct parent is named ``parent``."""
        if child not in self._name_ids or parent not in self._name_ids:
            return 0
        s = self.span_arrays()
        has_parent = s["parent"] >= 0
        parent_name = np.full(s["parent"].shape, -1, dtype=np.int32)
        parent_name[has_parent] = s["name_id"][s["parent"][has_parent]]
        return int(np.count_nonzero(
            (s["name_id"] == self._name_ids[child])
            & (parent_name == self._name_ids[parent])))

    def frame_counts(self) -> dict:
        """Counters over the traced protocol frames."""
        evals = lost = tied = 0
        pairs = set()
        entry_keys: dict = {}
        for signature, args, kwargs, report in self.frames:
            bound = signature.bind(*args, **kwargs).arguments
            channel_key = hash(bound["channel"].gains.tobytes())
            for entry in bound["codebook"].entries:
                key = entry_keys.get(id(entry))
                if key is None:
                    key = entry_keys[id(entry)] = hash(entry.weights.tobytes())
                pairs.add((channel_key, key))
            readings = report.measurements
            evals += len(readings)
            lost += not report.feedback_delivered
            tied += readings.count(max(readings)) > 1
        return {"frames": len(self.frames), "codeword_evals": evals,
                "unique_pairs": len(pairs), "feedback_lost": lost,
                "tied_frames": tied}

    def save(self, path) -> None:
        """Write the spans and the name table to an .npz file."""
        np.savez_compressed(path, names=np.array(self.names),
                            **self.span_arrays())
