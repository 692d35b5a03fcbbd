"""In-memory spans around memdec's public entry points.

`Tracer.install` swaps `memdec.<module>.<function>` for a timing wrapper and
`Tracer.uninstall` puts the originals back. memdec's modules reach each other
through module attributes (`am.program_decoder`, `rd.accuracy`, ...) or module
globals (`train_fp` -> `accuracy`), so the swap sees every call, nested ones
included. Spans stay in memory until the run writes them out at the end.

A span's self time is its duration minus the time its child spans cover.
Calls are sequential (memdec starts no threads), so children never overlap
and the self times of all spans sum to the time covered by top-level spans.
"""

from __future__ import annotations

import importlib
import os
from collections import defaultdict
from time import perf_counter

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _train_samples(args, kwargs, result):
    # train_fp(dataset, val, config)
    return {"samples": len(_arg(args, kwargs, 0, "dataset"))
            * _arg(args, kwargs, 2, "config").epochs}


def _retrain_samples(args, kwargs, result):
    # retrain_*(params, dataset, val, config)
    return {"samples": len(_arg(args, kwargs, 1, "dataset"))
            * _arg(args, kwargs, 3, "config").epochs}


# (module, function) -> what to record per call. Recording keeps references
# and lengths only; derived figures (distinct rows, file sizes) are computed
# after the run, outside every span.
WRAPPED = {
    ("surface_code_sim", "generate_dataset"): lambda a, k, r: {"shots": len(r)},
    ("rnn_decoder", "train_fp"): _train_samples,
    ("rnn_decoder", "accuracy"): None,
    ("hwa_training", "retrain_hwa"): _retrain_samples,
    ("hwa_training", "retrain_ds"): _retrain_samples,
    ("analog_model", "program_decoder"): None,
    ("analog_model", "analog_accuracy"):
        lambda a, k, r: {"shots": len(_arg(a, k, 2, "events")),
                         "events": _arg(a, k, 2, "events")},
    ("evaluation", "evaluate_scheme"): None,
    ("evaluation", "fit_monomial"): None,
    ("io_formats", "save_dataset"): lambda a, k, r: {"path": _arg(a, k, 1, "path")},
    ("io_formats", "load_dataset"): lambda a, k, r: {"path": _arg(a, k, 0, "path")},
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "record", "failed")

    def __init__(self, name: str, parent: int):
        self.name, self.parent = name, parent
        self.start = self.end = 0.0
        self.record: dict = {}
        self.failed = False


class Tracer:
    """Span recorder for one traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, record):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            if record is not None:
                span.record = record(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for (mod_name, fn_name), record in WRAPPED.items():
            module = importlib.import_module(f"memdec.{mod_name}")
            original = getattr(module, fn_name)
            self._saved.append((module, fn_name, original))
            setattr(module, fn_name, self._wrap(f"{mod_name}.{fn_name}", original, record))

    def uninstall(self) -> None:
        while self._saved:
            module, fn_name, original = self._saved.pop()
            setattr(module, fn_name, original)

    def self_times(self) -> list[float]:
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def spans_json(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "self_s": own, "failed": s.failed,
                 **{k: v for k, v in s.record.items() if k != "events"}}
                for s, own in zip(self.spans, self.self_times())]


def _distinct_rows(events: np.ndarray) -> int:
    packed = np.packbits(events.reshape(len(events), -1).astype(np.uint8), axis=1)
    return len(np.unique(packed, axis=0))


def _zero() -> dict:
    return {"calls": 0, "self_s": 0.0, "failed": 0, "shots": 0, "samples": 0,
            "bytes": 0, "distinct": 0}


# span name, work counted per call, unit of the per-call time (None: omitted)
LAYERS = (
    ("surface_code_sim.generate_dataset", "shots", None),
    ("rnn_decoder.train_fp", "samples", None),
    ("rnn_decoder.accuracy", None, "ms"),
    ("hwa_training.retrain_hwa", "samples", None),
    ("hwa_training.retrain_ds", "samples", None),
    ("analog_model.program_decoder", None, "us"),
    ("analog_model.analog_accuracy", "shots", "ms"),
)
_PER_CALL_SCALE = {"ms": 1e3, "us": 1e6}


def layer_metrics(tracer: Tracer, reps: int,
                  p_inputs: dict[str, list[np.ndarray]]) -> dict:
    """Per-layer figures per traced repetition, as {name: (value, unit)}.

    `p_inputs` maps a fault-rate label to the test-set event arrays of that
    rate, so `unique_frac` can be split by p; a label without calls reads 0.
    """
    agg: dict[str, dict] = defaultdict(_zero)
    distinct: dict[int, int] = {}
    per_p = {label: [0, 0] for label in p_inputs}
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        a = agg[span.name]
        a["calls"] += 1
        a["self_s"] += self_s
        a["failed"] += span.failed
        a["shots"] += span.record.get("shots", 0)
        a["samples"] += span.record.get("samples", 0)
        if "path" in span.record:
            a["bytes"] += os.path.getsize(span.record["path"])
        events = span.record.get("events")
        if events is not None:
            if id(events) not in distinct:
                distinct[id(events)] = _distinct_rows(events)
            a["distinct"] += distinct[id(events)]
            for label, refs in p_inputs.items():
                if any(ref is events for ref in refs):
                    per_p[label][0] += distinct[id(events)]
                    per_p[label][1] += len(events)

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    m: dict[str, tuple[float, str]] = {}
    for name, work, per_call in LAYERS:
        a = agg[name]
        m[f"{name}.calls"] = (a["calls"] / reps, "count")
        if work:
            m[f"{name}.{work}"] = (a[work] / reps, "count")
        m[f"{name}.self_s"] = (a["self_s"] / reps, "s")
        if work:
            m[f"{name}.{work}_per_s"] = (ratio(a[work], a["self_s"]), "1/s")
        if per_call:
            m[f"{name}.{per_call}_per_call"] = (
                ratio(a["self_s"], a["calls"], _PER_CALL_SCALE[per_call]), per_call)
    a = agg["analog_model.analog_accuracy"]
    m["analog_model.analog_accuracy.unique_frac"] = (ratio(a["distinct"], a["shots"]), "frac")
    for label, (d, n) in per_p.items():
        m[f"analog_model.analog_accuracy.unique_frac.{label}"] = (ratio(d, n), "frac")
    a = agg["evaluation.evaluate_scheme"]
    m["evaluation.evaluate_scheme.calls"] = (a["calls"] / reps, "count")
    m["evaluation.evaluate_scheme.failed"] = (a["failed"] / reps, "count")
    m["evaluation.evaluate_scheme.self_s"] = (a["self_s"] / reps, "s")
    a = agg["evaluation.fit_monomial"]
    m["evaluation.fit_monomial.us_per_call"] = (ratio(a["self_s"], a["calls"], 1e6), "us")
    for name in ("io_formats.save_dataset", "io_formats.load_dataset"):
        a = agg[name]
        m[f"{name}.MB_per_s"] = (ratio(a["bytes"], a["self_s"], 1e-6), "MB/s")
    return m
