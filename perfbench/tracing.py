"""Outside-in layer tracing: spans around the public entry points of ``repro``.

:func:`install` rebinds each traced function or method, in every ``repro.*``
module that holds it, to a wrapper that records one span per call.  The
program itself is not edited: the benchmark wraps the calls into each layer
from its own files.

A span is ``[name, start, end, parent, run_id]``.  Spans stay in a list in
memory and are written out once, by the process that recorded them, at the
end of its work.  A span's *self* time is its duration minus the durations
of its direct children; calls on one thread nest, so children never overlap.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

# (owner module, attribute, span name) for plain functions.  Every module
# that imported the function by name is rebound as well.
FUNCTIONS = [
    ("repro.core.losses", "subgraph_loss", "core.subgraph_loss"),
    ("repro.graph.khop", "khop_edge_index", "graph.khop"),
    ("repro.graph.sampling", "sample_negative_sets", "graph.negatives"),
    ("repro.graph.minibatch", "extract_phase1_batch", "graph.extract"),
    ("repro.graph.minibatch", "extract_phase2_batch", "graph.extract"),
    ("repro.resilience.snapshot", "save_snapshot", "resilience.save"),
    ("repro.serve.state", "load_serving_state", "serve.load_state"),
]

# (owner module, class, method, span name) for methods.
METHODS = [
    ("repro.tensor.tensor", "Tensor", "backward", "tensor.backward"),
    ("repro.tensor.optim", "Adam", "step", "optim.step"),
    ("repro.core.mask_generator", "MaskGenerator", "feature_mask", "core.mask_feature"),
    ("repro.core.mask_generator", "MaskGenerator", "structure_mask", "core.mask_structure"),
    ("repro.core.mask_generator", "MaskGenerator", "negative_mask", "core.mask_negative"),
    ("repro.core.ses", "SESTrainer", "__init__", "core.trainer_init"),
    ("repro.core.ses", "SESTrainer", "build_pairs", "core.build_pairs"),
    ("repro.core.ses", "SESTrainer", "train_explainable", "core.explainable"),
    ("repro.core.ses", "SESTrainer", "train_predictive", "core.predictive"),
]


class SpanRecorder:
    """In-memory span list with a parent stack (single-threaded callers)."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[tuple, float] = defaultdict(float)  # (run_id, key)
        self.epoch_seconds: List[float] = []
        self.run_id = "main"
        self._stack: List[int] = []

    def wrap(self, fn: Callable, name: Callable[..., str], count=None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name(args, kwargs), clock(), 0.0,
                          stack[-1] if stack else -1, self.run_id])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if count is not None:
                key, amount = count(args, kwargs, result)
                self.counts[self.run_id, key] += amount
            return result

        return traced

    # ------------------------------------------------------------------
    def self_times(self, run_id: Optional[str] = None) -> Dict[str, dict]:
        """``{name: {"calls", "total_s", "self_s"}}`` over one run's spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: Dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for index, (name, start, end, _, run) in enumerate(self.spans):
            if run_id is not None and run != run_id:
                continue
            row = table[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[index]
        return dict(table)

    def export(self) -> List[list]:
        return [list(span) for span in self.spans]


def _pairs_counted(args, kwargs, result):
    return "core.pairs_scored", int(args[2].shape[1])


def _halo_counted(args, kwargs, result):
    # Phase-1 batches only: k-hop pairs kept by the extraction.
    khop = getattr(result, "khop_edges", None)
    return "graph.halo_pairs", 0 if khop is None else int(khop.shape[1])


def _forward_name(args, kwargs):
    weighted = kwargs.get("edge_weight", args[4] if len(args) > 4 else None)
    return "nn.plain_forward" if weighted is None else "nn.masked_forward"


def install(recorder: SpanRecorder) -> None:
    """Wrap every traced entry point; imports the ``repro`` packages."""
    import importlib

    def rebind(original: Callable, wrapper: Callable) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    for module_name, attr, span in FUNCTIONS:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        count = _halo_counted if attr == "extract_phase1_batch" else None
        rebind(original, recorder.wrap(original, lambda a, k, s=span: s, count))

    for module_name, cls_name, method, span in METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        original = cls.__dict__[method]
        count = _pairs_counted if method in ("structure_mask", "negative_mask") else None
        setattr(cls, method, recorder.wrap(original, lambda a, k, s=span: s, count))

    encoder = importlib.import_module("repro.nn.encoder").GraphEncoder
    encoder.forward_full = recorder.wrap(encoder.__dict__["forward_full"], _forward_name)

    # Epoch times through the trainer's public callback hook.
    trainer_cls = importlib.import_module("repro.core.ses").SESTrainer
    explainable = trainer_cls.train_explainable

    def with_epoch_clock(self, *args, **kwargs):
        if kwargs.get("callback") is None:
            last = [time.perf_counter()]

            def callback(epoch, loss):
                now = time.perf_counter()
                recorder.epoch_seconds.append(now - last[0])
                last[0] = now

            kwargs["callback"] = callback
        return explainable(self, *args, **kwargs)

    trainer_cls.train_explainable = functools.wraps(explainable)(with_epoch_clock)


def layer_metrics(recorder: SpanRecorder, full_khop_pairs: int, epochs: int) -> Dict[str, float]:
    """Training-layer metrics from the spans of the ``train`` run (set-up and
    fit); snapshot writes come from the ``snapshots`` run."""
    table = recorder.self_times("train")
    saves = recorder.self_times("snapshots").get("resilience.save", {})

    def self_s(name):
        return table.get(name, {}).get("self_s", 0.0)

    def total_s(name):
        return table.get(name, {}).get("total_s", 0.0)

    explainable_total = total_s("core.explainable")
    halo = recorder.counts.get(("train", "graph.halo_pairs"), 0.0)
    return {
        "tensor.backward_s": self_s("tensor.backward"),
        "tensor.backward_calls": table.get("tensor.backward", {}).get("calls", 0),
        "optim.step_s": self_s("optim.step"),
        "nn.plain_forward_s": self_s("nn.plain_forward"),
        "nn.masked_forward_s": self_s("nn.masked_forward"),
        "core.mask_feature_s": self_s("core.mask_feature"),
        "core.mask_structure_s": self_s("core.mask_structure"),
        "core.mask_negative_s": self_s("core.mask_negative"),
        "core.pairs_scored": recorder.counts.get(("train", "core.pairs_scored"), 0.0),
        "core.subgraph_loss_s": self_s("core.subgraph_loss"),
        "core.build_pairs_s": self_s("core.build_pairs"),
        "core.explainable_s": explainable_total,
        "core.predictive_s": total_s("core.predictive"),
        "core.explainable_epoch_ms": 1e3 * statistics.median(recorder.epoch_seconds)
        if recorder.epoch_seconds else 0.0,
        "core.trainer_init_s": total_s("core.trainer_init"),
        "graph.khop_s": self_s("graph.khop"),
        "graph.negatives_s": self_s("graph.negatives"),
        "graph.extract_s": self_s("graph.extract"),
        "graph.extract_calls": table.get("graph.extract", {}).get("calls", 0),
        "graph.halo_ratio": halo / (epochs * full_khop_pairs) if full_khop_pairs else 0.0,
        "resilience.save_s": saves.get("total_s", 0.0),
        "trace.explainable_coverage": 1.0 - self_s("core.explainable") / explainable_total
        if explainable_total else 0.0,
        "trace.spans": len(recorder.spans),
    }
