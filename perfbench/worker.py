"""One measured training process, started fresh by ``perfbench/run.py``.

Usage: ``python perfbench/worker.py '<json spec>'``.  The spec names how far
to go (``setup`` stops after ``SESTrainer.__init__``, ``fit`` after the
checked fit, ``reference`` after writing two snapshots and loading each in
process as the reference answers), the trainer seed, the epochs, the batch
size and whether to trace.  The last line of standard output is one JSON
object.

The graph and its split are the Cora-like graph at scale 1.0 with seed 0
(1000 nodes, 38,272 k-hop pairs): ``python -m repro serve`` rebuilds the
graph from the snapshot's ``config.seed``, so that seed stays 0 and the
benchmark seed drives the trainer's generator (weights, negatives, dropout).
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from tracing import SpanRecorder, install, layer_metrics

DATASET, SCALE, GRAPH_SEED = "cora", 1.0, 0
MIB = 1024.0 * 1024.0


def fingerprint() -> dict:
    """Versions and threading of the numeric stack this process runs on."""
    import ctypes
    import glob
    import os
    import platform

    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        getter = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.restype, getter.argtypes = ctypes.c_int, []
            threads = int(getter())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def op_metrics(profiler) -> dict:
    by_op = {row["op"]: row for row in profiler.records()}

    def seconds(op):
        row = by_op.get(op, {})
        return row.get("forward_seconds", 0.0) + row.get("backward_seconds", 0.0)

    alloc = profiler.alloc_summary()
    return {
        "tensor.matmul_s": seconds("__matmul__"),
        "tensor.gather_rows_s": seconds("gather_rows"),
        "tensor.concatenate_s": seconds("concatenate"),
        "tensor.alloc_mib": alloc["bytes_allocated"] / MIB,
        "tensor.peak_live_mib": alloc["peak_live_bytes"] / MIB,
    }


def main(spec: dict) -> dict:
    recorder = SpanRecorder() if spec["trace"] else None
    if recorder is not None:
        install(recorder)
        recorder.run_id = "train"

    from repro.core import SESTrainer, fast_config
    from repro.datasets import load_dataset
    from repro.graph import classification_split
    from repro.metrics import fidelity_plus
    from repro.obs import OpProfiler
    from repro.obs.metrics import default_registry
    from repro.utils import make_rng

    graph = classification_split(
        load_dataset(DATASET, scale=SCALE, seed=GRAPH_SEED), seed=GRAPH_SEED
    )
    config = fast_config(
        "gcn",
        seed=GRAPH_SEED,
        explainable_epochs=spec["explainable_epochs"],
        predictive_epochs=spec["predictive_epochs"],
    )
    trainer = SESTrainer(graph, config, rng=make_rng(spec["seed"]))
    out = {"setup_s": time.time() - spec["spawn_time"]}
    if spec["mode"] == "setup":
        return out

    profiler = OpProfiler() if recorder is not None else nullcontext()
    start = time.perf_counter()
    with profiler:
        result = trainer.fit(batch_size=spec["batch_size"])
    out["train_s"] = time.perf_counter() - start
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    history = result.history
    losses = history.phase1_loss + history.phase2_loss
    out["losses_finite"] = bool(losses) and all(math.isfinite(x) for x in losses)
    out["test_accuracy"] = float(result.test_accuracy)
    out["fidelity_plus"] = float(fidelity_plus(
        trainer.predict,
        graph.features,
        graph.labels,
        trainer.explanations().feature_explanation,
        top_k=5,
        mask=graph.test_mask,
    ))
    csr = default_registry().get("repro_csr_layout_cache_total")
    hits, misses = csr.value(result="hit"), csr.value(result="miss")
    out["host"] = fingerprint()
    if spec["mode"] == "fit":
        return out

    # Two snapshots after the masks froze: the fitted model, then one more
    # predictive epoch.  The server flips between them.
    if recorder is not None:
        recorder.run_id = "snapshots"
    directory = Path(spec["snapshot_dir"])
    first = trainer.save_snapshot_to(directory, phase="predictive")
    trainer.train_predictive(epochs=config.predictive_epochs + 1)
    second = trainer.save_snapshot_to(directory, phase="predictive")
    out["snapshots"] = [first.name, second.name]

    # Reference answers: an in-process ServingState of each snapshot.
    from repro.serve import load_serving_state

    if recorder is not None:
        recorder.run_id = "load"
    loads, expected = [], {}
    for path in [first, second] * (2 if recorder is not None else 1):
        begin = time.perf_counter()
        state = load_serving_state(path)
        loads.append(time.perf_counter() - begin)
        expected[state.snapshot_name] = state.predictions.tolist()
        out["degrees"] = [len(state.graph.neighbors(n)) for n in range(state.num_nodes)]
    out["expected"] = expected

    if recorder is not None:
        layers = layer_metrics(recorder, trainer.khop_edges.shape[1], config.explainable_epochs)
        layers.update(op_metrics(profiler))
        layers["tensor.csr_cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        layers["serve.load_state_s"] = statistics.median(loads)
        layers["resilience.snapshot_mib"] = first.stat().st_size / MIB
        out["layers"] = layers
        out["spans"] = recorder.export()
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
