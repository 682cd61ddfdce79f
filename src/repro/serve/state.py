"""Serving state: a restored snapshot made inference-ready.

:func:`load_serving_state` turns a :class:`~repro.resilience.TrainingSnapshot`
on disk into everything the HTTP layer needs to answer requests:

* the dataset graph rebuilt deterministically from the snapshot manifest
  (real-world datasets regenerate from ``num_nodes`` + the config seed,
  synthetic ones from the ``scale`` the manifest records, so the loader
  needs no repeat of the original ``--scale`` flag);
* a :class:`~repro.core.ses.SESTrainer` restored from the snapshot, with the
  tracked best-validation encoder applied — exactly the model an
  uninterrupted ``fit()`` would have returned;
* full-graph logits/predictions computed once at load time (prediction is a
  dict lookup per request, not a forward pass);
* the :class:`~repro.serve.store.ExplanationStore` lazily materialising
  per-node explanation payloads from the assembled ``E_feat``/``E_sub``.

A :class:`ServingState` is immutable once built.  Hot reload
(:mod:`repro.serve.watcher`) builds a *new* state from the new snapshot and
swaps the holder's reference atomically; in-flight requests keep using the
state they captured, so a reload never changes data mid-response.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields as dataclass_fields
from pathlib import Path
from typing import Any, Dict, Optional, Union

import numpy as np

from ..core.config import SESConfig
from ..metrics import logits_to_predictions
from ..obs.metrics import MetricsRegistry
from ..obs.recorder import NullRecorder
from ..resilience.snapshot import TrainingSnapshot, find_latest_snapshot, load_snapshot
from ..resilience.storage import CheckpointError, PathLike
from .store import ExplanationStore

__all__ = ["ServeError", "ServingState", "load_serving_state", "dataset_key_for"]


class ServeError(RuntimeError):
    """A snapshot cannot be served (wrong phase, unknown dataset, ...)."""


def _canonical(name: str) -> str:
    """``"Cora-like"``, ``"BAShapes"``, ``"ba_shapes"`` -> ``"cora"``, ``"bashapes"``."""
    name = name.strip().lower().removesuffix("-like")
    return "".join(ch for ch in name if ch.isalnum())


def dataset_key_for(graph_name: str) -> str:
    """Map a snapshot manifest's graph name back to a registry dataset key.

    Names match case- and punctuation-insensitively (``"BAShapes"`` is
    ``ba_shapes``, ``"Cora-like"`` is ``cora``); an unknown name comes back
    lower-cased with ``_`` separators so the registry error names it.
    """
    from ..datasets.registry import dataset_names

    wanted = _canonical(graph_name)
    for key in dataset_names():
        if _canonical(key) == wanted:
            return key
    return graph_name.strip().lower().replace("-", "_").replace(" ", "_")


@dataclass
class ServingState:
    """One loaded snapshot, ready to answer predict/explain/neighbors."""

    trainer: Any
    explanations: Any
    logits: np.ndarray
    predictions: np.ndarray
    snapshot_path: Path
    store: ExplanationStore
    readout: str
    completed: Dict[str, int]
    source_token: Optional[str] = None
    explain_top_k: int = 16
    loaded_at: float = field(default_factory=time.time)

    @property
    def graph(self):
        return self.trainer.graph

    @property
    def num_nodes(self) -> int:
        return int(self.trainer.graph.num_nodes)

    @property
    def snapshot_name(self) -> str:
        return self.snapshot_path.name

    def valid_node(self, node: int) -> bool:
        return 0 <= node < self.num_nodes

    # ------------------------------------------------------------------
    # Per-endpoint payloads (plain dicts, JSON-ready)
    # ------------------------------------------------------------------
    def predict_payload(self, node: int) -> Dict[str, Any]:
        return {
            "node": int(node),
            "prediction": int(self.predictions[node]),
            "logits": [float(x) for x in self.logits[node]],
            "readout": self.readout,
            "snapshot": self.snapshot_name,
        }

    def explain_payload(self, node: int) -> Dict[str, Any]:
        """Cache-miss compute for :class:`ExplanationStore`."""
        node = int(node)
        explanations = self.explanations
        k = min(self.explain_top_k, self.graph.num_features)
        top = explanations.top_features(node, k=k)
        scores = explanations.feature_explanation[node]
        ranked = explanations.ranked_neighbors(node)
        return {
            "node": node,
            "prediction": int(self.predictions[node]),
            "top_features": [int(i) for i in top],
            "feature_scores": [float(scores[i]) for i in top],
            "neighbors": [
                {"node": int(n), "weight": float(w)}
                for n, w in ranked[: self.explain_top_k]
            ],
            "num_khop_neighbors": len(ranked),
            "snapshot": self.snapshot_name,
        }

    def neighbors_payload(self, node: int) -> Dict[str, Any]:
        neighbors = self.graph.neighbors(int(node))
        return {
            "node": int(node),
            "degree": int(len(neighbors)),
            "neighbors": [int(n) for n in neighbors],
            "snapshot": self.snapshot_name,
        }

    def describe(self) -> Dict[str, Any]:
        """The ready half of the ``/healthz`` payload."""
        return {
            "snapshot": self.snapshot_name,
            "completed": dict(self.completed),
            "num_nodes": self.num_nodes,
            "readout": self.readout,
            "cache": self.store.stats(),
        }


def _config_from_manifest(manifest: Dict[str, Any]) -> SESConfig:
    raw = manifest.get("config")
    if not isinstance(raw, dict):
        raise ServeError("snapshot manifest carries no config; cannot rebuild the model")
    known = {f.name for f in dataclass_fields(SESConfig)}
    return SESConfig(**{k: v for k, v in raw.items() if k in known})


def _rebuild_graph(
    manifest: Dict[str, Any],
    config: SESConfig,
    dataset: Optional[str],
    scale: Optional[float],
    split_seed: Optional[int],
):
    from ..datasets import load_dataset
    from ..datasets.registry import real_world_names
    from ..graph import classification_split

    graph_info = manifest.get("graph", {})
    key = dataset or dataset_key_for(str(graph_info.get("name", "")))
    if scale is None:
        # The training scale, as the snapshot recorded it; snapshots that
        # predate the record fall back to load_dataset's default.
        scale = float(graph_info.get("scale") or 1.0)
    seed = int(config.seed)
    kwargs: Dict[str, Any] = {}
    if key in real_world_names():
        # Real-world surrogates are fully determined by (num_nodes, seed):
        # regenerating from the manifest's node count sidesteps any need to
        # remember the original --scale flag.
        num_nodes = int(graph_info.get("num_nodes", 0))
        if num_nodes > 0:
            kwargs["num_nodes"] = num_nodes
    try:
        graph = load_dataset(key, seed=seed, scale=scale, **kwargs)
    except KeyError as error:
        raise ServeError(
            f"cannot rebuild dataset for snapshot graph "
            f"{graph_info.get('name')!r}: {error}; pass dataset= explicitly"
        ) from error
    return classification_split(graph, seed=seed if split_seed is None else int(split_seed))


def load_serving_state(
    source: Union[PathLike, TrainingSnapshot],
    dataset: Optional[str] = None,
    scale: Optional[float] = None,
    split_seed: Optional[int] = None,
    cache_size: int = 1024,
    explain_top_k: int = 16,
    use_best: bool = True,
    registry: Optional[MetricsRegistry] = None,
    source_token: Optional[str] = None,
    snapshot_path: Optional[PathLike] = None,
) -> ServingState:
    """Load a snapshot (file, directory, or object) into a :class:`ServingState`.

    ``source`` may be a snapshot directory (the newest valid snapshot wins,
    honouring the ``LATEST`` pointer with fallback), a ``.npz`` path, or an
    already-loaded :class:`TrainingSnapshot` (then ``snapshot_path`` names
    it for responses).  Raises :class:`ServeError` when the snapshot predates
    mask freezing — explanations only exist once explainable training has
    completed — and :class:`~repro.resilience.CheckpointError` on damage.
    """
    from ..core.ses import SESTrainer

    if isinstance(source, TrainingSnapshot):
        snapshot, path = source, Path(snapshot_path or "snapshot.npz")
    else:
        path = Path(source)
        if path.is_dir():
            snapshot, path = find_latest_snapshot(path)
        else:
            snapshot = load_snapshot(path)

    manifest = snapshot.manifest
    config = _config_from_manifest(manifest)
    graph = _rebuild_graph(manifest, config, dataset, scale, split_seed)
    trainer = SESTrainer(graph, config, recorder=NullRecorder())
    try:
        trainer.restore(snapshot)
    except CheckpointError as error:
        raise CheckpointError(f"cannot serve snapshot at {path}: {error}") from error

    if trainer._frozen_feature_mask is None or trainer._frozen_structure_values is None:
        raise ServeError(
            f"snapshot at {path} predates mask freezing "
            f"(completed={snapshot.completed}); serve needs a snapshot taken "
            "after explainable training finished"
        )
    if use_best and config.keep_best and trainer._best_state is not None:
        # Mirror the end of fit(): serve the best-validation encoder, not
        # whatever the last epoch left behind.
        trainer.model.load_state_dict(trainer._best_state)

    logits = trainer.final_logits()
    predictions = logits_to_predictions(logits)
    explanations = trainer.explanations()

    state = ServingState(
        trainer=trainer,
        explanations=explanations,
        logits=logits,
        predictions=predictions,
        snapshot_path=path,
        store=None,  # type: ignore[arg-type]  # bound just below
        readout=trainer.active_readout(),
        completed=snapshot.completed,
        source_token=source_token,
        explain_top_k=int(explain_top_k),
    )
    state.store = ExplanationStore(
        state.explain_payload, capacity=cache_size, registry=registry
    )
    return state
