"""Full-state training snapshots: everything a mid-run kill would destroy.

A :class:`TrainingSnapshot` captures the *complete* state of a
:class:`~repro.core.ses.SESTrainer` at an epoch boundary — not just model
parameters (which :func:`repro.io.save_checkpoint` already covers) but every
piece of mutable state the two-phase schedule threads between epochs:

* model + mask-generator parameters, and the tracked best-validation state;
* each phase optimizer's internal state (Adam moments + step count, so bias
  correction resumes mid-stream instead of restarting at step 1);
* the shared numpy ``Generator`` bit-generator state (dropout, negative
  resampling and Algorithm-1 sampling all draw from one stream);
* phase/epoch counters, the training history, the accumulated edge
  sensitivity, frozen masks, negative sets and Algorithm-1 pair sets;
* NaN-watchdog / monitor accumulators.

Restoring a snapshot into a freshly-constructed trainer provably reproduces
the uninterrupted run bit-for-bit (``tests/resilience/``), because every
subsequent stochastic draw and parameter update depends only on the state
listed above.

On disk a snapshot is a single ``.npz``: one entry per array plus a
``__manifest__`` JSON blob carrying scalars, the config hash, the RNG state
and a per-array checksum table.  Writes are atomic
(:func:`repro.resilience.storage.atomic_savez`) and loads verify every
checksum, so truncation or bit corruption is rejected with a
:class:`~repro.resilience.storage.CheckpointError` instead of resuming from
garbage.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from ..obs.events import config_hash, jsonable
from ..utils.seed import capture_rng_state, restore_rng_state
from .storage import (
    CheckpointError,
    PathLike,
    atomic_savez,
    atomic_write_text,
    checksum_manifest,
    open_npz,
    verify_checksums,
)

SNAPSHOT_FORMAT = "ses-training-snapshot"
SNAPSHOT_VERSION = 1
LATEST_POINTER = "LATEST"


@dataclass
class TrainingSnapshot:
    """A trainer's full mutable state: JSON manifest + named arrays."""

    manifest: Dict = field(default_factory=dict)
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def completed(self) -> Dict[str, int]:
        """Completed epoch count per phase."""
        return dict(self.manifest.get("completed", {}))

    @property
    def config_fingerprint(self) -> str:
        return self.manifest.get("config_hash", "")

    def describe(self) -> str:
        done = self.completed
        return (
            f"snapshot(config={self.config_fingerprint}, "
            f"explainable={done.get('explainable', 0)}, "
            f"predictive={done.get('predictive', 0)})"
        )


# ----------------------------------------------------------------------
# Packing helpers (dict-of-int-arrays <-> offset/value arrays)
# ----------------------------------------------------------------------
def _pack_int_map(mapping: Mapping[int, np.ndarray]) -> Dict[str, np.ndarray]:
    """Flatten ``{node: int array}`` into keys/offsets/values arrays."""
    keys = np.array(sorted(mapping), dtype=np.int64)
    lengths = np.array([len(mapping[int(k)]) for k in keys], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    if keys.size:
        chunks = [np.asarray(mapping[int(k)], dtype=np.int64).ravel() for k in keys]
        values = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    else:
        values = np.empty(0, dtype=np.int64)
    return {"keys": keys, "offsets": offsets, "values": values}


def _unpack_int_map(
    keys: np.ndarray, offsets: np.ndarray, values: np.ndarray
) -> Dict[int, np.ndarray]:
    return {
        int(key): values[offsets[i]: offsets[i + 1]].astype(np.int64)
        for i, key in enumerate(keys)
    }


def _split_optimizer_state(state: Mapping) -> Tuple[Dict, Dict[str, List[np.ndarray]]]:
    """Separate scalar hyper-state from per-parameter array slot lists."""
    meta: Dict = {}
    slots: Dict[str, List[np.ndarray]] = {}
    for key, value in state.items():
        if isinstance(value, list):
            slots[key] = value
        else:
            meta[key] = value
    return meta, slots


# ----------------------------------------------------------------------
# Capture
# ----------------------------------------------------------------------
def capture_training_snapshot(trainer) -> TrainingSnapshot:
    """Copy every piece of a trainer's mutable state into a snapshot.

    Pure read: consumes no RNG draws and mutates nothing, so capturing at an
    epoch boundary cannot perturb the run it protects.
    """
    arrays: Dict[str, np.ndarray] = {}
    manifest: Dict = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "config": jsonable(trainer.config),
        "config_hash": config_hash(trainer.config),
        "graph": {
            "name": trainer.graph.name,
            "num_nodes": int(trainer.graph.num_nodes),
            "num_features": int(trainer.graph.num_features),
            "scale": trainer.graph.extra.get("scale"),
        },
        "completed": {k: int(v) for k, v in trainer._completed.items()},
        "rng_state": capture_rng_state(trainer.rng),
        "best_val": float(trainer._best_val),
        "best_readout": trainer._best_readout,
    }
    # Minibatch mode: the anchor sampler's RNG stream and cursor must resume
    # bit-identically alongside the trainer's generator.  The key is optional
    # so snapshots from full-batch runs (including pre-minibatch archives)
    # keep loading; ``None`` records an explicit full-batch run.
    sampler = getattr(trainer, "_sampler", None)
    manifest["minibatch"] = sampler.state_dict() if sampler is not None else None
    # Parallel mode: worker/shard topology plus the shard sampler's stream.
    # Same optionality contract as "minibatch" — absent/None means the run
    # was not data-parallel (pre-parallel archives keep loading).
    runner = getattr(trainer, "_parallel", None)
    manifest["parallel"] = runner.state_manifest() if runner is not None else None

    for name, value in trainer.model.state_dict().items():
        arrays[f"model/{name}"] = value  # state_dict already copies

    optim_meta: Dict[str, Dict] = {}
    for phase, optimizer in trainer._optimizers.items():
        meta, slots = _split_optimizer_state(optimizer.state_dict())
        meta["slot_counts"] = {key: len(values) for key, values in slots.items()}
        optim_meta[phase] = meta
        for key, values in slots.items():
            for i, array in enumerate(values):
                arrays[f"optim/{phase}/{key}/{i}"] = array
    manifest["optimizers"] = optim_meta

    manifest["has_best"] = trainer._best_state is not None
    if trainer._best_state is not None:
        for name, value in trainer._best_state.items():
            arrays[f"best/{name}"] = value.copy()

    manifest["has_frozen_feature"] = trainer._frozen_feature_mask is not None
    if trainer._frozen_feature_mask is not None:
        arrays["frozen/feature_mask"] = trainer._frozen_feature_mask.copy()
    manifest["has_frozen_structure"] = trainer._frozen_structure_values is not None
    if trainer._frozen_structure_values is not None:
        arrays["frozen/structure_values"] = trainer._frozen_structure_values.copy()

    arrays["sens/edge_sensitivity"] = trainer._edge_sensitivity.copy()

    for part, packed in _pack_int_map(trainer._negative_sets).items():
        arrays[f"neg/{part}"] = packed

    manifest["has_pairs"] = trainer.pairs is not None
    if trainer.pairs is not None:
        for side in ("positive", "negative"):
            packed = _pack_int_map(getattr(trainer.pairs, side))
            for part, array in packed.items():
                arrays[f"pairs/{side}/{part}"] = array

    history = trainer.history
    for name in ("phase1_loss", "phase1_val_accuracy", "phase2_loss", "phase2_val_accuracy"):
        arrays[f"hist/{name}"] = np.asarray(getattr(history, name), dtype=np.float64)
    manifest["mask_snapshot_epochs"] = sorted(int(e) for e in history.mask_snapshots)
    for epoch, (feature, structure) in history.mask_snapshots.items():
        arrays[f"msnap/{int(epoch)}/feature"] = feature.copy()
        arrays[f"msnap/{int(epoch)}/structure"] = structure.copy()

    monitors = getattr(trainer, "monitors", None)
    if monitors is not None and hasattr(monitors, "state_dict"):
        manifest["monitor"] = monitors.state_dict()

    return TrainingSnapshot(manifest=manifest, arrays=arrays)


# ----------------------------------------------------------------------
# Restore
# ----------------------------------------------------------------------
def restore_training_snapshot(
    trainer, snapshot: TrainingSnapshot, strict_config: bool = True
) -> None:
    """Load a snapshot into a trainer built from the same config and graph.

    ``strict_config=True`` (the default, and what ``--resume`` uses) refuses
    loudly when the snapshot's config hash differs from the trainer's —
    resuming a run under different hyper-parameters silently produces a
    third trajectory that matches neither, which is exactly the failure mode
    checkpointing exists to prevent.
    """
    # Lazy imports: repro.core imports this module, so importing core/graph
    # symbols at module level would create an import cycle.
    from ..core.pairs import PairSets
    from ..core.ses import TrainingHistory
    from ..graph import negative_edge_index

    manifest, arrays = snapshot.manifest, snapshot.arrays
    if manifest.get("format") != SNAPSHOT_FORMAT:
        raise CheckpointError(
            f"not a training snapshot (format={manifest.get('format')!r})"
        )
    if int(manifest.get("version", -1)) > SNAPSHOT_VERSION:
        raise CheckpointError(
            f"snapshot version {manifest.get('version')} is newer than "
            f"supported version {SNAPSHOT_VERSION}"
        )
    own_hash = config_hash(trainer.config)
    if manifest.get("config_hash") != own_hash:
        message = (
            f"snapshot config hash {manifest.get('config_hash')} does not match "
            f"trainer config hash {own_hash}; resuming under different "
            "hyper-parameters would not reproduce either run"
        )
        if strict_config:
            raise CheckpointError(message)
    graph_info = manifest.get("graph", {})
    if int(graph_info.get("num_nodes", -1)) != int(trainer.graph.num_nodes):
        raise CheckpointError(
            f"snapshot was taken on a graph with {graph_info.get('num_nodes')} "
            f"nodes; trainer graph has {trainer.graph.num_nodes}"
        )

    trainer.model.load_state_dict(
        {
            key[len("model/"):]: value
            for key, value in arrays.items()
            if key.startswith("model/")
        }
    )

    snapshot_optimizers = manifest.get("optimizers", {})
    for phase in list(trainer._optimizers):
        if phase not in snapshot_optimizers:
            # The snapshot predates this phase (e.g. rolling back from phase 2
            # into a phase-1 snapshot): forget the optimizer so the next
            # access creates a fresh one, as an uninterrupted run would.
            del trainer._optimizers[phase]
    for phase, meta in snapshot_optimizers.items():
        # Load into the *existing* instance when there is one — epoch loops
        # hold no optimizer locals, but identity-stable optimizers keep any
        # external references valid across rollbacks.
        optimizer = trainer._optimizer(phase)
        state = {k: v for k, v in meta.items() if k != "slot_counts"}
        for key, count in meta.get("slot_counts", {}).items():
            state[key] = [arrays[f"optim/{phase}/{key}/{i}"] for i in range(int(count))]
        optimizer.load_state_dict(state)

    restore_rng_state(trainer.rng, manifest["rng_state"])
    sampler_state = manifest.get("minibatch")
    sampler = getattr(trainer, "_sampler", None)
    if sampler_state is not None:
        if sampler is None:
            trainer._configure_minibatch(int(sampler_state["batch_size"]))
            sampler = trainer._sampler
        elif sampler.batch_size != int(sampler_state["batch_size"]):
            raise CheckpointError(
                f"snapshot is from a minibatch run with batch_size="
                f"{sampler_state['batch_size']}; trainer is configured with "
                f"batch_size={sampler.batch_size}"
            )
        sampler.load_state_dict(sampler_state)
    elif sampler is not None:
        raise CheckpointError(
            "snapshot is from a full-batch run; trainer is configured with "
            f"batch_size={sampler.batch_size} — resuming it as a minibatch "
            "run would not reproduce either trajectory"
        )
    parallel_state = manifest.get("parallel")
    runner = getattr(trainer, "_parallel", None)
    if parallel_state is not None:
        workers = int(parallel_state["workers"])
        shards = int(parallel_state["shards"])
        if runner is None:
            trainer.configure_parallel(workers, shards=shards)
            runner = trainer._parallel
        elif runner.config.workers != workers:
            raise CheckpointError(
                f"snapshot is from a parallel run with workers={workers}; "
                f"trainer is configured with workers={runner.config.workers}"
            )
        elif runner.config.shards != shards:
            raise CheckpointError(
                f"snapshot is from a parallel run with shards={shards}; "
                f"trainer is configured with shards={runner.config.shards}"
            )
        runner.sampler.load_state_dict(parallel_state["sampler"])
        # Restored negative pairs / pair sets differ from what the workers
        # hold; force a constants re-ship on the next epoch.
        runner.invalidate_constants()
    elif runner is not None:
        raise CheckpointError(
            "snapshot is from a non-parallel run; trainer is configured with "
            f"workers={runner.config.workers} — resuming it as a parallel "
            "run is only safe from a parallel snapshot"
        )
    # Restored negative/pair sets may not match previously cached subgraphs.
    cache = getattr(trainer, "_batch_cache", None)
    if cache is not None:
        cache.clear()
    trainer._completed = {k: int(v) for k, v in manifest["completed"].items()}
    trainer._best_val = float(manifest["best_val"])
    trainer._best_readout = manifest["best_readout"]
    if manifest.get("has_best"):
        trainer._best_state = {
            key[len("best/"):]: value.copy()
            for key, value in arrays.items()
            if key.startswith("best/")
        }
    else:
        trainer._best_state = None

    trainer._frozen_feature_mask = (
        arrays["frozen/feature_mask"].copy()
        if manifest.get("has_frozen_feature")
        else None
    )
    trainer._frozen_structure_values = (
        arrays["frozen/structure_values"].copy()
        if manifest.get("has_frozen_structure")
        else None
    )
    trainer._edge_sensitivity = arrays["sens/edge_sensitivity"].copy()

    trainer._negative_sets = _unpack_int_map(
        arrays["neg/keys"], arrays["neg/offsets"], arrays["neg/values"]
    )
    trainer.negative_pairs = negative_edge_index(trainer._negative_sets)

    if manifest.get("has_pairs"):
        trainer.pairs = PairSets(
            positive=_unpack_int_map(
                arrays["pairs/positive/keys"],
                arrays["pairs/positive/offsets"],
                arrays["pairs/positive/values"],
            ),
            negative=_unpack_int_map(
                arrays["pairs/negative/keys"],
                arrays["pairs/negative/offsets"],
                arrays["pairs/negative/values"],
            ),
        )
    else:
        trainer.pairs = None

    history = TrainingHistory(
        phase1_loss=[float(x) for x in arrays["hist/phase1_loss"]],
        phase1_val_accuracy=[float(x) for x in arrays["hist/phase1_val_accuracy"]],
        phase2_loss=[float(x) for x in arrays["hist/phase2_loss"]],
        phase2_val_accuracy=[float(x) for x in arrays["hist/phase2_val_accuracy"]],
    )
    for epoch in manifest.get("mask_snapshot_epochs", []):
        history.mask_snapshots[int(epoch)] = (
            arrays[f"msnap/{int(epoch)}/feature"].copy(),
            arrays[f"msnap/{int(epoch)}/structure"].copy(),
        )
    trainer.history = history

    monitors = getattr(trainer, "monitors", None)
    if "monitor" in manifest and monitors is not None and hasattr(monitors, "load_state_dict"):
        monitors.load_state_dict(manifest["monitor"])


# ----------------------------------------------------------------------
# Disk format
# ----------------------------------------------------------------------
def save_snapshot(snapshot: TrainingSnapshot, path: PathLike) -> Path:
    """Write a snapshot atomically with per-array checksums in the manifest."""
    manifest = dict(snapshot.manifest)
    manifest["checksums"] = checksum_manifest(snapshot.arrays)
    blob = np.frombuffer(
        json.dumps(jsonable(manifest), sort_keys=True).encode("utf-8"), dtype=np.uint8
    )
    return atomic_savez(path, __manifest__=blob, **snapshot.arrays)


def load_snapshot(path: PathLike) -> TrainingSnapshot:
    """Read and fully verify a snapshot; :class:`CheckpointError` on damage."""
    with open_npz(path, what="training snapshot") as archive:
        if "__manifest__" not in archive.files:
            raise CheckpointError(f"training snapshot at {path} has no manifest")
        try:
            manifest = json.loads(bytes(archive["__manifest__"]).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise CheckpointError(
                f"training snapshot at {path} has an unreadable manifest: {error}"
            ) from error
        arrays = {key: archive[key] for key in archive.files if key != "__manifest__"}
    if manifest.get("format") != SNAPSHOT_FORMAT:
        raise CheckpointError(
            f"{path} is not a training snapshot (format={manifest.get('format')!r})"
        )
    checksums = manifest.get("checksums")
    if not isinstance(checksums, dict):
        raise CheckpointError(f"training snapshot at {path} has no checksum table")
    verify_checksums(arrays, checksums, path)
    return TrainingSnapshot(manifest=manifest, arrays=arrays)


def write_latest_pointer(directory: PathLike, snapshot_name: str) -> None:
    """Record the most recent snapshot filename (atomic text write)."""
    atomic_write_text(Path(directory) / LATEST_POINTER, snapshot_name + "\n")


def find_latest_snapshot(directory: PathLike) -> Tuple[TrainingSnapshot, Path]:
    """Locate and load the newest *valid* snapshot in ``directory``.

    Tries the ``LATEST`` pointer first, then every ``.npz`` newest-first.
    Corrupt or truncated candidates are skipped (with their failure recorded
    in the final error message if nothing loads), so a crash during the most
    recent save falls back to the previous snapshot instead of aborting.
    A stale ``LATEST`` pointer — one naming a deleted or damaged snapshot —
    falls back the same way but raises a :class:`RuntimeWarning`, because a
    pointer that disagrees with the directory usually means a promotion went
    wrong and hot-reload consumers should know they are serving a fallback.

    Concurrency-safe against a pruner: a snapshot deleted between directory
    listing and ``stat`` (``SESTrainer._prune_checkpoints`` runs while the
    serving watcher polls) is silently dropped from the candidate list
    instead of surfacing as an uncaught ``FileNotFoundError``.
    """
    directory = Path(directory)
    pointer_target: Optional[Path] = None
    pointer = directory / LATEST_POINTER
    try:
        name = pointer.read_text(encoding="utf-8").strip()
    except OSError:
        name = ""
    if name:
        pointer_target = directory / name
    keyed: List[Tuple[float, str, Path]] = []
    for path in directory.glob("*.npz"):
        if path.name.endswith(".tmp"):
            continue
        try:
            mtime = os.path.getmtime(path)
        except OSError:
            continue  # deleted between listing and stat (pruner race)
        keyed.append((mtime, path.name, path))
    keyed.sort(reverse=True)
    candidates: List[Path] = [] if pointer_target is None else [pointer_target]
    for _, _, path in keyed:
        if path not in candidates:
            candidates.append(path)
    failures: List[str] = []
    for path in candidates:
        try:
            snapshot = load_snapshot(path), path
        except CheckpointError as error:
            failures.append(str(error))
            continue
        if failures and pointer_target is not None and path != pointer_target:
            warnings.warn(
                f"LATEST pointer in {directory} names {pointer_target.name!r} "
                f"which failed to load ({failures[0]}); falling back to "
                f"{path.name!r}",
                RuntimeWarning,
                stacklevel=2,
            )
        return snapshot
    detail = ("; ".join(failures)) or "no snapshot files present"
    raise CheckpointError(f"no usable snapshot under {directory}: {detail}")
