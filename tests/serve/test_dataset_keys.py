"""Snapshot graph names map back to registry keys for every dataset."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SESTrainer, fast_config
from repro.datasets import load_dataset
from repro.datasets.registry import dataset_names
from repro.graph import classification_split
from repro.obs.metrics import MetricsRegistry
from repro.serve import dataset_key_for, load_serving_state


@pytest.mark.parametrize("key", dataset_names())
def test_registry_key_round_trips_through_graph_name(key):
    assert dataset_key_for(load_dataset(key, scale=0.1).name) == key


def test_unknown_name_is_normalised_for_the_registry_error():
    assert dataset_key_for(" Some Graph-Name ") == "some_graph_name"


def test_synthetic_snapshot_served_without_dataset_hint(tmp_path):
    scale, seed = 0.1, 0
    graph = classification_split(load_dataset("ba_shapes", scale=scale, seed=seed), seed=seed)
    config = fast_config("gcn", explainable_epochs=2, predictive_epochs=1, seed=seed)
    SESTrainer(graph, config).fit(checkpoint_every=1, checkpoint_dir=tmp_path, checkpoint_keep=0)

    state = load_serving_state(tmp_path, scale=scale, registry=MetricsRegistry(enabled=True))
    assert state.graph.name == "BAShapes"
    assert state.num_nodes == graph.num_nodes
    assert state.predictions.shape == (graph.num_nodes,)


def test_synthetic_snapshot_served_without_repeating_scale(tmp_path):
    # The snapshot records the training scale, so neither dataset= nor
    # scale= is needed to rebuild a synthetic graph.
    scale, seed = 0.1, 0
    graph = classification_split(load_dataset("ba_shapes", scale=scale, seed=seed), seed=seed)
    config = fast_config("gcn", explainable_epochs=2, predictive_epochs=1, seed=seed)
    SESTrainer(graph, config).fit(checkpoint_every=1, checkpoint_dir=tmp_path, checkpoint_keep=0)

    state = load_serving_state(tmp_path, registry=MetricsRegistry(enabled=True))
    assert state.num_nodes == graph.num_nodes
    np.testing.assert_array_equal(state.graph.features, graph.features)
    assert state.predictions.shape == (graph.num_nodes,)
