"""Committed desk-scale fixtures: a small fixed classifier network and a
labeled synthetic dataset.

The network is a stand-in for a trained model: fixed random-initialized
weights, committed as data so every experiment is reproducible.  Labels
are the network's own noiseless argmax decisions, which pins the
noiseless accuracy at 1 and makes noise-induced degradation directly
visible.  Experiments assert trends against these fixtures, never
absolute accuracy values.
"""

from __future__ import annotations

from importlib import resources

import numpy as np

from ..network import Network, _parse_json, network_from_json

__all__ = ["fixture_network", "fixture_dataset"]


def _read(name: str):
    return _parse_json(resources.files(__package__).joinpath(name).read_bytes(), name)


def fixture_network() -> Network:
    """The committed 8-16-4 tanh/softmax classifier."""
    return network_from_json(_read("mlp_8_16_4.json"))


def fixture_dataset() -> tuple[np.ndarray, np.ndarray]:
    """1000 committed 8-dimensional inputs with argmax labels."""
    obj = _read("dataset_8d.json")
    return (
        np.asarray(obj["inputs"], dtype=np.float64),
        np.asarray(obj["labels"], dtype=np.int64),
    )
