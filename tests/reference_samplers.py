"""Literal-wiring reference samplers for the tree and combine/split designs.

These perform every physical weighted addition of a design, one
``affine`` call per copy: the tree node by node, depth first, and the
combine/split design branch by branch.  The package samplers draw from the
same laws with one weighted addition per averaged group; the tests compare
the two in mean and covariance.  Both take the package's draw sites, so
with all copy counts 1 they reproduce the package samplers bit for bit.
Every average of copies goes through :func:`_average`.
"""

import numpy as np

from optonoise.network import affine
from optonoise.noise import (
    KIND_ACTIVATION,
    KIND_COMBINE,
    KIND_MODULATION,
    KIND_SPLIT,
    KIND_WEIGHT,
)

from conftest import SpecSites


def _average(values):
    """The mean of a list of equally shaped blocks."""
    return sum(values[1:], values[0]) / len(values)


def _node(net, profile, x, trials, sites, copies, level):
    """``(trials, d)`` block of the next tree node at ``level``.

    Level 0 is a modulated input.  Depth first, so node ``j`` of a level
    takes block ``j`` of the level's ``(kind, level)`` site streams.
    """
    if level == 0:
        base = np.broadcast_to(x, (trials, x.shape[0]))
        return sites.add(base, profile.modulation, KIND_MODULATION, 0)
    layer = net.layers[level - 1]
    weighted = []
    for _ in range(copies[level - 1]):
        child = _node(net, profile, x, trials, sites, copies, level - 1)
        xi = affine(layer.weights, layer.bias, child)
        weighted.append(sites.add(xi, profile.weight[level - 1], KIND_WEIGHT, level))
    h = layer.activation(_average(weighted))
    return sites.add(h, profile.activation[level - 1], KIND_ACTIVATION, level)


def literal_tree_samples(spec, x, profile, trials, rng):
    """``(trials, d_L)`` tree evaluations with every leaf and node built."""
    x = np.asarray(x, dtype=np.float64)
    return _node(spec.base, profile, x, trials, SpecSites(rng), spec.copies, spec.base.depth)


def literal_design_b_samples(spec, x, profile, trials, rng):
    """``(trials, d_L)`` combine/split evaluations, one branch at a time."""
    net, m = spec.base, spec.m
    x = np.asarray(x, dtype=np.float64)
    sites = SpecSites(rng)
    base = np.broadcast_to(x, (trials, net.input_dim))
    branches = [sites.add(base, profile.modulation, KIND_MODULATION, 0) for _ in range(m)]
    for l, layer in enumerate(net.layers, start=1):
        weighted = []
        for value in branches:
            xi = affine(layer.weights, layer.bias, value)
            weighted.append(sites.add(xi, profile.weight[l - 1], KIND_WEIGHT, l))
        # the combined beam is the sum of the m values plus combine noise,
        # normalized by m: their average plus Sigma_c / m**2
        shared = sites.add(_average(weighted), profile.combine, KIND_COMBINE, l, m * m)
        branches = []
        for _ in range(m):
            y = sites.add(shared, profile.split, KIND_SPLIT, l)
            h = layer.activation(y)
            branches.append(sites.add(h, profile.activation[l - 1], KIND_ACTIVATION, l))
    return _average(branches)
