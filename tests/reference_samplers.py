"""Literal-wiring reference samplers for the tree and combine/split designs.

These perform every physical weighted addition of a design, one
``affine`` call per copy: the tree node by node, depth first, and the
combine/split design branch by branch.  The package samplers draw from the
same laws with one weighted addition per averaged group; the tests compare
the two in mean and covariance.  Both take the package's draw sites, so
with all copy counts 1 they reproduce the package samplers bit for bit.
"""

import numpy as np

from optonoise.network import affine
from optonoise.noise import (
    KIND_ACTIVATION,
    KIND_COMBINE,
    KIND_MODULATION,
    KIND_SPLIT,
    KIND_WEIGHT,
    _Sites,
)


def _node(net, profile, x, trials, sites, copies, level):
    """``(trials, d)`` block of the next tree node at ``level``.

    Level 0 is a modulated input.  Depth first, so node ``j`` of a level
    takes block ``j`` of the level's ``(kind, level)`` site streams.
    """
    if level == 0:
        base = np.broadcast_to(x, (trials, x.shape[0]))
        return sites.add(base, profile.modulation, KIND_MODULATION, 0)
    layer = net.layers[level - 1]
    fan_in = copies[level - 1]
    acc = None
    for _ in range(fan_in):
        child = _node(net, profile, x, trials, sites, copies, level - 1)
        xi = affine(layer.weights, layer.bias, child)
        xi = sites.add(xi, profile.weight[level - 1], KIND_WEIGHT, level)
        acc = xi if acc is None else acc + xi
    h = layer.activation(acc / fan_in)
    return sites.add(h, profile.activation[level - 1], KIND_ACTIVATION, level)


def literal_tree_samples(spec, x, profile, trials, rng):
    """``(trials, d_L)`` tree evaluations with every leaf and node built."""
    x = np.asarray(x, dtype=np.float64)
    return _node(spec.base, profile, x, trials, _Sites(rng), spec.copies, spec.base.depth)


def literal_design_b_samples(spec, x, profile, trials, rng):
    """``(trials, d_L)`` combine/split evaluations, one branch at a time."""
    net, m = spec.base, spec.m
    x = np.asarray(x, dtype=np.float64)
    sites = _Sites(rng)
    base = np.broadcast_to(x, (trials, net.input_dim))
    branches = [sites.add(base, profile.modulation, KIND_MODULATION, 0) for _ in range(m)]
    for l, layer in enumerate(net.layers, start=1):
        combined = None
        for value in branches:
            xi = affine(layer.weights, layer.bias, value)
            xi = sites.add(xi, profile.weight[l - 1], KIND_WEIGHT, l)
            combined = xi if combined is None else combined + xi
        combined = sites.add(combined, profile.combine, KIND_COMBINE, l)
        shared = combined / m
        branches = []
        for _ in range(m):
            y = sites.add(shared, profile.split, KIND_SPLIT, l)
            h = layer.activation(y)
            branches.append(sites.add(h, profile.activation[l - 1], KIND_ACTIVATION, l))
    return sum(branches[1:], branches[0]) / m
