"""Shared generators for randomized test instances."""

import numpy as np
import pytest

from optonoise import (
    Activation,
    CovSpec,
    Layer,
    Network,
    NoiseProfile,
    stats_from_samples,
)
from optonoise.noise import _law, _Sites


class SpecSites(_Sites):
    """The package's draw sites with ``add``: ``plus`` at the law of
    Normal(0, spec / div), for samplers that draw spec by spec."""

    def add(self, h, spec, kind, layer, div=1.0):
        return self.plus(h, _law(h.shape[-1], ((spec, div),)), kind, layer)


def random_linear_net(rng, depth=None, max_dim=6, weight_scale=0.8):
    """A random diagonal-linear network with moderate transport norms."""
    if depth is None:
        depth = int(rng.integers(1, 5))
    dims = [int(rng.integers(1, max_dim + 1)) for _ in range(depth + 1)]
    layers = []
    for l in range(depth):
        W = rng.normal(size=(dims[l + 1], dims[l])) * weight_scale / np.sqrt(dims[l])
        e = rng.uniform(0.3, 1.1, size=dims[l + 1])
        b = rng.normal(size=dims[l + 1]) * 0.3
        layers.append(Layer(W, b, Activation.diag_linear(e)))
    return Network(tuple(layers), dims[0])


def random_covspec(rng, dim, scale=0.05, allow_zero=True, kind=None):
    """A random covariance spec; ``kind`` fixes the kind instead of drawing it."""
    if kind is None:
        kinds = ["isotropic", "diagonal", "full"] + (["zero"] if allow_zero else [])
        kind = kinds[int(rng.integers(len(kinds)))]
    if kind == "zero":
        return CovSpec.zero()
    if kind == "isotropic":
        return CovSpec.isotropic(float(rng.uniform(0.2, 1.0)) * scale)
    if kind == "diagonal":
        return CovSpec.diagonal(rng.uniform(0.1, 1.0, size=dim) * scale)
    A = rng.normal(size=(dim, dim))
    return CovSpec.full(A @ A.T / dim * scale)


def random_profile(rng, net, scale=0.05):
    """Random noise profile; modulation is always nonzero so covariances
    never degenerate to all-zero."""
    dims = net.dims()
    return NoiseProfile(
        random_covspec(rng, dims[0], scale, allow_zero=False),
        tuple(random_covspec(rng, d, scale) for d in dims[1:]),
        tuple(random_covspec(rng, d, scale) for d in dims[1:]),
    )


def gaussian_gaps(samples, mean, cov):
    """Largest mean and covariance gaps from exact Gaussian moments, in standard errors."""
    n = samples.shape[0]
    stats = stats_from_samples(samples, mean)
    var = np.diag(cov)
    # standard error of a sample covariance entry of Gaussian data
    cov_se = np.sqrt((cov**2 + np.outer(var, var)) / (n - 1))
    return (
        float(np.max(np.abs(stats.mean - mean) / np.sqrt(var / n))),
        float(np.max(np.abs(stats.covariance - cov) / cov_se)),
    )


def count_affine_calls(monkeypatch, module):
    """Wrap ``module.affine`` for the test; returns the list its calls append to."""
    calls = []
    real = module.affine

    def counting_affine(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, "affine", counting_affine)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
