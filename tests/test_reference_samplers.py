"""The collapsed samplers against the literal-wiring reference samplers.

The package samplers average each group of copies before its weighted
addition; the reference samplers in ``reference_samplers.py`` perform every
physical weighted addition.  Both must have the same law: on nonlinear nets
they are compared with each other, on linear nets each is compared with the
exact oracle.  Seeds are fixed; tolerances are in standard errors.
"""

import numpy as np
import pytest

from optonoise import (
    Activation,
    CovSpec,
    DesignASpec,
    DesignBSpec,
    Layer,
    LinearNet,
    Network,
    NoiseProfile,
    RngStream,
    design_a_samples,
    design_b_samples,
    forward,
    propagate_b_branchwise,
)
from optonoise.covariance import _run

from conftest import gaussian_gaps, random_linear_net, random_profile
from reference_samplers import literal_design_b_samples, literal_tree_samples

MAX_SE = 5.0

TREE = {"collapsed": design_a_samples, "literal": literal_tree_samples}
COMBINE_SPLIT = {"collapsed": design_b_samples, "literal": literal_design_b_samples}


def nonlinear_net(rng, dims):
    """tanh hidden layers and a softmax output."""
    layers = []
    for l in range(len(dims) - 1):
        act = Activation.softmax() if l == len(dims) - 2 else Activation.tanh()
        W = rng.normal(size=(dims[l + 1], dims[l])) / np.sqrt(dims[l])
        layers.append(Layer(W, rng.normal(size=dims[l + 1]) * 0.3, act))
    return Network(tuple(layers), dims[0])


def with_combine_split(profile, combine=0.03, split=0.02):
    return NoiseProfile(
        profile.modulation, profile.weight, profile.activation,
        CovSpec.isotropic(combine), CovSpec.isotropic(split),
    )


def moment_gaps(a, b):
    """Largest mean and covariance gaps of two independent sample sets.

    Each gap is in standard errors of the difference, estimated from the
    samples themselves (the outputs of nonlinear nets are not Gaussian):
    the variance of a sample covariance entry is that of the centered
    products over n.
    """

    def moments(s):
        n = s.shape[0]
        c = s - s.mean(axis=0)
        prods = c[:, :, None] * c[:, None, :]
        return s.mean(axis=0), s.var(axis=0, ddof=1) / n, prods.mean(axis=0), prods.var(axis=0, ddof=1) / n

    ma, va, ca, wa = moments(a)
    mb, vb, cb, wb = moments(b)
    return (
        float(np.max(np.abs(ma - mb) / np.sqrt(va + vb))),
        float(np.max(np.abs(ca - cb) / np.sqrt(wa + wb))),
    )


class TestNonlinearAgreement:
    """Collapsed and literal samplers agree in mean and covariance on tanh/softmax nets."""

    TRIALS = 20_000

    @pytest.mark.parametrize(
        "dims, copies, seed",
        [((3, 4, 3), (3, 2, 1), 701), ((2, 3, 3, 3), (2, 2, 2, 1), 702)],
    )
    def test_tree(self, dims, copies, seed):
        rng = np.random.default_rng(seed)
        net = nonlinear_net(rng, dims)
        profile = random_profile(rng, net, scale=0.3)
        x = rng.normal(size=net.input_dim)
        spec = DesignASpec(net, copies)
        a = design_a_samples(spec, x, profile, self.TRIALS, RngStream(seed))
        b = literal_tree_samples(spec, x, profile, self.TRIALS, RngStream(seed + 1000))
        mean_gap, cov_gap = moment_gaps(a, b)
        assert mean_gap <= MAX_SE and cov_gap <= MAX_SE, (mean_gap, cov_gap)

    @pytest.mark.parametrize(
        "dims, m, seed",
        [((3, 4, 3), 3, 703), ((2, 3, 3, 3), 2, 704)],
    )
    def test_combine_split(self, dims, m, seed):
        rng = np.random.default_rng(seed)
        net = nonlinear_net(rng, dims)
        profile = with_combine_split(random_profile(rng, net, scale=0.3))
        x = rng.normal(size=net.input_dim)
        spec = DesignBSpec(net, m)
        a = design_b_samples(spec, x, profile, self.TRIALS, RngStream(seed))
        b = literal_design_b_samples(spec, x, profile, self.TRIALS, RngStream(seed + 1000))
        mean_gap, cov_gap = moment_gaps(a, b)
        assert mean_gap <= MAX_SE and cov_gap <= MAX_SE, (mean_gap, cov_gap)


class TestLinearOracles:
    """On linear nets both samplers match the exact output moments."""

    TRIALS = 40_000

    @pytest.mark.parametrize("sampler", sorted(TREE))
    @pytest.mark.parametrize("copies, seed", [((3, 2, 1), 711), ((2, 2, 2, 1), 712)])
    def test_tree_matches_iterated_step_map_b(self, sampler, copies, seed):
        rng = np.random.default_rng(seed)
        net = random_linear_net(rng, depth=len(copies) - 1, max_dim=4)
        profile = random_profile(rng, net)
        x = rng.normal(size=net.input_dim)
        cov = _run(LinearNet.from_network(net), profile, copies[:-1], (1,) * net.depth)[1][-1]
        samples = TREE[sampler](DesignASpec(net, copies), x, profile, self.TRIALS, RngStream(seed))
        mean_gap, cov_gap = gaussian_gaps(samples, forward(net, x), cov)
        assert mean_gap <= MAX_SE and cov_gap <= MAX_SE, (mean_gap, cov_gap)

    @pytest.mark.parametrize("sampler", sorted(COMBINE_SPLIT))
    @pytest.mark.parametrize("m, seed", [(3, 713), (4, 714)])
    def test_combine_split_matches_branchwise(self, sampler, m, seed):
        rng = np.random.default_rng(seed)
        net = random_linear_net(rng, depth=3, max_dim=4)
        profile = with_combine_split(random_profile(rng, net))
        x = rng.normal(size=net.input_dim)
        cov = propagate_b_branchwise(LinearNet.from_network(net), profile, m).output
        samples = COMBINE_SPLIT[sampler](DesignBSpec(net, m), x, profile, self.TRIALS, RngStream(seed))
        mean_gap, cov_gap = gaussian_gaps(samples, forward(net, x), cov)
        assert mean_gap <= MAX_SE and cov_gap <= MAX_SE, (mean_gap, cov_gap)


class TestOneCopy:
    def test_literal_and_collapsed_draw_alike(self, rng):
        # one copy per layer: no group is averaged, so both wirings take the
        # same blocks and agree bit for bit, combine/split noise included
        for _ in range(5):
            net = nonlinear_net(rng, [int(d) for d in rng.integers(1, 5, size=3)])
            profile = with_combine_split(random_profile(rng, net))
            x = rng.normal(size=net.input_dim)
            tree = DesignASpec(net, (1,) * (net.depth + 1))
            np.testing.assert_array_equal(
                design_a_samples(tree, x, profile, 3, RngStream(31)),
                literal_tree_samples(tree, x, profile, 3, RngStream(31)),
            )
            np.testing.assert_array_equal(
                design_b_samples(DesignBSpec(net, 1), x, profile, 3, RngStream(32)),
                literal_design_b_samples(DesignBSpec(net, 1), x, profile, 3, RngStream(32)),
            )
