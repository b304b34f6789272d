"""The collapsed samplers against the literal-wiring reference samplers.

The package samplers average each group of copies before its weighted
addition; the reference samplers in ``reference_samplers.py`` perform every
physical weighted addition.  Both must have the same law: on nonlinear nets
they are compared with each other, on linear nets each is compared with the
exact oracle.  Seeds are fixed; tolerances are in standard errors.
"""

import math

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
    ValidationError,
    design_a_samples,
    design_b_samples,
    forward,
    noisy_forward_samples,
    propagate_b_branchwise,
)
from optonoise.covariance import _copies, _run

import reference_samplers
from conftest import SpecSites, gaussian_gaps, random_covspec, random_linear_net, random_profile
from optonoise.noise import KIND_ACTIVATION, KIND_COMBINE, KIND_SPLIT, _law
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


def mixed_net(rng, dims, kinds):
    """Layers of the given activation kinds, all of one construction."""
    layers = tuple(Layer(rng.normal(size=(dims[l + 1], dims[l])) / np.sqrt(dims[l]),
                         rng.normal(size=dims[l + 1]) * 0.3, Activation(kind))
                   for l, kind in enumerate(kinds))
    return Network(layers, dims[0])


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


    @pytest.mark.parametrize("sampler, seed", [("tree", 705), ("combine_split", 706)])
    def test_identity_layers_between_tanh_layers(self, sampler, seed):
        # the identity layers average their inputs before their weighted
        # additions and draw one merged block per group; under them the tree
        # runs 4 realizations of each group of the first tanh layer
        rng = np.random.default_rng(seed)
        net = mixed_net(rng, (2, 3, 3, 3, 2), ("tanh", "identity", "identity", "tanh"))
        profile = with_combine_split(random_profile(rng, net, scale=0.3))
        x = rng.normal(size=net.input_dim)
        if sampler == "tree":
            spec, collapsed, literal = DesignASpec(net, (2, 2, 2, 2, 1)), *TREE.values()
        else:
            spec, collapsed, literal = DesignBSpec(net, 3), *COMBINE_SPLIT.values()
        a = collapsed(spec, x, profile, self.TRIALS, RngStream(seed))
        b = literal(spec, x, profile, self.TRIALS, RngStream(seed + 1000))
        mean_gap, cov_gap = moment_gaps(a, b)
        assert mean_gap <= MAX_SE and cov_gap <= MAX_SE, (mean_gap, cov_gap)


class TestPerSourceAgreement:
    """One source live at a time, each a source that the kernel pushes
    through the next weighted addition: the kernel and the literal wiring
    agree in mean and covariance for the plain net and both designs."""

    TRIALS = 20_000
    VAR = 0.2

    @staticmethod
    def _one_source(net, source, var):
        """A profile with ``var`` on one source: "modulation", or "weight l"
        / "activation l" of layer ``l``."""
        zero, iso = CovSpec.zero(), CovSpec.isotropic(var)
        if source == "modulation":
            return NoiseProfile(iso, (zero,) * net.depth, (zero,) * net.depth)
        kind, layer = source.split()
        specs = tuple(iso if l == int(layer) else zero for l in range(1, net.depth + 1))
        if kind == "weight":
            return NoiseProfile(zero, specs, (zero,) * net.depth)
        return NoiseProfile(zero, (zero,) * net.depth, specs)

    @pytest.mark.parametrize("sampler", ["plain", "tree", "combine_split"])
    @pytest.mark.parametrize("kinds, source, seed", [
        (("tanh", "tanh", "softmax"), "modulation", 731),
        (("tanh", "tanh", "softmax"), "activation 1", 732),
        (("tanh", "tanh", "softmax"), "activation 2", 733),
        # an identity layer's merged site, pushed into the tanh layer above it
        (("tanh", "identity", "tanh"), "weight 2", 734),
        (("tanh", "identity", "tanh"), "activation 2", 735),
    ])
    def test_kernel_matches_literal_wiring(self, sampler, kinds, source, seed):
        rng = np.random.default_rng(seed)
        net = mixed_net(rng, (3, 4, 3, 3), kinds)
        profile = self._one_source(net, source, self.VAR)
        x = rng.normal(size=net.input_dim)
        if sampler == "plain":
            spec, literal = DesignASpec(net, (1,) * (net.depth + 1)), literal_tree_samples
            a = noisy_forward_samples(net, profile, x, self.TRIALS, RngStream(seed))
        else:
            if sampler == "tree":
                spec, (collapsed, literal) = DesignASpec(net, (2, 2, 2, 1)), TREE.values()
            else:
                spec, (collapsed, literal) = DesignBSpec(net, 2), COMBINE_SPLIT.values()
            a = collapsed(spec, x, profile, self.TRIALS, RngStream(seed))
        b = literal(spec, x, profile, self.TRIALS, RngStream(seed + 1000))
        mean_gap, cov_gap = moment_gaps(a, b)
        assert mean_gap <= MAX_SE and cov_gap <= MAX_SE, (mean_gap, cov_gap)


    @pytest.mark.parametrize("source, seed", [("modulation", 736), ("weight 1", 737),
                                              ("activation 1", 738), ("weight 3", 739)])
    def test_realizations_under_linear_layers(self, source, seed):
        # tanh under three identity layers: the tree (2, 2, 2, 2, 1) averages
        # 4 realizations of each tanh group, and the sources of layer 1 and
        # below reach the identity chain through them
        rng = np.random.default_rng(seed)
        net = mixed_net(rng, (3, 4, 3, 3, 2), ("tanh", "identity", "identity", "identity"))
        profile = self._one_source(net, source, self.VAR)
        x = rng.normal(size=net.input_dim)
        spec = DesignASpec(net, (2, 2, 2, 2, 1))
        a = design_a_samples(spec, x, profile, self.TRIALS, RngStream(seed))
        b = literal_tree_samples(spec, x, profile, self.TRIALS, RngStream(seed + 1000))
        mean_gap, cov_gap = moment_gaps(a, b)
        assert mean_gap <= MAX_SE and cov_gap <= MAX_SE, (mean_gap, cov_gap)


class TestPushedRobustness:
    """A pushed covariance is factored without squaring the weights, and a
    layer whose weighted addition draws nothing still activates its own
    block."""

    TRIALS = 20_000

    @pytest.mark.parametrize("copies", [(1, 1, 1), (2, 3, 1)])
    def test_huge_weights_keep_the_law(self, copies):
        # |W| ~ 1e200: W P W^T would overflow, W (h + n) does not
        rng = np.random.default_rng(741)
        dims = (3, 4, 3)
        net = Network(tuple(Layer(rng.normal(size=(dims[l + 1], dims[l])) * 1e200,
                                  rng.normal(size=dims[l + 1]), Activation.tanh())
                            for l in range(2)), dims[0])
        profile = NoiseProfile.isotropic(2, 0.01, 0.02, 0.03)
        x = rng.normal(size=dims[0])
        spec = DesignASpec(net, copies)
        a = design_a_samples(spec, x, profile, self.TRIALS, RngStream(742))
        b = literal_tree_samples(spec, x, profile, self.TRIALS, RngStream(743))
        assert np.isfinite(a).all() and np.all(a.std(axis=0) > 0.0)
        mean_gap, cov_gap = moment_gaps(a, b)
        assert mean_gap <= MAX_SE and cov_gap <= MAX_SE, (mean_gap, cov_gap)

    @pytest.mark.parametrize("layer", [1, 2])
    def test_overflowing_push_is_refused(self, layer):
        # modulation (layer 1) or layer-1 activation noise (layer 2) at
        # variance 4 through weights of 1e308: the pushed factor overflows
        net = Network(tuple(Layer(np.full((3, 3), 1e308), np.zeros(3), Activation.tanh())
                            for _ in range(2)), 3)
        var = [0.01, 0.01]
        var[layer - 1] = 4.0
        profile = NoiseProfile.isotropic(2, modulation_var=var[0], activation_var=var[1])
        with pytest.raises(ValidationError, match=f"^the noise pushed through the weights of "
                                                  f"layer {layer} overflows float64$"):
            design_a_samples(DesignASpec(net, (1, 1, 1)), np.ones(3), profile, 4, RngStream(0))

    @pytest.mark.parametrize("sampler", ["tree", "combine_split"])
    def test_top_activation_noise_alone(self, sampler):
        # only the top layer's activation noise: no weighted addition draws,
        # so the kernel runs layer 2's weighted addition on the noiseless
        # layer-1 values and activates a block of its own
        rng = np.random.default_rng(744)
        net = nonlinear_net(rng, (3, 5, 4))
        zero, var = CovSpec.zero(), 0.02
        profile = NoiseProfile(zero, (zero, zero), (zero, CovSpec.isotropic(var)))
        x = rng.normal(size=net.input_dim)
        trials = 6
        if sampler == "tree":
            out = design_a_samples(DesignASpec(net, (3, 5, 1)), x, profile, trials, RngStream(745))
        else:
            out = design_b_samples(DesignBSpec(net, 3), x, profile, trials, RngStream(745))
            var /= 3
        block = RngStream(745).child(KIND_ACTIVATION, 2).generator().standard_normal((trials, 4))
        np.testing.assert_allclose(out, forward(net, x) + math.sqrt(var) * block,
                                   rtol=1e-12, atol=1e-12)


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
        cov = _copies(_run(LinearNet.from_network(net), profile, copies[:-1], (1,) * net.depth)).final
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


class TestLinearPerSource:
    """One noise source live at a time on linear nets, every other source
    zero.  The kernel pushes each source through the layers above it into
    the top merged site, at the divisors of the groups it crosses; each
    one-source run matches the exact engine for that one-source profile.
    The engine is linear in the covariances, so its one-source outputs sum
    to its full output."""

    TRIALS = 40_000
    SOURCES = ["modulation"] + [f"{kind} {l}" for l in (1, 2, 3) for kind in ("weight", "activation")]

    @staticmethod
    def _profile(rng, net):
        """Every source live: a random modulation, weight, activation,
        combine and split covariance, none of them zero."""
        dims = net.dims()
        return NoiseProfile(
            random_covspec(rng, dims[0], allow_zero=False),
            tuple(random_covspec(rng, d, allow_zero=False) for d in dims[1:]),
            tuple(random_covspec(rng, d, allow_zero=False) for d in dims[1:]),
            CovSpec.isotropic(0.03), CovSpec.isotropic(0.02))

    @staticmethod
    def _one_source(profile, source):
        """``profile`` with every source but ``source`` zero."""
        zero = CovSpec.zero()

        def keep(name, spec):
            return spec if name == source else zero

        return NoiseProfile(
            keep("modulation", profile.modulation),
            tuple(keep(f"weight {l}", s) for l, s in enumerate(profile.weight, start=1)),
            tuple(keep(f"activation {l}", s) for l, s in enumerate(profile.activation, start=1)),
            keep("combine", profile.combine), keep("split", profile.split))

    @classmethod
    def _case(cls, seed, sampler):
        """A depth-3 linear net (widths (1, 1, 2, 2) at seed 603, (2, 4, 3,
        4) at 716, (3, 4, 3, 2) at 718), a profile with every source live,
        an input, and the engine's output covariance for a profile on the
        sampler's wiring: the tree (2, 2, 2, 1) or combine/split at m = 3."""
        rng = np.random.default_rng(seed)
        net = random_linear_net(rng, depth=3, max_dim=4)
        profile, x = cls._profile(rng, net), rng.normal(size=net.input_dim)
        linnet = LinearNet.from_network(net)
        if sampler == "tree":
            def engine(p):
                return _copies(_run(linnet, p, (2, 2, 2), (1, 1, 1))).final
        else:
            def engine(p):
                return propagate_b_branchwise(linnet, p, 3).output
        return net, profile, x, engine

    @pytest.mark.parametrize("seed", [603, 716])
    @pytest.mark.parametrize("source", SOURCES)
    def test_tree_source_matches_the_engine(self, source, seed):
        net, profile, x, engine = self._case(seed, "tree")
        one = self._one_source(profile, source)
        samples = design_a_samples(DesignASpec(net, (2, 2, 2, 1)), x, one, self.TRIALS,
                                   RngStream(seed))
        mean_gap, cov_gap = gaussian_gaps(samples, forward(net, x), engine(one))
        assert mean_gap <= MAX_SE and cov_gap <= MAX_SE, (mean_gap, cov_gap)

    @pytest.mark.parametrize("seed", [718])
    @pytest.mark.parametrize("source", SOURCES + ["combine", "split"])
    def test_combine_split_source_matches_the_engine(self, source, seed):
        net, profile, x, engine = self._case(seed, "combine_split")
        one = self._one_source(profile, source)
        samples = design_b_samples(DesignBSpec(net, 3), x, one, self.TRIALS, RngStream(seed))
        mean_gap, cov_gap = gaussian_gaps(samples, forward(net, x), engine(one))
        assert mean_gap <= MAX_SE and cov_gap <= MAX_SE, (mean_gap, cov_gap)

    @pytest.mark.parametrize("sampler, seed", [("tree", 603), ("tree", 716),
                                               ("combine_split", 718)])
    def test_one_source_outputs_sum_to_the_full_output(self, sampler, seed):
        net, profile, _, engine = self._case(seed, sampler)
        sources = self.SOURCES + (["combine", "split"] if sampler == "combine_split" else [])
        parts = [engine(self._one_source(profile, source)) for source in sources]
        np.testing.assert_allclose(sum(parts), engine(profile), rtol=1e-12, atol=1e-15)


class TestOneCopy:
    TRIALS = 20_000

    def test_literal_and_collapsed_draw_alike(self, rng):
        # one copy per layer, and no noise below a weighted addition but
        # that layer's own (no modulation, activation noise on the top layer
        # only): no group is averaged and nothing is pushed, so both wirings
        # take the same blocks and agree bit for bit, combine/split noise
        # included
        zero = CovSpec.zero()
        for _ in range(5):
            net = nonlinear_net(rng, [int(d) for d in rng.integers(1, 5, size=3)])
            live = with_combine_split(random_profile(rng, net))
            profile = NoiseProfile(zero, live.weight, (zero,) * (net.depth - 1) + live.activation[-1:],
                                   live.combine, live.split)
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

    @pytest.mark.parametrize("seed", [721, 722])
    def test_pushed_noise_keeps_the_law(self, seed):
        # every source live: the kernel draws the modulation and the lower
        # activation noise after the next weighted addition, through its
        # weights, where the literal wiring draws them where they arise
        rng = np.random.default_rng(seed)
        net = nonlinear_net(rng, (3, 4, 3, 3))
        profile = with_combine_split(random_profile(rng, net, scale=0.3))
        x = rng.normal(size=net.input_dim)
        tree = DesignASpec(net, (1,) * (net.depth + 1))
        for spec, collapsed, literal in ((tree, *TREE.values()),
                                         (DesignBSpec(net, 1), *COMBINE_SPLIT.values())):
            a = collapsed(spec, x, profile, self.TRIALS, RngStream(seed))
            b = literal(spec, x, profile, self.TRIALS, RngStream(seed + 1000))
            mean_gap, cov_gap = moment_gaps(a, b)
            assert mean_gap <= MAX_SE and cov_gap <= MAX_SE, (mean_gap, cov_gap)


class _WrongSites(SpecSites):
    """Draw sites that get one source's law wrong: its divisor at layer
    ``l`` times ``factor(l)``, or with ``shared`` one block for every
    ``shared`` consecutive draws of the source."""

    def __init__(self, rng, kind, factor=lambda layer: 1.0, shared=1):
        super().__init__(rng)
        self.kind, self.factor, self.shared, self.calls, self.block = kind, factor, shared, 0, None

    def add(self, h, spec, kind, layer, div=1.0):
        if kind != self.kind or spec.is_zero:
            return super().add(h, spec, kind, layer, div)
        if self.shared == 1:
            return super().add(h, spec, kind, layer, div * self.factor(layer))
        if self.calls % self.shared == 0:
            self.block = self.draw(_law(h.shape[-1], ((spec, div),)), kind, layer, h.shape)
        self.calls += 1
        return h + self.block


class TestOraclePower:
    """The linear oracle check flags literal samplers that break one law.

    Each wrong-law sampler is a literal reference sampler with one divisor
    changed; the honest sampler passes at the same seed, so the flag comes
    from the change.  The wrong samplers sit outside the package kernel.
    """

    TRIALS = 40_000
    M = 4
    COPIES = (3, 2, 1)

    @staticmethod
    def _copy_0(values):
        return values[0]

    def _laws(self, sampler):
        m = self.M

        def averaged(layer):
            # the copies that the average after this layer takes
            return m if sampler == "combine_split" else self.COPIES[layer]

        laws = {
            "honest": {},
            # Sigma_a per copy times the copies averaged: the mean keeps all of it
            "activation undivided": {"sites": dict(kind=KIND_ACTIVATION,
                                                   factor=lambda layer: 1.0 / averaged(layer))},
            "average takes copy 0": {"average": self._copy_0},
        }
        if sampler == "combine_split":
            laws["combine at m, not m**2"] = {"sites": dict(kind=KIND_COMBINE,
                                                            factor=lambda layer: 1.0 / m)}
            laws["one split block for all branches"] = {"sites": dict(kind=KIND_SPLIT, shared=m)}
        return laws

    @pytest.mark.parametrize("sampler, law", [
        ("combine_split", "honest"),
        ("combine_split", "combine at m, not m**2"),
        ("combine_split", "one split block for all branches"),
        ("combine_split", "activation undivided"),
        ("combine_split", "average takes copy 0"),
        ("tree", "honest"),
        ("tree", "activation undivided"),
        ("tree", "average takes copy 0"),
    ])
    def test_wrong_laws_are_flagged(self, sampler, law, monkeypatch):
        rng = np.random.default_rng(715)
        net = random_linear_net(rng, depth=2, max_dim=4)
        profile = NoiseProfile.isotropic(2, 0.02, 0.03, 0.03, 0.03, 0.03)
        x = rng.normal(size=net.input_dim)
        linnet = LinearNet.from_network(net)
        change = self._laws(sampler)[law]
        if "sites" in change:
            monkeypatch.setattr(reference_samplers, "SpecSites",
                                lambda r: _WrongSites(r, **change["sites"]))
        if "average" in change:
            monkeypatch.setattr(reference_samplers, "_average", change["average"])
        if sampler == "combine_split":
            cov = propagate_b_branchwise(linnet, profile, self.M).output
            samples = literal_design_b_samples(DesignBSpec(net, self.M), x, profile,
                                               self.TRIALS, RngStream(716))
        else:
            cov = _copies(_run(linnet, profile, self.COPIES[:-1], (1,) * net.depth)).final
            samples = literal_tree_samples(DesignASpec(net, self.COPIES), x, profile,
                                           self.TRIALS, RngStream(716))
        mean_gap, cov_gap = gaussian_gaps(samples, forward(net, x), cov)
        flagged = mean_gap > MAX_SE or cov_gap > MAX_SE
        assert flagged == (law != "honest"), (mean_gap, cov_gap)
