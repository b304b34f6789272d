"""Noise model: covariance specs, splittable streams, Monte Carlo harness."""

import hashlib
import json
import math
import multiprocessing
import re
import sys
import threading
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    propagate,
    stats_from_samples,
)
from optonoise import noise
from optonoise.network import affine
from optonoise.noise import (
    KIND_ACTIVATION,
    KIND_COMBINE,
    KIND_MODULATION,
    KIND_SPLIT,
    KIND_WEIGHT,
    _law,
    _Sites,
    covspec_from_json,
    covspec_to_json,
    profile_from_json,
    profile_to_json,
)

from conftest import SpecSites, count_affine_calls, random_covspec, random_linear_net, random_profile


def _draw(spec, dim, stream, n, div=1.0):
    """A fresh ``(*n, dim)`` block of Normal(0, spec / div) rows from site
    ``(0, 0)`` of ``stream``."""
    return _Sites(stream).draw(_law(dim, ((spec, div),)), 0, 0, (*n, dim))


class TestCovSpec:
    def test_negative_diagonal_rejected(self):
        with pytest.raises(ValidationError):
            CovSpec.diagonal([0.1, -0.1])

    def test_asymmetric_full_rejected(self):
        with pytest.raises(ValidationError):
            CovSpec.full([[1.0, 0.5], [0.3, 1.0]])

    def test_indefinite_full_rejected(self):
        with pytest.raises(ValidationError):
            CovSpec.full([[1.0, 2.0], [2.0, 1.0]])

    def test_semidefinite_full_accepted(self):
        spec = CovSpec.full([[1.0, 1.0], [1.0, 1.0]])
        assert not spec.is_zero
        np.testing.assert_allclose(spec.matrix(2), [[1.0, 1.0], [1.0, 1.0]])

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            CovSpec.diagonal([1.0, 2.0]).matrix(3)

    def test_arrays_are_read_only_copies(self):
        vec, mat = np.array([0.1, 0.2]), np.array([[1.0, 0.5], [0.5, 1.0]])
        diagonal, full = CovSpec.diagonal(vec), CovSpec.full(mat)
        for stored in (diagonal.vec, full.mat, full._factor):
            with pytest.raises(ValueError, match="read-only"):
                stored[0, ...] = np.nan
        vec[0], mat[0, 0] = -1.0, np.nan  # the caller's arrays stay writable
        np.testing.assert_array_equal(diagonal.vec, [0.1, 0.2])
        np.testing.assert_array_equal(full.mat, [[1.0, 0.5], [0.5, 1.0]])

    def test_json_round_trip(self):
        specs = [
            CovSpec.zero(),
            CovSpec.isotropic(0.3),
            CovSpec.diagonal([0.1, 0.2]),
            CovSpec.full([[1.0, 0.5], [0.5, 1.0]]),
        ]
        for spec in specs:
            back = covspec_from_json(covspec_to_json(spec))
            np.testing.assert_allclose(back.matrix(2), spec.matrix(2))


def normals(stream, n):
    return stream.generator().standard_normal(n)


class TestRngStream:
    def test_same_path_reproduces_bits(self):
        a = normals(RngStream(7, (1, 2, 3)), 8)
        b = normals(RngStream(7, (1, 2, 3)), 8)
        np.testing.assert_array_equal(a, b)

    def test_any_path_component_changes_stream(self):
        base = normals(RngStream(7).child(1, 2, 3), 8)
        for other in [(0, 2, 3), (1, 0, 3), (1, 2, 0), (1, 2, 3, 0)]:
            alt = normals(RngStream(7, other), 8)
            assert not np.array_equal(base, alt)

    def test_seed_changes_stream(self):
        assert not np.array_equal(normals(RngStream(7), 4), normals(RngStream(8), 4))

    def test_seed_and_path_follow_the_integer_rule(self):
        same = RngStream(7.0, (1.0,)).child(np.int64(2), 3.0)
        assert same == RngStream(7, (1, 2, 3)) and same.path == (1, 2, 3)
        np.testing.assert_array_equal(normals(same, 4), normals(RngStream(7, (1, 2, 3)), 4))
        for bad in (lambda: RngStream(1.5), lambda: RngStream(True), lambda: RngStream("x")):
            with pytest.raises(ValidationError, match="seed must be an integer"):
                bad()
        for bad in (lambda: RngStream(1).child(2.9), lambda: RngStream(1, (0, False))):
            with pytest.raises(ValidationError, match="stream path index must be an integer"):
                bad()

    @pytest.mark.parametrize("make", [lambda: RngStream(1, (-1,)), lambda: RngStream(1).child(-1),
                                      lambda: RngStream(1, (2,)).child(0, -1)],
                             ids=["path", "child", "deeper-child"])
    def test_negative_path_index_refused_at_construction(self, make):
        with pytest.raises(ValidationError, match=r"^stream path index must be >= 0, got -1$"):
            make()

    @pytest.mark.parametrize("seed", [-(2**63), 2**63 - 1], ids=["lowest", "highest"])
    def test_seeds_at_the_ends_of_the_range_keep_their_bits(self, seed):
        stream = RngStream(seed).child(1, 2)
        assert stream.seed == seed
        # the generator is seeded by the seed's 64-bit two's-complement pattern
        seq = np.random.SeedSequence(seed % 2**64, spawn_key=(1, 2))
        expected = np.random.Generator(np.random.SFC64(seq)).standard_normal(4)
        np.testing.assert_array_equal(normals(stream, 4), expected)

    @pytest.mark.parametrize("seed", [-(2**63) - 1, 2**63, 2**64], ids=["below", "above", "wraps-to-0"])
    def test_seeds_outside_signed_64_bits_refused(self, seed):
        with pytest.raises(ValidationError, match=rf"seed must lie in \[-2\*\*63, 2\*\*63\), got {seed}$"):
            RngStream(seed)


class TestSampleNoise:
    def test_zero_returns_exact_zeros(self, monkeypatch):
        built = record_generators(monkeypatch)
        h = np.zeros((1, 3))
        out = SpecSites(RngStream(1)).add(h, CovSpec.zero(), 0, 0)
        assert out is h and not built
        np.testing.assert_array_equal(out, np.zeros((1, 3)))

    def test_isotropic_variance_concentrates(self):
        # chi-squared concentration: sd of the sample variance at n=1e5 is
        # sigma^2 * sqrt(2/n) ~ 0.018, so [3.8, 4.2] is a >10-sigma corridor
        spec = CovSpec.isotropic(4.0)
        draws = _draw(spec, 1, RngStream(11, (0,)), (100_000,))
        var = draws.var(ddof=1)
        assert 3.8 <= var <= 4.2
        # a one-row block is the first row of any longer block on the same
        # stream, which makes a batch of one an exact single evaluation
        single = _draw(spec, 1, RngStream(11, (0,)), (1,))
        np.testing.assert_array_equal(single, draws[:1])

    def test_full_correlation_fisher_interval(self):
        # Fisher z interval: se(z) = 1/sqrt(n-3) ~ 0.0032 at n=1e5, so
        # [0.89, 0.91] around rho = 0.9 is a >15-sigma corridor
        spec = CovSpec.full([[1.0, 0.9], [0.9, 1.0]])
        draws = _draw(spec, 2, RngStream(12, (0,)), (100_000,))
        corr = np.corrcoef(draws.T)[0, 1]
        assert 0.89 <= corr <= 0.91

    def test_full_covariance_matches_spec(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(3, 3))
        spec = CovSpec.full(A @ A.T)
        draws = _draw(spec, 3, RngStream(13, (0,)), (200_000,))
        np.testing.assert_allclose(np.cov(draws.T), spec.matrix(3), rtol=0.05, atol=0.01)


class TestSitesAddKeepsItsInput:
    """``SpecSites.add`` returns a new block and never writes into ``h``; the
    literal reference samplers reuse one ``h`` for every branch."""

    @pytest.mark.parametrize("copies", [1, 3])
    @pytest.mark.parametrize("kind", ["zero", "isotropic", "diagonal", "full"])
    @pytest.mark.parametrize("broadcast", [False, True], ids=["owned", "broadcast"])
    def test_input_unchanged(self, copies, kind, broadcast):
        rng = np.random.default_rng(3)
        spec = random_covspec(rng, 4, kind=kind)
        if broadcast:
            h = np.broadcast_to(rng.normal(size=4), (copies, 5, 4))
        else:
            h = rng.normal(size=(copies, 5, 4))
        before = h.copy()
        out = SpecSites(RngStream(8)).add(h, spec, KIND_SPLIT, 1, 2.0)
        np.testing.assert_array_equal(h, before)
        assert out.shape == (copies, 5, 4)
        if not spec.is_zero:
            assert not np.shares_memory(out, h)


class TestFullCovarianceRowStability:
    """A one-row block of a full-covariance site is the first row of any larger block."""

    @pytest.mark.parametrize("width", [3, 8, 16, 64])
    def test_draw_prefix(self, width):
        spec = random_covspec(np.random.default_rng(width), width, kind="full")
        stream = RngStream(14, (width,))
        whole = _draw(spec, width, stream, (500,), 3.0)
        for t in (1, 2, 3, 7, 9, 100):
            np.testing.assert_array_equal(_draw(spec, width, stream, (t,), 3.0),
                                          whole[:t])

    @pytest.mark.parametrize("width", [3, 8, 16, 64])
    def test_sampler_prefix(self, width):
        rng = np.random.default_rng(width + 1)
        W = rng.normal(size=(width, width)) / np.sqrt(width)
        net = Network((Layer(W, rng.normal(size=width), Activation.tanh()),), width)
        full = [random_covspec(rng, width, kind="full") for _ in range(3)]
        profile = NoiseProfile(full[0], (full[1],), (full[2],))
        x = rng.normal(size=width)
        whole = noisy_forward_samples(net, profile, x, 500, RngStream(15))
        for t in (1, 2, 3, 7, 9, 100):
            np.testing.assert_array_equal(noisy_forward_samples(net, profile, x, t, RngStream(15)),
                                          whole[:t])


def identity_net(dim):
    return Network((Layer(np.eye(dim), np.zeros(dim), Activation.identity()),), dim)


def record_generators(monkeypatch):
    """Record the path of every stream whose generator gets built."""
    built = []
    real = RngStream.generator

    def recording(self):
        built.append(self.path)
        return real(self)

    monkeypatch.setattr(RngStream, "generator", recording)
    return built


def record_draws(monkeypatch):
    """Record the site ``(kind, layer)`` of every block a sampler draws."""
    drawn = []
    real = _Sites.draw

    def recording(self, law, kind, layer, shape):
        drawn.append((kind, layer))
        return real(self, law, kind, layer, shape)

    monkeypatch.setattr(_Sites, "draw", recording)
    return drawn


def plain_rows_by_part(net, h, seed, half, variances=(0.01, 0.02, 0.03, 0.04, 0.05)):
    """The plain nonlinear net's rows from input rows ``h`` under isotropic
    modulation, weight and activation noise at ``variances``, each site read
    as one block of rows ``0 .. half - 1`` from ``rng.child(kind, layer)``
    and one of the rest from ``rng.child(_PART_1, kind, layer)``.  Every
    layer's pre-activation site carries its weight noise and, pushed
    through its weights, the noise below it (modulation, then the activation
    noise of the layer below); the top layer keeps its activation site."""
    rows = h.shape[0]
    parts = (_Sites(RngStream(seed)), _Sites(RngStream(seed).child(noise._PART_1)))

    def block(law, kind, layer):
        d = net.dims()[layer]
        return np.concatenate([parts[0].draw(law, kind, layer, (half, d)),
                               parts[1].draw(law, kind, layer, (rows - half, d))])

    mod, weights, acts = variances[0], variances[1:1 + net.depth], variances[1 + net.depth:]
    below = math.sqrt(mod)
    for l, layer in enumerate(net.layers, start=1):
        iso = CovSpec.isotropic(weights[l - 1])
        law = _law(layer.out_dim, ((iso, 1),), push=(layer.weights, below))
        np.testing.assert_allclose(
            law[0] @ law[0].T,
            below**2 * layer.weights @ layer.weights.T + iso.matrix(layer.out_dim),
            rtol=1e-12, atol=1e-15)
        h = layer.activation(affine(layer.weights, layer.bias, h) + block(law, KIND_WEIGHT, l))
        below = math.sqrt(acts[l - 1])
    return h + block(below, KIND_ACTIVATION, net.depth)


class TestNoisyForward:
    def test_zero_profile_bit_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            net = random_linear_net(rng, depth=3)
            x = rng.normal(size=net.input_dim)
            out = noisy_forward_samples(net, NoiseProfile.zero(net.depth), x, 1, RngStream(5))[0]
            np.testing.assert_array_equal(out, forward(net, x))

    def test_modulation_only_mean(self):
        # output ~ Normal(x, sigma^2 I): per-coordinate CLT corridor 4 sigma/sqrt(n)
        net = identity_net(2)
        var = 0.25
        profile = NoiseProfile.isotropic(1, modulation_var=var)
        x = np.array([1.0, -2.0])
        samples = noisy_forward_samples(net, profile, x, 100_000, RngStream(3))
        tol = 4.0 * math.sqrt(var / samples.shape[0])
        assert np.all(np.abs(samples.mean(axis=0) - x) <= tol)
        assert np.allclose(samples.var(axis=0, ddof=1), var, rtol=0.05)

    def test_weight_noise_scaled_by_activation(self):
        # diag coefficient 2 squares to 4 on the weight-noise variance
        net = Network((Layer([[1.0]], [0.0], Activation.diag_linear([2.0])),), 1)
        profile = NoiseProfile.isotropic(1, weight_var=1.0)
        samples = noisy_forward_samples(net, profile, np.zeros(1), 100_000, RngStream(4))
        assert samples.var(ddof=1) == pytest.approx(4.0, rel=0.05)

    def test_single_and_batch_agree_in_distribution(self):
        rng = np.random.default_rng(2)
        net = random_linear_net(rng, depth=2, max_dim=3)
        profile = random_profile(rng, net)
        x = rng.normal(size=net.input_dim)
        single = np.vstack(
            [noisy_forward_samples(net, profile, x, 1, RngStream(6).child(t))[0] for t in range(4000)]
        )
        batch = noisy_forward_samples(net, profile, x, 4000, RngStream(7))
        np.testing.assert_allclose(single.mean(axis=0), batch.mean(axis=0), atol=0.05)
        np.testing.assert_allclose(
            np.cov(single.T), np.cov(batch.T), rtol=0.25, atol=0.01
        )

    def test_same_seed_same_draws(self):
        rng = np.random.default_rng(3)
        net = random_linear_net(rng, depth=2)
        profile = random_profile(rng, net)
        x = rng.normal(size=net.input_dim)
        a = noisy_forward_samples(net, profile, x, 1, RngStream(9).child(0))[0]
        b = noisy_forward_samples(net, profile, x, 1, RngStream(9).child(0))[0]
        np.testing.assert_array_equal(a, b)

    def test_integral_float_trials_pass_and_fractions_refused(self):
        net = identity_net(2)
        profile = NoiseProfile.isotropic(1, weight_var=0.1)
        np.testing.assert_array_equal(
            noisy_forward_samples(net, profile, np.ones(2), 2.0, RngStream(1)),
            noisy_forward_samples(net, profile, np.ones(2), 2, RngStream(1)),
        )
        for bad in (2.5, True):
            with pytest.raises(ValidationError, match="trials must be an integer"):
                noisy_forward_samples(net, profile, np.ones(2), bad, RngStream(1))

    def test_profile_dim_mismatch_rejected(self):
        net = identity_net(2)
        bad = NoiseProfile(CovSpec.diagonal([1.0, 1.0, 1.0]), (CovSpec.zero(),), (CovSpec.zero(),))
        with pytest.raises(ValidationError):
            noisy_forward_samples(net, bad, np.zeros(2), 1, RngStream(0))

    @pytest.mark.parametrize("design", ["a", "b"])
    def test_design_profile_dim_mismatch_rejected_before_any_draw(self, design, monkeypatch):
        # the modulation site would draw first; the bad weight spec must be
        # refused by the entry check, not by a draw
        net = identity_net(2)
        bad = NoiseProfile(
            CovSpec.isotropic(0.1), (CovSpec.diagonal([1.0, 1.0, 1.0]),), (CovSpec.zero(),)
        )
        built = record_generators(monkeypatch)
        with pytest.raises(ValidationError, match="weight covariance of layer 1"):
            if design == "a":
                design_a_samples(DesignASpec(net, (2, 1)), np.zeros(2), bad, 1, RngStream(0))
            else:
                design_b_samples(DesignBSpec(net, 2), np.zeros(2), bad, 1, RngStream(0))
        assert not built


class TestSiteStreams:
    """One stream per ``(kind, layer)`` site per call; copy ``j`` takes block ``j``."""

    def test_two_leaf_tree_takes_consecutive_blocks(self):
        # relu layers with unit weights: the two modulated leaves of a
        # level-1 node collapse into one block at variance var / 2, pushed
        # through the unit weights into layer 1's pre-activation site; two
        # level-1 nodes take consecutive blocks of that site
        d, trials, var = 3, 5, 0.3
        x = np.array([0.5, -1.0, 2.0])
        gen = RngStream(21).child(KIND_WEIGHT, 1).generator()
        z0 = gen.standard_normal((trials, d))
        z1 = gen.standard_normal((trials, d))
        relu = Layer(np.eye(d), np.zeros(d), Activation.relu())
        profile = NoiseProfile.isotropic(1, modulation_var=var)
        out = design_a_samples(DesignASpec(Network((relu,), d), (2, 1)), x, profile, trials,
                               RngStream(21))
        np.testing.assert_array_equal(out, np.maximum(x + math.sqrt(var / 2) * z0, 0.0))
        net = Network((relu, relu), d)
        profile = NoiseProfile.isotropic(2, modulation_var=var)
        out = design_a_samples(DesignASpec(net, (1, 2, 1)), x, profile, trials, RngStream(21))
        s = math.sqrt(var)
        np.testing.assert_array_equal(
            out, (np.maximum(x + s * z0, 0.0) + np.maximum(x + s * z1, 0.0)) / 2)

    def test_samples_do_not_depend_on_chunk_budget(self, monkeypatch):
        import optonoise.noise as noise

        rng = np.random.default_rng(24)
        net = TestDegeneracyProperty.random_net(rng, ["tanh", "softmax", "diag"])
        dims = net.dims()
        full = [random_covspec(rng, d, kind="full") for d in dims]
        iso = CovSpec.isotropic(0.02)
        profile = NoiseProfile(full[0], tuple(full[1:]), (iso, iso, iso), iso, iso)
        x = rng.normal(size=net.input_dim)
        tree = DesignASpec(net, (2, 3, 2, 1))

        def run():
            return (
                design_a_samples(tree, x, profile, 7, RngStream(25)),
                design_b_samples(DesignBSpec(net, 3), x, profile, 7, RngStream(25)),
            )

        calls = count_affine_calls(monkeypatch, noise)
        drawn = record_draws(monkeypatch)
        default = run()
        # one call per layer and sampler; layer 1's weighted addition takes
        # only the modulation pushed into it, so it runs once, in the prefix
        assert len(calls) == 2 * net.depth
        assert drawn.count((KIND_WEIGHT, 1)) == 2
        calls.clear()
        drawn.clear()
        monkeypatch.setattr(noise, "_CHUNK_BYTES", 1)
        tiny = run()
        # the tiny budget runs one next-layer group per chunk: the tree's
        # layer 1 in two chunks of three nodes (one per level-2 node), each
        # drawing its pre-activation blocks, its layers 2 and 3 in one each,
        # and design B one pass per layer
        assert len(calls) == 2 * net.depth
        assert drawn.count((KIND_WEIGHT, 1)) == 2 + 1
        for a, b in zip(default, tiny):
            np.testing.assert_array_equal(a, b)

    def test_realizations_under_linear_layers_do_not_depend_on_chunk_budget(self, monkeypatch):
        # a (2, 2, 2, 2, 1) tree runs 4 realizations of each group of its
        # first tanh layer under two identity layers: at the default budget
        # in one pass, at a tiny one in four, summed in the same order
        import optonoise.noise as noise

        rng = np.random.default_rng(43)
        net = TestDegeneracyProperty.random_net(rng, ["tanh", "identity", "identity", "tanh"])
        profile = random_profile(rng, net)
        tree = DesignASpec(net, (2, 2, 2, 2, 1))
        xs = rng.normal(size=(3, net.input_dim))
        calls = count_affine_calls(monkeypatch, noise)
        drawn = record_draws(monkeypatch)
        default = design_a_samples(tree, xs, profile, 5, RngStream(44))
        # layer 1's weighted addition runs once, in the prefix; its
        # pre-activation blocks are drawn once per pass
        assert len(calls) == 4
        assert drawn.count((KIND_WEIGHT, 1)) == 1
        monkeypatch.setattr(noise, "_CHUNK_BYTES", 1)
        np.testing.assert_array_equal(design_a_samples(tree, xs, profile, 5, RngStream(44)),
                                      default)
        assert len(calls) == 4 + 4
        assert drawn.count((KIND_WEIGHT, 1)) == 1 + 4

    def test_design_b_draws_one_activation_block_per_average(self):
        # depth 1, m = 3, activation noise only: the three branches average
        # to the noiseless output plus one block of the activation site at
        # var / 3, not the mean of three blocks at var
        rng = np.random.default_rng(28)
        W = rng.normal(size=(4, 3))
        net = Network((Layer(W, rng.normal(size=4), Activation.tanh()),), 3)
        var, zero = 0.2, CovSpec.zero()
        profile = NoiseProfile(zero, (zero,), (CovSpec.isotropic(var),))
        x, trials = rng.normal(size=3), 6
        out = design_b_samples(DesignBSpec(net, 3), x, profile, trials, RngStream(29))
        block = RngStream(29).child(KIND_ACTIVATION, 1).generator().standard_normal((trials, 4))
        np.testing.assert_allclose(out, forward(net, x) + math.sqrt(var / 3) * block,
                                   rtol=1e-12, atol=1e-12)

    def test_noise_on_one_layer_does_not_depend_on_chunk_budget(self, monkeypatch):
        # noise on layer 2 only: layer 2 averages its identical layer-1
        # copies in every chunk, also in chunks that run after an earlier
        # chunk drew, so the bits do not depend on the chunk budget
        import optonoise.noise as noise

        rng = np.random.default_rng(26)
        W1, W2, W3 = rng.normal(size=(16, 4)), rng.normal(size=(8, 16)), rng.normal(size=(2, 8))
        net = Network((Layer(W1, rng.normal(size=16), Activation.tanh()),
                       Layer(W2 / 4, rng.normal(size=8), Activation.tanh()),
                       Layer(W3, np.zeros(2), Activation.identity())), 4)
        iso, zero = CovSpec.isotropic(0.02), CovSpec.zero()
        profile = NoiseProfile(zero, (zero, iso, zero), (zero, iso, zero))
        xs = rng.normal(size=(8, 4))
        tree = DesignASpec(net, (2, 3, 2, 1))
        default = design_a_samples(tree, xs, profile, 5, RngStream(27))
        monkeypatch.setattr(noise, "_CHUNK_BYTES", 1)
        np.testing.assert_array_equal(design_a_samples(tree, xs, profile, 5, RngStream(27)),
                                      default)

    @pytest.mark.parametrize("sampler", ["plain", "tree", "combine_split"])
    def test_one_generator_per_nonzero_site(self, sampler, monkeypatch):
        # the modulation noise is pushed into layer 1's pre-activation site,
        # which design B's layer-1 combine noise joins; layer 1's activation
        # noise is zero, so layer 2 takes nothing pushed and its combine
        # noise keeps its own site
        rng = np.random.default_rng(22)
        net = TestDegeneracyProperty.random_net(rng, ["tanh", "relu"])
        iso, zero = CovSpec.isotropic(0.1), CovSpec.zero()
        profile = NoiseProfile(iso, (iso, zero), (zero, iso), iso, iso)
        x = rng.normal(size=net.input_dim)
        expected = [(KIND_WEIGHT, 1), (KIND_ACTIVATION, 2)]
        built = record_generators(monkeypatch)
        if sampler == "plain":
            noisy_forward_samples(net, profile, x, 4, RngStream(23))
        elif sampler == "tree":
            design_a_samples(DesignASpec(net, (3, 2, 1)), x, profile, 4, RngStream(23))
        else:
            design_b_samples(DesignBSpec(net, 3), x, profile, 4, RngStream(23))
            expected += [(KIND_COMBINE, 2), (KIND_SPLIT, 1), (KIND_SPLIT, 2)]
        assert all(len(path) == 2 for path in built)
        assert sorted(built) == sorted(expected)

    @pytest.mark.parametrize("sampler", ["plain", "tree", "combine_split"])
    def test_one_generator_per_noisy_linear_layer(self, sampler, monkeypatch):
        # a linear layer draws its weight, combine, split and activation
        # noise from one merged site, and takes the noise below it pushed
        # through its weights, so a linear net's noise all reaches the top
        # merged site, even where the top layer has none of its own; a
        # profile with nothing below a linear layer builds that layer's site
        rng = np.random.default_rng(22)
        net = random_linear_net(rng, depth=3, max_dim=3)
        iso, zero = CovSpec.isotropic(0.1), CovSpec.zero()
        profile = NoiseProfile(iso, (iso, zero, zero), (zero, iso, zero), iso, iso)
        top_only = NoiseProfile(zero, (zero, zero, zero), (zero, iso, zero))
        x = rng.normal(size=net.input_dim)
        built = record_generators(monkeypatch)
        for profile, layer in ((profile, 3), (top_only, 2)):
            built.clear()
            if sampler == "plain":
                noisy_forward_samples(net, profile, x, 4, RngStream(23))
            elif sampler == "tree":
                design_a_samples(DesignASpec(net, (3, 2, 2, 1)), x, profile, 4, RngStream(23))
            else:
                design_b_samples(DesignBSpec(net, 3), x, profile, 4, RngStream(23))
            if layer == 2:  # layer 2's own activation noise, pushed into layer 3
                layer = 3
            assert built == [(noise._KIND_LINEAR, layer)]

    def test_merged_linear_site_draws_the_averaged_law(self):
        # tree (2, 3, 1) on unit weights, a diag layer e = (0.5, 2) under an
        # identity layer.  Layer 2 averages 3 level-1 nodes of 2 leaves each,
        # and every law below the top is pushed into it, so one block of the
        # top merged site carries, summed:
        #   modulation 0.06 / 6 = 0.01, through e: e**2 * 0.01,
        #   layer 1: e**2 * 0.12 / 6 + 0.03 / 3 = (0.015, 0.09),
        #   layer 2: 0.09 / 3 + 0.01 = 0.04,
        # that is (0.0575, 0.17), drawn as two normals a row through a factor
        e, trials = np.array([0.5, 2.0]), 7
        net = Network((Layer(np.eye(2), np.zeros(2), Activation.diag_linear(e)),
                       Layer(np.eye(2), np.zeros(2), Activation.identity())), 2)
        iso = CovSpec.isotropic
        profile = NoiseProfile(iso(0.06), (iso(0.12), iso(0.09)), (iso(0.03), iso(0.01)))
        x = np.array([0.25, -1.5])
        out = design_a_samples(DesignASpec(net, (2, 3, 1)), x, profile, trials, RngStream(40))
        z = RngStream(40).child(noise._KIND_LINEAR, 2).generator().standard_normal((trials, 2))
        factor_t, *_ = np.linalg.lstsq(z, out - forward(net, x), rcond=None)
        np.testing.assert_allclose(out, forward(net, x) + z @ factor_t, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(factor_t.T @ factor_t, np.diag([0.0575, 0.17]),
                                   rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("sampler", ["plain", "tree", "combine_split"])
    def test_part_0_kind_codes_never_equal_the_part_1_prefix(self, sampler, monkeypatch):
        # every source on, linear and nonlinear layers, two parts: part 0's
        # sites are (kind, layer) with kind != _PART_1, part 1's the same
        # sites under the prefix _PART_1
        rng = np.random.default_rng(41)
        net = TestDegeneracyProperty.random_net(rng, ["tanh", "identity", "diag", "relu"])
        dims = net.dims()
        iso = CovSpec.isotropic(0.01)
        profile = NoiseProfile(iso, (iso,) * 4, (iso,) * 4, iso, iso)
        built = record_generators(monkeypatch)
        _matrix_samplers(net, 2)[sampler](rng.normal(size=(2, dims[0])), profile,
                                          noise._SPLIT_ROWS, RngStream(42))
        part_0 = {path for path in built if len(path) == 2}
        assert part_0 and all(path[0] != noise._PART_1 for path in part_0)
        assert {path for path in built if len(path) == 3} == {(noise._PART_1, *p) for p in part_0}


class TestAllLinearNet:
    """Every layer of a linear net takes the noise below it pushed through
    its weights, so the net draws only from its top merged site."""

    @pytest.mark.parametrize("trials", [3, noise._SPLIT_ROWS], ids=["one-part", "two-parts"])
    @pytest.mark.parametrize("copies", [1, 3])
    @pytest.mark.parametrize("sampler", ["plain", "tree", "combine_split"])
    def test_one_top_block_per_row_and_one_pass_per_layer(self, sampler, copies, trials,
                                                          monkeypatch):
        # every source full, so each merged site stacks more factor columns
        # than the top width: a row still takes at most d_L normals, from
        # (_KIND_LINEAR, L) in each part, and each layer makes one affine
        # call, on the call's N input rows
        rng = np.random.default_rng(50)
        net = random_linear_net(rng, depth=3, max_dim=4)
        dims = net.dims()
        full = [random_covspec(rng, d, kind="full") for d in dims]
        profile = NoiseProfile(full[0], tuple(full[1:]), tuple(full[1:]),
                               CovSpec.isotropic(0.01), CovSpec.isotropic(0.02))
        xs = rng.normal(size=(2, dims[0]))
        calls = count_affine_calls(monkeypatch, noise)
        built, normals = [], []
        real = RngStream.generator

        class Counting:
            def __init__(self, gen):
                self.gen = gen

            def standard_normal(self, shape):
                normals.append(shape)
                return self.gen.standard_normal(shape)

        monkeypatch.setattr(RngStream, "generator",
                            lambda self: built.append(self.path) or Counting(real(self)))
        out = _matrix_samplers(net, copies)[sampler](xs, profile, trials, RngStream(51))
        assert out.shape == (2, trials, dims[-1]) and np.isfinite(out).all()
        site = (noise._KIND_LINEAR, net.depth)
        parts = [site] if 2 * trials < noise._SPLIT_ROWS else [site, (noise._PART_1, *site)]
        assert sorted(built) == sorted(parts)
        assert sum(math.prod(shape[:-1]) for shape in normals) == 2 * trials
        assert all(shape[-1] <= dims[-1] for shape in normals)
        assert [args[2].shape for args in calls] == [(2, d) for d in dims[:-1]]


class TestLawTable:
    """A call builds every site's law once, before its first tile, and
    factors a covariance only for a merged site with a full source."""

    @staticmethod
    def record(monkeypatch, module, name):
        """Record the arguments of every call of ``module.name``."""
        calls = []
        real = getattr(module, name)

        def recording(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, recording)
        return calls

    @pytest.mark.parametrize("sampler", ["plain", "tree", "combine_split"])
    def test_one_law_per_site_of_the_wiring(self, sampler, monkeypatch):
        # tanh, identity, relu: the modulation law, three laws per nonlinear
        # layer that takes the noise below it pushed (pre-activation, split,
        # activation; its combine noise joins the pre-activation site) and
        # one merged law per linear layer, silent or not: 1 + 3 + 1 + 3
        rng = np.random.default_rng(45)
        net = TestDegeneracyProperty.random_net(rng, ["tanh", "identity", "relu"])
        profile = random_profile(rng, net)
        profile = NoiseProfile(profile.modulation, profile.weight, profile.activation,
                               CovSpec.isotropic(0.01), CovSpec.isotropic(0.02))
        run = _matrix_samplers(net, 2)[sampler]
        xs = rng.normal(size=(2, net.input_dim))
        laws = self.record(monkeypatch, noise, "_law")
        run(xs[0], profile, 3, RngStream(46))
        assert len(laws) == 8
        # two parts of 16 tiles each, in passes of one group or realization
        laws.clear()
        monkeypatch.setattr(noise, "_GROUP_ROWS", 64)
        monkeypatch.setattr(noise, "_CHUNK_BYTES", 1)
        assert len(noise._parts(2 * noise._SPLIT_ROWS)[1]) == 16
        run(xs, profile, noise._SPLIT_ROWS, RngStream(46))
        assert len(laws) == 8

    @pytest.mark.parametrize("kinds, modulation, factored, pushed", [
        (["tanh", "relu", "softmax"], True, 0, 3),
        (["tanh", "identity", "relu", "diag"], True, 0, 4),
        (["diag", "tanh"], False, 1, 1),
    ], ids=["nonlinear", "mixed", "linear-first"])
    def test_only_merged_full_sites_factor_once_per_call(self, kinds, modulation, factored, pushed,
                                                         monkeypatch):
        # every other source full: a single-source site keeps the factor its
        # spec cached at construction; a linear layer with nothing below it
        # factors its merged summed covariance, and a layer that takes the
        # noise below it pushed takes the QR of its stacked factors, once
        # per call however many tiles the call runs
        rng = np.random.default_rng(48)
        net = TestDegeneracyProperty.random_net(rng, kinds)
        dims = net.dims()
        full = [random_covspec(rng, d, kind="full") for d in dims]
        profile = NoiseProfile(full[0] if modulation else CovSpec.zero(), tuple(full[1:]),
                               tuple(full[1:]))
        xs = rng.normal(size=(2, net.input_dim))
        monkeypatch.setattr(noise, "_GROUP_ROWS", 64)
        monkeypatch.setattr(noise, "_CHUNK_BYTES", 1)
        eighs = self.record(monkeypatch, np.linalg, "eigh")
        qrs = self.record(monkeypatch, np.linalg, "qr")
        for run in _matrix_samplers(net, 2).values():
            eighs.clear()
            qrs.clear()
            run(xs, profile, noise._SPLIT_ROWS, RngStream(49))
            assert len(eighs) == factored
            assert len(qrs) == pushed


class TestTiles:
    """A call's two parts run their rows in tiles of ``_GROUP_ROWS``; in each
    tile copy ``j`` of a site takes the next tile-sized block of the part's
    stream of that site."""

    ROWS = 2 * noise._GROUP_ROWS + 5
    HALF = noise._GROUP_ROWS + 3  # ceil(ROWS / 2), the rows of part 0

    def test_design_b_reads_the_split_stream_tile_by_tile(self):
        # depth 1, m = 3, split noise only, over two parts: part 0 runs a
        # full tile and one of three rows on the site rng.child(KIND_SPLIT, 1),
        # part 1 a full tile and one of two rows on rng.child(_PART_1,
        # KIND_SPLIT, 1); each tile takes three blocks of its own rows in turn
        rng = np.random.default_rng(30)
        W = rng.normal(size=(4, 3))
        net = Network((Layer(W, rng.normal(size=4), Activation.tanh()),), 3)
        var, zero = 0.2, CovSpec.zero()
        profile = NoiseProfile(zero, (zero,), (zero,), zero, CovSpec.isotropic(var))
        x = rng.normal(size=3)
        out = design_b_samples(DesignBSpec(net, 3), x, profile, self.ROWS, RngStream(31))
        h = forward(Network((Layer(W, net.layers[0].bias, Activation.identity()),), 3), x)
        expected = []
        for path, tiles in (((KIND_SPLIT, 1), (noise._GROUP_ROWS, 3)),
                            ((noise._PART_1, KIND_SPLIT, 1), (noise._GROUP_ROWS, 2))):
            gen = RngStream(31).child(*path).generator()
            expected += [np.tanh(h + math.sqrt(var) * gen.standard_normal((3, n, 4))).mean(axis=0)
                         for n in tiles]
        np.testing.assert_allclose(out, np.concatenate(expected), rtol=1e-12, atol=1e-12)

    def test_one_copy_sites_read_their_stream_as_one_block(self):
        # the plain tanh/relu net over three inputs whose rows straddle tile
        # and part borders: every site reads each part's stream as one block
        # of the part's rows
        rng = np.random.default_rng(32)
        net = TestDegeneracyProperty.random_net(rng, ["tanh", "relu"])
        dims = net.dims()
        iso = [CovSpec.isotropic(v) for v in (0.01, 0.02, 0.03, 0.04, 0.05)]
        profile = NoiseProfile(iso[0], (iso[1], iso[2]), (iso[3], iso[4]))
        trials = self.ROWS // 3
        xs = rng.normal(size=(3, dims[0]))
        out = noisy_forward_samples(net, profile, xs, trials, RngStream(33))
        h = plain_rows_by_part(net, np.repeat(xs, trials, axis=0), 33, self.HALF)
        np.testing.assert_array_equal(out, h.reshape(3, trials, -1))

    def test_one_tile_tree_keeps_its_samples(self):
        # a tree over 2 000 rows runs two parts of 1 000 rows, one tile
        # each, so each part reads the relu layer's sites with several
        # copies as one block per copy, and the diag layer's merged site as
        # one block.  Powers-of-two weights, at most two nonzeros a row, and
        # relu and diag activations keep every product exact, so no BLAS
        # kernel rounds a row differently and the hash is portable.  The
        # modulation and layer 1's activation noise are silent: pushed
        # through W1 or W2 they would be drawn through a QR factor, whose
        # products round
        W1 = np.array([[1.0, 0.5], [0.0, -2.0], [0.25, 0.0]])
        W2 = np.array([[0.5, 0.0, 1.0], [0.0, 1.0, -0.5]])
        net = Network((Layer(W1, np.array([0.5, -0.25, 0.0]), Activation.relu()),
                       Layer(W2, np.array([0.125, 0.0]), Activation.diag_linear([0.75, 1.5]))), 2)
        profile = NoiseProfile(
            CovSpec.zero(),
            (CovSpec.diagonal([0.02, 0.01, 0.03]), CovSpec.isotropic(0.02)),
            (CovSpec.zero(), CovSpec.diagonal([0.01, 0.02])),
        )
        xs = np.array([[0.5, -1.0], [1.0, 0.25], [-0.5, 2.0], [0.0, 1.5]])
        out = design_a_samples(DesignASpec(net, (3, 2, 1)), xs, profile, 500, RngStream(2024))
        assert out.shape == (4, 500, 2)
        assert hashlib.sha256(out.tobytes()).hexdigest() == (
            "bee7629ba67fb5e68b35ba8c6ed6b532205a0cf63da6e54f34c543906d5c588d")


class TestDegeneracyProperty:
    """Zero-noise and one-copy runs of every sampler reproduce the plain net."""

    @staticmethod
    def random_net(rng, kinds):
        dims = [int(rng.integers(1, 7)) for _ in range(len(kinds) + 1)]
        layers = []
        for l, kind in enumerate(kinds):
            d = dims[l + 1]
            act = (
                Activation.diag_linear(rng.uniform(0.3, 1.1, size=d))
                if kind == "diag"
                else Activation(kind)
            )
            W = rng.normal(size=(d, dims[l])) / np.sqrt(dims[l])
            layers.append(Layer(W, rng.normal(size=d) * 0.3, act))
        return Network(tuple(layers), dims[0])

    @settings(derandomize=True, deadline=None)
    @given(
        kinds=st.lists(
            st.sampled_from(["identity", "tanh", "relu", "softmax", "diag"]),
            min_size=1,
            max_size=3,
        ),
        trials=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_copy_samplers_reduce_to_plain_net(self, kinds, trials, seed):
        rng = np.random.default_rng(seed)
        net = self.random_net(rng, kinds)
        x = rng.normal(size=net.input_dim)
        tree = DesignASpec(net, (1,) * (net.depth + 1))
        single = DesignBSpec(net, 1)

        def run_all(profile, stream):
            return (
                noisy_forward_samples(net, profile, x, trials, stream),
                design_a_samples(tree, x, profile, trials, stream),
                design_b_samples(single, x, profile, trials, stream),
            )

        ref = forward(net, x)
        for out in run_all(NoiseProfile.zero(net.depth), RngStream(seed)):
            assert out.shape == (trials, net.output_dim)
            for row in out:
                np.testing.assert_array_equal(row, ref)

        plain, tree_out, single_out = run_all(random_profile(rng, net), RngStream(seed, (1,)))
        np.testing.assert_array_equal(tree_out, plain)
        np.testing.assert_array_equal(single_out, plain)

    @pytest.mark.parametrize("streamed", [False, True], ids=["samples", "reference"])
    @pytest.mark.parametrize("sampler, nonzero", [
        ("plain", "none"), ("plain", "combine_split"), ("tree", "none"),
        ("tree", "combine_split"), ("combine_split", "none")])
    def test_calls_that_draw_nothing_run_forward_once_per_input(self, sampler, nonzero,
                                                                 streamed, monkeypatch):
        # every spec the call consumes is zero, so every layer lies below
        # every live site: the call builds no stream and runs the noiseless
        # pass once, one weighted addition per layer on the N input rows, and
        # every row of its output is forward bit for bit
        net = self.random_net(np.random.default_rng(61), ["tanh", "identity", "softmax"])
        profile = (NoiseProfile.zero(3) if nonzero == "none"
                   else NoiseProfile.isotropic(3, combine_var=0.1, split_var=0.1))
        run = {
            "plain": lambda x, **kw: noisy_forward_samples(net, profile, x, 7, RngStream(62), **kw),
            "tree": lambda x, **kw: design_a_samples(DesignASpec(net, (2, 3, 2, 1)), x, profile,
                                                     7, RngStream(62), **kw),
            "combine_split": lambda x, **kw: design_b_samples(DesignBSpec(net, 3), x, profile,
                                                              7, RngStream(62), **kw),
        }[sampler]
        xs = np.random.default_rng(63).normal(size=(3, net.input_dim))
        built = record_generators(monkeypatch)
        calls = count_affine_calls(monkeypatch, noise)
        if streamed:
            stats = run(xs[0], reference=forward(net, xs[0]))
            np.testing.assert_array_equal(stats.mean, forward(net, xs[0]))
            assert not np.any(stats.covariance) and stats.mse_vs_reference == 0.0
            inputs = 1
        else:
            out = run(xs)
            np.testing.assert_array_equal(out, np.repeat(forward(net, xs)[:, None], 7, axis=1))
            inputs = 3
        assert [args[2].shape for args in calls] == [(inputs, d) for d in net.dims()[:-1]]
        assert built == []


class TestSilentLowerLayers:
    """Layers below every live site run once per input, as ``forward`` does.

    With noise on the fixture's top layer only, the tree ``(3, n, 1)`` is
    the plain net with that layer's weight noise divided by ``n``: the ``n``
    layer-1 copies it averages are one noiseless value.
    """

    WEIGHT, ACTIVATION = 0.02, 0.01

    @classmethod
    def top_only(cls, weight):
        z = CovSpec.zero()
        return NoiseProfile(z, (z, CovSpec.isotropic(weight)), (z, CovSpec.isotropic(cls.ACTIVATION)))

    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("shape, trials", [((), 7), ((), 2000), ((5,), 700)],
                             ids=["vector-7", "vector-2000", "matrix-700"])
    @pytest.mark.parametrize("streamed", [False, True], ids=["samples", "reference"])
    def test_tree_is_the_plain_net_at_divided_weight_noise(self, n, shape, trials, streamed):
        from optonoise.fixtures import fixture_network

        net = fixture_network()
        x = (np.random.default_rng(19).normal(size=(*shape, net.input_dim)) if shape
             else np.array([0.1, -0.2, 0.3, 0.4, -0.5, 0.6, 0.7, -0.8]))
        kw = {"reference": forward(net, x[0] if shape else x)} if streamed else {}
        tree = design_a_samples(DesignASpec(net, (3, n, 1)), x, self.top_only(self.WEIGHT),
                                trials, RngStream(17), **kw)
        plain = noisy_forward_samples(net, self.top_only(self.WEIGHT / n), x, trials,
                                      RngStream(17), **kw)
        if streamed:
            for name in ("n", "mean", "covariance", "mse_vs_reference"):
                np.testing.assert_array_equal(getattr(tree, name), getattr(plain, name))
        else:
            assert tree.shape == (*shape, trials, net.output_dim)
            np.testing.assert_array_equal(tree, plain)

    @pytest.mark.parametrize("sampler", ["tree", "combine_split"])
    def test_no_stream_below_the_first_live_layer(self, sampler, monkeypatch):
        from optonoise.fixtures import fixture_network

        net = fixture_network()
        built = record_generators(monkeypatch)
        _matrix_samplers(net, 3)[sampler](np.zeros(net.input_dim), self.top_only(self.WEIGHT),
                                          2000, RngStream(18))
        assert sorted(built) == [(kind, 2) for kind in (KIND_WEIGHT, KIND_ACTIVATION)] + [
            (noise._PART_1, kind, 2) for kind in (KIND_WEIGHT, KIND_ACTIVATION)]


def _matrix_samplers(net, copies):
    """The three samplers at ``copies`` copies per layer, keyed by wiring."""
    tree = DesignASpec(net, (copies,) * net.depth + (1,))
    combine_split = DesignBSpec(net, copies)
    return {
        "plain": lambda x, profile, trials, rng, **kw: noisy_forward_samples(
            net, profile, x, trials, rng, **kw),
        "tree": lambda x, profile, trials, rng, **kw: design_a_samples(
            tree, x, profile, trials, rng, **kw),
        "combine_split": lambda x, profile, trials, rng, **kw: design_b_samples(
            combine_split, x, profile, trials, rng, **kw),
    }


class TestInputMatrix:
    """An ``(N, d_0)`` input matrix draws every site's ``N * trials`` rows as one block."""

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        sampler=st.sampled_from(["plain", "tree", "combine_split"]),
        kinds=st.lists(
            st.sampled_from(["identity", "tanh", "relu", "softmax", "diag"]),
            min_size=1,
            max_size=3,
        ),
        n_inputs=st.integers(1, 4),
        trials=st.integers(1, 5),
        copies=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matrix_rows_are_vector_calls_and_forward(self, sampler, kinds, n_inputs, trials,
                                                      copies, seed):
        rng = np.random.default_rng(seed)
        net = TestDegeneracyProperty.random_net(rng, kinds)
        run = _matrix_samplers(net, copies)[sampler]
        xs = rng.normal(size=(n_inputs, net.input_dim))
        profile = random_profile(rng, net)
        profile = NoiseProfile(profile.modulation, profile.weight, profile.activation,
                               CovSpec.isotropic(0.01), CovSpec.isotropic(0.02))

        out = run(xs, profile, trials, RngStream(seed))
        assert out.shape == (n_inputs, trials, net.output_dim)
        # a one-row matrix draws exactly what its vector draws
        np.testing.assert_array_equal(run(xs[:1], profile, trials, RngStream(seed))[0],
                                      run(xs[0], profile, trials, RngStream(seed)))
        # under a zero profile, also one written as diagonal or full zeros,
        # every (input, trial) row is its vector call's row and the
        # noiseless output bit for bit, at every copy count
        dims = net.dims()
        zeros = [NoiseProfile.zero(net.depth)] + [
            NoiseProfile(make(dims[0]), tuple(map(make, dims[1:])), tuple(map(make, dims[1:])))
            for make in (lambda d: CovSpec.diagonal(np.zeros(d)),
                         lambda d: CovSpec.full(np.zeros((d, d))))]
        for zero in zeros:
            for x, rows in zip(xs, run(xs, zero, trials, RngStream(seed))):
                np.testing.assert_array_equal(rows, run(x, zero, trials, RngStream(seed)))
                for row in rows:
                    np.testing.assert_array_equal(row, forward(net, x))

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        sampler=st.sampled_from(["plain", "tree", "combine_split"]),
        source=st.sampled_from(["weight", "activation"]),
        spec_kind=st.sampled_from(["isotropic", "diagonal", "full"]),
        width=st.integers(1, 5),
        n_inputs=st.integers(1, 4),
        trials=st.integers(1, 5),
        copies=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_copy_j_takes_block_j_of_the_site_stream(self, sampler, source, spec_kind, width,
                                                     n_inputs, trials, copies, seed):
        # depth 2, a tanh layer under a noiseless identity layer, noise on
        # one layer-1 site: the output is the average of the tanh copies of
        # the weighted addition plus their weight blocks, plus the activation
        # block.  Weight noise takes one block per layer-1 group (tree nodes
        # and the combine/split beam at the covariance / copies, the plain
        # net at the covariance); activation noise takes one block per
        # layer-2 group, at the covariance / copies where that group
        # averages copies, pushed through the unit weights into the
        # identity layer's merged site.  Each spec kind turns the weight
        # site's standard normals into its own law: times sqrt(var *
        # scale), times sqrt(vec * scale), or times the spec's cached factor
        # and sqrt(scale); the merged site turns them through the QR factor
        # of that matrix
        rng = np.random.default_rng(seed)
        d0 = int(rng.integers(1, 5))
        first = Layer(rng.normal(size=(width, d0)), rng.normal(size=width), Activation.tanh())
        net = Network((first, identity_net(width).layers[0]), d0)
        xs = rng.normal(size=(n_inputs, d0))
        spec, zero = random_covspec(rng, width, scale=0.3, kind=spec_kind), CovSpec.zero()
        if source == "weight":
            kind, profile = KIND_WEIGHT, NoiseProfile(zero, (spec, zero), (zero, zero))
        else:
            kind, profile = KIND_ACTIVATION, NoiseProfile(zero, (zero, zero), (spec, zero))
        count = copies if (sampler, source) == ("tree", "weight") else 1
        scale = 1.0 if sampler == "plain" else 1.0 / copies
        out = _matrix_samplers(net, copies)[sampler](xs, profile, trials, RngStream(seed))

        site = (kind, 1) if source == "weight" else (noise._KIND_LINEAR, 2)
        gen = RngStream(seed).child(*site).generator()
        z = gen.standard_normal((count, n_inputs, trials, width))
        if spec_kind == "isotropic":
            factor = math.sqrt(spec.var * scale) * np.eye(width)
        elif spec_kind == "diagonal":
            factor = np.diag(np.sqrt(spec.vec * scale))
        else:
            factor = spec._factor * math.sqrt(scale)
        pre = affine(first.weights, first.bias, xs)[:, None]
        if source == "weight":
            expected = np.tanh(pre + z @ factor.T).mean(axis=0)
        else:
            factor = np.linalg.qr(factor.T, mode="r").T
            expected = (np.tanh(pre) + z @ factor.T).mean(axis=0)
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("bad, message", [
        (np.zeros((0, 3)), r"shape \(0, 3\), expected .* or an \(N, 3\) matrix with N >= 1$"),
        (np.zeros((2, 4)), r"shape \(2, 4\), expected .* or an \(N, 3\) matrix with N >= 1$"),
        (np.zeros((1, 2, 3)), r"^input must be a 1-D or 2-D array, got shape \(1, 2, 3\)$"),
    ], ids=["no-rows", "wrong-width", "rank-3"])
    def test_malformed_input_matrix_refused(self, bad, message):
        with pytest.raises(ValidationError, match=message):
            noisy_forward_samples(identity_net(3), NoiseProfile.zero(1), bad, 2, RngStream(0))


class TestMonteCarlo:
    def test_noiseless_evaluator(self):
        net = identity_net(2)
        x = np.array([0.5, 1.5])
        ref = np.array([0.0, 1.0])
        samples = noisy_forward_samples(net, NoiseProfile.zero(1), x, 50, RngStream(0))
        stats = stats_from_samples(samples, ref)
        np.testing.assert_array_equal(stats.covariance, np.zeros((2, 2)))
        assert stats.mse_vs_reference == pytest.approx(float(np.sum((x - ref) ** 2)), rel=1e-12)

    def test_expected_squared_norm(self):
        # E ||N(0, I_2)||^2 = trace = 2; sd of the estimate ~ 2/sqrt(n)
        profile = NoiseProfile.isotropic(1, modulation_var=1.0)
        samples = noisy_forward_samples(identity_net(2), profile, np.zeros(2), 100_000, RngStream(21))
        stats = stats_from_samples(samples, np.zeros(2))
        assert 1.96 <= stats.mse_vs_reference <= 2.04

    def test_text_reference_refused(self):
        samples = np.zeros((4, 3))
        with pytest.raises(ValidationError, match="reference must be numbers"):
            stats_from_samples(samples, "x")

    def test_reference_of_another_width_refused(self):
        samples = np.random.default_rng(0).normal(size=(100, 3))
        with pytest.raises(ValidationError, match="length 1, expected the sample width 3"):
            stats_from_samples(samples, [0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_non_finite_samples_refused(self, bad):
        with pytest.raises(ValidationError, match="samples contain non-finite values"):
            stats_from_samples([[1.0, 2.0], [2.0, bad]], [0.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_non_finite_reference_refused(self, bad):
        with pytest.raises(ValidationError, match="reference contains non-finite values"):
            stats_from_samples([[1.0, 2.0], [2.0, 3.0]], [0.0, bad])

    @pytest.mark.parametrize("samples, reference, what", [
        ([[1e160, 0.0], [-1e160, 1.0]], [0.0, 0.0], "covariance"),
        ([[1e308, 0.0], [1e308, 1.0]], [0.0, 0.0], "mean"),
        ([[1e160, 0.0], [1e160, 1.0]], [0.0, 0.0], "mean squared deviation"),
    ], ids=["covariance", "mean", "mse"])
    def test_overflowing_statistics_refused(self, samples, reference, what):
        # finite samples whose statistics overflow float64
        with pytest.raises(ValidationError, match=f"^sample {what} overflows float64$"):
            stats_from_samples(samples, reference)

    def test_covariance_matches_np_cov(self):
        # correlated columns over three chunks of _GROUP_ROWS rows and a
        # partial one
        rng = np.random.default_rng(40)
        samples = rng.normal(size=(3 * noise._GROUP_ROWS + 7, 5)) @ rng.normal(size=(5, 5)) + 3.0
        got = stats_from_samples(samples, np.zeros(5)).covariance
        want = np.cov(samples, rowvar=False)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_peak_memory_stays_within_a_few_chunks(self):
        # 100 000 x 64 samples are 49 chunks of _GROUP_ROWS rows; the second
        # pass holds a few chunks, not a deviation array the size of the samples
        samples = np.random.default_rng(41).normal(size=(100_000, 64))
        tracemalloc.start()
        try:
            stats_from_samples(samples, np.zeros(64))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * noise._GROUP_ROWS * 64 * 8

    def test_same_seed_bit_identical(self):
        profile = NoiseProfile.isotropic(1, modulation_var=1.0)

        def run():
            samples = noisy_forward_samples(identity_net(3), profile, np.zeros(3), 500, RngStream(5))
            return stats_from_samples(samples, np.zeros(3))

        a = run()
        b = run()
        np.testing.assert_array_equal(a.mean, b.mean)
        np.testing.assert_array_equal(a.covariance, b.covariance)
        assert a.mse_vs_reference == b.mse_vs_reference

    def test_mean_converges_to_forward(self, rng):
        net = random_linear_net(rng, depth=2, max_dim=4)
        profile = random_profile(rng, net)
        x = rng.normal(size=net.input_dim)
        samples = noisy_forward_samples(net, profile, x, 50_000, RngStream(31))
        stats = stats_from_samples(samples, forward(net, x))
        analytic = propagate(LinearNet.from_network(net), profile).final
        budget = 5.0 * math.sqrt(np.trace(analytic) / stats.n)
        assert np.linalg.norm(stats.mean - forward(net, x)) <= budget


class TestProfileJson:
    def test_round_trip(self, rng):
        net = random_linear_net(rng, depth=3)
        profile = random_profile(rng, net)
        back = profile_from_json(profile_to_json(profile))
        dims = net.dims()
        np.testing.assert_allclose(
            back.modulation.matrix(dims[0]), profile.modulation.matrix(dims[0])
        )
        for l in range(net.depth):
            np.testing.assert_allclose(
                back.weight[l].matrix(dims[l + 1]), profile.weight[l].matrix(dims[l + 1])
            )

    def test_missing_key_rejected(self):
        with pytest.raises(ValidationError):
            profile_from_json({"modulation": "zero"})

    @settings(derandomize=True, deadline=None)
    @given(
        kinds=st.lists(
            st.sampled_from(["zero", "isotropic", "diagonal", "full"]), min_size=5, max_size=9
        ),
        dim=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_round_trip_keeps_every_kind_and_value(self, kinds, dim, seed):
        rng = np.random.default_rng(seed)
        depth = (len(kinds) - 3) // 2
        specs = [random_covspec(rng, dim, kind=k) for k in kinds]
        profile = NoiseProfile(
            specs[0], tuple(specs[3 : 3 + depth]), tuple(specs[3 + depth : 3 + 2 * depth]),
            specs[1], specs[2],
        )
        back = profile_from_json(json.loads(json.dumps(profile_to_json(profile))))

        def fields(p):
            return [p.modulation, p.combine, p.split, *p.weight, *p.activation]

        pairs = list(zip(fields(profile), fields(back)))
        pairs += [(spec, covspec_from_json(json.loads(json.dumps(covspec_to_json(spec)))))
                  for spec in specs]
        assert len(fields(back)) == 3 + 2 * depth
        for spec, copy in pairs:
            assert copy.kind == spec.kind and copy.var == spec.var
            for name in ("vec", "mat"):
                a, b = getattr(spec, name), getattr(copy, name)
                assert (a is None) == (b is None)
                if a is not None:
                    np.testing.assert_array_equal(a, b)


class TestNoiseProfile:
    def test_mismatched_lengths_rejected_at_construction(self):
        z = CovSpec.zero()
        with pytest.raises(ValidationError, match="weight and 1 activation"):
            NoiseProfile(CovSpec.isotropic(0.1), (z, z), (z,))
        with pytest.raises(ValidationError):
            profile_from_json({"weight": ["zero", "zero"], "activation": ["zero"]})

    @pytest.mark.parametrize("make", [NoiseProfile.zero, NoiseProfile.isotropic])
    def test_depth_is_a_count(self, make):
        assert make(2.0).depth == 2
        with pytest.raises(ValidationError, match="profile depth must be an integer, got True"):
            make(True)
        with pytest.raises(ValidationError, match="profile depth must be >= 0, got -1"):
            make(-1)

    def test_isotropic_variance_is_a_real(self):
        assert NoiseProfile.isotropic(2.0, weight_var="0.5").weight[1].var == 0.5
        with pytest.raises(ValidationError, match="isotropic variance must be finite and >= 0"):
            CovSpec.isotropic("abc")

    @pytest.mark.parametrize("obj, message", [
        ({"weight": "zero", "activation": ["zero"]}, "weight must be a list"),
        ({"weight": ["zero"], "activation": {"isotropic": 0.1}}, "activation must be a list"),
        ({"weight": ["zero"]}, "noise profile JSON is missing 'activation'"),
    ], ids=["weight-text", "activation-object", "activation-missing"])
    def test_layer_lists_checked(self, obj, message):
        with pytest.raises(ValidationError, match=message):
            profile_from_json(obj)

    @pytest.mark.parametrize("make, message", [
        (lambda: noisy_forward_samples(Network((Layer([[1.0]], [0.0]),) * 2, 1),
                                       NoiseProfile.zero(3), [0.0], 2, RngStream(0)),
         "profile depth 3 does not match network depth 2"),
        (lambda: CovSpec.full([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
         "full covariance must be a square matrix"),
        (lambda: covspec_from_json({"isotropic": 0.1, "diagonal": [0.1]}),
         "malformed covariance spec: {'isotropic': 0.1, 'diagonal': [0.1]}"),
        (lambda: profile_from_json(["zero"]), "noise profile JSON must be an object"),
    ], ids=["depth-mismatch", "full-not-square", "covspec-two-keys", "profile-list"])
    def test_malformed_spec_or_profile_refused(self, make, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            make()


class TestCovSpecEdges:
    def test_negative_isotropic_rejected(self):
        with pytest.raises(ValidationError):
            CovSpec.isotropic(-1.0)

    def test_nonfinite_isotropic_rejected(self):
        with pytest.raises(ValidationError):
            CovSpec.isotropic(float("nan"))

    @pytest.mark.parametrize("spec", [
        CovSpec.isotropic(0.0), CovSpec.diagonal([0.0, 0.0]), CovSpec.full(np.zeros((2, 2))),
    ], ids=["isotropic", "diagonal", "full"])
    def test_zero_isotropic_counts_as_zero(self, spec, monkeypatch):
        # a zero covariance of any kind is silent: no stream, h itself
        built = record_generators(monkeypatch)
        assert spec.is_zero
        h = np.zeros((1, 2))
        assert SpecSites(RngStream(0)).add(h, spec, 0, 0) is h and not built


class TestTrialOrderIndependence:
    def test_trial_streams_do_not_depend_on_execution_order(self, rng):
        # trial t's draws are fully determined by (seed, t, ...), so
        # evaluating trials in any order reassembles the same statistics
        net = random_linear_net(rng, depth=2, max_dim=3)
        profile = random_profile(rng, net)
        x = rng.normal(size=net.input_dim)

        def evaluator(v, stream):
            return noisy_forward_samples(net, profile, v, 1, stream)[0]

        root = RngStream(14)
        rows = np.vstack([evaluator(x, root.child(t)) for t in range(64)])
        stats = stats_from_samples(rows, forward(net, x))
        reversed_rows = np.vstack(
            [evaluator(x, root.child(t)) for t in reversed(range(64))][::-1]
        )
        redone = stats_from_samples(reversed_rows, forward(net, x))
        np.testing.assert_array_equal(stats.mean, redone.mean)
        np.testing.assert_array_equal(stats.covariance, redone.covariance)
        assert stats.mse_vs_reference == redone.mse_vs_reference


def _fork_child(conn, net, profile, x):
    conn.send_bytes(noisy_forward_samples(net, profile, x, 50, RngStream(9)).tobytes())
    conn.close()


class _ThreadRecordingGenerator:
    """A generator that records the thread of every fill."""

    def __init__(self, gen, threads):
        self._gen, self._threads = gen, threads

    def standard_normal(self, *args, **kwargs):
        self._threads.append(threading.current_thread())
        return self._gen.standard_normal(*args, **kwargs)


def record_fill_threads(monkeypatch):
    """Record the thread of every fill of the streams built from now on."""
    threads = []
    real = RngStream.generator
    monkeypatch.setattr(RngStream, "generator",
                        lambda self: _ThreadRecordingGenerator(real(self), threads))
    return threads


class _InlineThread:
    """Stands in for ``threading.Thread``: runs its target on ``start``."""

    def __init__(self, target, name=None, daemon=None):
        self._target = target

    def start(self):
        self._target()

    def join(self):
        pass


class TestDrawAhead:
    """A call of at least ``_SPLIT_ROWS`` rows draws its second part on a
    worker thread ahead of the calling thread's first part; the worker
    changes no sample, and no thread outlives a sampler call."""

    @staticmethod
    def _profile(rng, net):
        dims = net.dims()

        def spec(d):
            return random_covspec(rng, d, kind=str(rng.choice(["full", "diagonal", "isotropic"])))

        return NoiseProfile(spec(dims[0]), tuple(spec(d) for d in dims[1:]),
                            tuple(spec(d) for d in dims[1:]), spec(dims[1]), spec(dims[1]))

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(
        kinds=st.lists(
            st.sampled_from(["identity", "tanh", "relu", "softmax", "diag"]),
            min_size=1,
            max_size=3,
        ),
        width=st.integers(1, 5),
        n_inputs=st.sampled_from([0, 1, 3]),
        # row counts on both sides of _SPLIT_ROWS, odd ones among them
        trials=st.one_of(st.integers(1, 6), st.sampled_from(
            [noise._SPLIT_ROWS // 3, noise._SPLIT_ROWS // 3 + 1,
             noise._SPLIT_ROWS - 1, noise._SPLIT_ROWS, noise._SPLIT_ROWS + 1])),
        copies=st.lists(st.integers(1, 3), min_size=3, max_size=3),
        m=st.integers(1, 3),
        tiny_chunks=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_worker_changes_no_bit(self, kinds, width, n_inputs, trials, copies, m,
                                   tiny_chunks, seed):
        rng = np.random.default_rng(seed)
        d0 = int(rng.integers(1, 5))
        layers = []
        for l, kind in enumerate(kinds):
            act = Activation.diag_linear(rng.uniform(0.3, 1.1, size=width)) if kind == "diag" \
                else Activation(kind)
            fan = d0 if l == 0 else width
            layers.append(Layer(rng.normal(size=(width, fan)), rng.normal(size=width), act))
        net = Network(tuple(layers), d0)
        # combine and split noise have the width of every layer
        profile = self._profile(rng, net)
        x = rng.normal(size=d0) if n_inputs == 0 else rng.normal(size=(n_inputs, d0))
        tree = DesignASpec(net, (*copies[: net.depth], 1))
        samplers = (
            lambda: noisy_forward_samples(net, profile, x, trials, RngStream(seed)),
            lambda: design_a_samples(tree, x, profile, trials, RngStream(seed)),
            lambda: design_b_samples(DesignBSpec(net, m), x, profile, trials, RngStream(seed)),
        )
        with pytest.MonkeyPatch.context() as mp:
            if tiny_chunks:
                mp.setattr(noise, "_CHUNK_BYTES", 1)
            threaded = [run() for run in samplers]
            # part 1 runs inline, before part 0
            mp.setattr(noise, "threading", SimpleNamespace(Thread=_InlineThread))
            threads = record_fill_threads(mp)
            inline = [run() for run in samplers]
        assert set(threads) <= {threading.main_thread()}
        for got, want in zip(threaded, inline):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("rows", [noise._SPLIT_ROWS - 1, noise._SPLIT_ROWS + 1],
                             ids=["one-part", "two-parts"])
    def test_parts_read_their_own_streams(self, rows, monkeypatch):
        # the plain net over R rows: at R >= _SPLIT_ROWS the first ceil(R / 2)
        # rows read every site rng.child(kind, layer) as one block, and the
        # rest rng.child(_PART_1, kind, layer), on one other thread; below
        # it all R rows read rng.child(kind, layer) and no thread starts
        rng = np.random.default_rng(34)
        net = TestDegeneracyProperty.random_net(rng, ["tanh", "relu"])
        dims = net.dims()
        iso = [CovSpec.isotropic(v) for v in (0.01, 0.02, 0.03, 0.04, 0.05)]
        profile = NoiseProfile(iso[0], (iso[1], iso[2]), (iso[3], iso[4]))
        x = rng.normal(size=dims[0])
        threads = record_fill_threads(monkeypatch)
        out = noisy_forward_samples(net, profile, x, rows, RngStream(35))
        split = rows >= noise._SPLIT_ROWS
        assert len(set(threads) - {threading.main_thread()}) == split
        half = -(-rows // 2) if split else rows
        np.testing.assert_array_equal(out, plain_rows_by_part(net, np.tile(x, (rows, 1)), 35, half))

    def _net_and_profile(self, depth=2, width=4):
        rng = np.random.default_rng(5)
        net = random_linear_net(rng, depth=depth, max_dim=width)
        return net, NoiseProfile.isotropic(depth, 0.01, 0.02, 0.03, 0.04, 0.05), rng

    def test_no_thread_outlives_a_call(self):
        net, profile, rng = self._net_and_profile()
        x = rng.normal(size=net.input_dim)
        rows = noise._SPLIT_ROWS
        before = threading.active_count()
        noisy_forward_samples(net, profile, x, rows, RngStream(1))
        design_a_samples(DesignASpec(net, (2, 2, 1)), x, profile, rows, RngStream(1))
        design_b_samples(DesignBSpec(net, 3), x, profile, rows, RngStream(1))
        assert threading.active_count() == before

    def test_no_thread_outlives_a_raising_call(self, monkeypatch):
        # the calling thread's part fails at layer 2 while the worker's runs
        net, profile, rng = self._net_and_profile()
        real, calls = noise.affine, []

        def failing_affine(*args):
            if threading.current_thread() is threading.main_thread():
                calls.append(args)
                if len(calls) == 2:
                    raise RuntimeError("affine failed")
            return real(*args)

        monkeypatch.setattr(noise, "affine", failing_affine)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="affine failed"):
            design_b_samples(DesignBSpec(net, 3), rng.normal(size=net.input_dim), profile,
                             noise._SPLIT_ROWS, RngStream(1))
        assert len(calls) == 2
        assert threading.active_count() == before

    def test_worker_fill_error_reaches_the_caller(self, monkeypatch):
        # every draw of the worker's part fails; the calling thread's succeed
        class FailingOnTheWorker:
            def __init__(self, gen):
                self._gen = gen

            def standard_normal(self, *args, **kwargs):
                if threading.current_thread() is not threading.main_thread():
                    raise RuntimeError("fill failed on the worker")
                return self._gen.standard_normal(*args, **kwargs)

        real = RngStream.generator
        monkeypatch.setattr(RngStream, "generator", lambda self: FailingOnTheWorker(real(self)))
        net, profile, rng = self._net_and_profile()
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="fill failed on the worker"):
            noisy_forward_samples(net, profile, rng.normal(size=net.input_dim),
                                  noise._SPLIT_ROWS, RngStream(1))
        assert threading.active_count() == before

    def test_a_failing_part_stops_the_other(self, monkeypatch):
        # part 1 fails at its first draw; part 0, three tiles with one draw
        # each, waits in its first draw until the worker has ended, and then
        # runs no further tile
        fills = []

        class WaitsForTheWorker:
            def __init__(self, gen):
                self._gen = gen

            def standard_normal(self, *args, **kwargs):
                if threading.current_thread() is not threading.main_thread():
                    raise RuntimeError("fill failed on the worker")
                fills.append(args)
                for thread in threading.enumerate():
                    if thread.name == "optonoise-part-1":
                        thread.join(timeout=60)
                return self._gen.standard_normal(*args, **kwargs)

        real = RngStream.generator
        monkeypatch.setattr(RngStream, "generator", lambda self: WaitsForTheWorker(real(self)))
        net = Network((Layer(np.eye(2), np.zeros(2), Activation.tanh()),), 2)
        profile = NoiseProfile.isotropic(1, activation_var=0.1)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="fill failed on the worker"):
            noisy_forward_samples(net, profile, np.zeros(2), 6 * noise._GROUP_ROWS, RngStream(1))
        assert threading.active_count() == before
        assert len(fills) == 1

    @pytest.mark.parametrize("streamed", [False, True], ids=["samples", "stats"])
    def test_concurrent_calls_keep_their_bits(self, streamed):
        # more callers than cores, each call with its own worker, and a short
        # switch interval so the threads interleave often
        net, profile, rng = self._net_and_profile()
        x = rng.normal(size=(3, net.input_dim))
        spec, trials = DesignBSpec(net, 3), noise._SPLIT_ROWS // 3 + 1
        kw = {"reference": np.zeros(net.dims()[-1])} if streamed else {}

        def sample(k):
            out = design_b_samples(spec, x, profile, trials, RngStream(k), **kw)
            return np.concatenate([out.mean, out.covariance.ravel(), [out.mse_vs_reference]]) \
                if streamed else out

        want = [sample(k) for k in range(6)]
        got = [None] * len(want)

        def call(k):
            got[k] = sample(k)

        callers = [threading.Thread(target=call, args=(k,)) for k in range(len(want))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    def test_fork_child_samples_the_parents_bits(self):
        net, profile, rng = self._net_and_profile()
        x = rng.normal(size=net.input_dim)
        want = noisy_forward_samples(net, profile, x, 50, RngStream(9))
        ctx = multiprocessing.get_context("fork")
        receive, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_fork_child, args=(send, net, profile, x))
        with warnings.catch_warnings():
            # Python 3.12+ warns on fork whenever the process has another OS
            # thread, and a multi-threaded BLAS keeps a pool of its own; the
            # sampler's worker is gone by now (test_no_thread_outlives_a_call)
            warnings.filterwarnings("ignore", r"This process .* is multi-threaded",
                                    DeprecationWarning)
            child.start()
        send.close()
        try:
            assert receive.poll(60), "the forked child sent no samples"
            got = np.frombuffer(receive.recv_bytes()).reshape(want.shape)
        finally:
            child.join(60)
            if child.is_alive():
                child.kill()
                child.join()
        assert child.exitcode == 0
        np.testing.assert_array_equal(got, want)

    def test_peak_memory_stays_near_two_blocks(self):
        # 2e4 trials of a width-64 net, every source on: the output block
        # and the working sets of one tile of each part, a layer's input,
        # affine output and noise blocks
        trials, width, depth = 20_000, 64, 4
        rng = np.random.default_rng(6)
        net = Network(tuple(
            Layer(rng.normal(size=(width, width)) / 8, rng.normal(size=width),
                  Activation.diag_linear(rng.uniform(0.5, 1.0, size=width)))
            for _ in range(depth)), width)
        profile = NoiseProfile(
            CovSpec.isotropic(0.01),
            tuple(CovSpec.diagonal(np.full(width, 0.02)) for _ in range(depth)),
            tuple(CovSpec.isotropic(0.03) for _ in range(depth)),
        )
        x = rng.normal(size=width)
        block = trials * width * 8
        tracemalloc.start()
        try:
            noisy_forward_samples(net, profile, x, trials, RngStream(2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tile = noise._GROUP_ROWS * width * 8
        assert peak <= block + 5 * tile

    def test_part_of_a_wide_tree_holds_a_few_tiles(self, monkeypatch):
        # 4 copies per layer of a width-64 net over 2 000 rows: 256 leaves
        # per row, run in passes of whole subtrees.  The worker's heap keeps
        # what its part frees, so each part's passes stay a few tiles; the
        # parts run one after the other here, so the peak is one part's
        trials, width, depth = 2_000, 64, 4
        rng = np.random.default_rng(8)
        net = Network(tuple(
            Layer(rng.normal(size=(width, width)) / 8, rng.normal(size=width),
                  Activation.diag_linear(rng.uniform(0.5, 1.0, size=width)))
            for _ in range(depth)), width)
        tree = DesignASpec(net, (4, 4, 4, 4, 1))
        profile = NoiseProfile.isotropic(depth, 0.01, 0.02, 0.03)
        monkeypatch.setattr(noise, "threading", SimpleNamespace(Thread=_InlineThread))
        x = rng.normal(size=width)
        tracemalloc.start()
        try:
            design_a_samples(tree, x, profile, trials, RngStream(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tile = noise._GROUP_ROWS * width * 8
        assert peak <= trials * width * 8 + 8 * tile

    def test_realizations_under_linear_layers_hold_a_few_tiles(self, monkeypatch):
        # a tanh layer under three diag layers of a (4, 4, 4, 4, 1) tree:
        # each output group averages 16 realizations of a 4-copy tanh group,
        # 64 copies that would take 32 tiles at once; they run in passes of
        # whole realizations within the byte budget
        trials, width = 2_000, 64
        rng = np.random.default_rng(9)
        acts = [Activation.tanh()] + [Activation.diag_linear(rng.uniform(0.5, 1.0, size=width))
                                      for _ in range(3)]
        net = Network(tuple(Layer(rng.normal(size=(width, width)) / 8, rng.normal(size=width), act)
                            for act in acts), width)
        tree = DesignASpec(net, (4, 4, 4, 4, 1))
        profile = NoiseProfile.isotropic(4, 0.01, 0.02, 0.03)
        monkeypatch.setattr(noise, "threading", SimpleNamespace(Thread=_InlineThread))
        x = rng.normal(size=width)
        tracemalloc.start()
        try:
            design_a_samples(tree, x, profile, trials, RngStream(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tile = noise._GROUP_ROWS * width * 8
        assert peak <= trials * width * 8 + 8 * tile


class TestStreamedStats:
    """With ``reference=`` a sampler folds each tile into running statistics
    on the thread that drew it and returns them instead of the samples:
    bit for bit the statistics of the same call's samples."""

    @pytest.mark.parametrize("rows", [2, 1023, 1024, 2049, 5000])
    @pytest.mark.parametrize("matrix", [False, True], ids=["vector", "matrix"])
    @pytest.mark.parametrize("sampler", ["plain", "tree", "combine_split"])
    def test_equal_the_statistics_of_the_samples(self, sampler, matrix, rows):
        rng = np.random.default_rng(rows)
        net = TestDegeneracyProperty.random_net(rng, ["tanh", "diag"])
        run = _matrix_samplers(net, 2)[sampler]
        profile = NoiseProfile.isotropic(net.depth, 0.01, 0.02, 0.03, 0.04, 0.05)
        n_inputs = (3 if rows % 3 == 0 else 2) if matrix else 1
        x = rng.normal(size=(n_inputs, net.input_dim)) if matrix else rng.normal(size=net.input_dim)
        reference = rng.normal(size=net.dims()[-1])
        samples = run(x, profile, rows // n_inputs, RngStream(rows))
        got = run(x, profile, rows // n_inputs, RngStream(rows), reference=reference)
        want = stats_from_samples(samples.reshape(-1, net.dims()[-1]), reference)
        assert got.n == want.n == rows
        np.testing.assert_array_equal(got.mean, want.mean)
        np.testing.assert_array_equal(got.covariance, want.covariance)
        assert got.mse_vs_reference == want.mse_vs_reference

    @pytest.mark.parametrize("sampler", ["plain", "tree", "combine_split"])
    def test_zero_profile_gives_forward_and_zero_covariance(self, sampler):
        # tiles fold as deviations from the reference, which are exactly 0
        # here, so no mean of identical rows rounds
        from optonoise.fixtures import fixture_network

        net = fixture_network()
        x = np.array([0.1, -0.2, 0.3, 0.4, -0.5, 0.6, 0.7, -0.8])
        run = _matrix_samplers(net, 3)[sampler]
        stats = run(x, NoiseProfile.zero(2), 2000, RngStream(3), reference=forward(net, x))
        np.testing.assert_array_equal(stats.mean, forward(net, x))
        assert not np.any(stats.covariance) and stats.mse_vs_reference == 0.0

    def test_peak_memory_stays_within_a_few_tiles(self):
        # 1e5 trials of a width-64 net would be 51.2 MB of samples; streamed,
        # each part holds one tile's working set and its running statistics
        trials, width = 100_000, 64
        rng = np.random.default_rng(9)
        net = Network(tuple(
            Layer(rng.normal(size=(width, width)) / 8, rng.normal(size=width),
                  Activation.diag_linear(rng.uniform(0.5, 1.0, size=width)))
            for _ in range(2)), width)
        profile = NoiseProfile(CovSpec.isotropic(0.01),
                               tuple(CovSpec.diagonal(np.full(width, 0.02)) for _ in range(2)),
                               tuple(CovSpec.isotropic(0.03) for _ in range(2)))
        x = rng.normal(size=width)
        tracemalloc.start()
        try:
            stats = noisy_forward_samples(net, profile, x, trials, RngStream(4),
                                          reference=forward(net, x))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats.n == trials
        tile = noise._GROUP_ROWS * width * 8
        # about 4.3 tiles here; the samples would take 48.8 tiles
        assert peak <= 8 * tile

    def test_overflow_in_part_1_reaches_the_caller(self):
        # input 0 fills part 0 with finite rows; input 1's gain overflows
        # every row of part 1, which the worker thread refuses
        net = Network((Layer(1e300 * np.eye(2), np.zeros(2)),), 2)
        profile = NoiseProfile.isotropic(1, activation_var=1.0)
        x = np.array([[0.0, 0.0], [1e10, 1e10]])
        trials = noise._SPLIT_ROWS
        samples = noisy_forward_samples(net, profile, x, trials, RngStream(3))
        assert np.isfinite(samples[0]).all() and not np.isfinite(samples[1]).any()
        before = threading.active_count()
        with pytest.raises(ValidationError, match="^samples contain non-finite values$"):
            noisy_forward_samples(net, profile, x, trials, RngStream(3), reference=np.zeros(2))
        assert threading.active_count() == before

    def test_inf_into_softmax_is_refused(self):
        # the last weighted addition overflows to inf on noisy rows; softmax
        # turns such a row into NaN, which the sink refuses like any other.
        # At unit modulation variance about a quarter of the rows saturate
        # both tanh units far enough to overflow
        net = Network((Layer([[1.0], [1.0]], [0.0, 0.0], Activation.tanh()),
                       Layer(np.eye(2) * 1e308, [0.0, 0.0], Activation.identity()),
                       Layer([[0.9, 0.9]], [0.0], Activation.softmax())), 1)
        profile = NoiseProfile.isotropic(3, modulation_var=1.0)
        x = np.array([2.99])
        reference = forward(net, x)
        assert np.isfinite(reference).all()
        with pytest.raises(ValidationError, match="^samples contain non-finite values$"):
            noisy_forward_samples(net, profile, x, 50, RngStream(3), reference=reference)

    def test_reference_is_checked_before_sampling(self, monkeypatch):
        net = identity_net(2)
        draws = record_generators(monkeypatch)
        with pytest.raises(ValidationError, match="length 1, expected the sample width 2"):
            noisy_forward_samples(net, NoiseProfile.isotropic(1, 1.0), np.zeros(2), 10,
                                  RngStream(1), reference=[0.0])
        assert draws == []

    def test_one_row_refused(self, monkeypatch):
        # refused on entry by every sampler, naming the trials, before any
        # stream is built
        built = record_generators(monkeypatch)
        for run in _matrix_samplers(identity_net(2), 2).values():
            with pytest.raises(ValidationError,
                               match=r"n >= 2 .*\(1 input\(s\) x 1 trial\(s\)\)$"):
                run(np.zeros(2), NoiseProfile.isotropic(1, 1.0), 1, RngStream(1),
                    reference=np.zeros(2))
        assert built == []
        # the same rows as a sample matrix are refused by stats_from_samples
        with pytest.raises(ValidationError, match="need an \\(n, d\\) sample matrix with n >= 2"):
            stats_from_samples(np.zeros((1, 2)), np.zeros(2))
