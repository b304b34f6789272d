"""Noise model: covariance specs, splittable streams, Monte Carlo harness."""

import json
import math
import multiprocessing
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import Future

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
from optonoise.noise import (
    KIND_ACTIVATION,
    KIND_COMBINE,
    KIND_MODULATION,
    KIND_SPLIT,
    KIND_WEIGHT,
    _draw,
    _Sites,
    covspec_from_json,
    covspec_to_json,
    profile_from_json,
    profile_to_json,
)

from conftest import count_affine_calls, random_covspec, random_linear_net, random_profile


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


class TestSampleNoise:
    def test_zero_returns_exact_zeros(self, monkeypatch):
        built = record_generators(monkeypatch)
        h = np.zeros((1, 3))
        out = _Sites(RngStream(1)).add(h, CovSpec.zero(), 0, 0)
        assert out is h and not built
        np.testing.assert_array_equal(out, np.zeros((1, 3)))

    def test_isotropic_variance_concentrates(self):
        # chi-squared concentration: sd of the sample variance at n=1e5 is
        # sigma^2 * sqrt(2/n) ~ 0.018, so [3.8, 4.2] is a >10-sigma corridor
        spec = CovSpec.isotropic(4.0)
        draws = _draw(spec, 1, RngStream(11, (0,)).generator(), (100_000,))
        var = draws.var(ddof=1)
        assert 3.8 <= var <= 4.2
        # a one-row block is the first row of any longer block on the same
        # stream, which makes a batch of one an exact single evaluation
        single = _draw(spec, 1, RngStream(11, (0,)).generator(), (1,))
        np.testing.assert_array_equal(single, draws[:1])

    def test_full_correlation_fisher_interval(self):
        # Fisher z interval: se(z) = 1/sqrt(n-3) ~ 0.0032 at n=1e5, so
        # [0.89, 0.91] around rho = 0.9 is a >15-sigma corridor
        spec = CovSpec.full([[1.0, 0.9], [0.9, 1.0]])
        gen = RngStream(12, (0,)).generator()
        draws = _draw(spec, 2, gen, (100_000,))
        corr = np.corrcoef(draws.T)[0, 1]
        assert 0.89 <= corr <= 0.91

    def test_full_covariance_matches_spec(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(3, 3))
        spec = CovSpec.full(A @ A.T)
        draws = _draw(spec, 3, RngStream(13, (0,)).generator(), (200_000,))
        np.testing.assert_allclose(np.cov(draws.T), spec.matrix(3), rtol=0.05, atol=0.01)


class TestSitesAddKeepsItsInput:
    """``_Sites.add`` returns a new block and never writes into ``h``; the
    literal reference samplers reuse one ``h`` for every branch."""

    @pytest.mark.parametrize("fan", [1, 3])
    @pytest.mark.parametrize("kind", ["zero", "isotropic", "diagonal", "full"])
    @pytest.mark.parametrize("broadcast", [False, True], ids=["owned", "broadcast"])
    def test_input_unchanged(self, fan, kind, broadcast):
        rng = np.random.default_rng(3)
        spec = random_covspec(rng, 4, kind=kind)
        if broadcast:
            h = np.broadcast_to(rng.normal(size=4), (2, 5, 4))
        else:
            h = rng.normal(size=(2, 5, 4))
        before = h.copy()
        out = _Sites(RngStream(8)).add(h, spec, KIND_SPLIT, 1, 2.0, fan)
        np.testing.assert_array_equal(h, before)
        assert out.shape == (2 * fan, 5, 4)
        if not spec.is_zero:
            assert not np.shares_memory(out, h)


class TestFullCovarianceRowStability:
    """A one-row block of a full-covariance site is the first row of any larger block."""

    @pytest.mark.parametrize("width", [3, 8, 16, 64])
    def test_draw_prefix(self, width):
        spec = random_covspec(np.random.default_rng(width), width, kind="full")
        stream = RngStream(14, (width,))
        whole = _draw(spec, width, stream.generator(), (500,), 3.0)
        for t in (1, 2, 3, 7, 9, 100):
            np.testing.assert_array_equal(_draw(spec, width, stream.generator(), (t,), 3.0),
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
        # the two modulated leaves of a level-1 node collapse into one block
        # of the modulation site at variance var / 2; two level-1 nodes take
        # consecutive blocks
        d, trials, var = 3, 5, 0.3
        x = np.array([0.5, -1.0, 2.0])
        gen = RngStream(21).child(KIND_MODULATION, 0).generator()
        z0 = gen.standard_normal((trials, d))
        z1 = gen.standard_normal((trials, d))
        profile = NoiseProfile.isotropic(1, modulation_var=var)
        out = design_a_samples(DesignASpec(identity_net(d), (2, 1)), x, profile, trials, RngStream(21))
        np.testing.assert_array_equal(out, x + math.sqrt(var / 2) * z0)
        net = Network(identity_net(d).layers * 2, d)
        profile = NoiseProfile.isotropic(2, modulation_var=var)
        out = design_a_samples(DesignASpec(net, (1, 2, 1)), x, profile, trials, RngStream(21))
        s = math.sqrt(var)
        np.testing.assert_array_equal(out, ((x + s * z0) + (x + s * z1)) / 2)

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
        default = run()
        assert len(calls) == 2 * net.depth  # one call per layer and sampler
        calls.clear()
        monkeypatch.setattr(noise, "_CHUNK_BYTES", 1)
        tiny = run()
        # the tiny budget runs the tree one node at a time: 6 + 2 + 1 calls
        assert len(calls) == 9 + net.depth
        for a, b in zip(default, tiny):
            np.testing.assert_array_equal(a, b)

    def test_copies_no_noise_reaches_are_not_averaged(self, monkeypatch):
        # noise on layer 2 only: layer 2 takes copy 0 of its identical
        # layer-1 copies in every chunk, also in chunks that run after an
        # earlier chunk drew, so the bits do not depend on the chunk budget
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
        rng = np.random.default_rng(22)
        net = random_linear_net(rng, depth=2, max_dim=3)
        iso, zero = CovSpec.isotropic(0.1), CovSpec.zero()
        profile = NoiseProfile(iso, (iso, zero), (zero, iso), iso, iso)
        x = rng.normal(size=net.input_dim)
        expected = [(KIND_MODULATION, 0), (KIND_WEIGHT, 1), (KIND_ACTIVATION, 2)]
        built = record_generators(monkeypatch)
        if sampler == "plain":
            noisy_forward_samples(net, profile, x, 4, RngStream(23))
        elif sampler == "tree":
            design_a_samples(DesignASpec(net, (3, 2, 1)), x, profile, 4, RngStream(23))
        else:
            design_b_samples(DesignBSpec(net, 3), x, profile, 4, RngStream(23))
            expected += [(KIND_COMBINE, 1), (KIND_COMBINE, 2), (KIND_SPLIT, 1), (KIND_SPLIT, 2)]
        assert all(len(path) == 2 for path in built)
        assert sorted(built) == sorted(expected)


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


def _matrix_samplers(net, copies):
    """The three samplers at ``copies`` copies per layer, keyed by wiring."""
    tree = DesignASpec(net, (copies,) * net.depth + (1,))
    combine_split = DesignBSpec(net, copies)
    return {
        "plain": lambda x, profile, trials, rng: noisy_forward_samples(net, profile, x, trials, rng),
        "tree": lambda x, profile, trials, rng: design_a_samples(tree, x, profile, trials, rng),
        "combine_split": lambda x, profile, trials, rng: design_b_samples(
            combine_split, x, profile, trials, rng),
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
        # under a zero profile every (input, trial) row is its vector call's
        # row and the noiseless output bit for bit, at every copy count
        zero = NoiseProfile.zero(net.depth)
        for x, rows in zip(xs, run(xs, zero, trials, RngStream(seed))):
            np.testing.assert_array_equal(rows, run(x, zero, trials, RngStream(seed)))
            for row in rows:
                np.testing.assert_array_equal(row, forward(net, x))

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(
        sampler=st.sampled_from(["plain", "tree", "combine_split"]),
        width=st.integers(1, 5),
        n_inputs=st.integers(1, 4),
        trials=st.integers(1, 5),
        copies=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_copy_j_takes_block_j_of_the_site_stream(self, sampler, width, n_inputs, trials,
                                                     copies, seed):
        # depth 2, the second layer the identity: the output averages the
        # layer-1 copies, each a noiseless layer-1 output plus one block of a
        # layer-1 site (tree nodes: weight site at var / copies; combine/split
        # branches: activation site; plain net: one weight block)
        rng = np.random.default_rng(seed)
        d0, var = int(rng.integers(1, 5)), 0.3
        first = Layer(rng.normal(size=(width, d0)), rng.normal(size=width), Activation.identity())
        net = Network((first, identity_net(width).layers[0]), d0)
        xs = rng.normal(size=(n_inputs, d0))
        iso, zero = CovSpec.isotropic(var), CovSpec.zero()
        if sampler == "combine_split":
            kind, count, scale = KIND_ACTIVATION, copies, 1.0
            profile = NoiseProfile(zero, (zero, zero), (iso, zero))
        else:
            kind = KIND_WEIGHT
            count, scale = (1, 1.0) if sampler == "plain" else (copies, 1.0 / copies)
            profile = NoiseProfile(zero, (iso, zero), (zero, zero))
        out = _matrix_samplers(net, copies)[sampler](xs, profile, trials, RngStream(seed))

        gen = RngStream(seed).child(kind, 1).generator()
        blocks = gen.standard_normal((count, n_inputs, trials, width))
        layer1 = np.stack([forward(Network((first,), d0), x) for x in xs])
        expected = (layer1[:, None] + math.sqrt(var * scale) * blocks).mean(axis=0)
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


class TestCovSpecEdges:
    def test_negative_isotropic_rejected(self):
        with pytest.raises(ValidationError):
            CovSpec.isotropic(-1.0)

    def test_nonfinite_isotropic_rejected(self):
        with pytest.raises(ValidationError):
            CovSpec.isotropic(float("nan"))

    def test_zero_isotropic_counts_as_zero(self, monkeypatch):
        built = record_generators(monkeypatch)
        spec = CovSpec.isotropic(0.0)
        assert spec.is_zero
        h = np.zeros((1, 2))
        assert _Sites(RngStream(0)).add(h, spec, 0, 0) is h and not built


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


class _SyncExecutor:
    """Stands in for the kernel's worker: runs every fill at once, on the
    calling thread."""

    def __init__(self, max_workers):
        assert max_workers == 1

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args, **kwargs):
        done = Future()
        done.set_result(fn(*args, **kwargs))
        return done


def _fork_child(conn, net, profile, x):
    conn.send_bytes(noisy_forward_samples(net, profile, x, 50, RngStream(9)).tobytes())
    conn.close()


class TestDrawAhead:
    """The worker thread that fills split and activation blocks changes no
    sample, and no thread outlives a sampler call."""

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
        trials=st.integers(1, 6),
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
            mp.setattr(noise, "ThreadPoolExecutor", _SyncExecutor)
            synchronous = [run() for run in samplers]
        for got, want in zip(threaded, synchronous):
            np.testing.assert_array_equal(got, want)

    def _net_and_profile(self, depth=2, width=4):
        rng = np.random.default_rng(5)
        net = random_linear_net(rng, depth=depth, max_dim=width)
        return net, NoiseProfile.isotropic(depth, 0.01, 0.02, 0.03, 0.04, 0.05), rng

    def test_no_thread_outlives_a_call(self):
        net, profile, rng = self._net_and_profile()
        x = rng.normal(size=net.input_dim)
        before = threading.active_count()
        noisy_forward_samples(net, profile, x, 20, RngStream(1))
        design_a_samples(DesignASpec(net, (2, 2, 1)), x, profile, 20, RngStream(1))
        design_b_samples(DesignBSpec(net, 3), x, profile, 20, RngStream(1))
        assert threading.active_count() == before

    def test_no_thread_outlives_a_raising_call(self, monkeypatch):
        net, profile, rng = self._net_and_profile()
        real, calls = noise.affine, []

        def failing_affine(*args):
            calls.append(args)
            if len(calls) == 2:  # layer 2, after layer 1 handed its fills out
                raise RuntimeError("affine failed")
            return real(*args)

        monkeypatch.setattr(noise, "affine", failing_affine)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="affine failed"):
            design_b_samples(DesignBSpec(net, 3), rng.normal(size=net.input_dim), profile,
                             20, RngStream(1))
        assert len(calls) == 2
        assert threading.active_count() == before

    def test_concurrent_calls_keep_their_bits(self):
        # more callers than cores, each call with its own worker, and a short
        # switch interval so the threads interleave often
        net, profile, rng = self._net_and_profile()
        x = rng.normal(size=(3, net.input_dim))
        spec = DesignBSpec(net, 3)
        want = [design_b_samples(spec, x, profile, 200, RngStream(k)) for k in range(6)]
        got = [None] * len(want)

        def call(k):
            got[k] = design_b_samples(spec, x, profile, 200, RngStream(k))

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
        # 2e4 trials of a width-64 net, every source on: the affine output
        # and the activation block are the two live blocks of a layer
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
        assert peak <= 2 * block + 2 * 2**20
