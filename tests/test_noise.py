"""Noise model: covariance specs, splittable streams, Monte Carlo harness."""

import json
import math

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


class TestRngStream:
    def test_same_path_reproduces_bits(self):
        a = RngStream(7, (1, 2, 3)).normal(8)
        b = RngStream(7, (1, 2, 3)).normal(8)
        np.testing.assert_array_equal(a, b)

    def test_any_path_component_changes_stream(self):
        base = RngStream(7).child(1, 2, 3).normal(8)
        for other in [(0, 2, 3), (1, 0, 3), (1, 2, 0), (1, 2, 3, 0)]:
            alt = RngStream(7, other).normal(8)
            assert not np.array_equal(base, alt)

    def test_seed_changes_stream(self):
        assert not np.array_equal(RngStream(7).normal(4), RngStream(8).normal(4))


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
        draws = _draw(spec, 1, RngStream(11, (0,)).generator(), 100_000)
        var = draws.var(ddof=1)
        assert 3.8 <= var <= 4.2
        # a one-row block is the first row of any longer block on the same
        # stream, which makes a batch of one an exact single evaluation
        single = _draw(spec, 1, RngStream(11, (0,)).generator(), 1)
        np.testing.assert_array_equal(single, draws[:1])

    def test_full_correlation_fisher_interval(self):
        # Fisher z interval: se(z) = 1/sqrt(n-3) ~ 0.0032 at n=1e5, so
        # [0.89, 0.91] around rho = 0.9 is a >15-sigma corridor
        spec = CovSpec.full([[1.0, 0.9], [0.9, 1.0]])
        gen = RngStream(12, (0,)).generator()
        draws = _draw(spec, 2, gen, 100_000)
        corr = np.corrcoef(draws.T)[0, 1]
        assert 0.89 <= corr <= 0.91

    def test_full_covariance_matches_spec(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(3, 3))
        spec = CovSpec.full(A @ A.T)
        draws = _draw(spec, 3, RngStream(13, (0,)).generator(), 200_000)
        np.testing.assert_allclose(np.cov(draws.T), spec.matrix(3), rtol=0.05, atol=0.01)


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
