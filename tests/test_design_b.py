"""Combine/split design: evaluator, cost, heuristics, comparison report."""

import numpy as np
import pytest

from optonoise import (
    Activation,
    CovSpec,
    DesignBSpec,
    Layer,
    LinearNet,
    Network,
    NoiseProfile,
    RngStream,
    ValidationError,
    compare_design_b,
    design_b_samples,
    forward,
    noisy_forward_samples,
    propagate_b_branchwise,
    stats_from_samples,
)

from conftest import count_affine_calls, gaussian_gaps, random_linear_net, random_profile


def identity_net(dim):
    return Network((Layer(np.eye(dim), np.zeros(dim), Activation.identity()),), dim)


class TestEvalDesignB:
    def test_zero_profile_bit_exact_at_m1(self, rng):
        for _ in range(5):
            net = random_linear_net(rng, depth=3)
            x = rng.normal(size=net.input_dim)
            out = design_b_samples(
                DesignBSpec(net, 1), x, NoiseProfile.zero(net.depth), 1, RngStream(0)
            )[0]
            np.testing.assert_array_equal(out, forward(net, x))

    def test_zero_profile_close_for_larger_m(self, rng):
        # m > 1 computes the same function; with no noise the m branches are
        # identical and the kernel takes one instead of averaging them
        net = random_linear_net(rng, depth=3)
        x = rng.normal(size=net.input_dim)
        out = design_b_samples(
            DesignBSpec(net, 3), x, NoiseProfile.zero(net.depth), 1, RngStream(0)
        )[0]
        np.testing.assert_array_equal(out, forward(net, x))

    def test_m1_draws_match_noisy_forward(self, rng):
        # with one copy and no combine/split noise the evaluator touches
        # exactly the stream sites of the unmodified noisy network
        for _ in range(5):
            net = random_linear_net(rng, depth=3)
            profile = random_profile(rng, net)
            x = rng.normal(size=net.input_dim)
            a = design_b_samples(DesignBSpec(net, 1), x, profile, 1, RngStream(77))[0]
            b = noisy_forward_samples(net, profile, x, 1, RngStream(77))[0]
            np.testing.assert_array_equal(a, b)

    def test_single_layer_variance_averages(self):
        var, m = 0.6, 5
        net = identity_net(2)
        profile = NoiseProfile.isotropic(1, weight_var=var)
        samples = design_b_samples(DesignBSpec(net, m), np.zeros(2), profile, 100_000, RngStream(1))
        np.testing.assert_allclose(samples.var(axis=0, ddof=1), var / m, rtol=0.05)

    def test_three_layer_matches_branchwise_oracle(self, rng):
        net = random_linear_net(rng, depth=3, max_dim=4)
        profile = random_profile(rng, net)
        x = rng.normal(size=net.input_dim)
        m = 4
        samples = design_b_samples(DesignBSpec(net, m), x, profile, 80_000, RngStream(2))
        stats = stats_from_samples(samples, forward(net, x))
        oracle = propagate_b_branchwise(LinearNet.from_network(net), profile, m).output
        err = np.linalg.norm(stats.covariance - oracle) / np.linalg.norm(oracle)
        assert err <= 0.05

    def test_zero_split_activates_each_beam_once(self, rng, monkeypatch):
        # without split noise the m branches of a beam are identical until
        # their activation noise, so the kernel activates the beam once, not
        # m copies, and still draws the law of the branchwise recursion
        shapes = []
        real = Activation._in_place

        def recording(self, y):
            shapes.append(y.shape)
            return real(self, y)

        monkeypatch.setattr(Activation, "_in_place", recording)
        net = random_linear_net(rng, depth=3, max_dim=4)
        base = random_profile(rng, net)
        profile = NoiseProfile(base.modulation, base.weight, base.activation,
                               combine=CovSpec.isotropic(0.03))
        x = rng.normal(size=net.input_dim)
        samples = design_b_samples(DesignBSpec(net, 4), x, profile, 40_000, RngStream(6))
        assert {shape[0] for shape in shapes} == {1}
        oracle = propagate_b_branchwise(LinearNet.from_network(net), profile, 4).output
        mean_gap, cov_gap = gaussian_gaps(samples, forward(net, x), oracle)
        assert mean_gap <= 5.0 and cov_gap <= 5.0

    def test_combine_split_noise_consumed(self, rng):
        # combine noise enters once per layer divided by m; split noise per branch
        m = 4
        net = identity_net(2)
        profile = NoiseProfile(
            CovSpec.zero(), (CovSpec.zero(),), (CovSpec.zero(),),
            combine=CovSpec.isotropic(0.8), split=CovSpec.isotropic(0.3),
        )
        samples = design_b_samples(DesignBSpec(net, m), np.zeros(2), profile, 100_000, RngStream(3))
        # output variance: sum/m^2 + split/m (split draws are averaged at the return)
        expected = 0.8 / m**2 + 0.3 / m
        np.testing.assert_allclose(samples.var(axis=0, ddof=1), expected, rtol=0.05)

    def test_unbiased_on_linear_nets(self, rng):
        net = random_linear_net(rng, depth=3, max_dim=4)
        profile = random_profile(rng, net)
        x = rng.normal(size=net.input_dim)
        samples = design_b_samples(DesignBSpec(net, 3), x, profile, 50_000, RngStream(4))
        stats = stats_from_samples(samples, forward(net, x))
        budget = 5.0 * np.sqrt(np.trace(stats.covariance) / stats.n)
        assert np.linalg.norm(stats.mean - forward(net, x)) <= budget

    def test_cost_is_linear_in_depth(self, rng, monkeypatch):
        import optonoise.noise as noise

        calls = count_affine_calls(monkeypatch, noise)
        net = random_linear_net(rng, depth=4, max_dim=3)
        for m in (1, 3, 7):
            calls.clear()
            design_b_samples(DesignBSpec(net, m), np.zeros(net.input_dim),
                             NoiseProfile.isotropic(4, 0.01, 0.02, 0.03), 5, RngStream(0))
            # the physical design makes m weighted additions per layer; the
            # simulator makes one, on the average of the m branches, and with
            # every layer's noise pushed to the top site it runs once per input
            assert [args[2].shape for args in calls] == [(1, d) for d in net.dims()[:-1]]

    def test_mse_monotone_in_m(self, rng):
        net = random_linear_net(rng, depth=2, max_dim=3)
        profile = random_profile(rng, net)
        x = rng.normal(size=net.input_dim)
        ref = forward(net, x)
        mses = []
        for m in (1, 2, 4, 8):
            samples = design_b_samples(DesignBSpec(net, m), x, profile, 20_000, RngStream(10 + m))
            mses.append(float(np.mean(np.sum((samples - ref) ** 2, axis=1))))
        inversions = sum(1 for a, b in zip(mses, mses[1:]) if b > a)
        assert inversions <= 1, mses

    def test_rejects_m_below_one(self, rng):
        net = random_linear_net(rng, depth=1)
        with pytest.raises(ValidationError):
            DesignBSpec(net, 0)

    def test_rejects_fractional_m(self, rng):
        net = random_linear_net(rng, depth=1)
        assert DesignBSpec(net, 3.0).m == 3
        for m in (2.7, True, "x"):
            with pytest.raises(ValidationError, match="copy count m must be an integer"):
                DesignBSpec(net, m)


def _compare(net, m, profile, x, trials, seed):
    spec = DesignBSpec(net, m)
    samples = design_b_samples(spec, x, profile, trials, RngStream(seed))
    return compare_design_b(spec, profile, stats_from_samples(samples, forward(net, x)))


class TestComparisonReport:
    def test_reports_both_oracles(self, rng):
        net = random_linear_net(rng, depth=2, max_dim=3)
        profile = random_profile(rng, net)
        x = rng.normal(size=net.input_dim)
        report = _compare(net, 3, profile, x, 40_000, seed=5)
        # the branchwise oracle matches the simulator; the corrected
        # recursion is reported but is not the simulator's law at depth 2
        assert report.rel_err_branchwise <= 0.05
        obj = report.to_json()
        assert "note" in obj and obj["m"] == 3 and obj["trials"] == 40_000

    def test_m1_oracles_coincide(self, rng):
        net = random_linear_net(rng, depth=2, max_dim=3)
        profile = random_profile(rng, net)
        x = rng.normal(size=net.input_dim)
        report = _compare(net, 1, profile, x, 40_000, seed=6)
        np.testing.assert_allclose(report.recursion_corrected, report.branchwise, atol=1e-12)
        assert report.rel_err_recursion_corrected <= 0.05


class TestAgreementBoundary:
    def test_corrected_recursion_exact_at_depth_one(self, rng):
        # at depth 1 the branches' only shared history is one combine, so
        # the corrected recursion and the branch-resolved law coincide for
        # every m, including combine/split noise
        from optonoise import propagate_b
        from optonoise.design_b import terminal_average_correction

        for m in (1, 2, 5):
            net = random_linear_net(rng, depth=1, max_dim=4)
            dims = net.dims()
            profile = NoiseProfile(
                CovSpec.isotropic(0.05),
                (CovSpec.isotropic(0.04),),
                (CovSpec.isotropic(0.03),),
                combine=CovSpec.isotropic(0.02),
                split=CovSpec.isotropic(0.01),
            )
            linnet = LinearNet.from_network(net)
            corrected = terminal_average_correction(
                propagate_b(linnet, profile, m).final, profile, net, m
            )
            branchwise = propagate_b_branchwise(linnet, profile, m).output
            np.testing.assert_allclose(corrected, branchwise, atol=1e-14)
