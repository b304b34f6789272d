"""Tree-replication design: evaluator, copy budgets, deviation guarantee."""

import math

import numpy as np
import pytest

from optonoise import (
    Activation,
    CopyBudgetRequest,
    CovSpec,
    DesignASpec,
    FeasibilityError,
    Layer,
    LinearNet,
    Network,
    NoiseProfile,
    RngStream,
    ValidationError,
    budget_feasible,
    chi_mean,
    design_a_samples,
    deviation_check,
    forward,
    noisy_forward_samples,
    lipschitz_bounds,
    stats_from_samples,
    step_map_b,
    subgaussian_norm_sq,
    sufficient_copies,
    total_copies,
)
from optonoise.design_a import common_variance_bound, equal_split_targets, wilson_interval

from conftest import count_affine_calls, random_linear_net, random_profile


def identity_net(dim):
    return Network((Layer(np.eye(dim), np.zeros(dim), Activation.identity()),), dim)


def uniform_copies(depth, n):
    return (n,) * depth + (1,)


class TestEvalDesignA:
    def test_degenerate_tree_bit_exact(self, rng):
        for _ in range(10):
            net = random_linear_net(rng, depth=3)
            x = rng.normal(size=net.input_dim)
            spec = DesignASpec(net, uniform_copies(net.depth, 1))
            out = design_a_samples(spec, x, NoiseProfile.zero(net.depth), 1, RngStream(0))[0]
            np.testing.assert_array_equal(out, forward(net, x))

    def test_copies_vector_validated(self, rng):
        net = random_linear_net(rng, depth=2)
        with pytest.raises(ValidationError):
            DesignASpec(net, (2, 2))  # wrong length
        with pytest.raises(ValidationError):
            DesignASpec(net, (2, 2, 2))  # n_L != 1
        with pytest.raises(ValidationError):
            DesignASpec(net, (0, 2, 1))

    def test_single_layer_weight_noise_averages(self):
        # averaging n iid draws divides the variance by n
        var, n = 0.8, 8
        net = identity_net(3)
        profile = NoiseProfile.isotropic(1, weight_var=var)
        spec = DesignASpec(net, (n, 1))
        samples = design_a_samples(spec, np.zeros(3), profile, 100_000, RngStream(1))
        np.testing.assert_allclose(samples.var(axis=0, ddof=1), var / n, rtol=0.05)

    def test_two_layer_loewner_and_trace_ratio(self, rng):
        net = random_linear_net(rng, depth=2, max_dim=4)
        x = rng.normal(size=net.input_dim)
        trials = 60_000

        # Loewner ordering holds for a generic profile
        profile = random_profile(rng, net)
        cov1 = np.cov(design_a_samples(DesignASpec(net, (1, 1, 1)), x, profile, trials, RngStream(2)).T)
        cov4 = np.cov(design_a_samples(DesignASpec(net, (4, 4, 1)), x, profile, trials, RngStream(3)).T)
        cov1 = np.atleast_2d(cov1)
        cov4 = np.atleast_2d(cov4)
        assert np.linalg.eigvalsh(cov1 - cov4).min() >= -0.02 * np.linalg.norm(cov1)

        # with last-layer weight noise only, every noise path is averaged
        # over exactly n_1 = 4 slots, so the trace ratio is 1/4
        dims = net.dims()
        last_only = NoiseProfile(
            CovSpec.zero(),
            tuple(
                CovSpec.isotropic(0.2) if l == net.depth - 1 else CovSpec.zero()
                for l in range(net.depth)
            ),
            tuple(CovSpec.zero() for _ in range(net.depth)),
        )
        t1 = np.trace(np.atleast_2d(np.cov(
            design_a_samples(DesignASpec(net, (1, 1, 1)), x, last_only, trials, RngStream(4)).T)))
        t4 = np.trace(np.atleast_2d(np.cov(
            design_a_samples(DesignASpec(net, (4, 4, 1)), x, last_only, trials, RngStream(5)).T)))
        assert t4 / t1 == pytest.approx(0.25, rel=0.10)

    def test_unbiased_on_linear_nets(self, rng):
        net = random_linear_net(rng, depth=2, max_dim=4)
        profile = random_profile(rng, net)
        x = rng.normal(size=net.input_dim)
        spec = DesignASpec(net, uniform_copies(net.depth, 3))
        samples = design_a_samples(spec, x, profile, 50_000, RngStream(6))
        stats = stats_from_samples(samples, forward(net, x))
        budget = 5.0 * math.sqrt(np.trace(stats.covariance) / stats.n)
        assert np.linalg.norm(stats.mean - forward(net, x)) <= budget

    def test_variance_scaling_slope(self, rng):
        # log-log slope of trace covariance vs copies is -1
        net = identity_net(2)
        profile = NoiseProfile.isotropic(1, weight_var=0.5)
        traces = []
        grid = [1, 2, 4, 8, 16]
        for n in grid:
            samples = design_a_samples(
                DesignASpec(net, (n, 1)), np.zeros(2), profile, 40_000, RngStream(7 + n)
            )
            traces.append(np.trace(np.atleast_2d(np.cov(samples.T))))
        slope = np.polyfit(np.log(grid), np.log(traces), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.15)

    def test_monotone_improvement(self, rng):
        # MSE vs the noiseless output is nonincreasing in the uniform copy
        # count, for a linear and a tanh host (1 inversion allowed)
        nets = [random_linear_net(rng, depth=2, max_dim=3)]
        tanh_layers = tuple(
            Layer(rng.normal(size=(3, 3)) * 0.5, rng.normal(size=3) * 0.2, Activation.tanh())
            for _ in range(2)
        )
        nets.append(Network(tanh_layers, 3))
        for net in nets:
            profile = NoiseProfile.isotropic(net.depth, modulation_var=0.02,
                                             weight_var=0.03, activation_var=0.02)
            x = rng.normal(size=net.input_dim)
            ref = forward(net, x)
            mses = []
            for n in (1, 2, 4, 8):
                samples = design_a_samples(
                    DesignASpec(net, uniform_copies(net.depth, n)), x, profile, 8000, RngStream(50 + n)
                )
                mses.append(float(np.mean(np.sum((samples - ref) ** 2, axis=1))))
            inversions = sum(1 for a, b in zip(mses, mses[1:]) if b > a)
            assert inversions <= 1, mses

    def test_affine_calls_count_tree_cost(self, rng, monkeypatch):
        import optonoise.noise as noise

        calls = count_affine_calls(monkeypatch, noise)
        net = random_linear_net(rng, depth=3, max_dim=3)
        copies = (2, 3, 2, 1)
        design_a_samples(DesignASpec(net, copies), np.zeros(net.input_dim),
                         NoiseProfile.zero(3), 1, RngStream(0))
        # the physical layer l performs prod_{k >= l-1} n_k weighted
        # additions; the simulator makes one call per layer on the
        # prod_{k >= l} n_k nodes of level l, n_{l-1} times fewer
        assert [args[2].shape[0] for args in calls] == [math.prod(copies[l:]) for l in range(1, 4)]


class TestTreeOracle:
    """The tree sampler against its exact output moments on linear nets."""

    MAX_SE = 5.0

    @pytest.mark.parametrize(
        "copies, seed",
        [((3, 2, 1), 601), ((3, 2, 1), 602), ((2, 2, 2, 1), 603), ((2, 2, 2, 1), 604)],
    )
    def test_matches_iterated_step_map_b(self, copies, seed):
        rng = np.random.default_rng(seed)
        net = random_linear_net(rng, depth=len(copies) - 1, max_dim=4)
        profile = random_profile(rng, net)
        x = rng.normal(size=net.input_dim)
        # layer l averages n_{l-1} independent subtrees: the combine/split
        # update with m = n_{l-1} and no combine or split noise
        dims = net.dims()
        cov = profile.modulation.matrix(dims[0])
        for l, (e, W) in enumerate(LinearNet.from_network(net).pairs, start=1):
            cov = step_map_b(
                e, W, cov, profile.weight[l - 1].matrix(dims[l]),
                profile.activation[l - 1].matrix(dims[l]), 0.0, 0.0, copies[l - 1],
            )
        trials = 40_000
        samples = design_a_samples(DesignASpec(net, copies), x, profile, trials, RngStream(seed))
        stats = stats_from_samples(samples, forward(net, x))
        var = np.diag(cov)
        mean_se = np.sqrt(var / trials)
        # standard error of a sample covariance entry of Gaussian data
        cov_se = np.sqrt((cov**2 + np.outer(var, var)) / (trials - 1))
        assert np.max(np.abs(stats.mean - forward(net, x)) / mean_se) <= self.MAX_SE
        assert np.max(np.abs(stats.covariance - cov) / cov_se) <= self.MAX_SE


class TestChiMean:
    def test_dimension_one(self):
        assert chi_mean(1) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-12)

    def test_dimension_two(self):
        assert chi_mean(2) == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-12)

    def test_large_dimension_bracket(self):
        d = 10**6
        assert math.sqrt(d - 1) <= chi_mean(d) <= math.sqrt(d)

    def test_rejects_zero(self):
        with pytest.raises(ValidationError):
            chi_mean(0)


class TestSubgaussianNormSq:
    def test_dimension_one(self):
        assert subgaussian_norm_sq(1) == pytest.approx(16.0 / 6.0, rel=1e-12)

    def test_dimension_two(self):
        assert subgaussian_norm_sq(2) == pytest.approx(4.0, rel=1e-12)

    def test_growth_without_bound(self):
        # denominator 2 * 4^(1/d) - 2 tends to zero, so the value grows
        values = [subgaussian_norm_sq(d) for d in (1, 10, 100, 10_000)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert subgaussian_norm_sq(10_000) > 1e4


class TestBudgetFeasible:
    def test_feasible_case(self):
        report = budget_feasible([0.5, 0.5], [0.01, 0.01], 1.0, 0.05)
        assert report.feasible  # 0.99^2 = 0.9801 > 0.95

    def test_delta_sum_violation(self):
        report = budget_feasible([0.6, 0.6], [0.01, 0.01], 1.0, 0.05)
        assert not report.feasible
        assert any("delta" in m for m in report.messages)

    def test_kappa_product_violation(self):
        report = budget_feasible([0.1, 0.1], [0.5, 0.5], 1.0, 0.5)
        assert not report.feasible  # 0.25 <= 0.5

    def test_boundary_is_infeasible(self):
        # prod(1 - kappa) must be strictly above 1 - failure target
        report = budget_feasible([0.5], [0.05], 1.0, 0.05)
        assert not report.feasible


class TestTotalCopies:
    def test_small_products(self):
        assert total_copies([1, 1, 1]) == 1
        assert total_copies([3, 2, 1]) == 6

    def test_exact_large_product(self):
        assert total_copies([5] * 7 + [1]) == 5**7 == 78125

    def test_rejects_zero_entry(self):
        with pytest.raises(ValidationError):
            total_copies([2, 0, 1])


def request_for(net, sigma_sq, deltas, kappas, dev, fail, C=1.0, c=1.0):
    return CopyBudgetRequest(
        sigma_sq=sigma_sq,
        deltas=deltas,
        kappas=kappas,
        lipschitz=lipschitz_bounds(net),
        deviation_target=dev,
        failure_target=fail,
        hoeffding_C=C,
        hoeffding_c=c,
    )


class TestSufficientCopies:
    def test_zero_noise_needs_single_copies(self):
        net = identity_net(2)
        req = request_for(net, 0.0, (1.0,), (0.05,), 1.0, 0.1)
        budget = sufficient_copies(req, [2])
        assert budget.copies == (1, 1)
        assert budget.total == 1

    def test_single_layer_high_precision_oracle(self):
        # independent evaluation of the same bound at 50 digits
        import mpmath

        mpmath.mp.dps = 50
        net = identity_net(1)
        req = request_for(net, 1.0, (1.0,), (0.05,), 1.0, 0.1, C=1.0, c=1.0)
        budget = sufficient_copies(req, [1])

        g = 4 * mpmath.mpf(4) ** mpmath.mpf("1") / (2 * mpmath.mpf(4) ** mpmath.mpf("1") - 2)
        mu = mpmath.sqrt(2) * mpmath.gamma(1) / mpmath.gamma(mpmath.mpf("0.5"))
        bound = (mpmath.sqrt(g * -mpmath.log(mpmath.mpf("0.025"))) + mu) ** 2
        assert budget.copies[0] == int(mpmath.ceil(bound))
        assert budget.bounds[0] == pytest.approx(float(bound), rel=1e-12)

    def test_monotone_in_sigma(self):
        net = identity_net(2)
        previous = 0
        for sigma_sq in (0.001, 0.01, 0.1, 1.0, 4.0):
            req = request_for(net, sigma_sq, (0.5,), (0.05,), 1.0, 0.1)
            n0 = sufficient_copies(req, [2]).copies[0]
            assert n0 >= previous
            previous = n0

    def test_antitone_in_delta_and_kappa(self):
        net = identity_net(2)
        for deltas in [(0.2,), (0.4,), (0.8,)]:
            n_small = sufficient_copies(request_for(net, 1.0, deltas, (0.05,), 1.0, 0.1), [2]).copies[0]
            n_large = sufficient_copies(
                request_for(net, 1.0, (deltas[0] * 1.2,), (0.05,), 1.5, 0.1), [2]
            ).copies[0]
            assert n_large <= n_small
        for kappas in [(0.01,), (0.05,), (0.2,)]:
            n_small = sufficient_copies(request_for(net, 1.0, (0.5,), kappas, 1.0, 0.5), [2]).copies[0]
            n_large = sufficient_copies(
                request_for(net, 1.0, (0.5,), (min(0.9, kappas[0] * 2),), 1.0, 0.95), [2]
            ).copies[0]
            assert n_large <= n_small

    def test_downstream_credit(self):
        # a larger downstream product M_l shrinks the upstream bound
        rng = np.random.default_rng(8)
        net = Network(
            (
                Layer(rng.normal(size=(2, 2)) * 0.4, np.zeros(2), Activation.tanh()),
                Layer(rng.normal(size=(2, 2)) * 0.4, np.zeros(2), Activation.tanh()),
            ),
            2,
        )
        deltas, kappas = equal_split_targets(2, 1.0, 0.1)
        req = request_for(net, 0.25, deltas, kappas, 1.0, 0.1)
        budget = sufficient_copies(req, [2, 2])
        assert budget.copies[-1] == 1
        # recompute the first-layer bound with M_1 forced to 1: it must not shrink
        amp = req.lipschitz.per_layer[0] * req.lipschitz.per_layer[1] * req.lipschitz.operator_norms[1]
        tail_m1 = math.sqrt(subgaussian_norm_sq(2) * -math.log(kappas[0] / 2))
        loose = (0.25 * amp**2 / deltas[0] ** 2) * (tail_m1 + chi_mean(2)) ** 2
        assert budget.bounds[0] <= loose + 1e-12

    def test_infeasible_targets_rejected(self):
        net = identity_net(2)
        with pytest.raises(FeasibilityError):
            sufficient_copies(request_for(net, 1.0, (2.0,), (0.05,), 1.0, 0.1), [2])


class TestCommonVarianceBound:
    def test_max_over_diagonals(self):
        profile = NoiseProfile(
            CovSpec.isotropic(0.1),
            (CovSpec.diagonal([0.3, 0.05]),),
            (CovSpec.isotropic(0.2),),
        )
        assert common_variance_bound(profile, 2, [2]) == pytest.approx(0.3)

    def test_full_rejected(self):
        profile = NoiseProfile(
            CovSpec.full([[0.1, 0.0], [0.0, 0.1]]), (CovSpec.zero(),), (CovSpec.zero(),)
        )
        with pytest.raises(ValidationError):
            common_variance_bound(profile, 2, [2])


class TestDeviationCheck:
    def test_zero_noise_never_fails(self, rng):
        net = random_linear_net(rng, depth=2)
        spec = DesignASpec(net, uniform_copies(net.depth, 2))
        result = deviation_check(
            spec, NoiseProfile.zero(net.depth), [rng.normal(size=net.input_dim)],
            deviation_allowance=1e-9, trials=200, seed=0,
        )
        assert result.failures == 0

    def test_zero_allowance_always_fails(self, rng):
        net = random_linear_net(rng, depth=2)
        spec = DesignASpec(net, uniform_copies(net.depth, 2))
        result = deviation_check(
            spec, NoiseProfile.zero(net.depth), [rng.normal(size=net.input_dim)],
            deviation_allowance=0.0, trials=200, seed=0,
        )
        assert result.failure_rate == 1.0

    def test_trial_floor(self, rng):
        net = random_linear_net(rng, depth=1)
        spec = DesignASpec(net, (1, 1))
        with pytest.raises(ValidationError):
            deviation_check(spec, NoiseProfile.zero(1), [np.zeros(net.input_dim)],
                            1.0, trials=50, seed=0)

    def test_wilson_interval_basics(self):
        low, high = wilson_interval(0, 1000)
        assert low == 0.0 and high < 0.005
        low, high = wilson_interval(500, 1000)
        assert low < 0.5 < high


class TestSpecJson:
    def test_round_trip(self, rng):
        from optonoise import design_a_spec_from_json, design_a_spec_to_json

        net = random_linear_net(rng, depth=2)
        spec = DesignASpec(net, (3, 2, 1))
        back = design_a_spec_from_json(design_a_spec_to_json(spec))
        assert back.copies == spec.copies
        x = rng.normal(size=net.input_dim)
        np.testing.assert_array_equal(forward(back.base, x), forward(net, x))

    def test_missing_keys_rejected(self):
        from optonoise import design_a_spec_from_json

        with pytest.raises(ValidationError):
            design_a_spec_from_json({"copies": [1, 1]})


class TestStreamAlignment:
    def test_all_ones_tree_matches_noisy_forward_draws(self, rng):
        # a degenerate tree touches exactly the stream sites of the
        # unmodified noisy network, so same-seed draws coincide bit for bit
        for _ in range(5):
            net = random_linear_net(rng, depth=3)
            profile = random_profile(rng, net)
            x = rng.normal(size=net.input_dim)
            spec = DesignASpec(net, (1,) * net.depth + (1,))
            a = design_a_samples(spec, x, profile, 1, RngStream(123))[0]
            b = noisy_forward_samples(net, profile, x, 1, RngStream(123))[0]
            np.testing.assert_array_equal(a, b)


class TestMultiLayerBudgetOracle:
    def test_matches_independent_high_precision_evaluation(self, rng):
        # re-derives the whole back-to-front budget at 50 digits,
        # independently of the implementation
        import mpmath

        mpmath.mp.dps = 50

        def oracle(sigma_sq, deltas, kappas, a, wops, dims, C, c):
            L = len(dims)
            n = [None] * (L + 1)
            n[L] = 1
            for l in range(L, 0, -1):
                M = math.prod(n[l:])
                amp = mpmath.mpf(1)
                for i in range(l, L + 1):
                    amp *= mpmath.mpf(float(a[i - 1]))
                for i in range(l + 1, L + 1):
                    amp *= mpmath.mpf(float(wops[i - 1]))
                d = dims[l - 1]
                root = mpmath.mpf(4) ** (mpmath.mpf(1) / d)
                g = 4 * root / (2 * root - 2)
                mu = mpmath.sqrt(2) * mpmath.gamma(mpmath.mpf(d + 1) / 2) / mpmath.gamma(mpmath.mpf(d) / 2)
                tail = mpmath.sqrt(
                    mpmath.mpf(C) ** 2 * g
                    * (-mpmath.log(mpmath.mpf(kappas[l - 1]) / 2))
                    / (mpmath.mpf(c) * M)
                )
                bound = (
                    mpmath.mpf(sigma_sq) * amp**2 / mpmath.mpf(deltas[l - 1]) ** 2
                    * (tail + mu) ** 2
                )
                n[l - 1] = max(1, int(mpmath.ceil(bound)))
            return tuple(n)

        for _ in range(8):
            depth = int(rng.integers(1, 5))
            dims_chain = [int(rng.integers(1, 6)) for _ in range(depth + 1)]
            layers = tuple(
                Layer(rng.normal(size=(dims_chain[l + 1], dims_chain[l])) * 0.6,
                      np.zeros(dims_chain[l + 1]), Activation.tanh())
                for l in range(depth)
            )
            net = Network(layers, dims_chain[0])
            rep = lipschitz_bounds(net)
            sigma_sq = float(rng.uniform(0.0005, 0.01))
            deltas, kappas = equal_split_targets(
                depth, float(rng.uniform(0.3, 1.5)), float(rng.uniform(0.02, 0.2))
            )
            C, c = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.1, 1.0))
            req = CopyBudgetRequest(
                sigma_sq=sigma_sq, deltas=deltas, kappas=kappas, lipschitz=rep,
                deviation_target=sum(deltas) + 1e-9,
                failure_target=1 - float(np.prod([1 - k for k in kappas])) + 1e-9,
                hoeffding_C=C, hoeffding_c=c,
            )
            got = sufficient_copies(req, net.dims()[1:]).copies
            want = oracle(sigma_sq, deltas, kappas, rep.per_layer,
                          rep.operator_norms, net.dims()[1:], C, c)
            assert got == want
