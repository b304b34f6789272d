"""Tree-replication design: evaluator, copy budgets, deviation guarantee."""

import math
import re

import numpy as np
import pytest

from optonoise import (
    Activation,
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
    subgaussian_norm_sq,
    sufficient_copies,
    total_copies,
)
from optonoise.covariance import _run
from optonoise.design_a import common_variance_bound, equal_split_targets, wilson_interval
from optonoise import design_a

from conftest import (
    count_affine_calls,
    gaussian_gaps,
    random_linear_net,
    random_profile,
)


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

    def test_fractional_copies_refused(self, rng):
        net = random_linear_net(rng, depth=2)
        assert DesignASpec(net, (2.0, np.int64(3), 1)).copies == (2, 3, 1)
        for copies in [(2.7, 1, 1), (2, True, 1), ("x", 1, 1)]:
            with pytest.raises(ValidationError, match="copy count must be an integer"):
                DesignASpec(net, copies)

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
        dims = [int(d) for d in rng.integers(1, 4, size=4)]
        net = Network(tuple(Layer(rng.normal(size=(dims[l + 1], dims[l])), np.zeros(dims[l + 1]),
                                  Activation.tanh()) for l in range(3)), dims[0])
        copies = (2, 3, 2, 1)
        design_a_samples(DesignASpec(net, copies), np.zeros(net.input_dim),
                         NoiseProfile.isotropic(3, 0.01, 0.02, 0.03), 1, RngStream(0))
        # on tanh layers the physical layer l performs prod_{k >= l-1} n_k
        # weighted additions; the simulator makes one call per layer on the
        # prod_{k >= l} n_k nodes of level l, n_{l-1} times fewer.  Layer 1
        # takes only its own noise and the modulation pushed into it, after
        # its weighted addition, so it makes that call once, on the input
        assert [args[2].shape[0] for args in calls] == [1] + [math.prod(copies[l:])
                                                               for l in range(2, 4)]

    def test_linear_layers_make_one_affine_call_each(self, rng, monkeypatch):
        # a linear layer averages its inputs before its weighted addition, and
        # every layer pushes the noise below it into the next, so a linear tree
        # draws only at its top site and runs each layer once, on the input
        import optonoise.noise as noise

        calls = count_affine_calls(monkeypatch, noise)
        net = random_linear_net(rng, depth=3, max_dim=3)
        design_a_samples(DesignASpec(net, (2, 3, 2, 1)), np.zeros(net.input_dim),
                         NoiseProfile.isotropic(3, 0.01, 0.02, 0.03), 5, RngStream(0))
        assert [args[2].shape for args in calls] == [(1, d) for d in net.dims()[:-1]]


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
        cov = _run(LinearNet.from_network(net), profile, copies[:-1], (1,) * net.depth)[1][-1]
        samples = design_a_samples(DesignASpec(net, copies), x, profile, 40_000, RngStream(seed))
        mean_gap, cov_gap = gaussian_gaps(samples, forward(net, x), cov)
        assert mean_gap <= self.MAX_SE and cov_gap <= self.MAX_SE, (mean_gap, cov_gap)


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

    @pytest.mark.parametrize("d", [2.5, True], ids=["fraction", "bool"])
    def test_rejects_non_integer_dimension(self, d):
        with pytest.raises(ValidationError, match="dimension must be an integer"):
            chi_mean(d)
        with pytest.raises(ValidationError, match="dimension must be an integer"):
            subgaussian_norm_sq(d)


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
        assert budget_feasible([0.5, 0.5], [0.01, 0.01], 1.0, 0.05) == ()  # 0.99^2 = 0.9801 > 0.95

    def test_delta_sum_violation(self):
        broken = budget_feasible([0.6, 0.6], [0.01, 0.01], 1.0, 0.05)
        assert broken
        assert any("delta" in m for m in broken)

    def test_kappa_product_violation(self):
        assert budget_feasible([0.1, 0.1], [0.5, 0.5], 1.0, 0.5)  # 0.25 <= 0.5

    def test_boundary_is_infeasible(self):
        # prod(1 - kappa) must be strictly above 1 - failure target
        assert budget_feasible([0.5], [0.05], 1.0, 0.05)


class TestTotalCopies:
    def test_small_products(self):
        assert total_copies([1, 1, 1]) == 1
        assert total_copies([3, 2, 1]) == 6

    def test_exact_large_product(self):
        assert total_copies([5] * 7 + [1]) == 5**7 == 78125

    def test_rejects_zero_entry(self):
        with pytest.raises(ValidationError):
            total_copies([2, 0, 1])

    def test_rejects_fractional_entry(self):
        assert total_copies([3.0, 2, 1]) == 6
        with pytest.raises(ValidationError, match="must be an integer"):
            total_copies([2.5, 2, 1])


def budget_for(net, sigma_sq, deltas, kappas, dev, fail, C=1.0, c=1.0):
    return sufficient_copies(net, sigma_sq, dev, fail, deltas, kappas, C, c)


class TestSufficientCopies:
    def test_zero_noise_needs_single_copies(self):
        net = identity_net(2)
        budget = budget_for(net, 0.0, (1.0,), (0.05,), 1.0, 0.1)
        assert budget.copies == (1, 1)
        assert budget.total == 1

    def test_single_layer_high_precision_oracle(self):
        # independent evaluation of the same bound at 50 digits
        import mpmath

        mpmath.mp.dps = 50
        net = identity_net(1)
        budget = budget_for(net, 1.0, (1.0,), (0.05,), 1.0, 0.1, C=1.0, c=1.0)

        g = 4 * mpmath.mpf(4) ** mpmath.mpf("1") / (2 * mpmath.mpf(4) ** mpmath.mpf("1") - 2)
        mu = mpmath.sqrt(2) * mpmath.gamma(1) / mpmath.gamma(mpmath.mpf("0.5"))
        bound = (mpmath.sqrt(g * -mpmath.log(mpmath.mpf("0.025"))) + mu) ** 2
        assert budget.copies[0] == int(mpmath.ceil(bound))
        assert budget.bounds[0] == pytest.approx(float(bound), rel=1e-12)

    def test_monotone_in_sigma(self):
        net = identity_net(2)
        previous = 0
        for sigma_sq in (0.001, 0.01, 0.1, 1.0, 4.0):
            n0 = budget_for(net, sigma_sq, (0.5,), (0.05,), 1.0, 0.1).copies[0]
            assert n0 >= previous
            previous = n0

    def test_antitone_in_delta_and_kappa(self):
        net = identity_net(2)
        for deltas in [(0.2,), (0.4,), (0.8,)]:
            n_small = budget_for(net, 1.0, deltas, (0.05,), 1.0, 0.1).copies[0]
            n_large = budget_for(net, 1.0, (deltas[0] * 1.2,), (0.05,), 1.5, 0.1).copies[0]
            assert n_large <= n_small
        for kappas in [(0.01,), (0.05,), (0.2,)]:
            n_small = budget_for(net, 1.0, (0.5,), kappas, 1.0, 0.5).copies[0]
            n_large = budget_for(net, 1.0, (0.5,), (min(0.9, kappas[0] * 2),), 1.0, 0.95).copies[0]
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
        budget = budget_for(net, 0.25, deltas, kappas, 1.0, 0.1)
        assert budget.copies[-1] == 1
        # recompute the first-layer bound with M_1 forced to 1: it must not shrink
        rep = lipschitz_bounds(net)
        amp = rep.per_layer[0] * rep.per_layer[1] * rep.operator_norms[1]
        tail_m1 = math.sqrt(subgaussian_norm_sq(2) * -math.log(kappas[0] / 2))
        loose = (0.25 * amp**2 / deltas[0] ** 2) * (tail_m1 + chi_mean(2)) ** 2
        assert budget.bounds[0] <= loose + 1e-12

    def test_infeasible_targets_rejected(self):
        net = identity_net(2)
        with pytest.raises(FeasibilityError):
            budget_for(net, 1.0, (2.0,), (0.05,), 1.0, 0.1)


class TestCopyBudgetInputs:
    """Budget numbers are converted and checked where they enter."""

    BASE = dict(sigma_sq=0.25, deltas=(0.5,), kappas=(0.05,), deviation_target=1.0, failure_target=0.1)

    def test_numbers_convert(self):
        net = identity_net(2)
        text = budget_for(net, "0.25", ["0.5"], ("0.05",), 1, "0.1", C=1, c="1")
        plain = budget_for(net, 0.25, (0.5,), (0.05,), 1.0, 0.1, C=1.0, c=1.0)
        assert text.hoeffding_C == 1.0 and isinstance(text.hoeffding_C, float)
        assert text.bounds == plain.bounds

    @pytest.mark.parametrize("field, value", [
        ("sigma_sq", "abc"), ("sigma_sq", math.nan), ("deltas", (math.nan,)), ("deltas", ("x",)),
        ("kappas", (math.inf,)), ("deviation_target", math.inf), ("failure_target", math.nan),
        ("hoeffding_C", math.inf), ("hoeffding_c", math.nan), ("hoeffding_C", True),
    ])
    def test_non_finite_refused(self, field, value):
        with pytest.raises(ValidationError, match="must be finite"):
            sufficient_copies(identity_net(2), **{**self.BASE, field: value})

    @pytest.mark.parametrize("field", ["deltas", "kappas"])
    @pytest.mark.parametrize("value", [5, "abc"], ids=["number", "text"])
    def test_scalar_split_refused(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be a list"):
            sufficient_copies(identity_net(2), **{**self.BASE, field: value})

    @pytest.mark.parametrize("field", ["deltas", "kappas"])
    def test_lone_split_refused(self, field):
        kwargs = {**self.BASE}
        del kwargs[field]
        with pytest.raises(ValidationError, match="deltas and kappas must be given together"):
            sufficient_copies(identity_net(2), **kwargs)

    @pytest.mark.parametrize("deltas, kappas", [
        ((0.25, 0.25), (0.02, 0.02)), ((0.5,), (0.02, 0.02)), ((0.25, 0.25), (0.05,)),
    ], ids=["both-long", "kappas-long", "deltas-long"])
    def test_split_length_must_match_depth(self, deltas, kappas):
        with pytest.raises(ValidationError, match="deltas/kappas must have one entry per layer"):
            sufficient_copies(identity_net(2), **{**self.BASE, "deltas": deltas, "kappas": kappas})

    @pytest.mark.parametrize("depth, message", [
        (2.5, "depth must be an integer, got 2.5"), (0, "depth must be >= 1, got 0"),
    ], ids=["fraction", "zero"])
    def test_equal_split_refuses_bad_depth(self, depth, message):
        with pytest.raises(ValidationError, match=message):
            equal_split_targets(depth, 1.0, 0.1)

    @pytest.mark.parametrize("target", ["deviation_target", "failure_target"])
    @pytest.mark.parametrize("value", ["abc", math.nan, math.inf])
    def test_equal_split_refuses_non_finite_targets(self, target, value):
        targets = {"deviation_target": 1.0, "failure_target": 0.1, target: value}
        with pytest.raises(ValidationError, match=f"{target} must be finite"):
            equal_split_targets(2, **targets)

    @pytest.mark.parametrize("target, value, message", [
        ("deviation_target", -0.5, "deviation_target must be finite and > 0, got -0.5"),
        ("deviation_target", 0.0, "deviation_target must be finite and > 0, got 0.0"),
        ("failure_target", 1.5, "failure_target must lie in (0, 1], got 1.5"),
        ("failure_target", 1.04, "failure_target must lie in (0, 1], got 1.04"),
        ("failure_target", 0.0, "failure_target must lie in (0, 1], got 0.0"),
        ("failure_target", -0.1, "failure_target must lie in (0, 1], got -0.1"),
    ], ids=["deviation-negative", "deviation-zero", "failure-1.5", "failure-1.04", "failure-zero",
            "failure-negative"])
    @pytest.mark.parametrize("split", ["equal", "given", "equal_split_targets"])
    def test_targets_out_of_range_refused_by_name(self, target, value, message, split):
        targets = {"deviation_target": 1.0, "failure_target": 0.1, target: value}
        with pytest.raises(ValidationError, match=re.escape(message)):
            if split == "equal_split_targets":
                equal_split_targets(1, **targets)
            elif split == "equal":
                sufficient_copies(identity_net(2), 0.25, **targets)
            else:
                sufficient_copies(identity_net(2), 0.25, deltas=(0.5,), kappas=(0.05,), **targets)

    def test_failure_target_of_one_passes(self):
        budget = sufficient_copies(identity_net(2), 0.25, 1.0, 1.0)
        assert budget.copies[-1] == 1


class TestCommonVarianceBound:
    def test_max_over_diagonals(self):
        profile = NoiseProfile(
            CovSpec.isotropic(0.1),
            (CovSpec.diagonal([0.3, 0.05]),),
            (CovSpec.isotropic(0.2),),
        )
        assert common_variance_bound(profile) == pytest.approx(0.3)

    def test_last_activation_counts(self):
        # the largest variance sits only in the last layer's activation spec
        profile = NoiseProfile(
            CovSpec.isotropic(0.01),
            (CovSpec.isotropic(0.02), CovSpec.zero()),
            (CovSpec.zero(), CovSpec.diagonal([0.1, 0.7])),
        )
        assert common_variance_bound(profile) == 0.7

    def test_full_rejected(self):
        profile = NoiseProfile(
            CovSpec.full([[0.1, 0.0], [0.0, 0.1]]), (CovSpec.zero(),), (CovSpec.zero(),)
        )
        with pytest.raises(ValidationError):
            common_variance_bound(profile)


class TestDeviationCheck:
    def test_non_finite_reference_refused(self):
        # forward(10) is 1e308 * 10 * 10 = inf, and a nan deviation would
        # not reach the allowance, so every trial would count as a pass
        net = Network((Layer([[1e308]], [0.0], Activation.identity()),
                       Layer([[10.0]], [0.0], Activation.identity())), 1)
        with pytest.raises(ValidationError, match="^reference contains non-finite values$"):
            deviation_check(DesignASpec(net, (1, 1, 1)),
                            NoiseProfile.isotropic(2, modulation_var=0.01), [[10.0]], 0.5, 200, 3)

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

    @pytest.mark.parametrize("allowance", [math.nan, math.inf, -1.0, "x"],
                             ids=["nan", "inf", "negative", "text"])
    def test_allowance_must_be_finite_and_non_negative(self, rng, allowance):
        net = random_linear_net(rng, depth=1)
        spec = DesignASpec(net, (1, 1))
        with pytest.raises(ValidationError, match="deviation_allowance must be"):
            deviation_check(spec, NoiseProfile.zero(1), [np.zeros(net.input_dim)],
                            allowance, trials=100, seed=0)

    def test_trial_floor(self, rng):
        net = random_linear_net(rng, depth=1)
        spec = DesignASpec(net, (1, 1))
        with pytest.raises(ValidationError):
            deviation_check(spec, NoiseProfile.zero(1), [np.zeros(net.input_dim)],
                            1.0, trials=50, seed=0)

    def test_fractional_trials_and_seed_refused(self, rng):
        net = random_linear_net(rng, depth=1)
        spec = DesignASpec(net, (1, 1))
        args = (spec, NoiseProfile.zero(1), [np.zeros(net.input_dim)], 1.0)
        assert deviation_check(*args, trials=100.0, seed=0.0).trials == 100
        with pytest.raises(ValidationError, match="trials must be an integer"):
            deviation_check(*args, trials=100.5, seed=0)
        with pytest.raises(ValidationError, match="seed must be an integer"):
            deviation_check(*args, trials=100, seed=1.5)

    @pytest.mark.parametrize("n_inputs, trials", [(1, 100), (25, 100), (3, 2100)],
                             ids=["one-part", "two-parts", "part-inside-an-input"])
    def test_failures_equal_those_of_the_held_samples(self, rng, monkeypatch, n_inputs, trials):
        # one kernel call on RngStream(seed) scores the tiles of the public
        # sampler's call on that stream, so the failures are exact, ties too
        net = random_linear_net(rng, depth=2)
        spec = DesignASpec(net, uniform_copies(net.depth, 2))
        profile = random_profile(rng, net)
        inputs = rng.normal(size=(n_inputs, net.input_dim))
        samples = design_a_samples(spec, inputs, profile, trials, RngStream(3))
        worst = np.linalg.norm(samples - forward(net, inputs)[:, None], axis=2).max(axis=0)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[4])
            return kernel(*args, **kwargs)

        kernel = design_a._sample
        monkeypatch.setattr(design_a, "_sample", counted)
        for allowance in (float(np.median(worst)), float(np.sort(worst)[trials * 3 // 5])):
            result = deviation_check(spec, profile, list(inputs), allowance, trials, seed=3)
            assert result.failures == int(np.sum(worst >= allowance))
            assert 0 < result.failures < trials
            matrix = deviation_check(spec, profile, inputs, allowance, trials, seed=3)
            assert matrix.failures == result.failures
        assert calls == [RngStream(3)] * 4

    @pytest.mark.parametrize("inputs", [[], np.zeros((0, 2))], ids=["empty-list", "no-rows"])
    def test_empty_input_set_refused(self, inputs):
        spec = DesignASpec(identity_net(2), (1, 1))
        with pytest.raises(ValidationError, match="deviation_check needs at least one input"):
            deviation_check(spec, NoiseProfile.zero(1), inputs, 1.0, trials=100, seed=0)

    def test_wilson_interval_basics(self):
        low, high = wilson_interval(0, 1000)
        assert low == 0.0 and high < 0.005
        low, high = wilson_interval(500, 1000)
        assert low < 0.5 < high


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
            got = sufficient_copies(
                net, sigma_sq, sum(deltas) + 1e-9,
                1 - float(np.prod([1 - k for k in kappas])) + 1e-9,
                deltas, kappas, C, c,
            ).copies
            want = oracle(sigma_sq, deltas, kappas, rep.per_layer,
                          rep.operator_norms, net.dims()[1:], C, c)
            assert got == want
