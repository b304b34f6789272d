"""Covariance propagation: per-layer maps, closed forms, limits, fixed points."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optonoise import (
    Activation,
    ContractionError,
    ConvergenceError,
    CovSpec,
    DesignASpec,
    DesignBSpec,
    Layer,
    LinearNet,
    Network,
    NoiseProfile,
    RngStream,
    SymmetricConfig,
    ValidationError,
    design_a_samples,
    design_b_samples,
    fixed_point_solve,
    limit_series,
    limit_series_b,
    min_stable_m,
    noisy_forward_samples,
    propagate,
    propagate_b,
    propagate_b_branchwise,
    stats_from_samples,
    step_map_b,
    symmetric_closed_form,
    symmetric_closed_form_b,
)
from optonoise import noise
from optonoise.covariance import _copies, _run, trajectory_to_json
from optonoise.design_b import terminal_average_correction
from optonoise.network import forward

from conftest import (
    gaussian_gaps,
    random_covspec,
    random_linear_net,
    random_profile,
)


def scalar_cfg(e, w, sm=0.0, sw=0.0, sa=0.0, m=1):
    def spec(v):
        return CovSpec.isotropic(v) if v else CovSpec.zero()

    return SymmetricConfig(
        np.array([e]), np.array([[w]]), spec(sm), spec(sw), spec(sa), m=m
    )


def random_symmetric_cfg(rng, max_dim=5, contracting=False, m=1):
    d = int(rng.integers(1, max_dim + 1))
    e = rng.uniform(0.3, 1.0, size=d)
    W = rng.normal(size=(d, d))
    if contracting:
        # scale so ||D||_F ||W||_F < 0.9 * sqrt(m)
        target = 0.9 * np.sqrt(m)
        W *= target / (np.linalg.norm(e) * np.linalg.norm(W)) * rng.uniform(0.5, 1.0)
    else:
        W *= 0.6 / np.sqrt(d)
    return SymmetricConfig(
        e,
        W,
        random_covspec(rng, d, allow_zero=False),
        random_covspec(rng, d),
        random_covspec(rng, d),
        m=m,
    )


def noise_matrices(cfg):
    return tuple(spec.matrix(cfg.dim) for spec in (cfg.sigma_m, cfg.sigma_w, cfg.sigma_a))


class TestSymmetricConfigCount:
    def test_fractional_m_refused(self):
        assert scalar_cfg(1.0, 0.5, m=2.0).m == 2
        with pytest.raises(ValidationError, match="copy count m must be an integer"):
            scalar_cfg(1.0, 0.5, m=2.5)


class TestStoredArrays:
    """Configs and linear nets hold read-only copies of the caller's arrays."""

    def test_symmetric_config_copies_e_and_w(self):
        e, W = np.array([0.5, 0.5]), np.eye(2)
        cfg = SymmetricConfig(e, W, CovSpec.isotropic(1.0), CovSpec.isotropic(0.1), CovSpec.zero())
        before = symmetric_closed_form(cfg, 3)
        e[:], W[:] = 9.0, 9.0
        np.testing.assert_array_equal(symmetric_closed_form(cfg, 3), before)
        assert not (cfg.e.flags.writeable or cfg.W.flags.writeable)

    def test_linear_net_copies_and_takes_lists(self):
        e, W = np.array([0.5, 0.5]), np.eye(2)
        net = LinearNet(((e, W),), 2)
        listed = LinearNet((([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]]),), 2)
        profile = NoiseProfile.isotropic(1, modulation_var=1.0, weight_var=0.1)
        before = propagate(net, profile).final
        e[:], W[:] = 9.0, 9.0
        np.testing.assert_array_equal(propagate(net, profile).final, before)
        np.testing.assert_array_equal(propagate(listed, profile).final, before)
        with pytest.raises(ValidationError, match="layer 1 weights must be numbers"):
            LinearNet((([1.0], "x"),), 1)


class TestPropagatorCopyCount:
    """The propagators and ``step_map_b`` share one copy-count rule."""

    RUNS = {
        "propagate_b": lambda lin, p, m: propagate_b(lin, p, m).final,
        "propagate_b_branchwise": lambda lin, p, m: propagate_b_branchwise(lin, p, m).output,
        "step_map_b": lambda lin, p, m: step_map_b(
            *lin.pairs[0], [[1.0]], [[0.1]], [[0.0]], [[0.0]], [[0.0]], m
        ),
    }

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_fractional_m_refused(self, name):
        run = self.RUNS[name]
        cfg = scalar_cfg(0.5, 0.5, sm=0.1, sw=0.1)
        lin, profile = cfg.to_linear_net(2), cfg.to_profile(2)
        np.testing.assert_array_equal(run(lin, profile, 2.0), run(lin, profile, 2))
        for m in (2.5, 1.5, True, "x"):
            with pytest.raises(ValidationError, match="copy count m must be an integer"):
                run(lin, profile, m)
        with pytest.raises(ValidationError, match="copy count m must be >= 1"):
            run(lin, profile, 0)


class TestNonFiniteRejected:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("where", ["e", "W"])
    def test_symmetric_config(self, where, bad):
        e, W = np.array([0.5, 0.5]), 0.1 * np.eye(2)
        (e if where == "e" else W)[-1, ...] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            SymmetricConfig(e, W, CovSpec.zero(), CovSpec.isotropic(0.1), CovSpec.zero())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("where", [0, 1])
    def test_linear_net_names_layer(self, where, bad):
        good = (np.ones(2), np.eye(2))
        broken = [np.ones(2), np.eye(2)]
        broken[where][-1, ...] = bad
        with pytest.raises(ValidationError, match="layer 2: .*non-finite") as exc:
            LinearNet((good, tuple(broken), good), 2)
        assert exc.value.layer == 2


class TestSymmetricConfigChecks:
    """``e`` and ``W`` are checked as the one-layer ``LinearNet(((e, W),), len(e))``."""

    def test_matrix_coefficients_are_refused(self):
        with pytest.raises(ValidationError, match="activation coefficients must be a 1-D array"):
            SymmetricConfig(np.diag([0.5, 1.5]), np.eye(2), CovSpec.zero(), CovSpec.zero(),
                            CovSpec.zero())

    @pytest.mark.parametrize("W", [np.ones((2, 3)), np.eye(3)], ids=["not-square", "wrong-width"])
    def test_w_must_be_square_on_e(self, W):
        with pytest.raises(ValidationError, match=r"layer 1: weights \(\d, \d\) do not chain"):
            SymmetricConfig([0.5, 1.5], W, CovSpec.zero(), CovSpec.zero(), CovSpec.zero())

    def test_covariances_are_named(self):
        with pytest.raises(ValidationError, match="sigma_w has dimension 3, expected 2"):
            SymmetricConfig([0.5, 1.5], np.eye(2), CovSpec.zero(), CovSpec.diagonal(np.ones(3)),
                            CovSpec.zero())


class TestStepMap:
    def test_identity_fixed_point(self):
        zero = np.zeros((2, 2))
        out = step_map_b(np.ones(2), np.eye(2), np.eye(2), zero, zero, 0.0, 0.0, 1)
        np.testing.assert_array_equal(out, np.eye(2))

    def test_zero_weights_forget_input(self):
        sigma = np.array([[5.0, 1.0], [1.0, 7.0]])
        zero = np.zeros((2, 2))
        out = step_map_b(np.ones(2), zero, sigma, zero, 0.3 * np.eye(2), 0.0, 0.0, 1)
        np.testing.assert_array_equal(out, 0.3 * np.eye(2))

    def test_scalar_arithmetic(self):
        # 0.25 * 4 * 1 + 0.25 * 0.04 + 0.09 = 1.1
        out = step_map_b([0.5], [[2.0]], [[1.0]], [[0.04]], [[0.09]], 0.0, 0.0, 1)
        assert out[0, 0] == pytest.approx(1.1, rel=1e-15)

    def test_rejects_nondiagonal_matrix(self):
        with pytest.raises(ValidationError):
            step_map_b(np.ones((2, 2)), np.eye(2), np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)),
                       0.0, 0.0, 1)

    def test_output_symmetric(self, rng):
        for _ in range(50):
            d = int(rng.integers(1, 5))
            e = rng.normal(size=d)
            W = rng.normal(size=(d, d + 1))
            S = rng.normal(size=(d + 1, d + 1))
            S = S @ S.T
            out = step_map_b(e, W, S, np.eye(d), np.eye(d), 0.0, 0.0, 1)
            np.testing.assert_array_equal(out, out.T)


class TestStepMapB:
    def test_m1_reduces_bit_exactly(self, rng):
        for _ in range(20):
            d = int(rng.integers(1, 5))
            e = rng.normal(size=d)
            W = rng.normal(size=(d, d))
            S = rng.normal(size=(d, d))
            S = S @ S.T
            Sw = np.diag(rng.uniform(0.0, 1.0, size=d))
            Sa = np.diag(rng.uniform(0.0, 1.0, size=d))
            zero = np.zeros((d, d))
            a = step_map_b(e, W, S, Sw, Sa, 0.0, 0.0, 1)
            b = step_map_b(e, W, S, Sw, Sa, zero, zero, 1)
            np.testing.assert_array_equal(a, b)

    def test_scalar_arithmetic(self):
        # (1*1*1 + 1)/4 + 0 = 0.5
        out = step_map_b([1.0], [[1.0]], [[1.0]], [[1.0]], [[0.0]], [[0.0]], [[0.0]], 4)
        assert out[0, 0] == pytest.approx(0.5, rel=1e-15)

    def test_large_m_leaves_only_activation_noise(self):
        sa = np.array([[0.7]])
        out = step_map_b([1.0], [[1.0]], [[1.0]], [[1.0]], sa, [[0.0]], [[0.0]], 10**6)
        assert abs(out[0, 0] - 0.7) < 1e-5

    def test_combine_and_split_terms(self):
        # m=2: base/2 + sum/4 + spl + act
        out = step_map_b(
            [1.0], [[1.0]], [[1.0]], [[1.0]], [[0.1]], [[0.4]], [[0.2]], 2
        )
        assert out[0, 0] == pytest.approx((1 + 1) / 2 + 0.4 / 4 + 0.2 + 0.1, rel=1e-12)

    def test_rejects_m_below_one(self):
        with pytest.raises(ValidationError):
            step_map_b([1.0], [[1.0]], [[1.0]], [[0.0]], [[0.0]], [[0.0]], [[0.0]], 0)

    def test_text_is_refused_by_name(self):
        with pytest.raises(ValidationError, match="W must be numbers"):
            step_map_b([1.0], "x", [[1.0]], [[1.0]], [[0.0]], 0.0, 0.0, 1)
        with pytest.raises(ValidationError, match="sigma_spl must be numbers"):
            step_map_b([1.0], [[1.0]], [[1.0]], [[1.0]], [[0.0]], 0.0, "x", 1)

    @pytest.mark.parametrize("args, message", [
        (([1.0, 2.0], np.eye(2), np.eye(2), np.eye(3), np.zeros((2, 2)), 0.0, 0.0, 1),
         "weight covariance of layer 1 has dimension 3, expected 2"),
        (([1.0, 2.0], np.eye(2), np.eye(2), np.eye(2), [[0.0]], 0.0, 0.0, 1),
         "activation covariance of layer 1 has dimension 1, expected 2"),
        (([1.0, 2.0], np.eye(2), np.eye(2), np.eye(2), np.zeros((2, 2)), 0.5, 0.0, 1),
         r"sigma_sum must be a 2-D array, got shape \(\)"),
        (([1.0, 2.0], np.eye(2), np.eye(3), np.eye(2), np.zeros((2, 2)), 0.0, 0.0, 1),
         "modulation covariance has dimension 3, expected 2"),
        (([1.0, 2.0], [[1.0, np.nan], [0.0, 1.0]], np.eye(2), np.eye(2), np.zeros((2, 2)), 0.0,
          0.0, 1), "layer 1: coefficients/weights contain non-finite values"),
        (([1.0, 2.0], np.eye(2), np.eye(2), np.diag([1.0, -1.0]), np.zeros((2, 2)), 0.0, 0.0, 1),
         "sigma_w is not PSD"),
        (([1.0, 2.0], np.eye(2), np.eye(2), [[1.0, 0.1], [0.0, 1.0]], np.zeros((2, 2)), 0.0, 0.0,
          1), r"sigma_w is not symmetric \(tol 1e-12\)"),
        (([1.0, 2.0], np.eye(2), np.eye(2), np.eye(2), np.zeros((2, 2)), 0.0, 0.3, 1),
         "sigma_spl must be a 2-D array"),
    ], ids=["sigma_w-too-wide", "sigma_a-too-narrow", "scalar-sigma_sum", "sigma_prev-too-wide",
            "nan-in-W", "indefinite-sigma_w", "asymmetric-sigma_w", "scalar-sigma_spl"])
    def test_checks_arguments_as_one_layer_net_and_profile(self, args, message):
        with pytest.raises(ValidationError, match=message):
            step_map_b(*args)

    def test_diagonal_matrix_of_coefficients_is_refused(self):
        with pytest.raises(ValidationError, match="activation coefficients must be a 1-D array"):
            step_map_b(np.diag([0.5, 1.5]), np.eye(2), np.eye(2), np.zeros((2, 2)),
                       np.zeros((2, 2)), 0.0, 0.0, 1)

    def test_loewner_monotone_in_m(self, rng):
        # larger m always shrinks the output in the PSD order
        for _ in range(100):
            d = int(rng.integers(1, 5))
            e = rng.normal(size=d)
            W = rng.normal(size=(d, d))
            S = rng.normal(size=(d, d))
            S = S @ S.T
            Sw = np.diag(rng.uniform(0.0, 1.0, size=d))
            Sa = np.diag(rng.uniform(0.0, 1.0, size=d))
            zero = np.zeros((d, d))
            m1, m2 = sorted(rng.integers(1, 10, size=2))
            if m1 == m2:
                m2 += 1
            a = step_map_b(e, W, S, Sw, Sa, zero, zero, int(m1))
            b = step_map_b(e, W, S, Sw, Sa, zero, zero, int(m2))
            assert np.linalg.eigvalsh(a - b).min() >= -1e-10

    def test_psd_preserved(self, rng):
        for _ in range(1000):
            d = int(rng.integers(1, 7))
            e = rng.normal(size=d)
            W = rng.normal(size=(d, d))
            S = rng.normal(size=(d, d))
            S = S @ S.T
            Sw = np.diag(rng.uniform(0.0, 1.0, size=d))
            Sa = np.diag(rng.uniform(0.0, 1.0, size=d))
            zero = np.zeros((d, d))
            m = int(rng.integers(1, 5))
            out = step_map_b(e, W, S, Sw, Sa, zero, zero, m)
            assert np.linalg.eigvalsh(out).min() >= -1e-10


class TestPropagate:
    def test_identity_chain(self):
        cfg = scalar_cfg(1.0, 1.0, sm=1.0)
        traj = propagate(cfg.to_linear_net(1), cfg.to_profile(1))
        assert traj.final[0, 0] == pytest.approx(1.0, rel=1e-15)

    def test_scalar_chain(self):
        cfg = scalar_cfg(0.5, 2.0, sm=1.0, sw=0.04, sa=0.09)
        traj = propagate(cfg.to_linear_net(2), cfg.to_profile(2))
        sigmas = traj.sigmas
        assert sigmas[1][0, 0] == pytest.approx(1.1, rel=1e-12)
        assert sigmas[2][0, 0] == pytest.approx(1.2, rel=1e-12)

    def test_monte_carlo_cross_check(self, rng):
        net = random_linear_net(rng, depth=3, max_dim=5)
        profile = random_profile(rng, net)
        x = rng.normal(size=net.input_dim)
        samples = noisy_forward_samples(net, profile, x, 60_000, RngStream(17))
        stats = stats_from_samples(samples, forward(net, x))
        analytic = propagate(LinearNet.from_network(net), profile).final
        err = np.linalg.norm(stats.covariance - analytic) / np.linalg.norm(analytic)
        assert err <= 0.05

    def test_weight_covariance_width_names_the_layer(self, rng):
        net = random_linear_net(rng, depth=3, max_dim=4)
        profile = random_profile(rng, net)
        width = net.dims()[2] + 1
        bad = dataclasses.replace(
            profile,
            weight=profile.weight[:1] + (CovSpec.diagonal(np.ones(width)),) + profile.weight[2:],
        )
        with pytest.raises(ValidationError, match="weight covariance of layer 2 has dimension"):
            propagate(LinearNet.from_network(net), bad)

    def test_trajectory_json(self):
        cfg = scalar_cfg(0.5, 2.0, sm=1.0)
        traj = propagate(cfg.to_linear_net(2), cfg.to_profile(2))
        obj = trajectory_to_json(traj)
        assert [entry["index"] for entry in obj["layers"]] == [0, 1, 2]

    def test_contraction_of_successive_steps(self, rng):
        # ||S(l+1) - S(l)||_F <= (||D||_F ||W||_F)^2 ||S(l) - S(l-1)||_F
        for _ in range(20):
            cfg = random_symmetric_cfg(rng, max_dim=4, contracting=True)
            traj = propagate(cfg.to_linear_net(6), cfg.to_profile(6))
            sig = traj.sigmas
            factor = cfg.frobenius_product() ** 2
            for l in range(2, 7):
                lhs = np.linalg.norm(sig[l] - sig[l - 1])
                rhs = factor * np.linalg.norm(sig[l - 1] - sig[l - 2]) + 1e-12
                assert lhs <= rhs


class TestPropagateB:
    def test_m1_equals_propagate(self, rng):
        net = random_linear_net(rng, depth=3)
        profile = random_profile(rng, net)
        a = propagate(LinearNet.from_network(net), profile).final
        b = propagate_b(LinearNet.from_network(net), profile, 1).final
        np.testing.assert_array_equal(a, b)

    def test_scalar_two_layer(self):
        cfg = scalar_cfg(1.0, 1.0, sm=1.0, sw=0.0, sa=1.0, m=2)
        traj = propagate_b(cfg.to_linear_net(2), cfg.to_profile(2), 2)
        sigmas = traj.sigmas
        assert sigmas[1][0, 0] == pytest.approx(1.5, rel=1e-12)
        assert sigmas[2][0, 0] == pytest.approx(1.75, rel=1e-12)

    def test_branchwise_matches_simulation(self, rng):
        # the faithful simulator's oracle is the branch-resolved recursion
        from optonoise import DesignBSpec, design_b_samples

        net = random_linear_net(rng, depth=3, max_dim=4)
        profile = random_profile(rng, net)
        x = rng.normal(size=net.input_dim)
        m = 3
        samples = design_b_samples(DesignBSpec(net, m), x, profile, 60_000, RngStream(23))
        stats = stats_from_samples(samples, forward(net, x))
        branch = propagate_b_branchwise(LinearNet.from_network(net), profile, m)
        err = np.linalg.norm(stats.covariance - branch.output) / np.linalg.norm(branch.output)
        assert err <= 0.05

    def test_branchwise_m1_equals_propagate(self, rng):
        net = random_linear_net(rng, depth=2)
        profile = random_profile(rng, net)
        linnet = LinearNet.from_network(net)
        branch = propagate_b_branchwise(linnet, profile, 1)
        np.testing.assert_allclose(branch.output, propagate(linnet, profile).final, atol=1e-12)

    def test_recursion_underestimates_shared_noise(self):
        # documented discrepancy: for depth 2 and m = 2 with unit weight
        # noise the simulation's output variance is 1 (= baseline / m) while
        # the per-branch recursion with terminal correction gives 0.75
        cfg = scalar_cfg(1.0, 1.0, sw=1.0, m=2)
        linnet = cfg.to_linear_net(2)
        profile = cfg.to_profile(2)
        rec = propagate_b(linnet, profile, 2).final
        assert rec[0, 0] == pytest.approx(0.75, rel=1e-12)
        branch = propagate_b_branchwise(linnet, profile, 2)
        assert branch.output[0, 0] == pytest.approx(1.0, rel=1e-12)


def engine_case(seed, depth):
    """A random linear net, its profile, and the same profile with combine/split on."""
    rng = np.random.default_rng(seed)
    net = random_linear_net(rng, depth=depth, max_dim=4)
    plain = random_profile(rng, net)
    with_cs = dataclasses.replace(
        plain,
        combine=CovSpec.isotropic(float(rng.uniform(0.01, 0.1))),
        split=CovSpec.isotropic(float(rng.uniform(0.01, 0.1))),
    )
    return net, LinearNet.from_network(net), plain, with_cs


class TestEngineModes:
    """The engine on the plain wiring, on fan-in m with fan-out 1
    (``propagate_b``) and on fan-in and fan-out m (branch-resolved)."""

    @settings(derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), depth=st.integers(1, 4))
    def test_propagate_ignores_combine_and_split(self, seed, depth):
        _, linnet, plain, with_cs = engine_case(seed, depth)
        a, b = propagate(linnet, with_cs), propagate(linnet, plain)
        assert len(a.sigmas) == depth + 1
        for x, y in zip(a.sigmas, b.sigmas, strict=True):
            np.testing.assert_array_equal(x, y)

    @settings(derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), depth=st.integers(1, 4))
    def test_folded_m1_is_propagate(self, seed, depth):
        _, linnet, plain, _ = engine_case(seed, depth)
        folded, ref = propagate_b(linnet, plain, 1), propagate(linnet, plain)
        for x, y in zip(folded.sigmas, ref.sigmas, strict=True):
            np.testing.assert_array_equal(x, y)

    @settings(derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), depth=st.integers(1, 4))
    def test_branchwise_m1_is_propagate(self, seed, depth):
        _, linnet, plain, _ = engine_case(seed, depth)
        branch = propagate_b_branchwise(linnet, plain, 1)
        np.testing.assert_allclose(branch.output, propagate(linnet, plain).final, rtol=0, atol=1e-12)

    @settings(derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), depth=st.integers(1, 4))
    def test_branchwise_m1_parts(self, seed, depth):
        # at m = 1 a branch is one copy: S + P is propagate_b's covariance,
        # and P is what each copy adds after the weighted addition
        _, linnet, _, with_cs = engine_case(seed, depth)
        branch = propagate_b_branchwise(linnet, with_cs, 1)
        folded = propagate_b(linnet, with_cs, 1)
        for shared, per, sigma in zip(branch.shared, branch.per_branch, folded.sigmas, strict=True):
            np.testing.assert_array_equal(shared + per, sigma)
        dims = linnet.dims()
        np.testing.assert_array_equal(branch.shared[0], np.zeros((dims[0], dims[0])))
        for l, (e, _) in enumerate(linnet.pairs, start=1):
            split = with_cs.split.matrix(dims[l])
            want = (e[:, None] * split) * e[None, :] + with_cs.activation[l - 1].matrix(dims[l])
            np.testing.assert_allclose(branch.per_branch[l], want, rtol=1e-15, atol=0)

    @settings(derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 4))
    def test_depth1_corrected_fold_is_branchwise(self, seed, m):
        net, linnet, _, with_cs = engine_case(seed, 1)
        corrected = terminal_average_correction(
            propagate_b(linnet, with_cs, m).final, with_cs, net, m
        )
        branch = propagate_b_branchwise(linnet, with_cs, m)
        np.testing.assert_allclose(corrected, branch.output, rtol=0, atol=1e-12)


class TestKernelLaw:
    """On an all-linear net the sampler kernel draws the whole output noise
    from one site, the top merged site ``(6, L)``, and the law it builds
    there is exact: ``F F^T`` is the engine's output covariance on the same
    wiring, ``S_L + P_L / fan_out[-1]``, to rounding.  Random diag-linear
    nets, every source a full covariance, combine and split noise on; the
    laws are recorded from ``noise._law`` during a one-trial call."""

    WIRINGS = {
        "plain": ((1, 1, 1), (1, 1, 1), False),
        "tree": ((2, 3, 2), (1, 1, 1), False),
        "design-b": ((3, 3, 3), (3, 3, 3), True),
        "mixed-3": ((2, 4, 4), (2, 4, 2), True),
        "mixed-4": ((2, 4, 4, 2), (2, 4, 2, 2), True),
    }

    @classmethod
    def run(cls, wiring, net, profile, x, rng):
        """One trial of the public sampler of ``wiring``; the kernel on the
        mixed wirings, which no sampler builds."""
        fan_in, fan_out, combine_split = cls.WIRINGS[wiring]
        if wiring == "plain":
            return noisy_forward_samples(net, profile, x, 1, rng)
        if wiring == "tree":
            return design_a_samples(DesignASpec(net, (*fan_in, 1)), x, profile, 1, rng)
        if wiring == "design-b":
            return design_b_samples(DesignBSpec(net, fan_in[0]), x, profile, 1, rng)
        return noise._sample(net, profile, x, 1, rng, fan_in, fan_out, combine_split)

    @staticmethod
    def case(seed, depth):
        """A diag-linear net whose layers share one width, so one full
        combine and one full split covariance fit every layer, and a profile
        with every source a full covariance."""
        rng = np.random.default_rng(seed)
        d_in, d = (int(k) for k in rng.integers(1, 5, size=2))
        layers = tuple(
            Layer(rng.normal(size=(d, d_prev)) * 0.8 / np.sqrt(d_prev), rng.normal(size=d) * 0.3,
                  Activation.diag_linear(rng.uniform(0.3, 1.1, size=d)))
            for d_prev in (d_in,) + (d,) * (depth - 1))

        def full():
            return random_covspec(rng, d, kind="full")

        profile = NoiseProfile(random_covspec(rng, d_in, kind="full"),
                               tuple(full() for _ in range(depth)),
                               tuple(full() for _ in range(depth)), full(), full())
        return Network(layers, d_in), profile, rng.normal(size=d_in)

    @settings(derandomize=True, deadline=None, max_examples=10)
    @given(seed=st.integers(0, 2**32 - 1))
    @pytest.mark.parametrize("wiring", sorted(WIRINGS))
    def test_top_law_is_the_engine_output(self, wiring, seed):
        fan_in, fan_out, combine_split = self.WIRINGS[wiring]
        net, profile, x = self.case(seed, len(fan_in))
        laws = []
        real = noise._law

        def recording(*args, **kwargs):
            laws.append(real(*args, **kwargs))
            return laws[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(noise, "_law", recording)
            self.run(wiring, net, profile, x, RngStream(seed))
        # the modulation law, then one merged law per layer
        assert len(laws) == net.depth + 1
        F = noise._factor(laws[-1], net.dims()[-1])
        S, P = list(_run(LinearNet.from_network(net), profile, fan_in, fan_out, combine_split))[-1]
        cov = S + P / fan_out[-1]
        assert np.linalg.norm(F @ F.T - cov) <= 1e-12 * np.linalg.norm(cov)


class TestClosedForms:
    def test_single_term_expansion(self, rng):
        cfg = random_symmetric_cfg(rng)
        sigma_m, sigma_w, sigma_a = noise_matrices(cfg)
        A, e = cfg.A, cfg.e
        expected = A @ sigma_m @ A.T + (e[:, None] * sigma_w) * e[None, :] + sigma_a
        np.testing.assert_allclose(symmetric_closed_form(cfg, 1), expected, atol=1e-12)

    def test_zero_noise_gives_zero(self, rng):
        cfg = SymmetricConfig(
            rng.uniform(0.3, 1.0, size=3),
            rng.normal(size=(3, 3)) * 0.4,
            CovSpec.zero(),
            CovSpec.zero(),
            CovSpec.zero(),
        )
        for L in (1, 3, 7):
            np.testing.assert_array_equal(symmetric_closed_form(cfg, L), np.zeros((3, 3)))

    def test_matches_propagate(self, rng):
        for _ in range(60):
            cfg = random_symmetric_cfg(rng)
            L = int(rng.integers(1, 11))
            closed = symmetric_closed_form(cfg, L)
            recursed = propagate(cfg.to_linear_net(L), cfg.to_profile(L)).final
            np.testing.assert_allclose(closed, recursed, atol=1e-10)

    def test_b_variant_m1_degenerates(self, rng):
        cfg = random_symmetric_cfg(rng)
        for L in (1, 4):
            np.testing.assert_allclose(
                symmetric_closed_form_b(cfg, L), symmetric_closed_form(cfg, L), atol=1e-12
            )

    def test_b_variant_scalar(self):
        cfg = scalar_cfg(1.0, 1.0, sm=1.0, sw=0.0, sa=1.0, m=2)
        assert symmetric_closed_form_b(cfg, 2)[0, 0] == pytest.approx(1.75, rel=1e-12)

    def test_b_variant_single_layer_expansion(self, rng):
        cfg = random_symmetric_cfg(rng, m=3)
        sigma_m, sigma_w, sigma_a = noise_matrices(cfg)
        A, e, m = cfg.A, cfg.e, cfg.m
        expected = (A @ sigma_m @ A.T + (e[:, None] * sigma_w) * e[None, :]) / m + sigma_a
        np.testing.assert_allclose(symmetric_closed_form_b(cfg, 1), expected, atol=1e-12)

    def test_b_variant_matches_propagate_b(self, rng):
        for _ in range(60):
            m = int(rng.integers(1, 5))
            cfg = random_symmetric_cfg(rng, m=m)
            L = int(rng.integers(1, 11))
            closed = symmetric_closed_form_b(cfg, L)
            recursed = propagate_b(cfg.to_linear_net(L), cfg.to_profile(L), m).final
            np.testing.assert_allclose(closed, recursed, atol=1e-10)


class TestLimitSeries:
    def test_scalar_geometric(self):
        # (0.25 * 0.04 + 0.09) / (1 - 0.25) = 0.1333...
        cfg = scalar_cfg(0.5, 1.0, sw=0.04, sa=0.09)
        result = limit_series(cfg)
        assert result.sigma[0, 0] == pytest.approx(0.13333333333333333, abs=1e-10)

    def test_zero_transport_single_term(self):
        cfg = scalar_cfg(1.0, 0.0, sw=0.04, sa=0.09)
        result = limit_series(cfg)
        assert result.terms == 1
        assert result.sigma[0, 0] == pytest.approx(0.13, rel=1e-15)

    def test_matches_deep_recursion(self, rng):
        cfg = random_symmetric_cfg(rng, max_dim=3, contracting=True)
        deep = propagate(cfg.to_linear_net(200), cfg.to_profile(200)).final
        series = limit_series(cfg, tol=1e-10).sigma
        assert np.linalg.norm(series - deep) <= 1e-8

    def test_precondition_enforced(self):
        cfg = scalar_cfg(1.0, 1.5, sw=0.1)
        with pytest.raises(ContractionError):
            limit_series(cfg)

    def test_spectral_override(self):
        # Frobenius product 2 * 0.9 > 1 but the operator ratio is 0.81
        cfg = SymmetricConfig(
            np.ones(2), 0.9 * np.eye(2), CovSpec.zero(), CovSpec.zero(), CovSpec.isotropic(0.1)
        )
        with pytest.raises(ContractionError):
            limit_series(cfg)
        result = limit_series(cfg, allow_spectral=True)
        # geometric series: 0.1 / (1 - 0.81)
        assert result.sigma[0, 0] == pytest.approx(0.1 / 0.19, rel=1e-8)


class TestLimitSeriesB:
    def test_m1_equals_plain_series(self, rng):
        cfg = random_symmetric_cfg(rng, contracting=True)
        a = limit_series(cfg).sigma
        b = limit_series_b(cfg).sigma
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_scalar_geometric(self):
        # sum over n of 2^-(n+1) * 2 = 2
        cfg = scalar_cfg(1.0, 1.0, sa=1.0, m=2)
        assert limit_series_b(cfg).sigma[0, 0] == pytest.approx(2.0, abs=1e-9)

    def test_matches_deep_recursion(self, rng):
        m = 3
        cfg = random_symmetric_cfg(rng, max_dim=3, contracting=True, m=m)
        deep = propagate_b(cfg.to_linear_net(400), cfg.to_profile(400), m).final
        series = limit_series_b(cfg, tol=1e-10).sigma
        assert np.linalg.norm(series - deep) <= 1e-8

    def test_precondition_uses_sqrt_m(self):
        cfg = scalar_cfg(1.0, 1.8, sw=0.1, m=4)  # 1.8 < 2 = sqrt(4)
        limit_series_b(cfg)
        with pytest.raises(ContractionError):
            limit_series_b(cfg.with_m(3))  # 1.8 >= sqrt(3)


class TestSolverLimits:
    """The refusals of the layer-independent solvers at their caps."""

    def test_series_term_cap_is_a_convergence_error(self, monkeypatch):
        from optonoise import covariance

        monkeypatch.setattr(covariance, "_SERIES_MAX_TERMS", 3)
        with pytest.raises(ConvergenceError, match="series did not meet the tail threshold") as exc:
            limit_series_b(scalar_cfg(1.0, 1.0, sa=1.0, m=2))
        assert exc.value.last[0, 0] == pytest.approx(1.75, rel=1e-15)  # 1 + 1/2 + 1/4
        assert exc.value.residual == pytest.approx(0.125, rel=1e-15)

    def test_iterate_cap_is_a_convergence_error(self, monkeypatch):
        from optonoise import covariance

        monkeypatch.setattr(covariance, "_FP_MAX_ITER", 3)
        with pytest.raises(ConvergenceError, match="did not converge within 3 steps") as exc:
            fixed_point_solve(scalar_cfg(1.0, 1.0, sm=1.0, sa=1.0, m=2), "iterate")
        # s <- s/2 + 1 from s = 1: 1.5, 1.75, 1.875
        assert exc.value.last[0, 0] == pytest.approx(1.875, rel=1e-15)
        assert exc.value.residual == pytest.approx(0.125, rel=1e-15)

    def test_unknown_fixed_point_method_is_refused(self):
        with pytest.raises(ValidationError, match="unknown fixed-point method 'newton'"):
            fixed_point_solve(scalar_cfg(0.5, 1.0, sw=0.04, sa=0.09), "newton")


class TestFixedPoint:
    def test_scalar_matches_series(self):
        cfg = scalar_cfg(0.5, 1.0, sm=1.0, sw=0.04, sa=0.09)
        for method in ("iterate", "vectorized"):
            result = fixed_point_solve(cfg, method)
            assert result.sigma[0, 0] == pytest.approx(0.13333333333333333, abs=1e-9)
            assert result.residual <= 1e-8

    def test_zero_transport_lands_immediately(self):
        cfg = scalar_cfg(1.0, 0.0, sm=1.0, sw=0.04, sa=0.09)
        result = fixed_point_solve(cfg, "iterate")
        assert result.sigma[0, 0] == pytest.approx(0.13, rel=1e-15)
        assert result.iterations <= 2

    def test_methods_agree(self, rng):
        for _ in range(20):
            m = int(rng.integers(1, 4))
            cfg = random_symmetric_cfg(rng, max_dim=4, contracting=True, m=m)
            a = fixed_point_solve(cfg, "iterate")
            b = fixed_point_solve(cfg, "vectorized")
            assert np.linalg.norm(a.sigma - b.sigma) <= 1e-8
            assert a.residual <= 1e-8 and b.residual <= 1e-8

    def test_vectorized_beyond_old_cap(self):
        # d = 65 was past the dimension cap of the former d^2 x d^2 solve
        d = 65
        cfg = SymmetricConfig(
            np.ones(d) * 0.01,
            np.eye(d) * 0.01,
            CovSpec.isotropic(1.0),
            CovSpec.zero(),
            CovSpec.zero(),
        )
        vec = fixed_point_solve(cfg, "vectorized")
        it = fixed_point_solve(cfg, "iterate")
        assert vec.method == "vectorized" and vec.iterations is None
        assert np.linalg.norm(vec.sigma - it.sigma) <= 1e-8
        assert vec.residual <= 1e-8 and it.residual <= 1e-8

    def test_vectorized_solves_d128(self):
        rng = np.random.default_rng(128)
        d = 128
        e = rng.uniform(0.3, 1.0, size=d)
        W = rng.normal(size=(d, d))
        W *= 0.9 * np.sqrt(2) / (np.linalg.norm(e) * np.linalg.norm(W))
        cfg = SymmetricConfig(
            e, W, CovSpec.zero(),
            random_covspec(rng, d, kind="full"), random_covspec(rng, d, kind="diagonal"), m=2,
        )
        vec = fixed_point_solve(cfg, "vectorized")
        series = limit_series_b(cfg, tol=1e-12).sigma
        assert np.linalg.norm(vec.sigma - series) <= 1e-8
        assert vec.residual <= 1e-8

    @settings(derandomize=True, deadline=None)
    @given(
        d=st.integers(1, 12),
        m=st.integers(1, 4),
        kinds=st.tuples(*[st.sampled_from(["zero", "isotropic", "diagonal", "full"])] * 3),
        contraction=st.floats(0.05, 0.95),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_solvers_agree_property(self, d, m, kinds, contraction, seed):
        # d < 10 and d >= 10 take scipy's direct and bilinear Lyapunov paths
        rng = np.random.default_rng(seed)
        e = rng.uniform(0.3, 1.0, size=d)
        W = rng.normal(size=(d, d))
        W *= contraction * np.sqrt(m) / (np.linalg.norm(e) * np.linalg.norm(W))
        cfg = SymmetricConfig(e, W, *(random_covspec(rng, d, kind=k) for k in kinds), m=m)
        vec = fixed_point_solve(cfg, "vectorized")
        it = fixed_point_solve(cfg, "iterate")
        series = limit_series_b(cfg, tol=1e-12).sigma
        assert np.linalg.norm(vec.sigma - it.sigma) <= 1e-8
        assert np.linalg.norm(vec.sigma - series) <= 1e-8
        assert np.linalg.norm(it.sigma - series) <= 1e-8
        assert vec.residual <= 1e-8 and it.residual <= 1e-8

    def test_spectral_override_recorded(self):
        cfg = SymmetricConfig(
            np.ones(2), 0.9 * np.eye(2), CovSpec.zero(), CovSpec.zero(), CovSpec.isotropic(0.1)
        )
        result = fixed_point_solve(cfg, "iterate", allow_spectral=True)
        assert result.criterion == "spectral-override"
        with pytest.raises(ContractionError):
            fixed_point_solve(cfg, "iterate")


class TestMinStableM:
    def test_already_contracting(self):
        cfg = scalar_cfg(1.0, 0.5, sm=1.0)
        assert min_stable_m(cfg, 60) == 1

    def test_scalar_threshold(self):
        # growth factor (DW)^2 = 4: m = 4 holds the norm exactly, m = 3 grows
        cfg = scalar_cfg(1.0, 2.0, sm=1.0)
        assert min_stable_m(cfg, 60, growth_tol=1e-6) == 4

    def test_depth_floor(self):
        with pytest.raises(ValidationError):
            min_stable_m(scalar_cfg(1.0, 0.5, sm=1.0), 10)

    def test_matrix_path_matches_scalar_path(self):
        # a full covariance forces the generic matrix loop; same answer
        d = 3
        base = SymmetricConfig(
            np.ones(d),
            1.5 * np.eye(d),
            CovSpec.isotropic(1.0),
            CovSpec.zero(),
            CovSpec.zero(),
        )
        full = SymmetricConfig(
            np.ones(d),
            1.5 * np.eye(d),
            CovSpec.full(np.eye(d)),
            CovSpec.zero(),
            CovSpec.zero(),
        )
        assert min_stable_m(base, 60, 1e-6) == min_stable_m(full, 60, 1e-6) == 3

    def test_shape_check_runs_once_per_scan(self, monkeypatch):
        from optonoise import covariance

        calls = []
        real = covariance._scalar_scan_params
        monkeypatch.setattr(
            covariance, "_scalar_scan_params", lambda cfg: calls.append(cfg) or real(cfg)
        )
        cfg = scalar_cfg(1.0, 2.0, sm=1.0)  # scans m = 1..4
        assert min_stable_m(cfg, 60, growth_tol=1e-6) == 4
        assert calls == [cfg]


class TestMinStableMPaths:
    """The scalar scan of scaled-identity configs against the matrix scan."""

    # the last two rows: at depth 400 the gain 6.25 overflows the guard at
    # m = 1 only, so overflow counts as unstable and m = 7 (gain 0.89) is
    # the answer; an all-zero trajectory counts as stable at m = 1
    @pytest.mark.parametrize(
        "d, a, w, sm, sw, sa, L, expected",
        [(1, 1.0, 2.0, 1.0, 0.1, 0.2, 60, None), (3, 0.8, 1.5, 0.5, 0.3, 0.05, 60, None),
         (4, 1.2, -1.1, 0.0, 0.2, 0.1, 60, None), (2, 0.5, 3.0, 2.0, 0.5, 0.5, 60, None),
         (2, 1.0, 2.5, 1.0, 0.0, 0.0, 400, 7), (3, 1.5, 2.0, 0.0, 0.0, 0.0, 60, 1)],
        ids=["1-1.0-2.0-1.0-0.1-0.2", "3-0.8-1.5-0.5-0.3-0.05", "4-1.2--1.1-0.0-0.2-0.1",
             "2-0.5-3.0-2.0-0.5-0.5", "overflow-is-unstable", "all-zero-is-stable"],
    )
    def test_scalar_path_matches_matrix_path(self, monkeypatch, d, a, w, sm, sw, sa, L, expected):
        from optonoise import covariance

        def iso(v):
            return CovSpec.isotropic(v) if v else CovSpec.zero()

        cfg = SymmetricConfig(np.full(d, a), w * np.eye(d), iso(sm), iso(sw), iso(sa))
        assert covariance._scalar_scan_params(cfg) is not None
        fast = min_stable_m(cfg, L)
        assert expected is None or fast == expected
        monkeypatch.setattr(covariance, "_scalar_scan_params", lambda cfg: None)
        assert min_stable_m(cfg, L) == fast

    @pytest.mark.parametrize("a, w, sw, message", [
        (1e100, 1e100, 0.0, r"^layer gain a\*w = 1e\+200 is too large: its square overflows$"),
        (1e160, 1e-160, 1.0, r"^weight noise a\^2\*var_w = 1e\+160\^2 \* 1 overflows$"),
    ], ids=["gain", "weight-noise"])
    def test_overflowing_scalar_recursion_refused(self, a, w, sw, message):
        # an infinite coefficient would count every m as unstable and walk to m_cap
        sigma_w = CovSpec.isotropic(sw) if sw else CovSpec.zero()
        cfg = SymmetricConfig([a], [[w]], CovSpec.isotropic(1.0), sigma_w, CovSpec.zero())
        with pytest.raises(ValidationError, match=message):
            min_stable_m(cfg, 60)

    @pytest.mark.parametrize(
        "e, W",
        [([1.0, 0.5], 1.5 * np.eye(2)), ([1.0, 1.0], [[1.5, 0.1], [0.0, 1.5]])],
        ids=["non-constant-e", "w-not-scaled-identity"],
    )
    def test_refused_configs_take_the_matrix_path(self, monkeypatch, e, W):
        from optonoise import covariance

        cfg = SymmetricConfig(e, W, CovSpec.isotropic(1.0), CovSpec.isotropic(0.1), CovSpec.zero())
        assert covariance._scalar_scan_params(cfg) is None
        scanned = []
        real = covariance._layer_map
        monkeypatch.setattr(
            covariance, "_layer_map", lambda cfg, m: scanned.append(m) or real(cfg, m)
        )
        m = min_stable_m(cfg, 60)
        assert scanned == list(range(1, m + 1))


class TestMinStableMCap:
    def test_cap_exhaustion_is_an_error(self):
        from optonoise import ConvergenceError

        cfg = scalar_cfg(1.0, 10.0, sm=1.0)  # needs m = 100 to stabilize
        with pytest.raises(ConvergenceError):
            min_stable_m(cfg, 60, growth_tol=1e-6, m_cap=10)


def full_modulation_cfg():
    """A full covariance forces ``min_stable_m`` onto its matrix path; it scans m = 1..3."""
    d = 3
    return SymmetricConfig(
        np.ones(d), 1.5 * np.eye(d), CovSpec.full(np.eye(d)), CovSpec.zero(), CovSpec.zero()
    )


class TestLayerMap:
    """Every layer-independent solver runs on one precomputed map ``(B, R)``."""

    def test_map_is_step_map_b(self, rng):
        from optonoise.covariance import _layer_map

        for m in (1, 2, 3):
            cfg = random_symmetric_cfg(rng, m=m)
            B, R = _layer_map(cfg, m)
            sigma_m, sigma_w, sigma_a = noise_matrices(cfg)
            want = step_map_b(cfg.e, cfg.W, sigma_m, sigma_w, sigma_a, 0.0, 0.0, m)
            np.testing.assert_allclose(B @ sigma_m @ B.T + R, want, rtol=1e-13, atol=1e-15)

    def test_solvers_never_call_step_map_b(self, rng, monkeypatch):
        from optonoise import covariance

        def refuse(*args, **kwargs):
            raise AssertionError("step_map_b called")

        monkeypatch.setattr(covariance, "step_map_b", refuse)
        cfg = random_symmetric_cfg(rng, max_dim=3, contracting=True)
        for c in (cfg, cfg.with_m(2)):
            symmetric_closed_form(c, 3)
            symmetric_closed_form_b(c, 3)
            limit_series(c)
            limit_series_b(c)
            for method in ("iterate", "vectorized"):
                fixed_point_solve(c, method)
        assert min_stable_m(full_modulation_cfg(), 60, 1e-6) == 3

    def test_one_map_per_solve_and_per_scanned_m(self, rng, monkeypatch):
        from optonoise import covariance

        calls = []
        real = covariance._layer_map
        monkeypatch.setattr(
            covariance, "_layer_map", lambda cfg, m: calls.append(m) or real(cfg, m)
        )
        cfg = random_symmetric_cfg(rng, max_dim=3, contracting=True, m=2)
        for method in ("iterate", "vectorized"):
            calls.clear()
            fixed_point_solve(cfg, method)
            assert calls == [2]
        calls.clear()
        assert min_stable_m(full_modulation_cfg(), 60, 1e-6) == 3
        assert calls == [1, 2, 3]


class TestSolverArguments:
    """The layer-independent solvers refuse malformed depths and tolerances."""

    @pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0], ids=["nan", "inf", "zero", "negative"])
    @pytest.mark.parametrize("solver", [limit_series, limit_series_b])
    def test_series_tol_must_be_finite_and_positive(self, solver, tol):
        cfg = scalar_cfg(0.5, 1.0, sw=0.04, sa=0.09)
        with pytest.raises(ValidationError, match="tol must be"):
            solver(cfg, tol=tol)

    @pytest.mark.parametrize("solver", [symmetric_closed_form, symmetric_closed_form_b])
    def test_closed_form_depth_is_an_integer(self, solver):
        cfg = scalar_cfg(0.5, 1.0, sm=1.0, sw=0.04, sa=0.09, m=2)
        np.testing.assert_array_equal(solver(cfg, 2.0), solver(cfg, 2))
        for L in (2.5, True, "x", np.nan):
            with pytest.raises(ValidationError, match="depth L must be an integer"):
                solver(cfg, L)

    def test_min_stable_m_depth_is_an_integer(self):
        cfg = scalar_cfg(1.0, 2.0, sm=1.0)
        assert min_stable_m(cfg, 60.0, growth_tol=1e-6) == 4
        for L in (60.5, True, "x"):
            with pytest.raises(ValidationError, match="depth L must be an integer"):
                min_stable_m(cfg, L)

    @pytest.mark.parametrize("growth_tol", [np.nan, np.inf, 0.0, -1.0, "x"],
                             ids=["nan", "inf", "zero", "negative", "text"])
    def test_growth_tol_must_be_finite_and_positive(self, growth_tol):
        with pytest.raises(ValidationError, match="growth_tol must be"):
            min_stable_m(scalar_cfg(1.0, 2.0, sm=1.0), 60, growth_tol=growth_tol, m_cap=10)

    def test_m_cap_is_an_integer_at_least_one(self):
        cfg = scalar_cfg(1.0, 2.0, sm=1.0)
        assert min_stable_m(cfg, 60, growth_tol=1e-6, m_cap=4.0) == 4
        for m_cap in (4.5, True, "x"):
            with pytest.raises(ValidationError, match="m_cap must be an integer"):
                min_stable_m(cfg, 60, m_cap=m_cap)
        with pytest.raises(ValidationError, match="m_cap must be >= 1"):
            min_stable_m(cfg, 60, m_cap=0)


class TestOraclesMatchSamplers:
    """Each linear-net oracle against its sampler on random small nets, at
    every layer: the sampler runs on each prefix of the net, with the
    matching prefix of the profile, against the engine's covariance there.

    Tolerances are in Gaussian standard errors (``conftest.gaussian_gaps``);
    examples are derandomized, so every run checks the same nets.
    """

    TRIALS = 20_000
    MAX_SE = 5.0
    NETS = {"depth": st.integers(1, 3), "seed": st.integers(0, 2**32 - 1)}

    def case(self, depth, seed):
        rng = np.random.default_rng(seed)
        net = random_linear_net(rng, depth=depth, max_dim=4)
        return rng, net, random_profile(rng, net), rng.normal(size=net.input_dim)

    def prefixes(self, net, profile):
        """``(l, net, profile)`` cut after each layer ``l = 1..L``."""
        for l in range(1, net.depth + 1):
            cut = dataclasses.replace(profile, weight=profile.weight[:l],
                                      activation=profile.activation[:l])
            yield l, Network(net.layers[:l], net.input_dim), cut

    def assert_matches(self, samples, mean, cov):
        mean_gap, cov_gap = gaussian_gaps(samples, mean, cov)
        assert mean_gap <= self.MAX_SE and cov_gap <= self.MAX_SE, (mean_gap, cov_gap)

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(**NETS)
    def test_plain_propagate(self, depth, seed):
        _, net, profile, x = self.case(depth, seed)
        sigmas = propagate(LinearNet.from_network(net), profile).sigmas
        for l, head, cut in self.prefixes(net, profile):
            samples = noisy_forward_samples(head, cut, x, self.TRIALS, RngStream(seed))
            self.assert_matches(samples, forward(head, x), sigmas[l])

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(copies=st.lists(st.integers(1, 3), min_size=3, max_size=3), **NETS)
    def test_tree(self, copies, depth, seed):
        _, net, profile, x = self.case(depth, seed)
        copies = tuple(copies[:depth])
        per = _copies(_run(LinearNet.from_network(net), profile, copies, (1,) * depth)).sigmas
        for l, head, cut in self.prefixes(net, profile):
            samples = design_a_samples(DesignASpec(head, copies[:l] + (1,)), x, cut, self.TRIALS,
                                       RngStream(seed))
            self.assert_matches(samples, forward(head, x), per[l])

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(m=st.integers(1, 4), **NETS)
    def test_branchwise(self, m, depth, seed):
        rng, net, profile, x = self.case(depth, seed)
        profile = dataclasses.replace(
            profile,
            combine=CovSpec.isotropic(float(rng.uniform(0.005, 0.04))),
            split=CovSpec.isotropic(float(rng.uniform(0.005, 0.04))),
        )
        traj = propagate_b_branchwise(LinearNet.from_network(net), profile, m)
        for l, head, cut in self.prefixes(net, profile):
            samples = design_b_samples(DesignBSpec(head, m), x, cut, self.TRIALS, RngStream(seed))
            self.assert_matches(samples, forward(head, x), traj.shared[l] + traj.per_branch[l] / m)
