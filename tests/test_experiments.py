"""Calibration, identity-layer insertion, sweeps, and the grid scan."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from optonoise import (
    Activation,
    CovSpec,
    DesignASpec,
    DesignBSpec,
    ExperimentConfig,
    Layer,
    LinearNet,
    Network,
    NoiseProfile,
    RngStream,
    ValidationError,
    calibrate_noise,
    design_a_samples,
    design_b_samples,
    forward,
    insert_identity_layers,
    insertion_tuple,
    noisy_forward_samples,
    propagate_b_branchwise,
    run_accuracy_experiment,
    run_depth_sweep,
    run_mse_experiment,
    scan_m_grid,
)
from optonoise import experiments, noise
from optonoise.experiments import normal_interval, plan_insertions, write_csv
from optonoise.noise import profile_to_json
from optonoise.fixtures import fixture_dataset, fixture_network

from conftest import random_linear_net, random_profile


class TestCalibrateNoise:
    def test_zero_fraction_gives_zero_weight_noise(self, rng):
        net = random_linear_net(rng, depth=2)
        inputs = rng.normal(size=(5, net.input_dim))
        profile = calibrate_noise(net, list(inputs), w_fraction=0.0, a_fraction=0.1)
        assert all(spec.is_zero for spec in profile.weight)
        assert not all(spec.is_zero for spec in profile.activation)

    def test_single_input_degenerates_with_warning(self, rng):
        net = random_linear_net(rng, depth=2)
        with pytest.warns(UserWarning):
            profile = calibrate_noise(net, [rng.normal(size=net.input_dim)], 0.1, 0.1)
        assert profile.modulation.is_zero
        assert all(spec.is_zero for spec in profile.weight)
        assert all(spec.is_zero for spec in profile.activation)

    def test_tanh_full_range_diameter(self):
        # saturated tanh exercises [-1, 1]: diameter 2, so a_fraction 0.1
        # calibrates a standard deviation of 0.2, variance 0.04
        net = Network((Layer([[10.0]], [0.0], Activation.tanh()),), 1)
        profile = calibrate_noise(
            net, [np.array([-10.0]), np.array([10.0])], w_fraction=0.0, a_fraction=0.1
        )
        assert profile.activation[0].var == pytest.approx(0.04, rel=1e-9)

    @pytest.mark.parametrize("fractions, name", [
        ((-0.1, 0.1, None), "w_fraction"),
        ((math.nan, 0.1, None), "w_fraction"),
        ((0.1, math.inf, None), "a_fraction"),
        ((0.1, 0.1, -0.5), "m_fraction"),
        ((0.1, 0.1, math.nan), "m_fraction"),
        (("abc", 0.1, None), "w_fraction"),
        ((0.1, [0.1], None), "a_fraction"),
        ((0.1, 0.1, True), "m_fraction"),
    ], ids=["negative-w", "nan-w", "inf-a", "negative-m", "nan-m", "text-w", "list-a", "bool-m"])
    def test_negative_or_non_finite_fraction_refused(self, rng, fractions, name):
        net = random_linear_net(rng, depth=1)
        inputs = [np.zeros(net.input_dim), np.ones(net.input_dim)]
        with pytest.raises(ValidationError, match=f"{name} must be finite and >= 0"):
            calibrate_noise(net, inputs, *fractions)

    def test_explicit_modulation_fraction(self, rng):
        net = random_linear_net(rng, depth=1)
        inputs = [np.zeros(net.input_dim), np.ones(net.input_dim)]
        profile = calibrate_noise(net, inputs, 0.1, 0.1, m_fraction=0.5)
        assert profile.modulation.var == pytest.approx(0.25, rel=1e-9)  # (0.5 * 1)^2

    def test_matrix_and_list_of_vectors_calibrate_alike(self, rng):
        net = random_linear_net(rng, depth=3)
        inputs = rng.normal(size=(7, net.input_dim))
        by_rows = profile_to_json(calibrate_noise(net, list(inputs), 0.1, 0.2))
        assert profile_to_json(calibrate_noise(net, inputs, 0.1, 0.2)) == by_rows

    @pytest.mark.parametrize("inputs", [[], np.zeros((0, 2))], ids=["empty-list", "no-rows"])
    def test_empty_calibration_set_refused(self, inputs):
        net = Network((Layer(np.eye(2), np.zeros(2)),), 2)
        with pytest.raises(ValidationError, match="calibration needs at least one input"):
            calibrate_noise(net, inputs, 0.1, 0.1)


class TestInsertionTuple:
    def test_reference_pattern(self):
        expected = {
            1: (1, 0, 0, 0),
            2: (1, 1, 0, 0),
            3: (1, 1, 1, 0),
            4: (1, 1, 1, 1),
            5: (2, 1, 1, 1),
            6: (2, 2, 1, 1),
        }
        for n, tup in expected.items():
            assert insertion_tuple(n) == tup

    def test_structure_up_to_twenty(self):
        for n in range(21):
            tup = insertion_tuple(n)
            assert sum(tup) == n
            assert all(a >= b for a, b in zip(tup, tup[1:]))
            assert tup[0] - tup[3] <= 1

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            insertion_tuple(-1)


def deep_random_net(rng, depth=8):
    dims = [int(rng.integers(2, 5)) for _ in range(depth + 1)]
    layers = tuple(
        Layer(
            rng.normal(size=(dims[l + 1], dims[l])) * 0.5,
            rng.normal(size=dims[l + 1]) * 0.2,
            Activation.tanh() if l % 2 else Activation.relu(),
        )
        for l in range(depth)
    )
    return Network(layers, dims[0])


class TestInsertIdentityLayers:
    def test_forward_preserved_bit_exactly(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            net = deep_random_net(rng)
            x = rng.normal(size=net.input_dim)
            base = forward(net, x)
            n = int(rng.integers(0, 9))
            deeper = insert_identity_layers(net, n)
            assert deeper.depth == net.depth + n
            np.testing.assert_array_equal(forward(deeper, x), base)

    def test_shallow_net_needs_explicit_slots(self, rng):
        net = random_linear_net(rng, depth=2)
        with pytest.raises(ValidationError):
            insert_identity_layers(net, 2)
        deeper = insert_identity_layers(net, 2, slots=(1, 1, 1, 1))
        assert deeper.depth == net.depth + 2

    def test_layer_count_follows_the_integer_rule(self, rng):
        net = random_linear_net(rng, depth=2)
        for n in (2.0, "2"):
            assert insert_identity_layers(net, n, slots=(1, 1, 1, 1)).depth == net.depth + 2
        for n in (2.5, True):
            with pytest.raises(ValidationError, match="layer count must be an integer"):
                insert_identity_layers(net, n, slots=(1, 1, 1, 1))

    def test_slot_out_of_range(self, rng):
        net = random_linear_net(rng, depth=3)
        with pytest.raises(ValidationError):
            insert_identity_layers(net, 1, slots=(1, 2, 3, 3))  # 3 = depth not allowed

    def test_fractional_slot_refused(self, rng):
        net = random_linear_net(rng, depth=3)
        assert plan_insertions(net, 2, slots=(1.0, 2, 2, 1)).slots == (1, 2, 2, 1)
        with pytest.raises(ValidationError, match="insertion slot must be an integer"):
            plan_insertions(net, 2, slots=(1, 2, 2, 1.5))

    def test_plan_reports_counts_and_slots(self):
        rng = np.random.default_rng(0)
        net = deep_random_net(rng)
        plan = plan_insertions(net, 6)
        assert plan.counts == (2, 2, 1, 1)
        assert plan.slots == (1, 3, 5, 7)


def small_config(rng, design="b", trials=400, n_inputs=6, depth=2):
    net = random_linear_net(rng, depth=depth, max_dim=4)
    profile = random_profile(rng, net, scale=0.04)
    inputs = rng.normal(size=(n_inputs, net.input_dim))
    return ExperimentConfig(
        network=net, profile=profile, design=design, inputs=inputs, trials=trials, seed=99
    )


class TestMseExperiment:
    def test_rows_carry_uncertainty_and_seed(self, rng):
        cfg = small_config(rng)
        rows = run_mse_experiment(cfg, [1, 2])
        for row in rows:
            assert {"design", "copies", "mse", "ci_low", "ci_high", "trials", "seed"} <= set(row)
            assert row["ci_low"] <= row["mse"] <= row["ci_high"]
            assert row["trials"] == cfg.trials and row["seed"] == cfg.seed

    def test_copies_one_identical_for_both_designs(self, rng):
        net = random_linear_net(rng, depth=2, max_dim=4)
        profile = random_profile(rng, net)
        inputs = rng.normal(size=(4, net.input_dim))
        rows = {}
        for design in ("a", "b"):
            cfg = ExperimentConfig(network=net, profile=profile, design=design,
                                   inputs=inputs, trials=300, seed=5)
            rows[design] = run_mse_experiment(cfg, [1])[0]
        # one copy consumes exactly the unmodified network's stream sites,
        # so the two designs produce the same draws and the same mse
        assert rows["a"]["mse"] == rows["b"]["mse"]

    def test_single_layer_analytic_anchor(self, rng):
        # depth-1 host: recursion and simulation agree exactly, so the mse
        # must track trace(sigma)/d per grid point
        net = random_linear_net(rng, depth=1, max_dim=4)
        profile = random_profile(rng, net, scale=0.05)
        inputs = rng.normal(size=(3, net.input_dim))
        cfg = ExperimentConfig(network=net, profile=profile, design="b",
                               inputs=inputs, trials=4000, seed=11)
        linnet = LinearNet.from_network(net)
        d = net.output_dim
        for row in run_mse_experiment(cfg, [1, 2, 4, 8]):
            sigma = propagate_b_branchwise(linnet, profile, row["copies"]).output
            assert row["mse"] == pytest.approx(np.trace(sigma) / d, rel=0.10)

    def test_deep_net_analytic_anchor_branchwise(self, rng):
        net = random_linear_net(rng, depth=3, max_dim=4)
        profile = random_profile(rng, net, scale=0.05)
        inputs = rng.normal(size=(3, net.input_dim))
        cfg = ExperimentConfig(network=net, profile=profile, design="b",
                               inputs=inputs, trials=4000, seed=12)
        linnet = LinearNet.from_network(net)
        d = net.output_dim
        for row in run_mse_experiment(cfg, [2, 4]):
            sigma = propagate_b_branchwise(linnet, profile, row["copies"]).output
            assert row["mse"] == pytest.approx(np.trace(sigma) / d, rel=0.10)

    def test_config_counts_follow_the_integer_rule(self, rng):
        cfg = small_config(rng, trials=4)
        same = ExperimentConfig(network=cfg.network, profile=cfg.profile, design="b",
                                inputs=cfg.inputs, trials=4.0, seed=99.0)
        assert (same.trials, same.seed) == (4, 99)
        assert run_mse_experiment(same, [2]) == run_mse_experiment(cfg, [2])
        for field, bad in (("trials", 4.5), ("trials", True), ("seed", 1.5), ("seed", False)):
            kwargs = {"trials": 4, "seed": 99, field: bad}
            with pytest.raises(ValidationError, match=f"{field} must be an integer"):
                ExperimentConfig(network=cfg.network, profile=cfg.profile, design="b",
                                 inputs=cfg.inputs, **kwargs)

    def test_labels_outside_the_output_classes_refused(self, rng):
        cfg = small_config(rng, n_inputs=2)
        classes = cfg.network.output_dim
        for labels in ([classes, 0], [0, -1]):
            with pytest.raises(ValidationError, match=f"labels must lie in 0..{classes - 1}"):
                ExperimentConfig(network=cfg.network, profile=cfg.profile, design="b",
                                 inputs=cfg.inputs, trials=4, seed=0, labels=labels)

    def test_labels_follow_the_integer_rule(self, rng):
        cfg = small_config(rng, n_inputs=2)

        def config(labels):
            return ExperimentConfig(network=cfg.network, profile=cfg.profile, design="b",
                                    inputs=cfg.inputs, trials=4, seed=0, labels=labels)

        assert config([0.0, 0]).labels.tolist() == [0, 0]
        assert config(np.array([0, 0], dtype=np.uint8)).labels.dtype == np.int64
        for labels, shown in (([0.5, 0], "0.5"), ([0, np.nan], "nan"), ([True, False], "True"),
                              (["x", "0"], "'x'")):
            with pytest.raises(ValidationError, match=f"labels must be integers, got {shown}"):
                config(labels)

    @pytest.mark.parametrize("field, value, message", [
        ("inputs", np.zeros((2, 7)), "inputs must be an (N, {d}) matrix"),
        ("labels", [0, 0, 0], "labels must have one entry per input"),
        ("confidence", 1.0, "confidence must lie in (0, 1)"),
        ("confidence", 0.0, "confidence must lie in (0, 1)"),
    ], ids=["inputs-width", "labels-length", "confidence-one", "confidence-zero"])
    def test_config_fields_checked(self, rng, field, value, message):
        cfg = small_config(rng, n_inputs=2)
        kwargs = {"inputs": cfg.inputs, "trials": 4, "seed": 0, field: value}
        with pytest.raises(ValidationError,
                           match=re.escape(message.format(d=cfg.network.input_dim)) + "$"):
            ExperimentConfig(network=cfg.network, profile=cfg.profile, design="b", **kwargs)

    def test_empty_input_set_refused(self, rng):
        cfg = small_config(rng)
        with pytest.raises(ValidationError, match="experiments need at least one input"):
            ExperimentConfig(network=cfg.network, profile=cfg.profile, design="b",
                             inputs=np.zeros((0, cfg.network.input_dim)), trials=4, seed=0)

    def test_requires_a_design(self, rng):
        with pytest.raises(ValidationError, match="design must be 'a' or 'b', got 'none'"):
            small_config(rng, design="none")

    def test_fractional_copies_grid_refused(self, rng):
        cfg = small_config(rng, trials=5)
        assert run_mse_experiment(cfg, [2.0]) == run_mse_experiment(cfg, [2])
        with pytest.raises(ValidationError, match="copies grid entry must be an integer"):
            run_mse_experiment(cfg, [1.5])


@pytest.fixture(scope="module")
def fixture_setup():
    net = fixture_network()
    X, labels = fixture_dataset()
    X, labels = X[:200], labels[:200]
    profile = calibrate_noise(net, list(X[:50]), w_fraction=0.09, a_fraction=0.12)
    return net, X, labels, profile


class TestAccuracyExperiment:
    def test_copies_one_relative_accuracy_is_zero(self, fixture_setup):
        net, X, labels, profile = fixture_setup
        for design in ("a", "b"):
            cfg = ExperimentConfig(network=net, profile=profile, design=design,
                                   inputs=X, trials=30, seed=3, labels=labels)
            row = run_accuracy_experiment(cfg, [1])[0]
            assert row["relative"] == 0.0
            assert row["acc_nn"] == 1.0  # labels are the noiseless decisions

    def test_one_copy_designs_draw_the_baseline(self, fixture_setup):
        # the copies=1 row reuses the baseline hits because a one-copy run
        # of either design takes the plain network's draws on its stream
        net, X, labels, profile = fixture_setup
        references = forward(net, X[:8])
        for design in ("a", "b"):
            cfg = ExperimentConfig(network=net, profile=profile, design=design,
                                   inputs=X[:8], trials=30, seed=3, labels=labels[:8])
            per_trial, hits = experiments._grid_point(cfg, net, profile, 1, references)
            plain_per_trial, plain_hits = experiments._grid_point(cfg, net, profile, 1, references,
                                                                  plain=True)
            np.testing.assert_array_equal(per_trial, plain_per_trial)
            assert hits == plain_hits

    def test_one_copy_row_samples_only_when_it_differs(self, fixture_setup, monkeypatch):
        net, X, labels, profile = fixture_setup
        X, labels = X[:10], labels[:10]
        streams = count_kernel_calls(monkeypatch)
        cfg = ExperimentConfig(network=net, profile=profile, design="a",
                               inputs=X, trials=20, seed=5, labels=labels)
        rows = run_accuracy_experiment(cfg, [1, 2])
        # the baseline and one call for copies=2, none for the reused copies=1 row
        assert streams == [RngStream(5).child(1), RngStream(5).child(2)]
        assert rows[0]["acc_design"] == rows[0]["acc_onn"]
        # with combine noise the one-copy combine/split run is its own draw
        noisy = NoiseProfile(profile.modulation, profile.weight, profile.activation,
                             combine=CovSpec.isotropic(0.5))
        cfg = ExperimentConfig(network=net, profile=noisy, design="b",
                               inputs=X, trials=20, seed=5, labels=labels)
        streams.clear()
        row = run_accuracy_experiment(cfg, [1])[0]
        assert streams == [RngStream(5).child(1)] * 2
        samples = design_b_samples(DesignBSpec(net, 1), X, noisy, 20, RngStream(5).child(1))
        assert row["acc_design"] == np.sum(np.argmax(samples, axis=2) == labels[:, None]) / (20 * len(X))

    def test_relative_accuracy_nondecreasing(self, fixture_setup):
        net, X, labels, profile = fixture_setup
        cfg = ExperimentConfig(network=net, profile=profile, design="b",
                               inputs=X, trials=60, seed=4, labels=labels)
        rows = run_accuracy_experiment(cfg, [1, 2, 4, 8])
        for prev, cur in zip(rows, rows[1:]):
            # no significant decrease at the joint confidence of the two points
            slack = (prev["acc_high"] - prev["acc_low"]) + (cur["acc_high"] - cur["acc_low"])
            assert cur["acc_design"] >= prev["acc_design"] - slack

    def test_needs_labels(self, fixture_setup, monkeypatch):
        net, X, _, profile = fixture_setup
        monkeypatch.setattr(experiments, "_sample", None)  # no sampling
        cfg = ExperimentConfig(network=net, profile=profile, design="a",
                               inputs=X[:5], trials=5, seed=0)
        with pytest.raises(ValidationError, match="accuracy experiments need labels"):
            run_accuracy_experiment(cfg, [1])

    def test_zero_noise_marks_relative_undefined(self, fixture_setup):
        net, X, labels, _ = fixture_setup
        cfg = ExperimentConfig(network=net, profile=NoiseProfile.zero(net.depth),
                               design="b", inputs=X[:50], trials=5, seed=0, labels=labels[:50])
        row = run_accuracy_experiment(cfg, [1])[0]
        assert row["relative"] == "undefined"


def count_kernel_calls(monkeypatch):
    """Wrap ``experiments._sample``; returns the list of the streams it is called on."""
    streams = []
    kernel = experiments._sample

    def counted(*args, **kwargs):
        streams.append(args[4])
        return kernel(*args, **kwargs)

    monkeypatch.setattr(experiments, "_sample", counted)
    return streams


class TestGridPoint:
    """A grid point is one kernel call on ``RngStream(seed).child(copies)``
    that scores its tiles as they are drawn."""

    def test_one_kernel_call_per_grid_point(self, fixture_setup, monkeypatch):
        net, X, labels, profile = fixture_setup
        streams = count_kernel_calls(monkeypatch)
        cfg = ExperimentConfig(network=net, profile=profile, design="b", inputs=X[:20],
                               trials=60, seed=2, labels=labels[:20])
        run_mse_experiment(cfg, [1, 2, 4])
        assert streams == [RngStream(2).child(c) for c in (1, 2, 4)]
        streams.clear()
        run_depth_sweep(cfg, [0, 2], [0.01, 0.04], copies=3, slots=(1, 1, 1, 1))
        assert streams == [RngStream(2).child(3)] * 4

    @pytest.mark.parametrize("design", ["plain", "a", "b"])
    @pytest.mark.parametrize("n_inputs, trials", [(3, 7), (80, 60), (3, noise._GROUP_ROWS + 52)],
                             ids=["one-part", "parts-of-two-tiles", "part-inside-an-input"])
    def test_scores_equal_those_of_the_held_samples(self, fixture_setup, design, n_inputs, trials):
        # the same public sampler call on the same stream, held: hits are
        # exact, and the per-trial mse only sums in another order
        net, X, labels, profile = fixture_setup
        X, labels = X[:n_inputs], labels[:n_inputs]
        copies = 1 if design == "plain" else 3
        cfg = ExperimentConfig(network=net, profile=profile, design="b" if design == "b" else "a",
                               inputs=X, trials=trials, seed=11, labels=labels)
        stream = RngStream(11).child(copies)
        if design == "plain":
            samples = noisy_forward_samples(net, profile, X, trials, stream)
        elif design == "a":
            samples = design_a_samples(DesignASpec(net, (3,) * net.depth + (1,)), X, profile,
                                       trials, stream)
        else:
            samples = design_b_samples(DesignBSpec(net, 3), X, profile, trials, stream)
        references = forward(net, X)
        per_trial, hits = experiments._grid_point(cfg, net, profile, copies, references,
                                                  plain=design == "plain")
        want = np.sum((samples - references[:, None]) ** 2, axis=2).mean(axis=0) / net.output_dim
        np.testing.assert_allclose(per_trial, want, rtol=1e-12, atol=0.0)
        assert hits == np.count_nonzero(np.argmax(samples, axis=2) == labels[:, None])
        assert 0 < hits < n_inputs * trials

    @pytest.mark.parametrize("last", [Activation.identity(), Activation.softmax()],
                             ids=["identity", "softmax"])
    def test_non_finite_rows_are_refused(self, last):
        # two saturated tanh units times 1e308 overflow the last weighted
        # addition: the reference is finite, some noisy rows are not, and
        # scoring them would give an mse of inf (identity) or NaN (softmax).
        # At unit modulation variance about a fifth of the rows overflow, so
        # a grid point of 100 rows holds some at any seed
        net = Network((Layer([[1.0], [1.0]], [0.0, 0.0], Activation.tanh()),
                       Layer(np.eye(2) * 1e308, [0.0, 0.0], Activation.identity()),
                       Layer([[0.9, 0.9]], [0.0], last)), 1)
        cfg = ExperimentConfig(network=net, profile=NoiseProfile.isotropic(3, modulation_var=1.0),
                               design="a", inputs=[[2.99], [2.9]], trials=50, seed=3)
        assert np.isfinite(forward(net, cfg.inputs)).all()
        with pytest.raises(ValidationError, match="^samples contain non-finite values$"):
            run_mse_experiment(cfg, [1, 2])

    def test_peak_memory_stays_within_a_few_tiles(self):
        # 500 inputs x 100 trials of a width-64 net would be 25.6 MB of
        # samples; scored as they are drawn, each part holds a few tiles
        n_inputs, trials, width = 500, 100, 64
        rng = np.random.default_rng(9)
        net = Network(tuple(
            Layer(rng.normal(size=(width, width)) / 8, rng.normal(size=width),
                  Activation.diag_linear(rng.uniform(0.5, 1.0, size=width)))
            for _ in range(2)), width)
        X = rng.normal(size=(n_inputs, width))
        references = forward(net, X)
        cfg = ExperimentConfig(network=net, profile=NoiseProfile.isotropic(2, 0.01, 0.02, 0.03),
                               design="a", inputs=X, trials=trials, seed=4,
                               labels=np.argmax(references, axis=1))
        tracemalloc.start()
        try:
            per_trial, hits = experiments._grid_point(cfg, net, cfg.profile, 2, references)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert per_trial.shape == (trials,) and 0 < hits < n_inputs * trials
        tile = noise._GROUP_ROWS * width * 8
        assert peak <= 8 * tile


class TestDepthSweep:
    def test_fractional_layer_count_refused(self, rng):
        cfg = small_config(rng, trials=5)
        with pytest.raises(ValidationError, match="inserted layer count must be an integer"):
            run_depth_sweep(cfg, [0, 1.5], [0.0], copies=1, slots=(1, 1, 1, 1))

    def test_zero_variance_column_is_exact(self, rng):
        cfg = small_config(rng, trials=50)
        rows = run_depth_sweep(cfg, [0, 2], [0.0], copies=1, slots=(1, 1, 1, 1))
        for row in rows:
            assert row["mse"] == 0.0

    def test_zero_insertions_match_base_profile_run(self, rng):
        net = random_linear_net(rng, depth=2, max_dim=3)
        inputs = rng.normal(size=(3, net.input_dim))
        var = 0.03
        cfg = ExperimentConfig(
            network=net, profile=NoiseProfile.isotropic(2, weight_var=var, activation_var=var),
            design="b", inputs=inputs, trials=400, seed=7,
        )
        swept = run_depth_sweep(cfg, [0], [var], copies=1, slots=(1, 1, 1, 1))[0]
        base = run_mse_experiment(cfg, [1])[0]
        # same variance level and stream keying: identical draws
        assert swept["mse"] == base["mse"]

    def test_variance_levels_share_their_normals(self, rng):
        # on a linear net every noise block at 4 * var is the block at var
        # times 2, so with common normals the mse is 4 times as large
        net = random_linear_net(rng, depth=2, max_dim=3)
        cfg = ExperimentConfig(network=net, profile=NoiseProfile.zero(2), design="a",
                               inputs=rng.normal(size=(3, net.input_dim)), trials=50, seed=6)
        low, high = run_depth_sweep(cfg, [0], [0.01, 0.04], copies=2, slots=(1, 1, 1, 1))
        assert high["mse"] == pytest.approx(4 * low["mse"], rel=1e-9)

    @pytest.mark.parametrize("design", ["a", "b"])
    def test_accuracy_columns_match_accuracy_experiment(self, fixture_setup, design):
        # same isotropic profile, seed, inputs and stream keys as the depth
        # sweep's zero-insertion cell, so the accuracy columns must coincide
        net, X, labels, _ = fixture_setup
        var = 0.05
        profile = NoiseProfile.isotropic(net.depth, weight_var=var, activation_var=var)
        cfg = ExperimentConfig(network=net, profile=profile, design=design, inputs=X[:40],
                               trials=25, seed=13, labels=labels[:40])
        for copies in (1, 2):
            swept = run_depth_sweep(cfg, [0], [var], copies=copies, slots=(1, 1, 1, 1))[0]
            row = run_accuracy_experiment(cfg, [copies])[0]
            assert 0.0 < row["acc_design"] < 1.0
            assert (swept["accuracy"], swept["acc_low"], swept["acc_high"]) == (
                row["acc_design"], row["acc_low"], row["acc_high"])

    def test_mse_grows_with_depth(self, rng):
        net = random_linear_net(rng, depth=2, max_dim=3)
        inputs = rng.normal(size=(4, net.input_dim))
        cfg = ExperimentConfig(
            network=net, profile=NoiseProfile.zero(2), design="b",
            inputs=inputs, trials=1500, seed=8,
        )
        rows = run_depth_sweep(cfg, [0, 2, 4, 6], [0.02], copies=1, slots=(1, 1, 1, 1))
        mses = [row["mse"] for row in rows]
        for prev, cur, prev_row, cur_row in zip(mses, mses[1:], rows, rows[1:]):
            slack = (prev_row["ci_high"] - prev_row["ci_low"]) + (cur_row["ci_high"] - cur_row["ci_low"])
            assert cur >= prev - slack


class TestScanMGrid:
    def test_balanced_cell_needs_one_copy(self):
        rows = scan_m_grid(4, [2.0], [2.0], L=60)
        assert rows[0]["min_m"] == 1  # ||D||_F ||W||_F = d means unit transport

    def test_quadrupled_cell(self):
        # norms 4 and 2 on width 4: (4 * 2 / 4)^2 = 4
        rows = scan_m_grid(4, [4.0], [2.0], L=60)
        assert rows[0]["min_m"] == 4

    def test_contour_matches_ceiling_rule(self):
        grid = list(range(1, 13))
        rows = scan_m_grid(4, grid, grid, L=60)
        assert len(rows) == 144
        matches = sum(
            1
            for row in rows
            if row["min_m"] == math.ceil((row["norm_W"] * row["norm_D"] / 4.0) ** 2)
        )
        assert matches == len(rows)


    @pytest.mark.parametrize("grids, name", [(([], [2.0]), "norm_grid_W"),
                                             (([2.0], []), "norm_grid_D"),
                                             (([], []), "norm_grid_W")],
                             ids=["w-empty", "d-empty", "both-empty"])
    def test_empty_grid_refused_by_name(self, grids, name):
        with pytest.raises(ValidationError, match=rf"^{name} must be nonempty$"):
            scan_m_grid(4, *grids, L=60)

    def test_width_and_depth_follow_the_integer_rule(self):
        assert scan_m_grid(4.0, [4.0], [2.0], L=60.0) == scan_m_grid(4, [4.0], [2.0], L=60)
        for d, L in ((4.5, 60), (True, 60), ("x", 60), (4, 60.5), (4, True)):
            with pytest.raises(ValidationError, match="must be an integer"):
                scan_m_grid(d, [4.0], [2.0], L=L)


class TestWriteCsv:
    def test_header_decimals_and_determinism(self, tmp_path):
        rows = [
            {"a": 1, "b": 0.5, "c": "x"},
            {"a": 2, "b": 1.25, "c": "y"},
        ]
        p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
        write_csv(p1, rows)
        write_csv(p2, rows)
        assert p1.read_bytes() == b"a,b,c\r\n1,0.5,x\r\n2,1.25,y\r\n"
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            write_csv(tmp_path / "empty.csv", [])


class TestNormalInterval:
    def test_contains_mean_of_tight_samples(self):
        low, high = normal_interval(np.array([1.0, 1.0, 1.0, 1.0]))
        assert low == pytest.approx(1.0) and high == pytest.approx(1.0)

    def test_width_shrinks_with_n(self, rng):
        small = normal_interval(rng.normal(size=100))
        large = normal_interval(rng.normal(size=10_000))
        assert (large[1] - large[0]) < (small[1] - small[0])
