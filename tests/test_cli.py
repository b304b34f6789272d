"""Command-line interface: delegation, determinism, exit codes, formats."""

import json
import math
import struct
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from optonoise import (GENERATOR_NAME, Layer, LinearNet, Network, NoiseProfile, RngStream, forward,
                       propagate, propagate_b, save_network)
from optonoise.cli import _json_text, cli_main
from optonoise.covariance import trajectory_to_json
from optonoise.fixtures import fixture_dataset
from optonoise.idx import IMAGE_MAGIC, LABEL_MAGIC

from conftest import random_linear_net, random_profile
from optonoise.noise import profile_from_json, profile_to_json

FIXTURE_NET = str(resources.files("optonoise.fixtures").joinpath("mlp_8_16_4.json"))


@pytest.fixture
def workspace(tmp_path):
    rng = np.random.default_rng(17)
    net = random_linear_net(rng, depth=2, max_dim=3)
    profile = random_profile(rng, net)
    net_path = tmp_path / "net.json"
    save_network(net, net_path)
    profile_path = tmp_path / "profile.json"
    profile_path.write_text(json.dumps(profile_to_json(profile)))
    return tmp_path, net, net_path, profile_path


def run(capsys, args):
    code = cli_main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestForwardCommand:
    def test_delegates_to_library(self, workspace, capsys):
        tmp, net, net_path, _ = workspace
        x = [0.5] * net.input_dim
        code, out, _ = run(capsys, ["forward", "--net", net_path, "--input", json.dumps(x)])
        assert code == 0
        payload = json.loads(out)
        np.testing.assert_allclose(payload["output"], forward(net, np.array(x)), rtol=1e-15)
        assert payload["meta"]["generator"]

    def test_tanh_example(self, tmp_path, capsys):
        net_obj = {
            "input_dim": 2,
            "layers": [{"weights": [[1.0, 1.0]], "bias": [0.5], "activation": "tanh"}],
        }
        path = tmp_path / "tanh.json"
        path.write_text(json.dumps(net_obj))
        code, out, _ = run(capsys, ["forward", "--net", path, "--input", "[0,0]"])
        assert code == 0
        assert json.loads(out)["output"][0] == pytest.approx(math.tanh(0.5), rel=1e-12)


class TestCovarianceCommand:
    def test_trajectory_matches_library(self, workspace, capsys):
        tmp, net, net_path, profile_path = workspace
        code, out, _ = run(
            capsys, ["covariance", "--net", net_path, "--profile", profile_path]
        )
        assert code == 0
        payload = json.loads(out)
        from optonoise import LinearNet, propagate
        from optonoise.noise import profile_from_json

        profile = profile_from_json(json.loads(profile_path.read_text()))
        traj = propagate(LinearNet.from_network(net), profile)
        np.testing.assert_allclose(
            payload["layers"][-1]["sigma"], traj.final, rtol=1e-12, atol=1e-15
        )

    @pytest.mark.parametrize("mode", ["trajectory", "trajectory-b"])
    def test_trajectory_file_has_the_public_layout(self, workspace, capsys, mode):
        # the command writes arrays; the file must read as trajectory_to_json's lists
        tmp, net, net_path, profile_path = workspace
        code, out, _ = run(capsys, ["covariance", "--mode", mode, "--net", net_path,
                                    "--profile", profile_path,
                                    *(["--m", "3"] if mode == "trajectory-b" else [])])
        assert code == 0
        payload = json.loads(out)
        profile = profile_from_json(json.loads(profile_path.read_text()))
        linnet = LinearNet.from_network(net)
        traj = propagate(linnet, profile) if mode == "trajectory" else propagate_b(linnet, profile, 3)
        body = trajectory_to_json(traj)
        assert payload["layers"] == body["layers"]
        assert out == json.dumps({"meta": payload["meta"], **body}, indent=2) + "\n"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "+inf", "-inf"])
    def test_non_finite_diag_coefficient_exits_1(self, tmp_path, capsys, bad):
        net_obj = {
            "input_dim": 2,
            "layers": [{"weights": [[1.0, 0.0], [0.0, 1.0]], "bias": [0.0, 0.0],
                        "activation": {"diag": [1.0, bad]}}],
        }
        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps(net_obj))
        profile_path = tmp_path / "profile.json"
        profile_path.write_text(json.dumps(profile_to_json(NoiseProfile.isotropic(1, 0.1, 0.1, 0.1))))
        code, out, err = run(capsys, [
            "covariance", "--mode", "trajectory", "--net", net_path, "--profile", profile_path,
        ])
        assert code == 1 and out == ""
        assert "layer 1: diag activation coefficients contain non-finite values" in err

    @pytest.mark.parametrize("command", [
        ["covariance", "--mode", "closed-form", "--depth", "3"],
        ["limit", "--mode", "series"],
    ], ids=["closed-form", "limit-series"])
    def test_non_finite_symmetric_config_exits_1(self, tmp_path, capsys, command):
        path = tmp_path / "sym.json"
        path.write_text(json.dumps({"e": [0.5, math.nan], "W": [[0.1, 0.0], [0.0, 0.1]],
                                    "sigma_w": {"isotropic": 0.04}}))
        code, out, err = run(capsys, [*command, "--symmetric", path])
        assert code == 1 and out == ""
        assert "non-finite" in err


class TestLimitCommand:
    def test_fixed_point_scalar(self, tmp_path, capsys):
        cfg = {
            "e": [0.5], "W": [[1.0]],
            "sigma_m": {"isotropic": 1.0},
            "sigma_w": {"isotropic": 0.04},
            "sigma_a": {"isotropic": 0.09},
        }
        path = tmp_path / "sym.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run(capsys, ["limit", "--symmetric", path, "--mode", "fixed-vectorized"])
        assert code == 0
        payload = json.loads(out)
        assert payload["sigma"][0][0] == pytest.approx(0.13333333333333333, abs=1e-10)
        assert payload["residual"] <= 1e-8


    @pytest.mark.parametrize("mode", ["series", "series-b", "fixed-iterate", "fixed-vectorized"])
    def test_near_degenerate_weights_pass(self, tmp_path, capsys, mode):
        # the top two singular values of W differ by 1e-4 relative; the
        # Frobenius criterion admits the config and every mode must run it
        cfg = {
            "e": [1.0, 1.0], "W": [[0.5, 0.0], [0.0, 0.49995]],
            "sigma_m": {"isotropic": 0.01},
            "sigma_w": {"isotropic": 0.01},
            "sigma_a": {"isotropic": 0.01},
        }
        path = tmp_path / "sym.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run(capsys, ["limit", "--symmetric", path, "--mode", mode])
        assert code == 0, err
        # diagonal A = D W: each coordinate's limit is a scalar geometric
        # series, (sigma_w + sigma_a) / (1 - a^2)
        a = np.array([0.5, 0.49995])
        s = 0.02 / (1 - a**2)
        np.testing.assert_allclose(json.loads(out)["sigma"], np.diag(s), rtol=1e-9, atol=1e-15)


    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("mode", ["series", "series-b"])
    def test_tol_must_be_finite_and_positive(self, tmp_path, capsys, mode, tol):
        path = tmp_path / "sym.json"
        path.write_text(json.dumps({"e": [0.5], "W": [[1.0]], "sigma_a": {"isotropic": 0.09}}))
        code, out, err = run(capsys, ["limit", "--symmetric", path, "--mode", mode, "--tol", tol])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "tol must be" in err


class TestDesignBCommand:
    def test_compare_draws_once(self, workspace, capsys, monkeypatch):
        from optonoise import design_b

        tmp, net, net_path, profile_path = workspace
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[3])
            return kernel(*args, **kwargs)

        kernel = design_b._sample
        monkeypatch.setattr(design_b, "_sample", counted)
        code, out, err = run(capsys, [
            "--seed", 5, "--trials", 300, "design-b", "--net", net_path,
            "--profile", profile_path, "--input", json.dumps([0.1] * net.input_dim),
            "--m", 3, "--compare",
        ])
        assert code == 0, err
        assert calls == [300]
        result = json.loads(out)
        assert result["comparison"]["empirical"] == result["stats"]["covariance"]


class TestDeterminism:
    def test_scan_m_byte_identical_outputs(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            code = cli_main([
                "--output", str(out), "--format", "csv",
                "scan-m", "--d", "2", "--w-grid", "1,2,3", "--d-grid", "1,2", "--depth", "55",
            ])
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()[0]
        assert header.startswith("norm_W,norm_D,min_m")
        assert "config_hash" in header and "generator" in header

    def test_simulate_same_seed_same_json(self, workspace, capsys):
        tmp, net, net_path, profile_path = workspace
        x = json.dumps([0.1] * net.input_dim)
        texts = []
        for _ in range(2):
            code, out, _ = run(capsys, [
                "--seed", 5, "--trials", 200,
                "simulate", "--net", net_path, "--profile", profile_path, "--input", x,
            ])
            assert code == 0
            texts.append(out)
        assert texts[0] == texts[1]

    @pytest.fixture
    def fixture_files(self, tmp_path):
        profile = NoiseProfile.isotropic(
            2, modulation_var=0.01, weight_var=0.05, activation_var=0.01,
            combine_var=0.01, split_var=0.01,
        )
        profile_path = tmp_path / "profile.json"
        profile_path.write_text(json.dumps(profile_to_json(profile)))
        inputs, labels = fixture_dataset()
        data_path = tmp_path / "data.json"
        data_path.write_text(json.dumps({"inputs": inputs[:12].tolist(), "labels": labels[:12].tolist()}))
        configs = {}
        for design in ("a", "b"):
            configs[design] = tmp_path / f"config_{design}.json"
            configs[design].write_text(json.dumps({
                "network": FIXTURE_NET, "profile": str(profile_path), "inputs": str(data_path),
                "design": design, "trials": 30, "seed": 4,
            }))
        return profile_path, configs

    @pytest.mark.parametrize("command", ["design-a", "design-b", "accuracy-a", "accuracy-b",
                                         "mse-b", "depth-a"])
    def test_fixture_commands_byte_identical(self, command, fixture_files, tmp_path):
        profile_path, configs = fixture_files
        x = json.dumps(fixture_dataset()[0][0].tolist())
        sampler = ["--net", FIXTURE_NET, "--profile", str(profile_path), "--input", x]
        args = {
            "design-a": ["--seed", "5", "--trials", "40", "design-a", *sampler, "--copies", "[3, 2, 1]"],
            "design-b": ["--seed", "5", "--trials", "40", "design-b", *sampler, "--m", "3"],
            "accuracy-a": ["--config", str(configs["a"]), "experiment", "accuracy", "--grid", "1,2"],
            "accuracy-b": ["--config", str(configs["b"]), "experiment", "accuracy", "--grid", "1,2"],
            # 12 inputs x 100 trials: every grid point is one call of two parts
            "mse-b": ["--trials", "100", "--config", str(configs["b"]), "experiment", "mse",
                      "--grid", "1,2"],
            "depth-a": ["--trials", "100", "--config", str(configs["a"]), "experiment", "depth",
                        "--n-grid", "0,2", "--var-grid", "0.01,0.04", "--copies", "2",
                        "--slots", "1,1,1,1"],
        }[command]
        outs = [tmp_path / "first.json", tmp_path / "second.json"]
        for out in outs:
            assert cli_main(["--output", str(out), *args]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert json.loads(outs[0].read_text())["meta"]["generator"] == GENERATOR_NAME


class TestCopiesCommand:
    def test_budget_emits_decimal_total_and_placeholder_flag(self, tmp_path, capsys):
        net_obj = {
            "input_dim": 2,
            "layers": [
                {"weights": [[0.4, 0.1], [0.0, 0.3]], "bias": [0.0, 0.0], "activation": "tanh"},
                {"weights": [[0.2, 0.2]], "bias": [0.0], "activation": "tanh"},
            ],
        }
        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps(net_obj))
        targets = {"sigma_sq": 0.0025, "deviation_target": 0.5, "failure_target": 0.05}
        targets_path = tmp_path / "targets.json"
        targets_path.write_text(json.dumps(targets))
        code, out, _ = run(capsys, ["copies", "--net", net_path, "--targets", targets_path])
        assert code == 0
        budget = json.loads(out)["budget"]
        assert isinstance(budget["total"], str) and int(budget["total"]) >= 1
        assert budget["constants_are_placeholders"] is True
        assert budget["copies"][-1] == 1


    def test_near_degenerate_layer_passes(self, tmp_path, capsys):
        net_obj = {
            "input_dim": 2,
            "layers": [
                {"weights": [[1.0, 0.0], [0.0, 0.9999]], "bias": [0.0, 0.0], "activation": "tanh"},
                {"weights": [[0.2, 0.1], [0.1, 0.3]], "bias": [0.0, 0.0], "activation": "tanh"},
            ],
        }
        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps(net_obj))
        targets = {"sigma_sq": 0.0025, "deviation_target": 0.5, "failure_target": 0.05}
        targets_path = tmp_path / "targets.json"
        targets_path.write_text(json.dumps(targets))
        code, _, err = run(capsys, ["copies", "--net", net_path, "--targets", targets_path])
        assert code == 0, err


class TestInsertLayersCommand:
    def test_writes_deepened_network(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        from optonoise import Activation, Layer, Network

        layers = tuple(
            Layer(rng.normal(size=(3, 3)) * 0.4, np.zeros(3), Activation.tanh())
            for _ in range(8)
        )
        net = Network(layers, 3)
        net_path = tmp_path / "deep.json"
        save_network(net, net_path)
        out_path = tmp_path / "deeper.json"
        code = cli_main([
            "--output", str(out_path),
            "insert-layers", "--net", str(net_path), "--n", "5",
        ])
        assert code == 0
        from optonoise import load_network

        deeper = load_network(out_path)
        assert deeper.depth == 13
        x = rng.normal(size=3)
        np.testing.assert_array_equal(forward(deeper, x), forward(net, x))


class TestExperimentCommands:
    def test_mse_experiment_csv(self, workspace, tmp_path, capsys):
        tmp, net, net_path, profile_path = workspace
        inputs_path = tmp_path / "inputs.json"
        rng = np.random.default_rng(9)
        inputs_path.write_text(json.dumps(rng.normal(size=(4, net.input_dim)).tolist()))
        config = {
            "network": str(net_path),
            "profile": str(profile_path),
            "design": "b",
            "inputs": str(inputs_path),
            "trials": 50,
            "seed": 2,
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        out_path = tmp_path / "mse.csv"
        code = cli_main([
            "--config", str(config_path), "--output", str(out_path), "--format", "csv",
            "experiment", "mse", "--grid", "1,2",
        ])
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("design,copies,mse,ci_low,ci_high,trials,seed")
        assert len(lines) == 3

    @staticmethod
    def rows(capsys, tmp_path, config, *command):
        """The result rows of ``experiment <command>`` on ``config``."""
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        code, out, err = run(capsys, ["--config", config_path, "experiment", *command])
        assert code == 0, err
        return json.loads(out)["rows"]

    def test_synthetic_inputs(self, workspace, capsys):
        tmp, net, net_path, profile_path = workspace
        config = {"network": str(net_path), "profile": str(profile_path), "design": "a",
                  "trials": 20, "seed": 2,
                  "inputs": {"synthetic": {"count": 3, "dim": net.input_dim,
                                           "seed": 4, "scale": 0.5}}}
        synthetic = self.rows(capsys, tmp, config, "mse", "--grid", "1,2")
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(4)))
        inputs_path = tmp / "inputs.json"
        inputs_path.write_text(json.dumps(gen.normal(0.0, 0.5, size=(3, net.input_dim)).tolist()))
        explicit = self.rows(capsys, tmp, {**config, "inputs": str(inputs_path)},
                             "mse", "--grid", "1,2")
        assert synthetic == explicit

    def test_idx_image_inputs(self, workspace, capsys):
        tmp, net, net_path, profile_path = workspace
        pixels = [0, 51, 255, 128, 7, 200][: 2 * net.input_dim]
        idx_path = tmp / "images.idx"
        idx_path.write_bytes(struct.pack(">IIII", IMAGE_MAGIC, 2, 1, net.input_dim) + bytes(pixels))
        inputs_path = tmp / "inputs.json"
        inputs_path.write_text(json.dumps((np.reshape(pixels, (2, -1)) / 255.0).tolist()))
        config = {"network": str(net_path), "profile": str(profile_path), "design": "b",
                  "trials": 20, "seed": 2, "inputs": str(idx_path)}
        from_idx = self.rows(capsys, tmp, config, "mse", "--grid", "1,2")
        assert from_idx == self.rows(capsys, tmp, {**config, "inputs": str(inputs_path)},
                                     "mse", "--grid", "1,2")

    def test_labels_file_overrides_container_labels(self, tmp_path, capsys):
        inputs, labels = fixture_dataset()
        inputs, labels = inputs[:6], labels[:6]
        wrong = (labels + 1) % 4

        def container(name, container_labels):
            path = tmp_path / name
            path.write_text(json.dumps({"inputs": inputs.tolist(),
                                        "labels": container_labels.tolist()}))
            return str(path)

        json_labels = tmp_path / "labels.json"
        json_labels.write_text(json.dumps(labels.tolist()))
        idx_labels = tmp_path / "labels.idx"
        idx_labels.write_bytes(struct.pack(">II", LABEL_MAGIC, len(labels))
                               + bytes(labels.tolist()))
        config = {"network": FIXTURE_NET, "design": "a", "trials": 20, "seed": 3,
                  "profile": {"calibrate": {"w_fraction": 0.2, "a_fraction": 0.2}}}
        command = ("accuracy", "--grid", "1,2")
        right_inputs = container("right.json", labels)
        want = self.rows(capsys, tmp_path, {**config, "inputs": right_inputs}, *command)
        wrong_inputs = container("wrong.json", wrong)
        assert self.rows(capsys, tmp_path, {**config, "inputs": wrong_inputs}, *command) != want
        for labels_path in (json_labels, idx_labels):
            overridden = {**config, "inputs": wrong_inputs, "labels": str(labels_path)}
            assert self.rows(capsys, tmp_path, overridden, *command) == want

    @pytest.mark.parametrize("spec", [5, {"file": "inputs.json"}, [[0.5, 0.5, 0.5]]],
                             ids=["number", "object", "inline-list"])
    def test_uninterpretable_inputs_spec_exits_1(self, experiment_files, capsys, spec):
        with open(experiment_files["config"], encoding="utf-8") as fh:
            config = {**json.load(fh), "inputs": spec}
        with open(experiment_files["config"], "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        code, out, err = run(capsys, ["--config", experiment_files["config"],
                                      "experiment", "mse", "--grid", "1"])
        assert code == 1 and out == ""
        assert "cannot interpret inputs spec" in err


@pytest.fixture
def experiment_files(workspace):
    """Paths of the workspace net and profile, and a design-b experiment config with labels."""
    tmp, net, net_path, profile_path = workspace
    inputs_path = tmp / "inputs.json"
    inputs_path.write_text(json.dumps({"inputs": np.full((2, net.input_dim), 0.5).tolist(),
                                       "labels": [0, 0]}))
    config = {"network": str(net_path), "profile": str(profile_path), "design": "b",
              "inputs": str(inputs_path), "trials": 5, "seed": 2}
    config_path = tmp / "config.json"
    config_path.write_text(json.dumps(config))
    return {"net": str(net_path), "profile": str(profile_path), "config": str(config_path),
            "input": json.dumps([0.5] * net.input_dim)}


SAMPLER = ["--net", "{net}", "--profile", "{profile}", "--input", "{input}"]


class TestExitCodes:
    @pytest.mark.parametrize("args", [
        ["scan-m", "--d", "2", "--w-grid", "1:2:x", "--d-grid", "1"],
        ["scan-m", "--d", "2", "--w-grid", "1:2:2.5", "--d-grid", "1"],
        ["scan-m", "--d", "2", "--w-grid", "x:2:2", "--d-grid", "1"],
        ["insert-layers", "--net", "{net}", "--n", "1", "--slots", "a,b,c,d"],
        ["design-a", *SAMPLER, "--copies", '["x", 1, 1]'],
        ["design-a", *SAMPLER, "--copies", "[2.7, 1, 1]"],
        ["design-a", *SAMPLER, "--copies", "3"],
        ["--config", "{config}", "experiment", "mse", "--grid", "1.5,2"],
        ["--config", "{config}", "experiment", "accuracy", "--grid", "1,x"],
        ["--config", "{config}", "experiment", "depth", "--n-grid", "0,0.5",
         "--var-grid", "0.1", "--copies", "1", "--slots", "1,1,1,1"],
        ["--config", "{config}", "experiment", "depth", "--n-grid", "0",
         "--var-grid", "0.1", "--copies", "1", "--slots", "1,1,1,1.5"],
    ], ids=["count-text", "count-fraction", "grid-bound-text", "slots-text", "copies-text",
            "copies-fraction", "copies-not-a-list", "grid-fraction", "grid-text",
            "n-grid-fraction", "depth-slots-fraction"])
    def test_malformed_integer_argument_exits_1(self, experiment_files, capsys, args):
        code, out, err = run(capsys, [a.format(**experiment_files) for a in args])
        assert code == 1
        assert err.startswith("error: ") and out == ""

    @pytest.mark.parametrize("command", [["simulate"], ["design-b", "--m", "2"],
                                         ["design-a", "--copies", "[2, 1, 1]"]],
                             ids=["simulate", "design-b", "design-a"])
    def test_overflowing_samples_exit_1(self, tmp_path, capsys, command):
        # two 1e160 gains overflow every noisy sample; the noiseless output stays 0.
        # The modulation noise is pushed through both layers into layer 2's
        # merged site, whose factor overflows before anything is drawn
        layers = [Layer(1e160 * np.eye(2), np.zeros(2)) for _ in range(2)]
        save_network(Network(layers, 2), tmp_path / "net.json")
        profile = NoiseProfile.isotropic(2, modulation_var=1.0)
        (tmp_path / "profile.json").write_text(json.dumps(profile_to_json(profile)))
        code, out, err = run(capsys, ["--trials", "10", *command, "--net", tmp_path / "net.json",
                                      "--profile", tmp_path / "profile.json", "--input", "[0, 0]"])
        assert code == 1 and out == ""
        assert err == "error: the noise pushed through the weights of layer 2 overflows float64\n"

    @pytest.mark.parametrize("command", [["simulate"], ["design-b", "--m", "2"],
                                         ["design-a", "--copies", "[2, 1, 1]"]],
                             ids=["simulate", "design-b", "design-a"])
    def test_one_trial_exits_1_before_drawing(self, experiment_files, capsys, monkeypatch,
                                              command):
        # one row has no sample covariance: refused on entry, no stream built
        built = []
        real = RngStream.generator
        monkeypatch.setattr(RngStream, "generator", lambda self: built.append(self) or real(self))
        code, out, err = run(capsys, ["--trials", "1", *command,
                                      *(a.format(**experiment_files) for a in SAMPLER)])
        assert code == 1 and out == ""
        assert err == ("error: statistics need n >= 2 sample rows, got 1 "
                       "(1 input(s) x 1 trial(s))\n")
        assert built == []

    @pytest.mark.parametrize("command", [["simulate"], ["design-b", "--m", "2"],
                                         ["design-a", "--copies", "[2, 1]"]],
                             ids=["simulate", "design-b", "design-a"])
    def test_overflowing_statistics_exit_1(self, tmp_path, capsys, command):
        # one 1e160 gain keeps every sample finite, but their squares overflow
        save_network(Network([Layer(1e160 * np.eye(2), np.zeros(2))], 2), tmp_path / "net.json")
        profile = NoiseProfile.isotropic(1, modulation_var=1.0)
        (tmp_path / "profile.json").write_text(json.dumps(profile_to_json(profile)))
        code, out, err = run(capsys, ["--trials", "10", *command, "--net", tmp_path / "net.json",
                                      "--profile", tmp_path / "profile.json", "--input", "[0, 0]"])
        assert code == 1 and out == ""
        assert err == "error: sample covariance overflows float64\n"

    @pytest.mark.parametrize("args, message", [
        (["scan-m", "--d", "2", "--w-grid", "1:2", "--d-grid", "1"],
         "grid spec '1:2' must be lo:hi:count"),
        (["scan-m", "--d", "2", "--w-grid", "1:2:3:4", "--d-grid", "1"],
         "grid spec '1:2:3:4' must be lo:hi:count"),
        (["scan-m", "--d", "4", "--w-grid", "1:2:0", "--d-grid", "0.5"],
         "norm_grid_W must be nonempty"),
        (["scan-m", "--d", "4", "--w-grid", " ", "--d-grid", "0.5"],
         "norm_grid_W must be nonempty"),
        (["scan-m", "--d", "4", "--w-grid", "1", "--d-grid", ""],
         "norm_grid_D must be nonempty"),
        (["covariance", "--mode", "trajectory", "--profile", "{profile}"],
         "mode trajectory needs --net and --profile"),
        (["--format", "csv", "scan-m", "--d", "2", "--w-grid", "1", "--d-grid", "1"],
         "csv format needs --output"),
        (["experiment", "mse", "--grid", "1"], "experiment commands need --config"),
    ], ids=["grid-two-fields", "grid-four-fields", "w-grid-count-0", "w-grid-blank",
            "d-grid-empty", "trajectory-without-net",
            "csv-without-output", "experiment-without-config"])
    def test_missing_option_or_malformed_spec_exits_1(self, experiment_files, capsys, args,
                                                       message):
        code, out, err = run(capsys, [a.format(**experiment_files) for a in args])
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("seed, expected", [
        (-(2**63), 0), (2**63 - 1, 0), (-(2**63) - 1, 1), (2**63, 1), (2**64, 1),
    ], ids=["lowest", "highest", "below", "above", "wraps-to-0"])
    def test_seed_outside_signed_64_bits_exits_1(self, experiment_files, capsys, seed, expected):
        args = ["--seed", str(seed), "--trials", "10", "simulate", *SAMPLER]
        code, out, err = run(capsys, [a.format(**experiment_files) for a in args])
        assert code == expected
        if expected:
            assert out == "" and err == f"error: seed must lie in [-2**63, 2**63), got {seed}\n"
        else:
            assert json.loads(out)["meta"]["seed"] == seed

    def test_scan_m_gain_whose_square_overflows_exits_1(self, capsys):
        code, out, err = run(capsys, ["scan-m", "--d", "1", "--w-grid", "1e100:1e100:1",
                                      "--d-grid", "1e100"])
        assert code == 1 and out == ""
        assert err == "error: layer gain a*w = 1e+200 is too large: its square overflows\n"

    @pytest.mark.parametrize("edit", [
        {"sigma_sq": "abc"},
        {"deltas": [math.nan, 0.25], "kappas": [0.01, 0.01]},
        {"hoeffding_C": math.inf},
        {"deviation_target": "abc"},
    ], ids=["sigma-text", "delta-nan", "constant-inf", "target-text"])
    def test_malformed_copy_targets_exit_1(self, experiment_files, tmp_path, capsys, edit):
        targets = {"sigma_sq": 0.0025, "deviation_target": 0.5, "failure_target": 0.05, **edit}
        targets_path = tmp_path / "targets.json"
        targets_path.write_text(json.dumps(targets))
        code, out, err = run(capsys, ["copies", "--net", experiment_files["net"],
                                      "--targets", targets_path])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "must be finite" in err

    def test_integral_float_arguments_pass(self, experiment_files, capsys):
        outs = []
        for copies in ("[2, 2, 1]", "[2.0, 2, 1.0]"):
            args = ["--seed", "3", "--trials", "20", "design-a", *SAMPLER, "--copies", copies]
            code, out, _ = run(capsys, [a.format(**experiment_files) for a in args])
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("edit, message", [
        ({"trials": 10.5}, "trials must be an integer"),
        ({"seed": 1.9}, "seed must be an integer"),
        ({"inputs": {"synthetic": {"count": 2.7, "dim": 2}}}, "synthetic count must be an integer"),
        ({"inputs": {"synthetic": {"count": 2, "dim": 2.5}}}, "synthetic dim must be an integer"),
        ({"profile": {"calibrate": {"w_fraction": 0.1, "a_fraction": 0.1, "m_fraction": -0.5}}},
         "m_fraction must be finite and >= 0"),
        ({"profile": {"calibrate": {"w_fraction": "abc", "a_fraction": 0.1}}},
         "w_fraction must be finite and >= 0, got 'abc'"),
        ({"inputs": {"synthetic": {"count": -1, "dim": 2}}}, "synthetic count must be >= 0, got -1"),
        ({"inputs": {"synthetic": 5}}, "synthetic inputs must be a JSON object, got int"),
        ({"profile": {"calibrate": "x"}}, "calibrate must be a JSON object, got str"),
        ({"confidence": "abc"}, "confidence must be finite, got 'abc'"),
        ({"inputs": {"synthetic": {"count": 2, "dim": 2, "scale": "x"}}},
         "synthetic scale must be finite and >= 0, got 'x'"),
        ({"inputs": {"synthetic": {"count": 4, "dim": 8, "seed": -1}}},
         "synthetic seed must be >= 0, got -1"),
    ], ids=["trials-fraction", "seed-fraction", "count-fraction", "dim-fraction",
            "negative-m-fraction", "text-w-fraction", "negative-count", "synthetic-number",
            "calibrate-text", "text-confidence", "text-scale", "negative-synthetic-seed"])
    def test_malformed_config_entry_exits_1(self, experiment_files, capsys, edit, message):
        config_path = experiment_files["config"]
        with open(config_path, encoding="utf-8") as fh:
            config = {**json.load(fh), **edit}
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        code, out, err = run(capsys, ["--config", config_path, "experiment", "mse", "--grid", "1"])
        assert code == 1
        assert message in err and out == ""

    @pytest.mark.parametrize("edit, message", [
        ({"network": None}, "experiment config is missing 'network'"),
        ({"inputs": None}, "experiment config is missing 'inputs'"),
        ({"profile": {"calibrate": {"a_fraction": 0.1}}}, "calibrate entry is missing 'w_fraction'"),
        ({"profile": {"calibrate": {"w_fraction": 0.1}}}, "calibrate entry is missing 'a_fraction'"),
        ({"inputs": {"synthetic": {"dim": 2}}}, "synthetic entry is missing 'count'"),
        ({"inputs": {"synthetic": {"count": 2}}}, "synthetic entry is missing 'dim'"),
    ], ids=["network", "inputs", "w-fraction", "a-fraction", "synthetic-count", "synthetic-dim"])
    def test_config_missing_key_exits_1(self, experiment_files, capsys, edit, message):
        config_path = experiment_files["config"]
        with open(config_path, encoding="utf-8") as fh:
            config = {**json.load(fh), **edit}
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump({k: v for k, v in config.items() if v is not None}, fh)
        code, out, err = run(capsys, ["--config", config_path, "experiment", "mse", "--grid", "1"])
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    def test_input_file_without_inputs_exits_1(self, experiment_files, capsys):
        with open(experiment_files["config"], encoding="utf-8") as fh:
            inputs_path = json.load(fh)["inputs"]
        with open(inputs_path, "w", encoding="utf-8") as fh:
            json.dump({"labels": [0, 0]}, fh)
        code, out, err = run(capsys, ["--config", experiment_files["config"],
                                      "experiment", "mse", "--grid", "1"])
        assert code == 1 and out == ""
        assert err == "error: input file is missing 'inputs'\n"

    @pytest.mark.parametrize("key", ["sigma_sq", "deviation_target", "failure_target"])
    def test_copy_targets_missing_key_exit_1(self, experiment_files, tmp_path, capsys, key):
        targets = {"sigma_sq": 0.0025, "deviation_target": 0.5, "failure_target": 0.05}
        del targets[key]
        targets_path = tmp_path / "targets.json"
        targets_path.write_text(json.dumps(targets))
        code, out, err = run(capsys, ["copies", "--net", experiment_files["net"],
                                      "--targets", targets_path])
        assert code == 1 and out == ""
        assert err == f"error: copy targets is missing {key!r}\n"

    def test_config_seed_beyond_64_bits_exits_1(self, experiment_files, capsys):
        # 2**70 is read as the float 2.0**70 (JSON integers beyond 64 bits arrive
        # as floats), which is integral and still refused by its range
        config_path = experiment_files["config"]
        with open(config_path, encoding="utf-8") as fh:
            config = json.load(fh)
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump({**config, "seed": 2**70}, fh)
        code, out, err = run(capsys, ["--config", config_path, "experiment", "mse", "--grid", "1"])
        assert code == 1 and out == ""
        assert err == f"error: seed must lie in [-2**63, 2**63), got {2**70}\n"

    @pytest.mark.parametrize("args, content", [
        (["forward", "--net", "{file}", "--input", "[0.5]"],
         json.dumps({"input_dim": 1, "layers": [{"weights": [[1.0]], "bias": [0.0]}]}).encode("utf-16")),
        (["forward", "--net", "{file}", "--input", "[0.5]"],
         '{"input_dim": 1, "note": "café", "layers": [{"weights": [[1.0]], "bias": [0.0]}]}'
         .encode("latin-1")),
        (["simulate", "--net", "{net}", "--profile", "{file}", "--input", "{input}"],
         json.dumps({"weight": ["zero"] * 2, "activation": ["zero"] * 2}).encode("utf-16")),
        (["--config", "{file}", "experiment", "mse", "--grid", "1"],
         json.dumps({"network": "net.json", "inputs": "inputs.json"}).encode("utf-16")),
    ], ids=["net-utf16", "net-latin1", "profile-utf16", "config-utf16"])
    def test_non_utf8_file_exits_1(self, experiment_files, tmp_path, capsys, args, content):
        path = tmp_path / "file.json"
        path.write_bytes(content)
        code, out, err = run(capsys, [a.format(**experiment_files, file=path) for a in args])
        assert code == 1 and out == ""
        assert err.startswith(f"error: {path} is not UTF-8 text: 'utf-8' codec can't decode byte ")

    def test_fractional_labels_exit_1(self, experiment_files, capsys):
        with open(experiment_files["config"], encoding="utf-8") as fh:
            inputs_path = json.load(fh)["inputs"]
        with open(inputs_path, encoding="utf-8") as fh:
            inputs = json.load(fh)
        with open(inputs_path, "w", encoding="utf-8") as fh:
            json.dump({**inputs, "labels": [0.5, 0]}, fh)
        code, out, err = run(capsys, ["--config", experiment_files["config"],
                                      "experiment", "accuracy", "--grid", "1"])
        assert code == 1
        assert "labels must be integers, got 0.5" in err and out == ""

    def test_text_inputs_exit_1(self, experiment_files, capsys):
        with open(experiment_files["config"], encoding="utf-8") as fh:
            inputs_path = json.load(fh)["inputs"]
        with open(inputs_path, encoding="utf-8") as fh:
            inputs = json.load(fh)
        with open(inputs_path, "w", encoding="utf-8") as fh:
            json.dump({**inputs, "inputs": [["a"] * len(inputs["inputs"][0])] * 2}, fh)
        code, out, err = run(capsys, ["--config", experiment_files["config"],
                                      "experiment", "mse", "--grid", "1"])
        assert code == 1 and out == ""
        assert err.startswith("error: inputs must be numbers")

    @pytest.mark.parametrize("args, content, message", [
        (["copies", "--net", "{net}", "--targets", "{file}"], [1, 2],
         "copy targets must be a JSON object, got list"),
        (["copies", "--net", "{net}", "--targets", "{file}"],
         {"sigma_sq": 0.0025, "deviation_target": 0.5, "failure_target": 0.05,
          "deltas": 5, "kappas": 0.1}, "deltas must be a list, got 5"),
        (["copies", "--net", "{net}", "--targets", "{file}"],
         {"sigma_sq": 0.0025, "deviation_target": 0.5, "failure_target": 0.05, "deltas": [0.25, 0.25]},
         "deltas and kappas must be given together or not at all"),
        (["copies", "--net", "{net}", "--targets", "{file}"],
         {"sigma_sq": 0.0025, "deviation_target": 0.5, "failure_target": 0.05, "kappas": [0.01, 0.01]},
         "deltas and kappas must be given together or not at all"),
        (["limit", "--mode", "series", "--symmetric", "{file}"], [1, 2],
         "symmetric config must be a JSON object, got list"),
        (["limit", "--mode", "series", "--symmetric", "{file}"],
         {"e": ["x", 1], "W": [[0.1, 0.0], [0.0, 0.1]]}, "activation coefficients must be numbers"),
        (["limit", "--mode", "series", "--symmetric", "{file}"],
         {"e": [[0.5, 0.0], [0.0, 0.5]], "W": [[0.1, 0.0], [0.0, 0.1]]},
         "activation coefficients must be a 1-D array, got shape (2, 2)"),
        (["--config", "{file}", "experiment", "mse", "--grid", "1"], [1, 2],
         "experiment config must be a JSON object, got list"),
        (["simulate", "--net", "{net}", "--profile", "{file}", "--input", "{input}"],
         {"weight": "zero", "activation": ["zero", "zero"]}, "weight must be a list"),
        (["simulate", "--net", "{net}", "--profile", "{file}", "--input", "{input}"],
         {"modulation": {"isotropic": "abc"}, "weight": ["zero"] * 2, "activation": ["zero"] * 2},
         "isotropic variance must be finite and >= 0, got 'abc'"),
        (["simulate", "--net", "{net}", "--profile", "{file}", "--input", "{input}"],
         {"modulation": {"diagonal": ["a", 1]}, "weight": ["zero"] * 2, "activation": ["zero"] * 2},
         "diagonal covariance must be numbers"),
        (["simulate", "--net", "{net}", "--profile", "{file}", "--input", "{input}"],
         {"modulation": {"full": "abc"}, "weight": ["zero"] * 2, "activation": ["zero"] * 2},
         "full covariance must be numbers"),
        (["copies", "--net", "{net}", "--targets", "{file}"],
         {"sigma_sq": 0.0025, "deviation_target": 0.5, "failure_target": 1.04},
         "failure_target must lie in (0, 1], got 1.04"),
        (["copies", "--net", "{net}", "--targets", "{file}"],
         {"sigma_sq": 0.0025, "deviation_target": 0.5, "failure_target": 1.5},
         "failure_target must lie in (0, 1], got 1.5"),
        (["copies", "--net", "{net}", "--targets", "{file}"],
         {"sigma_sq": 0.0025, "deviation_target": -0.5, "failure_target": 0.05},
         "deviation_target must be finite and > 0, got -0.5"),
        (["limit", "--mode", "series", "--symmetric", "{file}"], {"e": [0.5, 0.5]},
         "symmetric config is missing 'W'"),
    ], ids=["targets-list", "deltas-number", "deltas-only", "kappas-only", "symmetric-list", "symmetric-e-text", "symmetric-e-matrix",
            "config-list",
            "profile-weight-text", "profile-isotropic-text", "profile-diagonal-text",
            "profile-full-text", "failure-target-1.04", "failure-target-1.5",
            "deviation-target-negative", "symmetric-without-W"])
    def test_malformed_json_file_exits_1(self, experiment_files, tmp_path, capsys,
                                         args, content, message):
        path = tmp_path / "file.json"
        path.write_text(json.dumps(content))
        code, out, err = run(capsys, [a.format(**experiment_files, file=path) for a in args])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("text", ['"abc"', '[1, "a"]', "[[1]]"], ids=["text", "text-entry", "matrix"])
    def test_non_numeric_input_vector_exits_1(self, experiment_files, capsys, text):
        code, out, err = run(capsys, ["forward", "--net", experiment_files["net"], "--input", text])
        assert code == 1 and out == ""
        assert err.startswith("error: input must be")

    def test_integral_float_config_counts_pass(self, experiment_files, capsys):
        config_path = experiment_files["config"]
        with open(config_path, encoding="utf-8") as fh:
            config = json.load(fh)
        rows = []
        for trials, seed in ((10, 2), (10.0, 2.0)):
            with open(config_path, "w", encoding="utf-8") as fh:
                json.dump({**config, "trials": trials, "seed": seed}, fh)
            code, out, _ = run(capsys, ["--config", config_path, "experiment", "mse", "--grid", "1"])
            assert code == 0
            rows.append(json.loads(out)["rows"])
        assert rows[0] == rows[1] and rows[0][0]["trials"] == 10

    def test_config_without_design_exits_1(self, experiment_files, capsys):
        config_path = experiment_files["config"]
        with open(config_path, encoding="utf-8") as fh:
            config = json.load(fh)
        del config["design"]
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        code, out, err = run(capsys, ["--config", config_path, "experiment", "mse", "--grid", "1"])
        assert code == 1
        assert "design must be 'a' or 'b'" in err and out == ""

    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, out, err = run(capsys, ["frobnicate"])
        assert code == 1
        assert "Usage" in err or "usage" in err.lower()

    def test_missing_file_is_validation_error(self, capsys):
        code, _, err = run(capsys, ["forward", "--net", "/nonexistent.json", "--input", "[1]"])
        assert code == 1
        assert "error" in err.lower()

    def test_malformed_network_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "input_dim": 1,
            "layers": [{"weights": [[float("inf")]], "bias": [0.0], "activation": "identity"}],
        }))
        code, _, err = run(capsys, ["forward", "--net", str(path), "--input", "[1]"])
        assert code == 1

    @pytest.mark.parametrize("net_obj, message", [
        ({"input_dim": 1, "layers": [{"weights": [[1.0]], "bias": [0.0],
                                      "activation": {"diag": ["x"]}}]},
         "layer 1: diag activation coefficients must be numbers"),
        ({"input_dim": "x", "layers": [{"weights": [[1.0]], "bias": [0.0]}]},
         "input_dim must be an integer"),
        ({"input_dim": 1, "layers": 5}, "network JSON 'layers' must be a list"),
    ], ids=["diag-text", "input-dim-text", "layers-number"])
    def test_non_numeric_network_entry_exits_1(self, tmp_path, capsys, net_obj, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(net_obj))
        code, out, err = run(capsys, ["forward", "--net", str(path), "--input", "[1]"])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and message in err

    def test_bad_input_vector(self, workspace, capsys):
        tmp, net, net_path, _ = workspace
        code, _, err = run(capsys, ["forward", "--net", str(net_path), "--input", "oops"])
        assert code == 1

    def test_non_finite_input_vector(self, workspace, capsys):
        tmp, net, net_path, profile_path = workspace
        x = "[" + ", ".join(["NaN"] + ["0.5"] * (net.input_dim - 1)) + "]"
        code, out, err = run(capsys, [
            "simulate", "--net", net_path, "--profile", profile_path, "--input", x,
        ])
        assert code == 1
        assert "non-finite" in err
        assert out == ""

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, ["--help"])
        assert code == 0
        assert "Usage" in out


class TestCovarianceClosedForms:
    def test_closed_form_b_matches_library(self, tmp_path, capsys):
        cfg = {
            "e": [1.0], "W": [[1.0]],
            "sigma_m": {"isotropic": 1.0},
            "sigma_w": "zero",
            "sigma_a": {"isotropic": 1.0},
            "m": 2,
        }
        path = tmp_path / "sym.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run(capsys, [
            "covariance", "--symmetric", path, "--depth", "2", "--mode", "closed-form-b",
        ])
        assert code == 0
        # scalar recursion: s1 = (1 + 0)/2 + 1 = 1.5; s2 = 1.5/2 + 1 = 1.75
        assert json.loads(out)["sigma"][0][0] == pytest.approx(1.75, rel=1e-12)

    @pytest.mark.parametrize("mode", ["trajectory", "closed-form", "closed-form-b"])
    def test_modes_without_m_refuse_it(self, workspace, capsys, mode):
        # only trajectory-b and branchwise read --m; closed-form-b reads m
        # from the symmetric config, so any other --m would be ignored
        tmp, _, net_path, profile_path = workspace
        path = tmp / "sym.json"
        path.write_text(json.dumps({"e": [1.0], "W": [[0.5]], "sigma_m": {"isotropic": 1.0}}))
        inputs = (["--net", net_path, "--profile", profile_path] if mode == "trajectory"
                  else ["--symmetric", path, "--depth", "3"])
        code, out, err = run(capsys, ["covariance", "--mode", mode, *inputs, "--m", "4"])
        assert code == 1 and out == ""
        assert f"mode {mode} ignores --m" in err
        assert "closed-form-b reads m from the symmetric config" in err
        code, out, _ = run(capsys, ["covariance", "--mode", mode, *inputs, "--m", "1"])
        assert code == 0 and json.loads(out)["meta"]

    def test_closed_form_needs_depth(self, tmp_path, capsys):
        path = tmp_path / "sym.json"
        path.write_text(json.dumps({"e": [1.0], "W": [[0.5]]}))
        code, _, err = run(capsys, ["covariance", "--symmetric", path, "--mode", "closed-form"])
        assert code == 1


# Leaves of every kind a result can hold, including the awkward ones: the
# non-finite floats, -0.0, numpy float64 (a float subclass), and values only
# default=str can write (np.int64 is not an int, Fraction is neither).
_NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.just(-0.0),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
)


def _float_bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def _symmetrized(a: np.ndarray) -> np.ndarray:
    """``a`` with its upper triangle copied, bits and all, onto the lower one."""
    if a.ndim == 2 and a.shape[0] == a.shape[1]:
        i, j = np.triu_indices(a.shape[0], 1)
        a[j, i] = a[i, j]
    return a


# float64 arrays given by their bits, so that -0.0 sits beside 0.0 and NaNs
# keep distinct payloads; a small pool makes values repeat, as in the
# symmetric matrices the covariance engine returns
_FLOAT_BITS = st.one_of(
    st.sampled_from([_float_bits(x) for x in (0.0, -0.0, math.inf, -math.inf, 5e-324, -2.5e-310,
                                              0.1, 1e308)]
                    + [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                       0x7FF800000000ABCD]),
    st.floats(allow_nan=True, allow_infinity=True).map(_float_bits),
)
_ARRAYS = hnp.arrays(
    np.uint64, hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4), elements=_FLOAT_BITS,
).map(lambda bits: _symmetrized(bits.view(np.float64)))
_LEAVES = st.one_of(
    _NUMBERS,
    _ARRAYS,
    st.booleans(),
    st.none(),
    st.text(),
    st.sampled_from(["a, b", ", ", "\u00e9, \u2603", "[1, 2]"]),
    st.integers(-5, 5).map(np.int64),
    st.fractions(max_denominator=7),
)
_JSON_VALUES = st.recursive(
    st.one_of(_LEAVES, st.lists(_NUMBERS)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=5), inner, max_size=4),
    ),
    max_leaves=30,
)


def _as_lists(obj):
    """``obj`` with every ndarray replaced by its ``.tolist()``."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {key: _as_lists(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_as_lists(item) for item in obj]
    return obj


class TestJsonText:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(obj=_JSON_VALUES)
    def test_matches_stdlib_indent_2(self, obj):
        assert _json_text(obj) == json.dumps(_as_lists(obj), indent=2, default=str)

    @pytest.mark.parametrize("shape", [(0,), (2, 0), (0, 3), (2, 0, 3), (2, 3, 0), (1, 1, 1)])
    def test_arrays_of_every_shape(self, shape):
        a = np.arange(math.prod(shape), dtype=np.float64).reshape(shape) - 1.0
        obj = {"a": a, "nested": [[a]]}
        assert _json_text(obj) == json.dumps(_as_lists(obj), indent=2)

    def test_array_bits_are_the_key(self):
        # -0.0 == 0.0 and every NaN payload writes NaN, whatever is formatted first
        bits = np.array([0x8000000000000000, 0, 0x7FF800000000ABCD, 0x7FF8000000000000, 1],
                        dtype=np.uint64)
        a = bits.view(np.float64)
        assert _json_text(a) == "[\n  -0.0,\n  0.0,\n  NaN,\n  NaN,\n  5e-324\n]"
        assert _json_text(a[::-1].copy()) == json.dumps(a[::-1].tolist(), indent=2)

    @pytest.mark.parametrize("a", [np.arange(3), np.zeros(2, dtype=np.float32), np.array(1.0),
                                   np.zeros((2, 0), dtype=np.int64)],
                             ids=["int", "float32", "0-d", "empty-int"])
    def test_other_arrays_refused(self, a):
        with pytest.raises(TypeError, match="float64 arrays of rank >= 1"):
            _json_text({"a": a})

    def test_flat_number_lists_and_keys(self):
        obj = {"m": [[0.1, -0.0, math.nan], [1, 2**70, -math.inf]], "e": [], "d": {},
               "nested": [[], [{}]], 1.5: [True, 2], None: (1, "x, y"), False: Fraction(1, 3)}
        assert _json_text(obj) == json.dumps(obj, indent=2, default=str)

    def test_non_string_key_objects_refused(self):
        with pytest.raises(TypeError):
            _json_text({(1, 2): 0})


@pytest.fixture
def command_files(experiment_files, tmp_path):
    """``experiment_files`` plus a symmetric config and copy-budget targets."""
    sym = tmp_path / "sym.json"
    sym.write_text(json.dumps({"e": [0.5, 0.6], "W": [[0.9, 0.1], [0.2, 0.8]],
                               "sigma_m": {"isotropic": 0.1}, "sigma_w": {"isotropic": 0.04},
                               "sigma_a": {"diagonal": [0.01, 0.02]}, "m": 2}))
    targets = tmp_path / "targets.json"
    targets.write_text(json.dumps({"sigma_sq": 0.0025, "deviation_target": 0.5,
                                   "failure_target": 0.05}))
    return {**experiment_files, "sym": str(sym), "targets": str(targets)}


SEEDED = ["--seed", "5", "--trials", "50"]
LINEAR = ["--net", "{net}", "--profile", "{profile}"]
CONFIG = ["--config", "{config}", "experiment"]
JSON_COMMANDS = {
    "forward": ["forward", "--net", "{net}", "--input", "{input}"],
    "simulate": [*SEEDED, "simulate", *SAMPLER],
    "design-a": [*SEEDED, "design-a", *SAMPLER, "--copies", "[2, 2, 1]"],
    "design-b-compare": [*SEEDED, "design-b", *SAMPLER, "--m", "2", "--compare"],
    "covariance-trajectory": ["covariance", "--mode", "trajectory", *LINEAR],
    **{f"covariance-{mode}": ["covariance", "--mode", mode, *LINEAR, "--m", "2"]
       for mode in ("trajectory-b", "branchwise")},
    **{f"covariance-{mode}": ["covariance", "--mode", mode, "--symmetric", "{sym}", "--depth", "4"]
       for mode in ("closed-form", "closed-form-b")},
    **{f"limit-{mode}": ["limit", "--symmetric", "{sym}", "--mode", mode]
       for mode in ("series", "series-b", "fixed-iterate", "fixed-vectorized")},
    "copies": ["copies", "--net", "{net}", "--targets", "{targets}"],
    "scan-m": ["scan-m", "--d", "2", "--w-grid", "1:3:3", "--d-grid", "1,2", "--depth", "55"],
    "experiment-mse": [*CONFIG, "mse", "--grid", "1,2"],
    "experiment-accuracy": [*CONFIG, "accuracy", "--grid", "1,2"],
    "experiment-depth": [*CONFIG, "depth", "--n-grid", "0,1", "--var-grid", "0.01",
                         "--copies", "2", "--slots", "1,1,1,1"],
}


@pytest.mark.parametrize("command", sorted(JSON_COMMANDS))
def test_result_file_is_stdlib_indent_2_json(command_files, capsys, command):
    code, out, err = run(capsys, [a.format(**command_files) for a in JSON_COMMANDS[command]])
    assert code == 0, err
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


NO_TABLE_COMMANDS = {
    **{name: args for name, args in JSON_COMMANDS.items()
       if not name.startswith(("scan-m", "experiment"))},
    "insert-layers": ["insert-layers", "--net", "{net}", "--n", "1", "--slots", "1,1,1,1"],
}


@pytest.mark.parametrize("command", sorted(NO_TABLE_COMMANDS))
def test_csv_format_needs_a_table_command(command_files, tmp_path, capsys, command):
    out_path = tmp_path / "x.csv"
    args = [a.format(**command_files) for a in NO_TABLE_COMMANDS[command]]
    code, out, err = run(capsys, ["--format", "csv", "--output", out_path, *args])
    assert code == 1 and out == ""
    assert err.startswith("error: --format csv needs a command that writes a table")
    assert not out_path.exists()
