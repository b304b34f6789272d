"""Command-line interface: delegation, determinism, exit codes, formats."""

import json
import math
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optonoise import GENERATOR_NAME, NoiseProfile, forward, save_network
from optonoise.cli import _json_text, cli_main
from optonoise.fixtures import fixture_dataset

from conftest import random_linear_net, random_profile
from optonoise.noise import profile_to_json

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

    @pytest.mark.parametrize("command", ["design-a", "design-b", "accuracy-a", "accuracy-b"])
    def test_fixture_commands_byte_identical(self, command, fixture_files, tmp_path):
        profile_path, configs = fixture_files
        x = json.dumps(fixture_dataset()[0][0].tolist())
        sampler = ["--net", FIXTURE_NET, "--profile", str(profile_path), "--input", x]
        args = {
            "design-a": ["--seed", "5", "--trials", "40", "design-a", *sampler, "--copies", "[3, 2, 1]"],
            "design-b": ["--seed", "5", "--trials", "40", "design-b", *sampler, "--m", "3"],
            "accuracy-a": ["--config", str(configs["a"]), "experiment", "accuracy", "--grid", "1,2"],
            "accuracy-b": ["--config", str(configs["b"]), "experiment", "accuracy", "--grid", "1,2"],
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
    ], ids=["trials-fraction", "seed-fraction", "count-fraction", "dim-fraction",
            "negative-m-fraction", "text-w-fraction"])
    def test_malformed_config_entry_exits_1(self, experiment_files, capsys, edit, message):
        config_path = experiment_files["config"]
        with open(config_path, encoding="utf-8") as fh:
            config = {**json.load(fh), **edit}
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        code, out, err = run(capsys, ["--config", config_path, "experiment", "mse", "--grid", "1"])
        assert code == 1
        assert message in err and out == ""

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
    ], ids=["diag-text", "input-dim-text"])
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
_LEAVES = st.one_of(
    _NUMBERS,
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


class TestJsonText:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(obj=_JSON_VALUES)
    def test_matches_stdlib_indent_2(self, obj):
        assert _json_text(obj) == json.dumps(obj, indent=2, default=str)

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
LINEAR = ["--net", "{net}", "--profile", "{profile}", "--m", "2"]
CONFIG = ["--config", "{config}", "experiment"]
JSON_COMMANDS = {
    "forward": ["forward", "--net", "{net}", "--input", "{input}"],
    "simulate": [*SEEDED, "simulate", *SAMPLER],
    "design-a": [*SEEDED, "design-a", *SAMPLER, "--copies", "[2, 2, 1]"],
    "design-b-compare": [*SEEDED, "design-b", *SAMPLER, "--m", "2", "--compare"],
    **{f"covariance-{mode}": ["covariance", "--mode", mode, *LINEAR]
       for mode in ("trajectory", "trajectory-b", "branchwise")},
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
