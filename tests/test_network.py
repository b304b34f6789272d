"""Network representation, noiseless evaluation, and per-layer bounds."""

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
    Network,
    NoiseProfile,
    NonlinearActivationError,
    RngStream,
    ValidationError,
    as_linear,
    design_a_samples,
    design_b_samples,
    forward,
    lipschitz_bounds,
    network_from_json,
    network_to_json,
    noisy_forward_samples,
    operator_norm,
)
from optonoise import network
from optonoise.network import forward_trace

from conftest import random_linear_net, random_profile


def single_layer(W, b=None, activation=None):
    W = np.asarray(W, dtype=np.float64)
    if b is None:
        b = np.zeros(W.shape[0])
    if activation is None:
        activation = Activation.identity()
    return Network((Layer(W, b, activation),), W.shape[1])


class TestForward:
    def test_identity_layer(self):
        net = single_layer(np.eye(2))
        np.testing.assert_array_equal(forward(net, [3.0, -1.0]), [3.0, -1.0])

    def test_scalar_tanh(self):
        # oracle: scalar evaluation through math.tanh
        net = single_layer([[1.0, 1.0]], b=[0.5], activation=Activation.tanh())
        expected = math.tanh(0.5)
        np.testing.assert_allclose(forward(net, [0.0, 0.0]), [expected], rtol=1e-15)

    def test_two_layer_diag_composition(self):
        # hand composition: 0.5*(2*(0.5*(2*1))) = 1
        layer = Layer([[2.0]], [0.0], Activation.diag_linear([0.5]))
        net = Network((layer, layer), 1)
        np.testing.assert_allclose(forward(net, [1.0]), [1.0], rtol=1e-15)

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        net = random_linear_net(rng, depth=3)
        x = rng.normal(size=net.input_dim)
        a = forward(net, x)
        b = forward(net, x)
        np.testing.assert_array_equal(a, b)

    def test_dimension_mismatch_names_layer(self):
        net = single_layer(np.eye(2))
        with pytest.raises(ValidationError) as exc:
            forward(net, [1.0, 2.0, 3.0])
        assert exc.value.layer == 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda net, p, x: forward(net, x),
            lambda net, p, x: noisy_forward_samples(net, p, x, 1, RngStream(0))[0],
            lambda net, p, x: noisy_forward_samples(net, p, x, 4, RngStream(0)),
            lambda net, p, x: design_a_samples(DesignASpec(net, (2, 2, 2, 1)), x, p, 1, RngStream(0))[0],
            lambda net, p, x: design_a_samples(DesignASpec(net, (2, 2, 2, 1)), x, p, 4, RngStream(0)),
            lambda net, p, x: design_b_samples(DesignBSpec(net, 2), x, p, 1, RngStream(0))[0],
            lambda net, p, x: design_b_samples(DesignBSpec(net, 2), x, p, 4, RngStream(0)),
        ],
        # the single-evaluation cases run each sampler as a batch of one
        ids=[
            "forward", "noisy_forward", "noisy_forward_samples", "eval_design_a",
            "design_a_samples", "eval_design_b", "design_b_samples",
        ],
    )
    def test_non_finite_input_names_layer_0(self, rng, evaluate, bad):
        net = random_linear_net(rng, depth=3)
        profile = random_profile(rng, net)
        x = np.zeros(net.input_dim)
        x[-1] = bad
        with pytest.raises(ValidationError, match="non-finite") as exc:
            evaluate(net, profile, x)
        assert exc.value.layer == 0

    def test_softmax_normalizes(self):
        net = single_layer(np.eye(3), activation=Activation.softmax())
        out = forward(net, [0.0, 1.0, 2.0])
        assert out.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(out) > 0)

    def test_relu_clips(self):
        net = single_layer(np.eye(2), activation=Activation.relu())
        np.testing.assert_array_equal(forward(net, [-1.0, 2.0]), [0.0, 2.0])


def construction_issues(*args) -> list[str]:
    """The issues ``Network(*args)`` reports, split from its one error."""
    with pytest.raises(ValidationError) as exc:
        Network(*args)
    return str(exc.value).split("; ")


class TestAffineRowStability:
    """A row of ``affine`` has the same bits in any batch, at any offset, as a
    vector, and under any leading axes."""

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(
        # above 256 inputs OpenBLAS splits the contracted axis into blocks
        d_in=st.one_of(st.integers(1, 70), st.integers(257, 800)),
        d_out=st.integers(1, 130),
        batch=st.integers(1, 300),
        offset=st.integers(0, 20),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_do_not_depend_on_the_batch(self, d_in, d_out, batch, offset, seed):
        rng = np.random.default_rng(seed)
        W, b = rng.normal(size=(d_out, d_in)), rng.normal(size=d_out)
        rows = rng.normal(size=(offset + batch, d_in))
        whole = network.affine(W, b, rows)
        part = network.affine(W, b, rows[offset:])
        np.testing.assert_array_equal(part, whole[offset:])
        for row, out in zip(rows[offset:], part):
            np.testing.assert_array_equal(network.affine(W, b, row), out)
        np.testing.assert_array_equal(network.affine(W, b, rows[None, offset:]), part[None])
        # a broadcast block, as the sampler's first layer passes it
        block = np.broadcast_to(rows[offset], (3, 2, 5, d_in))
        np.testing.assert_array_equal(network.affine(W, b, block),
                                      np.broadcast_to(part[0], (3, 2, 5, d_out)))


def _activation_by_formula(act, y):
    """Each activation kind written out, the definition in-place runs must match."""
    if act.kind == "identity":
        return y
    if act.kind == "tanh":
        return np.tanh(y)
    if act.kind == "relu":
        return np.maximum(y, 0.0)
    if act.kind == "softmax":
        e = np.exp(y - np.max(y, axis=-1, keepdims=True))
        return e / np.sum(e, axis=-1, keepdims=True)
    return act.coeffs * y


class TestActivationInPlace:
    """The samplers activate their own blocks in place; the bits are those
    of ``Activation(y)`` and of the formula, and ``forward`` keeps them."""

    KINDS = ["identity", "tanh", "relu", "softmax", "diag"]

    @staticmethod
    def _activation(kind, width, rng):
        return Activation.diag_linear(rng.normal(size=width)) if kind == "diag" else Activation(kind)

    @pytest.mark.parametrize("kind", KINDS)
    def test_in_place_equals_call(self, kind):
        rng = np.random.default_rng(4)
        act = self._activation(kind, 5, rng)
        y = rng.normal(size=(3, 7, 5)) * 4.0
        # rows far out, where an unstabilized softmax overflows
        y[0, 0] = [800.0, -800.0, 750.0, 0.0, 1e300]
        y[1, 2] = [-1e300, -1e300, -1e300, -1e300, -1e300]
        y[2, 3] = [0.0, -0.0, 1e-310, -1e-310, 0.0]
        want = act(y.copy())
        np.testing.assert_array_equal(want, _activation_by_formula(act, y))
        block = y.copy()
        got = act._in_place(block)
        assert got is block
        np.testing.assert_array_equal(got, want)
        assert np.signbit(got).tolist() == np.signbit(want).tolist()

    @pytest.mark.parametrize("kind", KINDS)
    def test_call_keeps_its_input(self, kind):
        rng = np.random.default_rng(5)
        act = self._activation(kind, 4, rng)
        y = rng.normal(size=(6, 4))
        before = y.copy()
        act(y)
        np.testing.assert_array_equal(y, before)
        read_only = np.broadcast_to(before[0], (3, 4))
        np.testing.assert_array_equal(act(read_only), _activation_by_formula(act, read_only))

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=4),
           seed=st.integers(0, 2**32 - 1))
    def test_forward_is_the_formula(self, kinds, seed):
        rng = np.random.default_rng(seed)
        dims = [int(rng.integers(1, 7)) for _ in range(len(kinds) + 1)]
        net = Network(tuple(
            Layer(rng.normal(size=(dims[l + 1], dims[l])) * 3.0, rng.normal(size=dims[l + 1]),
                  self._activation(kind, dims[l + 1], rng))
            for l, kind in enumerate(kinds)), dims[0])
        x = rng.normal(size=dims[0]) * 10.0
        h = x
        for layer in net.layers:
            h = _activation_by_formula(layer.activation, network.affine(layer.weights, layer.bias, h))
        np.testing.assert_array_equal(forward(net, x), h)


class TestValidate:
    def test_well_formed_chain(self):
        rng = np.random.default_rng(1)
        net = Network(
            (
                Layer(rng.normal(size=(3, 4)), np.zeros(3)),
                Layer(rng.normal(size=(2, 3)), np.zeros(2)),
            ),
            4,
        )
        assert net.dims() == [4, 3, 2]

    def test_chain_violation_reported(self):
        issues = construction_issues(
            (
                Layer(np.zeros((3, 4)), np.zeros(3)),
                Layer(np.zeros((3, 5)), np.zeros(3)),
            ),
            4,
        )
        assert len(issues) == 1
        assert "layer 2" in issues[0]

    def test_diag_coefficient_length_reported(self):
        issues = construction_issues(
            (Layer(np.zeros((3, 2)), np.zeros(3), Activation.diag_linear([1.0, 2.0])),),
            2,
        )
        assert len(issues) == 1
        assert "layer 1" in issues[0] and "coefficients" in issues[0]

    def test_bias_length_reported(self):
        issues = construction_issues((Layer(np.zeros((3, 2)), np.zeros(2)),), 2)
        assert any("bias" in msg for msg in issues)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "+inf", "-inf"])
    def test_non_finite_diag_coefficients_reported(self, bad):
        layers = (
            Layer(np.eye(2), np.zeros(2), Activation.diag_linear([1.0, 1.0])),
            Layer(np.eye(2), np.zeros(2), Activation.diag_linear([1.0, bad])),
        )
        assert construction_issues(layers, 2) == [
            "layer 2: diag activation coefficients contain non-finite values"
        ]
        with pytest.raises(ValidationError, match="layer 2: diag activation coefficients"):
            Network(layers, 2)

    def test_every_issue_in_one_error(self):
        issues = construction_issues(
            (
                Layer(np.full((3, 4), np.nan), np.zeros(2)),
                Layer(np.zeros((3, 5)), np.zeros(3), Activation.diag_linear([1.0])),
            ),
            4,
        )
        assert issues == [
            "layer 1: bias length 2 does not match the 3 weight rows",
            "layer 1: weights/bias contain non-finite values",
            "layer 2: weights have 5 columns but the preceding output dimension is 3",
            "layer 2: diag activation has 1 coefficients for 3 outputs",
        ]


def linear_net_and_profile():
    """A diag-linear 2-3-2 net from caller-owned arrays, and a profile with
    array-backed covariances."""
    arrays = {
        "w1": np.arange(6.0).reshape(3, 2) / 6, "b1": np.ones(3), "c1": np.full(3, 0.5),
        "w2": np.ones((2, 3)) / 3, "b2": np.zeros(2), "c2": np.array([1.0, -1.0]),
        "vec": np.array([0.01, 0.02, 0.03]), "mat": np.array([[0.02, 0.01], [0.01, 0.02]]),
    }
    net = Network(
        (
            Layer(arrays["w1"], arrays["b1"], Activation.diag_linear(arrays["c1"])),
            Layer(arrays["w2"], arrays["b2"], Activation.diag_linear(arrays["c2"])),
        ),
        2,
    )
    profile = NoiseProfile(
        CovSpec.full(arrays["mat"]),
        (CovSpec.diagonal(arrays["vec"]), CovSpec.isotropic(0.01)),
        (CovSpec.isotropic(0.02), CovSpec.full(arrays["mat"])),
    )
    return net, profile, arrays


class TestConstructedNetwork:
    """A network is checked once, at construction, and stays valid."""

    def test_arrays_are_read_only(self):
        net, _, _ = linear_net_and_profile()
        layer = net.layers[1]
        for stored in (layer.weights, layer.bias, layer.activation.coeffs):
            with pytest.raises(ValueError, match="read-only"):
                stored[0, ...] = np.nan

    def test_source_arrays_are_copied(self):
        net, profile, arrays = linear_net_and_profile()
        x = np.array([0.3, -0.7])
        before = (forward(net, x), noisy_forward_samples(net, profile, x, 50, RngStream(4)))
        for a in arrays.values():
            a[...] = np.nan
        after = (forward(net, x), noisy_forward_samples(net, profile, x, 50, RngStream(4)))
        for old, new in zip(before, after):
            np.testing.assert_array_equal(new, old)

    def test_structure_checked_once(self, monkeypatch):
        calls = []
        real = network._issues

        def counting(net):
            calls.append(net)
            return real(net)

        monkeypatch.setattr(network, "_issues", counting)
        net, profile, _ = linear_net_and_profile()
        assert len(calls) == 1
        x = np.array([0.3, -0.7])
        forward(net, x)
        forward_trace(net, x)
        as_linear(net)
        lipschitz_bounds(net)
        noisy_forward_samples(net, profile, x, 5, RngStream(1))
        design_a_samples(DesignASpec(net, (2, 2, 1)), x, profile, 5, RngStream(1))
        design_b_samples(DesignBSpec(net, 3), x, profile, 5, RngStream(1))
        assert len(calls) == 1


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(np.eye(3)) == pytest.approx(1.0, abs=1e-10)

    def test_diagonal(self):
        assert operator_norm(np.diag([2.0, -3.0])) == pytest.approx(3.0, abs=1e-9)

    def test_shear_golden_ratio(self):
        # eigenvalues of W^T W = [[1,1],[1,2]] from the quadratic formula:
        # lambda = (3 +- sqrt(5)) / 2; the norm is sqrt of the larger root
        expected = math.sqrt((3.0 + math.sqrt(5.0)) / 2.0)
        assert operator_norm([[1.0, 1.0], [0.0, 1.0]]) == pytest.approx(expected, rel=1e-9)
        assert expected == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0, rel=1e-15)

    def test_zero_matrix(self):
        assert operator_norm(np.zeros((3, 2))) == 0.0

    def test_against_svd_oracle(self):
        rng = np.random.default_rng(2)
        cases = [rng.normal(size=rng.integers(1, 7, size=2)) for _ in range(50)]
        # close top singular values, which a power iteration resolves
        # slowly, and a nearly normal D S with S symmetric, as in the
        # d = 64 benchmark's symmetric configs
        cases += [np.diag([1.0, 0.9999]), np.diag([1.0, 0.999])]
        G = rng.normal(size=(64, 64))
        cases.append(rng.uniform(0.8, 1.0, size=64)[:, None] * (G + G.T) / math.sqrt(128))
        for W in cases:
            assert operator_norm(W) == pytest.approx(
                float(np.linalg.svd(W, compute_uv=False)[0]), rel=1e-12
            )

    def test_bounded_by_frobenius_with_rank1_equality(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            W = rng.normal(size=(4, 3))
            assert operator_norm(W) <= np.linalg.norm(W) + 1e-9
        u, v = rng.normal(size=4), rng.normal(size=3)
        rank1 = np.outer(u, v)
        assert operator_norm(rank1) == pytest.approx(np.linalg.norm(rank1), rel=1e-9)


class TestLipschitzBounds:
    def test_tanh_layers_are_one(self):
        rng = np.random.default_rng(4)
        layers = tuple(
            Layer(rng.normal(size=(3, 3)), np.zeros(3), Activation.tanh()) for _ in range(3)
        )
        report = lipschitz_bounds(Network(layers, 3))
        np.testing.assert_array_equal(report.per_layer, [1.0, 1.0, 1.0])

    def test_diag_max_abs(self):
        net = Network(
            (Layer(np.eye(2), np.zeros(2), Activation.diag_linear([0.5, -2.0])),), 2
        )
        assert lipschitz_bounds(net).per_layer[0] == 2.0

    def test_operator_norm_entry(self):
        net = Network(
            (
                Layer(np.eye(3), np.zeros(3), Activation.tanh()),
                Layer(np.diag([3.0, 3.0, 3.0]), np.zeros(3), Activation.relu()),
            ),
            3,
        )
        report = lipschitz_bounds(net)
        assert report.operator_norms[1] == pytest.approx(3.0, abs=1e-9)

    def test_single_layer_expansion_bound(self):
        # empirical expansion never exceeds a * ||W||_op on random pairs
        rng = np.random.default_rng(5)
        W = rng.normal(size=(3, 4))
        net = single_layer(W, activation=Activation.tanh())
        bound = lipschitz_bounds(net)
        factor = bound.per_layer[0] * bound.operator_norms[0]
        for _ in range(1000):
            x, y = rng.normal(size=4), rng.normal(size=4)
            lhs = np.linalg.norm(forward(net, x) - forward(net, y))
            assert lhs <= factor * np.linalg.norm(x - y) + 1e-9


class TestAsLinear:
    def test_identity_gives_ones(self):
        net = single_layer(np.eye(2))
        pairs = as_linear(net)
        np.testing.assert_array_equal(pairs[0][0], [1.0, 1.0])

    def test_diag_coefficients(self):
        net = Network(
            (Layer(np.eye(2), np.zeros(2), Activation.diag_linear([1.0, 2.0])),), 2
        )
        np.testing.assert_array_equal(as_linear(net)[0][0], [1.0, 2.0])

    def test_tanh_rejected_with_layer(self):
        net = Network(
            (
                Layer(np.eye(2), np.zeros(2)),
                Layer(np.eye(2), np.zeros(2), Activation.tanh()),
            ),
            2,
        )
        with pytest.raises(NonlinearActivationError) as exc:
            as_linear(net)
        assert exc.value.layer == 2

    def test_superposition(self):
        # affine map: f(x+y) = f(x) + f(y) - f(0) for linear activations
        rng = np.random.default_rng(6)
        for _ in range(20):
            net = random_linear_net(rng, depth=3, max_dim=4)
            x = rng.normal(size=net.input_dim)
            y = rng.normal(size=net.input_dim)
            lhs = forward(net, x + y)
            rhs = forward(net, x) + forward(net, y) - forward(net, np.zeros(net.input_dim))
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)


class TestJsonFormat:
    def test_round_trip(self):
        rng = np.random.default_rng(7)
        net = Network(
            (
                Layer(rng.normal(size=(3, 2)), rng.normal(size=3), Activation.tanh()),
                Layer(rng.normal(size=(2, 3)), rng.normal(size=2), Activation.diag_linear([1.0, -0.5])),
            ),
            2,
        )
        loaded = network_from_json(network_to_json(net))
        for a, b in zip(net.layers, loaded.layers):
            np.testing.assert_array_equal(a.weights, b.weights)
            np.testing.assert_array_equal(a.bias, b.bias)
            assert a.activation.kind == b.activation.kind

    @settings(derandomize=True, deadline=None)
    @given(
        kinds=st.lists(
            st.sampled_from(["identity", "tanh", "relu", "softmax", "diag"]),
            min_size=1,
            max_size=4,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_round_trip_forward_bit_identical(self, kinds, seed):
        rng = np.random.default_rng(seed)
        dims = [int(rng.integers(1, 7)) for _ in range(len(kinds) + 1)]
        layers = []
        for l, kind in enumerate(kinds):
            d = dims[l + 1]
            act = (
                Activation.diag_linear(rng.normal(size=d))
                if kind == "diag"
                else Activation(kind)
            )
            layers.append(Layer(rng.normal(size=(d, dims[l])), rng.normal(size=d), act))
        net = Network(tuple(layers), dims[0])
        loaded = network_from_json(json.loads(json.dumps(network_to_json(net))))
        for x in rng.normal(size=(3, dims[0])) * 3.0:
            np.testing.assert_array_equal(forward(loaded, x), forward(net, x))

    def test_rejects_nan_with_layer_index(self):
        obj = {
            "input_dim": 1,
            "layers": [{"weights": [[float("nan")]], "bias": [0.0], "activation": "identity"}],
        }
        with pytest.raises(ValidationError) as exc:
            network_from_json(obj)
        assert "layer 1" in str(exc.value)

    def test_rejects_chain_violation_with_layer_index(self):
        obj = {
            "input_dim": 2,
            "layers": [
                {"weights": [[1.0, 0.0]], "bias": [0.0], "activation": "identity"},
                {"weights": [[1.0, 0.0]], "bias": [0.0], "activation": "identity"},
            ],
        }
        with pytest.raises(ValidationError) as exc:
            network_from_json(obj)
        assert "layer 2" in str(exc.value)

    @pytest.mark.parametrize("obj, message", [
        ({"input_dim": 1, "layers": 5}, "'layers' must be a list"),
        ({"input_dim": 1, "layers": [[1.0]]}, "layer 1: needs 'weights' and 'bias'"),
        ({"input_dim": 1, "layers": [{"weights": [[1.0], [2.0, 3.0]], "bias": [0.0]}]},
         "layer 1: weights must be numbers"),
        ({"input_dim": 1, "layers": [{"weights": [1.0], "bias": [0.0]}]},
         "layer 1: weights must be a 2-D array"),
        ({"input_dim": 1, "layers": [{"weights": [[1.0]], "bias": "x"}]},
         "layer 1: bias must be numbers"),
        ({"input_dim": "x", "layers": [{"weights": [[1.0]], "bias": [0.0]}]},
         "input_dim must be an integer, got 'x'"),
        ({"input_dim": 1.5, "layers": [{"weights": [[1.0]], "bias": [0.0]}]},
         "input_dim must be an integer, got 1.5"),
        ({"input_dim": 1, "layers": [{"weights": [[1.0]], "bias": [0.0],
                                      "activation": {"diag": ["x"]}}]},
         "layer 1: diag activation coefficients must be numbers"),
    ], ids=["layers-number", "layer-list", "weights-ragged", "weights-vector", "bias-text",
            "input-dim-text", "input-dim-fraction", "diag-text"])
    def test_rejects_non_numeric_entries(self, obj, message):
        with pytest.raises(ValidationError, match=message):
            network_from_json(obj)

    def test_rejects_unknown_activation(self):
        obj = {
            "input_dim": 1,
            "layers": [{"weights": [[1.0]], "bias": [0.0], "activation": "sigmoid"}],
        }
        with pytest.raises(ValidationError):
            network_from_json(obj)


class TestValueRules:
    """The one rule per kind of value that every entry point applies."""

    @pytest.mark.parametrize("value", ["abc", ["a", 1.0], {"a": 1}], ids=["text", "text-entry", "object"])
    def test_array_refuses_non_numbers(self, value):
        with pytest.raises(ValidationError, match="coefficients must be numbers"):
            network._array(value, "coefficients", 1)

    def test_array_refuses_ragged_nesting(self):
        with pytest.raises(ValidationError, match="weights must be numbers"):
            network._array([[1.0, 2.0], [3.0]], "weights", 2)

    @pytest.mark.parametrize("value, ndim", [(1.0, 1), ([1.0, 2.0], 2), ([[1.0]], 1)])
    def test_array_refuses_other_ranks(self, value, ndim):
        with pytest.raises(ValidationError, match=rf"x must be a {ndim}-D array, got shape"):
            network._array(value, "x", ndim)

    def test_array_keeps_a_float64_array(self):
        a = np.zeros((3, 2))
        assert network._array(a, "x", 2) is a
        converted = network._array([[1, 2]], "x", 2)
        assert converted.dtype == np.float64 and converted.shape == (1, 2)

    def test_frozen_is_a_read_only_copy(self):
        a = np.zeros(3)
        frozen = network._frozen(a, "x", 1)
        assert frozen is not a and not frozen.flags.writeable and a.flags.writeable

    def test_integer_bound(self):
        assert network._integer(1, "n", 1) == 1
        assert network._integer("2.0", "n", 2) == 2
        assert network._integer(-3, "n") == -3
        with pytest.raises(ValidationError, match="n must be >= 1, got 0"):
            network._integer(0, "n", 1)
        with pytest.raises(ValidationError, match=r"n must be >= 2, got 1.0"):
            network._integer(1.0, "n", 2)
        with pytest.raises(ValidationError, match="n must be an integer, got 0.5"):
            network._integer(0.5, "n", 1)


class TestDegenerateNetworks:
    def test_empty_network_reported(self):
        issues = construction_issues((), 3)
        assert any("at least one layer" in msg for msg in issues)

    def test_nonpositive_input_dim_reported(self):
        issues = construction_issues((Layer(np.zeros((2, 0)), np.zeros(2)),), 0)
        assert any("input_dim" in msg for msg in issues)
