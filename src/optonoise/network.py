"""Feed-forward network representation and noiseless evaluation.

A network is an ordered list of dense layers, each holding a weight
matrix ``W``, a bias vector ``b``, and an activation.  Its structure is
checked once, at construction, and its arrays are read-only, so no
evaluation checks it again.  The noiseless map applies ``sigma(W x + b)``
layer by layer.  This module also provides the per-layer quantities the
analysis code needs: spectral norms, activation Lipschitz constants,
and the reduction of purely linear networks to ``(diag-coefficients,
weights)`` pairs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonlinearActivationError, ValidationError

__all__ = [
    "Activation",
    "Layer",
    "Network",
    "LipschitzReport",
    "forward",
    "forward_trace",
    "operator_norm",
    "lipschitz_bounds",
    "as_linear",
    "network_to_json",
    "network_from_json",
    "load_network",
    "save_network",
]

_KINDS = ("identity", "tanh", "relu", "softmax", "diag")


def affine(weights: np.ndarray, bias: np.ndarray, h: np.ndarray) -> np.ndarray:
    """``weights @ h + bias`` for a vector or a batch of row vectors.

    Uses a non-optimized einsum so the reduction order over the contracted
    axis is the same whether ``h`` is a single vector or a batch; a
    zero-noise batched evaluation therefore reproduces the single-vector
    forward pass bit-exactly, row for row.
    """
    return np.einsum("ij,...j->...i", weights, h, optimize=False) + bias


def _frozen(a) -> np.ndarray:
    """A read-only float64 copy of ``a``; a copy, so the caller's array stays writable."""
    a = np.array(a, dtype=np.float64)
    a.flags.writeable = False
    return a


def _integer(value, what: str) -> int:
    """``value`` as an int: ``2``, ``2.0`` and ``"2"`` pass; ``2.5``, text and bools are refused."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if isinstance(value, (bool, np.bool_)) or not number.is_integer():
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return int(number)


@dataclass(frozen=True, eq=False)
class Activation:
    """Layer activation: one of identity, tanh, relu, softmax, or an
    element-wise multiplication by a fixed coefficient vector (``diag``).

    Identity is the special case of ``diag`` with all-ones coefficients,
    but is kept as its own kind so it round-trips through JSON unchanged.
    """

    kind: str
    coeffs: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown activation kind {self.kind!r}")
        if self.kind == "diag":
            try:
                c = _frozen(self.coeffs)
            except (TypeError, ValueError):
                raise ValidationError(
                    f"diag activation coefficients must be numbers, got {self.coeffs!r}"
                ) from None
            if c.ndim != 1:
                raise ValidationError("diag activation needs a 1-D coefficient vector")
            object.__setattr__(self, "coeffs", c)
        elif self.coeffs is not None:
            raise ValidationError(f"{self.kind!r} activation takes no coefficients")

    @classmethod
    def identity(cls) -> "Activation":
        return cls("identity")

    @classmethod
    def tanh(cls) -> "Activation":
        return cls("tanh")

    @classmethod
    def relu(cls) -> "Activation":
        return cls("relu")

    @classmethod
    def softmax(cls) -> "Activation":
        return cls("softmax")

    @classmethod
    def diag_linear(cls, coeffs) -> "Activation":
        return cls("diag", coeffs)

    @property
    def is_linear(self) -> bool:
        return self.kind in ("identity", "diag")

    def __call__(self, y: np.ndarray) -> np.ndarray:
        if self.kind == "identity":
            return y
        if self.kind == "tanh":
            return np.tanh(y)
        if self.kind == "relu":
            return np.maximum(y, 0.0)
        if self.kind == "softmax":
            # stabilized along the last axis so batched inputs work too
            z = y - np.max(y, axis=-1, keepdims=True)
            e = np.exp(z)
            return e / np.sum(e, axis=-1, keepdims=True)
        return self.coeffs * y

    def lipschitz_constant(self) -> float:
        """Lipschitz constant w.r.t. the 2-norm.

        tanh/relu/identity are 1-Lipschitz; softmax is 1-Lipschitz in the
        2-norm; for ``diag`` the constant is ``max |coeff|``.
        """
        if self.kind == "diag":
            return float(np.max(np.abs(self.coeffs))) if self.coeffs.size else 0.0
        return 1.0

    def diag_coefficients(self, dim: int) -> np.ndarray:
        """Coefficient vector for linear activations; raises otherwise."""
        if self.kind == "identity":
            return np.ones(dim)
        if self.kind == "diag":
            return self.coeffs.copy()
        raise ValidationError(f"{self.kind!r} is not a linear activation")


@dataclass(frozen=True, eq=False)
class Layer:
    """One dense layer ``x -> activation(weights @ x + bias)``; arrays are read-only copies."""

    weights: np.ndarray
    bias: np.ndarray
    activation: Activation = field(default_factory=Activation.identity)

    def __post_init__(self):
        w, b = _frozen(self.weights), _frozen(self.bias)
        if w.ndim != 2:
            raise ValidationError("layer weights must be a 2-D matrix")
        if b.ndim != 1:
            raise ValidationError("layer bias must be a 1-D vector")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True, eq=False)
class Network:
    """Feed-forward network: layers chained on ``input_dim``-vectors.

    Construction is the one structural check; it raises one
    :class:`ValidationError` listing every issue.
    """

    layers: tuple[Layer, ...]
    input_dim: int

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "input_dim", _integer(self.input_dim, "input_dim"))
        issues = _issues(self)
        if issues:
            raise ValidationError("; ".join(issues))

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_dim if self.layers else self.input_dim

    def dims(self) -> list[int]:
        """Dimensions ``[d_0, d_1, ..., d_L]`` along the chain."""
        return [self.input_dim] + [layer.out_dim for layer in self.layers]


def _issues(net: Network) -> list[str]:
    """Every broken structural invariant, each message naming its 1-based layer."""
    issues: list[str] = []
    if net.input_dim < 1:
        issues.append("input_dim must be a positive integer")
    if net.depth < 1:
        issues.append("network must have at least one layer")
    prev = net.input_dim
    for i, layer in enumerate(net.layers, start=1):
        if layer.weights.shape[1] != prev:
            issues.append(
                f"layer {i}: weights have {layer.weights.shape[1]} columns "
                f"but the preceding output dimension is {prev}"
            )
        if layer.bias.shape[0] != layer.out_dim:
            issues.append(
                f"layer {i}: bias length {layer.bias.shape[0]} does not match "
                f"the {layer.out_dim} weight rows"
            )
        act = layer.activation
        if act.kind == "diag" and act.coeffs.shape[0] != layer.out_dim:
            issues.append(
                f"layer {i}: diag activation has {act.coeffs.shape[0]} "
                f"coefficients for {layer.out_dim} outputs"
            )
        if not np.all(np.isfinite(layer.weights)) or not np.all(np.isfinite(layer.bias)):
            issues.append(f"layer {i}: weights/bias contain non-finite values")
        if act.kind == "diag" and not np.all(np.isfinite(act.coeffs)):
            issues.append(f"layer {i}: diag activation coefficients contain non-finite values")
        prev = layer.out_dim
    return issues


def _check_input(net: Network, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != net.input_dim:
        raise ValidationError(
            f"input has shape {x.shape}, expected a vector of length {net.input_dim}",
            layer=0,
        )
    if not np.all(np.isfinite(x)):
        raise ValidationError("input contains non-finite values", layer=0)
    return x


def forward(net: Network, x) -> np.ndarray:
    """Evaluate the noiseless network on one input vector."""
    h = _check_input(net, x)
    for layer in net.layers:
        h = layer.activation(affine(layer.weights, layer.bias, h))
    return h


def forward_trace(net: Network, x) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Noiseless evaluation keeping per-layer pre-activations and activations.

    Returns ``(preacts, acts)`` where ``preacts[l] = W x + b`` and
    ``acts[l]`` the activated value, for ``l = 0..L-1``.
    """
    h = _check_input(net, x)
    preacts, acts = [], []
    for layer in net.layers:
        z = affine(layer.weights, layer.bias, h)
        h = layer.activation(z)
        preacts.append(z)
        acts.append(h)
    return preacts, acts


def operator_norm(W) -> float:
    """Largest singular value of ``W``: LAPACK's exact matrix 2-norm."""
    W = np.asarray(W, dtype=np.float64)
    if W.ndim != 2:
        raise ValidationError("operator_norm expects a matrix")
    if not np.all(np.isfinite(W)):
        raise ValidationError("operator_norm expects finite entries")
    return float(np.linalg.norm(W, 2))


@dataclass(frozen=True, eq=False)
class LipschitzReport:
    """Per-layer activation Lipschitz constants and weight operator norms.

    Entry ``l`` (0-based) describes layer ``l+1``.  The softmax constant is
    reported as 1 (valid w.r.t. the 2-norm), so deviation budgets computed
    from this report remain valid for softmax output layers.
    """

    per_layer: np.ndarray
    operator_norms: np.ndarray


def lipschitz_bounds(net: Network) -> LipschitzReport:
    a = np.array([layer.activation.lipschitz_constant() for layer in net.layers])
    ops = np.array([operator_norm(layer.weights) for layer in net.layers])
    return LipschitzReport(per_layer=a, operator_norms=ops)


def as_linear(net: Network) -> list[tuple[np.ndarray, np.ndarray]]:
    """Reduce a purely linear network to ``(coeffs, weights)`` pairs.

    Succeeds iff every activation is identity or diagonal-linear; the
    coefficient vector is the diagonal of the activation's matrix.  Raises
    :class:`NonlinearActivationError` naming the first offending layer.
    """
    pairs = []
    for i, layer in enumerate(net.layers, start=1):
        if not layer.activation.is_linear:
            raise NonlinearActivationError(i)
        pairs.append((layer.activation.diag_coefficients(layer.out_dim), layer.weights))
    return pairs


# ---------------------------------------------------------------------------
# JSON wire format
#
# {"input_dim": int,
#  "layers": [{"weights": [[row-major]], "bias": [...],
#              "activation": "identity"|"tanh"|"relu"|"softmax"|{"diag": [...]}}]}
# ---------------------------------------------------------------------------


def _activation_to_json(act: Activation):
    if act.kind == "diag":
        return {"diag": act.coeffs.tolist()}
    return act.kind


def _activation_from_json(obj, layer_index: int) -> Activation:
    if isinstance(obj, str):
        if obj in ("identity", "tanh", "relu", "softmax"):
            return Activation(obj)
        raise ValidationError(
            f"layer {layer_index}: unknown activation {obj!r}", layer=layer_index
        )
    if isinstance(obj, dict) and set(obj) == {"diag"}:
        try:
            return Activation.diag_linear(obj["diag"])
        except ValidationError as exc:
            raise ValidationError(f"layer {layer_index}: {exc}", layer=layer_index) from None
    raise ValidationError(
        f"layer {layer_index}: malformed activation entry", layer=layer_index
    )


def network_to_json(net: Network) -> dict:
    return {
        "input_dim": net.input_dim,
        "layers": [
            {
                "weights": layer.weights.tolist(),
                "bias": layer.bias.tolist(),
                "activation": _activation_to_json(layer.activation),
            }
            for layer in net.layers
        ],
    }


def network_from_json(obj: dict) -> Network:
    """Parse the JSON wire format into a :class:`Network`.

    Malformed entries are rejected here with their layer index; non-finite
    values and dimension-chain violations are rejected, also by layer, when
    the network is constructed.
    """
    if not isinstance(obj, dict) or "input_dim" not in obj or "layers" not in obj:
        raise ValidationError("network JSON must have 'input_dim' and 'layers'")
    layers = []
    for i, entry in enumerate(obj["layers"], start=1):
        try:
            w = np.array(entry["weights"], dtype=np.float64)
            b = np.array(entry["bias"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"layer {i}: malformed weights/bias ({exc})", layer=i)
        if w.ndim != 2:
            raise ValidationError(f"layer {i}: weights must be a matrix", layer=i)
        if b.ndim != 1:
            raise ValidationError(f"layer {i}: bias must be a flat vector", layer=i)
        act = _activation_from_json(entry.get("activation", "identity"), i)
        layers.append(Layer(w, b, act))
    return Network(tuple(layers), obj["input_dim"])


def load_network(path) -> Network:
    with open(path, "r", encoding="utf-8") as fh:
        return network_from_json(json.load(fh))


def save_network(net: Network, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(network_to_json(net), fh, indent=2)
        fh.write("\n")
