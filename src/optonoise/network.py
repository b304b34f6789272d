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
import reprlib
from dataclasses import dataclass, field

import numpy as np
import orjson

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


#: Rows of one gemm tile in :func:`_tiled`.  BLAS picks its kernel and
#: blocking from the shape of the product, so a row of a plain ``h @ W.T``
#: can round differently at another batch size; every product of fixed
#: ``(8, d_in)`` tiles rounds each row the same way, whatever the batch.
_TILE_ROWS = 8


def _tiled(h: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """``h @ matrix.T`` for a vector or a batch of row vectors, as a stack of
    ``(_TILE_ROWS, d_in)`` gemm products.

    Only the last partial tile is zero-padded, and a block of unit-stride
    rows is not copied.  A row's bits do not depend on the batch around
    it, its offset in the batch, or the BLAS thread count.  Overflow is
    left to the caller: it yields inf or nan without a warning.
    """
    d_in, d_out = h.shape[-1], matrix.shape[0]
    # BLAS needs unit-stride rows; numpy's fallback loop for other strides
    # (a broadcast block) rounds differently
    flat = np.ascontiguousarray(h.reshape(-1, d_in))
    n = flat.shape[0]
    full = n - n % _TILE_ROWS
    out = np.empty((n, d_out))
    with np.errstate(over="ignore", invalid="ignore"):
        if full:
            np.matmul(flat[:full].reshape(-1, _TILE_ROWS, d_in), matrix.T,
                      out=out[:full].reshape(-1, _TILE_ROWS, d_out))
        if full < n:
            tail = np.zeros((_TILE_ROWS, d_in))
            tail[: n - full] = flat[full:]
            out[full:] = (tail @ matrix.T)[: n - full]
    return out.reshape(*h.shape[:-1], d_out)


def affine(weights: np.ndarray, bias: np.ndarray, h: np.ndarray) -> np.ndarray:
    """``weights @ h + bias`` for a vector or a batch of row vectors.

    The product runs as fixed 8-row gemm tiles (:func:`_tiled`), so a row's
    bits do not depend on the batch it sits in: a zero-noise batched
    evaluation reproduces the single-vector forward pass bit-exactly, row
    for row.
    """
    out = _tiled(h, weights)
    out += bias
    return out


def _array(value, what: str, ndim: int | tuple[int, ...]) -> np.ndarray:
    """``value`` as a float64 array of rank ``ndim`` (or of one of the ranks in
    a tuple), not copied when it already is one.

    Nested lists of numbers pass; text, ragged nesting and any other rank are refused.
    """
    try:
        a = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{what} must be numbers, got {reprlib.repr(value)}") from None
    ranks = ndim if isinstance(ndim, tuple) else (ndim,)
    if a.ndim not in ranks:
        rank = " or ".join(f"{n}-D" for n in ranks)
        raise ValidationError(f"{what} must be a {rank} array, got shape {a.shape}")
    return a


def _frozen(value, what: str, ndim: int) -> np.ndarray:
    """A read-only copy of ``_array(value, what, ndim)``, so the caller's array stays writable."""
    a = _array(value, what, ndim).copy()
    a.flags.writeable = False
    return a


def _integer(value, what: str, minimum: int | None = None) -> int:
    """``value`` as an int, refused below ``minimum``: ``2``, ``2.0`` and ``"2"``
    pass; ``2.5``, text and bools are refused."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        number = int(value)
    else:
        try:
            real = float(value)
        except (TypeError, ValueError, OverflowError):
            real = math.nan
        if isinstance(value, (bool, np.bool_)) or not real.is_integer():
            raise ValidationError(f"{what} must be an integer, got {value!r}")
        number = int(real)
    if minimum is not None and number < minimum:
        raise ValidationError(f"{what} must be >= {minimum}, got {value!r}")
    return number


def _finite(value, what: str, bound: str = "") -> float:
    """``value`` as a finite float, also ``>= 0`` or ``> 0`` when ``bound`` says so.

    ``2``, ``0.5`` and ``"0.5"`` pass; nan, inf, text and bools are refused.
    """
    try:
        number = math.nan if isinstance(value, (bool, np.bool_)) else float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    below = number < 0.0 if bound == ">= 0" else number <= 0.0 if bound == "> 0" else False
    if not math.isfinite(number) or below:
        raise ValidationError(f"{what} must be finite{' and ' + bound if bound else ''}, got {value!r}")
    return number


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
            object.__setattr__(self, "coeffs", _frozen(self.coeffs, "diag activation coefficients", 1))
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
        """The activation of ``y`` as a new array; identity returns ``y``."""
        return y if self.kind == "identity" else self._in_place(np.array(y, dtype=np.float64))

    def _in_place(self, y: np.ndarray) -> np.ndarray:
        """Activate the float64 array ``y`` in place and return it; the
        samplers' layer kernel runs it on blocks it owns."""
        if self.kind == "tanh":
            np.tanh(y, out=y)
        elif self.kind == "relu":
            np.maximum(y, 0.0, out=y)
        elif self.kind == "softmax":
            # stabilized along the last axis so batched inputs work too; a
            # row holding inf turns to NaN quietly, for the caller to refuse
            with np.errstate(invalid="ignore"):
                y -= np.max(y, axis=-1, keepdims=True)
                np.exp(y, out=y)
                y /= np.sum(y, axis=-1, keepdims=True)
        elif self.kind == "diag":
            y *= self.coeffs
        return y

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
        object.__setattr__(self, "weights", _frozen(self.weights, "weights", 2))
        object.__setattr__(self, "bias", _frozen(self.bias, "bias", 1))

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
        object.__setattr__(self, "input_dim", _integer(self.input_dim, "input_dim", 1))
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


def _check_input(net: Network, x) -> np.ndarray:
    """``x`` as a finite input vector or an ``(N, d_0)`` matrix of N >= 1 inputs."""
    x = _array(x, "input", (1, 2))
    if x.shape[-1] != net.input_dim or x.size == 0:
        raise ValidationError(
            f"input has shape {x.shape}, expected a vector of length {net.input_dim} "
            f"or an (N, {net.input_dim}) matrix with N >= 1",
            layer=0,
        )
    if not np.all(np.isfinite(x)):
        raise ValidationError("input contains non-finite values", layer=0)
    return x


def forward(net: Network, x) -> np.ndarray:
    """Evaluate the noiseless network on an input vector or on each row of an
    ``(N, d_0)`` matrix; row ``i`` equals the call on ``x[i]`` bit for bit,
    as :func:`affine` runs fixed gemm tiles and activations act row by row."""
    h = _check_input(net, x)
    for layer in net.layers:
        h = layer.activation(affine(layer.weights, layer.bias, h))
    return h


def forward_trace(net: Network, x) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Noiseless evaluation keeping per-layer pre-activations and activations.

    Returns ``(preacts, acts)`` where ``preacts[l] = W x + b`` and
    ``acts[l]`` the activated value, for ``l = 0..L-1``; for an ``(N, d_0)``
    input matrix each entry has one row per input, as in :func:`forward`.
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
    W = _array(W, "W", 2)
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


def _activation_from_json(obj) -> Activation:
    if obj in ("identity", "tanh", "relu", "softmax"):
        return Activation(obj)
    if isinstance(obj, dict) and set(obj) == {"diag"}:
        return Activation.diag_linear(obj["diag"])
    raise ValidationError(
        f"unknown activation {obj!r}" if isinstance(obj, str) else "malformed activation entry"
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
    if not isinstance(obj["layers"], list):
        raise ValidationError("network JSON 'layers' must be a list")
    layers = []
    for i, entry in enumerate(obj["layers"], start=1):
        try:
            if not isinstance(entry, dict) or "weights" not in entry or "bias" not in entry:
                raise ValidationError("needs 'weights' and 'bias'")
            act = _activation_from_json(entry.get("activation", "identity"))
            layers.append(Layer(entry["weights"], entry["bias"], act))
        except ValidationError as exc:
            raise ValidationError(f"layer {i}: {exc}", layer=i) from None
    return Network(tuple(layers), obj["input_dim"])


def _parse_json(data: bytes | str, source: str = "JSON text"):
    """Decode one JSON document; every JSON input of the package comes through here.

    ``orjson`` parses standard JSON, and each float comes back with the bits
    ``json.loads`` gives it.  What ``orjson`` refuses goes to ``json.loads``,
    so ``NaN`` and ``Infinity`` tokens, overflowing numbers such as ``1e400``,
    lone surrogates, a BOM and every malformed document keep the stdlib's
    values and error messages.  Bytes that are not UTF-8 raise a
    ``ValidationError`` naming ``source``.  One difference is left: an integer
    outside ``[-2**63, 2**64)`` comes back as a float, where the stdlib gives an
    int; every integer field refuses such a magnitude either way.
    """
    try:
        return orjson.loads(data)
    except orjson.JSONDecodeError:
        pass
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{source} is not UTF-8 text: {exc}") from None
    return json.loads(data)


def _read_json(path):
    """The JSON document in the file at ``path``, through :func:`_parse_json`."""
    with open(path, "rb") as fh:
        return _parse_json(fh.read(), str(path))


def load_network(path) -> Network:
    return network_from_json(_read_json(path))


def save_network(net: Network, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(network_to_json(net), fh, indent=2)
        fh.write("\n")
