"""Desk-scale experiment harness: calibration, sweeps, and grid scans.

Everything here emits plain rows (lists of dicts) that the CLI writes as
CSV or JSON.  Every row carries the trial count and seed it was produced
with, and every point estimate comes with its confidence interval.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .covariance import SymmetricConfig, min_stable_m
from .design_a import DesignASpec, design_a_samples, wilson_interval
from .design_b import DesignBSpec, design_b_samples
from .errors import ValidationError
from .network import Activation, Layer, Network, _integer, forward, forward_trace
from .noise import CovSpec, NoiseProfile, RngStream, noisy_forward_samples

__all__ = [
    "ExperimentConfig",
    "InsertionPlan",
    "calibrate_noise",
    "insertion_tuple",
    "plan_insertions",
    "insert_identity_layers",
    "run_mse_experiment",
    "run_accuracy_experiment",
    "run_depth_sweep",
    "scan_m_grid",
    "write_csv",
    "normal_interval",
]

DEFAULT_SLOTS = (1, 3, 5, 7)


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Resolved experiment inputs.

    ``design`` selects the noise-averaging scheme: "a" (tree replication)
    or "b" (combine/split).  ``inputs`` is an ``(N, d_0)`` matrix;
    ``labels`` an optional integer vector for classification experiments.
    ``config_hash`` is carried into every output row.
    """

    network: Network
    profile: NoiseProfile
    design: str
    inputs: np.ndarray
    trials: int
    seed: int
    labels: np.ndarray | None = None
    confidence: float = 0.95
    config_hash: str = ""

    def __post_init__(self):
        if self.design not in ("a", "b"):
            raise ValidationError(f"design must be 'a' or 'b', got {self.design!r}")
        object.__setattr__(self, "trials", _integer(self.trials, "trials"))
        object.__setattr__(self, "seed", _integer(self.seed, "seed"))
        if self.trials < 2:
            raise ValidationError("experiments need trials >= 2")
        inputs = np.asarray(self.inputs, dtype=np.float64)
        if inputs.ndim != 2 or inputs.shape[1] != self.network.input_dim:
            raise ValidationError(
                f"inputs must be an (N, {self.network.input_dim}) matrix"
            )
        if inputs.shape[0] == 0:
            raise ValidationError("experiments need at least one input")
        object.__setattr__(self, "inputs", inputs)
        if self.labels is not None:
            labels = _integer_labels(self.labels)
            if labels.shape != (inputs.shape[0],):
                raise ValidationError("labels must have one entry per input")
            classes = self.network.output_dim
            if np.any((labels < 0) | (labels >= classes)):
                raise ValidationError(f"labels must lie in 0..{classes - 1}")
            object.__setattr__(self, "labels", labels)
        if not 0.0 < self.confidence < 1.0:
            raise ValidationError("confidence must lie in (0, 1)")


def _integer_labels(labels) -> np.ndarray:
    """``labels`` as int64 under ``network._integer``'s rule, element-wise:
    finite integral values pass; fractions, text and bools are refused."""
    labels = np.asarray(labels)
    try:
        values = labels.astype(np.float64)
    except (TypeError, ValueError):
        values = np.full(labels.shape, np.nan)
    bad = ~(np.isfinite(values) & (values == np.round(values))) | (labels.dtype.kind == "b")
    if np.any(bad):
        raise ValidationError(f"labels must be integers, got {labels[bad].tolist()[0]!r}")
    return values.astype(np.int64)


def normal_interval(samples: np.ndarray, confidence: float = 0.95) -> tuple[float, float]:
    """Normal-approximation confidence interval for the sample mean."""
    from scipy.stats import norm

    samples = np.asarray(samples, dtype=np.float64)
    n = samples.shape[0]
    mean = float(samples.mean())
    if n < 2:
        return mean, mean
    z = float(norm.ppf(0.5 + confidence / 2.0))
    half = z * float(samples.std(ddof=1)) / math.sqrt(n)
    return mean - half, mean + half


def _fraction(name: str, value) -> float:
    """``value`` as a finite float ``>= 0``; text, bools and other types are refused."""
    try:
        fraction = math.nan if isinstance(value, (bool, np.bool_)) else float(value)
    except (TypeError, ValueError, OverflowError):
        fraction = math.nan
    if not (math.isfinite(fraction) and fraction >= 0.0):
        raise ValidationError(f"{name} must be finite and >= 0, got {value!r}")
    return fraction


def calibrate_noise(
    net: Network,
    calibration_inputs,
    w_fraction: float,
    a_fraction: float,
    m_fraction: float | None = None,
) -> NoiseProfile:
    """Build a noise profile from per-layer signal diameters.

    The noiseless network is run over the calibration set; each layer's
    signal diameter is the largest per-coordinate range (max minus min
    across the calibration inputs) of its pre-activations (for
    weighted-addition noise) and of its activations (for activation
    noise).  The standard deviation at a layer is then ``fraction *
    diameter``, i.e. the variance is its square.  Modulation noise is
    calibrated the same way on the raw inputs; by default it reuses
    ``a_fraction`` (re-modulating an activation and modulating the input
    are the same physical step), pass ``m_fraction`` to override.

    A zero diameter (in particular any single-input calibration set, where
    per-coordinate ranges collapse) produces a zero variance at that
    layer, with a warning.
    """
    if m_fraction is None:
        m_fraction = a_fraction
    w_fraction, a_fraction, m_fraction = (
        _fraction(name, value) for name, value in (
            ("w_fraction", w_fraction), ("a_fraction", a_fraction), ("m_fraction", m_fraction)
        )
    )
    inputs = [np.asarray(x, dtype=np.float64) for x in calibration_inputs]
    if not inputs:
        raise ValidationError("calibration needs at least one input")

    preacts = [[] for _ in range(net.depth)]
    acts = [[] for _ in range(net.depth)]
    for x in inputs:
        z, a = forward_trace(net, x)
        for l in range(net.depth):
            preacts[l].append(z[l])
            acts[l].append(a[l])

    def diameter(vectors, what):
        stacked = np.stack(vectors)
        diam = float((stacked.max(axis=0) - stacked.min(axis=0)).max())
        if diam == 0.0:
            warnings.warn(
                f"zero signal diameter at {what}; calibrated variance is 0",
                stacklevel=3,
            )
        return diam

    def spec(fraction, diam):
        var = (fraction * diam) ** 2
        return CovSpec.isotropic(var) if var > 0.0 else CovSpec.zero()

    input_diam = diameter(inputs, "the input")
    weight_specs = tuple(
        spec(w_fraction, diameter(preacts[l], f"layer {l + 1} pre-activations"))
        for l in range(net.depth)
    )
    act_specs = tuple(
        spec(a_fraction, diameter(acts[l], f"layer {l + 1} activations"))
        for l in range(net.depth)
    )
    return NoiseProfile(spec(m_fraction, input_diam), weight_specs, act_specs)


# ---------------------------------------------------------------------------
# Identity-layer insertion
# ---------------------------------------------------------------------------


def insertion_tuple(n: int) -> tuple[int, int, int, int]:
    """Distribute n additional layers over the four slots.

    ``(floor((n+3)/4), floor((n+2)/4), floor((n+1)/4), floor(n/4))``:
    entries sum to n, are nonincreasing, and differ by at most one.
    """
    n = _integer(n, "layer count")
    if n < 0:
        raise ValidationError("layer count must be >= 0")
    return ((n + 3) // 4, (n + 2) // 4, (n + 1) // 4, n // 4)


@dataclass(frozen=True, eq=False)
class InsertionPlan:
    """Where the n additional identity layers go: ``counts[i]`` layers
    after layer ``slots[i]`` (1-based)."""

    n: int
    counts: tuple[int, int, int, int]
    slots: tuple[int, int, int, int]


def plan_insertions(net: Network, n: int, slots=None) -> InsertionPlan:
    counts = insertion_tuple(n)
    if slots is None:
        if net.depth < 8:
            raise ValidationError(
                "default insertion slots need a network of depth >= 8; "
                "pass an explicit 4-entry slot list for shallower networks"
            )
        slots = DEFAULT_SLOTS
    slots = tuple(_integer(s, "insertion slot") for s in slots)
    if len(slots) != 4:
        raise ValidationError("need exactly four insertion slots")
    for s in slots:
        if not 1 <= s <= net.depth - 1:
            raise ValidationError(f"insertion slot {s} out of range 1..{net.depth - 1}")
    return InsertionPlan(n=sum(counts), counts=counts, slots=slots)


def insert_identity_layers(net: Network, n: int, slots=None) -> Network:
    """Insert n identity layers (unit weights, zero bias, identity
    activation) at the four slots, with multiplicities from
    :func:`insertion_tuple`.

    The noiseless map is unchanged bit-exactly; under noise the inserted
    layers add noise sources, which is their purpose in depth sweeps.
    """
    plan = plan_insertions(net, n, slots)
    layers = list(net.layers)
    # insert right-to-left so earlier slot positions stay valid
    for slot, count in sorted(zip(plan.slots, plan.counts), reverse=True):
        dim = layers[slot - 1].out_dim
        identity = Layer(np.eye(dim), np.zeros(dim), Activation.identity())
        for _ in range(count):
            layers.insert(slot, identity)
    return Network(tuple(layers), net.input_dim)


# ---------------------------------------------------------------------------
# Copy-count sweeps
# ---------------------------------------------------------------------------


def _design_samples(cfg: ExperimentConfig, net, profile, copies: int, x, stream):
    """Samples of the configured design at one grid point.

    Grid value ``copies`` means uniform per-layer counts ``(n, ..., n, 1)``
    for the tree design and ``m = copies`` for combine/split.  Streams are
    keyed by the grid value, so a copies-1 run of either design consumes
    exactly the sites of the unmodified noisy network.
    """
    if cfg.design == "a":
        spec = DesignASpec(net, (copies,) * net.depth + (1,))
        return design_a_samples(spec, x, profile, cfg.trials, stream)
    return design_b_samples(DesignBSpec(net, copies), x, profile, cfg.trials, stream)


def _copies_grid(copies_grid) -> list[int]:
    copies_grid = [_integer(n, "copies grid entry") for n in copies_grid]
    if not copies_grid or any(n < 1 for n in copies_grid):
        raise ValidationError("copies grid must be nonempty positive integers")
    return copies_grid


def _grid_point(cfg: ExperimentConfig, net, profile, copies: int, references, root,
                plain: bool = False) -> tuple[np.ndarray, int]:
    """Evaluate one ``(net, profile, copies)`` grid point over ``cfg.inputs``.

    Input ``i`` draws on ``root.child(copies, i)``; ``references`` holds the
    noiseless outputs, one row per input.  ``plain`` draws the unmodified
    noisy network instead of the design.  Returns the per-trial squared
    deviation per output coordinate, averaged over inputs, and the count of
    correct argmax decisions (0 without labels).
    """
    per_trial = np.zeros(cfg.trials)
    hits = 0
    for i, (x, reference) in enumerate(zip(cfg.inputs, references)):
        stream = root.child(copies, i)
        if plain:
            samples = noisy_forward_samples(net, profile, x, cfg.trials, stream)
        else:
            samples = _design_samples(cfg, net, profile, copies, x, stream)
        per_trial += np.sum((samples - reference) ** 2, axis=1) / references.shape[1]
        if cfg.labels is not None:
            hits += int(np.count_nonzero(np.argmax(samples, axis=1) == cfg.labels[i]))
    return per_trial / cfg.inputs.shape[0], hits


def _references(cfg: ExperimentConfig, net) -> np.ndarray:
    return np.array([forward(net, x) for x in cfg.inputs])


def _mse_columns(cfg: ExperimentConfig, per_trial: np.ndarray) -> dict:
    low, high = normal_interval(per_trial, cfg.confidence)
    return {"mse": float(per_trial.mean()), "ci_low": low, "ci_high": high}


def _wilson_columns(cfg: ExperimentConfig, hits: int, key: str) -> dict:
    total = cfg.trials * cfg.inputs.shape[0]
    low, high = wilson_interval(hits, total, cfg.confidence)
    return {key: hits / total, "acc_low": low, "acc_high": high}


def run_mse_experiment(cfg: ExperimentConfig, copies_grid) -> list[dict]:
    """Mean squared error against the noiseless network per grid point.

    The reported mse is the per-coordinate mean squared deviation,
    averaged over trials and inputs; ``ci_low``/``ci_high`` bound the mean
    at ``cfg.confidence`` (normal approximation over trials).
    """
    copies_grid = _copies_grid(copies_grid)
    root = RngStream(cfg.seed)
    references = _references(cfg, cfg.network)
    rows = []
    for copies in copies_grid:
        per_trial, _ = _grid_point(cfg, cfg.network, cfg.profile, copies, references, root)
        rows.append({"design": cfg.design, "copies": copies, **_mse_columns(cfg, per_trial),
                     "trials": cfg.trials, "seed": cfg.seed})
    return rows


def run_accuracy_experiment(cfg: ExperimentConfig, copies_grid) -> list[dict]:
    """Classification accuracy of the design vs. the two anchors.

    Needs ``cfg.labels``.  Per grid point, reports the design's accuracy
    (argmax decision, pooled over trials and inputs, Wilson interval at
    ``cfg.confidence``), the unmodified noisy network's accuracy on the
    same stream layout, the noiseless accuracy, and the relative accuracy
    ``(acc_design - acc_onn) / (acc_nn - acc_onn)``, which rescales between
    the noisy baseline (0) and the noiseless network (1); the relative
    column carries the marker "undefined" when noiseless and baseline
    accuracy coincide.
    """
    copies_grid = _copies_grid(copies_grid)
    if cfg.labels is None:
        raise ValidationError("accuracy experiments need labels")
    root = RngStream(cfg.seed)
    references = _references(cfg, cfg.network)
    noiseless_hits = int(np.count_nonzero(np.argmax(references, axis=1) == cfg.labels))
    acc_nn = noiseless_hits / cfg.inputs.shape[0]

    # baseline: unmodified noisy network, streams keyed like a copies-1 run
    _, baseline_hits = _grid_point(cfg, cfg.network, cfg.profile, 1, references, root, plain=True)
    acc_onn = baseline_hits / (cfg.trials * cfg.inputs.shape[0])

    # one copy of either design draws what the baseline drew (design b only
    # without combine/split noise), so that row reuses the baseline hits
    one_copy_is_plain = cfg.design == "a" or (
        cfg.profile.combine.is_zero and cfg.profile.split.is_zero
    )
    denom = acc_nn - acc_onn
    rows = []
    for copies in copies_grid:
        if copies == 1 and one_copy_is_plain:
            hits = baseline_hits
        else:
            _, hits = _grid_point(cfg, cfg.network, cfg.profile, copies, references, root)
        columns = _wilson_columns(cfg, hits, "acc_design")
        relative = "undefined" if denom == 0.0 else (columns["acc_design"] - acc_onn) / denom
        rows.append({"design": cfg.design, "copies": copies, **columns, "acc_onn": acc_onn,
                     "acc_nn": acc_nn, "relative": relative, "trials": cfg.trials,
                     "seed": cfg.seed})
    return rows


def run_depth_sweep(
    cfg: ExperimentConfig, n_grid, variance_grid, copies: int, slots=None
) -> list[dict]:
    """MSE (and accuracy, when labels are present) over inserted identity
    layers and noise-variance levels.

    Each cell inserts ``n`` identity layers, applies isotropic weight and
    activation noise at the given variance to every layer of the deepened
    network (modulation left noiseless so the sweep isolates layer noise),
    and evaluates the configured design at the given uniform copy count.
    Streams are keyed as in :func:`run_mse_experiment`: the zero-insertion
    row reproduces the base experiment draw for draw, and the variance axis
    shares underlying normals (common random numbers) across levels.
    """
    n_grid = [_integer(n, "inserted layer count") for n in n_grid]
    variance_grid = [float(v) for v in variance_grid]
    if not n_grid or not variance_grid:
        raise ValidationError("depth sweep needs nonempty grids")
    if any(n < 0 for n in n_grid) or any(v < 0 for v in variance_grid):
        raise ValidationError("grids must be nonnegative")
    root = RngStream(cfg.seed)
    rows = []
    for n_add in n_grid:
        net = insert_identity_layers(cfg.network, n_add, slots)
        references = _references(cfg, net)
        for var in variance_grid:
            profile = NoiseProfile.isotropic(net.depth, weight_var=var, activation_var=var)
            per_trial, hits = _grid_point(cfg, net, profile, copies, references, root)
            row = {"layers_added": n_add, "variance": var, "copies": copies,
                   **_mse_columns(cfg, per_trial), "trials": cfg.trials, "seed": cfg.seed}
            if cfg.labels is not None:
                row.update(_wilson_columns(cfg, hits, "accuracy"))
            rows.append(row)
    return rows


def scan_m_grid(d: int, norm_grid_W, norm_grid_D, L: int = 60, growth_tol: float = 1e-6) -> list[dict]:
    """Minimal stabilizing copy count over a grid of Frobenius norms.

    Each cell uses width-d scaled identities: ``W = (w/sqrt(d)) I`` and
    coefficients ``(x/sqrt(d))`` so the Frobenius norms match the grid
    values exactly.  The trajectory is driven by unit modulation
    covariance alone, which makes the depth-L norm ratio exactly the
    per-layer growth factor; the tight default tolerance then separates
    growing from non-growing cells cleanly.
    """
    if d < 1:
        raise ValidationError("width d must be >= 1")
    norms_w = [float(w) for w in norm_grid_W]
    norms_d = [float(x) for x in norm_grid_D]
    if any(w <= 0 for w in norms_w) or any(x <= 0 for x in norms_d):
        raise ValidationError("norm grids must be positive")
    sqrt_d = math.sqrt(d)
    rows = []
    for norm_w in norms_w:
        for norm_d in norms_d:
            cfg = SymmetricConfig(
                e=(norm_d / sqrt_d) * np.ones(d),
                W=(norm_w / sqrt_d) * np.eye(d),
                sigma_m=CovSpec.isotropic(1.0),
                sigma_w=CovSpec.zero(),
                sigma_a=CovSpec.zero(),
            )
            rows.append(
                {
                    "norm_W": norm_w,
                    "norm_D": norm_d,
                    "min_m": min_stable_m(cfg, L, growth_tol=growth_tol),
                }
            )
    return rows


def write_csv(path, rows: list[dict], fieldnames=None) -> None:
    """Write rows as CSV: comma separator, '.' decimals, mandatory header."""
    if not rows:
        raise ValidationError("refusing to write an empty table")
    if fieldnames is None:
        fieldnames = list(rows[0].keys())
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
