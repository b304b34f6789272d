"""Tree-replication noise averaging and its sufficient copy budgets.

The design replaces a depth-L network by a tree: layer ``l`` consumes
``n_{l-1}`` independent copies of the upstream subnetwork, performs a
noisy weighted addition on each, averages the results, and activates the
average.  The leaves are independently modulated copies of the input.
The last layer keeps a single copy, whose output is the network output.

Averaging inside every layer suppresses the weighted-addition noise by
the law of large numbers; enough copies per layer make the output land
within any chosen distance of the noiseless network with any chosen
probability.  ``sufficient_copies`` computes such a budget from a
Hoeffding bound on sums of chi-distributed noise norms: layer ``l``'s
deviation share is controlled by

    n_{l-1} >= sigma^2 * (prod_{i=l..L} a_i * prod_{i=l+1..L} ||W_i||_op)^2
               / delta_l^2
               * ( sqrt(C^2 * g(d_l) * (-ln(kappa_l / 2)) / (c * M_l))
                   + mu(d_l) )^2

where ``mu(d)`` is the mean 2-norm of a d-dimensional standard normal
vector, ``g(d) = 4 * 4^(1/d) / (2 * 4^(1/d) - 2)`` its squared
sub-gaussian norm, ``M_l = prod_{k=l..L} n_k`` the number of downstream
averaging slots, and ``C, c`` the absolute constants of the concentration
inequality.  The concentration literature does not give usable numeric
values for ``C, c``; they are explicit parameters here (defaults 1 and
1/4) and every emitted budget flags them as assumed placeholders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import FeasibilityError, ValidationError
# ``affine`` is unused here; bench/test_bench.py reads it on this module
from .network import LipschitzReport, Network, _integer, affine, forward  # noqa: F401
from .noise import NoiseProfile, RngStream, _sample

__all__ = [
    "DesignASpec",
    "CopyBudgetRequest",
    "CopyBudget",
    "FeasibilityReport",
    "DeviationCheckResult",
    "design_a_samples",
    "design_a_spec_to_json",
    "design_a_spec_from_json",
    "chi_mean",
    "subgaussian_norm_sq",
    "sufficient_copies",
    "budget_feasible",
    "total_copies",
    "deviation_check",
    "common_variance_bound",
    "equal_split_targets",
    "wilson_interval",
]


@dataclass(frozen=True, eq=False)
class DesignASpec:
    """A host network plus the copy counts ``n_0 .. n_L`` of the tree.

    ``copies`` has length L+1; the last entry must be 1 (single output
    copy); all entries are positive.
    """

    base: Network
    copies: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "copies", tuple(_integer(n, "copy count") for n in self.copies))
        if len(self.copies) != self.base.depth + 1:
            raise ValidationError(
                f"copies vector has length {len(self.copies)}, "
                f"expected depth + 1 = {self.base.depth + 1}"
            )
        if any(n < 1 for n in self.copies):
            raise ValidationError("all copy counts must be >= 1")
        if self.copies[-1] != 1:
            raise ValidationError("the last layer keeps a single copy (n_L = 1)")


def design_a_spec_to_json(spec: DesignASpec) -> dict:
    from .network import network_to_json

    return {"network": network_to_json(spec.base), "copies": list(spec.copies)}


def design_a_spec_from_json(obj: dict) -> DesignASpec:
    from .network import network_from_json

    if not isinstance(obj, dict) or "network" not in obj or "copies" not in obj:
        raise ValidationError("design spec JSON needs 'network' and 'copies'")
    return DesignASpec(network_from_json(obj["network"]), tuple(obj["copies"]))


def design_a_samples(
    spec: DesignASpec, x, profile: NoiseProfile, trials: int, rng: RngStream
) -> np.ndarray:
    """``trials`` independent tree evaluations, vectorized over trials.

    Returns ``(trials, d_L)``; ``trials=1`` gives one evaluation.  See
    ``noise.noisy_forward_samples`` for the contract of batched draws.

    Activation noise is added per produced copy, right after the
    activation: this is exactly the evaluation of an appended identity
    layer (unit weights, zero bias) whose weighted addition carries that
    noise and keeps one copy.  To average activation noise as well, insert
    explicit identity layers (``experiments.insert_identity_layers``) and
    move the activation covariance into their weight slot.

    A tree costs ``sum_l prod_{k>=l} n_k`` weighted additions, against the
    linear ``m * L`` of the combine/split design.  The simulator draws from
    the same law with ``n_{l-1}`` times fewer: node ``j`` of level ``l`` is
    one weighted addition of its children's average, with weight noise
    ``Sigma_w / n_{l-1}`` (modulation ``Sigma_m / n_0`` at level 1), and
    takes block ``j`` of the level's sites.  Levels over the kernel's byte
    budget run in chunks of whole subtrees, which changes no sample.  With
    all copy counts 1 the draws equal ``noisy_forward_samples``, and with a
    zero profile every row equals the noiseless forward pass bit-exactly.
    """
    ones = (1,) * spec.base.depth
    return _sample(spec.base, profile, x, trials, rng, spec.copies[:-1], ones)


def chi_mean(d: int) -> float:
    """Mean 2-norm of a d-dimensional standard normal vector.

    ``mu_d = sqrt(2) * Gamma((d+1)/2) / Gamma(d/2)``, evaluated through
    log-gamma so large dimensions stay accurate (relative error ~1e-12).
    """
    if d < 1:
        raise ValidationError("dimension must be >= 1")
    return math.exp(0.5 * math.log(2.0) + math.lgamma((d + 1) / 2.0) - math.lgamma(d / 2.0))


def subgaussian_norm_sq(d: int) -> float:
    """Squared sub-gaussian norm of the 2-norm of a standard normal vector.

    ``g(d) = 4 * 4^(1/d) / (2 * 4^(1/d) - 2)``.  The value grows without
    bound as d grows (the denominator tends to 2 * 1 - 2 = 0); every
    finite d gets the exact finite value.
    """
    if d < 1:
        raise ValidationError("dimension must be >= 1")
    r = 4.0 ** (1.0 / d)
    return 4.0 * r / (2.0 * r - 2.0)


@dataclass(frozen=True, eq=False)
class CopyBudgetRequest:
    """Inputs of the sufficient-copy computation.

    ``sigma_sq`` is the common upper bound on all (diagonal) noise
    variances; ``deltas``/``kappas`` split the total deviation target
    ``deviation_target`` and failure budget ``failure_target`` across
    layers.  ``hoeffding_C`` and ``hoeffding_c`` are the absolute
    constants of the concentration inequality; no usable numeric values
    are published, so the defaults (1, 1/4) are placeholders and are
    flagged as such in emitted budgets.
    """

    sigma_sq: float
    deltas: tuple[float, ...]
    kappas: tuple[float, ...]
    lipschitz: LipschitzReport
    deviation_target: float
    failure_target: float
    hoeffding_C: float = 1.0
    hoeffding_c: float = 0.25

    def __post_init__(self):
        object.__setattr__(self, "deltas", tuple(float(d) for d in self.deltas))
        object.__setattr__(self, "kappas", tuple(float(k) for k in self.kappas))
        if self.sigma_sq < 0.0:
            raise ValidationError("sigma_sq must be >= 0")
        if len(self.deltas) != len(self.kappas):
            raise ValidationError("deltas and kappas must have equal length")
        if any(d <= 0.0 for d in self.deltas):
            raise ValidationError("all deltas must be positive")
        if any(not 0.0 < k < 1.0 for k in self.kappas):
            raise ValidationError("all kappas must lie in (0, 1)")
        if self.hoeffding_C <= 0.0 or self.hoeffding_c <= 0.0:
            raise ValidationError("Hoeffding constants must be positive")


@dataclass(frozen=True, eq=False)
class CopyBudget:
    """Computed per-layer copy counts and their exact total product.

    ``bounds[l]`` is the real-valued lower bound whose ceiling produced
    ``copies[l]``; ``total`` is the exact (arbitrary-precision) product of
    all entries.
    """

    copies: tuple[int, ...]
    total: int
    bounds: tuple[float, ...]
    hoeffding_C: float
    hoeffding_c: float

    def to_json(self) -> dict:
        return {
            "copies": list(self.copies),
            "bounds": list(self.bounds),
            "total": str(self.total),
            "hoeffding_C": self.hoeffding_C,
            "hoeffding_c": self.hoeffding_c,
            "constants_are_placeholders": True,
        }


@dataclass(frozen=True, eq=False)
class FeasibilityReport:
    feasible: bool
    messages: tuple[str, ...]


def budget_feasible(deltas, kappas, deviation_target: float, failure_target: float) -> FeasibilityReport:
    """Check the two target-split conditions in exact rational arithmetic.

    Feasible iff ``sum(deltas) <= deviation_target`` and
    ``prod(1 - kappa) > 1 - failure_target``.  Floats are exact rationals,
    so both comparisons are performed without rounding.
    """
    messages = []
    delta_sum = sum(Fraction(float(d)) for d in deltas)
    if delta_sum > Fraction(float(deviation_target)):
        messages.append(
            f"sum of deltas {float(delta_sum):.6g} exceeds the deviation target "
            f"{deviation_target:.6g}"
        )
    prod = Fraction(1)
    for k in kappas:
        prod *= 1 - Fraction(float(k))
    if not prod > 1 - Fraction(float(failure_target)):
        messages.append(
            f"prod(1 - kappa) = {float(prod):.6g} is not above "
            f"1 - failure target = {1.0 - failure_target:.6g}"
        )
    return FeasibilityReport(feasible=not messages, messages=tuple(messages))


def equal_split_targets(
    depth: int, deviation_target: float, failure_target: float, margin: float = 0.95
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Equal per-layer split of the deviation and failure targets.

    The failure budget is shrunk by ``margin`` before being split so the
    product condition holds strictly.
    """
    deltas = tuple(deviation_target / depth for _ in range(depth))
    kappa = 1.0 - (1.0 - margin * failure_target) ** (1.0 / depth)
    return deltas, tuple(kappa for _ in range(depth))


def total_copies(copies) -> int:
    """Exact product of the copy counts (arbitrary precision)."""
    counts = [_integer(n, "copy count") for n in copies]
    if any(n < 1 for n in counts):
        raise ValidationError("all copy counts must be >= 1")
    return math.prod(counts)


def common_variance_bound(profile: NoiseProfile, input_dim: int, layer_dims) -> float:
    """Largest diagonal entry over the modulation/weight/activation specs.

    The copy-budget bound assumes diagonal covariances with a common
    variance ceiling; full covariances are rejected.
    """
    specs = [(profile.modulation, input_dim)] + [
        (s, d) for s, d in zip(profile.weight, layer_dims)
    ] + [(s, d) for s, d in zip(profile.activation, layer_dims)]
    bound = 0.0
    for spec, dim in specs:
        if spec.kind == "full":
            raise ValidationError(
                "the copy budget requires diagonal noise covariances"
            )
        bound = max(bound, spec.max_diagonal(dim))
    return bound


def sufficient_copies(req: CopyBudgetRequest, dims) -> CopyBudget:
    """Per-layer copy counts guaranteeing the deviation/confidence targets.

    ``dims`` are the layer output dimensions ``d_1 .. d_L``.  Counts are
    computed back to front (``n_L = 1`` first) because each layer's bound
    shrinks with the number of downstream averaging slots
    ``M_l = prod_{k=l..L} n_k``; each real-valued bound is then ceiled.
    Raises :class:`FeasibilityError` when the targets are not feasible.
    """
    dims = [int(d) for d in dims]
    L = len(dims)
    if L != len(req.deltas):
        raise ValidationError("deltas/kappas must have one entry per layer")
    a = np.asarray(req.lipschitz.per_layer, dtype=np.float64)
    w_ops = np.asarray(req.lipschitz.operator_norms, dtype=np.float64)
    if a.shape[0] != L or w_ops.shape[0] != L:
        raise ValidationError("Lipschitz report must have one entry per layer")
    report = budget_feasible(req.deltas, req.kappas, req.deviation_target, req.failure_target)
    if not report.feasible:
        raise FeasibilityError("; ".join(report.messages))

    copies = [0] * (L + 1)
    bounds = [0.0] * (L + 1)
    copies[L] = 1
    bounds[L] = 1.0
    for l in range(L, 0, -1):
        downstream = math.prod(copies[l:])  # M_l, exact integer
        amp = math.prod(a[i] for i in range(l - 1, L)) * math.prod(
            w_ops[i] for i in range(l, L)
        )
        delta = req.deltas[l - 1]
        kappa = req.kappas[l - 1]
        d_l = dims[l - 1]
        tail = math.sqrt(
            req.hoeffding_C**2
            * subgaussian_norm_sq(d_l)
            * (-math.log(kappa / 2.0))
            / (req.hoeffding_c * downstream)
        )
        bound = (req.sigma_sq * amp**2 / delta**2) * (tail + chi_mean(d_l)) ** 2
        bounds[l - 1] = bound
        copies[l - 1] = max(1, math.ceil(bound))
    return CopyBudget(
        copies=tuple(copies),
        total=total_copies(copies),
        bounds=tuple(bounds),
        hoeffding_C=req.hoeffding_C,
        hoeffding_c=req.hoeffding_c,
    )


def wilson_interval(successes: int, n: int, confidence: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n < 1:
        raise ValidationError("need at least one observation")
    from scipy.stats import norm

    z = float(norm.ppf(0.5 + confidence / 2.0))
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == n else min(1.0, center + half)
    return low, high


@dataclass(frozen=True, eq=False)
class DeviationCheckResult:
    """Empirical failure rate of the deviation guarantee.

    A trial fails when the worst deviation over the input set reaches the
    allowance; ``wilson_low``/``wilson_high`` bound the failure
    probability at 95% confidence.
    """

    trials: int
    failures: int
    failure_rate: float
    wilson_low: float
    wilson_high: float
    deviation_allowance: float


def deviation_check(
    spec: DesignASpec,
    profile: NoiseProfile,
    inputs,
    deviation_allowance: float,
    trials: int,
    seed: int,
) -> DeviationCheckResult:
    """Monte Carlo check of the deviation guarantee at a given budget.

    For each trial, every input is pushed through the replication tree and
    the trial fails unless the maximum deviation from the noiseless
    network stays strictly below the allowance.  The deviation bound
    behind the copy budget is input-independent, so a single input
    suffices for linear networks; a set is accepted for nonlinear hosts.
    """
    trials = _integer(trials, "trials")
    if trials < 100:
        raise ValidationError("deviation_check needs trials >= 100")
    inputs = [np.asarray(x, dtype=np.float64) for x in inputs]
    if not inputs:
        raise ValidationError("deviation_check needs at least one input")
    root = RngStream(seed)
    worst = np.zeros(trials)
    for i, x in enumerate(inputs):
        reference = forward(spec.base, x)
        samples = design_a_samples(spec, x, profile, trials, root.child(i))
        dev = np.linalg.norm(samples - reference, axis=1)
        worst = np.maximum(worst, dev)
    failures = int(np.sum(worst >= deviation_allowance))
    low, high = wilson_interval(failures, trials)
    return DeviationCheckResult(
        trials=trials,
        failures=failures,
        failure_rate=failures / trials,
        wilson_low=low,
        wilson_high=high,
        deviation_allowance=deviation_allowance,
    )
