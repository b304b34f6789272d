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
from .network import Network, _array, _finite, _integer, affine, forward, lipschitz_bounds  # noqa: F401
from .noise import NoiseProfile, RngStream, SampleStats, _sample

__all__ = [
    "DesignASpec",
    "CopyBudget",
    "DeviationCheckResult",
    "design_a_samples",
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
        object.__setattr__(self, "copies", tuple(_integer(n, "copy count", 1) for n in self.copies))
        if len(self.copies) != self.base.depth + 1:
            raise ValidationError(
                f"copies vector has length {len(self.copies)}, "
                f"expected depth + 1 = {self.base.depth + 1}"
            )
        if self.copies[-1] != 1:
            raise ValidationError("the last layer keeps a single copy (n_L = 1)")


def design_a_samples(
    spec: DesignASpec, x, profile: NoiseProfile, trials: int, rng: RngStream, *, reference=None
) -> np.ndarray | SampleStats:
    """``trials`` independent tree evaluations, vectorized over trials.

    Returns ``(trials, d_L)`` for an input vector ``x`` and ``(N, trials,
    d_L)`` for an ``(N, d_0)`` input matrix; ``trials=1`` gives one
    evaluation.  See ``noise.noisy_forward_samples`` for the contract of
    batched draws.  The ``N * trials`` rows, input major, run in one or two
    parts (``noise._sample``), each with its own sites, and each part in
    tiles of ``noise._GROUP_ROWS``; in each tile a level's block ``j`` is
    the next tile-sized block of the level's site.

    Activation noise follows the activation of every copy, and the parent
    node averages it with its copy: for the ``n_l`` children of a level
    ``l + 1`` node the simulator draws one activation block at
    ``Sigma_a / n_l``, which has the law of one block per child.  The
    output (``n_L = 1``) keeps its activation noise whole; to average it as
    well, insert explicit identity layers
    (``experiments.insert_identity_layers``) and move the activation
    covariance into their weight slot.

    A tree costs ``sum_l prod_{k>=l} n_k`` weighted additions, against the
    linear ``m * L`` of the combine/split design.  The simulator draws from
    the same law with ``n_{l-1}`` times fewer: node ``j`` of level ``l`` is
    one weighted addition of its children's average, with weight noise
    ``Sigma_w / n_{l-1}`` (modulation ``Sigma_m / n_0`` at level 1), and
    takes block ``j`` of the level's weight site; block ``j`` of the level's
    activation site belongs to node ``j`` of the level above.  A level with
    a linear activation (identity or diag) draws fewer again: the mean of
    its nodes is one weighted addition of the mean of their children, so it
    makes one weighted addition per node of the level above and draws its
    weight and activation noise as one block of its merged site at the
    averaged covariance; the levels below it run as many realizations of
    each subtree as it averages, and on a linear net the tree costs one
    weighted addition and one block per layer, as the plain net does.
    Levels over the kernel's byte budget in a tile run in chunks of whole
    subtrees, which changes no sample.  With all copy counts 1 the draws equal
    ``noisy_forward_samples``.  With a zero profile every row equals the
    noiseless forward pass bit-exactly at any copy counts: the levels below
    the first noisy one run once per input, as the noiseless pass, and a
    call that draws nothing is that pass alone.  With a
    ``reference`` the call returns the :class:`SampleStats` of its rows
    against it instead, folded in tile by tile (see
    ``noise.noisy_forward_samples``).
    """
    ones = (1,) * spec.base.depth
    return _sample(spec.base, profile, x, trials, rng, spec.copies[:-1], ones, reference=reference)


def chi_mean(d: int) -> float:
    """Mean 2-norm of a d-dimensional standard normal vector.

    ``mu_d = sqrt(2) * Gamma((d+1)/2) / Gamma(d/2)``, evaluated through
    log-gamma so large dimensions stay accurate (relative error ~1e-12).
    """
    d = _integer(d, "dimension", 1)
    return math.exp(0.5 * math.log(2.0) + math.lgamma((d + 1) / 2.0) - math.lgamma(d / 2.0))


def subgaussian_norm_sq(d: int) -> float:
    """Squared sub-gaussian norm of the 2-norm of a standard normal vector.

    ``g(d) = 4 * 4^(1/d) / (2 * 4^(1/d) - 2)``.  The value grows without
    bound as d grows (the denominator tends to 2 * 1 - 2 = 0); every
    finite d gets the exact finite value.
    """
    d = _integer(d, "dimension", 1)
    r = 4.0 ** (1.0 / d)
    return 4.0 * r / (2.0 * r - 2.0)


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


def budget_feasible(deltas, kappas, deviation_target: float, failure_target: float) -> tuple[str, ...]:
    """The target-split conditions that fail, checked in exact rational arithmetic.

    Feasible (an empty tuple) iff ``sum(deltas) <= deviation_target`` and
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
    return tuple(messages)


_FAILURE_MARGIN = 0.95


def _targets(deviation_target, failure_target) -> tuple[float, float]:
    """``deviation_target > 0`` and ``0 < failure_target <= 1``, checked by name."""
    deviation = _finite(deviation_target, "deviation_target", "> 0")
    failure = _finite(failure_target, "failure_target")
    if not 0.0 < failure <= 1.0:
        raise ValidationError(f"failure_target must lie in (0, 1], got {failure_target!r}")
    return deviation, failure


def equal_split_targets(
    depth: int, deviation_target: float, failure_target: float
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Equal per-layer split of the deviation and failure targets.

    The failure budget is shrunk by ``_FAILURE_MARGIN`` before being split
    so the product condition holds strictly.
    """
    depth = _integer(depth, "depth", 1)
    deviation_target, failure_target = _targets(deviation_target, failure_target)
    deltas = tuple(deviation_target / depth for _ in range(depth))
    kappa = 1.0 - (1.0 - _FAILURE_MARGIN * failure_target) ** (1.0 / depth)
    return deltas, tuple(kappa for _ in range(depth))


def total_copies(copies) -> int:
    """Exact product of the copy counts (arbitrary precision)."""
    return math.prod(_integer(n, "copy count", 1) for n in copies)


def common_variance_bound(profile: NoiseProfile) -> float:
    """Largest variance, isotropic or diagonal entry, over the modulation/weight/activation specs.

    The copy-budget bound assumes diagonal covariances with a common
    variance ceiling; full covariances are rejected.
    """
    bound = 0.0
    for spec in (profile.modulation, *profile.weight, *profile.activation):
        if spec.kind == "full":
            raise ValidationError("the copy budget requires diagonal noise covariances")
        if spec.kind == "isotropic":
            bound = max(bound, spec.var)
        elif spec.kind == "diagonal":
            bound = max(bound, float(np.max(spec.vec, initial=0.0)))
    return bound


def _split(values, name: str, what: str, bound: str = "") -> tuple[float, ...]:
    """A per-layer target list, each entry checked by :func:`_finite`."""
    if isinstance(values, str) or not np.iterable(values):
        raise ValidationError(f"{name} must be a list, got {values!r}")
    return tuple(_finite(v, what, bound) for v in values)


def sufficient_copies(net: Network, sigma_sq: float, deviation_target: float, failure_target: float,
                      deltas=None, kappas=None, hoeffding_C: float = 1.0, hoeffding_c: float = 0.25) -> CopyBudget:
    """Per-layer copy counts putting ``net``'s tree within the deviation/confidence targets.

    ``sigma_sq`` is the common upper bound on all (diagonal) noise
    variances (:func:`common_variance_bound`); the Lipschitz constants,
    operator norms and widths come from ``net``.  ``deltas``/``kappas``
    split the two targets across layers: both or neither, and neither
    means :func:`equal_split_targets`.  ``hoeffding_C`` and
    ``hoeffding_c`` are the absolute constants of the concentration
    inequality; no usable numeric values are published, so the defaults
    (1, 1/4) are placeholders and are flagged as such in emitted budgets.

    Counts are computed back to front (``n_L = 1`` first) because each
    layer's bound shrinks with the number of downstream averaging slots
    ``M_l = prod_{k=l..L} n_k``; each real-valued bound is then ceiled.
    Raises :class:`FeasibilityError` when the targets are not feasible.
    """
    if (deltas is None) != (kappas is None):
        raise ValidationError("deltas and kappas must be given together or not at all")
    deviation_target, failure_target = _targets(deviation_target, failure_target)
    L = net.depth
    if deltas is None:
        deltas, kappas = equal_split_targets(L, deviation_target, failure_target)
    sigma_sq = _finite(sigma_sq, "sigma_sq", ">= 0")
    hoeffding_C = _finite(hoeffding_C, "hoeffding_C", "> 0")
    hoeffding_c = _finite(hoeffding_c, "hoeffding_c", "> 0")
    deltas = _split(deltas, "deltas", "every delta", "> 0")
    kappas = _split(kappas, "kappas", "every kappa")
    if any(not 0.0 < k < 1.0 for k in kappas):
        raise ValidationError("all kappas must lie in (0, 1)")
    if len(deltas) != L or len(kappas) != L:
        raise ValidationError("deltas/kappas must have one entry per layer")
    broken = budget_feasible(deltas, kappas, deviation_target, failure_target)
    if broken:
        raise FeasibilityError("; ".join(broken))

    lipschitz = lipschitz_bounds(net)
    a, w_ops = lipschitz.per_layer, lipschitz.operator_norms
    dims = net.dims()[1:]
    copies = [0] * (L + 1)
    bounds = [0.0] * (L + 1)
    copies[L] = 1
    bounds[L] = 1.0
    for l in range(L, 0, -1):
        downstream = math.prod(copies[l:])  # M_l, exact integer
        amp = math.prod(a[i] for i in range(l - 1, L)) * math.prod(
            w_ops[i] for i in range(l, L)
        )
        d_l = dims[l - 1]
        tail = math.sqrt(
            hoeffding_C**2
            * subgaussian_norm_sq(d_l)
            * (-math.log(kappas[l - 1] / 2.0))
            / (hoeffding_c * downstream)
        )
        bound = (sigma_sq * amp**2 / deltas[l - 1] ** 2) * (tail + chi_mean(d_l)) ** 2
        bounds[l - 1] = bound
        copies[l - 1] = max(1, math.ceil(bound))
    return CopyBudget(
        copies=tuple(copies),
        total=total_copies(copies),
        bounds=tuple(bounds),
        hoeffding_C=hoeffding_C,
        hoeffding_c=hoeffding_c,
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
    suffices for linear networks; a set, a list of input vectors or an
    ``(N, d_0)`` matrix, is accepted for nonlinear hosts.  All inputs are
    drawn in one kernel call on ``RngStream(seed)``, the draws of
    ``design_a_samples(spec, inputs, profile, trials, RngStream(seed))``,
    whose tiles are scored as they are drawn, so the samples are never held.
    """
    trials = _integer(trials, "trials", 100)
    deviation_allowance = _finite(deviation_allowance, "deviation_allowance", ">= 0")
    if len(inputs) == 0:
        raise ValidationError("deviation_check needs at least one input")
    inputs = _array(inputs, "inputs", 2)
    _, worst, _ = _sample(spec.base, profile, inputs, trials, RngStream(seed), spec.copies[:-1],
                          (1,) * spec.base.depth, scores=(forward(spec.base, inputs), None))
    failures = int(np.count_nonzero(np.sqrt(worst) >= deviation_allowance))
    low, high = wilson_interval(failures, trials)
    return DeviationCheckResult(
        trials=trials,
        failures=failures,
        failure_rate=failures / trials,
        wilson_low=low,
        wilson_high=high,
        deviation_allowance=deviation_allowance,
    )
