"""Combine/split noise averaging with linear cost in depth.

Per layer, the design runs m noisy weighted additions in parallel on the
m branch values, merges their sum into a single beam (one combine-noise
draw), splits it back into m branches (an independent split-noise draw
per branch), and activates each branch with independent activation
noise.  The first layer starts from m independently modulated copies of
the input; the final output is the average of the m last-layer branches.
The cost is m weighted additions per layer, m*L in total.

Its analytic companions are two wirings of the covariance engine in
:mod:`optonoise.covariance`.  ``propagate_b_branchwise`` runs the
sampler's own wiring (fan-in and fan-out m per layer), keeps the shared
and per-branch parts apart and matches a faithful simulation exactly.
``propagate_b`` runs fan-out 1, the classical recursion that treats the m
branch values as independent; as the split branches share each combined
beam, from the second layer on it under-counts the shared covariance.

``compare_design_b`` reports both, next to the empirical covariance, so
the discrepancy is visible rather than silently resolved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import LinearNet, _copy_count, propagate_b, propagate_b_branchwise
from .errors import ValidationError
from .network import Network
from .noise import NoiseProfile, RngStream, SampleStats, _sample

__all__ = [
    "DesignBSpec",
    "design_b_samples",
    "suggested_m",
    "compare_design_b",
    "DesignBComparison",
    "design_b_spec_to_json",
    "design_b_spec_from_json",
]


@dataclass(frozen=True, eq=False)
class DesignBSpec:
    """A host network plus the per-layer copy count m (m >= 1)."""

    base: Network
    m: int

    def __post_init__(self):
        object.__setattr__(self, "m", _copy_count(self.m))


def design_b_spec_to_json(spec: DesignBSpec) -> dict:
    from .network import network_to_json

    return {"network": network_to_json(spec.base), "m": spec.m}


def design_b_spec_from_json(obj: dict) -> DesignBSpec:
    from .network import network_from_json

    if not isinstance(obj, dict) or "network" not in obj or "m" not in obj:
        raise ValidationError("design spec JSON needs 'network' and 'm'")
    return DesignBSpec(network_from_json(obj["network"]), obj["m"])


def design_b_samples(
    spec: DesignBSpec, x, profile: NoiseProfile, trials: int, rng: RngStream
) -> np.ndarray:
    """``trials`` independent combine/split evaluations, trial-vectorized.

    Returns ``(trials, d_L)``; ``trials=1`` gives one evaluation.  Each
    evaluation costs ``m * depth`` weighted additions; the simulator draws
    from the same law with one per layer, on the average of the m branches,
    with weight noise ``Sigma_w / m`` and combine noise ``Sigma_c / m**2``
    (modulation ``Sigma_m / m``).  Layer ``l`` draws on the sites
    ``(kind, l)``: one weight and one combine block for the beam, block
    ``alpha`` of the split and activation sites for branch ``alpha``.  With
    ``m = 1`` (and zero combine/split covariances) the draws coincide
    site-for-site with ``noise.noisy_forward_samples`` on the same stream,
    and with a zero profile every row equals the noiseless forward pass
    bit-exactly.
    """
    ms = (spec.m,) * spec.base.depth
    return _sample(spec.base, profile, x, trials, rng, ms, ms, combine_split=True)


def suggested_m(D_norm: float, W_norm: float, variant: str = "theoretical", d: int = 1) -> int:
    """Copy-count heuristics keeping a deep symmetric network's covariance bounded.

    ``theoretical``: ``ceil((|D|_F |W|_F)^2)``, from the convergence
    hypothesis of the covariance series.  ``empirical``: the observed
    contour ``ceil((|D|_F |W|_F / d)^2)`` for width-d scaled identities,
    which is what the grid scan reproduces.  Both bound the ``step_m``
    family, the exact covariance of the tree with m copies per layer and no
    combine/split noise; they do not stabilize combine/split itself.
    """
    if D_norm < 0.0 or W_norm < 0.0:
        raise ValidationError("norms must be nonnegative")
    if variant == "theoretical":
        return max(1, math.ceil((D_norm * W_norm) ** 2))
    if variant == "empirical":
        if d < 1:
            raise ValidationError("dimension must be >= 1 for the empirical variant")
        return max(1, math.ceil((D_norm * W_norm / d) ** 2))
    raise ValidationError(f"unknown variant {variant!r}")


@dataclass(frozen=True, eq=False)
class DesignBComparison:
    """Empirical vs. analytic output covariance of the combine/split design.

    ``recursion`` is the final per-branch covariance of the classical
    recursion; ``recursion_corrected`` applies the terminal averaging
    correction to it (the m last-layer branches share everything except
    split and activation noise, so the average keeps the shared part and
    divides the per-branch part by m).  ``branchwise`` is the exact output
    covariance of the faithful simulation.  The relative Frobenius errors
    quantify each against ``empirical``.  For m >= 2 and depth >= 2 the
    recursion is expected to deviate: it averages the shared covariance
    component once per layer, which the physical wiring does not do.
    """

    m: int
    empirical: np.ndarray
    recursion: np.ndarray
    recursion_corrected: np.ndarray
    branchwise: np.ndarray
    rel_err_recursion_corrected: float
    rel_err_branchwise: float
    trials: int

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "trials": self.trials,
            "empirical": self.empirical.tolist(),
            "recursion": self.recursion.tolist(),
            "recursion_corrected": self.recursion_corrected.tolist(),
            "branchwise": self.branchwise.tolist(),
            "rel_err_recursion_corrected": self.rel_err_recursion_corrected,
            "rel_err_branchwise": self.rel_err_branchwise,
            "note": (
                "the per-layer recursion treats split branches as independent; "
                "a faithful simulation shares each combined beam across branches, "
                "so for m >= 2 and depth >= 2 only the branchwise covariance "
                "matches the simulator"
            ),
        }


def terminal_average_correction(sigma_branch: np.ndarray, profile: NoiseProfile, net: Network, m: int) -> np.ndarray:
    """Covariance of the averaged output, from a per-branch covariance.

    The m final branches share their pre-activation up to split noise;
    averaging keeps the shared part and divides the per-branch part
    (split noise through the activation coefficients, plus activation
    noise) by m.
    """
    d = net.output_dim
    per_branch = profile.activation[-1].matrix(d)
    spl = profile.split.matrix(d)
    if np.any(spl):
        e = net.layers[-1].activation.diag_coefficients(d)
        per_branch = per_branch + (e[:, None] * spl) * e[None, :]
    shared = sigma_branch - per_branch
    return shared + per_branch / m


def compare_design_b(spec: DesignBSpec, profile: NoiseProfile, stats: SampleStats) -> DesignBComparison:
    """Side-by-side covariance comparison for a linear host network.

    ``stats`` are the statistics of a ``design_b_samples`` run of ``spec``
    under ``profile``; their covariance is the report's ``empirical``.
    """
    linnet = LinearNet.from_network(spec.base)
    recursion = propagate_b(linnet, profile, spec.m).final
    corrected = terminal_average_correction(recursion, profile, spec.base, spec.m)
    branchwise = propagate_b_branchwise(linnet, profile, spec.m).output

    def rel_err(pred):
        scale = np.linalg.norm(pred)
        if scale == 0.0:
            return float(np.linalg.norm(stats.covariance))
        return float(np.linalg.norm(stats.covariance - pred) / scale)

    return DesignBComparison(
        m=spec.m,
        empirical=stats.covariance,
        recursion=recursion,
        recursion_corrected=corrected,
        branchwise=branchwise,
        rel_err_recursion_corrected=rel_err(corrected),
        rel_err_branchwise=rel_err(branchwise),
        trials=stats.n,
    )
