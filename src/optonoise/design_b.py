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

from dataclasses import dataclass

import numpy as np

from .covariance import LinearNet, propagate_b, propagate_b_branchwise
from .network import Network, _integer
from .noise import NoiseProfile, RngStream, SampleStats, _sample

__all__ = [
    "DesignBSpec",
    "design_b_samples",
    "compare_design_b",
    "DesignBComparison",
]


@dataclass(frozen=True, eq=False)
class DesignBSpec:
    """A host network plus the per-layer copy count m (m >= 1)."""

    base: Network
    m: int

    def __post_init__(self):
        object.__setattr__(self, "m", _integer(self.m, "copy count m", 1))


def design_b_samples(
    spec: DesignBSpec, x, profile: NoiseProfile, trials: int, rng: RngStream, *, reference=None
) -> np.ndarray | SampleStats:
    """``trials`` independent combine/split evaluations, trial-vectorized.

    Returns ``(trials, d_L)`` for an input vector ``x`` and ``(N, trials,
    d_L)`` for an ``(N, d_0)`` input matrix (see
    ``noise.noisy_forward_samples``); ``trials=1`` gives one evaluation.
    The ``N * trials`` rows, input major, run in one or two parts
    (``noise._sample``), each with its own sites, and each part in tiles
    of ``noise._GROUP_ROWS``; each block below is a tile's.  Each
    evaluation costs ``m * depth`` weighted additions; the simulator draws
    from the same law with one per layer, on the average of the m branches,
    with weight noise ``Sigma_w / m`` and combine noise ``Sigma_c / m**2``
    (modulation ``Sigma_m / m``).  Layer ``l`` draws on the sites
    ``(kind, l)``: one weight and one combine block for the beam, the
    tile's block ``alpha`` of the split site for branch ``alpha``, and one
    activation block at ``Sigma_a / m`` for the m branches that the next
    beam (or the output) averages, which has the law of one block per
    branch.  Without split noise the m branches are identical until their
    activation noise, and the beam is activated once.  A layer with a
    linear activation (identity or diag) activates the beam once and draws
    all four sources as one block of its merged site, at ``D (Sigma_w / m +
    Sigma_c / m**2 + Sigma_spl / m) D + Sigma_a / m``, the law of the m
    branches' average; on a linear net that is one block per layer.  With
    ``m = 1`` (and zero combine/split covariances) the draws coincide
    site-for-site with ``noise.noisy_forward_samples`` on the same stream.
    With a zero profile every row equals the noiseless forward pass
    bit-exactly at any ``m``: the layers below the first noisy one run once
    per input, as the noiseless pass, and a call that draws nothing (zero
    combine and split included) is that pass alone.  With a
    ``reference`` the call returns the :class:`SampleStats` of its rows
    against it instead, folded in tile by tile (see
    ``noise.noisy_forward_samples``).
    """
    ms = (spec.m,) * spec.base.depth
    return _sample(spec.base, profile, x, trials, rng, ms, ms, combine_split=True,
                   reference=reference)


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
