"""Exact covariance propagation for linear noisy networks.

For networks whose activations are element-wise multiplications by fixed
coefficients, the output of a noisy evaluation is normal around the
noiseless output, and its covariance is obtained by iterating a per-layer
map.  With ``A = D W`` (``D`` the diagonal activation matrix), every
recursion here runs one layer step on a pair ``(shared, per)``: the
covariance common to the m values entering a layer, and the covariance
each of them carries alone.  The combine averages the m values, so

    shared' = A shared A^T + (A per A^T + D S_w D^T) / m + D S_sum D^T / m^2
    per'    = D S_spl D^T + S_a

The engine runs this step on the wiring of the sampler kernel
``noise._sample``: layer ``l`` averages ``m = fan_in[l-1]`` copies and
splits the result into ``fan_out[l-1]``.  At fan-out 1 the copies entering
the next layer are independent subtrees, so the parts are folded
(``per <- shared' + per'``, ``shared <- 0``), which iterates

    step_m(S) = (A S A^T + D S_w D^T) / m + D S_sum D^T / m^2 + D S_spl D^T + S_a

Otherwise both are kept, and the next layer averages copies that all
carry ``shared``.  Each analytic result is one wiring, with combine/split
noise only where the design has it:

* ``propagate``: fan-in and fan-out 1, so ``step`` is ``step_m`` at ``m = 1``;
* the tree (design A), copies ``n_0..n_L``: fan-in ``n_{l-1}``, fan-out 1,
  its exact output covariance on a linear net;
* ``propagate_b``: fan-in m, fan-out 1, as if the m branches were independent;
* ``propagate_b_branchwise``: fan-in and fan-out m, the wiring of
  ``design_b_samples`` and its exact covariance.  At ``m = 1`` it folds:
  ``shared`` is zero and ``per_branch`` holds the whole covariance.

For layer-independent ``D, W`` and noise, the recursion has a closed
finite sum, a convergent infinite series under a contraction hypothesis,
and a fixed point computable either by iteration or as the solution of a
discrete Lyapunov equation; the plain closed form and series are the
combine/split ones at ``m = 1``.

``propagate_b`` averages the shared covariance of the branches down again
at every layer, which a faithful simulation does not (see
``design_b.compare_design_b``); the two differ by an exactly known
positive semidefinite term.  Write
``T_l`` for the ``propagate_b`` covariances, ``S_l`` and ``B_l`` for the
branchwise ``shared`` and ``per_branch`` parts, and ``R_l = T_l - B_l``.
Then ``S_l - R_l = A_l (S_{l-1} - R_{l-1}/m) A_l^T`` with ``S_0 = R_0 = 0``,
so, with the terminal-averaging correction applied to ``T_L``,

    branchwise.output - corrected = A_L (S_{L-1} - R_{L-1}/m) A_L^T  >= 0

It is positive semidefinite because ``S_l - R_l/m = (S_l - R_l) +
(1 - 1/m) R_l`` is, by induction, and every ``R_l`` is.  The gap is zero
for ``m = 1`` and for depth ``L = 1``; otherwise the recursion in general
under-counts the covariance that the branches share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ContractionError, ConvergenceError, ValidationError
from .network import Network, _integer, as_linear, operator_norm
from .noise import _ZERO, CovSpec, NoiseProfile

__all__ = [
    "LinearNet",
    "CovarianceState",
    "Trajectory",
    "BranchTrajectory",
    "SymmetricConfig",
    "SeriesResult",
    "FixedPointResult",
    "step_map",
    "step_map_b",
    "propagate",
    "propagate_b",
    "propagate_b_branchwise",
    "symmetric_closed_form",
    "symmetric_closed_form_b",
    "limit_series",
    "limit_series_b",
    "fixed_point_solve",
    "min_stable_m",
    "trajectory_to_json",
]


def _sym(M: np.ndarray) -> np.ndarray:
    return (M + M.T) / 2.0


def _dsd(e: np.ndarray, S: np.ndarray) -> np.ndarray:
    """``D S D^T`` for ``D = diag(e)``."""
    return (e[:, None] * S) * e[None, :]


def _as_coeffs(D) -> np.ndarray:
    """Accept a diagonal matrix or its diagonal as a vector."""
    D = np.asarray(D, dtype=np.float64)
    if D.ndim == 1:
        return D
    if D.ndim == 2 and D.shape[0] == D.shape[1]:
        if np.any(D != np.diag(np.diag(D))):
            raise ValidationError("activation matrix must be diagonal")
        return np.diag(D).copy()
    raise ValidationError("expected a diagonal matrix or a coefficient vector")


def _all_finite(*arrays) -> bool:
    return all(np.all(np.isfinite(a)) for a in arrays)


@dataclass(frozen=True, eq=False)
class LinearNet:
    """A linear network as ``(coeffs, weights)`` pairs, one per layer."""

    pairs: tuple[tuple[np.ndarray, np.ndarray], ...]
    input_dim: int

    def __post_init__(self):
        prev = self.input_dim
        for i, (e, W) in enumerate(self.pairs, start=1):
            if W.shape != (e.shape[0], prev):
                raise ValidationError(
                    f"layer {i}: weights {W.shape} do not chain on dimension {prev}",
                    layer=i,
                )
            if not _all_finite(e, W):
                raise ValidationError(
                    f"layer {i}: coefficients/weights contain non-finite values", layer=i
                )
            prev = e.shape[0]

    @classmethod
    def from_network(cls, net: Network) -> "LinearNet":
        return cls(tuple(as_linear(net)), net.input_dim)

    @property
    def depth(self) -> int:
        return len(self.pairs)

    def dims(self) -> list[int]:
        return [self.input_dim] + [e.shape[0] for e, _ in self.pairs]


@dataclass(frozen=True, eq=False)
class CovarianceState:
    """Symmetric PSD covariance attached to a layer index (0 = input)."""

    sigma: np.ndarray
    layer_index: int


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Covariances through all layers, ``states[l].layer_index == l``."""

    states: tuple[CovarianceState, ...]

    @property
    def final(self) -> np.ndarray:
        return self.states[-1].sigma

    def sigmas(self) -> list[np.ndarray]:
        return [s.sigma for s in self.states]


def trajectory_to_json(traj: Trajectory) -> dict:
    return {
        "layers": [
            {"index": s.layer_index, "sigma": s.sigma.tolist()} for s in traj.states
        ]
    }


def _copy_count(m) -> int:
    """``m`` as a copy count: an integer (by ``network._integer``) ``>= 1``."""
    m = _integer(m, "copy count m")
    if m < 1:
        raise ValidationError("copy count m must be >= 1")
    return m


def _step(e, W, shared, per, sigma_w, sigma_a, sigma_sum, sigma_spl, m):
    """One layer of the engine: the raw, unsymmetrized ``(shared', per')``
    of the module docstring.

    ``shared = None`` stands for zero and skips its transport; zero
    combine/split covariances add nothing.
    """
    A = e[:, None] * W
    shared_out = (A @ per @ A.T + _dsd(e, sigma_w)) / m
    if shared is not None:
        shared_out = A @ shared @ A.T + shared_out
    if np.any(sigma_sum):
        shared_out = shared_out + _dsd(e, sigma_sum) / (m * m)
    per_out = sigma_a
    if np.any(sigma_spl):
        per_out = per_out + _dsd(e, sigma_spl)
    return shared_out, per_out


def step_map(D, W, sigma_prev, sigma_w, sigma_a) -> np.ndarray:
    """One plain-layer covariance update: :func:`step_map_b` at ``m = 1``."""
    return step_map_b(D, W, sigma_prev, sigma_w, sigma_a, 0.0, 0.0, 1)


def step_map_b(D, W, sigma_prev, sigma_w, sigma_a, sigma_sum, sigma_spl, m: int) -> np.ndarray:
    """One combine/split covariance update with ``m`` copies per layer.

    The engine step from ``shared = 0, per = sigma_prev`` with the two
    parts summed, re-symmetrized on output.
    """
    m = _copy_count(m)
    e = _as_coeffs(D)
    W, sigma_prev, sigma_w, sigma_a, sigma_sum, sigma_spl = (
        np.asarray(a, dtype=np.float64)
        for a in (W, sigma_prev, sigma_w, sigma_a, sigma_sum, sigma_spl)
    )
    if W.shape != (e.shape[0], sigma_prev.shape[0]):
        raise ValidationError("step_map_b: weight shape does not match inputs")
    shared, per = _step(e, W, None, sigma_prev, sigma_w, sigma_a, sigma_sum, sigma_spl, m)
    return _sym(shared + per)


def _run(net: LinearNet, profile: NoiseProfile, fan_in, fan_out, combine_split=False):
    """The engine loop on the wiring of ``noise._sample`` (module
    docstring): lists of ``shared`` (None for zero) and ``per``
    covariances, layers 0..L.
    """
    fan_in = [_copy_count(g) for g in fan_in]
    profile.validate_for(net)
    dims = net.dims()
    combine, split = (profile.combine, profile.split) if combine_split else (_ZERO, _ZERO)
    shared, per = None, _sym(profile.modulation.matrix(dims[0]))
    shared_parts, per_parts = [shared], [per]
    for l, (e, W) in enumerate(net.pairs, start=1):
        d = dims[l]
        shared, per = _step(
            e, W, shared, per,
            profile.weight[l - 1].matrix(d), profile.activation[l - 1].matrix(d),
            combine.matrix(d), split.matrix(d), fan_in[l - 1],
        )
        if fan_out[l - 1] == 1:
            shared, per = None, _sym(shared + per)
        else:
            shared, per = _sym(shared), _sym(per)
        shared_parts.append(shared)
        per_parts.append(per)
    return shared_parts, per_parts


def propagate(net: LinearNet, profile: NoiseProfile) -> Trajectory:
    """Iterate the plain-layer map from the modulation covariance.

    Returns the full trajectory; ``.final`` is the output covariance of a
    noisy evaluation of the unmodified linear network.
    """
    _, per = _run(net, profile, (1,) * net.depth, (1,) * net.depth)
    return Trajectory(tuple(CovarianceState(sigma, l) for l, sigma in enumerate(per)))


def propagate_b(net: LinearNet, profile: NoiseProfile, m: int) -> Trajectory:
    """Iterate the combine/split map ``step_m`` from the modulation covariance.

    This per-branch recursion treats the m branches entering each layer as
    independent.  With zero combine and split noise it is the exact output
    covariance of the tree (design A) with uniform copies ``(m, ..., m, 1)``.
    After the terminal-averaging correction it equals
    :func:`propagate_b_branchwise` ``.output`` (the faithful simulation)
    exactly when ``m = 1`` or the depth is 1; otherwise it falls short of it
    by the positive semidefinite gap ``A_L (S_{L-1} - R_{L-1}/m) A_L^T``
    derived in the module docstring.
    """
    _, per = _run(net, profile, (m,) * net.depth, (1,) * net.depth, True)
    return Trajectory(tuple(CovarianceState(sigma, l) for l, sigma in enumerate(per)))


@dataclass(frozen=True, eq=False)
class BranchTrajectory:
    """Exact covariance of a faithful combine/split simulation.

    Per layer, the m branch values decompose into a component shared by
    all branches (everything upstream of the last split) plus independent
    per-branch noise (split and activation noise).  ``shared[l] +
    per_branch[l]`` is the covariance of one branch; ``output`` is the
    covariance of the returned average, ``shared[L] + per_branch[L]/m``.
    """

    shared: tuple[np.ndarray, ...]
    per_branch: tuple[np.ndarray, ...]
    m: int

    @property
    def final_branch(self) -> np.ndarray:
        return self.shared[-1] + self.per_branch[-1]

    @property
    def output(self) -> np.ndarray:
        return self.shared[-1] + self.per_branch[-1] / self.m


def propagate_b_branchwise(net: LinearNet, profile: NoiseProfile, m: int) -> BranchTrajectory:
    """Track the shared/per-branch covariance split of the combine/split design.

    The engine on the sampler's wiring, fan-in and fan-out m: the shared
    part passes through ``A . A^T`` undamped while the per-branch part and
    the fresh weight/combine noise are averaged.  At ``m = 1`` the run is
    folded, so ``shared`` is zero (module docstring).
    """
    m = _copy_count(m)
    shared, per = _run(net, profile, (m,) * net.depth, (m,) * net.depth, True)
    shared = tuple(np.zeros_like(p) if s is None else s for s, p in zip(shared, per))
    return BranchTrajectory(shared, tuple(per), m)


# ---------------------------------------------------------------------------
# Layer-independent (symmetric) configurations
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SymmetricConfig:
    """One layer shape repeated at every depth: square ``W``, diagonal
    coefficients ``e``, and layer-independent noise covariances.

    ``m`` is the combine/split copy count; ``m = 1`` describes the plain
    design.
    """

    e: np.ndarray
    W: np.ndarray
    sigma_m: CovSpec
    sigma_w: CovSpec
    sigma_a: CovSpec
    m: int = 1

    def __post_init__(self):
        e = _as_coeffs(self.e)
        W = np.asarray(self.W, dtype=np.float64)
        if W.ndim != 2 or W.shape[0] != W.shape[1] or W.shape[0] != e.shape[0]:
            raise ValidationError("symmetric config needs square W matching e")
        if not _all_finite(e, W):
            raise ValidationError("symmetric config: e/W contain non-finite values")
        object.__setattr__(self, "m", _copy_count(self.m))
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "W", W)
        for spec, name in ((self.sigma_m, "sigma_m"), (self.sigma_w, "sigma_w"), (self.sigma_a, "sigma_a")):
            spec.check_dim(e.shape[0], name)

    @property
    def dim(self) -> int:
        return self.e.shape[0]

    @property
    def A(self) -> np.ndarray:
        return self.e[:, None] * self.W

    def frobenius_product(self) -> float:
        """The contraction hypothesis quantity ``||D||_F ||W||_F``."""
        return float(np.linalg.norm(self.e) * np.linalg.norm(self.W))

    def matrices(self):
        d = self.dim
        return self.sigma_m.matrix(d), self.sigma_w.matrix(d), self.sigma_a.matrix(d)

    def with_m(self, m: int) -> "SymmetricConfig":
        return SymmetricConfig(self.e, self.W, self.sigma_m, self.sigma_w, self.sigma_a, m)

    def to_linear_net(self, depth: int) -> LinearNet:
        pair = (self.e, self.W)
        return LinearNet(tuple(pair for _ in range(depth)), self.dim)

    def to_profile(self, depth: int) -> NoiseProfile:
        return NoiseProfile(
            self.sigma_m,
            tuple(self.sigma_w for _ in range(depth)),
            tuple(self.sigma_a for _ in range(depth)),
        )


def symmetric_closed_form(cfg: SymmetricConfig, L: int) -> np.ndarray:
    """Finite-depth plain output covariance: :func:`symmetric_closed_form_b` at ``m = 1``.

    That is ``sum_{l=1..L} A^{L-l} Q (A^{L-l})^T + A^L S_m (A^L)^T`` with
    ``Q = D S_w D^T + S_a``.
    """
    return symmetric_closed_form_b(cfg.with_m(1), L)


def symmetric_closed_form_b(cfg: SymmetricConfig, L: int) -> np.ndarray:
    """Finite-depth combine/split covariance as an explicit power sum.

    The layer-l noise injection ``D S_w D^T + m S_a`` is damped by
    ``(1/m)^(L-l+1)`` and transported by ``A^(L-l)``; the modulation term
    is damped by ``m^-L``.  The exponent is the one consistent with
    iterating ``step_m``: each noise term enters one averaging inside its
    own layer and one more per subsequent layer.  The sum is evaluated
    independently of the recursion, so the two can be checked against
    each other.  It is :func:`propagate_b` on the depth-L symmetric net, so
    the exact output covariance of the tree with m copies per layer, not
    that of the combine/split design.
    """
    if L < 1:
        raise ValidationError("depth L must be >= 1")
    m = cfg.m
    A = cfg.A
    sigma_m, sigma_w, sigma_a = cfg.matrices()
    Q = _dsd(cfg.e, sigma_w) + m * sigma_a
    P = np.eye(cfg.dim)
    total = np.zeros_like(Q)
    for k in range(L):
        # k = L - l: transported by A^k, damped by (1/m)^(k+1)
        total = total + (m ** -(k + 1)) * (P @ Q @ P.T)
        P = A @ P
    total = total + float(m) ** -L * (P @ sigma_m @ P.T)
    return _sym(total)


class SeriesResult(NamedTuple):
    sigma: np.ndarray
    terms: int


def _series_ratio(cfg: SymmetricConfig, allow_spectral: bool) -> tuple[float, str]:
    """Check the contraction hypothesis; return the tail ratio q and the criterion.

    The default hypothesis is the Frobenius criterion
    ``||D||_F ||W||_F < sqrt(m)`` ("frobenius"); with ``allow_spectral``
    the sharper sufficient condition ``||DW||_op^2 < m`` is accepted
    instead ("spectral-override").  The returned ratio
    ``q = ||DW||_op^2 / m`` bounds successive term norms.
    """
    sqrt_m = math.sqrt(cfg.m)
    fro = cfg.frobenius_product()
    q = operator_norm(cfg.A) ** 2 / sqrt_m**2
    if fro < sqrt_m:
        return q, "frobenius"
    if allow_spectral and q < 1.0:
        return q, "spectral-override"
    raise ContractionError(
        f"contraction hypothesis violated: ||D||_F ||W||_F = {fro:.6g} >= "
        f"{sqrt_m:.6g}"
        + ("" if allow_spectral else " (spectral override not enabled)")
    )


_SERIES_MAX_TERMS = 200_000


def limit_series(cfg: SymmetricConfig, tol: float = 1e-12, allow_spectral: bool = False) -> SeriesResult:
    """Deep-network covariance limit ``sum_n A^n Q (A^n)^T`` with certified tail.

    :func:`limit_series_b` at ``m = 1``: terms are accumulated until a
    term's Frobenius norm falls below ``tol * (1 - q)`` with
    ``q = ||A||_op^2``, which bounds the discarded tail by ``tol``.
    """
    return limit_series_b(cfg.with_m(1), tol, allow_spectral)


def limit_series_b(cfg: SymmetricConfig, tol: float = 1e-12, allow_spectral: bool = False) -> SeriesResult:
    """Combine/split covariance limit ``sum_n m^-(n+1) A^n (D S_w D^T + m S_a) (A^n)^T``.

    Exists whenever ``||D||_F ||W||_F < sqrt(m)`` (or, with the override,
    ``||A||_op^2 < m``); the tail ratio is ``q = ||A||_op^2 / m``.  This is
    the deep limit of ``step_m``: the tree with m copies per layer, not the
    combine/split design, whose shared part is not damped by m.
    """
    m = cfg.m
    q, _ = _series_ratio(cfg, allow_spectral)
    _, sigma_w, sigma_a = cfg.matrices()
    Q = _dsd(cfg.e, sigma_w) + m * sigma_a
    A = cfg.A
    threshold = tol * (1.0 - q)
    total = np.zeros_like(Q)
    term = Q / m
    terms = 0
    while np.linalg.norm(term) >= threshold:
        total = total + term
        term = (A @ term @ A.T) / m
        terms += 1
        if terms >= _SERIES_MAX_TERMS:
            raise ConvergenceError(
                "series did not meet the tail threshold", last=total,
                residual=float(np.linalg.norm(term)),
            )
    return SeriesResult(_sym(total), terms)


@dataclass(frozen=True, eq=False)
class FixedPointResult:
    """Fixed point of the layer map with solver metadata.

    ``criterion`` records which convergence hypothesis admitted the run
    ("frobenius" or "spectral-override"); ``iterations`` is None for the
    vectorized solver.
    """

    sigma: np.ndarray
    method: str
    residual: float
    iterations: int | None = None
    criterion: str = "frobenius"


_FP_STEP_TOL = 1e-12
_FP_MAX_ITER = 1_000_000


def fixed_point_solve(
    cfg: SymmetricConfig, method: str = "iterate", allow_spectral: bool = False
) -> FixedPointResult:
    """Solve ``S = step_m(S)`` for the symmetric configuration.

    ``iterate`` applies the map from the modulation covariance until the
    Frobenius step falls below 1e-12; ``vectorized`` solves the fixed
    point directly as the discrete Lyapunov equation
    ``S = (A/sqrt(m)) S (A/sqrt(m))^T + D S_w D^T / m + S_a`` by the
    Bartels-Stewart Schur method (``scipy.linalg.solve_discrete_lyapunov``),
    in O(d^3) time and O(d^2) memory.  The fixed point is the deep-limit
    covariance of the tree with m copies per layer, not of combine/split.
    """
    _, criterion = _series_ratio(cfg, allow_spectral)
    sigma_m, sigma_w, sigma_a = cfg.matrices()
    e, W, m = cfg.e, cfg.W, cfg.m

    def T(X):
        return step_map_b(e, W, X, sigma_w, sigma_a, 0.0, 0.0, m)

    if method == "iterate":
        X = _sym(sigma_m)
        for k in range(1, _FP_MAX_ITER + 1):
            X_next = T(X)
            step = float(np.linalg.norm(X_next - X))
            X = X_next
            if step < _FP_STEP_TOL:
                residual = float(np.linalg.norm(T(X) - X))
                return FixedPointResult(X, "iterate", residual, iterations=k, criterion=criterion)
        raise ConvergenceError(
            f"fixed-point iteration did not converge within {_FP_MAX_ITER} steps",
            last=X,
            residual=step,
        )

    if method == "vectorized":
        import scipy.linalg

        rhs = _dsd(e, sigma_w) / m + sigma_a
        try:
            x = scipy.linalg.solve_discrete_lyapunov(cfg.A / math.sqrt(m), rhs)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"Lyapunov equation could not be solved: {exc}")
        if not np.all(np.isfinite(x)):
            raise ConvergenceError("Lyapunov solution is not finite", last=x)
        X = _sym(x)
        residual = float(np.linalg.norm(T(X) - X))
        return FixedPointResult(X, "vectorized", residual, iterations=None, criterion=criterion)

    raise ValidationError(f"unknown fixed-point method {method!r}")


# ---------------------------------------------------------------------------
# Minimal stabilizing copy count
# ---------------------------------------------------------------------------

_OVERFLOW_GUARD = 1e250


def _scalar_scan_params(cfg: SymmetricConfig):
    """Detect scaled-identity configurations that reduce to a scalar recursion.

    Returns ``(a2w2, noise_by_m..)`` pieces when ``e`` is constant, ``W``
    a multiple of the identity, and all covariances zero or isotropic;
    None otherwise.  The matrix trajectory is then ``s_l * I`` with
    ``s_l`` following the same affine recursion, so the norm ratio test is
    unchanged.
    """
    e, W = cfg.e, cfg.W
    if e.size == 0 or np.any(e != e[0]):
        return None
    d = e.shape[0]
    w_scale = W[0, 0]
    if np.any(W != w_scale * np.eye(d)):
        return None
    for spec in (cfg.sigma_m, cfg.sigma_w, cfg.sigma_a):
        if spec.kind not in ("zero", "isotropic"):
            return None
    a = float(e[0])
    var_m = cfg.sigma_m.var if cfg.sigma_m.kind == "isotropic" else 0.0
    var_w = cfg.sigma_w.var if cfg.sigma_w.kind == "isotropic" else 0.0
    var_a = cfg.sigma_a.var if cfg.sigma_a.kind == "isotropic" else 0.0
    return (a * float(w_scale)) ** 2, a * a * var_w, var_a, var_m


def _last_ratio_is_stable(
    cfg: SymmetricConfig, scalar, L: int, m: int, growth_tol: float
) -> bool:
    """Run the depth-L ``step_m`` recursion and test the final norm ratio.

    ``scalar`` is ``_scalar_scan_params(cfg)``, computed once per scan.
    Overflow (non-finite trajectory) counts as unstable.
    """
    if scalar is not None:
        gain, noise_w, noise_a, var_m = scalar
        # trajectory is s_l * I, Frobenius norm s_l * sqrt(d); the ratio
        # test is unchanged by the sqrt(d) factor
        s_prev = s_curr = var_m
        for _ in range(L):
            s_prev = s_curr
            s_curr = (gain * s_prev + noise_w) / m + noise_a
            if not math.isfinite(s_curr) or s_curr > _OVERFLOW_GUARD:
                return False
        if s_curr == 0.0:
            return True
        if s_prev == 0.0:
            return False
        return s_curr / s_prev <= 1.0 + growth_tol

    sigma_m, sigma_w, sigma_a = cfg.matrices()
    e, W = cfg.e, cfg.W
    X = _sym(sigma_m)
    prev_norm = last_norm = float(np.linalg.norm(X))
    for _ in range(L):
        X = step_map_b(e, W, X, sigma_w, sigma_a, 0.0, 0.0, m)
        prev_norm = last_norm
        last_norm = float(np.linalg.norm(X))
        if not math.isfinite(last_norm) or last_norm > _OVERFLOW_GUARD:
            return False
    if last_norm == 0.0:
        return True
    if prev_norm == 0.0:
        return False
    return last_norm / prev_norm <= 1.0 + growth_tol


def min_stable_m(
    cfg: SymmetricConfig, L: int, growth_tol: float = 1e-3, m_cap: int = 1_000_000
) -> int:
    """Smallest m whose depth-L trajectory has stopped growing.

    Scans m = 1, 2, 3, ... and returns the first m for which the final
    norm ratio ``||S^(L)||_F / ||S^(L-1)||_F`` is at most ``1 +
    growth_tol``.  Overflow during a scan step counts as unstable.  L must
    be at least 50 so exponential growth is actually exposed.  The scan
    iterates ``step_m``, so m is a uniform copy count of the tree; no m
    stabilizes combine/split when the spectral radius of ``A`` is >= 1.
    """
    if L < 50:
        raise ValidationError("min_stable_m needs depth L >= 50")
    if growth_tol <= 0.0:
        raise ValidationError("growth_tol must be positive")
    scalar = _scalar_scan_params(cfg)
    for m in range(1, m_cap + 1):
        if _last_ratio_is_stable(cfg, scalar, L, m, growth_tol):
            return m
    raise ConvergenceError(f"no stable copy count found up to the cap {m_cap}")
