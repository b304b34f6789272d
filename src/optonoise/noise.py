"""Additive Gaussian noise model and Monte Carlo harness.

A noisy evaluation perturbs the network at three points: once on the
input when it is modulated, inside every layer's weighted addition, and
after every activation.  Each perturbation is an independent zero-mean
multivariate normal draw whose covariance comes from a
:class:`NoiseProfile`.  ``combine``/``split`` covariances ride along in
the profile for the combine/split design sampler; the plain noisy
forward pass ignores them.

Randomness is organized as splittable streams keyed by ``(seed, path)``.
A sampler call owns one stream per draw site ``(kind, layer)`` under its
``rng`` and builds it the first time the site draws; the copies of a
layer take successive ``(trials, d)`` blocks of that one stream, copy
``j`` block ``j``.  Distinct paths give statistically independent streams
and the same ``(seed, path)`` reproduces the same samples bit-exactly.

All samplers run one layer kernel, :func:`_sample`, batched over trials
and over the copies of a layer.  A single noisy evaluation is a batch of
one, ``noisy_forward_samples(net, profile, x, 1, rng)[0]``; a one-row
block equals the first row of any larger block on the same stream, so
this is exact for the plain net and for the one-copy designs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .network import Network, _check_input, affine

__all__ = [
    "CovSpec",
    "NoiseProfile",
    "RngStream",
    "SampleStats",
    "GENERATOR_NAME",
    "noisy_forward_samples",
    "stats_from_samples",
    "covspec_to_json",
    "covspec_from_json",
    "profile_to_json",
    "profile_from_json",
]

# Draw-site kind codes used as the second path component.
KIND_MODULATION = 0
KIND_WEIGHT = 1
KIND_ACTIVATION = 2
KIND_COMBINE = 3
KIND_SPLIT = 4

#: Recorded in output metadata so result files name their generator and
#: stream layout: one block per copy of the kernel, not per physical copy.
GENERATOR_NAME = "sfc64/seedseq-site-collapsed"

_SYM_TOL = 1e-12
_PSD_PIVOT_TOL = 1e-10

#: Largest working set, in bytes, of one pass of the layer kernel.  Wider
#: trees run in chunks of whole subtrees, in index order, so every site
#: takes its blocks in order and the samples do not depend on this number.
_CHUNK_BYTES = 16 * 2**20


@dataclass(frozen=True, eq=False)
class CovSpec:
    """Covariance specification for one noise source.

    One of: ``zero``, ``isotropic`` (``var * I``), ``diagonal`` (variance
    vector), or ``full`` (explicit symmetric PSD matrix).  Validation
    happens here, at construction, so sampling never fails: diagonal
    entries must be nonnegative, full matrices symmetric to 1e-12 with
    smallest eigenvalue above -1e-10 (the PSD pivot tolerance).
    """

    kind: str
    var: float = 0.0
    vec: np.ndarray | None = None
    mat: np.ndarray | None = None
    _factor: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind == "zero":
            return
        if self.kind == "isotropic":
            if not (self.var >= 0.0) or not math.isfinite(self.var):
                raise ValidationError("isotropic variance must be finite and >= 0")
            return
        if self.kind == "diagonal":
            v = np.asarray(self.vec, dtype=np.float64)
            if v.ndim != 1 or not np.all(np.isfinite(v)) or np.any(v < 0.0):
                raise ValidationError(
                    "diagonal covariance needs a finite nonnegative variance vector"
                )
            object.__setattr__(self, "vec", v)
            return
        if self.kind == "full":
            m = np.asarray(self.mat, dtype=np.float64)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValidationError("full covariance must be a square matrix")
            if not np.all(np.isfinite(m)):
                raise ValidationError("full covariance must be finite")
            if np.max(np.abs(m - m.T), initial=0.0) > _SYM_TOL:
                raise ValidationError("full covariance is not symmetric (tol 1e-12)")
            m = (m + m.T) / 2.0
            eigval, eigvec = np.linalg.eigh(m)
            if eigval.size and eigval[0] < -_PSD_PIVOT_TOL:
                raise ValidationError(
                    f"full covariance is not PSD (min eigenvalue {eigval[0]:.3e})"
                )
            # factor F with F F^T = m, used for sampling; eigen-based so
            # semidefinite matrices are accepted
            factor = eigvec * np.sqrt(np.clip(eigval, 0.0, None))
            object.__setattr__(self, "mat", m)
            object.__setattr__(self, "_factor", factor)
            return
        raise ValidationError(f"unknown covariance kind {self.kind!r}")

    @classmethod
    def zero(cls) -> "CovSpec":
        return cls("zero")

    @classmethod
    def isotropic(cls, var: float) -> "CovSpec":
        return cls("isotropic", var=float(var))

    @classmethod
    def diagonal(cls, vec) -> "CovSpec":
        return cls("diagonal", vec=np.asarray(vec, dtype=np.float64))

    @classmethod
    def full(cls, mat) -> "CovSpec":
        return cls("full", mat=np.asarray(mat, dtype=np.float64))

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero" or (self.kind == "isotropic" and self.var == 0.0)

    @property
    def dimension(self) -> int | None:
        """Fixed dimension, or None when the spec scales to any dimension."""
        if self.kind == "diagonal":
            return self.vec.shape[0]
        if self.kind == "full":
            return self.mat.shape[0]
        return None

    def check_dim(self, dim: int, what: str = "covariance") -> None:
        fixed = self.dimension
        if fixed is not None and fixed != dim:
            raise ValidationError(f"{what} has dimension {fixed}, expected {dim}")

    def matrix(self, dim: int) -> np.ndarray:
        """Materialize as a dim x dim matrix."""
        self.check_dim(dim)
        if self.kind == "zero":
            return np.zeros((dim, dim))
        if self.kind == "isotropic":
            return self.var * np.eye(dim)
        if self.kind == "diagonal":
            return np.diag(self.vec)
        return self.mat.copy()

    def max_diagonal(self, dim: int) -> float:
        """Largest diagonal entry; used for the common variance bound."""
        if self.kind == "zero":
            return 0.0
        if self.kind == "isotropic":
            return self.var
        if self.kind == "diagonal":
            return float(np.max(self.vec)) if self.vec.size else 0.0
        return float(np.max(np.diag(self.mat)))


def _draw(spec: CovSpec, dim: int, gen: np.random.Generator, n, div: float = 1.0):
    """A fresh ``(n, dim)`` block (``(*n, dim)`` for a tuple ``n``) of
    independent rows from Normal(0, spec / div).

    Zero specs never get here: :meth:`_Sites.add` skips them.  Dimensions
    are not checked here; every sampler checks the profile against the
    network on entry (:meth:`NoiseProfile.validate_for`).
    """
    z = gen.standard_normal((*n, dim) if isinstance(n, tuple) else (n, dim))
    if spec.kind == "isotropic":
        z *= math.sqrt(spec.var / div)
    elif spec.kind == "diagonal":
        z *= np.sqrt(spec.vec / div)
    else:
        z = z @ spec._factor.T
        z *= math.sqrt(1.0 / div)
    return z


@dataclass(frozen=True)
class RngStream:
    """Splittable random stream keyed by ``(seed, path)``.

    ``child(*ix)`` appends integers to the path; ``generator()`` builds an
    SFC64 bit generator seeded by ``SeedSequence(seed, spawn_key=path)``.
    The seed sequence hashes the path into the generator state, so streams
    with distinct paths are independent and each is reproducible from its
    ``(seed, path)`` alone.
    """

    seed: int
    path: tuple[int, ...] = ()

    def child(self, *indices: int) -> "RngStream":
        return RngStream(self.seed, self.path + tuple(int(i) for i in indices))

    def generator(self) -> np.random.Generator:
        # two's-complement view so negative 64-bit seeds stay usable
        entropy = int(self.seed) & 0xFFFFFFFFFFFFFFFF
        seq = np.random.SeedSequence(entropy=entropy, spawn_key=self.path)
        return np.random.Generator(np.random.SFC64(seq))

    def normal(self, shape) -> np.ndarray:
        return self.generator().standard_normal(shape)


class _Sites:
    """The draw sites of one sampler call, one stream per ``(kind, layer)``.

    ``add`` builds the generator of ``rng.child(kind, layer)`` the first
    time the site draws, and each call adds the next ``(trials, d)`` block
    of Normal(0, spec / div) to every copy (first axis) of ``h``, so copy
    ``j`` of a layer takes block ``j``; with ``fan > 1`` each copy first
    becomes ``fan`` consecutive copies.  A zero spec never builds the
    stream, so zero-noise sites stay bit-exact and cost nothing.
    """

    __slots__ = ("_rng", "_gens")

    def __init__(self, rng: RngStream):
        self._rng = rng
        self._gens = {}

    def add(self, h, spec: CovSpec, kind: int, layer: int, div: float = 1.0, fan: int = 1):
        if spec.is_zero:
            return h if fan == 1 else np.repeat(h, fan, axis=0)
        key = (kind, layer)
        gen = self._gens.get(key)
        if gen is None:
            gen = self._gens[key] = self._rng.child(*key).generator()
        shape = h.shape
        z = _draw(spec, shape[-1], gen, (shape[0] * fan, *shape[1:-1]), div)
        fanned = z.reshape(shape[0], fan, *shape[1:])
        fanned += h[:, None]
        return z


_ZERO = CovSpec.zero()


@dataclass(frozen=True, eq=False)
class NoiseProfile:
    """Covariances for every noise source of a depth-L network.

    ``weight[l]`` and ``activation[l]`` describe layer ``l+1`` (dimension
    ``d_{l+1}``); ``modulation`` acts on the input.  ``combine`` and
    ``split`` are consumed only by the combine/split design evaluator.
    """

    modulation: CovSpec
    weight: tuple[CovSpec, ...]
    activation: tuple[CovSpec, ...]
    combine: CovSpec = field(default_factory=CovSpec.zero)
    split: CovSpec = field(default_factory=CovSpec.zero)

    def __post_init__(self):
        object.__setattr__(self, "weight", tuple(self.weight))
        object.__setattr__(self, "activation", tuple(self.activation))
        if len(self.weight) != len(self.activation):
            raise ValidationError(
                f"profile has {len(self.weight)} weight and "
                f"{len(self.activation)} activation covariances; they must be equal"
            )

    @property
    def depth(self) -> int:
        return len(self.weight)

    @classmethod
    def zero(cls, depth: int) -> "NoiseProfile":
        z = CovSpec.zero
        return cls(z(), tuple(z() for _ in range(depth)), tuple(z() for _ in range(depth)))

    @classmethod
    def isotropic(
        cls,
        depth: int,
        modulation_var: float = 0.0,
        weight_var: float = 0.0,
        activation_var: float = 0.0,
        combine_var: float = 0.0,
        split_var: float = 0.0,
    ) -> "NoiseProfile":
        def spec(v):
            return CovSpec.isotropic(v) if v else CovSpec.zero()

        return cls(
            spec(modulation_var),
            tuple(spec(weight_var) for _ in range(depth)),
            tuple(spec(activation_var) for _ in range(depth)),
            spec(combine_var),
            spec(split_var),
        )

    def validate_for(self, net: Network) -> None:
        if self.depth != net.depth:
            raise ValidationError(
                f"profile depth {self.depth} does not match network depth {net.depth}"
            )
        dims = net.dims()
        self.modulation.check_dim(dims[0], "modulation covariance")
        for l in range(net.depth):
            self.weight[l].check_dim(dims[l + 1], f"weight covariance of layer {l + 1}")
            self.activation[l].check_dim(
                dims[l + 1], f"activation covariance of layer {l + 1}"
            )
            self.combine.check_dim(dims[l + 1], "combine covariance")
            self.split.check_dim(dims[l + 1], "split covariance")


def _sample(net, profile, x, trials, rng, fan_in, fan_out, combine_split=False):
    """The layer kernel behind every sampler: ``(trials, d_L)`` samples.

    Layer ``l`` averages groups of ``g = fan_in[l-1]`` copies (layer 1:
    modulated inputs, noise ``Sigma_m / g``), makes one weighted addition
    per group with weight noise ``Sigma_w / g`` (with ``combine_split``,
    combine noise ``Sigma_c / g**2``), fans it out to ``fan_out[l-1]``
    copies with split noise, then activates and adds activation noise per
    copy.  The copies left at the end are averaged.
    """
    net.require_valid()
    profile.validate_for(net)
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    x = _check_input(net, x)
    sites = _Sites(rng)
    combine, split = (profile.combine, profile.split) if combine_split else (_ZERO, _ZERO)
    dims = net.dims()
    # bytes one group of layer l holds at its widest level below it
    group_bytes = []
    for l in range(1, net.depth + 1):
        below = group_bytes[-1] * (fan_in[l - 1] // fan_out[l - 2]) if l > 1 else 0
        group_bytes.append(max(below, 8 * trials * max(dims[l - 1], fan_out[l - 1] * dims[l])))

    def groups(l, count):
        """Outputs ``(count * f, trials, d_l)`` of the next ``count`` groups of layer ``l``."""
        step = max(1, _CHUNK_BYTES // group_bytes[l - 1])
        if count > step:
            return np.concatenate(
                [groups(l, min(step, count - s)) for s in range(0, count, step)]
            )
        g = fan_in[l - 1]
        if l == 1:
            h = np.broadcast_to(x, (count, trials, dims[0]))
            h = sites.add(h, profile.modulation, KIND_MODULATION, 0, g)
        else:
            h = groups(l - 1, count * g // fan_out[l - 2])
            if g > 1:
                h = h.reshape(count, g, trials, dims[l - 1]).mean(axis=1)
        layer = net.layers[l - 1]
        h = affine(layer.weights, layer.bias, h)
        h = sites.add(h, profile.weight[l - 1], KIND_WEIGHT, l, g)
        h = sites.add(h, combine, KIND_COMBINE, l, g * g)
        h = sites.add(h, split, KIND_SPLIT, l, fan=fan_out[l - 1])
        h = layer.activation(h)
        return sites.add(h, profile.activation[l - 1], KIND_ACTIVATION, l)

    out = groups(net.depth, 1)
    return out[0] if out.shape[0] == 1 else out.mean(axis=0)


def noisy_forward_samples(
    net: Network, profile: NoiseProfile, x, trials: int, rng: RngStream
) -> np.ndarray:
    """``trials`` independent noisy evaluations, vectorized over the trial axis.

    Modulation noise is added once to the input; each layer then adds
    weight noise inside the activation and activation noise after it.
    Draw sites are keyed ``(kind, layer)`` under ``rng`` and each emits
    a ``(trials, d)`` block with trials as rows, so a batch is reproducible
    as a whole and ``trials=1`` gives one evaluation.  With an all-zero
    profile every row equals :func:`forward` bit-exactly.

    Returns an array of shape ``(trials, d_L)``.
    """
    return _sample(net, profile, x, trials, rng, (1,) * net.depth, (1,) * net.depth)


@dataclass(frozen=True, eq=False)
class SampleStats:
    """Summary of a Monte Carlo run.

    ``covariance`` is the unbiased (n-1 divisor) sample covariance;
    ``mse_vs_reference`` is the mean squared 2-norm of the deviation from
    the reference vector.
    """

    n: int
    mean: np.ndarray
    covariance: np.ndarray
    mse_vs_reference: float


def stats_from_samples(samples: np.ndarray, reference) -> SampleStats:
    """Two-pass statistics of an ``(n, d)`` sample matrix.

    The mean is taken first; the covariance is assembled from centered
    outer products (numpy's pairwise/blocked summation keeps accumulation
    error around 1e-10 relative at a million samples).
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[0] < 2:
        raise ValidationError("need an (n, d) sample matrix with n >= 2")
    n = samples.shape[0]
    reference = np.asarray(reference, dtype=np.float64)
    mean = samples.mean(axis=0)
    centered = samples - mean
    cov = centered.T @ centered / (n - 1)
    cov = (cov + cov.T) / 2.0
    dev = samples - reference
    mse = float(np.mean(np.einsum("ij,ij->i", dev, dev)))
    return SampleStats(n=n, mean=mean, covariance=cov, mse_vs_reference=mse)


# ---------------------------------------------------------------------------
# JSON wire format
#
# covspec: "zero" | {"isotropic": v} | {"diagonal": [...]} | {"full": [[...]]}
# profile: {"modulation": covspec, "weight": [covspec, ...],
#           "activation": [covspec, ...], "combine": covspec, "split": covspec}
# ---------------------------------------------------------------------------


def covspec_to_json(spec: CovSpec):
    if spec.kind == "zero":
        return "zero"
    if spec.kind == "isotropic":
        return {"isotropic": spec.var}
    if spec.kind == "diagonal":
        return {"diagonal": spec.vec.tolist()}
    return {"full": spec.mat.tolist()}


def covspec_from_json(obj) -> CovSpec:
    if obj == "zero":
        return CovSpec.zero()
    if isinstance(obj, dict) and len(obj) == 1:
        key, value = next(iter(obj.items()))
        if key == "isotropic":
            return CovSpec.isotropic(value)
        if key == "diagonal":
            return CovSpec.diagonal(value)
        if key == "full":
            return CovSpec.full(value)
    raise ValidationError(f"malformed covariance spec: {obj!r}")


def profile_to_json(profile: NoiseProfile) -> dict:
    return {
        "modulation": covspec_to_json(profile.modulation),
        "weight": [covspec_to_json(s) for s in profile.weight],
        "activation": [covspec_to_json(s) for s in profile.activation],
        "combine": covspec_to_json(profile.combine),
        "split": covspec_to_json(profile.split),
    }


def profile_from_json(obj: dict) -> NoiseProfile:
    if not isinstance(obj, dict):
        raise ValidationError("noise profile JSON must be an object")
    try:
        modulation = covspec_from_json(obj.get("modulation", "zero"))
        weight = tuple(covspec_from_json(s) for s in obj["weight"])
        activation = tuple(covspec_from_json(s) for s in obj["activation"])
    except KeyError as exc:
        raise ValidationError(f"noise profile JSON is missing {exc}")
    combine = covspec_from_json(obj.get("combine", "zero"))
    split = covspec_from_json(obj.get("split", "zero"))
    return NoiseProfile(modulation, weight, activation, combine, split)
