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
layer take successive blocks of that one stream, copy ``j`` block ``j``.
A block holds one row per ``(input, trial)`` pair, input major: ``(trials,
d)`` for an input vector, ``(N, trials, d)`` for an ``(N, d_0)`` input
matrix.  Distinct paths give statistically independent streams and the
same ``(seed, path)`` reproduces the same samples bit-exactly.

All samplers run one layer kernel, :func:`_sample`, batched over inputs,
trials and the copies of a layer.  Every weighted addition, and the
factor product of a full covariance, runs as fixed 8-row gemm tiles
(``network._tiled``), so a row's bits do not depend on the batch it sits
in.  A single noisy evaluation is a batch of one,
``noisy_forward_samples(net, profile, x, 1, rng)[0]``; a one-row block
equals the first row of any larger block on the same stream, so this is
exact for the plain net and for the one-copy designs.  Copies that no
noise source reaches are identical, and the kernel takes copy 0 of them
instead of averaging, so a zero profile reproduces the noiseless forward
pass bit for bit at any copy count.  Sweeps
over many inputs draw them in groups of about ``_GROUP_ROWS`` rows, one
sampler call per group (:func:`_input_groups`).

Each sampler call starts one worker thread, and joins it before it
returns or raises.  The worker only fills blocks with standard normals
(``standard_normal(out=block)``) that the calling thread allocated: a
layer's split and activation blocks, while the calling thread runs the
layer's arithmetic and draws its weight and combine noise.  Every site's
stream is drawn on one thread, in the same order as without the worker,
so the samples do not depend on it.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .network import Network, _array, _check_input, _finite, _frozen, _integer, _tiled, affine

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
#: stream layout: one block per copy of the kernel, not per physical copy,
#: and sweeps draw groups of inputs in one call (:func:`_input_groups`).
GENERATOR_NAME = "sfc64/seedseq-site-grouped"

_SYM_TOL = 1e-12
_PSD_PIVOT_TOL = 1e-10

#: Largest working set, in bytes, of one pass of the layer kernel.  Wider
#: trees run in chunks of whole subtrees, in index order, so every site
#: takes its blocks in order and the samples do not depend on this number.
_CHUNK_BYTES = 16 * 2**20

#: Bytes of the scratch buffer through which the kernel's own thread draws
#: the noise it adds in place.
_SCRATCH_BYTES = 2**20

#: Rows, inputs times trials, that a sweep draws in one sampler call.
_GROUP_ROWS = 2048


def _input_groups(count: int, trials: int) -> list[slice]:
    """Slices of ``count`` inputs, ``max(1, _GROUP_ROWS // trials)``
    consecutive ones each; a sweep draws group ``k`` on child ``k`` of its
    stream, so at ``trials >= _GROUP_ROWS`` every input is its own group."""
    step = max(1, _GROUP_ROWS // trials)
    return [slice(s, s + step) for s in range(0, count, step)]


@dataclass(frozen=True, eq=False)
class CovSpec:
    """Covariance specification for one noise source.

    One of: ``zero``, ``isotropic`` (``var * I``), ``diagonal`` (variance
    vector), or ``full`` (explicit symmetric PSD matrix).  Validation
    happens here, at construction, so sampling never fails: diagonal
    entries must be nonnegative, full matrices symmetric to 1e-12 with
    smallest eigenvalue above -1e-10 (the PSD pivot tolerance); arrays
    are stored as read-only copies, so a spec stays valid.
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
            object.__setattr__(self, "var", _finite(self.var, "isotropic variance", ">= 0"))
            return
        if self.kind == "diagonal":
            v = _frozen(self.vec, "diagonal covariance", 1)
            if not np.all(np.isfinite(v)) or np.any(v < 0.0):
                raise ValidationError(
                    "diagonal covariance needs a finite nonnegative variance vector"
                )
            object.__setattr__(self, "vec", v)
            return
        if self.kind == "full":
            m = _array(self.mat, "full covariance", 2)
            if m.shape[0] != m.shape[1]:
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
            object.__setattr__(self, "mat", _frozen(m, "full covariance", 2))
            object.__setattr__(self, "_factor", _frozen(factor, "covariance factor", 2))
            return
        raise ValidationError(f"unknown covariance kind {self.kind!r}")

    @classmethod
    def zero(cls) -> "CovSpec":
        return cls("zero")

    @classmethod
    def isotropic(cls, var: float) -> "CovSpec":
        return cls("isotropic", var=var)

    @classmethod
    def diagonal(cls, vec) -> "CovSpec":
        return cls("diagonal", vec=vec)

    @classmethod
    def full(cls, mat) -> "CovSpec":
        return cls("full", mat=mat)

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


def _scale(z: np.ndarray, spec: CovSpec, div: float = 1.0) -> np.ndarray:
    """Turn the standard normal rows of ``z`` into Normal(0, spec / div)
    rows: in place, except that a full covariance's factor product
    returns a new block."""
    if spec.kind == "isotropic":
        z *= math.sqrt(spec.var / div)
    elif spec.kind == "diagonal":
        z *= np.sqrt(spec.vec / div)
    else:
        z = _tiled(z, spec._factor)
        z *= math.sqrt(1.0 / div)
    return z


def _draw(spec: CovSpec, dim: int, gen: np.random.Generator, n: tuple, div: float = 1.0):
    """A fresh ``(*n, dim)`` block of independent rows from Normal(0, spec / div).

    Zero specs never get here: :class:`_Sites` skips them.  Dimensions
    are not checked here; every sampler checks the profile against the
    network on entry (:meth:`NoiseProfile.validate_for`).
    """
    return _scale(gen.standard_normal((*n, dim)), spec, div)


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

    def __post_init__(self):
        object.__setattr__(self, "seed", _integer(self.seed, "seed"))
        object.__setattr__(self, "path", tuple(_integer(i, "stream path index") for i in self.path))

    def child(self, *indices: int) -> "RngStream":
        return RngStream(self.seed, self.path + indices)

    def generator(self) -> np.random.Generator:
        # two's-complement view so negative 64-bit seeds stay usable
        entropy = self.seed & 0xFFFFFFFFFFFFFFFF
        seq = np.random.SeedSequence(entropy=entropy, spawn_key=self.path)
        return np.random.Generator(np.random.SFC64(seq))


class _Sites:
    """The draw sites of one sampler call, one stream per ``(kind, layer)``.

    The generator of ``rng.child(kind, layer)`` is built the first time
    the site draws, and each draw takes the site's next block of
    Normal(0, spec / div) rows, so copy ``j`` of a layer takes block
    ``j``.  A zero spec never builds the stream, so zero-noise sites stay
    bit-exact and cost nothing.  A site draws on one thread only, always
    in the same order, so where a block is filled does not change its
    bits.

    - ``add`` returns a new array: ``h`` plus a block for every copy
      (first axis) of ``h``; with ``fan > 1`` each copy first becomes
      ``fan`` consecutive copies.  It never writes into ``h``.
    - ``add_into`` adds the block into ``h`` in place, drawing it slice by
      slice through one scratch buffer of about ``_SCRATCH_BYTES``; ``h``
      must be a C-contiguous block that the caller owns.
    - ``ahead`` allocates a block of the given shape and hands its fill,
      ``standard_normal(out=block)`` and nothing else, to the call's
      one-thread ``pool``; the returned function waits for the fill and
      returns the scaled block.
    """

    __slots__ = ("_rng", "_gens", "_pool")

    def __init__(self, rng: RngStream, pool=None):
        self._rng = rng
        self._gens = {}
        self._pool = pool

    def _gen(self, kind: int, layer: int) -> np.random.Generator:
        key = (kind, layer)
        gen = self._gens.get(key)
        if gen is None:
            gen = self._gens[key] = self._rng.child(*key).generator()
        return gen

    def add(self, h, spec: CovSpec, kind: int, layer: int, div: float = 1.0, fan: int = 1):
        if spec.is_zero:
            return h if fan == 1 else np.repeat(h, fan, axis=0)
        shape = h.shape
        z = _draw(spec, shape[-1], self._gen(kind, layer), (shape[0] * fan, *shape[1:-1]), div)
        fanned = z.reshape(shape[0], fan, *shape[1:])
        fanned += h[:, None]
        return z

    def add_into(self, h, spec: CovSpec, kind: int, layer: int, div: float = 1.0) -> None:
        if spec.is_zero:
            return
        gen = self._gen(kind, layer)
        rows = h.reshape(-1, h.shape[-1])
        step = max(1, _SCRATCH_BYTES // (8 * rows.shape[1]))
        # freed on return: a buffer kept across layers would sit between
        # the large blocks on the heap and fragment it
        scratch = np.empty(min(step, rows.shape[0]) * rows.shape[1])
        for s in range(0, rows.shape[0], step):
            part = rows[s : s + step]
            z = scratch[: part.size].reshape(part.shape)
            gen.standard_normal(out=z)
            part += _scale(z, spec, div)

    def ahead(self, spec: CovSpec, kind: int, layer: int, shape: tuple):
        if spec.is_zero:
            return None
        z = np.empty(shape)
        filled = self._pool.submit(self._gen(kind, layer).standard_normal, out=z)

        def block() -> np.ndarray:
            filled.result()
            return _scale(z, spec)

        return block


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
        depth = _integer(depth, "profile depth", 0)
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
        depth = _integer(depth, "profile depth", 0)

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
        """Check depth and widths against ``net`` (anything with ``depth`` and
        ``dims()``); samplers and solvers run it on entry."""
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
    """The layer kernel behind every sampler: ``(trials, d_L)`` samples of
    an input vector ``x``, ``(N, trials, d_L)`` of an ``(N, d_0)`` matrix.

    Every block has the row shape ``(N, trials)`` (``N = 1`` for a vector),
    input major, so a copy's block is ``N * trials`` rows of its site
    stream.  Layer ``l`` averages groups of ``g = fan_in[l-1]`` copies
    (layer 1: modulated inputs, noise ``Sigma_m / g``), makes one weighted
    addition per group with weight noise ``Sigma_w / g`` (with
    ``combine_split``, combine noise ``Sigma_c / g**2``), fans it out to
    ``fan_out[l-1]`` copies with split noise, then activates and adds
    activation noise per copy.  The copies left at the end are averaged.
    Copies that no noise source reaches are identical; where the kernel
    would average those, it takes copy 0, so a zero profile gives
    :func:`forward` bit for bit.

    The call owns a one-thread pool.  After a layer's weighted addition
    the kernel allocates its split and activation blocks and has the
    worker fill them, while this thread adds weight and combine noise in
    place into the affine output.  It then waits for the split block,
    scales it and adds the output to it, activates that block in place
    (:meth:`Activation._in_place`), and waits for, scales and adds the
    activation block.  The pool is shut down, and its thread joined, when
    the call returns or raises.
    """
    profile.validate_for(net)
    trials = _integer(trials, "trials", 1)
    x = _check_input(net, x, rows=True)
    xs = x if x.ndim == 2 else x[None]
    rows = (xs.shape[0], trials)
    combine, split = (profile.combine, profile.split) if combine_split else (_ZERO, _ZERO)
    dims = net.dims()
    # quiet[l]: no noise source reaches the outputs of layer l (0: the
    # modulated input), so their copies are identical and averaging them,
    # which rounds, is replaced by taking copy 0
    quiet = [profile.modulation.is_zero]
    for l in range(net.depth):
        sources = (profile.weight[l], combine, split, profile.activation[l])
        quiet.append(quiet[-1] and all(spec.is_zero for spec in sources))
    # bytes one group of layer l holds at its widest level below it
    group_bytes = []
    for l in range(1, net.depth + 1):
        below = group_bytes[-1] * (fan_in[l - 1] // fan_out[l - 2]) if l > 1 else 0
        widest = max(dims[l - 1], fan_out[l - 1] * dims[l])
        group_bytes.append(max(below, 8 * rows[0] * trials * widest))

    def groups(l, count):
        """Outputs ``(count * f, N, trials, d_l)`` of the next ``count`` groups of layer ``l``."""
        step = max(1, _CHUNK_BYTES // group_bytes[l - 1])
        if count > step:
            return np.concatenate(
                [groups(l, min(step, count - s)) for s in range(0, count, step)]
            )
        g = fan_in[l - 1]
        if l == 1:
            h = np.broadcast_to(xs[:, None], (count, *rows, dims[0]))
            h = sites.add(h, profile.modulation, KIND_MODULATION, 0, g)
        else:
            h = groups(l - 1, count * g // fan_out[l - 2])
            if g > 1:
                h = h.reshape(count, g, *rows, dims[l - 1])
                h = h[:, 0] if quiet[l - 1] else h.mean(axis=1)
        layer = net.layers[l - 1]
        f = fan_out[l - 1]
        h = affine(layer.weights, layer.bias, h)
        # the worker fills these while this thread adds weight and combine noise
        shape = (count * f, *h.shape[1:])
        split_block = sites.ahead(split, KIND_SPLIT, l, shape)
        noise_block = sites.ahead(profile.activation[l - 1], KIND_ACTIVATION, l, shape)
        sites.add_into(h, profile.weight[l - 1], KIND_WEIGHT, l, g)
        sites.add_into(h, combine, KIND_COMBINE, l, g * g)
        if split_block is not None:
            y = split_block()
            fanned = y.reshape(count, f, *h.shape[1:])
            fanned += h[:, None]
            h = y
        elif f > 1:
            h = np.repeat(h, f, axis=0)
        h = layer.activation._in_place(h)
        if noise_block is None:
            return h
        out = noise_block()
        out += h
        return out

    with ThreadPoolExecutor(max_workers=1) as pool:
        sites = _Sites(rng, pool)
        out = groups(net.depth, 1)
    out = out[0] if out.shape[0] == 1 or quiet[-1] else out.mean(axis=0)
    return out if x.ndim == 2 else out[0]


def noisy_forward_samples(
    net: Network, profile: NoiseProfile, x, trials: int, rng: RngStream
) -> np.ndarray:
    """``trials`` independent noisy evaluations, vectorized over the trial axis.

    Modulation noise is added once to the input; each layer then adds
    weight noise inside the activation and activation noise after it.
    Draw sites are keyed ``(kind, layer)`` under ``rng`` and each emits
    one block with trials as rows, so a batch is reproducible as a whole
    and ``trials=1`` gives one evaluation.  With an all-zero profile every
    row equals :func:`forward` bit-exactly.

    ``x`` is one input vector, giving ``(trials, d_L)``, or an ``(N, d_0)``
    matrix of inputs, giving ``(N, trials, d_L)``.  A matrix call draws
    all ``N * trials`` rows of a site as one block, input major, so input
    ``i`` takes rows ``i * trials`` to ``(i + 1) * trials - 1``; a one-row
    matrix gives exactly the samples of its vector.
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
    """Two-pass statistics of an ``(n, d)`` finite sample matrix.

    The mean is taken first; the covariance is assembled from centered
    outer products (numpy's pairwise/blocked summation keeps accumulation
    error around 1e-10 relative at a million samples).  Finite samples
    whose mean, covariance or squared deviation overflow are refused.
    """
    samples = _array(samples, "samples", 2)
    if samples.shape[0] < 2:
        raise ValidationError("need an (n, d) sample matrix with n >= 2")
    n, d = samples.shape
    reference = _array(reference, "reference", 1)
    if reference.shape[0] != d:
        raise ValidationError(
            f"reference has length {reference.shape[0]}, expected the sample width {d}"
        )
    if not np.isfinite(samples).all():
        raise ValidationError("samples contain non-finite values")
    if not np.isfinite(reference).all():
        raise ValidationError("reference contains non-finite values")
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is refused below
        mean = samples.mean(axis=0)
        centered = samples - mean
        cov = centered.T @ centered / (n - 1)
        cov = (cov + cov.T) / 2.0
        dev = samples - reference
        mse = float(np.mean(np.einsum("ij,ij->i", dev, dev)))
    for what, value in (("mean", mean), ("covariance", cov), ("mean squared deviation", mse)):
        if not np.all(np.isfinite(value)):
            raise ValidationError(f"sample {what} overflows float64")
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
    for name in ("weight", "activation"):
        if name not in obj:
            raise ValidationError(f"noise profile JSON is missing {name!r}")
        if not isinstance(obj[name], list):
            raise ValidationError(f"{name} must be a list")
    return NoiseProfile(
        covspec_from_json(obj.get("modulation", "zero")),
        tuple(map(covspec_from_json, obj["weight"])),
        tuple(map(covspec_from_json, obj["activation"])),
        covspec_from_json(obj.get("combine", "zero")),
        covspec_from_json(obj.get("split", "zero")),
    )
