"""Additive Gaussian noise model and Monte Carlo harness.

A noisy evaluation perturbs the network at three points: once on the
input when it is modulated, inside every layer's weighted addition, and
after every activation.  Each perturbation is an independent zero-mean
multivariate normal draw whose covariance comes from a
:class:`NoiseProfile`.  ``combine``/``split`` covariances ride along in
the profile for the combine/split design sampler; the plain noisy
forward pass ignores them.

Randomness is organized as splittable streams keyed by ``(seed, path)``.
A block holds one row per ``(input, trial)`` pair, input major.  A sampler
call of at least ``_SPLIT_ROWS`` rows runs in two parts: part 0 takes the
first ``ceil(R / 2)`` of its ``R`` rows, part 1 the rest; a smaller call is
part 0 alone.  Each part owns one stream per draw site ``(kind, layer)``:
part 0 ``rng.child(kind, layer)``, part 1 ``rng.child(_PART_1, kind,
layer)``, and builds it the first time the site draws.  A part's rows run
in tiles of ``_GROUP_ROWS`` rows, in order.  In each tile the copies of a
layer take successive tile-sized blocks of the site's stream, copy ``j``
the next block ``j``.  A site with one copy per tile (every site of the
plain net and of the one-copy designs) therefore reads its stream exactly
as one block of all the part's rows would.  Activation noise is drawn per
averaged group: a layer's activated copies are averaged in groups right
away (the next layer's fan-in, or the final average), and the mean of
``g`` Normal(0, Sigma_a) blocks is one Normal(0, Sigma_a / g) block, so
block ``j`` of an activation site in a tile is group ``j`` of the next
average.  A layer whose activation is linear (identity or diag) draws
all its noise from one merged site ``(_KIND_LINEAR, layer)`` instead: the
mean of its copies is the weighted addition of the mean of their inputs,
plus one Gaussian block, so it averages before the weighted addition and
takes block ``j`` of the merged site for group ``j``, at the summed,
averaged covariance of its weight, combine, split and activation noise.
Every layer draws the noise that enters its weighted addition after it:
``D (W (h + n) + b) = D (W h + b) + D W n`` (``D = I`` for a nonlinear
layer's weighted addition), so the modulation (under layer 1) or the
last site of the layer below, an activation or a merged site, is silent,
and the layer's first site takes the term ``D W P W^T D``, ``P`` the
silent site's covariance: a linear layer's merged site, or a nonlinear
layer's pre-activation site ``(KIND_WEIGHT, layer)``, which draws one
block per group at that term plus its weight and combine covariances.
So an all-linear net draws only from its top merged site.  Where the
silent site has no noise, nothing is pushed, and a nonlinear layer's
weight and combine noise keep their own sites.
Distinct paths give statistically independent streams and the same
``(seed, path)`` reproduces the same samples bit-exactly.

All samplers run one layer kernel, :func:`_sample`, batched over the
rows of a tile and the copies of a layer.  Every weighted addition, and
the factor product of a full covariance, runs as fixed 8-row gemm tiles
(``network._tiled``), so a row's bits do not depend on the batch it sits
in.  The kernel builds every draw site's law once per call (:func:`_law`);
a site whose covariances are all zero is silent and touches no stream.
A single noisy evaluation is a batch of one,
``noisy_forward_samples(net, profile, x, 1, rng)[0]``; row 0 is in part 0
of every call, and a one-row block equals the first row of any larger
block on the same stream, so this is exact for the plain net and for the
one-copy designs.  The layers below every live site are noiseless and
the same in every copy and trial, so a call runs them once per input, as
:func:`forward` does, and the weighted addition above them too when it is
the first to draw (with its activation, in a linear layer); a zero
profile, where no site is live, therefore reproduces the noiseless
forward pass bit for bit at any copy count.

Part 1 runs on one worker thread that the call starts and joins before it
returns or raises; an exception on the worker is raised again by the
call, and an exception in either part stops the other at its next tile.
The two parts share no generator and write disjoint rows of one output,
so the samples do not depend on how the threads interleave.

Monte Carlo statistics are built from merged tiles.  Given a
``reference``, a sampler folds each tile's deviations from it into its
part's running moments (:class:`_Moments`), and a sweep's one call per
grid point into per-trial scores (:class:`_Scores`), on the thread that
drew it; part 0 merges with part 1 at the end, so the call holds a few
tiles, not its ``R`` rows.  :func:`stats_from_samples` cuts a sample matrix
into the same parts and tiles, so both give the same statistics bit for bit.
"""

from __future__ import annotations

import math
import threading
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
#: The one merged site of a linear layer, which draws all of the layer's
#: weight, combine, split and activation noise at once.
_KIND_LINEAR = 6

#: Recorded in output metadata so result files name their generator and
#: stream layout: one block per copy of the kernel, not per physical copy,
#: one activation block per averaged group, one merged block per group of a
#: linear layer, every layer's first site (a linear layer's merged site, a
#: nonlinear layer's pre-activation site) carries the noise below its
#: weighted addition, pushed through its weights, a sweep draws all its
#: inputs in one call per grid point, a site with several copies reads its
#: stream tile by tile, ``_GROUP_ROWS`` rows per block, and a call of at
#: least ``_SPLIT_ROWS`` rows reads its second half from the part-1 sites.
GENERATOR_NAME = "sfc64/seedseq-pushed-linear"

_SYM_TOL = 1e-12
_PSD_PIVOT_TOL = 1e-10

#: Largest working set, in bytes, of one pass of the layer kernel over a
#: tile.  Wider trees run in chunks of whole next-layer groups, in index
#: order, so every site takes its blocks in order and the samples do not
#: depend on this number.  It is kept small because the worker thread of a
#: two-part call allocates from its own malloc heap, which keeps or hands
#: back the memory its passes free depending on the order of the frees;
#: passes of a few MiB keep that, and so the resident size, steady from run
#: to run.
_CHUNK_BYTES = 4 * 2**20

#: Rows, inputs times trials, of one tile of the layer kernel.
_GROUP_ROWS = 2048

#: Rows, inputs times trials, from which a sampler call runs its second
#: half on a worker thread; below it the thread's start-up and join cost
#: more than the overlap saves.
_SPLIT_ROWS = 1024

#: First path component of part 1's sites, ``rng.child(_PART_1, kind,
#: layer)``.  No kind code is 5, so no site of part 0 has this path.
_PART_1 = 5


def _parts(rows: int) -> list[list[slice]]:
    """The tiles of each part of a sampler call of ``rows`` rows: below
    ``_SPLIT_ROWS`` one part, else rows ``0 .. ceil(rows / 2) - 1`` and the
    rest; ``_GROUP_ROWS`` rows a tile from each part's start."""
    cuts = (0, rows) if rows < _SPLIT_ROWS else (0, -(-rows // 2), rows)
    return [[slice(s, min(s + _GROUP_ROWS, stop)) for s in range(start, stop, _GROUP_ROWS)]
            for start, stop in zip(cuts, cuts[1:])]


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
        """All zeros, whatever the kind: such a spec draws nothing."""
        values = {"isotropic": self.var, "diagonal": self.vec, "full": self.mat}.get(self.kind, 0.0)
        return not np.any(values)

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


def _factor(law, dim: int) -> np.ndarray:
    """A matrix ``F`` with ``F F^T`` the covariance of a ``dim``-wide law
    that is not silent."""
    if isinstance(law, tuple):
        factor, scale = law
        return factor * scale
    return np.diag(np.broadcast_to(law, (dim,)))


def _law(dim: int, terms, activation=None, push=None):
    """The law of one draw site, the only place a covariance becomes a
    draw: the sum of ``spec / div`` over the ``(spec, div)`` pairs of
    ``terms``, one pair unless a linear ``activation`` is given (a merged
    site), whose diagonal ``D`` maps every term but the last to ``D spec D``.
    A pushed ``(W, source)`` adds the term ``D W P W^T D`` (``D = I``
    without an ``activation``: a pre-activation site) for the covariance
    ``P`` of the law ``source``.  None when every spec is zero and nothing
    is pushed (a silent site); else the standard deviation, a number or a
    vector, that scales standard normals, or where a spec is full a pair
    ``(F, s)``: normals times ``F^T`` times ``s``.  A lone full spec keeps
    its cached factor, ``s = sqrt(1 / div)``; a merged site without a push
    factors its summed covariance, ``s = 1``.  A site with a push stacks
    the factors of its terms, ``[D W F_P, D F_1, ..., F_a]``, and keeps the
    triangle ``R`` of their QR, ``F = R^T`` and ``s = 1``, so ``W`` is never
    squared and ``F`` has at most ``dim`` columns: one normal per column.
    Dimensions are checked on sampler entry
    (:meth:`NoiseProfile.validate_for`), not here."""
    live = [(spec, div, activation is not None and i < len(terms) - 1)
            for i, (spec, div) in enumerate(terms) if not spec.is_zero]
    identity = activation is None or activation.kind == "identity"
    e = None if identity else activation.diag_coefficients(dim)
    if push is not None:
        weights, source = push
        gain = 1.0 if identity else e[:, None]
        own = [_factor((spec._factor, math.sqrt(1.0 / div)) if spec.kind == "full"
                       else np.sqrt((spec.var if spec.kind == "isotropic" else spec.vec) / div), dim)
               * (gain if through else 1.0)
               for spec, div, through in live]
        with np.errstate(over="ignore", invalid="ignore"):
            stacked = np.hstack([gain * (weights @ _factor(source, weights.shape[1])), *own])
            r = np.linalg.qr(stacked.T, mode="r") if np.isfinite(stacked).all() else stacked
        if not np.isfinite(r).all():
            raise OverflowError("the pushed covariance overflows float64")
        return r.T, 1.0
    if not live:
        return None
    if all(spec.kind != "full" for spec, _, _ in live):
        gain = 1.0 if identity else e * e
        return np.sqrt(sum((spec.var if spec.kind == "isotropic" else spec.vec)
                           * (gain if through else 1.0) / div for spec, div, through in live))
    if activation is None:
        (spec, div, _), = live
        return spec._factor, math.sqrt(1.0 / div)
    gain = 1.0 if identity else np.outer(e, e)
    cov = sum(spec.matrix(dim) * (gain if through else 1.0) / div for spec, div, through in live)
    eigval, eigvec = np.linalg.eigh(cov)
    return eigvec * np.sqrt(np.clip(eigval, 0.0, None)), 1.0


@dataclass(frozen=True)
class RngStream:
    """Splittable random stream keyed by ``(seed, path)``.

    ``child(*ix)`` appends integers to the path; ``generator()`` builds an
    SFC64 bit generator seeded by ``SeedSequence(seed, spawn_key=path)``.
    The seed sequence hashes the path into the generator state, so streams
    with distinct paths are independent and each is reproducible from its
    ``(seed, path)`` alone.  Seeds are signed 64-bit integers, so no two
    share the two's-complement bits that seed the generator.
    """

    seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self):
        seed = _integer(self.seed, "seed")
        if not -(2**63) <= seed < 2**63:
            raise ValidationError(f"seed must lie in [-2**63, 2**63), got {seed}")
        object.__setattr__(self, "seed", seed)
        path = tuple(_integer(i, "stream path index", 0) for i in self.path)
        object.__setattr__(self, "path", path)

    def child(self, *indices: int) -> "RngStream":
        return RngStream(self.seed, self.path + indices)

    def generator(self) -> np.random.Generator:
        # two's-complement view so negative 64-bit seeds stay usable
        entropy = self.seed & 0xFFFFFFFFFFFFFFFF
        seq = np.random.SeedSequence(entropy=entropy, spawn_key=self.path)
        return np.random.Generator(np.random.SFC64(seq))


class _Sites:
    """The draw sites of one part of a sampler call, one stream per
    ``(kind, layer)``.

    The generator of ``rng.child(kind, layer)`` is built the first time
    the site draws, and each draw takes the site's next block of rows, so
    draws in the same order give the same blocks.  Draws take a site's law
    from :func:`_law`, which the layer kernel builds once per call for
    every site; a silent site (law None) builds no stream, stays bit-exact
    and costs nothing.  ``draw`` returns the site's next ``shape`` block
    from a law, and ``plus`` returns ``h`` plus one such block for every
    copy (first axis) of ``h``, a new array, or ``h`` itself for a silent
    site; it never writes into ``h``.  One thread uses a ``_Sites``.
    """

    __slots__ = ("_rng", "_gens")

    def __init__(self, rng: RngStream):
        self._rng = rng
        self._gens = {}

    def _generator(self, kind: int, layer: int) -> np.random.Generator:
        key = (kind, layer)
        gen = self._gens.get(key)
        if gen is None:
            gen = self._gens[key] = self._rng.child(*key).generator()
        return gen

    def draw(self, law, kind: int, layer: int, shape: tuple) -> np.ndarray:
        """The site's next ``shape`` block from a law that is not silent:
        for a factor of ``k`` columns, ``k`` normals per row."""
        gen = self._generator(kind, layer)
        if isinstance(law, tuple):  # a factor and a scale
            factor, law = law
            z = _tiled(gen.standard_normal((*shape[:-1], factor.shape[1])), factor)
        else:
            z = gen.standard_normal(shape)
        z *= law
        return z

    def plus(self, h, law, kind: int, layer: int):
        if law is None:
            return h
        z = self.draw(law, kind, layer, h.shape)
        z += h
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


def _fan_out(y: np.ndarray, h: np.ndarray, f: int) -> np.ndarray:
    """Add copy ``i`` of ``h`` to the ``f`` split blocks ``y[i*f:(i+1)*f]``."""
    fanned = y.reshape(-1, f, *h.shape[1:])
    fanned += h[:, None]
    return y


def _average(h: np.ndarray, count: int) -> np.ndarray:
    """The means of ``count`` groups of consecutive copies of ``h``."""
    if h.shape[0] == count:
        return h
    return h.reshape(count, -1, *h.shape[1:]).mean(axis=1)


def _sample(net, profile, x, trials, rng, fan_in, fan_out, combine_split=False, reference=None,
            scores=None):
    """The layer kernel behind every sampler and sweep: ``(trials, d_L)``
    samples of a vector ``x`` or ``(N, trials, d_L)`` of an ``(N, d_0)``
    matrix, their :class:`SampleStats` against a ``reference``, or their
    :class:`_Scores` against ``scores = (references, labels)``.

    The call's ``R = N * trials`` rows, input major, run in one part, or at
    ``R >= _SPLIT_ROWS`` in two: rows ``0 .. ceil(R / 2) - 1`` on this
    thread, drawn from the sites of ``rng``, and the rest on one worker
    thread, drawn from the sites of ``rng.child(_PART_1)``.  Each part runs
    its rows in tiles of ``_GROUP_ROWS`` rows (:func:`_parts`), and each
    tile runs depth first through every layer into the part's sink: its
    rows of one preallocated output, or the part's :class:`_Moments` or
    :class:`_Scores`, which the thread that drew the tile folds it into.
    Every block of a tile has one row per tile row.  With ``fans =
    (*fan_in, fan_out[-1])``, ``fans[l]`` copies of layer ``l`` are averaged
    into the input of one group of layer ``l + 1`` (layer 0: modulated
    inputs, noise ``Sigma_m / fans[0]``), and ``fans[L]`` into the output.
    Layer ``l`` makes one weighted addition per group with weight noise
    ``Sigma_w / fans[l-1]`` (with ``combine_split``, combine noise
    ``Sigma_c / fans[l-1]**2``), fans it out to ``fan_out[l-1]`` copies
    with split noise and activates them; ``fan_out[l-1]`` divides
    ``fans[l]``.  Without split noise those copies are identical, so the
    kernel activates the weighted addition once instead.  It then averages
    the copies in groups of ``fans[l]`` and adds one activation block per
    group, at ``Sigma_a / fans[l]``: the law of activation noise per copy,
    averaged.

    Before any tile, one pass up the layers builds every site's law
    ``laws[l][kind]`` (:func:`_law`; None: silent); both parts draw every
    block from them.  The pass pushes the noise that enters the weighted
    addition of every layer ``l`` into it: the law ``P`` of the last site
    of layer ``l - 1`` (modulation at ``l = 1``) becomes the term ``D_l W_l
    P W_l^T D_l`` of layer ``l``'s merged site if it is linear (``D_l`` its
    activation's diagonal), else the term ``W_l P W_l^T`` of its
    pre-activation site, next to its weight and combine terms, and that
    last site is silent.  Each group of layer ``l - 1`` feeds one weighted
    addition of layer ``l``, and ``P`` is at its own divisor, so the law is
    exact.  So only the top layer's last site draws the noise of the
    layers under it, down to the nearest nonlinear layer's weighted
    addition, and an all-linear net draws one block per row.  Where ``P``
    is silent nothing is pushed, and a nonlinear layer's weight and combine
    sites keep their laws.  A pushed factor that overflows is refused with
    a :class:`ValidationError` naming the layer, before any stream is built.

    ``lo`` is the highest layer below every live site: ``L`` when nothing
    draws.  Every group of layer ``lo`` or below is the noiseless pass of
    its input, the same for every copy, trial and realization, so the call
    runs that pass once on its ``N`` inputs, with :func:`forward`'s
    operations, and ``walk`` starts from it at layer ``lo``.  When layer
    ``lo + 1`` is linear, or nonlinear with a weighted addition that draws
    (weight, combine or split), the prefix runs that weighted addition too,
    once per input, and a linear layer's activation after it; ``walk`` only
    adds its first site's block.  A call that draws nothing is the case
    ``lo = L``: its rows are :func:`forward` bit for bit at any copy count.

    A layer whose activation is linear averages before its weighted
    addition.  Each group of ``walk(l)`` is the mean of ``ks[l]``
    independent realizations of a layer-``l`` group (``ks[L] = 1``).  A
    linear layer ``l`` makes one weighted addition on the groups of layer
    ``l - 1`` at ``ks[l-1] = ks[l] * fans[l] / fan_out[l-1]``, activates
    once, and adds one block of its merged site at ``D (Sigma_w / (F *
    ks[l-1]) + Sigma_c / (F**2 * ks[l-1]) + Sigma_spl / (ks[l] * fans[l]))
    D + Sigma_a / (ks[l] * fans[l])``, with ``F = fans[l-1]`` and ``D`` the
    diagonal of the activation.  Below a nonlinear layer ``ks`` is 1
    again, and the modulation noise is at ``Sigma_m / (fans[0] * ks[0])``.
    A nonlinear layer with ``ks[l] > 1`` runs realization ``j`` of all its
    groups after realization ``j - 1``, sums them in order, divides by
    ``ks[l]`` and adds one activation block at ``Sigma_a / (ks[l] *
    fans[l])``.  A net with no linear layer has every ``ks`` 1.  Whole
    realizations and groups run in passes of about ``_CHUNK_BYTES``, which
    changes no sample.

    Each part records its exception in a list both threads share and stops
    at its next tile once the other part has failed; the calling thread
    raises the first one.
    """
    profile.validate_for(net)
    trials = _integer(trials, "trials", 1)
    x = _check_input(net, x)
    xs = x if x.ndim == 2 else x[None]
    total = xs.shape[0] * trials
    if reference is not None and total < 2:
        raise ValidationError(f"statistics need n >= 2 sample rows, got {total} "
                              f"({xs.shape[0]} input(s) x {trials} trial(s))")
    combine, split = (profile.combine, profile.split) if combine_split else (_ZERO, _ZERO)
    dims = net.dims()
    # group sizes of the averages: fans[l] copies of layer l feed one group
    # of layer l + 1 (l = 0: modulated inputs), fans[L] the output
    fans = (*fan_in, fan_out[-1])
    linear = [False] + [layer.activation.is_linear for layer in net.layers]
    # ks[l]: the independent realizations of a group of layer l that one
    # group of walk(l) averages.  A linear layer averages the inputs of all
    # its weighted additions before making one, so each of its groups
    # averages ks[l] * fans[l] / fan_out[l-1] groups of layer l - 1; a
    # nonlinear layer runs its realizations one by one, so below it ks is 1
    ks = [1] * (net.depth + 1)
    for l in range(net.depth, 0, -1):
        if linear[l]:
            ks[l - 1] = ks[l] * fans[l] // fan_out[l - 1]
    # laws[l][kind]: the law of site (kind, l), None where silent.  source:
    # the law of the noise that enters layer l's weighted addition, the last
    # site of layer l - 1, which layer l takes as a pushed term, so that
    # site's slot stays silent; the top layer's last site draws it.
    # unit_bytes[l]: the bytes one group of layer l holds at its widest
    # level below it
    laws = [{KIND_MODULATION: None}]
    source = _law(dims[0], ((profile.modulation, fans[0] * ks[0]),))
    unit_bytes = [0]
    for l in range(1, net.depth + 1):
        layer, weight, activation = net.layers[l - 1], profile.weight[l - 1], profile.activation[l - 1]
        inner, copies = fans[l - 1] * ks[l - 1], ks[l] * fans[l]
        pre = ((weight, inner), (combine, fans[l - 1] * inner))
        push = None if source is None else (layer.weights, source)
        try:
            if linear[l]:
                source = _law(dims[l], (*pre, (split, copies), (activation, copies)),
                              layer.activation, push)
                laws.append({_KIND_LINEAR: None})
            elif push is None:  # nothing to push: weight and combine keep their sites
                laws.append({KIND_WEIGHT: _law(dims[l], pre[:1]), KIND_COMBINE: _law(dims[l], pre[1:])})
            else:
                laws.append({KIND_WEIGHT: _law(dims[l], pre, push=push), KIND_COMBINE: None})
        except OverflowError:
            raise ValidationError(f"the noise pushed through the weights of layer {l} "
                                  "overflows float64") from None
        if linear[l]:
            below, width = 1, 1
        else:
            laws[l][KIND_SPLIT] = _law(dims[l], ((split, 1),))
            laws[l][KIND_ACTIVATION], source = None, _law(dims[l], ((activation, copies),))
            below, width = fans[l] // fan_out[l - 1], fans[l]
        widest = max(below * dims[l - 1], width * dims[l])
        unit_bytes.append(max(unit_bytes[-1] * below, 8 * min(total, _GROUP_ROWS) * widest))
    laws[-1][_KIND_LINEAR if linear[-1] else KIND_ACTIVATION] = source
    # lo: the highest layer below every live site; its groups are the
    # noiseless pass of their input, run once per input.  The first live
    # site is in layer lo + 1; when it is the merged site of a linear layer
    # or the weighted addition of a nonlinear one, the prefix runs that
    # layer's weighted addition too (once), and a linear layer's activation
    live = [l for l, site in enumerate(laws) if any(law is not None for law in site.values())]
    lo = min(live, default=net.depth + 1) - 1
    once = lo < net.depth and (linear[lo + 1] or any(
        laws[lo + 1][kind] is not None for kind in (KIND_WEIGHT, KIND_COMBINE, KIND_SPLIT)))
    prefix = xs
    for layer in net.layers[:lo]:
        prefix = layer.activation._in_place(affine(layer.weights, layer.bias, prefix))
    if once:
        prefix = affine(net.layers[lo].weights, net.layers[lo].bias, prefix)
        if linear[lo + 1]:
            prefix = net.layers[lo].activation._in_place(prefix)

    def noisy(sites, h, kind, l):
        """``h`` plus the next block of site ``(kind, l)``, or ``h`` where it is silent."""
        return sites.plus(h, laws[l][kind], kind, l)

    def added(sites, l, count, inputs, n):
        """The noiseless weighted addition ``(count, n, d_l)`` of layer ``l``
        on the next ``count`` groups of layer ``l - 1``, activated when the
        layer is linear; the prefix's rows where the prefix ran it."""
        if once and l == lo + 1:
            return np.broadcast_to(inputs, (count, n, dims[l]))
        layer = net.layers[l - 1]
        h = affine(layer.weights, layer.bias, walk(sites, l - 1, count, inputs, n))
        return layer.activation._in_place(h) if linear[l] else h

    def groups(sites, l, count, inputs, n):
        """One realization ``(count, n, d_l)`` of the next ``count`` groups
        of a nonlinear layer ``l``, before their activation noise: each the
        mean of ``fans[l]`` activated copies."""
        layer, f, g = net.layers[l - 1], fan_out[l - 1], fans[l]
        h = added(sites, l, count * g // f, inputs, n)
        for kind in (KIND_WEIGHT, KIND_COMBINE):
            h = noisy(sites, h, kind, l)
        if laws[l][KIND_SPLIT] is not None:
            z = sites.draw(laws[l][KIND_SPLIT], KIND_SPLIT, l, (count * g, n, dims[l]))
            h = _fan_out(z, h, f)
        return _average(layer.activation._in_place(h), count)

    def walk(sites, l, count, inputs, n):
        """The next ``count`` groups ``(count, n, d_l)`` of layer ``l`` of a
        tile of ``n`` rows whose layer-``lo`` values are ``inputs``, drawn
        from ``sites``: each the mean of ``ks[l]`` independent realizations
        of the averaged input of one group of layer ``l + 1``; at ``l = L``
        the output."""
        if l == lo:
            return np.broadcast_to(inputs, (count, n, dims[l]))
        step = max(1, _CHUNK_BYTES // unit_bytes[l])
        if count > step:
            return np.concatenate([walk(sites, l, min(step, count - s), inputs, n)
                                   for s in range(0, count, step)])
        if linear[l]:
            return noisy(sites, added(sites, l, count, inputs, n), _KIND_LINEAR, l)
        k = ks[l]
        if k == 1:
            h = groups(sites, l, count, inputs, n)
        else:
            # realization j of all count groups follows realization j - 1,
            # in passes of whole realizations, and they are summed in order
            h = np.zeros((count, n, dims[l]))
            per = max(1, step // count)
            for s in range(0, k, per):
                for z in groups(sites, l, min(per, k - s) * count, inputs, n).reshape(
                        -1, count, n, dims[l]):
                    h += z
            h /= k
        return noisy(sites, h, KIND_ACTIVATION, l)

    parts = _parts(total)
    if reference is not None:
        sinks = [_Moments(reference, dims[-1]) for _ in parts]
    elif scores is not None:
        sinks = [_Scores(*scores, trials) for _ in parts]
    else:
        out = np.empty((total, dims[-1]))
        sinks = [out] * len(parts)

    # the first exception of either part; the other part stops at its next tile
    failed = []

    def run(sites, tiles, sink):
        """The rows of ``tiles``, in order, each tile into ``sink``."""
        try:
            for t in tiles:
                if failed:
                    return
                # the tile's rows of layer lo; a vector input broadcasts to all of them
                inputs = prefix[0] if xs.shape[0] == 1 else prefix[np.arange(t.start, t.stop) // trials]
                sink[t] = walk(sites, net.depth, 1, inputs, t.stop - t.start)[0]
        except BaseException as exc:  # raised again by the calling thread
            failed.append(exc)

    if len(parts) == 1:
        run(_Sites(rng), parts[0], sinks[0])
    else:
        worker = threading.Thread(target=lambda: run(_Sites(rng.child(_PART_1)), parts[1], sinks[1]),
                                  name="optonoise-part-1", daemon=True)
        worker.start()
        try:
            run(_Sites(rng), parts[0], sinks[0])
        finally:
            worker.join()
    if failed:
        raise failed[0]
    if reference is None and scores is None:
        return out.reshape(xs.shape[0], trials, -1) if x.ndim == 2 else out
    return _merged(sinks)


def noisy_forward_samples(
    net: Network, profile: NoiseProfile, x, trials: int, rng: RngStream, *, reference=None
) -> np.ndarray | SampleStats:
    """``trials`` independent noisy evaluations, vectorized over the trial axis.

    Modulation noise is added once to the input; each layer then adds
    weight noise inside the activation and activation noise after it.
    Every layer draws, in law, the noise below its weighted addition after
    it, from its first site (see :func:`_sample`), so a net of linear layers
    draws only its top layer's merged site.
    ``x`` is one input vector, giving ``(trials, d_L)``, or an ``(N, d_0)``
    matrix of inputs, giving ``(N, trials, d_L)``.  The call's ``R = N *
    trials`` rows are input major, so input ``i`` takes rows ``i * trials``
    to ``(i + 1) * trials - 1``.  Every site is drawn as one block of a
    part's rows: all ``R`` rows from ``rng.child(kind, layer)``, or at
    ``R >= _SPLIT_ROWS`` the first ``ceil(R / 2)`` from there and the rest
    from ``rng.child(_PART_1, kind, layer)``.  So a batch is reproducible
    as a whole, ``trials=1`` gives one evaluation, row 0 of any call is
    that evaluation, and a one-row matrix gives exactly the samples of its
    vector.  With an all-zero profile every row equals :func:`forward`
    bit-exactly.

    With a ``reference`` vector of width ``d_L`` the call returns the
    :class:`SampleStats` of all ``R`` rows against it instead, folded in
    tile by tile, so it never holds the ``R`` rows: the same draws, and
    bit for bit ``stats_from_samples(samples.reshape(-1, d_L), reference)``.
    """
    ones = (1,) * net.depth
    return _sample(net, profile, x, trials, rng, ones, ones, reference=reference)


@dataclass(frozen=True, eq=False)
class SampleStats:
    """Summary of a Monte Carlo run, merged from the run's tiles.

    ``covariance`` is the unbiased (n-1 divisor) sample covariance;
    ``mse_vs_reference`` is the mean squared 2-norm of the deviation from
    the reference vector.  Each tile of ``_GROUP_ROWS`` rows contributes
    the moments of its deviations from the reference, and tiles merge in
    row order by Chan's pairwise update (:class:`_Moments`).
    """

    n: int
    mean: np.ndarray
    covariance: np.ndarray
    mse_vs_reference: float


class _Moments:
    """Running statistics of the tiles of one part of a run against
    ``reference``: row count, and the mean, centred cross-product and
    summed square of the deviations from it, so rows equal to it give a
    zero covariance and its mean exactly.

    ``moments[rows] = tile`` folds a finite tile in; the row slice is not
    needed.  ``merge`` is Chan's pairwise update; overflow is left to
    :meth:`result`, which refuses it.
    """

    __slots__ = ("reference", "n", "mean", "m2", "sq")

    def __init__(self, reference, width: int):
        reference = _array(reference, "reference", 1)
        if reference.shape[0] != width:
            raise ValidationError(
                f"reference has length {reference.shape[0]}, expected the sample width {width}"
            )
        if not np.isfinite(reference).all():
            raise ValidationError("reference contains non-finite values")
        self.reference, self.n, self.sq = reference, 0, 0.0
        self.mean, self.m2 = np.zeros(width), np.zeros((width, width))

    def __setitem__(self, rows: slice, tile: np.ndarray) -> None:
        if not np.isfinite(tile).all():
            raise ValidationError("samples contain non-finite values")
        with np.errstate(over="ignore", invalid="ignore"):
            dev = tile - self.reference
            sq = np.einsum("ij,ij->", dev, dev)
            mean = dev.mean(axis=0)
            dev -= mean
            self._add(tile.shape[0], mean, dev.T @ dev, sq)

    def _add(self, n: int, mean: np.ndarray, m2: np.ndarray, sq) -> None:
        """Add ``n`` rows of the given mean, cross-product and squared deviation."""
        total = self.n + n
        with np.errstate(over="ignore", invalid="ignore"):
            delta = mean - self.mean
            self.mean = self.mean + delta * (n / total)
            self.m2 = self.m2 + m2 + np.outer(delta, delta * (self.n * n / total))
            self.sq = self.sq + sq
        self.n = total

    def merge(self, other: "_Moments") -> None:
        self._add(other.n, other.mean, other.m2, other.sq)

    def result(self) -> SampleStats:
        n = self.n
        if n < 2:
            raise ValidationError("need an (n, d) sample matrix with n >= 2")
        with np.errstate(over="ignore", invalid="ignore"):
            mean = self.reference + self.mean
            cov = self.m2 / (n - 1)
            cov = (cov + cov.T) / 2.0
            mse = float(self.sq / n)
        for what, value in (("mean", mean), ("covariance", cov),
                            ("mean squared deviation", mse)):
            if not np.all(np.isfinite(value)):
                raise ValidationError(f"sample {what} overflows float64")
        return SampleStats(n=n, mean=mean, covariance=cov, mse_vs_reference=mse)


class _Scores:
    """Per-trial summed and worst squared deviation of the tiles of one
    part of a sweep's call from ``references``, one row per input, summed
    per row as :func:`numpy.linalg.norm` sums, and the argmax hits of
    ``labels`` (None: no hits).  Row ``r`` is input ``r // trials``, trial
    ``r % trials``."""

    __slots__ = ("references", "labels", "trials", "sq", "worst", "hits")

    def __init__(self, references: np.ndarray, labels, trials: int):
        if not np.isfinite(references).all():
            raise ValidationError("reference contains non-finite values")
        self.references, self.labels, self.trials = references, labels, trials
        self.sq, self.worst, self.hits = np.zeros(trials), np.zeros(trials), 0

    def __setitem__(self, rows: slice, tile: np.ndarray) -> None:
        if not np.isfinite(tile).all():
            raise ValidationError("samples contain non-finite values")
        inputs, trial = np.divmod(np.arange(rows.start, rows.stop), self.trials)
        dev = self.references[inputs]
        np.subtract(tile, dev, out=dev)
        dev *= dev
        sq = dev.sum(axis=1)
        self.sq += np.bincount(trial, sq, self.trials)
        np.maximum.at(self.worst, trial, sq)
        if self.labels is not None:
            self.hits += int(np.count_nonzero(tile.argmax(axis=1) == self.labels[inputs]))

    def merge(self, other: "_Scores") -> None:
        self.sq += other.sq
        np.maximum(self.worst, other.worst, out=self.worst)
        self.hits += other.hits

    def result(self) -> tuple[np.ndarray, np.ndarray, int]:
        return self.sq, self.worst, self.hits


def _merged(parts: list):
    """The result of a run's part sinks, merged in order."""
    first, *rest = parts
    for part in rest:
        first.merge(part)
    return first.result()


def stats_from_samples(samples: np.ndarray, reference) -> SampleStats:
    """Statistics of an ``(n, d)`` finite sample matrix, merged from tiles.

    The rows are cut as a sampler call of ``n`` rows cuts them
    (:func:`_parts`), and each part's tiles are folded in by
    :class:`_Moments`, so the samples of a call give bit for bit the
    statistics that the call returns with ``reference=``, and no deviation
    array the size of the samples is held.  Finite samples whose mean,
    covariance or squared deviation overflow are refused.
    """
    samples = _array(samples, "samples", 2)
    parts = []
    for tiles in _parts(samples.shape[0]):
        parts.append(_Moments(reference, samples.shape[1]))
        for t in tiles:
            parts[-1][t] = samples[t]
    return _merged(parts)


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
