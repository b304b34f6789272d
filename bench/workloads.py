"""Workloads of the optonoise benchmark: seeded inputs, commands and checks.

Each workload is a fixed list of CLI commands.  ``build_plan`` writes every
input file a command reads into a work directory, derives everything from
the workload seed, and computes the oracle each output is checked against.
Oracles come from the benchmark's own numpy/scipy code or from public
optonoise functions called outside the timed region.

Sizes come in two scales: ``full`` is what a benchmark run measures, and
``tiny`` is the warm-up (run during set-up) and the smoke-test size.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = SRC / "optonoise" / "fixtures"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy.linalg  # noqa: E402

from optonoise import covariance, network, noise  # noqa: E402

WORKLOADS = ("fixture-sweep", "wide-batch", "analytic-d64")

# Tolerances.  Sampler outputs are compared in standard errors of the
# estimator; 8 SE over a few thousand correlated entries leaves a chance
# failure probability far below 1e-9 per run.  Analytic outputs are exact
# up to rounding.
MAX_SE = 8.0
ANALYTIC_RTOL = 1e-9


class CheckFailed(Exception):
    """An output file disagrees with its oracle."""


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``argv`` excludes ``--output``, which the runner adds."""

    name: str
    argv: list[str]
    check: Callable[[dict], None]


def _read_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def read_output(path) -> dict:
    """Parse a command's output file; the runner's only reader."""
    return _read_json(path)


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([int(seed) & 0xFFFFFFFF, WORKLOADS.index(workload)])


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _rel_fro(got, want) -> float:
    got = np.asarray(got, dtype=np.float64)
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


# ---------------------------------------------------------------------------
# fixture-sweep: accuracy sweeps on the shipped 8-16-4 classifier
# ---------------------------------------------------------------------------

FIXTURE_SIZES = {
    "full": {"inputs": 50, "trials": 200, "grid": [1, 2, 4, 8]},
    "tiny": {"inputs": 16, "trials": 50, "grid": [1, 8]},
}


def _fixture_plan(seed: int, work: Path, scale: str) -> list[Command]:
    size = FIXTURE_SIZES[scale]
    rng = _rng(seed, "fixture-sweep")
    dataset = _read_json(FIXTURES / "dataset_8d.json")
    n = size["inputs"]
    data_path = _write_json(
        work / "fixture_inputs.json",
        {"inputs": dataset["inputs"][:n], "labels": dataset["labels"][:n]},
    )
    # heavy weight noise, light activation noise: averaging has a lot to
    # remove, so the largest grid point beats copies=1 by many standard errors
    calibrate = {
        "w_fraction": float(rng.uniform(0.25, 0.35)),
        "a_fraction": float(rng.uniform(0.03, 0.06)),
    }
    program_seed = int(rng.integers(0, 2**31))
    grid = ",".join(str(c) for c in size["grid"])
    commands = []
    for design in ("a", "b"):
        cfg_path = _write_json(
            work / f"fixture_{design}.json",
            {
                "network": str(FIXTURES / "mlp_8_16_4.json"),
                "profile": {"calibrate": calibrate},
                "inputs": data_path,
                "design": design,
                "trials": size["trials"],
                "seed": program_seed,
            },
        )
        commands.append(
            Command(
                f"accuracy-{design}",
                ["--config", cfg_path, "experiment", "accuracy", "--grid", grid],
                _accuracy_check(design, size),
            )
        )
    return commands


def _accuracy_check(design: str, size: dict) -> Callable[[dict], None]:
    def check(obj: dict) -> None:
        rows = {row["copies"]: row for row in obj["rows"]}
        _require(sorted(rows) == size["grid"], f"grid rows {sorted(rows)}")
        for row in rows.values():
            _require(row["design"] == design, "design column")
            _require(row["trials"] == size["trials"], "trials column")
            # labels are the network's own noiseless decisions
            _require(row["acc_nn"] == 1.0, f"noiseless accuracy {row['acc_nn']}")
        one, top = rows[1], rows[max(rows)]
        # copies=1 consumes exactly the draw sites of the plain network
        _require(
            one["acc_design"] == one["acc_onn"],
            f"copies=1 accuracy {one['acc_design']} != plain {one['acc_onn']}",
        )
        _require(
            top["acc_design"] > one["acc_design"],
            f"copies={max(rows)} accuracy {top['acc_design']} does not beat "
            f"copies=1 {one['acc_design']}",
        )

    return check


# ---------------------------------------------------------------------------
# wide-batch: huge trial blocks on a width-64 diag-linear net
# ---------------------------------------------------------------------------

WIDE_SIZES = {
    "full": {"simulate": 100_000, "design_b": 10_000, "design_a": 2_000,
             "m": 8, "copies": [4, 4, 4, 4, 1]},
    "tiny": {"simulate": 2_000, "design_b": 500, "design_a": 200,
             "m": 8, "copies": [2, 2, 2, 2, 1]},
}
WIDE_DIM = 64
WIDE_DEPTH = 4


def _wide_plan(seed: int, work: Path, scale: str) -> list[Command]:
    size = WIDE_SIZES[scale]
    rng = _rng(seed, "wide-batch")
    d = WIDE_DIM
    layers = []
    for _ in range(WIDE_DEPTH):
        layers.append(
            {
                "weights": (rng.normal(size=(d, d)) * 0.9 / math.sqrt(d)).tolist(),
                "bias": rng.normal(0.0, 0.1, size=d).tolist(),
                "activation": {"diag": rng.uniform(0.6, 1.0, size=d).tolist()},
            }
        )
    net_path = _write_json(work / "wide_net.json", {"input_dim": d, "layers": layers})
    profile_path = _write_json(
        work / "wide_profile.json",
        {
            "modulation": {"isotropic": float(rng.uniform(0.005, 0.02))},
            "weight": [{"diagonal": rng.uniform(0.005, 0.02, size=d).tolist()}
                       for _ in range(WIDE_DEPTH)],
            "activation": [{"isotropic": float(rng.uniform(0.002, 0.01))}
                           for _ in range(WIDE_DEPTH)],
            "combine": {"isotropic": float(rng.uniform(0.005, 0.02))},
            "split": {"isotropic": float(rng.uniform(0.002, 0.01))},
        },
    )
    x = rng.normal(size=d)
    input_text = json.dumps(x.tolist())
    program_seed = str(int(rng.integers(0, 2**31)))

    net = network.load_network(net_path)
    profile = noise.profile_from_json(_read_json(profile_path))
    linnet = covariance.LinearNet.from_network(net)
    mean = network.forward(net, x)
    plain_cov = covariance.propagate(linnet, profile).final
    cs_cov = covariance.propagate_b_branchwise(linnet, profile, size["m"]).output
    tree_cov = _tree_covariance(linnet, profile, size["copies"])

    common = ["--net", net_path, "--profile", profile_path, "--input", input_text]
    commands = [
        Command(
            "simulate",
            ["--seed", program_seed, "--trials", str(size["simulate"]), "simulate", *common],
            _stats_check(size["simulate"], mean, plain_cov),
        ),
        Command(
            "design-b",
            ["--seed", program_seed, "--trials", str(size["design_b"]),
             "design-b", *common, "--m", str(size["m"])],
            _stats_check(size["design_b"], mean, cs_cov),
        ),
        Command(
            "design-a",
            ["--seed", program_seed, "--trials", str(size["design_a"]),
             "design-a", *common, "--copies", json.dumps(size["copies"])],
            _stats_check(size["design_a"], mean, tree_cov),
        ),
    ]
    return commands


def _tree_covariance(linnet, profile, copies) -> np.ndarray:
    """Exact output covariance of tree replication on a linear net.

    Layer l averages n_{l-1} independent subtrees, which is the
    combine/split update with m = n_{l-1} and no combine or split noise.
    """
    dims = linnet.dims()
    sigma = profile.modulation.matrix(dims[0])
    for l, (e, W) in enumerate(linnet.pairs, start=1):
        zero = np.zeros((dims[l], dims[l]))
        sigma = covariance.step_map_b(
            e, W, sigma,
            profile.weight[l - 1].matrix(dims[l]),
            profile.activation[l - 1].matrix(dims[l]),
            zero, zero, copies[l - 1],
        )
    return sigma


def _stats_check(trials: int, mean: np.ndarray, cov: np.ndarray) -> Callable[[dict], None]:
    """Sample mean and covariance against the exact Gaussian moments."""
    var = np.diag(cov)
    mean_se = np.sqrt(var / trials)
    # variance of a sample covariance entry of Gaussian data
    cov_se = np.sqrt((cov**2 + np.outer(var, var)) / (trials - 1))

    def check(obj: dict) -> None:
        stats = obj["stats"]
        _require(stats["n"] == trials, f"sample count {stats['n']} != {trials}")
        z_mean = np.max(np.abs(np.asarray(stats["mean"]) - mean) / mean_se)
        z_cov = np.max(np.abs(np.asarray(stats["covariance"]) - cov) / cov_se)
        _require(z_mean <= MAX_SE, f"mean off by {z_mean:.2f} standard errors")
        _require(z_cov <= MAX_SE, f"covariance off by {z_cov:.2f} standard errors")

    return check


# ---------------------------------------------------------------------------
# analytic-d64: covariance limits, trajectories and the copy-count scan
# ---------------------------------------------------------------------------

ANALYTIC_SIZES = {
    "full": {"d": 64, "depth": 40, "m": 4, "scan": 40},
    "tiny": {"d": 16, "depth": 6, "m": 4, "scan": 4},
}
LIMIT_MODES = ("series", "series-b", "fixed-iterate", "fixed-vectorized")
SCAN_DEPTH = 60
SCAN_GROWTH_TOL = 1e-6  # scan_m_grid's default


def _analytic_plan(seed: int, work: Path, scale: str) -> list[Command]:
    size = ANALYTIC_SIZES[scale]
    rng = _rng(seed, "analytic-d64")
    d, depth, m = size["d"], size["depth"], size["m"]
    # symmetric W makes A = D W nearly normal, so its spectral radius sits
    # close to ||A||_op and the series and iterations need hundreds of terms;
    # ||D||_F ||W||_F is far above 1, so only --allow-spectral admits it
    G = rng.normal(size=(d, d))
    W = (G + G.T) / math.sqrt(2 * d)
    e = rng.uniform(0.8, 1.0, size=d)
    W *= math.sqrt(rng.uniform(0.88, 0.94)) / np.linalg.norm(e[:, None] * W, 2)
    A = e[:, None] * W
    sigma_m = np.eye(d) * float(rng.uniform(0.005, 0.02))
    w_var = rng.uniform(0.005, 0.02, size=d)
    a_var = float(rng.uniform(0.002, 0.01))
    spec = {
        "e": e.tolist(),
        "W": W.tolist(),
        "sigma_m": {"isotropic": sigma_m[0, 0]},
        "sigma_w": {"diagonal": w_var.tolist()},
        "sigma_a": {"isotropic": a_var},
    }
    sym_path = _write_json(work / "symmetric.json", {**spec, "m": 1})
    sym_m_path = _write_json(work / "symmetric_m.json", {**spec, "m": m})
    layer = {"weights": spec["W"], "bias": [0.0] * d, "activation": {"diag": spec["e"]}}
    deep_path = _write_json(work / "deep_net.json", {"input_dim": d, "layers": [layer] * depth})
    deep_profile_path = _write_json(
        work / "deep_profile.json",
        {
            "modulation": spec["sigma_m"],
            "weight": [spec["sigma_w"]] * depth,
            "activation": [spec["sigma_a"]] * depth,
        },
    )

    # oracles, independent of the package's own solvers
    sigma_w = np.diag(w_var)
    sigma_a = np.eye(d) * a_var
    Q = (e[:, None] * sigma_w) * e[None, :]
    limit = scipy.linalg.solve_discrete_lyapunov(A, Q + sigma_a)
    plain_L = _power_sum(A, Q + sigma_a, sigma_m, depth, 1.0)
    cs_L = _power_sum(A, Q + m * sigma_a, sigma_m, depth, 1.0 / m)
    branch_L = _branchwise_output(A, Q, sigma_a, sigma_m, depth, m)

    s = size["scan"]
    w_grid, d_grid = f"2:20:{s}", f"1.5:18:{s}"
    commands = [
        Command(
            f"limit-{mode}",
            ["limit", "--symmetric", sym_path, "--mode", mode, "--allow-spectral"],
            _sigma_check("sigma", limit),
        )
        for mode in LIMIT_MODES
    ]
    deep = ["--net", deep_path, "--profile", deep_profile_path]
    commands += [
        Command("trajectory", ["covariance", "--mode", "trajectory", *deep],
                _trajectory_check(depth, plain_L)),
        Command("trajectory-b",
                ["covariance", "--mode", "trajectory-b", *deep, "--m", str(m)],
                _trajectory_check(depth, cs_L)),
        Command("branchwise",
                ["covariance", "--mode", "branchwise", *deep, "--m", str(m)],
                _branchwise_check(depth, branch_L)),
        Command("closed-form",
                ["covariance", "--mode", "closed-form", "--symmetric", sym_path,
                 "--depth", str(depth)],
                _sigma_check("sigma", plain_L)),
        Command("closed-form-b",
                ["covariance", "--mode", "closed-form-b", "--symmetric", sym_m_path,
                 "--depth", str(depth)],
                _sigma_check("sigma", cs_L)),
        Command("scan-m",
                ["scan-m", "--d", str(d), "--w-grid", w_grid, "--d-grid", d_grid,
                 "--depth", str(SCAN_DEPTH)],
                _scan_check(d, w_grid, d_grid)),
    ]
    return commands


def _power_sum(A, Q, sigma_m, depth: int, damping: float) -> np.ndarray:
    """``sum_{k<L} c^(k+1) A^k Q A^kT + c^L A^L S_m A^LT`` with ``c = damping``.

    ``c = 1`` is the plain depth-L covariance; ``c = 1/m`` with
    ``Q = D S_w D + m S_a`` is the combine/split per-branch recursion.
    """
    total = np.zeros_like(Q)
    P = np.eye(A.shape[0])
    for k in range(depth):
        total += damping ** (k + 1) * (P @ Q @ P.T)
        P = A @ P
    total += damping**depth * (P @ sigma_m @ P.T)
    return total


def _branchwise_output(A, Q, sigma_a, sigma_m, depth: int, m: int) -> np.ndarray:
    """Output covariance of the faithful combine/split simulation."""
    shared = np.zeros_like(sigma_m)
    branch = sigma_m
    for _ in range(depth):
        shared = A @ shared @ A.T + (A @ branch @ A.T + Q) / m
        branch = sigma_a
    return shared + branch / m


def _sigma_check(key: str, want: np.ndarray) -> Callable[[dict], None]:
    def check(obj: dict) -> None:
        err = _rel_fro(obj[key], want)
        _require(err <= ANALYTIC_RTOL, f"{key} off by {err:.3e} relative Frobenius")

    return check


def _trajectory_check(depth: int, final: np.ndarray) -> Callable[[dict], None]:
    def check(obj: dict) -> None:
        layers = obj["layers"]
        _require([s["index"] for s in layers] == list(range(depth + 1)), "layer indices")
        err = _rel_fro(layers[-1]["sigma"], final)
        _require(err <= ANALYTIC_RTOL, f"depth-{depth} sigma off by {err:.3e}")

    return check


def _branchwise_check(depth: int, output: np.ndarray) -> Callable[[dict], None]:
    def check(obj: dict) -> None:
        _require(len(obj["shared"]) == depth + 1, "shared trajectory length")
        _require(len(obj["per_branch"]) == depth + 1, "per-branch trajectory length")
        err = _rel_fro(obj["output"], output)
        _require(err <= ANALYTIC_RTOL, f"branchwise output off by {err:.3e}")

    return check


def _expected_min_m(d: int, norm_w: float, norm_d: float) -> set[int]:
    """Minimal stable m for width-d scaled identities driven by modulation.

    The trajectory is ``(g/m)^l I`` with ``g = (norm_d norm_w / d)^2``, so
    the scan stops at the first m with ``g/m <= 1 + tol``.  Grid points
    within rounding of a boundary admit either neighbour.
    """
    sqrt_d = math.sqrt(d)
    g = ((norm_d / sqrt_d) * (norm_w / sqrt_d)) ** 2
    exact = g / (1.0 + SCAN_GROWTH_TOL)
    return {max(1, math.ceil(exact * (1.0 + s))) for s in (-1e-9, 0.0, 1e-9)}


def _scan_check(d: int, w_grid: str, d_grid: str) -> Callable[[dict], None]:
    def grid(text):
        lo, hi, count = text.split(":")
        return [float(v) for v in np.linspace(float(lo), float(hi), int(count))]

    cells = [(w, x) for w in grid(w_grid) for x in grid(d_grid)]

    def check(obj: dict) -> None:
        rows = obj["rows"]
        _require(len(rows) == len(cells), f"{len(rows)} scan rows, expected {len(cells)}")
        for row, (w, x) in zip(rows, cells):
            _require(row["norm_W"] == w and row["norm_D"] == x, "scan grid order")
            _require(
                row["min_m"] in _expected_min_m(d, w, x),
                f"min_m {row['min_m']} at norms ({w}, {x})",
            )

    return check


_PLANS = {
    "fixture-sweep": _fixture_plan,
    "wide-batch": _wide_plan,
    "analytic-d64": _analytic_plan,
}


def build_plan(workload: str, seed: int, work: Path, scale: str = "full") -> list[Command]:
    """Write the workload's inputs for ``seed`` under ``work``; return its commands in order."""
    work.mkdir(parents=True, exist_ok=True)
    return _PLANS[workload](seed, work, scale)
