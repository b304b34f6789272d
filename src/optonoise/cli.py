"""Command-line interface.

Every command embeds the same metadata into its output: a hash of the
resolved configuration, the seed, and the random-generator name, so any
result file can be traced back to the exact invocation that produced it.
Exit codes: 0 on success, 1 on validation/usage errors, 2 on unexpected
runtime errors.
"""

from __future__ import annotations

import hashlib
import json
import sys

import click
import numpy as np

from . import __version__
from .covariance import (
    LinearNet,
    SymmetricConfig,
    fixed_point_solve,
    limit_series,
    limit_series_b,
    propagate,
    propagate_b,
    propagate_b_branchwise,
    symmetric_closed_form,
    symmetric_closed_form_b,
    trajectory_to_json,
)
from .design_a import (
    CopyBudgetRequest,
    DesignASpec,
    design_a_samples,
    equal_split_targets,
    sufficient_copies,
)
from .design_b import DesignBSpec, compare_design_b, design_b_samples
from .errors import OptoNoiseError, ValidationError
from .experiments import (
    ExperimentConfig,
    insert_identity_layers,
    run_accuracy_experiment,
    run_depth_sweep,
    run_mse_experiment,
    scan_m_grid,
    write_csv,
)
from .idx import load_idx_images, load_idx_labels
from .network import (
    _integer,
    forward,
    lipschitz_bounds,
    load_network,
    network_to_json,
    save_network,
)
from .noise import (
    GENERATOR_NAME,
    NoiseProfile,
    RngStream,
    covspec_from_json,
    noisy_forward_samples,
    profile_from_json,
    stats_from_samples,
)

__all__ = ["cli", "cli_main", "main_entry"]


def _config_hash(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _meta(payload: dict, seed=None) -> dict:
    return {
        "config_hash": _config_hash(payload),
        "seed": seed,
        "generator": GENERATOR_NAME,
        "tool": f"optonoise {__version__}",
    }


# Every scalar, string and flat number list goes through this one C encoder;
# json.dumps(indent=...) would fall back to the pure-Python encoder.
_ENCODER = json.JSONEncoder(default=str)
_PLAIN_NUMBERS = frozenset((int, float))


def _json_text(obj) -> str:
    """``json.dumps(obj, indent=2, default=str)``, byte for byte, at C-encoder speed."""
    parts: list[str] = []
    _write_json(obj, "\n", parts)
    return "".join(parts)


def _write_json(obj, indent: str, parts: list[str]) -> None:
    """Append the text of ``obj``; ``indent`` is the newline and indent of its own level."""
    if isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        inner = indent + "  "
        opener = "{" + inner
        for key, value in obj.items():
            if not isinstance(key, str):
                if not (key is None or isinstance(key, (int, float))):
                    raise TypeError(f"keys must be str, int, float, bool or None, "
                                    f"not {type(key).__name__}")
                key = _ENCODER.encode(key)
            parts.append(opener + _ENCODER.encode(key) + ": ")
            _write_json(value, inner, parts)
            opener = "," + inner
        parts.append(indent + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        inner = indent + "  "
        if _PLAIN_NUMBERS.issuperset(map(type, obj)):
            # no int or float repr contains ", ", so every one is a separator
            flat = _ENCODER.encode(obj)[1:-1].replace(", ", "," + inner)
            parts.append("[" + inner + flat + indent + "]")
            return
        opener = "[" + inner
        for item in obj:
            parts.append(opener)
            _write_json(item, inner, parts)
            opener = "," + inner
        parts.append(indent + "]")
    else:
        parts.append(_ENCODER.encode(obj))


def _emit(ctx, result: dict, rows: list[dict] | None = None) -> None:
    """Write the result as JSON, or as CSV when rows are tabular."""
    output = ctx.obj.get("output")
    fmt = ctx.obj.get("format", "json")
    if rows is not None and fmt == "csv":
        meta = result["meta"]
        for row in rows:
            row["config_hash"] = meta["config_hash"]
            row["generator"] = meta["generator"]
        if output is None:
            raise ValidationError("csv format needs --output")
        write_csv(output, rows)
        return
    text = _json_text(result) + "\n"
    if output is None:
        click.echo(text, nl=False)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_profile(path) -> NoiseProfile:
    return profile_from_json(_load_json(path))


def _parse_vector(text: str) -> np.ndarray:
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"cannot parse vector {text!r}: {exc}")
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim != 1:
        raise ValidationError("input must be a flat JSON array")
    return arr


def _int_list(values, what: str) -> list[int]:
    """Integers from a list of numbers or numeric strings; ``2.0`` passes, ``2.5`` is refused."""
    if not isinstance(values, list):
        raise ValidationError(f"{what} must be a list of integers, got {values!r}")
    return [_integer(v, f"every entry of {what}") for v in values]


def _parse_grid(text: str) -> list[float]:
    """Comma list ('1,2,4') or linspace spec ('lo:hi:count')."""
    text = text.strip()
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise ValidationError(f"grid spec {text!r} must be lo:hi:count")
            lo, hi = float(parts[0]), float(parts[1])
            (count,) = _int_list(parts[2:], "grid count")
            return [float(v) for v in np.linspace(lo, hi, count)]
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ValidationError(f"cannot parse grid {text!r}: {exc}")


def _symmetric_config(obj: dict) -> SymmetricConfig:
    try:
        return SymmetricConfig(
            e=np.asarray(obj["e"], dtype=np.float64),
            W=np.asarray(obj["W"], dtype=np.float64),
            sigma_m=covspec_from_json(obj.get("sigma_m", "zero")),
            sigma_w=covspec_from_json(obj.get("sigma_w", "zero")),
            sigma_a=covspec_from_json(obj.get("sigma_a", "zero")),
            m=obj.get("m", 1),
        )
    except KeyError as exc:
        raise ValidationError(f"symmetric config is missing {exc}")


def _load_inputs(spec) -> tuple[np.ndarray, np.ndarray | None]:
    """Input matrix (and labels when the container carries them)."""
    if isinstance(spec, dict) and "synthetic" in spec:
        syn = spec["synthetic"]
        seed = _integer(syn.get("seed", 0), "synthetic seed")
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        shape = (_integer(syn["count"], "synthetic count"), _integer(syn["dim"], "synthetic dim"))
        X = gen.normal(0.0, float(syn.get("scale", 1.0)), size=shape)
        return X, None
    if isinstance(spec, str):
        if spec.endswith(".idx"):
            return load_idx_images(spec), None
        obj = _load_json(spec)
        if isinstance(obj, dict):
            X = np.asarray(obj["inputs"], dtype=np.float64)
            labels = np.asarray(obj["labels"]) if "labels" in obj else None
            return X, labels
        return np.asarray(obj, dtype=np.float64), None
    raise ValidationError(f"cannot interpret inputs spec {spec!r}")


def _load_labels(spec) -> np.ndarray:
    if spec.endswith(".idx"):
        return load_idx_labels(spec)
    return np.asarray(_load_json(spec))


def _experiment_config(ctx, path) -> tuple[ExperimentConfig, dict]:
    raw = _load_json(path)
    net = load_network(raw["network"])
    X, labels = _load_inputs(raw["inputs"])
    if raw.get("labels"):
        labels = _load_labels(raw["labels"])
    profile_spec = raw.get("profile")
    if isinstance(profile_spec, dict) and "calibrate" in profile_spec:
        from .experiments import calibrate_noise

        cal = profile_spec["calibrate"]
        profile = calibrate_noise(
            net,
            list(X),
            w_fraction=cal["w_fraction"],
            a_fraction=cal["a_fraction"],
            m_fraction=cal.get("m_fraction"),
        )
    elif isinstance(profile_spec, str):
        profile = _load_profile(profile_spec)
    else:
        raise ValidationError("experiment config needs a 'profile' path or calibration rule")
    cfg = ExperimentConfig(
        network=net,
        profile=profile,
        design=raw.get("design"),
        inputs=X,
        trials=_trials(ctx, raw.get("trials", 100)),
        seed=_seed(ctx, raw.get("seed", 0)),
        labels=labels,
        confidence=float(raw.get("confidence", 0.95)),
        config_hash=_config_hash(raw),
    )
    return cfg, raw


def _stats_json(stats) -> dict:
    return {
        "n": stats.n,
        "mean": stats.mean.tolist(),
        "covariance": stats.covariance.tolist(),
        "mse_vs_reference": stats.mse_vs_reference,
    }


@click.group()
@click.option("--seed", type=int, default=None, help="Seed overriding config files.")
@click.option("--trials", type=int, default=None, help="Trial count overriding config files.")
@click.option("--config", "config_path", type=str, default=None, help="Experiment config file.")
@click.option("--output", type=str, default=None, help="Write results to this file.")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
@click.pass_context
def cli(ctx, seed, trials, config_path, output, fmt):
    """Noise modeling and noise-averaging designs for optical networks."""
    ctx.ensure_object(dict)
    ctx.obj.update(seed=seed, trials=trials, config=config_path, output=output, format=fmt)


def _seed(ctx, default=0) -> int:
    seed = ctx.obj.get("seed")
    return _integer(default if seed is None else seed, "seed")


def _trials(ctx, default=1000) -> int:
    trials = ctx.obj.get("trials")
    return _integer(default if trials is None else trials, "trials")


@cli.command("forward")
@click.option("--net", "net_path", required=True, type=str)
@click.option("--input", "input_text", required=True, type=str, help="JSON vector.")
@click.pass_context
def cmd_forward(ctx, net_path, input_text):
    """Noiseless evaluation of a network on one input."""
    net = load_network(net_path)
    x = _parse_vector(input_text)
    y = forward(net, x)
    payload = {"command": "forward", "net": net_path, "input": x.tolist()}
    _emit(ctx, {"meta": _meta(payload), "output": y.tolist()})


@cli.command("simulate")
@click.option("--net", "net_path", required=True, type=str)
@click.option("--profile", "profile_path", required=True, type=str)
@click.option("--input", "input_text", required=True, type=str)
@click.pass_context
def cmd_simulate(ctx, net_path, profile_path, input_text):
    """Monte Carlo statistics of the unmodified noisy network."""
    net = load_network(net_path)
    profile = _load_profile(profile_path)
    x = _parse_vector(input_text)
    seed, trials = _seed(ctx), _trials(ctx)
    samples = noisy_forward_samples(net, profile, x, trials, RngStream(seed))
    stats = stats_from_samples(samples, forward(net, x))
    payload = {"command": "simulate", "net": net_path, "profile": profile_path,
               "input": x.tolist(), "trials": trials, "seed": seed}
    _emit(ctx, {"meta": _meta(payload, seed), "stats": _stats_json(stats)})


@cli.command("design-a")
@click.option("--net", "net_path", required=True, type=str)
@click.option("--profile", "profile_path", required=True, type=str)
@click.option("--input", "input_text", required=True, type=str)
@click.option("--copies", required=True, type=str, help="JSON list n_0..n_L (n_L = 1).")
@click.pass_context
def cmd_design_a(ctx, net_path, profile_path, input_text, copies):
    """Monte Carlo statistics of the replication-tree design."""
    net = load_network(net_path)
    profile = _load_profile(profile_path)
    x = _parse_vector(input_text)
    copy_vec = _int_list(json.loads(copies), "--copies")
    seed, trials = _seed(ctx), _trials(ctx)
    spec = DesignASpec(net, tuple(copy_vec))
    samples = design_a_samples(spec, x, profile, trials, RngStream(seed))
    stats = stats_from_samples(samples, forward(net, x))
    payload = {"command": "design-a", "net": net_path, "profile": profile_path,
               "input": x.tolist(), "copies": copy_vec, "trials": trials, "seed": seed}
    _emit(ctx, {"meta": _meta(payload, seed), "stats": _stats_json(stats)})


@cli.command("design-b")
@click.option("--net", "net_path", required=True, type=str)
@click.option("--profile", "profile_path", required=True, type=str)
@click.option("--input", "input_text", required=True, type=str)
@click.option("--m", "m", required=True, type=int)
@click.option("--compare", is_flag=True, help="Include the analytic covariance comparison (linear nets).")
@click.pass_context
def cmd_design_b(ctx, net_path, profile_path, input_text, m, compare):
    """Monte Carlo statistics of the combine/split design."""
    net = load_network(net_path)
    profile = _load_profile(profile_path)
    x = _parse_vector(input_text)
    seed, trials = _seed(ctx), _trials(ctx)
    spec = DesignBSpec(net, m)
    samples = design_b_samples(spec, x, profile, trials, RngStream(seed))
    stats = stats_from_samples(samples, forward(net, x))
    payload = {"command": "design-b", "net": net_path, "profile": profile_path,
               "input": x.tolist(), "m": m, "trials": trials, "seed": seed}
    result = {"meta": _meta(payload, seed), "stats": _stats_json(stats)}
    if compare:
        result["comparison"] = compare_design_b(spec, profile, stats).to_json()
    _emit(ctx, result)


@cli.command("covariance")
@click.option("--net", "net_path", type=str, default=None)
@click.option("--profile", "profile_path", type=str, default=None)
@click.option("--symmetric", "symmetric_path", type=str, default=None,
              help="Symmetric config JSON (closed-form modes).")
@click.option("--depth", type=int, default=None, help="Depth for closed-form modes.")
@click.option("--mode", type=click.Choice(
    ["trajectory", "trajectory-b", "branchwise", "closed-form", "closed-form-b"]),
    default="trajectory")
@click.option("--m", "m", type=int, default=1)
@click.pass_context
def cmd_covariance(ctx, net_path, profile_path, symmetric_path, depth, mode, m):
    """Exact covariance propagation for linear networks."""
    payload = {"command": "covariance", "mode": mode, "net": net_path,
               "profile": profile_path, "symmetric": symmetric_path,
               "depth": depth, "m": m}
    if mode in ("trajectory", "trajectory-b", "branchwise"):
        if not net_path or not profile_path:
            raise ValidationError(f"mode {mode} needs --net and --profile")
        linnet = LinearNet.from_network(load_network(net_path))
        profile = _load_profile(profile_path)
        if mode == "trajectory":
            body = trajectory_to_json(propagate(linnet, profile))
        elif mode == "trajectory-b":
            body = trajectory_to_json(propagate_b(linnet, profile, m))
        else:
            branch = propagate_b_branchwise(linnet, profile, m)
            body = {
                "shared": [s.tolist() for s in branch.shared],
                "per_branch": [s.tolist() for s in branch.per_branch],
                "output": branch.output.tolist(),
            }
        _emit(ctx, {"meta": _meta(payload), **body})
        return
    if symmetric_path is None or depth is None:
        raise ValidationError(f"mode {mode} needs --symmetric and --depth")
    cfg = _symmetric_config(_load_json(symmetric_path))
    if mode == "closed-form":
        sigma = symmetric_closed_form(cfg, depth)
    else:
        sigma = symmetric_closed_form_b(cfg, depth)
    _emit(ctx, {"meta": _meta(payload), "sigma": sigma.tolist()})


@cli.command("limit")
@click.option("--symmetric", "symmetric_path", required=True, type=str)
@click.option("--mode", type=click.Choice(
    ["series", "series-b", "fixed-iterate", "fixed-vectorized"]), required=True)
@click.option("--tol", type=float, default=1e-12)
@click.option("--allow-spectral", is_flag=True,
              help="Accept the sharper spectral convergence condition.")
@click.pass_context
def cmd_limit(ctx, symmetric_path, mode, tol, allow_spectral):
    """Deep-network covariance limits and fixed points."""
    cfg = _symmetric_config(_load_json(symmetric_path))
    payload = {"command": "limit", "symmetric": symmetric_path, "mode": mode,
               "tol": tol, "allow_spectral": allow_spectral}
    if mode == "series":
        result = limit_series(cfg, tol, allow_spectral)
        body = {"sigma": result.sigma.tolist(), "terms": result.terms}
    elif mode == "series-b":
        result = limit_series_b(cfg, tol, allow_spectral)
        body = {"sigma": result.sigma.tolist(), "terms": result.terms}
    else:
        method = "iterate" if mode == "fixed-iterate" else "vectorized"
        result = fixed_point_solve(cfg, method, allow_spectral)
        body = {
            "sigma": result.sigma.tolist(),
            "method": result.method,
            "residual": result.residual,
            "iterations": result.iterations,
            "criterion": result.criterion,
        }
    _emit(ctx, {"meta": _meta(payload), **body})


@cli.command("copies")
@click.option("--net", "net_path", required=True, type=str)
@click.option("--targets", "targets_path", required=True, type=str,
              help="JSON with sigma_sq, deviation_target, failure_target, "
                   "optional deltas/kappas/hoeffding constants.")
@click.pass_context
def cmd_copies(ctx, net_path, targets_path):
    """Sufficient replication-tree copy counts for deviation targets."""
    net = load_network(net_path)
    targets = _load_json(targets_path)
    depth = net.depth
    if "deltas" in targets and "kappas" in targets:
        deltas = tuple(float(v) for v in targets["deltas"])
        kappas = tuple(float(v) for v in targets["kappas"])
    else:
        deltas, kappas = equal_split_targets(
            depth, float(targets["deviation_target"]), float(targets["failure_target"])
        )
    req = CopyBudgetRequest(
        sigma_sq=float(targets["sigma_sq"]),
        deltas=deltas,
        kappas=kappas,
        lipschitz=lipschitz_bounds(net),
        deviation_target=float(targets["deviation_target"]),
        failure_target=float(targets["failure_target"]),
        hoeffding_C=float(targets.get("hoeffding_C", 1.0)),
        hoeffding_c=float(targets.get("hoeffding_c", 0.25)),
    )
    budget = sufficient_copies(req, net.dims()[1:])
    payload = {"command": "copies", "net": net_path, "targets": targets}
    _emit(ctx, {"meta": _meta(payload), "budget": budget.to_json()})


@cli.command("scan-m")
@click.option("--d", "width", required=True, type=int)
@click.option("--w-grid", required=True, type=str, help="'1,2,4' or 'lo:hi:count'.")
@click.option("--d-grid", required=True, type=str)
@click.option("--depth", type=int, default=60)
@click.pass_context
def cmd_scan_m(ctx, width, w_grid, d_grid, depth):
    """Minimal stabilizing copy count over a grid of Frobenius norms."""
    rows = scan_m_grid(width, _parse_grid(w_grid), _parse_grid(d_grid), L=depth)
    payload = {"command": "scan-m", "d": width, "w_grid": w_grid,
               "d_grid": d_grid, "depth": depth}
    _emit(ctx, {"meta": _meta(payload), "rows": rows}, rows=rows)


@cli.command("insert-layers")
@click.option("--net", "net_path", required=True, type=str)
@click.option("--n", "count", required=True, type=int)
@click.option("--slots", type=str, default=None, help="Four comma-separated layer numbers.")
@click.pass_context
def cmd_insert_layers(ctx, net_path, count, slots):
    """Insert identity layers and write the deepened network."""
    net = load_network(net_path)
    slot_list = _int_list(slots.split(","), "--slots") if slots else None
    deeper = insert_identity_layers(net, count, slot_list)
    payload = {"command": "insert-layers", "net": net_path, "n": count, "slots": slots}
    output = ctx.obj.get("output")
    if output is None:
        _emit(ctx, {"meta": _meta(payload), "network": network_to_json(deeper)})
    else:
        save_network(deeper, output)
        click.echo(json.dumps({"meta": _meta(payload), "written": output}))


@cli.group("experiment")
def cmd_experiment():
    """Copy-count, accuracy, and depth sweeps from a config file."""


def _require_config(ctx) -> str:
    path = ctx.obj.get("config")
    if not path:
        raise ValidationError("experiment commands need --config")
    return path


@cmd_experiment.command("mse")
@click.option("--grid", required=True, type=str, help="Copy counts, e.g. '1,2,4,8'.")
@click.pass_context
def cmd_experiment_mse(ctx, grid):
    cfg, raw = _experiment_config(ctx, _require_config(ctx))
    rows = run_mse_experiment(cfg, _int_list(_parse_grid(grid), "--grid"))
    payload = {"command": "experiment mse", "config": raw, "grid": grid,
               "trials": cfg.trials, "seed": cfg.seed}
    _emit(ctx, {"meta": _meta(payload, cfg.seed), "rows": rows}, rows=rows)


@cmd_experiment.command("accuracy")
@click.option("--grid", required=True, type=str)
@click.pass_context
def cmd_experiment_accuracy(ctx, grid):
    cfg, raw = _experiment_config(ctx, _require_config(ctx))
    rows = run_accuracy_experiment(cfg, _int_list(_parse_grid(grid), "--grid"))
    payload = {"command": "experiment accuracy", "config": raw, "grid": grid,
               "trials": cfg.trials, "seed": cfg.seed}
    _emit(ctx, {"meta": _meta(payload, cfg.seed), "rows": rows}, rows=rows)


@cmd_experiment.command("depth")
@click.option("--n-grid", required=True, type=str, help="Inserted layer counts.")
@click.option("--var-grid", required=True, type=str, help="Noise variance levels.")
@click.option("--copies", required=True, type=int)
@click.option("--slots", type=str, default=None)
@click.pass_context
def cmd_experiment_depth(ctx, n_grid, var_grid, copies, slots):
    cfg, raw = _experiment_config(ctx, _require_config(ctx))
    slot_list = _int_list(slots.split(","), "--slots") if slots else None
    rows = run_depth_sweep(
        cfg,
        _int_list(_parse_grid(n_grid), "--n-grid"),
        _parse_grid(var_grid),
        copies,
        slots=slot_list,
    )
    payload = {"command": "experiment depth", "config": raw, "n_grid": n_grid,
               "var_grid": var_grid, "copies": copies, "trials": cfg.trials,
               "seed": cfg.seed}
    _emit(ctx, {"meta": _meta(payload, cfg.seed), "rows": rows}, rows=rows)


def cli_main(argv=None) -> int:
    """Run the CLI; returns the exit code instead of raising SystemExit."""
    try:
        cli.main(args=argv, standalone_mode=False, obj={})
        return 0
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.UsageError as exc:
        exc.show(file=sys.stderr)
        return 1
    except (OptoNoiseError, OSError, json.JSONDecodeError, KeyError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except click.Abort:
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        click.echo(f"runtime error: {exc!r}", err=True)
        return 2


def main_entry() -> None:
    sys.exit(cli_main())
