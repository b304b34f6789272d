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
)
from .design_a import (
    DesignASpec,
    design_a_samples,
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
    _array,
    _finite,
    _integer,
    _parse_json,
    _read_json,
    forward,
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
    """``json.dumps(obj, indent=2, default=str)``, byte for byte, at C-encoder speed.

    A float64 ``np.ndarray`` of rank 1 or more is written as its ``.tolist()``
    would be; any other ndarray raises ``TypeError``.
    """
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
    elif isinstance(obj, np.ndarray):
        _write_array(obj, indent, parts)
    else:
        parts.append(_ENCODER.encode(obj))


def _write_array(a: np.ndarray, indent: str, parts: list[str]) -> None:
    """Append the text of ``a.tolist()``, formatting each distinct float once.

    The covariances the engine returns are symmetric, so each off-diagonal
    value appears twice. Values are keyed by their bits, which keeps ``-0.0``
    apart from ``0.0``.
    """
    if a.dtype != np.float64 or a.ndim == 0:
        raise TypeError(f"only float64 arrays of rank >= 1 are written, "
                        f"not {a.dtype} of rank {a.ndim}")
    if a.size == 0:
        _write_json(a.tolist(), indent, parts)
        return
    unique, inverse = np.unique(a.ravel().view(np.int64), return_inverse=True)
    # no float repr contains ", ", so every one is a separator
    texts = _ENCODER.encode(unique.view(np.float64).tolist())[1:-1].split(", ")
    cells = np.array(texts, dtype=object)[inverse]
    *outer, width = a.shape
    own = indent + "  " * len(outer)
    inner = own + "  "
    sep = "," + inner
    rows = [f"[{inner}{sep.join(row)}{own}]" for row in cells.reshape(-1, width).tolist()]
    for n in reversed(outer):
        inner, own = own, own[:-2]
        sep = "," + inner
        rows = [f"[{inner}{sep.join(rows[i:i + n])}{own}]" for i in range(0, len(rows), n)]
    parts.append(rows[0])


def _emit(ctx, result: dict, rows: list[dict] | None = None) -> None:
    """Write the result as JSON, or its rows as CSV under ``--format csv``."""
    output = ctx.obj.get("output")
    if ctx.obj["format"] == "csv":
        meta = result["meta"]
        for row in rows:
            row["config_hash"] = meta["config_hash"]
            row["generator"] = meta["generator"]
        write_csv(output, rows)
        return
    text = _json_text(result) + "\n"
    if output is None:
        click.echo(text, nl=False)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _object(obj, what: str) -> dict:
    """``obj`` if it is a JSON object (a dict); otherwise a ``ValidationError`` naming ``what``."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{what} must be a JSON object, got {type(obj).__name__}")
    return obj


def _required(obj: dict, key: str, what: str):
    """``obj[key]``; a ``ValidationError`` naming ``what`` and the key if it is absent."""
    if key not in obj:
        raise ValidationError(f"{what} is missing {key!r}")
    return obj[key]


def _load_profile(path) -> NoiseProfile:
    return profile_from_json(_read_json(path))


def _parse_vector(text: str) -> np.ndarray:
    try:
        value = _parse_json(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"cannot parse vector {text!r}: {exc}")
    return _array(value, "input", 1)


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


def _symmetric_config(path) -> SymmetricConfig:
    obj = _object(_read_json(path), "symmetric config")
    return SymmetricConfig(
        e=_required(obj, "e", "symmetric config"),
        W=_required(obj, "W", "symmetric config"),
        sigma_m=covspec_from_json(obj.get("sigma_m", "zero")),
        sigma_w=covspec_from_json(obj.get("sigma_w", "zero")),
        sigma_a=covspec_from_json(obj.get("sigma_a", "zero")),
        m=obj.get("m", 1),
    )


def _load_inputs(spec) -> tuple[np.ndarray, np.ndarray | None]:
    """Input matrix (and labels when the container carries them)."""
    if isinstance(spec, dict) and "synthetic" in spec:
        syn = _object(spec["synthetic"], "synthetic inputs")
        seed = _integer(syn.get("seed", 0), "synthetic seed", 0)
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        shape = (_integer(_required(syn, "count", "synthetic entry"), "synthetic count", 0),
                 _integer(_required(syn, "dim", "synthetic entry"), "synthetic dim", 0))
        X = gen.normal(0.0, _finite(syn.get("scale", 1.0), "synthetic scale", ">= 0"), size=shape)
        return X, None
    if isinstance(spec, str):
        if spec.endswith(".idx"):
            return load_idx_images(spec), None
        obj = _read_json(spec)
        if isinstance(obj, dict):
            labels = np.asarray(obj["labels"]) if "labels" in obj else None
            return _array(_required(obj, "inputs", "input file"), "inputs", 2), labels
        return _array(obj, "inputs", 2), None
    raise ValidationError(f"cannot interpret inputs spec {spec!r}")


def _load_labels(spec) -> np.ndarray:
    if spec.endswith(".idx"):
        return load_idx_labels(spec)
    return np.asarray(_read_json(spec))


def _experiment_config(ctx, path) -> tuple[ExperimentConfig, dict]:
    raw = _object(_read_json(path), "experiment config")
    net = load_network(_required(raw, "network", "experiment config"))
    X, labels = _load_inputs(_required(raw, "inputs", "experiment config"))
    if raw.get("labels"):
        labels = _load_labels(raw["labels"])
    profile_spec = raw.get("profile")
    if isinstance(profile_spec, dict) and "calibrate" in profile_spec:
        from .experiments import calibrate_noise

        cal = _object(profile_spec["calibrate"], "calibrate")
        profile = calibrate_noise(
            net,
            X,
            w_fraction=_required(cal, "w_fraction", "calibrate entry"),
            a_fraction=_required(cal, "a_fraction", "calibrate entry"),
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
        confidence=raw.get("confidence", 0.95),
    )
    return cfg, raw


def _stats_json(stats) -> dict:
    return {
        "n": stats.n,
        "mean": stats.mean,
        "covariance": stats.covariance,
        "mse_vs_reference": stats.mse_vs_reference,
    }


#: The commands whose results are tables, the only ones ``--format csv`` can write.
_TABLE_COMMANDS = ("scan-m", "experiment")


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
    if fmt == "csv" and ctx.invoked_subcommand not in _TABLE_COMMANDS:
        raise ValidationError(f"--format csv needs a command that writes a table "
                              f"({', '.join(_TABLE_COMMANDS)}), not {ctx.invoked_subcommand}")
    if fmt == "csv" and output is None:
        raise ValidationError("csv format needs --output")


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
    stats = noisy_forward_samples(net, profile, x, trials, RngStream(seed),
                                  reference=forward(net, x))
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
    copy_vec = _int_list(_parse_json(copies), "--copies")
    seed, trials = _seed(ctx), _trials(ctx)
    spec = DesignASpec(net, tuple(copy_vec))
    stats = design_a_samples(spec, x, profile, trials, RngStream(seed), reference=forward(net, x))
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
    stats = design_b_samples(spec, x, profile, trials, RngStream(seed), reference=forward(net, x))
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
    if m != 1 and mode not in ("trajectory-b", "branchwise"):
        raise ValidationError(f"mode {mode} ignores --m; closed-form-b reads m from the symmetric config")
    payload = {"command": "covariance", "mode": mode, "net": net_path,
               "profile": profile_path, "symmetric": symmetric_path,
               "depth": depth, "m": m}
    if mode in ("trajectory", "trajectory-b", "branchwise"):
        if not net_path or not profile_path:
            raise ValidationError(f"mode {mode} needs --net and --profile")
        linnet = LinearNet.from_network(load_network(net_path))
        profile = _load_profile(profile_path)
        if mode == "branchwise":
            branch = propagate_b_branchwise(linnet, profile, m)
            body = {"shared": branch.shared, "per_branch": branch.per_branch,
                    "output": branch.output}
        else:
            traj = (propagate(linnet, profile) if mode == "trajectory"
                    else propagate_b(linnet, profile, m))
            # the layout of trajectory_to_json, with arrays for _write_array
            body = {"layers": [{"index": l, "sigma": s} for l, s in enumerate(traj.sigmas)]}
        _emit(ctx, {"meta": _meta(payload), **body})
        return
    if symmetric_path is None or depth is None:
        raise ValidationError(f"mode {mode} needs --symmetric and --depth")
    cfg = _symmetric_config(symmetric_path)
    if mode == "closed-form":
        sigma = symmetric_closed_form(cfg, depth)
    else:
        sigma = symmetric_closed_form_b(cfg, depth)
    _emit(ctx, {"meta": _meta(payload), "sigma": sigma})


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
    cfg = _symmetric_config(symmetric_path)
    payload = {"command": "limit", "symmetric": symmetric_path, "mode": mode,
               "tol": tol, "allow_spectral": allow_spectral}
    if mode == "series":
        result = limit_series(cfg, tol, allow_spectral)
        body = {"sigma": result.sigma, "terms": result.terms}
    elif mode == "series-b":
        result = limit_series_b(cfg, tol, allow_spectral)
        body = {"sigma": result.sigma, "terms": result.terms}
    else:
        method = "iterate" if mode == "fixed-iterate" else "vectorized"
        result = fixed_point_solve(cfg, method, allow_spectral)
        body = {
            "sigma": result.sigma,
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
                   "optional deltas and kappas (both or neither) and hoeffding constants.")
@click.pass_context
def cmd_copies(ctx, net_path, targets_path):
    """Sufficient replication-tree copy counts for deviation targets."""
    net = load_network(net_path)
    targets = _object(_read_json(targets_path), "copy targets")
    optional = {k: targets[k] for k in ("deltas", "kappas", "hoeffding_C", "hoeffding_c") if k in targets}
    required = [_required(targets, k, "copy targets")
                for k in ("sigma_sq", "deviation_target", "failure_target")]
    budget = sufficient_copies(net, *required, **optional)
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
