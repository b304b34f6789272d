"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is calibrated at run time.

Criterion 2 checks the combine/split simulator's Monte Carlo covariance
against its per-layer covariance recursions on 20 random linear hosts,
m in {1, 2, 4}:

(a) for every (host, m) the simulator matches the exact branch-resolved
    recursion ``propagate_b_branchwise`` to 5% relative Frobenius error;
(b) where the independent-branch recursion ``propagate_b`` with the
    terminal-averaging correction is exact (m = 1 at every depth, every m
    on depth-1 hosts), the simulator matches it to 5%, and it equals the
    branch-resolved output to 1e-12 relative;
(c) for m >= 2 on hosts of depth >= 2, branch-resolved minus corrected is
    positive semidefinite: the recursion under-counts the covariance the
    branches share through each combined beam (see ``covariance.propagate_b``);
(d) the sampled depths include 1 and >= 2, so (b) and (c) are never vacuous.

How far the recursion under-counts for m >= 2 is printed for information.
See README "Known discrepancy" and ``design_b.compare_design_b``.
"""

import math

import numpy as np
import pytest

from optonoise import (
    Activation,
    CovSpec,
    DesignASpec,
    DesignBSpec,
    Layer,
    LinearNet,
    Network,
    NoiseProfile,
    RngStream,
    design_a_samples,
    design_b_samples,
    deviation_check,
    forward,
    insert_identity_layers,
    insertion_tuple,
    limit_series,
    limit_series_b,
    fixed_point_solve,
    noisy_forward_samples,
    propagate,
    propagate_b,
    propagate_b_branchwise,
    scan_m_grid,
    step_map_b,
    stats_from_samples,
    sufficient_copies,
    symmetric_closed_form,
    symmetric_closed_form_b,
)
from optonoise.covariance import SymmetricConfig
from optonoise.design_a import common_variance_bound
from optonoise.design_b import terminal_average_correction
from optonoise.experiments import ExperimentConfig, run_depth_sweep, run_mse_experiment
from optonoise.fixtures import fixture_dataset, fixture_network

from conftest import SpecSites, random_covspec, random_linear_net, random_profile


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" -- {detail}" if detail else ""
    print(f"[acceptance] criterion {number:>2} {name}: {status}{suffix}")


def rel_frobenius(actual, expected):
    scale = np.linalg.norm(expected)
    if scale == 0.0:
        return float(np.linalg.norm(actual))
    return float(np.linalg.norm(actual - expected) / scale)


def random_symmetric(rng, max_dim=5, contracting=False, m=1):
    d = int(rng.integers(1, max_dim + 1))
    e = rng.uniform(0.3, 1.0, size=d)
    W = rng.normal(size=(d, d))
    if contracting:
        W *= 0.9 * math.sqrt(m) / (np.linalg.norm(e) * np.linalg.norm(W)) * rng.uniform(0.5, 1.0)
    else:
        W *= 0.6 / math.sqrt(d)
    return SymmetricConfig(
        e, W,
        random_covspec(rng, d, allow_zero=False),
        random_covspec(rng, d),
        random_covspec(rng, d),
        m=m,
    )


def test_criterion_01_linear_covariance_vs_monte_carlo():
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(20):
        net = random_linear_net(rng, max_dim=6)
        profile = random_profile(rng, net)
        x = rng.normal(size=net.input_dim)
        samples = noisy_forward_samples(net, profile, x, 100_000, RngStream(int(rng.integers(2**31))))
        stats = stats_from_samples(samples, forward(net, x))
        analytic = propagate(LinearNet.from_network(net), profile).final
        worst = max(worst, rel_frobenius(stats.covariance, analytic))
    ok = worst <= 0.05
    report(1, "linear covariance vs monte carlo", ok, f"worst rel Frobenius {worst:.4f} (tol 0.05)")
    assert ok


def test_criterion_02_design_b_covariance_vs_recursion():
    rng = np.random.default_rng(1002)
    branchwise_errors = []
    agreeing_errors = []  # simulator vs corrected recursion where they must agree
    agreeing_gaps = []  # corrected recursion vs branchwise where the gap is zero
    undercount_errors = {2: [], 4: []}  # information only: the documented mismatch
    worst_min_eig = math.inf  # of (branchwise - corrected) / ||branchwise||, m >= 2, depth >= 2
    depths = []
    for _ in range(20):
        net = random_linear_net(rng, max_dim=6)
        depths.append(net.depth)
        profile = random_profile(rng, net)
        x = rng.normal(size=net.input_dim)
        linnet = LinearNet.from_network(net)
        for m in (1, 2, 4):
            samples = design_b_samples(
                DesignBSpec(net, m), x, profile, 100_000, RngStream(int(rng.integers(2**31)))
            )
            stats = stats_from_samples(samples, forward(net, x))
            corrected = terminal_average_correction(
                propagate_b(linnet, profile, m).final, profile, net, m
            )
            branchwise = propagate_b_branchwise(linnet, profile, m).output
            branchwise_errors.append(rel_frobenius(stats.covariance, branchwise))
            if m == 1 or net.depth == 1:
                agreeing_errors.append(rel_frobenius(stats.covariance, corrected))
                agreeing_gaps.append(rel_frobenius(corrected, branchwise))
            else:
                undercount_errors[m].append(rel_frobenius(stats.covariance, corrected))
                gap = np.linalg.eigvalsh(branchwise - corrected)[0] / np.linalg.norm(branchwise)
                worst_min_eig = min(worst_min_eig, float(gap))
    worst_branchwise = max(branchwise_errors)
    worst_agreeing = max(agreeing_errors)
    worst_gap = max(agreeing_gaps)
    checks = {
        "(a) simulator vs branchwise <= 0.05": worst_branchwise <= 0.05,
        "(b) simulator vs corrected recursion <= 0.05 where they agree": worst_agreeing <= 0.05,
        "(b) corrected recursion equals branchwise to 1e-12": worst_gap <= 1e-12,
        "(c) branchwise - corrected is PSD": worst_min_eig >= -1e-12,
        "(d) depths 1 and >= 2 sampled": min(depths) == 1 and max(depths) >= 2,
    }
    failed = [name for name, passed in checks.items() if not passed]
    undercount = ", ".join(f"m={m} {max(v):.4f}" for m, v in undercount_errors.items() if v)
    detail = (
        f"rel Frobenius vs exact branch-resolved recursion worst {worst_branchwise:.4f} (tol 0.05); "
        f"vs corrected recursion where exact (m=1 or depth 1) {worst_agreeing:.4f} (tol 0.05), "
        f"recursion gap there {worst_gap:.1e} (tol 1e-12); "
        f"m>=2, depth>=2: gap min eigenvalue {worst_min_eig:.1e} (tol -1e-12), "
        f"recursion under-counts by {undercount} (information); "
        f"depths sampled {sorted(set(depths))}"
    )
    report(2, "design B covariance vs per-layer recursion", not failed, detail)
    assert not failed, f"failed {failed}; details: {detail}"


def test_criterion_02_companion_with_combine_and_split_noise():
    # criterion 2's hosts draw no combine or split noise, design B's own
    # sources; this companion turns both on (isotropic, so they fit every
    # width) and runs checks (a)-(d) at criterion 2's tolerances
    rng = np.random.default_rng(1012)
    branchwise_errors, agreeing_errors, agreeing_gaps, depths = [], [], [], []
    worst_min_eig = math.inf
    for _ in range(20):
        net = random_linear_net(rng, max_dim=6)
        depths.append(net.depth)
        base = random_profile(rng, net)
        combine, split = (random_covspec(rng, None, kind="isotropic") for _ in range(2))
        profile = NoiseProfile(base.modulation, base.weight, base.activation, combine, split)
        x = rng.normal(size=net.input_dim)
        linnet = LinearNet.from_network(net)
        for m in (1, 2, 4):
            samples = design_b_samples(
                DesignBSpec(net, m), x, profile, 100_000, RngStream(int(rng.integers(2**31)))
            )
            stats = stats_from_samples(samples, forward(net, x))
            corrected = terminal_average_correction(
                propagate_b(linnet, profile, m).final, profile, net, m
            )
            branchwise = propagate_b_branchwise(linnet, profile, m).output
            branchwise_errors.append(rel_frobenius(stats.covariance, branchwise))
            if m == 1 or net.depth == 1:
                agreeing_errors.append(rel_frobenius(stats.covariance, corrected))
                agreeing_gaps.append(rel_frobenius(corrected, branchwise))
            else:
                gap = np.linalg.eigvalsh(branchwise - corrected)[0] / np.linalg.norm(branchwise)
                worst_min_eig = min(worst_min_eig, float(gap))
    checks = {
        "(a) simulator vs branchwise <= 0.05": max(branchwise_errors) <= 0.05,
        "(b) simulator vs corrected recursion <= 0.05 where they agree": max(agreeing_errors) <= 0.05,
        "(b) corrected recursion equals branchwise to 1e-12": max(agreeing_gaps) <= 1e-12,
        "(c) branchwise - corrected is PSD": worst_min_eig >= -1e-12,
        "(d) depths 1 and >= 2 sampled": min(depths) == 1 and max(depths) >= 2,
    }
    failed = [name for name, passed in checks.items() if not passed]
    detail = (
        f"worst rel Frobenius vs branchwise {max(branchwise_errors):.4f}, "
        f"vs corrected recursion where exact {max(agreeing_errors):.4f}, "
        f"recursion gap there {max(agreeing_gaps):.1e}, gap min eigenvalue {worst_min_eig:.1e}, "
        f"depths sampled {sorted(set(depths))}"
    )
    report(2, "design B with combine/split noise vs per-layer recursion", not failed, detail)
    assert not failed, f"failed {failed}; details: {detail}"


def test_criterion_03_closed_forms_equal_recursions():
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(500):
        m = int(rng.integers(1, 5))
        cfg = random_symmetric(rng, max_dim=5, m=m)
        L = int(rng.integers(1, 11))
        plain = np.max(np.abs(
            symmetric_closed_form(cfg, L)
            - propagate(cfg.to_linear_net(L), cfg.to_profile(L)).final
        ))
        with_m = np.max(np.abs(
            symmetric_closed_form_b(cfg, L)
            - propagate_b(cfg.to_linear_net(L), cfg.to_profile(L), m).final
        ))
        worst = max(worst, float(plain), float(with_m))
    ok = worst <= 1e-10
    report(3, "closed forms equal recursions", ok, f"worst abs deviation {worst:.2e} (tol 1e-10)")
    assert ok


def test_criterion_04_limits_and_fixed_points_agree():
    rng = np.random.default_rng(1004)
    worst_gap = 0.0
    worst_residual = 0.0
    for i in range(100):
        # strictly contracting configs converge for every copy count
        base = random_symmetric(rng, max_dim=4, contracting=True, m=1)
        m = int(rng.integers(2, 5)) if i % 2 else 1
        cfg = base.with_m(m)

        series = limit_series(base, tol=1e-12).sigma
        it_1 = fixed_point_solve(base, "iterate")
        vec_1 = fixed_point_solve(base, "vectorized")
        worst_gap = max(
            worst_gap,
            float(np.linalg.norm(series - it_1.sigma)),
            float(np.linalg.norm(series - vec_1.sigma)),
            float(np.linalg.norm(it_1.sigma - vec_1.sigma)),
        )
        worst_residual = max(worst_residual, it_1.residual, vec_1.residual)

        series_m = limit_series_b(cfg, tol=1e-12).sigma
        it_m = fixed_point_solve(cfg, "iterate")
        vec_m = fixed_point_solve(cfg, "vectorized")
        worst_gap = max(
            worst_gap,
            float(np.linalg.norm(series_m - it_m.sigma)),
            float(np.linalg.norm(series_m - vec_m.sigma)),
            float(np.linalg.norm(it_m.sigma - vec_m.sigma)),
        )
        worst_residual = max(worst_residual, it_m.residual, vec_m.residual)
    ok = worst_gap <= 1e-8 and worst_residual <= 1e-8
    report(
        4, "series limits and fixed points agree", ok,
        f"worst pairwise gap {worst_gap:.2e}, worst residual {worst_residual:.2e} (tol 1e-8)",
    )
    assert ok


def test_criterion_05_averaging_law_slopes():
    grid = [1, 2, 4, 8, 16]
    var = 0.5
    net = Network((Layer(np.eye(2), np.zeros(2), Activation.identity()),), 2)
    profile = NoiseProfile.isotropic(1, weight_var=var)
    x = np.zeros(2)

    traces_a, traces_b = [], []
    for n in grid:
        samples = design_a_samples(DesignASpec(net, (n, 1)), x, profile, 100_000, RngStream(500 + n))
        traces_a.append(float(np.trace(np.atleast_2d(np.cov(samples.T)))))
        samples = design_b_samples(DesignBSpec(net, n), x, profile, 100_000, RngStream(600 + n))
        traces_b.append(float(np.trace(np.atleast_2d(np.cov(samples.T)))))
    slope_a = float(np.polyfit(np.log(grid), np.log(traces_a), 1)[0])
    slope_b = float(np.polyfit(np.log(grid), np.log(traces_b), 1)[0])
    ok = abs(slope_a + 1.0) <= 0.15 and abs(slope_b + 1.0) <= 0.15
    report(
        5, "averaging law 1/n and 1/m", ok,
        f"log-log slopes: tree {slope_a:.3f}, combine/split {slope_b:.3f} (want -1 +- 0.15)",
    )
    assert ok


def test_criterion_06_copy_budget_guarantee():
    rng = np.random.default_rng(1006)
    layers = (
        Layer(rng.normal(size=(3, 3)) * 0.5, rng.normal(size=3) * 0.2, Activation.tanh()),
        Layer(rng.normal(size=(2, 3)) * 0.5, rng.normal(size=2) * 0.2, Activation.tanh()),
    )
    net = Network(layers, 3)
    sigma_sq = 0.05**2
    profile = NoiseProfile.isotropic(2, weight_var=sigma_sq)
    deviation_target, failure_target = 0.5, 0.05
    budget = sufficient_copies(net, common_variance_bound(profile), deviation_target, failure_target)
    if budget.total > 100_000:
        report(6, "copy budget guarantee", True,
               f"SKIPPED: computed budget {budget.total} exceeds the 1e5 cap")
        pytest.skip(f"copy budget {budget.total} exceeds the acceptance cap")
    inputs = [rng.normal(size=3), rng.normal(size=3)]
    result = deviation_check(
        DesignASpec(net, budget.copies), profile, inputs,
        deviation_allowance=deviation_target, trials=1000, seed=66,
    )
    ok = result.wilson_high <= failure_target
    report(
        6, "copy budget guarantee", ok,
        f"copies {budget.copies} (total {budget.total}); empirical failures "
        f"{result.failures}/1000, Wilson upper {result.wilson_high:.4f} <= {failure_target}",
    )
    assert ok


def test_criterion_07_grid_scan_contour():
    grid = [float(v) for v in range(1, 13)]
    rows = scan_m_grid(4, grid, grid, L=60)
    matches = sum(
        1 for row in rows
        if row["min_m"] == math.ceil((row["norm_W"] * row["norm_D"] / 4.0) ** 2)
    )
    fraction = matches / len(rows)
    ok = fraction >= 0.95
    report(
        7, "minimal-m contour on the scaled-identity grid", ok,
        f"{matches}/{len(rows)} cells match ceil((|W| |D| / d)^2) ({fraction:.1%}, need >= 95%)",
    )
    assert ok


def test_criterion_08_insertion_pattern_anchor():
    expected = {
        1: (1, 0, 0, 0), 2: (1, 1, 0, 0), 3: (1, 1, 1, 0),
        4: (1, 1, 1, 1), 5: (2, 1, 1, 1), 6: (2, 2, 1, 1),
    }
    tuples_ok = all(insertion_tuple(n) == tup for n, tup in expected.items())

    rng = np.random.default_rng(1008)
    dims = [3] + [int(rng.integers(2, 5)) for _ in range(8)]
    layers = tuple(
        Layer(rng.normal(size=(dims[l + 1], dims[l])) * 0.5, rng.normal(size=dims[l + 1]) * 0.2,
              Activation.tanh())
        for l in range(8)
    )
    net = Network(layers, dims[0])
    exact_ok = True
    for n in range(0, 9):
        deeper = insert_identity_layers(net, n)
        for _ in range(5):
            x = rng.normal(size=net.input_dim)
            exact_ok &= bool(np.array_equal(forward(deeper, x), forward(net, x)))
    ok = tuples_ok and exact_ok
    report(
        8, "insertion pattern and exactness anchor", ok,
        f"tuples 1..6 match: {tuples_ok}; noiseless outputs bit-identical: {exact_ok}",
    )
    assert ok


def _nonincreasing_at_confidence(rows, key="mse"):
    for prev, cur in zip(rows, rows[1:]):
        slack = (prev["ci_high"] - prev["ci_low"]) / 2 + (cur["ci_high"] - cur["ci_low"]) / 2
        if cur[key] > prev[key] + slack:
            return False
    return True


def test_criterion_09_monotone_trends_on_fixture():
    net = fixture_network()
    X, _ = fixture_dataset()
    inputs = X[:48]
    from optonoise.experiments import calibrate_noise

    profile = calibrate_noise(net, list(X[:100]), w_fraction=0.09, a_fraction=0.12)

    details = []
    copies_ok = True
    for design in ("a", "b"):
        cfg = ExperimentConfig(network=net, profile=profile, design=design,
                               inputs=inputs, trials=300, seed=90)
        rows = run_mse_experiment(cfg, [1, 2, 4, 8])
        mses = [row["mse"] for row in rows]
        copies_ok &= _nonincreasing_at_confidence(rows)
        details.append(f"design {design} mse {['%.4g' % v for v in mses]}")

    cfg = ExperimentConfig(network=net, profile=profile, design="b",
                           inputs=inputs, trials=300, seed=91)
    depth_rows = run_depth_sweep(cfg, [0, 2, 4, 6], [0.02], copies=1, slots=(1, 1, 1, 1))
    depth_mses = [row["mse"] for row in depth_rows]
    depth_ok = True
    for prev, cur in zip(depth_rows, depth_rows[1:]):
        slack = (prev["ci_high"] - prev["ci_low"]) / 2 + (cur["ci_high"] - cur["ci_low"]) / 2
        if cur["mse"] < prev["mse"] - slack:
            depth_ok = False
    details.append(f"depth mse {['%.4g' % v for v in depth_mses]}")

    ok = copies_ok and depth_ok
    report(
        9, "monotone trends on the classifier fixture", ok,
        f"mse nonincreasing in copies: {copies_ok}; nondecreasing in inserted "
        f"noisy layers: {depth_ok}; " + "; ".join(details),
    )
    assert ok


def test_criterion_10_degeneracy_suite(monkeypatch):
    rng = np.random.default_rng(1010)
    checks = []

    # zero covariance returns its input unchanged and never builds a stream
    streams = []
    with monkeypatch.context() as patched:
        patched.setattr(RngStream, "generator", lambda self: streams.append(self.path))
        h = np.zeros((1, 4))
        checks.append(SpecSites(RngStream(0)).add(h, CovSpec.zero(), 0, 0) is h and not streams)

    for _ in range(10):
        net = random_linear_net(rng)
        zero = NoiseProfile.zero(net.depth)
        x = rng.normal(size=net.input_dim)
        ref = forward(net, x)
        checks.append(np.array_equal(noisy_forward_samples(net, zero, x, 1, RngStream(1))[0], ref))
        checks.append(np.array_equal(
            design_a_samples(
                DesignASpec(net, (1,) * net.depth + (1,)), x, zero, 1, RngStream(2)
            )[0],
            ref,
        ))
        checks.append(np.array_equal(
            design_b_samples(DesignBSpec(net, 1), x, zero, 1, RngStream(3))[0], ref
        ))
        # one copy with zero combine/split noise consumes the exact stream
        # sites of the unmodified noisy network
        profile = random_profile(rng, net)
        checks.append(np.array_equal(
            design_b_samples(DesignBSpec(net, 1), x, profile, 1, RngStream(4))[0],
            noisy_forward_samples(net, profile, x, 1, RngStream(4))[0],
        ))
        # batched zero-noise rows equal the forward pass bit-exactly
        batch = noisy_forward_samples(net, zero, x, 3, RngStream(5))
        checks.append(all(np.array_equal(row, ref) for row in batch))

        # the m = 1 recursion map is bit-identical to the plain map
        linnet = LinearNet.from_network(net)
        a = propagate(linnet, profile).final
        b = propagate_b(linnet, profile, 1).final
        checks.append(np.array_equal(a, b))

    # nonlinear hosts degenerate the same way
    layers = (
        Layer(rng.normal(size=(3, 2)), np.zeros(3), Activation.tanh()),
        Layer(rng.normal(size=(2, 3)), np.zeros(2), Activation.softmax()),
    )
    net = Network(layers, 2)
    x = rng.normal(size=2)
    ref = forward(net, x)
    zero = NoiseProfile.zero(2)
    checks.append(np.array_equal(noisy_forward_samples(net, zero, x, 1, RngStream(6))[0], ref))
    checks.append(np.array_equal(
        design_a_samples(DesignASpec(net, (1, 1, 1)), x, zero, 1, RngStream(7))[0], ref
    ))
    checks.append(np.array_equal(
        design_b_samples(DesignBSpec(net, 1), x, zero, 1, RngStream(8))[0], ref
    ))

    # scalar bit-identity of the step map at m = 1 with combine/split given
    # as the exact scalar 0 and as zero matrices
    S = np.array([[0.7]])
    checks.append(np.array_equal(
        step_map_b([0.9], [[1.1]], S, [[0.04]], [[0.09]], 0.0, 0.0, 1),
        step_map_b([0.9], [[1.1]], S, [[0.04]], [[0.09]], [[0.0]], [[0.0]], 1),
    ))

    ok = all(checks)
    report(10, "degeneracy suite", ok, f"{sum(checks)}/{len(checks)} bit-exact checks hold")
    assert ok
