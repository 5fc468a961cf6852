"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.  The desk-scale batch (criterion 4) is computed once in a
module fixture and reused by the reproducibility criterion.
"""

import time

import numpy as np
import pytest

from coverfit import (
    SearchConfig,
    index_bounds,
    facet_bound,
    largest_power_two,
    make_ball,
    make_perturbed_ball,
    make_reuleaux_polygon,
    minimize,
    negate,
    partial_sum_check,
    poincare_pso4,
    poincare_so,
    preset,
    random_rotation,
    residual_map,
    scan_2d,
)
from coverfit.cli import main as cli_main
from coverfit.records import build_solve_record, write_record

PRESETS = ("hexagon2d", "rhombic12_3d", "axisdiag14_4d", "cross16_4d")

DESK_SEEDS = range(100)
DESK_CFG_TOL = 1e-10
DESK_RESTARTS = 200


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def desk_scale():
    """Criterion 4 workload: 100 perturbed-ball bodies against axisdiag14_4d."""
    P = preset("axisdiag14_4d")
    results = {}
    t_total0 = time.perf_counter()
    for seed in DESK_SEEDS:
        body = make_perturbed_ball(4, 3, 0.05, seed=seed)
        cfg = SearchConfig(seed=seed, restarts=DESK_RESTARTS, tol=DESK_CFG_TOL)
        t0 = time.perf_counter()
        outcome = minimize(body, P, cfg)
        elapsed = time.perf_counter() - t0
        results[seed] = (body, cfg, outcome, elapsed)
    total = time.perf_counter() - t_total0
    return P, results, total


def test_criterion_1_ball_triviality():
    t0 = time.perf_counter()
    worst_res = 0.0
    worst_margin = 0.0
    for name in PRESETS:
        P = preset(name)
        ball = make_ball(P.dim)
        rng = np.random.default_rng(101)
        for _ in range(50):
            fit = residual_map(ball, P, random_rotation(P.dim, rng))
            if fit.residual.size:
                worst_res = max(worst_res, float(np.max(np.abs(fit.residual))))
            worst_margin = max(worst_margin, abs(fit.margin))
    elapsed = time.perf_counter() - t0
    ok = worst_res <= 1e-14 and worst_margin <= 1e-14 and elapsed < 1.0
    _report(1, ok, f"worst residual {worst_res:.2e}, worst |margin| {worst_margin:.2e}, {elapsed:.2f}s")
    assert worst_res <= 1e-14
    assert worst_margin <= 1e-14
    assert elapsed < 1.0


def test_criterion_2_tmap_oddness():
    t0 = time.perf_counter()
    worst = 0.0
    for dim, pname in ((2, "hexagon2d"), (4, "axisdiag14_4d")):
        P = preset(pname)
        rng = np.random.default_rng(202 + dim)
        # 1000 pairs per dimension: 100 bodies, 10 rotations each
        for seed in range(100):
            body = make_perturbed_ball(dim, 3, 0.05, seed=seed)
            for _ in range(10):
                tau = random_rotation(dim, rng)
                r_plus = residual_map(body, P, tau).residual
                r_minus = residual_map(body, P, negate(tau)).residual
                worst = max(worst, float(np.max(np.abs(r_plus + r_minus))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 10.0
    _report(2, ok, f"2000 (body, rotation) pairs, worst |g(-t)+g(t)| {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-12
    assert elapsed < 10.0


def test_criterion_3_pal_anchor():
    t0 = time.perf_counter()
    P = preset("hexagon2d")
    rng = np.random.default_rng(303)
    failures = []
    for trial in range(50):
        k = int(rng.choice([3, 5, 7]))
        phase = float(rng.uniform(0.0, 2.0 * np.pi))
        body = make_reuleaux_polygon(k, phase)
        brackets = [b for b in scan_2d(body, P, 512) if b.kind == "sign_change"]
        out = minimize(body, P, SearchConfig(seed=trial, restarts=50))
        theta = out.rotation.angle % np.pi
        in_bracket = any(
            b.theta_lo - 1e-6 <= c <= b.theta_hi + 1e-6
            for b in brackets
            for c in (theta, theta - np.pi, theta + np.pi)
        )
        if not (brackets and out.converged and out.gnorm <= 1e-10
                and out.fit.margin >= -1e-8 and in_bracket):
            failures.append((trial, k, phase, out.gnorm, out.fit.margin, in_bracket))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    _report(3, ok, f"50 polygons vs hexagon, failures {len(failures)}, {elapsed:.1f}s")
    assert not failures, failures[:3]
    assert elapsed < 30.0


def test_criterion_4_desk_scale_main_theorem(desk_scale):
    P, results, total = desk_scale
    bad = []
    slowest = 0.0
    worst_gnorm = 0.0
    worst_margin = 0.0
    for seed, (body, cfg, out, elapsed) in results.items():
        slowest = max(slowest, elapsed)
        worst_gnorm = max(worst_gnorm, out.gnorm)
        worst_margin = min(worst_margin, out.fit.margin)
        if not (out.converged and out.gnorm <= 1e-8 and out.fit.margin >= -1e-7):
            bad.append((seed, out.converged, out.gnorm, out.fit.margin))
    ok = not bad and slowest < 30.0 and total < 1800.0
    _report(
        4,
        ok,
        f"100/100 converged={not bad}, worst gnorm {worst_gnorm:.2e}, "
        f"worst margin {worst_margin:.2e}, slowest body {slowest:.2f}s, total {total:.1f}s",
    )
    assert not bad, bad[:5]
    assert slowest < 30.0
    assert total < 1800.0


def test_criterion_5_topology_constants():
    checks = {
        "s(4)": largest_power_two(4) == 4,
        "ind(SO(4)) bounds": (index_bounds(4).lower, index_bounds(4).upper, index_bounds(4).exact) == (3, 3, 3),
        "facet_bound(4)": facet_bound(4) == 14,
        "facet_bound(2)": facet_bound(2) == 6,
        "ind(SO(8)) exact": index_bounds(8).exact == 7,
    }
    ok = all(checks.values())
    _report(5, ok, ", ".join(f"{k} {'ok' if v else 'BAD'}" for k, v in checks.items()))
    assert all(checks.values()), checks


def test_criterion_6_betti_bookkeeping():
    # independent naive-convolution oracle, written here, not in the package
    def conv(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return out

    oracle = [1]
    for i in (1, 2, 3):
        f = [0] * (i + 1)
        f[0] = f[i] = 1
        oracle = conv(oracle, f)

    so4 = poincare_so(4)
    pso4 = poincare_pso4()
    report = partial_sum_check(pso4, so4, upto=3)
    checks = {
        "Q(t) frozen": so4.coefficients == (1, 1, 1, 2, 1, 1, 1),
        "Q(t) vs oracle": list(so4.coefficients) == oracle,
        "sum 2^3": so4.total() == 8,
        "PSO(4)": pso4.coefficients == (1, 2, 3, 4, 3, 2, 1),
        "partial sums i<=2": all(e.equal for e in report[:3]),
        "i=3 fails 4!=5": (not report[3].equal) and report[3].orbit_betti == 4 and report[3].partial_sum == 5,
    }
    ok = all(checks.values())
    _report(6, ok, ", ".join(f"{k} {'ok' if v else 'BAD'}" for k, v in checks.items()))
    assert all(checks.values()), checks


def test_criterion_7_equivariance_and_translation():
    t0 = time.perf_counter()
    P = preset("axisdiag14_4d")
    rng = np.random.default_rng(707)
    worst_equi = 0.0
    worst_trans = 0.0
    for seed in range(10):
        body = make_perturbed_ball(4, 3, 0.05, seed=900 + seed)
        for _ in range(10):
            rho = random_rotation(4, rng)
            tau = random_rotation(4, rng)
            t = rng.uniform(-0.5, 0.5, 4)
            lhs = residual_map(body.rotated(rho), P, tau).residual
            rhs = residual_map(body, P, rho.inverse() @ tau).residual
            worst_equi = max(worst_equi, float(np.max(np.abs(lhs - rhs))))
            moved = residual_map(body.translated(t), P, tau).residual
            base = residual_map(body, P, tau).residual
            worst_trans = max(worst_trans, float(np.max(np.abs(moved - base))))
    elapsed = time.perf_counter() - t0
    ok = worst_equi <= 1e-12 and worst_trans <= 1e-12 and elapsed < 5.0
    _report(
        7,
        ok,
        f"100 instances each, equivariance {worst_equi:.2e}, translation {worst_trans:.2e}, {elapsed:.1f}s",
    )
    assert worst_equi <= 1e-12
    assert worst_trans <= 1e-12
    assert elapsed < 5.0


def test_criterion_8_reproducibility(desk_scale, tmp_path):
    P, results, _ = desk_scale
    mismatches = []
    verify_failures = []
    for seed, (body, cfg, out, _) in results.items():
        rerun = minimize(body, P, cfg)
        if rerun.gnorm != out.gnorm or not np.array_equal(rerun.rotation.matrix, out.rotation.matrix):
            mismatches.append(seed)
        record = build_solve_record(body, P, cfg, out, wall_time_s=0.0)
        path = tmp_path / f"record_{seed}.json"
        write_record(record, path)
        if cli_main(["verify", "--record", str(path)]) != 0:
            verify_failures.append(seed)
    ok = not mismatches and not verify_failures
    _report(
        8,
        ok,
        f"bitwise rerun mismatches {len(mismatches)}, verify failures {len(verify_failures)} of {len(results)}",
    )
    assert not mismatches, mismatches
    assert not verify_failures, verify_failures
