import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize

from coverfit import (
    InputError,
    Rotation,
    SearchConfig,
    make_ball,
    make_perturbed_ball,
    make_polytope,
    make_reuleaux_polygon,
    minimize,
    preset,
    residual_map,
    scan_2d,
    scan_residual_2d,
)
from coverfit.rotations import chart_dim, exp_chart, random_rotation
from coverfit.search import _gauss_newton_step, _run_single_start


def test_config_defaults_and_validation():
    cfg = SearchConfig()
    assert (cfg.restarts, cfg.tol, cfg.max_iters) == (200, 1e-10, 5000)
    with pytest.raises(InputError):
        SearchConfig(restarts=0)
    for tol in (0.0, np.inf, np.nan, 1e-6):
        with pytest.raises(InputError):
            SearchConfig(tol=tol)
    assert SearchConfig(tol=1e-7).tol == 1e-7
    with pytest.raises(InputError):
        SearchConfig(max_iters=0)
    with pytest.raises(InputError):
        SearchConfig(seed=-1)


def test_ball_converges_immediately():
    for name in ("hexagon2d", "rhombic12_3d", "axisdiag14_4d"):
        P = preset(name)
        out = minimize(make_ball(P.dim), P, SearchConfig(seed=0, restarts=3))
        assert out.converged
        assert out.starts == 1
        assert out.gnorm == 0.0


def test_ball_needs_zero_iterations():
    P = preset("axisdiag14_4d")
    gn, _, iters = _run_single_start(make_ball(4), P, SearchConfig(seed=0), 0)
    assert gn == 0.0
    assert iters == 0


GAUSS_NEWTON_CASES = {
    "desk4d": lambda: (make_perturbed_ball(4, 3, 0.05, seed=1), "axisdiag14_4d"),
    "rough3d": lambda: (make_perturbed_ball(3, 5, 0.2, seed=2), "rhombic12_3d"),
    "reuleaux": lambda: (make_reuleaux_polygon(5, phase=0.3), "hexagon2d"),
    "planar": lambda: (make_perturbed_ball(2, 5, 0.2, seed=3), "hexagon2d"),
}


@pytest.mark.parametrize("case", sorted(GAUSS_NEWTON_CASES))
def test_gauss_newton_step_matches_pinv_reference(case):
    body, name = GAUSS_NEWTON_CASES[case]()
    P = preset(name)
    rng = np.random.default_rng(17)
    m = chart_dim(body.dim)
    for _ in range(5):
        tau = random_rotation(body.dim, rng)
        g = residual_map(body, P, tau).residual
        # one rotation at a time, column by column
        J_ref = np.column_stack(
            [(residual_map(body, P, exp_chart(tau, 1e-7 * e)).residual - g) / 1e-7 for e in np.eye(m)]
        )
        assert np.linalg.matrix_rank(J_ref) == len(g)
        expected = -np.linalg.pinv(J_ref) @ g
        step = _gauss_newton_step(body, P, tau, g)
        assert np.linalg.norm(step - expected) <= 1e-8 * np.linalg.norm(expected)


NELDER_MEAD_CASES = {
    **GAUSS_NEWTON_CASES,
    # a residual that is zero everywhere
    "flat": lambda: (make_ball(4), "axisdiag14_4d"),
}


@pytest.mark.parametrize("maxiter", [1, 100])
@pytest.mark.parametrize("scale", [0.5, 1e-3, 1e-7, 1e-300])
@pytest.mark.parametrize("case", sorted(NELDER_MEAD_CASES))
def test_nelder_mead_matches_scipy(case, scale, maxiter):
    """The search succeeds wherever scipy's Nelder-Mead, the method it replaced, does.

    scipy minimizes ||g|| in the exponential chart around the search's first
    Haar start, from a simplex of size `scale`, for `maxiter` iterations.
    When that reaches a zero, the first Gauss-Newton start from the same
    rotation reaches one within as many iterations.
    """
    body, name = NELDER_MEAD_CASES[case]()
    P = preset(name)
    cfg = SearchConfig(seed=0)
    start = random_rotation(body.dim, np.random.default_rng([cfg.seed, 0]))

    def objective(a):
        return residual_map(body, P, exp_chart(start, a)).gnorm

    m = chart_dim(body.dim)
    simplex = np.zeros((m + 1, m))
    simplex[1:] = np.eye(m) * scale
    ref = scipy_minimize(
        objective,
        np.zeros(m),
        method="Nelder-Mead",
        options={"maxiter": maxiter, "xatol": 0.0, "fatol": 0.0, "initial_simplex": simplex},
    )
    assert minimize(body, P, cfg).converged
    if ref.fun <= cfg.tol:
        gn, _, iters = _run_single_start(body, P, SearchConfig(seed=0, max_iters=maxiter), 0)
        assert gn <= cfg.tol
        assert iters <= ref.nit

@pytest.mark.parametrize("seed", range(10))
def test_desk_first_start_converges_in_few_iterations(seed):
    body = make_perturbed_ball(4, 3, 0.05, seed=seed)
    gn, matrix, iters = _run_single_start(body, preset("axisdiag14_4d"), SearchConfig(seed=seed), 0)
    assert gn <= 1e-10
    assert 1 <= iters <= 10
    assert residual_map(body, preset("axisdiag14_4d"), Rotation.from_matrix(matrix)).gnorm == gn


def _polytope_22_facets():
    normals = np.random.default_rng(5).normal(size=(11, 4))
    return make_polytope(4, normals / np.linalg.norm(normals, axis=1, keepdims=True))


def test_start_without_zero_stalls_early():
    # 11 strips in R^4: a 7-component residual on the 6-dimensional SO(4)
    P = _polytope_22_facets()
    assert P.beyond_theorem_bound
    body = make_perturbed_ball(4, 3, 0.05, seed=0)
    cfg = SearchConfig()
    for i in range(5):
        gn, _, iters = _run_single_start(body, P, cfg, i)
        assert gn > cfg.tol
        assert iters < cfg.max_iters
    out = minimize(body, P, SearchConfig(restarts=5))
    assert not out.converged
    assert out.starts == 5


def test_import_loads_neither_scipy_nor_process_pools():
    code = (
        "import sys, coverfit, coverfit.cli; "
        "print(sorted(m for m in ('scipy', 'concurrent.futures.process') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_reuleaux_triangle_zero_matches_scan_bracket():
    body = make_reuleaux_polygon(3, phase=0.0)
    P = preset("hexagon2d")
    out = minimize(body, P, SearchConfig(seed=1, restarts=20))
    assert out.converged
    assert out.gnorm <= 1e-10
    assert out.fit.margin >= -1e-8
    brackets = [b for b in scan_2d(body, P, 10_000) if b.kind == "sign_change"]
    assert brackets
    theta = out.rotation.angle
    candidates = [theta % np.pi, (theta % np.pi) - np.pi, (theta % np.pi) + np.pi]
    hit = any(
        b.theta_lo - 1e-6 <= c <= b.theta_hi + 1e-6 for b in brackets for c in candidates
    )
    assert hit, f"solver angle {theta} not inside any refined bracket"


def test_perturbed_ball_4d_end_to_end():
    body = make_perturbed_ball(4, 3, 0.05, seed=7)
    P = preset("axisdiag14_4d")
    out = minimize(body, P, SearchConfig(seed=7))
    assert out.converged
    assert out.gnorm <= 1e-10
    assert out.fit.margin >= -1e-8


def test_minimize_deterministic_bitwise():
    body = make_perturbed_ball(4, 3, 0.05, seed=3)
    P = preset("axisdiag14_4d")
    cfg = SearchConfig(seed=12)
    a = minimize(body, P, cfg)
    b = minimize(body, P, cfg)
    assert a.gnorm == b.gnorm
    assert np.array_equal(a.rotation.matrix, b.rotation.matrix)
    assert np.array_equal(a.fit.x, b.fit.x)
    assert np.array_equal(a.fit.residual, b.fit.residual)
    assert a.fit.margin == b.fit.margin
    assert a.starts == b.starts


def test_parallel_waves_match_sequential():
    body = make_perturbed_ball(4, 3, 0.05, seed=4)
    P = preset("axisdiag14_4d")
    cfg = SearchConfig(seed=5, restarts=4)
    seq = minimize(body, P, cfg, n_workers=1)
    par = minimize(body, P, cfg, n_workers=2)
    assert seq.gnorm == par.gnorm
    assert np.array_equal(seq.rotation.matrix, par.rotation.matrix)
    assert seq.starts == par.starts
    assert seq.converged == par.converged


def test_reevaluation_reproduces_gnorm():
    body = make_perturbed_ball(4, 3, 0.05, seed=8)
    P = preset("axisdiag14_4d")
    out = minimize(body, P, SearchConfig(seed=8))
    fresh = residual_map(body, P, out.rotation)
    assert float(np.linalg.norm(fresh.residual)) == out.gnorm
    assert out.converged and fresh.gnorm <= 1e-10


def test_no_zero_found_outcome():
    # one start, starved iteration budget: must report not-converged
    # with the best rotation seen, not raise
    body = make_reuleaux_polygon(3, phase=0.4)
    P = preset("hexagon2d")
    out = minimize(body, P, SearchConfig(seed=2, restarts=1, max_iters=1, tol=1e-14))
    assert not out.converged
    assert out.starts == 1
    assert np.isfinite(out.gnorm)
    assert out.gnorm > 1e-14


def test_outcome_serialization_dim4():
    body = make_perturbed_ball(4, 3, 0.05, seed=9)
    P = preset("axisdiag14_4d")
    out = minimize(body, P, SearchConfig(seed=9))
    d = out.to_dict()
    for key in ("dim", "matrix", "x", "residual", "gnorm", "margin", "starts", "converged", "seed", "quaternion_pair"):
        assert key in d
    assert len(d["matrix"]) == 4
    p, q = d["quaternion_pair"]
    again = Rotation.from_quaternion_pair(np.array(p), np.array(q))
    assert np.max(np.abs(again.matrix - out.rotation.matrix)) <= 1e-12


def test_outcome_serialization_dim2_has_no_pair():
    body = make_reuleaux_polygon(3, 0.1)
    out = minimize(body, preset("hexagon2d"), SearchConfig(seed=3, restarts=10))
    assert "quaternion_pair" not in out.to_dict()


# --- scan oracle -----------------------------------------------------------


def test_scan_ball_reports_degenerate_zeros():
    brackets = scan_2d(make_ball(2), preset("hexagon2d"), 32)
    assert len(brackets) == 32
    assert all(b.kind == "degenerate_zero" for b in brackets)
    assert all(b.residual_at_root == 0.0 for b in brackets)


@pytest.mark.parametrize("k,phase", [(3, 0.0), (5, 0.31), (7, 1.9)])
def test_scan_finds_brackets_for_reuleaux(k, phase):
    body = make_reuleaux_polygon(k, phase)
    brackets = [b for b in scan_2d(body, preset("hexagon2d"), 2048) if b.kind == "sign_change"]
    assert len(brackets) >= 1
    for b in brackets:
        assert abs(b.residual_at_root) <= 1e-12
        # 60 bisections of a pi/2048 interval bottom out at float spacing
        assert b.theta_hi - b.theta_lo <= 4.0 * np.spacing(b.theta_hi)


def test_scan_roots_are_true_zeros():
    body = make_reuleaux_polygon(3, 0.0)
    P = preset("hexagon2d")
    for b in scan_2d(body, P, 512):
        if b.kind == "sign_change":
            fit = residual_map(body, P, Rotation.from_angle(b.root))
            assert abs(fit.residual[0]) <= 1e-12
            assert fit.margin >= -1e-10


def test_scan_residual_table_shape():
    thetas, values = scan_residual_2d(make_reuleaux_polygon(3, 0.2), preset("hexagon2d"), 100)
    assert thetas.shape == (101,)
    assert values.shape == (101,)
    # odd under a half turn: endpoint value is minus the start value
    assert values[-1] == pytest.approx(-values[0], abs=1e-12)


def test_scan_input_errors():
    with pytest.raises(InputError):
        scan_2d(make_ball(2), preset("hexagon2d"), 0)
    with pytest.raises(InputError):
        scan_2d(make_ball(4), preset("hexagon2d"), 16)
    # four strips give a two-component residual: not scannable
    four = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0], [-0.5, 0.5]])
    from coverfit import make_polytope

    with pytest.raises(InputError):
        scan_2d(make_ball(2), make_polytope(2, four), 16)


def test_outcome_dict_keys_and_values_are_the_fit_plus_the_rotation():
    body = make_perturbed_ball(4, 3, 0.05, seed=9)
    out = minimize(body, preset("axisdiag14_4d"), SearchConfig(seed=9))
    d = out.to_dict()
    assert set(d) == {
        "dim", "matrix", "x", "residual", "gnorm", "margin", "frame",
        "starts", "converged", "seed", "quaternion_pair",
    }
    assert d["x"] == [float(c) for c in out.fit.x]
    assert d["residual"] == [float(c) for c in out.fit.residual]
    assert d["gnorm"] == out.fit.gnorm == out.gnorm
    assert d["margin"] == out.fit.margin
    assert d["frame"] == [0, 1, 2, 3]
    assert d["matrix"] == out.rotation.matrix.tolist()
    assert (d["dim"], d["starts"], d["converged"], d["seed"]) == (4, out.starts, out.converged, 9)
    planar = minimize(make_reuleaux_polygon(3, 0.1), preset("hexagon2d"), SearchConfig(seed=3, restarts=10))
    assert set(planar.to_dict()) == set(d) - {"quaternion_pair"}


def test_outcome_gnorm_is_read_only():
    out = minimize(make_ball(2), preset("hexagon2d"), SearchConfig(seed=0, restarts=1))
    with pytest.raises(AttributeError):
        out.gnorm = 1.0


def _reference_scan(body, P, samples):
    """The scan rule written out one angle at a time through residual_map."""

    def g(theta):
        return float(residual_map(body, P, Rotation.from_angle(theta)).residual[0])

    thetas = np.linspace(0.0, np.pi, samples + 1)
    values = [g(t) for t in thetas]

    def crossing(j):
        """Numerically zero at grid angle j, nonzero of opposite signs beside it."""
        if not 0 < j < samples or abs(values[j]) > 1e-15:
            return False
        before, after = values[j - 1], values[j + 1]
        return abs(before) > 1e-15 and abs(after) > 1e-15 and before * after < 0.0

    found = []
    for i in range(samples):
        lo, hi, flo, fhi = float(thetas[i]), float(thetas[i + 1]), values[i], values[i + 1]
        lo_zero, hi_zero = abs(flo) <= 1e-15, abs(fhi) <= 1e-15
        if crossing(i + 1):
            found.append(("sign_change", hi))
        elif crossing(i):
            continue  # already reported with the interval on its left
        elif lo_zero or hi_zero:
            root = lo if not hi_zero else (hi if not lo_zero else 0.5 * (lo + hi))
            found.append(("degenerate_zero", root))
        elif flo * fhi < 0.0:
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                vmid = g(mid)
                if vmid == 0.0:
                    lo = hi = mid
                    break
                if (flo < 0.0) != (vmid < 0.0):
                    hi = mid
                else:
                    lo, flo = mid, vmid
            found.append(("sign_change", 0.5 * (lo + hi)))
    return found


@pytest.mark.parametrize(
    "body",
    [make_reuleaux_polygon(k, phase) for k in (3, 5, 7) for phase in (0.0, 0.31, 1.9)]
    + [make_perturbed_ball(2, 5, 0.2, seed=s) for s in (0, 1)]
    + [make_perturbed_ball(2, 3, 0.05, seed=2), make_ball(2)],
)
def test_scan_matches_scalar_reference(body):
    P = preset("hexagon2d")
    expected = _reference_scan(body, P, 256)
    got = scan_2d(body, P, 256)
    assert [b.kind for b in got] == [kind for kind, _ in expected]
    for b, (_, root) in zip(got, expected):
        assert abs(b.root - root) <= 1e-12
        assert b.theta_lo <= b.root <= b.theta_hi


@pytest.mark.parametrize("samples", [256, 512, 2048])
@pytest.mark.parametrize("k", [3, 5, 7])
def test_scan_reports_a_crossing_on_the_grid_once(k, samples):
    # at phase 0 the residual crosses zero exactly at the grid angle pi/2
    body = make_reuleaux_polygon(k, 0.0)
    brackets = scan_2d(body, preset("hexagon2d"), samples)
    assert all(b.kind == "sign_change" for b in brackets)
    at_half_pi = [b for b in brackets if b.root == np.pi / 2]
    assert len(at_half_pi) == 1
    b = at_half_pi[0]
    assert b.theta_lo == b.theta_hi == b.root
    assert abs(b.residual_at_root) <= 1e-15
