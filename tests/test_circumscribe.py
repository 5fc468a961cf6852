import numpy as np
import pytest

from conftest import unit_vectors

from coverfit import (
    DegeneracyError,
    InputError,
    Rotation,
    containment_margin,
    fit_translation,
    make_ball,
    make_perturbed_ball,
    make_reuleaux_polygon,
    preset,
    random_rotation,
    residual_map,
    residuals,
    strip_residual,
)


def test_fit_translation_ball_is_zero():
    ball = make_ball(4)
    frame = preset("axisdiag14_4d").strip_normals[:4]
    assert np.array_equal(fit_translation(ball, frame), np.zeros(4))


def test_fit_translation_translated_ball():
    t = np.array([0.05, -0.1, 0.02, 0.07])
    body = make_ball(4).translated(t)
    rng = np.random.default_rng(0)
    tau = random_rotation(4, rng)
    frame = preset("axisdiag14_4d").strip_normals[:4] @ tau.matrix.T
    assert np.max(np.abs(fit_translation(body, frame) - t)) <= 1e-14


def test_fit_translation_matches_grid_oracle():
    # brute force: minimize the worst frame-strip violation over a dense
    # translation grid; both frame equations are affine in x, so the
    # violation is piecewise linear with a unique minimizer at the solve
    body = make_reuleaux_polygon(3, phase=0.0)
    frame = preset("hexagon2d").strip_normals[:2]
    x_solve = fit_translation(body, frame)

    a = body.support_many(frame) - 0.5
    b = body.support_many(-frame) - 0.5
    grid = np.linspace(-0.5, 0.5, 2000)
    GX, GY = np.meshgrid(grid, grid, indexing="ij")
    X = np.stack([GX.ravel(), GY.ravel()], axis=1)
    proj = X @ frame.T
    violation = np.maximum(np.max(a[None, :] - proj, axis=1), np.max(b[None, :] + proj, axis=1))
    x_grid = X[np.argmin(violation)]
    assert np.max(np.abs(x_grid - x_solve)) <= 1e-3


def test_fit_translation_rejects_singular_frame():
    body = make_ball(2)
    with pytest.raises(DegeneracyError):
        fit_translation(body, np.array([[1.0, 0.0], [1.0, 1e-9]]))


def test_residual_map_ball_exact_zero():
    for name in ("hexagon2d", "rhombic12_3d", "axisdiag14_4d", "cross16_4d"):
        P = preset(name)
        ball = make_ball(P.dim)
        rng = np.random.default_rng(1)
        for _ in range(10):
            fit = residual_map(ball, P, random_rotation(P.dim, rng))
            assert np.all(fit.residual == 0.0)
            assert np.all(fit.x == 0.0)
            assert abs(fit.margin) <= 1e-15


def test_residual_oddness_even_dims():
    from coverfit import negate

    rng = np.random.default_rng(2)
    for dim, pname in ((2, "hexagon2d"), (4, "axisdiag14_4d")):
        P = preset(pname)
        for seed in range(10):
            body = make_perturbed_ball(dim, 3, 0.05, seed=seed)
            for _ in range(10):
                tau = random_rotation(dim, rng)
                r_plus = residual_map(body, P, tau).residual
                r_minus = residual_map(body, P, negate(tau)).residual
                assert np.max(np.abs(r_plus + r_minus)) <= 1e-12


def test_residual_length_and_order():
    P = preset("axisdiag14_4d")
    body = make_perturbed_ball(4, 3, 0.05, seed=3)
    tau = random_rotation(4, np.random.default_rng(3))
    fit = residual_map(body, P, tau)
    assert fit.residual.shape == (P.n_strips - 4,)
    # components are the non-frame strips in ascending index order
    rest = [j for j in range(P.n_strips) if j not in fit.frame.indices]
    for pos, j in enumerate(rest):
        v = tau.apply(P.strip_normals[j])
        expected = strip_residual(body, v / np.linalg.norm(v), fit.x)
        assert fit.residual[pos] == pytest.approx(expected, abs=1e-14)


def test_frame_equations_hold():
    P = preset("axisdiag14_4d")
    body = make_perturbed_ball(4, 3, 0.05, seed=4)
    rng = np.random.default_rng(4)
    for _ in range(25):
        tau = random_rotation(4, rng)
        fit = residual_map(body, P, tau)
        V = tau.apply_many(P.strip_normals[list(fit.frame.indices)])
        lhs = V @ fit.x
        rhs = body.support_many(V) - 0.5
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_scalar_residual_sign_change_reuleaux_hexagon():
    # brute force scan: the planar residual changes sign on [0, pi)
    body = make_reuleaux_polygon(3, phase=0.0)
    P = preset("hexagon2d")
    thetas = np.linspace(0.0, np.pi, 10_000, endpoint=False)
    vals = np.array([residual_map(body, P, Rotation.from_angle(t)).residual[0] for t in thetas[::10]])
    signs = np.sign(vals)
    assert np.any(signs[:-1] * signs[1:] < 0)


def test_containment_margin_ball_offset():
    P = preset("axisdiag14_4d")
    ball = make_ball(4)
    x = np.array([0.1, 0.0, 0.0, 0.0])
    margin = containment_margin(ball, P, Rotation.identity(4), x)
    assert margin == pytest.approx(-0.1, abs=1e-15)


def test_margin_at_zero_residual_is_tiny():
    P = preset("axisdiag14_4d")
    body = make_perturbed_ball(4, 3, 0.05, seed=5)
    from coverfit import SearchConfig, minimize

    out = minimize(body, P, SearchConfig(seed=5, restarts=8))
    assert out.converged
    assert -1e-8 <= out.fit.margin <= 1e-12


def test_margin_never_positive_beyond_roundoff():
    # width-one bodies in width-one strips touch: containment is tangential
    P = preset("hexagon2d")
    body = make_reuleaux_polygon(5, phase=0.9)
    rng = np.random.default_rng(6)
    for _ in range(50):
        tau = random_rotation(2, rng)
        fit = residual_map(body, P, tau)
        assert fit.margin <= 1e-9


def test_strip_residual_basics():
    ball = make_ball(4)
    v = np.array([1.0, 0.0, 0.0, 0.0])
    assert strip_residual(ball, v, np.zeros(4)) == 0.0
    assert strip_residual(ball, v, 0.2 * v) == pytest.approx(-0.2, abs=1e-15)


def test_strip_residual_sign_flip():
    body = make_perturbed_ball(4, 3, 0.05, seed=6)
    rng = np.random.default_rng(7)
    x = rng.uniform(-0.1, 0.1, 4)
    for u in unit_vectors(rng, 4, 50):
        assert strip_residual(body, -u, x) == pytest.approx(-strip_residual(body, u, x), abs=1e-14)


def test_rotation_equivariance():
    P = preset("axisdiag14_4d")
    rng = np.random.default_rng(8)
    for seed in range(10):
        body = make_perturbed_ball(4, 3, 0.05, seed=seed)
        for _ in range(10):
            rho = random_rotation(4, rng)
            tau = random_rotation(4, rng)
            lhs = residual_map(body.rotated(rho), P, tau).residual
            rhs = residual_map(body, P, rho.inverse() @ tau).residual
            assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_translation_invariance():
    P = preset("axisdiag14_4d")
    rng = np.random.default_rng(9)
    for seed in range(10):
        body = make_perturbed_ball(4, 3, 0.05, seed=seed)
        for _ in range(10):
            t = rng.uniform(-0.5, 0.5, 4)
            tau = random_rotation(4, rng)
            fit_orig = residual_map(body, P, tau)
            fit_moved = residual_map(body.translated(t), P, tau)
            assert np.max(np.abs(fit_moved.residual - fit_orig.residual)) <= 1e-12
            assert np.max(np.abs(fit_moved.x - (fit_orig.x + t))) <= 1e-12


def test_zero_residual_implies_containment():
    P = preset("hexagon2d")
    from coverfit import SearchConfig, minimize

    for k, seed in ((3, 0), (5, 1), (7, 2)):
        body = make_reuleaux_polygon(k, phase=0.1 * (seed + 1))
        out = minimize(body, P, SearchConfig(seed=seed, restarts=20))
        assert out.converged and np.max(np.abs(out.fit.residual)) <= 1e-10
        assert out.fit.margin >= -1e-8


def test_dimension_mismatch_rejected():
    with pytest.raises(InputError):
        residual_map(make_ball(2), preset("axisdiag14_4d"), Rotation.identity(4))
    with pytest.raises(InputError):
        residual_map(make_ball(4), preset("axisdiag14_4d"), Rotation.identity(2))


def test_fit_result_serialization():
    P = preset("axisdiag14_4d")
    body = make_perturbed_ball(4, 3, 0.05, seed=7)
    fit = residual_map(body, P, random_rotation(4, np.random.default_rng(10)))
    d = fit.to_dict()
    assert set(d) == {"x", "residual", "margin", "frame"}
    assert len(d["x"]) == 4
    assert len(d["residual"]) == 3
    assert d["frame"] == [0, 1, 2, 3]


@pytest.mark.parametrize("name", ["hexagon2d", "rhombic12_3d", "axisdiag14_4d", "cross16_4d"])
def test_residuals_match_solve_oracles(name):
    # the batched core against a frame solve and one strip mismatch per strip
    P = preset(name)
    body = make_perturbed_ball(P.dim, 3, 0.05, seed=11)
    rng = np.random.default_rng(12)
    taus = [random_rotation(P.dim, rng) for _ in range(200)]
    xs, gs = residuals(body, P, np.array([tau.matrix for tau in taus]))
    assert xs.shape == (200, P.dim)
    assert gs.shape == (200, P.n_strips - P.dim)
    for tau, x, g in zip(taus, xs, gs):
        V = tau.apply_many(P.strip_normals)
        x_solve = fit_translation(body, V[list(P.frame.indices)])
        assert np.max(np.abs(x - x_solve)) <= 1e-14
        g_strips = [strip_residual(body, V[j], x_solve) for j in P.rest]
        assert np.max(np.abs(g - g_strips), initial=0.0) <= 1e-14
        fit = residual_map(body, P, tau)
        assert np.max(np.abs(x - fit.x)) <= 1e-15
        assert np.max(np.abs(g - fit.residual), initial=0.0) <= 1e-15


def test_polytope_coupling_is_the_frame_solve():
    # C = U_rest U_f^-1 maps frame support offsets onto the other strips
    for name in ("hexagon2d", "rhombic12_3d", "axisdiag14_4d", "cross16_4d"):
        P = preset(name)
        U_f = P.strip_normals[list(P.frame.indices)]
        assert P.rest == tuple(j for j in range(P.n_strips) if j not in P.frame.indices)
        assert np.max(np.abs(P.frame_inverse @ U_f - np.eye(P.dim))) <= 1e-14
        assert np.max(np.abs(P.coupling @ U_f - P.strip_normals[list(P.rest)])) <= 1e-14


def test_residuals_rejects_mismatched_rotations():
    P = preset("axisdiag14_4d")
    with pytest.raises(InputError):
        residuals(make_ball(4), P, np.eye(4))
    with pytest.raises(InputError):
        residuals(make_ball(4), P, np.eye(3)[None])
    with pytest.raises(InputError):
        residuals(make_ball(2), P, np.eye(4)[None])
