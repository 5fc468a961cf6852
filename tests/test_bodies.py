import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reuleaux_boundary_oracle, unit_vectors

import coverfit.bodies as bodies_mod
from coverfit import (
    InputError,
    GenerationError,
    Rotation,
    load_body,
    make_ball,
    make_perturbed_ball,
    make_reuleaux_polygon,
    random_rotation,
    save_body,
    validate_support_function,
)
from coverfit.bodies import PerturbedBallSpec, ConvexBody, body_from_dict, body_to_dict


def test_ball_support_and_width():
    ball = make_ball(4)
    assert ball.support(np.array([1.0, 0, 0, 0])) == 0.5
    assert ball.constant_width_certified
    rng = np.random.default_rng(0)
    U = unit_vectors(rng, 4, 100)
    assert np.allclose(ball.width_many(U), 1.0, atol=0)


def test_ball_rejects_wrong_dim_direction():
    with pytest.raises(InputError):
        make_ball(3).support(np.array([1.0, 0.0]))
    with pytest.raises(InputError):
        make_ball(2).support(np.zeros(2))


def test_single_odd_monomial_vanishes_on_axis():
    # h(u) = 1/2 + 0.05 * u1*u2*u3 evaluates to 1/2 on any axis direction
    spec = PerturbedBallSpec(
        dim=4,
        epsilon=0.05,
        exponents=np.array([[1, 1, 1, 0]]),
        coeffs=np.array([1.0]),
    )
    body = ConvexBody(dim=4, kind="perturbed_ball", constant_width_certified=True, perturbation=spec)
    assert body.support(np.array([1.0, 0, 0, 0])) == 0.5


@pytest.mark.parametrize("k", [3, 5, 7])
def test_reuleaux_width_is_one(k):
    body = make_reuleaux_polygon(k, phase=0.37)
    th = np.linspace(0.0, 2.0 * np.pi, 360, endpoint=False)
    U = np.stack([np.cos(th), np.sin(th)], axis=1)
    assert np.max(np.abs(body.width_many(U) - 1.0)) <= 1e-12


def test_reuleaux_support_matches_boundary_oracle():
    body = make_reuleaux_polygon(3, phase=0.0)
    boundary = reuleaux_boundary_oracle(3, 0.0, n_per_arc=333334)
    th = np.linspace(0.0, 2.0 * np.pi, 200, endpoint=False)
    U = np.stack([np.cos(th), np.sin(th)], axis=1)
    oracle = np.max(boundary @ U.T, axis=0)
    assert np.max(np.abs(body.support_many(U) - oracle)) <= 1e-9


@pytest.mark.parametrize("k,phase", [(5, 1.1), (7, -0.4)])
def test_reuleaux_support_oracle_other_k(k, phase):
    body = make_reuleaux_polygon(k, phase)
    boundary = reuleaux_boundary_oracle(k, phase, n_per_arc=60000)
    th = np.linspace(0.0, 2.0 * np.pi, 100, endpoint=False)
    U = np.stack([np.cos(th), np.sin(th)], axis=1)
    oracle = np.max(boundary @ U.T, axis=0)
    assert np.max(np.abs(body.support_many(U) - oracle)) <= 1e-8


def test_reuleaux_vertex_exposed():
    body = make_reuleaux_polygon(3, phase=0.0)
    p = body.reuleaux.vertices[0]
    u = p / np.linalg.norm(p)
    assert body.support(u) == pytest.approx(float(p @ u), abs=1e-12)


@pytest.mark.parametrize("bad_k", [1, 4, 2, 0, -3])
def test_reuleaux_rejects_bad_k(bad_k):
    with pytest.raises(InputError):
        make_reuleaux_polygon(bad_k)


def test_perturbed_ball_width_is_one():
    body = make_perturbed_ball(4, 3, 0.05, seed=11)
    rng = np.random.default_rng(5)
    U = unit_vectors(rng, 4, 100_000)
    assert np.max(np.abs(body.width_many(U) - 1.0)) <= 1e-12


def test_perturbed_ball_oddness_tight():
    body = make_perturbed_ball(3, 5, 0.02, seed=2)
    rng = np.random.default_rng(6)
    U = unit_vectors(rng, 3, 10_000)
    assert np.max(np.abs(body.support_many(U) + body.support_many(-U) - 1.0)) <= 1e-14


def test_perturbed_ball_epsilon_zero_is_ball():
    body = make_perturbed_ball(2, 3, 0.0, seed=0)
    rng = np.random.default_rng(1)
    U = unit_vectors(rng, 2, 50)
    assert np.all(body.support_many(U) == 0.5)


def test_perturbed_ball_determinism():
    a = make_perturbed_ball(4, 3, 0.05, seed=7)
    b = make_perturbed_ball(4, 3, 0.05, seed=7)
    assert np.array_equal(a.perturbation.coeffs, b.perturbation.coeffs)
    assert a.perturbation.epsilon == b.perturbation.epsilon
    c = make_perturbed_ball(4, 3, 0.05, seed=8)
    assert not np.array_equal(a.perturbation.coeffs, c.perturbation.coeffs)


@pytest.mark.parametrize("dim,degree,eps", [(5, 3, 0.05), (4, 2, 0.05), (4, 7, 0.05), (4, 3, 0.3), (4, 3, -0.1)])
def test_perturbed_ball_rejects_bad_args(dim, degree, eps):
    with pytest.raises(InputError):
        make_perturbed_ball(dim, degree, eps, seed=0)


def test_perturbed_ball_epsilon_underflow(monkeypatch):
    monkeypatch.setattr(
        bodies_mod,
        "validate_support_function",
        lambda body, n_pairs, seed: bodies_mod.ValidationReport(False, n_pairs, 1.0, n_pairs),
    )
    with pytest.raises(GenerationError):
        bodies_mod.make_perturbed_ball(4, 3, 0.05, seed=0)


def test_validate_ball_passes():
    report = validate_support_function(make_ball(3), 2000, seed=9)
    assert report.passed
    assert report.worst_violation <= 1e-15


def test_validate_flags_forced_nonconvex():
    # epsilon far past any convexity threshold; sampling must find a violation
    rng = np.random.default_rng(3)
    exponents = bodies_mod.odd_monomial_exponents(4, 3)
    coeffs = rng.uniform(-1.0, 1.0, len(exponents))
    spec = PerturbedBallSpec(dim=4, epsilon=10.0, exponents=exponents, coeffs=coeffs)
    body = ConvexBody(dim=4, kind="perturbed_ball", constant_width_certified=False, perturbation=spec)
    report = validate_support_function(body, 1000, seed=4)
    assert not report.passed
    assert report.worst_violation > 1e-12
    assert report.n_violations > 0


def test_validate_zero_pairs_vacuous():
    report = validate_support_function(make_ball(2), 0, seed=0)
    assert report.passed
    assert report.n_pairs == 0


@pytest.mark.parametrize(
    "factory",
    [
        lambda: make_ball(2),
        lambda: make_ball(4),
        lambda: make_reuleaux_polygon(3, 0.2),
        lambda: make_reuleaux_polygon(5, 1.0),
        lambda: make_reuleaux_polygon(7, -0.5),
        lambda: make_perturbed_ball(2, 3, 0.05, seed=1),
        lambda: make_perturbed_ball(3, 3, 0.05, seed=2),
        lambda: make_perturbed_ball(4, 3, 0.05, seed=3),
        lambda: make_perturbed_ball(4, 5, 0.05, seed=4),
    ],
)
def test_sublinearity_all_families(factory):
    report = validate_support_function(factory(), 10_000, seed=123)
    assert report.passed, f"worst violation {report.worst_violation}"


def test_translate_shifts_support():
    ball = make_ball(3)
    t = np.array([0.1, -0.2, 0.3])
    moved = ball.translated(t)
    rng = np.random.default_rng(2)
    U = unit_vectors(rng, 3, 200)
    assert np.allclose(moved.support_many(U), 0.5 + U @ t, atol=1e-15)
    assert np.max(np.abs(moved.width_many(U) - 1.0)) <= 1e-15


def test_translate_zero_is_identity_pointwise():
    body = make_perturbed_ball(4, 3, 0.05, seed=5)
    moved = body.translated(np.zeros(4))
    rng = np.random.default_rng(3)
    U = unit_vectors(rng, 4, 100)
    assert np.array_equal(moved.support_many(U), body.support_many(U))


def test_translate_rejects_dim_mismatch():
    with pytest.raises(InputError):
        make_ball(3).translated(np.zeros(2))


def test_rotate_ball_invariant():
    ball = make_ball(4)
    rho = random_rotation(4, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    U = unit_vectors(rng, 4, 100)
    assert np.allclose(ball.rotated(rho).support_many(U), 0.5, atol=0)


def test_rotate_identity_is_identity():
    body = make_perturbed_ball(3, 3, 0.05, seed=1)
    rot = body.rotated(Rotation.identity(3))
    rng = np.random.default_rng(4)
    U = unit_vectors(rng, 3, 50)
    assert np.allclose(rot.support_many(U), body.support_many(U), atol=1e-15)


def test_rotate_composes():
    body = make_perturbed_ball(4, 3, 0.05, seed=9)
    rng = np.random.default_rng(10)
    rho1 = random_rotation(4, rng)
    rho2 = random_rotation(4, rng)
    twice = body.rotated(rho1).rotated(rho2)
    combined = rho2 @ rho1
    U = unit_vectors(rng, 4, 100)
    # support of the doubly rotated body is h((rho2 rho1)^-1 u)
    expected = body.support_many(U @ combined.matrix)
    assert np.max(np.abs(twice.support_many(U) - expected)) <= 1e-14


def test_rotate_rejects_dim_mismatch():
    with pytest.raises(InputError):
        make_ball(2).rotated(Rotation.identity(3))


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2**31 - 1), st.sampled_from([2, 3, 4]))
def test_width_one_property(seed, dim):
    body = make_perturbed_ball(dim, 3, 0.05, seed=seed % 1000)
    rng = np.random.default_rng(seed)
    U = unit_vectors(rng, dim, 64)
    assert np.max(np.abs(body.width_many(U) - 1.0)) <= 1e-12


# --- file format -----------------------------------------------------------


@pytest.mark.parametrize(
    "factory",
    [
        lambda: make_ball(4),
        lambda: make_reuleaux_polygon(5, 0.77),
        lambda: make_perturbed_ball(4, 3, 0.05, seed=7),
    ],
)
def test_body_json_roundtrip_is_exact(tmp_path, factory):
    body = factory()
    path = tmp_path / "body.json"
    save_body(body, path)
    loaded = load_body(path)
    rng = np.random.default_rng(11)
    U = unit_vectors(rng, body.dim, 500)
    assert np.array_equal(loaded.support_many(U), body.support_many(U))


def test_body_dict_roundtrip_matches():
    body = make_perturbed_ball(3, 3, 0.04, seed=13)
    again = body_from_dict(json.loads(json.dumps(body_to_dict(body))))
    assert again.perturbation.epsilon == body.perturbation.epsilon
    assert np.array_equal(again.perturbation.coeffs, body.perturbation.coeffs)


def test_wrapped_bodies_have_no_file_form():
    with pytest.raises(InputError):
        body_to_dict(make_ball(2).translated(np.array([0.1, 0.0])))


def test_body_from_dict_rejects_even_monomial():
    data = {
        "dim": 2,
        "kind": "perturbed_ball",
        "epsilon": 0.05,
        "coeffs": [{"exponents": [1, 1], "c": 0.3}],
    }
    with pytest.raises(InputError):
        body_from_dict(data)


def test_body_from_dict_rejects_nonfinite_values():
    base = body_to_dict(make_perturbed_ball(3, 3, 0.05, seed=2))
    for bad in (float("inf"), float("nan")):
        with pytest.raises(InputError, match="epsilon must be finite"):
            body_from_dict(dict(base, epsilon=bad))
        coeffs = [dict(base["coeffs"][0], c=bad)] + base["coeffs"][1:]
        with pytest.raises(InputError, match="coefficients must be finite"):
            body_from_dict(dict(base, coeffs=coeffs))
        with pytest.raises(InputError, match="phase must be finite"):
            body_from_dict({"dim": 2, "kind": "reuleaux_polygon", "k": 3, "phase": bad})


def test_body_from_dict_rejects_negative_exponents():
    data = {"dim": 2, "kind": "perturbed_ball", "epsilon": 0.05,
            "coeffs": [{"exponents": [-1, 2], "c": 0.3}]}
    with pytest.raises(InputError, match="nonnegative"):
        body_from_dict(data)


def test_generators_reject_nonfinite_parameters():
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(InputError):
            make_perturbed_ball(3, 3, bad, seed=0)
        with pytest.raises(InputError):
            make_reuleaux_polygon(3, bad)


def test_load_body_missing_file(tmp_path):
    with pytest.raises(InputError):
        load_body(tmp_path / "nope.json")


def test_body_from_dict_loads_whole_numbers_written_as_floats():
    # fractional ones exit 3: test_cli.py::test_solve_malformed_body_exits_3
    whole = body_from_dict({"dim": 2.0, "kind": "reuleaux_polygon", "k": 5.0, "phase": 0.3})
    assert body_to_dict(whole) == body_to_dict(make_reuleaux_polygon(5, 0.3))
    data = body_to_dict(make_perturbed_ball(3, 3, 0.05, seed=1))
    floats = dict(data, coeffs=[dict(e, exponents=[float(x) for x in e["exponents"]]) for e in data["coeffs"]])
    assert body_to_dict(body_from_dict(floats)) == data


@pytest.mark.parametrize("dim,degree,seed", [(2, 5, 0), (3, 5, 2), (4, 3, 1)])
def test_perturbed_support_rows_do_not_depend_on_their_call(dim, degree, seed):
    body = make_perturbed_ball(dim, degree, 0.1, seed=seed)
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((257, dim))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    whole = body.support_many(U)
    assert np.array_equal(whole, [body.support(u) for u in U])
    assert np.array_equal(whole, np.concatenate([body.support_many(U[:100]), body.support_many(U[100:])]))
