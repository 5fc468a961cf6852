from itertools import combinations

import numpy as np
import pytest

from conftest import unit_vectors

from coverfit import (
    DegeneracyError,
    InputError,
    facet_normals,
    load_polytope,
    make_polytope,
    preset,
    random_rotation,
    save_polytope,
)
from coverfit.polytopes import polytope_from_dict, polytope_to_dict, resolve_polytope


AXISDIAG_RAW = np.array(
    [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [0.5, 0.5, 0.5, 0.5],
        [0.5, 0.5, -0.5, -0.5],
        [0.5, -0.5, 0.5, -0.5],
    ],
    dtype=float,
)


def test_axisdiag_construction():
    P = make_polytope(4, AXISDIAG_RAW)
    assert P.n_strips == 7
    assert P.n_facets == 14
    norms = np.linalg.norm(P.strip_normals, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-12
    assert np.linalg.matrix_rank(P.strip_normals) == 4


def test_hexagon_preset():
    P = preset("hexagon2d")
    assert P.dim == 2
    assert P.n_strips == 3
    assert P.n_facets == 6
    assert not P.beyond_theorem_bound


def test_unbounded_rejected():
    with pytest.raises(InputError, match="unbounded"):
        make_polytope(4, np.eye(4)[:3])


def test_duplicate_normal_rejected():
    with pytest.raises(InputError, match="duplicate"):
        make_polytope(2, np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]]))


def test_antipodal_pair_collapses():
    P = make_polytope(2, np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]))
    assert P.n_strips == 2


def test_normals_canonically_oriented():
    P = make_polytope(2, np.array([[-1.0, 0.5], [0.0, -1.0]]))
    for row in P.strip_normals:
        nz = row[np.abs(row) > 1e-12]
        assert nz[0] > 0


def test_presets_counts_and_flags():
    expect = {
        "hexagon2d": (2, 3, False),
        "rhombic12_3d": (3, 6, False),
        "axisdiag14_4d": (4, 7, False),
        "cross16_4d": (4, 8, True),
    }
    for name, (dim, strips, beyond) in expect.items():
        P = preset(name)
        assert (P.dim, P.n_strips, P.beyond_theorem_bound) == (dim, strips, beyond)


def test_unknown_preset():
    with pytest.raises(InputError):
        preset("dodecahedron")


def test_reference_frame_axisdiag_oracle():
    P = preset("axisdiag14_4d")
    frame = P.frame
    # oracle: enumerate all 35 subsets directly
    best = max(
        combinations(range(7), 4),
        key=lambda idx: abs(np.linalg.det(P.strip_normals[list(idx)])),
    )
    assert abs(np.linalg.det(P.strip_normals[list(best)])) == pytest.approx(frame.det_abs, abs=1e-12)
    assert frame.indices == (0, 1, 2, 3)
    assert frame.det_abs == pytest.approx(1.0, abs=1e-12)


def test_reference_frame_hexagon_tiebreak():
    P = preset("hexagon2d")
    frame = P.frame
    dets = [abs(np.linalg.det(P.strip_normals[list(idx)])) for idx in combinations(range(3), 2)]
    assert np.allclose(dets, np.sin(np.pi / 3), atol=1e-12)
    assert frame.indices == (0, 1)


def test_reference_frame_orthonormal_first():
    normals = np.concatenate([np.eye(3), [[1 / np.sqrt(3)] * 3]])
    P = make_polytope(3, normals)
    assert P.frame.det_abs == pytest.approx(1.0, abs=1e-12)


def test_reference_frame_rotation_invariant():
    P = preset("axisdiag14_4d")
    base_indices = P.frame.indices
    rng = np.random.default_rng(42)
    for _ in range(100):
        rho = random_rotation(4, rng)
        rotated = make_polytope(4, P.strip_normals @ rho.matrix.T)
        assert rotated.frame.indices == base_indices


def test_facet_normals_are_pairs():
    for name in ("hexagon2d", "axisdiag14_4d"):
        P = preset(name)
        F = facet_normals(P)
        assert F.shape == (P.n_facets, P.dim)
        assert np.max(np.abs(np.linalg.norm(F, axis=1) - 1.0)) <= 1e-12
        k = P.n_strips
        assert np.array_equal(F[:k], -F[k:])


def test_facet_planes_tangent_to_half_ball():
    # every facet hyperplane {y . u = 1/2} is at distance 1/2 from the origin
    P = preset("rhombic12_3d")
    for u in facet_normals(P):
        assert abs(0.5 / np.linalg.norm(u) - 0.5) <= 1e-12


def test_make_polytope_idempotent():
    P = preset("axisdiag14_4d")
    Q = make_polytope(P.dim, P.strip_normals)
    assert np.array_equal(P.strip_normals, Q.strip_normals)
    assert P.frame == Q.frame


def test_degenerate_frame_guard():
    # nearly parallel normals in 2D still pass rank but their best det is tiny
    eps = 1e-8
    normals = np.array([[1.0, 0.0], [1.0, eps]])
    normals[1] /= np.linalg.norm(normals[1])
    with pytest.raises(DegeneracyError):
        make_polytope(2, normals)


def test_polytope_json_roundtrip(tmp_path):
    P = preset("cross16_4d")
    path = tmp_path / "poly.json"
    save_polytope(P, path)
    Q = load_polytope(path)
    assert np.array_equal(P.strip_normals, Q.strip_normals)
    assert P.frame == Q.frame
    assert P.beyond_theorem_bound == Q.beyond_theorem_bound


def test_polytope_dict_normalizes_on_load():
    data = {"dim": 2, "strip_normals": [[2.0, 0.0], [0.0, 3.0], [5.0, 5.0]]}
    P = polytope_from_dict(data)
    assert np.max(np.abs(np.linalg.norm(P.strip_normals, axis=1) - 1.0)) <= 1e-12
    out = polytope_to_dict(P)
    assert len(out["strip_normals"]) == 3


def test_resolve_polytope_accepts_preset_and_file(tmp_path):
    P = resolve_polytope("hexagon2d")
    assert P.n_strips == 3
    path = tmp_path / "p.json"
    save_polytope(P, path)
    Q = resolve_polytope(str(path))
    assert np.array_equal(P.strip_normals, Q.strip_normals)


def test_malformed_polytope_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(InputError):
        load_polytope(path)
    with pytest.raises(InputError):
        polytope_from_dict({"strip_normals": [[1, 0]]})
