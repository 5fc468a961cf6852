"""Centrally symmetric polytopes circumscribed about the ball of diameter one.

A polytope is stored as one oriented unit normal per pair of opposite
facets; facet hyperplanes sit at distance 1/2 from the origin, so each pair
bounds a strip of width one.  Construction canonicalizes orientations,
collapses antipodal duplicates, and picks a spanning reference frame of
maximal determinant once and for all, together with the frame coupling
that the residual map needs (see `circumscribe`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

from .errors import DegeneracyError, InputError
from .rotations import canonical_sign, check_dim
from . import topology

FACET_OFFSET = 0.5

# two normals closer than this chord distance denote the same strip
_DUPLICATE_TOL = 1e-9
_FRAME_DET_FLOOR = 1e-6
# determinant ties within this slack resolve to the lexicographically first subset
_DET_TIE_TOL = 1e-12

PRESET_NAMES = ("hexagon2d", "rhombic12_3d", "axisdiag14_4d", "cross16_4d")


@dataclass(frozen=True)
class ReferenceFrame:
    """Indices of dim strips whose normals span R^dim, chosen with maximal |det|."""

    indices: tuple[int, ...]
    det_abs: float


@dataclass(frozen=True, eq=False)
class SymmetricPolytope:
    dim: int
    strip_normals: np.ndarray  # (k, dim), unit rows, canonically oriented
    frame: ReferenceFrame
    beyond_theorem_bound: bool
    rest: tuple[int, ...]  # the non-frame strip indices, ascending
    frame_inverse: np.ndarray  # U_f^-1, the inverse of the frame normals
    coupling: np.ndarray  # C = U_rest U_f^-1, shape (k - dim, dim)

    @property
    def n_strips(self) -> int:
        return self.strip_normals.shape[0]

    @property
    def n_facets(self) -> int:
        return 2 * self.strip_normals.shape[0]


def make_polytope(dim: int, normals: np.ndarray) -> SymmetricPolytope:
    """Build and validate a polytope from raw strip normals.

    Normals are unit-normalized and oriented so their first nonzero
    coordinate is positive.  A pair of antipodal inputs describes the same
    strip and is collapsed to one normal; a repeated (non-antipodal)
    input is rejected as a duplicate.  Normals failing to span R^dim leave
    the intersection of strips unbounded and are rejected.
    """
    check_dim(dim)
    A = np.asarray(normals, dtype=float)
    if A.ndim != 2 or A.shape[1] != dim:
        raise InputError(f"normals must be (k, {dim}), got {A.shape}")
    if not np.all(np.isfinite(A)):
        raise InputError("normals must be finite")
    norms = np.linalg.norm(A, axis=1)
    if np.any(norms < 1e-12):
        raise InputError("normals must be nonzero")
    # skip division for rows already unit to machine precision (idempotent rebuilds)
    needs = np.abs(norms - 1.0) > 1e-12
    A = A.copy()
    A[needs] = A[needs] / norms[needs, None]

    kept: list[np.ndarray] = []
    for row in A:
        duplicate = False
        for prev in kept:
            if np.linalg.norm(row - prev) < _DUPLICATE_TOL:
                raise InputError("duplicate strip normal")
            if np.linalg.norm(row + prev) < _DUPLICATE_TOL:
                duplicate = True  # antipodal pair: same strip seen from both sides
                break
        if not duplicate:
            kept.append(row)
    K = np.array([canonical_sign(r) for r in kept])

    if np.linalg.matrix_rank(K) < dim:
        raise InputError("unbounded polytope: strip normals do not span the space")

    frame = _select_frame(K, dim)
    beyond = False
    if dim % 2 == 0:
        beyond = 2 * len(K) > topology.facet_bound(dim)
    rest = tuple(j for j in range(len(K)) if j not in frame.indices)
    inv = np.linalg.inv(K[list(frame.indices)])
    return SymmetricPolytope(
        dim=dim, strip_normals=K, frame=frame, beyond_theorem_bound=beyond,
        rest=rest, frame_inverse=inv, coupling=K[list(rest)] @ inv,
    )


def _select_frame(K: np.ndarray, dim: int) -> ReferenceFrame:
    """Scan all size-dim subsets for the maximal |det|, ties to the first subset.

    |det| is invariant under a global rotation of the normals, so the same
    indices are selected for every rotated copy of the polytope.
    """
    best_idx: tuple[int, ...] | None = None
    best_det = 0.0
    for idx in combinations(range(K.shape[0]), dim):
        d = abs(float(np.linalg.det(K[list(idx)])))
        if d > best_det + _DET_TIE_TOL:
            best_det = d
            best_idx = idx
    if best_idx is None or best_det <= _FRAME_DET_FLOOR:
        raise DegeneracyError("no spanning frame with |det| above the floor")
    return ReferenceFrame(indices=best_idx, det_abs=best_det)


def facet_normals(P: SymmetricPolytope) -> np.ndarray:
    """All 2k oriented facet normals, the stored normals and their negatives."""
    return np.concatenate([P.strip_normals, -P.strip_normals], axis=0)


def preset(name: str) -> SymmetricPolytope:
    """Built-in polytopes: the width-one hexagon, the rhombic dodecahedron,
    a 14-facet 4D axis-plus-diagonals polytope, and the 16-facet 4D
    cross-polytope (the one past the covering bound, kept for experiments)."""
    if name == "hexagon2d":
        ang = np.array([0.0, np.pi / 3.0, 2.0 * np.pi / 3.0])
        return make_polytope(2, np.stack([np.cos(ang), np.sin(ang)], axis=1))
    if name == "rhombic12_3d":
        raw = []
        for i, j in combinations(range(3), 2):
            for sj in (1.0, -1.0):
                v = np.zeros(3)
                v[i] = 1.0
                v[j] = sj
                raw.append(v)
        return make_polytope(3, np.array(raw) / np.sqrt(2.0))
    if name == "axisdiag14_4d":
        raw = np.array(
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
        return make_polytope(4, raw)
    if name == "cross16_4d":
        signs = np.array([[sx, sy, sz, sw] for sx in (1, -1) for sy in (1, -1) for sz in (1, -1) for sw in (1, -1)], dtype=float)
        return make_polytope(4, signs / 2.0)
    raise InputError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")


def polytope_to_dict(P: SymmetricPolytope) -> dict:
    return {
        "dim": P.dim,
        "strip_normals": [[float(c) for c in row] for row in P.strip_normals],
    }


def polytope_from_dict(data: dict) -> SymmetricPolytope:
    try:
        dim = int(data["dim"])
        normals = np.array(data["strip_normals"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed polytope data: {exc}") from exc
    return make_polytope(dim, normals)


def save_polytope(P: SymmetricPolytope, path: str | Path) -> None:
    Path(path).write_text(json.dumps(polytope_to_dict(P), indent=2, sort_keys=True) + "\n")


def load_polytope(path: str | Path) -> SymmetricPolytope:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read polytope file {path}: {exc}") from exc
    return polytope_from_dict(data)


def resolve_polytope(name_or_path: str) -> SymmetricPolytope:
    """Accept a preset name wherever a polytope file is accepted."""
    if name_or_path in PRESET_NAMES:
        return preset(name_or_path)
    return load_polytope(name_or_path)
