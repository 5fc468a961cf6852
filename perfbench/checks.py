"""Correctness checks written in the benchmark itself.

None of these calls `verify_record` or `validate_support_function`: they
evaluate the body only through `ConvexBody.support_many` and compare against
polytope normals the benchmark defines on its own, so a defect shared by the
program and its own verifier still shows here.  Each check returns a list of
failure reasons; an empty list means the output passed.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

GNORM_MAX = 1e-8
MARGIN_FLOOR = -1e-7
ROTATION_TOL = 1e-9
SUBLINEARITY_TOL = 1e-12
# prefix of the failure that marks a body make_perturbed_ball should not have made
NONCONVEX = "nonconvex body"

# near-parallel pairs u +- delta t probe the curvature of the 1-homogeneous
# extension, where a non-convex support function fails first; the random
# pairs keep a global sample as well
_LOCAL_DELTAS = (0.02, 0.1, 0.3)
_PAIRS_PER_SCALE = 4096
_RANDOM_PAIRS = 4096


def _preset_normals() -> dict[str, np.ndarray]:
    hexagon = np.array([[np.cos(a), np.sin(a)] for a in (0.0, np.pi / 3, 2 * np.pi / 3)])
    rhombic = []
    for i, j in combinations(range(3), 2):
        for sj in (1.0, -1.0):
            v = np.zeros(3)
            v[i], v[j] = 1.0, sj
            rhombic.append(v / np.sqrt(2.0))
    axisdiag = np.vstack(
        [
            np.eye(4),
            [[0.5, 0.5, 0.5, 0.5], [0.5, 0.5, -0.5, -0.5], [0.5, -0.5, 0.5, -0.5]],
        ]
    )
    return {"hexagon2d": hexagon, "rhombic12_3d": np.array(rhombic), "axisdiag14_4d": axisdiag}


PRESET_NORMALS = _preset_normals()


def check_rotation(R: np.ndarray) -> list[str]:
    R = np.asarray(R, dtype=float)
    if R.ndim != 2 or R.shape[0] != R.shape[1]:
        return [f"rotation: shape {R.shape}"]
    drift = float(np.max(np.abs(R.T @ R - np.eye(R.shape[0]))))
    if not np.isfinite(drift) or drift > ROTATION_TOL:
        return [f"rotation: orthogonality drift {drift:.3e}"]
    if np.linalg.det(R) < 0.0:
        return ["rotation: determinant -1"]
    return []


def containment_slack(body, normals: np.ndarray, R: np.ndarray, x: np.ndarray) -> float:
    """Worst facet slack of x + R(P) against the body, P the strips |u . z| <= 1/2."""
    W = np.asarray(normals, dtype=float) @ np.asarray(R, dtype=float).T
    proj = W @ np.asarray(x, dtype=float)
    upper = 0.5 + proj - body.support_many(W)
    lower = 0.5 - proj - body.support_many(-W)
    return float(min(upper.min(), lower.min()))


def check_placement(
    body, preset_name: str, R, x, converged: bool, gnorm: float, margin: float
) -> list[str]:
    """The solver's claims, then containment recomputed from R and x."""
    reasons = []
    if not converged:
        reasons.append("not converged")
    if not gnorm <= GNORM_MAX:
        reasons.append(f"gnorm {gnorm:.3e} above {GNORM_MAX:g}")
    if not margin >= MARGIN_FLOOR:
        reasons.append(f"reported margin {margin:.3e} below {MARGIN_FLOOR:g}")
    R = np.asarray(R, dtype=float)
    rot = check_rotation(R)
    if rot:
        return reasons + rot
    slack = containment_slack(body, PRESET_NORMALS[preset_name], R, x)
    if not slack >= MARGIN_FLOOR:
        reasons.append(f"containment: slack {slack:.3e} below {MARGIN_FLOOR:g}")
    return reasons


def check_record(body, preset_name: str, record: dict) -> list[str]:
    """A solve record as read back from disk."""
    try:
        out = record["outcome"]
        R = np.array(out["matrix"], dtype=float)
        x = np.array(out["x"], dtype=float)
        claims = (bool(out["converged"]), float(out["gnorm"]), float(out["margin"]))
    except (KeyError, TypeError, ValueError) as exc:
        return [f"record: malformed ({exc})"]
    if x.shape != (body.dim,):
        return [f"record: x has shape {x.shape}"]
    return check_placement(body, preset_name, R, x, *claims)


def homogeneous_support(body, Z: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(Z, axis=1)
    return norms * body.support_many(Z / norms[:, None])


def worst_sublinearity_gap(body, seed: int) -> float:
    """max of H(x + y) - H(x) - H(y) over near-parallel and random pairs.

    H is the 1-homogeneous extension of h; h is a support function exactly
    when H is sublinear, so a positive gap proves the body is not convex.
    """
    rng = np.random.default_rng([seed, 0x5B])
    dim = body.dim
    blocks = []
    for delta in _LOCAL_DELTAS:
        U = rng.standard_normal((_PAIRS_PER_SCALE, dim))
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        T = rng.standard_normal((_PAIRS_PER_SCALE, dim))
        T -= np.sum(T * U, axis=1, keepdims=True) * U
        T /= np.linalg.norm(T, axis=1, keepdims=True)
        blocks.append((U + delta * T, U - delta * T))
    blocks.append((rng.standard_normal((_RANDOM_PAIRS, dim)), rng.standard_normal((_RANDOM_PAIRS, dim))))
    worst = -np.inf
    for X, Y in blocks:
        S = X + Y
        keep = np.linalg.norm(S, axis=1) > 1e-9
        X, Y, S = X[keep], Y[keep], S[keep]
        gap = homogeneous_support(body, S) - homogeneous_support(body, X) - homogeneous_support(body, Y)
        worst = max(worst, float(gap.max()))
    return worst


def check_convex(body, seed: int) -> list[str]:
    gap = worst_sublinearity_gap(body, seed)
    if gap > SUBLINEARITY_TOL:
        return [f"{NONCONVEX}: sublinearity gap {gap:.3e}"]
    return []


def check_root_in_brackets(theta: float, brackets, samples: int) -> list[str]:
    """The solver's planar root must sit in a grid cell where the scan saw a
    sign change.  Angles are compared modulo pi, the residual's period up to sign."""
    cell = np.pi / samples
    roots = [b.root for b in brackets if b.kind == "sign_change"]
    for r in roots:
        d = abs(theta - r) % np.pi
        if min(d, np.pi - d) <= cell:
            return []
    return [f"planar root {theta % np.pi:.6f} outside all {len(roots)} scan brackets"]
