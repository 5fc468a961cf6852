"""Fitting a constant-width body into a rotated strip polytope.

For a rotation tau the strip normals are the rows of V = U tau^T.  The frame
strips pin down a unique translation x: a width-one body sits inside a
width-one strip only when the strip is exactly centered on the body's own
slab, so containment in the frame strips is the linear system
V_f x = h_f - 1/2, with h the support values at the rotated normals.  Since
V_f = U_f tau^T, its solution is x = tau U_f^-1 (h_f - 1/2).  Each remaining
strip contributes one signed mismatch h_j - 1/2 - x . v_j between the body's
slab midplane and the strip midplane, and U_rest tau^T tau = U_rest gives

    g(tau) = h_rest - 1/2 - C (h_f - 1/2),    C = U_rest U_f^-1.

The coupling map C depends on the polytope alone, so `make_polytope`
computes it once and `residuals` evaluates g at a whole stack of rotations
with one support evaluation and no linear solve.  No degeneracy check is
needed per rotation: |det(U_f tau^T)| = |det U_f| for every tau, and
`make_polytope` already rejects frames with |det U_f| at or below 1e-6.  A
residual of zero certifies containment in the full polytope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bodies import ConvexBody
from .errors import DegeneracyError, InputError
from .polytopes import ReferenceFrame, SymmetricPolytope, FACET_OFFSET
from .rotations import Rotation

_DET_FLOOR = 1e-6


@dataclass(frozen=True, eq=False)
class FitResult:
    """Translation, residual vector, and containment margin at one rotation."""

    x: np.ndarray
    residual: np.ndarray
    margin: float
    frame: ReferenceFrame

    @property
    def gnorm(self) -> float:
        return float(np.linalg.norm(self.residual))

    def to_dict(self) -> dict:
        return {
            "x": [float(c) for c in self.x],
            "residual": [float(c) for c in self.residual],
            "margin": float(self.margin),
            "frame": list(self.frame.indices),
        }


def fit_translation(body: ConvexBody, frame_normals: np.ndarray) -> np.ndarray:
    """The unique translation centering the body in every frame strip.

    Solves x . v_i = h(v_i) - 1/2.  Centering is forced: the two containment
    inequalities for one strip sum to width(v_i) <= 1, which holds with
    equality for a width-one body, so both must be tight.
    """
    V = np.asarray(frame_normals, dtype=float)
    n = body.dim
    if V.shape != (n, n):
        raise InputError(f"frame must be ({n}, {n}), got {V.shape}")
    if abs(float(np.linalg.det(V))) <= _DET_FLOOR:
        raise DegeneracyError("frame normals are numerically dependent")
    b = body.support_many(V) - FACET_OFFSET
    return np.linalg.solve(V, b)


def strip_residual(body: ConvexBody, v: np.ndarray, x: np.ndarray) -> float:
    """Signed distance from the strip midplane through x to the body's slab
    midplane, for the oriented unit normal v."""
    v = np.asarray(v, dtype=float)
    x = np.asarray(x, dtype=float)
    return body.support(v) - FACET_OFFSET - float(x @ v)


def containment_margin(
    body: ConvexBody, P: SymmetricPolytope, tau: Rotation, x: np.ndarray
) -> float:
    """Worst slack over all 2k facets of x + tau(P) against the body.

    Nonnegative (to tolerance) means containment.  For width-one bodies the
    value never exceeds zero by more than roundoff: the two facets of any
    strip have slacks summing to zero, so containment is always tangential.
    """
    _check_dims(body, P, tau)
    x = np.asarray(x, dtype=float)
    W = tau.apply_many(P.strip_normals)
    h_plus = body.support_many(W)
    h_minus = body.support_many(-W)
    proj = W @ x
    slack = np.concatenate([FACET_OFFSET - h_plus + proj, FACET_OFFSET - h_minus - proj])
    return float(np.min(slack))


def residuals(body: ConvexBody, P: SymmetricPolytope, R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Translations x, shape (B, n), and residuals g, shape (B, k - n), at
    each rotation matrix of the stack R, shape (B, n, n).

    Residual components follow the ascending original strip index, so
    vectors are comparable across calls.
    """
    R = np.asarray(R, dtype=float)
    n = P.dim
    if body.dim != n or R.ndim != 3 or R.shape[1:] != (n, n):
        raise InputError(f"body dim {body.dim} and rotations {R.shape} do not fit polytope dim {n}")
    V = P.strip_normals @ R.transpose(0, 2, 1)
    h = body.support_many(V.reshape(-1, n)).reshape(len(R), -1) - FACET_OFFSET
    hf = h[:, list(P.frame.indices)]
    x = np.einsum("bij,bj->bi", R, hf @ P.frame_inverse.T)
    return x, h[:, list(P.rest)] - hf @ P.coupling.T


def residual_map(body: ConvexBody, P: SymmetricPolytope, tau: Rotation) -> FitResult:
    """Translation, residual over the non-frame strips, and margin at tau."""
    x, g = residuals(body, P, tau.matrix[None])
    margin = containment_margin(body, P, tau, x[0])
    return FitResult(x=x[0], residual=g[0], margin=margin, frame=P.frame)


def _check_dims(body: ConvexBody, P: SymmetricPolytope, tau: Rotation) -> None:
    if not (body.dim == P.dim == tau.dim):
        raise InputError(
            f"dimension mismatch: body {body.dim}, polytope {P.dim}, rotation {tau.dim}"
        )
