"""Constant-width-1 convex bodies represented by their support functions.

A body is evaluated only through h(u) = sup { z . u : z in the body }, which
is all the fitting machinery ever needs.  Three base families are provided:
the ball of diameter one, Reuleaux polygons (dimension 2), and odd
polynomial perturbations of the ball.  Translated and rotated wrappers give
the transformed support function without touching the base body.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import GenerationError, InputError
from .rotations import Rotation, check_dim

KIND_BALL = "ball"
KIND_REULEAUX = "reuleaux_polygon"
KIND_PERTURBED = "perturbed_ball"
KIND_TRANSLATED = "translated"
KIND_ROTATED = "rotated"

SUBLINEARITY_TOL = 1e-12

# sampling effort used while auto-shrinking a perturbation until it is convex
_BUILD_VALIDATION_PAIRS = 4096
_BUILD_VALIDATION_SEED = 1729
_NORMALIZATION_SAMPLES = 4096
_EPSILON_FLOOR = 1e-6


@dataclass(frozen=True, eq=False)
class ReuleauxPolygonSpec:
    """Regular Reuleaux polygon of width one: k arcs, each centered at the
    vertex opposite it, with k odd."""

    k: int
    phase: float
    vertices: np.ndarray          # (k, 2), on a circle about the origin
    arc_centers_angle: np.ndarray  # (k,), direction of each arc's midpoint from its center
    arc_halfwidth: float           # pi / (2k)


@dataclass(frozen=True, eq=False)
class PerturbedBallSpec:
    """h(u) = 1/2 + epsilon * f(u) with f an odd polynomial on the sphere.

    Every monomial has odd total degree, which forces f(-u) = -f(u) and
    hence constant width one regardless of epsilon.
    """

    dim: int
    epsilon: float
    exponents: np.ndarray  # (m, dim) integer exponent vectors
    coeffs: np.ndarray     # (m,)


@dataclass(frozen=True, eq=False)
class ConvexBody:
    dim: int
    kind: str
    constant_width_certified: bool
    reuleaux: ReuleauxPolygonSpec | None = None
    perturbation: PerturbedBallSpec | None = None
    base: "ConvexBody | None" = None
    shift: np.ndarray | None = None
    rotation: np.ndarray | None = None

    def support(self, u: np.ndarray) -> float:
        """h(u) for a single direction; u is renormalized internally."""
        u = np.asarray(u, dtype=float)
        if u.shape != (self.dim,):
            raise InputError(f"direction has shape {u.shape}, body dim is {self.dim}")
        return float(self.support_many(u[None, :])[0])

    def support_many(self, U: np.ndarray) -> np.ndarray:
        """h at each row of U (rows renormalized to unit length)."""
        U = np.asarray(U, dtype=float)
        if U.ndim != 2 or U.shape[1] != self.dim:
            raise InputError(f"directions have shape {U.shape}, body dim is {self.dim}")
        norms = np.linalg.norm(U, axis=1)
        if not np.all(np.isfinite(norms)) or np.any(norms < 1e-300):
            raise InputError("directions must be finite and nonzero")
        if np.any(np.abs(norms - 1.0) > 1e-15):
            U = U / norms[:, None]
        return self._support_unit(U)

    def _support_unit(self, U: np.ndarray) -> np.ndarray:
        if self.kind == KIND_BALL:
            return np.full(U.shape[0], 0.5)
        if self.kind == KIND_PERTURBED:
            spec = self.perturbation
            if spec.coeffs.size == 0 or spec.epsilon == 0.0:
                return np.full(U.shape[0], 0.5)
            # one dot per contiguous row, so a row's value does not depend on its batch
            monos = np.ascontiguousarray(_eval_monomials(spec.exponents, U))
            return 0.5 + spec.epsilon * np.einsum("ij,j->i", monos, spec.coeffs)
        if self.kind == KIND_REULEAUX:
            spec = self.reuleaux
            psi = np.arctan2(U[:, 1], U[:, 0])
            d = psi[:, None] - spec.arc_centers_angle[None, :]
            d = np.abs((d + np.pi) % (2.0 * np.pi) - np.pi)
            d = np.maximum(d - spec.arc_halfwidth, 0.0)
            return np.max(U @ spec.vertices.T + np.cos(d), axis=1)
        if self.kind == KIND_TRANSLATED:
            return self.base._support_unit(U) + U @ self.shift
        if self.kind == KIND_ROTATED:
            # h_{rot C}(u) = h_C(R^T u); rows transform as U @ R
            return self.base._support_unit(U @ self.rotation)
        raise InputError(f"unknown body kind {self.kind!r}")

    def width(self, u: np.ndarray) -> float:
        """support(u) + support(-u), the distance between the two supporting
        hyperplanes orthogonal to u."""
        u = np.asarray(u, dtype=float)
        return self.support(u) + self.support(-u)

    def width_many(self, U: np.ndarray) -> np.ndarray:
        U = np.asarray(U, dtype=float)
        return self.support_many(U) + self.support_many(-U)

    def translated(self, t: np.ndarray) -> "ConvexBody":
        t = np.asarray(t, dtype=float)
        if t.shape != (self.dim,):
            raise InputError(f"translation has shape {t.shape}, body dim is {self.dim}")
        return ConvexBody(
            dim=self.dim,
            kind=KIND_TRANSLATED,
            constant_width_certified=self.constant_width_certified,
            base=self,
            shift=t,
        )

    def rotated(self, rho: Rotation) -> "ConvexBody":
        if rho.dim != self.dim:
            raise InputError(f"rotation dim {rho.dim} does not match body dim {self.dim}")
        return ConvexBody(
            dim=self.dim,
            kind=KIND_ROTATED,
            constant_width_certified=self.constant_width_certified,
            base=self,
            rotation=rho.matrix,
        )


def make_ball(dim: int) -> ConvexBody:
    """Ball of diameter one centered at the origin: h constant 1/2."""
    check_dim(dim)
    return ConvexBody(dim=dim, kind=KIND_BALL, constant_width_certified=True)


def make_reuleaux_polygon(k: int, phase: float = 0.0) -> ConvexBody:
    """Regular Reuleaux polygon of width one with k vertices, k odd and >= 3.

    Vertices sit on the circle of radius 1/(2 cos(pi/2k)) about the origin;
    the arc opposite vertex j has radius one and spans the direction
    interval of halfwidth pi/(2k) around angle(vertex_j) + pi.  Support is
    the exact per-arc maximum with the angular offset clamped into the arc,
    which also covers the vertices (arc endpoints).
    """
    if k < 3 or k % 2 == 0:
        raise InputError(f"Reuleaux polygon needs odd k >= 3, got {k}")
    if not np.isfinite(phase):
        raise InputError(f"phase must be finite, got {phase}")
    circumradius = 1.0 / (2.0 * np.cos(np.pi / (2.0 * k)))
    ang = phase + 2.0 * np.pi * np.arange(k) / k
    vertices = circumradius * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    spec = ReuleauxPolygonSpec(
        k=k,
        phase=float(phase),
        vertices=vertices,
        arc_centers_angle=ang + np.pi,
        arc_halfwidth=np.pi / (2.0 * k),
    )
    return ConvexBody(dim=2, kind=KIND_REULEAUX, constant_width_certified=True, reuleaux=spec)


def _eval_monomials(exponents: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Evaluate each monomial at each row of U via per-variable power tables.

    Builds powers by repeated multiplication (exact for the small integer
    exponents used here) instead of generic float pow, which dominates the
    cost of dense sampling otherwise.
    """
    n_rows, dim = U.shape
    max_e = int(exponents.max())
    powers = np.empty((dim, max_e + 1, n_rows))
    powers[:, 0] = 1.0
    for e in range(1, max_e + 1):
        powers[:, e] = powers[:, e - 1] * U.T
    monos = powers[0, exponents[:, 0]]
    for d in range(1, dim):
        monos = monos * powers[d, exponents[:, d]]
    return monos.T


def odd_monomial_exponents(dim: int, degree: int) -> np.ndarray:
    """All exponent vectors over dim variables with odd total degree <= degree."""
    exps: list[tuple[int, ...]] = []

    def rec(prefix: list[int], slots: int) -> None:
        if slots == 0:
            total = sum(prefix)
            if total % 2 == 1 and total <= degree:
                exps.append(tuple(prefix))
            return
        for e in range(degree - sum(prefix) + 1):
            rec(prefix + [e], slots - 1)

    rec([], dim)
    return np.array(sorted(exps), dtype=int)


def make_perturbed_ball(dim: int, degree: int, epsilon: float, seed: int) -> ConvexBody:
    """Random odd polynomial perturbation of the ball, shrunk until convex.

    Coefficients are drawn uniformly from [-1, 1] and rescaled so the
    maximum of |f| over a fixed sample of sphere directions is one, making
    epsilon comparable across seeds.  Epsilon is then halved until the
    sampled sublinearity check passes; dropping below 1e-6 without passing
    raises GenerationError.
    """
    check_dim(dim)
    if degree % 2 == 0 or degree < 1 or degree > 5:
        raise InputError(f"degree must be odd and in [1, 5], got {degree}")
    if not 0.0 <= epsilon <= 0.2:
        raise InputError(f"epsilon must lie in [0, 0.2], got {epsilon}")
    rng = np.random.default_rng(seed)
    exponents = odd_monomial_exponents(dim, degree)
    coeffs = rng.uniform(-1.0, 1.0, len(exponents))
    probe = rng.standard_normal((_NORMALIZATION_SAMPLES, dim))
    probe /= np.linalg.norm(probe, axis=1, keepdims=True)
    fmax = float(np.max(np.abs(_eval_monomials(exponents, probe) @ coeffs)))
    if fmax > 0.0:
        coeffs = coeffs / fmax

    eps = float(epsilon)
    while True:
        body = _perturbed_body(dim, eps, exponents, coeffs)
        if eps == 0.0:
            return body
        report = validate_support_function(body, _BUILD_VALIDATION_PAIRS, _BUILD_VALIDATION_SEED)
        if report.passed:
            return body
        eps *= 0.5
        if eps < _EPSILON_FLOOR:
            raise GenerationError(
                f"epsilon shrank below {_EPSILON_FLOOR} without passing convexity validation"
            )


def _perturbed_body(dim: int, epsilon: float, exponents: np.ndarray, coeffs: np.ndarray) -> ConvexBody:
    spec = PerturbedBallSpec(
        dim=dim,
        epsilon=float(epsilon),
        exponents=np.asarray(exponents, dtype=int),
        coeffs=np.asarray(coeffs, dtype=float),
    )
    return ConvexBody(dim=dim, kind=KIND_PERTURBED, constant_width_certified=True, perturbation=spec)


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    n_pairs: int
    worst_violation: float
    n_violations: int


def validate_support_function(body: ConvexBody, n_pairs: int, seed: int) -> ValidationReport:
    """Sampled sublinearity check of the 1-homogeneous extension of h.

    Draws n_pairs random pairs (x, y) of nonzero vectors and verifies
    H(x + y) <= H(x) + H(y) + 1e-12 with H(x) = |x| h(x / |x|).  A report
    is always returned; failures never raise.
    """
    if n_pairs < 0:
        raise InputError("n_pairs must be nonnegative")
    if n_pairs == 0:
        return ValidationReport(passed=True, n_pairs=0, worst_violation=-np.inf, n_violations=0)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n_pairs, body.dim))
    Y = rng.standard_normal((n_pairs, body.dim))
    # resample the rare pairs where x, y, or x + y is numerically zero
    while True:
        S = X + Y
        bad = (
            (np.linalg.norm(X, axis=1) < 1e-12)
            | (np.linalg.norm(Y, axis=1) < 1e-12)
            | (np.linalg.norm(S, axis=1) < 1e-12)
        )
        if not np.any(bad):
            break
        X[bad] = rng.standard_normal((int(bad.sum()), body.dim))
        Y[bad] = rng.standard_normal((int(bad.sum()), body.dim))
    gaps = _homog(body, S) - _homog(body, X) - _homog(body, Y)
    worst = float(np.max(gaps))
    n_viol = int(np.sum(gaps > SUBLINEARITY_TOL))
    return ValidationReport(
        passed=n_viol == 0,
        n_pairs=n_pairs,
        worst_violation=worst,
        n_violations=n_viol,
    )


def _homog(body: ConvexBody, X: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(X, axis=1)
    return norms * body.support_many(X / norms[:, None])


# ---------------------------------------------------------------------------
# JSON round trip.  Only the three base kinds are stored; floats survive
# exactly through repr-based JSON serialization.

def body_to_dict(body: ConvexBody) -> dict:
    if body.kind == KIND_BALL:
        return {"dim": body.dim, "kind": KIND_BALL}
    if body.kind == KIND_REULEAUX:
        return {
            "dim": 2,
            "kind": KIND_REULEAUX,
            "k": body.reuleaux.k,
            "phase": body.reuleaux.phase,
        }
    if body.kind == KIND_PERTURBED:
        spec = body.perturbation
        return {
            "dim": body.dim,
            "kind": KIND_PERTURBED,
            "epsilon": spec.epsilon,
            "coeffs": [
                {"exponents": [int(e) for e in exps], "c": float(c)}
                for exps, c in zip(spec.exponents, spec.coeffs)
            ],
        }
    raise InputError(f"body kind {body.kind!r} has no file representation")


def _whole(values) -> np.ndarray:
    """values as integers; ValueError unless each is a finite whole number."""
    raw = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(raw) & (raw == np.trunc(raw))):
        raise ValueError(f"expected whole numbers, got {values!r}")
    return raw.astype(int)


def body_from_dict(data: dict) -> ConvexBody:
    try:
        dim = int(_whole(data["dim"]))
        kind = data["kind"]
        check_dim(dim)
        if kind == KIND_REULEAUX:
            k, phase = int(_whole(data["k"])), float(data.get("phase", 0.0))
        elif kind == KIND_PERTURBED:
            entries = data.get("coeffs", [])
            exponents = _whole([e["exponents"] for e in entries]).reshape(len(entries), dim)
            coeffs = np.array([e["c"] for e in entries], dtype=float)
            epsilon = float(data.get("epsilon", 0.0))
    except (KeyError, TypeError, ValueError) as exc:
        detail = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
        raise InputError(f"malformed body data: {detail}") from exc
    if kind == KIND_BALL:
        return make_ball(dim)
    if kind == KIND_REULEAUX:
        if dim != 2:
            raise InputError("reuleaux_polygon bodies are two dimensional")
        return make_reuleaux_polygon(k, phase)
    if kind == KIND_PERTURBED:
        if np.any(exponents < 0):
            raise InputError("perturbation exponents must be nonnegative")
        for exps in exponents:
            if int(exps.sum()) % 2 != 1:
                raise InputError("perturbation monomials must have odd total degree")
        if not np.all(np.isfinite(coeffs)):
            raise InputError("perturbation coefficients must be finite")
        if not np.isfinite(epsilon):
            raise InputError(f"epsilon must be finite, got {epsilon}")
        if epsilon < 0.0:
            raise InputError("epsilon must be nonnegative")
        return _perturbed_body(dim, epsilon, exponents, coeffs)
    raise InputError(f"unknown body kind {kind!r}")


def save_body(body: ConvexBody, path: str | Path) -> None:
    Path(path).write_text(json.dumps(body_to_dict(body), indent=2, sort_keys=True) + "\n")


def load_body(path: str | Path) -> ConvexBody:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read body file {path}: {exc}") from exc
    return body_from_dict(data)
