"""Zero search for the residual map over the rotation group.

The residual g: SO(n) -> R^(k-n) has a zero set of dimension
n(n-1)/2 - (k-n) where zeros exist, so the search is a Gauss-Newton
zero-finder rather than a minimizer: from a Haar-random start it takes the
minimum-norm step -J^+ g in the exponential chart around the current
rotation and retracts it through that chart.  The Jacobian J comes from
forward differences, one batched residual evaluation per iteration; that
suffices because support functions of the bodies here are C^1 with a
Lipschitz gradient, Reuleaux polygons included.  The step is halved until
||g|| strictly drops; when forty halvings fail the start has stalled at a
point it cannot improve, and it ends there.  Starts run one after another
in the calling process: a solve usually ends in its first start.  A failed
search reports "no zero found", never nonexistence: beyond the covering
bound a zero may genuinely be absent, and inside it a miss only signals
numerical difficulty.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bodies import ConvexBody
from .circumscribe import FitResult, residual_map, residuals
from .errors import InputError
from .polytopes import SymmetricPolytope
from .rotations import Rotation, chart_dim, exp_chart, random_rotation

_DIFF_STEP = 1e-7
_MAX_HALVINGS = 40
# a zero claimed at this tolerance still passes the verify margin floor
MAX_TOL = 1e-7


@dataclass(frozen=True)
class SearchConfig:
    restarts: int = 200
    tol: float = 1e-10
    max_iters: int = 5000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise InputError("restarts must be at least 1")
        if not 0.0 < self.tol <= MAX_TOL:
            raise InputError(f"tol must be in (0, {MAX_TOL:g}], got {self.tol}")
        if self.max_iters < 1:
            raise InputError("max_iters must be at least 1")
        if self.seed < 0:
            raise InputError("seed must be nonnegative")


@dataclass(frozen=True, eq=False)
class SearchOutcome:
    rotation: Rotation
    fit: FitResult
    starts: int
    converged: bool
    seed: int

    @property
    def gnorm(self) -> float:
        return self.fit.gnorm

    def to_dict(self) -> dict:
        d = self.fit.to_dict()
        d.update(
            dim=self.rotation.dim,
            matrix=[[float(c) for c in row] for row in self.rotation.matrix],
            gnorm=self.gnorm,
            starts=self.starts,
            converged=self.converged,
            seed=self.seed,
        )
        if self.rotation.dim == 4:
            p, q = self.rotation.quaternion_pair
            d["quaternion_pair"] = [[float(c) for c in p], [float(c) for c in q]]
        return d


def _gauss_newton_step(
    body: ConvexBody, P: SymmetricPolytope, tau: Rotation, g: np.ndarray
) -> np.ndarray:
    """The minimum-norm chart step -J^+ g at tau.

    J, shape (k - n, m), is the forward-difference Jacobian of the residual
    in the exponential chart at tau, from one batched residual evaluation.
    """
    steps = _DIFF_STEP * np.eye(chart_dim(body.dim))
    _, shifted = residuals(body, P, np.stack([exp_chart(tau, e).matrix for e in steps]))
    J = (shifted - g).T / _DIFF_STEP
    return np.linalg.lstsq(J, -g, rcond=None)[0]


def _run_single_start(
    body: ConvexBody, P: SymmetricPolytope, cfg: SearchConfig, start_index: int
) -> tuple[float, np.ndarray, int]:
    """One restart: Haar start, then Gauss-Newton steps with halving.

    Returns (gnorm, rotation matrix, iterations used).  Deterministic for a
    fixed (cfg.seed, start_index).
    """
    tau = random_rotation(body.dim, np.random.default_rng([cfg.seed, start_index]))
    g = residuals(body, P, tau.matrix[None])[1][0]
    gn = float(np.linalg.norm(g))
    iters = 0
    while gn > cfg.tol and iters < cfg.max_iters:
        step = _gauss_newton_step(body, P, tau, g)
        iters += 1
        for _ in range(_MAX_HALVINGS + 1):
            trial = exp_chart(tau, step)
            g_trial = residuals(body, P, trial.matrix[None])[1][0]
            gn_trial = float(np.linalg.norm(g_trial))
            if gn_trial < gn:
                tau, g, gn = trial, g_trial, gn_trial
                break
            step = 0.5 * step
        else:
            break  # stall: no halving of the step lowers the residual
    return gn, tau.matrix, iters


def minimize(
    body: ConvexBody,
    P: SymmetricPolytope,
    cfg: SearchConfig | None = None,
    n_workers: int = 1,
) -> SearchOutcome:
    """Multistart search for a rotation with vanishing residual.

    Starts run in index order and the search stops at the first one that
    reaches cfg.tol; otherwise the lowest gnorm seen wins (ties to the lower
    index).  Reruns with the same config reproduce the outcome bit for bit.
    n_workers is accepted for compatibility and ignored: every start runs in
    the calling process.
    """
    if cfg is None:
        cfg = SearchConfig()
    if not (body.dim == P.dim):
        raise InputError(f"dimension mismatch: body {body.dim}, polytope {P.dim}")

    best_gn = np.inf
    best_matrix: np.ndarray | None = None
    for i in range(cfg.restarts):
        gn, matrix, _ = _run_single_start(body, P, cfg, i)
        if gn < best_gn:
            best_gn, best_matrix = gn, matrix
        if gn <= cfg.tol:
            break

    tau = Rotation(dim=body.dim, matrix=best_matrix)
    fit = residual_map(body, P, tau)
    return SearchOutcome(
        rotation=tau, fit=fit, starts=i + 1, converged=fit.gnorm <= cfg.tol, seed=cfg.seed
    )


# ---------------------------------------------------------------------------
# 2D brute-force scan, the independent oracle for the planar case.

_ZERO_EPS = 1e-15
_BISECTION_STEPS = 60


@dataclass(frozen=True)
class ScanBracket:
    theta_lo: float
    theta_hi: float
    root: float
    kind: str  # "sign_change" or "degenerate_zero"
    residual_at_root: float

    def to_dict(self) -> dict:
        return {
            "theta_lo": self.theta_lo,
            "theta_hi": self.theta_hi,
            "root": self.root,
            "kind": self.kind,
            "residual_at_root": self.residual_at_root,
        }


def scan_residual_2d(
    body: ConvexBody, P: SymmetricPolytope, samples: int
) -> tuple[np.ndarray, np.ndarray]:
    """The scalar residual sampled at `samples` uniform angles spanning [0, pi].

    Oddness of the residual under a half turn makes [pi, 2 pi) redundant.
    Returns (angles, residual values) with samples + 1 points including both
    endpoints.
    """
    _check_scan_inputs(body, P, samples)
    thetas = np.linspace(0.0, np.pi, samples + 1)
    return thetas, _scalar_residuals(body, P, thetas)


def scan_2d(body: ConvexBody, P: SymmetricPolytope, samples: int) -> list[ScanBracket]:
    """All sign-change brackets of the scalar residual on [0, pi].

    Each sign change is refined by 60 bisection steps, all brackets in step
    with one batched residual evaluation per step.  A crossing that lands on
    an interior grid angle (numerically zero there, nonzero of opposite signs
    at both neighbours) is one sign change collapsed onto that angle.  Other
    intervals where the residual is numerically zero at either end (the
    ball, for instance) are reported as degenerate zeros instead of being
    bisected.
    """
    thetas, values = scan_residual_2d(body, P, samples)
    lo, hi = thetas[:-1].copy(), thetas[1:].copy()
    flo, fhi = values[:-1], values[1:]
    zero = np.abs(values) <= _ZERO_EPS
    crossing = np.pad(zero[1:-1] & ~zero[:-2] & ~zero[2:] & (values[:-2] * values[2:] < 0.0), 1)
    lo_zero, hi_zero = zero[:-1], zero[1:]
    # the crossing's entry takes the place of its left interval; its right one goes
    on_grid = crossing[1:]
    degenerate = (lo_zero | hi_zero) & ~on_grid & ~crossing[:-1]
    root = np.where(lo_zero & ~hi_zero, lo, np.where(hi_zero & ~lo_zero, hi, 0.5 * (lo + hi)))
    lo[on_grid] = hi[on_grid]
    sign = ~(lo_zero | hi_zero) & (flo * fhi < 0.0)
    if sign.any():
        blo, bhi, vlo = lo[sign], hi[sign], flo[sign]
        for _ in range(_BISECTION_STEPS):
            mid = 0.5 * (blo + bhi)
            vmid = _scalar_residuals(body, P, mid)
            # an exact zero collapses its bracket onto mid, where it stays
            hit = vmid == 0.0
            left = (vlo < 0.0) != (vmid < 0.0)
            blo = np.where(left & ~hit, blo, mid)
            bhi = np.where(left | hit, mid, bhi)
            vlo = np.where(left, vlo, vmid)
        lo[sign], hi[sign], root[sign] = blo, bhi, 0.5 * (blo + bhi)
    found = np.flatnonzero(degenerate | sign | on_grid)
    if found.size == 0:
        return []
    at_root = _scalar_residuals(body, P, root[found])
    return [
        ScanBracket(
            theta_lo=float(lo[i]),
            theta_hi=float(hi[i]),
            root=float(root[i]),
            kind="degenerate_zero" if degenerate[i] else "sign_change",
            residual_at_root=float(r),
        )
        for i, r in zip(found, at_root)
    ]


def _scalar_residuals(body: ConvexBody, P: SymmetricPolytope, thetas: np.ndarray) -> np.ndarray:
    """The one-component residual at each planar rotation angle."""
    c, s = np.cos(thetas), np.sin(thetas)
    R = np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=1)
    return residuals(body, P, R)[1][:, 0]


def _check_scan_inputs(body: ConvexBody, P: SymmetricPolytope, samples: int) -> None:
    if body.dim != 2 or P.dim != 2:
        raise InputError("the scan oracle is two dimensional")
    if P.n_strips != 3:
        raise InputError("the scan oracle needs exactly three strips (scalar residual)")
    if samples < 1:
        raise InputError("samples must be at least 1")
