"""Zero search for the residual map over the rotation group.

The strategy is multistart local minimization of ||residual|| in the
exponential chart around a Haar-random rotation.  Nelder-Mead is used
because Reuleaux support functions have kinks at arc junctions; the chart
is re-centered at the incumbent every hundred iterations and the simplex is
rebuilt at the scale of the current residual, which keeps the final
contraction fast.  Starts run one after another in the calling process: a
solve usually ends in its first start, so worker processes only add their
spawn cost.  The Nelder-Mead step is written here, on numpy alone, rather
than taken from scipy, whose import would cost more than a whole solve.  A
failed search reports "no zero found", never nonexistence: beyond the
covering bound a zero may genuinely be absent, and inside it a miss only
signals numerical difficulty.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bodies import ConvexBody
from .circumscribe import FitResult, residual_map, residuals
from .errors import InputError
from .polytopes import SymmetricPolytope
from .rotations import Rotation, chart_dim, exp_chart, random_rotation

_RECENTER_EVERY = 100
_INITIAL_SIMPLEX_SCALE = 0.5
_SIMPLEX_GAIN = 2.0
_MIN_SIMPLEX = 1e-9
_MAX_SIMPLEX = 0.25


@dataclass(frozen=True)
class SearchConfig:
    restarts: int = 200
    tol: float = 1e-10
    max_iters: int = 5000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise InputError("restarts must be at least 1")
        if not self.tol > 0.0:
            raise InputError("tol must be positive")
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


def _gnorm_at(body: ConvexBody, P: SymmetricPolytope, tau: Rotation) -> float:
    _, g = residuals(body, P, tau.matrix[None])
    return float(np.linalg.norm(g[0]))


def _nelder_mead(f, simplex: np.ndarray, maxiter: int) -> tuple[np.ndarray, float, int]:
    """Minimize f from the initial simplex, shape (m + 1, m).

    The fixed-coefficient method: reflection 1, expansion 2, contraction 1/2,
    shrink 1/2.  It stops after maxiter iterations, counted from 1, or when
    the simplex has collapsed to one point with one value.  Every step uses
    the arithmetic and vertex ordering of scipy.optimize's Nelder-Mead with
    xatol = fatol = 0, so the iterates are bit-identical to it.  Returns the
    best vertex, its value and the iteration count.
    """
    sim = np.array(simplex, dtype=float)
    m = sim.shape[1]
    fsim = np.array([f(v) for v in sim], dtype=float)
    for _ in range(2):
        order = np.argsort(fsim)
        sim, fsim = sim[order], fsim[order]
    nit = 1
    while nit < maxiter:
        if np.max(np.abs(sim[1:] - sim[0])) <= 0.0 and np.max(np.abs(fsim[0] - fsim[1:])) <= 0.0:
            break
        xbar = np.add.reduce(sim[:-1], 0) / m
        xr = 2 * xbar - sim[-1]
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:
                xc = 1.5 * xbar - 0.5 * sim[-1]
                fxc = f(xc)
                accept = fxc <= fxr
            else:
                xc = 0.5 * xbar + 0.5 * sim[-1]
                fxc = f(xc)
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:
                for j in range(1, m + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = f(sim[j])
        nit += 1
        order = np.argsort(fsim)
        sim, fsim = sim[order], fsim[order]
    return sim[0], float(np.min(fsim)), nit


def _run_single_start(
    body: ConvexBody, P: SymmetricPolytope, cfg: SearchConfig, start_index: int
) -> tuple[float, np.ndarray, int]:
    """One restart: Haar start, then re-centered Nelder-Mead rounds.

    Returns (gnorm, rotation matrix, iterations used).  Deterministic for a
    fixed (cfg.seed, start_index).
    """
    rng = np.random.default_rng([cfg.seed, start_index])
    tau = random_rotation(body.dim, rng)
    gn = _gnorm_at(body, P, tau)
    if gn <= cfg.tol:
        return gn, tau.matrix, 0

    m = chart_dim(body.dim)
    iters = 0
    delta = _INITIAL_SIMPLEX_SCALE
    while iters < cfg.max_iters:
        center = tau

        def objective(a: np.ndarray) -> float:
            return _gnorm_at(body, P, exp_chart(center, a))

        simplex = np.zeros((m + 1, m))
        simplex[1:] = np.eye(m) * delta
        a, gn, nit = _nelder_mead(objective, simplex, min(_RECENTER_EVERY, cfg.max_iters - iters))
        iters += nit
        tau = exp_chart(center, a)
        if gn <= cfg.tol:
            break
        delta = min(max(_SIMPLEX_GAIN * gn, _MIN_SIMPLEX), _MAX_SIMPLEX)
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
    starts = cfg.restarts
    for i in range(cfg.restarts):
        gn, matrix, _ = _run_single_start(body, P, cfg, i)
        if gn < best_gn:
            best_gn, best_matrix = gn, matrix
        if gn <= cfg.tol:
            starts = i + 1
            break

    tau = Rotation(dim=body.dim, matrix=best_matrix)
    fit = residual_map(body, P, tau)
    return SearchOutcome(
        rotation=tau, fit=fit, starts=starts, converged=fit.gnorm <= cfg.tol, seed=cfg.seed
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
    with one batched residual evaluation per step.  Intervals where the
    residual is numerically zero at either end (the ball, for instance) are
    reported as degenerate zeros instead of being bisected.
    """
    thetas, values = scan_residual_2d(body, P, samples)
    lo, hi = thetas[:-1].copy(), thetas[1:].copy()
    flo, fhi = values[:-1], values[1:]
    lo_zero = np.abs(flo) <= _ZERO_EPS
    hi_zero = np.abs(fhi) <= _ZERO_EPS
    degenerate = lo_zero | hi_zero
    root = np.where(lo_zero & ~hi_zero, lo, np.where(hi_zero & ~lo_zero, hi, 0.5 * (lo + hi)))
    sign = ~degenerate & (flo * fhi < 0.0)
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
    found = np.flatnonzero(degenerate | sign)
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
