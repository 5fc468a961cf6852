"""Machine speed, measured by a fixed reference kernel run between ops.

The machine this benchmark runs on is shared: its speed for solver-like code
moves by up to 1.7x in phases that last from seconds to tens of minutes,
which no affordable amount of work per run averages out.  A reference kernel is a frozen miniature of
a workload's hot path, written here with numpy alone; it calls no coverfit
code, so a change to coverfit does not change it, and it loads nothing that
coverfit does not load, so the benchmark process's peak memory is
coverfit's.  `search` is a fixed-length Nelder-Mead run over a 4D rotation
chart whose objective evaluates an odd polynomial support function on seven
rotated normals.  `scan` steps a Reuleaux-type support function through 64
planar rotations, one scalar residual at a time.  `interpreter` starts a
fresh interpreter that imports numpy, which is how every CLI command
begins.  The kernel runs in the untimed gaps between ops, for a small share
of each op's time, and the interpreter kernel also runs around the set-up
interpreters.  Times are then scaled to a nominal machine on which one
kernel run takes the kernel's nominal time:

    scaled = measured * (nominal_ms / median(kernel times in the same phase)) ** exponent

The exponent is how far the ops move, on a log scale, when the kernel
moves between the machine's fast and slow phases.  It is 1 for the search
and interpreter kernels.  The planar ops moved about half as far as the scan
kernel (0.43 between two ten-run sets), so `scan` has 0.5.

The raw times and the kernel's median are kept next to the scaled ones.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

REF_SHARE = 0.03
REF_MIN_MS = 4.0

_rng = np.random.default_rng(20100714)
_NORMALS = _rng.standard_normal((7, 4))
_NORMALS /= np.linalg.norm(_NORMALS, axis=1, keepdims=True)
_EXPONENTS = _rng.integers(0, 4, (20, 4))
_COEFFS = _rng.uniform(-1.0, 1.0, 20)
_UPPER = np.triu_indices(4, 1)


def _objective(a: np.ndarray) -> float:
    S = np.zeros((4, 4))
    S[_UPPER] = a
    Q, _ = np.linalg.qr(np.eye(4) + S - S.T)
    W = _NORMALS @ Q.T
    monomials = np.ones((W.shape[0], len(_COEFFS)))
    for d in range(4):
        monomials *= W[:, d : d + 1] ** _EXPONENTS[:, d]
    h = 0.5 + 0.05 * monomials @ _COEFFS
    x = np.linalg.solve(W[:4], h[:4] - 0.5)
    return float(np.linalg.norm(h[4:] - 0.5 - W[4:] @ x))


def _nelder_mead(f, x0: np.ndarray, iterations: int) -> float:
    """Nelder-Mead (reflect 1, expand 2, contract and shrink 1/2) for a fixed
    number of iterations, from the simplex x0 plus 5% of each coordinate."""
    simplex = np.vstack([x0, x0 + 0.05 * np.diag(x0)])
    fs = np.array([f(v) for v in simplex])
    for _ in range(iterations):
        order = np.argsort(fs)
        simplex, fs = simplex[order], fs[order]
        centroid = simplex[:-1].mean(axis=0)
        xr = 2.0 * centroid - simplex[-1]
        fr = f(xr)
        if fr < fs[0]:
            xe = 3.0 * centroid - 2.0 * simplex[-1]
            fe = f(xe)
            simplex[-1], fs[-1] = (xe, fe) if fe < fr else (xr, fr)
        elif fr < fs[-2]:
            simplex[-1], fs[-1] = xr, fr
        else:
            xc = 0.5 * (centroid + (xr if fr < fs[-1] else simplex[-1]))
            fc = f(xc)
            if fc < min(fr, fs[-1]):
                simplex[-1], fs[-1] = xc, fc
            else:
                simplex[1:] = 0.5 * (simplex[0] + simplex[1:])
                fs[1:] = [f(v) for v in simplex[1:]]
    return float(fs.min())


def search_kernel() -> float:
    return _nelder_mead(_objective, np.full(6, 0.1), 12)


_THETAS = np.linspace(0.0, np.pi, 64)
_STRIPS = np.array([[np.cos(a), np.sin(a)] for a in (0.0, np.pi / 3, 2 * np.pi / 3)])
_K = 5
_VERTEX_ANGLES = 0.3 + 2.0 * np.pi * np.arange(_K) / _K
_VERTICES = np.stack([np.cos(_VERTEX_ANGLES), np.sin(_VERTEX_ANGLES)], axis=1) / (2.0 * np.cos(np.pi / (2 * _K)))


def scan_kernel() -> float:
    acc = 0.0
    for theta in _THETAS:
        c, s = np.cos(theta), np.sin(theta)
        V = _STRIPS @ np.array([[c, -s], [s, c]]).T
        psi = np.arctan2(V[:, 1], V[:, 0])
        d = np.abs((psi[:, None] - _VERTEX_ANGLES[None, :] + 2.0 * np.pi) % (2.0 * np.pi) - np.pi)
        h = np.max(V @ _VERTICES.T + np.cos(np.maximum(d - np.pi / (2 * _K), 0.0)), axis=1)
        if abs(float(np.linalg.det(V[:2]))) > 1e-6:
            x = np.linalg.solve(V[:2], h[:2] - 0.5)
            acc += float(h[2] - 0.5 - V[2] @ x)
    return acc


def interpreter_kernel() -> float:
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)
    return 0.0


# kernel, its nominal time in ms (about its median on a 2-CPU Xeon VM), and its exponent
KERNELS = {
    "search": (search_kernel, 4.4, 1.0),
    "scan": (scan_kernel, 4.0, 0.5),
    "interpreter": (interpreter_kernel, 220.0, 1.0),
}


class SpeedProbe:
    def __init__(self, kernel_name: str) -> None:
        self.kernel_name = kernel_name
        self.samples_ms: list[float] = []

    def sample(self, budget_ms: float) -> None:
        """Run the kernel until budget_ms is spent, at least once."""
        kernel = KERNELS[self.kernel_name][0]
        spent = 0.0
        while True:
            t0 = time.perf_counter()
            kernel()
            dt = (time.perf_counter() - t0) * 1e3
            self.samples_ms.append(dt)
            spent += dt
            if spent >= budget_ms:
                return

    def after_op(self, op_ms: float) -> None:
        self.sample(max(REF_MIN_MS, REF_SHARE * op_ms))

    def median_ms(self) -> float:
        return statistics.median(self.samples_ms)

    def scale(self) -> float:
        """Factor from measured times to times on the nominal machine."""
        _, nominal_ms, exponent = KERNELS[self.kernel_name]
        return (nominal_ms / self.median_ms()) ** exponent
