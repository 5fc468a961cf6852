"""Rotations of R^n (n = 2, 3, 4): construction, Haar sampling, and local charts.

The matrix is the ground truth representation.  Dimensions 3 and 4 carry
quaternion views (a single unit quaternion, or a pair (p, q) acting by
v -> p * v * conj(q)); dimension 2 is an angle.  Local coordinates around a
rotation are given by exp_chart, which maps a coefficient vector in
R^{n(n-1)/2} through the matrix exponential of an antisymmetric matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

ORTHO_TOL = 1e-12
# drift above this triggers a polar re-orthonormalization
DRIFT_TOL = 1e-13
# drift above this means the input is not a rotation at all
REJECT_TOL = 1e-6


def chart_dim(dim: int) -> int:
    return dim * (dim - 1) // 2


def _skew_pairs(dim: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(dim) for j in range(i + 1, dim)]


def skew_matrix(a: np.ndarray, dim: int) -> np.ndarray:
    """Antisymmetric matrix from chart coordinates, basis ordered (i, j) lex with i < j."""
    a = np.asarray(a, dtype=float)
    pairs = _skew_pairs(dim)
    if a.shape != (len(pairs),):
        raise InputError(f"chart vector must have length {len(pairs)}, got {a.shape}")
    S = np.zeros((dim, dim))
    for m, (i, j) in enumerate(pairs):
        S[i, j] = -a[m]
        S[j, i] = a[m]
    return S


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return np.array(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ]
    )


def quat_conj(q: np.ndarray) -> np.ndarray:
    return np.array([q[0], -q[1], -q[2], -q[3]])


def _quat_exp_pure(w: np.ndarray) -> np.ndarray:
    """Exponential of the pure quaternion (0, w): (cos|w|, sin|w| * w/|w|)."""
    t = float(np.linalg.norm(w))
    if t < 1e-300:
        return np.array([1.0, 0.0, 0.0, 0.0])
    s = np.sin(t) / t
    return np.array([np.cos(t), s * w[0], s * w[1], s * w[2]])


def _left_mat(p: np.ndarray) -> np.ndarray:
    a, b, c, d = p
    return np.array(
        [
            [a, -b, -c, -d],
            [b, a, -d, c],
            [c, d, a, -b],
            [d, -c, b, a],
        ]
    )


def _right_conj_mat(q: np.ndarray) -> np.ndarray:
    # matrix of v -> v * conj(q)
    w, x, y, z = q
    return np.array(
        [
            [w, x, y, z],
            [-x, w, -z, y],
            [-y, z, w, -x],
            [-z, -y, x, w],
        ]
    )


def _quat3_to_matrix(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def _matrix_to_quat3(M: np.ndarray) -> np.ndarray:
    """Shepperd extraction, branching on the largest diagonal combination."""
    t = np.trace(M)
    cand = np.array([t, M[0, 0], M[1, 1], M[2, 2]])
    case = int(np.argmax(cand))
    if case == 0:
        r = np.sqrt(1.0 + t)
        s = 0.5 / r
        q = np.array(
            [0.5 * r, (M[2, 1] - M[1, 2]) * s, (M[0, 2] - M[2, 0]) * s, (M[1, 0] - M[0, 1]) * s]
        )
    else:
        i = case - 1
        j = (i + 1) % 3
        k = (i + 2) % 3
        r = np.sqrt(1.0 + M[i, i] - M[j, j] - M[k, k])
        s = 0.5 / r
        q = np.empty(4)
        q[0] = (M[k, j] - M[j, k]) * s
        q[1 + i] = 0.5 * r
        q[1 + j] = (M[j, i] + M[i, j]) * s
        q[1 + k] = (M[k, i] + M[i, k]) * s
    return canonical_sign(q / np.linalg.norm(q))


def canonical_sign(v: np.ndarray) -> np.ndarray:
    """v or -v, whichever has its first nonzero coordinate positive."""
    for c in v:
        if abs(c) > 1e-12:
            return -v if c < 0 else v
    return v


def _pair_to_matrix4(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return _left_mat(p) @ _right_conj_mat(q)


def _matrix_to_pair4(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Recover the quaternion pair from an SO(4) matrix.

    The sixteen matrices L(e_a) Rc(e_b) are Frobenius-orthogonal with norm
    squared 4, so projecting M onto them yields the rank-one matrix p q^T,
    whose leading singular pair is the quaternion pair up to a joint sign.
    """
    N = np.empty((4, 4))
    I4 = np.eye(4)
    for a in range(4):
        La = _left_mat(I4[a])
        for b in range(4):
            N[a, b] = float(np.tensordot(La @ _right_conj_mat(I4[b]), M)) / 4.0
    U, _, Vt = np.linalg.svd(N)
    p = U[:, 0]
    q = Vt[0, :]
    pc = canonical_sign(p)
    if not np.array_equal(pc, p):
        q = -q
    return pc, q


def _polar_project(M: np.ndarray) -> np.ndarray:
    U, _, Vt = np.linalg.svd(M)
    R = U @ Vt
    if np.linalg.det(R) < 0:
        # flip the weakest direction to land in SO(n)
        U[:, -1] = -U[:, -1]
        R = U @ Vt
    return R


def orthogonality_drift(M: np.ndarray) -> float:
    n = M.shape[0]
    return float(np.max(np.abs(M.T @ M - np.eye(n))))


@dataclass(frozen=True, eq=False)
class Rotation:
    """A proper rotation of R^dim, stored as its matrix."""

    dim: int
    matrix: np.ndarray

    @classmethod
    def identity(cls, dim: int) -> "Rotation":
        check_dim(dim)
        return cls(dim=dim, matrix=np.eye(dim))

    @classmethod
    def from_matrix(cls, M: np.ndarray, dim: int | None = None) -> "Rotation":
        M = np.asarray(M, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise InputError(f"rotation matrix must be square, got shape {M.shape}")
        n = M.shape[0]
        if dim is not None and dim != n:
            raise InputError(f"matrix is {n}x{n}, expected dim {dim}")
        check_dim(n)
        drift = orthogonality_drift(M)
        if drift > REJECT_TOL:
            raise InputError(f"matrix is not orthogonal (drift {drift:.3e})")
        if drift > DRIFT_TOL:
            M = _polar_project(M)
        if np.linalg.det(M) < 0:
            raise InputError("matrix has determinant -1, not a proper rotation")
        return cls(dim=n, matrix=M)

    @classmethod
    def from_angle(cls, theta: float) -> "Rotation":
        c, s = np.cos(theta), np.sin(theta)
        return cls(dim=2, matrix=np.array([[c, -s], [s, c]]))

    @classmethod
    def from_quaternion(cls, q: np.ndarray) -> "Rotation":
        q = np.asarray(q, dtype=float)
        if q.shape != (4,):
            raise InputError("quaternion must have four components")
        n = np.linalg.norm(q)
        if n < 1e-12:
            raise InputError("quaternion is numerically zero")
        return cls(dim=3, matrix=_quat3_to_matrix(q / n))

    @classmethod
    def from_quaternion_pair(cls, p: np.ndarray, q: np.ndarray) -> "Rotation":
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        if p.shape != (4,) or q.shape != (4,):
            raise InputError("quaternion pair must be two four-vectors")
        np_, nq = np.linalg.norm(p), np.linalg.norm(q)
        if np_ < 1e-12 or nq < 1e-12:
            raise InputError("quaternion is numerically zero")
        return cls(dim=4, matrix=_pair_to_matrix4(p / np_, q / nq))

    @property
    def angle(self) -> float:
        if self.dim != 2:
            raise InputError("angle view requires dim 2")
        return float(np.arctan2(self.matrix[1, 0], self.matrix[0, 0]))

    @property
    def quaternion(self) -> np.ndarray:
        if self.dim != 3:
            raise InputError("single-quaternion view requires dim 3")
        return _matrix_to_quat3(self.matrix)

    @property
    def quaternion_pair(self) -> tuple[np.ndarray, np.ndarray]:
        if self.dim != 4:
            raise InputError("quaternion-pair view requires dim 4")
        return _matrix_to_pair4(self.matrix)

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(v, dtype=float)

    def apply_many(self, V: np.ndarray) -> np.ndarray:
        """Rotate each row of V."""
        return np.asarray(V, dtype=float) @ self.matrix.T

    def inverse(self) -> "Rotation":
        return Rotation(dim=self.dim, matrix=self.matrix.T.copy())

    def compose(self, other: "Rotation") -> "Rotation":
        """The rotation applying `other` first, then self."""
        if self.dim != other.dim:
            raise InputError("cannot compose rotations of different dimensions")
        return _renormalized(self.dim, self.matrix @ other.matrix)

    def __matmul__(self, other: "Rotation") -> "Rotation":
        return self.compose(other)


def check_dim(dim: int) -> None:
    if dim not in (2, 3, 4):
        raise InputError(f"supported dimensions are 2, 3, 4; got {dim}")


def _renormalized(dim: int, M: np.ndarray) -> Rotation:
    if orthogonality_drift(M) > DRIFT_TOL:
        M = _polar_project(M)
    return Rotation(dim=dim, matrix=M)


def negate(rot: Rotation) -> Rotation:
    """Entrywise negation. Stays in SO(n) only for even n; odd n is rejected."""
    if rot.dim % 2 != 0:
        raise InputError("negation leaves the rotation group in odd dimensions")
    return Rotation(dim=rot.dim, matrix=-rot.matrix)


def random_rotation(dim: int, rng: np.random.Generator) -> Rotation:
    """Haar-uniform rotation.

    dim 2 draws a uniform angle; dim 3 a uniform unit quaternion (four
    normalized Gaussians); dim 4 an independent pair of uniform unit
    quaternions, whose push-forward through the double cover is Haar.
    """
    check_dim(dim)
    if dim == 2:
        return Rotation.from_angle(rng.uniform(0.0, 2.0 * np.pi))
    if dim == 3:
        q = rng.standard_normal(4)
        return Rotation.from_quaternion(q)
    p = rng.standard_normal(4)
    q = rng.standard_normal(4)
    return Rotation.from_quaternion_pair(p, q)


def exp_chart(rot: Rotation, a: np.ndarray) -> Rotation:
    """rot composed with the exponential of the antisymmetric matrix skew(a).

    Closed forms per dimension: angle addition for n = 2, the quaternion
    exponential (Rodrigues) for n = 3, and for n = 4 the split of so(4) into
    commuting left and right pure-quaternion parts, each exponentiated on
    the unit sphere of quaternions.
    """
    a = np.asarray(a, dtype=float)
    m = chart_dim(rot.dim)
    if a.shape != (m,):
        raise InputError(f"chart vector must have length {m}, got {a.shape}")
    if rot.dim == 2:
        c, s = np.cos(a[0]), np.sin(a[0])
        E = np.array([[c, -s], [s, c]])
        return _renormalized(2, rot.matrix @ E)
    if rot.dim == 3:
        # skew basis (0,1),(0,2),(1,2) corresponds to rotation axis (a2, -a1, a0)
        axis = np.array([a[2], -a[1], a[0]])
        E = _quat3_to_matrix(_quat_exp_pure(0.5 * axis))
    else:
        S = skew_matrix(a, 4)
        left = 0.5 * np.array([S[1, 0] + S[3, 2], S[2, 0] - S[3, 1], S[3, 0] + S[2, 1]])
        right = 0.5 * np.array([S[1, 0] - S[3, 2], S[2, 0] + S[3, 1], S[3, 0] - S[2, 1]])
        p = _quat_exp_pure(left)
        q = quat_conj(_quat_exp_pure(right))
        E = _pair_to_matrix4(p, q)
    return _renormalized(rot.dim, rot.matrix @ E)
