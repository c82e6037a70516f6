"""Minkowski space R^{3,1}, the hyperboloid model of H^3, and Lorentz maps.

Vectors are stored in the component order (x1, x2, x3, t), so the pairing is

    <<a, b>> = a1 b1 + a2 b2 + a3 b3 - a_t b_t,

signature (+, +, +, -).  The hyperboloid model is the upper sheet
{<<X, X>> = -1, t >= 1}; the future light cone is {<<v, v>> = 0, t > 0}.
Points of the sheet in polar coordinates, for the tests, are in
tests/oracles.py.

Everything in this module is immutable and safe to share across threads.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MINKOWSKI_METRIC",
    "CausalClass",
    "MinkowskiVector",
    "SpinorParameter",
    "LorentzMap",
    "lorentz_inner",
    "causal_classify",
    "cone_pairing_report",
    "hopf_eta",
    "boost",
    "rotation",
]

# Gram matrix of the pairing in (x1, x2, x3, t) order.
MINKOWSKI_METRIC = np.diag([1.0, 1.0, 1.0, -1.0])
MINKOWSKI_METRIC.setflags(write=False)

# ||Lambda^T G Lambda - G|| allowed for a valid Lorentz map.
LORENTZ_MAP_TOL = 1e-12


class CausalClass(enum.Enum):
    """Causal type of a Minkowski vector, with a tolerance band around zero
    and around the light cone."""

    ZERO = "zero"
    FUTURE_TIMELIKE = "future-timelike"
    PAST_TIMELIKE = "past-timelike"
    FUTURE_NULL = "future-null"
    PAST_NULL = "past-null"
    SPACELIKE = "spacelike"

    @property
    def is_future_causal(self) -> bool:
        """True for the classes lying in the closed future cone."""
        return self in (
            CausalClass.ZERO,
            CausalClass.FUTURE_TIMELIKE,
            CausalClass.FUTURE_NULL,
        )


@dataclass(frozen=True)
class MinkowskiVector:
    """A point or vector of R^{3,1} with components (x1, x2, x3, t)."""

    x1: float
    x2: float
    x3: float
    t: float

    def __post_init__(self):
        for name in ("x1", "x2", "x3", "t"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError("MinkowskiVector component %s is not finite" % name)

    @classmethod
    def from_array(cls, arr) -> "MinkowskiVector":
        arr = np.asarray(arr, dtype=float)
        if arr.shape != (4,):
            raise ValueError("expected 4 components, got shape %r" % (arr.shape,))
        return cls(float(arr[0]), float(arr[1]), float(arr[2]), float(arr[3]))

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.x2, self.x3, self.t])


@dataclass(frozen=True)
class SpinorParameter:
    """A pair (z1, z2) in C^2 parametrizing a point of the closed future
    cone through the Hopf-type map hopf_eta."""

    z1: complex
    z2: complex

    def __post_init__(self):
        if not (np.isfinite(self.z1) and np.isfinite(self.z2)):
            raise ValueError("spinor parameter components must be finite")


def _as_array4(v) -> np.ndarray:
    if isinstance(v, MinkowskiVector):
        return v.as_array()
    arr = np.asarray(v, dtype=float)
    if arr.shape[-1] != 4:
        raise ValueError("expected trailing dimension 4, got shape %r" % (arr.shape,))
    return arr


def lorentz_inner(a, b):
    """Pairing <<a, b>> = a.x b.x - a_t b_t.

    Accepts MinkowskiVector instances or arrays with trailing dimension 4
    (broadcasting applies); returns a float or an array accordingly.
    The spatial terms are added left to right from 0.0, as numpy's sum
    over a length-3 axis adds them, so the result equals that sum to the
    bit, signed zeros included, at about a quarter of its cost.
    """
    aa = _as_array4(a)
    bb = _as_array4(b)
    out = (0.0 + aa[..., 0] * bb[..., 0] + aa[..., 1] * bb[..., 1] + aa[..., 2] * bb[..., 2]
           - aa[..., 3] * bb[..., 3])
    if out.ndim == 0:
        return float(out)
    return out


def _spatial_norms(stack) -> np.ndarray:
    """||x|| of each (x1, x2, x3, t) row of an (S, 4) stack, as
    np.linalg.norm takes it for one row: a row-by-row product is the same
    BLAS dot that norm calls, so a row's bits do not depend on the stack.
    Where the squares would leave the float range, math.hypot's scaled form."""
    x = stack[:, :3]
    with np.errstate(over="ignore"):
        n = np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0])
    for i in np.flatnonzero(~((1e-150 < n) & (n < 1e150))):
        n[i] = math.hypot(*x[i])
    return n


_CLASSES = (CausalClass.SPACELIKE, CausalClass.FUTURE_TIMELIKE, CausalClass.PAST_TIMELIKE,
            CausalClass.FUTURE_NULL, CausalClass.PAST_NULL, CausalClass.ZERO)


def causal_classify(v, tol: float | None = None):
    """Classify v by its cone distance d = ||x|| - |t|, in v's units:
    zero when max|v| <= tol, else null when |d| <= tol, timelike when
    d < -tol (future or past by the sign of t), spacelike when d > tol.
    The default tol is 1e-9 * (1 + max|v|).  ||x|| is cone_pairing_report's,
    so future-timelike means cone_max < -tol and future-null |cone_max| <= tol.

    v is one vector, which returns its CausalClass, or an (S, 4) stack,
    which returns a tuple of S classes, each row's tag as it alone would
    get it (the default tol is per row)."""
    arr = _as_array4(v)
    if arr.ndim not in (1, 2):
        raise ValueError("causal_classify takes a vector or an (S, 4) stack")
    stack = arr.reshape(-1, 4)
    top = np.max(np.abs(stack), axis=1)
    tol = 1e-9 * (1.0 + top) if tol is None else np.full(top.shape, float(tol))
    t = stack[:, 3]
    d = _spatial_norms(stack) - np.abs(t)
    past = ~(t > 0.0)
    # zero, else spacelike when d > tol, timelike when d < -tol, else null
    kind = np.where(top <= tol, 5, np.where(d > tol, 0, np.where(d < -tol, 1 + past, 3 + past)))
    tags = tuple(_CLASSES[k] for k in kind.tolist())
    return tags if arr.ndim == 2 else tags[0]


def cone_pairing_report(v) -> float:
    """Supremum of <<v, eta>> over the t = 1 slice of the future null
    cone, ||x|| - t in closed form (attained at eta = (x/||x||, 1)), with
    the ||x|| causal_classify reads.  v is future causal exactly when the
    supremum is <= 0; causal_classify's tol applies to it in v's units."""
    arr = _as_array4(v)
    if arr.shape != (4,):
        raise ValueError("expected a 4-vector")
    return float(_spatial_norms(arr[None])[0]) - float(arr[3])


def hopf_eta(z: SpinorParameter) -> MinkowskiVector:
    """Map (z1, z2) to the closed future cone,

        eta(z) = (-(|z1|^2 - |z2|^2), -2 Re(z1 conj z2), 2 Im(z1 conj z2),
                  |z1|^2 + |z2|^2).

    The image is null for every z and zero only for z = 0; the map is onto
    the closed future cone.
    """
    a = abs(z.z1) ** 2
    b = abs(z.z2) ** 2
    cross = z.z1 * np.conj(z.z2)
    return MinkowskiVector(
        -(a - b), -2.0 * float(np.real(cross)), 2.0 * float(np.imag(cross)), a + b
    )


@dataclass(frozen=True)
class LorentzMap:
    """A 4x4 matrix Lambda with Lambda^T G Lambda = G (validated on
    construction).  Use boost() and rotation() to build generators; general
    matrices are accepted but never synthesized here."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=float)
        if mat.shape != (4, 4):
            raise ValueError("Lorentz map must be a 4x4 matrix")
        defect = mat.T @ MINKOWSKI_METRIC @ mat - MINKOWSKI_METRIC
        if np.max(np.abs(defect)) > LORENTZ_MAP_TOL:
            raise ValueError(
                "matrix does not preserve the pairing (defect %.3e)"
                % np.max(np.abs(defect))
            )
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def is_restricted(self) -> bool:
        """Proper (det = +1) and orthochronous (t-t entry >= 1)."""
        return (
            abs(np.linalg.det(self.matrix) - 1.0) <= 1e-9
            and self.matrix[3, 3] >= 1.0 - 1e-12
        )

    def compose(self, other: "LorentzMap") -> "LorentzMap":
        return LorentzMap(self.matrix @ other.matrix)


def boost(axis: int, rapidity: float) -> LorentzMap:
    """Boost of given rapidity mixing spatial axis (0, 1 or 2) with time."""
    if axis not in (0, 1, 2):
        raise ValueError("boost axis must be 0, 1 or 2")
    m = np.eye(4)
    ch, sh = np.cosh(rapidity), np.sinh(rapidity)
    m[axis, axis] = ch
    m[3, 3] = ch
    m[axis, 3] = sh
    m[3, axis] = sh
    return LorentzMap(m)


def rotation(axis: int, angle: float) -> LorentzMap:
    """Spatial rotation by angle about spatial axis (0, 1 or 2)."""
    if axis not in (0, 1, 2):
        raise ValueError("rotation axis must be 0, 1 or 2")
    i, j = [k for k in range(3) if k != axis]
    m = np.eye(4)
    c, s = np.cos(angle), np.sin(angle)
    m[i, i] = c
    m[j, j] = c
    m[i, j] = -s
    m[j, i] = s
    return LorentzMap(m)
