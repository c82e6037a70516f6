"""Imaginary Killing spinors of hyperbolic 3-space through their squared
norms.

The squared norm of such a spinor is a Minkowski linear form on the
hyperboloid: F(X) = -<<X, eta>> with eta a future-null vector built from
the spinor parameter z by the Hopf-type map.  Everything downstream
(growth rates, Hessian and gradient identities, the Minkowski-type
identity on embedded surfaces) is checked through F; the explicit
two-component spinor formula is kept for cross-validation only.

The two-component formula lives in polar coordinates whose axis is the
x1-direction: its squared norm equals F at

    spinor_polar_point(r, th, ph)
        = (sinh r cos th, sinh r sin th cos ph, sinh r sin th sin ph, cosh r).

Pairing it with the x3-axis polar map instead leaves an order-one
mismatch, so the frame is part of the contract here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lorentz import (
    MinkowskiVector,
    SpinorParameter,
    hopf_eta,
    lorentz_inner,
)
from .sphere_geometry import surface_laplacians
from .embed_h3 import EmbeddedSurface

__all__ = [
    "KillingNormField",
    "SpinorValue",
    "spinor_at",
    "spinor_polar_point",
    "geodesic_norm_check",
    "gradient_identity_residual",
    "minkowski_identity_residual",
    "minkowski_identity_residuals",
    "exhaustion_norm_growth",
    "log_log_slope",
    "values_on",
]

# How far off the hyperboloid a query point may sit.
ON_SHEET_TOL = 1e-8


@dataclass(frozen=True)
class SpinorValue:
    """Two complex spinor components at one point, or two complex arrays
    of them at many points."""

    c1: complex | np.ndarray
    c2: complex | np.ndarray

    @property
    def norm_sq(self):
        """|c1|^2 + |c2|^2: a float at one point, an array at many."""
        out = np.abs(self.c1) ** 2 + np.abs(self.c2) ** 2
        return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class KillingNormField:
    """Squared-norm field F(X) = -<<X, eta>> of a Killing spinor.

    For eta from a nonzero spinor parameter (future-null), F is positive
    everywhere on the hyperboloid.  General eta are accepted too: the
    identities verified here are linear in eta, and the purely timelike
    case pins the orientation conventions.
    """

    eta: MinkowskiVector

    @classmethod
    def from_spinor(cls, z: SpinorParameter) -> "KillingNormField":
        return cls(hopf_eta(z))

    def value(self, X):
        """F at a MinkowskiVector or an (..., 4) array of points."""
        return -lorentz_inner(X, self.eta.as_array())

    def value_on(self, emb: EmbeddedSurface) -> np.ndarray:
        """F on the nodes of an embedding: the one-pair call of values_on."""
        return values_on([self], [emb])[0]


def spinor_at(z: SpinorParameter, r, theta, phi) -> SpinorValue:
    """Killing spinor components at polar position (r, theta, phi),
    axis along x1:

        c1 =  (z1 e^{i phi/2} cos(th/2) + z2 e^{-i phi/2} sin(th/2)) e^{r/2}
        c2 = -(z1 e^{i phi/2} sin(th/2) - z2 e^{-i phi/2} cos(th/2)) e^{-r/2}

    Components are anti-periodic in phi with period 2 pi; the squared
    norm is 2 pi-periodic and equals the field value at
    spinor_polar_point(r, theta, phi).

    r, theta and phi are floats or arrays that broadcast together; the
    components are Python complex numbers for float input and complex
    arrays of the broadcast shape otherwise."""
    r, theta, phi = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (r, theta, phi)))
    ep = np.exp(0.5j * phi)
    c, s = np.cos(0.5 * theta), np.sin(0.5 * theta)
    c1 = (z.z1 * ep * c + z.z2 * np.conj(ep) * s) * np.exp(0.5 * r)
    c2 = -(z.z1 * ep * s - z.z2 * np.conj(ep) * c) * np.exp(-0.5 * r)
    if c1.ndim == 0:
        return SpinorValue(complex(c1), complex(c2))
    return SpinorValue(c1, c2)


def spinor_polar_point(r, theta, phi):
    """Hyperboloid point in the spinor formula's frame (polar axis x1).

    A MinkowskiVector for float input; for arrays that broadcast to shape
    S, an S + (4,) array of points in (x1, x2, x3, t) order."""
    r, theta, phi = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (r, theta, phi)))
    if np.any(r < 0):
        raise ValueError("radius must be nonnegative")
    sr = np.sinh(r)
    pts = np.stack([sr * np.cos(theta), sr * np.sin(theta) * np.cos(phi),
                    sr * np.sin(theta) * np.sin(phi), np.cosh(r)], axis=-1)
    if pts.ndim == 1:
        return MinkowskiVector.from_array(pts)
    return pts


def _rows(X) -> np.ndarray:
    return X.as_array() if isinstance(X, MinkowskiVector) else np.asarray(X, dtype=float)


def _require_on_sheet(X):
    arr = _rows(X)
    defect = np.max(np.abs(lorentz_inner(arr, arr) + 1.0))
    if defect > ON_SHEET_TOL:
        raise ValueError("point is off the hyperboloid by %.3e" % defect)
    return arr


def geodesic_norm_check(field: KillingNormField, start, direction, t_samples):
    """Restrict F to the unit-speed geodesic cosh t X0 + sinh t V and fit
    A e^t + B e^{-t}; returns (A, B, max fit residual) as floats.

    The fit residual vanishes to rounding because the restriction of a
    linear form to a geodesic solves u'' = u exactly; a visible residual
    flags a broken field or geodesic.  ValueError for a zero eta, a start
    off the sheet, a direction that is not unit spacelike and tangent at
    the start, or fewer than two distinct samples."""
    eta = field.eta.as_array()
    if not np.any(eta):
        raise ValueError("zero direction vector has a constant norm field")
    x0, v = _require_on_sheet(start), _rows(direction)
    if abs(lorentz_inner(v, v) - 1.0) > ON_SHEET_TOL or abs(lorentz_inner(x0, v)) > ON_SHEET_TOL:
        raise ValueError("direction must be unit spacelike and tangent at the start")
    t = np.asarray(t_samples, dtype=float)
    if t.ndim != 1 or t.size < 2 or np.ptp(t) < 1e-12:
        raise ValueError("need at least two distinct parameter samples")
    u = -lorentz_inner(np.cosh(t)[:, None] * x0 + np.sinh(t)[:, None] * v, eta)
    basis = np.stack([np.exp(t), np.exp(-t)], axis=1)
    coef, *_ = np.linalg.lstsq(basis, u, rcond=None)
    return float(coef[0]), float(coef[1]), float(np.max(np.abs(basis @ coef - u)))


def gradient_identity_residual(field: KillingNormField, points) -> float:
    """Check |grad F|^2 = F^2 + <<eta, eta>> at hyperboloid points, with
    grad F the tangential projection F X - eta.  For the null eta of a
    spinor parameter the right side is plainly F^2."""
    arr = _require_on_sheet(points)
    eta = field.eta.as_array()
    f = field.value(arr)
    grad = f[..., None] * arr - eta
    lhs = lorentz_inner(grad, grad)
    rhs = f ** 2 + lorentz_inner(eta, eta)
    return float(np.max(np.abs(lhs - rhs)))


def _etas(fields) -> np.ndarray:
    """The eta of each field, shaped (S, 1, 1, 4) to pair with a stack of
    node arrays."""
    return np.array([f.eta.as_array() for f in fields])[:, None, None, :]


def values_on(fields, embs) -> np.ndarray:
    """F of each field on the nodes of its embedding, shape (S, n_theta,
    n_phi): one lorentz_inner over the stack with one eta per item.  It is
    elementwise, so each item is, bit for bit, the field's value at the
    embedding's nodes alone."""
    return -lorentz_inner(np.stack([emb.X for emb in embs]), _etas(fields))


def minkowski_identity_residuals(fields, embs) -> list:
    """Max-node residual of the surface identity

        lap_S F = 2 F + H0 * dF/dnu,

    with dF/dnu = -<<nu, eta>> the derivative along the inward unit
    normal of the embedded surface, for each field and embedding of one
    grid: F and dF/dnu in one stacked lorentz_inner each, the Laplacians
    in one surface_laplacians pass and the maxima in one reduction, so
    each item is, bit for bit, minkowski_identity_residual of its pair."""
    if any(emb.surface is None for emb in embs):
        raise ValueError("embedding lacks its source surface sample")
    if not embs:
        return []
    f = values_on(fields, embs)
    nu_f = -lorentz_inner(np.stack([emb.normal for emb in embs]), _etas(fields))
    lap = surface_laplacians([emb.surface for emb in embs], f)
    h0 = np.stack([emb.H0 for emb in embs])
    return np.max(np.abs(lap - 2.0 * f - h0 * nu_f), axis=(1, 2)).tolist()


def minkowski_identity_residual(field: KillingNormField, emb: EmbeddedSurface) -> float:
    """The one-pair call of minkowski_identity_residuals."""
    return minkowski_identity_residuals([field], [emb])[0]


def log_log_slope(x, y) -> float:
    """Least-squares slope of log y against log x (positive samples)."""
    x = np.asarray(x, dtype=float)
    basis = np.stack([np.ones_like(x), np.log(x)], axis=1)
    coef, *_ = np.linalg.lstsq(basis, np.log(y), rcond=None)
    return float(coef[1])


def exhaustion_norm_growth(field: KillingNormField, embeddings) -> float:
    """Fitted order p of the peak field value against 1/eps along a
    coordinate exhaustion, max F ~ C eps^{-p}, from embedded coordinate
    spheres (each radius read from its source surface sample).  The peaks
    are one reduction over values_on of the stack."""
    if len(embeddings) < 2:
        raise ValueError("need at least two radii to fit a growth order")
    if any(emb.surface is None for emb in embeddings):
        raise ValueError("embedding lacks its source surface sample")
    peaks = np.max(values_on([field] * len(embeddings), embeddings), axis=(1, 2))
    return -log_log_slope([emb.surface.eps for emb in embeddings], peaks)
