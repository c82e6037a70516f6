"""Test oracles for the Killing norm field F(X) = -<<X, eta>>: formulas no
command runs, against which the tests check F and the mass functionals.

- The explicit two-component Killing spinor, spinor_at.  It lives in polar
  coordinates whose axis is the x1-direction: its squared norm equals F at

      spinor_polar_point(r, th, ph)
          = (sinh r cos th, sinh r sin th cos ph, sinh r sin th sin ph, cosh r).

  Pairing it with the x3-axis polar map hyperboloid_point instead leaves an
  order-one mismatch, so the frame is part of the contract here.
- The geodesic restriction of F (geodesic_norm_check) and the gradient
  identity |grad F|^2 = F^2 + <<eta, eta>> (gradient_identity_residual).
- The main-hypothesis functional, mainhyp_functional.

hyperboloid_point follows the unit direction

    omega(theta, phi) = (sin th cos ph, sin th sin ph, cos th),

with theta in [0, pi] measured from the +x3 axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ahmass.killing_spinor import KillingNormField
from ahmass.lorentz import MinkowskiVector, SpinorParameter, lorentz_inner
from ahmass.quasilocal import MEAN_CURVATURE_FLOOR, laplacian_terms
from ahmass.sphere_geometry import integrate_scalar

# How far off the hyperboloid a query point may sit.
ON_SHEET_TOL = 1e-8


def sphere_direction(theta, phi):
    """Unit direction omega(theta, phi); broadcasts over array input and
    returns an array with trailing dimension 3."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    st = np.sin(theta)
    return np.stack(
        np.broadcast_arrays(st * np.cos(phi), st * np.sin(phi), np.cos(theta)), axis=-1
    )


def hyperboloid_point(r: float, theta: float, phi: float) -> MinkowskiVector:
    """Point (sinh r * omega(theta, phi), cosh r) of the upper hyperboloid;
    requires r >= 0."""
    if r < 0:
        raise ValueError("hyperboloid radius must be nonnegative")
    w = sphere_direction(theta, phi)
    sr = np.sinh(r)
    return MinkowskiVector(
        float(sr * w[..., 0]), float(sr * w[..., 1]), float(sr * w[..., 2]), float(np.cosh(r))
    )


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


def mainhyp_functional(surf, emb, F) -> float:
    """int (H0^2 - H^2)/(H + 2) F dS + 4 int lap_S F / (H + 2) dS for a
    scalar field F on the surface; requires H > -2."""
    if surf.grid is not emb.grid:
        raise ValueError("surface and embedding live on different grids")
    if np.min(surf.H) <= MEAN_CURVATURE_FLOOR:
        raise ValueError("mean curvature reaches -2; functional undefined")
    f = surf.grid.as_field(F)
    first = integrate_scalar(surf, (emb.H0 ** 2 - surf.H ** 2) / (surf.H + 2.0) * f)
    return float(first + 4.0 * laplacian_terms([surf], [f])[0])
