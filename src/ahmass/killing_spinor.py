"""Imaginary Killing spinors of hyperbolic 3-space through their squared
norms.

The squared norm of such a spinor is a Minkowski linear form on the
hyperboloid: F(X) = -<<X, eta>> with eta a future-null vector built from
the spinor parameter z by the Hopf-type map.  Verify checks F through its
growth along an exhaustion and the Minkowski-type identity on embedded
surfaces; the tests' oracles for F (the explicit two-component spinor,
the geodesic restriction and the gradient identity) live in
tests/oracles.py.
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
    "minkowski_identity_residual",
    "minkowski_identity_residuals",
    "exhaustion_norm_growth",
    "log_log_slope",
    "values_on",
]


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
