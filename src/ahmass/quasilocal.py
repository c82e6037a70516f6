"""Vector-valued quasi-local mass functionals of an embedded coordinate
sphere.

All functionals compare the physical mean curvature H of the surface with
the mean curvature H0 of its isometric image in hyperbolic 3-space and
integrate against the position X of that image in R^{3,1}:

    by_mass       (1/8 pi) int (H0 - H) X dS
    hat_mass      (1/8 pi) int (H0^2 - H^2)/(H + 2) X dS
    alpha mass    int (H - H0) (x, alpha t) dS   (no 1/8 pi, sign as is)

The alpha-mass normalization differs from the others on purpose; only its
sign against future-causal directions is ever consumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lorentz import CausalClass, MinkowskiVector, causal_classify
from .sphere_geometry import (
    SurfaceSample,
    integrate_scalar,
    integrate_vector,
    surface_laplacian,
)
from .embed_h3 import EmbeddedSurface

__all__ = [
    "MassResult",
    "by_mass",
    "hat_mass",
    "shitam_alpha_mass",
    "alpha_from_radii",
    "enclosing_radii",
    "mainhyp_functional",
    "laplacian_term",
    "MEAN_CURVATURE_FLOOR",
]

# hat_mass and mainhyp_functional need H bounded away from -2.
MEAN_CURVATURE_FLOOR = -2.0 + 1e-8


@dataclass(frozen=True)
class MassResult:
    """Mass vectors of one coordinate sphere, with their causal tags."""

    eps: float
    m_by: MinkowskiVector
    m_hat: MinkowskiVector
    m_alpha: MinkowskiVector | None = None

    @property
    def tag_by(self) -> CausalClass:
        return causal_classify(self.m_by)

    @property
    def tag_hat(self) -> CausalClass:
        return causal_classify(self.m_hat)

    @property
    def tag_alpha(self) -> CausalClass | None:
        if self.m_alpha is None:
            return None
        return causal_classify(self.m_alpha)


def _check_aligned(surf: SurfaceSample, emb: EmbeddedSurface):
    if surf.grid is not emb.grid:
        raise ValueError("surface and embedding live on different grids")


def by_mass(surf: SurfaceSample, emb: EmbeddedSurface) -> MinkowskiVector:
    """(1/8 pi) int (H0 - H) X dS."""
    _check_aligned(surf, emb)
    dens = (emb.H0 - surf.H)[..., None] * emb.X
    return (1.0 / (8.0 * np.pi)) * integrate_vector(surf, dens)


def hat_mass(surf: SurfaceSample, emb: EmbeddedSurface) -> MinkowskiVector:
    """(1/8 pi) int (H0^2 - H^2)/(H + 2) X dS; requires H > -2."""
    _check_aligned(surf, emb)
    if np.min(surf.H) <= MEAN_CURVATURE_FLOOR:
        raise ValueError("mean curvature reaches -2; functional undefined")
    dens = ((emb.H0 ** 2 - surf.H ** 2) / (surf.H + 2.0))[..., None] * emb.X
    return (1.0 / (8.0 * np.pi)) * integrate_vector(surf, dens)


def shitam_alpha_mass(surf: SurfaceSample, emb: EmbeddedSurface, alpha: float) -> MinkowskiVector:
    """int (H - H0) (x, alpha t) dS with X = (x, t); printed normalization,
    so no 1/8 pi factor.  Only the sign against future-causal directions
    is meaningful downstream."""
    _check_aligned(surf, emb)
    if alpha < 1.0:
        raise ValueError("alpha must be at least 1")
    scaled = emb.X.copy()
    scaled[..., 3] *= alpha
    dens = (surf.H - emb.H0)[..., None] * scaled
    return integrate_vector(surf, dens)


def alpha_from_radii(r1: float, r2: float) -> float:
    """Time-stretch factor for a surface pinched between geodesic spheres
    of radii r1 <= r2:  coth r1 + sqrt(sinh^2 r2 / sinh^2 r1 - 1)/sinh r1.
    Tends to 1 when both radii grow."""
    if not (0.0 < r1 <= r2):
        raise ValueError("need 0 < r1 <= r2")
    s1, s2 = math.sinh(r1), math.sinh(r2)
    ratio = max(s2 ** 2 / s1 ** 2 - 1.0, 0.0)
    return math.cosh(r1) / s1 + math.sqrt(ratio) / s1


def enclosing_radii(emb: EmbeddedSurface) -> tuple:
    """Geodesic distances from the hyperboloid origin to the nearest and
    farthest node: cosh of the distance is the time component of X."""
    t = emb.X[..., 3]
    return float(np.arccosh(np.min(t))), float(np.arccosh(np.max(t)))


def laplacian_term(surf: SurfaceSample, F) -> float:
    """int lap_S F / (H + 2) dS for a scalar field F on the surface."""
    lap = surface_laplacian(surf, F)
    return integrate_scalar(surf, lap / (surf.H + 2.0))


def mainhyp_functional(surf: SurfaceSample, emb: EmbeddedSurface, F) -> float:
    """int (H0^2 - H^2)/(H + 2) F dS + 4 int lap_S F / (H + 2) dS for a
    scalar field F on the surface; requires H > -2."""
    _check_aligned(surf, emb)
    if np.min(surf.H) <= MEAN_CURVATURE_FLOOR:
        raise ValueError("mean curvature reaches -2; functional undefined")
    f = surf.grid.as_field(F)
    first = integrate_scalar(surf, (emb.H0 ** 2 - surf.H ** 2) / (surf.H + 2.0) * f)
    return float(first + 4.0 * laplacian_term(surf, f))
