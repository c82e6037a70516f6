"""Vector-valued quasi-local mass functionals of an embedded coordinate
sphere.

All functionals compare the physical mean curvature H of the surface with
the mean curvature H0 of its isometric image in hyperbolic 3-space and
integrate against the position X = (x, t) of that image in R^{3,1}:

    by_mass       (1/8 pi) int (H0 - H) X dS
    hat_mass      (1/8 pi) int (H0^2 - H^2)/(H + 2) X dS
    alpha mass    (1/8 pi) int (H0 - H) (x, alpha t) dS,  alpha >= 1

alpha is a constant per sphere, so the alpha mass is m_BY with its time
component stretched by alpha (alpha_mass); it tends to m_BY as alpha -> 1.

mass_vectors computes m_BY and m_hat for a stack of spheres, one einsum
over the stack per component: that sums in integrate_scalar's order, so
each row is bit-identical to its sphere alone (one einsum over all four
components is not).  by_mass and hat_mass are one-sphere calls of it.
The sweep keeps each radius's three vectors, with their causal tags, in
one sweep.PerEpsRecord.
"""

from __future__ import annotations

import math

import numpy as np

from .lorentz import MinkowskiVector
from .sphere_geometry import (
    SurfaceSample,
    integrate_scalars,
    surface_laplacians,
)
from .embed_h3 import EmbeddedSurface

__all__ = [
    "mass_vectors",
    "mass_vector",
    "by_mass",
    "hat_mass",
    "alpha_mass",
    "alpha_from_radii",
    "enclosing_radii",
    "enclosing_radii_stack",
    "laplacian_terms",
    "MEAN_CURVATURE_FLOOR",
]

# hat_mass needs H bounded away from -2.
MEAN_CURVATURE_FLOOR = -2.0 + 1e-8


def _check_aligned(surf: SurfaceSample, emb: EmbeddedSurface):
    if surf.grid is not emb.grid:
        raise ValueError("surface and embedding live on different grids")


def mass_vectors(surfaces, embeddings) -> tuple:
    """(S, 4) arrays m_by and m_hat (needs H > -2) of S spheres, their (S,)
    areas, and an (S, 2) mask that is True where a vector's density is not
    finite."""
    if len(surfaces) == 0 or len(surfaces) != len(embeddings):
        raise ValueError("need one embedding per surface, and at least one surface")
    for surf, emb in zip(surfaces, embeddings):
        _check_aligned(surf, emb)
    grid = surfaces[0].grid
    H = np.stack([s.H for s in surfaces])
    H0 = np.stack([e.H0 for e in embeddings])
    W = np.stack([s.sqrt_det for s in surfaces]) / grid.sin_theta[:, None]
    # each density is a scalar factor times X, formed one component at a
    # time: no (S, n_theta, n_phi, 4) array is held, so a sweep's peak
    # memory stays that of its embeddings
    factors = [H0 - H, (H0 ** 2 - H ** 2) / (H + 2.0)]
    out = np.empty((len(factors), len(surfaces), 4))
    bad = np.zeros((len(surfaces), len(factors)), dtype=bool)
    for k in range(4):
        xk = np.stack([e.X[..., k] for e in embeddings])
        for j, f in enumerate(factors):
            d = f * xk
            bad[:, j] |= ~np.isfinite(d).all(axis=(1, 2))
            out[j, :, k] = grid.w_phi * np.einsum("i,sij->s", grid.w_theta, d * W)
    c = 1.0 / (8.0 * np.pi)
    area = grid.w_phi * np.einsum("i,sij->s", grid.w_theta, W)
    return c * out[0], c * out[1], area, bad


def mass_vector(row, bad: bool) -> MinkowskiVector:
    """A row of mass_vectors, refused where its density is not finite."""
    if bad:
        raise ValueError("field has non-finite entries")
    return MinkowskiVector.from_array(row)


def by_mass(surf: SurfaceSample, emb: EmbeddedSurface) -> MinkowskiVector:
    """(1/8 pi) int (H0 - H) X dS."""
    m_by, _, _, bad = mass_vectors([surf], [emb])
    return mass_vector(m_by[0], bad[0, 0])


def hat_mass(surf: SurfaceSample, emb: EmbeddedSurface) -> MinkowskiVector:
    """(1/8 pi) int (H0^2 - H^2)/(H + 2) X dS; requires H > -2."""
    _check_aligned(surf, emb)
    if np.min(surf.H) <= MEAN_CURVATURE_FLOOR:
        raise ValueError("mean curvature reaches -2; functional undefined")
    _, m_hat, _, bad = mass_vectors([surf], [emb])
    return mass_vector(m_hat[0], bad[0, 1])


def alpha_mass(m_by: MinkowskiVector, alpha: float) -> MinkowskiVector:
    """The alpha mass from m_BY: (x, t) -> (x, alpha t), for alpha >= 1."""
    if not alpha >= 1.0:
        raise ValueError("alpha must be at least 1")
    return MinkowskiVector(m_by.x1, m_by.x2, m_by.x3, alpha * m_by.t)


def alpha_from_radii(r1: float, r2: float) -> float:
    """Time-stretch factor for a surface pinched between geodesic spheres
    of radii r1 <= r2:  coth r1 + sqrt(sinh^2 r2 / sinh^2 r1 - 1)/sinh r1.
    Tends to 1 when both radii grow."""
    if not (0.0 < r1 <= r2):
        raise ValueError("need 0 < r1 <= r2")
    s1, s2 = math.sinh(r1), math.sinh(r2)
    ratio = max(s2 ** 2 / s1 ** 2 - 1.0, 0.0)
    return math.cosh(r1) / s1 + math.sqrt(ratio) / s1


def enclosing_radii_stack(embeddings) -> np.ndarray:
    """(S, 2) geodesic distances from the hyperboloid origin to the nearest
    and farthest node of each of S embeddings: cosh of the distance is the
    time component of X.  One min and one max over the stack, then one
    arccosh over the array, which equals the scalar arccosh of each value."""
    t = np.stack([e.X[..., 3] for e in embeddings])
    return np.arccosh(np.stack([np.min(t, axis=(1, 2)), np.max(t, axis=(1, 2))], axis=1))


def enclosing_radii(emb: EmbeddedSurface) -> tuple:
    """The one-embedding call of enclosing_radii_stack, as two floats."""
    return tuple(enclosing_radii_stack([emb])[0].tolist())


def laplacian_terms(surfaces, fields) -> list:
    """int lap_S F / (H + 2) dS of each surface and its scalar field F,
    the Laplacians in one surface_laplacians pass and the integrals in one
    integrate_scalars pass over the stack."""
    laps = surface_laplacians(surfaces, fields)
    return integrate_scalars(surfaces, laps / (np.stack([s.H for s in surfaces]) + 2.0)).tolist()
