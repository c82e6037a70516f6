"""Quadrature grids on the round sphere and the induced geometry of
coordinate spheres.

Grid layout: theta nodes are Gauss-Legendre in x = cos theta (so integrals
against sin th dth are plain weighted sums), listed with theta ascending;
phi nodes are uniform on [0, 2pi) with the trapezoid weight 2pi/n_phi.
Scalar fields are arrays of shape (n_theta, n_phi).

Derivatives in theta are spectral: barycentric differentiation on the
Gauss-Legendre nodes in x.  A coordinate sphere of a collar family is
conformally round, so its Gauss curvature follows from the conformal
factor and the round Laplacian of its logarithm, to near machine
precision, which the fifth-order curvature expansions need.  The FFT in
phi serves only surface_laplacian, which acts on fields that vary in phi.
"""

from __future__ import annotations

import functools

import numpy as np

from .lorentz import MinkowskiVector

__all__ = [
    "QuadratureGrid",
    "SurfaceSample",
    "coordinate_sphere",
    "integrate_scalar",
    "integrate_vector",
    "surface_laplacian",
    "embeddability_check",
    "barycentric_weights",
    "barycentric_interpolate",
    "EMBEDDABILITY_MARGIN",
]

# Margin above K = -1 demanded by embeddability_check.
EMBEDDABILITY_MARGIN = 1e-8


def barycentric_weights(x: np.ndarray, gl_weights: np.ndarray) -> np.ndarray:
    """Barycentric interpolation weights for Gauss-Legendre nodes:
    alternating sign times sqrt((1 - x^2) w).  Overall scale is
    irrelevant and left unnormalized."""
    w = np.sqrt((1.0 - x ** 2) * gl_weights)
    return w * ((-1.0) ** np.arange(x.size))


def barycentric_interpolate(x_nodes, weights, values, x_query):
    """Evaluate the polynomial interpolant of (x_nodes, values) at x_query
    using the barycentric formula; exact node hits are returned directly.
    values of shape (n,) or (n, k) give (m,) or (m, k) for m query points,
    one weight matrix serving all k columns; a scalar query on (n,) values
    gives a float."""
    xq = np.atleast_1d(np.asarray(x_query, dtype=float))
    values = np.asarray(values, dtype=float)
    diff = xq[:, None] - x_nodes[None, :]
    out = np.empty(xq.shape + values.shape[1:])
    exact = np.abs(diff) < 1e-15
    hit = exact.any(axis=1)
    if hit.any():
        out[hit] = values[exact[hit].argmax(axis=1)]
    rest = ~hit
    if rest.any():
        c = weights[None, :] / diff[rest]
        den = c.sum(axis=1)
        out[rest] = (c @ values) / den.reshape(den.shape + (1,) * (values.ndim - 1))
    if np.asarray(x_query).ndim == 0:
        return float(out[0]) if values.ndim == 1 else out[0]
    return out


def _barycentric_diff_matrix(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    # Differentiation matrix from barycentric weights w.
    dx = x[:, None] - x[None, :]
    np.fill_diagonal(dx, 1.0)
    d = (w[None, :] / w[:, None]) / dx
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -d.sum(axis=1))
    return d


# A run reads the tables of its own n_theta, the 64-node one (the AdS tail
# rule) and the 128-node one (scalar_curvature): four entries hold them all.
@functools.lru_cache(maxsize=4)
def _theta_tables(n_theta: int) -> tuple:
    """Read-only theta tables of the n_theta-point grid: the nodes x in
    theta-ascending order, their Gauss-Legendre weights, theta, sin theta,
    the barycentric weights, the differentiation matrix in x and the
    Chebyshev coefficient map cheb_x.  Shared by every grid of that size."""
    x, w = np.polynomial.legendre.leggauss(n_theta)
    # leggauss returns x ascending; flip so theta = arccos x ascends.
    x = x[::-1].copy()
    w = w[::-1].copy()
    theta = np.arccos(x)
    bary_w = barycentric_weights(x, w)
    # Chebyshev coefficients in x of the nodal interpolant: the inverse of
    # T_j(x_i) = cos(j theta_i), whose condition number stays near 3 on
    # Gauss-Legendre nodes.
    cheb_x = np.linalg.inv(np.cos(np.outer(theta, np.arange(n_theta))))
    out = (x, w, theta, np.sqrt(1.0 - x ** 2), bary_w,
           _barycentric_diff_matrix(x, bary_w), cheb_x)
    for a in out:
        a.setflags(write=False)
    return out


class QuadratureGrid:
    """Tensor-product quadrature grid on the round sphere.

    Integrating the constant 1 against the round measure returns 4 pi to
    rounding; polynomials in cos theta up to degree 2 n_theta - 1 are
    integrated exactly.  Instances are immutable; the theta tables are
    shared by all grids with the same n_theta.
    """

    def __init__(self, n_theta: int = 64, n_phi: int = 4):
        if n_theta < 4:
            raise ValueError("n_theta must be at least 4")
        if n_phi < 1:
            raise ValueError("n_phi must be at least 1")
        self.n_theta = int(n_theta)
        self.n_phi = int(n_phi)
        (self.x, self.w_theta, self.theta, self.sin_theta,
         self.bary_w, self.deriv_x, self.cheb_x) = _theta_tables(self.n_theta)
        self.phi = 2.0 * np.pi * np.arange(self.n_phi) / self.n_phi
        self.w_phi = 2.0 * np.pi / self.n_phi
        self.theta_mesh, self.phi_mesh = np.meshgrid(self.theta, self.phi, indexing="ij")
        for a in (self.phi, self.theta_mesh, self.phi_mesh):
            a.setflags(write=False)

    @property
    def shape(self):
        return (self.n_theta, self.n_phi)

    def as_field(self, values) -> np.ndarray:
        """Broadcast a constant, a theta profile of shape (n_theta,), or a
        full (n_theta, n_phi) array onto the grid."""
        arr = np.asarray(values, dtype=float)
        if arr.ndim == 0:
            return np.full(self.shape, float(arr))
        if arr.shape == (self.n_theta,):
            return np.repeat(arr[:, None], self.n_phi, axis=1)
        if arr.shape == self.shape:
            return arr
        raise ValueError("field shape %r does not fit grid %r" % (arr.shape, self.shape))

    def integrate_round(self, field) -> float:
        """Integral against the round measure sin th dth dphi."""
        f = self.as_field(field)
        return float(self.w_phi * np.einsum("i,ij->", self.w_theta, f))

    def interp_x(self, values, x_query):
        """Evaluate the interpolant of a theta profile (given at the grid
        nodes, shape (n_theta,) or (n_theta, k)) at arbitrary x = cos theta."""
        return barycentric_interpolate(self.x, self.bary_w, values, x_query)

    def interp_uniform_theta(self, values, n: int) -> np.ndarray:
        """Evaluate the interpolant of a theta profile (shape (n_theta,) or
        (n_theta, k)) at the n + 1 points theta = k pi / n, k = 0 .. n,
        i.e. x = cos(k pi / n) from x = 1 down, with n >= n_theta.  With
        the Chebyshev coefficients a = cheb_x @ values the values are
        sum_j a_j cos(j k pi / n): the real part of one zero-padded FFT of
        length 2n, in O(n log n)."""
        if n < self.n_theta:
            raise ValueError("need n >= n_theta")
        a = self.cheb_x @ np.asarray(values, dtype=float)
        return np.fft.rfft(a, n=2 * n, axis=0).real

    def round_laplacian(self, profile) -> np.ndarray:
        """Laplacian of the unit round sphere applied to an axisymmetric
        theta profile: (1 - x^2) f_xx - 2 x f_x in x = cos theta.  Both
        derivatives are taken by deriv_x; this non-divergence form keeps
        the rounding near machine precision at the poles."""
        fx = self.deriv_x @ np.asarray(profile, dtype=float)
        return (1.0 - self.x ** 2) * (self.deriv_x @ fx) - 2.0 * self.x * fx


class SurfaceSample:
    """Induced geometry of one axisymmetric coordinate sphere, sampled on
    a grid.

    E, H and K are scalars or theta profiles (a full grid array must not
    vary in phi): the first fundamental form is E dth^2 + G dphi^2 with
    G = E sin^2 th, H the mean curvature (sum-of-principal-curvatures
    convention, normal pointing away from infinity) and K the Gauss
    curvature.  All are stored as read-only grid fields.
    """

    def __init__(self, eps, E, H, K, grid: QuadratureGrid):
        self.eps = float(eps)
        self.grid = grid
        for a in (E, H, K):
            # scalars and theta profiles are constant in phi by shape
            if np.ndim(a) == 2 and np.any(np.ptp(a, axis=1) > 0.0):
                raise ValueError("surface fields must not vary in phi")
        self.E = grid.as_field(E)
        self.H = grid.as_field(H)
        self.K = grid.as_field(K)
        if np.any(self.E <= 0.0):
            raise ValueError("degenerate induced metric sample")
        self.G = self.E * (grid.sin_theta ** 2)[:, None]
        self.sqrt_det = np.sqrt(self.E * self.G)
        for a in (self.E, self.G, self.H, self.K, self.sqrt_det):
            a.setflags(write=False)

    @property
    def area(self) -> float:
        return integrate_scalar(self, 1.0)


def coordinate_sphere(family, eps: float, grid: QuadratureGrid) -> SurfaceSample:
    """Level set {rho = eps} of a collar family, with its induced metric,
    area element, mean curvature and Gauss curvature.

    The family must expose rho_max, conformal_factor(rho, theta) and
    conformal_factor_drho(rho, theta); the collar metric is
    sinh^-2 rho (drho^2 + u(rho, theta) h0).  The normal underlying H
    points away from infinity (toward increasing rho), which makes
    geodesic spheres of the reference metric have H = 2 cosh eps > 0.
    The sphere carries the conformally round metric (u / sinh^2 eps) h0,
    so K = sinh^2 eps (1 - lap0(log u) / 2) / u, exactly sinh^2 eps
    where u is constant.
    """
    if not (0.0 < eps <= family.rho_max):
        raise ValueError("eps=%g outside the collar range (0, %g]" % (eps, family.rho_max))
    u = np.asarray(family.conformal_factor(eps, grid.theta), dtype=float)
    du = np.asarray(family.conformal_factor_drho(eps, grid.theta), dtype=float)
    if np.any(u <= 0.0):
        raise ValueError("degenerate induced metric: conformal factor <= 0")
    sh, ch = np.sinh(eps), np.cosh(eps)
    K = sh ** 2 * (1.0 - 0.5 * grid.round_laplacian(np.log(u))) / u
    return SurfaceSample(eps, u / sh ** 2, 2.0 * ch - sh * du / u, K, grid)


def integrate_scalar(surface: SurfaceSample, field) -> float:
    """Integral of a scalar field over the surface against its area
    element."""
    g = surface.grid
    f = g.as_field(field)
    if not np.all(np.isfinite(f)):
        raise ValueError("field has non-finite entries")
    weight = surface.sqrt_det / g.sin_theta[:, None]
    return float(g.w_phi * np.einsum("i,ij->", g.w_theta, f * weight))


def integrate_vector(surface: SurfaceSample, field) -> MinkowskiVector:
    """Componentwise surface integral of a vector-valued field given as an
    array of shape (n_theta, n_phi, 4)."""
    arr = np.asarray(field, dtype=float)
    if arr.shape != surface.grid.shape + (4,):
        raise ValueError("expected field of shape %r" % (surface.grid.shape + (4,),))
    comps = [integrate_scalar(surface, arr[..., k]) for k in range(4)]
    return MinkowskiVector(*comps)


def surface_laplacian(surface: SurfaceSample, field) -> np.ndarray:
    """Laplace-Beltrami operator of the surface metric E dth^2 + G dphi^2
    applied to a scalar field, which may vary in phi.

    Works modewise in phi.  Each Fourier mode is factored as
    sin^p th * (smooth function of cos th), p the mode parity, so every
    theta-derivative acts on a pole-regular function; this keeps spectral
    accuracy through the poles.  The even and the odd modes go through
    the theta-derivative together, as real and imaginary columns of one
    real matrix product: a real-by-complex product stalls in a threaded
    BLAS on small hosts.
    """
    g = surface.grid
    f = g.as_field(field)

    x = g.x[:, None]
    s = g.sin_theta[:, None]
    s2 = 1.0 - x ** 2
    E = surface.E[:, :1]
    A = surface.G[:, :1] / s2  # pole-regular angular coefficient
    j = np.sqrt(E * A)         # area element = sin th * j

    def d(modes):
        re = np.ascontiguousarray(modes).view(float)
        return (g.deriv_x @ re).view(complex)

    fh = np.fft.rfft(f, axis=1)
    out = np.empty_like(fh)
    afn = -s2 * (j / E) * d(fh[:, 0::2])
    out[:, 0::2] = -d(afn) / j
    gm = fh[:, 1::2] / s
    b = (j / E) * (x * gm - s2 * d(gm))
    out[:, 1::2] = (x * b - s2 * d(b)) / (s * j)
    m = np.arange(1, fh.shape[1])
    out[:, 1:] -= (m * m) * fh[:, 1:] / (A * s2)
    return np.fft.irfft(out, n=g.n_phi, axis=1)


def embeddability_check(surface: SurfaceSample, margin: float = EMBEDDABILITY_MARGIN) -> bool:
    """True when the Gauss curvature clears the hyperboloid threshold
    K > -1 by the given margin at every node."""
    return bool(np.min(surface.K) > -1.0 + margin)
