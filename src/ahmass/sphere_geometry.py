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

A command's spheres are one stack: coordinate_spheres builds every
radius as an (S, n_theta) row from the family's collar_profiles, each
sample's fields (its collar profile u among them) read-only broadcasts
of its rows over phi, and surface_laplacians takes a stack of surfaces
in one pass.  Elementwise steps run once per stack; matrix products are
stacked matmuls whose items are a lone sphere's products, and per-radius
scalars are numpy scalars as a lone sphere forms them, so every item is,
bit for bit, its one-item call (coordinate_sphere, surface_laplacian).
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "QuadratureGrid",
    "SurfaceSample",
    "coordinate_sphere",
    "coordinate_spheres",
    "integrate_scalar",
    "integrate_scalars",
    "surface_laplacian",
    "surface_laplacians",
    "barycentric_weights",
    "barycentric_rows",
    "EMBEDDABILITY_MARGIN",
]

# Margin above K = -1 that a sphere's Gauss curvature must clear before a
# sweep embeds it.  Verify embeds every sphere and reports the margin as
# its embedding entry's gauss_margin_ok.
EMBEDDABILITY_MARGIN = 1e-8


def barycentric_weights(x: np.ndarray) -> np.ndarray:
    """Barycentric weights 1 / prod_{k != j} 2 (x_j - x_k) of the nodes x
    as rounded, the only weight formula (Berrut & Trefethen, SIAM Review
    2004).  The factor 2 keeps the products in range: on 1024 nodes in
    [-1, 1] the weights lie between 1.6e-7 and 1.4e-3."""
    d = 2.0 * (x[:, None] - x[None, :])
    np.fill_diagonal(d, 1.0)
    return 1.0 / np.prod(d, axis=1)


def barycentric_rows(x_nodes, weights, x_query) -> tuple:
    """The part of the barycentric formula that depends only on the nodes
    and the query points x_query, of any shape (..., m): the rows
    c = weights / (x_q - x_nodes), shape (..., m, n), with their sums den,
    a query on a node (within 1e-15) getting that node's unit row.  Then
    (c @ values) / den is the interpolant, one set of rows serving any
    nodal data, and a stack of queries (S, m) with values (S, n, k) is one
    product per item."""
    diff = x_query[..., None] - x_nodes
    exact = np.abs(diff) < 1e-15
    hit = exact.any(axis=-1)
    with np.errstate(divide="ignore"):
        c = weights / diff
    c[hit] = exact[hit]
    return c, c.sum(axis=-1)


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
    the barycentric weights and the differentiation matrix in x.  Shared
    by every grid of that size."""
    x, w = np.polynomial.legendre.leggauss(n_theta)
    # leggauss returns x ascending; flip so theta = arccos x ascends.
    x = x[::-1].copy()
    w = w[::-1].copy()
    bary_w = barycentric_weights(x)
    out = (x, w, np.arccos(x), np.sqrt(1.0 - x ** 2), bary_w, _barycentric_diff_matrix(x, bary_w))
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
         self.bary_w, self.deriv_x) = _theta_tables(self.n_theta)
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
        full (n_theta, n_phi) array onto the grid.  The result is always a
        new array, so a caller may freeze it without touching the input."""
        arr = np.asarray(values, dtype=float)
        if arr.ndim == 0:
            return np.full(self.shape, float(arr))
        if arr.shape == (self.n_theta,):
            return np.repeat(arr[:, None], self.n_phi, axis=1)
        if arr.shape == self.shape:
            return arr.copy()
        raise ValueError("field shape %r does not fit grid %r" % (arr.shape, self.shape))

    def interp_x(self, values, x_query):
        """Evaluate the polynomial interpolant of a theta profile (given at
        the grid nodes, shape (n_theta,) or (n_theta, k)) at arbitrary
        x = cos theta by the barycentric formula; exact node hits return
        the node value.  (m,) query points give (m,) or (m, k), one row
        matrix serving all k columns; a scalar query on (n_theta,) values
        gives a float."""
        xq = np.atleast_1d(np.asarray(x_query, dtype=float))
        values = np.asarray(values, dtype=float)
        c, den = barycentric_rows(self.x, self.bary_w, xq)
        out = (c @ values) / den.reshape(den.shape + (1,) * (values.ndim - 1))
        if np.asarray(x_query).ndim == 0:
            return float(out[0]) if out.ndim == 1 else out[0]
        return out

    def round_laplacian(self, profile) -> np.ndarray:
        """Laplacian of the unit round sphere applied to an axisymmetric
        theta profile: (1 - x^2) f_xx - 2 x f_x in x = cos theta.  Both
        derivatives are taken by deriv_x; this non-divergence form keeps
        the rounding near machine precision at the poles.  A stack of
        profiles, shape (S, n_theta), takes one matrix-vector product per
        row, so each row is the profile's own Laplacian to the bit."""
        def dx(f):
            return (self.deriv_x @ f[..., None])[..., 0]

        fx = dx(np.asarray(profile, dtype=float))
        return (1.0 - self.x ** 2) * dx(fx) - 2.0 * self.x * fx


def _fields(grid, *rows) -> np.ndarray:
    """The (S, n_theta) arrays rows, each broadcast over phi: a read-only
    view of shape (len(rows), S, n_theta, n_phi), one broadcast per stack."""
    stack = np.stack([np.atleast_2d(r) for r in rows])
    return np.broadcast_to(stack[..., None], stack.shape + (grid.n_phi,))


class SurfaceSample:
    """Induced geometry of one axisymmetric coordinate sphere, sampled on
    a grid.

    E, H and K are scalars or theta profiles (a full grid array must not
    vary in phi): the first fundamental form is E dth^2 + G dphi^2 with
    G = E sin^2 th, H the mean curvature (sum-of-principal-curvatures
    convention, normal pointing away from infinity) and K the Gauss
    curvature.  All are stored as read-only grid fields, each a broadcast
    of its theta profile over phi.  A sample from coordinate_spheres also
    keeps the collar profile u of its radius, the same kind of field; a
    sample built by hand has u = None.
    """

    def __init__(self, eps, E, H, K, grid: QuadratureGrid):
        for a in (E, H, K):
            # scalars and theta profiles are constant in phi by shape
            if np.ndim(a) == 2 and np.any(np.ptp(a, axis=1) > 0.0):
                raise ValueError("surface fields must not vary in phi")
        E, H, K = (grid.as_field(a)[:, 0] for a in (E, H, K))
        if np.any(E <= 0.0):
            raise ValueError("degenerate induced metric sample")
        G = E * grid.sin_theta ** 2
        self._fill(eps, grid, _fields(grid, E, G, H, K, np.sqrt(E * G))[:, 0])

    def _fill(self, eps, grid, fields, u=None) -> SurfaceSample:
        # fields: E, G, H, K and sqrt_det as grid-shaped read-only views
        self.eps, self.grid, self.u = float(eps), grid, u
        self.E, self.G, self.H, self.K, self.sqrt_det = fields
        return self

    @property
    def area(self) -> float:
        return integrate_scalar(self, 1.0)


def coordinate_spheres(family, eps_list, grid: QuadratureGrid) -> list:
    """Level sets {rho = eps} of a collar family for every eps in eps_list,
    with their induced metric, area element, mean curvature and Gauss
    curvature: per radius its SurfaceSample or the ValueError it fails
    with.  Each sample keeps its collar profile u as the field sample.u.

    The family must expose rho_max and collar_profiles(rhos, theta), whose
    u and u_rho of the stack this reads; the collar metric is
    sinh^-2 rho (drho^2 + u(rho, theta) h0).  The normal underlying H
    points away from infinity (toward increasing rho), which makes
    geodesic spheres of the reference metric have H = 2 cosh eps > 0.
    The sphere carries the conformally round metric (u / sinh^2 eps) h0,
    so K = sinh^2 eps (1 - lap0(log u) / 2) / u, exactly sinh^2 eps
    where u is constant.

    The spheres are one (S, n_theta) stack: one call per elementwise step,
    one matrix-vector product per row for lap0.  sinh eps, cosh eps and
    sinh^2 eps are formed per radius as numpy scalars, since an array
    power can differ from the scalar one in the last bit; so every sample
    is, bit for bit, coordinate_sphere at its radius.
    """
    out = [None if 0.0 < eps <= family.rho_max else ValueError(
        "eps=%g outside the collar range (0, %g]" % (eps, family.rho_max)) for eps in eps_list]
    rows = [i for i, err in enumerate(out) if err is None]
    u, du, _, errs = family.collar_profiles([eps_list[i] for i in rows], grid.theta)
    for i, err, ui in zip(rows, errs, u):
        if err is None and np.any(ui <= 0.0):
            err = ValueError("degenerate induced metric: conformal factor <= 0")
        out[i] = err
    keep = [k for k, i in enumerate(rows) if out[i] is None]
    rows = [rows[k] for k in keep]
    u, du = u[keep], du[keep]
    sh, ch = ([f(eps_list[i]) for i in rows] for f in (np.sinh, np.cosh))
    sh2 = np.array([v ** 2 for v in sh])[:, None]
    sh, ch = np.array(sh)[:, None], np.array(ch)[:, None]
    K = sh2 * (1.0 - 0.5 * grid.round_laplacian(np.log(u))) / u
    E = u / sh2
    H = 2.0 * ch - sh * du / u
    G = E * grid.sin_theta ** 2
    fields = _fields(grid, E, G, H, K, np.sqrt(E * G), u)
    for k, i in enumerate(rows):
        # E = u / sinh^2 eps > 0: the constructor's E <= 0 check cannot fail
        out[i] = object.__new__(SurfaceSample)._fill(eps_list[i], grid, fields[:5, k], fields[5, k])
    return out


def coordinate_sphere(family, eps: float, grid: QuadratureGrid) -> SurfaceSample:
    """The one-radius call of coordinate_spheres, raising its error."""
    got = coordinate_spheres(family, [eps], grid)[0]
    if isinstance(got, ValueError):
        raise got
    return got


def integrate_scalars(surfaces, fields) -> np.ndarray:
    """Integral of each surface's scalar field (a constant, a theta
    profile or a grid array) against its area element, for a stack of
    surfaces on one grid: shape (S,).  One einsum over the stack sums
    each item in the order of a lone surface's einsum, so each item is, bit
    for bit, the integral over that surface alone.  ValueError when any
    field has non-finite entries."""
    g = surfaces[0].grid
    if any(surf.grid is not g for surf in surfaces):
        raise ValueError("surfaces live on different grids")
    f = np.stack([g.as_field(v) for v in fields])
    if not np.all(np.isfinite(f)):
        raise ValueError("field has non-finite entries")
    weight = np.stack([s.sqrt_det for s in surfaces]) / g.sin_theta[:, None]
    return g.w_phi * np.einsum("i,sij->s", g.w_theta, f * weight)


def integrate_scalar(surface: SurfaceSample, field) -> float:
    """The one-surface call of integrate_scalars."""
    return float(integrate_scalars([surface], [field])[0])


def surface_laplacians(surfaces, fields) -> np.ndarray:
    """Laplace-Beltrami operator of each surface's metric
    E dth^2 + G dphi^2 applied to its scalar field, which may vary in phi,
    for a stack of surfaces on one grid: shape (S, n_theta, n_phi).

    Works modewise in phi.  Each Fourier mode is factored as
    sin^p th * (smooth function of cos th), p the mode parity, so every
    theta-derivative acts on a pole-regular function; this keeps spectral
    accuracy through the poles.  The even and the odd modes go through
    the theta-derivative together, as real and imaginary columns of one
    real matrix product: a real-by-complex product stalls in a threaded
    BLAS on small hosts.  The products are stacked matmuls whose items
    are a lone surface's products, so each item is, bit for bit, the
    surface's own Laplacian.
    """
    g = surfaces[0].grid
    if any(surf.grid is not g for surf in surfaces):
        raise ValueError("surfaces live on different grids")
    f = np.stack([g.as_field(v) for v in fields])

    x = g.x[:, None]
    s = g.sin_theta[:, None]
    s2 = 1.0 - x ** 2
    E = np.stack([surf.E[:, :1] for surf in surfaces])
    A = np.stack([surf.G[:, :1] for surf in surfaces]) / s2  # pole-regular angular coefficient
    j = np.sqrt(E * A)  # area element = sin th * j

    def d(modes):
        re = np.ascontiguousarray(modes).view(float)
        return (g.deriv_x @ re).view(complex)

    fh = np.fft.rfft(f, axis=-1)
    out = np.empty_like(fh)
    afn = -s2 * (j / E) * d(fh[..., 0::2])
    out[..., 0::2] = -d(afn) / j
    gm = fh[..., 1::2] / s
    b = (j / E) * (x * gm - s2 * d(gm))
    out[..., 1::2] = (x * b - s2 * d(b)) / (s * j)
    m = np.arange(1, fh.shape[-1])
    out[..., 1:] -= (m * m) * fh[..., 1:] / (A * s2)
    return np.fft.irfft(out, n=g.n_phi, axis=-1)


def surface_laplacian(surface: SurfaceSample, field) -> np.ndarray:
    """The one-surface call of surface_laplacians."""
    return surface_laplacians([surface], [field])[0]

