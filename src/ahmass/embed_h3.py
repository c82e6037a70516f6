"""Isometric embedding of rotationally symmetric sphere metrics into the
hyperboloid model of hyperbolic 3-space inside R^{3,1}.

A metric E(th) dth^2 + G(th) dphi^2 with Gauss curvature above -1 is
realized as a surface of revolution

    X(th, phi) = (f cos phi, f sin phi, u, w),   f = sqrt(G),
    u = rho sinh chi,   w = rho cosh chi,   rho = sqrt(1 + f^2),

which lies on the hyperboloid <<X, X>> = -1 for every rapidity chi(th).
Matching E = f'^2 + u'^2 - w'^2 = f'^2 / rho^2 + rho^2 chi'^2 gives

    chi' = s sqrt(D) / (1 + f^2),   D = (1 + f^2) E - f'^2,

with branch sign s, so chi is a plain integral.  Near the poles D and
f'^2 cancel catastrophically in floating point, so D is never formed
directly: writing A = G/sin^2, B = (E - A)/sin^2 (both pole-regular)
gives the exact factorization

    D = sin^2 th * [ B + A(1 + E) + x A_x - (1 - x^2) A_x^2 / (4A) ],
    x = cos th,

whose bracket stays bounded away from the difference-of-large-terms trap.
A, B and E are the grid's own Gauss-Legendre interpolants in x.  The
poles and the discriminant probe read them at x = cos(k pi / 2000) from
their Chebyshev coefficients in x and one FFT
(grid.interp_uniform_theta); the chi' samples read them by the
barycentric formula (grid.interp_x).  The x-derivatives of A, of
A_x/(2 sqrt A) and of the bracket at the nodes come from the grid's
differentiation matrix (grid.deriv_x).  chi' is resolved by a Chebyshev
series in th on [0, pi], whose degree is doubled on nested points until
the series tail is negligible (Aurentz & Trefethen, "Chopping a
Chebyshev series", ACM TOMS 2017), and integrated once, term by term,
with the primitive summed at the nodes in one matrix product.  Near the
poles chi' varies on a th scale of about 1/max f, which a series in x
cannot resolve.  chi'' comes in closed form, never from differencing.

H0 and the normal are computed in the comoving frame: boosting each
meridian point by -chi, an isometry, gives

    X = (f, 0, rho),   X' = (f', rho chi', rho'),
    X'' = (f'', 2 rho' chi' + rho chi'', rho'' + rho chi'^2),

so no sinh chi or cosh chi, whose size ~ 1/eps would cancel down to O(1)
in ambient cross products, enters H0.  The normal is boosted back by chi
only to place it on the grid.

The translation gauge along the axis is fixed by the boost that zeroes
the first axial moment (integral of u f dth).  Along the axis a boost is
the constant shift chi -> chi + c with tanh c = -int rho f sinh chi /
int rho f cosh chi; branch +1 then has the north pole (th = 0) on the
positive axis.
"""

from __future__ import annotations

import math

import numpy as np

from .lorentz import LorentzMap, lorentz_inner
from .sphere_geometry import QuadratureGrid, SurfaceSample

__all__ = [
    "RevolutionProfile",
    "EmbeddedSurface",
    "EmbeddingError",
    "embed_round",
    "embed_revolution",
    "embed_surface",
    "mean_curvature_h0",
    "boost_surface",
    "dump_profile_csv",
]

# Hyperboloid constraint allowance per node.
HYPERBOLOID_TOL = 1e-9
# Isometry residual allowance of embed_revolution, relative to 1 + max E.
ISOMETRY_RESIDUAL_TOL = 1e-6
# Relative spread below which a profile counts as exactly round.
ROUND_DISPATCH_TOL = 1e-11
# Degree search for the rapidity series: start, cap, and the bound on the
# trailing coefficients relative to the largest.  1e-15 sits at the
# rounding floor of the samples and would drive the degree to the cap.
RAPIDITY_MIN_DEGREE = 64
RAPIDITY_MAX_DEGREE = 8192
RAPIDITY_TAIL_TOL = 1e-14


class EmbeddingError(RuntimeError):
    """Raised when a metric cannot be realized in the revolution gauge."""


class RevolutionProfile:
    """Meridian samples at the grid theta-nodes: f, rho = sqrt(1 + f^2)
    and the rapidity chi with exact first and second derivatives, the
    ambient u, w, u', w' (the isometry residual compares f'^2 + u'^2 - w'^2
    and f^2 with the target), the branch sign, and the degree and relative
    tail of the Chebyshev series that resolved the rapidity."""

    def __init__(self, grid, branch, f, fp, fpp, rho, rhop, rhopp, chi, chip, chipp,
                 E_target, G_target, cheb_degree, cheb_tail):
        self.grid = grid
        self.branch = int(branch)
        self.f, self.fp, self.fpp = f, fp, fpp
        self.rho, self.rhop, self.rhopp = rho, rhop, rhopp
        self.chi, self.chip, self.chipp = chi, chip, chipp
        self.E_target = np.asarray(E_target, dtype=float)
        self.G_target = np.asarray(G_target, dtype=float)
        self.cheb_degree = int(cheb_degree)
        self.cheb_tail = float(cheb_tail)

        sh, ch = np.sinh(chi), np.cosh(chi)
        self.u, self.w = rho * sh, rho * ch
        self.up = rhop * sh + chip * self.w
        self.wp = rhop * ch + chip * self.u
        e_got = self.fp ** 2 + self.up ** 2 - self.wp ** 2
        self.isometry_residual = float(
            np.max(np.abs(e_got - self.E_target)) + np.max(np.abs(self.f ** 2 - self.G_target))
        )

    def axial_moment(self) -> float:
        """Integral of u f dth; zero in the centered gauge."""
        g = self.grid
        return float(np.sum(g.w_theta * self.u * self.f / g.sin_theta))


class EmbeddedSurface:
    """Embedded image of a coordinate sphere: per-node position X on the
    hyperboloid, inward unit normal, and mean curvature H0 (sum
    convention, geodesic spheres positive).  hyperboloid_defect is
    max |<<X, X>> + 1| over the nodes."""

    def __init__(self, grid, X, normal, h0, isometry_residual, surface=None, profile=None):
        self.grid = grid
        self.X = np.asarray(X, dtype=float)
        self.normal = np.asarray(normal, dtype=float)
        self.H0 = grid.as_field(h0)
        self.isometry_residual = float(isometry_residual)
        self.surface = surface
        self.profile = profile
        self.hyperboloid_defect = float(np.max(np.abs(lorentz_inner(self.X, self.X) + 1.0)))
        if self.hyperboloid_defect > HYPERBOLOID_TOL:
            raise EmbeddingError("embedded nodes leave the hyperboloid (%.3e)"
                                 % self.hyperboloid_defect)
        nn = lorentz_inner(self.normal, self.normal)
        if np.max(np.abs(nn - 1.0)) > 1e-8:
            raise EmbeddingError("normal field is not unit spacelike")
        for a in (self.X, self.normal, self.H0):
            a.setflags(write=False)


def _theta_series(func):
    """Chebyshev series in t = 2 th / pi - 1 of func(th) on [0, pi], with
    the degree n doubled from RAPIDITY_MIN_DEGREE until the trailing
    eighth of the coefficients is below RAPIDITY_TAIL_TOL of the largest.
    The coefficients of the interpolant through the n + 1 points
    t_k = cos(k pi / n) come from one DCT-I, in O(n log n): the real part
    of the FFT of the samples' even extension y_0 .. y_n, y_{n-1} .. y_1.
    The points are nested: those of degree n are, bit for bit, the even
    points of degree 2n, so a doubling samples func only at the n new odd
    points and every point is sampled once, n + 1 in all.
    Returns (coefficients, degree, relative tail)."""

    def sample(k, n):
        return func(0.5 * np.pi * (1.0 + np.cos(np.pi * k / n)))

    n = RAPIDITY_MIN_DEGREE
    y = sample(np.arange(n + 1), n)
    while True:
        c = np.fft.rfft(np.concatenate([y, y[-2:0:-1]])).real / n
        c[[0, -1]] *= 0.5
        tail = float(np.max(np.abs(c[-(n // 8):])) / np.max(np.abs(c)))
        if tail <= RAPIDITY_TAIL_TOL:
            return c, n, tail
        if n >= RAPIDITY_MAX_DEGREE:
            raise EmbeddingError(
                "rapidity series unresolved at degree %d (relative tail %.3e)" % (n, tail)
            )
        n *= 2
        y = np.insert(y, np.arange(1, y.size), sample(np.arange(1, n, 2), n))


def _primitive_at(c, t, scl):
    """Values at t in [-1, 1] of scl times the primitive of the Chebyshev
    series c that vanishes at t = -1, with no loop over the degree.  The
    primitive has the coefficients b_k = scl (c_{k-1} - c_{k+1}) / (2k),
    k >= 1 (c_0 counted twice, c zero beyond its degree), and
    b_0 = -sum_k (-1)^k b_k.  With T_k(t) = Re z^k, z = exp(i arccos t),
    and k = 32 q + r, sum_k b_k z^k = sum_q z^(32 q) sum_r b_(32 q + r) z^r
    is one matrix product, and each point needs only 32 + (degree + 2) / 32
    complex exponentials."""
    k = np.arange(1, c.size + 1)
    lo = np.concatenate([[2.0 * c[0]], c[1:]])
    hi = np.concatenate([c[2:], [0.0, 0.0]])
    b = scl * (lo - hi) / (2.0 * k)
    b = np.concatenate([[-np.sum((-1.0) ** k * b)], b])
    q = -(-b.size // 32)
    b = np.pad(b, (0, 32 * q - b.size)).reshape(q, 32)
    phi = np.arccos(t)[:, None]
    return np.sum(np.exp(32j * phi * np.arange(q)) * (np.exp(1j * phi * np.arange(32)) @ b.T),
                  axis=1).real


def embed_revolution(E, G, grid: QuadratureGrid, branch: int = 1) -> RevolutionProfile:
    """Embed the axisymmetric metric E dth^2 + G dphi^2 (theta profiles on
    the grid nodes) as a surface of revolution about the x3-axis of the
    hyperboloid, centered so the axial moment of u vanishes.

    branch +1 puts the theta = 0 pole on the positive axis; -1 is the
    mirror image.  Raises EmbeddingError when the discriminant goes
    negative (not realizable in this gauge), when the poles fail to
    close, when the rapidity series does not converge by
    RAPIDITY_MAX_DEGREE, or when the recomputed metric misses the target
    by more than ISOMETRY_RESIDUAL_TOL relative to 1 + max E.
    """
    E = np.asarray(E, dtype=float)
    G = np.asarray(G, dtype=float)
    if E.shape != (grid.n_theta,) or G.shape != (grid.n_theta,):
        raise ValueError("E and G must be theta profiles on the grid nodes")
    if np.any(E <= 0.0) or np.any(G <= 0.0):
        raise EmbeddingError("metric profiles must be positive")
    if branch not in (1, -1):
        raise ValueError("branch must be +1 or -1")

    x = grid.x
    s = grid.sin_theta
    s2 = 1.0 - x ** 2
    A = G / s2
    B = (E - A) / s2
    Ax = grid.deriv_x @ A
    nodal = np.stack([A, B, E, Ax], axis=1)
    # the interpolants at x = cos(k pi / 2000): both poles and the probe
    probe_x = np.cos(np.linspace(0.0, np.pi, 2001))
    probe = grid.interp_uniform_theta(nodal, 2000)

    # pole regularity: G/sin^2 must meet E at both poles
    scale = float(np.max(E))
    if np.max(np.abs(probe[[0, -1], 0] - probe[[0, -1], 2])) > 1e-6 * scale:
        raise EmbeddingError("pole regularity violated: G/sin^2 != E at a pole")

    def bracket(xq, a, b, e, ax):
        d = b + a * (1.0 + e) + xq * ax - (1.0 - xq ** 2) * ax ** 2 / (4.0 * a)
        if np.min(d) < 0.0:
            raise EmbeddingError(
                "discriminant negative (min %.3e): metric not realizable as a "
                "revolution surface in this gauge" % np.min(d)
            )
        return d

    bracket(probe_x, *probe.T)  # raises if negative anywhere

    # branch +1 = north pole up after centering = rapidity decreasing in theta
    sig = -branch

    def chi_prime(theta):
        xq, sq = np.cos(theta), np.sin(theta)
        a, b, e, ax = grid.interp_x(nodal, xq).T
        return sig * sq * np.sqrt(bracket(xq, a, b, e, ax)) / (1.0 + sq * sq * a)

    coef, degree, tail = _theta_series(chi_prime)

    p = np.sqrt(A)
    q = Ax / (2.0 * p)
    qx = grid.deriv_x @ q

    f = s * p
    fp = x * p - s ** 2 * q
    fpp = -s * (p + 3.0 * x * q) + s ** 3 * qx

    rho2 = 1.0 + f ** 2
    rho = np.sqrt(rho2)
    rhop = f * fp / rho
    rhopp = (fp ** 2 + f * fpp - rhop ** 2) / rho

    dt = bracket(x, A, B, E, Ax)
    sqrt_dt = np.sqrt(dt)
    d_s_sqrtD = (2.0 * x * dt - s ** 2 * (grid.deriv_x @ dt)) / (2.0 * sqrt_dt)
    chip = sig * s * sqrt_dt / rho2
    chipp = sig * d_s_sqrtD / rho2 - chip * 2.0 * f * fp / rho2

    # Centering shift, applied twice: the moments grow like rho^2 at small
    # radii, so one pass leaves a rounding residue the second removes.
    chi = _primitive_at(coef, 2.0 * grid.theta / np.pi - 1.0, 0.5 * np.pi)
    for _ in range(2):
        iu = float(np.sum(grid.w_theta * rho * np.sinh(chi) * f / s))
        iw = float(np.sum(grid.w_theta * rho * np.cosh(chi) * f / s))
        chi = chi + math.atanh(-iu / iw)

    prof = RevolutionProfile(grid, branch, f, fp, fpp, rho, rhop, rhopp, chi, chip, chipp,
                             E, G, degree, tail)
    if prof.isometry_residual > ISOMETRY_RESIDUAL_TOL * (1.0 + scale):
        raise EmbeddingError(
            "isometry residual %.3e exceeds tolerance" % prof.isometry_residual
        )
    return prof


def _comoving_normal(profile: RevolutionProfile):
    """Squared meridian speed e and inward unit normal (f, u, w
    components) in the comoving frame, where the point is (f, 0, rho):
    n = -branch (-rho^2 chi', f'/rho, -f rho chi') / sqrt(e), with
    e = rho^2 chi'^2 + f'^2 / rho^2.  chi' has sign -branch, so the
    azimuthal curvature -n_f/f is positive."""
    p = profile
    e = (p.rho * p.chip) ** 2 + (p.fp / p.rho) ** 2
    scale = -p.branch / np.sqrt(e)
    return e, (-p.rho ** 2 * p.chip * scale, p.fp / p.rho * scale,
               -p.f * p.rho * p.chip * scale)


def mean_curvature_h0(profile: RevolutionProfile) -> np.ndarray:
    """Mean curvature of the embedded revolution surface in hyperbolic
    3-space, from the second fundamental form in the comoving frame;
    geodesic spheres give +2 coth R (normal on the inner side)."""
    p = profile
    e, (nf, nu, nw) = _comoving_normal(p)
    ii_t = (p.fpp * nf + (2.0 * p.rhop * p.chip + p.rho * p.chipp) * nu
            - (p.rhopp + p.rho * p.chip ** 2) * nw)
    return ii_t / e - nf / p.f


def _profile_nodes(profile: RevolutionProfile):
    """Position and inward normal on the full grid, shape (nth, nph, 4);
    the normal is boosted back from the comoving frame by chi."""
    g = profile.grid
    cph = np.cos(g.phi)[None, :]
    sph = np.sin(g.phi)[None, :]

    def revolve(radial, axial, time):
        return np.stack([
            radial[:, None] * cph,
            radial[:, None] * sph,
            np.broadcast_to(axial[:, None], g.shape),
            np.broadcast_to(time[:, None], g.shape),
        ], axis=-1)

    _, (nf, nu, nw) = _comoving_normal(profile)
    sh, ch = np.sinh(profile.chi), np.cosh(profile.chi)
    return (revolve(profile.f, profile.u, profile.w),
            revolve(nf, nu * ch + nw * sh, nu * sh + nw * ch))


def embed_round(R: float, grid: QuadratureGrid,
                surface: SurfaceSample | None = None) -> EmbeddedSurface:
    """Geodesic sphere of radius R about the origin of the hyperboloid:
    X = (sinh R omega, cosh R), inward normal -(cosh R omega, sinh R),
    H0 = 2 coth R exactly."""
    if not (R > 0.0):
        raise ValueError("radius must be positive")
    sh, ch = math.sinh(R), math.cosh(R)
    omega = np.stack([
        grid.sin_theta[:, None] * np.cos(grid.phi)[None, :],
        grid.sin_theta[:, None] * np.sin(grid.phi)[None, :],
        np.broadcast_to(grid.x[:, None], grid.shape).copy(),
    ], axis=-1)
    X = np.concatenate([sh * omega, np.full(grid.shape + (1,), ch)], axis=-1)
    N = np.concatenate([-ch * omega, np.full(grid.shape + (1,), -sh)], axis=-1)
    if surface is None:
        surface = SurfaceSample(R, sh * sh, 2.0 * ch / sh, 1.0 / sh ** 2, grid)
    return EmbeddedSurface(grid, X, N, 2.0 * ch / sh, 0.0, surface=surface)


def _round_radius(surface: SurfaceSample):
    """Radius R when the induced metric is exactly sinh^2 R h0, else None."""
    E = surface.E
    if np.max(E) - np.min(E) > ROUND_DISPATCH_TOL * float(np.max(E)):
        return None
    return math.asinh(math.sqrt(float(np.mean(E))))


def embed_surface(surface: SurfaceSample, branch: int = 1) -> EmbeddedSurface:
    """Isometrically embed a coordinate-sphere sample into the hyperboloid.

    Exactly round samples take the closed geodesic-sphere form, which is
    exact and about a hundred times cheaper than the rapidity quadrature;
    everything else goes through embed_revolution.  A SurfaceSample is
    axisymmetric by construction.
    """
    r = _round_radius(surface)
    if r is not None:
        return embed_round(r, surface.grid, surface=surface)
    prof = embed_revolution(surface.E[:, 0], surface.G[:, 0], surface.grid, branch=branch)
    h0 = mean_curvature_h0(prof)
    X, N = _profile_nodes(prof)
    return EmbeddedSurface(surface.grid, X, N, h0, prof.isometry_residual,
                           surface=surface, profile=prof)


def boost_surface(lam: LorentzMap, surf: EmbeddedSurface) -> EmbeddedSurface:
    """Move an embedded surface by a restricted ambient isometry; the
    intrinsic data (induced metric, H0) is untouched."""
    if not isinstance(lam, LorentzMap):
        raise TypeError("expected a LorentzMap")
    if not lam.is_restricted:
        raise ValueError("isometry must be proper and orthochronous")
    X = np.einsum("ab,ijb->ija", lam.matrix, surf.X)
    N = np.einsum("ab,ijb->ija", lam.matrix, surf.normal)
    return EmbeddedSurface(surf.grid, X, N, surf.H0, surf.isometry_residual,
                           surface=surf.surface, profile=surf.profile)


def dump_profile_csv(emb: EmbeddedSurface, path) -> None:
    """Write the meridian phi = 0 of an embedded surface, per theta-node
    theta, f, u, w, H0, as CSV for external plotting."""
    rows = np.column_stack([emb.grid.theta, emb.X[:, 0, 0], emb.X[:, 0, 2],
                            emb.X[:, 0, 3], emb.H0[:, 0]])
    np.savetxt(path, rows, delimiter=",", header="theta,f,u,w,H0", comments="")
