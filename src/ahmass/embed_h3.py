"""Isometric embedding of rotationally symmetric sphere metrics into the
hyperboloid model of hyperbolic 3-space inside R^{3,1}.

A metric E(th) dth^2 + G(th) dphi^2 with Gauss curvature above -1 is
realized as a surface of revolution

    X(th, phi) = (f cos phi, f sin phi, u, w),   f = sqrt(G),
    u = rho sinh chi,   w = rho cosh chi,   rho = sqrt(1 + f^2),

which lies on the hyperboloid <<X, X>> = -1 for every rapidity chi(th).
Matching E = f'^2 + u'^2 - w'^2 = f'^2 / rho^2 + rho^2 chi'^2 gives

    chi' = -sqrt(D) / (1 + f^2),   D = (1 + f^2) E - f'^2,

so chi is a plain integral, decreasing in th.  Near the poles D and
f'^2 cancel catastrophically in floating point, so D is never formed
directly: writing A = G/sin^2, B = (E - A)/sin^2 (both pole-regular)
gives the exact factorization

    D = sin^2 th * [ B + A(1 + E) + x A_x - (1 - x^2) A_x^2 / (4A) ],
    x = cos th,

whose bracket stays bounded away from the difference-of-large-terms trap.
A, B and E are the grid's own Gauss-Legendre interpolants in x, read at
the chi' samples by the barycentric formula (c @ nodal) / den (Berrut &
Trefethen, SIAM Review 2004), and at x = cos(k pi / 2000) (poles and
discriminant probe) through the same terms with 1/den folded in: one
C-contiguous (n_theta, 2001) table, built once per grid size.

chi is integrated in the rapidity phi of the geodesic sphere of radius
R, sinh^2 R = max A over the nodes: x = tanh phi / tanh R, phi in
[-R, R], where

    dchi/dphi = sqrt(bracket) sech^2 phi / (tanh R (1 + A sin^2 th)),
    sin^2 th = sinh(R - phi) sinh(R + phi) / (sinh^2 R cosh^2 phi),

which is exactly 1 on that sphere (chi = phi = atanh(tanh R cos th), the
closed form).  In th, chi' has near-poles at th = +-i/sinh R off each
pole, so a series in th needed a degree of about 1/eps; the map moves
them off the interval (the conformal-map idea of Hale & Trefethen, SIAM
J. Numer. Anal. 2008), and the near-round spheres of a collar resolve at
RAPIDITY_MIN_DEGREE at every radius.  sin^2 th is formed as that
product, not as 1 - x^2, which loses about 1e-12 near the interval ends
once A is large.  dchi/dphi is a Chebyshev series in t = phi / R on
[-1, 1], its degree doubled on nested points until the tail is
negligible (Aurentz & Trefethen, ACM TOMS 2017), integrated term by term
and summed at the nodes t_j = atanh(tanh R x_j) / R by Clenshaw's
recurrence.  chi'' is in closed form.  What limits the depth is rounding:
the node defect |<<X, X>> + 1| grows like 1/eps^2 and passes
HYPERBOLOID_TOL at eps = 7.8e-4 on 64 nodes but not at 6e-4, and the
rounding of the mass vectors grows like 1/eps^3.

The quadrature runs on a stack of spheres, a C-contiguous (S, n_theta)
row each (embed_surfaces), with no loop over the spheres: one call per
stack for every elementwise step and row reduction, one DCT-I over the
rows per doubling level.  The probe is one product of the stack's nodal
rows with each block of PROBE_BLOCK table columns and a running minimum
of the bracket, so the stack reads the table once and never holds all
2001 points; it is the only step whose values may differ from a lone
sphere's in the last bits, and only its pass or fail and its printed
minimum leave it.  Every other matrix product is a stacked matmul whose
items are a lone sphere's BLAS calls (one product over all spheres
changes a column's last bits with the column count): the barycentric
rows of each level are a sphere's own, since its points depend on its
R.  The Clenshaw pass runs on the stack's series zero-padded to the
largest degree, whose exact zeros leave each row its lone value, so a
sphere in a stack is, bit for bit, the sphere embedded alone.  The round
test, the hyperboloid and unit-normal checks of the nodes are one
reduction over the stack, and the exactly round spheres of a grid are
one broadcast of the unit sphere's table.

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
int rho f cosh chi; the north pole (th = 0) then lies on the positive
axis.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .lorentz import LorentzMap, lorentz_inner
from .sphere_geometry import QuadratureGrid, SurfaceSample, barycentric_rows

__all__ = ["RevolutionProfile", "EmbeddedSurface", "EmbeddingError", "embed_round",
           "embed_revolution", "embed_surface", "embed_surfaces", "mean_curvature_h0",
           "boost_surface", "dump_profile_csv"]

# Hyperboloid constraint allowance per node.
HYPERBOLOID_TOL = 1e-9
# Allowance of |<<n, n>> - 1| per node for the unit normal.
UNIT_NORMAL_TOL = 1e-8
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
# Points per block of the discriminant probe: a stack of S spheres holds
# S * 4 * PROBE_BLOCK floats of probe values at a time.
PROBE_BLOCK = 512


class EmbeddingError(RuntimeError):
    """Raised when a metric cannot be realized in the revolution gauge."""


class RevolutionProfile:
    """Meridian samples at the grid theta-nodes: f, rho = sqrt(1 + f^2)
    and the rapidity chi with exact first and second derivatives, the
    ambient u, w, u', w' (the isometry residual compares f'^2 + u'^2 - w'^2
    and f^2 with the target), and the degree and relative tail of the
    Chebyshev series that resolved the rapidity, for a stack of spheres, a
    row each; row(i) is sphere i's own profile."""

    def __init__(self, grid, f, fp, fpp, rho, rhop, rhopp, chi, chip, chipp,
                 E_target, G_target, cheb_degree, cheb_tail):
        self.grid = grid
        self.f, self.fp, self.fpp = f, fp, fpp
        self.rho, self.rhop, self.rhopp = rho, rhop, rhopp
        self.chi, self.chip, self.chipp = chi, chip, chipp
        self.cheb_degree, self.cheb_tail = cheb_degree, cheb_tail

        sh, ch = np.sinh(chi), np.cosh(chi)
        self.u, self.w = rho * sh, rho * ch
        self.up, self.wp = rhop * sh + chip * self.w, rhop * ch + chip * self.u
        e_got = self.fp ** 2 + self.up ** 2 - self.wp ** 2
        self.isometry_residual = (np.max(np.abs(e_got - E_target), axis=-1)
                                  + np.max(np.abs(self.f ** 2 - G_target), axis=-1))

    def row(self, i) -> RevolutionProfile:
        """Sphere i of a stacked profile; its arrays are views of row i."""
        out = object.__new__(RevolutionProfile)
        out.__dict__ = {k: v if k == "grid" else v[i] for k, v in vars(self).items()}
        out.isometry_residual = float(out.isometry_residual)
        return out

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
        X, normal = np.asarray(X, dtype=float), np.asarray(normal, dtype=float)
        (defect,), (err,) = _node_checks(X[None], normal[None])
        if err is not None:
            raise err
        self._fill(grid, X, normal, h0, isometry_residual, defect, surface, profile)

    def _fill(self, grid, X, normal, h0, isometry_residual, defect, surface, profile):
        self.grid, self.surface, self.profile = grid, surface, profile
        self.X, self.normal, self.H0 = X, normal, grid.as_field(h0)
        self.isometry_residual = float(isometry_residual)
        self.hyperboloid_defect = float(defect)
        _readonly(self.X, self.normal, self.H0)
        return self

    @classmethod
    def _checked(cls, *args) -> EmbeddedSurface:
        """The surface of _fill's arguments, whose stack passed _node_checks."""
        return object.__new__(cls)._fill(*args)


def _node_checks(X, N) -> tuple:
    """Per item of a stack of (S, n_theta, n_phi, 4) positions X and
    normals N: the hyperboloid defect max |<<X, X>> + 1|, and None or the
    EmbeddingError of the node check it fails, hyperboloid first, then a
    unit spacelike normal."""
    defect = np.max(np.abs(lorentz_inner(X, X) + 1.0), axis=(1, 2))
    unit = np.max(np.abs(lorentz_inner(N, N) - 1.0), axis=(1, 2))
    return defect, [
        EmbeddingError("embedded nodes leave the hyperboloid (%.3e)" % d) if d > HYPERBOLOID_TOL
        else EmbeddingError("normal field is not unit spacelike") if u > UNIT_NORMAL_TOL
        else None
        for d, u in zip(defect, unit)]


def _readonly(*arrays) -> tuple:
    for a in arrays:
        a.setflags(write=False)
    return arrays


# Tables that depend only on the grid size, built on first use and shared
# read-only; five entries (two each for the probe table and the unit
# sphere) hold two grid sizes.  On 64 nodes the probe table is 1.0 MB.
@functools.lru_cache(maxsize=1)
def _probe_x() -> np.ndarray:
    """x = cos(k pi / 2000), k = 0 .. 2000: the poles and the probe."""
    return _readonly(np.cos(np.linspace(0.0, np.pi, 2001)))[0]


@functools.lru_cache(maxsize=2)
def _probe_table(n_theta: int) -> np.ndarray:
    """The C-contiguous (n_theta, 2001) matrix T that takes rows v of
    nodal values to the n_theta-node interpolant at _probe_x() as v @ T,
    a block of columns at a time in _probe: the barycentric terms
    bary_w_j / (x_q - x_j) over their sum, built in this layout (a product
    with a transposed view is about 3 times slower).  The Gauss-Legendre
    nodes are interior, so no probe point hits one."""
    grid = QuadratureGrid(n_theta, 1)
    c = grid.bary_w[:, None] / (_probe_x()[None, :] - grid.x[:, None])
    return _readonly(c / np.sum(c, axis=0))[0]


@functools.lru_cache(maxsize=2)
def _omega(n_theta: int, n_phi: int) -> np.ndarray:
    """The unit sphere (sin th cos phi, sin th sin phi, cos th) at the grid
    nodes, shape (n_theta, n_phi, 3)."""
    grid = QuadratureGrid(n_theta, n_phi)
    return _readonly(np.stack([grid.sin_theta[:, None] * np.cos(grid.phi)[None, :],
                               grid.sin_theta[:, None] * np.sin(grid.phi)[None, :],
                               np.broadcast_to(grid.x[:, None], grid.shape)], axis=-1))[0]


def _bracket(xq, a, b, e, ax) -> np.ndarray:
    """The bracket of D / sin^2 th (module docstring) at the points xq."""
    return b + a * (1.0 + e) + xq * ax - (1.0 - xq ** 2) * ax ** 2 / (4.0 * a)


def _negative(low) -> list:
    """Per bracket minimum in low, None or the EmbeddingError of a
    negative one."""
    return [EmbeddingError("discriminant negative (min %.3e): metric not realizable as a "
                           "revolution surface in this gauge" % m) if m < 0.0 else None
            for m in low]


def _probe(nodal, scale) -> list:
    """Per row of the (S, n_theta, 4) stack nodal of A, B, E and A_x, None
    or the EmbeddingError of its poles (G/sin^2 meets E there, to 1e-6 of
    scale) or else of its bracket at x = cos(k pi / 2000).  One product of
    the stack's (4 S, n_theta) rows (the S rows of A, then those of B, E
    and A_x) with each block of PROBE_BLOCK columns of _probe_table, and a
    running minimum of the bracket over the blocks; the poles are the
    first and the last column."""
    S, n_theta = nodal.shape[:2]
    rows = np.ascontiguousarray(nodal.transpose(2, 0, 1)).reshape(4 * S, n_theta)
    table, xq = _probe_table(n_theta), _probe_x()
    low = np.full(S, np.inf)
    for lo in range(0, xq.size, PROBE_BLOCK):
        at = (rows @ table[:, lo:lo + PROBE_BLOCK]).reshape(4, S, -1)
        if lo == 0:
            north = at[..., 0]
        low = np.minimum(low, np.min(_bracket(xq[lo:lo + PROBE_BLOCK], *at), axis=1))
    gap = np.maximum(np.abs(north[0] - north[2]), np.abs(at[0, :, -1] - at[2, :, -1]))
    return [EmbeddingError("pole regularity violated: G/sin^2 != E at a pole") if g > 1e-6 * s
            else err for g, s, err in zip(gap, scale, _negative(low))]


def _theta_series(sample, rows) -> dict:
    """Chebyshev series in t on [-1, 1] of functions, one per index in
    rows, in lockstep, each degree n doubling from RAPIDITY_MIN_DEGREE
    until the last eighth of the coefficients is below RAPIDITY_TAIL_TOL of
    the largest.  sample(t, rows) gives the functions at the points
    t = cos(k pi / n) the level adds (every k at the first degree, the odd
    k at a doubling: the points of degree n are the even points of degree
    2n), a row each, and per row None or an EmbeddingError that ends its
    series.  The coefficients are one DCT-I over the rows, the FFT of each
    even extension.  Returns per index (coefficients, degree, tail) or its
    EmbeddingError."""
    out, y, n = {}, None, RAPIDITY_MIN_DEGREE
    rows = np.asarray(rows, dtype=int)
    while rows.size:
        k = np.arange(n + 1) if y is None else np.arange(1, n, 2)
        new, errs = sample(np.cos(np.pi * k / n), rows)
        if y is None:
            y = new
        else:  # the new points fall between the old ones
            y, old = np.empty((len(y), 2 * y.shape[1] - 1)), y
            y[:, 0::2], y[:, 1::2] = old, new
        out.update((i, err) for i, err in zip(rows, errs) if err is not None)
        ok = np.array([err is None for err in errs], dtype=bool)
        rows, y = rows[ok], y[ok]
        c = np.fft.rfft(np.concatenate([y, y[:, -2:0:-1]], axis=1)).real / n
        c[:, [0, -1]] *= 0.5
        tail = np.max(np.abs(c[:, -(n // 8):]), axis=1) / np.max(np.abs(c), axis=1)
        done = (tail <= RAPIDITY_TAIL_TOL) | (n >= RAPIDITY_MAX_DEGREE)
        out.update((i, (ci, n, float(t)) if t <= RAPIDITY_TAIL_TOL else EmbeddingError(
            "rapidity series unresolved at degree %d (relative tail %.3e)" % (n, t)))
            for i, ci, t in zip(rows[done], c[done], tail[done]))
        rows, y, n = rows[~done], y[~done], 2 * n
    return out


def _primitives(cs, t) -> np.ndarray:
    """Values at the points t, a row of the (S, m) array t per series, of
    the primitive that vanishes at t = 1 of each Chebyshev series in the
    list cs.  The primitive has the coefficients
    b_k = (c_{k-1} - c_{k+1}) / (2k), k >= 1 (c_0 counted twice, c zero
    beyond its degree); one Clenshaw pass over the stack sums
    sum_k b_k T_k at t and at t = 1.  The series are zero-padded to the
    largest degree, and the exact zeros leave each row, bit for bit, its
    series' lone call."""
    n = max(map(len, cs), default=0)
    c = np.zeros((len(cs), n + 2))
    for row, ci in zip(c, cs):
        row[:len(ci)] = ci
    c[:, 0] *= 2.0
    b = (c[:, :n] - c[:, 2:]) / (2.0 * np.arange(1, n + 1))  # b_1 .. b_n
    tt = np.concatenate([t, np.ones((len(t), 1))], axis=1)
    two_t = 2.0 * tt
    u1 = u2 = np.zeros_like(tt)
    for k in range(n - 1, -1, -1):
        u1, u2 = b[:, k, None] + two_t * u1 - u2, u1
    p = tt * u1 - u2
    return p[:, :-1] - p[:, -1:]


def _embed_rows(E, G, grid) -> list:
    """The rapidity quadrature for a stack of spheres, a row of the
    C-contiguous (S, n_theta) arrays E and G each.  Returns per row its
    EmbeddingError or its (RevolutionProfile, X, normal, H0) with the
    hyperboloid defect and the error of _node_checks."""
    x, s = grid.x, grid.sin_theta
    s2 = 1.0 - x ** 2
    A = G / s2
    B = (E - A) / s2
    Ax = (grid.deriv_x @ A[..., None])[..., 0]
    nodal = np.stack([A, B, E, Ax], axis=-1)
    scale = np.max(E, axis=1)
    out = {i: err for i, err in enumerate(_probe(nodal, scale)) if err is not None}

    # The rapidity of the geodesic sphere of radius R, sinh^2 R = max A,
    # phi = R t in [-R, R] with x = tanh phi / tanh R; north pole up after
    # centering = chi increasing in phi.
    sh_R = np.sqrt(np.max(A, axis=1))[:, None]
    R = np.arcsinh(sh_R)
    th_R = np.tanh(R)

    def chi_prime(t, rows):
        r, sh, th = R[rows], sh_R[rows], th_R[rows]
        phi = r * t
        xq = np.tanh(phi) / th
        ch2 = np.cosh(phi) ** 2
        sq2 = np.sinh(r - phi) * np.sinh(r + phi) / (sh * sh * ch2)  # sin^2 th, not 1 - xq^2
        c, den = barycentric_rows(x, grid.bary_w, xq)
        at = (c @ nodal[rows]) / den[..., None]
        d = _bracket(xq, *np.moveaxis(at, -1, 0))
        errs = _negative(np.min(d, axis=-1))
        with np.errstate(invalid="ignore"):  # a failed row leaves the series
            return np.sqrt(d) / (th * ch2 * (1.0 + sq2 * at[..., 0])), errs

    series = _theta_series(chi_prime, [i for i in range(len(E)) if i not in out])
    dt = _bracket(x, A, B, E, Ax)
    dt_errs = _negative(np.min(dt, axis=-1))
    for i, got in series.items():
        if isinstance(got, EmbeddingError) or dt_errs[i] is not None:
            out[i] = got if isinstance(got, EmbeddingError) else dt_errs[i]
    keep = np.array([i for i in range(len(E)) if i not in out], dtype=int)
    A, Ax, dt = A[keep], Ax[keep], dt[keep]
    p = np.sqrt(A)
    q = Ax / (2.0 * p)
    qx = (grid.deriv_x @ q[..., None])[..., 0]
    f = s * p
    fp = x * p - s ** 2 * q
    fpp = -s * (p + 3.0 * x * q) + s ** 3 * qx
    rho2 = 1.0 + f ** 2
    rho = np.sqrt(rho2)
    rhop = f * fp / rho
    rhopp = (fp ** 2 + f * fpp - rhop ** 2) / rho
    sqrt_dt = np.sqrt(dt)
    d_s_sqrtD = (2.0 * x * dt - s ** 2 * (grid.deriv_x @ dt[..., None])[..., 0]) / (2.0 * sqrt_dt)
    chip = -s * sqrt_dt / rho2
    chipp = -d_s_sqrtD / rho2 - chip * 2.0 * f * fp / rho2
    # chi at the nodes, phi_j = atanh(tanh R x_j).  Centering shift, applied
    # twice: the moments grow like rho^2 at small radii, so one pass leaves
    # a rounding residue the second removes.
    r = R[keep]
    chi = r * _primitives([series[i][0] for i in keep], np.arctanh(th_R[keep] * x) / r)
    for _ in range(2):
        iu = np.sum(grid.w_theta * rho * np.sinh(chi) * f / s, axis=1)
        iw = np.sum(grid.w_theta * rho * np.cosh(chi) * f / s, axis=1)
        chi = chi + np.array([math.atanh(-a / b) for a, b in zip(iu, iw)])[:, None]
    prof = RevolutionProfile(grid, f, fp, fpp, rho, rhop, rhopp, chi, chip, chipp,
                             E[keep], G[keep], [series[i][1] for i in keep],
                             [series[i][2] for i in keep])
    h0, (X, N) = mean_curvature_h0(prof), _profile_nodes(prof)
    defect, node_errs = _node_checks(X, N)
    for k, i in enumerate(keep):
        res = prof.isometry_residual[k]
        out[i] = (EmbeddingError("isometry residual %.3e exceeds tolerance" % res)
                  if res > ISOMETRY_RESIDUAL_TOL * (1.0 + scale[i])
                  else (prof.row(k), X[k], N[k], h0[k], defect[k], node_errs[k]))
    return [out[i] for i in range(len(E))]


def embed_revolution(E, G, grid: QuadratureGrid) -> RevolutionProfile:
    """Embed the axisymmetric metric E dth^2 + G dphi^2 (theta profiles on
    the grid nodes) as a surface of revolution about the x3-axis of the
    hyperboloid, centered so the axial moment of u vanishes, with the
    theta = 0 pole on the positive axis.  Raises EmbeddingError when the
    discriminant goes negative (not realizable in this gauge), when the
    poles fail to close, when the rapidity series does not converge by
    RAPIDITY_MAX_DEGREE, or when the recomputed metric misses the target
    by more than ISOMETRY_RESIDUAL_TOL relative to 1 + max E.
    """
    E, G = np.asarray(E, dtype=float), np.asarray(G, dtype=float)
    if E.shape != (grid.n_theta,) or G.shape != (grid.n_theta,):
        raise ValueError("E and G must be theta profiles on the grid nodes")
    if np.any(E <= 0.0) or np.any(G <= 0.0):
        raise EmbeddingError("metric profiles must be positive")
    got = _embed_rows(E[None], G[None], grid)[0]
    if isinstance(got, EmbeddingError):
        raise got
    return got[0]


def _comoving_normal(profile: RevolutionProfile):
    """Squared meridian speed e = rho^2 chi'^2 + f'^2 / rho^2 and inward
    unit normal n = -(-rho^2 chi', f'/rho, -f rho chi') / sqrt(e)
    (f, u, w components) in the comoving frame, where the point is
    (f, 0, rho); chi' is negative, so -n_f/f is positive."""
    p = profile
    e = (p.rho * p.chip) ** 2 + (p.fp / p.rho) ** 2
    scale = -1.0 / np.sqrt(e)
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
    """Position and inward normal on the full grid, shape (..., nth, nph,
    4); the normal is boosted back from the comoving frame by chi."""
    g = profile.grid
    cph, sph = np.cos(g.phi), np.sin(g.phi)

    def revolve(radial, axial, time):
        shape = axial.shape + (g.n_phi,)
        return np.stack([radial[..., None] * cph, radial[..., None] * sph,
                         np.broadcast_to(axial[..., None], shape),
                         np.broadcast_to(time[..., None], shape)], axis=-1)

    _, (nf, nu, nw) = _comoving_normal(profile)
    sh, ch = np.sinh(profile.chi), np.cosh(profile.chi)
    return (revolve(profile.f, profile.u, profile.w),
            revolve(nf, nu * ch + nw * sh, nu * sh + nw * ch))


def _round_stack(radii, grid, surfaces) -> list:
    """Geodesic spheres of the given radii about the origin of the
    hyperboloid, one broadcast of _omega over the stack:
    X = (sinh R omega, cosh R), inward normal -(cosh R omega, sinh R),
    H0 = 2 coth R exactly.  Returns per radius its EmbeddedSurface, with
    the sample of the same index, or its EmbeddingError."""
    shs, chs = [math.sinh(R) for R in radii], [math.cosh(R) for R in radii]
    sh, ch = (np.array(v)[:, None, None] for v in (shs, chs))
    omega = _omega(grid.n_theta, grid.n_phi)
    X, N = np.empty((2, len(radii)) + grid.shape + (4,))
    X[..., :3], X[..., 3] = sh[..., None] * omega, ch
    N[..., :3], N[..., 3] = -ch[..., None] * omega, -sh
    defect, errs = _node_checks(X, N)
    return [err or EmbeddedSurface._checked(grid, X[k], N[k], 2.0 * chs[k] / shs[k], 0.0,
                                            defect[k], surfaces[k], None)
            for k, err in enumerate(errs)]


def embed_round(R: float, grid: QuadratureGrid,
                surface: SurfaceSample | None = None) -> EmbeddedSurface:
    """Geodesic sphere of radius R about the origin of the hyperboloid:
    the one-sphere call of _round_stack."""
    if not (R > 0.0):
        raise ValueError("radius must be positive")
    if surface is None:
        sh = math.sinh(R)
        surface = SurfaceSample(R, sh * sh, 2.0 * math.cosh(R) / sh, 1.0 / sh ** 2, grid)
    emb = _round_stack([R], grid, [surface])[0]
    if isinstance(emb, EmbeddingError):
        raise emb
    return emb


def embed_surfaces(surfaces) -> list:
    """Isometrically embed coordinate-sphere samples on one grid
    (axisymmetric by construction) into the hyperboloid in one pass;
    returns, in order, the EmbeddedSurface or the EmbeddingError
    embed_surface gives for each.  The exactly round ones take the closed
    geodesic-sphere form in one broadcast, about a hundred times cheaper;
    the others share one stacked rapidity quadrature."""
    if not surfaces:
        return []
    grid = surfaces[0].grid
    if any(s.grid is not grid for s in surfaces):
        raise ValueError("surfaces live on different grids")
    out = {}
    # exactly round: E = sinh^2 R, its spread within ROUND_DISPATCH_TOL
    E = np.stack([s.E[:, 0] for s in surfaces])
    top = np.max(E, axis=1)
    is_rev = top - np.min(E, axis=1) > ROUND_DISPATCH_TOL * top
    rnd = [i for i, r in enumerate(is_rev) if not r]
    if rnd:
        # R from the mean of the whole grid field, as a lone sphere reads it
        radii = [math.asinh(math.sqrt(float(np.mean(surfaces[i].E)))) for i in rnd]
        out.update(zip(rnd, _round_stack(radii, grid, [surfaces[i] for i in rnd])))
    rev = [i for i, r in enumerate(is_rev) if r]
    if rev:
        G = np.stack([surfaces[i].G[:, 0] for i in rev])
        for i, got in zip(rev, _embed_rows(E[is_rev], G, grid)):
            if not isinstance(got, EmbeddingError):
                prof, X, N, h0, defect, err = got
                got = err or EmbeddedSurface._checked(grid, X, N, h0, prof.isometry_residual,
                                                      defect, surfaces[i], prof)
            out[i] = got
    return [out[i] for i in range(len(surfaces))]


def embed_surface(surface: SurfaceSample) -> EmbeddedSurface:
    """embed_surfaces of the one sample, raising its EmbeddingError."""
    emb = embed_surfaces([surface])[0]
    if isinstance(emb, EmbeddingError):
        raise emb
    return emb


def boost_surface(lam: LorentzMap, surf: EmbeddedSurface) -> EmbeddedSurface:
    """Move an embedded surface by a restricted ambient isometry; the
    intrinsic data (induced metric, H0) is untouched."""
    if not isinstance(lam, LorentzMap):
        raise TypeError("expected a LorentzMap")
    if not lam.is_restricted:
        raise ValueError("isometry must be proper and orthochronous")
    X, N = (np.einsum("ab,ijb->ija", lam.matrix, a) for a in (surf.X, surf.normal))
    return EmbeddedSurface(surf.grid, X, N, surf.H0, surf.isometry_residual,
                           surface=surf.surface, profile=surf.profile)


def dump_profile_csv(emb: EmbeddedSurface, path) -> None:
    """Write the meridian phi = 0 of an embedded surface, per theta-node
    theta, f, u, w, H0, as CSV for external plotting."""
    rows = np.column_stack([emb.grid.theta, emb.X[:, 0, 0], emb.X[:, 0, 2],
                            emb.X[:, 0, 3], emb.H0[:, 0]])
    np.savetxt(path, rows, delimiter=",", header="theta,f,u,w,H0", comments="")
