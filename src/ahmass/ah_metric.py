"""Asymptotically hyperbolic metrics in collar form and the mass vector of
their boundary expansion.

Every family here is conformal over the round sphere: the metric is

    g = sinh^-2 rho (drho^2 + u(rho, theta) h0),   0 < rho <= rho_max,

with u -> 1 at the boundary rho -> 0.  The third-order coefficient of u is
the mass aspect: u = 1 + rho^3 psi/3 + O(rho^4) corresponds to the aspect
tensor psi h0, whose trace 2 psi feeds the mass vector.  Every family is
axisymmetric and gives psi as a function of x = cos theta, so psi is
smooth at the poles by construction.

Families:
  Hyperbolic           u = 1 exactly (reference space).
  AdSSchwarzschild(m)  u = (r(rho) sinh rho)^2 with r the static area
                       radius; obtained from the collar transform below.
  PerturbedRound(psi)  u = 1 + rho^3 psi(cos theta)/3.

A family computes its profile in one place, collar_profiles(rhos, theta):
u, u_rho and u_rhorho of a stack of radii as (S, n_theta) rows, with one
error slot per radius.  coordinate_spheres reads u and u_rho from it, and
scalar_curvature reads all three through the one formula
conformal_collar_scalar_curvature; a one-radius question is a stack of
one.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .lorentz import MinkowskiVector
from .sphere_geometry import QuadratureGrid

__all__ = [
    "AHFamily",
    "Hyperbolic",
    "AdSSchwarzschild",
    "PerturbedRound",
    "ads_collar_transform",
    "mass_aspect",
    "wang_mass",
    "scalar_curvature",
    "conformal_collar_scalar_curvature",
]

class AHFamily:
    """Base class for collar-form families.  A subclass provides the mass
    aspect and collar_profiles, the only place it computes its conformal
    profile u."""

    name = "abstract"
    rho_max = 0.5

    def collar_profiles(self, rhos, theta) -> tuple:
        """u, u_rho and u_rhorho at every radius of rhos (each inside the
        collar range) and at the 1-d theta nodes, as (S, n_theta) arrays,
        and per radius None or the ValueError that radius fails with (that
        row's values are then meaningless).  Each row is, bit for bit, the
        one-radius call's row at its radius."""
        raise NotImplementedError

    def aspect(self, x) -> np.ndarray:
        """rho^3-coefficient profile psi at x = cos theta (aspect = psi h0)."""
        raise NotImplementedError


class Hyperbolic(AHFamily):
    """The reference space itself: u = 1, zero mass aspect, curvature -6."""

    name = "hyperbolic"

    def collar_profiles(self, rhos, theta):
        shape = (len(rhos), np.size(theta))
        return np.ones(shape), np.zeros(shape), np.zeros(shape), [None] * len(rhos)

    def aspect(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))


# One config has one mass, and every collar radius of its sweep and
# verify brackets above the same horizon.
@functools.lru_cache(maxsize=8)
def _horizon_radius(m: float) -> float:
    # positive root of r^3 + r - 2m = 0
    if m == 0.0:
        return 0.0
    roots = np.roots([1.0, 0.0, 1.0, -2.0 * m])
    real = roots[np.abs(roots.imag) < 1e-12].real
    return float(np.max(real))


# Gauss-Legendre rule on [0, 1] for the AdS tail integral, from the
# 64-node grid table: reversed, its nodes and weights are leggauss(64).
@functools.lru_cache(maxsize=1)
def _tail_rule() -> tuple[np.ndarray, np.ndarray]:
    g = QuadratureGrid(64, 1)
    return 0.5 * (g.x[::-1] + 1.0), 0.5 * g.w_theta[::-1]


def _ads_tails(m: float, r) -> list:
    # integral_r^infty (V^-1/2 - (1+s^2)^-1/2) ds via s = r/x, x in (0, 1],
    # for each radius in r; the integrand is smooth there, ~ m x^2 / r^3 as
    # x -> 0, and the difference is written as
    # 2m/s / (sqrt(V) sqrt(1+s^2) (sqrt(V) + sqrt(1+s^2))) so nothing
    # cancels at large s.  The integrand is formed for all radii at once,
    # and summed by one dot product per radius: a matrix-vector product
    # would sum in another order.
    x, w = _tail_rule()
    r = np.array(r, dtype=float)[:, None]
    s = r / x
    a = np.sqrt(1.0 + s * s)
    b = np.sqrt(1.0 + s * s - 2.0 * m / s)
    return [float(w @ row) for row in (2.0 * m / s) / (a * b * (a + b)) * r / (x * x)]


def _collar_radii(m: float, rhos) -> list:
    """ads_collar_transform of every rho in rhos, solved in lockstep: per
    rho its radius or the ValueError it raises.  Each step evaluates the
    tail integral of all unfinished radii at once; every radius keeps its
    own bracket and stop rule, so it is, bit for bit, the radius solved
    alone."""
    if m < 0.0:
        raise ValueError("mass must be nonnegative")
    out = [ValueError("rho must be positive") if rho <= 0.0 else None for rho in rhos]
    if m == 0.0:
        return [err or 1.0 / math.sinh(rho) for err, rho in zip(out, rhos)]
    todo = [i for i, err in enumerate(out) if err is None]
    rh = _horizon_radius(m) if todo else 0.0
    target, lo, hi, r = {}, {}, {}, {}
    for i in todo:
        rho = rhos[i]
        target[i] = -math.log(math.tanh(0.5 * rho))
        lo[i] = max(0.5 / math.sinh(rho), rh * (1.0 + 1e-10))
        hi[i] = 3.0 / math.sinh(rho) + 3.0 * m + 3.0

    def f(rows, at):
        tails = _ads_tails(m, [at[i] for i in rows])
        return {i: math.asinh(at[i]) - t - target[i] for i, t in zip(rows, tails)}

    f_lo, f_hi = f(todo, lo), f(todo, hi)
    for i in todo:
        if f_lo[i] >= 0.0 or f_hi[i] <= 0.0:
            out[i] = ValueError("no collar radius in bracket; rho too deep for this mass")
        else:
            r[i] = min(max(1.0 / math.sinh(rhos[i]), lo[i]), hi[i])
    todo = [i for i in todo if i in r]
    for _ in range(100):
        if not todo:
            break
        fr, left = f(todo, r), []
        for i in todo:
            if fr[i] == 0.0:
                out[i] = r[i]
                continue
            if fr[i] < 0.0:
                lo[i] = r[i]
            else:
                hi[i] = r[i]
            nxt = r[i] - fr[i] * math.sqrt(1.0 + r[i] * r[i] - 2.0 * m / r[i])  # F / F' = F sqrt(V)
            if not lo[i] < nxt < hi[i]:
                nxt = 0.5 * (lo[i] + hi[i])
            if abs(nxt - r[i]) <= 4e-16 * r[i]:
                out[i] = nxt
                continue
            r[i] = nxt
            left.append(i)
        todo = left
    for i in todo:
        out[i] = r[i]
    return out


def ads_collar_transform(m: float, rho: float) -> float:
    """Static area radius r of the coordinate sphere {rho = const} in the
    collar form of the AdS-Schwarzschild metric V^-1 dr^2 + r^2 h0,
    V = 1 + r^2 - 2m/r.

    r is the unique solution above the horizon of

        F(r) = asinh(r) - integral_r^infty (V^-1/2 - (1+s^2)^-1/2) ds
               + log tanh(rho/2) = 0,

    normalized so m = 0 returns exactly 1/sinh rho.  The tail integral is
    a 64-point Gauss-Legendre rule in x = r/s; the root comes from Newton's
    method with the exact slope F'(r) = V(r)^-1/2, kept inside a sign
    bracket by bisection whenever a step would leave it.  It is the
    one-radius call of the lockstep solve _collar_radii.
    """
    got = _collar_radii(m, [rho])[0]
    if isinstance(got, ValueError):
        raise got
    return got


class AdSSchwarzschild(AHFamily):
    """AdS-Schwarzschild slice of mass m > 0 in collar form; u = w(rho) is
    independent of theta, with w(rho) = (r sinh rho)^2."""

    def __init__(self, mass: float):
        if not (mass > 0.0):
            raise ValueError("mass must be positive")
        self.mass = float(mass)
        self.name = "ads_schwarzschild"

    def collar_profiles(self, rhos, theta):
        # every collar radius in one lockstep solve; w, w' and w'' per
        # radius in scalar arithmetic, so a row does not depend on the
        # stack, from exact differentiation of the defining ODE
        # r'(rho) = -sqrt(V)/sinh(rho), r the collar radius at rho
        u, du, ddu = np.full((3, len(rhos), np.size(theta)), np.nan)
        radii = _collar_radii(self.mass, rhos)
        for k, (rho, r) in enumerate(zip(rhos, radii)):
            if isinstance(r, ValueError):
                continue
            sh, ch = math.sinh(rho), math.cosh(rho)
            sv = math.sqrt(1.0 + r * r - 2.0 * self.mass / r)
            p, dp = r * sh, r * ch - sv
            ddp = -sv * ch / sh + r * sh + (2.0 * r + 2.0 * self.mass / r ** 2) / (2.0 * sh)
            u[k], du[k], ddu[k] = p * p, 2.0 * p * dp, 2.0 * (dp * dp + p * ddp)
        return u, du, ddu, [r if isinstance(r, ValueError) else None for r in radii]

    def aspect(self, x):
        # u = (r sinh rho)^2 = 1 + 2m rho^3 / 3 + O(rho^4): the aspect is 2m h0
        return np.full_like(np.asarray(x, dtype=float), 2.0 * self.mass)


def conformal_collar_scalar_curvature(rho, u, u_rho, u_rho2, lap0_log_u):
    """Scalar curvature of g = sinh^-2 rho (drho^2 + u h0) from the profile
    u, its radial derivatives, and the unit-sphere Laplacian of log u.

    The slices {rho = const} are umbilic with principal curvature
    lam = -cosh rho + sinh rho u_rho / (2u) toward the boundary, and

        R_g = R_q - 4 sinh(rho) dlam/drho - 6 lam^2,

    R_q the slice curvature sinh^2 rho (2 - lap0 log u)/u.
    """
    sh, ch = np.sinh(rho), np.cosh(rho)
    lam = -ch + 0.5 * sh * u_rho / u
    lam_rho = -sh + 0.5 * (ch * u_rho / u + sh * (u_rho2 * u - u_rho ** 2) / u ** 2)
    r_q = sh ** 2 * (2.0 - lap0_log_u) / u
    return r_q - 4.0 * sh * lam_rho - 6.0 * lam ** 2


class PerturbedRound(AHFamily):
    """Conformal perturbation u = 1 + rho^3 psi(cos theta)/3, psi a
    callable of x = cos theta (e.g. a numpy Polynomial)."""

    def __init__(self, psi):
        self.psi = psi
        self.name = "perturbed_round"

    def aspect(self, x):
        return np.asarray(self.psi(x), dtype=float)

    def collar_profiles(self, rhos, theta):
        # psi once for the stack, times the powers of the (S, 1) radius column
        psi = self.aspect(np.cos(theta))
        r = np.array(rhos, dtype=float)[:, None]
        return 1.0 + r ** 3 * psi / 3.0, r ** 2 * psi, 2.0 * r * psi, [None] * len(rhos)


def mass_aspect(family: AHFamily, grid: QuadratureGrid) -> np.ndarray:
    """Read-only profile psi of the family's mass aspect psi h0 at the
    grid's theta nodes."""
    psi = np.broadcast_to(family.aspect(np.cos(grid.theta)), grid.theta.shape)
    if not np.all(np.isfinite(psi)):
        raise ValueError("mass aspect has non-finite samples")
    return psi


def wang_mass(psi, grid: QuadratureGrid) -> MinkowskiVector:
    """Mass vector (1/16 pi) (int omega tr dmu0, int tr dmu0) of the aspect
    psi h0, whose trace against the round metric is tr = 2 psi, omega the
    unit position on the round sphere.  psi is a theta profile, shape
    (n_theta,), so the phi integral leaves one theta quadrature:
    t = sum_i w_i psi_i / 4, x3 = sum_i w_i x_i psi_i / 4, x1 = x2 = 0.0."""
    if grid.n_theta < 16:
        raise ValueError("need n_theta >= 16 to resolve the aspect integrals")
    if np.shape(psi) != (grid.n_theta,):
        raise ValueError("mass aspect of shape %r is not a theta profile" % (np.shape(psi),))
    wpsi = grid.w_theta * np.asarray(psi, dtype=float)
    return MinkowskiVector(0.0, 0.0, float(grid.x @ wpsi) / 4.0, float(np.sum(wpsi)) / 4.0)


def scalar_curvature(family: AHFamily, rho: float, theta):
    """Scalar curvature of the family metric at collar position (rho, theta),
    from one collar_profiles call at rho on the query theta and on the
    128 nodes where lap0 log u is taken spectrally, then interpolated to
    theta.  ValueError when rho is outside the collar range or the
    family's profile fails there."""
    if not 0.0 < rho <= family.rho_max:
        raise ValueError("rho outside collar range")
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    g = QuadratureGrid(128, 1)
    (u,), (du,), (ddu,), (err,) = family.collar_profiles([rho], np.concatenate([th, g.theta]))
    if err is not None:
        raise err
    n = th.size
    lap = g.interp_x(g.round_laplacian(np.log(u[n:])), np.cos(th))
    out = conformal_collar_scalar_curvature(rho, u[:n], du[:n], ddu[:n], lap)
    return out if np.asarray(theta).ndim else float(out[0])
