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
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .lorentz import MinkowskiVector, sphere_direction
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
    """Base class for collar-form families; subclasses provide the
    conformal profile u and its first two radial derivatives."""

    name = "abstract"
    rho_max = 0.5

    def conformal_factor(self, rho: float, theta) -> np.ndarray:
        raise NotImplementedError

    def conformal_factor_drho(self, rho: float, theta) -> np.ndarray:
        raise NotImplementedError

    def conformal_factor_drho2(self, rho: float, theta) -> np.ndarray:
        raise NotImplementedError

    def aspect(self, x) -> np.ndarray:
        """rho^3-coefficient profile psi at x = cos theta (aspect = psi h0)."""
        raise NotImplementedError

    def scalar_curvature(self, rho: float, theta) -> np.ndarray:
        raise NotImplementedError

    def _check(self, rho):
        if not (0.0 < rho <= self.rho_max):
            raise ValueError("rho outside collar range")


class Hyperbolic(AHFamily):
    """The reference space itself: u = 1, zero mass aspect, curvature -6."""

    name = "hyperbolic"

    def conformal_factor(self, rho, theta):
        self._check(rho)
        return np.ones_like(np.asarray(theta, dtype=float))

    def conformal_factor_drho(self, rho, theta):
        self._check(rho)
        return np.zeros_like(np.asarray(theta, dtype=float))

    conformal_factor_drho2 = conformal_factor_drho

    def aspect(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def scalar_curvature(self, rho, theta):
        self._check(rho)
        return np.full_like(np.asarray(theta, dtype=float), -6.0)


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


def _ads_tail(m: float, r: float) -> float:
    # integral_r^infty (V^-1/2 - (1+s^2)^-1/2) ds via s = r/x, x in (0, 1];
    # the integrand is smooth there, ~ m x^2 / r^3 as x -> 0, and the
    # difference is written as 2m/s / (sqrt(V) sqrt(1+s^2) (sqrt(V) + sqrt(1+s^2)))
    # so nothing cancels at large s
    x, w = _tail_rule()
    s = r / x
    a = np.sqrt(1.0 + s * s)
    b = np.sqrt(1.0 + s * s - 2.0 * m / s)
    return float(w @ ((2.0 * m / s) / (a * b * (a + b)) * r / (x * x)))


# The memo serves repeats within one config: its sweep and its verify ask
# for the same (mass, rho) pairs, n + 8 distinct ones on n radii (16 on 8,
# 20 on 12).  64 holds all of them up to about 50 radii; a larger cache
# only keeps pairs of configs that no later run asks for.
@functools.lru_cache(maxsize=64)
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
    bracket by bisection whenever a step would leave it.
    """
    if m < 0.0:
        raise ValueError("mass must be nonnegative")
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    if m == 0.0:
        return 1.0 / math.sinh(rho)
    target = -math.log(math.tanh(0.5 * rho))

    def f(r):
        return math.asinh(r) - _ads_tail(m, r) - target

    rh = _horizon_radius(m)
    lo = max(0.5 / math.sinh(rho), rh * (1.0 + 1e-10))
    hi = 3.0 / math.sinh(rho) + 3.0 * m + 3.0
    if f(lo) >= 0.0 or f(hi) <= 0.0:
        raise ValueError("no collar radius in bracket; rho too deep for this mass")
    r = min(max(1.0 / math.sinh(rho), lo), hi)
    for _ in range(100):
        fr = f(r)
        if fr == 0.0:
            break
        if fr < 0.0:
            lo = r
        else:
            hi = r
        nxt = r - fr * math.sqrt(1.0 + r * r - 2.0 * m / r)  # F / F' = F sqrt(V)
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - r) <= 4e-16 * r:
            return nxt
        r = nxt
    return r


class AdSSchwarzschild(AHFamily):
    """AdS-Schwarzschild slice of mass m > 0 in collar form; u = w(rho) is
    independent of theta, with w(rho) = (r sinh rho)^2."""

    def __init__(self, mass: float):
        if not (mass > 0.0):
            raise ValueError("mass must be positive")
        self.mass = float(mass)
        self.name = "ads_schwarzschild"

    def _radius(self, rho: float) -> float:
        return ads_collar_transform(self.mass, rho)

    def _profile(self, rho: float):
        # w, w' and w'' from exact differentiation of the defining ODE
        # r'(rho) = -sqrt(V)/sinh(rho)
        r = self._radius(rho)
        sh, ch = math.sinh(rho), math.cosh(rho)
        v = 1.0 + r * r - 2.0 * self.mass / r
        sv = math.sqrt(v)
        p = r * sh
        dp = r * ch - sv
        ddp = -sv * ch / sh + r * sh + (2.0 * r + 2.0 * self.mass / r ** 2) / (2.0 * sh)
        w = p * p
        dw = 2.0 * p * dp
        ddw = 2.0 * (dp * dp + p * ddp)
        return w, dw, ddw

    def conformal_factor(self, rho, theta):
        self._check(rho)
        w, _, _ = self._profile(rho)
        return np.full_like(np.asarray(theta, dtype=float), w)

    def conformal_factor_drho(self, rho, theta):
        self._check(rho)
        _, dw, _ = self._profile(rho)
        return np.full_like(np.asarray(theta, dtype=float), dw)

    def conformal_factor_drho2(self, rho, theta):
        self._check(rho)
        _, _, ddw = self._profile(rho)
        return np.full_like(np.asarray(theta, dtype=float), ddw)

    def aspect(self, x):
        # u = (r sinh rho)^2 = 1 + 2m rho^3 / 3 + O(rho^4): the aspect is 2m h0
        return np.full_like(np.asarray(x, dtype=float), 2.0 * self.mass)

    def scalar_curvature(self, rho, theta):
        self._check(rho)
        # Einstein with the curvature normalization of the reference space
        return np.full_like(np.asarray(theta, dtype=float), -6.0)


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

    def conformal_factor(self, rho, theta):
        self._check(rho)
        return 1.0 + rho ** 3 * self.aspect(np.cos(theta)) / 3.0

    def conformal_factor_drho(self, rho, theta):
        self._check(rho)
        return rho ** 2 * self.aspect(np.cos(theta))

    def conformal_factor_drho2(self, rho, theta):
        self._check(rho)
        return 2.0 * rho * self.aspect(np.cos(theta))

    def scalar_curvature(self, rho, theta):
        self._check(rho)
        th = np.atleast_1d(np.asarray(theta, dtype=float))
        u = self.conformal_factor(rho, th)
        du = self.conformal_factor_drho(rho, th)
        ddu = self.conformal_factor_drho2(rho, th)
        # lap0 log u spectrally on internal nodes, interpolated to theta
        g = QuadratureGrid(128, 1)
        lap_nodes = g.round_laplacian(np.log(self.conformal_factor(rho, g.theta)))
        lap = np.atleast_1d(g.interp_x(lap_nodes, np.cos(th)))
        out = conformal_collar_scalar_curvature(rho, u, du, ddu, lap)
        return out if np.asarray(theta).ndim else float(out[0])


def mass_aspect(family: AHFamily, grid: QuadratureGrid) -> np.ndarray:
    """Read-only profile psi of the family's mass aspect psi h0 at the
    grid's theta nodes."""
    psi = np.broadcast_to(family.aspect(np.cos(grid.theta)), grid.theta.shape)
    if not np.all(np.isfinite(psi)):
        raise ValueError("mass aspect has non-finite samples")
    return psi


def wang_mass(psi, grid: QuadratureGrid) -> MinkowskiVector:
    """Mass vector (1/16 pi) (int omega tr dmu0, int tr dmu0) of the aspect
    psi h0, whose trace against the round metric is tr = 2 psi; psi is a
    theta profile on the grid's nodes, omega the unit position on the
    round sphere."""
    if grid.n_theta < 16:
        raise ValueError("need n_theta >= 16 to resolve the aspect integrals")
    tr = grid.as_field(2.0 * np.asarray(psi, dtype=float))
    omega = sphere_direction(grid.theta_mesh, grid.phi_mesh)
    c = 1.0 / (16.0 * np.pi)
    comps = [c * grid.integrate_round(omega[..., k] * tr) for k in range(3)]
    comps.append(c * grid.integrate_round(tr))
    return MinkowskiVector(*comps)


def scalar_curvature(family: AHFamily, rho: float, theta):
    """Scalar curvature of the family metric at collar position (rho, theta)."""
    return family.scalar_curvature(rho, theta)
