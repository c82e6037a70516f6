"""Metric families in collar form, mass aspect extraction, and the mass vector."""

import math
import warnings

import numpy as np
import pytest
from numpy.polynomial import Polynomial
from scipy.integrate import quad
from scipy.optimize import brentq

from ahmass import (
    AdSSchwarzschild,
    Hyperbolic,
    PerturbedRound,
    QuadratureGrid,
    ads_collar_transform,
    coordinate_sphere,
    family_from_spec,
    mass_aspect,
    scalar_curvature,
    wang_mass,
)

GRID = QuadratureGrid(32, 4)

# scalar curvature reference values from an independent symbolic
# computation, frozen here: sympy builds the Christoffel symbols and the
# Ricci contraction of sinh^-2 rho (drho^2 + u h0) in (rho, theta, phi)
# from u = 1 + rho^3 psi(cos theta) / 3, and evaluates R at exact
# rational (rho, theta) with 30-digit arithmetic
CURVATURE_ORACLE_A = {
    # psi = 0.1 x
    (0.05, 0.4): -5.9999999615307489,
    (0.2, 1.2): -5.9999843309722614,
    (0.4, 2.2): -6.0008319612654789,
    (0.45, 2.9): -6.0024897813767758,
}
CURVATURE_ORACLE_B = {
    # psi = x + 0.2 (1 - x^2), an l = 2 aspect
    (0.05, 0.4): -5.9999996670190129,
    (0.2, 1.2): -5.9997711566962050,
    (0.4, 2.2): -6.0070950823068695,
    (0.45, 2.9): -6.0269508293927973,
}


def test_conformal_factor_hyperbolic_is_one():
    assert np.array_equal(Hyperbolic().conformal_factor(0.3, GRID.theta), np.ones(GRID.n_theta))


def test_conformal_factor_perturbed_round_definitional():
    rho = 0.2
    fam = PerturbedRound(lambda x: 0.1 * x)
    u = fam.conformal_factor(rho, GRID.theta)
    want = 1.0 + rho ** 3 * (0.1 * np.cos(GRID.theta)) / 3.0
    assert np.max(np.abs(u - want)) < 1e-15


def test_conformal_factor_ads_matches_collar_transform():
    rho = 0.1
    u = AdSSchwarzschild(1.0).conformal_factor(rho, GRID.theta)
    r = ads_collar_transform(1.0, rho)
    want = (r * math.sinh(rho)) ** 2
    assert np.max(np.abs(u - want)) < 1e-10 * want


def test_ads_transform_massless_closed_form():
    for rho in (0.05, 0.25, 0.4):
        assert ads_collar_transform(0.0, rho) == pytest.approx(1.0 / math.sinh(rho), rel=1e-14)


def test_ads_transform_satisfies_radial_ode():
    # independent differential check: dr/drho = -sqrt(V(r))/sinh(rho)
    m, rho, h = 1.0, 0.12, 1e-5
    r = ads_collar_transform(m, rho)
    drdrho = (ads_collar_transform(m, rho + h) - ads_collar_transform(m, rho - h)) / (2 * h)
    v = 1.0 + r * r - 2.0 * m / r
    assert drdrho == pytest.approx(-math.sqrt(v) / math.sinh(rho), rel=1e-8)


def _collar_radius_oracle(m, rho):
    # adaptive quadrature of the tail in x = r/s and a bracketing root finder
    def tail(r):
        def integrand(x):
            s = r / x
            v = 1.0 + s * s - 2.0 * m / s
            return (1.0 / math.sqrt(v) - 1.0 / math.sqrt(1.0 + s * s)) * r / (x * x)
        return quad(integrand, 0.0, 1.0, epsabs=1e-15, epsrel=1e-13, limit=200)[0]

    target = -math.log(math.tanh(0.5 * rho))
    horizon = brentq(lambda r: r ** 3 + r - 2.0 * m, 0.0, 2.0 * m + 1.0, xtol=1e-15)
    lo = max(0.5 / math.sinh(rho), horizon * (1.0 + 1e-10))
    hi = 3.0 / math.sinh(rho) + 3.0 * m + 3.0
    return brentq(lambda r: math.asinh(r) - tail(r) - target, lo, hi, xtol=1e-14, rtol=8.9e-16)


@pytest.mark.parametrize("m", [0.25, 1.0, 3.3, 5.0])
def test_ads_transform_matches_quadrature_oracle(m):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the oracle's quad warns for m >~ 3
        for rho in np.geomspace(0.002, 0.5, 25):
            want = _collar_radius_oracle(m, float(rho))
            assert ads_collar_transform(m, float(rho)) == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("m, rho", [(20.0, 0.5), (100.0, 0.3), (100.0, 0.5)])
def test_ads_transform_rejects_radius_below_horizon(m, rho):
    with pytest.raises(ValueError, match="no collar radius in bracket"):
        ads_collar_transform(m, rho)


@pytest.mark.parametrize("m", [3.05, 3.3])
def test_ads_transform_does_not_warn(m):
    # rho = 0.3 is the radius of verify's flat_laplacian_decay entry
    ads_collar_transform.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = ads_collar_transform(m, 0.3)
    assert r > 1.0 / math.sinh(0.3)


def test_ads_transform_memo_holds_one_config():
    # a 12-radius sweep and verify ask for 20 distinct (m, rho) pairs,
    # each twice or more; the memo keeps them all but no run's pairs beyond
    ads_collar_transform.cache_clear()
    rhos = list(np.geomspace(0.002, 0.2, 20))
    for rho in rhos + rhos:
        ads_collar_transform(1.0, float(rho))
    info = ads_collar_transform.cache_info()
    assert (info.misses, info.hits) == (20, 20)
    for rho in np.geomspace(0.01, 0.5, 200):
        ads_collar_transform(0.5, float(rho))
    assert ads_collar_transform.cache_info().currsize <= 64


def test_ads_transform_rejects_negative_mass():
    with pytest.raises(ValueError):
        AdSSchwarzschild(-1.0)
    with pytest.raises(ValueError):
        AdSSchwarzschild(0.0)


def test_mass_aspect_hyperbolic_zero():
    assert np.max(np.abs(mass_aspect(Hyperbolic(), GRID))) == 0.0


def test_mass_aspect_perturbed_round_trace():
    # the profile psi is read at x = cos theta, read-only; its trace is 2 psi
    psi = mass_aspect(PerturbedRound(lambda x: x), GRID)
    assert psi.shape == (GRID.n_theta,) and not psi.flags.writeable
    assert np.max(np.abs(2.0 * psi - 2.0 * np.cos(GRID.theta))) < 1e-13


def test_mass_aspect_ads_constant_and_normalized():
    psi = mass_aspect(AdSSchwarzschild(1.0), GRID)
    assert np.ptp(psi) < 1e-12 * np.max(np.abs(psi))
    # normalization oracle: the mass vector of the fitted aspect is (0,0,0,m)
    v = wang_mass(psi, GRID)
    assert abs(v.t - 1.0) < 1e-6
    assert np.max(np.abs(v.spatial)) < 1e-12


def test_ads_aspect_is_twice_the_mass():
    # the rho^3 coefficient of 3(u - 1), fitted from the collar transform,
    # is the aspect 2m the family reports
    m = 2.0
    fam = AdSSchwarzschild(m)
    rhos = np.geomspace(0.02, 0.1, 12)
    y = np.array([3.0 * (fam.conformal_factor(r, 0.0) - 1.0) / r ** 3 for r in rhos])
    basis = np.stack([np.ones_like(rhos), rhos ** 2, rhos ** 3], axis=1)
    intercept = np.linalg.lstsq(basis, y, rcond=None)[0][0]
    assert abs(intercept - 2.0 * m) <= 1e-6 * 2.0 * m
    assert np.all(fam.aspect(GRID.x) == 2.0 * m)


def test_wang_mass_zero_aspect():
    v = wang_mass(mass_aspect(Hyperbolic(), GRID), GRID)
    assert np.max(np.abs(v.as_array())) == 0.0


def test_wang_mass_constant_trace():
    c = 0.8
    v = wang_mass(np.full(GRID.n_theta, c / 2), GRID)
    assert v.t == pytest.approx(c / 4, rel=1e-13)
    assert np.max(np.abs(v.spatial)) < 1e-14


def test_wang_mass_cosine_trace():
    # trace 2 cos(theta): (1/16 pi) integral of omega_3 * 2 cos(theta) = 1/6
    v = wang_mass(mass_aspect(PerturbedRound(lambda x: x), GRID), GRID)
    assert np.allclose(v.as_array(), [0.0, 0.0, 1.0 / 6.0, 0.0], atol=1e-12)


def test_wang_mass_small_cosine_aspect():
    v = wang_mass(mass_aspect(PerturbedRound(lambda x: 0.1 * x), GRID), GRID)
    assert np.allclose(v.as_array(), [0.0, 0.0, 1.0 / 60.0, 0.0], atol=1e-13)


def test_wang_mass_linearity():
    rng = np.random.default_rng(7)
    prof1 = np.cos(GRID.theta) ** 2
    prof2 = rng.normal(size=GRID.n_theta)
    want = 2.0 * wang_mass(prof1, GRID).as_array() - 0.5 * wang_mass(prof2, GRID).as_array()
    assert np.allclose(wang_mass(2.0 * prof1 - 0.5 * prof2, GRID).as_array(), want, atol=1e-13)


def test_wang_mass_positive_trace_future_component():
    rng = np.random.default_rng(11)
    for _ in range(10):
        prof = 0.2 + rng.uniform(0.0, 1.0) * np.cos(GRID.theta) ** 2
        v = wang_mass(prof, GRID)
        assert v.t > 0.0


def test_scalar_curvature_exact_families():
    th = np.linspace(0.2, 2.9, 7)
    assert np.array_equal(scalar_curvature(Hyperbolic(), 0.3, th), np.full(7, -6.0))
    assert np.array_equal(scalar_curvature(AdSSchwarzschild(1.5), 0.3, th), np.full(7, -6.0))


def test_scalar_curvature_conformal_oracle():
    fam_a = PerturbedRound(Polynomial([0.0, 0.1]))
    for (rho, th), want in CURVATURE_ORACLE_A.items():
        assert scalar_curvature(fam_a, rho, th) == pytest.approx(want, abs=1e-12)
    fam_b = PerturbedRound(Polynomial([0.2, 1.0, -0.2]))
    for (rho, th), want in CURVATURE_ORACLE_B.items():
        assert scalar_curvature(fam_b, rho, th) == pytest.approx(want, abs=1e-12)


def test_scalar_curvature_energy_bound_small_profile():
    fam = PerturbedRound(lambda x: 0.01 * x)
    worst = min(np.min(scalar_curvature(fam, rho, np.linspace(0.05, 3.1, 40)))
                for rho in np.linspace(0.02, 0.5, 12))
    assert worst >= -6.0 - 0.1


def test_high_degree_profiles_evaluate_at_the_poles():
    # c x^N is smooth at both poles for every N; no sampled slope test
    # stands between a profile and its family
    fam, _ = family_from_spec({"name": "perturbed_round",
                               "psi": {"type": "poly_cos", "coefficients": [0] * 30 + [3]}})
    assert fam.conformal_factor(0.1, np.array([0.0, np.pi])) == pytest.approx(1.0 + 1e-3)
    fam = PerturbedRound(Polynomial([0.0] * 60 + [50.0]))
    assert fam.conformal_factor(0.1, np.array([0.0, np.pi])) == pytest.approx(1.0 + 50e-3 / 3)


def test_collar_range_validation():
    with pytest.raises(ValueError):
        Hyperbolic().conformal_factor(0.6, GRID.theta)
    with pytest.raises(ValueError):
        PerturbedRound(lambda x: 0.1 * x).conformal_factor(-0.1, GRID.theta)


def test_collar_sample_rejects_nonpositive_metric():
    # u = 1 - 40 rho^3 / 3 < 0 at rho = 0.45: the collar metric sampled on
    # the coordinate sphere there is not positive definite
    with pytest.raises(ValueError, match="conformal factor <= 0"):
        coordinate_sphere(PerturbedRound(lambda x: np.full_like(x, -40.0)), 0.45, GRID)
