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
from ahmass import ah_metric

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
    u, du, ddu, errs = Hyperbolic().collar_profiles([0.3, 0.01], GRID.theta)
    assert np.array_equal(u, np.ones((2, GRID.n_theta))) and errs == [None, None]
    assert np.array_equal(du, np.zeros((2, GRID.n_theta)))
    assert np.array_equal(ddu, np.zeros((2, GRID.n_theta)))


def test_conformal_factor_perturbed_round_definitional():
    rho = 0.2
    psi = 0.1 * np.cos(GRID.theta)
    (u,), (du,), (ddu,), errs = PerturbedRound(lambda x: 0.1 * x).collar_profiles([rho], GRID.theta)
    assert errs == [None]
    assert np.max(np.abs(u - (1.0 + rho ** 3 * psi / 3.0))) < 1e-15
    assert np.max(np.abs(du - rho ** 2 * psi)) < 1e-15
    assert np.max(np.abs(ddu - 2.0 * rho * psi)) < 1e-15


def test_conformal_factor_ads_matches_collar_transform():
    rho = 0.1
    (u,), _, _, errs = AdSSchwarzschild(1.0).collar_profiles([rho], GRID.theta)
    r = ads_collar_transform(1.0, rho)
    want = (r * math.sinh(rho)) ** 2
    assert errs == [None]
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
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = ads_collar_transform(m, 0.3)
    assert r > 1.0 / math.sinh(0.3)


@pytest.mark.parametrize("m", [0.0, 0.5, 3.3, 100.0])
def test_lockstep_collar_radii_match_solo(m):
    # the lockstep solve of a radius list gives each radius, bit for bit,
    # the radius or the error that radius gets alone; the list mixes the
    # 8- and 12-radius schedules with verify's radii, rho <= 0 and, for
    # m = 100, rho too deep for the bracket
    rhos = ([0.2 * 2 ** -0.5 * k for k in range(1, 4)] + [float(r) for r in np.geomspace(
        0.002, 0.5, 13)] + [0.0, -0.1, 0.3, 0.0075])
    got = ah_metric._collar_radii(m, rhos)
    assert len(got) == len(rhos)
    for rho, r in zip(rhos, got):
        try:
            want = ads_collar_transform(m, rho)
        except ValueError as exc:
            assert type(r) is ValueError and str(r) == str(exc)
        else:
            assert type(r) is float and r == want
    errors = [str(r) for r in got if isinstance(r, ValueError)]
    assert errors.count("rho must be positive") == 2
    assert (m == 100.0) == ("no collar radius in bracket; rho too deep for this mass" in errors)


FAMILY_SPECS = [
    "hyperbolic",
    {"name": "ads_schwarzschild", "mass": 0.5},
    {"name": "ads_schwarzschild", "mass": 3.3},
    # 0.5 and 0.3 have no collar radius in bracket
    {"name": "ads_schwarzschild", "mass": 100.0},
    {"name": "perturbed_round", "psi": {"type": "cos_theta", "amplitude": 0.1}},
    {"name": "perturbed_round", "psi": {"type": "constant", "value": -40.0}},
    {"name": "perturbed_round", "psi": {"type": "poly_cos", "coefficients": [0.05, -0.08, 0.06]}},
]


@pytest.mark.parametrize("spec", FAMILY_SPECS)
@pytest.mark.parametrize("n_theta", [64, 96])
def test_collar_profiles_rows_are_one_radius_calls(spec, n_theta):
    # every row of a stacked collar_profiles call is, bit for bit, the
    # one-radius call at its radius: u, u_rho, u_rhorho and the error; the
    # radii mix the 8- and 12-radius schedules with verify's radii
    fam, _ = family_from_spec(spec)
    theta = QuadratureGrid(n_theta, 4).theta
    rhos = ([0.2 * 2 ** -0.5 * k for k in range(1, 4)] + [float(r) for r in np.geomspace(
        0.002, 0.5, 13)] + [0.3, 0.0075])
    u, du, ddu, errs = fam.collar_profiles(rhos, theta)
    assert u.shape == du.shape == ddu.shape == (len(rhos), n_theta) and len(errs) == len(rhos)
    for k, rho in enumerate(rhos):
        (u1,), (du1,), (ddu1,), (err,) = fam.collar_profiles([rho], theta)
        if err is not None:
            assert type(errs[k]) is type(err) and str(errs[k]) == str(err)
            continue
        assert errs[k] is None
        for got, want in ((u[k], u1), (du[k], du1), (ddu[k], ddu1)):
            assert np.array_equal(got, want)
    assert (spec == FAMILY_SPECS[3]) == any(e is not None for e in errs)


@pytest.mark.parametrize("spec", FAMILY_SPECS[:3] + FAMILY_SPECS[4:])
def test_collar_profiles_second_derivative_is_the_slope_of_the_first(spec):
    # u_rhorho against a centred rho-difference of u_rho: AdS's w'' comes
    # from differentiating the collar ODE, and nothing else reads it but R
    fam, _ = family_from_spec(spec)
    h = 1e-4
    for rho in (0.01, 0.1, 0.3, 0.45):
        _, du, ddu, errs = fam.collar_profiles([rho - h, rho, rho + h], GRID.theta)
        assert errs == [None] * 3
        slope = (du[2] - du[0]) / (2.0 * h)
        assert np.max(np.abs(slope - ddu[1])) <= 1e-7 * (1.0 + np.max(np.abs(ddu[1])))


@pytest.mark.parametrize("m", [0.5, 1.0, 3.3])
def test_horizon_memo_returns_the_uncached_root(m, monkeypatch):
    # the memo hands every collar radius the same float the cubic gives,
    # so the brackets and the radii are unchanged to the bit
    ah_metric._horizon_radius.cache_clear()
    rhos = [float(rho) for rho in np.geomspace(0.005, 0.3, 7)]
    cached = [ads_collar_transform(m, rho) for rho in rhos]
    assert ah_metric._horizon_radius(m) == ah_metric._horizon_radius.__wrapped__(m)
    monkeypatch.setattr(ah_metric, "_horizon_radius", ah_metric._horizon_radius.__wrapped__)
    assert [ads_collar_transform(m, rho) for rho in rhos] == cached


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
    assert np.max(np.abs(v.as_array()[:3])) < 1e-12


def test_ads_aspect_is_twice_the_mass():
    # the rho^3 coefficient of 3(u - 1), fitted from the collar transform,
    # is the aspect 2m the family reports
    m = 2.0
    fam = AdSSchwarzschild(m)
    rhos = np.geomspace(0.02, 0.1, 12)
    u = fam.collar_profiles(list(rhos), np.array([0.0]))[0][:, 0]
    y = 3.0 * (u - 1.0) / rhos ** 3
    basis = np.stack([np.ones_like(rhos), rhos ** 2, rhos ** 3], axis=1)
    intercept = np.linalg.lstsq(basis, y, rcond=None)[0][0]
    assert abs(intercept - 2.0 * m) <= 1e-6 * 2.0 * m
    assert np.all(fam.aspect(GRID.x) == 2.0 * m)


def axial_wang_mass(psi):
    # the boundary mass vector of a theta profile, whose x1 and x2 are 0.0
    # exactly: the theta quadrature never forms them
    v = wang_mass(psi, GRID)
    assert v.x1 == 0.0 and v.x2 == 0.0
    return v


def test_wang_mass_zero_aspect():
    v = axial_wang_mass(mass_aspect(Hyperbolic(), GRID))
    assert np.max(np.abs(v.as_array())) == 0.0


def test_wang_mass_constant_trace():
    c = 0.8
    v = axial_wang_mass(np.full(GRID.n_theta, c / 2))
    assert v.t == pytest.approx(c / 4, rel=1e-13)
    assert np.max(np.abs(v.as_array()[:3])) < 1e-14


def test_wang_mass_cosine_trace():
    # trace 2 cos(theta): (1/16 pi) integral of omega_3 * 2 cos(theta) = 1/6
    v = axial_wang_mass(mass_aspect(PerturbedRound(lambda x: x), GRID))
    assert np.allclose(v.as_array(), [0.0, 0.0, 1.0 / 6.0, 0.0], atol=1e-12)


def test_wang_mass_small_cosine_aspect():
    v = axial_wang_mass(mass_aspect(PerturbedRound(lambda x: 0.1 * x), GRID))
    assert np.allclose(v.as_array(), [0.0, 0.0, 1.0 / 60.0, 0.0], atol=1e-13)


def test_wang_mass_linearity():
    rng = np.random.default_rng(7)
    prof1 = np.cos(GRID.theta) ** 2
    prof2 = rng.normal(size=GRID.n_theta)
    want = 2.0 * axial_wang_mass(prof1).as_array() - 0.5 * axial_wang_mass(prof2).as_array()
    assert np.allclose(axial_wang_mass(2.0 * prof1 - 0.5 * prof2).as_array(), want, atol=1e-13)


def test_wang_mass_positive_trace_future_component():
    rng = np.random.default_rng(11)
    for _ in range(10):
        prof = 0.2 + rng.uniform(0.0, 1.0) * np.cos(GRID.theta) ** 2
        v = axial_wang_mass(prof)
        assert v.t > 0.0


def test_wang_mass_refuses_a_grid_field():
    # psi is a theta profile by contract; a full (n_theta, n_phi) field,
    # even one constant in phi, is refused
    psi = mass_aspect(PerturbedRound(lambda x: x), GRID)
    with pytest.raises(ValueError, match="not a theta profile"):
        wang_mass(GRID.as_field(psi), GRID)


def test_scalar_curvature_exact_families():
    # hyperbolic space and the AdS-Schwarzschild slices are Einstein with
    # R = -6 exactly; the one curvature formula reads their profiles
    th = np.linspace(0.0, np.pi, 7)
    rhos = [float(r) for r in np.geomspace(0.003, 0.5, 12)]
    for fam in [Hyperbolic()] + [AdSSchwarzschild(m) for m in (0.5, 1.5, 3.3, 100.0)]:
        radii = [r for r, err in zip(rhos, fam.collar_profiles(rhos, th)[3]) if err is None]
        assert len(radii) >= 8
        worst = max(np.max(np.abs(scalar_curvature(fam, rho, th) + 6.0)) for rho in radii)
        assert worst <= 1e-11, (fam.name, worst)
        assert scalar_curvature(fam, radii[-1], 1.0) == pytest.approx(-6.0, abs=1e-11)


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
    poles = np.array([0.0, np.pi])
    assert fam.collar_profiles([0.1], poles)[0][0] == pytest.approx(1.0 + 1e-3)
    fam = PerturbedRound(Polynomial([0.0] * 60 + [50.0]))
    assert fam.collar_profiles([0.1], poles)[0][0] == pytest.approx(1.0 + 50e-3 / 3)


def test_collar_range_validation():
    with pytest.raises(ValueError, match="outside collar range"):
        scalar_curvature(Hyperbolic(), 0.6, GRID.theta)
    with pytest.raises(ValueError, match="outside collar range"):
        scalar_curvature(PerturbedRound(lambda x: 0.1 * x), -0.1, GRID.theta)
    # a radius inside the range whose profile fails raises the profile's error
    with pytest.raises(ValueError, match="no collar radius in bracket"):
        scalar_curvature(AdSSchwarzschild(100.0), 0.5, GRID.theta)


def test_collar_sample_rejects_nonpositive_metric():
    # u = 1 - 40 rho^3 / 3 < 0 at rho = 0.45: the collar metric sampled on
    # the coordinate sphere there is not positive definite
    with pytest.raises(ValueError, match="conformal factor <= 0"):
        coordinate_sphere(PerturbedRound(lambda x: np.full_like(x, -40.0)), 0.45, GRID)
