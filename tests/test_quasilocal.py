"""Quasi-local mass vectors of embedded coordinate spheres and the scalar
functional behind the modified mass."""

import math

import numpy as np
import pytest

from ahmass import (
    AdSSchwarzschild,
    CausalClass,
    Hyperbolic,
    KillingNormField,
    MassResult,
    MinkowskiVector,
    PerturbedRound,
    QuadratureGrid,
    SpinorParameter,
    SurfaceSample,
    alpha_from_radii,
    boost,
    boost_surface,
    by_mass,
    causal_classify,
    coordinate_sphere,
    default_schedule,
    embed_round,
    embed_surface,
    enclosing_radii,
    hat_mass,
    hopf_eta,
    integrate_scalar,
    lorentz_inner,
    mainhyp_functional,
    rotation,
    shitam_alpha_mass,
)

GRID = QuadratureGrid(48, 4)
RNG_SEED = 20240813


def ads_sphere(m=1.0, eps=0.05, grid=GRID):
    surf = coordinate_sphere(AdSSchwarzschild(m), eps, grid)
    return surf, embed_surface(surf)


def random_null_eta(rng):
    z = SpinorParameter(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
    return hopf_eta(z)


def test_reference_space_masses_vanish():
    surf = coordinate_sphere(Hyperbolic(), 0.1, GRID)
    emb = embed_surface(surf)
    assert np.max(np.abs(by_mass(surf, emb).as_array())) <= 1e-9
    assert np.max(np.abs(hat_mass(surf, emb).as_array())) <= 1e-9
    assert np.max(np.abs(shitam_alpha_mass(surf, emb, 1.5).as_array())) <= 1e-8


def test_ads_sphere_masses_future_timelike():
    surf, emb = ads_sphere()
    mby = by_mass(surf, emb)
    mhat = hat_mass(surf, emb)
    assert causal_classify(mby) is CausalClass.FUTURE_TIMELIKE
    assert causal_classify(mhat) is CausalClass.FUTURE_TIMELIKE
    assert np.max(np.abs(mby.spatial)) < 1e-12
    assert np.max(np.abs(mhat.spatial)) < 1e-12
    # both converge to the same limit; at finite radius they differ at O(eps^2)
    assert abs(mby.t - 1.0) < 0.001
    assert abs(mhat.t - mby.t) < 0.01


def test_hat_mass_needs_mean_curvature_above_floor():
    emb = embed_round(1.0, GRID)
    sh = math.sinh(1.0)
    bad = SurfaceSample(0.1, sh * sh, -2.5, 1.0 / sh ** 2, GRID)
    with pytest.raises(ValueError, match="mean curvature"):
        hat_mass(bad, emb)
    with pytest.raises(ValueError, match="mean curvature"):
        mainhyp_functional(bad, emb, 1.0)


def test_mass_rejects_mismatched_grids():
    surf = coordinate_sphere(Hyperbolic(), 0.1, GRID)
    other = embed_round(1.0, QuadratureGrid(32, 4))
    with pytest.raises(ValueError):
        by_mass(surf, other)


def test_alpha_from_radii_values():
    assert alpha_from_radii(1.0, 2.0) == pytest.approx(3.797423536739249, rel=1e-15)
    for r in (0.5, 1.0, 3.0):
        assert alpha_from_radii(r, r) == pytest.approx(math.cosh(r) / math.sinh(r), rel=1e-15)
    assert alpha_from_radii(6.0, 6.05) < 1.3
    with pytest.raises(ValueError):
        alpha_from_radii(2.0, 1.0)
    with pytest.raises(ValueError):
        alpha_from_radii(0.0, 1.0)


def test_enclosing_radii():
    emb = embed_round(1.4, GRID)
    r1, r2 = enclosing_radii(emb)
    assert r1 == pytest.approx(1.4, abs=1e-9)
    assert r2 == pytest.approx(1.4, abs=1e-9)
    emb2 = embed_surface(coordinate_sphere(PerturbedRound(lambda x: 0.1 * x), 0.1, GRID))
    q1, q2 = enclosing_radii(emb2)
    assert q1 < q2
    assert alpha_from_radii(q1, q2) > 1.0


@pytest.fixture(scope="module")
def cos_theta_by_masses():
    # m_BY on psi = 0.1 cos(theta) down the 12-radius default schedule;
    # the boundary mass integral is (0, 0, 1/60, 0)
    fam = PerturbedRound(lambda x: 0.1 * x)
    grid = QuadratureGrid(64, 4)
    eps = np.array(default_schedule(0.2, 2 ** -0.5, 12))
    m = []
    for e in eps:
        surf = coordinate_sphere(fam, float(e), grid)
        m.append(by_mass(surf, embed_surface(surf)).as_array())
    return eps, np.array(m)


def test_by_mass_error_halves_down_to_smallest_radius(cos_theta_by_masses):
    # the x3 error is c eps^2 + ..., so each 1/sqrt(2) step halves it; a
    # rounding floor in H0 would break the ratio at the deepest radii
    _, m = cos_theta_by_masses
    err = m[:, 2] - 1.0 / 60.0
    ratios = err[:-1] / err[1:]
    assert np.all(np.abs(ratios - 2.0) <= 0.05), ratios


def test_by_mass_time_component_has_no_rounding_floor(cos_theta_by_masses):
    eps, m = cos_theta_by_masses
    assert np.max(np.abs(m[eps <= 0.0125 + 1e-12, 3])) <= 2e-9


def test_alpha_one_matches_scaled_by_mass():
    surf, emb = ads_sphere()
    got = shitam_alpha_mass(surf, emb, 1.0).as_array()
    want = -8.0 * np.pi * by_mass(surf, emb).as_array()
    assert np.max(np.abs(got - want)) <= 1e-10 * (1.0 + np.max(np.abs(want)))


def test_alpha_mass_rejects_alpha_below_one():
    surf, emb = ads_sphere()
    with pytest.raises(ValueError):
        shitam_alpha_mass(surf, emb, 0.99)


def test_alpha_mass_cone_side():
    # sign convention: positive mass drives the vector into the past cone,
    # so its negation is the future-causal representative
    surf, emb = ads_sphere()
    alpha = alpha_from_radii(*enclosing_radii(emb))
    neg = -shitam_alpha_mass(surf, emb, alpha).as_array()
    assert causal_classify(MinkowskiVector(*neg)) is CausalClass.FUTURE_TIMELIKE
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(100):
        eta = random_null_eta(rng)
        assert lorentz_inner(neg, eta.as_array()) < 0.0


def test_mainhyp_vanishes_on_geodesic_spheres():
    field = KillingNormField.from_spinor(SpinorParameter(1.0, 0.3 + 0.2j))
    for radius in (0.8, 1.3, 2.0):
        emb = embed_round(radius, GRID)
        value = mainhyp_functional(emb.surface, emb, field.value_on(emb))
        scale = integrate_scalar(emb.surface, np.abs(field.value_on(emb)))
        assert abs(value) <= 1e-10 * scale
        # constants are in the kernel there as well
        assert abs(mainhyp_functional(emb.surface, emb, 1.0)) <= 1e-10 * emb.surface.area


def test_mainhyp_matches_hat_mass_pairing_when_h_constant():
    # theta-independent H makes the Laplacian term integrate away exactly,
    # leaving the pairing with the modified mass vector
    surf, emb = ads_sphere()
    mhat = hat_mass(surf, emb).as_array()
    rng = np.random.default_rng(RNG_SEED + 1)
    for _ in range(10):
        eta = random_null_eta(rng)
        field = KillingNormField(eta)
        got = mainhyp_functional(surf, emb, field.value_on(emb))
        want = -8.0 * np.pi * lorentz_inner(mhat, eta.as_array())
        assert got == pytest.approx(want, rel=1e-10)


def test_mainhyp_nonnegative_for_null_directions():
    surf, emb = ads_sphere()
    rng = np.random.default_rng(RNG_SEED + 2)
    for _ in range(20):
        field = KillingNormField(random_null_eta(rng))
        f = field.value_on(emb)
        assert mainhyp_functional(surf, emb, f) >= -1e-8 * integrate_scalar(surf, np.abs(f))


def test_mass_equivariance_under_ambient_isometries():
    surf, emb = ads_sphere(eps=0.1)
    mby = by_mass(surf, emb).as_array()
    mhat = hat_mass(surf, emb).as_array()
    rng = np.random.default_rng(RNG_SEED + 3)
    for _ in range(20):
        lam = boost(int(rng.integers(0, 3)), float(rng.uniform(-1.0, 1.0)))
        lam = lam.compose(rotation(int(rng.integers(0, 3)), float(rng.uniform(0, 2 * np.pi))))
        moved = boost_surface(lam, emb)
        got_by = by_mass(surf, moved).as_array()
        got_hat = hat_mass(surf, moved).as_array()
        assert np.max(np.abs(got_by - lam.matrix @ mby)) <= 1e-10 * (1 + np.max(np.abs(mby)))
        assert np.max(np.abs(got_hat - lam.matrix @ mhat)) <= 1e-10 * (1 + np.max(np.abs(mhat)))
        assert causal_classify(MinkowskiVector(*got_by)) is causal_classify(MinkowskiVector(*mby))


def test_mass_pairing_consistent_with_tag():
    surf, emb = ads_sphere()
    m = by_mass(surf, emb)
    assert causal_classify(m) is CausalClass.FUTURE_TIMELIKE
    rng = np.random.default_rng(RNG_SEED + 4)
    for _ in range(1000):
        eta = random_null_eta(rng)
        assert lorentz_inner(m.as_array(), eta.as_array()) < 0.0


def test_mass_result_tags():
    res = MassResult(0.1,
                     MinkowskiVector(0.0, 0.0, 0.0, 1.0),
                     MinkowskiVector(0.0, 0.0, 0.0, -1.0))
    assert res.tag_by is CausalClass.FUTURE_TIMELIKE
    assert res.tag_hat is CausalClass.PAST_TIMELIKE
    assert res.tag_alpha is None
    full = MassResult(0.1,
                      MinkowskiVector(0.0, 0.0, 0.0, 1.0),
                      MinkowskiVector(0.0, 0.0, 0.0, 1.0),
                      m_alpha=MinkowskiVector(1.0, 0.0, 0.0, 1.0))
    assert full.tag_alpha is CausalClass.FUTURE_NULL
