"""Killing spinor fields on the hyperboloid: explicit components, the
squared-norm field, its geodesic restriction, and the surface identity."""

import math

import numpy as np
import pytest

from ahmass import (
    Hyperbolic,
    KillingNormField,
    MinkowskiVector,
    PerturbedRound,
    QuadratureGrid,
    SpinorParameter,
    coordinate_sphere,
    embed_round,
    embed_surface,
    exhaustion_norm_growth,
    hopf_eta,
    lorentz_inner,
    minkowski_identity_residual,
    surface_laplacian,
)
from ahmass.killing_spinor import minkowski_identity_residuals, values_on
from ahmass.sphere_geometry import coordinate_spheres
from ahmass.embed_h3 import embed_surfaces
from ahmass.sweep import family_from_spec
from oracles import (
    SpinorValue,
    geodesic_norm_check,
    gradient_identity_residual,
    hyperboloid_point,
    spinor_at,
    spinor_polar_point,
)

RNG_SEED = 20240812


def random_spinor(rng):
    return SpinorParameter(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))


def random_points(rng, n):
    r = rng.uniform(0.0, 3.0, size=n)
    th = np.arccos(rng.uniform(-1.0, 1.0, size=n))
    ph = rng.uniform(0.0, 2 * np.pi, size=n)
    sr = np.sinh(r)
    return np.stack([sr * np.sin(th) * np.cos(ph), sr * np.sin(th) * np.sin(ph),
                     sr * np.cos(th), np.cosh(r)], axis=-1)


def test_norm_at_origin_is_parameter_norm():
    z = SpinorParameter(0.3 + 0.7j, -1.1 + 0.2j)
    want = abs(z.z1) ** 2 + abs(z.z2) ** 2
    for th, ph in [(0.0, 0.0), (1.1, 2.2), (np.pi / 2, 4.0), (3.0, 5.5)]:
        assert spinor_at(z, 0.0, th, ph).norm_sq == pytest.approx(want, rel=1e-14)


def test_component_norm_matches_field_everywhere():
    # |spinor|^2 at (r, th, ph) equals -<<X, eta>> at the matching point
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(40):
        z = random_spinor(rng)
        field = KillingNormField.from_spinor(z)
        r = rng.uniform(0.0, 3.0, size=250)
        th = rng.uniform(0.0, np.pi, size=250)
        ph = rng.uniform(0.0, 2 * np.pi, size=250)
        for ri, ti, pi in zip(r, th, ph):
            got = spinor_at(z, ri, ti, pi).norm_sq
            want = field.value(spinor_polar_point(ri, ti, pi).as_array())
            assert abs(got - want) <= 1e-12 * (1.0 + abs(want))


def test_array_calls_match_scalar_calls():
    rng = np.random.default_rng(RNG_SEED + 6)
    z = random_spinor(rng)
    r = rng.uniform(0.0, 3.0, size=200)
    th = rng.uniform(0.0, np.pi, size=200)
    ph = rng.uniform(0.0, 2 * np.pi, size=200)
    norms = spinor_at(z, r, th, ph).norm_sq
    pts = spinor_polar_point(r, th, ph)
    assert norms.shape == (200,) and pts.shape == (200, 4)
    for k in range(200):
        sv = spinor_at(z, r[k], th[k], ph[k])
        assert isinstance(sv, SpinorValue)
        assert isinstance(sv.c1, complex) and isinstance(sv.c2, complex)
        assert isinstance(sv.norm_sq, float)
        assert abs(norms[k] - sv.norm_sq) <= 1e-15 * sv.norm_sq
        x = spinor_polar_point(r[k], th[k], ph[k])
        assert isinstance(x, MinkowskiVector)
        assert np.all(np.abs(pts[k] - x.as_array()) <= 1e-15 * np.abs(x.as_array()))
    grid = spinor_at(z, r[:3, None], th[None, :5], 0.4)
    assert grid.c1.shape == grid.c2.shape == (3, 5)
    with pytest.raises(ValueError):
        spinor_polar_point(np.array([0.5, -0.1]), 0.0, 0.0)


def test_spinor_components_antiperiodic():
    z = SpinorParameter(0.8 - 0.1j, 0.4 + 0.9j)
    a = spinor_at(z, 1.3, 0.7, 0.9)
    b = spinor_at(z, 1.3, 0.7, 0.9 + 2 * math.pi)
    assert b.c1 == pytest.approx(-a.c1, rel=1e-13)
    assert b.c2 == pytest.approx(-a.c2, rel=1e-13)
    assert b.norm_sq == pytest.approx(a.norm_sq, rel=1e-13)


def test_norm_field_reference_values():
    # eta = e_t gives F = cosh r; the basis spinor grows like e^r along its axis
    unit_time = KillingNormField(MinkowskiVector(0.0, 0.0, 0.0, 1.0))
    assert unit_time.value(MinkowskiVector(0.0, 0.0, 0.0, 1.0)) == 1.0
    for r in (0.5, 1.5, 2.5):
        x = hyperboloid_point(r, 0.4, 1.0)
        assert unit_time.value(x) == pytest.approx(math.cosh(r), rel=1e-13)
    basis = KillingNormField.from_spinor(SpinorParameter(1.0, 0.0))
    for r in (0.5, 1.5, 2.5):
        f = basis.value(spinor_polar_point(r, 0.0, 0.0))
        assert f == pytest.approx(math.exp(r), rel=1e-12)


def test_norm_field_positive_for_spinor_eta():
    rng = np.random.default_rng(RNG_SEED + 1)
    for _ in range(20):
        z = random_spinor(rng)
        if abs(z.z1) + abs(z.z2) < 1e-3:
            continue
        field = KillingNormField.from_spinor(z)
        assert np.all(field.value(random_points(rng, 500)) > 0.0)


def test_norm_field_rejects_off_sheet_points():
    field = KillingNormField(MinkowskiVector(0.0, 0.0, 0.0, 1.0))
    with pytest.raises(ValueError, match="off the hyperboloid"):
        gradient_identity_residual(field, MinkowskiVector(1.0, 0.0, 0.0, 1.0))


def test_geodesic_restriction_exponential():
    # F restricted to any unit-speed geodesic is A e^t + B e^{-t} exactly
    rng = np.random.default_rng(RNG_SEED + 2)
    t = np.linspace(-1.0, 1.0, 9)
    for _ in range(100):
        field = KillingNormField.from_spinor(random_spinor(rng))
        x0 = hyperboloid_point(rng.uniform(0.0, 2.0), math.acos(rng.uniform(-1, 1)),
                               rng.uniform(0.0, 2 * np.pi))
        v = np.append(rng.normal(size=3), 0.0)
        v = v + lorentz_inner(v, x0.as_array()) * x0.as_array()
        v = v / math.sqrt(lorentz_inner(v, v))
        a, b, resid = geodesic_norm_check(field, x0, MinkowskiVector(*v), t)
        scale = max(abs(a), abs(b), 1.0)
        assert resid <= 1e-10 * scale


def test_geodesic_through_origin_coefficient_sum():
    # at the origin F = cosh t eta_t - sinh t <<V, eta>>, so A + B = eta_t
    rng = np.random.default_rng(RNG_SEED + 3)
    origin = MinkowskiVector(0.0, 0.0, 0.0, 1.0)
    t = np.linspace(-1.5, 1.5, 11)
    for _ in range(25):
        eta = hopf_eta(random_spinor(rng))
        v = np.append(rng.normal(size=3), 0.0)
        v = v / math.sqrt(lorentz_inner(v, v))
        a, b, _ = geodesic_norm_check(KillingNormField(eta), origin, MinkowskiVector(*v), t)
        assert a + b == pytest.approx(eta.t, abs=1e-12 * (1 + abs(eta.t)))


def test_geodesic_check_validates_input():
    field = KillingNormField(MinkowskiVector(0.0, 0.0, 0.0, 1.0))
    origin = MinkowskiVector(0.0, 0.0, 0.0, 1.0)
    ex = MinkowskiVector(1.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="constant norm field"):
        geodesic_norm_check(KillingNormField(MinkowskiVector(0.0, 0.0, 0.0, 0.0)),
                            origin, ex, [0.0, 1.0])
    with pytest.raises(ValueError, match="off the hyperboloid"):
        geodesic_norm_check(field, MinkowskiVector(1.0, 0.0, 0.0, 1.0), ex, [0.0, 1.0])
    with pytest.raises(ValueError, match="unit spacelike"):
        geodesic_norm_check(field, origin, MinkowskiVector(2.0, 0.0, 0.0, 0.0), [0.0, 1.0])
    # unit spacelike, but not tangent at the start
    x0 = np.array([math.sinh(0.5), 0.0, 0.0, math.cosh(0.5)])
    with pytest.raises(ValueError, match="tangent"):
        geodesic_norm_check(field, x0, ex, [0.0, 1.0])
    for t in ([1.0], [0.5, 0.5]):
        with pytest.raises(ValueError, match="two distinct"):
            geodesic_norm_check(field, origin, ex, t)


def test_gradient_identity():
    # |grad F|^2 = F^2 + <<eta, eta>> with grad F = F X - eta projected
    rng = np.random.default_rng(RNG_SEED + 4)
    pts = random_points(rng, 2000)
    for _ in range(10):
        field = KillingNormField.from_spinor(random_spinor(rng))
        scale = 1.0 + float(np.max(field.value(pts)) ** 2)
        assert gradient_identity_residual(field, pts) <= 1e-10 * scale
    unit_time = KillingNormField(MinkowskiVector(0.0, 0.0, 0.0, 1.0))
    assert gradient_identity_residual(unit_time, pts) <= 1e-10 * float(np.max(np.cosh(3.0) ** 2))


def unit_spinor(rng):
    a = rng.standard_normal(4)
    a = a / float(np.linalg.norm(a))
    return SpinorParameter(complex(a[0], a[1]), complex(a[2], a[3]))


def sheet_points(r, ct, ph):
    # points at geodesic distance r from the origin, polar cosine ct, azimuth ph
    st = np.sqrt(1.0 - ct ** 2)
    omega = np.stack([st * np.cos(ph), st * np.sin(ph), ct], axis=1)
    return np.concatenate([np.sinh(r)[:, None] * omega, np.cosh(r)[:, None]], axis=1)


def test_verify_draws_at_default_seed():
    # absolute bounds on the config-independent spinor identities, drawn in
    # this order from the seed verify once drew its spinors from: 10 x 1000
    # norm samples, 100 geodesics, then 2000 gradient points
    rng = np.random.default_rng(94211)
    worst = 0.0
    for _ in range(10):
        z = unit_spinor(rng)
        field = KillingNormField.from_spinor(z)
        r = rng.uniform(0.0, 3.0, 1000)
        th = rng.uniform(0.0, np.pi, 1000)
        ph = rng.uniform(0.0, 2.0 * np.pi, 1000)
        f = field.value(spinor_polar_point(r, th, ph))
        worst = max(worst, float(np.max(np.abs(spinor_at(z, r, th, ph).norm_sq - f))))
    assert worst <= 1e-12

    fields, r, ct, ph, y = [], [], [], [], []
    for _ in range(100):  # the draws interleave per geodesic
        fields.append(KillingNormField.from_spinor(unit_spinor(rng)))
        r.append(rng.uniform(0.05, 2.0))
        ct.append(rng.uniform(-1.0, 1.0))
        ph.append(rng.uniform(0.0, 2.0 * np.pi))
        y.append(rng.standard_normal(4))
    x0, y = sheet_points(np.array(r), np.array(ct), np.array(ph)), np.array(y)
    v = y + lorentz_inner(y, x0)[:, None] * x0
    v = v / np.sqrt(lorentz_inner(v, v))[:, None]
    t = np.linspace(-1.0, 1.0, 9)
    assert max(geodesic_norm_check(f, x0[k], v[k], t)[2] for k, f in enumerate(fields)) <= 1e-10

    field = KillingNormField.from_spinor(unit_spinor(rng))
    pts = sheet_points(rng.uniform(0.05, 2.5, 2000), rng.uniform(-1.0, 1.0, 2000),
                       rng.uniform(0.0, 2.0 * np.pi, 2000))
    assert gradient_identity_residual(field, pts) <= 1e-10


def test_surface_identity_round_spheres():
    # lap F = 2 F + H0 dF/dnu on geodesic spheres, to rounding
    grid = QuadratureGrid(32, 4)
    rng = np.random.default_rng(RNG_SEED + 5)
    for R in (0.5, 1.0, 2.0):
        emb = embed_round(R, grid)
        for _ in range(5):
            field = KillingNormField.from_spinor(random_spinor(rng))
            scale = 1.0 + float(np.max(np.abs(values_on([field], [emb])[0])))
            assert minkowski_identity_residual(field, emb) <= 1e-7 * scale


def test_surface_identity_refinement_floor():
    # on a non-round sphere the residual sits at the rounding floor on
    # every grid: the operators are spectral and the data analytic, so
    # there is no truncation regime to observe
    fam = PerturbedRound(lambda x: 0.3 * x + 0.1 * (1.0 - x ** 2))
    field = KillingNormField.from_spinor(SpinorParameter(0.9 + 0.2j, -0.4 + 0.6j))
    for n_theta in (16, 24, 32, 40):
        emb = embed_surface(coordinate_sphere(fam, 0.1, QuadratureGrid(n_theta, 4)))
        assert minkowski_identity_residual(field, emb) <= 1e-8


def test_stacked_surface_identity_matches_solo():
    # verify's surface_identity stack: round and non-round spheres of one
    # grid, each with its own field; every item is the one-pair call and
    # the pre-stack formula (one surface_laplacian per sphere), bit for bit
    grid = QuadratureGrid(64, 4)
    fam, _ = family_from_spec({"name": "perturbed_round",
                               "psi": {"type": "poly_cos", "coefficients": [0.05, -0.08, 0.06]}})
    surfs = ([coordinate_sphere(fam, eps, grid) for eps in (0.2, 0.05, 0.0044)]
             + [coordinate_sphere(Hyperbolic(), eps, grid) for eps in (0.3, 0.01)])
    embs = [embed_surface(s) for s in surfs]
    rng = np.random.default_rng(RNG_SEED + 7)
    fields = [KillingNormField.from_spinor(random_spinor(rng)) for _ in embs]
    got = minkowski_identity_residuals(fields, embs)
    assert len(got) == len(embs) and all(type(r) is float for r in got)
    for r, field, emb in zip(got, fields, embs):
        assert r == minkowski_identity_residual(field, emb)
        f = values_on([field], [emb])[0]
        nu_f = -lorentz_inner(emb.normal, field.eta.as_array())
        lap = surface_laplacian(emb.surface, f)
        assert r == float(np.max(np.abs(lap - 2.0 * f - emb.H0 * nu_f)))
    assert minkowski_identity_residuals([], []) == []


def test_exhaustion_growth_order():
    # peak of F on coordinate spheres grows like 1/eps
    grid = QuadratureGrid(32, 4)
    embs = [embed_surface(coordinate_sphere(Hyperbolic(), float(e), grid))
            for e in np.geomspace(0.2, 0.05, 5)]
    field = KillingNormField.from_spinor(SpinorParameter(1.0, 0.5 - 0.5j))
    p = exhaustion_norm_growth(field, embs)
    assert abs(p - 1.0) <= 0.05
    timelike = KillingNormField(MinkowskiVector(0.1, -0.2, 0.0, 2.0))
    p2 = exhaustion_norm_growth(timelike, embs)
    assert abs(p2 - 1.0) <= 0.05


def test_exhaustion_growth_matches_per_embedding_peaks():
    # the stacked peaks and the shared log-log fit against a loop over the
    # embeddings with its own least-squares call, bit for bit
    grid = QuadratureGrid(64, 5)
    fam, _ = family_from_spec({"name": "perturbed_round",
                               "psi": {"type": "poly_cos", "coefficients": [0.05, -0.08, 0.06]}})
    embs = embed_surfaces(coordinate_spheres(fam, [0.2, 0.14, 0.1, 0.07, 0.05, 0.035], grid))
    rng = np.random.default_rng(RNG_SEED + 11)
    fields = [KillingNormField.from_spinor(random_spinor(rng)),
              KillingNormField(MinkowskiVector(0.1, -0.2, 0.0, 2.0))]
    assert np.array_equal(values_on(fields * 3, embs),
                          np.stack([f.value(e.X) for f, e in zip(fields * 3, embs)]))
    for field in fields:
        peaks = [float(np.max(field.value(emb.X))) for emb in embs]
        eps = np.array([emb.surface.eps for emb in embs])
        basis = np.stack([np.ones_like(eps), np.log(eps)], axis=1)
        coef, *_ = np.linalg.lstsq(basis, np.log(peaks), rcond=None)
        assert exhaustion_norm_growth(field, embs) == float(-coef[1])


def test_exhaustion_growth_needs_two_radii():
    field = KillingNormField.from_spinor(SpinorParameter(1.0, 0.0))
    emb = embed_surface(coordinate_sphere(Hyperbolic(), 0.1, QuadratureGrid(16, 4)))
    with pytest.raises(ValueError):
        exhaustion_norm_growth(field, [emb])
