"""Quasi-local mass vectors of embedded coordinate spheres and the scalar
functional behind the modified mass."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from ahmass import (
    AdSSchwarzschild,
    CausalClass,
    Hyperbolic,
    KillingNormField,
    MinkowskiVector,
    PerturbedRound,
    QuadratureGrid,
    SpinorParameter,
    SurfaceSample,
    alpha_from_radii,
    alpha_mass,
    boost,
    boost_surface,
    by_mass,
    causal_classify,
    coordinate_sphere,
    default_schedule,
    embed_round,
    embed_surface,
    embed_surfaces,
    enclosing_radii,
    hat_mass,
    hopf_eta,
    integrate_scalar,
    lorentz_inner,
    mass_vectors,
    rotation,
)
from ahmass.killing_spinor import values_on
from ahmass.quasilocal import enclosing_radii_stack
from oracles import mainhyp_functional

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
    assert np.max(np.abs(alpha_mass(by_mass(surf, emb), 1.5).as_array())) <= 1e-8


def test_ads_sphere_masses_future_timelike():
    surf, emb = ads_sphere()
    mby = by_mass(surf, emb)
    mhat = hat_mass(surf, emb)
    assert causal_classify(mby) is CausalClass.FUTURE_TIMELIKE
    assert causal_classify(mhat) is CausalClass.FUTURE_TIMELIKE
    assert np.max(np.abs(mby.as_array()[:3])) < 1e-12
    assert np.max(np.abs(mhat.as_array()[:3])) < 1e-12
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


def test_enclosing_radii_stack_equals_scalar_arccosh():
    # one arccosh over the stack's extrema equals each embedding's scalar
    # arccosh of its own extrema, to the bit; the one-item call is a row
    fams = [Hyperbolic(), AdSSchwarzschild(1.0), PerturbedRound(lambda x: 0.1 * x),
            PerturbedRound(lambda x: 0.05 - 0.08 * x + 0.06 * x ** 2)]
    embs = [embed_surface(coordinate_sphere(fam, eps, GRID))
            for fam in fams for eps in default_schedule(count=12)]
    got = enclosing_radii_stack(embs)
    assert got.shape == (len(embs), 2)
    for row, emb in zip(got, embs):
        t = emb.X[..., 3]
        want = (float(np.arccosh(np.min(t))), float(np.arccosh(np.max(t))))
        assert tuple(row.tolist()) == want
        assert enclosing_radii(emb) == want
        assert all(type(r) is float for r in enclosing_radii(emb))


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
    assert alpha_mass(by_mass(surf, emb), 1.0) == by_mass(surf, emb)


def test_alpha_mass_rejects_alpha_below_one():
    surf, emb = ads_sphere()
    with pytest.raises(ValueError):
        alpha_mass(by_mass(surf, emb), 0.99)


def test_alpha_mass_refuses_nan_alpha():
    # a NaN alpha fails alpha < 1 too, so the check is written not alpha >= 1
    surf, emb = ads_sphere()
    with pytest.raises(ValueError, match="alpha must be at least 1"):
        alpha_mass(by_mass(surf, emb), float("nan"))


def test_alpha_mass_cone_side():
    # on the m_BY scale a positive mass drives the vector into the future cone
    surf, emb = ads_sphere()
    alpha = alpha_from_radii(*enclosing_radii(emb))
    m = alpha_mass(by_mass(surf, emb), alpha)
    assert causal_classify(m) is CausalClass.FUTURE_TIMELIKE
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(100):
        eta = random_null_eta(rng)
        assert lorentz_inner(m.as_array(), eta.as_array()) < 0.0


def test_mainhyp_vanishes_on_geodesic_spheres():
    field = KillingNormField.from_spinor(SpinorParameter(1.0, 0.3 + 0.2j))
    for radius in (0.8, 1.3, 2.0):
        emb = embed_round(radius, GRID)
        value = mainhyp_functional(emb.surface, emb, values_on([field], [emb])[0])
        scale = integrate_scalar(emb.surface, np.abs(values_on([field], [emb])[0]))
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
        got = mainhyp_functional(surf, emb, values_on([field], [emb])[0])
        want = -8.0 * np.pi * lorentz_inner(mhat, eta.as_array())
        assert got == pytest.approx(want, rel=1e-10)


def test_mainhyp_nonnegative_for_null_directions():
    surf, emb = ads_sphere()
    rng = np.random.default_rng(RNG_SEED + 2)
    for _ in range(20):
        field = KillingNormField(random_null_eta(rng))
        f = values_on([field], [emb])[0]
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


def stand_in_embedding(grid, H0, X):
    # mass_vectors reads only the grid, H0 and X of an embedding
    return SimpleNamespace(grid=grid, H0=grid.as_field(H0), X=np.asarray(X, dtype=float))


GRID32 = QuadratureGrid(32, 4)


def test_mass_vectors_integrate_constant_and_position():
    # H = 0 and H0 = 1 make 8 pi m_BY the surface integral of X
    s = SurfaceSample(0.1, 1.0, 0.0, 1.0, GRID32)
    const = np.broadcast_to(np.array([0.5, -1.0, 2.0, 3.0]), GRID32.shape + (4,))
    v = 8.0 * np.pi * mass_vectors([s], [stand_in_embedding(GRID32, 1.0, const)])[0][0]
    assert np.max(np.abs(v - s.area * np.array([0.5, -1.0, 2.0, 3.0]))) < 1e-12 * s.area
    th, ph = GRID32.theta_mesh, GRID32.phi_mesh
    omega = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=-1)
    field = np.concatenate([omega, np.ones(GRID32.shape + (1,))], axis=-1)
    v = 8.0 * np.pi * mass_vectors([s], [stand_in_embedding(GRID32, 1.0, field)])[0][0]
    assert np.max(np.abs(v[:3])) < 1e-13 * s.area
    assert v[3] == pytest.approx(s.area, rel=1e-13)


def test_mass_vectors_reference_difference_vanishes_on_hyperbolic():
    # H0 = 2 cosh eps and X the geodesic sphere of the same area
    eps = 0.2
    s = coordinate_sphere(Hyperbolic(), eps, GRID32)
    th, ph = GRID32.theta_mesh, GRID32.phi_mesh
    omega = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=-1)
    t = np.full(GRID32.shape + (1,), np.cosh(eps) / np.sinh(eps))
    x = np.concatenate([omega / np.sinh(eps), t], axis=-1)
    m_by = mass_vectors([s], [stand_in_embedding(GRID32, 2.0 * np.cosh(eps), x)])[0][0]
    assert np.max(np.abs(8.0 * np.pi * m_by)) < 1e-10


def reference_masses(surf, emb, alpha):
    """m_BY, m_hat and m_alpha of one sphere as one integrate_scalar call
    per component, each density built as the functional defines it."""
    H, H0, X = surf.H, emb.H0, emb.X
    scaled = X.copy()
    scaled[..., 3] *= alpha
    dens = ((H0 - H)[..., None] * X, ((H0 ** 2 - H ** 2) / (H + 2.0))[..., None] * X,
            (H0 - H)[..., None] * scaled)
    c = 1.0 / (8.0 * np.pi)
    return [np.array([c * integrate_scalar(surf, d[..., k]) for k in range(4)]) for d in dens]


@pytest.mark.parametrize("grid", [QuadratureGrid(48, 4), QuadratureGrid(64, 6)])
def test_mass_stack_matches_integrate_scalar(grid):
    # AdS spheres take the closed form, poly_cos spheres the quadrature;
    # every m_BY and m_hat row, area and one-sphere functional equals the
    # per-sphere reference to the bit, and m_alpha, stretched from m_BY,
    # matches its own integral to rounding
    surfs = [coordinate_sphere(fam, eps, grid)
             for fam in (AdSSchwarzschild(1.0), AdSSchwarzschild(3.3),
                         PerturbedRound(np.polynomial.Polynomial([0.05, -0.08, 0.06])),
                         PerturbedRound(lambda x: 0.1 * x))
             for eps in default_schedule(0.2, 2 ** -0.5, 6)]
    embs = embed_surfaces(surfs)
    alphas = [alpha_from_radii(*enclosing_radii(e)) for e in embs]
    m_by, m_hat, area, bad = mass_vectors(surfs, embs)
    assert bad.shape == (len(surfs), 2) and not bad.any()
    for got in (m_by, m_hat, area):
        assert got.shape[0] == len(surfs)
    for i, (surf, emb, alpha) in enumerate(zip(surfs, embs, alphas)):
        want = reference_masses(surf, emb, alpha)
        assert np.array_equal(m_by[i], want[0]) and np.array_equal(m_hat[i], want[1])
        assert area[i] == surf.area
        assert np.array_equal(by_mass(surf, emb).as_array(), want[0])
        assert np.array_equal(hat_mass(surf, emb).as_array(), want[1])
        got = alpha_mass(by_mass(surf, emb), alpha).as_array()
        assert np.array_equal(got, np.append(m_by[i][:3], alpha * m_by[i][3]))
        assert np.max(np.abs(got - want[2])) <= 1e-14 * (1.0 + np.max(np.abs(want[2])))


def test_mass_vectors_mark_non_finite_rows():
    surfs = [coordinate_sphere(AdSSchwarzschild(1.0), eps, GRID) for eps in (0.1, 0.05)]
    embs = embed_surfaces(surfs)
    X = embs[1].X.copy()
    X[3, 1, 3] = np.nan
    broken = stand_in_embedding(GRID, embs[1].H0, X)
    m_by, _, _, bad = mass_vectors(surfs, [embs[0], broken])
    assert bad.tolist() == [[False] * 2, [True] * 2]
    assert np.array_equal(m_by[0], by_mass(surfs[0], embs[0]).as_array())
    for fn in (by_mass, hat_mass):
        with pytest.raises(ValueError, match="field has non-finite entries"):
            fn(surfs[1], broken)
    # mismatched or empty stacks are refused, not broadcast
    for stack in ((surfs, embs[:1]), (surfs[:1], embs), ([], [])):
        with pytest.raises(ValueError, match="one embedding per surface"):
            mass_vectors(*stack)
    with pytest.raises(ValueError, match="different grids"):
        mass_vectors(surfs, [embs[0], embed_round(1.0, QuadratureGrid(32, 4))])
