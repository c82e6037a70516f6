"""Quadrature grids, induced sphere geometry, and surface integrals."""

import numpy as np
import pytest

from ahmass import (
    AdSSchwarzschild,
    Hyperbolic,
    MinkowskiVector,
    PerturbedRound,
    QuadratureGrid,
    SurfaceSample,
    coordinate_sphere,
    decay_order,
    embeddability_check,
    integrate_scalar,
    integrate_vector,
    mass_aspect,
    surface_laplacian,
)

GRID = QuadratureGrid(32, 4)


def round_sample(radius_sinh, grid, eps=0.1):
    """Exactly round sample E = sinh^2 R, G = sinh^2 R sin^2 theta."""
    h = 2.0 * np.sqrt(1.0 + radius_sinh ** 2) / radius_sinh
    return SurfaceSample(eps, radius_sinh ** 2, h, 1.0 / radius_sinh ** 2, grid)


def test_round_measure_total():
    ones = np.ones(GRID.shape)
    assert abs(GRID.integrate_round(ones) - 4.0 * np.pi) < 1e-13 * 4.0 * np.pi


def test_quadrature_polynomial_exactness():
    # Gauss-Legendre in cos(theta) is exact through degree 2 n_theta - 1
    x = np.cos(GRID.theta)[:, None] * np.ones((1, GRID.n_phi))
    for k in range(0, 2 * GRID.n_theta, 7):
        got = GRID.integrate_round(x ** k)
        want = 0.0 if k % 2 else 4.0 * np.pi / (k + 1)
        assert abs(got - want) < 1e-13 * (1.0 + abs(want))


def test_grids_share_read_only_theta_tables():
    a, b = QuadratureGrid(64, 4), QuadratureGrid(64, 8)
    assert a.deriv_x is b.deriv_x and a.cheb_x is b.cheb_x
    for table in (a.deriv_x, a.cheb_x):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0.0


def test_barycentric_interpolation():
    # the grid interpolant reproduces polynomials of degree < n_theta,
    # returns node values exactly at the nodes, and serves several
    # columns with one weight matrix
    grid = QuadratureGrid(64, 4)
    rng = np.random.default_rng(7)
    coef = rng.standard_normal(40)
    xq = np.linspace(-1.0, 1.0, 2001)
    want = np.polynomial.chebyshev.chebval(xq, coef)
    got = grid.interp_x(np.polynomial.chebyshev.chebval(grid.x, coef), xq)
    assert got.shape == xq.shape
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))

    values = rng.standard_normal((64, 4))
    at_node = grid.interp_x(values[:, 0], grid.x[5])
    assert isinstance(at_node, float)
    assert at_node == values[5, 0]
    stacked = grid.interp_x(values, xq)
    assert stacked.shape == (xq.size, 4)
    columns = np.stack([grid.interp_x(values[:, k], xq) for k in range(4)], axis=1)
    assert np.max(np.abs(stacked - columns)) <= 1e-14 * np.max(np.abs(values))
    assert np.array_equal(grid.interp_x(values, grid.x[[5, 9]]), values[[5, 9]])


@pytest.mark.parametrize("n_theta", [48, 64])
def test_interpolation_at_uniform_theta(n_theta):
    # the Chebyshev-coefficient FFT path reproduces polynomials of degree
    # < n_theta at x = cos(k pi / n), from x = 1 down, column by column
    grid = QuadratureGrid(n_theta, 4)
    rng = np.random.default_rng(11)
    coef = rng.standard_normal((n_theta, 3))
    values = np.polynomial.chebyshev.chebval(grid.x, coef).T
    got = grid.interp_uniform_theta(values, 2000)
    xq = np.cos(np.linspace(0.0, np.pi, 2001))
    assert got.shape == (2001, 3)
    want = np.polynomial.chebyshev.chebval(xq, coef).T
    assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))
    assert grid.interp_uniform_theta(values[:, 0], n_theta).shape == (n_theta + 1,)
    with pytest.raises(ValueError):
        grid.interp_uniform_theta(values, n_theta - 1)


def test_hyperbolic_sphere_closed_forms():
    for eps in (0.05, 0.2, 0.4):
        s = coordinate_sphere(Hyperbolic(), eps, GRID)
        assert np.max(np.abs(s.H - 2.0 * np.cosh(eps))) < 1e-10
        assert np.max(np.abs(s.K - np.sinh(eps) ** 2)) < 1e-10
        area = 4.0 * np.pi / np.sinh(eps) ** 2
        assert abs(s.area - area) < 1e-10 * area


def test_area_element_round():
    eps = 0.25
    s = coordinate_sphere(Hyperbolic(), eps, GRID)
    want = (np.sin(GRID.theta)[:, None] / np.sinh(eps) ** 2) * np.ones((1, GRID.n_phi))
    assert np.max(np.abs(s.sqrt_det - want)) < 1e-13 / np.sinh(eps) ** 2


def test_odd_field_integrates_to_zero():
    s = round_sample(1.0, GRID)
    w3 = np.cos(GRID.theta)[:, None] * np.ones((1, GRID.n_phi))
    assert abs(integrate_scalar(s, w3)) < 1e-13 * s.area


def test_integrate_vector_constant_and_position():
    s = round_sample(1.0, GRID)
    v = integrate_vector(s, np.broadcast_to(np.array([0.5, -1.0, 2.0, 3.0]), GRID.shape + (4,)))
    assert np.max(np.abs(v.as_array() - s.area * np.array([0.5, -1.0, 2.0, 3.0]))) < 1e-12 * s.area
    th, ph = GRID.theta_mesh, GRID.phi_mesh
    omega = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=-1)
    field = np.concatenate([omega, np.ones(GRID.shape + (1,))], axis=-1)
    v = integrate_vector(s, field)
    assert np.max(np.abs(v.spatial)) < 1e-13 * s.area
    assert v.t == pytest.approx(s.area, rel=1e-13)


def test_reference_difference_vanishes_on_hyperbolic():
    eps = 0.2
    s = coordinate_sphere(Hyperbolic(), eps, GRID)
    th, ph = GRID.theta_mesh, GRID.phi_mesh
    omega = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=-1)
    x = np.concatenate([omega / np.sinh(eps), np.full(GRID.shape + (1,), np.cosh(eps) / np.sinh(eps))], axis=-1)
    integrand = (2.0 * np.cosh(eps) - s.H)[..., None] * x
    v = integrate_vector(s, integrand)
    assert np.max(np.abs(v.as_array())) < 1e-10


def test_embeddability_check():
    assert embeddability_check(coordinate_sphere(Hyperbolic(), 0.1, GRID))
    assert embeddability_check(coordinate_sphere(PerturbedRound(lambda x: 0.1 * x), 0.2, GRID))
    s = round_sample(1.0, GRID)
    flat = SurfaceSample(0.1, s.E, s.H, np.full(GRID.shape, -1.0), GRID)
    assert not embeddability_check(flat)


def test_gauss_curvature_closed_form():
    # u = 1 + c cos(theta), c = eps^3 a / 3: K = sinh^2 eps (1 - lap0(log u) / 2) / u
    a = 0.1
    for n_theta in (32, 64, 128):
        grid = QuadratureGrid(n_theta, 4)
        x = grid.x[:, None]
        for eps in (0.2, 0.05, 0.0125):
            s = coordinate_sphere(PerturbedRound(lambda x: a * x), eps, grid)
            c = eps ** 3 * a / 3.0
            lap_log_u = (-2.0 * x * c * (1.0 + c * x) - (1.0 - x ** 2) * c ** 2) / (1.0 + c * x) ** 2
            k_exact = np.sinh(eps) ** 2 * (1.0 - 0.5 * lap_log_u) / (1.0 + c * x)
            assert np.max(np.abs(s.K - k_exact)) < 1e-12 * np.sinh(eps) ** 2


def test_perturbed_round_sample_properties():
    s = coordinate_sphere(PerturbedRound(lambda x: 0.1 * x), 0.1, GRID)
    assert np.min(s.K) > -1.0
    assert np.min(s.E) > 0.0 and np.min(s.E * s.G) > 0.0
    assert np.array_equal(s.G, s.E * (GRID.sin_theta ** 2)[:, None])


def test_surface_sample_rejects_phi_varying_fields():
    # a coordinate sphere is axisymmetric: E, H and K are theta profiles,
    # and a grid array that varies in phi is refused at construction
    sh = np.sinh(1.0)
    fields = {"E": sh * sh, "H": 2.5, "K": 1.0 / sh ** 2}
    wobble = 1.0 + 0.01 * np.cos(GRID.phi_mesh)
    for name in fields:
        bad = dict(fields, **{name: fields[name] * wobble})
        with pytest.raises(ValueError, match="vary in phi"):
            SurfaceSample(0.1, bad["E"], bad["H"], bad["K"], GRID)
    profile = np.full(GRID.n_theta, sh * sh)
    s = SurfaceSample(0.1, profile, fields["H"], np.full(GRID.shape, fields["K"]), GRID)
    assert np.array_equal(s.E, np.full(GRID.shape, sh * sh))
    with pytest.raises(ValueError, match="degenerate"):
        SurfaceSample(0.1, -profile, fields["H"], fields["K"], GRID)


@pytest.mark.parametrize("family,psi_scale", [
    (AdSSchwarzschild(1.0), None),
    (PerturbedRound(lambda x: 0.1 * x), 0.1),
])
def test_mean_curvature_cubic_coefficient(family, psi_scale):
    # (2 cosh eps - H)/eps^3 approaches the trace coefficient of the aspect
    eps = 0.025
    s = coordinate_sphere(family, eps, GRID)
    psi = mass_aspect(family, GRID)[:, None]
    resid = np.max(np.abs((2.0 * np.cosh(eps) - s.H) / eps ** 3 - psi))
    assert resid < 0.02 * (1.0 + np.max(np.abs(psi)))


def test_gauss_curvature_expansion_order():
    eps_list = list(np.geomspace(0.2, 0.04, 6))
    # the perturbed cases use the identity suite's rounding floor for K
    floor = 1e-11 * np.sinh(eps_list) ** 2
    cases = ((AdSSchwarzschild(1.0), GRID, 1e-13),
             (PerturbedRound(lambda x: 0.1 * x), QuadratureGrid(64, 4), floor),
             (PerturbedRound(lambda x: 0.1 * x), QuadratureGrid(128, 4), floor))
    for family, grid, fl in cases:
        vals = []
        for eps in eps_list:
            s = coordinate_sphere(family, eps, grid)
            vals.append(np.max(np.abs(s.K - np.sinh(eps) ** 2)))
        assert decay_order(vals, eps_list, floor=fl) >= 4.5


def test_area_growth_toward_round():
    eps_list = np.geomspace(0.2, 0.05, 6)
    vals = [coordinate_sphere(Hyperbolic(), e, GRID).area * e ** 2 for e in eps_list]
    # second order approach to the unit-sphere area
    slope = np.polyfit(np.log(eps_list), np.log(np.abs(np.array(vals) - 4.0 * np.pi)), 1)[0]
    assert abs(vals[-1] - 4.0 * np.pi) < 2e-3 * 4.0 * np.pi
    assert 1.8 < slope < 2.2


def test_surface_laplacian_divergence_free():
    s = coordinate_sphere(PerturbedRound(lambda x: 0.1 * x), 0.2, GRID)
    th, ph = GRID.theta_mesh, GRID.phi_mesh
    for field in (np.exp(np.cos(th)), np.sin(th) ** 2 * np.cos(2 * ph) + np.cos(th)):
        lap = surface_laplacian(s, field)
        assert abs(integrate_scalar(s, lap)) < 1e-9 * (1.0 + s.area)


def test_surface_laplacian_round_eigenfunction():
    eps = 0.3
    s = coordinate_sphere(Hyperbolic(), eps, GRID)
    f = np.cos(GRID.theta_mesh)
    lap = surface_laplacian(s, f)
    # degree-one harmonic on a round sphere of intrinsic radius 1/sinh(eps)
    want = -2.0 * np.sinh(eps) ** 2 * f
    assert np.max(np.abs(lap - want)) < 1e-9


def test_coordinate_sphere_range_checks():
    with pytest.raises(ValueError):
        coordinate_sphere(Hyperbolic(), 0.7, GRID)
    with pytest.raises(ValueError):
        coordinate_sphere(Hyperbolic(), 0.0, GRID)
