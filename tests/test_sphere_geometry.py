"""Quadrature grids, induced sphere geometry, and surface integrals."""

import numpy as np
import pytest

from ahmass import (
    AdSSchwarzschild,
    Hyperbolic,
    KillingNormField,
    MinkowskiVector,
    PerturbedRound,
    QuadratureGrid,
    SpinorParameter,
    SurfaceSample,
    coordinate_sphere,
    decay_order,
    embed_surfaces,
    integrate_scalar,
    mass_aspect,
    surface_laplacian,
)
from ahmass import embed_h3, family_from_spec
from ahmass.quasilocal import laplacian_terms
from ahmass.killing_spinor import values_on
from ahmass.sphere_geometry import coordinate_spheres, integrate_scalars, surface_laplacians

GRID = QuadratureGrid(32, 4)


def round_sample(radius_sinh, grid, eps=0.1):
    """Exactly round sample E = sinh^2 R, G = sinh^2 R sin^2 theta."""
    h = 2.0 * np.sqrt(1.0 + radius_sinh ** 2) / radius_sinh
    return SurfaceSample(eps, radius_sinh ** 2, h, 1.0 / radius_sinh ** 2, grid)


def test_round_measure_total():
    ones = np.ones(GRID.shape)
    got = GRID.w_phi * np.einsum("i,ij->", GRID.w_theta, ones)
    assert abs(got - 4.0 * np.pi) < 1e-13 * 4.0 * np.pi


def test_quadrature_polynomial_exactness():
    # Gauss-Legendre in cos(theta) is exact through degree 2 n_theta - 1
    x = np.cos(GRID.theta)[:, None] * np.ones((1, GRID.n_phi))
    for k in range(0, 2 * GRID.n_theta, 7):
        got = GRID.w_phi * np.einsum("i,ij->", GRID.w_theta, x ** k)
        want = 0.0 if k % 2 else 4.0 * np.pi / (k + 1)
        assert abs(got - want) < 1e-13 * (1.0 + abs(want))


def test_grids_share_read_only_theta_tables():
    a, b = QuadratureGrid(64, 4), QuadratureGrid(64, 8)
    assert a.deriv_x is b.deriv_x and a.bary_w is b.bary_w
    for table in (a.deriv_x, a.bary_w):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0.0


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


@pytest.mark.parametrize("n_theta", [48, 64, 128])
def test_exact_weights_reproduce_polynomials(n_theta):
    # interp_x at 2001 points and deriv_x at the nodes reproduce 20 random
    # Chebyshev polynomials of degree < n_theta to 5e-13 of each one's
    # largest value (its derivative's, for deriv_x); closed-form weights,
    # about 1e-12 off the exact ones, read 8e-13 to 2e-11 here
    grid = QuadratureGrid(n_theta, 4)
    cheb = np.polynomial.chebyshev
    coef = np.random.default_rng(n_theta).standard_normal((n_theta, 20))
    xq = np.linspace(-1.0, 1.0, 2001)
    nodal = cheb.chebval(grid.x, coef).T
    for got, want in ((grid.interp_x(nodal, xq), cheb.chebval(xq, coef).T),
                      (grid.deriv_x @ nodal, cheb.chebval(grid.x, cheb.chebder(coef)).T)):
        assert np.max(np.abs(got - want) / np.max(np.abs(want), axis=0)) <= 5e-13


@pytest.mark.parametrize("n_theta", [48, 64])
def test_interpolation_at_uniform_theta(n_theta):
    # the embedding's cached probe table reproduces polynomials of degree
    # < n_theta at x = cos(k pi / 2000), from x = 1 down, column by column
    grid = QuadratureGrid(n_theta, 4)
    rng = np.random.default_rng(11)
    coef = rng.standard_normal((n_theta, 3))
    values = np.polynomial.chebyshev.chebval(grid.x, coef).T
    table = embed_h3._probe_table(n_theta)
    assert table.shape == (n_theta, 2001) and table.flags.c_contiguous
    got = (values.T @ table).T
    xq = np.cos(np.linspace(0.0, np.pi, 2001))
    assert got.shape == (2001, 3)
    want = np.polynomial.chebyshev.chebval(xq, coef).T
    assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))


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


def test_surface_sample_leaves_caller_arrays_writeable():
    # the sample freezes its own copies, never the caller's arrays
    E, H, K = (np.full(GRID.shape, v) for v in (2.0, 2.5, 0.5))
    s = SurfaceSample(0.1, E, H, K, GRID)
    assert E.flags.writeable and H.flags.writeable and K.flags.writeable
    assert not s.E.flags.writeable
    E[0, 0] = 3.0
    assert s.E[0, 0] == 2.0


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


def scalar_sphere(family, eps, grid):
    # coordinate_sphere's formulas at one radius in their scalar form: the
    # family's one-radius profiles, numpy scalars for sinh and cosh, and
    # plain matrix-vector products for lap0
    (u,), (du,), _, _ = family.collar_profiles([eps], grid.theta)
    sh, ch = np.sinh(eps), np.cosh(eps)
    log_u_x = grid.deriv_x @ np.log(u)
    lap0 = (1.0 - grid.x ** 2) * (grid.deriv_x @ log_u_x) - 2.0 * grid.x * log_u_x
    K = sh ** 2 * (1.0 - 0.5 * lap0) / u
    return SurfaceSample(eps, u / sh ** 2, 2.0 * ch - sh * du / u, K, grid), u


def poly_family(*coefficients):
    spec = {"name": "perturbed_round", "psi": {"type": "poly_cos", "coefficients": list(coefficients)}}
    return family_from_spec(spec)[0]


# 0.22500000000000006 ** 3 and sinh(0.3181980515339464) ** 2 differ in the
# last bit between the scalar power and numpy's array power
TRAP_RADII = [0.3181980515339464, 0.22500000000000006]


@pytest.mark.parametrize("family, radii, n_errors", [
    (Hyperbolic(), [0.4, 0.3, 0.01, 0.7, 0.0], 2),  # out of range
    (AdSSchwarzschild(1.0), TRAP_RADII + [0.1, 0.003], 0),
    # 0.5 and 0.3: no collar radius in bracket; 0.6: out of range
    (AdSSchwarzschild(100.0), [0.5, 0.3, 0.2, 0.1, 0.05, 0.6], 3),
    (poly_family(0.0, 0.0, -20.0), TRAP_RADII + [0.2, 0.05, 0.0044], 0),
    (poly_family(0.05, -0.08, 0.06), [0.2, 0.1414213562373095, 0.0044, -0.1], 1),
    # 0.45: u <= 0; just above 0.5: out of range
    (poly_family(-40.0), [0.45, 0.4, 0.3, 0.05, 0.5 + 1e-12], 2),
])
@pytest.mark.parametrize("grid", [QuadratureGrid(64, 4), QuadratureGrid(96, 6)])
def test_coordinate_spheres_match_solo(family, radii, n_errors, grid):
    # every row of the stack is, bit for bit, the sphere built alone and
    # the scalar formulas; every error sits in its own slot
    stack = coordinate_spheres(family, radii, grid)
    assert len(stack) == len(radii)
    errors = 0
    for eps, got in zip(radii, stack):
        try:
            alone = coordinate_sphere(family, eps, grid)
        except ValueError as exc:
            assert type(got) is ValueError and str(got) == str(exc)
            errors += 1
            continue
        assert isinstance(got, SurfaceSample) and got.eps == eps and got.grid is grid
        want, u = scalar_sphere(family, eps, grid)
        assert want.u is None  # a sample built by hand has no collar profile
        for name in ("E", "H", "K", "G", "sqrt_det", "u"):
            field = getattr(got, name)
            assert field.shape == grid.shape and not field.flags.writeable
            assert np.array_equal(field, getattr(alone, name)), name
            scalar = grid.as_field(u) if name == "u" else getattr(want, name)
            assert np.array_equal(field, scalar), name
    assert errors == n_errors


@pytest.mark.parametrize("n_phi", [4, 5])
def test_stacked_flat_laplacian_matches_solo(n_phi):
    # verify's 8 flat-Laplacian spheres in one surface_laplacians pass: each
    # value equals the one-sphere call on that sphere alone
    grid = QuadratureGrid(64, n_phi)
    radii = [float(e) for e in np.geomspace(0.3, 0.0075, 8)]
    surfs = coordinate_spheres(poly_family(0.05, -0.08, 0.06), radii, grid)
    embs = embed_surfaces(surfs)
    fld = KillingNormField.from_spinor(SpinorParameter(0.6 + 0.2j, -0.3 + 0.7j))
    fields = [values_on([fld], [emb])[0] for emb in embs]
    assert np.ptp(fields[0], axis=1).max() > 0.0  # the fields vary in phi
    assert np.array_equal(values_on([fld] * len(embs), embs),
                          np.stack([fld.value(emb.X) for emb in embs]))
    got = laplacian_terms(surfs, fields)
    assert [laplacian_terms([s], [f])[0] for s, f in zip(surfs, fields)] == got
    laps = surface_laplacians(surfs, fields)
    for s, f, lap, value in zip(surfs, fields, laps, got):
        assert np.array_equal(surface_laplacian(s, f), lap)
        # the per-surface integral of the pre-stack form
        assert value == solo_integral(s, surface_laplacian(s, f) / (s.H + 2.0))


def solo_integral(surf, field):
    """One surface's quadrature as one einsum over its grid."""
    g = surf.grid
    weight = surf.sqrt_det / g.sin_theta[:, None]
    return float(g.w_phi * np.einsum("i,ij->", g.w_theta, g.as_field(field) * weight))


@pytest.mark.parametrize("n_theta, n_phi", [(32, 4), (64, 5), (48, 6)])
def test_integrate_scalars_rows_match_integrate_scalar(n_theta, n_phi):
    # a stack of round and non-round spheres, with constants, theta
    # profiles and fields that vary in phi: each row is the one-surface
    # integral, bit for bit
    grid = QuadratureGrid(n_theta, n_phi)
    surfs = (coordinate_spheres(poly_family(0.05, -0.08, 0.06), [0.3, 0.1, 0.02], grid)
             + coordinate_spheres(AdSSchwarzschild(2.0), [0.2, 0.05], grid)
             + [round_sample(1.3, grid)])
    th, ph = grid.theta_mesh, grid.phi_mesh
    fields = [1.0, np.cos(grid.theta), np.sin(th) ** 2 * np.cos(2 * ph) + np.cos(th), -2.5,
              np.exp(np.cos(th)) * np.sin(ph), np.cos(3 * th)]
    got = integrate_scalars(surfs, fields)
    assert got.shape == (len(surfs),)
    for value, surf, field in zip(got.tolist(), surfs, fields):
        assert value == integrate_scalar(surf, field) == solo_integral(surf, field)
    assert integrate_scalars(surfs, [1.0] * len(surfs)).tolist() == [s.area for s in surfs]
    fields[3] = np.full(grid.shape, np.nan)
    with pytest.raises(ValueError, match="non-finite"):
        integrate_scalars(surfs, fields)
