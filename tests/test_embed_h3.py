"""Isometric embedding into the hyperboloid: closed forms, the rapidity
quadrature, gauge centering, ambient isometries, and rejection paths."""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial import chebyshev as cheb
from scipy.fft import dct
from scipy.integrate import quad

from ahmass import (
    AdSSchwarzschild,
    EmbeddingError,
    Hyperbolic,
    LorentzMap,
    PerturbedRound,
    QuadratureGrid,
    SurfaceSample,
    boost,
    boost_surface,
    coordinate_sphere,
    embed_round,
    embed_surface,
    embed_surfaces,
    lorentz_inner,
    rotation,
)
from ahmass import embed_h3
from ahmass.embed_h3 import dump_profile_csv, embed_revolution, mean_curvature_h0
from ahmass.sweep import default_schedule, family_from_spec

GRID = QuadratureGrid(48, 4)


def round_profiles(radius, grid):
    sh = math.sinh(radius)
    return np.full(grid.n_theta, sh * sh), sh * sh * grid.sin_theta ** 2


def hyperboloid_defect(emb):
    return float(np.max(np.abs(lorentz_inner(emb.X, emb.X) + 1.0)))


def test_embed_round_closed_form():
    R = 1.0
    emb = embed_round(R, GRID)
    assert np.all(emb.H0 == 2.0 * math.cosh(R) / math.sinh(R))
    assert emb.H0[0, 0] == pytest.approx(2.6260705709986625, rel=1e-15)
    assert emb.isometry_residual == 0.0
    assert hyperboloid_defect(emb) < 1e-14
    # t component is the constant cosh R, axis component sinh R cos(theta)
    assert np.all(emb.X[..., 3] == math.cosh(R))
    assert np.max(np.abs(emb.X[..., 2] - math.sinh(R) * GRID.x[:, None])) < 1e-15
    # inward normal: unit spacelike, orthogonal to the position
    assert np.max(np.abs(lorentz_inner(emb.normal, emb.normal) - 1.0)) < 1e-14
    assert np.max(np.abs(lorentz_inner(emb.normal, emb.X))) < 1e-14


def test_embed_round_rejects_bad_radius():
    with pytest.raises(ValueError):
        embed_round(0.0, GRID)
    with pytest.raises(ValueError):
        embed_round(-1.0, GRID)


def test_revolution_round_trip():
    # exactly round input through the quadrature path reproduces the
    # geodesic sphere, also at a large radius where the pole features of
    # the rapidity are narrow
    for R in (1.2, 4.5):
        sh, ch = math.sinh(R), math.cosh(R)
        E, G = round_profiles(R, GRID)
        prof = embed_revolution(E, G, GRID)
        assert np.max(np.abs(prof.f - sh * GRID.sin_theta)) < 1e-12
        assert np.max(np.abs(prof.u - sh * GRID.x)) < 1e-11
        assert np.max(np.abs(prof.w - ch)) < 1e-11
        assert np.max(np.abs(prof.up + sh * GRID.sin_theta)) < 1e-9
        assert prof.isometry_residual < 2e-13 * (1.0 + sh * sh)
        assert abs(prof.axial_moment()) < 1e-12
        assert np.max(np.abs(mean_curvature_h0(prof) - 2.0 * ch / sh)) < 1e-8


def test_axis_shift_keeps_the_bulk_h0():
    # psi = a cos(theta) shifts the sphere along the axis, so
    # H0 = 2 cosh(eps) + O(eps^8), reached to rounding
    grid = QuadratureGrid(64, 4)
    fam = PerturbedRound(lambda x: 0.1 * x)
    for eps in (0.0125, 0.0044):
        emb = embed_surface(coordinate_sphere(fam, eps, grid))
        assert emb.profile is not None
        assert np.max(np.abs(emb.H0 - 2.0 * math.cosh(eps))) <= 1e-14


def test_hyperbolic_sphere_reference_curvature_matches_bulk():
    # coordinate spheres of the reference space are geodesic spheres:
    # embedded mean curvature equals the bulk one, 2 cosh(eps)
    for eps in (0.1, 0.3):
        surf = coordinate_sphere(Hyperbolic(), eps, GRID)
        emb = embed_surface(surf)
        assert np.max(np.abs(emb.H0 - surf.H)) < 1e-13
        assert emb.isometry_residual == 0.0


def test_ads_sphere_takes_round_dispatch():
    # theta-independent conformal factor means exactly round induced metric
    emb = embed_surface(coordinate_sphere(AdSSchwarzschild(1.0), 0.1, GRID))
    assert emb.profile is None
    assert emb.isometry_residual == 0.0
    assert np.ptp(emb.H0) == 0.0
    assert hyperboloid_defect(emb) < 1e-13


def test_perturbed_sphere_embedding_quality():
    fam = PerturbedRound(lambda x: 0.1 * x)
    emb = embed_surface(coordinate_sphere(fam, 0.1, GRID))
    assert emb.isometry_residual < 1e-9
    assert hyperboloid_defect(emb) < 1e-11
    assert np.max(np.abs(lorentz_inner(emb.normal, emb.X))) < 1e-9
    # the isometry residual sits at the rounding floor of the metric
    # scale on coarse and fine grids alike, down to small radii
    for n_theta in (32, 96):
        grid = QuadratureGrid(n_theta, 4)
        for eps in (0.1, 0.0125, 0.0044):
            surf = coordinate_sphere(fam, eps, grid)
            assert embed_surface(surf).isometry_residual <= 1e-14 * (1.0 + np.max(surf.E))


def test_small_radius_centering_defect():
    # regression: the centered gauge must not lose digits to cancellation
    # as the sphere shrinks (raw profile values grow like 1/eps^2)
    fam = PerturbedRound(lambda x: 0.1 * x)
    grid = QuadratureGrid(64, 4)
    emb = embed_surface(coordinate_sphere(fam, 0.2 * 2.0 ** -3.5, grid))
    assert hyperboloid_defect(emb) < 1e-10
    assert emb.isometry_residual < 1e-8
    assert abs(emb.profile.axial_moment()) < 1e-10


def test_rapidity_resolves_at_min_degree():
    # in the geodesic sphere's rapidity the integrand stays near 1, so
    # every sphere resolves at the first degree, down to radii where a
    # series in theta needed degree 4096 or failed at the cap; deeper,
    # the hyperboloid node check is what fails
    fam = PerturbedRound(lambda x: 0.1 * x)
    grid = QuadratureGrid(64, 4)
    for eps in (0.2, 0.05, 0.0125, 0.0044, 1e-3, 7.8e-4):
        prof = embed_surface(coordinate_sphere(fam, eps, grid)).profile
        assert prof.cheb_degree == embed_h3.RAPIDITY_MIN_DEGREE
        assert prof.cheb_tail <= embed_h3.RAPIDITY_TAIL_TOL
    with pytest.raises(EmbeddingError, match="nodes leave the hyperboloid"):
        embed_surface(coordinate_sphere(fam, 2.5e-4, grid))


@pytest.mark.parametrize("family", [Hyperbolic(), AdSSchwarzschild(1.0)], ids=["hyperbolic", "ads"])
@pytest.mark.parametrize("eps", [0.1, 1e-3])
def test_round_sphere_quadrature_matches_closed_form(family, eps):
    # an exactly round sphere sent through the rapidity quadrature instead
    # of the round dispatch: dchi/dphi is 1, so it resolves at the first
    # degree and lands on the closed-form geodesic sphere
    grid = QuadratureGrid(64, 4)
    surf = coordinate_sphere(family, eps, grid)
    rnd = embed_surface(surf)
    assert rnd.profile is None
    E, G = (np.ascontiguousarray(a[None, :, 0]) for a in (surf.E, surf.G))
    prof, X, N, h0, _, err = embed_h3._embed_rows(E, G, grid)[0]
    assert err is None
    assert prof.cheb_degree == embed_h3.RAPIDITY_MIN_DEGREE
    for got, want in ((X, rnd.X), (N, rnd.normal)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    R = math.asinh(math.sqrt(float(np.mean(surf.E))))
    assert np.max(np.abs(h0 - 2.0 / math.tanh(R))) <= 1e-12 * 2.0 / math.tanh(R)


def test_rapidity_unresolved_at_degree_cap(monkeypatch):
    fam = PerturbedRound(lambda x: 0.1 * x)
    surf = coordinate_sphere(fam, 0.0125, QuadratureGrid(64, 4))
    monkeypatch.setattr(embed_h3, "RAPIDITY_TAIL_TOL", 0.0)
    monkeypatch.setattr(embed_h3, "RAPIDITY_MAX_DEGREE", 128)
    with pytest.raises(EmbeddingError, match="unresolved at degree 128"):
        embed_surface(surf)


def sampled(func):
    # the sampler _theta_series takes: func(t) at the points t a level
    # adds, a row per index, and no error
    def sample(t, rows):
        return np.tile(func(t), (rows.size, 1)), [None] * rows.size
    return sample


def runge(t):
    # poles at t = +-i/5: several doublings, to degree 256
    return 1.0 / (1.0 + 25.0 * t ** 2)


@pytest.mark.parametrize("func, chop", [
    (lambda t: np.exp(t) * np.cos(3.0 * t), "min"),
    (lambda t: 1.0 / (1.0 + 25.0 * t ** 2), "deep"),
])
def test_theta_series_matches_dct_oracle(func, chop):
    # an entire function chops at the first degree; one with poles at
    # t = +-i/5 needs several doublings
    c, n, tail = embed_h3._theta_series(sampled(func), [0])[0]
    if chop == "min":
        assert n == embed_h3.RAPIDITY_MIN_DEGREE
    else:
        assert n >= 256
    want = dct(func(np.cos(np.pi * np.arange(n + 1) / n)), type=1) / n
    want[[0, -1]] *= 0.5
    scale = np.max(np.abs(want))
    assert np.max(np.abs(c - want)) <= 1e-15 * scale
    assert abs(tail - np.max(np.abs(want[-(n // 8):])) / scale) <= 1e-15


def test_theta_series_samples_each_point_once():
    # doubling reuses the old points as the new even points, so func sees
    # each of the n + 1 points once, and the series is bit-identical to
    # one taken from fresh samples at the final degree
    def func(t):
        calls.append(t)
        return runge(t)

    calls = []
    c, n, _ = embed_h3._theta_series(sampled(func), [0])[0]
    assert n >= 256
    assert sum(t.size for t in calls) == n + 1
    t = np.cos(np.pi * np.arange(n + 1) / n)
    assert np.array_equal(np.sort(np.concatenate(calls)), np.sort(t))
    y = runge(t)
    want = np.fft.rfft(np.concatenate([y, y[-2:0:-1]])).real / n
    want[[0, -1]] *= 0.5
    assert np.array_equal(c, want)


BENCH_PSI = [
    {"type": "cos_theta", "amplitude": 0.1},
    {"type": "poly_cos", "coefficients": [0.05, -0.08, 0.06]},
]


@pytest.mark.parametrize("psi", BENCH_PSI)
@pytest.mark.parametrize("eps", [0.2, 0.0044])
def test_discriminant_probe_matches_barycentric(monkeypatch, psi, eps):
    # the values of A, B, E and A_x the embedding probes at
    # x = cos(k pi / 2000), in blocks of PROBE_BLOCK points, each one
    # product of the stack with its block of the cached table, against
    # grid.interp_x at all 2001 points, for every sphere of a stack
    fam, _ = family_from_spec({"name": "perturbed_round", "psi": psi})
    grid = QuadratureGrid(64, 4)
    surfs = [coordinate_sphere(fam, e, grid) for e in (eps, 0.05, 0.0125)]
    blocks = []
    bracket = embed_h3._bracket

    def spy(xq, *cols):
        if np.shares_memory(xq, embed_h3._probe_x()):
            blocks.append((xq, np.stack(cols, axis=-1)))
        return bracket(xq, *cols)

    monkeypatch.setattr(embed_h3, "_bracket", spy)
    embed_surfaces(surfs)
    assert [xq.size for xq, _ in blocks] == [512, 512, 512, 465]
    assert np.array_equal(np.concatenate([xq for xq, _ in blocks]), embed_h3._probe_x())
    probes = np.concatenate([cols for _, cols in blocks], axis=1)
    assert probes.shape == (3, 2001, 4)
    for surf, probe in zip(surfs, probes):
        E, G = surf.E[:, 0], surf.G[:, 0]
        s2 = 1.0 - grid.x ** 2  # as embed_revolution forms A and B
        A = G / s2
        nodal = np.stack([A, (E - A) / s2, E, grid.deriv_x @ A], axis=1)
        want = grid.interp_x(nodal, np.cos(np.linspace(0.0, np.pi, 2001)))
        # a coordinate sphere is conformally round, so B = (E - A)/sin^2 is
        # rounding noise; it is measured on the scale of A(1 + E) beside it
        scale = np.max(np.abs(want), axis=0)
        scale[1] = scale[0]
        assert np.all(np.max(np.abs(probe - want), axis=0) <= 1e-13 * scale)


def bench_series(monkeypatch):
    # the rapidity series of the bench profiles (degree 64), each with the
    # points t_j of its sphere's nodes, and runge's (degree 256) on the
    # points of the last sphere
    series = []

    def spy(cs, t):
        series.extend(zip(cs, t))
        return primitives(cs, t)

    primitives = embed_h3._primitives
    grid = QuadratureGrid(64, 4)
    with monkeypatch.context() as patch:
        patch.setattr(embed_h3, "_primitives", spy)
        for psi in BENCH_PSI:
            fam, _ = family_from_spec({"name": "perturbed_round", "psi": psi})
            embed_surfaces([coordinate_sphere(fam, eps, grid) for eps in (0.2, 0.05, 0.0125, 0.0044)])
    assert len(series) == 8
    t = series[-1][1]
    series.append((embed_h3._theta_series(sampled(runge), [0])[0][0], t))
    assert sorted({c.size - 1 for c, _ in series}) == [64, 256]
    return series


def test_primitive_matches_chebint_oracle(monkeypatch):
    # the Clenshaw primitive at a sphere's points against numpy's
    # chebint + chebval
    for c, t in bench_series(monkeypatch):
        b = cheb.chebint(c, lbnd=1.0)
        want = cheb.chebval(t, b)
        got = embed_h3._primitives([c], t[None])[0]
        assert np.max(np.abs(got - want)) <= 1e-15 * np.sum(np.abs(b))


def test_grouped_primitives_match_solo(monkeypatch):
    # one Clenshaw pass over a stack of series of mixed degrees, zero-padded
    # to the largest: every row is its series' lone call, bit for bit,
    # whatever the stack's size and order
    series = bench_series(monkeypatch)
    for rows in (series, series[::-1], series[:1], series[-2:] * 8):
        got = embed_h3._primitives([c for c, _ in rows], np.stack([t for _, t in rows]))
        assert got.shape == (len(rows), 64)
        for row, (c, t) in zip(got, rows):
            assert np.array_equal(row, embed_h3._primitives([c], t[None])[0])


TABLE_CACHES = ("_probe_x", "_probe_table", "_omega")


def test_cached_rows_give_the_interp_x_samples(monkeypatch):
    # with the chop disabled the doubling runs to a forced degree 2048;
    # at every level each sphere's dchi/dphi samples, from the barycentric
    # rows at its own points x = tanh(R t) / tanh R, equal, bit for bit,
    # grid.interp_x run afresh at the same points
    fam, _ = family_from_spec({"name": "perturbed_round", "psi": BENCH_PSI[1]})
    grid = QuadratureGrid(64, 4)
    surfs = [coordinate_sphere(fam, eps, grid) for eps in (0.05, 0.0125)]

    levels = []
    theta_series = embed_h3._theta_series

    def spy(sample, rows):
        def recording(t, rows):
            got = sample(t, rows)
            levels.append((t, got[0]))
            return got
        return theta_series(recording, rows)

    monkeypatch.setattr(embed_h3, "_theta_series", spy)
    monkeypatch.setattr(embed_h3, "RAPIDITY_TAIL_TOL", 0.0)
    monkeypatch.setattr(embed_h3, "RAPIDITY_MAX_DEGREE", 2048)
    for got in embed_surfaces(surfs):
        assert "unresolved at degree 2048" in str(got)
    assert [t.size for t, _ in levels] == [65] + [64 * 2 ** j for j in range(5)]
    for surf, k in zip(surfs, range(len(surfs))):
        E, G = surf.E[:, 0], surf.G[:, 0]
        s2 = 1.0 - grid.x ** 2  # as embed_revolution forms A and B
        A = G / s2
        nodal = np.stack([A, (E - A) / s2, E, grid.deriv_x @ A], axis=1)
        sh = np.sqrt(np.max(A))
        R = np.arcsinh(sh)
        for t, got in levels:
            phi = R * t
            x = np.tanh(phi) / np.tanh(R)
            ch2 = np.cosh(phi) ** 2
            sq2 = np.sinh(R - phi) * np.sinh(R + phi) / (sh * sh * ch2)
            a, b, e, ax = grid.interp_x(nodal, x).T
            d = b + a * (1.0 + e) + x * ax - (1.0 - x ** 2) * ax ** 2 / (4.0 * a)
            assert np.array_equal(got[k], np.sqrt(d) / (np.tanh(R) * ch2 * (1.0 + sq2 * a)))


def test_second_embedding_builds_no_table():
    fam = PerturbedRound(lambda x: 0.1 * x)

    def spheres():
        # a revolution sphere and a round one on a new grid
        grid = QuadratureGrid(64, 4)
        return [coordinate_sphere(fam, 0.0125, grid), coordinate_sphere(Hyperbolic(), 0.1, grid)]

    embed_surfaces(spheres())
    before = {name: getattr(embed_h3, name).cache_info() for name in TABLE_CACHES}
    # new grids of the same size
    emb, rnd = embed_surfaces(spheres())
    assert emb.profile is not None and rnd.profile is None
    for name, old in before.items():
        new = getattr(embed_h3, name).cache_info()
        assert new.misses == old.misses, name
        assert new.hits > old.hits, name


def test_tables_are_read_only():
    tables = [embed_h3._probe_x(), embed_h3._probe_table(64), embed_h3._omega(64, 4)]
    for a in tables:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_table_caches_stay_bounded():
    # three small grid sizes: the probe table and the unit sphere keep two
    for n_theta in (8, 9, 10):
        embed_h3._probe_table(n_theta)
        embed_h3._omega(n_theta, 4)
    for name in ("_probe_table", "_omega"):
        info = getattr(embed_h3, name).cache_info()
        assert info.maxsize == 2
        assert info.currsize == 2


def test_rapidity_matches_adaptive_quadrature():
    # chi(theta_i) - chi(theta_0) against scipy quad of chi', at the
    # deepest radius of a 12-radius default schedule.  chi' is built from
    # the same barycentric interpolants of A, B and E as the embedding, so
    # this checks the theta-series, its chop, the integration and the
    # centering, not the model of the metric profiles
    fam, _ = family_from_spec({"name": "perturbed_round",
                               "psi": {"type": "poly_cos", "coefficients": [0.05, -0.08, 0.06]}})
    grid = QuadratureGrid(64, 4)
    surf = coordinate_sphere(fam, 0.2 * 2.0 ** -5.5, grid)
    E, G = surf.E[:, 0], surf.G[:, 0]
    prof = embed_revolution(E, G, grid)

    s2 = grid.sin_theta ** 2
    A = G / s2
    B = (E - A) / s2
    Ax = grid.deriv_x @ A

    def chi_prime(th):
        x, s = math.cos(th), math.sin(th)
        a, b, e, ax = (grid.interp_x(v, x) for v in (A, B, E, Ax))
        bracket = b + a * (1.0 + e) + x * ax - (1.0 - x * x) * ax * ax / (4.0 * a)
        return -s * math.sqrt(bracket) / (1.0 + s * s * a)

    steps = [quad(chi_prime, lo, hi, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
             for lo, hi in zip(grid.theta[:-1], grid.theta[1:])]
    want = np.concatenate([[0.0], np.cumsum(steps)])
    chi = np.arcsinh(prof.u / np.sqrt(1.0 + prof.f ** 2))
    assert np.max(np.abs(chi - chi[0] - want)) < 1e-12


def test_boost_surface_moves_nodes_keeps_intrinsic_data():
    emb = embed_round(1.0, GRID)
    lam = boost(1, 0.7).compose(rotation(2, 0.5))
    moved = boost_surface(lam, emb)
    want = np.einsum("ab,ijb->ija", lam.matrix, emb.X)
    assert np.max(np.abs(moved.X - want)) == 0.0
    assert np.array_equal(moved.H0, emb.H0)
    assert hyperboloid_defect(moved) < 1e-12
    # the stored defect is recomputed for the moved nodes
    assert moved.hyperboloid_defect == hyperboloid_defect(moved)
    assert np.max(np.abs(lorentz_inner(moved.normal, moved.X))) < 1e-12


def test_boost_surface_rejects_improper_maps():
    emb = embed_round(1.0, GRID)
    reversal = LorentzMap(np.diag([1.0, 1.0, 1.0, -1.0]))
    with pytest.raises(ValueError):
        boost_surface(reversal, emb)
    with pytest.raises(TypeError):
        boost_surface(np.eye(4), emb)


def test_negative_discriminant_rejected():
    th = GRID.theta
    E = np.cos(th) ** 4 + 0.01 * np.sin(th) ** 2
    G = GRID.sin_theta ** 2
    with pytest.raises(EmbeddingError, match="discriminant"):
        embed_revolution(E, G, GRID)


def test_pole_regularity_rejected():
    E = np.full(GRID.n_theta, 0.5)
    G = GRID.sin_theta ** 2
    with pytest.raises(EmbeddingError, match="pole"):
        embed_revolution(E, G, GRID)


def test_embed_revolution_validation():
    E, G = round_profiles(1.0, GRID)
    with pytest.raises(ValueError):
        embed_revolution(E[:-1], G, GRID)
    with pytest.raises(EmbeddingError):
        embed_revolution(-E, G, GRID)


def test_dump_profile_csv(tmp_path):
    # the columns are the phi = 0 meridian of the embedding itself, on the
    # revolution path and on the closed-form round path alike
    fam = PerturbedRound(lambda x: 0.1 * x)
    emb = embed_surface(coordinate_sphere(fam, 0.1, GRID))
    prof = emb.profile
    path = tmp_path / "profile.csv"
    dump_profile_csv(emb, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "theta,f,u,w,H0"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (GRID.n_theta, 5)
    assert np.array_equal(data[:, 0], GRID.theta)
    for col, want in enumerate((prof.f, prof.u, prof.w, mean_curvature_h0(prof)), start=1):
        assert np.array_equal(data[:, col], want)
    R = 0.8
    dump_profile_csv(embed_round(R, GRID), path)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.max(np.abs(data[:, 1] - math.sinh(R) * GRID.sin_theta)) <= 1e-15
    assert np.max(np.abs(data[:, 2] - math.sinh(R) * GRID.x)) <= 1e-15
    assert np.all(data[:, 3] == math.cosh(R))
    assert np.all(data[:, 4] == 2.0 * math.cosh(R) / math.sinh(R))


def assert_twins(got, solo):
    # one item of a batch against the same sphere embedded alone
    if isinstance(solo, Exception):
        assert type(got) is type(solo) and str(got) == str(solo)
        return
    for name in ("X", "normal", "H0"):
        assert np.array_equal(getattr(got, name), getattr(solo, name)), name
    assert got.isometry_residual == solo.isometry_residual
    assert got.hyperboloid_defect == solo.hyperboloid_defect
    assert (got.profile is None) == (solo.profile is None)
    if solo.profile is not None:
        assert np.array_equal(got.profile.chi, solo.profile.chi)
        assert got.profile.cheb_degree == solo.profile.cheb_degree
        assert got.profile.cheb_tail == solo.profile.cheb_tail


def test_embed_surfaces_match_solo():
    # a mixed batch on one grid: round spheres at several radii, non-round
    # ones, one that fails the discriminant probe, one past the hyperboloid
    # floor, and hand-made small spheres E = c exp(x) whose series resolve
    # at degrees 256 and 1024 or fail at the degree cap beside them; then a
    # second batch, round and non-round, on a second grid.  Each item
    # equals, bit for bit, its lone twin, and embed_round's sphere
    grid, small = QuadratureGrid(64, 4), QuadratureGrid(32, 6)
    fam, _ = family_from_spec({"name": "perturbed_round", "psi": BENCH_PSI[1]})
    # E = 0.1 exp(6x) is pole-regular, but its bracket is negative at x = 0
    bad = SurfaceSample(0.1, 0.1 * np.exp(6.0 * grid.x), 2.0, 1.0, grid)
    batch = ([coordinate_sphere(Hyperbolic(), 0.1, grid),
              coordinate_sphere(AdSSchwarzschild(1.0), 0.1, grid), bad]
             + [coordinate_sphere(fam, eps, grid) for eps in (0.2, 0.05, 2.5e-4, 0.0125, 0.0044)]
             + [SurfaceSample(c, c * np.exp(grid.x), 2.0, 1.0, grid) for c in (0.01, 1e-3, 1e-6)]
             + [coordinate_sphere(Hyperbolic(), eps, grid) for eps in (0.4, 0.01)])
    second = ([coordinate_sphere(fam, 0.05, small)]
              + [coordinate_sphere(Hyperbolic(), eps, small) for eps in (0.4, 0.01)]
              + [coordinate_sphere(AdSSchwarzschild(2.5), eps, small) for eps in (0.3, 0.003)])
    got = embed_surfaces(batch) + embed_surfaces(second)
    batch += second
    assert len(got) == len(batch)
    for item, surf in zip(got, batch):
        assert_twins(item, embed_surfaces([surf])[0])
        if not isinstance(item, Exception):
            assert item.surface is surf
    rnd = [0, 1, 11, 12, 14, 15, 16, 17]
    assert all(got[i].profile is None for i in rnd)
    for i in rnd:
        R = math.asinh(math.sqrt(float(np.mean(batch[i].E))))
        assert_twins(got[i], embed_round(R, batch[i].grid))
    assert "discriminant negative" in str(got[2])
    assert str(got[5]).startswith("embedded nodes leave the hyperboloid")
    assert str(got[10]).startswith("rapidity series unresolved at degree %d"
                                   % embed_h3.RAPIDITY_MAX_DEGREE)
    assert {got[i].profile.cheb_degree for i in (3, 4, 6, 7, 13)} == {64}
    assert [got[i].profile.cheb_degree for i in (8, 9)] == [256, 1024]
    with pytest.raises(EmbeddingError, match="discriminant negative"):
        embed_surface(bad)
    assert embed_surfaces([]) == []
    with pytest.raises(ValueError, match="surfaces live on different grids"):
        embed_surfaces(batch)


def test_embed_surfaces_peak_memory():
    # the 16 spheres of a verify run on poly_cos, tables warm: the probe
    # runs over the stack in blocks of PROBE_BLOCK points (about 0.26 MB of
    # probe values at a time), so the batch holds little more than its
    # results
    grid = QuadratureGrid(64, 4)
    fam, _ = family_from_spec({"name": "perturbed_round", "psi": BENCH_PSI[1]})
    eps = list(default_schedule()) + [float(e) for e in np.geomspace(0.3, 0.0075, 8)]
    surfs = [coordinate_sphere(fam, e, grid) for e in eps]
    assert len(set(eps)) == 16
    embed_surfaces(surfs)
    tracemalloc.start()
    try:
        embed_surfaces(surfs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6


@pytest.mark.parametrize("tol, message", [("HYPERBOLOID_TOL", "nodes leave the hyperboloid"),
                                          ("UNIT_NORMAL_TOL", "not unit spacelike")])
@pytest.mark.parametrize("deep", ["round", "revolution"])
def test_node_check_failure_stays_in_its_slot(monkeypatch, tol, message, deep):
    # the node defects grow like 1/eps^2, so a tolerance between the
    # deepest sphere's defect and the others' fails that sphere alone, in
    # its slot of the round or of the revolution stack; every other item
    # is still its solo embedding
    grid = QuadratureGrid(64, 4)
    fam, _ = family_from_spec({"name": "perturbed_round", "psi": BENCH_PSI[1]})
    ads = AdSSchwarzschild(1.0)
    batch = ([coordinate_sphere(fam, eps, grid) for eps in (0.2, 0.05)]
             + [coordinate_sphere(ads, eps, grid) for eps in (0.2, 0.02)]
             + [coordinate_sphere(ads if deep == "round" else fam, 0.005, grid)])
    ok = embed_surfaces(batch)
    if tol == "HYPERBOLOID_TOL":
        defects = [e.hyperboloid_defect for e in ok]
    else:
        defects = [float(np.max(np.abs(lorentz_inner(e.normal, e.normal) - 1.0))) for e in ok]
    assert max(defects[:4]) < defects[4] < 1e-8
    monkeypatch.setattr(embed_h3, tol, 0.5 * (max(defects[:4]) + defects[4]))
    got = embed_surfaces(batch)
    assert isinstance(got[4], EmbeddingError) and message in str(got[4])
    for item, surf in zip(got, batch):
        assert_twins(item, embed_surfaces([surf])[0])
    for item, before in zip(got[:4], ok):
        assert_twins(item, before)
    with pytest.raises(EmbeddingError, match=message):
        embed_surface(batch[4])
