"""Isometric embedding into the hyperboloid: closed forms, the rapidity
quadrature, gauge centering, ambient isometries, and rejection paths."""

import math

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
    boost,
    boost_surface,
    coordinate_sphere,
    embed_round,
    embed_surface,
    lorentz_inner,
    rotation,
)
from ahmass import embed_h3
from ahmass.embed_h3 import dump_profile_csv, embed_revolution, mean_curvature_h0
from ahmass.sweep import family_from_spec

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


def test_revolution_branch_mirror():
    E, G = round_profiles(0.9, GRID)
    plus = embed_revolution(E, G, GRID)
    minus = embed_revolution(E, G, GRID, branch=-1)
    assert np.max(np.abs(minus.u + plus.u)) < 1e-10
    assert np.max(np.abs(minus.f - plus.f)) < 1e-12
    assert plus.u[0] > 0 > minus.u[0]


def test_branches_give_the_same_h0():
    # the normal's orientation follows the branch: chi' flips sign with
    # it, and H0 is the same on both mirror images
    fam, _ = family_from_spec({"name": "perturbed_round",
                               "psi": {"type": "poly_cos", "coefficients": [0.05, -0.08, 0.06]}})
    grid = QuadratureGrid(64, 4)
    surf = coordinate_sphere(fam, 0.0125, grid)
    plus, minus = embed_surface(surf, branch=1), embed_surface(surf, branch=-1)
    assert plus.profile is not None
    assert np.array_equal(plus.H0, minus.H0)
    assert np.min(plus.H0) > 2.0
    # psi = a cos(theta) shifts the sphere along the axis, so
    # H0 = 2 cosh(eps) + O(eps^8): each branch reaches it to rounding
    fam = PerturbedRound(lambda x: 0.1 * x)
    for eps in (0.0125, 0.0044):
        surf = coordinate_sphere(fam, eps, grid)
        for branch in (1, -1):
            h0 = embed_surface(surf, branch=branch).H0
            assert np.max(np.abs(h0 - 2.0 * math.cosh(eps))) <= 1e-14


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


def test_rapidity_degree_follows_radius():
    # pole features of the rapidity are about eps wide in theta, so the
    # chosen degree grows as the sphere grows, and the chop is honoured
    fam = PerturbedRound(lambda x: 0.1 * x)
    grid = QuadratureGrid(64, 4)
    degrees = []
    for eps in (0.2, 0.05, 0.0125, 0.0044):
        prof = embed_surface(coordinate_sphere(fam, eps, grid)).profile
        assert prof.cheb_tail <= embed_h3.RAPIDITY_TAIL_TOL
        degrees.append(prof.cheb_degree)
    assert degrees == sorted(degrees)
    assert degrees[-1] > degrees[0]


def test_rapidity_unresolved_at_degree_cap(monkeypatch):
    fam = PerturbedRound(lambda x: 0.1 * x)
    surf = coordinate_sphere(fam, 0.0125, QuadratureGrid(64, 4))
    monkeypatch.setattr(embed_h3, "RAPIDITY_MAX_DEGREE", 128)
    with pytest.raises(EmbeddingError, match="unresolved at degree 128"):
        embed_surface(surf)


@pytest.mark.parametrize("func, chop", [
    (lambda th: np.exp(np.cos(th)) * np.sin(th), "min"),
    (lambda th: 1.0 / (1.0 + 25.0 * np.cos(th) ** 2), "deep"),
])
def test_theta_series_matches_dct_oracle(func, chop):
    # an entire function chops at the first degree; one with poles at
    # cos th = +-i/5 needs several doublings
    c, n, tail = embed_h3._theta_series(func)
    if chop == "min":
        assert n == embed_h3.RAPIDITY_MIN_DEGREE
    else:
        assert n >= 256
    t = np.cos(np.pi * np.arange(n + 1) / n)
    want = dct(func(0.5 * np.pi * (1.0 + t)), type=1) / n
    want[[0, -1]] *= 0.5
    scale = np.max(np.abs(want))
    assert np.max(np.abs(c - want)) <= 1e-15 * scale
    assert abs(tail - np.max(np.abs(want[-(n // 8):])) / scale) <= 1e-15


def test_theta_series_samples_each_point_once():
    # doubling reuses the old points as the new even points, so func sees
    # each of the n + 1 points once, and the series is bit-identical to
    # one taken from fresh samples at the final degree
    def func(th):
        calls.append(th)
        return 1.0 / (1.0 + 25.0 * np.cos(th) ** 2)

    calls = []
    c, n, _ = embed_h3._theta_series(func)
    assert n >= 256
    assert sum(th.size for th in calls) == n + 1
    th = 0.5 * np.pi * (1.0 + np.cos(np.pi * np.arange(n + 1) / n))
    assert np.array_equal(np.sort(np.concatenate(calls)), np.sort(th))
    y = func(th)
    want = np.fft.rfft(np.concatenate([y, y[-2:0:-1]])).real / n
    want[[0, -1]] *= 0.5
    assert np.array_equal(c, want)


BENCH_PSI = [
    {"type": "cos_theta", "amplitude": 0.1},
    {"type": "poly_cos", "coefficients": [0.05, -0.08, 0.06]},
]


@pytest.mark.parametrize("psi", BENCH_PSI)
@pytest.mark.parametrize("eps", [0.2, 0.0044])
def test_discriminant_probe_matches_barycentric(psi, eps):
    # the probe's FFT values of A, B, E and A_x at x = cos(k pi / 2000)
    # against the barycentric formula at the same points
    fam, _ = family_from_spec({"name": "perturbed_round", "psi": psi})
    grid = QuadratureGrid(64, 4)
    surf = coordinate_sphere(fam, eps, grid)
    E, G = surf.E[:, 0], surf.G[:, 0]
    A = G / grid.sin_theta ** 2
    B = (E - A) / grid.sin_theta ** 2
    nodal = np.stack([A, B, E, grid.deriv_x @ A], axis=1)
    got = grid.interp_uniform_theta(nodal, 2000)
    want = grid.interp_x(nodal, np.cos(np.linspace(0.0, np.pi, 2001)))
    # a coordinate sphere is conformally round, so B = (E - A)/sin^2 is
    # rounding noise; it is measured on the scale of A(1 + E) beside it
    scale = np.max(np.abs(want), axis=0)
    scale[1] = scale[0]
    assert np.all(np.max(np.abs(got - want), axis=0) <= 1e-13 * scale)


def test_primitive_matches_chebint_oracle(monkeypatch):
    # the loop-free primitive of the rapidity series at the nodes against
    # numpy's chebint + chebval, on the series the bench profiles choose
    # (degrees 128 to 1024) and on a degree-64 one
    series = []

    def spy(func):
        out = theta_series(func)
        series.append(out[0])
        return out

    theta_series = embed_h3._theta_series
    monkeypatch.setattr(embed_h3, "_theta_series", spy)
    grid = QuadratureGrid(64, 4)
    for psi in BENCH_PSI:
        fam, _ = family_from_spec({"name": "perturbed_round", "psi": psi})
        for eps in (0.2, 0.05, 0.0125, 0.0044):
            embed_surface(coordinate_sphere(fam, eps, grid))
    series.append(theta_series(lambda th: np.exp(np.cos(th)) * np.sin(th))[0])
    degrees = sorted({c.size - 1 for c in series})
    assert degrees[0] == 64 and degrees[-1] == 1024

    t = 2.0 * grid.theta / np.pi - 1.0
    for c in series:
        b = cheb.chebint(c, scl=0.5 * np.pi, lbnd=-1.0)
        want = cheb.chebval(t, b)
        got = embed_h3._primitive_at(c, t, 0.5 * np.pi)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.sum(np.abs(b))


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
    with pytest.raises(ValueError):
        embed_revolution(E, G, GRID, branch=2)
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
