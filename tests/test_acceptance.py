"""Acceptance gate: one test per observable claim, each printing a PASS
line with the measured numbers (run with -v -s for the full detail)."""

import math
import time

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
    SweepConfig,
    boost,
    boost_surface,
    by_mass,
    causal_classify,
    coordinate_sphere,
    decay_order,
    default_schedule,
    embed_round,
    embed_surface,
    exhaustion_norm_growth,
    fit_limit,
    hat_mass,
    hopf_eta,
    lorentz_inner,
    mass_aspect,
    minkowski_identity_residual,
    rotation,
    run_sweep,
)
from ahmass.embed_h3 import embed_revolution, mean_curvature_h0
from ahmass.killing_spinor import values_on
from oracles import (
    geodesic_norm_check,
    hyperboloid_point,
    mainhyp_functional,
    spinor_at,
    spinor_polar_point,
)

N_THETA = 64
PERT = lambda x: 0.1 * x


def timed_sweep(family, out):
    cfg = SweepConfig(family=family, eps_list=tuple(default_schedule()),
                      n_theta=N_THETA, n_phi=4, output_dir=out)
    t0 = time.perf_counter()
    rec = run_sweep(cfg)
    return rec, time.perf_counter() - t0


@pytest.fixture(scope="module")
def hyp_sweep(tmp_path_factory):
    return timed_sweep(Hyperbolic(), str(tmp_path_factory.mktemp("hyp")))


@pytest.fixture(scope="module")
def ads_sweeps(tmp_path_factory):
    out = tmp_path_factory.mktemp("ads")
    return {m: timed_sweep(AdSSchwarzschild(m), str(out)) for m in (0.5, 1.0, 2.0)}


@pytest.fixture(scope="module")
def pert_sweep(tmp_path_factory):
    return timed_sweep(PerturbedRound(PERT), str(tmp_path_factory.mktemp("pert")))


def random_spinor(rng):
    return SpinorParameter(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))


def test_01_vacuum_sweep_masses_vanish(hyp_sweep):
    rec, elapsed = hyp_sweep
    worst = 0.0
    for r in rec.records:
        assert r.error is None
        worst = max(worst,
                    float(np.max(np.abs(r.m_by.as_array()))),
                    float(np.max(np.abs(r.m_hat.as_array()))))
    assert worst <= 1e-8
    assert np.max(np.abs(rec.wang.as_array())) <= 1e-8
    assert rec.tags["m_by"]["classify"] is CausalClass.ZERO
    assert rec.tags["m_hat"]["classify"] is CausalClass.ZERO
    assert elapsed < 10.0
    print("PASS vacuum sweep: worst per-radius component %.3e, limit tags zero, %.2fs"
          % (worst, elapsed))


def test_02_schwarzschild_mass_recovery(ads_sweeps):
    for m, (rec, elapsed) in ads_sweeps.items():
        assert abs(rec.wang.t - m) <= 1e-6
        fitted = rec.fits["m_by"]["t"].limit
        assert abs(fitted - rec.wang.t) <= 0.01 * rec.wang.t
        assert np.max(np.abs(rec.limits["m_by"].as_array()[:3])) <= 1e-6
        small = [r for r in rec.records if r.eps <= 0.1]
        assert small and all(r.tag_by is CausalClass.FUTURE_TIMELIKE for r in small)
        assert elapsed < 60.0
        print("PASS mass recovery m=%g: fitted t %.8f vs reference %.8f, %d small-radius "
              "tags future-timelike, %.2fs" % (m, fitted, rec.wang.t, len(small), elapsed))


def per_component_series(rec, name):
    by_eps = {r.eps: r for r in rec.records if r.error is None}
    return np.array([getattr(by_eps[e], name).as_array() for e in rec.fit_eps])


def test_03_modified_mass_shares_limit_and_gap_order(ads_sweeps, pert_sweep):
    for label, (rec, _) in (("ads", ads_sweeps[1.0]), ("perturbed", pert_sweep)):
        gap_order = rec.fits["hat_by_gap"].order
        assert gap_order >= 1.5
        vb = per_component_series(rec, "m_by")
        vh = per_component_series(rec, "m_hat")
        worst = 0.0
        for j in range(4):
            # same fixed second-order model on both series so the residual
            # extrapolation bias cancels in the difference; the fit is
            # linear in the data, so the difference is the fitted limit of
            # the gap series and its standard error is the gap fit's
            fb = fit_limit(vb[:, j], rec.fit_eps, known_order=2.0)
            fh = fit_limit(vh[:, j], rec.fit_eps, known_order=2.0)
            fg = fit_limit(vh[:, j] - vb[:, j], rec.fit_eps, known_order=2.0)
            diff = abs(fh.limit - fb.limit)
            bound = 3.0 * fg.limit_stderr + 1e-12
            assert diff <= bound
            worst = max(worst, diff / bound)
        print("PASS shared limit (%s): gap decay order %.3f, worst limit gap at "
              "%.2f of the 3-sigma allowance" % (label, gap_order, worst))


def test_04_mean_and_reference_curvature_expansions():
    grid = QuadratureGrid(N_THETA, 4)
    eps_list = list(default_schedule())
    for fam, label in ((AdSSchwarzschild(1.0), "ads"), (PerturbedRound(PERT), "perturbed")):
        psi = mass_aspect(fam, grid)
        fit_eps = np.geomspace(0.1, 0.02, 6)
        rows = np.stack([2.0 * math.cosh(e) - coordinate_sphere(fam, e, grid).H[:, 0]
                         for e in fit_eps])
        coef = (fit_eps ** 3 @ rows) / np.sum(fit_eps ** 6)
        err = float(np.max(np.abs(coef - psi))) / (1.0 + float(np.max(np.abs(psi))))
        assert err <= 0.02
        h0_vals, k_vals = [], []
        for e in eps_list:
            surf = coordinate_sphere(fam, e, grid)
            emb = embed_surface(surf)
            h0_vals.append(float(np.max(np.abs(emb.H0 - 2.0 * math.cosh(e)))))
            k_vals.append(float(np.max(np.abs(surf.K - math.sinh(e) ** 2))))
        p_h0 = decay_order(h0_vals, eps_list, floor=1e-11)
        p_k = decay_order(k_vals, eps_list, floor=1e-11 * np.sinh(eps_list) ** 2)
        assert p_h0 >= 4.0
        assert p_k >= 4.5
        print("PASS curvature expansions (%s): cubic coefficient err %.2e, reference "
              "curvature order %.2f, Gauss curvature order %s" % (label, err, p_h0,
                                                                  "%.2f" % p_k if math.isfinite(p_k) else "below floor"))


def test_05_spinor_identity_suite():
    rng = np.random.default_rng(777001)
    # component norm vs linear field, 10^4 samples
    worst_norm = 0.0
    for _ in range(20):
        z = random_spinor(rng)
        field = KillingNormField.from_spinor(z)
        for _ in range(500):
            r, th, ph = rng.uniform(0, 3), rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
            got = spinor_at(z, r, th, ph).norm_sq
            want = field.value(spinor_polar_point(r, th, ph).as_array())
            worst_norm = max(worst_norm, abs(got - want) / (1.0 + abs(want)))
    assert worst_norm <= 1e-12

    # geodesic restriction solves u'' = u, 100 geodesics
    t = np.linspace(-1.0, 1.0, 9)
    worst_geo = 0.0
    for _ in range(100):
        field = KillingNormField.from_spinor(random_spinor(rng))
        x0 = hyperboloid_point(rng.uniform(0, 2), math.acos(rng.uniform(-1, 1)),
                               rng.uniform(0, 2 * np.pi))
        v = np.append(rng.normal(size=3), 0.0)
        v = v + lorentz_inner(v, x0.as_array()) * x0.as_array()
        v = v / math.sqrt(lorentz_inner(v, v))
        a, b, resid = geodesic_norm_check(field, x0, MinkowskiVector(*v), t)
        worst_geo = max(worst_geo, resid / max(abs(a), abs(b), 1.0))
    assert worst_geo <= 1e-10

    # surface identity on geodesic spheres, and its refinement floor on a
    # non-round embedding (the residual starts at rounding level on the
    # coarsest grid, so staying at the floor is the observable content)
    grid = QuadratureGrid(32, 4)
    worst_round = 0.0
    for R in (0.5, 1.0, 2.0):
        emb = embed_round(R, grid)
        for _ in range(3):
            field = KillingNormField.from_spinor(random_spinor(rng))
            scale = 1.0 + float(np.max(np.abs(values_on([field], [emb])[0])))
            worst_round = max(worst_round, minkowski_identity_residual(field, emb) / scale)
    assert worst_round <= 1e-7
    fam = PerturbedRound(lambda x: 0.3 * x + 0.1 * (1.0 - x ** 2))
    field = KillingNormField.from_spinor(SpinorParameter(0.9 + 0.2j, -0.4 + 0.6j))
    refine = []
    for n_theta in (16, 24, 32, 40):
        emb = embed_surface(coordinate_sphere(fam, 0.1, QuadratureGrid(n_theta, 4)))
        refine.append(minkowski_identity_residual(field, emb))
    assert max(refine) <= 1e-8

    # exhaustion growth exponent
    embs = [embed_surface(coordinate_sphere(Hyperbolic(), float(e), grid))
            for e in np.geomspace(0.2, 0.05, 5)]
    p = exhaustion_norm_growth(KillingNormField.from_spinor(SpinorParameter(1.0, 0.4 - 0.3j)),
                               embs)
    assert abs(p - 1.0) <= 0.05
    print("PASS spinor suite: norm residual %.2e, geodesic residual %.2e, round-sphere "
          "identity %.2e, refinement residuals %s (floor 1e-8), growth exponent %.4f"
          % (worst_norm, worst_geo, worst_round,
             "/".join("%.1e" % r for r in refine), p))


def test_06_embedding_solver_quality(pert_sweep):
    grid = QuadratureGrid(N_THETA, 4)
    # round-metric round trip through the rapidity quadrature
    R = 1.2
    sh, ch = math.sinh(R), math.cosh(R)
    prof = embed_revolution(np.full(grid.n_theta, sh * sh), sh * sh * grid.sin_theta ** 2, grid)
    node_err = max(float(np.max(np.abs(prof.f - sh * grid.sin_theta))),
                   float(np.max(np.abs(prof.u - sh * grid.x))),
                   float(np.max(np.abs(prof.w - ch))))
    h0_err = float(np.max(np.abs(mean_curvature_h0(prof) - 2.0 * ch / sh)))
    assert node_err <= 1e-8
    assert h0_err <= 1e-8
    for radius in (0.5, 1.0, 2.0):
        emb = embed_round(radius, grid)
        assert np.max(np.abs(emb.H0 - 2.0 / math.tanh(radius))) <= 1e-8
    # every accepted non-round embedding of the sweep meets the residual bars
    rec, _ = pert_sweep
    iso = [r.isometry_residual for r in rec.records if r.error is None]
    defect = [r.hyperboloid_defect for r in rec.records if r.error is None]
    assert iso and max(iso) <= 1e-6
    assert max(defect) <= 1e-9
    print("PASS embedding solver: round-trip node error %.2e, reference curvature error "
          "%.2e, sweep isometry residual <= %.2e, hyperboloid defect <= %.2e"
          % (node_err, h0_err, max(iso), max(defect)))


def test_07_isometry_equivariance_and_causal_tags(hyp_sweep, ads_sweeps, pert_sweep):
    surf = coordinate_sphere(AdSSchwarzschild(1.0), 0.1, QuadratureGrid(N_THETA, 4))
    emb = embed_surface(surf)
    base = by_mass(surf, emb)
    base_arr = base.as_array()
    rng = np.random.default_rng(777002)
    worst = 0.0
    for _ in range(20):
        lam = boost(int(rng.integers(0, 3)), float(rng.uniform(-1.0, 1.0)))
        lam = lam.compose(rotation(int(rng.integers(0, 3)), float(rng.uniform(0, 2 * np.pi))))
        moved = by_mass(surf, boost_surface(lam, emb)).as_array()
        worst = max(worst, float(np.max(np.abs(moved - lam.matrix @ base_arr))))
        assert causal_classify(MinkowskiVector(*moved)) is causal_classify(base)
    assert worst <= 1e-10 * (1.0 + float(np.max(np.abs(base_arr))))
    sweeps = [hyp_sweep[0], pert_sweep[0]] + [rec for rec, _ in ads_sweeps.values()]
    # the reported cone supremum is |v_x| - v_t, and the tag reads the same
    # cone distance: a limit tagged clear of the cone and of zero has the
    # future-timelike tag's sign, a future-null one is within the tolerance
    clear = (CausalClass.FUTURE_TIMELIKE, CausalClass.PAST_TIMELIKE, CausalClass.SPACELIKE)
    for rec in sweeps:
        for name, tag in rec.tags.items():
            v = rec.limits[name].as_array()
            assert tag["cone_max"] == float(np.linalg.norm(v[:3])) - float(v[3]), \
                (rec.family_label, name)
            if tag["classify"] in clear:
                assert (tag["cone_max"] < 0.0) == (tag["classify"] is CausalClass.FUTURE_TIMELIKE), \
                    (rec.family_label, name)
            elif tag["classify"] is CausalClass.FUTURE_NULL:
                assert abs(tag["cone_max"]) <= 1e-9 * (1.0 + np.max(np.abs(v))), \
                    (rec.family_label, name)
    print("PASS equivariance: worst boost mismatch %.2e over 20 maps, causal tags "
          "invariant, cone supremum matches |v_x| - v_t and the tag sign on %d sweep outputs"
          % (worst, sum(len(r.tags) for r in sweeps)))


def test_08_geodesic_sphere_functional_vanishes():
    grid = QuadratureGrid(48, 4)
    rng = np.random.default_rng(777003)
    worst_fun, worst_pair = 0.0, 0.0
    for radius in (0.5, 0.8, 1.2, 1.7, 2.3):
        emb = embed_round(radius, grid)
        mhat = hat_mass(emb.surface, emb)
        for _ in range(20):
            eta = hopf_eta(random_spinor(rng))
            field = KillingNormField(eta)
            worst_fun = max(worst_fun, abs(mainhyp_functional(emb.surface, emb,
                                                              values_on([field], [emb])[0])))
            worst_pair = max(worst_pair, abs(lorentz_inner(mhat.as_array(), eta.as_array())))
    assert worst_fun <= 1e-8
    assert worst_pair <= 1e-8
    print("PASS round-ball equality: functional <= %.2e, modified-mass pairing <= %.2e "
          "over 5 radii x 20 null directions" % (worst_fun, worst_pair))
