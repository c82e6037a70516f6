"""Limit fitting, cone-slice pairing, configuration plumbing, and the
radius-sweep driver."""

import csv
import json
import math
import sys

import numpy as np
import pytest

from ahmass import (
    AdSSchwarzschild,
    CausalClass,
    ConfigError,
    Hyperbolic,
    MinkowskiVector,
    PerturbedRound,
    QuadratureGrid,
    SweepConfig,
    causal_classify,
    cone_pairing_report,
    decay_order,
    default_schedule,
    family_from_spec,
    fit_limit,
    run_sweep,
    verify_identities,
    write_outputs,
)
from ahmass import ah_metric
from ahmass import embed_h3
from ahmass import killing_spinor
from ahmass import sphere_geometry
from ahmass import sweep
from ahmass.sweep import DEFAULT_SEED, DEFAULT_TOLERANCES, ORDER_RANGE, judge_flat_laplacian

EPS8 = np.geomspace(0.2, 0.02, 8)
EPS_FIT4 = np.array(default_schedule(0.2, 2 ** -0.5, 8)[-4:])


def fast_config(tmp_path, **over):
    base = dict(family=Hyperbolic(), eps_list=tuple(default_schedule(0.2, 2 ** -0.5, 5)),
                n_theta=32, n_phi=4, output_dir=str(tmp_path))
    base.update(over)
    return SweepConfig(**base)


@pytest.mark.parametrize("eps, vinf, coeff, order", [
    (EPS8, 3.0, 2.0, 2.0),
    # exponents between the scan points, on the four radii a default
    # 8-radius sweep fits: the refinement must land on the exponent
    (EPS_FIT4, 0.035, -0.0058, 1.996),
    (EPS_FIT4, 0.0167, 0.004, 2.003),
    (EPS_FIT4, 1.0, 0.3, 2.37),
], ids=["on-grid", "off-grid-1.996", "off-grid-2.003", "off-grid-2.37"])
def test_fit_limit_quadratic(eps, vinf, coeff, order):
    fit = fit_limit(vinf + coeff * eps ** order, eps)
    assert abs(fit.limit - vinf) < 1e-12 * (1.0 + abs(vinf))
    assert fit.coefficient == pytest.approx(coeff, rel=1e-4)
    assert abs(fit.order - order) < 1e-6
    assert fit.order_trusted
    assert fit.limit_stderr < 1e-6


def test_fit_limit_constant_data():
    fit = fit_limit(np.full(6, 7.25), EPS8[:6])
    assert fit.limit == 7.25
    assert fit.order == 0.0
    assert not fit.order_trusted


def test_fit_limit_contaminated_cubic():
    eps = np.geomspace(0.2, 0.025, 8)
    fit = fit_limit(1.0 + eps ** 3 + 0.1 * eps ** 4, eps)
    assert abs(fit.limit - 1.0) < 1e-4
    assert 2.8 < fit.order < 3.2
    assert fit.order_trusted


def test_fit_limit_known_order():
    fit = fit_limit(1.0 + 5.0 * EPS8 ** 3, EPS8, known_order=3.0)
    assert fit.order == 3.0
    assert fit.limit == pytest.approx(1.0, abs=1e-12)
    assert fit.coefficient == pytest.approx(5.0, rel=1e-10)
    assert fit.order_trusted
    with pytest.raises(ValueError):
        fit_limit(1.0 + EPS8, EPS8, known_order=0.0)


def test_fit_limit_boundary_order_untrusted():
    # exponent outside the search window pins at the boundary and is flagged
    fit = fit_limit(2.0 + EPS8 ** 8, EPS8)
    assert fit.order >= ORDER_RANGE[1] - 1e-6
    assert not fit.order_trusted


def test_fit_limit_validation():
    with pytest.raises(ValueError):
        fit_limit([1.0, 2.0], [0.1, 0.2])
    with pytest.raises(ValueError):
        fit_limit([1.0, 2.0, 3.0], [0.1, 0.1, 0.2])
    with pytest.raises(ValueError):
        fit_limit([1.0, 2.0, 3.0], [0.1, -0.2, 0.3])


# Columns of one fit batch on EPS_FIT4: flat data, exponents pinned at
# either end of ORDER_RANGE (at the lower end the profiled slope has no
# sign change in the bracket, so the scan point stands), exponents between
# scan points, and two-term series that no single power law fits.
MIXED_BATCH = {
    "flat": np.full(4, 7.25),
    "upper-pinned": 0.5 * EPS_FIT4 ** 8,
    "lower-pinned": 1.0 + EPS_FIT4 ** 0.3,
    "off-grid-1.996": 0.035 - 0.0058 * EPS_FIT4 ** 1.996,
    "off-grid-2.003": 0.0167 + 0.004 * EPS_FIT4 ** 2.003,
    "off-grid-2.37": 1.0 + 0.3 * EPS_FIT4 ** 2.37,
    "cubic+quartic": EPS_FIT4 ** 3 + 0.1 * EPS_FIT4 ** 4,
    "two-term": 0.2 * EPS_FIT4 ** 1.3 - 2.0 * EPS_FIT4 ** 2.5,
}


def test_fit_limit_batch_equals_solo():
    cols = list(MIXED_BATCH.values())
    batch = fit_limit(np.stack(cols, axis=1), EPS_FIT4)
    assert isinstance(batch, tuple) and len(batch) == len(cols)
    for name, col, fit in zip(MIXED_BATCH, cols, batch):
        assert fit == fit_limit(col, EPS_FIT4), name
    # neither the column order nor the radius order matters
    flipped = fit_limit(np.stack(cols[::-1], axis=1)[::-1], EPS_FIT4[::-1])
    assert flipped == batch[::-1]
    assert fit_limit(cols[3][:, None], EPS_FIT4) == (batch[3],)

    fits = dict(zip(MIXED_BATCH, batch))
    assert fits["flat"].order == 0.0 and not fits["flat"].order_trusted
    assert fits["upper-pinned"].order == ORDER_RANGE[1]
    assert fits["lower-pinned"].order == ORDER_RANGE[0]
    assert not fits["upper-pinned"].order_trusted and not fits["lower-pinned"].order_trusted
    for name in ("off-grid-1.996", "off-grid-2.003", "off-grid-2.37"):
        assert abs(fits[name].order - float(name.split("-")[-1])) < 1e-6


def _dense_scan_min_ssr(v, eps):
    # np.linalg.lstsq at each of 2000 exponents: an oracle independent of the fit
    best = math.inf
    for p in np.linspace(ORDER_RANGE[0], ORDER_RANGE[1], 2000):
        basis = np.stack([np.ones_like(eps), eps ** p], axis=1)
        coef, *_ = np.linalg.lstsq(basis, v, rcond=None)
        r = basis @ coef - v
        best = min(best, float(r @ r))
    return best


def test_fit_limit_ssr_matches_dense_lstsq_scan():
    names = [n for n in MIXED_BATCH if n != "flat"]
    batch = fit_limit(np.stack([MIXED_BATCH[n] for n in names], axis=1), EPS_FIT4)
    for name, fit in zip(names, batch):
        oracle = _dense_scan_min_ssr(MIXED_BATCH[name], EPS_FIT4)
        assert fit.residual ** 2 <= oracle * (1.0 + 1e-12), name


def test_fit_limit_batch_validation():
    with pytest.raises(ValueError):
        fit_limit(np.ones((4, 2)), EPS8)
    with pytest.raises(ValueError):
        fit_limit(np.ones((8, 2, 1)), EPS8)


def test_singular_gauss_newton_matrix_gives_inf_for_its_column_only():
    # the stacked inverse raises for the whole stack; the others keep theirs
    gram = np.stack([np.eye(3), np.zeros((3, 3)), 2.0 * np.eye(3)])
    assert list(sweep._inv00(gram)) == [1.0, math.inf, 0.5]


def test_run_sweep_fits_every_limit_in_one_call(tmp_path, monkeypatch):
    calls = []
    real_fit = sweep.fit_limit

    def counting_fit(values, eps_list, known_order=None):
        calls.append(np.shape(values))
        return real_fit(values, eps_list, known_order)

    monkeypatch.setattr(sweep, "fit_limit", counting_fit)
    cfg = fast_config(tmp_path, family=PerturbedRound(lambda x: 0.1 * x))
    rec = run_sweep(cfg)
    # 12 mass components and the hat-BY gap, on the 3 smallest of 5 radii
    assert calls == [(3, 13)]
    by_eps = {r.eps: r.result for r in rec.records}
    results = [by_eps[e] for e in rec.fit_eps]
    for name in ("m_by", "m_hat", "m_alpha"):
        series = np.array([getattr(r, name).as_array() for r in results])
        for j, comp in enumerate(("x1", "x2", "x3", "t")):
            assert rec.fits[name][comp] == real_fit(series[:, j], rec.fit_eps)
    gaps = [float(np.max(np.abs(r.m_hat.as_array() - r.m_by.as_array()))) for r in results]
    assert rec.fits["hat_by_gap"] == real_fit(gaps, rec.fit_eps)


def test_decay_order_cubic():
    eps = np.geomspace(0.3, 0.03, 6)
    assert decay_order(4.0 * eps ** 3, eps) == pytest.approx(3.0, abs=1e-8)


def test_decay_order_floor():
    eps = np.array([0.2, 0.1, 0.05])
    assert decay_order([1e-15, 2e-16, 5e-16], eps) == math.inf
    got = decay_order([1e-3, 1e-5, 1e-16], eps)
    assert got == pytest.approx(math.log(100.0) / math.log(2.0), rel=1e-10)
    with pytest.raises(ValueError):
        decay_order([1e-3], [0.1])
    with pytest.raises(ValueError):
        decay_order([1e-3, 1e-4], [0.1, -0.2])


# |int lap f / (H + 2) dS| of the perturbed-round case poly_cos [-0.146918,
# -0.00012, -0.132763] (8 radii, 64x4, default seed): it rises over the
# first step, then decays as eps^2
FLAT_LAP_RADII = np.geomspace(0.3, 0.0075, 8)
FLAT_LAP_RISING = [5.660467896027572e-07, 9.789295754576514e-07, 4.0274528674355853e-07,
                   1.451045510599822e-07, 5.094397180031129e-08, 1.7785437359338902e-08,
                   6.2028036248771505e-09, 2.1612074894846772e-09]


def test_flat_laplacian_judgement_tail_order():
    tol = dict(DEFAULT_TOLERANCES)
    rising = judge_flat_laplacian(FLAT_LAP_RISING, FLAT_LAP_RADII, tol)
    assert FLAT_LAP_RISING[1] > 1.1 * FLAT_LAP_RISING[0]
    assert rising["passed"] and rising["order"] == pytest.approx(2.0, abs=0.01)
    # a sharp drop over the large radii, then a tail that ends under the
    # final-value bound: only the tail order can tell these apart
    head = [1e-3, 1e-4, 1e-5, 1e-6]
    tail_eps = FLAT_LAP_RADII[4:] / FLAT_LAP_RADII[4]
    for power, passed in ((2.0, True), (1.0, False), (0.0, False)):
        vals = head + list(5e-7 * tail_eps ** power)
        assert vals[-1] <= tol["funclim_factor"] * vals[0]
        entry = judge_flat_laplacian(vals, FLAT_LAP_RADII, tol)
        assert entry["passed"] is passed, power
        assert entry["order"] == pytest.approx(power, abs=1e-9)
    zero = judge_flat_laplacian([1e-13] * 8, FLAT_LAP_RADII, tol)
    assert zero["passed"] and zero["note"] == "zero to rounding"
    # an eps^2 tail after a flat head still misses the final-value bound
    late = judge_flat_laplacian([1e-3] * 4 + list(1e-3 * tail_eps ** 2), FLAT_LAP_RADII, tol)
    assert not late["passed"] and late["order"] == pytest.approx(2.0, abs=1e-9)


def test_cone_pairing_exact_values():
    cases = [
        ((0.0, 0.0, 0.0, 1.0), -1.0),
        ((1.0, 0.0, 0.0, 1.0), 0.0),
        ((2.0, 0.0, 0.0, 1.0), 1.0),
        ((0.0, 0.0, 0.0, -1.0), 1.0),
        ((3.0, -4.0, 0.0, 2.0), 3.0),
        ((0.0, 0.0, 0.0, 0.0), 0.0),
    ]
    for vec, want in cases:
        got = cone_pairing_report(MinkowskiVector(*vec))
        assert isinstance(got, float)
        assert got == want
        assert cone_pairing_report(np.array(vec)) == want
    with pytest.raises(ValueError):
        cone_pairing_report(np.ones(3))


def test_cone_pairing_tag_matches_classifier():
    # the slice supremum is the sup of <<v, eta>> over sampled null eta,
    # and its sign encodes the tag for clear-cut vectors
    rng = np.random.default_rng(DEFAULT_SEED)
    dirs = rng.normal(size=(4096, 3))
    etas = np.column_stack([dirs / np.linalg.norm(dirs, axis=1)[:, None], np.ones(len(dirs))])
    for _ in range(50):
        v = rng.normal(scale=2.0, size=4)
        cone_max = cone_pairing_report(v)
        sampled = float(np.max(etas[:, :3] @ v[:3] - v[3]))
        assert sampled <= cone_max + 1e-12
        assert cone_max - sampled <= 1e-2 * np.linalg.norm(v[:3])
        tag = causal_classify(MinkowskiVector(*v))
        if tag in (CausalClass.FUTURE_TIMELIKE, CausalClass.SPACELIKE,
                   CausalClass.PAST_TIMELIKE):
            assert (cone_max < 0.0) == (tag is CausalClass.FUTURE_TIMELIKE)


def test_family_from_spec_names():
    fam, label = family_from_spec("hyperbolic")
    assert isinstance(fam, Hyperbolic)
    assert label == "hyperbolic"
    for name in ("ads_schwarzschild", "adsschwarzschild", "AdS-Schwarzschild"):
        fam, label = family_from_spec({"name": name, "mass": 1.5})
        assert isinstance(fam, AdSSchwarzschild)
        assert fam.mass == 1.5
    fam, label = family_from_spec(
        {"name": "perturbed_round", "psi": {"type": "cos_theta", "amplitude": 0.1}})
    assert isinstance(fam, PerturbedRound)
    assert "cos_theta" in label


def test_family_from_spec_psi_profiles():
    # psi is a function of x = cos theta
    x = np.linspace(-1.0, 1.0, 7)
    fam, _ = family_from_spec(
        {"name": "perturbedround", "psi": {"type": "constant", "value": 0.3}})
    assert np.allclose(fam.psi(x), 0.3)
    fam, _ = family_from_spec(
        {"name": "perturbed_round",
         "psi": {"type": "poly_cos", "coefficients": [0.2, 0.0, 0.1]}})
    assert np.allclose(fam.psi(x), 0.2 + 0.1 * x ** 2)


@pytest.mark.parametrize("n_theta", [64, 128])
def test_psi_profile_types_give_identical_conformal_factors(n_theta):
    # cos_theta(a) and constant(c) are poly_cos [0, a] and [c] to the last
    # bit, and equal the closed forms 1 + rho^3 a cos(theta) / 3 and
    # 1 + rho^3 c / 3 the sweep outputs were produced from
    theta = QuadratureGrid(n_theta, 4).theta

    def u(psi, rho):
        fam, _ = family_from_spec({"name": "perturbed_round", "psi": psi})
        return fam.conformal_factor(rho, theta)

    for rho in (0.2, 0.0125):
        for a in (0.1, -0.37):
            got = u({"type": "cos_theta", "amplitude": a}, rho)
            assert np.array_equal(got, u({"type": "poly_cos", "coefficients": [0, a]}, rho))
            assert np.array_equal(got, 1.0 + rho ** 3 * (a * np.cos(theta)) / 3.0)
        for c in (0.3, -2.5):
            got = u({"type": "constant", "value": c}, rho)
            assert np.array_equal(got, u({"type": "poly_cos", "coefficients": [c]}, rho))
            assert np.array_equal(got, 1.0 + rho ** 3 * np.full_like(theta, c) / 3.0)


def test_family_from_spec_errors():
    with pytest.raises(ConfigError):
        family_from_spec("minkowski")
    with pytest.raises(ConfigError):
        family_from_spec({"name": "ads_schwarzschild"})
    with pytest.raises(ConfigError):
        family_from_spec({"name": "ads_schwarzschild", "mass": -1.0})
    with pytest.raises(ConfigError):
        family_from_spec({"name": "perturbed_round"})
    with pytest.raises(ConfigError):
        family_from_spec({"name": "perturbed_round", "psi": {"type": "fourier"}})
    with pytest.raises(ConfigError):
        family_from_spec({"name": "perturbed_round",
                          "psi": {"type": "poly_cos", "coefficients": []}})
    with pytest.raises(ConfigError):
        family_from_spec({"name": "perturbed_round",
                          "psi": {"type": "cos_theta", "amplitude": "big"}})


def test_default_schedule():
    sch = default_schedule()
    assert len(sch) == 8
    assert sch[0] == 0.2
    assert np.allclose(sch, 0.2 * (2 ** -0.5) ** np.arange(8))
    with pytest.raises(ConfigError):
        default_schedule(ratio=1.0)
    with pytest.raises(ConfigError):
        default_schedule(eps0=-0.1)
    with pytest.raises(ConfigError):
        default_schedule(count=0)


def test_sweep_config_validation(tmp_path):
    with pytest.raises(ConfigError):
        fast_config(tmp_path, eps_list=(0.1, 0.1))
    with pytest.raises(ConfigError):
        fast_config(tmp_path, eps_list=(0.6, 0.1))
    with pytest.raises(ConfigError):
        fast_config(tmp_path, eps_list=())
    with pytest.raises(ConfigError):
        fast_config(tmp_path, n_theta=12)
    with pytest.raises(ConfigError):
        fast_config(tmp_path, branch=0)
    with pytest.raises(ConfigError):
        fast_config(tmp_path, tolerances={"unknown_key": 1.0})
    cfg = fast_config(tmp_path, tolerances={"isometry": 1e-7})
    assert cfg.tolerances["isometry"] == 1e-7
    assert cfg.tolerances["hyperboloid"] == DEFAULT_TOLERANCES["hyperboloid"]


def base_dict(tmp_path):
    return {
        "family": "hyperbolic",
        "epsilons": [0.2, 0.1, 0.05],
        "grid": {"n_theta": 32, "n_phi": 4},
        "tolerances": {},
        "output": {"dir": str(tmp_path)},
    }


def test_from_dict_roundtrip(tmp_path):
    cfg = SweepConfig.from_dict(base_dict(tmp_path))
    assert isinstance(cfg.family, Hyperbolic)
    assert cfg.eps_list == (0.2, 0.1, 0.05)
    assert cfg.n_theta == 32
    assert cfg.seed == DEFAULT_SEED
    assert cfg.with_alpha is True


def test_from_dict_schedule(tmp_path):
    d = base_dict(tmp_path)
    del d["epsilons"]
    d["schedule"] = {"eps0": 0.2, "ratio": 0.5, "count": 4}
    cfg = SweepConfig.from_dict(d)
    assert np.allclose(cfg.eps_list, [0.2, 0.1, 0.05, 0.025])


def test_from_dict_errors(tmp_path):
    for key in ("family", "grid", "tolerances", "output"):
        d = base_dict(tmp_path)
        del d[key]
        with pytest.raises(ConfigError):
            SweepConfig.from_dict(d)
    d = base_dict(tmp_path)
    d["schedule"] = {"eps0": 0.2, "ratio": 0.5}
    with pytest.raises(ConfigError, match="exactly one"):
        SweepConfig.from_dict(d)
    d = base_dict(tmp_path)
    del d["epsilons"]
    with pytest.raises(ConfigError, match="exactly one"):
        SweepConfig.from_dict(d)
    d = base_dict(tmp_path)
    d["epsilons"] = "many"
    with pytest.raises(ConfigError):
        SweepConfig.from_dict(d)
    d = base_dict(tmp_path)
    d["grid"] = {"n_theta": 32.0, "n_phi": 4}
    with pytest.raises(ConfigError):
        SweepConfig.from_dict(d)
    d = base_dict(tmp_path)
    d["output"] = {}
    with pytest.raises(ConfigError):
        SweepConfig.from_dict(d)
    d = base_dict(tmp_path)
    d["alpha"] = "yes"
    with pytest.raises(ConfigError):
        SweepConfig.from_dict(d)
    d = base_dict(tmp_path)
    d["seed"] = 1.5
    with pytest.raises(ConfigError):
        SweepConfig.from_dict(d)
    for key in ("brnach", "eta_samples"):
        d = base_dict(tmp_path)
        d[key] = -1
        with pytest.raises(ConfigError, match="unknown config key"):
            SweepConfig.from_dict(d)


def test_run_sweep_reference_space(tmp_path):
    cfg = fast_config(tmp_path)
    rec = run_sweep(cfg)
    assert len(rec.records) == 5
    assert all(r.error is None for r in rec.records)
    assert np.max(np.abs(rec.limits["m_by"].as_array())) <= 1e-10
    assert np.max(np.abs(rec.limits["m_hat"].as_array())) <= 1e-10
    assert np.max(np.abs(rec.wang.as_array())) == 0.0
    assert rec.tags["m_by"]["classify"] is CausalClass.ZERO
    assert rec.tags["m_by"]["cone_max"] == cone_pairing_report(rec.limits["m_by"])
    assert abs(rec.tags["m_by"]["cone_max"]) <= 2e-10
    assert rec.gap_monotone
    # fits use the smallest half of the surviving radii, in ascending order
    want_fit = tuple(sorted(cfg.eps_list)[:max(3, math.ceil(len(cfg.eps_list) / 2))])
    assert rec.fit_eps == pytest.approx(want_fit)


def test_run_sweep_records_per_radius_failure(tmp_path):
    fam = PerturbedRound(lambda x: np.full_like(x, -40.0))
    cfg = fast_config(tmp_path, family=fam, eps_list=(0.45, 0.12, 0.08, 0.05))
    rec = run_sweep(cfg)
    assert rec.records[0].error is not None
    assert "ValueError" in rec.records[0].error
    assert rec.records[0].result is None
    assert all(r.error is None for r in rec.records[1:])
    assert rec.fit_eps == pytest.approx((0.05, 0.08, 0.12))


def test_run_sweep_needs_three_good_radii(tmp_path):
    fam = PerturbedRound(lambda x: np.full_like(x, -40.0))
    cfg = fast_config(tmp_path, family=fam, eps_list=(0.45, 0.44, 0.43, 0.06, 0.05))
    with pytest.raises(RuntimeError, match="need 3"):
        run_sweep(cfg)


def test_sweep_and_verify_build_one_gauss_legendre_rule(tmp_path, monkeypatch):
    # the sweep grid, the verify grid and the AdS collar-radius tail rule
    # all read the one 64-node theta table
    calls = []
    leggauss = np.polynomial.legendre.leggauss

    def counting(n):
        calls.append(n)
        return leggauss(n)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
    sphere_geometry._theta_tables.cache_clear()
    ah_metric._tail_rule.cache_clear()
    ah_metric.ads_collar_transform.cache_clear()
    cfg = fast_config(tmp_path, family=AdSSchwarzschild(1.0), n_theta=64)
    assert all(r.error is None for r in run_sweep(cfg).records)
    assert verify_identities(cfg)["passed"]
    assert calls == [64]


def test_run_sweep_deterministic(tmp_path):
    cfg_a = fast_config(tmp_path / "a", family=AdSSchwarzschild(1.0))
    cfg_b = fast_config(tmp_path / "b", family=AdSSchwarzschild(1.0))
    rec_a, rec_b = run_sweep(cfg_a), run_sweep(cfg_b)
    assert np.array_equal(rec_a.limits["m_by"].as_array(), rec_b.limits["m_by"].as_array())
    assert rec_a.fits["m_by"]["t"].order == rec_b.fits["m_by"]["t"].order
    pa = write_outputs(rec_a, cfg_a)
    pb = write_outputs(rec_b, cfg_b)
    for key in ("csv", "summary"):
        with open(pa[key], "rb") as fa, open(pb[key], "rb") as fb:
            assert fa.read() == fb.read()


def test_write_outputs_files(tmp_path):
    cfg = fast_config(tmp_path)
    rec = run_sweep(cfg)
    paths = write_outputs(rec, cfg)
    with open(paths["csv"]) as fh:
        csv_lines = fh.read().splitlines()
    assert csv_lines[0].startswith("epsilon,mBY_x1")
    assert len(csv_lines) == 1 + len(rec.records)
    with open(paths["csv"], newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        for key, cell in row.items():
            if cell and not key.startswith("tag_") and key != "error":
                float(cell)
    with open(paths["summary"]) as fh:
        summary = json.load(fh)
    for key in ("family", "epsilons", "fit_epsilons", "records", "fits",
                "limits", "tags", "wang_reference", "gap_monotone", "config"):
        assert key in summary
    assert summary["tags"]["m_by"]["classify"] == "zero"


def test_verify_identities_fast_pass(tmp_path):
    report = verify_identities(fast_config(tmp_path))
    assert report["passed"] is True
    assert report["seed"] == DEFAULT_SEED
    names = {
        "spinor_norm_match", "geodesic_restriction", "gradient_identity",
        "surface_identity", "norm_growth", "area_growth", "aspect_recovery",
        "mean_curvature_expansion", "reference_curvature_order",
        "gauss_curvature_order", "flat_laplacian_decay", "embedding_residuals",
    }
    assert set(report["entries"]) == names
    for name, entry in report["entries"].items():
        assert entry["passed"], name


def test_verify_embeds_each_sphere_once(tmp_path, monkeypatch):
    # every module-level lookup of embed_surface is counted, so a suite
    # entry that re-embeds a sphere on its own shows up as a repeat
    real = embed_h3.embed_surface
    calls = []

    def counting(surface, branch=1, **kw):
        calls.append((surface.eps, branch))
        return real(surface, branch=branch, **kw)

    for name, mod in list(sys.modules.items()):
        if name.startswith("ahmass.") and getattr(mod, "embed_surface", None) is real:
            monkeypatch.setattr(mod, "embed_surface", counting)
    cfg = fast_config(tmp_path, eps_list=default_schedule(), branch=-1)
    verify_identities(cfg)
    assert len(calls) == 16
    assert len(set(calls)) == len(calls)
    assert all(branch == cfg.branch for _, branch in calls)


def test_verify_checks_spinors_in_array_calls(tmp_path, monkeypatch):
    # the spinor norm check takes one array call per spinor, and the
    # geodesic restriction one batched fit for all its triples
    counts = {"spinor_at": 0, "spinor_polar_point": 0, "geodesic_norm_check": 0}
    for name in counts:
        real = getattr(killing_spinor, name)

        def counting(*args, _real=real, _name=name):
            counts[_name] += 1
            return _real(*args)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("ahmass.") and getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counting)
    report = verify_identities(fast_config(tmp_path, eps_list=default_schedule()))
    assert report["passed"] is True
    assert counts["spinor_at"] <= 10
    assert counts["spinor_polar_point"] <= 10
    assert counts["geodesic_norm_check"] <= 1
