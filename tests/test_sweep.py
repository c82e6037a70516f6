"""Limit fitting, cone-slice pairing against the tags, configuration plumbing, and the
radius-sweep driver."""

import csv
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from ahmass import (
    AdSSchwarzschild,
    CausalClass,
    ConfigError,
    Hyperbolic,
    MinkowskiVector,
    PerEpsRecord,
    PerturbedRound,
    QuadratureGrid,
    SweepConfig,
    causal_classify,
    cone_pairing_report,
    decay_order,
    default_schedule,
    family_from_spec,
    fit_limit,
    read_sweep_csv,
    run_sweep,
    verify_identities,
    write_outputs,
)
from ahmass import ah_metric
from ahmass import embed_h3
from ahmass import lorentz
from ahmass import quasilocal
from ahmass import sphere_geometry
from ahmass import sweep
from ahmass.cli import main
from ahmass.killing_spinor import (
    KillingNormField,
    exhaustion_norm_growth,
    minkowski_identity_residuals,
)
from ahmass.sweep import (
    MAX_GRID_PHI,
    MAX_GRID_THETA,
    MAX_SCHEDULE_COUNT,
    ORDER_RANGE,
    TOLERANCES,
    VERIFY_SPINORS,
    judge_flat_laplacian,
)

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
    # as np.unique counts them, NaN radii are one radius and infinite ones equal
    for eps in ([math.nan, math.nan, 0.1], [math.inf, math.inf, 0.1],
                [0.1, math.nan, 0.2, math.nan]):
        with pytest.raises(ValueError, match="positive and distinct"):
            fit_limit(np.ones(len(eps)), eps)
    with np.errstate(all="ignore"):
        fit = fit_limit([1.0, 2.0, 3.0], [math.nan, 0.2, 0.1])
    assert math.isnan(fit.limit)


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
    # the 8 components of m_BY and m_hat, m_alpha's time component (its
    # x1..x3 are m_BY's) and the hat-BY gap, on the 3 smallest of 5 radii
    assert calls == [(3, 10)]
    by_eps = {r.eps: r for r in rec.records}
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


def test_decay_order_is_the_least_squares_slope_of_kept_samples():
    # decay_order's shared log-log helper makes the same lstsq call as the
    # inline form it replaced, so the bits do not change
    eps = np.geomspace(0.2, 0.004, 11)
    values = -3.0 * eps ** 4.2 * (1.0 + 0.3 * np.cos(7.0 * eps))
    floor = 1e-4 * np.sinh(eps) ** 2  # drops the two smallest radii
    keep = np.abs(values) > floor
    assert keep.sum() == eps.size - 2
    basis = np.stack([np.ones(int(keep.sum())), np.log(eps[keep])], axis=1)
    coef, *_ = np.linalg.lstsq(basis, np.log(np.abs(values)[keep]), rcond=None)
    assert decay_order(values, eps, floor=floor) == float(coef[1])


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
# -0.00012, -0.132763] (8 radii, 64x4): it rises over the
# first step, then decays as eps^2
FLAT_LAP_RADII = np.geomspace(0.3, 0.0075, 8)
FLAT_LAP_RISING = [5.660467896027572e-07, 9.789295754576514e-07, 4.0274528674355853e-07,
                   1.451045510599822e-07, 5.094397180031129e-08, 1.7785437359338902e-08,
                   6.2028036248771505e-09, 2.1612074894846772e-09]


def test_flat_laplacian_judgement_tail_order():
    rising = judge_flat_laplacian(FLAT_LAP_RISING, FLAT_LAP_RADII)
    assert FLAT_LAP_RISING[1] > 1.1 * FLAT_LAP_RISING[0]
    assert rising["passed"] and rising["order"] == pytest.approx(2.0, abs=0.01)
    # a sharp drop over the large radii, then a tail that ends under the
    # final-value bound: only the tail order can tell these apart
    head = [1e-3, 1e-4, 1e-5, 1e-6]
    tail_eps = FLAT_LAP_RADII[4:] / FLAT_LAP_RADII[4]
    for power, passed in ((2.0, True), (1.0, False), (0.0, False)):
        vals = head + list(5e-7 * tail_eps ** power)
        assert vals[-1] <= TOLERANCES["funclim_factor"] * vals[0]
        entry = judge_flat_laplacian(vals, FLAT_LAP_RADII)
        assert entry["passed"] is passed, power
        assert entry["order"] == pytest.approx(power, abs=1e-9)
    zero = judge_flat_laplacian([1e-13] * 8, FLAT_LAP_RADII)
    assert zero["passed"] and zero["note"] == "zero to rounding"
    # an eps^2 tail after a flat head still misses the final-value bound
    late = judge_flat_laplacian([1e-3] * 4 + list(1e-3 * tail_eps ** 2), FLAT_LAP_RADII)
    assert not late["passed"] and late["order"] == pytest.approx(2.0, abs=1e-9)


def test_flat_laplacian_judgement_reads_first_and_tail():
    # the verdict reads the first value and the last _fit_count(8) = 4, so
    # those five alone give the entry a value per radius gives; the entry
    # still lists all eight radii
    read = FLAT_LAP_RISING[:1] + FLAT_LAP_RISING[-4:]
    assert judge_flat_laplacian(read, FLAT_LAP_RADII) == judge_flat_laplacian(
        FLAT_LAP_RISING, FLAT_LAP_RADII)
    assert judge_flat_laplacian(read, FLAT_LAP_RADII)["radii"] == FLAT_LAP_RADII.tolist()


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
    # and with the classifier's tol it encodes every tag: future-timelike
    # below -tol, future-null within tol, spacelike above tol, past tags
    # at |v_t| or more, zero within (1 + sqrt 3) tol
    rng = np.random.default_rng(94211)
    dirs = rng.normal(size=(4096, 3))
    etas = np.column_stack([dirs / np.linalg.norm(dirs, axis=1)[:, None], np.ones(len(dirs))])
    seen = set()
    for i in range(300):
        v = rng.normal(scale=2.0, size=4)
        if i % 3 == 1:  # within a few 1e-9 of the cone, either side
            v[3] = np.copysign(np.linalg.norm(v[:3]) + rng.uniform(-8e-9, 8e-9), v[3])
        elif i % 3 == 2:  # within a few 1e-9 of zero
            v *= rng.uniform(0.0, 2.0) * 1e-9 / np.max(np.abs(v))
        tol = 1e-9 * (1.0 + float(np.max(np.abs(v))))
        cone_max = cone_pairing_report(v)
        sampled = float(np.max(etas[:, :3] @ v[:3] - v[3]))
        assert sampled <= cone_max + 1e-12
        assert cone_max - sampled <= 1e-2 * np.linalg.norm(v[:3])
        tag = causal_classify(MinkowskiVector(*v))
        seen.add(tag)
        if tag is CausalClass.FUTURE_TIMELIKE:
            assert cone_max < -tol
        elif tag is CausalClass.FUTURE_NULL:
            assert abs(cone_max) <= tol
        elif tag is CausalClass.SPACELIKE:
            assert cone_max > tol
        elif tag is CausalClass.ZERO:
            assert abs(cone_max) <= (1.0 + math.sqrt(3.0)) * tol
        else:
            assert cone_max >= abs(v[3]) > 0.0
    assert seen == set(CausalClass)


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
        return fam.collar_profiles([rho], theta)[0][0]

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
    # a count whose smallest radius underflows is refused before the list
    # of 10^12 radii is built
    with pytest.raises(ConfigError, match="underflows"):
        default_schedule(count=10 ** 12)
    assert len(default_schedule(count=2000)) == 2000
    # a ratio just below 1 never underflows: the count cap refuses it
    # before the list is built
    with pytest.raises(ConfigError, match="schedule count %d exceeds %d"
                       % (MAX_SCHEDULE_COUNT + 1, MAX_SCHEDULE_COUNT)):
        default_schedule(ratio=1 - 2 ** -53, count=MAX_SCHEDULE_COUNT + 1)
    assert len(default_schedule(ratio=0.999, count=MAX_SCHEDULE_COUNT)) == MAX_SCHEDULE_COUNT


def test_sweep_config_validation(tmp_path):
    with pytest.raises(ConfigError):
        fast_config(tmp_path, eps_list=(0.1, 0.1))
    with pytest.raises(ConfigError):
        fast_config(tmp_path, eps_list=(0.6, 0.1))
    with pytest.raises(ConfigError):
        fast_config(tmp_path, eps_list=())
    with pytest.raises(ConfigError):
        fast_config(tmp_path, n_theta=12)


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
    for gone in ("with_alpha", "branch", "seed", "tolerances"):
        assert not hasattr(cfg, gone)


def test_from_dict_grid_caps(tmp_path):
    # the largest grid a config may ask for is accepted, one node more on
    # either axis is refused; nothing is built
    d = base_dict(tmp_path)
    d["grid"] = {"n_theta": MAX_GRID_THETA, "n_phi": MAX_GRID_PHI}
    cfg = SweepConfig.from_dict(d)
    assert (cfg.n_theta, cfg.n_phi) == (1024, 64)
    for key in ("n_theta", "n_phi"):
        d["grid"] = {"n_theta": MAX_GRID_THETA, "n_phi": MAX_GRID_PHI, key: getattr(cfg, key) + 1}
        with pytest.raises(ConfigError, match="grid.%s must lie in" % key):
            SweepConfig.from_dict(d)


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
    for tol, message in (([], "'tolerances' must be an object"),
                         ({"isometry": 1e-6}, "unknown tolerances key")):
        d = base_dict(tmp_path)
        d["tolerances"] = tol
        with pytest.raises(ConfigError, match=message):
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
    for key in ("brnach", "eta_samples", "branch", "seed"):
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


@pytest.mark.parametrize("family, tag", [
    (Hyperbolic(), CausalClass.ZERO),
    (AdSSchwarzschild(1.0), CausalClass.FUTURE_TIMELIKE),
], ids=["hyperbolic", "ads_m1"])
def test_alpha_mass_limit_on_the_by_scale(tmp_path, family, tag):
    # alpha -> 1 on an exhaustion, so m_alpha takes m_BY's tag and its limit
    # is within the limit tolerance of the reference mass vector
    cfg = fast_config(tmp_path, family=family, eps_list=default_schedule(), n_theta=64)
    rec = run_sweep(cfg)
    assert rec.tags["m_by"]["classify"] is tag
    assert rec.tags["m_alpha"]["classify"] is tag
    wang = rec.wang.as_array()
    bound = TOLERANCES["limit_rtol"] * (1.0 + np.abs(wang))
    assert np.all(np.abs(rec.limits["m_alpha"].as_array() - wang) <= bound)


def test_sweep_csv_alpha_columns_stretch_by_columns(tmp_path):
    cfg = fast_config(tmp_path, family=family_from_spec(POLY_SPEC)[0],
                      eps_list=default_schedule(), n_theta=64)
    paths = write_outputs(run_sweep(cfg), cfg)
    with open(paths["csv"], newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(cfg.eps_list)
    for row in rows:
        for c in ("x1", "x2", "x3"):
            assert float(row["malpha_" + c]) == float(row["mBY_" + c])
        assert float(row["malpha_t"]) == float(row["alpha"]) * float(row["mBY_t"])


def test_run_sweep_records_per_radius_failure(tmp_path):
    fam = PerturbedRound(lambda x: np.full_like(x, -40.0))
    cfg = fast_config(tmp_path, family=fam, eps_list=(0.45, 0.12, 0.08, 0.05))
    rec = run_sweep(cfg)
    assert rec.records[0].error is not None
    assert "ValueError" in rec.records[0].error
    # the failed radius carries no vector and no tag; each good record
    # carries the causal tag of each of its own three vectors
    assert rec.records[0] == PerEpsRecord(eps=0.45, error=rec.records[0].error)
    for r in rec.records[1:]:
        assert r.error is None
        assert r.tag_by is causal_classify(r.m_by)
        assert r.tag_hat is causal_classify(r.m_hat)
        assert r.tag_alpha is causal_classify(r.m_alpha)
    assert rec.fit_eps == pytest.approx((0.05, 0.08, 0.12))


def test_record_tags_tell_the_vectors_apart(tmp_path):
    # psi = 0.1 + 0.31085 cos(theta) puts m_BY just outside the light cone
    # at eps = 0.45 (<m, m> = +5.9e-7) and m_hat just inside (-7.1e-7),
    # while m_alpha's stretched time keeps it timelike down to eps = 0.3:
    # each pair of tags differs on some record
    spec = {"name": "perturbed_round", "psi": {"type": "poly_cos", "coefficients": [0.1, 0.31085]}}
    rec = run_sweep(fast_config(tmp_path, family=family_from_spec(spec)[0], eps_list=(0.45, 0.3, 0.2)))
    S, F = CausalClass.SPACELIKE, CausalClass.FUTURE_TIMELIKE
    assert [(r.tag_by, r.tag_hat, r.tag_alpha) for r in rec.records] == [(S, F, F), (S, S, F), (S, S, S)]


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
    cfg = fast_config(tmp_path, family=AdSSchwarzschild(1.0), n_theta=64)
    assert all(r.error is None for r in run_sweep(cfg).records)
    assert verify_identities(cfg)["passed"]
    assert calls == [64]


def test_sweep_and_verify_find_each_horizon_once(tmp_path, monkeypatch):
    # every collar radius brackets above its mass's horizon, so the cubic
    # is solved once per mass; the sweep and the verify each solve all
    # their collar radii in one lockstep call
    ah_metric._horizon_radius.cache_clear()
    solves = []
    collar_radii = ah_metric._collar_radii

    def counting(m, rhos):
        solves.append(len(rhos))
        return collar_radii(m, rhos)

    monkeypatch.setattr(ah_metric, "_collar_radii", counting)
    for m in (0.5, 1.0):
        cfg = fast_config(tmp_path, family=AdSSchwarzschild(m), eps_list=default_schedule())
        assert all(r.error is None for r in run_sweep(cfg).records)
        assert verify_identities(cfg)["passed"]
    info = ah_metric._horizon_radius.cache_info()
    assert (info.misses, info.currsize) == (2, 2) and info.hits > 0
    # per mass: the 8 sweep radii and the 13 verify radii (the 8 configured
    # and the 5 flat-Laplacian radii its verdict reads); aspect_recovery
    # reads u from its sphere
    assert solves == [8, 13] * 2


# Worst |m_BY - closed form| * eps^3 over the 12 default radii on 64x4 is
# 3.4e-16 for t and 6.4e-19 for x1..x3 (m = 0.3, 1 and 3.3); the bounds
# allow about four times that.
ADS_KAPPA_T, ADS_KAPPA_X = 1.5e-15, 3e-18


@pytest.mark.parametrize("m", [0.3, 1.0, 3.3])
def test_ads_mass_per_radius_closed_form(tmp_path, m):
    # the coordinate sphere at eps has area radius r = ads_collar_transform
    # (m, eps), and its m_BY is (0, 0, 0, 2m sqrt(1 + r^2) / (sqrt(1 + r^2)
    # + sqrt V)) with V = 1 + r^2 - 2m/r, future-timelike at every radius
    cfg = fast_config(tmp_path, family=AdSSchwarzschild(m), n_theta=64,
                      eps_list=default_schedule(count=12))
    for rec in run_sweep(cfg).records:
        eps = rec.eps
        r = ah_metric.ads_collar_transform(m, eps)
        s, v = math.sqrt(1.0 + r * r), math.sqrt(1.0 + r * r - 2.0 * m / r)
        got = rec.m_by.as_array()
        assert abs(got[3] - 2.0 * m * s / (s + v)) <= ADS_KAPPA_T / eps ** 3, eps
        assert np.max(np.abs(got[:3])) <= ADS_KAPPA_X / eps ** 3, eps
        assert rec.tag_by is CausalClass.FUTURE_TIMELIKE, eps


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
    # the per-radius numbers live in sweep.csv only
    assert sorted(summary) == sorted(("family", "epsilons", "fit_epsilons", "fits", "limits",
                                      "tags", "wang_reference", "gap_monotone", "config"))
    assert "records" not in summary
    assert summary["tags"]["m_by"]["classify"] == "zero"


def test_verify_identities_fast_pass(tmp_path):
    report = verify_identities(fast_config(tmp_path))
    assert report["passed"] is True
    assert sorted(report) == ["entries", "family", "passed"]
    names = {
        "surface_identity", "norm_growth", "area_growth", "aspect_recovery",
        "mean_curvature_expansion", "reference_curvature_order",
        "gauss_curvature_order", "flat_laplacian_decay", "embedding_residuals",
    }
    assert set(report["entries"]) == names
    for name, entry in report["entries"].items():
        assert entry["passed"], name


def test_verify_spinors_are_the_seed_94211_draws():
    # the fixed spinors are, bit for bit, the first five normalized
    # standard_normal(4) draws of default_rng(94211), which verify drew
    # before its spinors were fixed
    rng = np.random.default_rng(94211)
    assert len(VERIFY_SPINORS) == 5
    for z in VERIFY_SPINORS:
        a = rng.standard_normal(4)
        a = a / float(np.linalg.norm(a))
        assert z == lorentz.SpinorParameter(complex(a[0], a[1]), complex(a[2], a[3]))


def test_verify_reads_its_spinors_by_position(tmp_path):
    # with two radii surface_identity reads VERIFY_SPINORS[0] and [1], and
    # norm_growth still reads [3] on the same spheres, not the next in turn
    cfg = fast_config(tmp_path, family=family_from_spec(POLY_SPEC)[0], eps_list=(0.2, 0.1))
    entries = verify_identities(cfg)["entries"]
    grid = QuadratureGrid(cfg.n_theta, cfg.n_phi)
    embs = embed_h3.embed_surfaces(sphere_geometry.coordinate_spheres(cfg.family, [0.2, 0.1], grid))
    fields = [KillingNormField.from_spinor(z) for z in VERIFY_SPINORS]
    assert entries["norm_growth"]["exponent"] == exhaustion_norm_growth(fields[3], embs)
    assert entries["surface_identity"]["residual"] == max(
        [0.0] + minkowski_identity_residuals(fields[:2], embs))


def count_embed_calls(monkeypatch):
    # every module-level lookup of embed_surfaces is counted, embed_surface
    # included, so a sphere embedded on its own shows up as a call
    real = embed_h3.embed_surfaces
    calls = []

    def counting(surfaces):
        calls.append([s.eps for s in surfaces])
        return real(surfaces)

    for name, mod in list(sys.modules.items()):
        if name.startswith("ahmass.") and getattr(mod, "embed_surfaces", None) is real:
            monkeypatch.setattr(mod, "embed_surfaces", counting)
    return calls


def test_verify_embeds_each_sphere_once(tmp_path, monkeypatch):
    calls = count_embed_calls(monkeypatch)
    cfg = fast_config(tmp_path, eps_list=default_schedule())
    verify_identities(cfg)
    assert len(calls) == 1
    spheres = calls[0]
    # the 8 configured radii and the 5 flat-Laplacian radii its verdict reads
    assert len(spheres) == 13
    assert len(set(spheres)) == len(spheres)


def test_sweep_embeds_in_one_call(tmp_path, monkeypatch):
    # one call holds every radius that passed the K and H checks; a radius
    # that fails them is never embedded.  One node of the second radius
    # sits on K = -1, of the third on H = -2, of the fourth on both: the
    # K margin is checked first
    calls = count_embed_calls(monkeypatch)
    cfg = fast_config(tmp_path, family=PerturbedRound(lambda x: 0.1 * x),
                      eps_list=default_schedule(count=7))
    real_spheres = sweep.coordinate_spheres

    def bent(family, eps_list, grid):
        out = real_spheres(family, eps_list, grid)
        for i, (h, k) in ((1, (None, -1.0)), (2, (-2.0, None)), (3, (-2.0, -1.0))):
            s = out[i]
            H, K = s.H[:, 0].copy(), s.K[:, 0].copy()
            if h is not None:
                H[7] = h
            if k is not None:
                K[11] = k
            out[i] = sphere_geometry.SurfaceSample(s.eps, s.E[:, 0], H, K, grid)
        return out

    monkeypatch.setattr(sweep, "coordinate_spheres", bent)
    rec = run_sweep(cfg)
    assert calls == [[eps for eps in cfg.eps_list if eps not in cfg.eps_list[1:4]]]
    k_error = "EmbeddingError: Gauss curvature does not clear the K > -1 margin"
    h_error = "ValueError: mean curvature reaches the H = -2 floor"
    assert [r.error for r in rec.records[1:4]] == [k_error, h_error, k_error]
    assert all(r.error is None for i, r in enumerate(rec.records) if i not in (1, 2, 3))


def test_curvature_rule_gates_sweep_and_verify_alike():
    # run_sweep and verify's embedding_residuals read one rule: K must
    # clear -1 by the margin and H the floor, strictly; a NaN clears neither
    k_edge = -1.0 + sphere_geometry.EMBEDDABILITY_MARGIN
    h_edge = quasilocal.MEAN_CURVATURE_FLOOR
    assert sweep._curvature_ok((2.0, 2.1, 0.0, 0.1)) == (True, True)
    assert sweep._curvature_ok((h_edge, 2.1, k_edge, 0.1)) == (False, False)
    assert sweep._curvature_ok((np.nextafter(h_edge, 0.0), 2.1, np.nextafter(k_edge, 0.0), 0.1)) \
        == (True, True)
    assert sweep._curvature_ok((math.nan, 2.1, math.nan, 0.1)) == (False, False)


POLY_SPEC = {"name": "perturbed_round",
             "psi": {"type": "poly_cos", "coefficients": [0.05, -0.08, 0.06]}}


def lone_embedding_errors(cfg, radii):
    # the error text each radius gets when embedded alone
    grid = QuadratureGrid(cfg.n_theta, cfg.n_phi)
    errors = {}
    for eps in radii:
        try:
            embed_h3.embed_surface(sphere_geometry.coordinate_sphere(cfg.family, eps, grid))
        except embed_h3.EmbeddingError as exc:
            errors[eps] = "EmbeddingError: %s" % exc
    return errors


def test_sweep_isolates_radii_past_the_hyperboloid_floor(tmp_path, monkeypatch, capsys):
    # the node defects grow like 1/eps^2 (1.4e-12 at eps = 0.018, 3.6e-12
    # at 0.0125), so with the hyperboloid allowance at 2e-12 only the
    # deepest radii fail, each with the error it gets alone; the other rows
    # are those of an unpatched sweep
    cfg = fast_config(tmp_path, family=family_from_spec(POLY_SPEC)[0],
                      eps_list=default_schedule(count=12), n_theta=64)
    plain = run_sweep(cfg)
    monkeypatch.setattr(embed_h3, "HYPERBOLOID_TOL", 2e-12)
    errors = lone_embedding_errors(cfg, cfg.eps_list)
    assert set(errors) == set(cfg.eps_list[-len(errors):])
    assert 3 <= len(errors) <= len(cfg.eps_list) - 3
    floored = run_sweep(cfg)
    for a, b in zip(plain.records, floored.records):
        if b.eps in errors:
            assert b.error == errors[b.eps]
            assert b.error.startswith("EmbeddingError: embedded nodes leave the hyperboloid")
        else:
            assert sweep._csv_row(b) == sweep._csv_row(a)

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "family": POLY_SPEC, "schedule": {"eps0": 0.2, "ratio": 2 ** -0.5, "count": 12},
        "grid": {"n_theta": 64, "n_phi": 4}, "tolerances": {},
        "output": {"dir": str(tmp_path / "out")}}))
    assert main(["sweep", str(path)]) == 2
    out = capsys.readouterr().out
    assert out.count("FAILED: EmbeddingError: embedded nodes leave the hyperboloid") == len(errors)


def test_sweep_isolates_a_non_finite_density(tmp_path, monkeypatch, capsys):
    # a NaN in one radius's H0: only that record fails, with the error its
    # sphere gets alone; the others equal an unpatched sweep's records
    cfg = fast_config(tmp_path, family=family_from_spec(POLY_SPEC)[0], eps_list=default_schedule())
    plain = run_sweep(cfg)
    target = cfg.eps_list[3]
    real = sweep.embed_surfaces

    def breaking(surfaces):
        out = []
        for surf, emb in zip(surfaces, real(surfaces)):
            if surf.eps == target:
                h0 = emb.H0.copy()
                h0[5] = np.nan
                emb = embed_h3.EmbeddedSurface(emb.grid, emb.X, emb.normal, h0,
                                               emb.isometry_residual, surf, emb.profile)
            out.append(emb)
        return out

    monkeypatch.setattr(sweep, "embed_surfaces", breaking)
    broken = run_sweep(cfg)
    for a, b in zip(plain.records, broken.records):
        if b.eps == target:
            assert b.error == "ValueError: field has non-finite entries"
            assert b == PerEpsRecord(eps=target, error=b.error)
        else:
            assert b == a

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "family": POLY_SPEC, "schedule": {"eps0": 0.2, "ratio": 2 ** -0.5, "count": 8},
        "grid": {"n_theta": 32, "n_phi": 4}, "tolerances": {},
        "output": {"dir": str(tmp_path / "out")}}))
    assert main(["sweep", str(path)]) == 2
    assert capsys.readouterr().out.count("FAILED: ValueError: field has non-finite entries") == 1


def test_aspect_recovery_reads_u_from_the_deepest_sphere(tmp_path, monkeypatch):
    # the entry reads u off the deepest configured sphere as it was built:
    # a failed embedding leaves it its value, a failed sphere its error
    cfg = fast_config(tmp_path, family=family_from_spec(POLY_SPEC)[0], eps_list=default_schedule())
    plain = verify_identities(cfg)["entries"]
    deepest = cfg.eps_list[-1]
    real_spheres, real_embed = sweep.coordinate_spheres, sweep.embed_surfaces

    def unembedded(surfaces):
        return [embed_h3.EmbeddingError("cannot embed") if s.eps == deepest else emb
                for s, emb in zip(surfaces, real_embed(surfaces))]

    monkeypatch.setattr(sweep, "embed_surfaces", unembedded)
    entries = verify_identities(cfg)["entries"]
    assert entries["aspect_recovery"] == plain["aspect_recovery"]
    assert entries["mean_curvature_expansion"]["error"] == "EmbeddingError: cannot embed"

    def unbuilt(family, eps_list, grid):
        return [ValueError("no sphere") if eps == deepest else s
                for eps, s in zip(eps_list, real_spheres(family, eps_list, grid))]

    monkeypatch.setattr(sweep, "coordinate_spheres", unbuilt)
    entries = verify_identities(cfg)["entries"]
    assert entries["aspect_recovery"] == {"passed": False, "error": "ValueError: no sphere"}


def test_sweep_classifies_each_mass_vector_once(tmp_path, monkeypatch):
    # run_sweep and write_outputs together tag each per-radius vector and
    # each fitted limit exactly once; a record's tags are fields, set where
    # its vectors are formed
    calls = []
    real = lorentz.causal_classify

    def counting(v, tol=None):
        calls.append(v)
        return real(v, tol)

    for name, mod in list(sys.modules.items()):
        if name.startswith("ahmass") and getattr(mod, "causal_classify", None) is real:
            monkeypatch.setattr(mod, "causal_classify", counting)
    cfg = fast_config(tmp_path, family=family_from_spec(POLY_SPEC)[0])
    rec = run_sweep(cfg)
    write_outputs(rec, cfg)
    assert all(r.error is None for r in rec.records)
    assert len(calls) == 3 * len(rec.records) + len(rec.limits)


def per_record_gap(rec):
    # the hat-BY gap as each record formed it before the stack did
    return float(np.max(np.abs(rec.m_hat.as_array() - rec.m_by.as_array())))


M40_SPEC = {"name": "perturbed_round", "psi": {"type": "constant", "value": -40.0}}
ADS100_SPEC = {"name": "ads_schwarzschild", "mass": 100.0}
ADS100_EPS = (0.5, 0.4, 0.3, 0.2, 0.1, 0.07, 0.05)
POLY_M20_SPEC = {"name": "perturbed_round",
                 "psi": {"type": "poly_cos", "coefficients": [0.0, 0.0, -20.0]}}
DEEP_EPS = (0.45, 0.3, 0.2, 0.12, 0.08, 0.05)


@pytest.mark.parametrize("spec, eps, n_failed", [
    (POLY_SPEC, default_schedule(), 0),
    ({"name": "ads_schwarzschild", "mass": 1.0}, default_schedule(), 0),
    (ADS100_SPEC, ADS100_EPS, 3),
    ("hyperbolic", default_schedule(), 0),
    (M40_SPEC, (0.45, 0.12, 0.08, 0.05), 1),
], ids=["poly_cos", "ads_m1", "ads_m100", "hyperbolic", "constant_m40"])
def test_stacked_tail_equals_per_record_forms(tmp_path, spec, eps, n_failed):
    # the H and K extrema, the enclosing radii and the hat-BY gap of every
    # record, taken once per stack, equal the per-record forms to the bit
    cfg = fast_config(tmp_path, family=family_from_spec(spec)[0], eps_list=eps, n_theta=64)
    rec = run_sweep(cfg)
    grid = QuadratureGrid(cfg.n_theta, cfg.n_phi)
    good = [r for r in rec.records if r.error is None]
    assert len(rec.records) - len(good) == n_failed
    for r in good:
        surf = sphere_geometry.coordinate_sphere(cfg.family, r.eps, grid)
        t = embed_h3.embed_surface(surf).X[..., 3]
        assert (r.h_min, r.h_max) == (np.min(surf.H), np.max(surf.H))
        assert (r.k_min, r.k_max) == (np.min(surf.K), np.max(surf.K))
        assert r.radii == (float(np.arccosh(np.min(t))), float(np.arccosh(np.max(t))))
        assert r.gap == per_record_gap(r)
    gaps = [per_record_gap(r) for r in good]
    slack = 1e-12 + 1e-9 * max(gaps)
    assert rec.gap_monotone == all(b <= a + slack for a, b in zip(gaps, gaps[1:]))


def per_record_csv(record) -> str:
    # sweep.csv as the per-cell formatter wrote it
    def cell(x):
        if x is None:
            return ""
        if isinstance(x, float):
            return repr(float(x))
        return str(x)

    lines = [",".join(sweep._CSV_HEADER)]
    for rec in record.records:
        row = [rec.eps]
        for vec in (rec.m_by, rec.m_hat, rec.m_alpha):
            row.extend(list(vec.as_array()) if vec is not None else [None] * 4)
        row.extend([rec.alpha, *(rec.radii or (None, None)), rec.area, rec.h_min, rec.h_max, rec.k_min, rec.k_max,
                    rec.isometry_residual, rec.hyperboloid_defect,
                    *(tag.value if tag is not None else None
                      for tag in (rec.tag_by, rec.tag_hat, rec.tag_alpha)), rec.error])
        lines.append(",".join(cell(x) for x in row))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("spec, eps", [
    (M40_SPEC, (0.45, 0.12, 0.08, 0.05)),
    (ADS100_SPEC, ADS100_EPS),
    (POLY_M20_SPEC, DEEP_EPS),
], ids=["constant_m40", "ads_m100", "poly_cos_m20"])
def test_sweep_csv_equals_per_cell_formatter(tmp_path, spec, eps):
    cfg = fast_config(tmp_path, family=family_from_spec(spec)[0], eps_list=eps, n_theta=64)
    rec = run_sweep(cfg)
    assert any(r.error is not None for r in rec.records)
    data = Path(write_outputs(rec, cfg)["csv"]).read_text()
    assert data == per_record_csv(rec)
    rows = list(csv.reader(io.StringIO(data)))
    assert len(rows) == 1 + len(eps)
    assert all(len(row) == 27 for row in rows)
    # and read_sweep_csv gives every value back bit for bit
    for r, row in zip(rec.records, read_sweep_csv(Path(cfg.output_dir) / "sweep.csv")):
        assert (row["epsilon"], row["error"]) == (r.eps, r.error or "")
        values = [v for k, v in row.items() if k not in ("epsilon", "error")]
        if r.error is not None:
            assert values == [None] * 25
        else:
            assert values == [*r.m_by.as_array(), *r.m_hat.as_array(), *r.m_alpha.as_array(),
                              r.alpha, *r.radii, r.area, r.h_min, r.h_max, r.k_min, r.k_max,
                              r.isometry_residual, r.hyperboloid_defect, r.tag_by.value,
                              r.tag_hat.value, r.tag_alpha.value]


@pytest.mark.parametrize("spec, eps", [
    (POLY_SPEC, default_schedule()),
    (ADS100_SPEC, ADS100_EPS),
    (M40_SPEC, (0.45, 0.12, 0.08, 0.05)),
], ids=["poly_cos", "ads_m100", "constant_m40"])
def test_sweep_csv_radius_cells_are_enclosing_radii(tmp_path, spec, eps):
    # radius_min and radius_max of each embedded sphere are the repr of
    # enclosing_radii_stack's values; a failed radius leaves them empty
    cfg = fast_config(tmp_path, family=family_from_spec(spec)[0], eps_list=eps, n_theta=64)
    with open(write_outputs(run_sweep(cfg), cfg)["csv"], newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["epsilon"]) for r in rows] == list(cfg.eps_list)
    good = [float(r["epsilon"]) for r in rows if not r["error"]]
    surfs = sphere_geometry.coordinate_spheres(cfg.family, good, QuadratureGrid(cfg.n_theta, cfg.n_phi))
    radii = dict(zip(good, quasilocal.enclosing_radii_stack(embed_h3.embed_surfaces(surfs)).tolist()))
    for r in rows:
        want = [float.__repr__(x) for x in radii[float(r["epsilon"])]] if not r["error"] else ["", ""]
        assert [r["radius_min"], r["radius_max"]] == want


def test_verify_fails_only_entries_that_read_a_failed_sphere(tmp_path, monkeypatch):
    cfg = fast_config(tmp_path, family=family_from_spec(POLY_SPEC)[0],
                      eps_list=default_schedule(count=12), n_theta=64)
    eps = list(cfg.eps_list)
    eps_fun = [float(e) for e in np.geomspace(0.3, 0.0075, 8)]
    # the radii each entry reads; the rest read no sphere
    reads = {"surface_identity": [eps[0], eps[len(eps) // 2], eps[-1]],
             "norm_growth": eps[:6], "area_growth": eps, "mean_curvature_expansion": eps[-1:],
             "reference_curvature_order": eps, "gauss_curvature_order": eps,
             "flat_laplacian_decay": eps_fun, "embedding_residuals": eps}
    assert verify_identities(cfg)["passed"] is True
    monkeypatch.setattr(embed_h3, "HYPERBOLOID_TOL", 2e-12)
    errors = lone_embedding_errors(cfg, eps + eps_fun)
    report = verify_identities(cfg)
    failed = {name for name, entry in report["entries"].items() if not entry["passed"]}
    assert failed == {name for name, radii in reads.items() if set(radii) & set(errors)}
    assert "norm_growth" not in failed and "area_growth" in failed
    for name in failed:
        # an entry reads its radii largest first and stops at the first failure
        first = max(set(reads[name]) & set(errors))
        assert report["entries"][name]["error"] == errors[first]


def test_every_tolerance_is_a_reported_bound(tmp_path, monkeypatch):
    # a bound no verify entry reports is a dead constant: each key of the
    # table is moved to a value of its own (a relative 2^-20 apart, too
    # little to change a verdict), and every key but limit_rtol, which only
    # summary.json readers use, must come back as some entry's bound on the
    # bench's hyperbolic or poly_cos config
    moved = {key: val * (1.0 + (k + 1) * 2.0 ** -20)
             for k, (key, val) in enumerate(sorted(TOLERANCES.items()))}
    for key, val in moved.items():
        monkeypatch.setitem(sweep.TOLERANCES, key, val)
    reported = set()
    for family in ("hyperbolic", POLY_SPEC):
        cfg = SweepConfig.from_dict({
            "family": family, "schedule": {"eps0": 0.2, "ratio": 2 ** -0.5, "count": 8},
            "grid": {"n_theta": 64, "n_phi": 4}, "tolerances": {},
            "output": {"dir": str(tmp_path)}})
        for entry in verify_identities(cfg)["entries"].values():
            bound = entry["tolerance"]
            reported.update(bound.values() if isinstance(bound, dict) else [bound])
    assert {key for key, val in moved.items() if val in reported} == set(TOLERANCES) - {"limit_rtol"}
