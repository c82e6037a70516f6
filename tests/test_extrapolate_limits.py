"""The sweep's limit model: v0 + sum_k c_k eps^k by linear least squares,
its error bar against a dense-algebra oracle, the column independence of a
batch, and property tests on exact polynomials and on sweeps of small
poly_cos aspects against wang_mass."""

import math

import numpy as np
import pytest

from ahmass import (
    LimitFit,
    PerturbedRound,
    SweepConfig,
    default_schedule,
    extrapolate_limits,
    run_sweep,
)
from ahmass.sweep import MAX_DEGREE, ROUNDING_KAPPA

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

EPS8 = np.array(default_schedule(count=8))

# Columns of one batch on EPS8: flat and zero data, exact polynomials of
# degree up to 5, smooth series no polynomial fits, and data at the
# rounding floor.
_NOISE = np.random.default_rng(3301).standard_normal(EPS8.size)
MIXED_BATCH = {
    "flat": np.full(8, 7.25),
    "zero": np.zeros(8),
    "quadratic": 0.035 - 0.0058 * EPS8 ** 2,
    "quintic": 1.0 + EPS8 - 2.0 * EPS8 ** 3 + 0.5 * EPS8 ** 5,
    "exp": np.exp(3.0 * EPS8),
    "pole": 1.0 / (1.3 - EPS8),
    "half-power": 0.2 + EPS8 ** 1.5,
    "rounding": 1e-16 * _NOISE / EPS8 ** 3,
}


def test_batch_equals_solo_whatever_the_shape():
    cols = list(MIXED_BATCH.values())
    batch = extrapolate_limits(np.stack(cols, axis=1), EPS8)
    assert isinstance(batch, tuple) and len(batch) == len(cols)
    for name, col, fit in zip(MIXED_BATCH, cols, batch):
        assert isinstance(fit, LimitFit) and fit.degree == MAX_DEGREE
        assert fit == extrapolate_limits(col, EPS8), name
    # neither the column order, the radius order, a repeat nor the batch
    # width moves a column's bits
    assert extrapolate_limits(np.stack(cols[::-1], axis=1)[::-1], EPS8[::-1]) == batch[::-1]
    assert extrapolate_limits(cols[4][:, None], EPS8) == (batch[4],)
    wide = extrapolate_limits(np.stack(cols * 5 + cols[:3], axis=1), EPS8)
    assert wide == batch * 5 + batch[:3]
    for k in range(1, len(cols)):
        assert extrapolate_limits(np.stack(cols[k:], axis=1), EPS8) == batch[k:]


def oracle_fit(v, eps):
    # the definition in dense algebra: np.linalg.lstsq at degrees d and
    # d - 1, the standard error from the inverse normal matrix, and the
    # limit's weights on the data from the pseudo-inverse
    n = eps.size
    d = min(MAX_DEGREE, n - 3)
    x = np.vander(eps / eps.max(), d + 1, increasing=True)
    beta, *_ = np.linalg.lstsq(x, v, rcond=None)
    v0 = beta[0]
    shift = abs(v0 - np.linalg.lstsq(x[:, :d], v, rcond=None)[0][0]) if d else math.inf
    r = x @ beta - v
    stderr = math.sqrt(np.linalg.inv(x.T @ x)[0, 0] * (r @ r) / (n - d - 1))
    w = np.linalg.pinv(x)[0]
    rounding = ROUNDING_KAPPA * (1.0 + abs(v0)) * math.sqrt(np.sum((w / eps ** 3) ** 2))
    return v0, max(stderr, shift, 1e-15 * (1.0 + abs(v0))) + rounding, d


@pytest.mark.parametrize("count", [3, 4, 5, 8, 12])
def test_limit_and_bar_match_dense_oracle(count):
    eps = np.array(default_schedule(count=count))
    for name, fn in (("exp", lambda e: np.exp(3.0 * e)), ("pole", lambda e: 1.0 / (1.3 - e)),
                     ("half-power", lambda e: 0.2 + e ** 1.5)):
        fit = extrapolate_limits(fn(eps), eps)
        v0, err, d = oracle_fit(fn(eps), eps)
        assert fit.degree == d
        assert fit.limit == pytest.approx(v0, rel=1e-12, abs=1e-13), name
        assert fit.limit_err == pytest.approx(err, rel=1e-6), name
    if count == 3:
        assert math.isinf(fit.limit_err)  # degree 0: no lower degree to compare


def test_bar_holds_the_degree_shift():
    # at 8 radii the exp column's degree 4 and 5 limits differ by far more
    # than the standard error and the rounding term
    fit = extrapolate_limits(np.exp(3.0 * EPS8), EPS8)
    x = np.vander(EPS8 / EPS8.max(), MAX_DEGREE + 1, increasing=True)
    shift = abs(np.linalg.lstsq(x, np.exp(3.0 * EPS8), rcond=None)[0][0]
                - np.linalg.lstsq(x[:, :-1], np.exp(3.0 * EPS8), rcond=None)[0][0])
    assert fit.limit_err >= shift > 1e-9
    assert abs(fit.limit - 1.0) <= fit.limit_err


def test_validation():
    with pytest.raises(ValueError):
        extrapolate_limits([1.0, 2.0], [0.1, 0.2])
    with pytest.raises(ValueError, match="positive and distinct"):
        extrapolate_limits([1.0, 2.0, 3.0], [0.1, 0.1, 0.2])
    with pytest.raises(ValueError):
        extrapolate_limits(np.ones((4, 2)), EPS8)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(count=st.integers(4, 16), data=st.data())
def test_exact_polynomials_recovered_to_rounding(count, data):
    eps = np.array(default_schedule(count=count))
    d = min(MAX_DEGREE, count - 3)
    coeffs = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=d + 1))
    v = sum(c * eps ** k for k, c in enumerate(coeffs))
    fit = extrapolate_limits(v, eps)
    # the limit is a dot product of the data with the weights w: count
    # roundings of sum |w_i| max |v|, doubled for the weights' own rounding
    w = np.linalg.pinv(np.vander(eps / eps.max(), d + 1, increasing=True))[0]
    bound = 2.0 * count * 2.0 ** -53 * float(np.sum(np.abs(w))) * float(np.max(np.abs(v)))
    assert abs(fit.limit - coeffs[0]) <= bound
    if len(coeffs) <= d:  # below the fit degree the bar covers the limit too
        assert abs(fit.limit - coeffs[0]) <= fit.limit_err


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(coeffs=st.lists(st.floats(-0.05, 0.05), min_size=2, max_size=4),
       count=st.sampled_from([8, 10, 12]))
def test_small_poly_cos_limits_within_their_bar_of_wang(tmp_path_factory, coeffs, count):
    fam = PerturbedRound(np.polynomial.Polynomial(coeffs))
    cfg = SweepConfig(family=fam, eps_list=default_schedule(count=count), n_theta=64, n_phi=4,
                      output_dir=str(tmp_path_factory.mktemp("poly")))
    rec = run_sweep(cfg)
    for name in ("m_by", "m_hat", "m_alpha"):
        for comp in ("x3", "t"):
            fit = rec.fits[name][comp]
            assert abs(fit.limit - getattr(rec.wang, comp)) <= fit.limit_err, (name, comp)
