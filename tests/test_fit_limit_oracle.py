"""Oracle test of the limit fit's exponent search: the array form of the
search, kept here as the reference, and the fit in ahmass.sweep return
equal FitResults on drawn batches, and each flat column is its row's own
mean and spread."""

import math
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ahmass import sweep  # noqa: E402
from ahmass.sweep import ORDER_RANGE, fit_limit  # noqa: E402


# --- reference: the exponent search as numpy array bookkeeping ------------

def ref_sum_last(a):
    s = a[..., 0]
    for i in range(1, a.shape[-1]):
        s = s + a[..., i]
    return s


def ref_powers(eps, p):
    shape = (p.size, eps.size)
    return np.power(np.broadcast_to(eps, shape).copy(),
                    np.broadcast_to(p[:, None], shape).copy())


def ref_line_fit(x, v):
    n = x.shape[-1]
    xm = ref_sum_last(x) / n
    vm = ref_sum_last(v) / n
    dx = x - xm[..., None]
    dv = v - vm[..., None]
    c = ref_sum_last(dx * dv) / ref_sum_last(dx * dx)
    r = c[..., None] * dx - dv
    return vm - c * xm, c, ref_sum_last(r * r), r


def ref_illinois_roots(slope, a, b):
    cols = np.arange(a.size)
    ga, gb = slope(a, cols), slope(b, cols)
    root = np.full(a.shape, np.nan)
    side = np.zeros(a.shape)
    act = np.flatnonzero((ga < 0.0) & (gb > 0.0))
    for _ in range(100):
        q = (a[act] * gb[act] - b[act] * ga[act]) / (gb[act] - ga[act])
        inside = (a[act] < q) & (q < b[act])
        act, q = act[inside], q[inside]
        if act.size == 0:
            break
        gq = slope(q, act)
        settled = np.abs(q - root[act]) <= 1e-9 * q
        root[act] = q
        go = ~settled & (gq != 0.0)
        act, q, gq = act[go], q[go], gq[go]
        neg = gq < 0.0
        lo, hi = act[neg], act[~neg]
        a[lo], ga[lo] = q[neg], gq[neg]
        gb[lo[side[lo] < 0]] *= 0.5
        side[lo] = -1
        b[hi], gb[hi] = q[~neg], gq[~neg]
        ga[hi[side[hi] > 0]] *= 0.5
        side[hi] = 1
    return root


def ref_free_order_fit(vs, eps):
    scan = np.linspace(ORDER_RANGE[0], ORDER_RANGE[1], 23)
    vinf, c, ssr, _ = ref_line_fit(ref_powers(eps, scan)[:, None, :], vs)
    best = np.argmin(ssr, axis=0)
    cols = np.arange(vs.shape[0])
    p, vinf, c, ssr = scan[best], vinf[best, cols], c[best, cols], ssr[best, cols]
    log_eps = np.log(eps)

    def slope(q, rows):
        x = ref_powers(eps, q)
        _, cq, _, r = ref_line_fit(x, vs[rows])
        return cq * ref_sum_last(r * (x * log_eps))

    h = float(scan[1] - scan[0])
    root = ref_illinois_roots(slope, np.maximum(p - h, ORDER_RANGE[0]),
                              np.minimum(p + h, ORDER_RANGE[1]))
    has = np.flatnonzero(~np.isnan(root))
    vq, cq, sq, _ = ref_line_fit(ref_powers(eps, root[has]), vs[has])
    better = sq <= ssr[has]
    take = has[better]
    p[take], vinf[take], c[take], ssr[take] = root[take], vq[better], cq[better], sq[better]
    ep = ref_powers(eps, p)
    jac = np.stack([np.ones_like(ep), ep, c[:, None] * ep * log_eps], axis=1)
    gram = ref_sum_last(jac[:, :, None, :] * jac[:, None, :, :])
    return p, vinf, c, ssr, sweep._stderr(sweep._inv00(gram), ssr, max(eps.size - 3, 1))


# --- drawn batches ---------------------------------------------------------

RADII = st.lists(st.floats(1e-3, 0.5), min_size=3, max_size=12, unique=True)

# a column: a power law with its exponent inside the search window, on its
# ends or outside it (pinned to an end), a flat column, or noise (often no
# sign change of the slope in the bracket)
POWER = st.tuples(st.just("power"), st.floats(-1e3, 1e3), st.floats(-10.0, 10.0),
                  st.one_of(st.floats(0.6, 5.9), st.sampled_from([0.5, 6.0, 0.3, 7.5])))
FLAT = st.tuples(st.just("flat"), st.floats(-1e3, 1e3), st.sampled_from([0.0, 1e-15, 3e-14]),
                 st.just(0.0))
NOISE = st.tuples(st.just("noise"), st.floats(-10.0, 10.0), st.floats(1e-6, 1.0),
                  st.integers(0, 2 ** 31))
COLUMN = st.one_of(POWER, FLAT, NOISE)


def column(eps, spec):
    kind, a, b, c = spec
    if kind == "power":
        return a + b * eps ** c
    if kind == "flat":
        return a + b * np.cos(np.arange(eps.size))
    return a + b * np.random.default_rng(c).standard_normal(eps.size)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(radii=RADII, cols=st.lists(COLUMN, min_size=1, max_size=13))
def test_fit_limit_equals_array_form_search(radii, cols):
    eps = np.array(radii)
    series = np.stack([column(eps, spec) for spec in cols], axis=1)
    got = fit_limit(series, eps)
    with mock.patch.object(sweep, "_free_order_fit", ref_free_order_fit):
        want = fit_limit(series, eps)
    assert got == want
    # a flat column, reduced with the batch's other flat columns, is the
    # mean and spread of its row alone, order 0, untrusted
    vs = np.ascontiguousarray(series[np.argsort(eps)].T)
    for row, fit in zip(vs, got):
        if np.ptp(row) <= 1e-13 * (1.0 + np.max(np.abs(row))):
            assert fit == sweep.FitResult(float(np.mean(row)), 0.0, 0.0, float(np.ptp(row)),
                                          0.0, False)
    # the pieces the known-order fit shares with the free one
    x = np.sort(eps) ** 2.0
    assert np.array_equal(sweep._sum_last(vs), ref_sum_last(vs))
    for a, b in zip(sweep._line_fit(x, *sweep._centred(vs)), ref_line_fit(x, vs)):
        assert np.array_equal(a, b, equal_nan=True)


def test_drawn_kinds_reach_every_search_outcome(monkeypatch):
    # a power law inside the window refines its scan point, one past the
    # window stays pinned to its end, and noise can give no sign change:
    # the oracle above compares each branch of the search
    eps = np.geomspace(0.2, 0.01, 8)
    specs = [("power", 1.0, 2.0, 2.7), ("power", 1.0, 2.0, 7.5), ("noise", 0.0, 1.0, 3)]
    roots = []
    search = sweep._illinois_roots
    monkeypatch.setattr(sweep, "_illinois_roots",
                        lambda *args: roots.append(search(*args)) or roots[-1])
    fits = fit_limit(np.stack([column(eps, spec) for spec in specs], axis=1), eps)
    (root,) = roots
    assert abs(root[0] - 2.7) < 1e-6 and fits[0].order == root[0]
    assert fits[1].order == ORDER_RANGE[1] and not fits[1].order_trusted
    assert math.isnan(root[2])
    flat = fit_limit(column(eps, ("flat", 3.0, 1e-15, 0.0)), eps)
    assert flat.order == 0.0 and not flat.order_trusted

