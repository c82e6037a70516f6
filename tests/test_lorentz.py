"""Minkowski vector algebra, causal classification, and Lorentz maps."""

import math

import numpy as np
import pytest

from ahmass import (
    CausalClass,
    LorentzMap,
    MinkowskiVector,
    SpinorParameter,
    boost,
    causal_classify,
    hopf_eta,
    lorentz_inner,
    rotation,
)
from oracles import hyperboloid_point, sphere_direction

ETA = np.diag([1.0, 1.0, 1.0, -1.0])
RNG_SEED = 20240811


def random_restricted_map(rng):
    # product of a boost and two rotations stays in the restricted group
    lam = boost(int(rng.integers(0, 3)), float(rng.uniform(-1.2, 1.2)))
    lam = lam.compose(rotation(int(rng.integers(0, 3)), float(rng.uniform(0, 2 * np.pi))))
    return lam.compose(rotation(int(rng.integers(0, 3)), float(rng.uniform(0, 2 * np.pi))))


def test_inner_product_signature():
    e = [MinkowskiVector(*row) for row in np.eye(4)]
    for i in range(3):
        assert lorentz_inner(e[i], e[i]) == 1.0
    assert lorentz_inner(e[3], e[3]) == -1.0
    assert lorentz_inner(e[0], e[3]) == 0.0


def sum_form_inner(a, b):
    # the pairing as numpy's sum over the spatial axis, which lorentz_inner
    # unrolls
    return np.sum(a[..., :3] * b[..., :3], axis=-1) - a[..., 3] * b[..., 3]


@pytest.mark.parametrize("shape", [(4,), (9, 4), (64, 4, 4), (5, 64, 4, 4)])
def test_inner_product_equals_sum_form(shape):
    # bit for bit, signed zeros included, on every shape lorentz_inner
    # takes, with a full second operand and a broadcast eta; entries mix
    # +-0, +-inf and huge and tiny magnitudes so the additions overflow,
    # underflow and cancel to signed zeros
    rng = np.random.default_rng(RNG_SEED)
    special = np.array([0.0, -0.0, np.inf, -np.inf, 1e300, -1e300, 1e-300, -1e-300,
                        5e-324, 1.0, -1.0, 1e16])

    def draw(shape):
        x = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
        pick = rng.random(shape) < 0.3
        x[pick] = rng.choice(special, int(pick.sum()))
        return x

    for _ in range(50):
        a = draw(shape)
        for b in (draw(shape), draw((4,))):
            with np.errstate(all="ignore"):
                got, want = lorentz_inner(a, b), sum_form_inner(a, b)
            assert np.shape(got) == np.shape(want)
            assert np.array_equal(got, want, equal_nan=True)
            real = ~np.isnan(want)
            assert np.array_equal(np.signbit(got)[real], np.signbit(want)[real])
    zeros = np.array(np.meshgrid(*[[0.0, -0.0, 1.0]] * 8)).reshape(8, -1).T
    a, b = zeros[:, :4], zeros[:, 4:]
    got, want = lorentz_inner(a, b), sum_form_inner(a, b)
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    assert type(lorentz_inner(a[0], b[0])) is float


def test_vector_array_roundtrip():
    v = MinkowskiVector(1.5, -2.0, 0.25, 3.0)
    assert np.array_equal(v.as_array(), [1.5, -2.0, 0.25, 3.0])
    assert MinkowskiVector.from_array(v.as_array()) == v
    assert np.array_equal(v.as_array()[:3], [1.5, -2.0, 0.25])


@pytest.mark.parametrize("comps,want", [
    ((0.0, 0.0, 0.0, 0.0), CausalClass.ZERO),
    ((0.0, 0.0, 0.0, 1.0), CausalClass.FUTURE_TIMELIKE),
    ((0.3, -0.1, 0.0, 1.0), CausalClass.FUTURE_TIMELIKE),
    ((0.0, 0.0, 0.0, -2.0), CausalClass.PAST_TIMELIKE),
    ((1.0, 0.0, 0.0, 1.0), CausalClass.FUTURE_NULL),
    ((0.0, 0.6, 0.8, -1.0), CausalClass.PAST_NULL),
    ((1.0, 0.0, 0.0, 0.0), CausalClass.SPACELIKE),
    ((2.0, 0.0, 0.0, 1.0), CausalClass.SPACELIKE),
    # small limits: 1,170 tolerances outside the cone, 5,000 inside it
    ((0.0, 0.0, 1.6666668e-06, 4.999454e-07), CausalClass.SPACELIKE),
    ((1.2e-22, -1.2e-22, 0.0, 4.999989e-06), CausalClass.FUTURE_TIMELIKE),
])
def test_classify_examples(comps, want):
    assert causal_classify(MinkowskiVector(*comps)) is want


def cone_distance_classify(v, tol=None):
    # the classifier from its definition: the cone distance d = |x| - |t|,
    # |x| by math.hypot, against tol in v's units
    comps = [float(c) for c in v]
    top = max(abs(c) for c in comps)
    if tol is None:
        tol = 1e-9 * (1.0 + top)
    if top <= tol:
        return CausalClass.ZERO
    t = comps[3]
    d = math.hypot(*comps[:3]) - abs(t)
    if abs(d) <= tol:
        return CausalClass.FUTURE_NULL if t > 0 else CausalClass.PAST_NULL
    if d < 0:
        return CausalClass.FUTURE_TIMELIKE if t > 0 else CausalClass.PAST_TIMELIKE
    return CausalClass.SPACELIKE


def classify_cases():
    up, down = np.nextafter(0.3125, 1.0), np.nextafter(0.3125, 0.0)
    cases = [((0.0, 0.0, 0.0, 0.0), None), ((-0.0, 0.0, -0.0, -0.0), None),
             ((0.0, -0.0, 0.0, -0.0), 0.0), ((-0.0, -0.0, -0.0, 0.0), 1e-3)]
    # components exactly at and just past the tolerance from zero
    for t in (1e-3, -1e-3, np.nextafter(1e-3, 1.0), -np.nextafter(1e-3, 1.0)):
        cases += [((0.0, 0.0, 0.0, t), 1e-3), ((t, 0.0, 0.0, 0.0), 1e-3),
                  ((0.0, -t, 0.0, 0.5 * t), 1e-3)]
    # |x| - |t| = +-0.3125 exactly, against tolerances at, above and below it
    for x, t in ((0.8125, 0.5), (0.5, 0.8125), (0.5, -0.8125), (-0.8125, -0.5), (0.0, 0.3125)):
        for tol in (0.3125, up, down, None):
            cases += [((x, 0.0, 0.0, t), tol), ((0.0, x, 0.0, t), tol), ((0.0, 0.0, x, t), tol)]
    # |(0.75, 1, 0)| = 1.25 exactly, so d = +-0.3125 across two components
    for t in (0.9375, 1.5625, -0.9375, -1.5625):
        for tol in (0.3125, up, down):
            cases += [((0.75, 1.0, 0.0, t), tol), ((0.0, -1.0, 0.75, t), tol)]
    # a default tolerance that sits exactly on the time component
    for t in (1e-9 / (1.0 - 1e-9), -1e-9 / (1.0 - 1e-9)):
        cases.append(((0.0, 0.0, 0.0, t), None))
    # huge components, whose squares overflow, and tiny ones, whose squares
    # underflow; the tolerance is huge, one, or tiny
    big = np.finfo(float).max
    for comps in ((1e154, 0.0, 0.0, 1e154), (big, 0.0, 0.0, big), (big, -big, 0.0, 1.0),
                  (1.0, 0.0, 0.0, -big), (1e300, 1e300, 1e300, 2e300), (0.0, 0.0, 1e200, 1e200),
                  (3e-170, 4e-170, 0.0, 5e-170), (3e-170, 4e-170, 0.0, 4e-170)):
        cases += [(comps, None), (comps, 1.0), (comps, 1e299), (comps, 1e-171)]
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(300):
        v = rng.standard_normal(4) * 10.0 ** rng.integers(-12, 12)
        if rng.random() < 0.5:  # onto the cone, up to rounding
            v[3] = np.copysign(np.linalg.norm(v[:3]), v[3])
        cases += [(tuple(v), None), (tuple(v), float(abs(v[3]) * rng.random()))]
    return cases


def test_classify_equals_cone_distance_form():
    seen = set()
    for comps, tol in classify_cases():
        want = cone_distance_classify(comps, tol)
        seen.add(want)
        assert causal_classify(MinkowskiVector(*comps), tol) is want, (comps, tol)
        assert causal_classify(np.array(comps), tol) is want, (comps, tol)
    assert seen == set(CausalClass)


@pytest.mark.parametrize("comps,tol,want", [
    # d = |x| - |t| exactly at +-tol is null; one ulp of tol inside or out
    # moves it
    ((0.8125, 0.0, 0.0, 0.5), 0.3125, CausalClass.FUTURE_NULL),
    ((0.8125, 0.0, 0.0, 0.5), float(np.nextafter(0.3125, 0.0)), CausalClass.SPACELIKE),
    ((0.5, 0.0, 0.0, 0.8125), 0.3125, CausalClass.FUTURE_NULL),
    ((0.5, 0.0, 0.0, 0.8125), float(np.nextafter(0.3125, 0.0)), CausalClass.FUTURE_TIMELIKE),
    ((0.0, 0.5, 0.0, -0.8125), 0.3125, CausalClass.PAST_NULL),
    ((0.0, 0.5, 0.0, -0.8125), float(np.nextafter(0.3125, 0.0)), CausalClass.PAST_TIMELIKE),
    ((0.75, 1.0, 0.0, 0.9375), 0.3125, CausalClass.FUTURE_NULL),
    ((0.75, 1.0, 0.0, 0.9375), float(np.nextafter(0.3125, 0.0)), CausalClass.SPACELIKE),
    ((0.75, 1.0, 0.0, -1.5625), float(np.nextafter(0.3125, 0.0)), CausalClass.PAST_TIMELIKE),
    # max|v| exactly at tol is zero, one ulp past it is not
    ((0.0, 0.0, 0.0, 0.3125), 0.3125, CausalClass.ZERO),
    ((0.0, 0.0, 0.0, 0.3125), float(np.nextafter(0.3125, 0.0)), CausalClass.FUTURE_TIMELIKE),
    ((0.0, 0.0, 0.3125, 0.0), float(np.nextafter(0.3125, 0.0)), CausalClass.SPACELIKE),
    # the squares overflow or underflow; the cone distance does not
    ((np.finfo(float).max, 0.0, 0.0, np.finfo(float).max), None, CausalClass.FUTURE_NULL),
    ((3e-170, 4e-170, 0.0, 4e-170), 1e-171, CausalClass.SPACELIKE),
    ((3e-170, 4e-170, 0.0, 5e-170), 1e-171, CausalClass.FUTURE_NULL),
])
def test_classify_cone_distance_boundaries(comps, tol, want):
    assert causal_classify(MinkowskiVector(*comps), tol) is want


def test_minkowski_vector_rejects_nonfinite():
    for bad in (float("nan"), float("inf"), -float("inf"), np.float64("nan"), np.inf):
        for slot in range(4):
            comps = [1.0, 2.0, 3.0, 4.0]
            comps[slot] = bad
            with pytest.raises(ValueError, match="not finite"):
                MinkowskiVector(*comps)
    v = MinkowskiVector(np.float64(1.5), np.float64(-0.0), 2, np.float64(3.0))
    assert v.as_array().tolist() == [1.5, -0.0, 2.0, 3.0]


def test_classify_tag_strings():
    assert CausalClass.FUTURE_TIMELIKE.value == "future-timelike"
    assert CausalClass.ZERO.value == "zero"
    assert CausalClass.SPACELIKE.value == "spacelike"


def test_classify_noise_floor():
    # vectors below the scale-aware tolerance count as zero
    v = MinkowskiVector(0.0, 0.0, 0.0, 5e-10)
    assert causal_classify(v) is CausalClass.ZERO
    # the default tolerance 1e-9 (1 + max|v|) is what zeroes it
    assert causal_classify(v, tol=4e-10) is not CausalClass.ZERO
    # near-null vectors are not misread as spacelike
    v = MinkowskiVector(1.0 + 1e-12, 0.0, 0.0, 1.0)
    assert causal_classify(v) is CausalClass.FUTURE_NULL


def test_future_causal_predicate():
    assert CausalClass.FUTURE_TIMELIKE.is_future_causal
    assert CausalClass.FUTURE_NULL.is_future_causal
    assert CausalClass.ZERO.is_future_causal
    assert not CausalClass.PAST_TIMELIKE.is_future_causal
    assert not CausalClass.SPACELIKE.is_future_causal


def test_maps_preserve_metric():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(20):
        lam = random_restricted_map(rng)
        m = lam.matrix
        assert np.max(np.abs(m.T @ ETA @ m - ETA)) < 1e-12
        assert lam.is_restricted


def test_inner_invariant_under_maps():
    rng = np.random.default_rng(RNG_SEED + 1)
    for _ in range(20):
        lam = random_restricted_map(rng)
        a = MinkowskiVector(*rng.normal(size=4))
        b = MinkowskiVector(*rng.normal(size=4))
        before = lorentz_inner(a, b)
        after = lorentz_inner(lam.matrix @ a.as_array(), lam.matrix @ b.as_array())
        assert abs(after - before) < 1e-12 * (1.0 + abs(before))


def test_classification_boost_invariant():
    rng = np.random.default_rng(RNG_SEED + 2)
    samples = [
        MinkowskiVector(0.0, 0.0, 0.0, 1.0),
        MinkowskiVector(0.2, -0.1, 0.05, 1.0),
        MinkowskiVector(1.0, 0.0, 0.0, 1.0),
        MinkowskiVector(0.0, 0.0, 0.0, -1.0),
        MinkowskiVector(1.4, -0.3, 0.2, 0.1),
    ]
    for _ in range(20):
        lam = random_restricted_map(rng)
        for v in samples:
            assert causal_classify(lam.matrix @ v.as_array()) is causal_classify(v)


def test_time_reversal_is_not_restricted():
    lam = LorentzMap(np.diag([1.0, 1.0, 1.0, -1.0]))
    assert not lam.is_restricted


def test_lorentz_map_rejects_non_metric_matrix():
    with pytest.raises(ValueError):
        LorentzMap(np.diag([2.0, 1.0, 1.0, 1.0]))


def test_hopf_eta_basis_spinor():
    eta = hopf_eta(SpinorParameter(1.0, 0.0))
    assert np.allclose(eta.as_array(), [-1.0, 0.0, 0.0, 1.0])


def test_hopf_eta_future_null():
    rng = np.random.default_rng(RNG_SEED + 3)
    for _ in range(50):
        z = SpinorParameter(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
        eta = hopf_eta(z)
        norm_sq = abs(z.z1) ** 2 + abs(z.z2) ** 2
        assert abs(lorentz_inner(eta, eta)) < 1e-12 * (1.0 + norm_sq ** 2)
        assert eta.t == pytest.approx(norm_sq, rel=1e-13)
        if norm_sq > 1e-6:
            assert causal_classify(eta) is CausalClass.FUTURE_NULL


def test_hyperboloid_point_unit():
    rng = np.random.default_rng(RNG_SEED + 4)
    assert np.allclose(hyperboloid_point(0.0, 0.3, 1.1).as_array(), [0, 0, 0, 1])
    for _ in range(50):
        x = hyperboloid_point(rng.uniform(0, 3), rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
        assert abs(lorentz_inner(x, x) + 1.0) < 1e-12


def test_sphere_direction_convention():
    assert np.allclose(sphere_direction(0.0, 0.0), [0.0, 0.0, 1.0])
    assert np.allclose(sphere_direction(np.pi / 2, 0.0), [1.0, 0.0, 0.0], atol=1e-15)
    assert np.allclose(sphere_direction(np.pi / 2, np.pi / 2), [0.0, 1.0, 0.0], atol=1e-15)


def test_spinor_parameter_rejects_nonfinite():
    with pytest.raises(ValueError):
        SpinorParameter(float("nan"), 0.0)
    with pytest.raises(ValueError):
        SpinorParameter(1.0, complex(float("inf"), 0.0))
