"""Radius-sweep harness for coordinate exhaustions.

Drives the full pipeline over a decreasing list of collar radii: build
the coordinate spheres in one stacked call, check their H and K extrema
from one reduction over the stack, embed them all in one batched call,
evaluate m_BY and m_hat of every radius in one stacked quadrature, the
enclosing radii and hat-BY gaps in one pass over the stack, and m_alpha
from m_BY (a radius whose masses fail records its own error), fit each
component to v_inf + C eps^p, and classify the causal character of the
fitted limits.  The per-radius numbers go to sweep.csv, one row per
radius written by _csv_row; summary.json holds the radii, the fits, the
limits and their tags.  A companion identity verifier runs the spinor and
surface-geometry property suites that depend on the configured family,
building and embedding each sphere once, in one stacked and one batched
call before any suite entry runs; each entry reads its spheres in one
pass over their stack.
All outputs are deterministic: closed-form cone pairings, five fixed
spinors for the identity suites, no timestamps.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ah_metric import (
    AdSSchwarzschild,
    AHFamily,
    Hyperbolic,
    PerturbedRound,
    mass_aspect,
    wang_mass,
)
from .embed_h3 import HYPERBOLOID_TOL, EmbeddingError, embed_surfaces
from .killing_spinor import (
    KillingNormField,
    exhaustion_norm_growth,
    log_log_slope,
    minkowski_identity_residuals,
    values_on,
)
from .lorentz import (
    CausalClass,
    MinkowskiVector,
    SpinorParameter,
    causal_classify,
    cone_pairing_report,
)
from .quasilocal import (
    MEAN_CURVATURE_FLOOR,
    alpha_from_radii,
    alpha_mass,
    enclosing_radii_stack,
    laplacian_terms,
    mass_vector,
    mass_vectors,
)
from .sphere_geometry import (
    EMBEDDABILITY_MARGIN,
    QuadratureGrid,
    SurfaceSample,
    coordinate_spheres,
    integrate_scalars,
)

__all__ = [
    "ConfigError",
    "FitResult",
    "fit_limit",
    "decay_order",
    "family_from_spec",
    "SweepConfig",
    "default_schedule",
    "PerEpsRecord",
    "MassSweepRecord",
    "run_sweep",
    "verify_identities",
    "write_outputs",
    "read_sweep_csv",
    "TOLERANCES",
    "VERIFY_SPINORS",
    "ORDER_RANGE",
]


class ConfigError(ValueError):
    """Invalid sweep configuration (missing keys, bad ranges, unknown names)."""


# Power-law exponents are searched inside this window; a fit pinned at
# either end is reported but flagged untrusted.
ORDER_RANGE = (0.5, 6.0)

# Most radii a schedule may list; a ratio just below 1 passes the underflow
# check at any count.
MAX_SCHEDULE_COUNT = 10_000

# Largest grid a config may ask for: the theta tables are (n_theta,
# n_theta) matrices, 8 MB at the cap.
MAX_GRID_THETA = 1024
MAX_GRID_PHI = 64

# The bounds of every verify entry, fixed for every config: a config's
# "tolerances" must be {}.  Each key but limit_rtol is a bound some
# verify.json entry reports.  hyperboloid is the embedding's own node
# check, so every embedded sphere meets it; verify only reports it.  No
# ahmass code reads limit_rtol: summary.json's config.tolerances carries
# the table for outside checks of the fitted limits against wang_reference.
TOLERANCES = {
    "limit_rtol": 0.01,
    "isometry": 1e-6,
    "hyperboloid": HYPERBOLOID_TOL,
    "surface_identity": 1e-7,
    "growth_exponent": 0.05,
    "area_limit_rtol": 1e-3,
    "aspect_rtol": 0.02,
    "h0_order": 4.0,
    "gauss_order": 4.5,
    "funclim_factor": 1e-3,
    "funclim_atol": 1e-8,
}


# ---------------------------------------------------------------------------
# Limit fitting


@dataclass(frozen=True)
class FitResult:
    """One-component limit fit v(eps) = limit + coefficient * eps^order."""

    limit: float
    coefficient: float
    order: float
    residual: float
    limit_stderr: float
    order_trusted: bool

    def to_dict(self) -> dict:
        return {name: _jsonable(value) for name, value in vars(self).items()}


def _jsonable(x):
    if isinstance(x, float) and not math.isfinite(x):
        return repr(x)
    return x


def _tail_monotone(v, vinf):
    # distance to the fitted limit should shrink toward eps -> 0; one row
    # of v per column, smallest radius first
    d = np.abs(v - vinf[:, None])
    slack = 1e-9 * np.ptp(v, axis=1) + 1e-13 * (1.0 + np.max(np.abs(v), axis=1))
    return np.all(d[:, :-1] <= d[:, 1:] + slack[:, None], axis=1)


def _sum_last(a):
    """Sum over the last axis, left to right.  numpy's own reductions
    change their summation order with the array's shape, so a column's
    fit would depend on what else shares its batch; an accumulate adds
    one element at a time to the running sum whatever the shape."""
    return np.add.accumulate(a, axis=-1)[..., -1]


def _powers(eps, p):
    """eps_i^p_j as a (p.size, eps.size) array.  Both operands are
    materialised in full (tile, repeat): numpy takes another pow loop for
    a broadcast exponent, on some shapes only, and a column's fit would
    then depend on what else shares its batch."""
    return np.power(np.tile(eps, (p.size, 1)), np.repeat(p[:, None], eps.size, axis=1))


def _centred(a):
    """Mean along the last axis and the deviations from it."""
    m = _sum_last(a) / a.shape[-1]
    return m, a - m[..., None]


def _line_fit(x, vm, dv):
    """Closed-form least squares of v = v_inf + C x along the last axis,
    from centred sums, vm, dv = _centred(v) (x and v broadcast).  Returns
    v_inf, C, the SSR and the residuals, fit minus data."""
    xm, dx = _centred(x)
    c = _sum_last(dx * dv) / _sum_last(dx * dx)
    r = c[..., None] * dx - dv
    return vm - c * xm, c, _sum_last(r * r), r


def _inv00(gram):
    """Top-left entry of the inverse of each matrix in a stack, inf where
    one is singular.  The stacked inverse raises if any matrix is, so
    then each is inverted alone."""
    try:
        return np.linalg.inv(gram)[:, 0, 0]
    except np.linalg.LinAlgError:
        out = np.full(len(gram), math.inf)
        for i, g in enumerate(gram):
            try:
                out[i] = np.linalg.inv(g)[0, 0]
            except np.linalg.LinAlgError:
                pass
        return out


def _stderr(gram00, ssr, dof):
    out = np.full(ssr.shape, math.inf)
    ok = np.isfinite(gram00)
    out[ok] = np.sqrt(np.maximum(gram00[ok] * (ssr[ok] / dof), 0.0))
    return out


def _illinois_roots(slope, a, b):
    """Per-column root of slope(q, cols) in [a, b] by the Illinois variant
    of false position, all columns in lockstep; NaN unless the slope turns
    from - at a to + at b.  A column stops when two successive estimates
    agree to 1e-9 relative (the noise floor of the slope is reached well
    before), on an exact zero, when the secant leaves its bracket, or
    after 100 steps.  Only the slope is evaluated in numpy, once per step
    over the active columns; each column's bracket, end slopes, side and
    root are Python floats, and the secant, halving and stop tests are the
    IEEE operations of an elementwise array form in its order, so every
    value is that form's to the bit (a zero denominator gives NaN, which
    leaves the bracket as the array form's inf or NaN does)."""
    cols = np.arange(a.size)
    ends = [[lo, hi] for lo, hi in zip(a.tolist(), b.tolist())]
    ends_g = [[ga, gb] for ga, gb in zip(slope(a, cols).tolist(), slope(b, cols).tolist())]
    root, side = [math.nan] * a.size, [None] * a.size
    act = [j for j, (ga, gb) in enumerate(ends_g) if ga < 0.0 < gb]
    for _ in range(100):
        step = []
        for j in act:
            (lo, hi), (ga, gb) = ends[j], ends_g[j]
            q = (lo * gb - hi * ga) / (gb - ga) if gb != ga else math.nan
            if lo < q < hi:
                step.append((j, q))
        if not step:
            break
        gq = slope(np.array([q for _, q in step]), np.array([j for j, _ in step]))
        act = []
        for (j, q), g in zip(step, gq.tolist()):
            settled = abs(q - root[j]) <= 1e-9 * q  # False while root is NaN
            root[j] = q
            if settled or g == 0.0:
                continue
            act.append(j)
            k = 0 if g < 0.0 else 1  # the end that q replaces
            ends[j][k], ends_g[j][k] = q, g
            if side[j] == k:  # the same end twice running: halve the other's slope
                ends_g[j][1 - k] *= 0.5
            side[j] = k
    return np.array(root)


def _free_order_fit(vs, eps):
    """p, v_inf, C, SSR and v_inf standard error per row of vs, with p
    free inside ORDER_RANGE (see fit_limit)."""
    scan = np.linspace(ORDER_RANGE[0], ORDER_RANGE[1], 23)
    vm, dv = _centred(vs)
    vinf, c, ssr, _ = _line_fit(_powers(eps, scan)[:, None, :], vm, dv)
    best = np.argmin(ssr, axis=0)
    cols = np.arange(vs.shape[0])
    p, vinf, c, ssr = scan[best], vinf[best, cols], c[best, cols], ssr[best, cols]

    log_eps = np.log(eps)

    def slope(q, rows):
        # half the derivative in p of the SSR with v_inf and C profiled out
        x = _powers(eps, q)
        _, cq, _, r = _line_fit(x, vm[rows], dv[rows])
        return cq * _sum_last(r * (x * log_eps))

    h = float(scan[1] - scan[0])
    root = _illinois_roots(slope, np.maximum(p - h, ORDER_RANGE[0]),
                           np.minimum(p + h, ORDER_RANGE[1]))
    has = np.flatnonzero(~np.isnan(root))
    vq, cq, sq, _ = _line_fit(_powers(eps, root[has]), vm[has], dv[has])
    better = sq <= ssr[has]
    take = has[better]
    p[take], vinf[take], c[take], ssr[take] = root[take], vq[better], cq[better], sq[better]

    ep = _powers(eps, p)
    jac = np.stack([np.ones_like(ep), ep, c[:, None] * ep * log_eps], axis=1)
    gram = _sum_last(jac[:, :, None, :] * jac[:, None, :, :])
    return p, vinf, c, ssr, _stderr(_inv00(gram), ssr, max(eps.size - 3, 1))


def fit_limit(values, eps_list, known_order: float | None = None):
    """Least-squares fit of v(eps) = v_inf + C eps^p over a radius list.

    values is one series of shape (n,), which returns one FitResult, or a
    batch of shape (n, k), which returns a tuple of k FitResults, one per
    column; each equals the fit of that column alone.

    The exponent is free inside ORDER_RANGE unless known_order pins it
    (Richardson-style fallback).  For a fixed p, v_inf and C solve the
    line v_inf + C x, x = eps^p, in closed form from centred sums; p is
    the best of a 23-point scan of ORDER_RANGE, one array expression over
    scan points, columns and radii.  Variable projection (Golub & Pereyra
    1973) refines it: a bracketed Illinois secant search within one scan
    step for a root of 1/2 dSSR/dp = C sum_i r_i eps_i^p log eps_i that
    turns from - to +, run in lockstep over the columns.  The scan point
    stands when there is no such sign change or when the refined p fits
    worse.  Near-constant data returns the mean with order 0 and
    order_trusted False; the flag also drops when the distance to the
    fitted limit fails to shrink monotonically toward small eps, or when
    the free exponent lands on a search boundary.  limit_stderr is the
    standard error of v_inf from the Gauss-Newton normal matrix (inf when
    that matrix is singular).
    """
    v = np.asarray(values, dtype=float)
    eps = np.asarray(eps_list, dtype=float)
    if v.ndim not in (1, 2) or eps.ndim != 1 or v.shape[0] != eps.size:
        raise ValueError("values must have shape (n,) or (n, k) for n radii in eps_list")
    if eps.size < 3:
        raise ValueError("need at least 3 samples to fit a limit")
    order = np.argsort(eps)
    eps = eps[order]
    # sorted, a repeat sits beside its twin; NaNs sort last and, as in
    # np.unique, count as one radius
    if np.any(eps <= 0.0) or np.any(eps[1:] == eps[:-1]) or np.isnan(eps[-2]):
        raise ValueError("radii must be positive and distinct")
    if known_order is not None and not float(known_order) > 0.0:
        raise ValueError("known_order must be positive")
    # one row per column, smallest radius first
    vs = np.ascontiguousarray(v.reshape(eps.size, -1)[order].T)

    spread = np.ptp(vs, axis=1)
    flat = spread <= 1e-13 * (1.0 + np.max(np.abs(vs), axis=1))
    live = np.flatnonzero(~flat)
    vl = vs[live]
    if known_order is not None:
        x = eps ** float(known_order)
        vinf, c, ssr, _ = _line_fit(x, *_centred(vl))
        gram = np.array([[[eps.size, x.sum()], [x.sum(), x @ x]]])
        stderr = _stderr(np.repeat(_inv00(gram), live.size), ssr,
                         max(eps.size - 2, 1))
        p = np.full(live.size, float(known_order))
        trusted = _tail_monotone(vl, vinf)
    else:
        p, vinf, c, ssr, stderr = _free_order_fit(vl, eps)
        trusted = (_tail_monotone(vl, vinf) & (p > ORDER_RANGE[0] + 1e-9)
                   & (p < ORDER_RANGE[1] - 1e-9))

    means = iter(np.mean(vs[flat], axis=1).tolist())  # the flat rows' means, in order
    fits = [FitResult(next(means), 0.0, 0.0, ptp, 0.0, False) if is_flat else None
            for is_flat, ptp in zip(flat, spread.tolist())]
    for i, j in enumerate(live):
        fits[j] = FitResult(float(vinf[i]), float(c[i]), float(p[i]), math.sqrt(ssr[i]),
                            float(stderr[i]), bool(trusted[i]))
    return fits[0] if v.ndim == 1 else tuple(fits)


def decay_order(values, eps_list, floor=1e-13) -> float:
    """Log-log slope of |v| against eps for a quantity decaying to zero.

    floor (scalar or per-sample) is the rounding level below which a
    sample carries no information; such samples are dropped, and if
    nothing rises above the floor the decay is unresolvable and +inf is
    returned (the data is zero to rounding, so any required order holds
    vacuously).
    """
    v = np.abs(np.asarray(values, dtype=float))
    eps = np.asarray(eps_list, dtype=float)
    if v.ndim != 1 or v.shape != eps.shape or v.size < 2:
        raise ValueError("need two or more aligned samples")
    if np.any(eps <= 0.0):
        raise ValueError("radii must be positive")
    keep = v > np.broadcast_to(np.asarray(floor, dtype=float), v.shape)
    if int(keep.sum()) < 2:
        return math.inf
    return log_log_slope(eps[keep], v[keep])


# |int lap f / (H + 2) dS| on coordinate spheres: lap f sees only the
# l = 1 part of f (size 1/eps, eigenvalue ~ 2 eps^2 on an area ~ 4 pi /
# eps^2), and the weight 1/(H + 2) varies by O(eps^3), so the integral is
# O(eps^2).  A tail order of 1.5 tells that from an eps^1 or a flat tail
# while leaving room for the eps^3 correction at the larger tail radii.
FLAT_LAPLACIAN_MIN_ORDER = 1.5


def _fit_count(n: int) -> int:
    """How many of n radii a fit reads: the smallest half, never fewer
    than three.  Higher-order terms at the large radii bias a fit."""
    return max(3, math.ceil(n / 2))


def judge_flat_laplacian(values, radii) -> dict:
    """Verify entry for |int lap f / (H + 2) dS| over radii (largest
    first), from the values at the first and the last
    _fit_count(len(radii)) radii (or at every radius): zero to rounding
    when the first value is within funclim_atol; otherwise its decay
    order over the smaller half of the radii (the area_growth convention;
    values below the atol carry no order) must reach
    FLAT_LAPLACIAN_MIN_ORDER and the last value must fall to
    funclim_factor times the first, or to the atol (both TOLERANCES).
    With fewer than two tail values above the atol the order is
    unresolved (+inf), and a note says so."""
    vals = [float(v) for v in values]
    atol, factor = TOLERANCES["funclim_atol"], TOLERANCES["funclim_factor"]
    if vals[0] <= atol:
        return {"passed": True, "initial": vals[0], "final": vals[-1],
                "note": "zero to rounding", "tolerance": atol}
    n_fit = _fit_count(len(radii))
    order = decay_order(vals[-n_fit:], radii[-n_fit:], floor=atol)
    ok = order >= FLAT_LAPLACIAN_MIN_ORDER and vals[-1] <= max(factor * vals[0], atol)
    entry = {"passed": ok, "initial": vals[0], "final": vals[-1],
             "factor": vals[-1] / vals[0], "order": _jsonable(order),
             "tolerance": factor,
             "radii": [float(e) for e in radii]}
    if order == math.inf:
        above = sum(x > atol for x in vals[-n_fit:])
        entry["note"] = ("decay order unresolved: %d of %d tail values above funclim_atol"
                         % (above, n_fit))
    return entry


# ---------------------------------------------------------------------------
# Configuration


def _number(x) -> float:
    """float(x) of a config value; a JSON boolean is not a number."""
    if isinstance(x, bool):
        raise TypeError("a boolean is not a number")
    return float(x)


def _config_float(d: Mapping, key: str, where: str) -> float:
    if key not in d:
        raise ConfigError("%s is missing %r" % (where, key))
    try:
        x = _number(d[key])
    except (TypeError, ValueError):
        raise ConfigError("%s key %r must be a number" % (where, key)) from None
    if not math.isfinite(x):
        raise ConfigError("%s key %r must be finite" % (where, key))
    return x


def _check_keys(d: Mapping, allowed, where: str) -> None:
    """Refuse any key of a config object outside allowed."""
    unknown = sorted(str(k) for k in d if k not in allowed)
    if unknown:
        raise ConfigError("unknown %s key(s): %s" % (where, ", ".join(unknown)))


def _psi_from_spec(spec) -> tuple[np.polynomial.Polynomial, str]:
    """Named boundary profiles buildable from plain config, as polynomials
    in x = cos theta."""
    if not isinstance(spec, Mapping) or "type" not in spec:
        raise ConfigError("psi profile must be an object with a 'type'")
    kind = spec["type"]
    if kind == "cos_theta":
        _check_keys(spec, ("type", "amplitude"), "psi profile")
        a = _config_float(spec, "amplitude", "psi profile")
        return np.polynomial.Polynomial([0.0, a]), "cos_theta(%g)" % a
    if kind == "constant":
        _check_keys(spec, ("type", "value"), "psi profile")
        c = _config_float(spec, "value", "psi profile")
        return np.polynomial.Polynomial([c]), "constant(%g)" % c
    if kind == "poly_cos":
        _check_keys(spec, ("type", "coefficients"), "psi profile")
        raw = spec.get("coefficients")
        if not isinstance(raw, (list, tuple)) or not raw:
            raise ConfigError("poly_cos profile needs a nonempty 'coefficients' list")
        try:
            cs = [_number(c) for c in raw]
        except (TypeError, ValueError):
            raise ConfigError("poly_cos coefficients must be numbers") from None
        if not all(math.isfinite(c) for c in cs):
            raise ConfigError("poly_cos coefficients must be finite")
        return np.polynomial.Polynomial(cs), "poly_cos(%s)" % ",".join("%g" % c for c in cs)
    raise ConfigError("unknown psi profile type %r" % (kind,))


def family_from_spec(spec) -> tuple[AHFamily, str]:
    """Build a collar family from a config fragment (a name, or an object
    with 'name' plus family parameters)."""
    if isinstance(spec, str):
        spec = {"name": spec}
    if not isinstance(spec, Mapping) or "name" not in spec:
        raise ConfigError("family must be a name or an object with 'name'")
    name = str(spec["name"]).lower().replace("-", "_")
    if name == "hyperbolic":
        _check_keys(spec, ("name",), "family")
        return Hyperbolic(), "hyperbolic"
    if name in ("ads_schwarzschild", "adsschwarzschild"):
        _check_keys(spec, ("name", "mass"), "family")
        m = _config_float(spec, "mass", "family")
        if not m > 0.0:
            raise ConfigError("family mass must be positive")
        return AdSSchwarzschild(m), "ads_schwarzschild(m=%g)" % m
    if name in ("perturbed_round", "perturbedround"):
        _check_keys(spec, ("name", "psi"), "family")
        psi, label = _psi_from_spec(spec.get("psi"))
        return PerturbedRound(psi), "perturbed_round(psi=%s)" % label
    raise ConfigError("unknown family %r" % (spec["name"],))


def default_schedule(eps0: float = 0.2, ratio: float = 2.0 ** -0.5,
                     count: int = 8) -> tuple:
    """Geometric radius schedule eps0 * ratio^k, largest first."""
    if not 0.0 < ratio < 1.0:
        raise ConfigError("schedule ratio must lie in (0, 1)")
    if not eps0 > 0.0:
        raise ConfigError("schedule eps0 must be positive")
    if count < 1:
        raise ConfigError("schedule count must be at least 1")
    # both checked before the list is built
    if not eps0 * ratio ** (count - 1) > 0.0:
        raise ConfigError("schedule count %d underflows its smallest radius to 0" % count)
    if count > MAX_SCHEDULE_COUNT:
        raise ConfigError("schedule count %d exceeds %d" % (count, MAX_SCHEDULE_COUNT))
    return tuple(eps0 * ratio ** k for k in range(count))


# Top-level keys SweepConfig.from_dict accepts; any other key is an error.
_CONFIG_KEYS = frozenset(("family", "epsilons", "schedule", "grid", "tolerances", "output"))


@dataclass(frozen=True)
class SweepConfig:
    """Validated sweep parameters; build from plain dicts with from_dict."""

    family: AHFamily
    eps_list: tuple
    n_theta: int = 64
    n_phi: int = 4
    output_dir: str = "out"
    family_label: str = ""

    def __post_init__(self):
        if not isinstance(self.family, AHFamily):
            raise ConfigError("family must be a collar family instance")
        eps = tuple(float(e) for e in self.eps_list)
        if not eps:
            raise ConfigError("radius list is empty")
        rho_max = float(self.family.rho_max)
        for e in eps:
            if not 0.0 < e <= rho_max:
                raise ConfigError("radius %g outside the collar range (0, %g]" % (e, rho_max))
        if any(a <= b for a, b in zip(eps, eps[1:])):
            raise ConfigError("radius list must be strictly decreasing")
        for key, low, high in (("n_theta", 16, MAX_GRID_THETA), ("n_phi", 4, MAX_GRID_PHI)):
            if not low <= getattr(self, key) <= high:
                raise ConfigError("grid.%s must lie in [%d, %d]" % (key, low, high))
        label = self.family_label or getattr(self.family, "name", type(self.family).__name__)
        object.__setattr__(self, "eps_list", eps)
        object.__setattr__(self, "output_dir", str(self.output_dir))
        object.__setattr__(self, "family_label", str(label))

    @classmethod
    def from_dict(cls, data) -> "SweepConfig":
        if not isinstance(data, Mapping):
            raise ConfigError("config root must be an object")
        _check_keys(data, _CONFIG_KEYS, "config")
        for key in ("family", "grid", "tolerances", "output"):
            if key not in data:
                raise ConfigError("config is missing required key %r" % (key,))
        if ("epsilons" in data) == ("schedule" in data):
            raise ConfigError("config needs exactly one of 'epsilons' or 'schedule'")
        fam, label = family_from_spec(data["family"])
        if "epsilons" in data:
            raw = data["epsilons"]
            if not isinstance(raw, (list, tuple)) or not raw:
                raise ConfigError("'epsilons' must be a nonempty list")
            try:
                eps = tuple(_number(e) for e in raw)
            except (TypeError, ValueError):
                raise ConfigError("'epsilons' entries must be numbers") from None
        else:
            sch = data["schedule"]
            if not isinstance(sch, Mapping):
                raise ConfigError("'schedule' must be an object")
            _check_keys(sch, ("eps0", "ratio", "count"), "schedule")
            count = sch.get("count", 8)
            if not isinstance(count, int) or isinstance(count, bool):
                raise ConfigError("schedule count must be an integer")
            eps = default_schedule(_config_float(sch, "eps0", "schedule"),
                                   _config_float(sch, "ratio", "schedule"), count)
        grid = data["grid"]
        if not isinstance(grid, Mapping):
            raise ConfigError("'grid' must be an object")
        _check_keys(grid, ("n_theta", "n_phi"), "grid")
        for key in ("n_theta", "n_phi"):
            if key not in grid:
                raise ConfigError("grid is missing %r" % (key,))
            if not isinstance(grid[key], int) or isinstance(grid[key], bool):
                raise ConfigError("grid.%s must be an integer" % key)
        # kept for the configs that send it; the bounds are TOLERANCES
        if not isinstance(data["tolerances"], Mapping):
            raise ConfigError("'tolerances' must be an object")
        _check_keys(data["tolerances"], (), "tolerances")
        out = data["output"]
        if not isinstance(out, Mapping) or "dir" not in out:
            raise ConfigError("'output' must be an object with a 'dir'")
        _check_keys(out, ("dir",), "output")
        return cls(
            family=fam,
            eps_list=eps,
            n_theta=grid["n_theta"],
            n_phi=grid["n_phi"],
            output_dir=str(out["dir"]),
            family_label=label,
        )


# ---------------------------------------------------------------------------
# Sweep records


@dataclass(frozen=True)
class PerEpsRecord:
    """Everything measured at one sweep radius, one sweep.csv row
    (_csv_row): the three mass vectors, each with its causal tag, and the
    sphere's diagnostics.  A radius where the pipeline failed has only its
    eps and error set (the sweep continues with a gap).  gap is
    max|m_hat - m_BY| over the components, which the fits and the CLI
    read; the output files do not carry it."""

    eps: float
    m_by: MinkowskiVector | None = None
    m_hat: MinkowskiVector | None = None
    m_alpha: MinkowskiVector | None = None
    tag_by: CausalClass | None = None
    tag_hat: CausalClass | None = None
    tag_alpha: CausalClass | None = None
    alpha: float | None = None
    radii: tuple | None = None
    area: float | None = None
    h_min: float | None = None
    h_max: float | None = None
    k_min: float | None = None
    k_max: float | None = None
    isometry_residual: float | None = None
    hyperboloid_defect: float | None = None
    error: str | None = None
    gap: float | None = None


_COMPONENTS = ("x1", "x2", "x3", "t")


@dataclass(frozen=True)
class MassSweepRecord:
    """Per-radius records plus fitted limits, convergence orders, and
    causal tags; radii stored largest first, fits taken from the smallest
    half (never fewer than three).  to_dict leaves the records out: they
    are sweep.csv's rows."""

    family_label: str
    eps_list: tuple
    records: tuple
    fit_eps: tuple
    fits: Mapping
    limits: Mapping
    tags: Mapping
    wang: MinkowskiVector
    gap_monotone: bool

    def to_dict(self) -> dict:
        fits = {}
        for name, val in self.fits.items():
            if isinstance(val, FitResult):
                fits[name] = val.to_dict()
            else:
                fits[name] = {comp: fr.to_dict() for comp, fr in val.items()}
        return {
            "family": self.family_label,
            "epsilons": list(self.eps_list),
            "fit_epsilons": list(self.fit_eps),
            "fits": fits,
            "limits": {k: list(v.as_array()) for k, v in self.limits.items()},
            "tags": {
                k: {
                    "classify": t["classify"].value,
                    "cone_max": _jsonable(t["cone_max"]),
                }
                for k, t in self.tags.items()
            },
            "wang_reference": list(self.wang.as_array()),
            "gap_monotone": self.gap_monotone,
        }


def _curvature_extrema(surfs) -> list:
    """h_min, h_max, k_min, k_max of each sphere, from one min and one max
    over the stack's H and K rows (a sample's fields do not vary in phi)."""
    if not surfs:
        return []
    hk = np.array([(s.H[:, 0], s.K[:, 0]) for s in surfs])
    lo, hi = np.min(hk, axis=2), np.max(hk, axis=2)
    return np.stack([lo[:, 0], hi[:, 0], lo[:, 1], hi[:, 1]], axis=1).tolist()


def _curvature_ok(extrema) -> tuple:
    """Whether a sphere's curvature extrema (h_min, h_max, k_min, k_max)
    let it be embedded: (K clears the K > -1 margin, H stays above the
    H = -2 floor).  A NaN clears neither."""
    h_min, _, k_min, _ = extrema
    return k_min > -1.0 + EMBEDDABILITY_MARGIN, h_min > MEAN_CURVATURE_FLOOR


def _mass_records(triples, failed) -> list:
    """The record, or the error, of each embedded (sphere, embedding,
    curvature extrema), with every m_BY and m_hat from one mass_vectors
    call and every enclosing radius and hat-BY gap from one pass over the
    stack; m_alpha is m_BY with its time component stretched by alpha, and
    each of the three vectors gets one causal_classify.  A row's error is
    the one its sphere alone raises: the first of m_BY, m_hat and alpha to
    fail."""
    surfs, embs, _ = zip(*triples)
    m_by, m_hat, area, bad = mass_vectors(surfs, embs)
    radii = enclosing_radii_stack(embs).tolist()
    with np.errstate(invalid="ignore"):  # a row that is not finite fails below
        gaps = np.max(np.abs(m_hat - m_by), axis=1).tolist()
    out = []
    for i, (surf, emb, (h_min, h_max, k_min, k_max)) in enumerate(triples):
        try:
            by = mass_vector(m_by[i], bad[i, 0])
            hat = mass_vector(m_hat[i], bad[i, 1])
            alpha = alpha_from_radii(*radii[i])
            m_alpha = alpha_mass(by, alpha)
            out.append(PerEpsRecord(
                eps=surf.eps, m_by=by, m_hat=hat, m_alpha=m_alpha, tag_by=causal_classify(by),
                tag_hat=causal_classify(hat), tag_alpha=causal_classify(m_alpha),
                alpha=alpha, radii=tuple(radii[i]), area=float(area[i]),
                h_min=h_min, h_max=h_max, k_min=k_min, k_max=k_max,
                isometry_residual=emb.isometry_residual,
                hyperboloid_defect=emb.hyperboloid_defect, gap=gaps[i]))
        except failed as exc:
            out.append(exc)
    return out


def _comps(v: MinkowskiVector) -> tuple:
    return v.x1, v.x2, v.x3, v.t


def run_sweep(cfg: SweepConfig) -> MassSweepRecord:
    """Run the mass pipeline over the configured radius list and fit the
    limits.  Per-radius failures are recorded and skipped; at least three
    radii must survive to fit.  The spheres' H and K extrema are one
    reduction over the stack, every radius that passes its curvature
    checks is embedded in one batched call, and every one embedded gets
    its m_BY and m_hat from one mass_vectors call; m_alpha is its m_BY
    with the time component stretched by alpha."""
    grid = QuadratureGrid(cfg.n_theta, cfg.n_phi)
    failed = (EmbeddingError, ValueError, ArithmeticError)
    spheres = coordinate_spheres(cfg.family, cfg.eps_list, grid)
    outcome = {eps: s for eps, s in zip(cfg.eps_list, spheres) if isinstance(s, Exception)}
    built = [s for s in spheres if isinstance(s, SurfaceSample)]
    checked = []
    for surf, ext in zip(built, _curvature_extrema(built)):
        k_ok, h_ok = _curvature_ok(ext)
        if not k_ok:  # the K margin before the H floor
            outcome[surf.eps] = EmbeddingError("Gauss curvature does not clear the K > -1 margin")
        elif not h_ok:
            outcome[surf.eps] = ValueError("mean curvature reaches the H = -2 floor")
        else:
            checked.append((surf, ext))
    triples = []
    for (surf, ext), emb in zip(checked, embed_surfaces([s for s, _ in checked])):
        if isinstance(emb, failed):
            outcome[surf.eps] = emb
        else:
            triples.append((surf, emb, ext))
    if triples:
        outcome.update(zip([s.eps for s, _, _ in triples], _mass_records(triples, failed)))
    records = []
    for eps in cfg.eps_list:
        got = outcome[eps]
        records.append(got if isinstance(got, PerEpsRecord) else
                       PerEpsRecord(eps=eps, error="%s: %s" % (type(got).__name__, got)))
    good = [r for r in records if r.error is None]
    if len(good) < 3:
        raise RuntimeError("only %d of %d radii completed; need 3 to fit limits"
                           % (len(good), len(records)))
    good.sort(key=lambda r: r.eps)
    fit_recs = good[:_fit_count(len(good))]
    fit_eps = np.array([r.eps for r in fit_recs])

    # one batched fit of the distinct columns: m_BY, m_hat, the time
    # component of m_alpha (its x1..x3 are m_BY's), then the gap
    series = np.array([[*_comps(r.m_by), *_comps(r.m_hat), r.m_alpha.t, r.gap]
                       for r in fit_recs])
    col_fits = fit_limit(series, fit_eps)
    by_fits = col_fits[:4]

    fits, limits, tags = {}, {}, {}
    for name, comp in (("m_by", by_fits), ("m_hat", col_fits[4:8]),
                       ("m_alpha", by_fits[:3] + col_fits[8:9])):
        comp_fits = dict(zip(_COMPONENTS, comp))
        fits[name] = comp_fits
        vec = MinkowskiVector(*(comp_fits[c].limit for c in _COMPONENTS))
        limits[name] = vec
        tags[name] = {"classify": causal_classify(vec),
                      "cone_max": cone_pairing_report(vec)}
    fits["hat_by_gap"] = col_fits[-1]
    gaps_desc = [r.gap for r in good[::-1]]
    slack = 1e-12 + 1e-9 * max(gaps_desc)
    gap_monotone = all(b <= a + slack for a, b in zip(gaps_desc, gaps_desc[1:]))

    wang = wang_mass(mass_aspect(cfg.family, grid), grid)
    return MassSweepRecord(
        family_label=cfg.family_label,
        eps_list=cfg.eps_list,
        records=tuple(records),
        fit_eps=tuple(float(e) for e in fit_eps),
        fits=fits,
        limits=limits,
        tags=tags,
        wang=wang,
        gap_monotone=gap_monotone,
    )


# ---------------------------------------------------------------------------
# Identity verification


# The unit spinors of verify's Killing norm fields, read by position:
# surface_identity's k-th radius, largest first, reads VERIFY_SPINORS[k]
# (up to three), norm_growth reads [3] and flat_laplacian_decay [4], so
# no entry's spinor depends on how many radii another read or whether it
# failed.  The identities are linear in the field, so any
# fixed set serves; these are the first five normalized standard_normal(4)
# draws of numpy's default_rng(94211).
VERIFY_SPINORS = (
    SpinorParameter(complex(0.14312133854414502, 0.24684515544634658),
                    complex(0.01315691722285988, -0.9583374391179716)),
    SpinorParameter(complex(-0.10633819906542484, 0.39852990252852555),
                    complex(0.8488350337681912, -0.3306738418107482)),
    SpinorParameter(complex(-0.9423198232795226, 0.1794889816321429),
                    complex(-0.07353561216847404, -0.27278117579868544)),
    SpinorParameter(complex(-0.14233102739836367, -0.4292627352521687),
                    complex(-0.7756985457004437, -0.4401899010220128)),
    SpinorParameter(complex(0.08087450595985489, -0.9458552217798353),
                    complex(-0.19775853512639194, -0.24435379166739302)),
)


def verify_identities(cfg: SweepConfig) -> dict:
    """Run the identity suites that depend on the configured family: the
    Killing-spinor identities on its spheres, its area, aspect and
    curvature expansions, and its embedding residuals.  Failures are
    report entries, never exceptions.  The spinor calculus on the
    hyperboloid itself (norm match, geodesic restriction, gradient
    identity) reads no config, so the test suite checks it."""
    grid = QuadratureGrid(cfg.n_theta, cfg.n_phi)
    fam = cfg.family
    tol = TOLERANCES
    entries = {}

    # every sphere an entry reads (the configured radii and the flat-Laplacian
    # radii judge_flat_laplacian reads) in one stacked and one batched call;
    # a failed sphere holds its error, raised in the entry that reads it
    # (stack_at: the first failure of a list of radii)
    hi = min(0.3, float(fam.rho_max))
    eps_fun = [float(e) for e in np.geomspace(hi, 0.025 * hi, 8)]
    fun_read = eps_fun[:1] + eps_fun[-_fit_count(len(eps_fun)):]
    radii = list(dict.fromkeys(cfg.eps_list + tuple(fun_read)))
    spheres = dict(zip(radii, coordinate_spheres(fam, radii, grid)))
    deepest = spheres[cfg.eps_list[-1]]  # aspect_recovery reads its u, embedded or not
    surfs = [s for s in spheres.values() if isinstance(s, SurfaceSample)]
    for surf, emb in zip(surfs, embed_surfaces(surfs)):
        spheres[surf.eps] = emb if isinstance(emb, EmbeddingError) else (surf, emb)

    def sphere_at(eps):
        if isinstance(spheres[eps], Exception):
            raise spheres[eps]
        return spheres[eps]

    def stack_at(radii):  # (surfaces, embeddings)
        return tuple(zip(*(sphere_at(eps) for eps in radii)))

    def run_entry(name, fn):
        try:
            entries[name] = fn()
        except Exception as exc:  # report, do not abort the suite
            entries[name] = {"passed": False,
                             "error": "%s: %s" % (type(exc).__name__, exc)}

    def e_surface_identity():
        eps_sel = {cfg.eps_list[0], cfg.eps_list[len(cfg.eps_list) // 2], cfg.eps_list[-1]}
        embs = [sphere_at(eps)[1] for eps in sorted(eps_sel, reverse=True)]
        flds = [KillingNormField.from_spinor(z) for z in VERIFY_SPINORS[:len(embs)]]
        worst = max([0.0] + minkowski_identity_residuals(flds, embs))
        return {"passed": worst <= tol["surface_identity"], "residual": worst,
                "tolerance": tol["surface_identity"]}

    def e_norm_growth():
        fld = KillingNormField.from_spinor(VERIFY_SPINORS[3])
        p = exhaustion_norm_growth(fld, stack_at(cfg.eps_list[:6])[1])
        return {"passed": abs(p - 1.0) <= tol["growth_exponent"], "exponent": p,
                "tolerance": tol["growth_exponent"]}

    def e_area_growth():
        surfs, _ = stack_at(cfg.eps_list)
        areas = integrate_scalars(surfs, [1.0] * len(surfs)).tolist()
        values = [eps ** 2 * area for eps, area in zip(cfg.eps_list, areas)]
        n_fit = _fit_count(len(values))
        fit = fit_limit(values[-n_fit:], cfg.eps_list[-n_fit:])
        target = 4.0 * np.pi
        ok = (abs(fit.limit - target) <= tol["area_limit_rtol"] * target
              and fit.order_trusted and abs(fit.order - 2.0) <= 0.5)
        return {"passed": ok, "limit": fit.limit, "order": fit.order,
                "target": target, "tolerance": tol["area_limit_rtol"]}

    def e_aspect_recovery():
        if isinstance(deepest, Exception):
            raise deepest
        eps, u = deepest.eps, deepest.u[:, 0]
        psi = mass_aspect(fam, grid)
        resid = float(np.max(np.abs(3.0 * (u - 1.0) / eps ** 3 - psi)))
        bound = tol["aspect_rtol"] * (1.0 + float(np.max(np.abs(psi))))
        return {"passed": resid <= bound, "residual": resid, "tolerance": bound}

    def e_mean_curvature_expansion():
        eps = cfg.eps_list[-1]
        surf, _ = sphere_at(eps)
        psi = mass_aspect(fam, grid)
        got = (2.0 * math.cosh(eps) - surf.H) / eps ** 3
        resid = float(np.max(np.abs(got - psi[:, None])))
        bound = tol["aspect_rtol"] * (1.0 + float(np.max(np.abs(psi))))
        return {"passed": resid <= bound, "residual": resid, "tolerance": bound}

    def e_h0_order():
        _, embs = stack_at(cfg.eps_list)
        ref = np.array([2.0 * math.cosh(eps) for eps in cfg.eps_list])[:, None, None]
        values = np.max(np.abs(np.stack([e.H0 for e in embs]) - ref), axis=(1, 2)).tolist()
        p = decay_order(values, cfg.eps_list, floor=1e-11)
        return {"passed": p >= tol["h0_order"], "order": _jsonable(p),
                "tolerance": tol["h0_order"], "values": values}

    def e_gauss_order():
        surfs, _ = stack_at(cfg.eps_list)
        ref = np.array([math.sinh(eps) ** 2 for eps in cfg.eps_list])[:, None]
        # a sample's K does not vary in phi: its theta rows hold every value
        values = np.max(np.abs(np.stack([s.K[:, 0] for s in surfs]) - ref), axis=1).tolist()
        # curvature roundoff scales with the sinh^2 target, not absolutely
        floor = 1e-11 * np.sinh(np.asarray(cfg.eps_list)) ** 2
        p = decay_order(values, cfg.eps_list, floor=floor)
        return {"passed": p >= tol["gauss_order"], "order": _jsonable(p),
                "tolerance": tol["gauss_order"], "values": values}

    def e_flat_laplacian_decay():
        fld = KillingNormField.from_spinor(VERIFY_SPINORS[4])
        surfs, embs = stack_at(fun_read)
        vals = laplacian_terms(surfs, values_on([fld] * len(embs), embs))
        return judge_flat_laplacian([abs(v) for v in vals], eps_fun)

    def e_embedding():
        surfs, embs = stack_at(cfg.eps_list)
        # max() over a list keeps its first maximum, as a running max does
        worst_iso = max([0.0] + [e.isometry_residual for e in embs])
        worst_defect = max([0.0] + [e.hyperboloid_defect for e in embs])
        checks = [_curvature_ok(ext) for ext in _curvature_extrema(surfs)]
        k_ok, h_ok = (all(col) for col in zip(*checks))
        # each sphere's defect met tol["hyperboloid"] when it was embedded
        ok = worst_iso <= tol["isometry"] and h_ok and k_ok
        return {"passed": ok, "isometry_residual": worst_iso,
                "hyperboloid_defect": worst_defect,
                "gauss_margin_ok": k_ok, "mean_curvature_ok": h_ok,
                "tolerance": {"isometry": tol["isometry"], "hyperboloid": tol["hyperboloid"]}}

    run_entry("surface_identity", e_surface_identity)
    run_entry("norm_growth", e_norm_growth)
    run_entry("area_growth", e_area_growth)
    run_entry("aspect_recovery", e_aspect_recovery)
    run_entry("mean_curvature_expansion", e_mean_curvature_expansion)
    run_entry("reference_curvature_order", e_h0_order)
    run_entry("gauss_curvature_order", e_gauss_order)
    run_entry("flat_laplacian_decay", e_flat_laplacian_decay)
    run_entry("embedding_residuals", e_embedding)

    return {
        "family": cfg.family_label,
        "entries": entries,
        "passed": all(e.get("passed", False) for e in entries.values()),
    }


# ---------------------------------------------------------------------------
# Output files


_CSV_HEADER = (
    ["epsilon"]
    + ["mBY_%s" % c for c in _COMPONENTS]
    + ["mhat_%s" % c for c in _COMPONENTS]
    + ["malpha_%s" % c for c in _COMPONENTS]
    + ["alpha", "radius_min", "radius_max", "area", "h_min", "h_max", "k_min", "k_max",
       "isometry_residual", "hyperboloid_defect", "tag_by", "tag_hat",
       "tag_alpha", "error"]
)


def _csv_row(rec: PerEpsRecord) -> str:
    """One sweep.csv row: float cells in repr, a failed radius's cells
    empty but its epsilon and error."""
    if rec.error is not None:
        return float.__repr__(rec.eps) + "," * (len(_CSV_HEADER) - 1) + rec.error
    cells = (rec.eps, *_comps(rec.m_by), *_comps(rec.m_hat), *_comps(rec.m_alpha),
             rec.alpha, *rec.radii, rec.area, rec.h_min, rec.h_max, rec.k_min, rec.k_max,
             rec.isometry_residual, rec.hyperboloid_defect)
    return "%s,%s,%s,%s," % (",".join(map(float.__repr__, cells)), rec.tag_by.value,
                             rec.tag_hat.value, rec.tag_alpha.value)


def _csv_value(column: str, cell: str, failed: bool):
    """The value of one sweep.csv cell, as _csv_row writes it: a float, a
    causal tag's value, or None for the empty cells of a failed radius.
    ValueError for a cell _csv_row does not write."""
    if failed and column != "epsilon":
        if cell:
            raise ValueError(cell)
        return None
    if column.startswith("tag_"):
        return CausalClass(cell).value
    return float(cell)


def read_sweep_csv(path) -> list:
    """The rows of a sweep.csv, each a dict from column to _csv_value, with
    the error text ("" when the radius succeeded).  A file that cannot be
    read, or a cell _csv_row does not write, is a ConfigError."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("cannot read %s: %s" % (path, exc)) from None
    if not lines or lines[0] != ",".join(_CSV_HEADER):
        raise ConfigError("%s has no sweep.csv header" % path)
    rows = []
    for num, line in enumerate(lines[1:], 2):
        # the error is the last cell, the one that may hold commas
        cells = line.split(",", len(_CSV_HEADER) - 1)
        if len(cells) != len(_CSV_HEADER):
            raise ConfigError("%s line %d has %d cells, not %d"
                              % (path, num, len(cells), len(_CSV_HEADER)))
        row, failed = {}, cells[-1] != ""
        for column, cell in zip(_CSV_HEADER[:-1], cells):
            try:
                row[column] = _csv_value(column, cell, failed)
            except ValueError:
                raise ConfigError("%s line %d: malformed %s cell %r"
                                  % (path, num, column, cell)) from None
        row["error"] = cells[-1]
        rows.append(row)
    return rows


def write_outputs(record: MassSweepRecord, cfg: SweepConfig) -> dict:
    """Write sweep.csv and summary.json into the configured output
    directory; returns the paths."""
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    csv_path = out / "sweep.csv"
    lines = [",".join(_CSV_HEADER)] + [_csv_row(rec) for rec in record.records]
    csv_path.write_text("\n".join(lines) + "\n")

    summary = record.to_dict()
    summary["config"] = {
        "family": cfg.family_label,
        "epsilons": list(cfg.eps_list),
        "grid": {"n_theta": cfg.n_theta, "n_phi": cfg.n_phi},
        "tolerances": dict(TOLERANCES),
    }
    summary_path = out / "summary.json"
    summary_path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")

    return {"csv": str(csv_path), "summary": str(summary_path)}
