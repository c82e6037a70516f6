"""Radius-sweep harness for coordinate exhaustions.

Drives the full pipeline over a decreasing list of collar radii: build
the coordinate sphere, embed it, evaluate the mass vectors, fit each
component to v_inf + C eps^p, and classify the causal character of the
fitted limits.  A companion identity verifier runs the spinor and
surface-geometry property suites on the configured family, embedding
each sphere once.  All outputs are deterministic: closed-form cone
pairings, seeded random draws, no timestamps.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
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
from .embed_h3 import EmbeddingError, embed_surface
from .killing_spinor import (
    KillingNormField,
    exhaustion_norm_growth,
    geodesic_norm_check,
    gradient_identity_residual,
    minkowski_identity_residual,
    spinor_at,
    spinor_polar_point,
)
from .lorentz import (
    MinkowskiVector,
    SpinorParameter,
    causal_classify,
    lorentz_inner,
)
from .quasilocal import (
    MEAN_CURVATURE_FLOOR,
    MassResult,
    alpha_from_radii,
    by_mass,
    enclosing_radii,
    hat_mass,
    laplacian_term,
    shitam_alpha_mass,
)
from .sphere_geometry import (
    QuadratureGrid,
    coordinate_sphere,
    embeddability_check,
)

__all__ = [
    "ConfigError",
    "FitResult",
    "fit_limit",
    "decay_order",
    "cone_pairing_report",
    "family_from_spec",
    "SweepConfig",
    "default_schedule",
    "PerEpsRecord",
    "MassSweepRecord",
    "run_sweep",
    "verify_identities",
    "write_outputs",
    "DEFAULT_TOLERANCES",
    "DEFAULT_SEED",
    "ORDER_RANGE",
]


class ConfigError(ValueError):
    """Invalid sweep configuration (missing keys, bad ranges, unknown names)."""


# Power-law exponents are searched inside this window; a fit pinned at
# either end is reported but flagged untrusted.
ORDER_RANGE = (0.5, 6.0)

DEFAULT_SEED = 94211

DEFAULT_TOLERANCES = {
    "limit_rtol": 0.01,
    "isometry": 1e-6,
    "hyperboloid": 1e-9,
    "spinor_norm": 1e-12,
    "geodesic_fit": 1e-10,
    "gradient_identity": 1e-10,
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
        return {
            "limit": _jsonable(self.limit),
            "coefficient": _jsonable(self.coefficient),
            "order": _jsonable(self.order),
            "residual": _jsonable(self.residual),
            "limit_stderr": _jsonable(self.limit_stderr),
            "order_trusted": self.order_trusted,
        }


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
    fit would depend on what else shares its batch."""
    s = a[..., 0]
    for i in range(1, a.shape[-1]):
        s = s + a[..., i]
    return s


def _powers(eps, p):
    """eps_i^p_j as a (p.size, eps.size) array.  Both operands are
    materialised in full: numpy takes another pow loop for a broadcast
    exponent, on some shapes only, and a column's fit would then depend on
    what else shares its batch."""
    shape = (p.size, eps.size)
    return np.power(np.broadcast_to(eps, shape).copy(),
                    np.broadcast_to(p[:, None], shape).copy())


def _line_fit(x, v):
    """Closed-form least squares of v = v_inf + C x along the last axis,
    from centred sums (x and v broadcast).  Returns v_inf, C, the SSR and
    the residuals, fit minus data."""
    n = x.shape[-1]
    xm = _sum_last(x) / n
    vm = _sum_last(v) / n
    dx = x - xm[..., None]
    dv = v - vm[..., None]
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
    after 100 steps.  a and b are overwritten."""
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
        settled = np.abs(q - root[act]) <= 1e-9 * q  # False while root is NaN
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


def _free_order_fit(vs, eps):
    """p, v_inf, C, SSR and v_inf standard error per row of vs, with p
    free inside ORDER_RANGE (see fit_limit)."""
    scan = np.linspace(ORDER_RANGE[0], ORDER_RANGE[1], 23)
    vinf, c, ssr, _ = _line_fit(_powers(eps, scan)[:, None, :], vs)
    best = np.argmin(ssr, axis=0)
    cols = np.arange(vs.shape[0])
    p, vinf, c, ssr = scan[best], vinf[best, cols], c[best, cols], ssr[best, cols]

    log_eps = np.log(eps)

    def slope(q, rows):
        # half the derivative in p of the SSR with v_inf and C profiled out
        x = _powers(eps, q)
        _, cq, _, r = _line_fit(x, vs[rows])
        return cq * _sum_last(r * (x * log_eps))

    h = float(scan[1] - scan[0])
    root = _illinois_roots(slope, np.maximum(p - h, ORDER_RANGE[0]),
                           np.minimum(p + h, ORDER_RANGE[1]))
    has = np.flatnonzero(~np.isnan(root))
    vq, cq, sq, _ = _line_fit(_powers(eps, root[has]), vs[has])
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
    if np.any(eps <= 0.0) or np.unique(eps).size != eps.size:
        raise ValueError("radii must be positive and distinct")
    if known_order is not None and not float(known_order) > 0.0:
        raise ValueError("known_order must be positive")
    order = np.argsort(eps)
    eps = eps[order]
    # one row per column, smallest radius first
    vs = np.ascontiguousarray(v.reshape(eps.size, -1)[order].T)

    flat = np.ptp(vs, axis=1) <= 1e-13 * (1.0 + np.max(np.abs(vs), axis=1))
    live = np.flatnonzero(~flat)
    vl = vs[live]
    if known_order is not None:
        x = eps ** float(known_order)
        vinf, c, ssr, _ = _line_fit(x, vl)
        gram = np.array([[[eps.size, x.sum()], [x.sum(), x @ x]]])
        stderr = _stderr(np.repeat(_inv00(gram), live.size), ssr,
                         max(eps.size - 2, 1))
        p = np.full(live.size, float(known_order))
        trusted = _tail_monotone(vl, vinf)
    else:
        p, vinf, c, ssr, stderr = _free_order_fit(vl, eps)
        trusted = (_tail_monotone(vl, vinf) & (p > ORDER_RANGE[0] + 1e-9)
                   & (p < ORDER_RANGE[1] - 1e-9))

    fits = [FitResult(float(np.mean(row)), 0.0, 0.0, float(np.ptp(row)), 0.0, False)
            if is_flat else None for row, is_flat in zip(vs, flat)]
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
    basis = np.stack([np.ones(int(keep.sum())), np.log(eps[keep])], axis=1)
    coef, *_ = np.linalg.lstsq(basis, np.log(v[keep]), rcond=None)
    return float(coef[1])


# |int lap f / (H + 2) dS| on coordinate spheres: lap f sees only the
# l = 1 part of f (size 1/eps, eigenvalue ~ 2 eps^2 on an area ~ 4 pi /
# eps^2), and the weight 1/(H + 2) varies by O(eps^3), so the integral is
# O(eps^2).  A tail order of 1.5 tells that from an eps^1 or a flat tail
# while leaving room for the eps^3 correction at the larger tail radii.
FLAT_LAPLACIAN_MIN_ORDER = 1.5


def judge_flat_laplacian(values, radii, tol) -> dict:
    """Verify entry for |int lap f / (H + 2) dS| sampled at radii (largest
    first): zero to rounding when the first value is within
    tol["funclim_atol"]; otherwise its decay order over the smaller half
    of the radii (the area_growth convention; values below the atol carry
    no order) must reach FLAT_LAPLACIAN_MIN_ORDER and the last value must
    fall to tol["funclim_factor"] times the first, or to the atol.  With
    fewer than two tail values above the atol the order is unresolved
    (+inf), and a note says so."""
    vals = [float(v) for v in values]
    atol = tol["funclim_atol"]
    if vals[0] <= atol:
        return {"passed": True, "initial": vals[0], "final": vals[-1],
                "note": "zero to rounding", "tolerance": atol}
    n_fit = max(3, math.ceil(len(vals) / 2))
    order = decay_order(vals[-n_fit:], radii[-n_fit:], floor=atol)
    ok = (order >= FLAT_LAPLACIAN_MIN_ORDER
          and vals[-1] <= max(tol["funclim_factor"] * vals[0], atol))
    entry = {"passed": ok, "initial": vals[0], "final": vals[-1],
             "factor": vals[-1] / vals[0], "order": _jsonable(order),
             "tolerance": tol["funclim_factor"],
             "radii": [float(e) for e in radii]}
    if order == math.inf:
        above = sum(x > atol for x in vals[-n_fit:])
        entry["note"] = ("decay order unresolved: %d of %d tail values above funclim_atol"
                         % (above, n_fit))
    return entry


# ---------------------------------------------------------------------------
# Cone pairing


def cone_pairing_report(v) -> float:
    """Supremum of <<v, eta>> over the t = 1 slice of the future null
    cone, |v_x| - v_t in closed form (attained at eta = (v_x/|v_x|, 1)).
    v is future causal exactly when the supremum is <= 0."""
    if isinstance(v, MinkowskiVector):
        arr = v.as_array()
    else:
        arr = np.asarray(v, dtype=float)
        if arr.shape != (4,):
            raise ValueError("expected a 4-vector")
    return float(np.linalg.norm(arr[:3])) - float(arr[3])


# ---------------------------------------------------------------------------
# Configuration


def _config_float(d: Mapping, key: str, where: str) -> float:
    if key not in d:
        raise ConfigError("%s is missing %r" % (where, key))
    try:
        x = float(d[key])
    except (TypeError, ValueError):
        raise ConfigError("%s key %r must be a number" % (where, key)) from None
    if not math.isfinite(x):
        raise ConfigError("%s key %r must be finite" % (where, key))
    return x


def _psi_from_spec(spec) -> tuple[np.polynomial.Polynomial, str]:
    """Named boundary profiles buildable from plain config, as polynomials
    in x = cos theta."""
    if not isinstance(spec, Mapping) or "type" not in spec:
        raise ConfigError("psi profile must be an object with a 'type'")
    kind = spec["type"]
    if kind == "cos_theta":
        a = _config_float(spec, "amplitude", "psi profile")
        return np.polynomial.Polynomial([0.0, a]), "cos_theta(%g)" % a
    if kind == "constant":
        c = _config_float(spec, "value", "psi profile")
        return np.polynomial.Polynomial([c]), "constant(%g)" % c
    if kind == "poly_cos":
        raw = spec.get("coefficients")
        if not isinstance(raw, (list, tuple)) or not raw:
            raise ConfigError("poly_cos profile needs a nonempty 'coefficients' list")
        try:
            cs = [float(c) for c in raw]
        except (TypeError, ValueError):
            raise ConfigError("poly_cos coefficients must be numbers") from None
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
        return Hyperbolic(), "hyperbolic"
    if name in ("ads_schwarzschild", "adsschwarzschild"):
        m = _config_float(spec, "mass", "family")
        if not m > 0.0:
            raise ConfigError("family mass must be positive")
        return AdSSchwarzschild(m), "ads_schwarzschild(m=%g)" % m
    if name in ("perturbed_round", "perturbedround"):
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
    return tuple(eps0 * ratio ** k for k in range(count))


# Top-level keys SweepConfig.from_dict accepts; any other key is an error.
_CONFIG_KEYS = frozenset(("family", "epsilons", "schedule", "grid", "tolerances",
                          "output", "branch", "seed", "alpha"))


@dataclass(frozen=True)
class SweepConfig:
    """Validated sweep parameters; build from plain dicts with from_dict."""

    family: AHFamily
    eps_list: tuple
    n_theta: int = 64
    n_phi: int = 4
    branch: int = 1
    tolerances: Mapping = field(default_factory=dict)
    output_dir: str = "out"
    with_alpha: bool = True
    seed: int = DEFAULT_SEED
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
        if self.n_theta < 16:
            raise ConfigError("grid.n_theta must be at least 16")
        if self.n_phi < 4:
            raise ConfigError("grid.n_phi must be at least 4")
        if self.branch not in (1, -1):
            raise ConfigError("branch must be +1 or -1")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        merged = dict(DEFAULT_TOLERANCES)
        for key in self.tolerances:
            if key not in DEFAULT_TOLERANCES:
                raise ConfigError("unknown tolerance %r" % (key,))
            merged[key] = _config_float(self.tolerances, key, "tolerances")
        label = self.family_label or getattr(self.family, "name", type(self.family).__name__)
        object.__setattr__(self, "eps_list", eps)
        object.__setattr__(self, "tolerances", merged)
        object.__setattr__(self, "output_dir", str(self.output_dir))
        object.__setattr__(self, "family_label", str(label))

    @classmethod
    def from_dict(cls, data) -> "SweepConfig":
        if not isinstance(data, Mapping):
            raise ConfigError("config root must be an object")
        unknown = sorted(str(k) for k in data if k not in _CONFIG_KEYS)
        if unknown:
            raise ConfigError("unknown config key(s): %s" % ", ".join(unknown))
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
                eps = tuple(float(e) for e in raw)
            except (TypeError, ValueError):
                raise ConfigError("'epsilons' entries must be numbers") from None
        else:
            sch = data["schedule"]
            if not isinstance(sch, Mapping):
                raise ConfigError("'schedule' must be an object")
            count = sch.get("count", 8)
            if not isinstance(count, int) or isinstance(count, bool):
                raise ConfigError("schedule count must be an integer")
            eps = default_schedule(_config_float(sch, "eps0", "schedule"),
                                   _config_float(sch, "ratio", "schedule"), count)
        grid = data["grid"]
        if not isinstance(grid, Mapping):
            raise ConfigError("'grid' must be an object")
        for key in ("n_theta", "n_phi"):
            if key not in grid:
                raise ConfigError("grid is missing %r" % (key,))
            if not isinstance(grid[key], int) or isinstance(grid[key], bool):
                raise ConfigError("grid.%s must be an integer" % key)
        tol = data["tolerances"]
        if not isinstance(tol, Mapping):
            raise ConfigError("'tolerances' must be an object")
        out = data["output"]
        if not isinstance(out, Mapping) or "dir" not in out:
            raise ConfigError("'output' must be an object with a 'dir'")
        branch = data.get("branch", 1)
        seed = data.get("seed", DEFAULT_SEED)
        for key, val in (("branch", branch), ("seed", seed)):
            if not isinstance(val, int) or isinstance(val, bool):
                raise ConfigError("%r must be an integer" % (key,))
        with_alpha = data.get("alpha", True)
        if not isinstance(with_alpha, bool):
            raise ConfigError("'alpha' must be a boolean")
        return cls(
            family=fam,
            eps_list=eps,
            n_theta=grid["n_theta"],
            n_phi=grid["n_phi"],
            branch=branch,
            tolerances=tol,
            output_dir=str(out["dir"]),
            with_alpha=with_alpha,
            seed=seed,
            family_label=label,
        )


# ---------------------------------------------------------------------------
# Sweep records


@dataclass(frozen=True)
class PerEpsRecord:
    """Everything measured at one sweep radius; error set when the
    pipeline failed there (the sweep continues with a gap)."""

    eps: float
    result: MassResult | None = None
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

    def to_dict(self) -> dict:
        out = {"epsilon": self.eps, "error": self.error}
        if self.result is not None:
            out["m_by"] = list(self.result.m_by.as_array())
            out["m_hat"] = list(self.result.m_hat.as_array())
            out["tag_by"] = self.result.tag_by.value
            out["tag_hat"] = self.result.tag_hat.value
            if self.result.m_alpha is not None:
                out["m_alpha"] = list(self.result.m_alpha.as_array())
                out["tag_alpha"] = self.result.tag_alpha.value
        for name in ("alpha", "area", "h_min", "h_max", "k_min", "k_max",
                     "isometry_residual", "hyperboloid_defect"):
            out[name] = getattr(self, name)
        out["radii"] = list(self.radii) if self.radii is not None else None
        return out


_COMPONENTS = ("x1", "x2", "x3", "t")


@dataclass(frozen=True)
class MassSweepRecord:
    """Per-radius measurements plus fitted limits, convergence orders,
    and causal tags; radii stored largest first, fits taken from the
    smallest half (never fewer than three)."""

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
            "records": [r.to_dict() for r in self.records],
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


def _sweep_one(family: AHFamily, eps: float, grid: QuadratureGrid,
               cfg: SweepConfig) -> PerEpsRecord:
    surf = coordinate_sphere(family, eps, grid)
    if not embeddability_check(surf):
        raise EmbeddingError("Gauss curvature does not clear the K > -1 margin")
    if float(np.min(surf.H)) <= MEAN_CURVATURE_FLOOR:
        raise ValueError("mean curvature reaches the H = -2 floor")
    emb = embed_surface(surf, branch=cfg.branch)
    m_by = by_mass(surf, emb)
    m_hat = hat_mass(surf, emb)
    alpha = radii = m_alpha = None
    if cfg.with_alpha:
        r1, r2 = enclosing_radii(emb)
        alpha = alpha_from_radii(r1, r2)
        m_alpha = shitam_alpha_mass(surf, emb, alpha)
        radii = (r1, r2)
    result = MassResult(eps, m_by, m_hat, m_alpha=m_alpha)
    return PerEpsRecord(
        eps=eps, result=result, alpha=alpha, radii=radii,
        area=float(surf.area),
        h_min=float(np.min(surf.H)), h_max=float(np.max(surf.H)),
        k_min=float(np.min(surf.K)), k_max=float(np.max(surf.K)),
        isometry_residual=float(emb.isometry_residual),
        hyperboloid_defect=emb.hyperboloid_defect,
    )


def _gap(rec: PerEpsRecord) -> float:
    return float(np.max(np.abs(rec.result.m_hat.as_array() - rec.result.m_by.as_array())))


def run_sweep(cfg: SweepConfig) -> MassSweepRecord:
    """Run the mass pipeline over the configured radius list and fit the
    limits.  Per-radius failures are recorded and skipped; at least three
    radii must survive to fit."""
    grid = QuadratureGrid(cfg.n_theta, cfg.n_phi)
    records = []
    for eps in cfg.eps_list:
        try:
            records.append(_sweep_one(cfg.family, float(eps), grid, cfg))
        except (EmbeddingError, ValueError, ArithmeticError) as exc:
            records.append(PerEpsRecord(eps=float(eps),
                                        error="%s: %s" % (type(exc).__name__, exc)))
    good = [r for r in records if r.error is None]
    if len(good) < 3:
        raise RuntimeError("only %d of %d radii completed; need 3 to fit limits"
                           % (len(good), len(records)))
    good.sort(key=lambda r: r.eps)
    n_fit = max(3, math.ceil(len(good) / 2))
    fit_recs = good[:n_fit]
    fit_eps = np.array([r.eps for r in fit_recs])

    names = ["m_by", "m_hat"]
    if all(r.result.m_alpha is not None for r in good):
        names.append("m_alpha")
    # one batched fit: four components per mass vector, then the gap
    series = np.array([[x for name in names for x in getattr(r.result, name).as_array()]
                       + [_gap(r)] for r in fit_recs])
    col_fits = fit_limit(series, fit_eps)

    fits, limits, tags = {}, {}, {}
    for i, name in enumerate(names):
        comp_fits = dict(zip(_COMPONENTS, col_fits[4 * i:4 * i + 4]))
        fits[name] = comp_fits
        vec = MinkowskiVector(*(comp_fits[c].limit for c in _COMPONENTS))
        limits[name] = vec
        tags[name] = {"classify": causal_classify(vec),
                      "cone_max": cone_pairing_report(vec)}
    fits["hat_by_gap"] = col_fits[-1]
    gaps_desc = [_gap(r) for r in sorted(good, key=lambda r: -r.eps)]
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


def _random_unit_spinor(rng) -> SpinorParameter:
    a = rng.standard_normal(4)
    n = float(np.linalg.norm(a))
    if n < 1e-12:
        a = np.array([1.0, 0.0, 0.0, 0.0])
        n = 1.0
    a = a / n
    return SpinorParameter(complex(a[0], a[1]), complex(a[2], a[3]))


def _sheet_points(r, ct, ph):
    """Hyperboloid points at geodesic distance r from (0, 0, 0, 1) in the
    direction with polar cosine ct and azimuth ph."""
    st = np.sqrt(1.0 - ct ** 2)
    omega = np.stack([st * np.cos(ph), st * np.sin(ph), ct], axis=1)
    return np.concatenate([np.sinh(r)[:, None] * omega, np.cosh(r)[:, None]], axis=1)


def _random_sheet_points(rng, n, r_max):
    r = rng.uniform(0.05, r_max, n)
    ct = rng.uniform(-1.0, 1.0, n)
    ph = rng.uniform(0.0, 2.0 * np.pi, n)
    return _sheet_points(r, ct, ph)


def verify_identities(cfg: SweepConfig) -> dict:
    """Run the spinor-field and surface-geometry identity suites on the
    configured family; failures are report entries, never exceptions."""
    grid = QuadratureGrid(cfg.n_theta, cfg.n_phi)
    fam = cfg.family
    tol = cfg.tolerances
    rng = np.random.default_rng(cfg.seed)
    entries = {}

    cache = {}

    def sphere_at(eps):
        if eps not in cache:
            surf = coordinate_sphere(fam, eps, grid)
            cache[eps] = (surf, embed_surface(surf, branch=cfg.branch))
        return cache[eps]

    def run_entry(name, fn):
        try:
            entries[name] = fn()
        except Exception as exc:  # report, do not abort the suite
            entries[name] = {"passed": False,
                             "error": "%s: %s" % (type(exc).__name__, exc)}

    def e_spinor_norm():
        worst = 0.0
        for _ in range(10):
            z = _random_unit_spinor(rng)
            fld = KillingNormField.from_spinor(z)
            r = rng.uniform(0.0, 3.0, 1000)
            th = rng.uniform(0.0, np.pi, 1000)
            ph = rng.uniform(0.0, 2.0 * np.pi, 1000)
            f = fld.value(spinor_polar_point(r, th, ph))
            worst = max(worst, float(np.max(np.abs(spinor_at(z, r, th, ph).norm_sq - f))))
        return {"passed": worst <= tol["spinor_norm"], "residual": worst,
                "tolerance": tol["spinor_norm"], "samples": 10000}

    def e_geodesic():
        # the draws interleave per sample; the points are built after
        flds, r, ct, ph, y = [], [], [], [], []
        for _ in range(100):
            flds.append(KillingNormField.from_spinor(_random_unit_spinor(rng)))
            r.append(rng.uniform(0.05, 2.0))
            ct.append(rng.uniform(-1.0, 1.0))
            ph.append(rng.uniform(0.0, 2.0 * np.pi))
            y.append(rng.standard_normal(4))
        x0, y = _sheet_points(np.array(r), np.array(ct), np.array(ph)), np.array(y)
        v = y + lorentz_inner(y, x0)[:, None] * x0
        v = v / np.sqrt(lorentz_inner(v, v))[:, None]
        _, _, resid = geodesic_norm_check(flds, x0, v, np.linspace(-1.0, 1.0, 9))
        worst = float(np.max(resid))
        return {"passed": worst <= tol["geodesic_fit"], "residual": worst,
                "tolerance": tol["geodesic_fit"], "samples": 100}

    def e_gradient():
        fld = KillingNormField.from_spinor(_random_unit_spinor(rng))
        pts = _random_sheet_points(rng, 2000, 2.5)
        resid = gradient_identity_residual(fld, pts)
        return {"passed": resid <= tol["gradient_identity"], "residual": resid,
                "tolerance": tol["gradient_identity"], "samples": 2000}

    def e_surface_identity():
        eps_sel = {cfg.eps_list[0], cfg.eps_list[len(cfg.eps_list) // 2], cfg.eps_list[-1]}
        worst = 0.0
        for eps in sorted(eps_sel, reverse=True):
            surf, emb = sphere_at(eps)
            fld = KillingNormField.from_spinor(_random_unit_spinor(rng))
            worst = max(worst, minkowski_identity_residual(fld, emb))
        return {"passed": worst <= tol["surface_identity"], "residual": worst,
                "tolerance": tol["surface_identity"]}

    def e_norm_growth():
        fld = KillingNormField.from_spinor(_random_unit_spinor(rng))
        p = exhaustion_norm_growth(fld, [sphere_at(e)[1] for e in cfg.eps_list[:6]])
        return {"passed": abs(p - 1.0) <= tol["growth_exponent"], "exponent": p,
                "tolerance": tol["growth_exponent"]}

    def e_area_growth():
        values = []
        for eps in cfg.eps_list:
            surf, _ = sphere_at(eps)
            values.append(eps ** 2 * surf.area)
        # fit only the smallest radii, same convention as the mass sweep:
        # higher-order terms at the large end bias the free exponent
        n_fit = max(3, math.ceil(len(values) / 2))
        fit = fit_limit(values[-n_fit:], cfg.eps_list[-n_fit:])
        target = 4.0 * np.pi
        ok = (abs(fit.limit - target) <= tol["area_limit_rtol"] * target
              and fit.order_trusted and abs(fit.order - 2.0) <= 0.5)
        return {"passed": ok, "limit": fit.limit, "order": fit.order,
                "target": target, "tolerance": tol["area_limit_rtol"]}

    def e_aspect_recovery():
        eps = cfg.eps_list[-1]
        u = fam.conformal_factor(eps, grid.theta)
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
        values = []
        for eps in cfg.eps_list:
            _, emb = sphere_at(eps)
            values.append(float(np.max(np.abs(emb.H0 - 2.0 * math.cosh(eps)))))
        p = decay_order(values, cfg.eps_list, floor=1e-11)
        return {"passed": p >= tol["h0_order"], "order": _jsonable(p),
                "tolerance": tol["h0_order"], "values": values}

    def e_gauss_order():
        values = []
        for eps in cfg.eps_list:
            surf, _ = sphere_at(eps)
            values.append(float(np.max(np.abs(surf.K - math.sinh(eps) ** 2))))
        # curvature roundoff scales with the sinh^2 target, not absolutely
        floor = 1e-11 * np.sinh(np.asarray(cfg.eps_list)) ** 2
        p = decay_order(values, cfg.eps_list, floor=floor)
        return {"passed": p >= tol["gauss_order"], "order": _jsonable(p),
                "tolerance": tol["gauss_order"], "values": values}

    def e_flat_laplacian_decay():
        hi = min(0.3, float(fam.rho_max))
        eps_fun = np.geomspace(hi, 0.025 * hi, 8)
        fld = KillingNormField.from_spinor(_random_unit_spinor(rng))
        vals = []
        for eps in eps_fun:
            surf, emb = sphere_at(float(eps))
            vals.append(abs(laplacian_term(surf, fld.value_on(emb))))
        return judge_flat_laplacian(vals, eps_fun, tol)

    def e_embedding():
        worst_iso = worst_defect = 0.0
        h_ok = k_ok = True
        for eps in cfg.eps_list:
            surf, emb = sphere_at(eps)
            worst_iso = max(worst_iso, emb.isometry_residual)
            worst_defect = max(worst_defect, emb.hyperboloid_defect)
            k_ok = k_ok and embeddability_check(surf)
            h_ok = h_ok and float(np.min(surf.H)) > MEAN_CURVATURE_FLOOR
        ok = (worst_iso <= tol["isometry"] and worst_defect <= tol["hyperboloid"]
              and h_ok and k_ok)
        return {"passed": ok, "isometry_residual": worst_iso,
                "hyperboloid_defect": worst_defect,
                "gauss_margin_ok": k_ok, "mean_curvature_ok": h_ok,
                "tolerance": {"isometry": tol["isometry"], "hyperboloid": tol["hyperboloid"]}}

    run_entry("spinor_norm_match", e_spinor_norm)
    run_entry("geodesic_restriction", e_geodesic)
    run_entry("gradient_identity", e_gradient)
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
        "seed": cfg.seed,
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
    + ["alpha", "area", "h_min", "h_max", "k_min", "k_max",
       "isometry_residual", "hyperboloid_defect", "tag_by", "tag_hat",
       "tag_alpha", "error"]
)


def _csv_cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(float(x))
    return str(x)


def write_outputs(record: MassSweepRecord, cfg: SweepConfig) -> dict:
    """Write sweep.csv and summary.json into the configured output
    directory; returns the paths."""
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    csv_path = out / "sweep.csv"
    lines = [",".join(_CSV_HEADER)]
    for rec in record.records:
        res = rec.result
        row = [rec.eps]
        for vec in (res.m_by if res else None, res.m_hat if res else None,
                    res.m_alpha if res else None):
            row.extend(list(vec.as_array()) if vec is not None else [None] * 4)
        row.extend([
            rec.alpha, rec.area,
            rec.h_min, rec.h_max, rec.k_min, rec.k_max,
            rec.isometry_residual, rec.hyperboloid_defect,
            res.tag_by.value if res else None,
            res.tag_hat.value if res else None,
            res.tag_alpha.value if res and res.tag_alpha else None,
            rec.error,
        ])
        lines.append(",".join(_csv_cell(x) for x in row))
    csv_path.write_text("\n".join(lines) + "\n")

    summary = record.to_dict()
    summary["config"] = {
        "family": cfg.family_label,
        "epsilons": list(cfg.eps_list),
        "grid": {"n_theta": cfg.n_theta, "n_phi": cfg.n_phi},
        "branch": cfg.branch,
        "seed": cfg.seed,
        "tolerances": dict(cfg.tolerances),
    }
    summary_path = out / "summary.json"
    summary_path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")

    return {"csv": str(csv_path), "summary": str(summary_path)}
