"""Command-line entry point.

Subcommands:
  sweep <config>    run the radius sweep, write sweep.csv / summary.json
  verify <config>   run the identity suites, write verify.json
  embed <config>    embed one coordinate sphere, dump its profile CSV
  report <summary>  pretty-print a summary.json written by sweep, with the
                    per-radius rows of the sweep.csv beside it

Exit codes: 0 all asserted checks passed, 2 identity, sweep or embed
failure, 3 configuration error (also an output directory that cannot be
written, or a report input that cannot be read).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .embed_h3 import EmbeddingError, dump_profile_csv, embed_surface
from .quasilocal import enclosing_radii
from .sphere_geometry import QuadratureGrid, coordinate_sphere
from .sweep import (
    ConfigError,
    SweepConfig,
    read_sweep_csv,
    run_sweep,
    verify_identities,
    write_outputs,
)

__all__ = ["main"]


def _load_config(path: str) -> SweepConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc)) from None
    except json.JSONDecodeError as exc:
        raise ConfigError("config %s is not valid JSON: %s" % (path, exc)) from None
    return SweepConfig.from_dict(data)


@contextlib.contextmanager
def _writing_outputs(cfg: SweepConfig):
    """Yield the output directory; an OSError while creating it or writing
    into it is a config error, one stderr line and exit 3."""
    try:
        yield Path(cfg.output_dir)
    except OSError as exc:
        raise ConfigError("cannot write outputs to %s: %s" % (cfg.output_dir, exc)) from None


def _fmt_vec(comps) -> str:
    return "(" + ", ".join("%+.6e" % c for c in comps) + ")"


def _fmt_fit(comps, comp_fits) -> str:
    """A fitted limit, its error bars and the fit degree, from each
    component's {limit_err, degree} (LimitFit fields or summary.json's)."""
    errs = "(" + ", ".join("%.1e" % float(f["limit_err"]) for f in comp_fits) + ")"
    return "%s +/- %s degree %s" % (_fmt_vec(comps), errs, comp_fits[-1]["degree"])


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    try:
        record = run_sweep(cfg)
    except RuntimeError as exc:
        print("sweep failed: %s" % exc, file=sys.stderr)
        return 2
    with _writing_outputs(cfg):
        paths = write_outputs(record, cfg)
    print("family: %s" % record.family_label)
    for rec in record.records:
        if rec.error is not None:
            print("  eps=%-10.6g FAILED: %s" % (rec.eps, rec.error))
            continue
        print("  eps=%-10.6g m_BY=%s [%s]  |m_hat-m_BY|=%.3e"
              % (rec.eps, _fmt_vec(rec.m_by.as_array()), rec.tag_by.value, rec.gap))
    print("fitted limits (from eps = %s):"
          % ", ".join("%g" % e for e in record.fit_eps))
    for name, vec in record.limits.items():
        tag = record.tags[name]
        comp_fits = [vars(f) for f in record.fits[name].values()]
        print("  %-8s %s [%s] cone max %.3e"
              % (name, _fmt_fit(vec.as_array(), comp_fits), tag["classify"].value,
                 tag["cone_max"]))
    print("reference mass vector: %s" % _fmt_vec(record.wang.as_array()))
    print("wrote %s and %s" % (paths["csv"], paths["summary"]))
    return 0 if all(r.error is None for r in record.records) else 2


def _cmd_verify(args) -> int:
    cfg = _load_config(args.config)
    report = verify_identities(cfg)
    with _writing_outputs(cfg) as out:
        out.mkdir(parents=True, exist_ok=True)
        path = out / "verify.json"
        path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    print("family: %s" % report["family"])
    for name, entry in report["entries"].items():
        status = "PASS" if entry.get("passed") else "FAIL"
        detail = entry.get("residual", entry.get("order",
                           entry.get("exponent", entry.get("factor", ""))))
        note = entry.get("error", entry.get("note", ""))
        if isinstance(detail, float):
            detail = "%.3e" % detail
        elif note:
            detail = ""  # a non-number detail ("inf") gives way to the note
        print("  %s  %-26s %-12s %s" % (status, name, detail, note))
    print("wrote %s" % path)
    return 0 if report["passed"] else 2


def _cmd_embed(args) -> int:
    cfg = _load_config(args.config)
    eps = args.eps if args.eps is not None else cfg.eps_list[0]
    if not 0.0 < eps <= cfg.family.rho_max:
        raise ConfigError("eps %g outside the collar range (0, %g]"
                          % (eps, cfg.family.rho_max))
    grid = QuadratureGrid(cfg.n_theta, cfg.n_phi)
    try:
        surf = coordinate_sphere(cfg.family, float(eps), grid)
        emb = embed_surface(surf)
        r1, r2 = enclosing_radii(emb)
    except (EmbeddingError, ValueError, ArithmeticError) as exc:
        print("embed failed: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 2
    with _writing_outputs(cfg) as out:
        out.mkdir(parents=True, exist_ok=True)
        # repr keeps radii apart that %g would round to one name
        path = out / ("profile_eps_%r.csv" % eps)
        dump_profile_csv(emb, path)
    print("family: %s  eps=%g" % (cfg.family_label, eps))
    print("  area              %.12g" % surf.area)
    print("  radii             [%.12g, %.12g]" % (r1, r2))
    print("  H0 range          [%.12g, %.12g]"
          % (float(np.min(emb.H0)), float(np.max(emb.H0))))
    print("  isometry residual %.3e" % emb.isometry_residual)
    print("wrote %s" % path)
    return 0


def _summary_lines(data) -> tuple:
    """The report lines of a summary before and after its per-radius
    lines."""
    head = ["family: %s" % data.get("family", "?"),
            "radii: %s" % ", ".join("%g" % e for e in data["epsilons"])]
    tail = []
    limits = data.get("limits", {})
    tags = data.get("tags", {})
    fits = data.get("fits", {})
    for name, comps in limits.items():
        tag = tags.get(name, {})
        tail.append("  limit %-8s %s [%s]"
                    % (name, _fmt_fit(comps, [fits[name][c] for c in ("x1", "x2", "x3", "t")]),
                       tag.get("classify", "?")))
    if "wang_reference" in data:
        tail.append("  reference mass vector: %s" % _fmt_vec(data["wang_reference"]))
    gap = fits.get("hat_by_gap", {})
    if gap:
        tail.append("  |m_hat - m_BY| decay order %s (monotone: %s)"
                     % (gap.get("order", "?"), data.get("gap_monotone", "?")))
    return head, tail


def _cmd_report(args) -> int:
    try:
        with open(args.record) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError("cannot read record %s: %s" % (args.record, exc)) from None
    except json.JSONDecodeError as exc:
        raise ConfigError("record %s is not valid JSON: %s" % (args.record, exc)) from None
    try:
        # a value of the wrong type anywhere fails here, before any output
        head, tail = _summary_lines(data)
    except (AttributeError, KeyError, TypeError, ValueError):
        raise ConfigError("%s does not look like a sweep summary" % args.record) from None
    csv_path = Path(args.record).with_name("sweep.csv")
    rows = read_sweep_csv(csv_path)
    if [r["epsilon"] for r in rows] != list(data["epsilons"]):
        raise ConfigError("the epsilon column of %s differs from the epsilons of %s"
                          % (csv_path, args.record))
    for r in rows:
        m_by = (r["mBY_x1"], r["mBY_x2"], r["mBY_x3"], r["mBY_t"])
        head.append("  eps=%-10.6g FAILED: %s" % (r["epsilon"], r["error"]) if r["error"] else
                    "  eps=%-10.6g m_BY=%s [%s]" % (r["epsilon"], _fmt_vec(m_by), r["tag_by"]))
    print("\n".join(head + tail))
    return 0


@functools.lru_cache(maxsize=1)  # built by the first main call, not at import
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ahmass",
        description="Quasi-local mass sweeps over coordinate spheres of "
                    "asymptotically hyperbolic collar metrics.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="run the radius sweep and write reports")
    p.add_argument("config", help="JSON config file")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("verify", help="run the identity suites")
    p.add_argument("config", help="JSON config file")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("embed", help="embed one coordinate sphere")
    p.add_argument("config", help="JSON config file")
    p.add_argument("--eps", type=float, default=None,
                   help="collar radius (default: largest configured)")
    p.set_defaults(fn=_cmd_embed)

    p = sub.add_parser("report", help="pretty-print a summary.json and its sweep.csv")
    p.add_argument("record", help="summary.json written by sweep, beside its sweep.csv")
    p.set_defaults(fn=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
