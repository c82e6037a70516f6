"""Apply one-line mutants to a copy of ahmass and print which checks kill each.

    python tools/mutants.py                                  # every mutant
    python tools/mutants.py band h_dev                       # the named ones
    python tools/mutants.py band --tests tests/test_lorentz.py --configs hyperbolic

A mutant is one (file, old, new) replacement in ``src/ahmass``; before any
run the tool checks that each ``old`` occurs exactly once in this checkout.
For each mutant it copies ``src``, ``tests``, ``tools``, ``perfbench`` and
``pyproject.toml`` into a temporary directory, applies the replacement
there, and runs, each as a fresh process with the copy's ``src`` on
PYTHONPATH and ``OPENBLAS_NUM_THREADS=1``:

- tier-1, ``python -m pytest -q`` in the copy (or the ``--tests`` paths):
  it kills the mutant when a test fails or errors;
- ``ahmass sweep`` and ``ahmass verify`` on each config: hyperbolic,
  AdS-Schwarzschild m = 1, psi = 0.1 cos theta and poly_cos
  [0.05, -0.08, 0.06], each with 8 radii on a 64x4 grid.  The sweep kills
  when it exits nonzero or a radius records an error, verify when an entry
  fails;
- the limit check on the sweep's summary.json: max |m_BY limit -
  wang_reference| over the components against
  limit_rtol * (1 + max |wang_reference|).

It prints the kill matrix: per mutant, the tier-1 tests failed and, per
config, S, V and L for a kill by the sweep, verify and the limit check (``.``
for none), then the verify entries that failed.  Exit status 0 when every
mutant run was killed by some check, 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "tools", "perfbench", "pyproject.toml")

_GEOM = "src/ahmass/sphere_geometry.py"
_METRIC = "src/ahmass/ah_metric.py"
_EMBED = "src/ahmass/embed_h3.py"
_QL = "src/ahmass/quasilocal.py"

# name -> (file, old, new); 1-14 are the defects of ROADMAP item 15, band
# restores the tolerance test on <<v, v>> that the cone distance replaced
MUTANTS = {
    "h_dev": (_GEOM, "H = 2.0 * ch - sh * du / u", "H = 2.0 * ch - 1.02 * sh * du / u"),
    "u_rho": (_METRIC, "return 1.0 + r ** 3 * psi / 3.0, r ** 2 * psi,",
              "return 1.0 + r ** 3 * psi / 3.0, 1.02 * r ** 2 * psi,"),
    "wang_t": (_METRIC, "float(np.sum(wpsi)) / 4.0)", "float(np.sum(wpsi)) / 4.04)"),
    "h0_nf_1e-6": (_EMBED, "return ii_t / e - nf / p.f", "return ii_t / e - (1 + 1e-6) * nf / p.f"),
    "h0_nf_1e-9": (_EMBED, "return ii_t / e - nf / p.f", "return ii_t / e - (1 + 1e-9) * nf / p.f"),
    "hat_denom": (_QL, "(H0 ** 2 - H ** 2) / (H + 2.0)", "(H0 ** 2 - H ** 2) / (H + 2.01)"),
    "alpha_sqrt": (_QL, "return math.cosh(r1) / s1 + math.sqrt(ratio) / s1",
                   "return math.cosh(r1) / s1"),
    "k_lap": (_GEOM, "K = sh2 * (1.0 - 0.5 * grid", "K = sh2 * (1.0 - 0.52 * grid"),
    "no_centring": (_EMBED, "for _ in range(2):", "for _ in range(0):"),
    "ads_tail": (_METRIC, "for row in (2.0 * m / s)", "for row in (2.02 * m / s)"),
    "chipp_sign": (_EMBED, "chipp = -d_s_sqrtD / rho2 - chip", "chipp = -d_s_sqrtD / rho2 + chip"),
    "area_elem": (_QL, "W = np.stack([s.sqrt_det", "W = 1.001 * np.stack([s.sqrt_det"),
    "x3_comp": (_QL, "xk = np.stack([e.X[..., k] for e in embeddings])",
                "xk = np.stack([e.X[..., k] for e in embeddings]) * (1.0 + 1e-3 * (k == 2))"),
    "ads_urr": (_METRIC, "ddp = -sv * ch / sh + r * sh +", "ddp = -sv * ch / sh + 1.001 * r * sh +"),
    "band": ("src/ahmass/lorentz.py", "d = _spatial_norm(arr) - abs(t)",
             "d = float(np.dot(arr[:3], arr[:3]) - arr[3] ** 2)"),
}


def _config(family) -> dict:
    return {"family": family, "schedule": {"eps0": 0.2, "ratio": 2.0 ** -0.5, "count": 8},
            "grid": {"n_theta": 64, "n_phi": 4}, "tolerances": {}}


CONFIGS = {
    "hyperbolic": _config("hyperbolic"),
    "ads1": _config({"name": "ads_schwarzschild", "mass": 1.0}),
    "cos0.1": _config({"name": "perturbed_round", "psi": {"type": "cos_theta", "amplitude": 0.1}}),
    "poly_cos": _config({"name": "perturbed_round",
                         "psi": {"type": "poly_cos", "coefficients": [0.05, -0.08, 0.06]}}),
}


def check_mutants(names=None) -> None:
    """Raise ValueError unless each mutant's old text occurs exactly once
    in its file."""
    for name in names or MUTANTS:
        path, old, _ = MUTANTS[name]
        count = (ROOT / path).read_text().count(old)
        if count != 1:
            raise ValueError("mutant %s: %r occurs %d times in %s" % (name, old, count, path))


def _limit_kill(summary) -> bool:
    wang = summary["wang_reference"]
    err = max(abs(a - b) for a, b in zip(summary["limits"]["m_by"], wang))
    return not err <= summary["config"]["tolerances"]["limit_rtol"] * (1.0 + max(map(abs, wang)))


def _commands(copy, env, name, cfg) -> tuple:
    """(kill letters, failed verify entries) of sweep, verify and the limit
    check on one config in the mutated copy."""
    out = copy / "out" / name
    path = copy / ("%s.json" % name)
    path.write_text(json.dumps(dict(cfg, output={"dir": str(out)})))
    codes = [subprocess.run([sys.executable, "-m", "ahmass", cmd, str(path)], cwd=copy, env=env,
                            capture_output=True, timeout=900).returncode
             for cmd in ("sweep", "verify")]
    letters, entries = "", []
    try:
        summary = json.loads((out / "summary.json").read_text())
        with open(out / "sweep.csv", newline="") as fh:
            sweep_bad = codes[0] != 0 or any(row["error"] for row in csv.DictReader(fh))
    except OSError:
        summary, sweep_bad = None, True
    letters += "S" if sweep_bad else "."
    try:
        report = json.loads((out / "verify.json").read_text())
        entries = sorted(k for k, e in report["entries"].items() if not e.get("passed"))
        verify_bad = codes[1] != 0 or bool(entries) or not report["passed"]
    except OSError:
        verify_bad = True
    letters += "V" if verify_bad else "."
    letters += "L" if summary is None or _limit_kill(summary) else "."
    return letters, entries


def run_mutant(name, tests=(), configs=tuple(CONFIGS)) -> dict:
    """Apply one mutant to a temporary copy and run every check on it."""
    path, old, new = MUTANTS[name]
    with tempfile.TemporaryDirectory(prefix="mutants_") as tmp:
        copy = Path(tmp)
        for item in COPIED:
            src = ROOT / item
            if src.is_dir():
                shutil.copytree(src, copy / item,
                                ignore=shutil.ignore_patterns("__pycache__", "out", ".hypothesis"))
            else:
                shutil.copy2(src, copy / item)
        target = copy / path
        target.write_text(target.read_text().replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), OPENBLAS_NUM_THREADS="1",
                   PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                               *tests], cwd=copy, env=env, capture_output=True, text=True,
                              timeout=1800)
        tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
        failed = sum(int(n) for n in re.findall(r"(\d+) (?:failed|errors?)\b", tail))
        if proc.returncode not in (0, 1) and not failed:
            failed = -1  # pytest could not run the tests: printed "error", a kill
        cells = {c: _commands(copy, env, c, CONFIGS[c]) for c in configs}
    return {"name": name, "tier1": failed, "cells": cells}


def print_matrix(rows, configs) -> None:
    print("%-12s %-7s %s" % ("mutant", "tier-1", " ".join("%-10s" % c for c in configs)))
    for row in rows:
        t1 = "error" if row["tier1"] < 0 else str(row["tier1"]) if row["tier1"] else "."
        print("%-12s %-7s %s" % (row["name"], t1,
                                 " ".join("%-10s" % row["cells"][c][0] for c in configs)))
    for row in rows:
        for c in configs:
            if row["cells"][c][1]:
                print("  %s on %s: verify fails %s" % (row["name"], c, ", ".join(row["cells"][c][1])))
    killed = sum(bool(killed_by(row)) for row in rows)
    print("killed: %d of %d" % (killed, len(rows)))


def killed_by(row) -> list:
    """The checks that killed a mutant: tier-1, sweep, verify, limit."""
    got = ["tier-1"] if row["tier1"] else []
    for letter, check in zip("SVL", ("sweep", "verify", "limit")):
        if any(letter in cell for cell, _ in row["cells"].values()):
            got.append(check)
    return got


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mutants", nargs="*", help="mutant names (default: all)")
    parser.add_argument("--tests", nargs="*", default=[], help="tier-1 paths (default: all)")
    parser.add_argument("--configs", nargs="*", default=list(CONFIGS), choices=list(CONFIGS))
    args = parser.parse_args(argv)
    names = args.mutants or list(MUTANTS)
    unknown = [n for n in names if n not in MUTANTS]
    if unknown:
        parser.error("unknown mutant(s): %s" % ", ".join(unknown))
    check_mutants(names=names)
    rows = []
    for name in names:
        rows.append(run_mutant(name, args.tests, args.configs))
        print("ran %s: killed by %s" % (name, ", ".join(killed_by(rows[-1])) or "nothing"),
              file=sys.stderr, flush=True)
    print_matrix(rows, args.configs)
    return 0 if all(killed_by(row) for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
