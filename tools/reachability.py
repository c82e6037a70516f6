"""List the functions of ``src/ahmass`` that no command enters.

    python tools/reachability.py                      # the five default configs
    python tools/reachability.py CONFIG.json [CONFIG.json ...]

For each config it runs ``sweep``, ``report <out>/summary.json``, ``verify``,
``embed`` and ``embed --eps E`` (E the config's smallest radius) through
``ahmass.cli.main`` in one fresh interpreter, under ``sys.setprofile``.  The
interpreter must be fresh: a function behind an ``lru_cache`` that an earlier
run in the same process has filled is never entered again.  The commands'
streams and outputs are discarded.

It prints one line per function that no command entered, by its module and
``co_qualname``, with the function's line count (decorators included), then a
total line.  The default configs are hyperbolic, AdS-Schwarzschild m = 1,
psi = 0.1 cos theta, poly_cos [0.05, -0.08, 0.06] and constant -40, each with
8 radii on a 64x4 grid.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ahmass"


def _config(family) -> dict:
    return {"family": family, "schedule": {"eps0": 0.2, "ratio": 2.0 ** -0.5, "count": 8},
            "grid": {"n_theta": 64, "n_phi": 4}, "tolerances": {}}


def _perturbed(psi) -> dict:
    return {"name": "perturbed_round", "psi": psi}


DEFAULT_CONFIGS = {
    "hyperbolic": _config("hyperbolic"),
    "ads_m1": _config({"name": "ads_schwarzschild", "mass": 1.0}),
    "cos_theta": _config(_perturbed({"type": "cos_theta", "amplitude": 0.1})),
    "poly_cos": _config(_perturbed({"type": "poly_cos", "coefficients": [0.05, -0.08, 0.06]})),
    "constant": _config(_perturbed({"type": "constant", "value": -40.0})),
}

# Run in the fresh interpreter: argv[1] is the package's parent directory,
# stdin the configs by name; prints the entered (file, qualname) pairs as JSON.
_CHILD = r"""
import contextlib, io, json, os, sys, tempfile
src = sys.argv[1]
sys.path.insert(0, src)
entered = set()

def profile(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(src):
        entered.add((frame.f_code.co_filename, frame.f_code.co_qualname))

# the import counts: it builds module-level objects, such as sweep's spinors
sys.setprofile(profile)
from ahmass.cli import main
from ahmass.sweep import ConfigError, SweepConfig
sys.setprofile(None)

configs = json.load(sys.stdin)
with tempfile.TemporaryDirectory(prefix="reachability_") as tmp:
    for name, cfg in configs.items():
        out = os.path.join(tmp, name)
        os.makedirs(out)
        path = os.path.join(out, "config.json")
        with open(path, "w") as fh:
            json.dump(dict(cfg, output={"dir": os.path.join(out, "out")}), fh)
        try:
            eps = min(SweepConfig.from_dict(dict(cfg, output={"dir": "."})).eps_list)
        except ConfigError:
            eps = 0.1
        for argv in (["sweep", path], ["report", os.path.join(out, "out", "summary.json")],
                     ["verify", path], ["embed", path], ["embed", "--eps", repr(eps), path]):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                sys.setprofile(profile)
                try:
                    main(argv)
                finally:
                    sys.setprofile(None)
print(json.dumps(sorted(entered)))
"""


def _functions() -> dict:
    """{(file, qualname): line count} of every function defined in the
    package's modules, nested and class-level ones included."""
    found = {}

    def walk(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(path, qualname)] = child.end_lineno - first + 1
                walk(child, qualname + ".<locals>.", path)
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".", path)
            else:
                walk(child, prefix, path)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text()), "", str(path))
    return found


def unreached(configs=None) -> list:
    """(module.qualname, line count) of each package function that no
    command entered on the configs ({name: config}), in file order."""
    configs = DEFAULT_CONFIGS if configs is None else configs
    proc = subprocess.run([sys.executable, "-c", _CHILD, str(PACKAGE.parent)],
                          input=json.dumps(configs), capture_output=True, text=True, check=True,
                          env=dict(os.environ, OPENBLAS_NUM_THREADS="1"), timeout=600)
    entered = {tuple(pair) for pair in json.loads(proc.stdout)}
    return [("%s.%s" % (Path(path).stem, qualname), lines)
            for (path, qualname), lines in _functions().items()
            if (path, qualname) not in entered]


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    configs = {Path(p).stem: json.loads(Path(p).read_text()) for p in paths} or None
    missed = unreached(configs)
    for name, lines in missed:
        print("%-60s %4d" % (name, lines))
    print("%d functions, %d lines" % (len(missed), sum(lines for _, lines in missed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
