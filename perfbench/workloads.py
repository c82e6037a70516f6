"""Seeded case generators for the benchmark workloads.

Each workload turns ``--seed`` into an endless stream of distinct cases.  A case is
one config plus the ``ahmass`` subcommands run on it, in order.  The
program only ever sees the generated config files.

- ``pert_sweep``: ``ahmass sweep`` on non-round ``perturbed_round``
  families.  Every radius goes through the meridian ODE and every radius is
  distinct, so a memo cannot help.  Schedule counts come in shuffled blocks
  of (8, 10, 12), so every run sweeps a balanced mix of depths whatever the
  seed.
- ``pert_verify``: ``ahmass verify`` on non-round ``perturbed_round``
  families, 8 radii.  It re-embeds spheres (22 calls, 16 distinct), runs the
  surface Laplacian and the spinor loops.
- ``round``: ``ahmass sweep`` then ``ahmass verify`` on ``hyperbolic`` or
  ``ads_schwarzschild`` families.  These spheres take the closed-form path,
  so the ODE is never called; the spinor loops and the limit fits dominate.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

GRID = {"n_theta": 64, "n_phi": 4}
EPS0 = 0.2
RATIO = 2.0 ** -0.5
SWEEP_COUNTS = (8, 10, 12)
VERIFY_COUNT = 8
PSI_RANGE = 0.15
# |c1| + |c2| below this makes psi nearly constant in theta, i.e. a round
# sphere that the closed-form dispatch would take.
PSI_MIN_ANISOTROPY = 0.03
# Masses above about 3.33 make `ahmass verify` fail its area_growth entry
# on the 8-radius default schedule (fitted exponent 1.497 at m = 3.35, the
# check wants 1.5 to 2.5), so the workload stops at 3.3.  The strict xfail
# in test_perfbench.py turns into a failure once that is fixed; widen the
# range to 3.5 then.  Masses from about 3.05 up raise IntegrationWarning
# in verify; those stay in and are counted.
ADS_MASS_RANGE = (0.25, 3.3)
HYPERBOLIC_SHARE = 0.25
# Relative shift of eps0 that makes a twin case: the same work on radii no
# other case uses.
TWIN_SHIFT = 1e-9


@dataclass(frozen=True)
class Case:
    name: str
    commands: tuple
    config: dict

    @property
    def radii(self) -> int:
        if "epsilons" in self.config:
            return len(self.config["epsilons"])
        return self.config["schedule"]["count"]

    def config_for(self, output_dir) -> dict:
        cfg = json.loads(json.dumps(self.config))
        cfg["output"] = {"dir": str(output_dir)}
        return cfg

    def twin(self) -> "Case":
        """Same family, grid and radius count, every radius shifted by
        TWIN_SHIFT: the same work without repeating a config."""
        cfg = json.loads(json.dumps(self.config))
        cfg["schedule"]["eps0"] = cfg["schedule"]["eps0"] * (1.0 - TWIN_SHIFT)
        return Case(self.name + "t", self.commands, cfg)


def _config(family, count) -> dict:
    return {
        "family": family,
        "schedule": {"eps0": EPS0, "ratio": RATIO, "count": count},
        "grid": dict(GRID),
        "tolerances": {},
    }


def _poly_cos(rng) -> dict:
    while True:
        c = [round(rng.uniform(-PSI_RANGE, PSI_RANGE), 6) for _ in range(3)]
        if abs(c[1]) + abs(c[2]) >= PSI_MIN_ANISOTROPY:
            return {"name": "perturbed_round",
                    "psi": {"type": "poly_cos", "coefficients": c}}


def _pert_sweep(rng):
    while True:
        counts = list(SWEEP_COUNTS)
        rng.shuffle(counts)
        for count in counts:
            yield ("sweep",), _config(_poly_cos(rng), count)


def _pert_verify(rng):
    while True:
        yield ("verify",), _config(_poly_cos(rng), VERIFY_COUNT)


def _round(rng):
    while True:
        if rng.random() < HYPERBOLIC_SHARE:
            family = "hyperbolic"
        else:
            family = {"name": "ads_schwarzschild",
                      "mass": round(rng.uniform(*ADS_MASS_RANGE), 6)}
        yield ("sweep", "verify"), _config(family, VERIFY_COUNT)


WORKLOADS = {
    "pert_sweep": _pert_sweep,
    "pert_verify": _pert_verify,
    "round": _round,
}


def generate(workload: str, seed: int):
    """Endless stream of distinct cases of ``workload`` for ``seed``.  A
    draw that repeats an earlier config is skipped (``hyperbolic`` has no
    parameter, so it appears at most once)."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % (workload,))
    rng = random.Random("%s:%d" % (workload, seed))
    seen = set()
    for commands, cfg in WORKLOADS[workload](rng):
        key = json.dumps(cfg, sort_keys=True)
        if key not in seen:
            seen.add(key)
            yield Case("c%03d" % (len(seen) - 1), commands, cfg)
