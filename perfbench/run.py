"""Closed-loop benchmark of the ``ahmass`` command line.

    python3 perfbench/run.py --workload pert_sweep --seed 1 --seconds 38 --trace 0

Run from the root of a source checkout; ``ahmass`` is imported from its
``src`` directory.  One process, one client: each case calls
``ahmass.cli.main([subcommand, config])`` in-process with stdout captured,
and the next case starts when the previous one has ended.  A case is not
started when the median case time so far says it would end after
``--seconds``.  Every case's outputs are checked (exit code, per-radius
errors, verify entries, fitted ``m_by`` limit against the boundary mass
integral); a case that fails any check counts in ``failed``.

``--trace 0`` measures the end-to-end metrics with tracing off.  While a
case runs, a SIGALRM handler times a few scalar evaluations of a fixed
Chebyshev series (no ahmass code) every 30 ms; that time is taken out of
the case's wall time.  ``radius_rel`` is the median over cases of the
case's wall time per configured radius over the median sample time during
the case.  On a shared 2-vCPU Xeon host the speed drifts by 20-40%
within minutes; the ratio cancels most of that drift, which moves raw
wall times between runs by 15-30%.
``--trace 1`` runs each case untraced and then its twin (the same work on
radii shifted by 1e-9) traced, and reports per-layer calls and self time
per traced case, the tracing overhead and the end-to-end accuracy figures.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit codes: 0 every case
passed its checks, 1 a case failed, 2 the benchmark could not run (no
``src/ahmass`` beside this directory, bad arguments).
"""

from __future__ import annotations

import os

# One BLAS thread: the grids are small, and a thread pool on a shared
# 2-core machine only adds noise.  Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import csv
import ctypes
import hashlib
import io
import itertools
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

SETUP_PROBES = 5
# Configs written before the loop; the set-up probes validate these.
SETUP_CONFIGS = 8

TRACE_TARGETS = (
    "embed_h3.embed_surface",
    "embed_h3.solve_ivp",
    "killing_spinor.spinor_at",
    "killing_spinor.spinor_polar_point",
    "killing_spinor.KillingNormField.value",
    "killing_spinor.geodesic_norm_check",
    "killing_spinor.gradient_identity_residual",
    "killing_spinor.minkowski_identity_residual",
    "killing_spinor.exhaustion_norm_growth",
    "lorentz.lorentz_inner",
    "lorentz.causal_classify",
    "sweep.run_sweep",
    "sweep.verify_identities",
    "sweep.fit_limit",
    "sweep.cone_pairing_report",
    "sweep.write_outputs",
    "sphere_geometry.coordinate_sphere",
    "sphere_geometry.surface_laplacian",
    "quasilocal.by_mass",
    "quasilocal.hat_mass",
    "quasilocal.shitam_alpha_mass",
    "quasilocal.enclosing_radii",
    "ah_metric.mass_aspect",
    "ah_metric.wang_mass",
    "cli.main",
)

# (name, unit) of the end-to-end metrics in the final JSON with --trace 0.
END_TO_END = (
    ("setup_s", "s"),
    ("radius_rel", "ratio"),
    ("peak_rss_mb", "MiB"),
)

# Extra per-layer metrics besides <target>.calls and <target>.self_s.
EXTRA_PER_LAYER = (
    ("embed_h3.embed_surface.failed", "calls/case"),
    ("embed_h3.embed_surface.distinct_share", "ratio"),
    ("embed_h3.embed_surface.closed_form_share", "ratio"),
    ("embed_h3.solve_ivp.nfev", "evals/case"),
    ("sweep.write_outputs.bytes", "B/case"),
    ("ah_metric.warnings", "count/case"),
    ("trace.overhead_ratio", "ratio"),
    # End-to-end figures that cannot be end-to-end metrics: they are zero
    # or undefined on some workload, or differ by orders of magnitude
    # between seeds.  Measured on the untraced cases of the traced run.
    ("e2e.sweep_s", "s"),
    ("e2e.verify_s", "s"),
    ("e2e.error_rate", "ratio"),
    ("e2e.mby_limit_err", "abs"),
    ("e2e.hat_by_gap", "abs"),
    ("e2e.isometry_residual_max", "abs"),
)


def per_layer_metrics():
    """(name, unit) of every metric in the final JSON with --trace 1."""
    out = []
    for target in TRACE_TARGETS:
        out.append((target + ".calls", "calls/case"))
        out.append((target + ".self_s", "s/case"))
    return tuple(out) + EXTRA_PER_LAYER


class BenchError(Exception):
    """The benchmark cannot run here."""


# ---------------------------------------------------------------------------
# One case


class CaseRun:
    """Wall times, check failures, warnings and accuracy of one case;
    ``sample_s`` is the median speed sample taken while it ran."""

    def __init__(self, case):
        self.case = case
        self.wall = {}
        self.errors = []
        self.warnings = []
        self.accuracy = {}
        self.sample_s = None

    @property
    def seconds(self) -> float:
        return sum(self.wall.values())


def run_case(cli, case, workdir, probe=None) -> CaseRun:
    run = CaseRun(case)
    cfg_path = workdir / (case.name + ".json")
    out_dir = workdir / case.name
    if not cfg_path.exists():
        cfg_path.write_text(json.dumps(case.config_for(out_dir)))
    first_sample = len(probe.times) if probe else 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for command in case.commands:
            code = None
            with probe.running() if probe else contextlib.nullcontext():
                spent = probe.spent if probe else 0.0
                t0 = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = cli.main([command, str(cfg_path)])
                except Exception as exc:  # a case failure, not a benchmark failure
                    traceback.print_exc(file=sys.stderr)
                    run.errors.append("%s raised %s: %s" % (command, type(exc).__name__, exc))
                run.wall[command] = time.perf_counter() - t0 - (
                    probe.spent - spent if probe else 0.0)
            if code not in (0, None):
                run.errors.append("%s exited %r" % (command, code))
    run.warnings = list(caught)
    if probe:
        run.sample_s = statistics.median(probe.times[first_sample:])
    for command in case.commands:
        check = CHECKS[command]
        try:
            check(out_dir, run)
        except (OSError, KeyError, ValueError, TypeError) as exc:
            run.errors.append("%s outputs unreadable: %s: %s"
                              % (command, type(exc).__name__, exc))
    return run


def _raise_max(run, key, value):
    run.accuracy[key] = max(run.accuracy.get(key, 0.0), float(value))


def check_sweep(out_dir, run):
    with open(out_dir / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    failed = [r["epsilon"] for r in rows if r["error"]]
    if failed:
        run.errors.append("sweep failed at eps %s" % ", ".join(failed))
    for r in rows:
        if r["isometry_residual"]:
            _raise_max(run, "isometry_residual_max", r["isometry_residual"])
    with open(out_dir / "summary.json") as fh:
        summary = json.load(fh)
    m_by = summary["limits"]["m_by"]
    m_hat = summary["limits"]["m_hat"]
    wang = summary["wang_reference"]
    err = max(abs(a - b) for a, b in zip(m_by, wang))
    bound = summary["config"]["tolerances"]["limit_rtol"] * (1.0 + max(abs(w) for w in wang))
    if not err <= bound:
        run.errors.append("m_by limit off the boundary mass by %.3e > %.3e" % (err, bound))
    _raise_max(run, "mby_limit_err", err)
    _raise_max(run, "hat_by_gap", max(abs(a - b) for a, b in zip(m_hat, m_by)))


def check_verify(out_dir, run):
    with open(out_dir / "verify.json") as fh:
        report = json.load(fh)
    failed = sorted(name for name, e in report["entries"].items() if not e.get("passed"))
    if failed or not report["passed"]:
        run.errors.append("verify failed: %s" % ", ".join(failed))
    _raise_max(run, "isometry_residual_max",
               report["entries"]["embedding_residuals"]["isometry_residual"])


CHECKS = {"sweep": check_sweep, "verify": check_verify}


# ---------------------------------------------------------------------------
# Tracing hooks


def _tracer():
    spheres = set()

    def on_embed(tracer, args, kwargs, result):
        surface = args[0] if args else kwargs["surface"]
        branch = kwargs.get("branch", args[1] if len(args) > 1 else 1)
        spheres.add((tracer.case, surface.eps, surface.grid.n_theta,
                     surface.grid.n_phi, branch))
        tracer.counts["distinct"] = len(spheres)
        tracer.counts["closed_form"] += result.profile is None

    def on_solve(tracer, args, kwargs, result):
        tracer.counts["nfev"] += result.nfev

    def on_write(tracer, args, kwargs, result):
        tracer.counts["bytes"] += sum(os.path.getsize(p) for p in result.values())

    return Tracer(TRACE_TARGETS, hooks={
        "embed_h3.embed_surface": on_embed,
        "embed_h3.solve_ivp": on_solve,
        "sweep.write_outputs": on_write,
    })


# ---------------------------------------------------------------------------
# The loop


class SpeedProbe:
    """Samples the host's speed while cases run.

    A sample is the time of a few scalar evaluations of a fixed
    degree-160 Chebyshev series in a Python loop: the interpreter-plus-
    small-numpy mix of the program's hot paths, with no ahmass code, so no
    change to ahmass can move it.  Inside ``running()`` a sample is taken
    every ``period`` seconds from a SIGALRM handler; ``spent`` adds up the
    handler's time so that callers can take it out of their wall times.
    """

    def __init__(self, period=0.03, evaluations=25):
        import numpy as np

        rng = np.random.default_rng(0)
        self.series = np.polynomial.Chebyshev(
            rng.standard_normal(161) / np.arange(1, 162) ** 2)
        self.points = [float(x) for x in rng.uniform(-1.0, 1.0, evaluations)]
        self.period = period
        self.times = []
        self.spent = 0.0
        self._armed = False
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)

    def _sample(self):
        t0 = time.perf_counter()
        for x in self.points:
            self.series(x)
        dt = time.perf_counter() - t0
        self.times.append(dt)
        return dt

    def _on_alarm(self, signum, frame):
        # an alarm already pending when the timer is disarmed lands here too
        if self._armed:
            self.spent += self._sample()

    @contextlib.contextmanager
    def running(self):
        """Sample once now, then every ``period`` seconds until the block ends."""
        self._sample()
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            self._armed = False

    def close(self):
        signal.signal(signal.SIGALRM, self._previous)


def radius_rel(runs):
    """Median over ``runs`` of wall time per configured radius over the
    median speed sample taken during the run."""
    return statistics.median(r.seconds / r.case.radii / r.sample_s for r in runs)


def run_loop(cli, cases, workdir, seconds, tracer=None, probe=None):
    """Run cases until the next one would end after ``seconds``.  Returns
    the untraced runs and, with a tracer, the traced twin runs."""
    runs, traced = [], []
    durations = []
    shown = set()
    start = time.perf_counter()
    for case in cases:
        if durations and time.perf_counter() - start + statistics.median(durations) > seconds:
            break
        t0 = time.perf_counter()
        runs.append(run_case(cli, case, workdir, probe))
        report_case(runs[-1], shown)
        if tracer is not None:
            twin = case.twin()
            tracer.install()
            try:
                tracer.begin_case(twin.name)
                traced.append(run_case(cli, twin, workdir))
            finally:
                tracer.uninstall()
                tracer.end_case()
            report_case(traced[-1], shown)
        durations.append(time.perf_counter() - t0)
    return runs, traced


def report_case(run, shown):
    """Print one line per case, and each distinct warning once per run."""
    status = "ok" if not run.errors else "FAILED: " + "; ".join(run.errors)
    print("  case %-6s %s  %s" % (run.case.name, " ".join(
        "%s %.3fs" % (c, t) for c, t in run.wall.items()), status), flush=True)
    for w in run.warnings:
        key = (w.category, str(w.message), w.filename, w.lineno)
        if key not in shown:
            shown.add(key)
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)


def measure_setup(config_dir, n):
    """Median wall time of ``n`` fresh interpreters importing ahmass and
    validating the workload's configs."""
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(SRC),
                        str(config_dir)], check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), times


# ---------------------------------------------------------------------------
# Metrics


def _median_of(values):
    return statistics.median(values) if values else 0.0


def _integration_warnings(runs):
    return sum(1 for r in runs for w in r.warnings
               if w.category.__name__ == "IntegrationWarning")


def summary_figures(runs):
    """Figures the table prints for a list of untraced case runs:
    {name: (value, unit, samples)}."""
    sweeps = [r.wall["sweep"] for r in runs if "sweep" in r.wall]
    verifies = [r.wall["verify"] for r in runs if "verify" in r.wall]
    failed = sum(1 for r in runs if r.errors)
    out = {
        "case_s": (_median_of([r.seconds for r in runs]), "s", len(runs)),
        "sweep_s": (_median_of(sweeps), "s", len(sweeps)),
        "verify_s": (_median_of(verifies), "s", len(verifies)),
        "error_rate": (failed / len(runs), "ratio", len(runs)),
        "ah_metric.warnings": (_integration_warnings(runs), "count", len(runs)),
    }
    for key in ("mby_limit_err", "hat_by_gap", "isometry_residual_max"):
        have = [r.accuracy[key] for r in runs if key in r.accuracy]
        out[key] = (max(have) if have else 0.0, "abs", len(have))
    return out


def trace_metrics(tracer, runs, traced):
    n = len(traced)
    metrics = {}
    for target in TRACE_TARGETS:
        metrics[target + ".calls"] = tracer.calls[target] / n
        metrics[target + ".self_s"] = tracer.self_s[target] / n
    embeds = tracer.calls["embed_h3.embed_surface"]
    untraced = summary_figures(runs)
    figures = summary_figures(runs + traced)
    metrics.update({
        "embed_h3.embed_surface.failed": tracer.failed["embed_h3.embed_surface"] / n,
        "embed_h3.embed_surface.distinct_share":
            tracer.counts["distinct"] / embeds if embeds else 0.0,
        "embed_h3.embed_surface.closed_form_share":
            tracer.counts["closed_form"] / embeds if embeds else 0.0,
        "embed_h3.solve_ivp.nfev": tracer.counts["nfev"] / n,
        "sweep.write_outputs.bytes": tracer.counts["bytes"] / n,
        "ah_metric.warnings": _integration_warnings(traced) / n,
        "trace.overhead_ratio": sum(r.seconds for r in traced) / sum(r.seconds for r in runs),
        "e2e.sweep_s": untraced["sweep_s"][0],
        "e2e.verify_s": untraced["verify_s"][0],
        "e2e.error_rate": figures["error_rate"][0],
        "e2e.mby_limit_err": figures["mby_limit_err"][0],
        "e2e.hat_by_gap": figures["hat_by_gap"][0],
        "e2e.isometry_residual_max": figures["isometry_residual_max"][0],
    })
    return metrics


# ---------------------------------------------------------------------------
# Provenance


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return {"library": Path(lib).name, "threads": fn()}
    return None


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_hash():
    digest = hashlib.sha256()
    for path in sorted((SRC / "ahmass").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args, ahmass_version):
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ahmass": ahmass_version,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "src_sha256": _source_hash(),
        "blas": _blas_threads(),
        "blas_env": {v: os.environ.get(v) for v in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# ---------------------------------------------------------------------------
# Entry point


def import_cli():
    """Import ahmass.cli from this checkout's src, never from elsewhere."""
    package = SRC / "ahmass"
    if not (package / "__init__.py").is_file():
        raise BenchError("no ahmass sources at %s" % package)
    sys.path.insert(0, str(SRC))
    import ahmass
    import ahmass.cli

    if Path(ahmass.__file__).resolve().parent != package.resolve():
        raise BenchError("imported ahmass from %s, not %s" % (ahmass.__file__, package))
    return ahmass.cli, ahmass.__version__


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def print_table(rows):
    print("%-40s %16s %-10s %s" % ("metric", "value", "unit", "samples"))
    for name, (value, unit, samples) in rows.items():
        print("%-40s %16.6g %-10s %s" % (name, value, unit, samples))


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
        cli, version = import_cli()
    except BenchError as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 2

    stream = generate(args.workload, args.seed)
    first = list(itertools.islice(stream, SETUP_CONFIGS))
    cases = itertools.chain(first, stream)
    workdir = OUT / ("work-%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    workdir.mkdir(parents=True)
    try:
        for case in first:
            (workdir / (case.name + ".json")).write_text(
                json.dumps(case.config_for(workdir / case.name)))
        print("ahmass benchmark: workload %s, seed %d, %g s, trace %d"
              % (args.workload, args.seed, args.seconds, args.trace), flush=True)
        if args.trace:
            tracer = _tracer()
            runs, traced = run_loop(cli, cases, workdir, args.seconds, tracer)
        else:
            setup_s, setup_samples = measure_setup(workdir, SETUP_PROBES)
            probe = SpeedProbe()
            try:
                runs, traced = run_loop(cli, cases, workdir, args.seconds, probe=probe)
            finally:
                probe.close()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    every = runs + traced
    failed = sum(1 for r in every if r.errors)
    figures = summary_figures(runs)
    if args.trace:
        values = trace_metrics(tracer, runs, traced)
        units = dict(per_layer_metrics())
        rows = {name: (values[name], units[name], len(traced)) for name, _ in per_layer_metrics()}
        rows["trace.overhead_ratio"] = (values["trace.overhead_ratio"], "ratio", len(runs))
        if tracer.missing:
            print("trace targets not found, reported as 0 calls: %s"
                  % ", ".join(sorted(tracer.missing)))
        write_trace(args, tracer, values)
    else:
        rel = radius_rel(runs)
        values = {"setup_s": setup_s, "radius_rel": rel, "peak_rss_mb": peak_rss_mb}
        rows = {"setup_s": (setup_s, "s", len(setup_samples))}
        rows.update(figures)
        rows["speed_sample_s"] = (statistics.median(probe.times), "s", len(probe.times))
        rows["radius_rel"] = (rel, "ratio", len(runs))
        rows["peak_rss_mb"] = (peak_rss_mb, "MiB", 1)
        units = dict(END_TO_END)
    print_table(rows)
    print("provenance: " + json.dumps(provenance(args, version), sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": len(every),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def write_trace(args, tracer, values):
    """Per-target totals of the traced run, written once it has ended."""
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / ("trace-%s-seed%d.json" % (args.workload, args.seed))
    data = {
        "targets": {t: {"calls": tracer.calls[t], "self_s": tracer.self_s[t],
                        "failed": tracer.failed[t]} for t in TRACE_TARGETS},
        "missing": sorted(tracer.missing),
        "metrics": values,
    }
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
