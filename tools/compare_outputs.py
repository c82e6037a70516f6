"""Compare what two source trees of ahmass write and print on the same configs.

    python tools/compare_outputs.py OLD_TREE NEW_TREE CONFIG.json [CONFIG.json ...]
    python tools/compare_outputs.py OLD_TREE NEW_TREE --workload pert_sweep --seed 7 --cases 8

For each config it runs ``sweep``, ``report <out>/summary.json``, ``verify``,
``embed`` and ``embed --eps E`` (E the config's smallest radius, as this
checkout parses it) as one fresh ``python -m ahmass`` process per command and
tree, with the tree's ``src`` on
PYTHONPATH and ``OPENBLAS_NUM_THREADS=1``.  It then compares every output file
and each command's stdout, stderr and exit code; the output root is replaced
by ``<out>`` before the streams are compared.  Each item prints ``identical``
or its differences: the largest |delta| per numeric CSV column and JSON key
path (list indices folded to ``[]``), for ``sweep.csv`` also the largest
|delta| * eps^3, and any non-numeric difference.  A last verdict line counts
the items that are identical, that differ only in numbers (a file with no
non-numeric difference, a stream equal once every number token is masked)
and that differ otherwise (an exit code, a file on one side only, any other
change).  Generated cases come from this checkout's ``perfbench/workloads.py``.
Exit status 0 when everything is identical, 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import difflib
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
from ahmass.sweep import ConfigError, SweepConfig  # noqa: E402

SHOWN = 5  # non-numeric differences and stream lines shown per item
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")  # a stream's number tokens
KINDS = ("identical", "numbers only", "other")


def _workload_configs(workload, seed, cases) -> list:
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    mod = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(mod)
    stream = mod.generate(workload, seed)
    return [("%s-s%d-%s" % (workload, seed, case.name), case.config)
            for case, _ in zip(stream, range(cases))]


def _smallest_radius(cfg) -> float:
    """The config's smallest radius as this checkout parses it; a config
    it rejects gets 0.1, since embed rejects it at every radius."""
    try:
        return min(SweepConfig.from_dict(dict(cfg, output={"dir": "."})).eps_list)
    except ConfigError:
        return 0.1


def _run(tree, out, name, cfg, eps) -> tuple:
    """Run the five commands of one config in one tree; returns the
    streams per command and the bytes per output file."""
    cfg_dir = out / name
    cfg_dir.mkdir(parents=True)
    path = str(cfg_dir / "config.json")
    Path(path).write_text(json.dumps(dict(cfg, output={"dir": str(cfg_dir / "out")})))
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"), OPENBLAS_NUM_THREADS="1")
    got = {}
    for label, argv in (("sweep", ["sweep", path]),
                        ("report", ["report", str(cfg_dir / "out" / "summary.json")]),
                        ("verify", ["verify", path]), ("embed", ["embed", path]),
                        ("embed --eps", ["embed", "--eps", repr(eps), path])):
        proc = subprocess.run([sys.executable, "-m", "ahmass", *argv], cwd=tree, env=env,
                              capture_output=True, text=True, timeout=600)
        got[label] = (proc.returncode, proc.stdout.replace(str(out), "<out>"),
                      proc.stderr.replace(str(out), "<out>"))
    files = sorted((cfg_dir / "out").glob("*")) if (cfg_dir / "out").is_dir() else []
    return got, {f.name: f.read_bytes() for f in files}


def _json_pairs(a, b):
    """(key path, old leaf, new leaf, weight 1) of every JSON leaf, list
    indices folded to []; a key path with another number of leaves on
    each side is one pair of leaf counts."""
    def flat(obj, path, out):
        if isinstance(obj, dict):
            for k, v in obj.items():
                flat(v, "%s.%s" % (path, k) if path else k, out)
        elif isinstance(obj, list):
            for v in obj:
                flat(v, path + "[]", out)
        else:
            out.setdefault(path, []).append(obj)
        return out

    fa, fb = flat(a, "", {}), flat(b, "", {})
    for key in list(fa) + [k for k in fb if k not in fa]:
        va, vb = fa.get(key, []), fb.get(key, [])
        if len(va) != len(vb):
            yield key, "%d leaves" % len(va), "%d leaves" % len(vb), 1.0
        else:
            yield from ((key, x, y, 1.0) for x, y in zip(va, vb))


def _csv_pairs(a, b, scaled):
    """(column, old cell, new cell, eps^3 of the row, or 1 unless scaled)."""
    ra, rb = (list(csv.DictReader(io.StringIO(x.decode()))) for x in (a, b))
    if len(ra) != len(rb) or (ra and list(ra[0]) != list(rb[0])):
        yield "rows x columns", (len(ra), list(ra[0]) if ra else []), \
            (len(rb), list(rb[0]) if rb else []), 1.0
        return
    for x, y in zip(ra, rb):
        weight = float(x["epsilon"]) ** 3 if scaled else 1.0
        for col in x:
            yield col, x[col], y[col], weight


def _number(v):
    if isinstance(v, bool):
        return None
    try:
        return float(v)
    except (TypeError, ValueError):
        return None


def _differences(name, a, b) -> tuple:
    """Lines describing how output file b differs from a: the largest
    |delta| per field, for sweep.csv also times eps^3, and the first
    non-numeric differences; and whether there are none of those."""
    scaled = name == "sweep.csv"
    pairs = (_json_pairs(json.loads(a), json.loads(b)) if name.endswith(".json")
             else _csv_pairs(a, b, scaled))
    worst, other = {}, []
    for key, x, y, weight in pairs:
        if x == y or (x != x and y != y):  # NaN leaves on both sides agree
            continue
        nx, ny = _number(x), _number(y)
        if nx is not None and ny is not None and math.isfinite(nx) and math.isfinite(ny):
            d, dw = worst.get(key, (0.0, 0.0))
            worst[key] = (max(d, abs(ny - nx)), max(dw, abs(ny - nx) * weight))
        else:
            other.append("    %s: %r -> %r" % (key, x, y))
    lines = ["    max |delta| %-34s %.3e%s" % (k, d, "   * eps^3: %.3e" % dw if scaled else "")
             for k, (d, dw) in worst.items()]
    extra = len(other) - SHOWN
    return (lines + other[:SHOWN] + (["    ... %d more" % extra] if extra > 0 else [])
            or ["    same values, other bytes"]), not other


def _stream_diff(a, b) -> list:
    diff = [ln for ln in difflib.unified_diff(a.splitlines(), b.splitlines(), lineterm="", n=0)
            if not ln.startswith(("---", "+++", "@@"))]
    extra = len(diff) - 2 * SHOWN
    return ["    " + ln for ln in diff[:2 * SHOWN]] + (["    ... %d more" % extra] if extra > 0 else [])


def _report(old, new, counts) -> None:
    """Print how one config's streams and files, (streams per command,
    bytes per file) on each side, differ from old to new, and count each
    item under its kind."""
    (ra, fa), (rb, fb) = old, new
    for cmd in ra:
        for label, x, y in zip(("exit code", "stdout", "stderr"), ra[cmd], rb[cmd]):
            kind = ("identical" if x == y else "other" if label == "exit code" else
                    "numbers only" if NUMBER.sub("#", x) == NUMBER.sub("#", y) else "other")
            counts[kind] += 1
            print("  %-14s %-10s %s" % (cmd, label, "identical" if x == y else
                                        "%r -> %r" % (x, y) if label == "exit code" else "differs"))
            if x != y and label != "exit code":
                print("\n".join(_stream_diff(x, y)))
    for fname in sorted(set(fa) | set(fb)):
        if fname not in fa or fname not in fb:
            counts["other"] += 1
            print("  %-25s only in %s" % (fname, "old" if fname in fa else "new"))
        elif fa[fname] == fb[fname]:
            counts["identical"] += 1
            print("  %-25s identical" % fname)
        else:
            lines, numbers_only = _differences(fname, fa[fname], fb[fname])
            counts["numbers only" if numbers_only else "other"] += 1
            print("  %-25s differs" % fname)
            print("\n".join(lines))


def compare(old_tree, new_tree, configs) -> bool:
    """Print the comparison of every config and the verdict line; True
    when all is identical."""
    counts = dict.fromkeys(KINDS, 0)
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        for name, cfg in configs:
            eps = _smallest_radius(cfg)
            old, new = (_run(tree, Path(tmp) / side, name, cfg, eps)
                        for tree, side in ((old_tree, "old"), (new_tree, "new")))
            print("%s:" % name)
            _report(old, new, counts)
    print("verdict: " + ", ".join("%d %s" % (counts[k], k) for k in KINDS))
    return counts["identical"] == sum(counts.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_tree")
    parser.add_argument("new_tree")
    parser.add_argument("configs", nargs="*", help="JSON config files")
    parser.add_argument("--workload", help="generate configs of this perfbench workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cases", type=int, default=8)
    args = parser.parse_args(argv)
    configs = [(Path(p).stem, json.loads(Path(p).read_text())) for p in args.configs]
    if args.workload:
        configs += _workload_configs(args.workload, args.seed, args.cases)
    if not configs:
        parser.error("give config files or --workload")
    return 0 if compare(args.old_tree, args.new_tree, configs) else 1


if __name__ == "__main__":
    sys.exit(main())
