"""tools/compare_outputs.py: a tree against itself writes identical outputs,
and the verdict line sorts each difference by kind."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", ROOT / "tools" / "compare_outputs.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_same_tree_is_identical(tmp_path, capsys):
    # one three-radius config: five commands per tree, every stream, exit
    # code and output file identical
    path = tmp_path / "three.json"
    path.write_text(json.dumps({
        "family": {"name": "perturbed_round",
                   "psi": {"type": "poly_cos", "coefficients": [0.05, -0.08, 0.06]}},
        "epsilons": [0.2, 0.1, 0.05], "grid": {"n_theta": 32, "n_phi": 4}, "tolerances": {}}))
    assert load_tool().main([str(ROOT), str(ROOT), str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines.pop() == "verdict: 20 identical, 0 numbers only, 0 other"
    assert lines[0] == "three:"
    files = [ln.split()[0] for ln in lines[1:] if ln.split()[0] not in ("sweep", "report", "verify", "embed")]
    assert files == ["profile_eps_0.05.csv", "profile_eps_0.2.csv", "summary.json", "sweep.csv",
                     "verify.json"]
    assert len(lines) == 1 + 5 * 3 + 5
    assert all(ln.endswith(" identical") for ln in lines[1:])


def test_differences_name_the_field():
    # a changed sweep.csv cell reports its column's |delta| and |delta| eps^3,
    # a changed JSON leaf its folded key path, a changed string its values
    tool = load_tool()
    old = b"epsilon,mBY_t,error\n0.5,1.0,\n0.25,2.0,\n"
    new = b"epsilon,mBY_t,error\n0.5,1.0,\n0.25,2.5,boom\n"
    lines, numbers_only = tool._differences("sweep.csv", old, new)
    assert lines[0].split()[2:] == ["mBY_t", "5.000e-01", "*", "eps^3:", "7.812e-03"]
    assert lines[1] == "    error: '' -> 'boom'"
    assert not numbers_only
    lines, numbers_only = tool._differences("summary.json", b'{"a": {"b": [1.0, 2.0]}, "c": "x"}',
                                            b'{"a": {"b": [1.0, 2.25]}, "c": "y"}')
    assert lines == ["    max |delta| a.b[]                              2.500e-01",
                     "    c: 'x' -> 'y'"]
    assert not numbers_only
    # a list that grew is reported by its leaf count, the other keys still
    # compared; equal values in other bytes say so
    lines, numbers_only = tool._differences("summary.json", b'{"r": [0.1, 0.2], "m": 1.0}',
                                            b'{"r": [0.1, 0.2, 0.3], "m": 1.5}')
    assert lines == ["    max |delta| m                                  5.000e-01",
                     "    r[]: '2 leaves' -> '3 leaves'"]
    assert not numbers_only
    assert tool._differences("verify.json", b'{"a": 1.0}', b'{"a": 1}') == (
        ["    same values, other bytes"], True)


SIDE = ({"sweep": (0, "eps=0.2 m_BY=(+1.0e-03) [spacelike]\n", "")},
        {"sweep.csv": b"epsilon,mBY_t,error\n0.2,1.0,\n", "summary.json": b'{"m": 1.0}'})


@pytest.mark.parametrize("new, counts", [
    # the same streams and files: five identical items
    (SIDE, (5, 0, 0)),
    # a number token in stdout and a numeric cell: numbers only
    (({"sweep": (0, "eps=0.2 m_BY=(+1.5e-03) [spacelike]\n", "")},
      {"sweep.csv": b"epsilon,mBY_t,error\n0.2,1.25,\n", "summary.json": b'{"m": 1.0}'}),
     (3, 2, 0)),
    # an exit code, a tag in stdout, a stderr line, an error cell and a
    # file on one side only: other
    (({"sweep": (2, "eps=0.2 m_BY=(+1.0e-03) [timelike]\n", "boom\n")},
      {"sweep.csv": b"epsilon,mBY_t,error\n0.2,1.0,boom\n", "verify.json": b"{}"}),
     (0, 0, 6)),
])
def test_verdict_counts_each_kind(new, counts, capsys):
    # the verdict sorts each item into identical, numbers only or other
    tool = load_tool()
    got = dict.fromkeys(tool.KINDS, 0)
    tool._report(SIDE, new, got)
    assert tuple(got[k] for k in tool.KINDS) == counts


def test_workload_configs_are_perfbench_cases():
    # --workload takes the first cases of perfbench's seeded generator
    configs = load_tool()._workload_configs("round", 5, 3)
    assert [name for name, _ in configs] == ["round-s5-c000", "round-s5-c001", "round-s5-c002"]
    assert all(cfg["grid"] == {"n_theta": 64, "n_phi": 4} for _, cfg in configs)


def test_smallest_radius_parses_the_config():
    # the radius of embed --eps comes from the config as ahmass reads it: a
    # schedule without a count has the default 8 radii, and a config ahmass
    # rejects still gets a radius
    tool = load_tool()
    base = {"family": {"name": "hyperbolic"}, "grid": {"n_theta": 32, "n_phi": 4}, "tolerances": {}}
    assert tool._smallest_radius(dict(base, epsilons=[0.3, 0.1, 0.05])) == 0.05
    assert tool._smallest_radius(dict(base, schedule={"eps0": 0.2, "ratio": 0.5})) == 0.2 * 0.5 ** 7
    assert tool._smallest_radius(dict(base, schedule={"eps0": 0.2, "ratio": 0.5, "count": 3})) == 0.05
    assert tool._smallest_radius(dict(base, epsilons=[0.1], branch=1)) == 0.1
