"""Tests of the benchmark itself: span arithmetic, the tracer, the seeded
generator, failure accounting and BENCHMARK.json.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import itertools
import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
from workloads import Case, generate  # noqa: E402


def test_self_times_of_nested_spans():
    spans = [
        ("a", -1, 0.0, 10.0),
        ("b", 0, 1.0, 4.0),
        ("c", 1, 2.0, 3.0),
        ("d", 0, 5.0, 6.0),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_times_count_covered_time_once():
    # overlapping children cover [1, 6]; a child running past its parent
    # only covers the parent's part
    spans = [
        ("a", -1, 0.0, 10.0),
        ("b", 0, 1.0, 4.0),
        ("c", 0, 3.0, 6.0),
        ("d", -1, 20.0, 22.0),
        ("e", 3, 21.0, 25.0),
    ]
    assert self_times(spans) == pytest.approx([5.0, 3.0, 3.0, 1.0, 4.0])


@pytest.fixture
def fake_package(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.mod")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer
    user = types.ModuleType("fakepkg.user")
    user.inner = inner  # as after `from .mod import inner`
    for m in (pkg, mod, user):
        monkeypatch.setitem(sys.modules, m.__name__, m)
    return mod, user


def test_tracer_wraps_every_lookup_and_restores(fake_package):
    mod, user = fake_package
    original = mod.inner
    seen = []
    tracer = Tracer(["mod.outer", "mod.inner", "mod.gone"], package="fakepkg",
                    hooks={"mod.inner": lambda t, a, k, r: seen.append(r)})
    tracer.install()
    tracer.begin_case("k")
    assert mod.outer(1) == 4
    assert user.inner(5) == 6
    per_case = tracer.end_case()
    tracer.uninstall()
    assert mod.inner is original and user.inner is original
    assert per_case["mod.outer"][0] == 1
    assert per_case["mod.inner"][0] == 2
    assert seen == [2, 6]
    assert tracer.missing == {"mod.gone"}
    assert tracer.calls["mod.gone"] == 0
    assert tracer.self_s["mod.outer"] >= 0.0


def test_tracer_counts_failed_calls(fake_package):
    mod, _ = fake_package
    tracer = Tracer(["mod.inner"], package="fakepkg")
    tracer.install()
    tracer.begin_case("k")
    with pytest.raises(TypeError):
        mod.inner(None)
    tracer.end_case()
    tracer.uninstall()
    assert tracer.failed["mod.inner"] == 1
    assert tracer.calls["mod.inner"] == 1


def test_generator_is_seeded_distinct_and_non_round():
    def first(workload, seed, n):
        return list(itertools.islice(generate(workload, seed), n))

    for workload in ("pert_sweep", "pert_verify", "round"):
        a = first(workload, 7, 30)
        assert a == first(workload, 7, 30)
        assert a != first(workload, 8, 30)
        keys = {json.dumps(c.config, sort_keys=True) for c in a}
        assert len(keys) == len(a)
        for case in a:
            fam = case.config["family"]
            if workload.startswith("pert"):
                c = fam["psi"]["coefficients"]
                assert all(abs(x) <= 0.15 for x in c)
                assert abs(c[1]) + abs(c[2]) >= 0.03
            twin = case.twin()
            assert twin.config != case.config
            assert twin.config["schedule"]["count"] == case.config["schedule"]["count"]
    counts = [c.config["schedule"]["count"] for c in first("pert_sweep", 3, 9)]
    for block in range(3):
        assert sorted(counts[3 * block:3 * block + 3]) == [8, 10, 12]


def _fast_config(family, eps):
    return {"family": family, "epsilons": eps, "grid": {"n_theta": 32, "n_phi": 4},
            "tolerances": {}}


def test_broken_case_counts_as_failed_and_exits_nonzero(monkeypatch, tmp_path, capsys):
    broken = Case("c000", ("sweep",), _fast_config(
        {"name": "perturbed_round", "psi": {"type": "constant", "value": -40.0}},
        [0.45, 0.12, 0.08, 0.05]))
    good = Case("c001", ("sweep",), _fast_config("hyperbolic", [0.2, 0.14, 0.1, 0.07, 0.05]))
    monkeypatch.setattr(run, "generate", lambda workload, seed: iter([broken, good]))
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    code = run.main(["--workload", "round", "--seed", "0", "--seconds", "60", "--trace", "0"])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code != 0
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}
    error_rate = next(line for line in lines if line.startswith("error_rate"))
    assert float(error_rate.split()[1]) == 0.5
    assert not any(tmp_path.iterdir())  # the work directory is removed


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.per_layer_metrics())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


@pytest.mark.xfail(strict=True, reason="area_growth exponent drops below 1.5 for AdS "
                   "masses above about 3.33 on the default schedule")
def test_verify_passes_on_heavy_ads_mass(tmp_path):
    case = Case("heavy", ("verify",), {
        "family": {"name": "ads_schwarzschild", "mass": 3.4},
        "schedule": {"eps0": 0.2, "ratio": 2.0 ** -0.5, "count": 8},
        "grid": {"n_theta": 64, "n_phi": 4}, "tolerances": {}})
    cli, _ = run.import_cli()
    result = run.run_case(cli, case, tmp_path)
    assert not result.errors, result.errors
