"""Command-line driver: config loading, subcommands, exit codes, outputs."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ahmass import cone_pairing_report, embed_h3, sweep
from ahmass.cli import main
from ahmass.sweep import MAX_GRID_PHI, MAX_GRID_THETA, TOLERANCES

FAST_EPS = [0.2, 0.14, 0.1, 0.07, 0.05]
SRC = Path(__file__).resolve().parents[1] / "src"


def write_config(tmp_path, name="cfg.json", **over):
    cfg = {
        "family": "hyperbolic",
        "epsilons": FAST_EPS,
        "grid": {"n_theta": 32, "n_phi": 4},
        "tolerances": {},
        "output": {"dir": str(tmp_path / "out")},
    }
    cfg.update(over)
    path = tmp_path / name
    path.write_text(json.dumps({k: v for k, v in cfg.items() if v is not None}))
    return str(path)


def test_sweep_success(tmp_path, capsys):
    assert main(["sweep", write_config(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "fitted limits" in out
    assert "family: hyperbolic" in out
    assert (tmp_path / "out" / "sweep.csv").exists()
    assert (tmp_path / "out" / "summary.json").exists()
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["tags"]["m_by"]["classify"] == "zero"
    assert summary["config"]["tolerances"] == TOLERANCES


@pytest.mark.parametrize("psi, want", [
    # the limit sits about 1,170 tolerances outside the future cone
    ({"type": "poly_cos", "coefficients": [1e-6, 1e-5]}, "spacelike"),
    # about 5,000 tolerances inside it
    ({"type": "constant", "value": 1e-5}, "future-timelike"),
], ids=["poly_cos-small", "constant-small"])
def test_sweep_tags_small_masses_by_cone_distance(tmp_path, psi, want):
    # every per-radius and limit tag of a small mass vector is read off its
    # cone distance in the vector's units, and agrees with cone_max's sign
    path = write_config(tmp_path, family={"name": "perturbed_round", "psi": psi},
                        epsilons=None, schedule={"eps0": 0.2, "ratio": 2 ** -0.5, "count": 8},
                        grid={"n_theta": 64, "n_phi": 4})
    assert main(["sweep", path]) == 0
    with open(tmp_path / "out" / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    for row in rows:
        assert [row[k] for k in ("tag_by", "tag_hat", "tag_alpha")] == [want] * 3
        for prefix in ("mBY", "mhat", "malpha"):
            v = [float(row["%s_%s" % (prefix, c)]) for c in ("x1", "x2", "x3", "t")]
            assert (cone_pairing_report(v) < 0.0) == (want == "future-timelike")
    tags = json.loads((tmp_path / "out" / "summary.json").read_text())["tags"]
    assert sorted(tags) == ["m_alpha", "m_by", "m_hat"]
    for tag in tags.values():
        assert tag["classify"] == want
        assert (tag["cone_max"] < 0.0) == (want == "future-timelike")


def test_sweep_reruns_identical(tmp_path):
    a = write_config(tmp_path, name="a.json", output={"dir": str(tmp_path / "a")})
    b = write_config(tmp_path, name="b.json", output={"dir": str(tmp_path / "b")})
    assert main(["sweep", a]) == 0
    assert main(["sweep", b]) == 0
    assert (tmp_path / "a" / "sweep.csv").read_bytes() == (tmp_path / "b" / "sweep.csv").read_bytes()
    assert (tmp_path / "a" / "summary.json").read_bytes() == (tmp_path / "b" / "summary.json").read_bytes()


@pytest.mark.parametrize("family", [
    {"name": "perturbed_round",
     "psi": {"type": "poly_cos", "coefficients": [0.05, -0.08, 0.06]}},
    {"name": "ads_schwarzschild", "mass": 1.0},
], ids=["poly_cos", "ads"])
def test_verify_reruns_identical(tmp_path, family):
    a = write_config(tmp_path, name="a.json", family=family, output={"dir": str(tmp_path / "a")})
    b = write_config(tmp_path, name="b.json", family=family, output={"dir": str(tmp_path / "b")})
    assert main(["verify", a]) == 0
    assert main(["verify", b]) == 0
    assert (tmp_path / "a" / "verify.json").read_bytes() == (tmp_path / "b" / "verify.json").read_bytes()


def test_sweep_reports_radius_failures(tmp_path, capsys):
    path = write_config(
        tmp_path,
        family={"name": "perturbed_round", "psi": {"type": "constant", "value": -40.0}},
        epsilons=[0.45, 0.12, 0.08, 0.05],
    )
    assert main(["sweep", path]) == 2
    out = capsys.readouterr().out
    assert "FAILED" in out
    # outputs are still written, with the error recorded per radius
    with open(tmp_path / "out" / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["error"].startswith("ValueError: ")
    assert [r["error"] for r in rows[1:]] == ["", "", ""]
    assert main(["report", str(tmp_path / "out" / "summary.json")]) == 0
    out = capsys.readouterr().out
    assert "  eps=0.45       FAILED: %s" % rows[0]["error"] in out.splitlines()


def test_config_errors_exit_3(tmp_path, capsys):
    assert main(["sweep", str(tmp_path / "missing.json")]) == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["sweep", str(bad)]) == 3
    assert main(["sweep", write_config(tmp_path, family="minkowski")]) == 3
    assert main(["sweep", write_config(tmp_path,
                                       schedule={"eps0": 0.2, "ratio": 0.5})]) == 3
    err = capsys.readouterr().err
    assert "config error" in err


# each case keeps the name pytest first gave it by position, so that deleting
# one renames no other
@pytest.mark.parametrize("over", [
    # a tolerance key is refused whatever its value, a malformed one too
    {"tolerances": {"isometry": "abc"}},
    {"tolerances": {"hyperboloid": None}},
    {"tolerances": {"surface_identity": "inf"}},
    {"seed": -1},
    {"alpha": True},
    {"alpha": False},
    # a JSON boolean where a number is read
    {"family": {"name": "ads_schwarzschild", "mass": True}},
    {"tolerances": {"limit_rtol": True}},
    {"epsilons": [0.2, True, 0.05]},
    {"epsilons": None, "schedule": {"eps0": True, "ratio": 0.5, "count": 4}},
    {"epsilons": None, "schedule": {"eps0": 0.2, "ratio": False, "count": 4}},
    {"family": {"name": "perturbed_round", "psi": {"type": "poly_cos", "coefficients": [0.05, True]}}},
    {"family": {"name": "perturbed_round", "psi": {"type": "cos_theta", "amplitude": False}}},
    {"family": {"name": "perturbed_round", "psi": {"type": "constant", "value": True}}},
    {"tolerances": {"isometry": -1}},
    {"tolerances": {"h0_order": -4.0}},
    {"tolerances": {"gauss_order": -1e-300}},
    {"tolerances": {"funclim_atol": -1e-8}},
    # a schedule whose smallest radius underflows, refused before it is built
    {"epsilons": None, "schedule": {"eps0": 0.2, "ratio": 0.5, "count": 10 ** 12}},
], ids=["over0", "over1", "over2", "over3", "over4", "over5", "over6", "over7", "over8", "over9",
        "over10", "over11", "over12", "over13", "over14", "over15", "over16", "over17", "over18"])
@pytest.mark.parametrize("command", ["sweep", "verify"])
def test_bad_config_values_exit_3(tmp_path, capsys, command, over):
    assert main([command, write_config(tmp_path, **over)]) == 3
    err = capsys.readouterr().err
    assert "config error" in err
    for key in over.get("tolerances", {}):
        assert err == "config error: unknown tolerances key(s): %s\n" % key


@pytest.mark.parametrize("over, unknown", [
    ({"schedule": {"eps0": 0.2, "ratio": 0.7, "cout": 12}, "epsilons": None}, "schedule key(s): cout"),
    ({"family": {"name": "ads_schwarzschild", "mass": 1, "charge": 0.6}}, "family key(s): charge"),
    ({"family": {"name": "hyperbolic", "mass": 1}}, "family key(s): mass"),
    ({"family": {"name": "perturbed_round", "psi": {"type": "constant", "value": 0.1},
                 "mass": 1}}, "family key(s): mass"),
    ({"family": {"name": "perturbed_round", "psi": {"type": "cos_theta", "amplitude": 0.1,
                                                    "amplitud": 0.2}}}, "psi profile key(s): amplitud"),
    ({"family": {"name": "perturbed_round", "psi": {"type": "constant", "value": 0.1,
                                                    "amplitude": 0.2}}}, "psi profile key(s): amplitude"),
    ({"family": {"name": "perturbed_round", "psi": {"type": "poly_cos", "coefficients": [0.1],
                                                    "degree": 1}}}, "psi profile key(s): degree"),
    ({"grid": {"n_theta": 32, "n_phi": 4, "n_thetaa": 64}}, "grid key(s): n_thetaa"),
    ({"output": {"dir": "out", "fmt": "csv"}}, "output key(s): fmt"),
    # former keys: the meridian branch and verify's seed are fixed now
    ({"branch": 1}, "config key(s): branch"),
    ({"branch": -1}, "config key(s): branch"),
    ({"seed": 94211}, "config key(s): seed"),
], ids=["schedule", "family_ads", "family_hyperbolic", "family_perturbed", "psi_cos_theta",
        "psi_constant", "psi_poly_cos", "grid", "output", "branch", "branch_mirror", "seed"])
@pytest.mark.parametrize("command", ["sweep", "verify", "embed"])
def test_unknown_nested_config_key_exits_3(tmp_path, capsys, command, over, unknown):
    # a misspelt or unsupported key in any config object is refused, never
    # silently dropped
    assert main([command, write_config(tmp_path, **over)]) == 3
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["config error: unknown " + unknown]
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("grid, error", [
    ({"n_theta": MAX_GRID_THETA + 1, "n_phi": 4}, "grid.n_theta must lie in [16, 1024]"),
    ({"n_theta": 32, "n_phi": MAX_GRID_PHI + 1}, "grid.n_phi must lie in [4, 64]"),
], ids=["n_theta", "n_phi"])
@pytest.mark.parametrize("command", ["sweep", "verify", "embed"])
def test_grid_above_its_cap_exits_3(tmp_path, capsys, command, grid, error):
    # a grid one node above its cap is refused before any table is built:
    # one stderr line, nothing on stdout, nothing written
    assert main([command, write_config(tmp_path, grid=grid, epsilons=[0.2])]) == 3
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["config error: " + error]
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["sweep", "verify", "embed"])
def test_unwritable_output_dir_exits_3(tmp_path, capsys, command):
    # output.dir names an existing file: one stderr line, no traceback,
    # nothing on stdout
    blocker = tmp_path / "out"
    blocker.write_text("not a directory\n")
    assert main([command, write_config(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("config error: cannot write outputs to %s: " % blocker)
    assert blocker.read_text() == "not a directory\n"


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("command", ["sweep", "verify"])
def test_non_finite_poly_cos_coefficient_exits_3(tmp_path, capsys, command, bad):
    # json reads NaN and Infinity; a profile built from them is refused
    # before any radius runs
    family = {"name": "perturbed_round", "psi": {"type": "poly_cos", "coefficients": [bad, 0.1]}}
    assert main([command, write_config(tmp_path, family=family)]) == 3
    assert "poly_cos coefficients must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_with_too_few_radii_exits_2(tmp_path, capsys):
    # a valid config whose two radii are too few to fit the limits: one
    # line on stderr, no traceback, no outputs
    assert main(["sweep", write_config(tmp_path, epsilons=[0.2, 0.1])]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "sweep failed: only 2 of 2 radii completed; need 3 to fit limits"]
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_verify_success(tmp_path, capsys):
    assert main(["verify", write_config(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    report = json.loads((tmp_path / "out" / "verify.json").read_text())
    assert report["passed"] is True


def test_verify_resolves_reference_curvature_at_small_radii(tmp_path):
    # twelve radii down to eps 0.0044: H0 - 2 cosh(eps) must keep its
    # fifth-order decay at the deepest radii instead of flattening out
    path = write_config(
        tmp_path,
        family={"name": "perturbed_round",
                "psi": {"type": "poly_cos", "coefficients": [0.05, -0.08, 0.06]}},
        epsilons=None,
        schedule={"eps0": 0.2, "ratio": 0.7071067811865476, "count": 12},
        grid={"n_theta": 64, "n_phi": 4},
    )
    assert main(["verify", path]) == 0
    report = json.loads((tmp_path / "out" / "verify.json").read_text())
    assert report["entries"]["reference_curvature_order"]["order"] >= 4.5


def test_verify_notes_unresolved_flat_laplacian_order(tmp_path, capsys):
    # on 3 cos^30 theta the Laplacian term falls below funclim_atol at three
    # of the four tail radii, so its decay order is never measured
    path = write_config(
        tmp_path,
        family={"name": "perturbed_round",
                "psi": {"type": "poly_cos", "coefficients": [0] * 30 + [3]}},
        epsilons=None,
        schedule={"eps0": 0.2, "ratio": 0.7071067811865476, "count": 8},
        grid={"n_theta": 64, "n_phi": 4},
    )
    assert main(["verify", path]) == 0
    note = "decay order unresolved: 1 of 4 tail values above funclim_atol"
    line = next(ln for ln in capsys.readouterr().out.splitlines()
                if "flat_laplacian_decay" in ln)
    assert note in line and "inf" not in line
    entry = json.loads((tmp_path / "out" / "verify.json").read_text())["entries"][
        "flat_laplacian_decay"]
    assert entry["passed"] is True and entry["note"] == note


def test_verify_failure_exits_2(tmp_path, capsys, monkeypatch):
    # the surface identity holds on the round spheres to about 2e-12, not
    # to 0, so a zero bound fails that entry alone
    monkeypatch.setitem(sweep.TOLERANCES, "surface_identity", 0.0)
    assert main(["verify", write_config(tmp_path)]) == 2
    out = capsys.readouterr().out
    assert [ln.split()[1] for ln in out.splitlines() if "FAIL" in ln] == ["surface_identity"]
    report = json.loads((tmp_path / "out" / "verify.json").read_text())
    assert report["passed"] is False
    entry = report["entries"]["surface_identity"]
    assert entry["passed"] is False and entry["residual"] > 0.0


def test_verify_embeds_spheres_below_the_k_margin(tmp_path, capsys):
    # on 300 cos^2 theta the two largest spheres do not clear the K > -1
    # margin: sweep records the error at each, while verify embeds them
    # anyway and reports the margin as gauss_margin_ok
    path = write_config(
        tmp_path,
        family={"name": "perturbed_round", "psi": {"type": "poly_cos", "coefficients": [0, 0, 300]}},
        epsilons=[0.5, 0.45, 0.4, 0.3, 0.2, 0.1, 0.05, 0.025],
        grid={"n_theta": 64, "n_phi": 4},
    )
    margin = "FAILED: EmbeddingError: Gauss curvature does not clear the K > -1 margin"
    assert main(["sweep", path]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split()[0] for ln in lines if margin in ln] == ["eps=0.5", "eps=0.45"]
    assert sum("FAILED" in ln for ln in lines) == 2
    assert main(["verify", path]) == 2
    failed = [ln.split()[1] for ln in capsys.readouterr().out.splitlines() if "FAIL" in ln]
    assert failed == ["surface_identity", "norm_growth", "area_growth", "embedding_residuals"]
    entry = json.loads((tmp_path / "out" / "verify.json").read_text())["entries"][
        "embedding_residuals"]
    assert entry["gauss_margin_ok"] is False and entry["mean_curvature_ok"] is True
    assert entry["passed"] is False


@pytest.mark.parametrize("key", sorted(TOLERANCES)
                         + ["spinor_norm", "geodesic_fit", "gradient_identity", "bogus"])
@pytest.mark.parametrize("command", ["sweep", "verify", "embed"])
def test_removed_tolerance_keys_exit_3(tmp_path, capsys, command, key):
    # the bounds are one fixed table, sweep.TOLERANCES: any key under
    # "tolerances" is refused before anything is built or written, the
    # table's own keys (even at their table value), the spinor bounds that
    # moved to the tests, and a key that never was
    assert main([command, write_config(tmp_path, tolerances={key: TOLERANCES.get(key, 1.0)})]) == 3
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["config error: unknown tolerances key(s): %s" % key]
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_embed_writes_profile(tmp_path, capsys):
    path = write_config(
        tmp_path,
        family={"name": "perturbed_round", "psi": {"type": "cos_theta", "amplitude": 0.1}},
    )
    assert main(["embed", path]) == 0
    assert (tmp_path / "out" / "profile_eps_0.2.csv").exists()
    assert main(["embed", path, "--eps", "0.1"]) == 0
    csv = tmp_path / "out" / "profile_eps_0.1.csv"
    assert csv.read_text().splitlines()[0] == "theta,f,u,w,H0"
    assert "isometry residual" in capsys.readouterr().out
    assert main(["embed", path, "--eps", "0.7"]) == 3


def test_embed_keeps_radii_apart_that_agree_to_six_digits(tmp_path, capsys):
    # %g would name both profile_eps_0.1.csv; the second would overwrite
    path = write_config(tmp_path)
    assert main(["embed", path, "--eps", "0.1"]) == 0
    assert main(["embed", path, "--eps", "0.1000001"]) == 0
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "profile_eps_0.1.csv", "profile_eps_0.1000001.csv"]
    out = capsys.readouterr().out
    assert "wrote %s" % (tmp_path / "out" / "profile_eps_0.1000001.csv") in out


@pytest.mark.parametrize("psi, eps, tail_tol, error", [
    ({"type": "poly_cos", "coefficients": [0.05, -0.08, 0.06]}, "0.001", 0.0,
     "EmbeddingError: rapidity series unresolved at degree 8192"),
    ({"type": "poly_cos", "coefficients": [0.05, -0.08, 0.06]}, "0.0001", None,
     "EmbeddingError: embedded nodes leave the hyperboloid"),
    ({"type": "constant", "value": -40.0}, "0.45", None,
     "ValueError: degenerate induced metric"),
], ids=["unresolved", "hyperboloid", "degenerate"])
def test_embed_failure_exits_2(tmp_path, capsys, monkeypatch, psi, eps, tail_tol, error):
    # a sphere that cannot be embedded: one line on stderr, no profile.
    # Every sphere above the hyperboloid floor resolves its rapidity at the
    # first degree, so the cap is reached with the chop disabled
    if tail_tol is not None:
        monkeypatch.setattr(embed_h3, "RAPIDITY_TAIL_TOL", tail_tol)
    path = write_config(tmp_path, family={"name": "perturbed_round", "psi": psi})
    assert main(["embed", path, "--eps", eps]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("embed failed: " + error)
    assert err.count("\n") == 1
    assert "wrote" not in out
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("c2, low", [(-20.0, "-5.129e-01"), (-30.0, "-8.349e+00")])
def test_embed_negative_discriminant_line(tmp_path, capsys, c2, low):
    # the probe's running minimum over its point blocks, pinned to the
    # digits it printed as one 2001-point product: at -20 the minimum sits
    # on a pole, the last probe point, at -30 inside the last block
    psi = {"type": "poly_cos", "coefficients": [0.0, 0.0, c2]}
    path = write_config(tmp_path, family={"name": "perturbed_round", "psi": psi},
                        grid={"n_theta": 64, "n_phi": 4})
    assert main(["embed", path, "--eps", "0.45"]) == 2
    out, err = capsys.readouterr()
    assert err == ("embed failed: EmbeddingError: discriminant negative (min %s): metric not "
                   "realizable as a revolution surface in this gauge\n" % low)
    assert out == ""


def test_embed_round_dispatch_profile(tmp_path):
    # the closed-form path writes the meridian of its own embedding
    assert main(["embed", write_config(tmp_path)]) == 0
    csv = tmp_path / "out" / "profile_eps_0.2.csv"
    lines = csv.read_text().splitlines()
    assert lines[0] == "theta,f,u,w,H0"
    assert len(lines) == 33


def test_report(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["sweep", cfg]) == 0
    capsys.readouterr()
    summary = str(tmp_path / "out" / "summary.json")
    assert main(["report", summary]) == 0
    out = capsys.readouterr().out
    assert "family: hyperbolic" in out
    assert "limit" in out
    assert "decay order" in out


def test_report_prints_the_sweeps_limits_and_bars(tmp_path, capsys):
    # each limit line of the report carries the sweep's limit, its error
    # bar per component in (x1, x2, x3, t) order, and the fit degree
    family = {"name": "perturbed_round", "psi": {"type": "cos_theta", "amplitude": 0.1}}
    assert main(["sweep", write_config(tmp_path, family=family)]) == 0
    swept = capsys.readouterr().out.splitlines()
    assert main(["report", str(tmp_path / "out" / "summary.json")]) == 0
    out = capsys.readouterr().out.splitlines()
    fits = json.loads((tmp_path / "out" / "summary.json").read_text())["fits"]
    for name in ("m_by", "m_hat", "m_alpha"):
        line = next(x for x in swept if x.startswith("  %-8s (" % name))
        fitted = line[len("  %-8s " % name):line.index(" [")]
        bars = ", ".join("%.1e" % fits[name][c]["limit_err"] for c in ("x1", "x2", "x3", "t"))
        assert fitted.endswith(" +/- (%s) degree %d" % (bars, len(FAST_EPS) - 3))
        assert any(x.startswith("  limit %-8s %s [" % (name, fitted)) for x in out)


def test_report_rejects_non_summary(tmp_path):
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"hello": 1}))
    assert main(["report", str(other)]) == 3
    assert main(["report", str(tmp_path / "none.json")]) == 3


@pytest.mark.parametrize("over", [
    {"epsilons": None},
    {"epsilons": 0.2},
    {"epsilons": ["a"]},
    {"wang_reference": ["x", 0, 0, 0]},
    {"limits": [1, 2]},
    {"fits": {"m_by": 3}},
    [],
])
def test_report_refuses_malformed_summary(tmp_path, capsys, over):
    # one stderr line and exit 3, never a traceback or partial output
    assert main(["sweep", write_config(tmp_path)]) == 0
    path = tmp_path / "out" / "summary.json"
    data = json.loads(path.read_text())
    path.write_text(json.dumps(dict(data, **over) if over else over))
    capsys.readouterr()
    assert main(["report", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: %s does not look like a sweep summary\n" % path


def _csv_lines(path):
    return path.read_text().splitlines()


def _set_cell(lines, row, column, value):
    header = lines[0].split(",")
    cells = lines[row].split(",", len(header) - 1)
    cells[header.index(column)] = value
    lines[row] = ",".join(cells)
    return lines


def _drop_radius_cells(lines):
    # the layout before sweep.csv carried the enclosing radii
    out = []
    for line in lines:
        cells = line.split(",", 26)
        out.append(",".join(cells[:14] + cells[16:]))
    return out


@pytest.mark.parametrize("edit, message", [
    ("missing", "cannot read {csv}: [Errno 2] No such file or directory: '{csv}'"),
    ("directory", "cannot read {csv}: [Errno 21] Is a directory: '{csv}'"),
    (lambda ls: _set_cell(ls, 1, "epsilon", "0.3"),
     "the epsilon column of {csv} differs from the epsilons of {summary}"),
    (lambda ls: ls[:-1],
     "the epsilon column of {csv} differs from the epsilons of {summary}"),
    (lambda ls: _set_cell(ls, 2, "mBY_t", "abc"), "{csv} line 3: malformed mBY_t cell 'abc'"),
    (lambda ls: _set_cell(ls, 1, "mBY_x1", ""), "{csv} line 2: malformed mBY_x1 cell ''"),
    (lambda ls: _set_cell(ls, 1, "epsilon", "x"), "{csv} line 2: malformed epsilon cell 'x'"),
    (lambda ls: _set_cell(ls, 4, "tag_by", "timelike"),
     "{csv} line 5: malformed tag_by cell 'timelike'"),
    (lambda ls: _set_cell(_set_cell(ls, 1, "mBY_x1", "1.5"), 1, "error", "ValueError: x"),
     "{csv} line 2: malformed mBY_x1 cell '1.5'"),
    (lambda ls: ls[:2] + [ls[2].rsplit(",", 3)[0]] + ls[3:], "{csv} line 3 has 24 cells, not 27"),
    (_drop_radius_cells, "{csv} has no sweep.csv header"),
], ids=["missing", "directory", "epsilon_changed", "row_dropped", "mby_not_a_number",
        "mby_empty", "epsilon_not_a_number", "unknown_tag", "failed_row_with_numbers",
        "short_row", "old_layout"])
def test_report_refuses_malformed_sweep_csv(tmp_path, capsys, edit, message):
    # report reads its per-radius lines from the sweep.csv beside the
    # summary; anything there that sweep does not write is one stderr line
    # and exit 3, with nothing on stdout
    assert main(["sweep", write_config(tmp_path)]) == 0
    summary = tmp_path / "out" / "summary.json"
    path = tmp_path / "out" / "sweep.csv"
    if edit in ("missing", "directory"):
        path.unlink()
        if edit == "directory":
            path.mkdir()
    else:
        path.write_text("\n".join(edit(_csv_lines(path))) + "\n")
    capsys.readouterr()
    assert main(["report", str(summary)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: %s\n" % message.format(csv=path, summary=summary)


def test_report_reads_an_error_with_commas(tmp_path, capsys):
    # the error is the last cell and may hold commas
    assert main(["sweep", write_config(tmp_path)]) == 0
    path = tmp_path / "out" / "sweep.csv"
    lines = _csv_lines(path)
    cells = lines[1].split(",")
    lines[1] = cells[0] + "," * 26 + "ValueError: a, b, c"
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["report", str(tmp_path / "out" / "summary.json")]) == 0
    assert "  eps=0.2        FAILED: ValueError: a, b, c" in capsys.readouterr().out.splitlines()


def test_commands_run_on_numpy_alone(tmp_path):
    # a fresh interpreter runs sweep and verify without importing scipy,
    # or the numpy submodules neither computes with: numpy.random, numpy.ma
    path = write_config(tmp_path, family={"name": "ads_schwarzschild", "mass": 3.3},
                        epsilons=[0.2, 0.14, 0.1, 0.07])
    script = (
        "import json, sys\n"
        "from ahmass.cli import main\n"
        "codes = [main(['sweep', sys.argv[1]]), main(['verify', sys.argv[1]])]\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')\n"
        "                or m in ('numpy.random', 'numpy.ma'))\n"
        "print(json.dumps([codes, loaded]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", script, path], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    codes, loaded = json.loads(out.stdout.splitlines()[-1])
    # verify may exit 2: on four radii this heavy mass fails area_growth
    assert codes[0] == 0 and codes[1] in (0, 2)
    assert loaded == []


def test_parser_is_built_once_per_process(tmp_path):
    # importing the command line builds no parser; the first main call
    # builds it, and a second call reuses it and writes the same files
    a = write_config(tmp_path, name="a.json", output={"dir": str(tmp_path / "a")})
    b = write_config(tmp_path, name="b.json", output={"dir": str(tmp_path / "b")})
    script = (
        "import argparse, json, sys\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import ahmass.cli\n"
        "counts = [len(built)]\n"
        "codes = []\n"
        "for path in sys.argv[1:]:\n"
        "    codes.append(ahmass.cli.main(['sweep', path]))\n"
        "    counts.append(len(built))\n"
        "print(json.dumps([codes, counts]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", script, a, b], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    codes, counts = json.loads(out.stdout.splitlines()[-1])
    assert codes == [0, 0]
    assert counts[0] == 0 and counts[1] > 0 and counts[2] == counts[1]
    for name in ("sweep.csv", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_bad_subcommand_exits_2(capsys):
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
