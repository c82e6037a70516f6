"""tools/mutants.py: every mutant applies to this checkout exactly once,
and the mutant that restores the tolerance band on <<v, v>> is killed."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_mutant_applies_once():
    tool = load_tool()
    tool.check_mutants()
    assert len(tool.MUTANTS) == 15


def test_band_mutant_is_killed(capsys):
    # the light-cone tests alone kill it; on hyperbolic the commands and
    # the limit check pass, so the matrix row reads "..."
    tool = load_tool()
    assert tool.main(["band", "--tests", "tests/test_lorentz.py", "--configs", "hyperbolic"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["mutant", "tier-1", "hyperbolic"]
    name, failed, cell = lines[1].split()
    assert (name, cell) == ("band", "...") and int(failed) > 0
    assert lines[-1] == "killed: 1 of 1"
