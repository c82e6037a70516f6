"""The package's public names: every name in an __all__ resolves, and every
function no command enters has a reason to stay."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import ahmass

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    # __main__ runs the CLI on import, and exports nothing
    modules = [ahmass] + [importlib.import_module("ahmass." + m.name)
                          for m in pkgutil.iter_modules(ahmass.__path__) if m.name != "__main__"]
    assert len(modules) > 1
    missing = [(mod.__name__, name) for mod in modules
               for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


# Every function of src/ahmass that no command enters, with the reason it
# stays: a one-item call README documents, or the reader an open ROADMAP
# item names.  Anything else no command reaches is deleted or moves under
# tests/ (oracles.py).
UNREACHED = {
    "ah_metric.AHFamily.collar_profiles": "the AHFamily interface every family overrides",
    "ah_metric.AHFamily.aspect": "the AHFamily interface every family overrides",
    "ah_metric.ads_collar_transform": "item 2: AdS masses per radius",
    "ah_metric.conformal_collar_scalar_curvature": "item 3: the energy condition in the output",
    "ah_metric.scalar_curvature": "item 3: the energy condition in the output",
    "embed_h3.EmbeddedSurface.__init__": "item 11 and acceptance test_07: boosted images",
    "embed_h3.embed_revolution": "item 16: the general (E, G) entry",
    "embed_h3.embed_round": "README's one-item call of the closed-form round stack",
    "embed_h3.boost_surface": "item 11 and acceptance test_07: boosted images",
    "killing_spinor.KillingNormField.value": "F at points, the formula values_on stacks",
    "killing_spinor.minkowski_identity_residual": "README's one-item call of "
                                                  "minkowski_identity_residuals",
    "lorentz.CausalClass.is_future_causal": "item 3: the energy condition in the output",
    "lorentz.LorentzMap.__post_init__": "item 11 and acceptance test_07: Lorentz maps",
    "lorentz.LorentzMap.is_restricted": "item 11 and acceptance test_07: Lorentz maps",
    "lorentz.LorentzMap.compose": "item 11 and acceptance test_07: Lorentz maps",
    "lorentz.boost": "item 11 and acceptance test_07: Lorentz maps",
    "lorentz.rotation": "item 11 and acceptance test_07: Lorentz maps",
    "quasilocal.by_mass": "README's one-sphere call of mass_vectors (Settled)",
    "quasilocal.hat_mass": "README's one-sphere call of mass_vectors (Settled)",
    "sphere_geometry.QuadratureGrid.interp_x": "item 3: scalar_curvature reads it",
    "sphere_geometry.SurfaceSample.__init__": "a sample from its own fields; item 16 "
                                              "rebuilds it",
    "sphere_geometry.surface_laplacian": "README's one-item call of surface_laplacians",
}


def test_every_unreached_function_has_a_reason():
    # sweep, report, verify, embed and embed --eps on the tool's five
    # default configs, in a fresh interpreter
    spec = importlib.util.spec_from_file_location("reachability", ROOT / "tools" / "reachability.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert {name for name, _ in tool.unreached()} == set(UNREACHED)
