"""Numerical laboratory for vector-valued quasi-local masses of coordinate
spheres in asymptotically hyperbolic 3-manifolds.

The pipeline: collar families of metrics g = sinh^-2(rho) (drho^2 + u h0)
produce coordinate spheres; each sphere is isometrically embedded into the
hyperboloid model of hyperbolic 3-space sitting inside Minkowski R^{3,1};
comparison of mean curvatures yields Minkowski-vector-valued masses whose
causal characters and eps -> 0 limits the sweep harness fits and tags.
"""

__version__ = "0.1.0"

from .lorentz import (
    CausalClass,
    LorentzMap,
    MinkowskiVector,
    SpinorParameter,
    boost,
    causal_classify,
    cone_pairing_report,
    hopf_eta,
    lorentz_inner,
    rotation,
)
from .sphere_geometry import (
    QuadratureGrid,
    SurfaceSample,
    coordinate_sphere,
    integrate_scalar,
    surface_laplacian,
)
from .ah_metric import (
    AdSSchwarzschild,
    AHFamily,
    Hyperbolic,
    PerturbedRound,
    ads_collar_transform,
    mass_aspect,
    scalar_curvature,
    wang_mass,
)
from .embed_h3 import (
    EmbeddedSurface,
    EmbeddingError,
    RevolutionProfile,
    boost_surface,
    dump_profile_csv,
    embed_revolution,
    embed_round,
    embed_surface,
    embed_surfaces,
    mean_curvature_h0,
)
from .quasilocal import (
    alpha_from_radii,
    alpha_mass,
    by_mass,
    enclosing_radii,
    hat_mass,
    mass_vectors,
)
from .killing_spinor import (
    KillingNormField,
    exhaustion_norm_growth,
    minkowski_identity_residual,
)
from .sweep import (
    ConfigError,
    FitResult,
    LimitFit,
    MassSweepRecord,
    PerEpsRecord,
    SweepConfig,
    decay_order,
    default_schedule,
    extrapolate_limits,
    family_from_spec,
    fit_limit,
    read_sweep_csv,
    run_sweep,
    verify_identities,
    write_outputs,
)

__all__ = [
    "__version__",
    # lorentz
    "CausalClass", "LorentzMap", "MinkowskiVector", "SpinorParameter",
    "boost", "causal_classify", "cone_pairing_report", "hopf_eta", "lorentz_inner",
    "rotation",
    # sphere_geometry
    "QuadratureGrid", "SurfaceSample", "coordinate_sphere",
    "integrate_scalar", "surface_laplacian",
    # ah_metric
    "AdSSchwarzschild", "AHFamily", "Hyperbolic", "PerturbedRound",
    "ads_collar_transform", "mass_aspect",
    "scalar_curvature", "wang_mass",
    # embed_h3
    "EmbeddedSurface", "EmbeddingError", "RevolutionProfile",
    "boost_surface", "dump_profile_csv", "embed_revolution", "embed_round",
    "embed_surface", "embed_surfaces", "mean_curvature_h0",
    # quasilocal
    "alpha_from_radii", "alpha_mass", "by_mass", "enclosing_radii",
    "hat_mass", "mass_vectors",
    # killing_spinor
    "KillingNormField", "exhaustion_norm_growth",
    "minkowski_identity_residual",
    # sweep
    "ConfigError", "FitResult", "LimitFit", "MassSweepRecord", "PerEpsRecord",
    "SweepConfig", "decay_order", "default_schedule", "extrapolate_limits",
    "family_from_spec", "fit_limit", "read_sweep_csv", "run_sweep",
    "verify_identities", "write_outputs",
]
