"""Finite volume solver and verification toolkit for scalar conservation
laws on the 2-sphere: chart geometry, divergence-free flux construction,
monotone schemes with entropy and total-variation diagnostics."""

from .errors import (
    ConfigError,
    DegenerateSampleError,
    InputError,
    PoleError,
    SingularPointError,
    SphereFVError,
)
from .expressions import compile_expression
from .geometry import (
    Chart,
    SphereFrame,
    VectorField,
    christoffel,
    divergence,
    embedded_to_intrinsic,
    euclidean_chart,
    frame,
    gradient,
    inner,
    intrinsic_to_embedded,
    laplace_beltrami,
    lie_bracket,
    metric_lie_derivative,
    norm,
    sphere_chart,
)
from .flux import (
    FluxField,
    TVDReport,
    divfree_residual,
    make_flux,
    separable,
    tvd_compatibility,
)
from .mesh import (
    MeshInfo,
    SphereMesh,
    build_latlon,
    cell_averages,
    export_vtk,
    face_average_normal_flux,
    mesh_info,
)
from .fvm import (
    ENGQUIST_OSHER,
    FLUX_KINDS,
    GODUNOV,
    LAX_FRIEDRICHS,
    ConvexDecomposition,
    FaceFluxTable,
    NumericalFlux,
    SolverState,
    cfl_timestep,
    init_state,
    make_numerical_flux,
    numerical_flux,
    run,
    step,
)
from .diagnostics import (
    DiagnosticsRecord,
    EntropySpec,
    Monitor,
    TVReport,
    check_tv_diminishing,
    discrete_tv_x,
    entropy_report,
    kruzkov_spec,
    l1_error,
    square_spec,
    tv_face_weights,
)
from .cli import main

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
