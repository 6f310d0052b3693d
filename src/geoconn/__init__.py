"""Generalised connections over a vector bundle map.

Numerical library for anchored vector bundles: horizontal lifts, parallel
transport along admissible curves, the associated derivative operator, and
curvature/torsion of skew products on sections, with a machine-checkable
verification suite.
"""

from .bundle import AdmissibilityError, AdmissibleCurve, AnchorBundle, FiberPoint, SampledCurve, integral_curve_of_section
from .connection import (
    BundleChange,
    GeneralConnection,
    LinearConnection,
    PullbackError,
    RegularityError,
    connection_map,
    intersection_sum_dims,
    lift,
    lift_section,
    partial_connection_test,
    restrict_ordinary_connection,
    transform_connection,
    vertical_part,
)
from .derivative import (
    DifferenceTensor,
    add_difference,
    difference_tensor,
    nabla,
    nabla_along_curve,
    nabla_dual,
    nabla_field,
    nabla_point,
    reconstruct_connection,
)
from .expr import ParseError, parse, to_field, to_matrix_field, to_vector_field
from .fields import (
    CoordDomain,
    DomainError,
    GeoconnError,
    MatrixField,
    NumericError,
    ScalarField,
    ShapeError,
    VectorField,
    add_sections,
    lie_bracket,
    scale_section,
)
from .gallery import (
    GalleryCase,
    GalleryError,
    annihilator_covector,
    by_name,
    contact_frame_vectors,
    gallery_names,
    heisenberg_frame,
    make_ehresmann,
    make_heisenberg_algebroid,
    make_nijenhuis,
    make_poisson,
    make_subbundle_injection,
    make_subriemannian_heisenberg,
)
from .linalg import rank_kernel
from .prelie import (
    InvolutivityDefect,
    PreLieStructure,
    StructureError,
    anchor_hom_residual,
    apply_tensor_field,
    contract_curvature,
    curvature,
    curvature_components,
    involutivity_defect,
    jacobiator,
    nijenhuis_bracket,
    nijenhuis_structure_functions,
    star_product,
    star_section,
    torsion,
    torsion_components,
)
from .transport import TransportResult, lift_curve, parallel_transport, transport_fiber_curve

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
