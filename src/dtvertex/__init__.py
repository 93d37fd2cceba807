"""Exact equivariant vertex computations for counting points on affine space.

Enumerates higher-dimensional partitions, builds the torus character
and equivariant vertex of the corresponding monomial ideals, converts
them to products of linear forms, extracts square-root weights and
their specializations, and assembles the generating series these
weights satisfy -- everything in exact rational arithmetic.
"""

from .errors import (
    ArityMismatch,
    DTVertexError,
    DegenerateSamplePoint,
    DimensionMismatch,
    NotAPerfectSquare,
    NotConstant,
    ShapeMismatch,
    ZeroWeightDenominator,
)
from .forms import (
    FormProduct,
    LinearForm,
    PartitionWeight,
    SpecializedValue,
    compute_weight,
    euler_class,
    euler_ratio_odd,
    evaluate_on_locus,
    omega_from_specialized,
    specialize,
    sqrt_form_product,
    taut_factor,
)
from .kclass import (
    KClass,
    VertexSplit,
    character,
    check_key_conjecture,
    cy_fixed_part,
    cy_reduce,
    vertex,
    vertex_split,
)
from .omega import OmegaDecomposition, check_exp_identity, compare_omegas, decompositions, omega_c
from .orientation import OrientationAssignment, positive_omega_orientation, verify_uniqueness
from .partitions import (
    MultiPartition,
    binary_rep_contains,
    canonical_representatives,
    canonicalize_axes,
    count_by_binomial_formula,
    count_partitions,
    enumerate_partitions,
    orbit,
    orbit_size,
)
from .ratpoly import QPoly
from .series import (
    TruncatedSeries,
    build_z_4k,
    build_z_odd,
    check_power_law,
    m_series,
    series_pow_ell,
    target_4k,
    target_odd,
)

__version__ = "0.1.0"
