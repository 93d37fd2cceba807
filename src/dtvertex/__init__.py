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
    ExponentOverflow,
    NotAPerfectSquare,
    ShapeMismatch,
    ZeroWeightDenominator,
)
from .forms import (
    FormProduct,
    PartitionWeight,
    compute_weight,
    euler_class,
    omega_from_specialized,
    specialize,
    sqrt_form_product,
    taut_factor,
    weight_table,
)
from .kclass import (
    KClass,
    character,
    check_key_conjecture,
    cy_fixed_part,
    cy_reduce,
    vertex,
)
from .omega import check_exp_identity, decompositions, omega_c
from .orientation import load_orientation, positive_omega_orientation, verify_uniqueness
from .partitions import (
    MultiPartition,
    canonical_representatives,
    canonicalize_axes,
    count_partitions,
    enumerate_partitions,
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
