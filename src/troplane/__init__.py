"""Exact tropical (max-plus) linear maps on the tropical projective plane.

Scalars are exact rationals extended with -inf; all geometry (spans,
triangles, somas, antennas, plane arrangements, piecewise map behavior) is
computed with exact arithmetic.  Floating point appears only when figures are
serialized to SVG.
"""

from .arrangement import (
    Arrangement,
    Cell,
    CellSignature,
    antenna_cell,
    bounded_complex,
    enumerate_cells,
    injectivity_set,
    signature_at,
)
from .errors import TroplaneError
from .mapping import apply, classify, is_fixed, piecewise_report, project
from .matrices import (
    IDENTITY,
    MonomialMatrix,
    TropMatrix3,
    adjoint_hat,
    breve,
    is_normal,
    kleene_star,
    monomial_act,
    mul,
    power,
    trop_det,
)
from .normalform import (
    CanonicalParams,
    canonical_form,
    make_F,
    make_L,
    normalize,
    read_params,
    validate_params,
)
from .projective import (
    AffinePoint,
    ProjPoint,
    TropLine,
    chart,
    collinear,
    cross,
    on_line,
    point,
    span_segment,
)
from .scalars import (
    BOTTOM,
    DualScalar,
    TropScalar,
    plane_norm,
    trop,
    trop_distance,
)
from .svgfig import Viewport, render_figure
from .triangle import (
    Antenna,
    TriangleReport,
    analyze,
    hrep_idempotent,
    is_good,
    is_pinwheel,
    member,
    origin_in_soma,
    soma_dimension,
)

__version__ = "1.0.0"
