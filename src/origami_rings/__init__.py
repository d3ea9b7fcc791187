"""Exact construction and ring analysis of origami point sets.

Start from the points 0 and 1, repeatedly intersect lines through
known points whose directions come from a fixed slope set, and study
the resulting subset of the plane: its levels, its real part, and
whether that real part is closed under multiplication.  All arithmetic
is exact over cyclotomic fields; floating point appears only in the
optional preview generator and in printed approximations.
"""

from .angles import Angle
from .construction import LevelSet, generate
from .cyclotomic import (
    CyclotomicReal,
    cos_of,
    minimal_polynomial,
    sin_of,
    sqrt_rational,
)
from .expressions import ExpressionError, parse_expression
from .export import from_json_document, json_text, to_json_document
from .float_preview import generate_float
from .geometry import (
    DegenerateFrameError,
    Frame,
    Line,
    ParallelLinesError,
    PlanePoint,
    ZeroSlopeError,
    intersect,
)
from .polynomials import RationalPolynomial
from .ring_analysis import (
    Classification,
    MembershipKind,
    MembershipVerdict,
    MembershipWitness,
    RingReport,
    RingStatus,
    SearchBounds,
    SetKind,
    classify,
    delta_set,
    extension_check,
    integral_relation,
    membership_in_MR,
    p_value,
    product_e,
    ratio_elements,
    ring_check,
    trace_element,
)
from .slopes import InvalidSlopeSetError, SlopeSet

__version__ = "0.1.0"

__all__ = [
    "Angle",
    "Classification",
    "CyclotomicReal",
    "DegenerateFrameError",
    "ExpressionError",
    "Frame",
    "InvalidSlopeSetError",
    "LevelSet",
    "Line",
    "MembershipKind",
    "MembershipVerdict",
    "MembershipWitness",
    "ParallelLinesError",
    "PlanePoint",
    "RationalPolynomial",
    "RingReport",
    "RingStatus",
    "SearchBounds",
    "SetKind",
    "SlopeSet",
    "ZeroSlopeError",
    "classify",
    "cos_of",
    "delta_set",
    "extension_check",
    "from_json_document",
    "generate",
    "generate_float",
    "integral_relation",
    "intersect",
    "json_text",
    "membership_in_MR",
    "minimal_polynomial",
    "p_value",
    "parse_expression",
    "product_e",
    "ratio_elements",
    "ring_check",
    "sin_of",
    "sqrt_rational",
    "to_json_document",
    "trace_element",
    "__version__",
]
