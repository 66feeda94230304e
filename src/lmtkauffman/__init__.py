"""Exact framed-link polynomial computation with built-in identity checks."""

from .braid import braid_closure, random_closure, random_word
from .diagram import (
    Crossing,
    Diagram,
    DiagramError,
    InternalInvariantError,
    InvalidDiagramError,
    OrientationMask,
    PDSyntaxError,
    SublinkMask,
    parse_pd,
    to_pd_text,
)
from .kauffman import (
    DELTA,
    EmptyDiagramError,
    f_oriented,
    lambda_poly,
    specialized_f,
)
from .laurent import LaurentA, LaurentAZ, SpecializationError, format_poly
from .lmt import check_reversal_writhe, lmt_rhs, verify_all, verify_sublink_formula
from .transfer import (
    VerificationReport,
    check_skein_identity,
    check_specialization_identity,
    g_tau,
)

__version__ = "0.1.0"

__all__ = [
    "Crossing",
    "DELTA",
    "Diagram",
    "DiagramError",
    "EmptyDiagramError",
    "InternalInvariantError",
    "InvalidDiagramError",
    "LaurentA",
    "LaurentAZ",
    "OrientationMask",
    "PDSyntaxError",
    "SpecializationError",
    "SublinkMask",
    "VerificationReport",
    "braid_closure",
    "check_reversal_writhe",
    "check_skein_identity",
    "check_specialization_identity",
    "f_oriented",
    "format_poly",
    "g_tau",
    "lambda_poly",
    "lmt_rhs",
    "parse_pd",
    "random_closure",
    "random_word",
    "specialized_f",
    "to_pd_text",
    "verify_all",
    "verify_sublink_formula",
    "__version__",
]
