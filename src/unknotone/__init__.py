"""Exact-arithmetic obstructions to unknotting number one from Goeritz forms."""

__version__ = "0.1.0"

from .alexander import (
    AlexanderPolynomial,
    lspace_coefficient_check,
    polynomial_from_torsion,
    torsion_from_matching,
    torsion_from_polynomial,
)
from .catalog import (
    KnotRecord,
    WhiteGraph,
    builtin_dataset,
    builtin_record,
    goeritz_from_white_graph,
    parse_knot_records,
    serialize_knot_records,
)
from .corrections import CorrectionVector, correction_vector
from .errors import (
    MissingSignatureError,
    NonCyclicCokernelError,
    SingularFormError,
    TorsionExtractionError,
    UnknotOneError,
    ValidationError,
)
from .gamma import GammaVector, gamma_vector, kappa_list, model_form
from .lattice import CokernelStructure, QuadraticForm, cokernel
from .matching import (
    Matching,
    Outcome,
    Verdict,
    enumerate_matchings,
    even_matchings,
    format_compact,
    obstruct,
    sign_refined_obstruct,
)
from .plumbing import PlumbingForm, class_count, plumbing_corrections
