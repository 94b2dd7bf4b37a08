"""Exact kernel for matrix wreath products of truncated graded algebras."""

from .freealg import FreeElement, ParseError, parse_element
from .gs import GSReport, census_from_blocks, count_polynomial, golod_shafarevich_check
from .growth import (
    FiltrationSchedule,
    GKEstimate,
    GrowthTable,
    build_slow_gamma,
    degree_one_generators,
    dense_dim_check,
    density_witness,
    gk_estimate,
    power_chain,
    shift_independence_witness,
    span_inclusion_check,
    w_gamma_table,
    weighted_image_spans,
)
from .quotient import (
    AlgElement,
    Presentation,
    PresentationError,
    Subspace,
    TruncatedAlgebra,
    TruncationOverflow,
    growth_dims,
)
from .scalars import Field, FieldMismatchError
from .section6 import (
    build_layered_presentation,
    sandwich_check,
    sandwich_report,
    x_part_presentation,
)
from .words import EMPTY_WORD, Alphabet, Word
from .wreath import (
    BasisIndexing,
    GammaMap,
    SMatrix,
    WreathAlgebra,
    WreathElement,
    WreathSpan,
    matrix_unit_generation_check,
    nilpotency_check,
    nilpotent_host_embedding_check,
    unipotent_inverse,
    unit_row_projection,
    wreath_coords,
)

__all__ = [name for name in dir() if not name.startswith("_")]
