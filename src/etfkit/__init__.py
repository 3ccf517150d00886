"""etfkit: equiangular tight frames from combinatorial designs.

Construct sparse ETFs from resolvable Steiner systems, transform them into
constant-amplitude frames, build difference-set (harmonic) ETFs over finite
fields, certify everything against the Welch bound, analyze spark and
restricted-isometry behavior, and convert real constant-amplitude ETFs to and
from Grey-Rankin-bound-equality binary codes.
"""

from .codes import (
    BinaryCode,
    certify_grbe,
    code_to_frame,
    distance,
    frame_to_code,
    grey_rankin_bound,
    is_linear,
    parse_code,
)
from .designs import (
    SteinerSystem,
    affine_design,
    kirkman15,
    parse_design,
    round_robin_design,
    steiner_params,
    validate,
)
from .flatmat import (
    AbelianGroup,
    UnimodularMatrix,
    character_table,
    dft,
    drop_row_simplex,
    hadamard,
    simplex_from_characters,
)
from .frames import (
    DifferenceSet,
    Frame,
    frame_to_json,
    harmonic_etf,
    kirkman_etf,
    mcfarland_as_kirkman,
    mcfarland_set,
    naimark_complement,
    parse_frame,
    steiner_etf,
)
# gf internals, exported because the harmonic benchmark workload calls them as
# E.make_field and E.hyperplane_kernel, steps of its own
from .gf import hyperplane_kernel, make_field
from .metrics import (
    certify_etf,
    coherence,
    gram_equal,
    rip_delta,
    spark,
    steiner_rip_verdict,
    welch_bound,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup", "BinaryCode", "DifferenceSet", "Frame", "SteinerSystem", "UnimodularMatrix",
    "affine_design", "certify_etf", "certify_grbe", "character_table",
    "code_to_frame", "coherence", "dft", "distance", "drop_row_simplex",
    "frame_to_code", "frame_to_json", "gram_equal", "grey_rankin_bound",
    "hadamard", "harmonic_etf", "hyperplane_kernel",
    "is_linear", "kirkman15", "kirkman_etf", "make_field",
    "mcfarland_as_kirkman", "mcfarland_set", "naimark_complement",
    "parse_code", "parse_design", "parse_frame",
    "rip_delta", "round_robin_design", "simplex_from_characters", "spark",
    "steiner_etf", "steiner_params", "steiner_rip_verdict",
    "validate", "welch_bound",
]
