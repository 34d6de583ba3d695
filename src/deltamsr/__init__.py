"""Delta-graph recognition and exact msr certification."""

from .graphs import (
    BlockDecomposition,
    EliminationOrdering,
    MAX_VERTICES,
    Graph,
    blocks,
    chordality,
    complement,
    find_pendant,
    from_edge_list,
    induced_subgraph,
    is_connected,
    is_perfect_elimination_ordering,
    max_degree,
    min_degree,
    parse_edge_list,
    parse_graph6,
    to_graph6,
)
from .recognition import (
    SEARCH_BUDGET,
    DeltaCertificate,
    SearchBudgetExceeded,
    check_certificate,
    max_excluded,
    recognize_c_delta,
    recognize_delta,
    verify_certificate,
)
from .orthorep import (
    GenericSampler,
    GramMatrix,
    OrthoRep,
    RepReport,
    RetryBudgetExceeded,
    construct,
    gram,
    rank,
    verify_rep,
)
from .msr import (
    ConjectureReport,
    MsrBounds,
    check_delta_conjecture,
    clique_cover_number_chordal,
    msr_bounds,
    msr_exact,
)
from . import families

__version__ = "0.4.0"
