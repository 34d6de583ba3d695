"""Delta-graph recognition and exact msr certification."""

from .graphs import (
    MAX_VERTICES,
    Graph,
    blocks,
    chordality,
    complement,
    from_edge_list,
    induced_subgraph,
    is_connected,
    is_perfect_elimination_ordering,
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
)
from .orthorep import (
    GenericSampler,
    OrthoRep,
    RepReport,
    RetryBudgetExceeded,
    construct,
    gram,
    verify_rep,
)
from .msr import (
    ConjectureReport,
    check_delta_conjecture,
    clique_cover_number_chordal,
    msr_exact,
)
from . import families

__version__ = "0.8.0"
