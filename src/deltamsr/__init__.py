"""Delta-graph recognition and exact msr certification.

``GenericSampler`` is resolved on first use, so that importing the package
does not import ``dataclasses``, which only the sampler needs.
"""

from .graphs import (
    MAX_VERTICES,
    Graph,
    blocks,
    complement,
    from_edge_list,
    is_connected,
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
    clique_cover_number,
    msr_exact,
)
from . import families

__version__ = "0.11.0"


def __getattr__(name: str):
    if name == "GenericSampler":
        from .sampler import GenericSampler

        return GenericSampler
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
