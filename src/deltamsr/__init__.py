"""Delta-graph recognition and exact msr certification.

``GenericSampler`` and ``families`` are resolved on first use, so that
importing the package imports neither ``dataclasses``, which only the
sampler needs, nor the family builders, which only ``gen`` needs.
"""

import importlib

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

__version__ = "0.15.0"


def __getattr__(name: str):
    if name == "GenericSampler":
        from .sampler import GenericSampler

        return GenericSampler
    if name == "families":
        # import_module, not "from . import families": that form looks the
        # name up on this package first and would land here again
        return importlib.import_module(".families", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
