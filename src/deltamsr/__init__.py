"""Delta-graph recognition and exact msr certification.

Every public name but the three failure classes is resolved on first use
from ``_EXPORTS``, so importing the package imports none of its
submodules: ``deltamsr.recognize_delta`` loads ``deltamsr.recognition``,
``deltamsr.construct`` loads ``deltamsr.construction``, and a CLI process
loads only what its subcommand runs.  The family builders, which only
``gen`` needs, are a submodule that nothing here names:
``from deltamsr import families`` loads it.

The three failures that stop a graph before its answer are defined here:
``SearchBudgetExceeded`` (the recognition search is undecided),
``RetryBudgetExceeded`` (construction ran out of draws) and
``SelfCheckFailed`` (a constructed representation failed its own check).
The package runs before any submodule, so every layer raises or catches
them without loading another layer; ``recognition`` and ``construction``
import them from here, and the CLI maps them to exit codes.
"""

import importlib

# public name -> the submodule that defines it
_EXPORTS = {
    "MAX_VERTICES": "graphs",
    "Graph": "graphs",
    "complement": "graphs",
    "from_edge_list": "graphs",
    "is_connected": "graphs",
    "min_degree": "graphs",
    "parse_edge_list": "graphs",
    "parse_graph6": "graphs",
    "to_graph6": "graphs",
    "SEARCH_BUDGET": "recognition",
    "DeltaCertificate": "recognition",
    "check_certificate": "recognition",
    "max_excluded": "recognition",
    "recognize_delta": "recognition",
    "GenericSampler": "construction",
    "OrthoRep": "orthorep",
    "RepReport": "orthorep",
    "construct": "construction",
    "gram": "orthorep",
    "verify_rep": "orthorep",
    "ConjectureReport": "msr",
    "blocks": "msr",
    "check_delta_conjecture": "msr",
    "clique_cover_number": "msr",
    "msr_exact": "msr",
}

__all__ = [*_EXPORTS, "SearchBudgetExceeded", "RetryBudgetExceeded", "SelfCheckFailed"]
__version__ = "0.31.0"


class SearchBudgetExceeded(RuntimeError):
    """Raised when recognize_delta expands SEARCH_BUDGET sets without an answer."""

    def __init__(self, nodes: int) -> None:
        super().__init__(f"delta-graph search undecided after {nodes} expanded vertex sets")
        self.nodes = nodes


class RetryBudgetExceeded(RuntimeError):
    """Raised when a solve step finds no admissible vector in its draws.

    construct raises it only after MAX_RESTARTS widened restarts failed too.
    """


class SelfCheckFailed(RuntimeError):
    """Raised when verify_rep rejects a representation that construct built.

    ``failed_pair`` is the report's first failing vertex pair, or None.
    """

    def __init__(self, failed_pair: tuple[int, int] | None) -> None:
        self.failed_pair = failed_pair
        where = "" if failed_pair is None else f", failed_pair {list(failed_pair)}"
        super().__init__(f"constructed representation failed verification{where}")


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later reads find it without this hook
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
