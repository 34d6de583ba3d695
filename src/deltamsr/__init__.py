"""Delta-graph recognition and exact msr certification.

Every public name is resolved on first use from ``_EXPORTS``, so importing
the package imports none of its submodules: ``deltamsr.recognize_delta``
loads ``deltamsr.recognition``, ``deltamsr.GenericSampler`` loads the
sampler and with it ``dataclasses``, and a CLI process loads only what its
subcommand runs.  The family builders, which only ``gen`` needs, are a
submodule that nothing here names: ``from deltamsr import families`` loads
it.
"""

import importlib

# public name -> the submodule that defines it
_EXPORTS = {
    "MAX_VERTICES": "graphs",
    "Graph": "graphs",
    "blocks": "graphs",
    "complement": "graphs",
    "from_edge_list": "graphs",
    "is_connected": "graphs",
    "min_degree": "graphs",
    "parse_edge_list": "graphs",
    "parse_graph6": "graphs",
    "to_graph6": "graphs",
    "SEARCH_BUDGET": "recognition",
    "DeltaCertificate": "recognition",
    "SearchBudgetExceeded": "recognition",
    "check_certificate": "recognition",
    "max_excluded": "recognition",
    "recognize_delta": "recognition",
    "GenericSampler": "sampler",
    "OrthoRep": "orthorep",
    "RepReport": "orthorep",
    "RetryBudgetExceeded": "orthorep",
    "construct": "orthorep",
    "gram": "orthorep",
    "verify_rep": "orthorep",
    "ConjectureReport": "msr",
    "check_delta_conjecture": "msr",
    "clique_cover_number": "msr",
    "msr_exact": "msr",
}

__all__ = list(_EXPORTS)
__version__ = "0.19.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later reads find it without this hook
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
