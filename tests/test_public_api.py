"""Every public name has a caller outside the tests.

A name in a module's ``__all__`` must occur at least twice as a NAME token
in the program's own code (the package modules, ``scripts/`` and the
benchmark, but neither ``__init__.py`` nor any test): once where it is
defined and at least once where it is used.  A public method, property
or classmethod of a class in an ``__all__`` must occur at least once as an
attribute, a NAME token right after a ``.`` token, in that code: its
definition is not one, and neither is an unrelated function of the same
name.  A function that only tests call is a test oracle, and oracles live
in ``tests/``.

The package itself re-exports a fixed set of names, each resolved from its
home module on first use, so that importing the package loads none of them,
and defines the three failure classes that its submodules raise.
"""

import importlib
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
import tokenize
from collections import Counter
from pathlib import Path

import pytest

import deltamsr

ROOT = Path(__file__).resolve().parent.parent


def program_files():
    yield from (p for p in (ROOT / "src" / "deltamsr").glob("*.py") if p.name != "__init__.py")
    yield from (ROOT / "scripts").glob("*.py")
    yield from (p for p in (ROOT / "bench").glob("*.py") if not p.name.startswith("test_"))


def name_token_counts() -> tuple[Counter, Counter]:
    """NAME tokens in the program's code: every one, and those right after a "." token."""
    names: Counter = Counter()
    attributes: Counter = Counter()
    for path in program_files():
        with path.open("rb") as fh:
            previous = ""
            for tok in tokenize.tokenize(fh.readline):
                if tok.type in (tokenize.NL, tokenize.COMMENT):
                    continue  # a line break inside brackets may follow the "."
                if tok.type == tokenize.NAME:
                    names[tok.string] += 1
                    attributes[tok.string] += previous == "."
                previous = tok.string if tok.type == tokenize.OP else ""
    return names, attributes


def public_names():
    for info in pkgutil.iter_modules(deltamsr.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"deltamsr.{info.name}")
        for name in getattr(module, "__all__", ()):
            yield f"{info.name}.{name}", name, False
            obj = getattr(module, name)
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                for attr in public_methods(obj):
                    yield f"{info.name}.{name}.{attr}", attr, True


def public_methods(cls):
    """Public methods, properties, classmethods and staticmethods cls defines."""
    for attr, value in vars(cls).items():
        if attr.startswith("_"):
            continue
        if inspect.isfunction(value) or isinstance(value, (property, classmethod, staticmethod)):
            yield attr


def test_every_public_name_is_used_outside_the_tests():
    names, attributes = name_token_counts()
    public = list(public_names())
    assert len(public) > 40  # the modules were found and their __all__ read
    # and their classes' methods
    assert "to_json_dict" in {name for _, name, is_method in public if is_method}
    unused = [
        qualified
        for qualified, name, is_method in public
        if (attributes[name] < 1 if is_method else names[name] < 2)
    ]
    assert not unused, f"public names with no caller outside the tests: {unused}"


# the names the 0.17.0 package imported eagerly, and GenericSampler, which it
# resolved on first use, less the two failure classes the package now defines
PACKAGE_EXPORTS = {
    "MAX_VERTICES", "Graph", "blocks", "complement", "from_edge_list", "is_connected",
    "min_degree", "parse_edge_list", "parse_graph6", "to_graph6",
    "SEARCH_BUDGET", "DeltaCertificate", "check_certificate", "max_excluded",
    "recognize_delta",
    "OrthoRep", "RepReport", "construct", "gram", "verify_rep",
    "ConjectureReport", "check_delta_conjecture", "clique_cover_number", "msr_exact",
    "GenericSampler",
}
# failure class defined in the package -> the submodule that raises it and
# imports it from there
PACKAGE_FAILURES = {
    "SearchBudgetExceeded": "recognition",
    "RetryBudgetExceeded": "construction",
    "SelfCheckFailed": "construction",
}


def test_package_exports_are_their_home_modules_names():
    assert set(deltamsr._EXPORTS) == PACKAGE_EXPORTS
    assert set(deltamsr.__all__) == PACKAGE_EXPORTS | set(PACKAGE_FAILURES)
    for name, home in deltamsr._EXPORTS.items():
        module = importlib.import_module(f"deltamsr.{home}")
        assert name in module.__all__ and getattr(deltamsr, name) is getattr(module, name), name
    for name, home in PACKAGE_FAILURES.items():
        cls = vars(deltamsr)[name]
        assert cls.__module__ == "deltamsr" and issubclass(cls, RuntimeError), name
        module = importlib.import_module(f"deltamsr.{home}")
        assert name in module.__all__ and getattr(module, name) is cls, name
    assert set(deltamsr.__all__) <= set(dir(deltamsr))
    namespace: dict = {}
    exec("from deltamsr import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(deltamsr.__all__)
    with pytest.raises(AttributeError, match="no attribute 'nosuch'"):
        deltamsr.nosuch


def test_importing_the_package_loads_no_submodule():
    code = (
        "import json, sys, deltamsr; "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('deltamsr.'))))"
    )
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_readme_module_table_names_every_module_and_no_other():
    readme = (ROOT / "README.md").read_text()
    table = readme.split("## What's in the box", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `deltamsr\.(\w+)`", table, re.MULTILINE)
    modules = {info.name for info in pkgutil.iter_modules(deltamsr.__path__)} - {"__main__"}
    assert len(rows) == len(set(rows)), rows
    assert set(rows) == modules
