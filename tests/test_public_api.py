"""Every public name has a caller outside the tests.

A name in a module's ``__all__`` must occur at least twice as a NAME token
in the program's own code (the package modules, ``scripts/`` and the
benchmark, but neither ``__init__.py`` nor any test): once where it is
defined and at least once where it is used.  The same holds for every
public method, property and classmethod of a class in an ``__all__``.  A
function that only tests call is a test oracle, and oracles live in
``tests/``.
"""

import importlib
import inspect
import pkgutil
import tokenize
from collections import Counter
from pathlib import Path

import deltamsr

ROOT = Path(__file__).resolve().parent.parent


def program_files():
    yield from (p for p in (ROOT / "src" / "deltamsr").glob("*.py") if p.name != "__init__.py")
    yield from (ROOT / "scripts").glob("*.py")
    yield from (p for p in (ROOT / "bench").glob("*.py") if not p.name.startswith("test_"))


def name_token_counts() -> Counter:
    counts: Counter = Counter()
    for path in program_files():
        with path.open("rb") as fh:
            for tok in tokenize.tokenize(fh.readline):
                if tok.type == tokenize.NAME:
                    counts[tok.string] += 1
    return counts


def public_names():
    for info in pkgutil.iter_modules(deltamsr.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"deltamsr.{info.name}")
        for name in getattr(module, "__all__", ()):
            yield f"{info.name}.{name}", name
            obj = getattr(module, name)
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                for attr in public_methods(obj):
                    yield f"{info.name}.{name}.{attr}", attr


def public_methods(cls):
    """Public methods, properties, classmethods and staticmethods cls defines."""
    for attr, value in vars(cls).items():
        if attr.startswith("_"):
            continue
        if inspect.isfunction(value) or isinstance(value, (property, classmethod, staticmethod)):
            yield attr


def test_every_public_name_is_used_outside_the_tests():
    counts = name_token_counts()
    names = list(public_names())
    assert len(names) > 40  # the modules were found and their __all__ read
    assert "to_json_dict" in {name for _, name in names}  # and their classes' methods
    unused = [qualified for qualified, name in names if counts[name] < 2]
    assert not unused, f"public names with no caller outside the tests: {unused}"
