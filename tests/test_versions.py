"""The Python versions that pyproject.toml admits, beyond the one running the suite.

For each other CPython from the lowest version that ``requires-python``
admits on, found on PATH as ``python3.<minor>``, a fresh process runs
``certify --emit-gram`` on the prism and pipes the bundle into ``verify``,
and another runs the sampler's contract with a ``@dataclass`` subclass
(``helpers.SAMPLER_HOOK``), which rests on how ``dataclasses`` collects a
base class's fields.  A name that PATH holds but that does not start an
interpreter, such as a version manager's shim for a version it has not
selected, is passed over.  The test is skipped when no other version runs.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import helpers
from deltamsr import complement, to_graph6
from deltamsr.families import cycle

ROOT = Path(__file__).resolve().parent.parent
PRISM = to_graph6(complement(cycle(6)))


def lowest_admitted_minor() -> int:
    text = (ROOT / "pyproject.toml").read_text()
    match = re.search(r'^requires-python = ">=3\.(\d+)"$', text, re.MULTILINE)
    assert match, "requires-python is not a lower bound on Python 3"
    return int(match[1])


def other_pythons() -> list[str]:
    """The paths of the other CPython 3 interpreters that PATH names and that run."""
    found = []
    for minor in range(lowest_admitted_minor(), 20):
        path = shutil.which(f"python3.{minor}")
        if path is None or minor == sys.version_info.minor:
            continue
        probe = subprocess.run(
            [path, "-c", "import sys; print(sys.implementation.name, sys.version_info[:2])"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        if probe.returncode == 0 and probe.stdout.split(" ", 1) == ["cpython", f"(3, {minor})\n"]:
            found.append(path)
    return found


def run(python: str, args: list[str], stdin: str = "") -> subprocess.CompletedProcess:
    # no bytecode is written, so no other version leaves a cache in the checkout
    return subprocess.run(
        [python, *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=helpers.subprocess_env(PYTHONDONTWRITEBYTECODE="1"),
        timeout=60,
    )


def test_other_admitted_pythons_certify_verify_and_keep_the_sampler_contract():
    pythons = other_pythons()
    if not pythons:
        pytest.skip("no other CPython 3.10 or later runs from PATH")
    expected = run(sys.executable, ["-m", "deltamsr", "certify", "--emit-gram", PRISM])
    assert expected.returncode == 0, expected.stderr
    for python in pythons:
        certify = run(python, ["-m", "deltamsr", "certify", "--emit-gram", PRISM])
        assert (certify.returncode, certify.stderr) == (0, ""), python
        assert certify.stdout == expected.stdout, python
        verify = run(python, ["-m", "deltamsr", "verify"], certify.stdout)
        assert verify.returncode == 0, (python, verify.stderr)
        result = json.loads(verify.stdout)
        assert result["bound"] == 3 and all(result["checks"].values()), python
        hook = run(python, ["-c", helpers.SAMPLER_HOOK])
        assert (hook.returncode, hook.stdout) == (0, "ok\n"), (python, hook.stderr)
