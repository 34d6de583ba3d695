import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_family_survey_runs_and_certifies():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "family_survey.py")],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    certified = [row for row in rows if row["c_delta"]]
    assert certified
    for row in certified:
        assert row["verified"], row["family"]
        assert row["complement_msr_upper"] == row["complement_delta_bound"], row["family"]
        bits = row["coord_bits_max"]
        assert type(bits) is int and bits > 0, row["family"]


def test_code_lines_counts_every_module_and_sums_them():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "code_lines.py")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert all(len(row) == 2 for row in rows), proc.stdout
    *modules, (total_name, total) = rows
    modules = {name: int(count) for name, count in modules}
    assert set(modules) == {p.name for p in (ROOT / "src" / "deltamsr").glob("*.py")}
    assert all(count > 0 for count in modules.values())
    assert total_name == "total" and int(total) == sum(modules.values())


def test_code_lines_skips_blank_comment_and_docstring_lines(tmp_path):
    code_lines = runpy.run_path(str(ROOT / "scripts" / "code_lines.py"))["code_lines"]
    sample = tmp_path / "sample.py"
    sample.write_text(
        '"""Module\n\ndocstring."""\n\n# a comment\nx = 1  # and one after code\n'
        's = """a string,\nnot a docstring"""\n\n\ndef f():\n    """Docstring."""\n    return x\n'
    )
    # x = 1, both lines of s, def and return
    assert code_lines(sample) == 5
