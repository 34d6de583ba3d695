import json
import os
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
