"""The suite's pytest settings still let a failing property test report its example."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_always_fails(n):
    assert n != n
"""


def test_a_failing_property_test_prints_its_falsifying_example(tmp_path):
    # Under this repository's pyproject.toml warning filters, not pytest's
    # defaults: an error-level warning raised while hypothesis builds its
    # report used to end the run in an INTERNALERROR (exit 3).
    (tmp_path / "test_fails.py").write_text(FAILING)
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
            "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q", "test_fails.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
