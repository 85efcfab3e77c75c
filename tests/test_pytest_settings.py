"""The suite's pytest settings keep a failing property test reporting.

``filterwarnings`` turns every warning into an error.  When a Hypothesis
test fails, Hypothesis's report hook imports libcst, which warns on import
(its ``TypedDict`` base is deprecated); unless the settings ignore that
warning, pytest ends with INTERNALERROR and never prints the falsifying
example.  The check runs pytest on a failing ``@given`` test under the
repository's own ``pyproject.toml``.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_small(value):
    assert value < 10
"""


def test_failing_hypothesis_test_prints_its_example(tmp_path):
    test_file = tmp_path / "test_failing_property.py"
    test_file.write_text(FAILING_PROPERTY)
    command = [sys.executable, "-m", "pytest", str(test_file), "-c", str(PYPROJECT)]
    completed = subprocess.run(
        [*command, "-p", "no:cacheprovider", "-q"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    output = completed.stdout + completed.stderr
    assert completed.returncode == 1, output
    assert "Falsifying example" in output, output
    assert "INTERNALERROR" not in output, output
