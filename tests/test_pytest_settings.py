"""The repository's pytest settings report a failing hypothesis test.

`filterwarnings = ["error"]` turns every warning into an error, and a failing
`@given` test makes hypothesis import modules that warn on import. The
settings must still let pytest name the test and exit 1, not stop the
session with an internal error."""
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_deliberately_failing(x):
    assert x < 10
'''


def test_a_failing_given_test_is_reported(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
         "-q", "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = done.stdout + done.stderr
    assert done.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "FAILED test_failing.py::test_deliberately_failing" in out
