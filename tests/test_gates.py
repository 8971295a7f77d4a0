"""The suite's own settings report a failure as a failure.

Each case runs a small test file in a child pytest under the repo's
pyproject.toml, so its warning filters apply as they do to the suite.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FAILING_GIVEN = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_runs_after():
    pass
'''

WARNING_FROM_MSC3 = '''
import warnings

import numpy as np

from msc3 import Tensor3


class Old:
    # numpy calls this from Tensor3.__post_init__, so the warning is
    # attributed to msc3.tensor
    def __array__(self, dtype=None, copy=None):
        warnings.warn("an old call", DeprecationWarning, stacklevel=2)
        return np.ones((2, 2, 2))


def test_fails():
    Tensor3(Old())


def test_runs_after():
    pass
'''


def _child_pytest(tmp_path, source):
    path = tmp_path / "test_child.py"
    path.write_text(source)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", os.path.join(ROOT, "pyproject.toml"),
         "--rootdir", str(tmp_path), str(path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)


def test_a_failing_given_test_leaves_the_later_tests_running(tmp_path):
    # on a failure hypothesis imports libcst, which warns through
    # mypy_extensions; as an error that warning ended the session with
    # INTERNALERROR before test_runs_after ran
    proc = _child_pytest(tmp_path, FAILING_GIVEN)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr, proc.stdout
    assert proc.returncode == 1, proc.stdout
    assert "1 failed, 1 passed" in proc.stdout


def test_a_deprecation_warning_from_msc3_still_fails_its_test(tmp_path):
    proc = _child_pytest(tmp_path, WARNING_FROM_MSC3)
    assert proc.returncode == 1, proc.stdout
    assert "1 failed, 1 passed" in proc.stdout
    assert "DeprecationWarning: an old call" in proc.stdout
