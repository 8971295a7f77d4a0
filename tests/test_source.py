"""The package's source parses as the oldest Python that pyproject.toml
declares, so that syntax newer than the floor fails here, on any newer
interpreter, rather than only on that old one. The two number range rules
are raised only by their owners in tensor.py (as_index, as_real), and only
spectral.py starts a thread.
"""

import ast
import glob
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FLOOR = (3, 10)
SOURCES = sorted(glob.glob(os.path.join(ROOT, "src", "msc3", "*.py")))


def test_the_floor_is_pyprojects():
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as fh:
        assert 'requires-python = ">=3.10"' in fh.read()


@pytest.mark.parametrize("path", SOURCES, ids=os.path.basename)
def test_source_parses_at_the_python_floor(path):
    with open(path, encoding="utf-8") as fh:
        ast.parse(fh.read(), filename=path, feature_version=FLOOR)


# the messages of tensor.as_index's and tensor.as_real's range rules
RANGE_RULES = ("must be at least", "must be positive", "finite and positive")


@pytest.mark.parametrize("path", [p for p in SOURCES
                                  if os.path.basename(p) != "tensor.py"],
                         ids=os.path.basename)
def test_only_tensor_py_writes_out_a_range_rule(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            message = "".join(c.value for c in ast.walk(node.exc)
                              if isinstance(c, ast.Constant)
                              and isinstance(c.value, str))
            assert not any(rule in message for rule in RANGE_RULES), (
                f"{os.path.basename(path)}:{node.lineno} writes out a range "
                "rule; call as_index(value, name, low) or "
                "as_real(value, name, positive=True)")


# what starts a thread; cli.py's ProcessPoolExecutor starts processes
THREAD_MAKERS = {"Thread", "ThreadPoolExecutor"}


@pytest.mark.parametrize("path", [p for p in SOURCES
                                  if os.path.basename(p) != "spectral.py"],
                         ids=os.path.basename)
def test_only_spectral_py_starts_a_thread(path):
    # top_eigen's helper must stay the one thread the package starts: the
    # benchmark tracer keeps one span stack, and blas.blas_held one
    # process-wide count, both for the calling thread alone
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        name = (node.id if isinstance(node, ast.Name) else
                node.attr if isinstance(node, ast.Attribute) else
                node.name if isinstance(node, ast.alias) else None)
        assert name not in THREAD_MAKERS, (
            f"{os.path.basename(path)}:{getattr(node, 'lineno', '?')} names "
            f"{name}; only spectral.top_eigen starts a thread")
