"""The package's source parses as the oldest Python that pyproject.toml
declares, so that syntax newer than the floor fails here, on any newer
interpreter, rather than only on that old one.
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
