"""The package and its tools parse at the oldest Python that
``pyproject.toml`` admits, so the declared floor is checked even where the
suite runs on a newer interpreter (``except*``, for one, needs 3.11)."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_sources_parse_at_the_declared_python_floor():
    pyproject = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject).groups()
    floor = (int(major), int(minor))
    assert floor == (3, 10)
    files = sorted((ROOT / "src" / "clusterperm").glob("*.py")) + sorted(
        (ROOT / "tools").glob("*.py"))
    assert len(files) > 10
    for path in files:
        ast.parse(path.read_text(), str(path), feature_version=floor)
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=floor)
