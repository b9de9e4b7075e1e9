"""Packaging metadata: the version has one source, ``repro.__version__``."""

import re
from pathlib import Path

from repro import __version__

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _table(text: str, name: str) -> str:
    """Body of the TOML table ``[name]`` (no tomllib on Python 3.10)."""
    match = re.search(rf"^\[{re.escape(name)}\]\s*$(.*?)(?=^\[|\Z)",
                      text, re.MULTILINE | re.DOTALL)
    assert match, f"pyproject.toml has no [{name}] table"
    return match.group(1)


def test_pyproject_pins_no_literal_version():
    project = _table(PYPROJECT.read_text(), "project")
    assert not re.search(r"^\s*version\s*=", project, re.MULTILINE)
    assert re.search(r'^\s*dynamic\s*=\s*\[[^\]]*"version"', project,
                     re.MULTILINE)


def test_version_is_read_from_the_package():
    dynamic = _table(PYPROJECT.read_text(), "tool.setuptools.dynamic")
    assert re.search(r'^\s*version\s*=\s*\{\s*attr\s*=\s*'
                     r'"repro\.__version__"\s*\}', dynamic, re.MULTILINE)
    assert re.fullmatch(r"\d+\.\d+\.\d+", __version__)
